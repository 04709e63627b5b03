"""Scalar diagnostics of flock states and sampled trajectories.

Everything here is a pure function of a state (an object carrying positions
``x`` of shape (N, d), velocities ``v`` of the same shape, weights ``m`` of
shape (N,), and a time ``t``) or of a sampled series of such states: weighted
variation moments, kernel-weighted dissipation, corrector functionals built
from directed distances, assembled monotone (Lyapunov) functionals, collision
potentials for strongly singular kernels, per-agent forward dissipation and
the induced good sets, and the energy-balance residual.

``DiagnosticsRecord``'s fields are the only list of record columns; the CSV
rows and ``record_column`` derive from them.

``compute_record`` has one algorithm for every kernel and every N: each pair
column is summed over blocks of rows against the columns from the block's
first row on, as m_rows @ (S @ w), so no (N, N) array is formed and a flock
of at most ``_RECORD_BLOCK`` agents is one block.  A record forms each
summand only where it can be nonzero: the kernel and the I_p summands within
the kernel's support radius, the Euclidean correctors closer than 2*r0, each
scattered into a block of zeros, so S and its reduction are unchanged bit
for bit.  A block with no pair beyond the support radius, as under a kernel
of full support, evaluates the kernel on the whole block instead.  A record
reads nothing of the stepper's pair field.

Each pair quantity of a block is formed once.  On the circle a block forms
one chart difference x_j - x_i and one velocity difference v_i - v_j per
pair (``_circle_pairs``) and derives the rest from them: the distances
(folded once to the minimal image) and through them D, dmin, the kernel's
support and C; the speeds; and the corrector's directed arcs.  The folds
scan no block: every chart difference of a chunk lies within
+-fl(max x - min x), one bound taken per call, and a bound looser than a
block's own range only makes folds that are the identity there.  In the
plane the distances and speeds are the roots of ``pair_square_sums``, and
the correctors gather each near pair's coordinates by its flat row and
column, one ``take`` per operand and component.  On both, the fourth
powers of the speeds, which only V4 and I4 read, are the squares of the
squared speeds (``_speed_powers``).  One record call makes its work arrays
once (``_block_buffers``: four float arrays and one bool, each as large as
the first and largest block), and every block works in C-contiguous views
of their fronts shaped (K, rows, cols), so its diagonal fills and flat
scatters index them as whole blocks.  Each block refills its scatter
targets with zeros in place, the I_p summands' and the Euclidean
correctors', and folds, powers and collision summands are written over the
views, so a block allocates only its small support indices and kernel
values.

The records of the states of one run are formed in chunks (``_records``):
the states of a chunk, which share their weights, are stacked as (K, N, d)
and each row block is one pass over the whole stack, so its numpy calls are
paid once per chunk.  A chunk holds as many states as fit in
``_RECORD_ELEMENTS`` stacked block elements.  Each state's sums are its own
matrix-vector and dot products, its maxima and minima are taken per state,
and the kernel is formed on the whole stack only when every state's block
lies inside the support, so each record is the one its state gives alone
bit for bit; ``compute_record`` is the chunk of one state.

Each pair column has this one implementation: ``lyapunov`` and the two
correctors read a record's columns, and ``good_set`` sums its forward
dissipation on the same row blocks, so nothing here forms an (N, N) array.
"""

import collections
import dataclasses
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import geometry, kernels
from .errors import (
    CollisionError,
    CSVFormatError,
    DomainMismatchError,
    InsufficientDataError,
    check_keys,
    number,
)
from .geometry import TWO_PI, VELOCITY_SPACE, Domain
from .kernels import KernelSpec

__all__ = [
    "LyapunovVariant",
    "LyapunovConfig",
    "DiagnosticsRecord",
    "GoodSetReport",
    "corrector_euclidean",
    "corrector_circle",
    "lyapunov",
    "lyapunov_series",
    "energy_residual",
    "good_set",
    "compute_record",
    "record_column",
    "lyapunov_constant_search",
    "write_csv",
    "read_csv",
]


# ---------------------------------------------------------------------------
# pairwise helpers

def _pair_sum(m_rows: np.ndarray, summand: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_{i,j} m_i S_ij w_j of each summand of a stack (K, rows, cols), the
    one reduction of every pair sum here, as (K,): m_rows @ (S @ w) for each
    state, one matrix-vector product S @ w per array of the stack, then one
    dot product of m_rows with each row of the result, the operations of
    the one-state form bit for bit."""
    return np.vecdot(m_rows, summand @ w)


def _fill_diagonal(block: np.ndarray, value: float, offset: int = 0) -> None:
    """Set the i = j entries of a block of rows against columns that hold the
    rows' own from column ``offset`` on, the entries (k, offset + k), of one
    C-contiguous block or of each block of a C-contiguous stack."""
    flat = block.reshape(*block.shape[:-2], -1)
    flat[..., offset::block.shape[-1] + 1] = value


# Every record sums its pair columns over blocks of this many rows against
# the columns from the block's first row on, and the stepper its pair field
# over blocks of this many rows against their column windows, so a block's
# arrays stay in cache and a library flock (at most 64 agents) is one block.
# Read off tools/pair_field_timing.py's block sweep.
_RECORD_BLOCK = 64

# Records of the states of one run are formed in chunks: the states of a
# chunk are stacked, and each row block is one pass over the whole stack,
# so its numpy calls are paid once per chunk, not once per state.  A chunk
# holds as many states as fit in this many stacked block elements, counting
# min(N, _RECORD_BLOCK) * N per state, and at least one.  Read off
# tools/pair_field_timing.py's chunk sweep.
_RECORD_ELEMENTS = 1 << 14


def _chunk_states(n: int) -> int:
    """How many states of N = n agents one chunk of records holds."""
    return max(1, _RECORD_ELEMENTS // (min(n, _RECORD_BLOCK) * n))


def _stacks(states):
    """The states in chunks of _chunk_states(N), each as (x, v, t, chunk):
    the positions and velocities stacked as (K, N, d) and the K times."""
    size = _chunk_states(len(states[0].x))
    for lo in range(0, len(states), size):
        chunk = states[lo:lo + size]
        yield (np.array([s.x for s in chunk], dtype=float),
               np.array([s.v for s in chunk], dtype=float),
               [float(getattr(s, "t", 0.0)) for s in chunk], chunk)


def _block_kernel(kernel, domain, x, a, b, t, singular, dist=None, mask=None):
    """The distances of a row block of each state of a stack, rows a:b of
    x[k] against the rows from a on, and the kernel on them: (dist, reach,
    dmin, phi, inside), with reach and dmin of shape (K,).  ``dist`` is the
    block's distances when the caller has formed them (they are changed),
    and formed here when None; ``mask``, a bool array of its shape, is
    scratch for the support test (made where None).

    ``dist`` has inf at i = j, ``reach`` is each state's largest entry
    before that and ``dmin`` its smallest pair distance.  Under a singular
    kernel a coincident pair raises CollisionError at the time t[k] of the
    first state k holding one, naming its first pair in row-major order: a
    pair (i, j) with j < i is (j, i) of an earlier row, so the first block
    holding one holds the first, and the states before k are searched in the
    blocks past this one first.  phi, and with it each I_p summand, is 0 at
    and beyond the support radius.  Where some pair of the stack lies
    outside, phi is formed only on the flat indices ``inside`` of the stack
    (dist is inf at i = j); where none does, as under a kernel of full
    support, on the whole stack, and ``inside`` is None.  phi at i = j is
    then phi(inf), finite for every family (lam under a flat kernel), and
    every summand it multiplies is 0 there.
    """
    n = x.shape[1]
    if dist is None:
        dist = geometry.pair_square_sums(domain, x[:, a:b], x[:, a:])
        np.sqrt(dist, out=dist)
    reach = dist.max(axis=(1, 2))
    _fill_diagonal(dist, math.inf)
    near = dist.min(axis=(1, 2))
    if singular and near.min() <= 0.0:
        first = int(np.flatnonzero(near <= 0.0)[0])
        for c in range(b, n, b - a) if first else ():
            _block_kernel(kernel, domain, x[:first], c, min(c + b - a, n), t, singular)
        k = int(np.argmin(dist[first]))
        raise CollisionError(np.add(divmod(k, dist.shape[2]), a), t[first], 0.0)
    radius = kernels.support_radius(kernel)
    if reach.max() < radius:
        return dist, reach, near, kernels._evaluate_raw(kernel, dist), None
    inside = np.flatnonzero(np.less(dist, radius, out=mask))
    return dist, reach, near, kernels._evaluate_raw(kernel, dist.take(inside)), inside


def _on_support(values, phi, inside, out=None):
    """values * phi on the pairs phi was formed on (see _block_kernel), into
    ``out`` when it is not None: on the whole stack, or on the flat indices
    ``inside``, where ``out`` is a stack of zeros (made here when None) whose
    other entries stay 0."""
    if inside is None:
        return np.multiply(values, phi, out=out)
    if out is None:
        out = np.zeros_like(values)
    out.reshape(-1)[inside] = values.take(inside) * phi
    return out


def _diameter(domain: Domain, x) -> float:
    """Largest distance between two rows of x, the max over row blocks
    against every row; sqrt is monotone, so it is the largest entry of the
    (N, N) distances bit for bit."""
    tops = [np.max(geometry.pair_square_sums(domain, x[a:a + _RECORD_BLOCK], x))
            for a in range(0, len(x), _RECORD_BLOCK)]
    return math.sqrt(float(np.max(tops, initial=0.0)))


# ---------------------------------------------------------------------------
# correctors

def corrector_euclidean(state, r0: float, power: int = 1) -> float:
    """Directed-distance corrector sum m_i m_j |v_ij|^power psi(d_ij) chi(|x_ij|),
    the G (power 1) or G3 (power 3) column of the state's record.

    Pairs with zero relative velocity contribute nothing (their directed
    distance is undefined but the |v_ij| prefactor vanishes).
    """
    if power not in (1, 3):
        raise ValueError("corrector power must be 1 or 3")
    domain = geometry.euclidean(np.shape(state.x)[1])
    return float(_corrector_columns(state, r0, domain)["G" if power == 1 else "G3"][0])


def corrector_circle(state, r0: float) -> float:
    """Circle corrector sum m_i m_j |v_ij| psi(d_ij) with the periodic psi, the
    G column of the state's record.

    The directed arc d_ij = -(x_i - x_j) sign(v_i - v_j) mod 2*pi is the
    contracting arc and is symmetric in (i, j); pairs with equal velocities
    contribute nothing.
    """
    return float(_corrector_columns(state, r0, geometry.circle())["G"][0])


def _corrector_columns(state, r0, domain) -> dict:
    """The record's pair columns of a state, a stack of one, under a local
    kernel of radius r0, the range the correctors read from the kernel."""
    x, v, t, _ = next(_stacks([state]))
    kernel = KernelSpec(kernels.KernelKind.LOCAL_MOLLIFIED, r0=r0)
    return _pair_columns(x, v, np.asarray(state.m, dtype=float), kernel, domain, t,
                         singular=False)


def _euclidean_summands(xr, xc, vr, vc, dist, speed, r0, powers, out=None):
    """Summands |v_ij|^power psi(d_ij) chi(|x_ij|) of the Euclidean corrector
    for each power, rows i of (xr[k], vr[k]) against columns j of (xc[k],
    vc[k]) for each state k of a stack, from their pair distances and speeds
    (K, rows, cols), yielded one at a time, each read before the next is
    made: each is written into ``out``, refilled with zeros, when given.

    chi, and with it each summand, is exactly 0 at and beyond 2*r0, so the
    summands are formed only on the pairs closer than that and are 0
    elsewhere.  One directed-distance pass, shared by the powers, sums
    -(x_ik - x_jk)(v_ik - v_jk) / |v_ij| one component k at a time; pairs
    with equal velocities give 0.  Each near pair's coordinates are taken
    from one component's (K, rows) or (K, cols) array, flat, by the flat
    row s * rows + i and column s * cols + j of its flat index in the
    block, one gather per operand."""
    near = np.flatnonzero(dist < 2.0 * r0)
    rows, cols = dist.shape[1:]
    row, j = np.divmod(near, cols)
    col = row // rows * cols + j
    speed = speed.take(near)
    directed = np.zeros_like(speed)
    for k in range(xr.shape[2]):
        directed -= ((xr[..., k].take(row) - xc[..., k].take(col))
                     * (vr[..., k].take(row) - vc[..., k].take(col)))
    np.divide(directed, speed, out=directed, where=speed > 0.0)
    psi = geometry.psi_euclidean(directed, r0)
    chi = geometry.chi(dist.take(near), r0)
    for power in powers:
        summand = np.empty_like(dist) if out is None else out
        summand.fill(0.0)
        summand.reshape(-1)[near] = speed**power * psi * chi
        yield summand


# In binary floating point the square root of the rounded square y * y is
# |y| bit for bit while y * y is a normal float: 2^-511 <= |y| < 2^512.
# Floats of magnitude at least 2^-458 are multiples of 2^-510, and so is the
# difference of two of them; a difference of floats below 2^510 is below
# 2^511.  So where every nonzero entry of an array lies in [2^-458, 2^510),
# each difference y of two entries has |y| = sqrt(y * y), and so does its
# minimal image on the circle: 2*pi - |y| for |y| past pi, and fmod's
# remainder for |y| past 2*pi, are multiples of 2^-51 when nonzero.
_ROOT_RANGE = (2.0**-458, 2.0**510)


def _plain_roots(values) -> bool:
    """Whether |y| is sqrt(y * y) bit for bit for every difference y of two
    entries of ``values`` (see _ROOT_RANGE); false on a nan."""
    mags = np.abs(values)
    low = np.min(mags, where=mags > 0.0, initial=math.inf)
    return bool(low >= _ROOT_RANGE[0] and mags.max(initial=0.0) < _ROOT_RANGE[1])


def _circle_pairs(x, v, a, b, plain, dist, speed, arc, work, bound=None):
    """The pair quantities of a circle record's row block, rows a:b of each
    state of a stack of chart positions and velocities x and v (K, N)
    against the rows from a on, from one chart difference dx = x_j - x_i and
    one velocity difference dv = v_i - v_j per pair, each written into its
    block view: ``dist`` the distance min(|dx|, 2*pi - |dx|), ``speed`` |dv|
    and ``arc`` dx sign(dv), the corrector's directed arc before its fold;
    ``work`` is scratch.  ``bound``, when given, is at least every |dx|, and
    the fold reads it in place of scanning (geometry._folded).

    Returns (speed, moments): the speeds the corrector reads and those the
    V_p and I_p read, sqrt(dv^2) as ``pair_square_sums`` forms them, and
    dist must be sqrt(dx^2) likewise.  Where ``plain`` holds for x and v
    (_plain_roots) the magnitudes are those roots bit for bit, and moments
    is speed itself; otherwise dist is squared and rooted in place, and
    moments is a new array.
    """
    # xc - xr is -(xr - xc) bit for bit, so |dx| is the magnitude of either
    np.subtract(x[:, None, a:], x[:, a:b, None], out=arc)
    geometry._folded(arc, dist, work, bound)
    np.subtract(v[:, a:b, None], v[:, None, a:], out=speed)
    arc *= np.sign(speed, out=work)
    np.abs(speed, out=speed)
    if plain:
        return speed, speed
    np.sqrt(np.square(dist, out=dist), out=dist)
    return speed, np.sqrt(np.square(speed))


def _circle_summand(arc, speed, r0, work=None, mask=None, bound=None) -> np.ndarray:
    """Summand |v_i - v_j| psi(d_ij) of the circle corrector, in place on the
    directed arcs arc = (x_j - x_i) sign(v_i - v_j) of chart positions, from
    the speeds |v_i - v_j|: d_ij is arc mod 2*pi, the contracting arc.
    ``work`` and ``mask``, float and bool arrays of arc's shape, are scratch
    for the folds (made where None).

    Each of the two folds (geometry._mod_two_pi) scans its input's range,
    unless ``bound``, at least every |arc|, is given: then the first reads
    (-bound, bound), and the second, whose input is the first's result in
    [0, 2*pi] plus r0, reads (r0, 2*pi + r0), bit for bit the same."""
    geometry._mod_two_pi(arc, work, mask, None if bound is None else (-bound, bound))
    arc += r0
    psi = geometry._psi_periodic_shifted(arc, r0, work, mask,
                                         None if bound is None else (r0, TWO_PI + r0))
    psi *= speed
    return psi


def _euclidean_pairs(domain, x, v, a, b, dist, speed, work):
    """The distances and speeds of a Euclidean record's row block, rows a:b
    of each state of a stack x and v (K, N, d) against the rows from a on,
    written into the block views ``dist`` and ``speed`` (``work`` is
    scratch), the square roots of ``pair_square_sums``."""
    for values, space, out in ((v, VELOCITY_SPACE, speed), (x, domain, dist)):
        geometry._paired_square_sums(space, values[:, a:b, None, :], values[:, None, a:, :],
                                     out, work)
        np.sqrt(out, out=out)


# ---------------------------------------------------------------------------
# Lyapunov functionals

class LyapunovVariant(str, Enum):
    EUCLIDEAN_V2 = "euclidean_v2"
    EUCLIDEAN_V4 = "euclidean_v4"
    CIRCLE_I = "circle_i"
    CIRCLE_II = "circle_ii"
    CIRCLE_III = "circle_iii"


_CIRCLE_VARIANTS = (
    LyapunovVariant.CIRCLE_I,
    LyapunovVariant.CIRCLE_II,
    LyapunovVariant.CIRCLE_III,
)


@dataclass(frozen=True)
class LyapunovConfig:
    """Variant selector plus the positive combination constants a, b, c."""

    variant: LyapunovVariant
    a: float = 1.0
    b: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "variant", LyapunovVariant(self.variant))
        for name in ("a", "b", "c"):
            if not 0 < getattr(self, name) < math.inf:  # fails on nan
                raise ValueError(f"constant {name} must be positive and finite")

    @classmethod
    def defaults(cls, variant, kernel: KernelSpec | None = None) -> "LyapunovConfig":
        """Slope-derived defaults on the circle, unit constants elsewhere."""
        variant = LyapunovVariant(variant)
        if variant in _CIRCLE_VARIANTS:
            if kernel is None:
                raise DomainMismatchError("circle variants derive constants from the kernel")
            r0 = kernel.r0
            if not 0 < r0 < math.pi:
                raise DomainMismatchError("circle variants need 0 < r0 < pi")
            return cls(
                variant,
                a=math.pi / (kernel.lam * (math.pi - r0)),
                b=r0 / (math.pi - r0),
                c=1.0,
            )
        return cls(variant)

    def to_dict(self) -> dict:
        return {"variant": self.variant.value, "a": self.a, "b": self.b, "c": self.c}

    @classmethod
    def from_dict(cls, d: dict) -> "LyapunovConfig":
        check_keys(d, ("a", "b", "c"), "lyapunov", required=("variant",))
        return cls(d["variant"], **{k: number(k, d[k]) for k in ("a", "b", "c") if k in d})


def _assemble_lyapunov(variant, a, b, c, n_eff, t, g, g3, v1, v2) -> float:
    if variant is LyapunovVariant.EUCLIDEAN_V2:
        return g + a * v2 + b * n_eff * v1
    if variant is LyapunovVariant.EUCLIDEAN_V4:
        return g3 + a * v2
    if variant is LyapunovVariant.CIRCLE_I:
        return g + 0.5 * c * n_eff * v1 + b * t * v2 + a * v2
    # circle II and III share the same combination
    return g + b * t * v2 + a * v2


def _check_variant(variant: LyapunovVariant, domain: Domain) -> None:
    if (variant in _CIRCLE_VARIANTS) != domain.periodic:
        raise DomainMismatchError(
            f"variant {variant.value} does not apply to domain {domain.kind}"
        )


def lyapunov(state, kernel: KernelSpec, domain: Domain, config: LyapunovConfig) -> float:
    """Assembled monotone functional for the configured variant, the L column
    of the state's record.

    The effective agent count is 1/max(m_i), which reduces to N for uniform
    weights.
    """
    return compute_record(state, kernel, domain, config).L


def _lyapunov_columns(records):
    """The columns the assembled functional reads: t, G, G3, V1 and V2."""
    return [record_column(records, name) for name in ("t", "G", "G3", "V1", "V2")]


def lyapunov_series(records, config: LyapunovConfig, n_eff: float) -> np.ndarray:
    """The configured functional assembled along the records from their stored
    corrector and variation columns."""
    return _assemble_lyapunov(
        config.variant, config.a, config.b, config.c, n_eff, *_lyapunov_columns(records)
    )


# elements of one (grid point, record) array of the constant search: 2 MB,
# so the few such temporaries of one chunk of grid points stay near 8 MB
_SEARCH_ELEMENTS = 1 << 18


def lyapunov_constant_search(
    records,
    variant,
    n_eff: float,
    a_grid=None,
    b_grid=None,
    c_grid=None,
    tol: float = 0.0,
):
    """Grid search for constants making the assembled functional descend.

    Each grid point (a, b, c) is scored by the number of sample-to-sample
    increments above ``tol * (1 + |first value|)`` and then by their total,
    and the lowest score wins.  Ties keep the first grid point in iteration
    order: a outermost, then b, then c, each grid in its given order
    (ascending by default).  So when the smallest constants already give no
    increasing step, the result is the grid corner (a_grid[0], b_grid[0],
    c_grid[0]), as on 4 of the 5 descent runs of the lyapunov acceptance
    suite: it shows that some combination descends, not which.  b stays 1
    for EUCLIDEAN_V4 and c stays 1 for every variant but CIRCLE_I.  The
    corrector/variation series already stored on the records are reused.

    The grid points are scored in chunks of rows of one (grid point, record)
    array each, by the same elementwise arithmetic as one point at a time,
    and the totals are summed only for the rows tied at the lowest count.
    """
    variant = LyapunovVariant(variant)
    if len(records) < 2:
        raise InsufficientDataError("need at least two records")
    columns = _lyapunov_columns(records)
    if a_grid is None:
        a_grid = np.geomspace(1e-2, 1e2, 17)
    if b_grid is None:
        b_grid = np.geomspace(1e-3, 1e2, 21)
    if c_grid is None:
        c_grid = np.geomspace(1e-3, 1e2, 11)
    uses_b = variant is not LyapunovVariant.EUCLIDEAN_V4
    uses_c = variant is LyapunovVariant.CIRCLE_I
    grids = (np.atleast_1d(a_grid),
             np.atleast_1d(b_grid) if uses_b else np.ones(1),
             np.atleast_1d(c_grid) if uses_c else np.ones(1))
    points = [index.ravel() for index in np.indices([len(g) for g in grids])]
    rows = max(1, _SEARCH_ELEMENTS // len(records))
    best = None  # ((count, total), point)
    for lo in range(0, points[0].size, rows):
        chunk = [index[lo:lo + rows] for index in points]
        a, b, c = (g[index, None] for g, index in zip(grids, chunk))
        series = _assemble_lyapunov(variant, a, b, c, n_eff, *columns)
        jumps = np.diff(series, axis=1)
        bad = jumps > tol * (1.0 + np.abs(series[:, :1]))
        counts = np.count_nonzero(bad, axis=1)
        low = int(counts.min())
        if best is not None and low > best[0][0]:
            continue
        for r in np.flatnonzero(counts == low):
            key = (low, float(jumps[r][bad[r]].sum()))
            if best is None or key < best[0]:
                best = (key, [int(index[r]) for index in chunk])
            if low == 0:  # (0, 0.0): no later point scores lower
                break
        if best[0][0] == 0:
            break
    i, j, k = best[1]
    return LyapunovConfig(variant, a=grids[0][i], b=grids[1][j] if uses_b else 1.0,
                          c=grids[2][k] if uses_c else 1.0)


# ---------------------------------------------------------------------------
# collision potential

def _collision_summand(dist, beta, r0) -> np.ndarray:
    """Summand min(d_ij, r0)^(2 - beta), or its logarithm at beta = 2, of the
    collision potential from a stack of pair distances, formed in place on
    ``dist``, 0 at i = j (see _fill_diagonal), where log(min(inf, r0)) is
    not.  ``**=`` takes the same fast paths as ``**`` (the reciprocal at
    beta = 3), so each entry is the one ``min(d, r0) ** (2 - beta)`` gives."""
    vals = np.minimum(dist, r0, out=dist)
    if beta == 2.0:
        np.log(vals, out=vals)
    else:
        vals **= 2.0 - beta
    _fill_diagonal(vals, 0.0)
    return vals


# ---------------------------------------------------------------------------
# energy balance residual

def energy_residual(records) -> float:
    """Max deviation of V2(t) - V2(0) + integral of I2 over the samples.

    Uses the integrator's accumulated dissipation column when present
    (order-matched to the stepper), otherwise a trapezoid of the sampled I2.
    """
    if len(records) < 2:
        raise InsufficientDataError("need at least two records")
    t, v2, acc = (record_column(records, name) for name in ("t", "V2", "I2_int"))
    if np.all(np.isfinite(acc)):
        integ = acc - acc[0]
    else:
        i2 = record_column(records, "I2")
        if not np.all(np.isfinite(i2)):
            raise InsufficientDataError("dissipation series contains non-finite values")
        integ = np.concatenate(
            ([0.0], np.cumsum(0.5 * (i2[1:] + i2[:-1]) * np.diff(t)))
        )
    return float(np.max(np.abs(v2 - v2[0] + integ)))


# ---------------------------------------------------------------------------
# good sets

@dataclass
class GoodSetReport:
    """Forward-dissipation screening of the agents after time T."""

    T: float
    delta: float
    F: np.ndarray
    members: np.ndarray
    complement_mass: float
    epsilon: float
    member_velocity_spread: float


def good_set(trajectory, kernel: KernelSpec, domain: Domain, T: float, delta: float) -> GoodSetReport:
    """Agents whose forward dissipation F(alpha, T) stays below delta.

    F is the trapezoid, over stored samples in [T, horizon], of
    sum_beta m_beta phi(|x_ab|) |v_a - v_b|^2.  The report's epsilon is the
    mass-weighted total sum_a m_a F(a), which dominates delta times the
    complement mass (Chebyshev).  The velocity spread of the members is
    evaluated at the last stored sample.  The samples are summed in the
    chunks of stacked states that records are formed in.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    states = [s for s in trajectory.states if s.t >= T]
    if len(states) < 2:
        raise InsufficientDataError("need at least two stored samples past T")
    m = states[0].m
    times = np.array([s.t for s in states])
    singular = kernels._is_singular(kernel)
    g = np.concatenate([_forward_rows(x, v, m, kernel, domain, t, singular)
                        for x, v, t, _ in _stacks(states)])
    weights = np.zeros_like(times)
    dt = np.diff(times)
    weights[:-1] += 0.5 * dt
    weights[1:] += 0.5 * dt
    F = weights @ g
    members = np.flatnonzero(F <= delta)
    complement_mass = float(np.sum(m[F > delta]))
    epsilon = float(np.dot(m, F))
    spread = _diameter(VELOCITY_SPACE, np.asarray(trajectory.states[-1].v, dtype=float)[members])
    return GoodSetReport(
        T=float(T),
        delta=float(delta),
        F=F,
        members=members,
        complement_mass=complement_mass,
        epsilon=epsilon,
        member_velocity_spread=spread,
    )


def _forward_rows(x, v, m, kernel, domain, t, singular) -> np.ndarray:
    """sum_j m_j phi(|x_ij|) |v_i - v_j|^2 of every agent i of each state of
    a stack, x and v of shape (K, N, d) at the K times t, as (K, N).

    Summed over the record's row blocks: rows a:b against the columns from
    a on add S @ m to their own rows and, S being symmetric, m_rows @ S to
    the columns past the block.  A coincident pair under a singular kernel
    raises CollisionError, as in a record.
    """
    n = x.shape[1]
    rows = np.zeros(x.shape[:2])
    for a in range(0, n, _RECORD_BLOCK):
        b = min(a + _RECORD_BLOCK, n)
        _, _, _, phi, inside = _block_kernel(kernel, domain, x, a, b, t, singular)
        summand = _on_support(geometry.pair_square_sums(VELOCITY_SPACE, v[:, a:b], v[:, a:]),
                              phi, inside)
        rows[:, a:b] += summand @ m[a:]
        rows[:, b:] += m[a:b] @ summand[:, :, b - a:]
    return rows


# ---------------------------------------------------------------------------
# per-sample records

@dataclass
class DiagnosticsRecord:
    """One sampled row of scalar diagnostics."""

    t: float
    V1: float
    V2: float
    V4: float
    I1: float
    I2: float
    I4: float
    G: float
    G3: float
    L: float
    C: float
    D: float
    dmin: float
    momentum: tuple
    vdiam: float
    I2_int: float = math.nan
    sqrtI2_int: float = math.nan

    @staticmethod
    def column_names(dim: int) -> list:
        """The CSV columns: the fields in order, momentum as mom_0..mom_{dim-1}."""
        return [name for f in dataclasses.fields(DiagnosticsRecord)
                for name in ([f"mom_{k}" for k in range(dim)] if f.name == "momentum"
                             else [f.name])]

    def to_row(self) -> list:
        return [value for f in dataclasses.fields(self)
                for value in (self.momentum if f.name == "momentum" else [getattr(self, f.name)])]


_RECORD_FIELDS = [f.name for f in dataclasses.fields(DiagnosticsRecord)]


def record_column(records, name: str) -> np.ndarray:
    """One column of a list of records; ``mom_k`` is momentum component k and
    ``momentum`` the (records, d) array of all of them."""
    if name.startswith("mom_"):
        return record_column(records, "momentum")[:, int(name[4:])]
    return np.array([getattr(r, name) for r in records])


def compute_record(state, kernel: KernelSpec, domain: Domain, lyapunov_config=None, *,
                   _singular=None) -> DiagnosticsRecord:
    """Evaluate the full diagnostic row for one state.

    The record of a chunk of one state: the pair columns come from one
    algorithm for every kernel and every N, the row blocks of _pair_columns.
    A coincident pair under a singular kernel raises CollisionError naming
    the first such pair in row-major order.
    ``_singular`` is the kernel's class when the caller has it (``integrate``
    classifies once per run); None classifies here.
    """
    return _records([state], kernel, domain, lyapunov_config, _singular)[0]


def _records(states, kernel, domain, lyapunov_config, singular) -> list:
    """The records of states of one run, which share their weights m, in
    order, formed in chunks of stacked states (_stacks): each chunk's pair
    columns are one _pair_columns call, and each record is the one
    compute_record forms for its state alone, bit for bit.  A coincident
    pair under a singular kernel raises the CollisionError of the first
    state holding one.  ``singular`` is the kernel's class, found here when
    None.  An empty list of states has an empty list of records."""
    if not states:
        return []
    if singular is None:
        singular = kernels._is_singular(kernel)
    cfg = lyapunov_config
    if cfg is not None:
        _check_variant(cfg.variant, domain)
    m = np.asarray(states[0].m, dtype=float)
    records = []
    for x, v, t, chunk in _stacks(states):
        cols = _pair_columns(x, v, m, kernel, domain, t, singular=singular)
        cols["L"] = math.nan if cfg is None else _assemble_lyapunov(
            cfg.variant, cfg.a, cfg.b, cfg.c, 1.0 / float(np.max(m)), np.array(t), cols["G"],
            cols["G3"], cols["V1"], cols["V2"])
        # a column the chunk does not form is math.nan itself in every record
        values = {name: [col] * len(chunk) if isinstance(col, float) else col.tolist()
                  for name, col in cols.items()}
        values.update(
            t=t,
            momentum=[tuple(mom) for mom in (m @ v / float(np.sum(m))).tolist()],
            I2_int=[float(getattr(s, "diss2", math.nan)) for s in chunk],
            sqrtI2_int=[float(getattr(s, "diss2_root", math.nan)) for s in chunk],
        )
        records.extend(DiagnosticsRecord(*row)
                       for row in zip(*(values[name] for name in _RECORD_FIELDS)))
    return records


def _speed_powers(speed, out):
    """(p, speed**p) for p = 1, 2 and 4, each read before the next is made:
    speed**2 and then speed**4 are written into ``out``.  The fourth power
    is the square of the square, squared in place: a square costs a small
    fraction of np.power(speed, 4), and each square rounds once, so about
    half of the entries differ from np.power's by one or two units in the
    last place.  Only V4 and I4 read the fourth power."""
    yield 1, speed
    yield 2, np.square(speed, out=out)
    yield 4, np.square(out, out=out)


def _block_buffers(stack: int, n: int) -> list:
    """The work arrays of one _pair_columns call, flat and each as large as
    its first and largest block, (stack, min(n, _RECORD_BLOCK), n): four
    float arrays and one bool."""
    size = stack * min(n, _RECORD_BLOCK) * n
    return [np.empty(size) for _ in range(4)] + [np.empty(size, dtype=bool)]


def _views(buffers, shape) -> list:
    """A C-contiguous view of the given shape on the front of each buffer."""
    size = math.prod(shape)
    return [buf[:size].reshape(shape) for buf in buffers]


def _pair_columns(x, v, m, kernel, domain, t, singular=None) -> dict:
    """The record's pair columns V_p, I_p, G, G3, C, D, dmin and vdiam of
    each state of a stack: x and v of shape (K, N, d) at the K times t, with
    the weights m of shape (N,) that the states share, each column of shape
    (K,), or math.nan where the kernel, domain or N does not define it.

    Each is summed over blocks of ``_RECORD_BLOCK`` rows i against the
    columns j from the block's first row on: every summand is exactly
    symmetric in (i, j) and 0 at i = j, so the square block on the diagonal
    counts once and the columns past it twice.  Each block is one pass over
    the whole stack, and each summand is reduced as m_rows @ (S @ w) for
    each state before the next is formed.  Every block works in views of the
    work arrays made once per call (_block_buffers).  ``singular`` is the
    kernel's class, found here when None.
    """
    stack, n = x.shape[:2]
    if singular is None:
        singular = kernels._is_singular(kernel)
    collision = kernel.kind is kernels.KernelKind.SINGULAR_POWER and kernel.beta >= 2.0
    cols = {"G3": math.nan, "C": math.nan}
    sums = collections.defaultdict(float)
    diameter, dmin, vdiam = np.zeros(stack), np.full(stack, math.inf), np.zeros(stack)
    buffers = _block_buffers(stack, n)
    plain = domain.periodic and _plain_roots(x) and _plain_roots(v)
    # every chart difference x_j - x_i of the stack is within +-fl(max x - min x),
    # as rounding is monotone: one bound for every block's folds
    bound = x.max() - x.min() if domain.periodic else None
    for a in range(0, n, _RECORD_BLOCK):
        b = min(a + _RECORD_BLOCK, n)
        dist, speed, spare, scratch, mask = _views(buffers, (stack, b - a, n - a))
        if domain.periodic:  # spare holds the arcs; dist is spent once phi and C are formed
            speed, moments = _circle_pairs(x[..., 0], v[..., 0], a, b, plain, dist, speed,
                                           spare, scratch, bound)
            power = dist
        else:  # the Euclidean correctors read dist last
            _euclidean_pairs(domain, x, v, a, b, dist, speed, scratch)
            moments, power = speed, spare
        _, reach, near, phi, inside = _block_kernel(kernel, domain, x, a, b, t, singular, dist,
                                                    mask)
        diameter = np.maximum(diameter, reach)
        vdiam = np.maximum(vdiam, moments.max(axis=(1, 2)))
        dmin = np.minimum(dmin, near)
        m_rows, w = m[a:b], np.concatenate((m[a:b], 2.0 * m[b:]))
        if collision:  # formed in place on dist, or on a copy where dist is read later
            if power is not dist:
                power[...] = dist
            sums["C"] += _pair_sum(m_rows, _collision_summand(power, kernel.beta, kernel.r0), w)
        if inside is not None:
            scratch.fill(0.0)
        for p, values in _speed_powers(moments, power):
            sums[f"V{p}"] += _pair_sum(m_rows, values, w)
            dissipated = _on_support(values, phi, inside, scratch)
            sums[f"I{p}"] += p * _pair_sum(m_rows, dissipated, w)
        if domain.periodic:
            summands = [_circle_summand(spare, speed, kernel.r0, scratch, mask, bound)]
        else:
            summands = _euclidean_summands(x[:, a:b], x[:, a:], v[:, a:b], v[:, a:], dist, speed,
                                           kernel.r0, (1, 3), scratch)
        for name, summand in zip(("G", "G3"), summands):
            sums[name] += _pair_sum(m_rows, summand, w)

    cols.update(sums, D=diameter, dmin=dmin if n > 1 else math.nan, vdiam=vdiam)
    return cols


# ---------------------------------------------------------------------------
# CSV serialization

def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def write_csv(records, path, header_meta=None):
    """Write sampled records with 17-significant-digit floats.

    Metadata (scenario hash, seed, kernel parameters, ...) goes into
    '#'-prefixed header lines so the file stays self-describing; absent
    values appear as nan.
    """
    if not records:
        raise InsufficientDataError("no records to write")
    lines = []
    for key, value in (header_meta or {}).items():
        lines.append(f"# {key}: {value}")
    lines.append(",".join(DiagnosticsRecord.column_names(len(records[0].momentum))))
    for rec in records:
        lines.append(",".join(_fmt(v) for v in rec.to_row()))
    text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


def read_csv(path):
    """Read a trajectory CSV back into (meta dict, column dict of arrays);
    a data row whose width differs from the header row's, or that holds a
    token that is not a number, is a CSVFormatError."""
    meta = {}
    rows = []
    names = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if ":" in body:
                    key, value = body.split(":", 1)
                    meta[key.strip()] = value.strip()
                continue
            if names is None:
                names = line.split(",")
                continue
            tokens = line.split(",")
            if len(tokens) != len(names):
                raise CSVFormatError(f"{path}, line {lineno}: {len(tokens)} fields, "
                                     f"the header row has {len(names)}")
            try:
                rows.append([float(tok) for tok in tokens])
            except ValueError as err:
                raise CSVFormatError(f"{path}, line {lineno}: {err}") from None
    if not rows:
        raise InsufficientDataError(f"no data rows in {path}")
    data = np.array(rows, dtype=float)
    return meta, {name: data[:, k] for k, name in enumerate(names)}
