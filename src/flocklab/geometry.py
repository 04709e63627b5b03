"""Ambient domains (Euclidean space, unit-speed circle) and auxiliary profiles.

The circle has circumference 2*pi and positions are kept on the chart
[0, 2*pi).  ``displacement`` gives the signed minimal image, with the seam
convention that a separation of exactly pi maps to +pi; it is exactly
antisymmetric off the seam.  The package forms no signed image itself:
``displacement`` is the oracle of the tests and the tools.  A pair
distance needs only the image's magnitude, min(|a - b|, 2*pi - |a - b|)
(``_folded``), which equals |displacement| bit for bit, so pair distances
are exactly symmetric.  Every pair magnitude of the stepper and of the
diagnostics, |x_i - x_j| and |v_i - v_j| alike, is built by
``pair_square_sums`` one component at a time, for a block of rows against
a block of columns (of one state, or of each state of a stack of states),
so no (N, N, d) array is formed; the records' circle blocks fold their one
chart difference with ``_folded`` directly.  ``_row_windows`` gives the
stepper its row blocks and, under a kernel of compact support, the column
window of each.  The auxiliary cutoff and weight profiles (chi, psi) are
the piecewise-linear shapes used by the corrector functionals.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainMismatchError, check_keys, integer

__all__ = [
    "Domain",
    "euclidean",
    "circle",
    "TWO_PI",
    "VELOCITY_SPACE",
    "displacement",
    "pair_square_sums",
    "chi",
    "psi_euclidean",
    "psi_periodic",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Domain:
    """Either d-dimensional Euclidean space or the circle of circumference 2*pi."""

    kind: str
    dim: int = 1

    def __post_init__(self):
        if self.kind not in ("euclidean", "circle"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if self.kind == "circle" and self.dim != 1:
            raise ValueError("the circle domain is one dimensional")
        if self.dim < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dim}")

    @property
    def periodic(self) -> bool:
        return self.kind == "circle"

    def wrap(self, x: np.ndarray) -> np.ndarray:
        """Map positions back onto the chart (identity on Euclidean domains)."""
        if self.periodic:
            return np.mod(x, TWO_PI)
        return x

    def to_dict(self) -> dict:
        return {"kind": self.kind, "dim": self.dim}

    @classmethod
    def from_dict(cls, d: dict) -> "Domain":
        check_keys(d, ("dim",), "domain", required=("kind",))
        return cls(kind=d["kind"], dim=integer("dim", d.get("dim", 1)))


def euclidean(dim: int) -> Domain:
    return Domain("euclidean", dim)


def circle() -> Domain:
    return Domain("circle", 1)


def displacement(domain: Domain, x_i, x_j):
    """Displacement x_i - x_j; on the circle the minimal image in (-pi, pi].

    Accepts scalars/vectors or stacked arrays; broadcasting follows numpy.
    The minimal image is exactly antisymmetric: swapping x_i and x_j flips
    the sign bit for bit, except at the seam, where both orders give +pi.
    """
    diff = np.asarray(x_i, dtype=float) - np.asarray(x_j, dtype=float)
    if not domain.periodic:
        return diff
    # fmod is exact and odd, and each shift by 2*pi is exact (Sterbenz); the
    # strict and the inclusive bound put the seam at +pi.  diff is a fresh
    # array, so the image is built in place.  fmod is the identity inside
    # (-2*pi, 2*pi), where differences of chart positions lie, and is
    # skipped there.  No entry takes both shifts, so they are one addition
    # of -1, 0 or +1 periods; 0 periods is -0.0, which leaves a -0.0 be.
    wrapped = np.atleast_1d(diff)
    if wrapped.size and not -TWO_PI < wrapped.min() <= wrapped.max() < TWO_PI:
        np.fmod(wrapped, TWO_PI, out=wrapped)
    periods = (wrapped > math.pi).view(np.int8) - (wrapped <= -math.pi).view(np.int8)
    wrapped += -TWO_PI * periods
    return float(wrapped[0]) if np.ndim(diff) == 0 else wrapped


# velocities differ plainly on every domain; displacement reads only ``periodic``
VELOCITY_SPACE = Domain("euclidean")


def pair_square_sums(domain: Domain, a, b) -> np.ndarray:
    """Sums over components of (a_i - b_j)^2, rows i of the (N, d) array a
    against rows j of the (M, d) array b, as (N, M); of a stack (K, N, d)
    against a stack (K, M, d), each pair of arrays of the stack, as
    (K, N, M).

    On the circle each square is that of the minimal image's magnitude
    (``_folded``), |``displacement``| bit for bit; velocities
    (``VELOCITY_SPACE``) and Euclidean positions differ plainly.  The
    squares are added one component at a time as ``np.linalg.norm`` adds
    them, so rows a[r0:r1] against b[c0:c1] are the same block of the whole
    (N, M) array bit for bit, and each array of a stack is the one its own
    pair gives.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return _paired_square_sums(domain, a[..., :, None, :], b[..., None, :, :])


def _paired_square_sums(domain: Domain, a, b, out=None, work=None) -> np.ndarray:
    """Sums over the last axis of (a - b)^2, a and b broadcast against each
    other: row k of the (P, d) array a against row k of b, as (P,).  Each
    entry is the one ``pair_square_sums`` forms for the same two rows, bit
    for bit.  The sums are written into ``out`` and the squares past the
    first component into ``work`` (on the circle, one dimensional, the
    fold's), each of the broadcast shape, when given; otherwise made here."""
    sums = None
    for k in range(a.shape[-1]):
        sq = np.subtract(a[..., k], b[..., k], out=out if sums is None else work)
        if domain.periodic:
            _folded(sq, sq, work)
        sq *= sq
        sums = sq if sums is None else np.add(sums, sq, out=sums)
    return sums


def _folded(diff: np.ndarray, out=None, work=None, bound=None) -> np.ndarray:
    """The circle distance min(|diff|, 2*pi - |diff|) of each chart
    difference in the float array diff, into ``out`` (diff itself may be
    given), with ``work`` (made here when None) for 2*pi - |diff|.

    It is |displacement| bit for bit: below pi it is |diff|; from pi to
    2*pi, 2*pi - |diff| and displacement's diff -+ 2*pi are both exact
    (Sterbenz's lemma) and of one magnitude.  |diff| at or past 2*pi, as
    unwrapped stage positions give, is first reduced by fmod, which is exact
    and odd, so fmod(|diff|) is |fmod(diff)|; inside (-2*pi, 2*pi), where
    differences of chart positions lie, fmod is the identity and skipped.
    Whether to skip it reads the largest |diff|, or ``bound`` when the
    caller knows one at least as large: a looser bound only applies fmod
    where it is the identity, so the result is the same bit for bit.
    """
    out = np.abs(diff, out=out)
    if out.size and not (out.max() if bound is None else bound) < TWO_PI:
        np.fmod(out, TWO_PI, out=out)
    return np.minimum(out, np.subtract(TWO_PI, out, out=work), out=out)


def _row_windows(domain: Domain, x, radius: float, block: int):
    """Row blocks of ``block`` agents and, for each, a window of columns that
    holds every agent within ``radius`` of one of its rows.

    Returns (index, windows): column k is agent index[k] (agent k when index
    is None), and a window (r0, r1, c0, c1) is the rows r0:r1 of that axis
    against its columns c0:c1, no agent twice, with r0:r1 inside c0:c1, so
    the rows' own columns are the diagonal of the columns from r0 on.  The
    row blocks cover every agent once.

    Under an unbounded radius, or with at most one block of agents, the
    agents keep their order and every window is whole rows.  Otherwise they
    are sorted along axis 0, and a window spans the block's keys +- radius,
    widened past the keys' round-off, found by ``np.searchsorted``.  On the
    circle the keys are the wrapped positions, repeated at -2*pi, 0 and
    +2*pi with the rows on the middle copy, so windows cross the seam; a
    window that would span a full period takes the middle copy instead,
    every agent once.
    """
    n = x.shape[0]
    if n <= block or not radius < math.inf:
        return None, [(a, min(a + block, n), 0, n) for a in range(0, n, block)]
    key = domain.wrap(x[:, 0])
    index = np.argsort(key, kind="stable")
    key = key[index]
    home = 0
    if domain.periodic:
        key = np.concatenate((key - TWO_PI, key, key + TWO_PI))
        index = np.concatenate((index, index, index))
        home = n
    reach = radius + 1e-12 * (1.0 + float(np.max(np.abs(x[:, 0]))))
    r0 = np.arange(home, home + n, block)
    r1 = np.minimum(r0 + block, home + n)
    c0 = np.searchsorted(key, key[r0] - reach, side="left")
    c1 = np.searchsorted(key, key[r1 - 1] + reach, side="right")
    wide = c1 - c0 > n
    c0[wide], c1[wide] = home, home + n
    return index, list(zip(r0.tolist(), r1.tolist(), c0.tolist(), c1.tolist()))


def chi(r, r0: float):
    """Range cutoff: 1 below r0, linear down to 0 at 2*r0, 0 beyond."""
    if r0 <= 0:
        raise DomainMismatchError("r0 must be positive")
    arr = np.asarray(r, dtype=float)
    out = np.clip(2.0 - arr / r0, 0.0, 1.0)
    return float(out) if np.ndim(r) == 0 else out


def psi_euclidean(x, r0: float):
    """Nondecreasing weight: 0 below -r0, x + r0 on [-r0, r0], 2*r0 above."""
    if r0 <= 0:
        raise DomainMismatchError("r0 must be positive")
    arr = np.asarray(x, dtype=float)
    out = np.clip(arr + r0, 0.0, 2.0 * r0)
    return float(out) if np.ndim(x) == 0 else out


def psi_periodic(x, r0: float):
    """2*pi-periodic weight: slope -1 on [-r0, r0] (zero at r0), rising with
    slope r0/(pi - r0) across the far arc back to 2*r0 at 2*pi - r0."""
    y = _psi_periodic_shifted(np.atleast_1d(np.asarray(x, dtype=float) + r0), r0)
    return float(y[0]) if np.ndim(x) == 0 else y


def _psi_periodic_shifted(y: np.ndarray, r0: float, work=None, mask=None,
                          bounds=None) -> np.ndarray:
    """psi_periodic(x) from the float array y = x + r0, in place on y, with
    ``work`` and ``mask`` (float and bool arrays of y's shape, made here when
    None) for the fold and the far arc's slope; ``bounds`` is passed to the
    fold (see _mod_two_pi)."""
    if not 0 < r0 < math.pi:
        raise DomainMismatchError("need 0 < r0 < pi on the circle")
    # reduce to one period starting at -r0: y in [-r0, 2*pi - r0)
    _mod_two_pi(y, work, mask, bounds)
    y -= r0
    # psi is r0 - y on the near arc (y <= r0), where it is >= 0 and (y - r0)
    # times the slope is <= 0, and that product on the far arc, where the
    # signs swap: the larger of the two is psi on both, and at y = r0 both
    # are +0.0.  (y - r0) times slope is (r0 - y) times -slope bit for bit
    far = np.subtract(y, r0, out=work)
    far *= r0 / (math.pi - r0)
    np.subtract(r0, y, out=y)
    return np.maximum(y, far, out=y)


def _mod_two_pi(z: np.ndarray, work=None, mask=None, bounds=None) -> np.ndarray:
    """z mod 2*pi in [0, 2*pi], in place on the float array z, equal to
    np.mod(z, 2*pi) bit for bit; ``work`` and ``mask`` are float and bool
    arrays of z's shape for the folds, made here when None.

    np.mod is fmod plus 2*pi on a negative remainder, and +0.0 for a zero
    one; adding 2*pi or +0.0 does both, at a fraction of np.mod's cost.
    fmod is exact: z itself inside (-2*pi, 2*pi) and z - 2*pi, a subtraction
    exact by Sterbenz's lemma, on [2*pi, 4*pi).  Chart differences and arcs
    plus r0 lie inside (-2*pi, 4*pi); there the slow fmod is skipped, and
    each entry takes at most one of the two folds, each 2*pi times a mask
    (+0.0 off it): -2*pi from 2*pi on, then +2*pi below 0, each made only
    where some entry needs it (the second also where some entry is a zero,
    which may be -0.0).

    Which of these to make reads z's smallest and largest entries, or
    ``bounds``, a (low, high) pair the caller knows to hold every entry,
    which saves the two scans.  A looser pair only makes steps that are
    the identity on their inputs: fmod inside (-2*pi, 2*pi), and on
    [2*pi, 4*pi) the same exact z - 2*pi as the first fold; subtracting
    +0.0 (a mask with no entry set); and adding +0.0 to entries that are
    all +0.0 or positive.  So the result is the same bit for bit.
    """
    if not z.size:
        return z
    low, high = (z.min(), z.max()) if bounds is None else bounds
    if -TWO_PI < low and high < 2.0 * TWO_PI:
        if high >= TWO_PI:
            z -= np.multiply(np.greater_equal(z, TWO_PI, out=mask), TWO_PI, out=work)
    else:
        np.fmod(z, TWO_PI, out=z)
        low = -math.inf
    if low <= 0.0:
        z += np.multiply(np.less(z, 0.0, out=mask), TWO_PI, out=work)
    return z
