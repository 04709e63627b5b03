"""Weighted pairwise-alignment dynamics and its adaptive integrator.

The single force law is the weighted form

    a_i = sum_{j != i} m_j phi(|x_i - x_j|) (v_j - v_i),

which reduces to the uniform mean-field form when every weight is 1/N, so
discrete and weighted runs share one code path bit for bit.  The default
stepper is classic RK4 with a step controller that respects kernel
stiffness, plus an approach limiter and a minimum-separation guard that only
engage for singular kernels.  The integrator also accumulates the
dissipation integral (and its square root) as extra quadrature state so
energy-balance residuals inherit the scheme's order.

The second method, ``StepperConfig(method="strang_exponential")``, is Strang
splitting (McLachlan & Quispel, *Splitting methods*, Acta Numerica 2002):
the positions drift by dt/2, the velocity flow at those frozen positions,
which is linear, is solved exactly through ``eigh`` of its symmetrised
(N, N) operator, and the positions drift by dt/2 again (``_split_attempt``).
That flow is unconditionally stable, so dt has no stiffness limit: only
dt_max, the approach limit and the observer cap bound it.  Momentum is kept,
V2 never increases at any dt, and diss2 is the exact integral of I2 along
the velocity flow.  The scheme is second order.  It steps flocks of at most
one row block, so it forms no (N, N) array outside one; the singular circle
scenarios, whose RK4 steps are all stiffness-limited, step by it.

The pair field of a step (kernel, accelerations, dissipation rate and
stiffness row sums) has two forms.  A flock of one row block
(``diagnostics._RECORD_BLOCK`` agents) under a kernel of compact support
is summed on a list of pairs i < j: each pair's terms are formed with the
velocity difference taken first, and ``np.bincount`` sums each agent's in
the list's row-major order (``_pair_sums``).  Every other flock is formed
on blocks of ``diagnostics._RECORD_BLOCK`` rows, each dense against the
columns it can reach (``geometry._row_windows``): under a kernel of compact
support the agents are sorted along axis 0 and a block reaches the window
within the support radius of its keys; otherwise a block is whole rows in
the agents' order, so a flock of one block is the dense (N, N) arithmetic.
The nearest pair (the approach limit, the separation guard and the
StiffnessError pair) is a blocked row-major argmin, so a step forms no
(N, N) array outside one block.

Under a singular kernel the end-of-step guard is the next step's first
evaluation ("first same as last"), under either method: a step evaluates
its wrapped end position (``_finished``) with the guard as its contact
floor, and the returned state carries that evaluation, keyed on its x, v
and m, which are read-only, and on the kernel, domain and method.  Under
RK4 the evaluation is the whole pair field; a split step reads only the
nearest pair and the largest squared relative speed, so under splitting
it is only those (``_approach``).  The next ``step`` under an equal
kernel, domain and method takes it off the state instead of evaluating
again, so a stored state keeps nothing extra once it has been stepped.

A smooth kernel has no guard.  Under one of compact support the carry of a
one-block flock holds a pair set instead (a Verlet list with a skin): the
step's first evaluation lists the pairs closer than (1 + ``_SKIN``) times
the support radius, and keeps them with a copy of its positions.  The
later stages, and the first evaluations of the steps that follow, sum on
that list instead of their own.  The one validity test is Verlet's
displacement test, made by ``_pair_field`` at each evaluation: a set is
used at positions x while no agent lies further than half the skin, less a
round-off room, from where the set was built.  Otherwise that evaluation
lists the pairs of its own dense distance pass, and a step's first pass
builds a new set.  A pair beyond the support adds an exact +-0 to each
per-agent sum, so every list gives the same result bit for bit, and a step
from a state equals a step from its ``copy()``.  Singular kernels, kernels
of full support and flocks of several blocks carry no set.

``integrate`` classifies the kernel once and hands the class to each
``step`` and record.  It records the initial state at once, then only
steps, keeping each later recorded state; after the last step, or the
failed one, it records them all in one ``diagnostics._records`` call, in
chunks of stacked states, each record bit for bit the one its state gives
alone.

Initial data comes from one table of kind -> generator: ``check_initial``
checks settings against it without drawing, ``initial_state`` dispatches on it.
"""

import functools
import inspect
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import diagnostics, geometry, kernels
from .errors import CollisionError, StiffnessError, check_keys, integer, number, string
from .geometry import TWO_PI, Domain
from .kernels import KernelSpec

__all__ = [
    "FlockState",
    "StepperConfig",
    "ObserverSchedule",
    "Trajectory",
    "rhs",
    "step",
    "integrate",
    "momentum",
    "velocity_diameter",
    "flock_diameter",
    "min_separation",
    "check_initial",
    "initial_state",
]

_DT_FLOOR = 1e-14


@dataclass
class FlockState:
    """Positions, velocities, and weights of N agents at time t.

    diss2 and diss2_root carry the integrals of I2 and sqrt(I2) accumulated
    by the stepper alongside the trajectory.
    """

    t: float
    x: np.ndarray
    v: np.ndarray
    m: np.ndarray
    diss2: float = 0.0
    diss2_root: float = 0.0
    # (x, v, m, kernel, domain, method, evaluation, pairs) that step leaves
    # for the next step; see _stepped
    _first: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.t = float(self.t)
        if not math.isfinite(self.t):  # a step from it would give t = nan
            raise ValueError(f"state time {self.t} must be finite")
        self.x = np.array(self.x, dtype=float)
        if self.x.ndim == 1:
            self.x = self.x[:, None]
        self.v = np.array(self.v, dtype=float)
        if self.v.ndim == 1:
            self.v = self.v[:, None]
        self.m = np.array(self.m, dtype=float)
        if self.x.shape != self.v.shape or self.x.ndim != 2:
            raise ValueError(
                f"positions {self.x.shape} and velocities {self.v.shape} must both be (N, d)"
            )
        if self.x.shape[0] < 1:
            raise ValueError("a flock needs at least one agent")
        if self.m.shape != (self.x.shape[0],):
            raise ValueError(f"weights shape {self.m.shape} must be ({self.x.shape[0]},)")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.v))):
            raise ValueError("positions and velocities must be finite")
        if not np.all(self.m > 0) or not np.all(np.isfinite(self.m)):
            raise ValueError("weights must be positive and finite")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    def copy(self) -> "FlockState":
        return FlockState(self.t, self.x, self.v, self.m, self.diss2, self.diss2_root)


def _stepped(t, x, v, m, diss2, diss2_root, kernel, domain, method, first, pairs):
    """A step's result from the arrays the step has just made, without
    ``__post_init__``'s copies and checks (``_attempt`` checks x and v).
    x, v and m are made read-only, so ``first``, the evaluation at them of
    ``method`` or None, cannot go stale; the next step reads it, and
    ``pairs``, the pair set of this step's first pass or None, only while
    the state still holds these arrays and steps under an equal kernel,
    domain and method."""
    if m.flags.writeable:  # the caller's weights; every later state shares the copy
        m = m.copy()
    for arr in (x, v, m):
        arr.flags.writeable = False
    state = object.__new__(FlockState)
    state.t, state.x, state.v, state.m = t, x, v, m
    state.diss2, state.diss2_root = diss2, diss2_root
    state._first = (None if first is None and pairs is None
                    else (x, v, m, kernel, domain, method, first, pairs))
    return state


# Under a singular kernel a pair at or below this separation is a contact:
# a step that brings one there is rejected and halved.  Smooth kernels have
# no guard.
_GUARD = 1e-9


# The stepping methods: adaptive RK4, the default and the reference, and
# Strang splitting of the position drift and the exact velocity flow
# (_split_attempt), which steps flocks of at most one row block.
_RK4 = "rk4_adaptive"
_SPLIT = "strang_exponential"
_SPLIT_MAX_N = diagnostics._RECORD_BLOCK


@dataclass(frozen=True)
class StepperConfig:
    """Adaptive stepping parameters: the largest step, the safety factor of
    the approach and stiffness limits, and the method.

    ``"rk4_adaptive"`` (the default) is classic RK4 under dt_max, the
    approach limit and the stiffness limit.  ``"strang_exponential"`` drifts
    the positions by dt/2, solves the velocity flow at those frozen
    positions exactly and drifts by dt/2 again; that flow is unconditionally
    stable, so only dt_max and the approach limit bound dt.  It steps flocks
    of at most ``diagnostics._RECORD_BLOCK`` agents.  ``to_dict`` names the
    method only when it is not the default, so an RK4 config keeps its hash.
    """

    dt_max: float
    safety: float = 0.4
    method: str = _RK4

    def __post_init__(self):
        if not 0 < self.dt_max < math.inf:  # fails on nan
            raise ValueError(f"dt_max must be positive and finite, got {self.dt_max}")
        if not 0 < self.safety <= 1:
            raise ValueError("safety must lie in (0, 1]")
        if self.method not in (_RK4, _SPLIT):
            raise ValueError(f"unknown method {self.method!r}; known: {_RK4}, {_SPLIT}")

    def to_dict(self) -> dict:
        d = {"dt_max": self.dt_max, "safety": self.safety}
        if self.method != _RK4:
            d["method"] = self.method
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "StepperConfig":
        # older configs carry an unset d_guard; the guard is fixed
        check_keys(d, ("safety", "method", "d_guard"), "stepper", required=("dt_max",))
        if d.get("d_guard") is not None:
            raise ValueError(f"the separation guard is fixed at {_GUARD}, got {d['d_guard']!r}")
        return cls(dt_max=number("dt_max", d["dt_max"]),
                   safety=number("safety", d.get("safety", 0.4)),
                   method=string("method", d.get("method", _RK4)))


def _block_nearest(dist, a):
    """Smallest distance of the rows a, a + 1, ... against every agent and its
    pair (i, j), the first in row-major order; sets the i = j entries to inf."""
    diagnostics._fill_diagonal(dist, math.inf, a)
    i, j = divmod(int(np.argmin(dist)), dist.shape[1])
    return float(dist[i, j]), (a + i, j)


def _nearest_pair(domain: Domain, x):
    """Smallest distance between two agents at x and its pair, the first
    such pair in row-major order (a single agent gives (inf, (0, 0))), from
    row blocks against every column."""
    block = diagnostics._RECORD_BLOCK
    near = (math.inf, (0, 0))
    for a in range(0, x.shape[0], block):
        dist = geometry.pair_square_sums(domain, x[a:a + block], x)
        near = min(near, _block_nearest(np.sqrt(dist, out=dist), a))
    return near


# Under a kernel of compact support a one-block flock's step keeps the
# pairs closer than (1 + _SKIN) times the support radius of its first pass:
# the pair set.  In tools/pair_field_timing.py's size and share sweeps a
# stage on the set is faster than one without at every N from 2 to 64 and
# every share up to 57%, and building it adds 1-15 us to a first pass, so
# every such step keeps one.
_SKIN = 0.5


class _PairSet:
    """The pairs of a one-block flock that may lie within the support radius.

    Built by a step's first pass: the candidates, the pairs i < j closer
    than (1 + _SKIN) times the radius at the positions x (see _candidates),
    and a copy of x.  By the triangle inequality (the minimal image's too)
    the set holds every pair within the radius at positions that move no
    agent further than half the skin from x, less a round-off ``room`` of
    1e-12 (1 + max |x|).  Measured on the raw coordinates, an agent that
    crossed the circle's seam reads as 2 pi away.
    """

    __slots__ = ("pairs", "x", "room")

    def __init__(self, pairs, half_skin, x):
        self.pairs, self.x = pairs, x.copy()
        self.room = half_skin - 1e-12 * (1.0 + float(np.max(np.abs(x))))

    def holds(self, x) -> bool:
        """Whether the set holds every pair within the radius at x: sqrt(d)
        times the largest coordinate change bounds each agent's move."""
        moved = x - self.x
        return math.sqrt(x.shape[1]) * float(np.abs(moved, out=moved).max()) <= self.room


def _candidates(dist, reach, m):
    """The pairs i < j of a one-block flock's (N, N) distances closer than
    reach, in row-major order: rows i, columns j, m_i and m_j."""
    i, j = np.nonzero(dist < reach)
    upper = i < j
    i, j = i[upper], j[upper]
    return i, j, m[i], m[j]


def _pair_field(x, v, m, kernel: KernelSpec, domain: Domain, t: float, singular: bool,
                floor: float = 0.0, first: bool = False, pairs=None, rate: bool = True):
    """Accelerations and the dissipation rate I2 of one force evaluation.

    Returns (acc, I2, stiff, speed2, dmin, pairs).  With ``first``, stiff is
    the largest row sum of phi (m_i + m_j) and, under a singular kernel,
    whose blocks are whole rows, speed2 and dmin are the largest squared
    relative speed and the smallest distance; otherwise these are 0, 0 and
    inf.  Without ``rate`` I2 is not formed and reads 0.

    A flock of one block under a kernel of compact support is summed on its
    pairs (``_pair_sums``); ``pairs``, a _PairSet, and the returned pairs
    are its.  Otherwise each row block of geometry._row_windows is formed
    densely against its column window and adds its rows' w @ v - v *
    rowsum(w), w = phi m_j, and its share of I2 = 2 sum m_i m_j phi |v_i -
    v_j|^2, and the returned pairs are None.

    Under a singular kernel a pair at or below ``floor`` raises
    CollisionError naming the nearest pair of the rows so far.  With floor 0,
    coincidence, that is the first coincident pair in row-major order; the
    stages and the end-of-step evaluation pass the guard, and a step that
    trips it is retried whatever the pair.
    """
    radius = kernels.support_radius(kernel)
    if radius < math.inf and not singular and x.shape[0] <= diagnostics._RECORD_BLOCK:
        return _pair_sums(x, v, m, kernel, domain, radius, first, pairs, rate)
    index, windows = geometry._row_windows(domain, x, radius, diagnostics._RECORD_BLOCK)
    acc = np.empty_like(v)
    if index is not None:
        x, v, m = x[index], v[index], m[index]
    i2 = stiff = speed2 = 0.0
    near = (math.inf, (0, 0))
    for r0, r1, c0, c1 in windows:
        i, j = slice(r0, r1), slice(c0, c1)
        dist = geometry.pair_square_sums(domain, x[i], x[j])
        np.sqrt(dist, out=dist)
        if singular:  # makes the i = j distances inf, where a singular phi is 0
            near = min(near, _block_nearest(dist, r0))
            if near[0] <= floor:
                raise CollisionError(near[1], t, near[0])
        phi = kernels._evaluate_raw(kernel, dist)
        if not singular:
            diagnostics._fill_diagonal(phi, 0.0, r0 - c0)
        mj = m[j]
        w = phi * mj
        acc[i if index is None else index[r0:r1]] = (
            w @ v[j] - v[i] * w.sum(axis=1, keepdims=True))
        if rate:
            speed = geometry.pair_square_sums(geometry.VELOCITY_SPACE, v[i], v[j])
            i2 += float((m[i, None] * mj * phi * speed).sum())
        if first:
            stiff = max(stiff, float((phi * (mj + m[i, None])).sum(axis=1).max()))
            if singular:
                speed2 = max(speed2, float(speed.max()))
    return acc, 2.0 * i2, stiff, speed2, near[0], None


def _pair_sums(x, v, m, kernel, domain, radius, first, pairs, rate):
    """``_pair_field`` of a flock of one block under a kernel of compact
    support, summed on a list of pairs i < j in row-major order.

    Each pair's terms are formed with the difference first, f = phi (v_j -
    v_i), and each agent's are summed in the list's order by ``np.bincount``:
    a_i = sum of m_j f over its pairs as i less the sum of m_i f over its
    pairs as j; I2 = 4 sum m_i m_j phi |v_j - v_i|^2, summed per agent and
    then over the agents; stiff the largest sum per agent, as i and as j, of
    phi (m_i + m_j).  A pair beyond the support adds an exact +-0 to each
    sequential sum, so every result is the same bit for bit whatever extra
    pairs the list holds.

    The list is ``pairs``' while it holds at x; otherwise the candidates of a
    dense distance pass, closer than the radius, or with ``first`` closer
    than (1 + _SKIN) times it, kept as the returned set.
    """
    n = x.shape[0]
    if pairs is not None and pairs.holds(x):
        i, j, mi, mj = pairs.pairs
        dist = np.sqrt(geometry._paired_square_sums(domain, x[i], x[j]))
    else:
        dist = geometry.pair_square_sums(domain, x, x)
        np.sqrt(dist, out=dist)
        i, j, mi, mj = listed = _candidates(dist, radius * (1.0 + _SKIN) if first else radius, m)
        dist = dist[i, j]
        pairs = _PairSet(listed, 0.5 * _SKIN * radius, x) if first else None
    phi = kernels._evaluate_raw(kernel, dist)
    acc = np.empty_like(v)
    for k in range(v.shape[1]):
        dv = v[j, k] - v[i, k]
        f = phi * dv
        acc[:, k] = np.bincount(i, f * mj, n) - np.bincount(j, f * mi, n)
        if rate:
            speed = dv * dv if k == 0 else speed + dv * dv
    i2 = stiff = 0.0
    if rate:
        i2 = 4.0 * float(np.bincount(i, mi * mj * phi * speed, n).sum())
    if first:
        terms = phi * (mi + mj)
        stiff = float((np.bincount(i, terms, n) + np.bincount(j, terms, n)).max())
    return acc, i2, stiff, 0.0, math.inf, pairs


def rhs(state: FlockState, kernel: KernelSpec, domain: Domain) -> np.ndarray:
    """Accelerations of the weighted alignment law at the given state."""
    return _pair_field(state.x, state.v, state.m, kernel, domain, state.t,
                       kernels._is_singular(kernel), rate=False)[0]


def _propose_dt(cfg: StepperConfig, stiff: float, speed2: float, dmin: float,
                singular: bool) -> float:
    """The step's dt from its first evaluation: dt_max, the approach limit
    of the nearest pair under a singular kernel, and the stiffness limit."""
    dt = cfg.dt_max
    if singular and math.isfinite(dmin):
        umax = math.sqrt(speed2)
        if umax > 0.0:
            dt = min(dt, cfg.safety * dmin / umax)
    # symmetrized contraction-rate row sum bounds the fastest pair mode
    if stiff > 0.0:
        dt = min(dt, cfg.safety / stiff)
    return dt


def _carried(state, kernel, domain, method):
    """(evaluation, pairs) the previous step left on the state, taken off
    it: those of a state that still holds the arrays they were made at and
    steps under an equal kernel, domain and method, else (None, None)."""
    carried, state._first = state._first, None
    if (carried is not None and carried[0] is state.x and carried[1] is state.v
            and carried[2] is state.m and carried[3:6] == (kernel, domain, method)):
        return carried[6:]
    return None, None


def _approach(x, v, domain, t, floor):
    """(speed2, dmin) of a flock of one row block under a singular kernel,
    the largest squared relative speed and the smallest distance, as
    ``_pair_field`` with ``first`` forms them; a pair at or below ``floor``
    raises CollisionError naming the first such pair in row-major order."""
    dist = geometry.pair_square_sums(domain, x, x)
    near, pair = _block_nearest(np.sqrt(dist, out=dist), 0)
    if near <= floor:
        raise CollisionError(pair, t, near)
    return float(geometry.pair_square_sums(geometry.VELOCITY_SPACE, v, v).max()), near


def step(state: FlockState, kernel: KernelSpec, domain: Domain, cfg: StepperConfig, dt_cap=None,
         *, _singular=None) -> FlockState:
    """One accepted adaptive step of ``cfg.method``; never steps past
    dt_cap when given, which must be positive.

    Rejects and halves whenever a stage (or the result) drives a pair to or
    below the separation guard under a singular kernel; raises
    StiffnessError once dt underflows, and ValueError when the result is not
    finite or the method cannot step a flock this large.  ``_singular`` is
    the kernel's class when the caller has it; None classifies here.
    """
    if dt_cap is not None and not dt_cap > 0.0:  # fails on nan
        raise ValueError(f"dt_cap must be positive, got {dt_cap!r}")
    singular = kernels._is_singular(kernel) if _singular is None else _singular
    evaluation, pairs = _carried(state, kernel, domain, cfg.method)
    if cfg.method == _RK4:
        if evaluation is None:
            evaluation = _pair_field(state.x, state.v, state.m, kernel, domain, state.t,
                                     singular, first=True, pairs=pairs)
        a0, i2a, stiff, speed2, dmin, pairs = evaluation
        attempt = functools.partial(_attempt, state, (a0, i2a), pairs, kernel, domain, singular)
    else:
        if state.n > _SPLIT_MAX_N:
            raise ValueError(f"{cfg.method} steps at most {_SPLIT_MAX_N} agents, got {state.n}")
        # the exact velocity flow has no stiffness limit, and without a
        # guard nothing reads the first evaluation
        stiff, speed2, dmin = 0.0, 0.0, math.inf
        if singular:
            speed2, dmin = evaluation or _approach(state.x, state.v, domain, state.t, 0.0)
        attempt = functools.partial(_split_attempt, state, kernel, domain, singular)
    dt = _propose_dt(cfg, stiff, speed2, dmin, singular)
    if dt_cap is not None:
        dt = min(dt, float(dt_cap))

    while True:
        if dt < _DT_FLOOR:
            dmin, pair = _nearest_pair(domain, state.x)
            raise StiffnessError(pair, state.t, dmin, dt)
        try:
            result = attempt(dt)
        except CollisionError:
            dt *= 0.5
            continue
        break

    x1, v1, d2, d2r, last = result
    return _stepped(state.t + dt, x1, v1, state.m, state.diss2 + d2,
                    state.diss2_root + d2r, kernel, domain, cfg.method, last, pairs)


def _attempt(state, first, pairs, kernel, domain, singular, dt):
    x0, v0, m = state.x, state.v, state.m
    t = state.t

    def stage(xs, vs):
        return _pair_field(xs, vs, m, kernel, domain, t, singular, _GUARD, pairs=pairs)[:2]

    a0, i2a = first
    h = 0.5 * dt
    xb, vb = x0 + h * v0, v0 + h * a0
    ab, i2b = stage(xb, vb)
    xc, vc = x0 + h * vb, v0 + h * ab
    ac, i2c = stage(xc, vc)
    xd, vd = x0 + dt * vc, v0 + dt * ac
    ad, i2d = stage(xd, vd)

    x1 = x0 + (dt / 6.0) * (v0 + 2.0 * vb + 2.0 * vc + vd)
    v1 = v0 + (dt / 6.0) * (a0 + 2.0 * ab + 2.0 * ac + ad)
    x1 = _finished(x1, v1, domain)
    last = (_pair_field(x1, v1, m, kernel, domain, t + dt, singular, _GUARD, first=True)
            if singular else None)

    d2 = (dt / 6.0) * (i2a + 2.0 * i2b + 2.0 * i2c + i2d)
    roots = [math.sqrt(max(val, 0.0)) for val in (i2a, i2b, i2c, i2d)]
    d2r = (dt / 6.0) * (roots[0] + 2.0 * roots[1] + 2.0 * roots[2] + roots[3])
    return x1, v1, d2, d2r, last


def _finished(x1, v1, domain):
    """The wrapped end position of a step, whose result must be finite.
    Under a singular kernel the caller then guards it, the position no stage
    has guarded, by the evaluation the next step takes as its first."""
    if not (np.isfinite(x1).all() and np.isfinite(v1).all()):
        raise ValueError("positions and velocities must be finite")
    return domain.wrap(x1)


def _split_attempt(state, kernel, domain, singular, dt):
    """One Strang step of dt for a flock of one row block.

    The positions drift by dt/2 with v0 and are wrapped.  At those frozen
    positions the velocity flow v' = -L v, L = D - phi M, is linear: with
    u = sqrt(m) (v - vbar), vbar the mean velocity the flow keeps, it is
    u' = -S u for the symmetric positive semi-definite S_ij =
    -sqrt(m_i) phi_ij sqrt(m_j), S_ii = sum_j phi_ij m_j, and eigh(S) = Q
    diag(lam) Q^T solves it exactly: with w = Q^T u0, v1 = vbar + M^-1/2 Q
    e^(-dt lam) w.  The positions then drift by dt/2 with v1.

    Along that flow I2(s) = 4 u^T S u = 4 sum_k lam_k |w_k|^2 e^(-2 lam_k s),
    so diss2 gains its exact integral 2 sum_k |w_k|^2 (1 - e^(-2 lam_k dt)),
    which is V2's drop for unit total mass, and diss2_root gains Simpson's
    rule on sqrt(I2) at s = 0, dt/2 and dt.  Under a singular kernel the
    guard holds at the midpoint positions and at the end, as at RK4's
    stages.
    """
    x0, v0, m = state.x, state.v, state.m
    h = 0.5 * dt
    xh = domain.wrap(x0 + h * v0)
    dist = geometry.pair_square_sums(domain, xh, xh)
    np.sqrt(dist, out=dist)
    if singular:  # makes the i = j distances inf, where a singular phi is 0
        near, pair = _block_nearest(dist, 0)
        if near <= _GUARD:
            raise CollisionError(pair, state.t, near)
    phi = kernels._evaluate_raw(kernel, dist)
    np.fill_diagonal(phi, 0.0)
    root = np.sqrt(m)[:, None]
    s = phi * root.T
    s *= -root
    np.fill_diagonal(s, phi @ m)
    lam, q = np.linalg.eigh(s)
    np.maximum(lam, 0.0, out=lam)
    vbar = (m @ v0) / m.sum()
    w = q.T @ (root * (v0 - vbar))
    decay = np.exp(-dt * lam)
    v1 = vbar + (q @ (decay[:, None] * w)) / root
    x1 = _finished(xh + h * v1, v1, domain)
    last = _approach(x1, v1, domain, state.t + dt, _GUARD) if singular else None

    w2 = np.einsum("kd,kd->k", w, w)
    d2 = 2.0 * float(w2 @ -np.expm1(-2.0 * dt * lam))
    rate = lam * w2  # I2(s) / 4 = rate @ e^(-2 lam s)
    roots = [2.0 * math.sqrt(float(val)) for val in (rate.sum(), rate @ decay, rate @ decay**2)]
    d2r = (dt / 6.0) * (roots[0] + 4.0 * roots[1] + roots[2])
    return x1, v1, d2, d2r, last


@dataclass(frozen=True)
class ObserverSchedule:
    """Sample times: linear spacing or a geometric ladder for log-log fits."""

    kind: str = "linear"
    spacing: float = 1.0
    t_first: float = 1.0
    factor: float = 1.1

    def __post_init__(self):
        if self.kind not in ("linear", "geometric"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if not 0 < self.spacing < math.inf:  # fails on nan, which never ends times()
            raise ValueError(f"spacing must be positive and finite, got {self.spacing}")
        if not (0 < self.t_first < math.inf and 1 < self.factor < math.inf):
            raise ValueError("geometric schedule needs finite t_first > 0 and factor > 1")

    def times(self, t0: float, horizon: float) -> list:
        if not (math.isfinite(t0) and math.isfinite(horizon)):  # neither kind would end
            raise ValueError(f"state time {t0} and horizon {horizon} must be finite")
        if horizon < t0:
            raise ValueError(f"horizon {horizon} precedes state time {t0}")
        if horizon == t0:
            return []
        out = []
        edge = horizon * (1.0 - 1e-12) if horizon > 0 else horizon
        if self.kind == "linear":
            k = 1
            while True:
                tk = t0 + k * self.spacing
                if tk >= edge:
                    break
                out.append(tk)
                k += 1
        else:
            tk = self.t_first
            while tk <= t0:
                tk *= self.factor
            while tk < edge:
                out.append(tk)
                tk *= self.factor
        out.append(horizon)
        return out

    def to_dict(self) -> dict:
        if self.kind == "linear":
            return {"kind": "linear", "spacing": self.spacing}
        return {"kind": "geometric", "t_first": self.t_first, "factor": self.factor}

    @classmethod
    def from_dict(cls, d: dict) -> "ObserverSchedule":
        check_keys(d, ("spacing", "t_first", "factor"), "observers", required=("kind",))
        kind = string("kind", d["kind"])
        keys = ("spacing",) if kind == "linear" else ("t_first", "factor")
        # a key of the other kind would be dropped unread, so it is refused
        check_keys(d, keys, f"{kind} observers", required=("kind",))
        return cls(kind, **{k: number(k, d[k]) for k in keys if k in d})


@dataclass
class Trajectory:
    """Sampled run: diagnostic records, stored states, optional error annotation."""

    records: list = field(default_factory=list)
    states: list = field(default_factory=list)
    error: Exception | None = None
    meta: dict = field(default_factory=dict)

    @property
    def final_state(self) -> FlockState:
        return self.states[-1]

    def t(self) -> np.ndarray:
        return self.column("t")

    def column(self, name: str) -> np.ndarray:
        return diagnostics.record_column(self.records, name)


def integrate(
    state: FlockState,
    kernel: KernelSpec,
    domain: Domain,
    cfg: StepperConfig,
    horizon: float,
    observers: ObserverSchedule,
    lyapunov_config=None,
    record_steps: bool = False,
) -> Trajectory:
    """Advance to the horizon, sampling diagnostics at the observer times.

    Steps are capped so every observer time is hit exactly; collision or
    stiffness failures terminate the run early and are recorded on the
    returned trajectory instead of propagating, with a record of the state
    the failed step started from unless that state is already the last one
    recorded.  With ``record_steps`` a record is taken after every accepted
    step (observer times still cap the step so scheduled sample times are
    hit exactly).

    The initial state is recorded at once, so a coincident pair under a
    singular kernel raises before any step.  The loop only steps and keeps
    the later recorded states; they are recorded after it, in one
    ``diagnostics._records`` call, which forms them in chunks of stacked
    states, each record the one ``compute_record`` forms for its state
    alone, bit for bit.  Under a singular kernel every stepped state has
    passed the end-of-step guard, so its record cannot raise.
    """
    if state.dim != domain.dim:
        raise ValueError(
            f"state dimension {state.dim} does not match domain dimension {domain.dim}"
        )
    targets = observers.times(state.t, horizon)
    cur = state.copy()
    cur.x = domain.wrap(cur.x)
    traj = Trajectory()
    singular = kernels._is_singular(kernel)

    # a recorded state is never changed afterwards, so it is kept, not copied
    traj.records.append(diagnostics.compute_record(cur, kernel, domain, lyapunov_config,
                                                   _singular=singular))
    traj.states.append(cur)
    try:
        for target in targets:
            while cur.t < target:
                cur = step(cur, kernel, domain, cfg, dt_cap=target - cur.t, _singular=singular)
                if target - cur.t < 1e-12 * max(1.0, abs(target)):
                    cur.t = target
                if record_steps:
                    traj.states.append(cur)
            if not record_steps:
                traj.states.append(cur)
    except (CollisionError, StiffnessError) as err:
        traj.error = err
        if traj.states[-1] is not cur:
            traj.states.append(cur)
    traj.records.extend(diagnostics._records(traj.states[1:], kernel, domain, lyapunov_config,
                                             singular))
    return traj


# ---------------------------------------------------------------------------
# bulk observables

def momentum(state: FlockState) -> np.ndarray:
    """Weighted mean velocity."""
    return state.m @ state.v / float(np.sum(state.m))


def velocity_diameter(state: FlockState) -> float:
    return diagnostics._diameter(geometry.VELOCITY_SPACE, state.v)


def flock_diameter(state: FlockState, domain: Domain) -> float:
    return diagnostics._diameter(domain, state.x)


def min_separation(state: FlockState, domain: Domain) -> float:
    return _nearest_pair(domain, state.x)[0]


# ---------------------------------------------------------------------------
# initial data: a generator draws x and v of n agents from rng, and its
# keyword-only arguments, with their defaults, are the only list of its
# kind's parameters (one without a default is required)

def _uniform_gaussian(rng, domain, n, *, box=1.0, sigma=1.0):
    if domain.periodic:
        x = rng.uniform(0.0, TWO_PI, size=(n, 1))
    else:
        x = rng.uniform(0.0, box, size=(n, domain.dim))
    return x, rng.normal(0.0, sigma, size=(n, domain.dim))


def _two_agent_symmetric(rng, domain, n, *, x0, v0):
    if n != 2 or domain.periodic:
        raise ValueError("two_agent_symmetric needs n=2 on a Euclidean domain")
    x = np.zeros((2, domain.dim))
    v = np.zeros((2, domain.dim))
    x[:, 0], v[:, 0] = (x0, -x0), (v0, -v0)
    return x, v


def _parallel_lines(rng, domain, n, *, sep=2.0, v1=1.0, v2=0.5):
    if n != 2 or domain.periodic or domain.dim != 2:
        raise ValueError("parallel_lines needs n=2 on the Euclidean plane")
    return np.array([[0.0, 0.0], [0.0, sep]]), np.array([[v1, 0.0], [v2, 0.0]])


def _two_cluster_circle(rng, domain, n, *, n1=None, width=0.2, dv=1.0, sigma=0.0,
                        center1=0.5 * math.pi, center2=1.5 * math.pi):
    if not domain.periodic:
        raise ValueError("two_cluster_circle lives on the circle")
    n1 = n // 2 if n1 is None else integer("n1", n1)
    x = np.concatenate([
        center1 + width * rng.uniform(-0.5, 0.5, size=n1),
        center2 + width * rng.uniform(-0.5, 0.5, size=n - n1),
    ])[:, None]
    v = np.concatenate([np.full(n1, 0.5 * dv), np.full(n - n1, -0.5 * dv)])[:, None]
    if sigma > 0:
        v = v + rng.normal(0.0, sigma, size=(n, 1))
    return x, v


def _vacuum_arc(rng, domain, n, *, arc=0.5 * math.pi, sigma=1.0):
    if not domain.periodic:
        raise ValueError("vacuum_arc lives on the circle")
    return rng.uniform(0.0, arc, size=(n, 1)), rng.normal(0.0, sigma, size=(n, 1))


def _lattice_circle(rng, domain, n, *, jitter=0.0, sigma=1.0):
    if not domain.periodic:
        raise ValueError("lattice_circle lives on the circle")
    x = (np.arange(n) * (TWO_PI / n))[:, None]
    if jitter > 0:
        x = x + rng.uniform(-jitter, jitter, size=(n, 1))
    return x, rng.normal(0.0, sigma, size=(n, 1))


_INITIAL_KINDS = {
    "uniform_gaussian": _uniform_gaussian,
    "two_agent_symmetric": _two_agent_symmetric,
    "parallel_lines": _parallel_lines,
    "two_cluster_circle": _two_cluster_circle,
    "vacuum_arc": _vacuum_arc,
    "lattice_circle": _lattice_circle,
}
_PARAMETERS = {  # kind -> {parameter: default}, read once from the signatures
    kind: {a.name: a.default for a in inspect.signature(gen).parameters.values()
           if a.kind is a.KEYWORD_ONLY}
    for kind, gen in _INITIAL_KINDS.items()
}


def _uniform_weights(rng, n, total_mass):
    return np.full(n, total_mass / n)


def _random_weights(rng, n, total_mass):
    raw = rng.uniform(0.5, 1.5, size=n)
    return raw * (total_mass / raw.sum())


_WEIGHT_MODES = {"uniform": _uniform_weights, "random": _random_weights}

_INITIAL_DEFAULTS = {"kind": "uniform_gaussian", "seed": 0, "params": {},
                     "weight_mode": "uniform", "total_mass": 1.0}


def _finite(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")


def check_initial(initial: dict) -> dict:
    """Initial-data settings checked and completed with their defaults.

    The keys are ``kind``, ``seed`` (a non-negative integer), ``params``
    (finite numbers, named as the kind's generator names them),
    ``weight_mode`` and ``total_mass``.  Raises ValueError naming the first
    bad key or value; draws nothing from a generator.
    """
    check_keys(initial, _INITIAL_DEFAULTS, "initial")
    init = {**_INITIAL_DEFAULTS, **initial}
    kind = string("kind", init["kind"])
    if kind not in _INITIAL_KINDS:
        raise ValueError(f"unknown initial-data kind {kind!r}; known: {', '.join(_INITIAL_KINDS)}")
    init["seed"] = integer("seed", init["seed"])
    if init["seed"] < 0:
        raise ValueError(f"seed must be non-negative, got {init['seed']}")
    named = _PARAMETERS[kind]
    params = init["params"]
    check_keys(params, named, f"{kind} parameters")
    for name, value in params.items():
        _finite(f"{kind} parameter {name!r}", value)
    for name, default in named.items():
        if default is inspect.Parameter.empty and name not in params:
            raise ValueError(f"{kind} needs the parameter {name!r}")
    init["params"] = dict(params)
    if string("weight_mode", init["weight_mode"]) not in _WEIGHT_MODES:
        raise ValueError(f"unknown weight mode {init['weight_mode']!r}")
    _finite("total_mass", init["total_mass"])
    if init["total_mass"] <= 0:
        raise ValueError(f"total_mass must be positive, got {init['total_mass']!r}")
    return init


def initial_state(domain: Domain, n: int, **initial) -> FlockState:
    """Seeded initial state (numpy PCG64) from the settings ``check_initial``
    reads; deterministic per settings."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    init = check_initial(initial)
    rng = np.random.default_rng(init["seed"])
    x, v = _INITIAL_KINDS[init["kind"]](rng, domain, n, **init["params"])
    m = _WEIGHT_MODES[init["weight_mode"]](rng, n, init["total_mass"])
    return FlockState(0.0, domain.wrap(np.asarray(x, dtype=float)), v, m)
