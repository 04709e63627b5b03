"""Weighted pairwise-alignment dynamics and its adaptive integrator.

The single force law is the weighted form

    a_i = sum_{j != i} m_j phi(|x_i - x_j|) (v_j - v_i),

which reduces to the uniform mean-field form when every weight is 1/N, so
discrete and weighted runs share one code path bit for bit.  The stepper is
classic RK4 with a step controller that respects kernel stiffness, plus an
approach limiter and a minimum-separation guard that only engage for
singular kernels.  The integrator also accumulates the dissipation integral
(and its square root) as extra quadrature state so energy-balance residuals
inherit the scheme's order.

The pair field of a step (kernel, accelerations, dissipation rate and
stiffness row sums) is built on dense (N, N) arrays, the reference, except
when the kernel has compact support and there are enough agents for a
neighbour list to pay (``_neighbour_radius``, the one place that choice is
made); then it is summed over the pairs within the support only.

Initial data comes from one table of kind -> generator: ``check_initial``
checks settings against it without drawing, ``initial_state`` dispatches on it.
"""

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

    def __post_init__(self):
        self.t = float(self.t)
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


# Under a singular kernel a pair at or below this separation is a contact:
# a step that brings one there is rejected and halved.  Smooth kernels have
# no guard.
_GUARD = 1e-9


@dataclass(frozen=True)
class StepperConfig:
    """Adaptive RK4 stepping parameters: the largest step and the safety
    factor of the approach and stiffness limits."""

    dt_max: float
    safety: float = 0.4

    def __post_init__(self):
        if not 0 < self.dt_max < math.inf:  # fails on nan
            raise ValueError(f"dt_max must be positive and finite, got {self.dt_max}")
        if not 0 < self.safety <= 1:
            raise ValueError("safety must lie in (0, 1]")

    def to_dict(self) -> dict:
        return {"dt_max": self.dt_max, "safety": self.safety}

    @classmethod
    def from_dict(cls, d: dict) -> "StepperConfig":
        # older configs name the method and carry an unset d_guard; adaptive
        # RK4 and the fixed guard are the only choices
        check_keys(d, ("safety", "method", "d_guard"), "stepper", required=("dt_max",))
        method = d.get("method", "rk4_adaptive")
        if method != "rk4_adaptive":
            raise ValueError(f"unknown method {method!r}")
        if d.get("d_guard") is not None:
            raise ValueError(f"the separation guard is fixed at {_GUARD}, got {d['d_guard']!r}")
        return cls(dt_max=number("dt_max", d["dt_max"]),
                   safety=number("safety", d.get("safety", 0.4)))


# From this many agents on, the pair field of a compactly supported kernel
# is summed over a neighbour list instead of dense (N, N) arrays.  It is the
# smallest N of tools/pair_field_timing.py's force table at which the list is
# clearly faster on both domains; at N = 64 the two paths are about even on
# the circle, and the library runs (at most 64 agents) stay on the dense
# reference.
_NEIGHBOUR_MIN_N = 128


def _neighbour_radius(spec: KernelSpec, domain: Domain, n: int):
    """The radius of the neighbour list the pair field of n agents on
    ``domain`` is summed on, or None for the dense reference: the list needs
    a kernel of compact support, at least _NEIGHBOUR_MIN_N agents and, on the
    circle, a support radius below pi."""
    radius = kernels.support_radius(spec)
    bound = math.pi if domain.periodic else math.inf
    return radius if n >= _NEIGHBOUR_MIN_N and radius < bound else None


def _pair_kernel(x, kernel: KernelSpec, domain: Domain, t: float, singular: bool, radius,
                 floor: float = 0.0):
    """Kernel phi of the pairs, the smallest distance and the pair list.

    Without a radius phi is the dense (N, N) array, the list is None and a
    singular pair at or below floor raises CollisionError (see
    diagnostics._pair_phi).  With one, phi is flat over the neighbour list
    (i, j) and there is no smallest distance: only a singular kernel reads
    it, and a singular kernel is never compactly supported.
    """
    if radius is None:
        dist = geometry.pair_distances(domain, x)
        phi, dmin = diagnostics._pair_phi(kernel, dist, t, singular, floor)
        return phi, dmin, None
    i, j, dist = geometry.neighbour_pairs(domain, x, radius)
    return kernels._evaluate_raw(kernel, dist), None, (i, j)


def _pair_terms(x, v, kernel, domain, t, singular, radius, floor=0.0):
    """``_pair_kernel`` with the squared relative speed of the same pairs."""
    phi, dmin, pairs = _pair_kernel(x, kernel, domain, t, singular, radius, floor)
    speed2 = geometry.pair_square_sums(geometry.VELOCITY_SPACE, v, pairs)
    return phi, speed2, dmin, pairs


def _weights(m, pairs):
    """m_i and m_j of the pairs: broadcast over (N, N), or gathered on the list."""
    return (m[:, None], m[None, :]) if pairs is None else (m[pairs[0]], m[pairs[1]])


def _accel(phi, v, m, pairs) -> np.ndarray:
    """Accelerations of the weighted alignment law from the pair kernel phi."""
    if pairs is None:
        w = phi * m[None, :]
        return w @ v - v * w.sum(axis=1, keepdims=True)
    i, j = pairs
    w = phi * m[j]
    return np.stack([np.bincount(i, weights=w * (col[j] - col[i]), minlength=len(m))
                     for col in v.T], axis=1)


def _forces(phi, speed2, v, m, pairs):
    """Accelerations and the dissipation rate I2 from one evaluation's pair terms."""
    mi, mj = _weights(m, pairs)
    return _accel(phi, v, m, pairs), 2.0 * float(np.sum(mi * mj * phi * speed2))


def rhs(state: FlockState, kernel: KernelSpec, domain: Domain) -> np.ndarray:
    """Accelerations of the weighted alignment law at the given state."""
    singular = kernels._is_singular(kernel)
    radius = _neighbour_radius(kernel, domain, state.n)
    phi, _, pairs = _pair_kernel(state.x, kernel, domain, state.t, singular, radius)
    return _accel(phi, state.v, state.m, pairs)


def _propose_dt(cfg: StepperConfig, phi, speed2, m, dmin, singular: bool, pairs) -> float:
    """The step's dt from its first evaluation: dt_max, the approach limit
    of the nearest pair under a singular kernel, and the stiffness limit."""
    dt = cfg.dt_max
    if singular and math.isfinite(dmin):
        umax = math.sqrt(float(np.max(speed2)))
        if umax > 0.0:
            dt = min(dt, cfg.safety * dmin / umax)
    # symmetrized contraction-rate row sum bounds the fastest pair mode
    mi, mj = _weights(m, pairs)
    terms = phi * (mj + mi)
    if pairs is None:
        rows = terms.sum(axis=1)
    else:
        rows = np.bincount(pairs[0], weights=terms, minlength=len(m))
    stiff = float(np.max(rows))
    if stiff > 0.0:
        dt = min(dt, cfg.safety / stiff)
    return dt


def step(state: FlockState, kernel: KernelSpec, domain: Domain, cfg: StepperConfig, dt_cap=None) -> FlockState:
    """One accepted adaptive step; never steps past dt_cap when given.

    Rejects and halves whenever a stage (or the result) drives a pair to or
    below the separation guard under a singular kernel; raises
    StiffnessError once dt underflows.
    """
    singular = kernels._is_singular(kernel)
    radius = _neighbour_radius(kernel, domain, state.n)
    x0, v0, m = state.x, state.v, state.m
    phi, speed2, dmin, pairs = _pair_terms(x0, v0, kernel, domain, state.t, singular, radius)
    first = _forces(phi, speed2, v0, m, pairs)
    dt = _propose_dt(cfg, phi, speed2, m, dmin, singular, pairs)
    del phi, speed2, pairs  # freed before the stages build theirs
    if dt_cap is not None:
        dt = min(dt, float(dt_cap))

    while True:
        if dt < _DT_FLOOR:
            dmin, pair = geometry.nearest_pair(geometry.pair_distances(domain, x0))
            raise StiffnessError(pair, state.t, dmin, dt)
        try:
            result = _attempt(state, first, kernel, domain, dt, singular, radius)
        except CollisionError:
            dt *= 0.5
            continue
        break

    x1, v1, d2, d2r = result
    t1 = state.t + dt
    return FlockState(t1, domain.wrap(x1), v1, m, state.diss2 + d2, state.diss2_root + d2r)


def _attempt(state, first, kernel, domain, dt, singular, radius):
    x0, v0, m = state.x, state.v, state.m
    t = state.t

    def stage(xs, vs):
        phi, speed2, _, pairs = _pair_terms(xs, vs, kernel, domain, t, singular, radius, _GUARD)
        return _forces(phi, speed2, vs, m, pairs)

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
    if singular:
        # the end-of-step position is the one no stage has guarded
        dmin, pair = geometry.nearest_pair(geometry.pair_distances(domain, x1))
        if dmin <= _GUARD:
            raise CollisionError(pair, t + dt, dmin)

    d2 = (dt / 6.0) * (i2a + 2.0 * i2b + 2.0 * i2c + i2d)
    roots = [math.sqrt(max(val, 0.0)) for val in (i2a, i2b, i2c, i2d)]
    d2r = (dt / 6.0) * (roots[0] + 2.0 * roots[1] + 2.0 * roots[2] + roots[3])
    return x1, v1, d2, d2r


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
    returned trajectory instead of propagating.  With ``record_steps`` a
    record is taken after every accepted step (observer times still cap
    the step so scheduled sample times are hit exactly).
    """
    if state.dim != domain.dim:
        raise ValueError(
            f"state dimension {state.dim} does not match domain dimension {domain.dim}"
        )
    cur = state.copy()
    cur.x = domain.wrap(cur.x)
    traj = Trajectory()

    # a recorded state is never changed afterwards, so it is kept, not copied
    def record(s):
        traj.records.append(diagnostics.compute_record(s, kernel, domain, lyapunov_config))
        traj.states.append(s)

    record(cur)
    for target in observers.times(cur.t, horizon):
        while cur.t < target:
            try:
                cur = step(cur, kernel, domain, cfg, dt_cap=target - cur.t)
            except (CollisionError, StiffnessError) as err:
                traj.error = err
                try:
                    record(cur)
                except CollisionError:
                    traj.states.append(cur)
                return traj
            if target - cur.t < 1e-12 * max(1.0, abs(target)):
                cur.t = target
            if record_steps:
                record(cur)
        if not record_steps:
            record(cur)
    return traj


# ---------------------------------------------------------------------------
# bulk observables

def momentum(state: FlockState) -> np.ndarray:
    """Weighted mean velocity."""
    return state.m @ state.v / float(np.sum(state.m))


def velocity_diameter(state: FlockState) -> float:
    return math.sqrt(float(np.max(geometry.pair_square_sums(geometry.VELOCITY_SPACE, state.v))))


def flock_diameter(state: FlockState, domain: Domain) -> float:
    return float(np.max(geometry.pair_distances(domain, state.x)))


def min_separation(state: FlockState, domain: Domain) -> float:
    return geometry.nearest_pair(geometry.pair_distances(domain, state.x))[0]


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
    init = check_initial(initial)
    rng = np.random.default_rng(init["seed"])
    x, v = _INITIAL_KINDS[init["kind"]](rng, domain, n, **init["params"])
    m = _WEIGHT_MODES[init["weight_mode"]](rng, n, init["total_mass"])
    return FlockState(0.0, domain.wrap(np.asarray(x, dtype=float)), v, m)
