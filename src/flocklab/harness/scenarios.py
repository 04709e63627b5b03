"""Named, fully reproducible simulation setups and their serialization.

A scenario bundles everything a run needs: domain, kernel, initial-data
generator with its seed, stepper settings, horizon, observer schedule and
an optional Lyapunov functional to track.  Identical config plus seed
gives identical output, byte for byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass

from ..diagnostics import LyapunovConfig, LyapunovVariant, _check_variant, write_csv
from ..dynamics import (
    _SPLIT,
    _SPLIT_MAX_N,
    FlockState,
    ObserverSchedule,
    StepperConfig,
    Trajectory,
    check_initial,
    initial_state,
    integrate,
)
from ..errors import check_keys, integer, number, string
from ..geometry import Domain, circle, euclidean
from ..kernels import KernelKind, KernelSpec, _is_singular

_MODES = ("discrete", "lagrangian")


@dataclass(frozen=True)
class ScenarioConfig:
    """Self-consistent description of one simulation run.

    ``mode`` distinguishes the equal-weight agent system ("discrete") from
    mass-weighted Lagrangian particles ("lagrangian"); discrete mode pins
    uniform weights with unit total mass.  ``initial`` carries the
    generator kind, its parameters, and the seed.
    """

    name: str
    domain: Domain
    kernel: KernelSpec
    n: int
    mode: str
    initial: dict
    stepper: StepperConfig
    horizon: float
    observers: ObserverSchedule
    lyapunov: LyapunovConfig | None = None
    output: str | None = None

    def __post_init__(self):
        if not self.name:
            raise ValueError("scenario name must be nonempty")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not (math.isfinite(self.horizon) and self.horizon >= 0):
            raise ValueError("horizon must be finite and nonnegative")
        if self.stepper.method == _SPLIT and self.n > _SPLIT_MAX_N:
            raise ValueError(f"stepper method {_SPLIT} steps at most {_SPLIT_MAX_N} agents, "
                             f"got n = {self.n}")
        init = check_initial(self.initial)
        uniform = init["weight_mode"] == "uniform" and init["total_mass"] == 1.0
        if self.mode == "discrete" and not uniform:
            raise ValueError("discrete mode requires uniform weights with total mass 1")
        object.__setattr__(self, "initial", init)
        if self.lyapunov is not None:
            _check_variant(self.lyapunov.variant, self.domain)
            if (self.lyapunov.variant is LyapunovVariant.EUCLIDEAN_V4
                    and _is_singular(self.kernel)):
                raise ValueError("the V4-based functional requires a smooth kernel")

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "domain": self.domain.to_dict(),
            "kernel": self.kernel.to_dict(),
            "n": self.n,
            "mode": self.mode,
            "initial": {**self.initial, "params": dict(self.initial["params"])},
            "stepper": self.stepper.to_dict(),
            "horizon": self.horizon,
            "observers": self.observers.to_dict(),
            "lyapunov": None if self.lyapunov is None else self.lyapunov.to_dict(),
            "output": self.output,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        fields = dataclasses.fields(cls)
        check_keys(d, [f.name for f in fields if f.default is not dataclasses.MISSING], "config",
                   [f.name for f in fields if f.default is dataclasses.MISSING])
        lyap = d.get("lyapunov")
        return cls(
            name=string("name", d["name"]),
            domain=Domain.from_dict(d["domain"]),
            kernel=KernelSpec.from_dict(d["kernel"]),
            n=integer("n", d["n"]),
            mode=d["mode"],
            initial=d["initial"],
            stepper=StepperConfig.from_dict(d["stepper"]),
            horizon=number("horizon", d["horizon"]),
            observers=ObserverSchedule.from_dict(d["observers"]),
            lyapunov=None if lyap is None else LyapunovConfig.from_dict(lyap),
            output=None if d.get("output") is None else string("output", d["output"]),
        )

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()[:12]

    # -- execution ----------------------------------------------------------

    def build(self) -> FlockState:
        """Construct the seeded initial state."""
        return initial_state(self.domain, self.n, **self.initial)

    def run(self, record_steps: bool = False) -> Trajectory:
        traj = integrate(
            self.build(),
            self.kernel,
            self.domain,
            self.stepper,
            self.horizon,
            self.observers,
            lyapunov_config=self.lyapunov,
            record_steps=record_steps,
        )
        traj.meta = {
            "scenario": self.name,
            "seed": str(self.initial["seed"]),
            "mode": self.mode,
            "horizon": repr(self.horizon),
            "config_sha": self.config_hash(),
            "config": self.canonical_json(),
        }
        return traj

    def run_to_csv(self, path: str | None = None) -> str:
        traj = self.run()
        if path is None:
            path = self.output or f"{self.name}-seed{self.initial['seed']}.csv"
        write_csv(traj.records, path, traj.meta)
        return path


def reseeded(cfg: ScenarioConfig, seed: int) -> ScenarioConfig:
    """Copy of the config with the initial-data seed replaced."""
    return dataclasses.replace(cfg, initial={**cfg.initial, "seed": seed})


# ---------------------------------------------------------------------------
# scenario library

def _two_agent(name, kernel, x0, v0, dt_max, horizon, observers):
    return ScenarioConfig(
        name=name,
        domain=euclidean(1),
        kernel=kernel,
        n=2,
        mode="discrete",
        initial={"kind": "two_agent_symmetric", "params": {"x0": x0, "v0": v0}},
        stepper=StepperConfig(dt_max=dt_max),
        horizon=horizon,
        observers=observers,
    )


def _lib_two_agent_fat_tail_escape():
    # beta = 2 tail: the pair separates forever and the conserved
    # K = v - 1/(4x) stays positive, so velocities never align.
    return _two_agent(
        "two-agent-fat-tail-escape",
        KernelSpec(KernelKind.SINGULAR_POWER, lam=1.0, beta=2.0, r0=1.0),
        x0=1.0,
        v0=1.0,
        dt_max=0.1,
        horizon=1000.0,
        observers=ObserverSchedule("geometric", t_first=0.5, factor=1.2),
    )


def _lib_two_agent_smooth_collision():
    # Constant plateau of height 2 around the origin: the mirrored pair
    # obeys x' = v, v' = -2v exactly and crosses the origin harmlessly.
    return _two_agent(
        "two-agent-smooth-collision",
        KernelSpec(KernelKind.CONSTANT_NEAR_ZERO, lam=2.0, beta=1.0, r0=2.0),
        x0=0.5,
        v0=-2.0,
        dt_max=0.004,
        horizon=10.0,
        observers=ObserverSchedule("linear", spacing=0.1),
    )


def _lib_two_agent_weak_singular_collision():
    # Integrable singularity, strongly inbound data: finite-time collision.
    return _two_agent(
        "two-agent-weak-singular-collision",
        KernelSpec(KernelKind.SINGULAR_POWER, lam=1.0, beta=0.5, r0=1.0),
        x0=0.5,
        v0=-3.0,
        dt_max=0.01,
        horizon=10.0,
        observers=ObserverSchedule("linear", spacing=0.05),
    )


def _lib_two_agent_strong_singular_approach():
    # beta = 1.5: the pair decelerates and stalls at a positive separation.
    return _two_agent(
        "two-agent-strong-singular-approach",
        KernelSpec(KernelKind.SINGULAR_POWER, lam=1.0, beta=1.5, r0=1.0),
        x0=0.5,
        v0=-0.5,
        dt_max=0.01,
        horizon=100.0,
        observers=ObserverSchedule("linear", spacing=1.0),
    )


def _lib_parallel_lines_r2():
    return ScenarioConfig(
        name="parallel-lines-R2",
        domain=euclidean(2),
        kernel=KernelSpec(KernelKind.LOCAL_MOLLIFIED, lam=1.0, r0=1.0),
        n=2,
        mode="discrete",
        initial={"kind": "parallel_lines", "params": {"sep": 2.0, "v1": 1.0, "v2": 0.5}},
        stepper=StepperConfig(dt_max=0.05),
        horizon=50.0,
        observers=ObserverSchedule("linear", spacing=1.0),
    )


def _lib_euclid_classical_smooth():
    return ScenarioConfig(
        name="euclid-classical-smooth",
        domain=euclidean(2),
        kernel=KernelSpec(KernelKind.CLASSICAL_CS, lam=1.0, beta=0.5, r0=1.0),
        n=32,
        mode="discrete",
        initial={"kind": "uniform_gaussian", "params": {"box": 2.0, "sigma": 1.0}},
        stepper=StepperConfig(dt_max=0.1),
        horizon=25.0,
        observers=ObserverSchedule("linear", spacing=0.25),
        lyapunov=LyapunovConfig.defaults(LyapunovVariant.EUCLIDEAN_V4),
    )


def _lib_euclid_annular_fat_tail():
    return ScenarioConfig(
        name="euclid-annular-fat-tail",
        domain=euclidean(2),
        kernel=KernelSpec(KernelKind.ANNULAR, lam=2.0, beta=0.5, r0=0.5),
        n=32,
        mode="discrete",
        initial={"kind": "uniform_gaussian", "params": {"box": 2.0, "sigma": 1.0}},
        stepper=StepperConfig(dt_max=0.25, safety=1.0),
        horizon=10000.0,
        observers=ObserverSchedule("geometric", t_first=1.0, factor=1.1),
        lyapunov=LyapunovConfig.defaults(LyapunovVariant.EUCLIDEAN_V2),
    )


def _lib_torus_local_ensemble():
    # Slow clock: with tiny velocity dispersion the cluster-coarsening
    # cascade spans the whole observation window instead of finishing in
    # the first hundred time units.
    kernel = KernelSpec(KernelKind.LOCAL_MOLLIFIED, lam=1.0, r0=0.1)
    return ScenarioConfig(
        name="torus-local-ensemble",
        domain=circle(),
        kernel=kernel,
        n=64,
        mode="discrete",
        initial={"kind": "uniform_gaussian", "params": {"sigma": 0.001}},
        stepper=StepperConfig(dt_max=0.5, safety=0.8),
        horizon=10000.0,
        observers=ObserverSchedule("geometric", t_first=1.0, factor=1.1),
        lyapunov=LyapunovConfig.defaults(LyapunovVariant.CIRCLE_I, kernel),
    )


def _torus_singular(beta, variant):
    # every RK4 step here is stiffness-limited; the exact velocity flow of
    # Strang splitting leaves dt to the approach limit and dt_max
    kernel = KernelSpec(KernelKind.SINGULAR_POWER, lam=1.0, beta=beta, r0=1.0)
    return ScenarioConfig(
        name=f"torus-singular-beta{beta:g}",
        domain=circle(),
        kernel=kernel,
        n=32,
        mode="discrete",
        initial={"kind": "lattice_circle", "params": {"jitter": 0.05, "sigma": 0.5}},
        stepper=StepperConfig(dt_max=0.1, method=_SPLIT),
        horizon=300.0,
        observers=ObserverSchedule("geometric", t_first=0.5, factor=1.15),
        lyapunov=LyapunovConfig.defaults(variant, kernel),
    )


def _lib_lagrangian_torus_weighted():
    kernel = KernelSpec(KernelKind.LOCAL_MOLLIFIED, lam=1.0, r0=0.5)
    return ScenarioConfig(
        name="lagrangian-torus-weighted",
        domain=circle(),
        kernel=kernel,
        n=48,
        mode="lagrangian",
        initial={"kind": "uniform_gaussian", "params": {"sigma": 1.0}, "weight_mode": "random"},
        stepper=StepperConfig(dt_max=0.2),
        horizon=100.0,
        observers=ObserverSchedule("geometric", t_first=0.5, factor=1.2),
        lyapunov=LyapunovConfig.defaults(LyapunovVariant.CIRCLE_I, kernel),
    )


def _lib_vacuum_gap_torus():
    return ScenarioConfig(
        name="vacuum-gap-torus",
        domain=circle(),
        kernel=KernelSpec(KernelKind.LOCAL_MOLLIFIED, lam=1.0, r0=0.3),
        n=48,
        mode="discrete",
        initial={"kind": "vacuum_arc", "params": {"arc": 1.5 * math.pi, "sigma": 1.0}},
        stepper=StepperConfig(dt_max=0.2),
        horizon=200.0,
        observers=ObserverSchedule("geometric", t_first=0.5, factor=1.2),
    )


_LIBRARY = {
    "two-agent-fat-tail-escape": _lib_two_agent_fat_tail_escape,
    "two-agent-smooth-collision": _lib_two_agent_smooth_collision,
    "two-agent-weak-singular-collision": _lib_two_agent_weak_singular_collision,
    "two-agent-strong-singular-approach": _lib_two_agent_strong_singular_approach,
    "parallel-lines-R2": _lib_parallel_lines_r2,
    "euclid-classical-smooth": _lib_euclid_classical_smooth,
    "euclid-annular-fat-tail": _lib_euclid_annular_fat_tail,
    "torus-local-ensemble": _lib_torus_local_ensemble,
    "torus-singular-beta2": lambda: _torus_singular(2.0, LyapunovVariant.CIRCLE_II),
    "torus-singular-beta2.5": lambda: _torus_singular(2.5, LyapunovVariant.CIRCLE_III),
    "torus-singular-beta3": lambda: _torus_singular(3.0, LyapunovVariant.CIRCLE_III),
    "lagrangian-torus-weighted": _lib_lagrangian_torus_weighted,
    "vacuum-gap-torus": _lib_vacuum_gap_torus,
}


def scenario_names() -> list:
    return sorted(_LIBRARY)


def scenario(name: str, seed: int | None = None,
             horizon: float | None = None) -> ScenarioConfig:
    """Look up a library scenario, optionally replacing seed or horizon."""
    try:
        cfg = _LIBRARY[name]()
    except KeyError:
        known = ", ".join(scenario_names())
        raise KeyError(f"unknown scenario {name!r}; known: {known}") from None
    if seed is not None:
        cfg = reseeded(cfg, seed)
    if horizon is not None:
        cfg = dataclasses.replace(cfg, horizon=float(horizon))
    return cfg
