"""The benchmark's three workloads, built from a seed.

A workload makes the same operations every round: one operation is one
scenario run, checked on its own.  ``setup`` builds the configs and initial
states (timed as ``setup_s``), ``run_round`` does the measured work through
flocklab's public entry points, and ``check`` tests one operation's output.
Every size below is a full-scale value and a tiny value for the self-test.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from flocklab import diagnostics
from flocklab.diagnostics import LyapunovConfig, LyapunovVariant
from flocklab.dynamics import ObserverSchedule, StepperConfig, Trajectory
from flocklab.geometry import circle, euclidean
from flocklab.harness import acceptance, scenario
from flocklab.harness.acceptance import AcceptanceLab
from flocklab.harness.scenarios import ScenarioConfig
from flocklab.kernels import KernelKind, KernelSpec

import checks


@dataclass
class Outcome:
    """One operation's output: the config it ran, its trajectory and extras."""

    label: str
    cfg: ScenarioConfig
    traj: Trajectory
    search: LyapunovConfig | None = None

    def digest(self) -> str:
        """Fingerprint of everything the checks read: the first and last
        states, every record, the searched constants and the run's error.
        Equal digests mean the checks would see the same numbers."""
        h = hashlib.sha256()
        for state in (self.traj.states[0], self.traj.states[-1]):
            for arr in (state.x, state.v, state.m):
                h.update(np.ascontiguousarray(arr).tobytes())
            h.update(repr((state.t, state.diss2)).encode())
        for rec in self.traj.records:
            h.update(repr(vars(rec)).encode())
        h.update(repr((self.traj.error, self.search)).encode())
        return h.hexdigest()


class LocalEnsemble:
    """8 seeds of ``torus-local-ensemble`` through ``AcceptanceLab.ensemble``."""

    name = "local-ensemble"
    scenario_name = "torus-local-ensemble"
    energy_rtol = 1e-6

    def __init__(self, seed: int, tiny: bool = False):
        base = acceptance.ENSEMBLE_SEEDS
        self.seeds = tuple(seed * len(base) + s for s in base)
        if tiny:
            self.seeds = self.seeds[:2]
        self.ops = len(self.seeds)
        self.horizon = 5.0 if tiny else 100.0

    def setup(self):
        cfgs = [scenario(self.scenario_name, seed=s, horizon=self.horizon) for s in self.seeds]
        return [cfg.build() for cfg in cfgs]

    def run_round(self):
        # The ensemble's member seeds are a module constant of the acceptance
        # harness; the benchmark substitutes its own for the round.
        saved = acceptance.ENSEMBLE_SEEDS
        acceptance.ENSEMBLE_SEEDS = self.seeds
        try:
            runs = AcceptanceLab().ensemble(self.scenario_name, horizon=self.horizon)
        finally:
            acceptance.ENSEMBLE_SEEDS = saved
        got = tuple(cfg.initial["seed"] for cfg, _ in runs)
        if got != self.seeds:
            raise RuntimeError(f"ensemble ran seeds {got}, expected {self.seeds}")
        return [Outcome(f"seed{s}", cfg, traj) for s, (cfg, traj) in zip(self.seeds, runs)]

    def check(self, out: Outcome):
        return checks.check_flow(out.traj, self.energy_rtol)


class SingularLyapunov:
    """``torus-singular-beta2.5`` recorded every step, then the constant search."""

    name = "singular-lyapunov"
    scenario_name = "torus-singular-beta2.5"
    energy_rtol = 1e-2

    def __init__(self, seed: int, tiny: bool = False):
        count = 2 if tiny else 64
        self.seeds = tuple(seed * count + k for k in range(count))
        self.ops = count
        self.horizon = 0.3

    def setup(self):
        cfgs = [scenario(self.scenario_name, seed=s, horizon=self.horizon) for s in self.seeds]
        return [cfg.build() for cfg in cfgs]

    def run_round(self):
        lab = AcceptanceLab()
        out = []
        for s in self.seeds:
            cfg, traj = lab.run(self.scenario_name, seed=s, horizon=self.horizon,
                                record_steps=True)
            n_eff = 1.0 / float(np.max(traj.states[0].m))
            best = diagnostics.lyapunov_constant_search(
                traj.records, cfg.lyapunov.variant, n_eff)
            out.append(Outcome(f"seed{s}", cfg, traj, best))
        return out

    def check(self, out: Outcome):
        return (checks.check_flow(out.traj, self.energy_rtol)
                + checks.check_collision_bound(out.traj, out.cfg.kernel)
                + checks.check_descent(out.traj, out.search))


def _large_circle(seed, n):
    kernel = KernelSpec(KernelKind.LOCAL_MOLLIFIED, lam=1.0, r0=0.1)
    return ScenarioConfig(
        name=f"large-n-circle-{n}",
        domain=circle(),
        kernel=kernel,
        n=n,
        mode="discrete",
        initial={"kind": "uniform_gaussian", "seed": seed, "params": {"sigma": 1.0}},
        stepper=StepperConfig(dt_max=0.01),
        horizon=0.02,
        observers=ObserverSchedule("linear", spacing=0.02),
        lyapunov=LyapunovConfig.defaults(LyapunovVariant.CIRCLE_I, kernel),
    )


def _large_plane(seed, n):
    return ScenarioConfig(
        name=f"large-n-plane-{n}",
        domain=euclidean(2),
        kernel=KernelSpec(KernelKind.LOCAL_MOLLIFIED, lam=1.0, r0=0.1),
        n=n,
        mode="discrete",
        initial={"kind": "uniform_gaussian", "seed": seed,
                 "params": {"box": 1.0, "sigma": 1.0}},
        stepper=StepperConfig(dt_max=0.01),
        horizon=0.02,
        observers=ObserverSchedule("linear", spacing=0.02),
        lyapunov=LyapunovConfig.defaults(LyapunovVariant.EUCLIDEAN_V4),
    )


class LargeN:
    """Local-kernel flocks of a few thousand agents on the circle and in the plane."""

    name = "large-n"
    energy_rtol = 1e-6

    def __init__(self, seed: int, tiny: bool = False):
        n_circle, n_plane = (128, 96) if tiny else (2048, 1024)
        self.cfgs = (_large_circle(seed, n_circle), _large_plane(seed, n_plane))
        self.ops = len(self.cfgs)

    def setup(self):
        return [cfg.build() for cfg in self.cfgs]

    def run_round(self):
        return [Outcome(cfg.name, cfg, cfg.run()) for cfg in self.cfgs]

    def check(self, out: Outcome):
        return checks.check_flow(out.traj, self.energy_rtol)


WORKLOADS = {w.name: w for w in (LocalEnsemble, SingularLyapunov, LargeN)}
