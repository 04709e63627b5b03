"""Property-based acceptance experiments, one suite per claimed behavior.

Each check runs library scenarios at desk scale and verifies a measurable
consequence: exact identities of the flow, closed-form two-agent orbits,
misalignment witnesses, decay-rate windows, collision-potential growth
bounds, Lyapunov descent, good-set screening, and mode consistency.
Heavy trajectories are cached on the lab so overlapping suites share
them.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from ..diagnostics import (
    compute_record,
    energy_residual,
    good_set,
    lyapunov_constant_search,
    lyapunov_series,
)
from ..dynamics import StepperConfig, flock_diameter, velocity_diameter
from ..errors import CollisionError, StiffnessError
from .ratefit import (
    RateModel,
    min_distance_rate_check,
    rate_fit,
    tail_integral_check,
    windowed_rate_check,
)
from .scenarios import scenario

ENSEMBLE_SEEDS = tuple(range(8))


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


@dataclass
class SuiteReport:
    suite: str
    results: list

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def lines(self) -> list:
        return [r.line() for r in self.results]


class AcceptanceLab:
    """Runs and caches the scenario trajectories behind the suites."""

    def __init__(self):
        self._runs = {}

    def run(self, name, seed=None, horizon=None, record_steps=False, dt_max=None):
        key = (name, seed, horizon, record_steps, dt_max)
        if key not in self._runs:
            cfg = scenario(name, seed=seed, horizon=horizon)
            if dt_max is not None:
                cfg = dataclasses.replace(
                    cfg, stepper=dataclasses.replace(cfg.stepper, dt_max=dt_max)
                )
            self._runs[key] = (cfg, cfg.run(record_steps=record_steps))
        return self._runs[key]

    def ensemble(self, name, horizon=None):
        return [self.run(name, seed=s, horizon=horizon) for s in ENSEMBLE_SEEDS]

    # ------------------------------------------------------------------
    # 1. exact identities of the flow

    def suite_identities(self) -> list:
        cfg, traj = self.run("euclid-classical-smooth")
        out = []

        mom = traj.column("momentum")
        drift = np.max(np.linalg.norm(mom - mom[0], axis=1))
        scale = max(np.linalg.norm(mom[0]), 1e-30)
        ok = drift / scale <= 1e-9
        out.append(CriterionResult(
            "identities/momentum-conservation", ok,
            f"relative drift {drift / scale:.3e} (tol 1e-09)"))

        for p in (1, 2, 4):
            vp = traj.column(f"V{p}")
            tol = 1e-7 * (1.0 + vp[0])
            worst = float(np.max(np.diff(vp)))
            ok = worst <= tol
            out.append(CriterionResult(
                f"identities/V{p}-monotone", ok,
                f"max increment {worst:.3e} (tol {tol:.3e})"))

        res_coarse = energy_residual(traj.records)
        tol = 5e-5 * (1.0 + traj.records[0].V2)
        ok_res = res_coarse <= tol
        out.append(CriterionResult(
            "identities/energy-residual", ok_res,
            f"residual {res_coarse:.3e} (tol {tol:.3e})"))

        _, fine = self.run("euclid-classical-smooth", dt_max=cfg.stepper.dt_max / 2)
        res_fine = energy_residual(fine.records)
        shrink = res_coarse / res_fine if res_fine > 0 else math.inf
        ok = shrink >= 8.0
        out.append(CriterionResult(
            "identities/energy-residual-shrink", ok,
            f"dt halving shrinks residual {shrink:.1f}x "
            f"({res_coarse:.3e} -> {res_fine:.3e}, need >= 8x)"))

        worst = 0.0
        boost = np.full(cfg.domain.dim, 0.37)
        for s in (traj.states[0], traj.states[-1]):
            base = compute_record(s, cfg.kernel, cfg.domain, cfg.lyapunov)
            shifted = s.copy()
            shifted.v = shifted.v + boost
            moved = compute_record(shifted, cfg.kernel, cfg.domain, cfg.lyapunov)
            for col in ("V1", "V2", "V4", "I1", "I2", "I4", "G", "G3", "L",
                        "C", "D", "dmin", "vdiam"):
                u, w = getattr(base, col), getattr(moved, col)
                if math.isnan(u) and math.isnan(w):
                    continue
                worst = max(worst, abs(u - w) / (1.0 + abs(u)))
        ok = worst <= 1e-10
        out.append(CriterionResult(
            "identities/galilean-invariance", ok,
            f"worst pairwise-diagnostic deviation {worst:.3e} (tol 1e-10)"))
        return out

    # ------------------------------------------------------------------
    # 2. two-agent closed forms

    def suite_two_agent(self) -> list:
        out = []

        cfg, traj = self.run("two-agent-smooth-collision")
        x0 = cfg.initial["params"]["x0"]
        v0 = cfg.initial["params"]["v0"]
        t = np.array([s.t for s in traj.states])
        x1 = np.array([s.x[0, 0] for s in traj.states])
        closed = x0 + 0.5 * v0 * (1.0 - np.exp(-2.0 * t))
        sup = float(np.max(np.abs(x1 - closed)))
        out.append(CriterionResult(
            "two-agent/smooth-closed-form", sup <= 1e-6,
            f"sup |x - x_closed| = {sup:.3e} on [0, {t[-1]:g}] (tol 1e-06)"))

        cfg, traj = self.run("two-agent-strong-singular-approach")
        beta = cfg.kernel.beta
        xs = np.array([s.x[0, 0] for s in traj.states])
        vs = np.array([s.v[0, 0] for s in traj.states])
        k_series = vs + xs ** (1.0 - beta) / ((1.0 - beta) * 2.0 ** beta)
        drift = float(np.max(np.abs(k_series - k_series[0])))
        out.append(CriterionResult(
            "two-agent/strong-singular-K-drift", drift <= 1e-8,
            f"max |K(t) - K(0)| = {drift:.3e} over [0, {traj.t()[-1]:g}] (tol 1e-08)"))

        _, traj = self.run("two-agent-weak-singular-collision")
        err = traj.error
        collided = err is not None and err.distance <= 1e-6
        out.append(CriterionResult(
            "two-agent/weak-singular-collides", collided,
            "no collision detected" if err is None else
            f"{type(err).__name__} at t = {err.t:.4f}, separation {err.distance:.2e}"))

        _, long_run = self.run("two-agent-strong-singular-approach",
                               horizon=1000.0, dt_max=0.05)
        dmin = np.nanmin(long_run.column("dmin"))
        ok = long_run.error is None and dmin >= 0.3
        out.append(CriterionResult(
            "two-agent/strong-singular-no-collision", ok,
            f"error={long_run.error!r}, min separation {dmin:.4f} over [0, 1000]"))
        return out

    # ------------------------------------------------------------------
    # 3. misalignment witnesses

    def suite_misalignment(self) -> list:
        out = []

        cfg, traj = self.run("two-agent-fat-tail-escape")
        x0 = cfg.initial["params"]["x0"]
        v0 = cfg.initial["params"]["v0"]
        k0 = v0 - 1.0 / (4.0 * x0)
        floor = 2.0 * k0 * k0
        v2_end = traj.records[-1].V2
        ok = traj.error is None and v2_end >= 0.9 * floor
        out.append(CriterionResult(
            "misalignment/fat-tail-escape-floor", ok,
            f"V2({traj.t()[-1]:g}) = {v2_end:.6f} >= 0.9 * {floor:.6f}"))

        _, traj = self.run("parallel-lines-R2")
        v2 = traj.column("V2")
        dev = float(np.max(np.abs(v2 - v2[0])))
        out.append(CriterionResult(
            "misalignment/parallel-lines-constant", dev <= 1e-12,
            f"max |V2(t) - V2(0)| = {dev:.3e} (tol 1e-12)"))
        return out

    # ------------------------------------------------------------------
    # 4. torus decay rates

    def suite_torus_decay(self) -> list:
        runs = self.ensemble("torus-local-ensemble")
        t = runs[0][1].t()
        for _, traj in runs[1:]:
            if not np.array_equal(traj.t(), t):
                raise RuntimeError("ensemble observer times diverged")
        mean_v2 = np.mean([traj.column("V2") for _, traj in runs], axis=0)
        out = []

        fit = rate_fit(t, mean_v2, RateModel.POWER_LAW, window=(1e2, 1e4))
        ok = 0.7 <= fit.exponent <= 1.3
        out.append(CriterionResult(
            "torus-decay/powerlaw-exponent", ok,
            f"mean-V2 exponent {fit.exponent:.3f} over [1e2, 1e4] "
            f"(need [0.7, 1.3]; residual {fit.residual:.3f}, 8 seeds)"))

        prev = rate_fit(t, mean_v2, RateModel.LOG_OVER_T, window=(1e2, 1e3))
        last = rate_fit(t, mean_v2, RateModel.LOG_OVER_T, window=(1e3, 1e4))
        ratio = last.amplitude / prev.amplitude
        ok = 0.5 <= ratio <= 2.0
        out.append(CriterionResult(
            "torus-decay/logovert-amplitude-stable", ok,
            f"amplitude ratio last/previous decade {ratio:.3f} "
            f"({last.amplitude:.3e}/{prev.amplitude:.3e}, need [0.5, 2])"))
        return out

    # ------------------------------------------------------------------
    # 5. collision potential on the torus

    def suite_singular_collision(self) -> list:
        cfg, traj = self.run("torus-singular-beta2.5")
        out = []
        t = traj.t()
        sqrt_c = np.sqrt(traj.column("C"))
        q = traj.column("sqrtI2_int")

        grow = sqrt_c - sqrt_c[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(q > 0, grow / np.where(q > 0, q, 1.0), -math.inf)
        half = len(t) // 2
        k_fit = max(float(np.max(ratio[:half])), 0.0)
        slack = 1e-9 * (1.0 + sqrt_c[0])
        bound = sqrt_c[0] + k_fit * q + slack
        ok = bool(np.all(sqrt_c <= bound))
        worst = float(np.max(sqrt_c - bound))
        out.append(CriterionResult(
            "singular-collision/sqrtC-bound", ok,
            f"sqrt(C) <= sqrt(C0) + K*int(sqrt(I2)) with K = {k_fit:.4f} "
            f"fitted on the first half; worst margin {worst:.3e}"))

        past = t >= 1.0
        mid = math.sqrt(t[past][0] * t[-1])
        early = float(np.max(traj.column("C")[past & (t <= mid)] / t[past & (t <= mid)]))
        late = float(np.max(traj.column("C")[t > mid] / t[t > mid]))
        ok = late <= early
        out.append(CriterionResult(
            "singular-collision/C-over-t-bounded", ok,
            f"max C/t: early {early:.4f}, late {late:.4f} (must not grow)"))

        rep = min_distance_rate_check(traj, cfg.kernel.beta)
        ok = rep.fitted_exponent >= rep.bound_exponent - 0.3
        out.append(CriterionResult(
            "singular-collision/min-distance-exponent", ok,
            f"fitted d_min exponent {rep.fitted_exponent:.3f} >= "
            f"{rep.bound_exponent:.1f} - 0.3; floor {rep.floor:.4f}"))
        return out

    # ------------------------------------------------------------------
    # 6. Euclidean fat-tail alignment

    def suite_euclid_fat_tail(self) -> list:
        cfg, traj = self.run("euclid-annular-fat-tail")
        out = []
        t = traj.t()
        state0 = traj.states[0]
        c_speed = velocity_diameter(state0)
        d0 = flock_diameter(state0, cfg.domain)

        for p in (2, 4):
            vp = traj.column(f"V{p}")
            frac = vp[-1] / vp[0]
            out.append(CriterionResult(
                f"euclid-fat-tail/V{p}-decay", frac <= 1e-3,
                f"V{p}(horizon)/V{p}(0) = {frac:.3e} (tol 1e-03)"))

        for p in (2, 4):
            rep = tail_integral_check(traj, cfg.kernel, c_speed, d0, p=p)
            ok = rep.last_decade_fraction <= 0.10
            out.append(CriterionResult(
                f"euclid-fat-tail/V{p}-flux-summable", ok,
                f"last-decade fraction {rep.last_decade_fraction:.3f} of total "
                f"{rep.total:.4f} (tol 0.10)"))

        rep = windowed_rate_check(t, traj.column("V2"), 1.0 - cfg.kernel.beta)
        out.append(CriterionResult(
            "euclid-fat-tail/windowed-rate", rep.satisfied,
            f"windowed minima of V2 * t^{1.0 - cfg.kernel.beta:g} within "
            f"{rep.slack:g}x of calibrated constant {rep.constant:.4f} "
            f"({len(rep.window_minima)} windows)"))
        return out

    # ------------------------------------------------------------------
    # 7. Lyapunov descent

    _DESCENT_RUNS = (
        ("euclid-annular-fat-tail", 200.0),
        ("euclid-classical-smooth", None),
        ("torus-local-ensemble", 200.0),
        ("torus-singular-beta2", 100.0),
        ("torus-singular-beta2.5", 100.0),
    )

    def suite_lyapunov(self) -> list:
        out = []
        for name, horizon in self._DESCENT_RUNS:
            cfg, traj = self.run(name, horizon=horizon, record_steps=True)
            variant = cfg.lyapunov.variant
            n_eff = 1.0 / float(np.max(traj.states[0].m))
            best = lyapunov_constant_search(traj.records, variant, n_eff)
            series = lyapunov_series(traj.records, best, n_eff)
            tol = 1e-6 * (1.0 + abs(float(series[0])))
            jumps = np.diff(series)
            bad = int(np.count_nonzero(jumps > tol))
            frac = 1.0 - bad / len(jumps)
            ok = frac >= 0.99
            out.append(CriterionResult(
                f"lyapunov/{name}-{variant.value}", ok,
                f"non-increasing on {100 * frac:.2f}% of {len(jumps)} steps "
                f"(a={best.a:.3g}, b={best.b:.3g}, c={best.c:.3g}, tol {tol:.2e})"))
        return out

    # ------------------------------------------------------------------
    # 8. good-set screening

    def suite_good_set(self) -> list:
        runs = self.ensemble("torus-local-ensemble")
        cfg = runs[0][0]
        T = 100.0
        deltas = (1e-1, 1e-2, 1e-3)
        out = []

        cheb_worst = -math.inf
        eps_worst = 0.0
        spreads = {d: [] for d in deltas}
        for _, traj in runs:
            t = traj.t()
            i2 = traj.column("I2")
            sel = t >= T
            flux = float(np.trapezoid(i2[sel], t[sel]) / 2.0)
            for d in deltas:
                rep = good_set(traj, cfg.kernel, cfg.domain, T, d)
                cheb_worst = max(cheb_worst, rep.complement_mass - rep.epsilon / d)
                eps_worst = max(eps_worst, abs(rep.epsilon - flux) / (1e-30 + flux))
                spreads[d].append(rep.member_velocity_spread)

        ok = cheb_worst <= 1e-12
        out.append(CriterionResult(
            "good-set/chebyshev", ok,
            f"worst complement_mass - epsilon/delta = {cheb_worst:.3e} "
            f"(exact, slack 1e-12)"))

        ok = eps_worst <= 1e-6
        out.append(CriterionResult(
            "good-set/epsilon-identity", ok,
            f"worst relative gap between sum(m*F) and int(I2)/2 = {eps_worst:.3e} "
            f"(tol 1e-06)"))

        med = {d: float(np.median(spreads[d])) for d in deltas}
        ok = med[1e-1] >= med[1e-2] - 1e-15 and med[1e-2] >= med[1e-3] - 1e-15
        out.append(CriterionResult(
            "good-set/spread-monotone", ok,
            "median member spread " +
            " >= ".join(f"{med[d]:.3e} (delta={d:g})" for d in deltas)))
        return out

    # ------------------------------------------------------------------
    # 9. weighted/discrete consistency

    def suite_consistency(self) -> list:
        cfg = scenario("torus-local-ensemble", horizon=50.0)
        traj_d = cfg.run()
        traj_l = dataclasses.replace(cfg, mode="lagrangian").run()

        rows_equal = _same_records(traj_d.records, traj_l.records)
        states_equal = (
            len(traj_d.states) == len(traj_l.states)
            and all(
                a.t == b.t
                and np.array_equal(a.x, b.x)
                and np.array_equal(a.v, b.v)
                and np.array_equal(a.m, b.m)
                and a.diss2 == b.diss2
                and a.diss2_root == b.diss2_root
                for a, b in zip(traj_d.states, traj_l.states)
            )
        )
        ok = rows_equal and states_equal
        return [CriterionResult(
            "consistency/lagrangian-uniform-bitwise", ok,
            f"records identical: {rows_equal}; states identical: {states_equal} "
            f"({len(traj_d.records)} samples)")]


def _same_records(first: list, second: list) -> bool:
    """Whether two runs' records are equal bit for bit: their rows' float64
    bytes, so a nan column equals any nan of the same bits, whatever float
    object holds it."""
    return len(first) == len(second) and all(
        np.array(a.to_row()).tobytes() == np.array(b.to_row()).tobytes()
        for a, b in zip(first, second))


SUITES = {
    "identities": AcceptanceLab.suite_identities,
    "two-agent": AcceptanceLab.suite_two_agent,
    "misalignment": AcceptanceLab.suite_misalignment,
    "torus-decay": AcceptanceLab.suite_torus_decay,
    "singular-collision": AcceptanceLab.suite_singular_collision,
    "euclid-fat-tail": AcceptanceLab.suite_euclid_fat_tail,
    "lyapunov": AcceptanceLab.suite_lyapunov,
    "good-set": AcceptanceLab.suite_good_set,
    "consistency": AcceptanceLab.suite_consistency,
}


def suite_names() -> list:
    return [*SUITES, "all"]


def run_acceptance(suite: str, lab: AcceptanceLab | None = None) -> SuiteReport:
    """Execute one suite (or "all") and collect pass/fail results."""
    if lab is None:
        lab = AcceptanceLab()
    if suite == "all":
        results = []
        for name in SUITES:
            results.extend(SUITES[name](lab))
        return SuiteReport("all", results)
    if suite not in SUITES:
        raise KeyError(
            f"unknown suite {suite!r}; known: {', '.join(suite_names())}"
        )
    return SuiteReport(suite, SUITES[suite](lab))
