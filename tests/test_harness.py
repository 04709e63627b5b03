"""Rate fitting, asymptotic checks, scenario library, acceptance plumbing."""

import dataclasses
import json
import math

import numpy as np
import pytest

from flocklab.errors import InsufficientDataError, RateFitDataError
from flocklab.harness import (
    AcceptanceLab,
    RateModel,
    ScenarioConfig,
    default_window,
    min_distance_rate_check,
    rate_fit,
    reseeded,
    run_acceptance,
    scenario,
    scenario_names,
    suite_names,
    tail_integral_check,
    windowed_rate_check,
)
from flocklab.harness.acceptance import _same_records
from flocklab.kernels import KernelKind, KernelSpec


class SeriesStub:
    """Duck-typed trajectory carrying only sampled columns."""

    def __init__(self, t, **cols):
        self._t = np.asarray(t, dtype=float)
        self._cols = {k: np.asarray(v, dtype=float) for k, v in cols.items()}

    def t(self):
        return self._t

    def column(self, name):
        return self._cols[name]


# ---------------------------------------------------------------------------
# rate fits

def test_rate_fit_exact_power_law():
    t = np.geomspace(1.0, 1e4, 200)
    fit = rate_fit(t, 7.0 * t ** -0.5)
    assert fit.model is RateModel.POWER_LAW
    assert fit.window == (100.0, 10000.0)
    assert fit.exponent == pytest.approx(0.5, abs=1e-6)
    assert fit.amplitude == pytest.approx(7.0, rel=1e-6)
    assert fit.residual < 1e-12


def test_rate_fit_log_over_t():
    t = np.geomspace(1.0, 1e4, 200)
    v = 3.0 * np.log(t) / t
    fit = rate_fit(t, v, RateModel.LOG_OVER_T, window=(2.0, 1e4))
    assert math.isnan(fit.exponent)
    assert fit.amplitude == pytest.approx(3.0, rel=1e-6)
    assert fit.residual < 1e-12
    # a plain power law misreads the same data as an exponent just below 1
    alias = rate_fit(t, v, RateModel.POWER_LAW, window=(10.0, 1e4))
    assert 0.8 < alias.exponent < 1.0


def test_rate_fit_constant_series():
    t = np.geomspace(1.0, 1e4, 100)
    fit = rate_fit(t, np.full_like(t, 5.0))
    assert fit.exponent == pytest.approx(0.0, abs=1e-9)
    assert fit.amplitude == pytest.approx(5.0, rel=1e-9)


def test_rate_fit_validation():
    t = np.geomspace(1.0, 1e3, 60)
    v = t ** -1.0
    with pytest.raises(RateFitDataError):
        rate_fit(t, v, window=(0.5, 1e3))
    with pytest.raises(RateFitDataError):
        rate_fit(t, v, window=(10.0, 10.0))
    with pytest.raises(InsufficientDataError):
        rate_fit(t, v, window=(900.0, 1000.0))
    dead = v.copy()
    dead[-10:] = 0.0
    with pytest.raises(RateFitDataError):
        rate_fit(t, dead)
    with pytest.raises(ValueError):
        rate_fit(t, v[:-1])


def test_default_window():
    assert default_window(np.geomspace(1.0, 1e3, 50)) == (10.0, 1000.0)
    assert default_window(np.linspace(0.0, 50.0, 51)) == (1.0, 50.0)
    with pytest.raises(RateFitDataError):
        default_window(np.linspace(0.0, 1.0, 10))
    with pytest.raises(InsufficientDataError):
        default_window(np.array([]))


# ---------------------------------------------------------------------------
# windowed minima

def test_windowed_rate_check_exact_envelope():
    t = np.geomspace(1.0, 1e4, 200)
    rep = windowed_rate_check(t, 2.0 * t ** -1.0, 1.0)
    assert rep.satisfied
    assert rep.constant == pytest.approx(2.0, rel=1e-12)
    assert len(rep.window_minima) == 13
    assert rep.calibration_windows == 6


def test_windowed_rate_check_detects_violation():
    t = np.geomspace(1.0, 1e4, 200)
    rep = windowed_rate_check(t, 2.0 * t ** -0.5, 1.0)
    assert not rep.satisfied


def test_windowed_rate_check_validation():
    t = np.geomspace(1.0, 4.0, 40)
    with pytest.raises(InsufficientDataError):
        windowed_rate_check(t, t ** -1.0, 1.0)
    with pytest.raises(RateFitDataError):
        windowed_rate_check(t, t ** -1.0, 1.0, t_start=0.5)


# ---------------------------------------------------------------------------
# flux summability and minimal distance

def test_tail_integral_constant_flux():
    kern = KernelSpec(KernelKind.CLASSICAL_CS, lam=1.0, beta=0.0)
    t = np.geomspace(1.0, 1e3, 400)
    rep = tail_integral_check(SeriesStub(t, V2=np.ones_like(t)), kern, 0.0, 0.0)
    assert rep.total == pytest.approx(999.0)
    assert [d[:2] for d in rep.decades] == [(1.0, 10.0), (10.0, 100.0), (100.0, 1000.0)]
    assert rep.last_decade_fraction == pytest.approx(900.0 / 999.0, rel=1e-9)


def test_tail_integral_summable_flux():
    kern = KernelSpec(KernelKind.CLASSICAL_CS, lam=1.0, beta=0.0)
    t = np.geomspace(1.0, 1e3, 400)
    rep = tail_integral_check(SeriesStub(t, V2=t ** -2.0), kern, 0.0, 0.0)
    assert rep.total == pytest.approx(1.0, abs=2e-3)
    assert rep.last_decade_fraction < 0.02


def test_tail_integral_validation():
    kern = KernelSpec(KernelKind.CLASSICAL_CS, lam=1.0, beta=0.0)
    with pytest.raises(ValueError):
        tail_integral_check(SeriesStub([1.0, 2.0], V2=[1.0, 1.0]), kern, -1.0, 0.0)
    with pytest.raises(InsufficientDataError):
        tail_integral_check(SeriesStub([1.0], V2=[1.0]), kern, 0.0, 0.0)


def test_min_distance_rate_check_algebraic():
    t = np.geomspace(1.0, 1e3, 400)
    rep = min_distance_rate_check(SeriesStub(t, dmin=t ** -0.5), 3.0)
    # signed slope convention: decay shows up negative
    assert rep.fitted_exponent == pytest.approx(-0.5, abs=1e-9)
    assert rep.bound_exponent == pytest.approx(-1.0)
    assert rep.sqrt_coefficient is None
    assert rep.floor == pytest.approx(1000.0 ** -0.5)
    assert rep.fitted_exponent >= rep.bound_exponent


def test_min_distance_rate_check_sqrt_law():
    t = np.geomspace(1.0, 1e3, 400)
    rep = min_distance_rate_check(SeriesStub(t, dmin=np.exp(-0.2 * np.sqrt(t))), 2.0)
    assert rep.sqrt_coefficient == pytest.approx(0.2, abs=1e-9)
    assert rep.bound_exponent is None
    assert rep.residual < 1e-12


# ---------------------------------------------------------------------------
# scenario library

def test_library_configs_roundtrip():
    for name in scenario_names():
        cfg = scenario(name)
        back = ScenarioConfig.from_dict(json.loads(cfg.canonical_json()))
        assert back == cfg
        assert back.config_hash() == cfg.config_hash()


# every library scenario's config_sha from before StepperConfig.tol: a
# config without a tolerance serialises as it did.  torus-local-ensemble
# steps under one, so its hash moved.
_CONFIG_SHAS = {
    "euclid-annular-fat-tail": "031d7fdbba0b",
    "euclid-classical-smooth": "be07b3c0533e",
    "lagrangian-torus-weighted": "f28936a89890",
    "parallel-lines-R2": "e7104660e98f",
    "torus-singular-beta2": "aa71188084a2",
    "torus-singular-beta2.5": "f8616252736f",
    "torus-singular-beta3": "02509be5f461",
    "two-agent-fat-tail-escape": "51072c9a9a75",
    "two-agent-smooth-collision": "880610947674",
    "two-agent-strong-singular-approach": "32c2df8f4f32",
    "two-agent-weak-singular-collision": "4f95128038ff",
    "vacuum-gap-torus": "7e26aa45f4ec",
}


def test_library_config_hashes_are_pinned():
    assert sorted(_CONFIG_SHAS) == [n for n in scenario_names() if n != "torus-local-ensemble"]
    for name, sha in _CONFIG_SHAS.items():
        cfg = scenario(name)
        assert cfg.stepper.tol is None and cfg.config_hash() == sha, name
    local = scenario("torus-local-ensemble")
    assert local.stepper.tol == 1e-6 and local.config_hash() != "4186f8ac0e97"


def test_scenario_overrides():
    base = scenario("parallel-lines-R2")
    hot = scenario("parallel-lines-R2", seed=5, horizon=10.0)
    assert hot.initial["seed"] == 5
    assert hot.horizon == 10.0
    assert hot.config_hash() != base.config_hash()
    assert reseeded(base, 5).initial["seed"] == 5
    with pytest.raises(KeyError):
        scenario("no-such-setup")


def test_scenario_validation():
    base = scenario("parallel-lines-R2").to_dict()
    bad = dict(base, mode="continuum")
    with pytest.raises(ValueError):
        ScenarioConfig.from_dict(bad)
    bad = dict(base, initial=dict(base["initial"], kind="mystery"))
    with pytest.raises(ValueError):
        ScenarioConfig.from_dict(bad)
    bad = dict(base, initial=dict(base["initial"], weight_mode="random"))
    with pytest.raises(ValueError):
        ScenarioConfig.from_dict(bad)  # discrete mode pins uniform weights
    bad = dict(base, horizon=math.inf)
    with pytest.raises(ValueError):
        ScenarioConfig.from_dict(bad)
    bad = dict(base, lyapunov={"variant": "circle_i"})
    with pytest.raises(ValueError):
        ScenarioConfig.from_dict(bad)
    bad = dict(base, lyapunov={"variant": "euclidean_v4"},
               kernel={"kind": "singular_power", "lambda": 1.0, "beta": 1.5})
    with pytest.raises(ValueError):
        ScenarioConfig.from_dict(bad)


@pytest.mark.parametrize("path, value", [
    (("n",), 2.5),
    (("n",), True),
    (("domain", "dim"), 2.7),
    (("domain", "dim"), True),
    (("domain", "periodic"), False),
    (("kernel", "bta"), 3.0),
    (("stepper", "dtmax"), 0.1),
    (("observers", "spacng"), 1.0),
    (("lyapunov", "aa"), 1.0),
    (("initial", "weightmode"), "uniform"),
    (("horizn",), 1.0),
], ids=["n-fraction", "n-bool", "dim-fraction", "dim-bool", "domain-key", "kernel-key",
        "stepper-key", "observers-key", "lyapunov-key", "initial-key", "config-key"])
def test_from_dict_rejects_values_it_would_drop_or_truncate(path, value):
    d = scenario("euclid-classical-smooth").to_dict()
    section = d
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    with pytest.raises(ValueError, match=path[-1]):
        ScenarioConfig.from_dict(d)


def test_from_dict_normalises_integral_floats_and_reads_legacy_keys():
    base = scenario("euclid-classical-smooth")
    d = base.to_dict()
    d["n"] = float(d["n"])
    d["domain"]["dim"] = 2.0
    d["initial"]["seed"] = 0.0
    d["kernel"]["Lambda"] = 1.0
    d["stepper"].update(method="rk4_adaptive", d_guard=None)
    back = ScenarioConfig.from_dict(d)
    assert back == base and back.config_hash() == base.config_hash()


def test_build_is_deterministic():
    cfg = scenario("torus-local-ensemble")
    a, b = cfg.build(), cfg.build()
    assert np.array_equal(a.x, b.x) and np.array_equal(a.v, b.v)
    assert not np.array_equal(a.x, reseeded(cfg, 1).build().x)


def test_run_meta_and_csv_bytes(tmp_path):
    cfg = scenario("two-agent-smooth-collision", horizon=2.0)
    traj = cfg.run()
    assert traj.meta["scenario"] == "two-agent-smooth-collision"
    assert traj.meta["mode"] == "discrete"
    assert traj.meta["config_sha"] == cfg.config_hash()
    assert json.loads(traj.meta["config"])["n"] == 2
    p1 = cfg.run_to_csv(path=str(tmp_path / "a.csv"))
    p2 = cfg.run_to_csv(path=str(tmp_path / "b.csv"))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert p1.endswith("a.csv") and p2.endswith("b.csv")


def test_escape_pair_conserves_first_integral():
    # beta = 2 on a separating pair: K = v - 1/(4x) in half-coordinates
    traj = scenario("two-agent-fat-tail-escape").run()
    assert traj.error is None
    ks = [s.v[0, 0] - 1.0 / (4.0 * s.x[0, 0]) for s in traj.states]
    assert ks[0] == pytest.approx(0.75)
    assert max(abs(k - ks[0]) for k in ks) < 1e-5


# ---------------------------------------------------------------------------
# acceptance plumbing

def test_suite_names_and_unknown_suite():
    names = suite_names()
    assert "all" in names and "identities" in names and len(names) == 10
    with pytest.raises(KeyError):
        run_acceptance("no-such-suite")


def test_acceptance_lab_caches_runs():
    lab = AcceptanceLab()
    first = lab.run("parallel-lines-R2", horizon=5.0)
    again = lab.run("parallel-lines-R2", horizon=5.0)
    assert first is again
    other = lab.run("parallel-lines-R2", horizon=6.0)
    assert other is not first


def test_the_consistency_suite_compares_records_bit_for_bit():
    # a nan column held by distinct float objects is equal bit for bit,
    # though list equality, which tests identity first, calls it unequal
    cfg = scenario("torus-local-ensemble", horizon=1.0)
    records = cfg.run().records
    assert math.isnan(records[0].G3)  # not formed on the circle
    copies = [dataclasses.replace(r, G3=float("nan")) for r in records]
    assert copies[0].to_row() != records[0].to_row()
    assert _same_records(records, copies)
    copies[-1] = dataclasses.replace(copies[-1], V2=math.nextafter(copies[-1].V2, math.inf))
    assert not _same_records(records, copies)
    assert not _same_records(records, records[:-1])
