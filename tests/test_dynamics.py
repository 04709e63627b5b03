"""Force law, adaptive integrator, schedules, and seeded initial data.

The integrator is validated against the one case with a usable closed form:
a mirrored pair under a kernel that is constant over the whole occupied
range, where the relative dynamics is linear and exactly solvable.
"""

import dataclasses
import importlib.util
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import dense_reference as dense
from flocklab import diagnostics, dynamics, geometry, kernels
from flocklab.dynamics import (
    FlockState,
    ObserverSchedule,
    StepperConfig,
    initial_state,
    integrate,
    min_separation,
    momentum,
    rhs,
    step,
    velocity_diameter,
    flock_diameter,
)
from flocklab.errors import CollisionError, StiffnessError
from flocklab.geometry import TWO_PI, circle, displacement, euclidean
from flocklab.kernels import KernelKind, KernelSpec
from flocklab.harness import scenario, scenario_names

# tools/compare_runs.py, whose SCALES give each compared quantity its scale
_SPEC = importlib.util.spec_from_file_location(
    "compare_runs", Path(__file__).resolve().parents[1] / "tools" / "compare_runs.py")
COMPARE = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(COMPARE)


def _scores(a, b, domain):
    """compare_runs' score of each state field of the states a and b, the
    positions through the seam on the circle."""
    scale = COMPARE.scales((a.x, b.x), (a.v, b.v))
    return {key: COMPARE.score(key, getattr(a, key), getattr(b, key), scale, domain.periodic)
            for key in COMPARE.STATE_FIELDS}

FLAT = KernelSpec(KernelKind.CLASSICAL_CS, lam=1.0, beta=0.0, r0=1.0)
PLATEAU = KernelSpec(KernelKind.CONSTANT_NEAR_ZERO, lam=2.0, beta=1.0, r0=2.0)
RK4, SPLIT = "rk4_adaptive", "strang_exponential"


def _config(name, method=RK4, **overrides):
    """The library scenario ``name`` stepped by ``method``.  The library
    steps its singular circles by splitting; the RK4 mechanics are tested on
    them under an explicit RK4 stepper."""
    cfg = scenario(name, **overrides)
    return dataclasses.replace(cfg, stepper=dataclasses.replace(cfg.stepper, method=method))


def pair_state(x0=0.5, v0=-2.0):
    return FlockState(0.0, [[x0], [-x0]], [[v0], [-v0]], [0.5, 0.5])


# ---------------------------------------------------------------------------
# force law

def test_rhs_uniform_pair():
    st = FlockState(0.0, [[0.0], [1.0]], [[1.0], [-1.0]], [0.5, 0.5])
    np.testing.assert_allclose(rhs(st, FLAT, euclidean(1)), [[-1.0], [1.0]])


def test_rhs_weighted_pair():
    st = FlockState(0.0, [[0.0], [1.0]], [[1.0], [-1.0]], [0.25, 0.75])
    np.testing.assert_allclose(rhs(st, FLAT, euclidean(1)), [[-1.5], [0.5]])


def test_rhs_three_agents_constant_kernel():
    st = FlockState(0.0, [[0.0], [1.0], [2.0]], [[0.0], [1.0], [2.0]],
                    [1 / 3, 1 / 3, 1 / 3])
    np.testing.assert_allclose(rhs(st, FLAT, euclidean(1)), [[1.0], [0.0], [-1.0]],
                               atol=1e-15)


def test_rhs_uses_minimal_image_on_circle():
    # same chart coordinates, opposite image: distance 0.2 through the seam
    st = FlockState(0.0, [[0.1], [TWO_PI - 0.1]], [[1.0], [0.0]], [0.5, 0.5])
    kern = KernelSpec(KernelKind.LOCAL_MOLLIFIED, lam=1.0, r0=0.5, moll_width=0.0)
    acc = rhs(st, kern, circle())
    assert acc[0, 0] == pytest.approx(-0.5)
    acc_flat = rhs(st, kern, euclidean(1))
    assert acc_flat[0, 0] == 0.0


@pytest.mark.parametrize("name", ["torus-singular-beta2.5", "torus-local-ensemble",
                                  "euclid-classical-smooth", "blocks"])
def test_rhs_forms_only_the_accelerations(monkeypatch, name):
    # the accelerations of the stepper's pair field, bit for bit, without the
    # relative speeds that only I2 reads
    if name == "blocks":  # sorted row blocks and their column windows
        domain, kernel = circle(), KernelSpec(KernelKind.LOCAL_MOLLIFIED, lam=1.0, r0=0.1)
        st = initial_state(domain, 200, seed=1, weight_mode="random")
    else:
        cfg = scenario(name)
        domain, kernel, st = cfg.domain, cfg.kernel, cfg.build()
    singular = kernels._is_singular(kernel)
    acc = dynamics._pair_field(st.x, st.v, st.m, kernel, domain, st.t, singular)[0]
    passes = []
    square_sums = geometry.pair_square_sums

    def counted(domain, *args):
        passes.append(domain)
        return square_sums(domain, *args)

    monkeypatch.setattr(geometry, "pair_square_sums", counted)
    assert rhs(st, kernel, domain).tobytes() == acc.tobytes()
    assert passes and geometry.VELOCITY_SPACE not in passes


@pytest.mark.parametrize("name, horizon", [("torus-singular-beta2.5", 0.05),
                                           ("torus-local-ensemble", 2.0)])
def test_a_run_classifies_its_kernel_once(monkeypatch, name, horizon):
    # not once per step or record: integrate hands the class to both
    calls = []
    classify = kernels.classify
    monkeypatch.setattr(kernels, "classify", lambda spec: calls.append(spec) or classify(spec))
    cfg = _config(name, horizon=horizon)
    del calls[:]
    traj = cfg.run(record_steps=True)
    assert len(traj.states) > 3 and calls == [cfg.kernel]


def test_single_agent_is_inert():
    st = FlockState(0.0, [[1.0]], [[2.0]], [1.0])
    np.testing.assert_array_equal(rhs(st, FLAT, euclidean(1)), [[0.0]])


# ---------------------------------------------------------------------------
# integrator accuracy

def closed_x(t, x0=0.5, v0=-2.0):
    # mirrored pair under the plateau of height 2: x' = v, v' = -2v
    return x0 + 0.5 * v0 * (1.0 - math.exp(-2.0 * t))


def test_integrates_linear_relative_dynamics_exactly():
    cfg = scenario("two-agent-smooth-collision")
    traj = cfg.run()
    assert traj.error is None
    worst = max(
        abs(s.x[0, 0] - closed_x(s.t)) for s in traj.states
    )
    assert worst < 1e-6
    v_worst = max(abs(s.v[0, 0] + 2.0 * math.exp(-2.0 * s.t)) for s in traj.states)
    assert v_worst < 1e-6


def test_rk4_fourth_order_convergence():
    errs = []
    for dt in (0.1, 0.05, 0.025):
        traj = integrate(
            pair_state(), PLATEAU, euclidean(1),
            StepperConfig(dt_max=dt, safety=1.0), 1.0,
            ObserverSchedule("linear", spacing=1.0),
        )
        errs.append(abs(traj.final_state.x[0, 0] - closed_x(1.0)))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) > 3.7


def test_momentum_conserved():
    st = initial_state(euclidean(2), 16, seed=3, params={"box": 2.0, "sigma": 1.0})
    traj = integrate(st, FLAT, euclidean(2), StepperConfig(dt_max=0.1), 5.0,
                     ObserverSchedule("linear", spacing=1.0))
    p0 = momentum(traj.states[0])
    drift = max(np.max(np.abs(momentum(s) - p0)) for s in traj.states)
    assert drift < 1e-12 * (1.0 + np.max(np.abs(p0)))


def test_galilean_boost_commutes():
    dom = euclidean(2)
    kern = KernelSpec(KernelKind.CLASSICAL_CS, lam=1.0, beta=0.5)
    cfg = StepperConfig(dt_max=0.05)
    sched = ObserverSchedule("linear", spacing=1.0)
    st = initial_state(dom, 12, seed=5, params={"box": 1.0, "sigma": 1.0})
    boost = np.array([0.37, -0.11])
    st_b = FlockState(0.0, st.x, st.v + boost, st.m)
    traj = integrate(st.copy(), kern, dom, cfg, 4.0, sched)
    traj_b = integrate(st_b, kern, dom, cfg, 4.0, sched)
    for s, sb in zip(traj.states, traj_b.states):
        assert s.t == sb.t
        np.testing.assert_allclose(sb.v, s.v + boost, atol=1e-10)
        np.testing.assert_allclose(sb.x, s.x + boost * s.t, atol=1e-10)


def test_step_dissipation_is_galilean_invariant():
    # an aligned flock far from rest: |v_i|^2 + |v_j|^2 - 2 v_i.v_j loses the
    # spread to cancellation, the differences v_i - v_j do not
    dom = euclidean(2)
    kern = KernelSpec(KernelKind.CLASSICAL_CS, lam=1.0, beta=0.5)
    st = initial_state(dom, 16, seed=5, params={"box": 1.0, "sigma": 1e-3})
    boosted = FlockState(0.0, st.x, st.v + 1e3, st.m)
    for method in (RK4, SPLIT):  # the split keeps the mean velocity aside
        a = step(st, kern, dom, StepperConfig(dt_max=0.05, method=method))
        b = step(boosted, kern, dom, StepperConfig(dt_max=0.05, method=method))
        assert a.t == b.t
        assert abs(b.diss2 - a.diss2) <= 1e-9 * a.diss2


def test_stepper_dissipation_matches_the_records():
    # both sum the same pair terms; once this flock aligns they are ~1e-29,
    # where |v_i|^2 + |v_j|^2 - 2 v_i.v_j left ~1e-18 of rounding in the stepper
    cfg = scenario("euclid-annular-fat-tail", horizon=200.0)
    traj = cfg.run()
    for s, rec in zip(traj.states, traj.records):
        i2 = dynamics._pair_field(s.x, s.v, s.m, cfg.kernel, cfg.domain, s.t, False)[1]
        assert i2 == pytest.approx(rec.I2, rel=1e-12, abs=0.0), s.t


def test_integration_is_deterministic():
    def run():
        st = initial_state(euclidean(2), 8, seed=11, params={"sigma": 1.0})
        return integrate(st, FLAT, euclidean(2), StepperConfig(dt_max=0.1), 2.0,
                         ObserverSchedule("linear", spacing=0.5))
    a, b = run(), run()
    for sa, sb in zip(a.states, b.states):
        assert np.array_equal(sa.x, sb.x)
        assert np.array_equal(sa.v, sb.v)
        assert sa.diss2 == sb.diss2


# ---------------------------------------------------------------------------
# collision handling

def test_inbound_pair_under_integrable_singularity_collides():
    traj = scenario("two-agent-weak-singular-collision").run()
    assert isinstance(traj.error, (CollisionError, StiffnessError))
    # the guard stops the run just above contact, well before the horizon
    assert traj.error.distance <= 1e-6
    assert traj.error.t < 1.0
    assert traj.states[-1].t == pytest.approx(traj.error.t)


def _meeting_pair_run(record_steps, spacing):
    """The kernel and the run of a pair under a singular kernel too weak to
    turn it, which meets at t = 0.5."""
    kernel = KernelSpec(KernelKind.SINGULAR_POWER, lam=1e-9, beta=0.5)
    state = FlockState(0.0, [[0.0], [1.0]], [[1.0], [-1.0]], [0.5, 0.5])
    return kernel, integrate(state, kernel, euclidean(1), StepperConfig(dt_max=0.1), 2.0,
                             ObserverSchedule("linear", spacing=spacing),
                             record_steps=record_steps)


@pytest.mark.parametrize("record_steps, spacing, count", [(False, 1.0, 2), (False, 0.1, 6),
                                                           (True, 1.0, 49)])
def test_a_failed_run_records_its_last_state_once(record_steps, spacing, count):
    # the pair meets at t = 0.5 and the step underflows there; the state the
    # failed step started from is recorded once, after the records of the
    # observer times before it, whether a step recorded it already or not,
    # and every record is the one its state gives alone
    kernel, traj = _meeting_pair_run(record_steps, spacing)
    assert isinstance(traj.error, StiffnessError)
    assert traj.error.t == pytest.approx(0.5) and traj.states[-1].t == traj.error.t
    assert len(traj.records) == len(traj.states) == count
    assert all(a is not b for a, b in zip(traj.states, traj.states[1:]))
    assert np.all(np.diff(traj.t()) > 0.0)
    alone = [diagnostics.compute_record(s, kernel, euclidean(1)) for s in traj.states]
    assert (np.array([r.to_row() for r in traj.records]).tobytes()
            == np.array([r.to_row() for r in alone]).tobytes())


@pytest.mark.parametrize("run", ["rk4", "split", "failed"])
def test_every_stored_state_of_a_singular_run_is_clear_of_the_guard(run):
    # every state after the initial one passed the end-of-step guard, so its
    # record, formed after the run, cannot raise CollisionError (distance 0),
    # and the last state of a failed run is no exception
    if run == "failed":
        traj = _meeting_pair_run(True, 1.0)[1]
        assert isinstance(traj.error, StiffnessError)
        domain = euclidean(1)
    else:
        cfg = _config("torus-singular-beta2.5", RK4 if run == "rk4" else SPLIT, horizon=0.5)
        traj, domain = cfg.run(record_steps=True), cfg.domain
        assert traj.error is None and len(traj.states) > 10
    for s, rec in zip(traj.states, traj.records, strict=True):
        dmin = dense.nearest_pair(dense.pair_distances(domain, s.x))[0]
        assert dmin == rec.dmin > dynamics._GUARD, s.t


def test_slow_pair_under_strong_singularity_stalls():
    traj = scenario("two-agent-strong-singular-approach").run()
    assert traj.error is None
    dmin = traj.column("dmin")
    # equilibrium separation for this data is 4/9
    assert np.nanmin(dmin) == pytest.approx(4.0 / 9.0, abs=5e-3)


@pytest.mark.parametrize("gap, accepted", [(5e-10, False), (2e-9, True)])
def test_singular_step_is_rejected_within_the_guard(gap, accepted):
    # the kernel is too weak to bend the paths within one step, so the pair
    # closes at speed 2 and the approach limit aims the step at separation gap
    kern = KernelSpec(KernelKind.SINGULAR_POWER, lam=1e-12, beta=0.5)
    cfg = StepperConfig(dt_max=1.0, safety=1.0 - gap)
    dt = 0.5 * (1.0 - gap)
    after = step(pair_state(x0=0.5, v0=-1.0), kern, euclidean(1), cfg)
    assert after.t == (dt if accepted else 0.5 * dt)
    assert min_separation(after, euclidean(1)) > 1e-9


def test_singular_step_is_rejected_at_its_end_position():
    # the stages stay clear of the guard, but the full step would end the
    # pair 9.0e-10 apart; only the end-of-step check halves it
    kern = KernelSpec(KernelKind.SINGULAR_POWER, lam=1.0, beta=0.5)
    cfg = StepperConfig(dt_max=1.0, safety=1.0 - 1e-6)
    dt = cfg.safety * 2e-6 / 2.0  # the approach limit of the pair
    after = step(pair_state(x0=1e-6, v0=-1.0), kern, euclidean(1), cfg)
    assert after.t == 0.5 * dt
    assert min_separation(after, euclidean(1)) > 1e-9


def test_smooth_pair_steps_through_coincidence():
    met = FlockState(0.0, [[0.3], [0.3]], [[1.0], [-1.0]], [0.5, 0.5])
    after = step(met, FLAT, euclidean(1), StepperConfig(dt_max=0.1))
    assert after.t == 0.1 and after.x[0, 0] > after.x[1, 0]
    # the mirrored pair closes by 4 while its relative speed decays as exp(-t)
    traj = integrate(pair_state(x0=0.5, v0=-2.0), FLAT, euclidean(1),
                     StepperConfig(dt_max=0.01), 5.0, ObserverSchedule("linear", spacing=1.0))
    assert traj.error is None
    assert traj.final_state.x[0, 0] < traj.final_state.x[1, 0]


# ---------------------------------------------------------------------------
# the end-of-step evaluation carried to the next step

def _library_step(name, method=RK4):
    """The library scenario's config under ``method`` and its initial state
    after one step."""
    cfg = _config(name, method)
    return cfg, step(cfg.build(), cfg.kernel, cfg.domain, cfg.stepper)


def _assert_same_state(a, b):
    assert (a.t, a.diss2, a.diss2_root) == (b.t, b.diss2, b.diss2_root)
    for name in ("x", "v", "m"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


@pytest.mark.parametrize("name, method, guarded", [
    pytest.param("torus-singular-beta2.5", RK4, True, id="torus-singular-beta2.5-True"),
    pytest.param("torus-singular-beta2.5", SPLIT, True, id="torus-singular-beta2.5-split-True"),
    pytest.param("torus-local-ensemble", RK4, False, id="torus-local-ensemble-False")])
def test_a_carried_evaluation_steps_as_a_fresh_copy(name, method, guarded):
    # under a singular kernel the end-of-step guard is the next step's first
    # evaluation, by either method, keyed on the method; the local flock has
    # no guard, but it steps under a tolerance, whose error estimate
    # evaluates the end state, so it carries that evaluation and, its kernel
    # being compact, the step's pair set too, which the end evaluation
    # summed on while it still held
    cfg, state = _library_step(name, method)
    assert (cfg.stepper.tol is None) == guarded
    x, v, m, kernel, domain, keyed, evaluation, pairs = state._first
    assert x is state.x and v is state.v and m is state.m
    assert kernel == cfg.kernel and domain == cfg.domain and keyed == method
    assert evaluation is not None and (pairs is None) == guarded
    assert guarded or evaluation[5] is pairs
    fresh = step(state.copy(), cfg.kernel, cfg.domain, cfg.stepper)
    _assert_same_state(step(state, cfg.kernel, cfg.domain, cfg.stepper), fresh)
    assert state._first is None
    # a state given new velocities is evaluated again, not read off the old
    cfg, state = _library_step(name, method)
    state.v = 0.5 * state.v
    _assert_same_state(step(state, cfg.kernel, cfg.domain, cfg.stepper),
                       step(state.copy(), cfg.kernel, cfg.domain, cfg.stepper))


@pytest.mark.parametrize("name", ["torus-singular-beta2.5", "torus-local-ensemble"])
def test_a_carry_is_dropped_under_another_kernel_or_domain(name):
    # the evaluation or pair set was made under the kernel and domain of the
    # step that left it: a stronger, wider kernel, or the same positions on
    # a line, is evaluated again
    cfg, _ = _library_step(name)
    kernel = dataclasses.replace(cfg.kernel, lam=2.0 * cfg.kernel.lam, r0=5.0 * cfg.kernel.r0)
    for kernel, domain in ((kernel, cfg.domain), (cfg.kernel, euclidean(1))):
        state = _library_step(name)[1]
        _assert_same_state(step(state, kernel, domain, cfg.stepper),
                           step(state.copy(), kernel, domain, cfg.stepper))


def test_a_carry_is_dropped_under_another_method():
    # a split step carries only what a split step reads, the nearest pair
    # and the largest squared speed, and an RK4 step the whole pair field:
    # a state steps under the other method as its fresh copy does
    for made, other in ((SPLIT, RK4), (RK4, SPLIT)):
        cfg, state = _library_step("torus-singular-beta2.5", made)
        stepper = dataclasses.replace(cfg.stepper, method=other)
        _assert_same_state(step(state, cfg.kernel, cfg.domain, stepper),
                           step(state.copy(), cfg.kernel, cfg.domain, stepper))
        assert state._first is None


def test_a_split_carry_is_the_pair_fields_approach():
    # the split's end-of-step guard forms the pair field's nearest pair and
    # largest squared speed bit for bit, and trips where the field trips
    cfg, state = _library_step("torus-singular-beta2.5", SPLIT)
    full = dynamics._pair_field(state.x, state.v, state.m, cfg.kernel, cfg.domain, state.t,
                                True, dynamics._GUARD, first=True)
    assert state._first[6] == full[3:5]
    x = state.x.copy()
    x[5] = x[2] + 0.5 * dynamics._GUARD
    with pytest.raises(CollisionError) as light:
        dynamics._approach(x, state.v, cfg.domain, 1.5, dynamics._GUARD)
    with pytest.raises(CollisionError) as field:
        dynamics._pair_field(x, state.v, state.m, cfg.kernel, cfg.domain, 1.5, True,
                             dynamics._GUARD, first=True)
    assert (light.value.pair, light.value.t, light.value.distance) == (
        field.value.pair, field.value.t, field.value.distance)
    assert light.value.pair == (2, 5)


def test_stored_states_drop_the_carried_evaluation():
    for method, horizon in ((RK4, 0.05), (SPLIT, 0.3)):
        cfg = _config("torus-singular-beta2.5", method, horizon=horizon)
        traj = cfg.run(record_steps=True)
        assert traj.error is None and len(traj.states) > 3
        assert all(s._first is None for s in traj.states[:-1])
        assert traj.final_state._first is not None


def test_step_results_are_read_only():
    for method in (RK4, SPLIT):
        state = _library_step("torus-singular-beta2.5", method)[1]
        for name in ("x", "v", "m"):
            with pytest.raises(ValueError):
                getattr(state, name)[0] = 0.0
    # the caller's state keeps its own writable arrays
    cfg = scenario("torus-local-ensemble")
    start = cfg.build()
    after = step(start, cfg.kernel, cfg.domain, cfg.stepper)
    assert after.m is not start.m and start.m.flags.writeable


def test_a_singular_step_makes_four_distance_passes(monkeypatch):
    # three stages and the end-of-step evaluation, which the next step reuses
    cfg, state = _library_step("torus-singular-beta2.5")
    passes = []
    square_sums = geometry.pair_square_sums

    def counted(domain, *args):
        passes.append(domain)
        return square_sums(domain, *args)

    monkeypatch.setattr(geometry, "pair_square_sums", counted)
    stiff, speed2, dmin = state._first[6][2:5]
    dt = dynamics._propose_dt(cfg.stepper, stiff, speed2, dmin, True)
    after = step(state, cfg.kernel, cfg.domain, cfg.stepper)
    assert after.t == state.t + dt  # accepted as proposed, not retried
    assert sum(d is cfg.domain for d in passes) == 4
    passes.clear()
    step(after.copy(), cfg.kernel, cfg.domain, cfg.stepper)  # nothing carried
    assert sum(d is cfg.domain for d in passes) == 5


@pytest.mark.parametrize("name, method", [
    pytest.param("torus-singular-beta2.5", RK4, id="torus-singular-beta2.5"),
    pytest.param("torus-singular-beta2.5", SPLIT, id="torus-singular-beta2.5-split"),
    pytest.param("euclid-classical-smooth", RK4, id="euclid-classical-smooth")])
def test_a_non_finite_step_raises_value_error(monkeypatch, name, method):
    cfg = _config(name, method, horizon=1.0)
    if method == RK4:
        pair_field = dynamics._pair_field

        def poisoned(*args, **kwargs):
            acc, *rest = pair_field(*args, **kwargs)
            acc = acc.copy()
            acc[0, 0] = math.nan
            return (acc, *rest)

        monkeypatch.setattr(dynamics, "_pair_field", poisoned)
    else:  # the split reads no accelerations, but the kernel at the midpoint
        evaluate = kernels._evaluate_raw

        def poisoned(*args):
            phi = evaluate(*args).copy()
            phi.reshape(-1)[1] = math.nan
            return phi

        monkeypatch.setattr(kernels, "_evaluate_raw", poisoned)
    with pytest.raises(ValueError, match="positions and velocities must be finite"):
        step(cfg.build(), cfg.kernel, cfg.domain, cfg.stepper)
    with pytest.raises(ValueError, match="positions and velocities must be finite"):
        cfg.run()


# ---------------------------------------------------------------------------
# the dense RK4 oracle


def _assert_steps_match_the_oracle(state, kernel, domain, cfg, count):
    """``count`` steps from state, each at the oracle's dt and equal to its
    dense step within 1e-12 of each state field's scale (``_scores``);
    returns the last.

    Under a tolerance the oracle's dt is its controller's, within 1e-10: the
    error estimate is a difference of two accelerations about 1e-6 of their
    size, so its round-off, and that of a dt it shrinks, is about 1e-10 of
    it.  The step is then compared with the oracle's step of the dt it took.
    """
    for _ in range(count):
        dt, ref = dense.controlled_step(state, kernel, domain, cfg)
        after = step(state, kernel, domain, cfg)
        if cfg.tol is None:
            assert after.t - state.t == pytest.approx(dt, rel=1e-12, abs=0.0)
        else:
            assert after.t - state.t == pytest.approx(dt, rel=1e-10, abs=0.0)
            ref = dense.rk4_step(state, kernel, domain, after.t - state.t)
        scores = _scores(after, ref, domain)
        assert max(scores.values()) <= 1e-12, scores
        state = after
    return state


@pytest.mark.parametrize("name", scenario_names())
def test_rk4_steps_match_the_dense_oracle(name):
    # every library scenario under RK4, the singular circles included: 20 steps
    cfg = _config(name)
    _assert_steps_match_the_oracle(cfg.build(), cfg.kernel, cfg.domain, cfg.stepper, 20)


@pytest.mark.parametrize("name", ["torus-local-ensemble", "vacuum-gap-torus",
                                  "lagrangian-torus-weighted", "parallel-lines-R2",
                                  "circle-256", "plane-256"])
def test_compact_flocks_match_the_dense_oracle_for_50_steps(name):
    # the one-block library flocks under a compact kernel sum on their pairs
    # and carry a pair set from step 1; the flocks of 256 step on sorted
    # windows of dense blocks.  No run is bit for bit with the oracle, which
    # sums dense rows and weights the stages as dt (...) / 6: each stays
    # within 5e-16 relative
    if name.endswith("-256"):
        domain = circle() if name.startswith("circle") else euclidean(2)
        state = initial_state(domain, 256, seed=2, weight_mode="random")
        kernel, cfg = LOCAL, StepperConfig(dt_max=0.01)
    else:
        setup = scenario(name)
        state, kernel, domain, cfg = setup.build(), setup.kernel, setup.domain, setup.stepper
    first = _assert_steps_match_the_oracle(state, kernel, domain, cfg, 1)
    assert (_carried_pairs(first) is None) == (state.n > diagnostics._RECORD_BLOCK)
    _assert_steps_match_the_oracle(first, kernel, domain, cfg, 49)


# ---------------------------------------------------------------------------
# the local-error controller: under StepperConfig.tol an RK4 step is redone
# at a smaller dt while its embedded error estimate exceeds 1, and proposes
# the next step's dt, which integrate passes back as dt_cap


def test_the_controlled_local_flock_stays_near_a_dt_over_4_reference():
    # torus-local-ensemble, seed 0, to t = 20 under its tolerance against a
    # fixed dt of 0.125, the old dt_max / 4.  Measured: V1, V2, V4, I2 and G
    # within 1.7e-6 of the reference at every record (V4 the worst; the old
    # fixed dt = 0.5 read 8.9e-6, I2 the worst), and the energy identity to
    # 1.8e-8 of V2(0)
    cfg = scenario("torus-local-ensemble", horizon=20.0)
    fine = dataclasses.replace(cfg, stepper=StepperConfig(dt_max=0.125, safety=0.8)).run()
    traj = cfg.run()
    assert traj.error is None and fine.error is None
    assert np.array_equal(traj.t(), fine.t())
    for name in ("V1", "V2", "V4", "I2", "G"):
        got, ref = traj.column(name), fine.column(name)
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 4e-6, name
    v2, diss = traj.column("V2"), traj.column("I2_int")
    assert np.max(np.abs(v2 - v2[0] + diss - diss[0])) <= 1e-7 * v2[0]


def test_a_rejected_step_is_redone_from_its_first_evaluation(monkeypatch):
    # a tiny tolerance rejects the first attempts; each retry shrinks dt by
    # max(0.2, 0.9 err^(-1/4)) and starts from the same first evaluation, so
    # the step makes one first evaluation and four per attempt (three
    # stages and the end), and it is the untolerated RK4 step of the dt it
    # took, bit for bit
    cfg = scenario("torus-local-ensemble")
    tiny = dataclasses.replace(cfg.stepper, tol=1e-12)
    attempts, fields = [], []
    real_attempt, real_field = dynamics._attempt, dynamics._pair_field

    def attempt(*args):
        result = real_attempt(*args)
        attempts.append((args[1], args[-1], result[-1]))
        return result

    def pair_field(*args, **kwargs):
        fields.append(kwargs.get("first", False))
        return real_field(*args, **kwargs)

    start = cfg.build()
    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "_attempt", attempt)
        patch.setattr(dynamics, "_pair_field", pair_field)
        after = step(start, cfg.kernel, cfg.domain, tiny, dt_cap=0.5)
    assert len(attempts) >= 2 and attempts[0][2] > 1.0 and attempts[-1][2] <= 1.0
    assert all(first is attempts[0][0] for first, *_ in attempts)
    assert len(fields) == 1 + 4 * len(attempts) and fields.count(True) == 1 + len(attempts)
    for (_, dt, err), (_, shrunk, _) in zip(attempts, attempts[1:]):
        assert err > 1.0 and shrunk == dt * max(0.2, 0.9 * err ** -0.25)
    _, dt, err = attempts[-1]
    assert after.t == dt and after._proposal == dt * min(2.0, max(0.2, 0.9 * err ** -0.25))
    plain = dataclasses.replace(tiny, tol=None)
    _assert_same_state(after, step(start.copy(), cfg.kernel, cfg.domain, plain, dt_cap=dt))


def test_integrate_caps_each_step_at_the_last_proposal(monkeypatch):
    # each step's dt_cap is the smaller of the proposal and the time to the
    # next observer; a step the observer cut short, which reached it, leaves
    # the proposal as it was, and no proposal grows dt more than twice
    cfg = scenario("torus-local-ensemble", horizon=20.0)
    calls = []
    real = dynamics.step

    def spy(state, *args, dt_cap=None, **kwargs):
        after = real(state, *args, dt_cap=dt_cap, **kwargs)
        calls.append((state, dt_cap, after))
        return after

    monkeypatch.setattr(dynamics, "step", spy)
    assert cfg.run().error is None
    targets = cfg.observers.times(0.0, cfg.horizon)
    proposal, kept = math.inf, 0
    for state, cap, after in calls:
        target = next(t for t in targets if t > state.t)
        assert cap == min(proposal, target - state.t)
        assert after._proposal <= 2.0 * (after.t - state.t) * (1.0 + 1e-12)
        if target - state.t < proposal and after.t == target:
            kept += 1
        else:
            proposal = after._proposal
    assert kept > 0 and len(calls) > kept


def test_the_controlled_local_flock_keeps_its_momentum():
    cfg = scenario("torus-local-ensemble", horizon=100.0)
    traj = cfg.run()
    mom = traj.column("mom_0")
    # measured: 2.7e-20, a few ulps of the momentum (5.8e-5)
    assert np.max(np.abs(mom - mom[0])) <= 1e-15 * np.max(np.abs(traj.states[0].v))


# ---------------------------------------------------------------------------
# the split stepper: positions drift by dt/2, the velocity flow at the
# frozen positions is solved exactly, and the positions drift by dt/2

SINGULAR_CIRCLES = ["torus-singular-beta2", "torus-singular-beta2.5", "torus-singular-beta3"]


def test_the_singular_circles_step_by_splitting():
    for name in SINGULAR_CIRCLES:
        assert scenario(name).stepper == StepperConfig(dt_max=0.1, method=SPLIT)


def test_a_split_step_makes_two_distance_passes(monkeypatch):
    # the midpoint positions and the end-of-step guard, which the next step
    # reuses; a state that carries nothing is evaluated first
    cfg, state = _library_step("torus-singular-beta2.5", SPLIT)
    passes = []
    square_sums = geometry.pair_square_sums

    def counted(domain, *args):
        passes.append(domain)
        return square_sums(domain, *args)

    monkeypatch.setattr(geometry, "pair_square_sums", counted)
    speed2, dmin = state._first[6]  # a split step reads nothing else
    dt = dynamics._propose_dt(cfg.stepper, 0.0, speed2, dmin, True)
    after = step(state, cfg.kernel, cfg.domain, cfg.stepper)
    assert after.t == state.t + dt  # the approach limit, not the stiffness one
    assert sum(d is cfg.domain for d in passes) == 2
    passes.clear()
    step(after.copy(), cfg.kernel, cfg.domain, cfg.stepper)
    assert sum(d is cfg.domain for d in passes) == 3


@pytest.mark.parametrize("name", SINGULAR_CIRCLES + ["lagrangian-torus-weighted",
                                                     "euclid-classical-smooth"])
def test_split_steps_keep_momentum(name):
    # the mean velocity is kept aside, and the exponential acts on the rest
    cfg = _config(name, SPLIT, horizon=5.0)
    traj = cfg.run(record_steps=True)
    assert traj.error is None
    p0 = momentum(traj.states[0])
    drift = max(np.max(np.abs(momentum(s) - p0)) for s in traj.states)
    assert drift <= 1e-14 * np.max(np.abs(traj.states[0].v))


@pytest.mark.parametrize("name", SINGULAR_CIRCLES + ["lagrangian-torus-weighted",
                                                     "euclid-classical-smooth"])
def test_split_steps_never_increase_the_variations(name):
    # at any dt: e^(-dt L) is an averaging operator with nonnegative
    # entries that keeps the weighted mean, so V1, V2 and V4 do not grow;
    # the records' own round-off is below 1e-13 of the value
    cfg = dataclasses.replace(scenario(name, horizon=50.0),
                              stepper=StepperConfig(dt_max=10.0, safety=1.0, method=SPLIT),
                              observers=ObserverSchedule("linear", spacing=10.0))
    traj = cfg.run(record_steps=True)
    assert traj.error is None
    for col in ("V1", "V2", "V4"):
        vp = traj.column(col)
        assert np.all(np.diff(vp) <= 1e-13 * vp[:-1]), col
    if not kernels._is_singular(cfg.kernel):
        assert np.all(np.diff(traj.t()) == 10.0)  # no stiffness limit


@pytest.mark.parametrize("name", SINGULAR_CIRCLES)
def test_split_dissipation_is_the_v2_drop(name):
    # diss2 integrates I2 exactly along the frozen-position flow, and with
    # unit total mass that is V2's drop
    traj = scenario(name, horizon=20.0).run(record_steps=True)
    v2, i2_int = traj.column("V2"), traj.column("I2_int")
    assert np.max(np.abs(v2[0] - v2 - i2_int)) <= 1e-12 * v2[0]


def test_split_steps_solve_a_position_free_flow_exactly():
    # under the plateau the mirrored pair's velocity flow v' = -2v does not
    # read the positions, so the split solves it exactly: v and diss2, the
    # closed form 2 v0^2 (1 - e^(-4t)), to round-off; the positions are the
    # trapezoid rule on those velocities, and diss2_root is Simpson's rule
    # on sqrt(I2) = sqrt(8) |v0| e^(-2t), off by about 16 dt^4 / 180
    dt = 0.02
    traj = integrate(pair_state(), PLATEAU, euclidean(1),
                     StepperConfig(dt_max=dt, safety=1.0, method=SPLIT), 1.0,
                     ObserverSchedule("linear", spacing=0.1), record_steps=True)
    q = math.exp(-2.0 * dt)
    for k, s in enumerate(traj.states):
        assert s.t == pytest.approx(k * dt, rel=1e-12, abs=0.0)
        trapezoid = 0.5 - dt * (1.0 + q) * (1.0 - q**k) / (1.0 - q)
        assert s.x[0, 0] == pytest.approx(trapezoid, rel=0.0, abs=1e-14)
        assert s.v[0, 0] == pytest.approx(-2.0 * math.exp(-2.0 * s.t), rel=1e-13)
        assert s.diss2 == pytest.approx(8.0 * -math.expm1(-4.0 * s.t), rel=1e-13, abs=1e-300)
        root = math.sqrt(8.0) * -math.expm1(-2.0 * s.t)
        assert s.diss2_root == pytest.approx(root, rel=5e-8, abs=1e-300)


def test_split_steps_converge_at_second_order():
    # slow enough that the approach limit stays above every dt, so each
    # step is dt; successive differences shrink fourfold per halving
    cfg = scenario("torus-singular-beta2.5")
    start = cfg.build()
    start.v *= 0.1
    finals = []
    for dt in (0.02, 0.01, 0.005, 0.0025):
        traj = integrate(start, cfg.kernel, cfg.domain,
                         StepperConfig(dt_max=dt, safety=1.0, method=SPLIT), 0.5,
                         ObserverSchedule("linear", spacing=0.5), record_steps=True)
        assert len(traj.states) == round(0.5 / dt) + 1
        finals.append(traj.final_state)
    gaps = [max(np.max(np.abs(displacement(cfg.domain, a.x, b.x))), np.max(np.abs(a.v - b.v)))
            for a, b in zip(finals, finals[1:])]
    orders = [math.log2(a / b) for a, b in zip(gaps, gaps[1:])]
    assert all(1.9 < order < 2.1 for order in orders), orders


# The split runs' records against RK4's to t = 2, each column against its
# own largest |value| over both runs (compare_runs.SCALES).  The worst over
# seeds 0-7 of the three singular circles was 5.5e-4 of V2(0), 9.7e-4 of
# |C(0)| and 1.2e-3 of max |G|, of the order of RK4's own energy-identity
# residual on these runs, and each bound is twice that.  The largest V2 and
# |G| over both runs are V2(0) and RK4's max |G|, but the largest |C| is up
# to 1.34 |C(0)| (torus-singular-beta2; 1.04 and 1.08 on the others), so
# C's bound is 2e-3 / 1.34.
SPLIT_AGREEMENT = {"V2": 1.1e-3, "C": 1.49e-3, "G": 2.5e-3}


@pytest.mark.parametrize("name", SINGULAR_CIRCLES)
def test_split_records_agree_with_rk4(name):
    split = scenario(name, horizon=2.0).run()
    rk4 = _config(name, horizon=2.0).run()
    assert split.error is None and rk4.error is None
    assert split.t().tobytes() == rk4.t().tobytes()
    for col, tol in SPLIT_AGREEMENT.items():
        assert COMPARE.score(col, split.column(col), rk4.column(col)) <= tol, col


def test_a_weak_singular_collision_under_splitting_ends_in_a_typed_error():
    traj = _config("two-agent-weak-singular-collision", SPLIT).run()
    assert isinstance(traj.error, (CollisionError, StiffnessError))
    assert traj.error.distance <= 1e-6 and traj.error.t < 1.0
    assert traj.states[-1].t == pytest.approx(traj.error.t)
    assert all(np.isfinite(s.x).all() and np.isfinite(s.v).all() for s in traj.states)
    assert all(math.isfinite(r.V2) for r in traj.records)


def test_splitting_refuses_a_flock_of_several_blocks():
    # eigh of the whole (N, N) operator is not formed past one row block
    n = dynamics._SPLIT_MAX_N + 1
    cfg = StepperConfig(dt_max=0.1, method=SPLIT)
    state = initial_state(circle(), n, kind="lattice_circle", seed=0)
    with pytest.raises(ValueError, match="at most 64 agents"):
        step(state, SINGULAR, circle(), cfg)
    library = scenario("torus-singular-beta2.5")
    with pytest.raises(ValueError, match="at most 64 agents"):
        dataclasses.replace(library, n=n)
    assert dataclasses.replace(library, n=n - 1).n == n - 1


@pytest.mark.parametrize("cap", [0.0, -0.1, math.nan])
def test_step_refuses_a_cap_that_is_not_positive(cap):
    # a caller's error, not a stiffness failure
    cfg = scenario("euclid-classical-smooth")
    with pytest.raises(ValueError, match="dt_cap must be positive"):
        step(cfg.build(), cfg.kernel, cfg.domain, cfg.stepper, dt_cap=cap)


# ---------------------------------------------------------------------------
# the pair set of a compact kernel


def _dense_step(monkeypatch, *args):
    """The step that uses no pair set: each evaluation sums on the pairs of
    its own dense distance pass."""
    with monkeypatch.context() as patch:
        patch.setattr(dynamics._PairSet, "holds", lambda self, x: False)
        return step(*args)


def _carried_pairs(state):
    """The pair set the state's next step sums on: that of the carried
    evaluation, or the carried set."""
    if state._first is None:
        return None
    evaluation, pairs = state._first[6:]
    return pairs if evaluation is None else evaluation[5]


@pytest.mark.parametrize("name, carries", [("torus-local-ensemble", True),
                                           ("parallel-lines-R2", True),
                                           ("lagrangian-torus-weighted", True),
                                           ("vacuum-gap-torus", True),
                                           ("euclid-classical-smooth", False),
                                           ("torus-singular-beta2.5", False)])
def test_only_a_compact_kernel_with_few_pairs_carries_a_pair_set(name, carries):
    # full support and singular kernels stay dense; every one-block flock
    # under a compact kernel carries a set, whatever its size (2 agents
    # here) or its pairs' share (about 23% and 18% here)
    cfg, state = _library_step(name)
    assert (_carried_pairs(state) is not None) == carries


def test_a_flock_of_several_blocks_carries_no_pair_set():
    # its blocks are sorted along axis 0 and windowed, and stay dense
    domain, kernel = circle(), KernelSpec(KernelKind.LOCAL_MOLLIFIED, lam=1.0, r0=0.05)
    state = initial_state(domain, 96, seed=2, params={"sigma": 0.01})
    cfg = StepperConfig(dt_max=0.01)
    assert len(geometry._row_windows(domain, state.x, 0.05, diagnostics._RECORD_BLOCK)[1]) == 2
    assert _carried_pairs(step(state, kernel, domain, cfg)) is None


def test_a_flock_too_fast_for_its_skin_steps_as_the_dense_field(monkeypatch):
    # a step of dt_max at the fastest agent's speed moves it near or past
    # half the skin, so a set is built and then dropped at a stage, or at
    # the next first pass; each step matches the step that uses no set
    cfg = scenario("torus-local-ensemble")
    start = cfg.build()
    half_skin = 0.5 * dynamics._SKIN * cfg.kernel.r0
    for factor in (0.99, 1.01, 4.0):
        fast = dense = FlockState(0.0, start.x, start.v, start.m)
        fast.v *= factor * half_skin / (cfg.stepper.dt_max * float(np.max(np.abs(fast.v))))
        for _ in range(3):
            fast = step(fast, cfg.kernel, cfg.domain, cfg.stepper)
            dense = _dense_step(monkeypatch, dense, cfg.kernel, cfg.domain, cfg.stepper)
            _assert_same_state(fast, dense)
            assert _carried_pairs(fast) is not None


def test_an_expired_pair_set_is_rebuilt(monkeypatch):
    # each agent moves a tenth of the skin per step, so a set lasts a few
    # steps, and the first pass that finds an agent past half the skin
    # builds the next; each step matches the step that uses no set
    domain, kernel = circle(), KernelSpec(KernelKind.LOCAL_MOLLIFIED, lam=1.0, r0=0.1)
    rng = np.random.default_rng(3)
    x = rng.uniform(0.0, TWO_PI, size=(48, 1))
    v = np.full((48, 1), 0.05) + rng.normal(0.0, 1e-4, size=(48, 1))
    cfg = StepperConfig(dt_max=0.1)
    state = dense = FlockState(0.0, x, v, np.full(48, 1.0 / 48))
    sets = []
    for _ in range(16):
        state = step(state, kernel, domain, cfg)
        dense = _dense_step(monkeypatch, dense, kernel, domain, cfg)
        _assert_same_state(state, dense)
        sets.append(_carried_pairs(state))
    distinct = len({id(p) for p in sets})
    assert 3 <= distinct < len(sets)


def test_an_agent_crossing_the_seam_rebuilds_the_pair_set(monkeypatch):
    # moves are measured on the wrapped positions, so an agent that crossed
    # the seam reads as 2 pi away and the next first pass builds a new set,
    # which the slow flock then keeps; each step matches the step that uses no set
    domain, kernel = circle(), KernelSpec(KernelKind.LOCAL_MOLLIFIED, lam=1.0, r0=0.1)
    x = np.random.default_rng(5).uniform(0.0, TWO_PI, size=(48, 1))
    x[0, 0] = TWO_PI - 1e-6
    cfg = StepperConfig(dt_max=0.1)
    state = dense = FlockState(0.0, x, np.full((48, 1), 1e-3), np.full(48, 1.0 / 48))
    sets = []
    for _ in range(3):
        state = step(state, kernel, domain, cfg)
        dense = _dense_step(monkeypatch, dense, kernel, domain, cfg)
        _assert_same_state(state, dense)
        sets.append(_carried_pairs(state))
        assert state.x[0, 0] < 1.0  # across the seam from the first step on
    assert sets[1] is not sets[0] and sets[2] is sets[1]


def test_a_pair_set_keeps_its_own_copy_of_the_positions(monkeypatch):
    # the caller's initial state is writable: positions written into it
    # after the step that built a set there must not change the moves the
    # next step measures, here past half the skin, so that step builds anew;
    # without a tolerance every step of this flock sits at dt_max
    cfg = scenario("torus-local-ensemble")
    stepper = StepperConfig(dt_max=0.5, safety=0.8)
    start = cfg.build()
    half_skin = 0.5 * dynamics._SKIN * cfg.kernel.r0
    start.v *= 4.0 * half_skin / (stepper.dt_max * float(np.max(np.abs(start.v))))
    after = step(start, cfg.kernel, cfg.domain, stepper)
    assert after.t == stepper.dt_max
    built = _carried_pairs(after)
    assert built is not None
    start.x[:] = after.x
    dense = _dense_step(monkeypatch, after.copy(), cfg.kernel, cfg.domain, stepper)
    again = step(after, cfg.kernel, cfg.domain, stepper)
    _assert_same_state(again, dense)
    assert _carried_pairs(again) is not built


def test_a_pair_set_is_dropped_with_the_positions_it_was_built_at():
    # a state given new positions is evaluated on a new set
    cfg, state = _library_step("torus-local-ensemble")
    assert _carried_pairs(state) is not None
    x = state.x.copy()
    x[1] = x[0] + 0.5 * cfg.kernel.r0  # a pair that was never a candidate
    state.x = x
    _assert_same_state(step(state, cfg.kernel, cfg.domain, cfg.stepper),
                       step(state.copy(), cfg.kernel, cfg.domain, cfg.stepper))


def test_a_pair_set_leaves_room_for_round_off(monkeypatch):
    # two agents a little beyond the candidate reach close at a speed that
    # uses half the skin in two steps of dt 1, the budget's edge at the
    # second step's last stage; far from 0 their positions round so that the
    # pair ends inside the support there, and with a step kernel that changes
    # the stage, so the set must not be used for it
    skin, a = dynamics._SKIN, 1000.0
    ulp = float(np.spacing(a))
    for k in range(1, 2000):
        r0 = 0.1 + k * 1e-5
        b = a + math.ceil(r0 * (1.0 + skin) / ulp) * ulp
        u = 0.25 * skin * r0
        s = u + 2.0 * u + 2.0 * u + u  # the stepper's own arithmetic
        closed = ((b + (1.0 / 6.0) * -s) - u) - ((a + (1.0 / 6.0) * s) + u)
        if b - a >= r0 * (1.0 + skin) and closed < r0:
            break
    kernel = KernelSpec(KernelKind.LOCAL_MOLLIFIED, lam=1.0, r0=r0, moll_width=0.0)
    state = dense = FlockState(0.0, [[a], [b]], [[u], [-u]], [0.5, 0.5])
    cfg = StepperConfig(dt_max=1.0)
    for _ in range(2):
        state = step(state, kernel, euclidean(1), cfg)
        dense = _dense_step(monkeypatch, dense, kernel, euclidean(1), cfg)
        _assert_same_state(state, dense)
    assert state.t == 2.0 and state.v[0, 0] < u  # the pair met in the last stage


# ---------------------------------------------------------------------------
# the row-block pair field

LOCAL = KernelSpec(KernelKind.LOCAL_MOLLIFIED, lam=1.0, r0=0.1)
SINGULAR = KernelSpec(KernelKind.SINGULAR_POWER, lam=1.0, beta=0.5)


def _paths(monkeypatch, n, fn):
    """fn() on the row blocks, then on the one-block reference (block >= n)."""
    out = [fn()]
    with monkeypatch.context() as patch:
        patch.setattr(diagnostics, "_RECORD_BLOCK", n)
        out.append(fn())
    return out


def _assert_blocks_match_the_reference(monkeypatch, domain, kernel, n):
    st = initial_state(domain, n, seed=2, weight_mode="random")
    blocks, whole = _paths(monkeypatch, n, lambda: rhs(st, kernel, domain))
    assert COMPARE.score("own", blocks, whole) <= 1e-12
    # dt_max this large leaves dt to the stiffness or approach bound, and a
    # step this long takes the stage positions around the circle and out of
    # the unit box
    cfg = StepperConfig(dt_max=100.0)
    blocks, whole = _paths(monkeypatch, n, lambda: step(st, kernel, domain, cfg))
    scores = _scores(blocks, whole, domain)
    assert max(scores.values()) <= 1e-12, scores
    return whole


@pytest.mark.parametrize("n", [64, 1024])
@pytest.mark.parametrize("domain", [circle(), euclidean(2)], ids=["circle", "plane"])
def test_neighbour_pair_field_matches_the_dense_reference(monkeypatch, domain, n):
    # past one block the local kernel's rows are sorted and take windows
    assert _assert_blocks_match_the_reference(monkeypatch, domain, LOCAL, n).t > 1.0


@pytest.mark.parametrize("c", [1.0, 100.0])
@pytest.mark.parametrize("domain", [circle(), euclidean(2)], ids=["circle", "plane"])
def test_rhs_of_an_aligned_flock_is_the_exact_sum(domain, c):
    # velocities c + 1e-10 xi: a dense block's w @ v - v * rowsum(w) loses
    # the differences to cancellation (1.1e-6 and 6.9e-7 of max|a| on the
    # circle and in the plane at c = 1, 9.8e-5 and 6.2e-5 at c = 100), while
    # a sum of m_j phi_ij (v_j - v_i), each difference taken first, keeps
    # them; the reference is a row-wise math.fsum of those terms
    st = initial_state(domain, 64, seed=3)
    st.v = c + 1e-10 * np.random.default_rng(7).normal(size=st.v.shape)
    acc = rhs(st, LOCAL, domain)
    phi = dense.pair_phi(LOCAL, dense.pair_distances(domain, st.x), 0.0)
    terms = st.m[None, :, None] * phi[:, :, None] * (st.v[None, :, :] - st.v[:, None, :])
    ref = np.array([[math.fsum(row[:, k]) for k in range(domain.dim)] for row in terms])
    assert np.max(np.abs(ref)) > 0.0
    assert COMPARE.score("own", acc, ref) <= 1e-14


@pytest.mark.parametrize("domain", [circle(), euclidean(2)], ids=["circle", "plane"])
def test_singular_row_blocks_match_the_dense_reference(monkeypatch, domain):
    # an unbounded kernel's blocks are whole rows in the agents' order
    _assert_blocks_match_the_reference(monkeypatch, domain, SINGULAR, 256)


@pytest.mark.parametrize("domain", [circle(), euclidean(2)], ids=["circle", "plane"])
def test_neighbour_stiffness_error_names_the_dense_pair(domain):
    # the nearest pair lies in the third block of rows
    st = initial_state(domain, 256, kind="uniform_gaussian", seed=4)
    st.x[200] = st.x[150] + 1e-9
    stiff = KernelSpec(KernelKind.LOCAL_MOLLIFIED, lam=1e20, r0=0.5)
    with pytest.raises(StiffnessError) as err:
        step(st, stiff, domain, StepperConfig(dt_max=1.0))
    dmin, pair = dense.nearest_pair(dense.pair_distances(domain, st.x))
    assert pair == (150, 200)
    assert (err.value.pair, err.value.distance, err.value.t) == (pair, dmin, 0.0)


def test_collision_names_the_nearest_pair_past_the_first_block():
    # a near pair in the first block, two coincident pairs in the third: the
    # first evaluation names the first coincident pair in row-major order
    st = initial_state(circle(), 200, kind="lattice_circle", seed=1)
    st.x[10] = st.x[11] + 1e-3
    st.x[170] = st.x[130]
    st.x[190] = st.x[180]
    with pytest.raises(CollisionError) as err:
        step(st, SINGULAR, circle(), StepperConfig(dt_max=0.1))
    assert err.value.pair == (130, 170) and err.value.distance == 0.0


@pytest.mark.parametrize("kernel, n, kind, limit_mb", [
    (LOCAL, 8192, "uniform_gaussian", 16.0),
    (SINGULAR, 1024, "lattice_circle", 8.0),
], ids=["local-8192", "singular-1024"])
def test_step_memory_is_bounded_by_the_block(kernel, n, kind, limit_mb):
    # no (N, N) array: one takes 8 MB at N = 1024 and 512 MB at N = 8192
    domain = circle()
    st = initial_state(domain, n, kind=kind, seed=0)
    tracemalloc.start()
    try:
        step(st, kernel, domain, StepperConfig(dt_max=0.01))
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak < limit_mb


@pytest.mark.parametrize("domain", [circle(), euclidean(2)], ids=["circle", "plane"])
def test_row_windows_need_compact_support_and_a_second_block(domain):
    # otherwise every block is whole rows in the agents' order
    block = diagnostics._RECORD_BLOCK
    for kernel, n, natural in ((LOCAL, block + 1, False), (LOCAL, block, True),
                               (SINGULAR, 4 * block, True), (FLAT, 4 * block, True)):
        x = initial_state(domain, n, seed=1).x
        index, windows = geometry._row_windows(domain, x, kernels.support_radius(kernel), block)
        assert (index is None) == natural
        if natural:
            assert windows == [(a, min(a + block, n), 0, n) for a in range(0, n, block)]


def test_library_runs_stay_on_the_dense_reference():
    # a library flock is one block of whole rows in the agents' order: the
    # pair sums under a compact kernel, the dense (N, N) arithmetic otherwise
    for name in scenario_names():
        cfg = scenario(name)
        st = cfg.build()
        index, windows = geometry._row_windows(cfg.domain, st.x,
                                               kernels.support_radius(cfg.kernel),
                                               diagnostics._RECORD_BLOCK)
        assert index is None and windows == [(0, cfg.n, 0, cfg.n)], name


# ---------------------------------------------------------------------------
# observer schedules

def test_linear_schedule():
    sched = ObserverSchedule("linear", spacing=0.25)
    assert sched.times(0.0, 1.0) == pytest.approx([0.25, 0.5, 0.75, 1.0])
    assert sched.times(0.0, 0.0) == []
    with pytest.raises(ValueError):
        sched.times(1.0, 0.5)


def test_geometric_schedule():
    sched = ObserverSchedule("geometric", t_first=1.0, factor=2.0)
    assert sched.times(0.0, 10.0) == pytest.approx([1.0, 2.0, 4.0, 8.0, 10.0])
    # resuming mid-run skips points at or before the current time
    assert sched.times(3.0, 10.0) == pytest.approx([4.0, 8.0, 10.0])


_SCHEDULE_KEYS = {"linear": {"kind", "spacing"}, "geometric": {"kind", "t_first", "factor"}}


@pytest.mark.parametrize("kwargs", [
    dict(kind="linear", spacing=0.0),
    dict(kind="geometric", t_first=0.0),
    dict(kind="geometric", factor=1.0),
    dict(kind="chebyshev"),
    dict(kind="linaer"),
    dict(kind="linear", spacing=math.nan),
    dict(kind="geometric", factor=math.nan),
    dict(kind="linear", spacing=0.5, factor=7.0),
    dict(kind="geometric", factor=2.0, spacing=0.5),
])
def test_schedule_rejects_bad_parameters(kwargs):
    stray = set(kwargs) - _SCHEDULE_KEYS.get(kwargs["kind"], set(kwargs))
    if stray:
        # the constructor keeps every field, but a config naming a key that
        # its kind never reads is refused, naming the key
        with pytest.raises(ValueError, match=stray.pop()):
            ObserverSchedule.from_dict(kwargs)
        return
    # construction must fail: a nan spacing would make times() loop forever
    with pytest.raises(ValueError):
        ObserverSchedule(**kwargs)
    with pytest.raises(ValueError):
        ObserverSchedule.from_dict(kwargs)


@pytest.mark.parametrize("t0, horizon", [(0.0, math.nan), (0.0, math.inf),
                                        (math.nan, 1.0), (-math.inf, 1.0)])
@pytest.mark.parametrize("sched", [ObserverSchedule("linear", spacing=0.5),
                                   ObserverSchedule("geometric", t_first=0.5, factor=1.3)],
                         ids=["linear", "geometric"])
def test_a_non_finite_horizon_is_refused(sched, t0, horizon):
    # a linear schedule would append without end and a geometric one return
    # [nan]; integrate refuses a non-finite horizon before its first step,
    # and no state holds a non-finite time
    with pytest.raises(ValueError, match="must be finite"):
        sched.times(t0, horizon)
    if not math.isfinite(t0):
        with pytest.raises(ValueError, match="must be finite"):
            FlockState(t0, [[0.0], [1.0]], [[1.0], [-1.0]], [0.5, 0.5])
        return
    st = FlockState(t0, [[0.0], [1.0]], [[1.0], [-1.0]], [0.5, 0.5])
    with pytest.raises(ValueError, match="must be finite"):
        integrate(st, FLAT, euclidean(1), StepperConfig(dt_max=0.1), horizon, sched)


def test_schedule_roundtrip():
    for sched in (ObserverSchedule("linear", spacing=0.5),
                  ObserverSchedule("geometric", t_first=0.5, factor=1.3)):
        assert ObserverSchedule.from_dict(sched.to_dict()) == sched


def test_record_steps_includes_observer_times():
    cfg = scenario("two-agent-smooth-collision", horizon=1.0)
    plain = cfg.run()
    dense = cfg.run(record_steps=True)
    t_dense = dense.t()
    assert len(t_dense) > len(plain.t())
    for target in plain.t():
        assert np.any(np.isclose(t_dense, target, rtol=0, atol=1e-12))


# ---------------------------------------------------------------------------
# states and initial data

def test_state_validation():
    with pytest.raises(ValueError):
        FlockState(0.0, [[0.0], [1.0]], [[0.0]], [0.5, 0.5])
    with pytest.raises(ValueError):
        FlockState(0.0, [[0.0]], [[0.0]], [0.5, 0.5])
    with pytest.raises(ValueError):
        FlockState(0.0, [[0.0]], [[0.0]], [-1.0])
    with pytest.raises(ValueError):
        FlockState(0.0, [[math.nan]], [[0.0]], [1.0])


def test_a_state_of_no_agents_is_refused():
    # it would construct, and then records and steps divide by zero
    with pytest.raises(ValueError, match="at least one agent"):
        FlockState(0.0, np.zeros((0, 1)), np.zeros((0, 1)), np.zeros(0))


def test_state_promotes_1d_and_copies():
    st = FlockState(0.0, [0.0, 1.0], [1.0, -1.0], [0.5, 0.5])
    assert st.x.shape == (2, 1)
    assert st.dim == 1 and st.n == 2
    dup = st.copy()
    dup.x[0, 0] = 99.0
    assert st.x[0, 0] == 0.0


def test_bulk_observables():
    st = FlockState(0.0, [[0.0, 0.0], [3.0, 4.0]], [[1.0, 0.0], [0.0, 2.0]],
                    [0.25, 0.75])
    np.testing.assert_allclose(momentum(st), [0.25, 1.5])
    assert velocity_diameter(st) == pytest.approx(math.sqrt(5.0))
    assert flock_diameter(st, euclidean(2)) == pytest.approx(5.0)
    assert min_separation(st, euclidean(2)) == pytest.approx(5.0)
    solo = FlockState(0.0, [[0.0]], [[0.0]], [1.0])
    assert min_separation(solo, euclidean(1)) == math.inf


@pytest.mark.parametrize("n", [2, 64, 130, 257])
@pytest.mark.parametrize("domain", [circle(), euclidean(2)], ids=["circle", "plane"])
def test_diameters_and_separation_are_the_dense_extrema(domain, n):
    # each is an extremum over row blocks, so it is the dense one bit for bit
    st = initial_state(domain, n, seed=n)
    dist = dense.pair_distances(domain, st.x)
    assert flock_diameter(st, domain) == float(np.max(dist))
    assert velocity_diameter(st) == float(np.max(dense.pair_distances(
        geometry.VELOCITY_SPACE, st.v)))
    assert min_separation(st, domain) == dense.nearest_pair(dist)[0]


def test_initial_state_determinism_and_weights():
    a = initial_state(circle(), 24, seed=9, weight_mode="random", total_mass=2.0)
    b = initial_state(circle(), 24, seed=9, weight_mode="random", total_mass=2.0)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.v, b.v) and np.array_equal(a.m, b.m)
    assert a.m.sum() == pytest.approx(2.0)
    assert np.all(a.m > 0)
    uni = initial_state(euclidean(2), 10, seed=0)
    np.testing.assert_allclose(uni.m, 0.1)


def test_initial_state_kinds():
    two = initial_state(euclidean(1), 2, kind="two_agent_symmetric",
                        params={"x0": 0.5, "v0": -2.0})
    np.testing.assert_allclose(two.x[:, 0], [0.5, -0.5])
    np.testing.assert_allclose(two.v[:, 0], [-2.0, 2.0])
    lines = initial_state(euclidean(2), 2, kind="parallel_lines",
                          params={"sep": 2.0, "v1": 1.0, "v2": 0.5})
    np.testing.assert_allclose(lines.x[1], [0.0, 2.0])
    clusters = initial_state(circle(), 10, kind="two_cluster_circle",
                             params={"dv": 1.0, "width": 0.2})
    assert np.all((clusters.x >= 0.0) & (clusters.x < TWO_PI))
    arc = initial_state(circle(), 10, kind="vacuum_arc", params={"arc": 1.0})
    assert np.all(arc.x <= 1.0)
    lattice = initial_state(circle(), 8, kind="lattice_circle", params={"sigma": 0.5})
    assert np.all(np.diff(lattice.x[:, 0]) > 0)


@pytest.mark.parametrize("kwargs", [
    dict(domain=circle(), n=2, kind="two_agent_symmetric", params={"x0": 1.0, "v0": 1.0}),
    dict(domain=euclidean(1), n=3, kind="two_agent_symmetric", params={"x0": 1.0, "v0": 1.0}),
    dict(domain=euclidean(1), n=2, kind="parallel_lines"),
    dict(domain=euclidean(2), n=10, kind="two_cluster_circle"),
    dict(domain=euclidean(2), n=10, kind="no_such_kind"),
    dict(domain=euclidean(2), n=10, weight_mode="lognormal"),
])
def test_initial_state_rejects_bad_requests(kwargs):
    with pytest.raises(ValueError):
        initial_state(**kwargs)


@pytest.mark.parametrize("n", [0, -1])
def test_initial_state_refuses_a_flock_of_no_agents(n):
    with pytest.raises(ValueError, match="n must be at least 1"):
        initial_state(circle(), n)


@pytest.mark.parametrize("settings, named", [
    (dict(seed=1.5), "seed"),
    (dict(seed=True), "seed"),
    (dict(seed=-1), "seed"),
    (dict(params={"sigmaa": 5.0}), "sigmaa"),
    (dict(params={"sigma": math.nan}), "sigma"),
    (dict(params={"sigma": "1.0"}), "sigma"),
    (dict(total_mass=0.0), "total_mass"),
    (dict(kind="two_agent_symmetric", params={"x0": 1.0}), "v0"),
], ids=["seed-fraction", "seed-bool", "seed-negative", "param-misspelt", "param-nan",
        "param-string", "mass-zero", "param-missing"])
def test_initial_state_rejects_bad_settings_by_name(settings, named):
    with pytest.raises(ValueError, match=named):
        initial_state(euclidean(1), 2, **settings)


@pytest.mark.parametrize("kwargs", [
    dict(dt_max=0.0),
    dict(dt_max=0.1, safety=0.0),
    dict(dt_max=0.1, safety=1.5),
    dict(dt_max=0.1, d_guard=-1.0),
    dict(dt_max=0.1, method="rk45"),
    dict(dt_max=0.1, d_guard=1e-6),
    dict(dt_max=math.nan),
])
def test_stepper_config_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        StepperConfig.from_dict(kwargs)


def test_stepper_config_reads_configs_that_name_the_method():
    cfg = StepperConfig.from_dict({"dt_max": 0.1, "method": "rk4_adaptive"})
    assert cfg == StepperConfig(dt_max=0.1)
    assert "method" not in cfg.to_dict()


def test_stepper_config_names_only_the_split_method():
    # an RK4 config serialises as before, so its hash is unchanged
    split = StepperConfig(dt_max=0.1, method=SPLIT)
    assert split.to_dict() == {"dt_max": 0.1, "safety": 0.4, "method": SPLIT}
    assert StepperConfig.from_dict(split.to_dict()) == split
    with pytest.raises(ValueError, match="unknown method"):
        StepperConfig(dt_max=0.1, method="rk45")


@pytest.mark.parametrize("tol", [0.0, -1e-6, math.inf, math.nan])
def test_stepper_config_needs_a_positive_finite_tolerance(tol):
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        StepperConfig(dt_max=0.1, tol=tol)
    with pytest.raises(ValueError, match="tol"):
        StepperConfig.from_dict({"dt_max": 0.1, "tol": tol})


def test_stepper_config_refuses_a_tolerance_under_splitting():
    with pytest.raises(ValueError, match="tol applies to rk4_adaptive only"):
        StepperConfig(dt_max=0.1, method=SPLIT, tol=1e-6)
    with pytest.raises(ValueError, match="tol"):
        StepperConfig.from_dict({"dt_max": 0.1, "method": SPLIT, "tol": 1e-6})


def test_stepper_config_names_a_tolerance_only_when_set():
    # a config without one serialises as before, so its hash is unchanged
    plain = StepperConfig(dt_max=0.5, safety=0.8)
    assert plain.tol is None and plain.to_dict() == {"dt_max": 0.5, "safety": 0.8}
    assert StepperConfig.from_dict({**plain.to_dict(), "tol": None}) == plain
    tight = StepperConfig(dt_max=8.0, safety=0.8, tol=1e-6)
    assert tight.to_dict() == {"dt_max": 8.0, "safety": 0.8, "tol": 1e-6}
    assert StepperConfig.from_dict(tight.to_dict()) == tight
    with pytest.raises(ValueError, match="tol must be a number"):
        StepperConfig.from_dict({"dt_max": 0.1, "tol": "1e-6"})


def test_stepper_config_reads_configs_with_an_unset_guard():
    cfg = StepperConfig.from_dict({"dt_max": 0.1, "d_guard": None})
    assert cfg == StepperConfig(dt_max=0.1)
    assert "d_guard" not in cfg.to_dict()


def test_integrate_rejects_dimension_mismatch():
    st = FlockState(0.0, [[0.0, 0.0]], [[1.0, 0.0]], [1.0])
    with pytest.raises(ValueError):
        integrate(st, FLAT, euclidean(1), StepperConfig(dt_max=0.1), 1.0,
                  ObserverSchedule("linear", spacing=1.0))
