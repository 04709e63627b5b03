"""Exact invariants of the flow, checked on random states, weights and kernels.

Momentum is conserved by a step, the variations V1, V2 and V4 do not grow
across a step, every pairwise diagnostic is unchanged by a Galilean boost
and by relabelling the agents, an antipodal pair on the circle sits at
separation +pi, and off that seam the minimal image is exactly
antisymmetric.  Each pair column of a record equals the dense oracle's
(N, N) form of it bit for bit.  The round-off bounds are
1e-11 of the velocity scale for momentum and 1e-9 relative for the
variations and the record columns.  A compact-kernel flock steps on its
carried pair set exactly as it steps from a copy, which carries nothing,
and as it steps using no set, and a one-block flock's field is the same
bit for bit on every list of pairs that holds those within the support.
"""

import contextlib
import math

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import dense_reference as dense
from flocklab import dynamics
from flocklab.diagnostics import (
    LyapunovConfig,
    LyapunovVariant,
    compute_record,
    corrector_circle,
    corrector_euclidean,
    lyapunov,
)
from flocklab.dynamics import (
    FlockState,
    StepperConfig,
    flock_diameter,
    min_separation,
    momentum,
    step,
    velocity_diameter,
)
from flocklab.geometry import TWO_PI, circle, displacement, euclidean
from flocklab.kernels import KernelKind, KernelSpec

PROPERTY = settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)

DOMAINS = (circle(), euclidean(1), euclidean(2))

# every column of a record that is a sum or extremum over pairs
PAIR_COLUMNS = ("V1", "V2", "V4", "I1", "I2", "I4", "G", "G3", "L", "C", "D", "dmin",
                "vdiam")

MIN_SEPARATION = 0.05  # keeps singular kernels away from the guard in one step


@st.composite
def kernels(draw):
    kind = draw(st.sampled_from(list(KernelKind)))
    lam = draw(st.floats(0.5, 2.0))
    r0 = draw(st.floats(0.2, 2.5))
    if kind is KernelKind.SINGULAR_POWER:
        beta = draw(st.sampled_from([0.0, 0.5, 1.5, 2.0, 2.5, 3.0]))
    else:
        beta = draw(st.floats(0.0, 3.0))
    moll = None
    if kind is KernelKind.LOCAL_MOLLIFIED:
        moll = draw(st.sampled_from([0.0, 0.1 * r0, r0]))
    return KernelSpec(kind, lam=lam, beta=beta, r0=r0, moll_width=moll)


@st.composite
def flocks(draw):
    domain = draw(st.sampled_from(DOMAINS))
    n = draw(st.integers(2, 6))
    d = domain.dim
    hi = TWO_PI if domain.periodic else 3.0
    coord = st.floats(0.0, hi, exclude_max=True)
    x = np.array(draw(st.lists(st.lists(coord, min_size=d, max_size=d),
                               min_size=n, max_size=n)))
    speed = st.floats(-2.0, 2.0)
    v = np.array(draw(st.lists(st.lists(speed, min_size=d, max_size=d),
                               min_size=n, max_size=n)))
    m = np.array(draw(st.lists(st.floats(0.2, 2.0), min_size=n, max_size=n)))
    t = draw(st.floats(0.0, 5.0))
    state = FlockState(t, x, v, m)
    assume(min_separation(state, domain) > MIN_SEPARATION)
    return domain, state


def _lyapunov_config(draw, domain, kernel):
    if domain.periodic:
        variant = draw(st.sampled_from([LyapunovVariant.CIRCLE_I,
                                        LyapunovVariant.CIRCLE_II,
                                        LyapunovVariant.CIRCLE_III]))
        return LyapunovConfig.defaults(variant, kernel)
    return LyapunovConfig(draw(st.sampled_from([LyapunovVariant.EUCLIDEAN_V2,
                                                LyapunovVariant.EUCLIDEAN_V4])))


def _assert_columns_close(rec, other):
    for name in PAIR_COLUMNS:
        a, b = getattr(rec, name), getattr(other, name)
        if math.isnan(a):
            assert math.isnan(b), name
        else:
            assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12), (name, a, b)


@PROPERTY
@given(flock=flocks(), kernel=kernels(), dt_max=st.floats(0.01, 0.5))
def test_step_conserves_momentum(flock, kernel, dt_max):
    domain, state = flock
    after = step(state, kernel, domain, StepperConfig(dt_max=dt_max))
    scale = 1.0 + float(np.max(np.abs(state.v)))
    drift = np.max(np.abs(momentum(after) - momentum(state)))
    assert drift <= 1e-11 * scale


@PROPERTY
@given(flock=flocks(), kernel=kernels(), dt_max=st.floats(0.01, 0.5))
def test_step_does_not_increase_variations(flock, kernel, dt_max):
    domain, state = flock
    after = step(state, kernel, domain, StepperConfig(dt_max=dt_max))
    before_rec = compute_record(state, kernel, domain)
    after_rec = compute_record(after, kernel, domain)
    for name in ("V1", "V2", "V4"):
        v0, v1 = getattr(before_rec, name), getattr(after_rec, name)
        assert v1 <= v0 * (1.0 + 1e-9) + 1e-20, (name, v0, v1)


@PROPERTY
@given(flock=flocks(), kernel=kernels(), data=st.data())
def test_record_pair_columns_are_galilean_invariant(flock, kernel, data):
    domain, state = flock
    cfg = _lyapunov_config(data.draw, domain, kernel)
    boost = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=domain.dim,
                                        max_size=domain.dim)))
    boosted = FlockState(state.t, state.x, state.v + boost, state.m)
    _assert_columns_close(compute_record(state, kernel, domain, cfg),
                          compute_record(boosted, kernel, domain, cfg))


@PROPERTY
@given(flock=flocks(), kernel=kernels(), data=st.data())
def test_record_pair_columns_are_permutation_invariant(flock, kernel, data):
    domain, state = flock
    cfg = _lyapunov_config(data.draw, domain, kernel)
    perm = np.array(data.draw(st.permutations(range(state.n))))
    shuffled = FlockState(state.t, state.x[perm], state.v[perm], state.m[perm])
    _assert_columns_close(compute_record(state, kernel, domain, cfg),
                          compute_record(shuffled, kernel, domain, cfg))


@PROPERTY
@given(flock=flocks(), kernel=kernels(), data=st.data())
def test_public_diagnostics_equal_their_record_columns(flock, kernel, data):
    domain, state = flock
    cfg = _lyapunov_config(data.draw, domain, kernel)
    rec = compute_record(state, kernel, domain, cfg)
    expected = dense.columns(state, kernel, domain, cfg)
    for name, value in expected.items():
        assert value == getattr(rec, name), (name, value, getattr(rec, name))
    assert tuple(momentum(state)) == rec.momentum
    # the public functions read the record, or its row blocks
    public = {"L": lyapunov(state, kernel, domain, cfg), "D": flock_diameter(state, domain),
              "vdiam": velocity_diameter(state), "dmin": min_separation(state, domain)}
    if domain.periodic:
        public["G"] = corrector_circle(state, kernel.r0)
    else:
        public["G"] = corrector_euclidean(state, kernel.r0, power=1)
        public["G3"] = corrector_euclidean(state, kernel.r0, power=3)
    for name, value in public.items():
        assert value == expected[name], (name, value, expected[name])


@PROPERTY
@given(k=st.integers(0, 25), others=st.lists(st.floats(0.0, TWO_PI, exclude_max=True),
                                              max_size=4))
def test_antipodal_pair_sits_at_plus_pi(k, others):
    # k/8 + pi is exact because the last three mantissa bits of pi are zero
    a = k / 8.0
    b = a + math.pi
    assert b - a == math.pi and b < TWO_PI
    dom = circle()
    assert displacement(dom, a, b) == math.pi
    assert displacement(dom, b, a) == math.pi
    x = np.array([a, b] + others)[:, None]
    n = x.shape[0]
    state = FlockState(0.0, x, np.zeros_like(x), np.full(n, 1.0 / n))
    rec = compute_record(state, KernelSpec(KernelKind.CLASSICAL_CS, beta=0.5), dom)
    assert rec.D == math.pi


@PROPERTY
@given(x=st.lists(st.floats(0.0, TWO_PI, exclude_max=True), min_size=2, max_size=8))
def test_minimal_image_is_antisymmetric(x):
    dom = circle()
    x = np.array(x)
    ab, ba = displacement(dom, x[0], x[1]), displacement(dom, x[1], x[0])
    assert ab == -ba or ab == ba == math.pi
    disp = displacement(dom, x[:, None], x[None, :])
    off_seam = disp != math.pi
    np.testing.assert_array_equal(disp[off_seam], -disp.T[off_seam])
    dist = dense.pair_distances(dom, x[:, None])
    np.testing.assert_array_equal(dist, dist.T)


# ---------------------------------------------------------------------------
# the pair set of a compact kernel


@contextlib.contextmanager
def _no_pair_set():
    """No pair set is used: each evaluation sums on the pairs of its own
    dense distance pass."""
    holds = dynamics._PairSet.holds
    dynamics._PairSet.holds = lambda self, x: False
    try:
        yield
    finally:
        dynamics._PairSet.holds = holds


def _same_state(a, b):
    return ((a.t, a.diss2, a.diss2_root) == (b.t, b.diss2, b.diss2_root)
            and all(getattr(a, k).tobytes() == getattr(b, k).tobytes() for k in "xvm"))


@st.composite
def compact_flocks(draw):
    """A local-kernel flock of one block or several, random weights, on the
    circle with a cluster across the seam or not, and velocities that move
    the fastest agent half the support radius, the skin, in dt_max."""
    domain = draw(st.sampled_from((circle(), euclidean(2))))
    n = draw(st.integers(2, 64) | st.integers(65, 140))
    r0 = draw(st.floats(0.05, 0.6))
    kernel = KernelSpec(KernelKind.LOCAL_MOLLIFIED, lam=draw(st.floats(0.5, 2.0)), r0=r0,
                        moll_width=draw(st.sampled_from([0.0, 0.1, 1.0])) * r0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if domain.periodic:
        x = rng.uniform(0.0, TWO_PI, size=(n, 1))
        if draw(st.booleans()):
            k = max(2, n // 4)
            x[:k, 0] = np.mod(rng.uniform(-r0, r0, size=k), TWO_PI)
    else:
        x = rng.uniform(0.0, draw(st.floats(0.5, 4.0)), size=(n, 2))
    cfg = StepperConfig(dt_max=draw(st.sampled_from([0.05, 0.5])), safety=0.8)
    v = rng.normal(0.0, 1.0, size=(n, domain.dim))
    v *= 0.5 * r0 / (cfg.dt_max * float(np.max(np.abs(v))))
    m = rng.uniform(0.5, 1.5, size=n)
    return domain, kernel, cfg, x, v, m / m.sum()


@settings(PROPERTY, max_examples=30)
@given(flock=compact_flocks())
def test_a_carried_pair_set_steps_as_a_copy_and_as_the_dense_field(flock):
    # a set is used while no agent lies past half the skin from where it
    # was built: at a twentieth of the skin per step it lasts many steps, at
    # 0.3 a few, at 0.45 the second step's stages pass its bound, and at 2
    # skins a set is built and then dropped at a stage; the step that uses
    # no set sums on each evaluation's own pairs, or on dense blocks
    domain, kernel, cfg, x, v, m = flock
    for skins in (0.05, 0.3, 0.45, 2.0):
        state = dense = FlockState(0.0, x, skins * v, m)
        for _ in range(5):
            fresh = step(state.copy(), kernel, domain, cfg)
            carried = step(state, kernel, domain, cfg)
            with _no_pair_set():
                dense = step(dense, kernel, domain, cfg)
            assert _same_state(carried, fresh) and _same_state(carried, dense), skins
            state = carried


@st.composite
def one_block_flocks(draw):
    """A local-kernel flock of one block at the positions of an evaluation,
    on the circle or in the plane, the smooth kernel or its step form: agent
    1 lies exactly r0 from agent 0, agents may share a velocity, and on the
    circle agents may lie whole turns off the chart, as unwrapped stage
    positions do.  With two moves that keep every agent within a quarter of
    the skin."""
    domain = draw(st.sampled_from((circle(), euclidean(2))))
    n, dim = draw(st.integers(2, 64)), domain.dim
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(0.0, TWO_PI if domain.periodic else draw(st.floats(0.5, 4.0)), size=(n, dim))
    if domain.periodic and draw(st.booleans()):
        x += TWO_PI * rng.integers(-1, 2, size=(n, 1))
    x[1] = x[0]
    x[1, 0] = x[0, 0] + draw(st.floats(0.05, 0.6))
    r0 = float(x[1, 0] - x[0, 0])  # the distance the pair field forms, exactly
    kernel = KernelSpec(KernelKind.LOCAL_MOLLIFIED, lam=draw(st.floats(0.5, 2.0)), r0=r0,
                        moll_width=draw(st.sampled_from([None, 0.0])))
    v = rng.normal(0.0, 1.0, size=(n, dim))
    if draw(st.booleans()):
        v[:draw(st.integers(2, n))] = v[0]
    m = rng.uniform(0.5, 1.5, size=n)
    quarter = 0.25 * dynamics._SKIN * r0 / math.sqrt(dim)
    moves = [rng.uniform(-quarter, quarter, size=x.shape) for _ in range(2)]
    return domain, kernel, x, v, m / m.sum(), moves


@PROPERTY
@given(flock=one_block_flocks())
def test_every_pair_list_sums_to_the_same_field(flock):
    # a pair beyond the support adds an exact +-0 to each agent's sum, so
    # the field is the same bit for bit on a set built where it is
    # evaluated, on one built at positions moved within half the skin, on
    # no set (the pairs of the evaluation's own distance pass, within the
    # radius, or within the skin's reach on a first pass) and on every pair
    domain, kernel, x, v, m, moves = flock
    n = x.shape[0]

    def field(first, pairs=None):
        return dynamics._pair_field(x, v, m, kernel, domain, 0.0, False, first=first,
                                    pairs=pairs)

    sets = [dynamics._pair_field(x - move, v, m, kernel, domain, 0.0, False, first=True)[5]
            for move in [np.zeros_like(x), *moves]]
    sets.append(dynamics._PairSet(dynamics._candidates(np.zeros((n, n)), math.inf, m),
                                  math.inf, x))
    assert all(pairs.holds(x) for pairs in sets)
    assert sets[-1].pairs[0].size == n * (n - 1) // 2
    first = [field(True, pairs) for pairs in [None, *sets]]
    stages = [field(False, pairs) for pairs in [None, *sets]]
    acc, i2, stiff = first[0][:3]
    for out in first + stages:
        assert out[0].tobytes() == acc.tobytes() and out[1] == i2
    assert all(out[2] == stiff for out in first)
