"""Variation moments, correctors, assembled functionals, good sets, CSV."""

import math
import tracemalloc

import numpy as np
import pytest

import dense_reference as dense
from flocklab import diagnostics, geometry
from flocklab.diagnostics import (
    _euclidean_summands,
    DiagnosticsRecord,
    LyapunovConfig,
    LyapunovVariant,
    compute_record,
    corrector_circle,
    corrector_euclidean,
    energy_residual,
    good_set,
    lyapunov,
    lyapunov_constant_search,
    read_csv,
    write_csv,
)
from flocklab.dynamics import FlockState, Trajectory, initial_state
from flocklab.errors import (
    CollisionError,
    CSVFormatError,
    DomainMismatchError,
    InsufficientDataError,
)
from flocklab.geometry import TWO_PI, VELOCITY_SPACE, circle, euclidean
from flocklab.kernels import KernelKind, KernelSpec
from flocklab.harness import scenario

FLAT = KernelSpec(KernelKind.CLASSICAL_CS, lam=1.0, beta=0.0, r0=1.0)
LOCAL = KernelSpec(KernelKind.LOCAL_MOLLIFIED, lam=1.0, r0=0.1)
SINGULAR = KernelSpec(KernelKind.SINGULAR_POWER, lam=1.0, beta=2.5, r0=0.1)


def approach_pair():
    return FlockState(0.0, [[0.5], [-0.5]], [[-1.0], [1.0]], [0.5, 0.5])


# ---------------------------------------------------------------------------
# variation and dissipation: the record's V_p and I_p columns, and the oracle's

def _columns(state, kernel, domain):
    """The record's pair columns and the dense oracle's, which must agree."""
    rec = compute_record(state, kernel, domain)
    want = dense.columns(state, kernel, domain)
    for name, value in want.items():
        assert getattr(rec, name) == value, name
    return rec


def test_variation_pair():
    rec = _columns(approach_pair(), FLAT, euclidean(1))
    assert rec.V1 == pytest.approx(1.0)
    assert rec.V2 == pytest.approx(2.0)
    assert rec.V4 == pytest.approx(8.0)


def test_variation_three_agents():
    st = FlockState(0.0, [[0.0], [1.0], [2.0]], [[0.0], [1.0], [2.0]],
                    [1 / 3, 1 / 3, 1 / 3])
    assert _columns(st, FLAT, euclidean(1)).V2 == pytest.approx(4.0 / 3.0)


def test_variation_weighted():
    st = FlockState(0.0, [[0.5], [-0.5]], [[-1.0], [1.0]], [0.25, 0.75])
    assert _columns(st, FLAT, euclidean(1)).V2 == pytest.approx(2 * 0.25 * 0.75 * 4.0)


def _fsum_fourth_moments(state, kernel, domain):
    """V4 and I4 as math.fsum of the pair terms m_i m_j |v_i - v_j|**4 and
    4 m_i m_j phi_ij |v_i - v_j|**4, each term formed once through np.power
    of the norm of the velocity difference, the sum exact."""
    diff = state.v[:, None, :] - state.v[None, :, :]
    fourth = np.power(np.linalg.norm(diff, axis=-1), 4)
    terms = np.outer(state.m, state.m) * fourth
    phi = dense.pair_phi(kernel, dense.pair_distances(domain, state.x), state.t)
    return math.fsum(terms.ravel()), 4.0 * math.fsum((terms * phi).ravel())


@pytest.mark.parametrize("rough", [False, True], ids=["plain", "rough"])
@pytest.mark.parametrize("n", [2, 3, 64, 65, 130, 256])
@pytest.mark.parametrize("domain", [circle(), euclidean(1), euclidean(2)],
                         ids=["circle", "line", "plane"])
def test_fourth_moments_are_within_round_off_of_their_exact_sums(domain, n, rough):
    # every term is positive, so a sum whose terms are each within a few
    # units in the last place is within about n units of the exact sum, far
    # inside 1e-14 here; a rough state holds entries outside _ROOT_RANGE, so
    # on the circle its distances and speeds are square roots of squares
    st = initial_state(domain, n, seed=n, weight_mode="random")
    x, v = st.x.copy(), 3.0 * st.v
    if rough:
        x[0], v[-1] = 1e-300, 1e-300
        assert not diagnostics._plain_roots(x) and not diagnostics._plain_roots(v)
    x[1] = x[0] + 0.05  # within the local kernel's support, so I4 > 0
    state = FlockState(0.0, domain.wrap(x), v, st.m)
    for kernel in (LOCAL, FLAT):
        rec = compute_record(state, kernel, domain)
        v4, i4 = _fsum_fourth_moments(state, kernel, domain)
        assert v4 > 0.0 and i4 > 0.0
        assert abs(rec.V4 - v4) <= 1e-14 * v4, (kernel.kind, rec.V4 / v4 - 1.0)
        assert abs(rec.I4 - i4) <= 1e-14 * i4, (kernel.kind, rec.I4 / i4 - 1.0)


def test_dissipation_constant_kernel():
    # with phi == lam the kernel moment collapses to p * lam * V_p
    rec = _columns(approach_pair(), FLAT, euclidean(1))
    assert rec.I1 == pytest.approx(1.0)
    assert rec.I2 == pytest.approx(4.0)
    assert rec.I4 == pytest.approx(32.0)


def test_dissipation_minimal_image():
    kern = KernelSpec(KernelKind.LOCAL_MOLLIFIED, lam=1.0, r0=0.5, moll_width=0.0)
    st = FlockState(0.0, [[0.1], [2.0 * math.pi - 0.1]], [[1.0], [-1.0]], [0.5, 0.5])
    assert _columns(st, kern, circle()).I2 == pytest.approx(4.0)
    # read as Euclidean coordinates the pair is out of range
    assert _columns(st, kern, euclidean(1)).I2 == 0.0


def test_dissipation_collision_detected():
    sing = KernelSpec(KernelKind.SINGULAR_POWER, lam=1.0, beta=0.5)
    st = FlockState(0.0, [[1.0], [1.0]], [[0.0], [1.0]], [0.5, 0.5])
    with pytest.raises(CollisionError):
        compute_record(st, sing, euclidean(1))
    with pytest.raises(CollisionError):
        dense.dissipation(st, sing, euclidean(1), 2)


# ---------------------------------------------------------------------------
# correctors

def test_corrector_euclidean_values():
    st = approach_pair()
    assert corrector_euclidean(st, 2.0, 1) == pytest.approx(3.0)
    assert corrector_euclidean(st, 2.0, 3) == pytest.approx(12.0)
    receding = FlockState(0.0, [[0.5], [-0.5]], [[1.0], [-1.0]], [0.5, 0.5])
    assert corrector_euclidean(receding, 2.0, 1) == pytest.approx(1.0)
    far = FlockState(0.0, [[2.5], [-2.5]], [[-1.0], [1.0]], [0.5, 0.5])
    assert corrector_euclidean(far, 2.0, 1) == 0.0
    static = FlockState(0.0, [[0.5], [-0.5]], [[1.0], [1.0]], [0.5, 0.5])
    assert corrector_euclidean(static, 2.0, 1) == 0.0
    with pytest.raises(ValueError):
        corrector_euclidean(st, 2.0, 2)


def test_corrector_circle_values():
    st = FlockState(0.0, [[0.0], [2.0]], [[1.0], [0.0]], [0.5, 0.5])
    assert corrector_circle(st, 1.0) == pytest.approx(0.5 / (math.pi - 1.0))
    # coincident chart positions weight the pair by psi(0) = r0
    coincident = FlockState(0.0, [[1.0], [1.0]], [[0.0], [1.0]], [0.5, 0.5])
    assert corrector_circle(coincident, 1.0) == pytest.approx(0.5)
    aligned = FlockState(0.0, [[0.0], [2.0]], [[1.0], [1.0]], [0.5, 0.5])
    assert corrector_circle(aligned, 1.0) == 0.0


# ---------------------------------------------------------------------------
# assembled functionals

def test_lyapunov_euclidean_assembly():
    st = approach_pair()
    kern = KernelSpec(KernelKind.CLASSICAL_CS, lam=1.0, beta=0.5, r0=2.0)
    dom = euclidean(1)
    g = corrector_euclidean(st, 2.0, 1)
    g3 = corrector_euclidean(st, 2.0, 3)
    v1, v2 = dense.variation(st, 1), dense.variation(st, 2)
    n_eff = 1.0 / np.max(st.m)
    cfg2 = LyapunovConfig(LyapunovVariant.EUCLIDEAN_V2, a=0.5, b=0.25)
    assert lyapunov(st, kern, dom, cfg2) == pytest.approx(g + 0.5 * v2 + 0.25 * n_eff * v1)
    cfg4 = LyapunovConfig(LyapunovVariant.EUCLIDEAN_V4, a=0.5)
    assert lyapunov(st, kern, dom, cfg4) == pytest.approx(g3 + 0.5 * v2)


def test_lyapunov_circle_assembly():
    kern = KernelSpec(KernelKind.LOCAL_MOLLIFIED, lam=1.0, r0=1.0)
    st = FlockState(2.0, [[0.0], [2.0]], [[1.0], [0.0]], [0.5, 0.5])
    g = corrector_circle(st, 1.0)
    v1, v2 = dense.variation(st, 1), dense.variation(st, 2)
    got = lyapunov(st, kern, circle(),
                   LyapunovConfig(LyapunovVariant.CIRCLE_I, a=2.0, b=0.5, c=0.25))
    assert got == pytest.approx(g + 0.5 * 0.25 * 2.0 * v1 + 0.5 * 2.0 * v2 + 2.0 * v2)
    got_iii = lyapunov(st, kern, circle(),
                       LyapunovConfig(LyapunovVariant.CIRCLE_III, a=2.0, b=0.5))
    assert got_iii == pytest.approx(g + 0.5 * 2.0 * v2 + 2.0 * v2)


def test_lyapunov_domain_mismatch():
    st = approach_pair()
    with pytest.raises(DomainMismatchError):
        lyapunov(st, FLAT, euclidean(1), LyapunovConfig(LyapunovVariant.CIRCLE_I))
    circ = FlockState(0.0, [[0.0], [2.0]], [[1.0], [0.0]], [0.5, 0.5])
    with pytest.raises(DomainMismatchError):
        lyapunov(circ, FLAT, circle(), LyapunovConfig(LyapunovVariant.EUCLIDEAN_V2))


def test_lyapunov_config_defaults():
    kern = KernelSpec(KernelKind.LOCAL_MOLLIFIED, lam=2.0, r0=1.0)
    cfg = LyapunovConfig.defaults(LyapunovVariant.CIRCLE_I, kern)
    assert cfg.a == pytest.approx(math.pi / (2.0 * (math.pi - 1.0)))
    assert cfg.b == pytest.approx(1.0 / (math.pi - 1.0))
    assert cfg.c == 1.0
    flat_cfg = LyapunovConfig.defaults(LyapunovVariant.EUCLIDEAN_V2)
    assert (flat_cfg.a, flat_cfg.b, flat_cfg.c) == (1.0, 1.0, 1.0)
    with pytest.raises(DomainMismatchError):
        LyapunovConfig.defaults(LyapunovVariant.CIRCLE_II)
    wide = KernelSpec(KernelKind.LOCAL_MOLLIFIED, lam=1.0, r0=3.2)
    with pytest.raises(DomainMismatchError):
        LyapunovConfig.defaults(LyapunovVariant.CIRCLE_I, wide)
    with pytest.raises(ValueError):
        LyapunovConfig(LyapunovVariant.CIRCLE_I, a=0.0)
    with pytest.raises(ValueError):
        LyapunovConfig(LyapunovVariant.CIRCLE_I, a=math.nan)


def test_lyapunov_constant_search():
    t = np.linspace(0.0, 5.0, 11)
    v2 = np.exp(-t)
    recs = [
        DiagnosticsRecord(t=tk, V1=math.sqrt(v) * 2, V2=v, V4=v * v, I1=0, I2=0,
                          I4=0, G=0.5 * v, G3=v, L=math.nan, C=math.nan, D=1.0,
                          dmin=1.0, momentum=(0.0,), vdiam=1.0)
        for tk, v in zip(t, v2)
    ]
    cfg = lyapunov_constant_search(recs, LyapunovVariant.EUCLIDEAN_V2, 4.0,
                                   a_grid=[2.0], b_grid=[3.0])
    assert (cfg.a, cfg.b) == (2.0, 3.0)
    assert cfg.variant is LyapunovVariant.EUCLIDEAN_V2
    found = lyapunov_constant_search(recs, LyapunovVariant.CIRCLE_I, 4.0)
    series = [found.a * r.V2 + found.b * r.t * r.V2 + 0.5 * found.c * 4.0 * r.V1 + r.G
              for r in recs]
    assert all(b <= a + 1e-12 for a, b in zip(series, series[1:]))
    with pytest.raises(InsufficientDataError):
        lyapunov_constant_search(recs[:1], LyapunovVariant.EUCLIDEAN_V2, 4.0)


def _search_records(n, noise, trend, g3=True, seed=3):
    """n records of a decaying V2 around which G drifts by ``trend`` per unit
    time, with relative noise of size ``noise`` on V1, V2 and G."""
    rng = np.random.default_rng(seed)
    t = np.cumsum(rng.uniform(0.05, 0.2, n))
    v2 = np.exp(-0.5 * t) * (1.0 + noise * rng.standard_normal(n))
    v1 = np.sqrt(v2) * (1.0 + noise * rng.standard_normal(n))
    g = trend * t + noise * rng.standard_normal(n)
    g3 = g + 0.1 * v2 if g3 else np.full(n, math.nan)
    return [DiagnosticsRecord(t=a, V1=b, V2=c, V4=c * c, I1=0.0, I2=0.0, I4=0.0, G=d,
                              G3=e, L=math.nan, C=math.nan, D=1.0, dmin=1.0,
                              momentum=(0.0,), vdiam=1.0)
            for a, b, c, d, e in zip(t, v1, v2, g, g3)]


def _jump_records(n):
    """n records on which every functional descends but for one jump of G and
    G3 that no grid point offsets: every point counts one increasing step,
    and the largest constants make it smallest."""
    t = 3.0 + 0.1 * np.arange(n)  # t * exp(-t / 2) decreases past t = 2
    v2 = np.exp(-0.5 * t)
    g = np.where(np.arange(n) < n // 2, 0.0, 100.0)
    return [DiagnosticsRecord(t=a, V1=math.sqrt(c), V2=c, V4=c * c, I1=0.0, I2=0.0, I4=0.0,
                              G=d, G3=d, L=math.nan, C=math.nan, D=1.0, dmin=1.0,
                              momentum=(0.0,), vdiam=1.0)
            for a, c, d in zip(t, v2, g)]


def _search_by_point(records, variant, n_eff, a_grid=None, b_grid=None, c_grid=None,
                     tol=0.0):
    """The constant search one grid point at a time, as first written, with
    the winning key, the winner's place in the grid and the place of the
    first point with the winner's count."""
    columns = [np.array([getattr(r, k) for r in records]) for k in ("t", "G", "G3", "V1", "V2")]
    a_grid = np.geomspace(1e-2, 1e2, 17) if a_grid is None else a_grid
    b_grid = np.geomspace(1e-3, 1e2, 21) if b_grid is None else b_grid
    c_grid = np.geomspace(1e-3, 1e2, 11) if c_grid is None else c_grid
    uses_b = variant is not LyapunovVariant.EUCLIDEAN_V4
    uses_c = variant is LyapunovVariant.CIRCLE_I
    best, counts = None, []
    for a in np.atleast_1d(a_grid):
        for b in np.atleast_1d(b_grid) if uses_b else (1.0,):
            for c in np.atleast_1d(c_grid) if uses_c else (1.0,):
                series = diagnostics._assemble_lyapunov(variant, a, b, c, n_eff, *columns)
                jumps = np.diff(series)
                allowance = tol * (1.0 + abs(series[0]))
                bad = jumps > allowance
                key = (int(np.count_nonzero(bad)), float(jumps[bad].sum()))
                counts.append(key[0])
                if best is None or key < best[0]:
                    best = (key, LyapunovConfig(variant, a=a, b=b, c=c), len(counts) - 1)
    return best[1], best[0], best[2], counts.index(best[0][0])


def _assert_search_by_point(records, variant, **kwargs):
    """The array search equals the point-by-point one: the same a, b and c,
    as hex and as type.  Returns the point-by-point key, winner and first tie."""
    want, *rest = _search_by_point(records, variant, 4.0, **kwargs)
    got = lyapunov_constant_search(records, variant, 4.0, **kwargs)
    assert got.variant is want.variant
    for name in ("a", "b", "c"):
        a, b = getattr(got, name), getattr(want, name)
        assert (float(a).hex(), type(a)) == (float(b).hex(), type(b)), name
    return rest


@pytest.mark.parametrize("variant", list(LyapunovVariant))
def test_constant_search_equals_the_search_by_point(variant):
    # ties at count 0: the first point that descends wins, past the corner
    key, won, first = _assert_search_by_point(_search_records(30, 0.0, 0.02), variant)
    assert key == (0, 0.0) and won == first > 0
    # every point at count 1: the tie is broken by the total, for the last point
    jump = _jump_records(30)
    key, won, first = _assert_search_by_point(jump, variant)
    assert key[0] == 1 and won > first == 0
    _assert_search_by_point(jump, variant, tol=0.5)
    # noisy series, whose lowest count is first reached past the corner
    noisy = _search_records(30, 0.02, 0.0)
    key, won, first = _assert_search_by_point(noisy, variant)
    assert key[0] > 0 and first > 0
    _assert_search_by_point(noisy, variant, tol=1e-3)
    # a nan G3 (read only by euclidean_v4, whose every increment is then nan)
    key = _assert_search_by_point(_search_records(30, 0.02, 0.0, g3=False), variant)[0]
    assert key == (0, 0.0) if variant is LyapunovVariant.EUCLIDEAN_V4 else key[0] > 0
    # list grids, ints among them, in no particular order, and a scalar
    _assert_search_by_point(noisy, variant, a_grid=[2, 0.5, 1.0, 8],
                            b_grid=[3.0, 0.01, 1], c_grid=[1.0, 0.2])
    _assert_search_by_point(jump, variant, a_grid=4.0, b_grid=[0.5], c_grid=[2.0])


@pytest.mark.parametrize("variant", list(LyapunovVariant))
def test_constant_search_in_several_chunks(monkeypatch, variant):
    # chunks of 3 grid points: a later chunk reaches a lower count than the
    # first one, and a tie at count 1 is broken across chunks
    monkeypatch.setattr(diagnostics, "_SEARCH_ELEMENTS", 3 * 30)
    key, won, first = _assert_search_by_point(_search_records(30, 0.02, 0.0), variant)
    assert key[0] > 0 and first // 3 > 0
    key, won, first = _assert_search_by_point(_jump_records(30), variant)
    assert key[0] == 1 and won // 3 > first // 3
    key, won, first = _assert_search_by_point(_search_records(30, 0.0, 0.02), variant)
    assert key == (0, 0.0) and won // 3 > 0


def test_constant_search_of_many_records_needs_several_chunks():
    records = _search_records(300, 0.005, 0.0)
    rows = diagnostics._SEARCH_ELEMENTS // len(records)
    assert rows < 17 * 21 * 11  # the circle_i grid
    key, won, first = _assert_search_by_point(records, LyapunovVariant.CIRCLE_I)
    assert key[0] > 0 and won // rows > 0


# ---------------------------------------------------------------------------
# collision potential

def _singular(beta):
    return KernelSpec(KernelKind.SINGULAR_POWER, lam=1.0, beta=beta, r0=1.0)


def test_collision_potential_values():
    # the record's C column under a singular kernel of exponent beta and range r0
    st = FlockState(0.0, [[0.25], [-0.25]], [[0.0], [0.0]], [0.5, 0.5])
    dom = euclidean(1)
    assert _columns(st, _singular(3.0), dom).C == pytest.approx(1.0)
    assert _columns(st, _singular(2.0), dom).C == pytest.approx(0.5 * math.log(0.5))
    # separations beyond r0 are truncated at r0
    wide = FlockState(0.0, [[1.5], [-1.5]], [[0.0], [0.0]], [0.5, 0.5])
    assert _columns(wide, _singular(3.0), dom).C == pytest.approx(0.5)
    # below beta = 2 there is no collision potential
    assert math.isnan(compute_record(st, _singular(1.9), dom).C)
    touching = FlockState(0.0, [[1.0], [1.0]], [[0.0], [0.0]], [0.5, 0.5])
    with pytest.raises(CollisionError):
        compute_record(touching, _singular(3.0), dom)
    with pytest.raises(CollisionError):
        dense.collision_potential(touching, dom, 3.0, 1.0)


# ---------------------------------------------------------------------------
# energy balance

def _balance_record(t, v2, i2, i2_int=math.nan):
    return DiagnosticsRecord(t=t, V1=0, V2=v2, V4=0, I1=0, I2=i2, I4=0, G=0,
                             G3=0, L=math.nan, C=math.nan, D=0, dmin=1.0,
                             momentum=(0.0,), vdiam=0, I2_int=i2_int)


def test_energy_residual_trapezoid_fallback():
    recs = [
        _balance_record(0.0, 2.0, 0.5),
        _balance_record(1.0, 1.5, 0.5),
        _balance_record(2.0, 1.25, 0.25),
    ]
    assert energy_residual(recs) == pytest.approx(0.125)


def test_energy_residual_prefers_accumulated_column():
    recs = [
        _balance_record(0.0, 2.0, 0.5, i2_int=0.0),
        _balance_record(1.0, 1.5, 0.5, i2_int=0.5),
        _balance_record(2.0, 1.25, 0.25, i2_int=0.75),
    ]
    assert energy_residual(recs) == 0.0
    with pytest.raises(InsufficientDataError):
        energy_residual(recs[:1])


# ---------------------------------------------------------------------------
# good sets

@pytest.fixture(scope="module")
def vacuum_run():
    cfg = scenario("vacuum-gap-torus", horizon=50.0)
    return cfg, cfg.run()


def test_good_set_epsilon_identity(vacuum_run):
    cfg, traj = vacuum_run
    rep = good_set(traj, cfg.kernel, cfg.domain, 0.0, 1.0)
    t = traj.t()
    flux = float(np.trapezoid(traj.column("I2"), t)) / 2.0
    assert rep.epsilon == pytest.approx(flux, rel=1e-12)
    assert rep.complement_mass <= rep.epsilon / rep.delta + 1e-15


def test_good_set_discriminates_delta(vacuum_run):
    cfg, traj = vacuum_run
    probe = good_set(traj, cfg.kernel, cfg.domain, 0.0, 1.0)
    lo, hi = np.percentile(probe.F, [30.0, 70.0])
    small = good_set(traj, cfg.kernel, cfg.domain, 0.0, float(lo))
    big = good_set(traj, cfg.kernel, cfg.domain, 0.0, float(hi))
    assert small.members.size < big.members.size
    assert set(small.members).issubset(set(big.members))
    assert small.member_velocity_spread <= big.member_velocity_spread + 1e-15
    assert small.complement_mass > big.complement_mass


def test_good_set_validation(vacuum_run):
    cfg, traj = vacuum_run
    with pytest.raises(ValueError):
        good_set(traj, cfg.kernel, cfg.domain, 0.0, 0.0)
    with pytest.raises(InsufficientDataError):
        good_set(traj, cfg.kernel, cfg.domain, 1e9, 1.0)


def test_good_set_of_one_block_equals_the_dense_oracle(vacuum_run):
    # 48 agents, one row block: F is the dense row sum bit for bit
    cfg, traj = vacuum_run
    rep = good_set(traj, cfg.kernel, cfg.domain, 10.0, 1.0)
    np.testing.assert_array_equal(rep.F, dense.forward_dissipation(traj, cfg.kernel,
                                                                   cfg.domain, 10.0))


def _sampled_flock(domain, n, times):
    """Stored states of n agents at the given times: one set of random
    weights, positions and velocities drawn afresh for each sample."""
    m = initial_state(domain, n, seed=n, weight_mode="random").m
    states = []
    for k, t in enumerate(times):
        st = initial_state(domain, n, seed=100 * n + k)
        states.append(FlockState(t, st.x, st.v, m))
    return Trajectory(states=states)


@pytest.mark.parametrize("kernel", [LOCAL, SINGULAR], ids=["local", "singular"])
@pytest.mark.parametrize("n", [130, 257])
@pytest.mark.parametrize("domain", [circle(), euclidean(2)], ids=["circle", "plane"])
def test_good_set_of_several_blocks_matches_the_dense_oracle(domain, n, kernel):
    # rows a:b add their own rows' sums and, transposed, the columns' past
    # the block; only the summation order differs from the dense row sums
    traj = _sampled_flock(domain, n, [0.0, 0.5, 1.5])
    want = dense.forward_dissipation(traj, kernel, domain, 0.5)
    rep = good_set(traj, kernel, domain, 0.5, float(np.median(want)))
    np.testing.assert_allclose(rep.F, want, rtol=1e-12, atol=0.0)
    assert np.count_nonzero(want) > n // 2
    assert 0 < rep.members.size < n
    vm = traj.states[-1].v[rep.members]
    assert rep.member_velocity_spread == float(np.max(dense.pair_distances(VELOCITY_SPACE, vm)))


def test_good_set_names_the_first_coincident_pair():
    # under a singular kernel two coincident agents are a collision, named
    # by the first such pair in row-major order: here in the second block of
    # rows, at the second sample
    traj = _sampled_flock(circle(), 200, [0.0, 1.0, 2.0])
    x = traj.states[1].x
    for i, j in ((70, 120), (100, 170), (150, 80)):
        x[j] = x[i].copy()
    with pytest.raises(CollisionError) as err:
        good_set(traj, SINGULAR, circle(), 0.0, 1.0)
    assert err.value.pair == (70, 120) and err.value.t == 1.0 and err.value.distance == 0.0
    with pytest.raises(CollisionError) as dense_err:
        dense.forward_dissipation(traj, SINGULAR, circle(), 0.0)
    assert dense_err.value.pair == err.value.pair
    # a smooth kernel has no collision
    assert good_set(traj, LOCAL, circle(), 0.0, 1.0).F.shape == (200,)


# ---------------------------------------------------------------------------
# records and CSV

def test_compute_record_pair():
    rec = compute_record(approach_pair(), FLAT, euclidean(1))
    assert rec.V1 == pytest.approx(1.0)
    assert rec.V2 == pytest.approx(2.0)
    assert rec.V4 == pytest.approx(8.0)
    assert rec.I1 == pytest.approx(1.0)
    assert rec.I2 == pytest.approx(4.0)
    assert rec.I4 == pytest.approx(32.0)
    assert rec.G == pytest.approx(2.0)
    assert rec.G3 == pytest.approx(8.0)
    assert rec.D == 1.0 and rec.dmin == 1.0
    assert rec.vdiam == pytest.approx(2.0)
    assert rec.momentum == (0.0,)
    assert math.isnan(rec.L) and math.isnan(rec.C)
    assert rec.I2_int == 0.0


def test_compute_record_collision_potential_column():
    kern = KernelSpec(KernelKind.SINGULAR_POWER, lam=1.0, beta=3.0, r0=1.0)
    rec = compute_record(approach_pair(), kern, euclidean(1))
    assert rec.C == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# records of many agents, summed over row blocks

def _record_config(domain):
    if domain.periodic:
        return LyapunovConfig.defaults(LyapunovVariant.CIRCLE_I, LOCAL)
    return LyapunovConfig(LyapunovVariant.EUCLIDEAN_V4)


def _blocked_case(domain, n):
    """Random weights, a close pair with equal velocities (which the
    correctors leave out) and, on the circle, agents on both sides of the seam."""
    st = initial_state(domain, n, seed=n, weight_mode="random")
    x, v = st.x.copy(), st.v.copy()
    if domain.periodic:
        x[:6, 0] = [0.0, 1e-3, 0.04, TWO_PI - 1e-9, TWO_PI - 0.03, TWO_PI - 0.08]
    else:
        x[1] = x[0] + 0.01
    v[1] = v[0]
    return FlockState(0.5, x, v, st.m)


@pytest.mark.parametrize("n", [128, 130, 257, 512])
@pytest.mark.parametrize("domain", [circle(), euclidean(1), euclidean(2)],
                         ids=["circle", "line", "plane"])
def test_blocked_record_matches_the_dense_reference(domain, n):
    state = _blocked_case(domain, n)
    cfg = _record_config(domain)
    rec = compute_record(state, LOCAL, domain, cfg)
    ref = dense.columns(state, LOCAL, domain, cfg)
    for name, want in ref.items():
        assert getattr(rec, name) == want, name
    assert math.isnan(rec.C) and math.isnan(rec.G3) == domain.periodic
    assert ref["V1"] > 0.0 and ref["I2"] > 0.0 and ref["G"] > 0.0


@pytest.mark.parametrize("domain", [circle(), euclidean(2)], ids=["circle", "plane"])
def test_blocked_record_with_a_block_wholly_inside_the_support(domain):
    # the last block, agents 128 and 129 within r0 of each other, has no pair
    # outside the support and forms phi on the whole block; the others form
    # it only inside
    state = _blocked_case(domain, 130)
    state.x[128], state.x[129] = 1.0, 1.05
    assert dense.pair_distances(domain, state.x[128:]).max() < LOCAL.r0
    cfg = _record_config(domain)
    rec = compute_record(state, LOCAL, domain, cfg)
    for name, want in dense.columns(state, LOCAL, domain, cfg).items():
        assert getattr(rec, name) == want, name


@pytest.mark.parametrize("periods", [(-1, 1), (-3, 2), (0, 5)], ids=["one", "negative", "far"])
@pytest.mark.parametrize("n", [64, 130])
def test_blocked_record_of_an_off_chart_state_matches_the_dense_reference(n, periods):
    # positions shifted by 2*pi k, k drawn per agent: the range bound a
    # record passes its folds spans several periods, and every column is
    # the dense oracle's, which reduces through np.mod, bit for bit
    state = _blocked_case(circle(), n)
    k = np.random.default_rng(n).integers(periods[0], periods[1], endpoint=True, size=n)
    x = state.x + TWO_PI * k[:, None]
    assert (x.min() < 0.0) == (periods[0] < 0) and x.max() - x.min() >= TWO_PI
    shifted = FlockState(state.t, x, state.v, state.m)
    cfg = _record_config(circle())
    rec = compute_record(shifted, LOCAL, circle(), cfg)
    for name, want in dense.columns(shifted, LOCAL, circle(), cfg).items():
        assert getattr(rec, name) == want, name
    assert rec.G > 0.0 and rec.I2 > 0.0


def test_record_of_one_block_equals_the_public_diagnostics():
    # a record sums every column, I_p included, over its own row blocks; a
    # state of one block equals the dense oracle bit for bit, and so do the
    # public corrector and functional, which read the record
    small = initial_state(circle(), 64, seed=1, weight_mode="random")
    cfg = _record_config(circle())
    rec = compute_record(small, LOCAL, circle(), cfg)
    for name, want in dense.columns(small, LOCAL, circle(), cfg).items():
        assert getattr(rec, name) == want, name
    assert corrector_circle(small, LOCAL.r0) == rec.G
    assert lyapunov(small, LOCAL, circle(), cfg) == rec.L
    lattice = initial_state(circle(), 256, kind="lattice_circle", seed=1)
    assert math.isfinite(compute_record(lattice, SINGULAR, circle()).I2)
    for domain in (circle(), euclidean(2)):
        assert compute_record(initial_state(domain, 128, seed=1), LOCAL, domain).I2 > 0.0


def _lattice(n, copy=None):
    """A circle lattice of n agents, agent copy[1] moved onto agent copy[0]."""
    st = initial_state(circle(), n, kind="lattice_circle", seed=2, weight_mode="random")
    if copy is not None:
        st.x[copy[1]] = st.x[copy[0]]
    return st


def test_blocked_record_names_the_first_coincident_pair():
    # the pair lies in the second block of rows, its column in the fourth
    state = _lattice(256, copy=(70, 200))
    expected = dense.nearest_pair(dense.pair_distances(circle(), state.x))[1]
    assert expected == (70, 200)
    with pytest.raises(CollisionError) as err:
        compute_record(state, SINGULAR, circle())
    assert err.value.pair == expected and err.value.distance == 0.0


def test_blocked_record_collision_potential():
    state = _lattice(256)
    rec = compute_record(state, SINGULAR, circle())
    assert rec.C == dense.collision_potential(state, circle(), SINGULAR.beta, SINGULAR.r0)
    assert rec.I2 == dense.dissipation(state, SINGULAR, circle(), 2)


def test_blocked_record_peak_memory():
    n = 2048
    for kernel, state in ((LOCAL, initial_state(circle(), n, seed=3)), (SINGULAR, _lattice(n))):
        tracemalloc.start()
        try:
            compute_record(state, kernel, circle(), _record_config(circle()))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8, kernel.kind  # one (N, N) float64 array


# ---------------------------------------------------------------------------
# records of the states of one run, in chunks of stacked states

def _run_states(domain, n, count=5):
    """``count`` states of n agents sharing their weights, as the states of one
    run do, at times 0, 0.5, 1, ...; state 1 is drawn into a cluster of
    width 0.02, so under the local kernel its blocks lie inside the support
    and the others' do not."""
    states = _sampled_flock(domain, n, [0.5 * k for k in range(count)]).states
    x = states[1].x
    states[1].x = domain.wrap(x[0] + 0.02 * (x - x[0]) / max(1.0, np.abs(x - x[0]).max()))
    return states


def _rows(records):
    return np.array([r.to_row() for r in records]).view(np.int64)


@pytest.mark.parametrize("kernel", [LOCAL, KernelSpec(KernelKind.LOCAL_MOLLIFIED, r0=3.0),
                                    FLAT, SINGULAR], ids=["local", "wide", "flat", "singular"])
@pytest.mark.parametrize("n", [1, 2, 64, 65, 130])
@pytest.mark.parametrize("domain", [circle(), euclidean(1), euclidean(2)],
                         ids=["circle", "line", "plane"])
def test_records_in_chunks_equal_the_records_of_one_state(monkeypatch, domain, n, kernel):
    # a chunk of K states is one pass over the stacked blocks; each record
    # is the one its state gives alone, bit for bit, whether a chunk masks
    # phi or forms it on the whole block, holds one state or all, or ends
    # the run part full
    states = _run_states(domain, n)
    cfg = _record_config(domain)
    alone = [compute_record(s, kernel, domain, cfg) for s in states]
    assert [r.t for r in alone] == [s.t for s in states]
    per_state = min(n, diagnostics._RECORD_BLOCK) * n
    for size in (1, 2, len(states)):  # 5 states: 5 chunks, 2 + 2 + 1, one chunk
        monkeypatch.setattr(diagnostics, "_RECORD_ELEMENTS", size * per_state)
        assert diagnostics._chunk_states(n) == size
        chunked = diagnostics._records(states, kernel, domain, cfg, None)
        np.testing.assert_array_equal(_rows(chunked), _rows(alone))
        # a column no record forms is math.nan itself, so rows compare equal
        # even as lists
        assert [r.to_row() for r in chunked] == [r.to_row() for r in alone]
    if n > 1 and kernel is SINGULAR:
        assert all(math.isfinite(r.C) for r in alone)
    if not domain.periodic and n > 1:
        assert any(r.G3 > 0.0 for r in alone)


def test_chunk_sizes_follow_the_element_budget():
    budget = diagnostics._RECORD_ELEMENTS
    assert diagnostics._chunk_states(32) == budget // 1024
    assert diagnostics._chunk_states(64) == budget // 4096
    assert diagnostics._chunk_states(2048) == 1  # one state's blocks exceed the budget


@pytest.mark.parametrize("n", [40, 130])
def test_a_chunk_names_the_collision_of_its_first_colliding_state(monkeypatch, n):
    # state 3 has a coincident pair in the first block of rows, state 2 one
    # in a later block (when there is one): a chunk of all five raises what
    # state 2 raises alone, not what the first block finds
    states = _run_states(circle(), n)
    pairs = {2: (n - 3, n - 1), 3: (0, 5)}
    for k, (i, j) in pairs.items():
        states[k].x[j] = states[k].x[i]
    monkeypatch.setattr(diagnostics, "_RECORD_ELEMENTS", len(states) * n * n)
    assert diagnostics._chunk_states(n) >= len(states)
    with pytest.raises(CollisionError) as alone:
        compute_record(states[2], SINGULAR, circle())
    with pytest.raises(CollisionError) as chunk:
        diagnostics._records(states, SINGULAR, circle(), None, None)
    assert chunk.value.pair == alone.value.pair == pairs[2]
    assert chunk.value.t == alone.value.t == states[2].t and chunk.value.distance == 0.0
    # good_set sums on the same stacked blocks and names the same pair
    with pytest.raises(CollisionError) as forward:
        good_set(Trajectory(states=states), SINGULAR, circle(), 0.0, 1.0)
    assert forward.value.pair == pairs[2] and forward.value.t == states[2].t
    # a smooth kernel has no collision, and F is the one of each state alone
    monkeypatch.setattr(diagnostics, "_RECORD_ELEMENTS", n * min(n, 64))
    one = good_set(Trajectory(states=states), LOCAL, circle(), 0.0, 1.0).F
    monkeypatch.setattr(diagnostics, "_RECORD_ELEMENTS", len(states) * n * n)
    np.testing.assert_array_equal(good_set(Trajectory(states=states), LOCAL, circle(), 0.0,
                                           1.0).F, one)


STACK_N = 150  # three row blocks, the last of 22 rows
CLASSICAL = KernelSpec(KernelKind.CLASSICAL_CS, lam=1.5, beta=1.5, r0=1.0)


def _stack_states(domain):
    """Four states of STACK_N agents sharing their weights, at times 0,
    0.25, 0.5 and 0.75: state 0's velocities are so small that their
    differences' squares underflow, state 2's are all equal, and on the
    circle state 3's positions lie off the chart, up to two periods away."""
    m = initial_state(domain, STACK_N, seed=7, weight_mode="random").m
    states = [FlockState(0.25 * k, st.x, st.v, m)
              for k, st in enumerate(initial_state(domain, STACK_N, seed=70 + k)
                                     for k in range(4))]
    states[0].v *= 1e-160
    states[2].v[:] = states[2].v[0]
    if domain.periodic:
        periods = np.random.default_rng(3).integers(-2, 3, size=(STACK_N, 1))
        states[3].x += TWO_PI * periods
    return states


@pytest.mark.parametrize("kernel", [LOCAL, SINGULAR, CLASSICAL],
                         ids=["local", "singular", "classical"])
@pytest.mark.parametrize("domain", [circle(), euclidean(2)], ids=["circle", "plane"])
def test_a_stack_of_three_states_over_three_blocks(monkeypatch, domain, kernel):
    # chunks of three stacked states over three blocks, the last partial,
    # in the work arrays of one call: every record is the dense oracle's and
    # the one its state gives alone, bit for bit.  The first chunk holds the
    # state whose squared speed differences underflow, so on the circle it
    # forms every speed and distance as the root of its square, while the
    # states alone form them as magnitudes
    states = _stack_states(domain)
    cfg = _record_config(domain)
    monkeypatch.setattr(diagnostics, "_RECORD_ELEMENTS",
                        3 * diagnostics._RECORD_BLOCK * STACK_N)
    assert diagnostics._chunk_states(STACK_N) == 3
    chunked = diagnostics._records(states, kernel, domain, cfg, None)
    alone = [compute_record(s, kernel, domain, cfg) for s in states]
    np.testing.assert_array_equal(_rows(chunked), _rows(alone))
    for state, rec in zip(states, chunked):
        for name, want in dense.columns(state, kernel, domain, cfg).items():
            assert getattr(rec, name) == want, name
    # one velocity: no pair contributes, and G is +0.0
    assert chunked[2].G == 0.0 and math.copysign(1.0, chunked[2].G) == 1.0
    assert chunked[2].V2 == 0.0 and chunked[2].I2 == 0.0 and chunked[1].G > 0.0
    assert all(math.isfinite(r.C) for r in chunked) == (kernel is SINGULAR)
    if domain.periodic:
        v = states[0].v[:, 0]
        dv = v[:, None] - v[None, :]
        assert not diagnostics._plain_roots(v) and (np.sqrt(dv * dv) != np.abs(dv)).any()
        assert diagnostics._plain_roots(states[3].x) and np.ptp(states[3].x) > 2.0 * TWO_PI


@pytest.mark.parametrize("domain", [circle(), euclidean(2)], ids=["circle", "plane"])
def test_a_stack_names_a_coincident_pair_in_its_last_block(monkeypatch, domain):
    # the second state of the chunk has a coincident pair in the third block
    # of rows: the chunk raises what that state raises alone
    states = _stack_states(domain)[1:]
    states[1].x[145] = states[1].x[131]
    assert dense.nearest_pair(dense.pair_distances(domain, states[1].x))[1] == (131, 145)
    monkeypatch.setattr(diagnostics, "_RECORD_ELEMENTS",
                        3 * diagnostics._RECORD_BLOCK * STACK_N)
    with pytest.raises(CollisionError) as chunk:
        diagnostics._records(states, SINGULAR, domain, None, None)
    with pytest.raises(CollisionError) as alone:
        compute_record(states[1], SINGULAR, domain)
    assert chunk.value.pair == alone.value.pair == (131, 145)
    assert chunk.value.t == alone.value.t == states[1].t and chunk.value.distance == 0.0


# ---------------------------------------------------------------------------
# summands formed only where they can be nonzero, against their full forms

def _edge_state(domain):
    """Agents 0, 1 and 2 at 0, r0 and 2*r0 along axis 0 (r0 = 0.1, so pairs
    lie at exactly r0 and 2*r0), the rest at random; agents 0 and 1, and 5
    and 6, share a velocity."""
    rng = np.random.default_rng(domain.dim)
    n = 40
    x = rng.uniform(0.0, 1.0, size=(n, domain.dim))
    x[:3] = 0.0
    x[:3, 0] = [0.0, 0.1, 0.2]
    v = rng.normal(size=(n, domain.dim))
    v[1], v[6] = v[0], v[5]
    m = rng.uniform(0.5, 1.5, n)
    state = FlockState(0.25, x, v, m / m.sum())
    dist = dense.pair_distances(domain, state.x)
    assert (dist == 0.1).any() and (dist == 0.2).any()
    return state


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_euclidean_summands_equal_their_full_form(dim):
    # chi is 0 from 2*r0 on, so the summands formed below it are the full ones;
    # the summands take a stack of states, here of one
    state = _edge_state(euclidean(dim))
    x, v = state.x, state.v
    speed = dense.pair_distances(geometry.VELOCITY_SPACE, v)
    for r0 in (0.1, 0.05, 2.0):
        for diagonal in (0.0, math.inf):  # the oracle's and a record's
            dist = dense.pair_distances(euclidean(dim), x)
            np.fill_diagonal(dist, diagonal)
            summands = _euclidean_summands(x[None], x[None], v[None], v[None], dist[None],
                                           speed[None], r0, (1, 3))
            for power, got in zip((1, 3), summands):
                want = dense.euclidean_summand(x, x, v, v, dist, speed, r0, power)
                np.testing.assert_array_equal(got[0].view(np.int64), want.view(np.int64))
    # rows against the columns from the block's first row on
    dist, k = dense.pair_distances(euclidean(dim), x)[5:], 5
    got = next(_euclidean_summands(x[None, k:], x[None], v[None, k:], v[None], dist[None],
                                   speed[None, k:], 0.1, (3,)))
    want = dense.euclidean_summand(x[k:], x, v[k:], v, dist, speed[k:], 0.1, 3)
    np.testing.assert_array_equal(got[0].view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("kernel", [
    LOCAL,
    KernelSpec(KernelKind.LOCAL_MOLLIFIED, lam=2.0, r0=0.1, moll_width=0.0),
    KernelSpec(KernelKind.LOCAL_MOLLIFIED, lam=1.0, r0=0.2, moll_width=0.2),
    KernelSpec(KernelKind.LOCAL_MOLLIFIED, lam=1.0, r0=3.0),
    FLAT,
    KernelSpec(KernelKind.CLASSICAL_CS, lam=1.5, beta=1.5, r0=1.0),
    SINGULAR,
    KernelSpec(KernelKind.SINGULAR_POWER, lam=2.0, beta=0.0, r0=0.1),
    KernelSpec(KernelKind.ANNULAR, lam=1.0, beta=0.0, r0=0.1),
    KernelSpec(KernelKind.ANNULAR, lam=1.0, beta=1.0, r0=0.1),
    KernelSpec(KernelKind.CONSTANT_NEAR_ZERO, lam=1.0, beta=0.0, r0=0.1),
    KernelSpec(KernelKind.CONSTANT_NEAR_ZERO, lam=1.0, beta=2.0, r0=0.1),
], ids=["local", "sharp", "full-ramp", "wide", "flat", "classical", "singular", "singular-0",
        "annular-0", "annular", "near-zero-0", "near-zero"])
@pytest.mark.parametrize("domain", [circle(), euclidean(1), euclidean(2)],
                         ids=["circle", "line", "plane"])
def test_one_block_record_summands_equal_their_full_forms(domain, kernel):
    # I_p, formed only where phi can be nonzero, equals the dense
    # dissipation, which evaluates phi on every pair and sets it to 0 at
    # i = j; a record does not, and phi(inf) is lam under the beta = 0
    # kernels, but every summand it multiplies is 0 there.  So every column
    # of the record, and good_set's F, equal the dense oracle's bit for bit.
    # G and G3 equal the full Euclidean summands reduced the same way
    state = _edge_state(domain)
    rec = _columns(state, kernel, domain)
    for p in (1, 2, 4):
        assert getattr(rec, f"I{p}") == dense.dissipation(state, kernel, domain, p), p
    assert rec.I2 > 0.0
    traj = Trajectory(states=[FlockState(state.t + k, domain.wrap(state.x + 0.01 * k),
                                         (1.0 + k) * state.v, state.m) for k in range(3)])
    np.testing.assert_array_equal(good_set(traj, kernel, domain, 0.0, 1.0).F,
                                  dense.forward_dissipation(traj, kernel, domain, 0.0))
    if domain.periodic:
        return
    x, v, m = state.x, state.v, state.m
    dist = dense.pair_distances(domain, x)
    speed = dense.pair_distances(geometry.VELOCITY_SPACE, v)
    for name, power in (("G", 1), ("G3", 3)):
        want = dense.euclidean_summand(x, x, v, v, dist, speed, kernel.r0, power)
        assert getattr(rec, name) == float(m @ (want @ m)), name


def test_csv_roundtrip(tmp_path):
    recs = [
        compute_record(approach_pair(), FLAT, euclidean(1)),
        _balance_record(1.0, 1.5, 0.5),
    ]
    path = tmp_path / "run.csv"
    write_csv(recs, path, header_meta={"scenario": "demo", "seed": "0"})
    meta, cols = read_csv(path)
    assert meta == {"scenario": "demo", "seed": "0"}
    assert cols["V2"][0] == 2.0
    assert cols["mom_0"][1] == 0.0
    assert math.isnan(cols["L"][0])
    # identical records give identical bytes
    other = tmp_path / "again.csv"
    write_csv(recs, other, header_meta={"scenario": "demo", "seed": "0"})
    assert path.read_bytes() == other.read_bytes()


def test_csv_errors(tmp_path):
    with pytest.raises(InsufficientDataError):
        write_csv([], tmp_path / "empty.csv")
    bare = tmp_path / "bare.csv"
    bare.write_text("# only: meta\n")
    with pytest.raises(InsufficientDataError):
        read_csv(bare)
    header = tmp_path / "header.csv"
    header.write_text("# only: meta\nt,V2\n")
    with pytest.raises(InsufficientDataError):
        read_csv(header)


@pytest.mark.parametrize("rows, line", [
    ("1,2,3\n1,2\n", 4),
    ("1,2,3\n1,2,3,4\n", 4),
    ("1,2\n1,2,3,4\n", 3),
    ("1,2,3\n1,abc,3\n", 4),
], ids=["short", "long", "ragged", "not-a-number"])
def test_read_csv_refuses_a_row_of_another_width(tmp_path, rows, line):
    path = tmp_path / "rows.csv"
    path.write_text("# scenario: none\nt,V2,V4\n" + rows)
    with pytest.raises(CSVFormatError, match=f"line {line}:"):
        read_csv(path)
