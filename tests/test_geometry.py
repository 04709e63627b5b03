"""Domains, minimal-image displacement, pair sums, row windows, cutoff profiles,
and the circle arithmetic against its np.mod form."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dense_reference as dense
from flocklab.diagnostics import _circle_pairs, _circle_summand
from flocklab.errors import DomainMismatchError
from flocklab.geometry import (
    _folded,
    _mod_two_pi,
    _row_windows,
    TWO_PI,
    VELOCITY_SPACE,
    Domain,
    chi,
    circle,
    displacement,
    euclidean,
    pair_square_sums,
    psi_euclidean,
    psi_periodic,
)


def test_domain_construction():
    assert euclidean(3) == Domain("euclidean", 3)
    assert circle() == Domain("circle", 1)
    assert circle().periodic
    assert not euclidean(2).periodic
    with pytest.raises(ValueError):
        Domain("torus", 1)
    with pytest.raises(ValueError):
        Domain("circle", 2)
    with pytest.raises(ValueError):
        Domain("euclidean", 0)


def test_domain_wrap_and_roundtrip():
    dom = circle()
    assert dom.wrap(np.array([7.0]))[0] == pytest.approx(7.0 - TWO_PI)
    assert dom.wrap(np.array([-0.5]))[0] == pytest.approx(TWO_PI - 0.5)
    flat = euclidean(2)
    np.testing.assert_array_equal(flat.wrap(np.array([[5.0, -3.0]])), [[5.0, -3.0]])
    for d in (dom, flat):
        assert Domain.from_dict(d.to_dict()) == d


def test_displacement_euclidean():
    dom = euclidean(2)
    np.testing.assert_allclose(
        displacement(dom, np.array([1.0, 2.0]), np.array([3.0, -1.0])), [-2.0, 3.0]
    )


def test_displacement_circle_minimal_image():
    dom = circle()
    # 0.1 and 6.0 are close through the seam, not the long way around
    assert displacement(dom, 0.1, 6.0) == pytest.approx(0.1 - 6.0 + TWO_PI, abs=1e-14)
    assert displacement(dom, 6.0, 0.1) == pytest.approx(6.0 - 0.1 - TWO_PI, abs=1e-14)
    assert displacement(dom, 1.0, 1.0) == 0.0
    # antipodal separation maps to +pi from either side
    assert displacement(dom, math.pi, 0.0) == pytest.approx(math.pi)
    assert displacement(dom, 0.0, math.pi) == pytest.approx(math.pi)
    arr = displacement(dom, np.array([0.1, 6.0]), np.array([6.0, 0.1]))
    assert arr[0] == pytest.approx(0.1 - 6.0 + TWO_PI)


def test_pair_distances_and_nearest_pair():
    # the dense oracle's forms, which the record tests compare against
    x = np.array([[0.1], [6.0], [2.0], [0.1 + math.pi]])
    dist = dense.pair_distances(circle(), x)
    assert dist.shape == (4, 4)
    assert dist[0, 1] == pytest.approx(0.1 - 6.0 + TWO_PI)
    assert dist[0, 3] == pytest.approx(math.pi)
    np.testing.assert_array_equal(dist, dist.T)
    np.testing.assert_array_equal(np.diag(dist), 0.0)
    dmin, pair = dense.nearest_pair(dist)
    assert pair == (0, 1) and dmin == dist[0, 1]
    assert np.all(np.isinf(np.diag(dist)))
    # ties go to the first pair in row-major order
    tied = dense.pair_distances(euclidean(1), np.array([[0.0], [1.0], [2.0]]))
    assert dense.nearest_pair(tied) == (1.0, (0, 1))
    solo = dense.pair_distances(euclidean(2), np.zeros((1, 2)))
    assert dense.nearest_pair(solo) == (math.inf, (0, 0))


@pytest.mark.parametrize("domain", [circle(), euclidean(2), euclidean(3)])
def test_pair_square_sums_match_the_norm(domain):
    # built one component at a time, the sums add in the order of a norm over
    # the short last axis, so the distances equal it bit for bit
    rng = np.random.default_rng(4)
    x = domain.wrap(rng.uniform(0.0, TWO_PI, size=(9, domain.dim)))
    disp = displacement(domain, x[:, None, :], x[None, :, :])
    np.testing.assert_array_equal(pair_square_sums(domain, x, x), np.sum(disp**2, axis=-1))
    np.testing.assert_array_equal(dense.pair_distances(domain, x), np.linalg.norm(disp, axis=-1))
    # velocities differ plainly, never through the minimal image
    v = np.array([[0.0], [5.0]])
    assert pair_square_sums(VELOCITY_SPACE, v, v)[0, 1] == 25.0
    # rows against columns are the same block of the (N, N) sums bit for bit
    np.testing.assert_array_equal(pair_square_sums(domain, x[3:7], x[2:]),
                                  pair_square_sums(domain, x, x)[3:7, 2:])


def _assert_windows_hold_the_pairs(domain, x, radius, block):
    """Every row block's window lists each agent at most once and every agent
    within the radius of one of its rows, the block's own rows included; the
    blocks cover every agent once."""
    index, windows = _row_windows(domain, x, radius, block)
    agents = np.arange(len(x)) if index is None else index
    full = dense.pair_distances(domain, x)
    rows = []
    for r0, r1, c0, c1 in windows:
        assert c0 <= r0 < r1 <= c1 and r1 - r0 <= block
        cols = agents[c0:c1].tolist()
        assert len(set(cols)) == len(cols)
        for i in agents[r0:r1].tolist():
            rows.append(i)
            assert set(np.flatnonzero(full[i] < radius).tolist()) <= set(cols)
    assert sorted(rows) == list(range(len(x)))
    return index, windows


# agents on the seam, on both sides of it and just off the chart, as stage
# positions x + h v can be
SEAM = (0.0, 5e-324, 1e-15, 0.02, -1e-15, -0.02, TWO_PI, TWO_PI - 1e-15,
        TWO_PI + 1e-15, TWO_PI - 0.03, TWO_PI + 0.03)


@st.composite
def windowed_flocks(draw):
    domain = draw(st.sampled_from((circle(), euclidean(1), euclidean(2), euclidean(3))))
    n = draw(st.integers(1, 30))
    if domain.periodic:
        coord = st.one_of(st.floats(-0.1, TWO_PI + 0.1), st.sampled_from(SEAM))
    else:
        coord = st.floats(-1.0, 1.0)
    x = np.array(draw(st.lists(st.lists(coord, min_size=domain.dim, max_size=domain.dim),
                               min_size=n, max_size=n)))
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=3)):
        x[a] = x[b]  # coincident agents
    # past pi on the circle a window would span the whole period
    radius = draw(st.one_of(st.floats(1e-3, 4.0), st.just(math.inf)))
    if n > 1 and draw(st.booleans()):
        radius = float(dense.pair_distances(domain, x)[0, 1]) or radius  # a pair at the radius
    return domain, x, radius, draw(st.integers(1, 8))


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=windowed_flocks())
def test_row_windows_hold_every_pair_within_reach(case):
    _assert_windows_hold_the_pairs(*case)


def test_row_windows_cross_the_seam():
    # 0 and 3 straddle the seam from off the chart; 1 sits just past it
    x = np.array([[TWO_PI - 0.01], [0.02], [3.0], [-0.005], [TWO_PI - 0.01]])
    index, windows = _assert_windows_hold_the_pairs(circle(), x, 0.05, 1)
    assert windows[0][:2] == (5, 6)  # rows on the middle copy of the keys
    reach = {int(index[r0]): set(index[c0:c1].tolist()) for r0, _, c0, c1 in windows}
    assert reach[1] == {0, 1, 3, 4} and reach[2] == {2}


@pytest.mark.parametrize("x, radius", [
    ([-0.3093824395959818, -0.2593824395959818], 0.05),
    ([0.10663577576717986, 6.439821082946766], 0.05),
    ([0.3684311544172296, 6.351616461596816], 0.3),
])
def test_row_windows_keep_a_pair_the_wrapped_keys_put_out_of_reach(x, radius):
    # each pair lies just inside the radius, but its wrapped keys lie just
    # beyond it: the windows must be wider than the keys' round-off
    x = np.array(x)[:, None]
    assert dense.pair_distances(circle(), x)[0, 1] < radius
    _assert_windows_hold_the_pairs(circle(), x, radius, 1)


@pytest.mark.parametrize("radius", [3.0, math.pi, 4.0])
def test_row_windows_take_a_full_period_once(radius):
    # from about r0 = pi on a window would span the circle and list agents
    # twice; it takes every agent once instead
    x = np.linspace(0.0, TWO_PI, 12, endpoint=False)[:, None]
    _, windows = _assert_windows_hold_the_pairs(circle(), x, radius, 3)
    assert all(c1 - c0 == 12 for *_, c0, c1 in windows)


def test_chi_profile():
    assert chi(0.5, 1.0) == 1.0
    assert chi(1.0, 1.0) == 1.0
    assert chi(1.5, 1.0) == pytest.approx(0.5)
    assert chi(2.0, 1.0) == 0.0
    assert chi(3.0, 1.0) == 0.0
    np.testing.assert_allclose(chi(np.array([0.0, 1.5, 4.0]), 1.0), [1.0, 0.5, 0.0])
    with pytest.raises(DomainMismatchError):
        chi(1.0, 0.0)


def test_psi_euclidean_profile():
    r0 = 1.0
    assert psi_euclidean(-2.0, r0) == 0.0
    assert psi_euclidean(-1.0, r0) == 0.0
    assert psi_euclidean(0.0, r0) == pytest.approx(1.0)
    assert psi_euclidean(0.5, r0) == pytest.approx(1.5)
    assert psi_euclidean(1.0, r0) == pytest.approx(2.0)
    assert psi_euclidean(5.0, r0) == pytest.approx(2.0)
    with pytest.raises(DomainMismatchError):
        psi_euclidean(0.0, -1.0)


def test_psi_periodic_profile():
    r0 = 0.5
    assert psi_periodic(r0, r0) == pytest.approx(0.0, abs=1e-15)
    assert psi_periodic(0.0, r0) == pytest.approx(r0)
    assert psi_periodic(math.pi, r0) == pytest.approx(r0)
    assert psi_periodic(-r0, r0) == pytest.approx(2.0 * r0)
    assert psi_periodic(TWO_PI - r0, r0) == pytest.approx(2.0 * r0)
    x = np.linspace(-10.0, 10.0, 401)
    vals = psi_periodic(x, r0)
    assert np.all(vals >= -1e-15)
    assert np.all(vals <= 2.0 * r0 + 1e-15)
    np.testing.assert_allclose(psi_periodic(x + TWO_PI, r0), vals, atol=1e-12)
    with pytest.raises(DomainMismatchError):
        psi_periodic(0.0, math.pi)
    with pytest.raises(DomainMismatchError):
        psi_periodic(0.0, 0.0)


def test_psi_periodic_slopes():
    # slope -1 across the near zone, r0/(pi - r0) across the far arc
    r0 = 0.5
    near = np.linspace(-r0 + 1e-6, r0 - 1e-6, 51)
    d_near = np.gradient(psi_periodic(near, r0), near)
    np.testing.assert_allclose(d_near, -1.0, atol=1e-6)
    far = np.linspace(r0 + 1e-6, TWO_PI - r0 - 1e-6, 51)
    d_far = np.gradient(psi_periodic(far, r0), far)
    np.testing.assert_allclose(d_far, r0 / (math.pi - r0), atol=1e-6)


# ---------------------------------------------------------------------------
# the circle arithmetic against the np.mod forms, bit for bit

# signed zeros, multiples of 2*pi, and pairs k/8 and k/8 + pi (exact, as the
# last three mantissa bits of pi are zero) whose differences are exactly +-pi
SPECIAL_POSITIONS = [0.0, -0.0, math.pi, -math.pi, TWO_PI, -TWO_PI, 2.0 * TWO_PI,
                     -3.0 * TWO_PI, 0.375, 0.375 + math.pi, 2.5, 2.5 + math.pi,
                     np.nextafter(TWO_PI, 0.0), np.nextafter(2.0 * TWO_PI, 0.0)]
positions = st.lists(st.one_of(st.sampled_from(SPECIAL_POSITIONS),
                               st.floats(-30.0, 30.0, allow_subnormal=False)),
                     min_size=1, max_size=12)
# equal velocities and signed zeros come up often
velocities = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
                       st.floats(-2.0, 2.0, allow_subnormal=False))
BITWISE = settings(max_examples=300, deadline=None, derandomize=True, database=None,
                   suppress_health_check=[HealthCheck.too_slow])


def _assert_bitwise(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def _displacement_reference(a, b):
    """The minimal image with fmod on every entry and masked shifts."""
    wrapped = np.atleast_1d(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
    np.fmod(wrapped, TWO_PI, out=wrapped)
    np.subtract(wrapped, TWO_PI, out=wrapped, where=wrapped > math.pi)
    np.add(wrapped, TWO_PI, out=wrapped, where=wrapped <= -math.pi)
    return wrapped


@BITWISE
@given(z=st.lists(st.one_of(st.sampled_from(SPECIAL_POSITIONS + [math.nan, math.inf]),
                            st.floats(-40.0, 40.0)), max_size=12))
def test_mod_two_pi_is_np_mod(z):
    # inside (-2*pi, 4*pi) without fmod, elsewhere with it
    z = np.array(z, dtype=float)
    with np.errstate(invalid="ignore"):  # inf mod 2*pi is nan
        _assert_bitwise(_mod_two_pi(z.copy()), np.mod(z, TWO_PI))


@BITWISE
@given(x=positions, r0=st.sampled_from([0.1, 0.5, 1.0, 3.0]))
def test_psi_periodic_is_the_np_mod_form(x, r0):
    x = np.array(x)
    _assert_bitwise(psi_periodic(x, r0), dense.psi_periodic(x, r0))
    _assert_bitwise(psi_periodic(x[0], r0), dense.psi_periodic(x[0], r0))
    assert isinstance(psi_periodic(float(x[0]), r0), float)


def _record_summand(x, v, a, r0, bound=None):
    """The circle corrector's summand of rows a: against the columns from a
    on, formed as a record's block forms it: from one chart difference and
    one velocity difference per pair, in block views of fresh arrays, the
    folds scanning their inputs or reading ``bound``."""
    shape = (1, len(x) - a, len(x) - a)
    dist, speed, arc, work = (np.empty(shape) for _ in range(4))
    speed, _ = _circle_pairs(x[None], v[None], a, len(x), False, dist, speed, arc, work, bound)
    return _circle_summand(arc, speed, r0, work, np.empty(shape, dtype=bool), bound)[0]


@BITWISE
@given(x=positions, data=st.data(), r0=st.sampled_from([0.1, 0.5]))
def test_circle_summand_is_the_np_mod_form(x, data, r0):
    # unwrapped and negative positions, +-0.0, multiples of 2*pi, differences
    # of exactly +-pi and equal velocities; the folds scan, or read the
    # positions' range as a record passes it
    x = np.array(x)
    v = np.array(data.draw(st.lists(velocities, min_size=len(x), max_size=len(x))))
    k = len(x) // 2  # rows against the columns from the first row on, as a record's block
    for bound in (None, x.max() - x.min()):
        _assert_bitwise(_record_summand(x, v, 0, r0, bound),
                        dense.circle_summand(x, x, v, v, r0))
        _assert_bitwise(_record_summand(x, v, k, r0, bound),
                        dense.circle_summand(x[k:], x[k:], v[k:], v[k:], r0))


# the special positions and tiny negatives, whose differences with +-0.0 and
# with 2*pi sit on either side of each fold's threshold
BOUND_POSITIONS = SPECIAL_POSITIONS + [-5e-324, -1e-300, -1e-17, np.nextafter(-TWO_PI, 0.0)]
bound_positions = st.lists(st.one_of(st.sampled_from(BOUND_POSITIONS),
                                     st.floats(0.0, TWO_PI, exclude_max=True),
                                     st.floats(-30.0, 30.0, allow_subnormal=False)),
                           min_size=1, max_size=12)
# how much looser than the range a caller's bound may be
slack = st.sampled_from([0.0, 5e-324, 1e-12, 1.0, TWO_PI, 30.0, math.inf])


@BITWISE
@given(x=bound_positions, loose=slack)
def test_the_fold_given_a_range_bound_is_its_scanning_form(x, loose):
    # every chart difference lies within +-fl(max x - min x), and that bound,
    # or any looser one, folds each difference as the scan of |diff| does
    x = np.array(x)
    diff = x[None, :] - x[:, None]
    bound = x.max() - x.min()
    assert np.abs(diff).max() <= bound
    for given_bound in (bound, bound + loose):
        _assert_bitwise(_folded(diff, bound=given_bound), _folded(diff))


@BITWISE
@given(z=bound_positions, low=slack, high=slack)
def test_mod_two_pi_given_bounds_is_its_scanning_form(z, low, high):
    # a (low, high) pair that holds every entry, exact or looser on either
    # side, makes only folds that are the identity where the scan skips them
    z = np.array(z)
    bounds = (z.min() - low, z.max() + high)
    _assert_bitwise(_mod_two_pi(z.copy(), bounds=bounds), _mod_two_pi(z.copy()))
    _assert_bitwise(_mod_two_pi(z.copy(), bounds=bounds), np.mod(z, TWO_PI))


def test_range_bounds_cover_the_exact_cases():
    # each fold that a loose bound makes in place of a skipped one: fmod on
    # entries inside (-2*pi, 4*pi), -2*pi on none, +2*pi on +0.0 and positives
    z = np.array([0.0, 5e-324, 1e-300, math.pi, np.nextafter(TWO_PI, 0.0)])
    for bounds in ((0.0, TWO_PI), (-1.0, 2.0 * TWO_PI), (-math.inf, math.inf)):
        _assert_bitwise(_mod_two_pi(z.copy(), bounds=bounds), z)
    z = np.array([-0.0, TWO_PI, 2.0 * TWO_PI - 1.0, -5e-324, -TWO_PI + 1.0])
    for bounds in ((z.min(), z.max()), (-TWO_PI, 2.0 * TWO_PI), (-math.inf, math.inf)):
        _assert_bitwise(_mod_two_pi(z.copy(), bounds=bounds), np.mod(z, TWO_PI))
    # and fmod on |diff| below 2*pi, where the scan skips it
    below = np.nextafter(TWO_PI, 0.0)
    diff = np.array([-0.0, 0.0, below, -below, math.pi, -5e-324])
    for bound in (below, TWO_PI, 7.0, math.inf):
        _assert_bitwise(_folded(diff, bound=bound), np.abs(displacement(circle(), diff, 0.0)))


def test_circle_summand_covers_the_exact_cases():
    # the differences the strategies aim at, each at least once
    x = np.array([0.375, 0.375 + math.pi, 0.0, -0.0, TWO_PI, -TWO_PI, 7.0])
    v = np.array([1.0, -1.0, 1.0, 1.0, 0.0, -0.0, 0.5])
    assert (x[1] - x[0]) == math.pi and (x[0] - x[1]) == -math.pi
    _assert_bitwise(_record_summand(x, v, 0, 0.5), dense.circle_summand(x, x, v, v, 0.5))


@BITWISE
@given(a=positions, b=positions)
def test_displacement_skips_fmod_only_where_it_is_the_identity(a, b):
    a, b = np.array(a)[:, None], np.array(b)[None, :]
    _assert_bitwise(displacement(circle(), a, b), _displacement_reference(a, b))


# chart positions, the special positions (exactly +-pi apart, 0 against
# 2*pi - ulp, -0.0) and unwrapped ones, whose differences reach past 2*pi
fold_positions = st.lists(st.one_of(st.floats(0.0, TWO_PI, exclude_max=True),
                                    st.sampled_from(SPECIAL_POSITIONS),
                                    st.floats(-30.0, 30.0, allow_subnormal=False)),
                          min_size=1, max_size=10)


def _assert_folds_to_the_minimal_image(a, b):
    """pair_square_sums of rows a against rows b, (N, 1) against (M, 1) or
    (K, N, 1) against (K, M, 1), and the folded chart differences, are
    displacement's squares and magnitudes bit for bit."""
    image = displacement(circle(), a[..., :, None, 0], b[..., None, :, 0])
    _assert_bitwise(pair_square_sums(circle(), a, b), image**2)
    _assert_bitwise(_folded(b[..., None, :, 0] - a[..., :, None, 0]), np.abs(image))


@BITWISE
@given(a=fold_positions, b=fold_positions)
def test_the_folded_distance_is_the_minimal_image(a, b):
    a, b = np.array(a)[:, None], np.array(b)[:, None]
    _assert_folds_to_the_minimal_image(a, b)
    # each pair of arrays of (K, N, 1) stacks
    _assert_folds_to_the_minimal_image(np.stack([a, a[::-1], a + TWO_PI]),
                                       np.stack([b, -b, b[::-1]]))


def test_the_folded_distance_covers_the_exact_cases():
    x = np.array([0.375, 0.375 + math.pi, 0.0, -0.0, np.nextafter(TWO_PI, 0.0), TWO_PI,
                  -TWO_PI, 7.0, -9.5, 3.0 * TWO_PI + 0.1])[:, None]
    assert x[1, 0] - x[0, 0] == math.pi and x[0, 0] - x[1, 0] == -math.pi
    assert np.abs(x[:, None, 0] - x[None, :, 0]).max() >= TWO_PI  # the fmod path
    _assert_folds_to_the_minimal_image(x, x)
    _assert_folds_to_the_minimal_image(np.stack([x, x[::-1], x - TWO_PI]),
                                       np.stack([x, x, -x]))
    assert pair_square_sums(circle(), x[2:4], x[4:5]).tolist() == [[(TWO_PI - x[4, 0]) ** 2]] * 2


@pytest.mark.parametrize("top", [np.nextafter(TWO_PI, 0.0), TWO_PI, np.nextafter(TWO_PI, 7.0),
                                 np.nextafter(2.0 * TWO_PI, 0.0)],
                         ids=["under-2pi", "2pi", "over-2pi", "under-4pi"])
def test_displacement_spanning_about_two_pi(top):
    x = np.array([0.0, -0.0, 1e-300, math.pi, top - 1.0, top])
    for a, b in ((x[:, None], x[None, :]), (x[None, :], x[:, None]), (-x[:, None], x[None, :])):
        _assert_bitwise(displacement(circle(), a, b), _displacement_reference(a, b))
    assert displacement(circle(), top, 0.0) == _displacement_reference(top, 0.0)[0]


def test_displacement_of_empty_and_nan_blocks():
    x = np.array([0.5, 4.0])
    empty = np.zeros(0)
    for a, b in ((empty[:, None], x[None, :]), (x[:, None], empty[None, :])):
        got = displacement(circle(), a, b)
        assert got.shape == _displacement_reference(a, b).shape and got.size == 0
    assert pair_square_sums(circle(), np.zeros((0, 1)), x[:, None]).shape == (0, 2)
    with_nan = np.array([0.5, math.nan, 4.0])
    got = displacement(circle(), with_nan[:, None], x[None, :])
    _assert_bitwise(got, _displacement_reference(with_nan[:, None], x[None, :]))
    assert np.isnan(got[1]).all() and np.isfinite(got[[0, 2]]).all()
