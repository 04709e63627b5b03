"""Dense (N, N) forms of the record's pair columns and of one RK4 step: an
oracle for the tests.

flocklab sums every pair column over row blocks (``diagnostics._pair_columns``)
and ``good_set``'s forward dissipation over the same blocks.  Here each
column is formed as one whole (N, N) summand S, from plain numpy forms
(``np.mod`` on the circle, the Euclidean corrector on every pair, the kernel
on every pair), and reduced in the order a record reduces it
(``record_sum``): over row blocks of 64 rows against the columns from the
block's first row on, m @ (S @ m) for a flock of one block.  So a record
equals these bit for bit at every N.

``propose_dt`` and ``rk4_step`` restate the adaptive RK4 step from the force
law a_i = sum_j m_j phi(|x_i - x_j|) (v_j - v_i) on dense arrays, with the
circle's minimal image through ``np.mod``: no row windows, pair set, carried
evaluation or guard retry.  Nothing in flocklab imports this module.
"""

import math

import numpy as np

from flocklab import geometry, kernels
from flocklab.diagnostics import LyapunovVariant
from flocklab.dynamics import FlockState
from flocklab.errors import CollisionError
from flocklab.geometry import TWO_PI, VELOCITY_SPACE


def pair_distances(domain, x) -> np.ndarray:
    """(N, N) distances |x_i - x_j| between the rows of the (N, d) positions x."""
    dist = geometry.pair_square_sums(domain, x, x)
    return np.sqrt(dist, out=dist)


def nearest_pair(dist: np.ndarray):
    """Smallest off-diagonal entry of a square distance array and its pair (i, j).

    Overwrites the diagonal of ``dist`` with inf.  Ties go to the first pair
    in row-major order; a single agent gives (inf, (0, 0)).
    """
    np.fill_diagonal(dist, math.inf)
    i, j = divmod(int(np.argmin(dist)), dist.shape[0])
    return float(dist[i, j]), (i, j)


def pair_phi(kernel, dist: np.ndarray, t: float) -> np.ndarray:
    """The kernel on every off-diagonal pair distance, 0 on the diagonal (the
    diagonal of ``dist`` is overwritten with inf).  Under a singular kernel a
    coincident pair raises CollisionError naming the first in row-major order."""
    dmin, pair = nearest_pair(dist)
    if kernels._is_singular(kernel) and dmin <= 0.0:
        raise CollisionError(pair, t, dmin)
    phi = kernels._evaluate_raw(kernel, dist)
    np.fill_diagonal(phi, 0.0)
    return phi


def _pair_sum(m, summand) -> float:
    return float(m @ (summand @ m))


# a record reduces each summand over row blocks of this many rows
RECORD_BLOCK = 64


def record_sum(m, summand) -> float:
    """sum_{i,j} m_i S_ij m_j of a symmetric (N, N) summand S, reduced as a
    record reduces it: rows a:b of each block of RECORD_BLOCK rows against
    the columns from a on, m[a:b] @ (S[a:b, a:] @ w) with w = m[a:b], then
    2 m[b:], as the square block on the diagonal counts once and the columns
    past it twice; the blocks' sums are added in order."""
    total = 0.0
    for a in range(0, len(m), RECORD_BLOCK):
        b = min(a + RECORD_BLOCK, len(m))
        w = np.concatenate((m[a:b], 2.0 * m[b:]))
        total += float(m[a:b] @ (np.ascontiguousarray(summand[a:b, a:]) @ w))
    return total


def speed_power(speed: np.ndarray, p: float) -> np.ndarray:
    """speed**p as a record forms it: the fourth power as the square of the
    square, every other power through np.power."""
    return np.square(np.square(speed)) if p == 4 else speed**p


def variation(state, p: float) -> float:
    """Weighted p-th variation sum_{i,j} m_i m_j |v_i - v_j|^p."""
    return record_sum(state.m, speed_power(pair_distances(VELOCITY_SPACE, state.v), p))


def dissipation(state, kernel, domain, p: float) -> float:
    """Kernel-weighted moment p * sum_{i,j} m_i m_j |v_i - v_j|^p phi(|x_i - x_j|)."""
    speed = pair_distances(VELOCITY_SPACE, state.v)
    phi = pair_phi(kernel, pair_distances(domain, state.x), state.t)
    return p * record_sum(state.m, speed_power(speed, p) * phi)


def euclidean_summand(xr, xc, vr, vc, dist, speed, r0, power) -> np.ndarray:
    """The Euclidean corrector's summand |v_ij|^power psi(d_ij) chi(|x_ij|)
    formed on every pair, rows of (xr, vr) against rows of (xc, vc)."""
    directed = np.zeros_like(speed)
    for k in range(xr.shape[1]):
        directed -= (xr[:, None, k] - xc[None, :, k]) * (vr[:, None, k] - vc[None, :, k])
    np.divide(directed, speed, out=directed, where=speed > 0.0)
    return speed**power * geometry.psi_euclidean(directed, r0) * geometry.chi(dist, r0)


def corrector_euclidean(state, r0: float, power: int) -> float:
    x, v = state.x, state.v
    dist = pair_distances(geometry.euclidean(x.shape[1]), x)
    speed = pair_distances(VELOCITY_SPACE, v)
    return record_sum(state.m, euclidean_summand(x, x, v, v, dist, speed, r0, power))


def psi_periodic(x, r0: float):
    """psi_periodic as np.mod and np.where form it."""
    y = np.mod(np.asarray(x, dtype=float) + r0, TWO_PI) - r0
    return np.where(y <= r0, r0 - y, (y - r0) * (r0 / (math.pi - r0)))


def circle_summand(xr, xc, vr, vc, r0) -> np.ndarray:
    """|v_i - v_j| psi(-(x_i - x_j) sign(v_i - v_j) mod 2*pi) through np.mod."""
    vdiff = vr[:, None] - vc[None, :]
    arc = np.mod(-(xr[:, None] - xc[None, :]) * np.sign(vdiff), TWO_PI)
    return np.abs(vdiff) * psi_periodic(arc, r0)


def corrector_circle(state, r0: float) -> float:
    x, v = state.x[:, 0], state.v[:, 0]
    return record_sum(state.m, circle_summand(x, x, v, v, r0))


def collision_potential(state, domain, beta: float, r0: float) -> float:
    """sum m_i m_j min(|x_ij|, r0)^(2-beta), or the logarithm at beta = 2."""
    dist = pair_distances(domain, state.x)
    dmin, pair = nearest_pair(dist)
    if dmin == 0.0:
        raise CollisionError(pair, state.t, 0.0)
    capped = np.minimum(dist, r0)
    vals = np.log(capped) if beta == 2.0 else capped ** (2.0 - beta)
    np.fill_diagonal(vals, 0.0)
    return record_sum(state.m, vals)


def lyapunov(state, kernel, domain, config) -> float:
    """The configured combination of corrector and variations, n_eff = 1/max(m)."""
    a, b, c, t = config.a, config.b, config.c, state.t
    n_eff = 1.0 / float(np.max(state.m))
    v1, v2 = variation(state, 1), variation(state, 2)
    if config.variant is LyapunovVariant.EUCLIDEAN_V2:
        return corrector_euclidean(state, kernel.r0, 1) + a * v2 + b * n_eff * v1
    if config.variant is LyapunovVariant.EUCLIDEAN_V4:
        return corrector_euclidean(state, kernel.r0, 3) + a * v2
    g = corrector_circle(state, kernel.r0)
    if config.variant is LyapunovVariant.CIRCLE_I:
        return g + 0.5 * c * n_eff * v1 + b * t * v2 + a * v2
    return g + b * t * v2 + a * v2


def columns(state, kernel, domain, config=None) -> dict:
    """Every pair column of the state's record that the kernel, domain and
    Lyapunov config define: V_p, I_p, G, G3 (in R^d), C (singular, beta >= 2),
    L (with a config), D, vdiam and dmin."""
    cols = {"D": float(np.max(pair_distances(domain, state.x))),
            "vdiam": float(np.max(pair_distances(VELOCITY_SPACE, state.v))),
            "dmin": nearest_pair(pair_distances(domain, state.x))[0]}
    for p in (1, 2, 4):
        cols[f"V{p}"] = variation(state, p)
        cols[f"I{p}"] = dissipation(state, kernel, domain, p)
    if domain.periodic:
        cols["G"] = corrector_circle(state, kernel.r0)
    else:
        cols["G"] = corrector_euclidean(state, kernel.r0, 1)
        cols["G3"] = corrector_euclidean(state, kernel.r0, 3)
    if kernel.kind is kernels.KernelKind.SINGULAR_POWER and kernel.beta >= 2.0:
        cols["C"] = collision_potential(state, domain, kernel.beta, kernel.r0)
    if config is not None:
        cols["L"] = lyapunov(state, kernel, domain, config)
    return cols


def forward_dissipation(trajectory, kernel, domain, T: float) -> np.ndarray:
    """good_set's F: the trapezoid over the stored samples from T on of
    sum_j m_j phi(|x_ij|) |v_i - v_j|^2, every agent's row of the dense sum."""
    states = [s for s in trajectory.states if s.t >= T]
    m = states[0].m
    g = np.array([(pair_phi(kernel, pair_distances(domain, s.x), s.t)
                   * geometry.pair_square_sums(VELOCITY_SPACE, s.v, s.v)) @ m for s in states])
    times = np.array([s.t for s in states])
    weights = np.zeros_like(times)
    dt = np.diff(times)
    weights[:-1] += 0.5 * dt
    weights[1:] += 0.5 * dt
    return weights @ g


def _distances(domain, x) -> np.ndarray:
    """(N, N) distances |x_i - x_j|, through the seam on the circle."""
    diff = x[:, None, :] - x[None, :, :]
    if domain.periodic:
        diff = np.mod(diff + math.pi, TWO_PI) - math.pi
    return np.sqrt(np.sum(diff * diff, axis=-1))


def _field(x, v, m, kernel, domain, t):
    """The accelerations a_i = sum_j m_j phi_ij (v_j - v_i) and
    I2 = 2 sum m_i m_j phi_ij |v_i - v_j|^2."""
    phi = pair_phi(kernel, _distances(domain, x), t)
    rel = v[None, :, :] - v[:, None, :]
    acc = np.sum((phi * m)[:, :, None] * rel, axis=1)
    return acc, 2.0 * _pair_sum(m, phi * np.sum(rel * rel, axis=-1))


def propose_dt(state, kernel, domain, cfg) -> float:
    """The smallest of dt_max, the stiffness limit safety / max_i sum_j
    phi_ij (m_i + m_j) and, under a singular kernel, the approach limit
    safety * dmin / max |v_i - v_j|."""
    m = state.m
    dist = _distances(domain, state.x)
    phi = pair_phi(kernel, dist, state.t)  # makes the diagonal of dist inf
    dt = cfg.dt_max
    umax = float(np.max(pair_distances(VELOCITY_SPACE, state.v)))
    if kernels._is_singular(kernel) and umax > 0.0:
        dt = min(dt, cfg.safety * float(np.min(dist)) / umax)
    stiff = float(np.max(np.sum(phi * (m[:, None] + m[None, :]), axis=1)))
    if stiff > 0.0:
        dt = min(dt, cfg.safety / stiff)
    return dt


def rk4_step(state, kernel, domain, dt):
    """One classic RK4 step of dt of positions, velocities and the
    dissipation integrals (the weights 1/6, 1/3, 1/3, 1/6 on I2 and on
    sqrt(I2)), the positions wrapped onto [0, 2 pi) on the circle."""
    x0, v0, m, t = state.x, state.v, state.m, state.t
    h = 0.5 * dt
    a0, i2a = _field(x0, v0, m, kernel, domain, t)
    xb, vb = x0 + h * v0, v0 + h * a0
    ab, i2b = _field(xb, vb, m, kernel, domain, t)
    xc, vc = x0 + h * vb, v0 + h * ab
    ac, i2c = _field(xc, vc, m, kernel, domain, t)
    xd, vd = x0 + dt * vc, v0 + dt * ac
    ad, i2d = _field(xd, vd, m, kernel, domain, t)
    x1 = x0 + dt * (v0 + 2.0 * vb + 2.0 * vc + vd) / 6.0
    v1 = v0 + dt * (a0 + 2.0 * ab + 2.0 * ac + ad) / 6.0
    rates = np.array([i2a, i2b, i2c, i2d])
    weights = np.array([1.0, 2.0, 2.0, 1.0]) * dt / 6.0
    return FlockState(t + dt, np.mod(x1, TWO_PI) if domain.periodic else x1, v1, m,
                      state.diss2 + weights @ rates,
                      state.diss2_root + weights @ np.sqrt(np.maximum(rates, 0.0)))
