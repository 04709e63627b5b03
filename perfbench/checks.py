"""Correctness checks on the program's outputs, from properties of the flow.

Nothing here compares against stored output.  Each check is either an exact
property of the weighted alignment law (momentum, monotone variations, the
energy identity, the a-priori collision-potential bound) or an independent
computation (the force law rebuilt from ``kernels.evaluate`` and
``geometry.displacement``).  Every function returns a list of problems; an
empty list means the output passed.
"""

import math
import time

import numpy as np

from flocklab import dynamics, geometry, kernels

# Relative tolerances.  The force law is checked to 1e-12 of the size of the
# summed terms, above the round-off of any summation order at these sizes
# (N * 2**-52 < 5e-13 for N <= 2048).  Momentum is conserved up to round-off.
# The variations and the energy identity carry the stepper's truncation
# error, which stays well below these bounds at the benchmark's step sizes
# (README.md lists the worst values seen).
FORCE_RTOL = 1e-12
MOMENTUM_RTOL = 1e-9
MONOTONE_RTOL = 1e-7
BOUND_RTOL = 1e-9
DESCENT_SHARE = 0.99
DESCENT_RTOL = 1e-6

_BLOCK_ELEMS = 1 << 18


def reference_forces(state, kernel, domain):
    """Accelerations a_i = sum_{j != i} m_j phi(|x_i - x_j|) (v_j - v_i).

    Built row block by row block so the reference never holds an N x N
    array, and returned with the per-agent size of the summed terms
    sum_j m_j phi_ij (|v_j| + |v_i|) and the number of pairs with phi > 0.
    """
    x, v, m = state.x, state.v, state.m
    n = x.shape[0]
    block = max(1, _BLOCK_ELEMS // n)
    acc = np.empty_like(v)
    scale = np.empty(n)
    support = 0
    for lo in range(0, n, block):
        hi = min(n, lo + block)
        disp = geometry.displacement(domain, x[lo:hi, None, :], x[None, :, :])
        dist = np.sqrt(np.sum(disp * disp, axis=-1))
        rows = np.arange(lo, hi)
        dist[rows - lo, rows] = 1.0  # placeholder so singular kernels accept it
        phi = np.asarray(kernels.evaluate(kernel, dist), dtype=float)
        phi[rows - lo, rows] = 0.0
        w = phi * m[None, :]
        diff = v[None, :, :] - v[lo:hi, None, :]
        acc[lo:hi] = np.sum(w[:, :, None] * diff, axis=1)
        mag = np.abs(v[None, :, :]) + np.abs(v[lo:hi, None, :])
        scale[lo:hi] = np.max(np.sum(w[:, :, None] * mag, axis=1), axis=1)
        support += int(np.count_nonzero(phi > 0.0))
    return acc, scale, support


def time_rhs(state, kernel, domain):
    """Seconds one ``dynamics.rhs`` call takes on ``state``."""
    t0 = time.perf_counter()
    dynamics.rhs(state, kernel, domain)
    return time.perf_counter() - t0


def check_forces(state, kernel, domain):
    """Compare ``dynamics.rhs`` with the reference force law.

    Returns (problems, share of off-diagonal pairs inside the kernel's
    support).
    """
    got = dynamics.rhs(state, kernel, domain)
    ref, scale, support = reference_forces(state, kernel, domain)
    n = state.x.shape[0]
    share = support / (n * (n - 1))
    size = float(np.max(scale))
    err = float(np.max(np.abs(got - ref)))
    problems = []
    if not np.all(np.isfinite(got)) or err > FORCE_RTOL * size:
        problems.append(
            f"rhs differs from the reference force law by {err:.3e} "
            f"(terms of size {size:.3e}, rtol {FORCE_RTOL:g})")
    return problems, share


def check_flow(traj, energy_rtol):
    """Momentum, monotone V1/V2/V4 and the energy identity along the records."""
    recs = traj.records
    problems = []
    if traj.error is not None:
        problems.append(f"run stopped early: {type(traj.error).__name__}: {traj.error}")
    if len(recs) < 2:
        return problems + [f"only {len(recs)} records"]

    mom = np.array([r.momentum for r in recs])
    vscale = float(np.max(np.abs(traj.states[0].v)))
    drift = float(np.max(np.abs(mom - mom[0])))
    if drift > MOMENTUM_RTOL * max(vscale, 1e-300):
        problems.append(f"momentum drifts by {drift:.3e} (velocity scale {vscale:.3e})")

    for p in (1, 2, 4):
        vp = np.array([getattr(r, f"V{p}") for r in recs])
        worst = float(np.max(np.diff(vp)))
        if worst > MONOTONE_RTOL * vp[0]:
            problems.append(f"V{p} increases by {worst:.3e} (V{p}(0) = {vp[0]:.3e})")

    v2 = np.array([r.V2 for r in recs])
    diss = np.array([r.I2_int for r in recs])
    res = float(np.max(np.abs(v2 - v2[0] + diss - diss[0])))
    v2_0 = v2[0]
    if not res <= energy_rtol * v2_0:
        problems.append(
            f"energy identity residual {res:.3e} exceeds {energy_rtol:g} * V2(0) = {v2_0:.3e}")
    return problems


def check_collision_bound(traj, kernel):
    """sqrt(C(t)) <= sqrt(C(0)) + K * int_0^t sqrt(I2) with the a-priori K.

    For phi = lam * r^-beta, beta > 2, the derivative of the truncated
    potential C = sum m_i m_j min(|x_ij|, r0)^(2 - beta) obeys
    |C'| <= (beta - 2) sqrt(I2 / (2 lam)) sqrt(C) by Cauchy-Schwarz, since
    I2 = 2 sum m_i m_j phi |v_ij|^2; hence K = (beta - 2) / (2 sqrt(2 lam)).
    """
    beta, lam = kernel.beta, kernel.lam
    k_bound = (beta - 2.0) / (2.0 * math.sqrt(2.0 * lam))
    sqrt_c = np.sqrt(traj.column("C"))
    q = traj.column("sqrtI2_int")
    q = q - q[0]
    bound = sqrt_c[0] + k_bound * q
    excess = float(np.max(sqrt_c - bound))
    if not np.all(np.isfinite(sqrt_c)) or excess > BOUND_RTOL * sqrt_c[0]:
        return [f"sqrt(C) exceeds sqrt(C0) + {k_bound:.4f} * int sqrt(I2) by {excess:.3e}"]
    return []


def check_descent(traj, best):
    """The searched functional G + b t V2 + a V2 (circle variants II and III)
    is non-increasing on at least 99% of steps."""
    if best.variant.value not in ("circle_ii", "circle_iii"):
        return [f"no descent check for variant {best.variant.value}"]
    recs = traj.records
    series = np.array([r.G + best.b * r.t * r.V2 + best.a * r.V2 for r in recs])
    tol = DESCENT_RTOL * (1.0 + abs(float(series[0])))
    jumps = np.diff(series)
    share = 1.0 - np.count_nonzero(jumps > tol) / len(jumps)
    if share < DESCENT_SHARE:
        return [f"searched functional descends on {100 * share:.2f}% of "
                f"{len(jumps)} steps (need {100 * DESCENT_SHARE:g}%)"]
    return []
