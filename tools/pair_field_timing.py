"""Time one force evaluation of the stepper, dense against neighbour list.

    PYTHONPATH=src python3 tools/pair_field_timing.py

One force evaluation is what each RK4 stage computes: the pair kernel, the
squared relative speeds, the accelerations and the dissipation rate I2.
The state is ``uniform_gaussian`` under the local mollified kernel with
r0 = 0.1, the kernel of perfbench's ``large-n`` workload: on the circle,
and in the plane on the unit box.  Each row prints the median µs per
evaluation of both paths (``-`` where a path is not timed), and the
tracemalloc peak of one evaluation in MB.  The dense path is not run past
N = 2048, where its (N, N) arrays take most of the memory.
"""

import statistics
import sys
import time
import tracemalloc

from flocklab import dynamics
from flocklab.dynamics import _forces, _pair_terms, initial_state
from flocklab.geometry import circle, euclidean
from flocklab.kernels import KernelKind, KernelSpec

KERNEL = KernelSpec(KernelKind.LOCAL_MOLLIFIED, lam=1.0, r0=0.1)
CASES = (  # (domain name, N, time the dense path)
    [("circle", n, True) for n in (64, 128, 256, 1024, 2048)]
    + [("circle", n, False) for n in (8192, 16384)]
    + [("plane", n, True) for n in (64, 128, 256, 1024)]
)
BUDGET_S = 1.0  # time spent on each path of each row, after one warm-up call


def _evaluate(state, domain, radius):
    phi, speed2, _, _, pairs = _pair_terms(state.x, state.v, KERNEL, domain, state.t,
                                           False, radius)
    return _forces(phi, speed2, state.v, state.m, pairs)


def _median_us(state, domain, radius):
    _evaluate(state, domain, radius)
    times, start = [], time.perf_counter()
    while len(times) < 3 or (time.perf_counter() - start < BUDGET_S and len(times) < 200):
        t0 = time.perf_counter()
        _evaluate(state, domain, radius)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6


def _peak_mb(state, domain, radius):
    tracemalloc.start()
    try:
        _evaluate(state, domain, radius)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main():
    print(f"{'domain':7s} {'N':>6s} {'dense us':>11s} {'neighbour us':>13s} "
          f"{'dense MB':>9s} {'neighbour MB':>13s}")
    for name, n, dense in CASES:
        domain = circle() if name == "circle" else euclidean(2)
        state = initial_state(domain, n, kind="uniform_gaussian", seed=0)
        cells = [(_median_us(state, domain, None), _peak_mb(state, domain, None))
                 if dense else ("-", "-")]
        cells.append((_median_us(state, domain, KERNEL.r0), _peak_mb(state, domain, KERNEL.r0)))
        (d_us, d_mb), (n_us, n_mb) = cells
        print(f"{name:7s} {n:6d} {_fmt(d_us, 11, 0)} {_fmt(n_us, 13, 0)} "
              f"{_fmt(d_mb, 9, 1)} {_fmt(n_mb, 13, 1)}", flush=True)
    print(f"stepper crossover: the neighbour list from N = {dynamics._NEIGHBOUR_MIN_N}")


def _fmt(value, width, digits):
    return f"{value:>{width}s}" if isinstance(value, str) else f"{value:{width}.{digits}f}"


if __name__ == "__main__":
    sys.exit(main())
