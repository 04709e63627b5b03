"""Time the stepper's force evaluation, on its row blocks against the
one-block reference, and the diagnostics record.

    PYTHONPATH=src python3 tools/pair_field_timing.py

One force evaluation is what each RK4 stage computes: the pair kernel, the
squared relative speeds, the accelerations and the dissipation rate I2.
The stepper sums it over row blocks of ``diagnostics._RECORD_BLOCK`` agents,
each against its column window; the reference is one block of N rows, the
dense (N, N) arithmetic.  A record's pair columns are V_p, I_p, the
correctors, D, dmin and vdiam, each summed over row blocks of the same size
at every N.  The state is ``uniform_gaussian`` under the local mollified
kernel with r0 = 0.1, the kernel of perfbench's ``large-n`` workload: on the
circle, and in the plane on the unit box.  Each force row prints the median
µs per call of the row blocks and of the reference (``-`` where the
reference is not timed), and the tracemalloc peak of one call in MB; each
record row the same of the one record algorithm.  The reference is not run
past N = 2048, where its (N, N) arrays take most of the memory.  The last
table times the record at N = 2048 for several block sizes, the table the
block size is read off.
"""

import statistics
import sys
import time
import tracemalloc

from flocklab import diagnostics
from flocklab.dynamics import _pair_field, initial_state
from flocklab.geometry import circle, euclidean
from flocklab.kernels import KernelKind, KernelSpec

KERNEL = KernelSpec(KernelKind.LOCAL_MOLLIFIED, lam=1.0, r0=0.1)
FORCE_CASES = (  # (domain name, N, time the one-block reference)
    [("circle", n, True) for n in (64, 128, 256, 1024, 2048)]
    + [("circle", n, False) for n in (8192, 16384)]
    + [("plane", n, True) for n in (64, 128, 256, 1024, 2048)]
)
RECORD_CASES = [(name, n) for name in ("circle", "plane") for n in (64, 128, 256, 512, 1024, 2048)]
BLOCKS = (16, 32, 64, 128, 256)
BUDGET_S = 1.0  # time spent on each path of each row, after one warm-up call


def _setup(name, n):
    domain = circle() if name == "circle" else euclidean(2)
    return domain, initial_state(domain, n, kind="uniform_gaussian", seed=0)


def _force(state, domain, block=None):
    """Accelerations and I2 of one evaluation on the stepper's row blocks, or
    on blocks of ``block`` rows (block = N: the one-block reference)."""
    stepper_block = diagnostics._RECORD_BLOCK
    diagnostics._RECORD_BLOCK = block or stepper_block
    try:
        return _pair_field(state.x, state.v, state.m, KERNEL, domain, state.t, False)[:2]
    finally:
        diagnostics._RECORD_BLOCK = stepper_block


def _record(state, domain, block=diagnostics._RECORD_BLOCK):
    return diagnostics._pair_columns(state.x, state.v, state.m, KERNEL, domain, state.t, block)


def _median_us(fn):
    fn()
    times, start = [], time.perf_counter()
    while len(times) < 3 or (time.perf_counter() - start < BUDGET_S and len(times) < 200):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6


def _peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _cells(fn):
    return _median_us(fn), _peak_mb(fn)


def _row(label, name, n, *cells):
    """One table row: the µs of each cell, then the MB of each."""
    print(f"{label:7s} {name:7s} {n:6d} " + " ".join(_fmt(us, 11, 0) for us, _ in cells)
          + " " + " ".join(_fmt(mb, 9, 1) for _, mb in cells), flush=True)


def main():
    print(f"{'':7s} {'domain':7s} {'N':>6s} {'blocks us':>11s} {'one us':>11s} "
          f"{'blocks MB':>9s} {'one MB':>9s}")
    for name, n, reference in FORCE_CASES:
        domain, state = _setup(name, n)
        _row("force", name, n, _cells(lambda: _force(state, domain)),
             _cells(lambda: _force(state, domain, n)) if reference else ("-", "-"))
    print()
    print(f"{'':7s} {'domain':7s} {'N':>6s} {'us':>11s} {'MB':>9s}")
    for name, n in RECORD_CASES:
        domain, state = _setup(name, n)
        _row("record", name, n, _cells(lambda: _record(state, domain)))
    print(f"stepper and record blocks of {diagnostics._RECORD_BLOCK} rows")
    print()
    print(f"{'domain':7s} {'N':>6s} " + " ".join(f"{f'block {b} us':>13s}" for b in BLOCKS))
    for name in ("circle", "plane"):
        domain, state = _setup(name, 2048)
        cells = [_median_us(lambda: _record(state, domain, b)) for b in BLOCKS]
        print(f"{name:7s} {2048:6d} " + " ".join(_fmt(us, 13, 0) for us in cells), flush=True)


def _fmt(value, width, digits):
    return f"{value:>{width}s}" if isinstance(value, str) else f"{value:{width}.{digits}f}"


if __name__ == "__main__":
    sys.exit(main())
