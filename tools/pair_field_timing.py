"""Time the stepper's force evaluation, on its row blocks against the
one-block reference, and the diagnostics record.

    PYTHONPATH=src python3 tools/pair_field_timing.py

One force evaluation is what each RK4 stage computes: the pair kernel, the
squared relative speeds, the accelerations and the dissipation rate I2.
The stepper sums it over row blocks of ``diagnostics._RECORD_BLOCK`` agents,
each against its column window; the reference is one block of N rows,
summed on the pairs of one dense (N, N) distance pass.  A record's pair
columns are V_p, I_p, the correctors, D, dmin and vdiam, each summed over
row blocks of the same size at every N.  The state is ``uniform_gaussian`` under the local mollified
kernel with r0 = 0.1, the kernel of perfbench's ``large-n`` workload: on the
circle, and in the plane on the unit box.  Each force row prints the median
µs per call of the row blocks and of the reference (``-`` where the
reference is not timed), and the tracemalloc peak of one call in MB; each
record row the same of the one record algorithm, and the minor page faults
per record call (``resource.getrusage``'s ``ru_minflt``, the mean over a
few calls after a warm-up call): the pages a call touches afresh, which a
record's per-block temporaries multiply.  The reference is not run past
N = 2048, where its (N, N) arrays take most of the memory.  The next
table times the record at N = 2048 for several block sizes, the table the
block size is read off.  The next two profile one circle record at
N = 2048 and one plane record at N = 1024 (the shapes of perfbench's
``large-n``) with cProfile and split each by the helpers of
``diagnostics._pair_columns``: ``_circle_pairs`` forms each pair's one
chart difference and one velocity difference and from them the distances,
speeds and directed arcs (in the plane ``_euclidean_pairs`` the distances
and speeds), ``_evaluate_raw`` the kernel phi, ``_speed_powers`` the
squared speeds and their squares, ``_circle_summand`` the corrector's
summand (in the plane ``_euclidean_summands`` both correctors' summands),
``_pair_sum`` every reduction m_rows @ (S @ w) and ``_collision_summand``
the collision potential's (not called under this kernel); ``rest`` is the
time in ``_pair_columns`` itself and in its block helpers ``_block_kernel``
and ``_on_support`` (the support masks and scatters).  Each row is the
median ms and share of the record; the profiler adds its own small cost
to each call.

The chunk sweep times the records of the states of one run, formed in
chunks of stacked states (``diagnostics._records``), against the number of
states a chunk holds: the states of 32 steps of ``torus-singular-beta2.5``
(N = 32, the shape of perfbench's ``singular-lyapunov``) and of
``torus-local-ensemble`` (N = 64, ``local-ensemble``), as a run that
records every step forms them.  Each row prints the median µs per state of
recording all 32 and the tracemalloc peak in MB of recording one chunk.
``diagnostics._RECORD_ELEMENTS``, the stacked block elements a chunk
holds, is read off it: past a few states per chunk the µs per state level
off while the peak keeps growing with the chunk.

The last three tables time one RK4 stage of a one-block flock, as every
library flock is.  Such a flock is summed on a list of pairs i < j by
``np.bincount`` (``dynamics._pair_sums``): on the pair set a step's first
pass builds (the pairs closer than (1 + ``dynamics._SKIN``) times r0), or,
without a set, on the candidates of the stage's own dense distance pass.
Each row prints the set's share of the pairs i < j, the median µs of a
stage on the set, of a stage without one and of the dense block that
flocks of several blocks and kernels of full support are formed on (the
same flock, its kernel's support taken as unbounded), the ratio of the
first two, and the µs that building the set adds to a step's first pass.
The first table is at N = 64 on the circle and in the plane at r0 = 0.1;
the second, the size sweep, on the circle at r0 = 0.1 from N = 2 to 64;
the third, the share sweep, on the circle at N = 64 for r0 from 0.05 to
1.2.  A carried set pays where a stage on it is faster than one without
by more than the build costs over the few stages a set lasts; the sweeps
show it at every size and share, so every step's first pass of such a
flock builds one.
"""

import contextlib
import cProfile
import functools
import math
import pstats
import resource
import statistics
import sys
import time
import tracemalloc

from flocklab import diagnostics, dynamics, kernels
from flocklab.dynamics import _pair_field, initial_state
from flocklab.geometry import circle, euclidean
from flocklab.harness import scenario
from flocklab.kernels import KernelKind, KernelSpec

KERNEL = KernelSpec(KernelKind.LOCAL_MOLLIFIED, lam=1.0, r0=0.1)
FORCE_CASES = (  # (domain name, N, time the one-block reference)
    [("circle", n, True) for n in (64, 128, 256, 1024, 2048)]
    + [("circle", n, False) for n in (8192, 16384)]
    + [("plane", n, True) for n in (64, 128, 256, 1024, 2048)]
)
RECORD_CASES = [(name, n) for name in ("circle", "plane") for n in (64, 128, 256, 512, 1024, 2048)]
BLOCKS = (16, 32, 64, 128, 256)
STAGE_N = 64  # one block, as in every library flock
STAGE_SIZES = (2, 4, 8, 16, 24, 32, 48, 64)  # N of the size sweep
SHARE_RADII = (0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.6, 0.8, 1.2)  # r0 of the share sweep
CHUNK_SCENARIOS = ("torus-singular-beta2.5", "torus-local-ensemble")  # N = 32 and 64
CHUNK_STATES = (1, 2, 4, 8, 16, 32)  # states per chunk of the chunk sweep
CHUNK_STEPS = 32  # states recorded per timed call
BUDGET_S = 1.0  # time spent on each path of each row, after one warm-up call


def _setup(name, n):
    domain = circle() if name == "circle" else euclidean(2)
    return domain, initial_state(domain, n, kind="uniform_gaussian", seed=0)


@contextlib.contextmanager
def _rows_of(block):
    """Row blocks of ``block`` rows for the stepper and the record, or of
    ``diagnostics._RECORD_BLOCK`` rows when block is None."""
    saved = diagnostics._RECORD_BLOCK
    diagnostics._RECORD_BLOCK = block or saved
    try:
        yield
    finally:
        diagnostics._RECORD_BLOCK = saved


def _force(state, domain, block=None):
    """Accelerations and I2 of one evaluation on the stepper's row blocks, or
    on blocks of ``block`` rows (block = N: the one-block reference)."""
    with _rows_of(block):
        return _pair_field(state.x, state.v, state.m, KERNEL, domain, state.t, False)[:2]


@contextlib.contextmanager
def _no_build():
    """A first pass lists the pairs within the radius and keeps no set."""
    saved = dynamics._SKIN, dynamics._PairSet
    dynamics._SKIN, dynamics._PairSet = 0.0, lambda *args: None
    try:
        yield
    finally:
        dynamics._SKIN, dynamics._PairSet = saved


def _pair_set(state, domain, kernel=KERNEL):
    """The pair set a step's first pass builds at the state."""
    return _pair_field(state.x, state.v, state.m, kernel, domain, state.t, False, first=True)[5]


def _stage(state, domain, kernel=KERNEL, pairs=None):
    """Accelerations and I2 of one RK4 stage: on the pair set, or without
    one on the pairs of its own dense distance pass."""
    return _pair_field(state.x, state.v, state.m, kernel, domain, state.t, False,
                       pairs=pairs)[:2]


def _first_pass(state, domain, kernel=KERNEL, build=True):
    """A step's first pass, building its pair set or building none."""
    with contextlib.nullcontext() if build else _no_build():
        return _pair_field(state.x, state.v, state.m, kernel, domain, state.t, False,
                           first=True)


def _share(pairs, n):
    """The candidates' share of the n (n - 1) / 2 pairs i < j."""
    return 2 * pairs.pairs[0].size / (n * (n - 1))


@contextlib.contextmanager
def _full_support():
    """Every kernel's support taken as unbounded, so a one-block flock is
    formed on the dense block, as a kernel of full support is."""
    saved = kernels.support_radius
    kernels.support_radius = lambda kernel: math.inf
    try:
        yield
    finally:
        kernels.support_radius = saved


def _block_stage(state, domain, kernel=KERNEL):
    """Accelerations and I2 of one RK4 stage on the dense block."""
    with _full_support():
        return _stage(state, domain, kernel)


def _stage_row(name, kernel=KERNEL, n=STAGE_N):
    """One row: the share, the µs of a stage on the pair set, without one
    and on the dense block, the ratio of the first two, and the µs building
    the set adds to a first pass."""
    domain, state = _setup(name, n)
    pairs = _pair_set(state, domain, kernel)
    on_set = _median_us(lambda: _stage(state, domain, kernel, pairs))
    listed = _median_us(lambda: _stage(state, domain, kernel))
    block = _median_us(lambda: _block_stage(state, domain, kernel))
    build = (_median_us(lambda: _first_pass(state, domain, kernel))
             - _median_us(lambda: _first_pass(state, domain, kernel, build=False)))
    print(f"{name:7s} {n:6d} {kernel.r0:6.2f} {_share(pairs, n):7.1%} {on_set:9.1f} "
          f"{listed:9.1f} {block:9.1f} {on_set / listed:7.2f} {build:9.1f}", flush=True)


def _stage_tables():
    print(f"{'domain':7s} {'N':>6s} {'r0':>6s} {'share':>7s} {'set us':>9s} {'pairs us':>9s} "
          f"{'block us':>9s} {'ratio':>7s} {'build us':>9s}")
    for name in ("circle", "plane"):
        _stage_row(name)
    print(f"size sweep, circle, r0 = {KERNEL.r0}")
    for n in STAGE_SIZES:
        _stage_row("circle", n=n)
    print(f"share sweep, circle, N = {STAGE_N}")
    for r0 in SHARE_RADII:
        _stage_row("circle", KernelSpec(KernelKind.LOCAL_MOLLIFIED, lam=1.0, r0=r0))


def _record(state, domain, block=None):
    """The pair columns of one state, a stack of one, on the record's row
    blocks, or on blocks of ``block`` rows."""
    with _rows_of(block):
        return diagnostics._pair_columns(state.x[None], state.v[None], state.m, KERNEL, domain,
                                         [state.t])


def _stepped_states(name, count):
    """The library scenario and the states of its first ``count`` steps, as
    a run that records every step records them."""
    cfg = scenario(name)
    state, states = cfg.build(), []
    for _ in range(count):
        state = dynamics.step(state, cfg.kernel, cfg.domain, cfg.stepper)
        states.append(state)
    return cfg, states


@contextlib.contextmanager
def _chunks_of(size, n):
    """Record chunks of ``size`` states of n agents."""
    saved = diagnostics._RECORD_ELEMENTS
    diagnostics._RECORD_ELEMENTS = size * min(n, diagnostics._RECORD_BLOCK) * n
    try:
        yield
    finally:
        diagnostics._RECORD_ELEMENTS = saved


def _chunk_row(cfg, states, size):
    """One row of the chunk sweep: the median µs per state of recording all
    the states in chunks of ``size``, and the MB of recording one chunk."""
    def record(group):
        return diagnostics._records(group, cfg.kernel, cfg.domain, cfg.lyapunov, None)

    with _chunks_of(size, cfg.n):
        us = _median_us(lambda: record(states)) / len(states)
        mb = _peak_mb(lambda: record(states[:size]))
    print(f"{cfg.name:24s} {cfg.n:4d} {size:7d} {us:10.1f} {mb:8.2f}", flush=True)


def _chunk_table():
    print(f"chunk sweep: records of {CHUNK_STEPS} stepped states; a chunk holds "
          f"{diagnostics._RECORD_ELEMENTS} stacked block elements")
    print(f"{'scenario':24s} {'N':>4s} {'states':>7s} {'us/state':>10s} {'MB':>8s}")
    for name in CHUNK_SCENARIOS:
        cfg, states = _stepped_states(name, CHUNK_STEPS)
        for size in CHUNK_STATES:
            _chunk_row(cfg, states, size)


def _split_helpers(domain):
    """The helpers of diagnostics._pair_columns that form its summands and
    reduce them, on the circle or in the plane."""
    if domain.periodic:
        pairs, corrector = diagnostics._circle_pairs, diagnostics._circle_summand
    else:
        pairs, corrector = diagnostics._euclidean_pairs, diagnostics._euclidean_summands
    return (pairs, kernels._evaluate_raw, diagnostics._speed_powers, corrector,
            diagnostics._pair_sum, diagnostics._collision_summand)


def _record_split(state, domain):
    """Seconds of one record under cProfile: the cumulative time of each
    helper of diagnostics._pair_columns, by name, the rest of _pair_columns
    and its block helpers (the square roots, masks, powers and scatters) and
    the whole record."""
    profile = cProfile.Profile()
    profile.runcall(_record, state, domain)
    stats = pstats.Stats(profile).stats

    def seconds(fn):
        code = fn.__code__
        return stats.get((code.co_filename, code.co_firstlineno, code.co_name), (0, 0, 0, 0.0))[3]

    split = {fn.__name__: seconds(fn) for fn in _split_helpers(domain)}
    total = seconds(diagnostics._pair_columns)
    split["rest"] = total - sum(split.values())
    split["record"] = total
    return split


def _split_table(name, n, budget_s=BUDGET_S):
    """Median ms of each part of one record, and its share of the record,
    over records profiled for about ``budget_s`` after one warm-up record."""
    domain, state = _setup(name, n)
    _record(state, domain)
    runs, start = [], time.perf_counter()
    while len(runs) < 3 or (time.perf_counter() - start < budget_s and len(runs) < 50):
        runs.append(_record_split(state, domain))
    medians = {part: statistics.median(run[part] for run in runs) * 1e3 for part in runs[0]}
    print(f"{'part':20s} {'ms':>9s} {'share':>7s}   ({name}, N = {n}, under cProfile)")
    for part, ms in medians.items():
        print(f"{part:20s} {ms:9.2f} {ms / medians['record']:7.1%}", flush=True)


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


def _faults(fn, calls=5):
    """Mean minor page faults of one call over ``calls`` calls, after one
    warm-up call."""
    fn()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(calls):
        fn()
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / calls


def _cells(fn):
    return _median_us(fn), _peak_mb(fn)


def _row(label, name, n, *cells, faults=None):
    """One table row: the µs of each cell, then the MB of each, then the
    page faults per call when given."""
    print(f"{label:7s} {name:7s} {n:6d} " + " ".join(_fmt(us, 11, 0) for us, _ in cells)
          + " " + " ".join(_fmt(mb, 9, 1) for _, mb in cells)
          + ("" if faults is None else " " + _fmt(faults, 9, 0)), flush=True)


def main():
    print(f"{'':7s} {'domain':7s} {'N':>6s} {'blocks us':>11s} {'one us':>11s} "
          f"{'blocks MB':>9s} {'one MB':>9s}")
    for name, n, reference in FORCE_CASES:
        domain, state = _setup(name, n)
        _row("force", name, n, _cells(lambda: _force(state, domain)),
             _cells(lambda: _force(state, domain, n)) if reference else ("-", "-"))
    print()
    print(f"{'':7s} {'domain':7s} {'N':>6s} {'us':>11s} {'MB':>9s} {'faults':>9s}")
    for name, n in RECORD_CASES:
        domain, state = _setup(name, n)
        record = functools.partial(_record, state, domain)
        _row("record", name, n, _cells(record), faults=_faults(record))
    print(f"stepper and record blocks of {diagnostics._RECORD_BLOCK} rows")
    print()
    print(f"{'domain':7s} {'N':>6s} " + " ".join(f"{f'block {b} us':>13s}" for b in BLOCKS))
    for name in ("circle", "plane"):
        domain, state = _setup(name, 2048)
        cells = [_median_us(lambda: _record(state, domain, b)) for b in BLOCKS]
        print(f"{name:7s} {2048:6d} " + " ".join(_fmt(us, 13, 0) for us in cells), flush=True)
    print()
    _split_table("circle", 2048)
    print()
    _split_table("plane", 1024)
    print()
    _chunk_table()
    print()
    _stage_tables()


def _fmt(value, width, digits):
    return f"{value:>{width}s}" if isinstance(value, str) else f"{value:{width}.{digits}f}"


if __name__ == "__main__":
    sys.exit(main())
