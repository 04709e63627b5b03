"""flocklab benchmark.

Usage, from the root of a flocklab checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: local-ensemble, singular-lyapunov, large-n (see README.md).
The benchmark imports flocklab from ``src/`` of the current directory, pins
BLAS to one thread, runs one warm-up round and then repeats whole rounds of
the workload's operations for about ``--seconds`` in all, checks every
operation's output and prints one JSON object as the last line of standard
output.

With ``--trace 0`` it reports the end-to-end metrics (medians over the
rounds after the warm-up).
With ``--trace 1`` it alternates untraced and traced rounds and reports the
per-layer metrics; the spans go to ``perfbench/out/`` when the run ends.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
WORKLOAD_NAMES = ("local-ensemble", "singular-lyapunov", "large-n")
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("dynamics.step.calls", "count"),
    ("dynamics.step.dt_p50", "sim_t"),
    ("dynamics.step.dt_min", "sim_t"),
    ("dynamics.step.s", "s"),
    ("dynamics.step.us_p50", "us"),
    ("dynamics.step.us_p99", "us"),
    ("dynamics.rhs.us_p50", "us"),
    ("kernels.classify.calls", "count"),
    ("dynamics.integrate.self_s", "s"),
    ("acceptance.run.self_s", "s"),
    ("diagnostics.compute_record.calls", "count"),
    ("diagnostics.compute_record.s", "s"),
    ("diagnostics.compute_record.us_p50", "us"),
    ("diagnostics.lyapunov.s", "s"),
    ("diagnostics.corrector.s", "s"),
    ("diagnostics.lyapunov_constant_search.s", "s"),
    ("dynamics.rhs.alloc_mb", "MB"),
    ("diagnostics.compute_record.alloc_mb", "MB"),
    ("kernels.support_share", "fraction"),
    ("trace.overhead_s", "s"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description="flocklab benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def pin_blas():
    """One BLAS thread, in this process and in every child it starts."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def find_source():
    """``src/`` of the checkout in the current directory, or None."""
    src = os.path.join(os.getcwd(), "src")
    if os.path.isfile(os.path.join(src, "flocklab", "__init__.py")):
        return src
    return None


def measure_setup(workload, seed, src):
    """Median of SETUP_REPEATS set-ups, each in a fresh interpreter."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, probe, workload, str(seed), src],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run(args, src):
    """Measure one workload; returns the Bench and the metrics by name."""
    sys.path[0:0] = [src, HERE]
    import bench
    import tracing
    import workloads

    setup_s = None if args.trace else measure_setup(args.workload, args.seed, src)
    b = bench.Bench(workloads.WORKLOADS[args.workload](args.seed),
                    tracing.Tracer() if args.trace else None)

    # The first round warms caches and lazy set-up and is left out of the
    # medians.  Rounds then repeat while the next one, as long as the last,
    # would end no more than half a round past --seconds; a trace run
    # alternates untraced and traced rounds and needs one of each.
    last = b.round(traced=False, warmup=True)
    elapsed, i = last, 0
    while elapsed + last / 2 < args.seconds or i < (2 if args.trace else 1):
        last = b.round(traced=bool(args.trace) and i % 2 == 1)
        elapsed += last
        i += 1

    if args.trace:
        metrics, units = b.per_layer(), PER_LAYER
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        b.tracer.write(
            os.path.join(HERE, "out", f"trace-{args.workload}-seed{args.seed}.json"),
            {"workload": args.workload, "seed": args.seed, "rounds": b.rounds})
    else:
        metrics, units = b.end_to_end(setup_s), END_TO_END
    return b, {name: {"value": metrics[name], "unit": unit} for name, unit in units}


def main(argv=None):
    args = parse_args(argv)
    pin_blas()
    src = find_source()
    if src is None:
        print("perfbench: no src/flocklab in the current directory; "
              "run from the root of a flocklab checkout", file=sys.stderr)
        return 2
    b, metrics = run(args, src)
    for problem in b.problems[:20]:
        print(f"FAILED {problem}")
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    result = {
        "correct": b.deterministic,
        "attempted": b.attempted,
        "failed": b.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
