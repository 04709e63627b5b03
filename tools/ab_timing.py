"""Time whole library-scenario runs, or single records, of two checkouts
against each other.

    python3 tools/ab_timing.py PARENT_SRC CHANGE_SRC --scenario NAME \\
        [--record-steps] [--horizon H] [--pairs P]
    python3 tools/ab_timing.py PARENT_SRC CHANGE_SRC --record circle:N|plane:N \\
        [--pairs P]

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts.
Their module names clash in one process, so each side is one persistent
worker process that imports flocklab from its own ``src`` and runs the
scenario each time it is asked; the workers pin BLAS to one thread, as
perfbench does.  A run is ``scenario(NAME, horizon=H).run(record_steps=...)``
(H defaults to the scenario's own horizon), timed in the worker around the
run alone.  After one warm-up run on each side the tool runs P pairs (10 by
default), one run on each side, alternating which side goes first, so a
host whose speed drifts slows both sides alike.

It prints each side's median and quartiles in seconds (inclusive, so
they lie within the side's runs) and how many pairs
it was faster in (ties count for neither), the change's median against the
parent's, and whether the two sides' records are bitwise equal: each worker
hashes every record's row as float64 bytes, and the run's error type and
message.  It exits 1 when the records differ, and 0 otherwise.

With ``--record circle:N`` or ``--record plane:N`` a timed call is one
``compute_record`` of one state instead, the seed-0 ``uniform_gaussian``
flock of N agents in the shape of perfbench's ``large-n`` workload: the
local mollified kernel with r0 = 0.1 and its Lyapunov functional (circle_i
on the circle, euclidean_v4 in the plane on the unit box).  The table is in
milliseconds, and after it a line names each record column whose value
differs between the two sides, with its score from ``compare_runs.py``'s
table of scales: |a - b| against the larger side's largest |x| coordinate
(D, dmin) or |v| coordinate (momentum, vdiam), or against max(|a|, |b|)
for every other column, one record being all of it there is; or says
that none does.
"""

import argparse
import hashlib
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import time

# compare_runs.py, whose SCALES score the record columns that differ; loaded
# by path, so this tool imports as a script and as a module
_SPEC = importlib.util.spec_from_file_location(
    "compare_runs", os.path.join(os.path.dirname(os.path.abspath(__file__)), "compare_runs.py"))
COMPARE = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(COMPARE)

SIDES = ("parent", "change")
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _flock(spec):
    """(state, kernel, domain, Lyapunov config) of a ``--record`` spec."""
    from flocklab.diagnostics import LyapunovConfig, LyapunovVariant
    from flocklab.dynamics import initial_state
    from flocklab.geometry import circle, euclidean
    from flocklab.kernels import KernelKind, KernelSpec

    name, n = spec
    kernel = KernelSpec(KernelKind.LOCAL_MOLLIFIED, lam=1.0, r0=0.1)
    if name == "circle":
        domain, params, variant = circle(), {"sigma": 1.0}, LyapunovVariant.CIRCLE_I
    else:
        domain, params = euclidean(2), {"box": 1.0, "sigma": 1.0}
        variant = LyapunovVariant.EUCLIDEAN_V4
    state = initial_state(domain, n, kind="uniform_gaussian", seed=0, params=params)
    return state, kernel, domain, LyapunovConfig.defaults(variant, kernel)


def _worker():
    """Run the scenario, or form the record, of each request line on stdin
    and answer with one line of JSON: the call's seconds and the digest of
    its records, and for a record its row as hex floats and the state's
    largest |x| and |v| coordinate."""
    import numpy as np
    from flocklab.diagnostics import compute_record
    from flocklab.harness import scenario

    flocks = {}
    for line in sys.stdin:
        request = json.loads(line)
        if request.get("record"):
            spec = tuple(request["record"])
            if spec not in flocks:
                flocks[spec] = _flock(spec)
            start = time.perf_counter()
            records = [compute_record(*flocks[spec])]
            error = None
        else:
            cfg = scenario(request["scenario"], horizon=request["horizon"])
            start = time.perf_counter()
            traj = cfg.run(record_steps=request["record_steps"])
            records, error = traj.records, traj.error
        seconds = time.perf_counter() - start
        digest = hashlib.sha256()
        for record in records:
            digest.update(np.array(record.to_row(), dtype=float).tobytes())
        if error is not None:
            digest.update(f"{type(error).__name__}: {error}".encode())
        answer = {"seconds": seconds, "digest": digest.hexdigest(), "records": len(records)}
        if request.get("record"):
            answer["row"] = [float(value).hex() for value in records[0].to_row()]
            answer["columns"] = records[0].column_names(flocks[spec][2].dim)
            answer["x"], answer["v"] = (float(np.max(np.abs(a)))
                                        for a in (flocks[spec][0].x, flocks[spec][0].v))
        print(json.dumps(answer), flush=True)


class _Side:
    """One checkout's worker process."""

    def __init__(self, src):
        env = {**os.environ, "PYTHONPATH": os.path.abspath(src),
               **{name: "1" for name in BLAS_THREADS}}
        self.proc = subprocess.Popen([sys.executable, os.path.abspath(__file__), "--worker"],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
                                     text=True)

    def run(self, request):
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def _record_spec(text):
    """``circle:N`` or ``plane:N``, N >= 2, as (name, N)."""
    name, _, n = text.partition(":")
    if name not in ("circle", "plane") or not n.isdigit() or int(n) < 2:
        raise argparse.ArgumentTypeError(f"expected circle:N or plane:N, N >= 2, got {text!r}")
    return name, int(n)


def _differing_columns(answers):
    """Each record column whose value differs between the two sides' record
    answers, with its score against its scale in ``compare_runs.SCALES``
    (nan equal to nan): the larger side's |x| or |v| coordinate, or the
    larger of the two values."""
    scale = COMPARE.scales([answer["x"] for answer in answers],
                           [answer["v"] for answer in answers])
    out = {}
    for k, name in enumerate(answers[0]["columns"]):
        value = COMPARE.score(name, *(float.fromhex(answer["row"][k]) for answer in answers),
                              scale)
        if value > 0.0:
            out[name] = value
    return out


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--scenario")
    target.add_argument("--record", type=_record_spec, metavar="circle:N|plane:N")
    parser.add_argument("--record-steps", action="store_true")
    parser.add_argument("--horizon", type=float, default=None)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    return args


def main(argv=None):
    args = _parse(argv)
    request = {"scenario": args.scenario, "horizon": args.horizon,
               "record_steps": args.record_steps, "record": args.record}
    sides = {}
    try:
        for name, src in zip(SIDES, (args.parent_src, args.change_src)):
            sides[name] = _Side(src)
        warm = {name: side.run(request) for name, side in sides.items()}
        digests = {name: out["digest"] for name, out in warm.items()}
        times = {name: [] for name in SIDES}
        for pair in range(args.pairs):
            for name in SIDES if pair % 2 == 0 else SIDES[::-1]:
                out = sides[name].run(request)
                times[name].append(out["seconds"])
                if out["digest"] != digests[name]:
                    digests[name] = None  # a side that does not repeat itself
    finally:
        for side in sides.values():
            side.close()

    wins = {"parent": sum(p < c for p, c in zip(times["parent"], times["change"])),
            "change": sum(c < p for p, c in zip(times["parent"], times["change"]))}
    if args.record:
        print(f"record {':'.join(map(str, args.record))}, {args.pairs} pairs")
        unit, scale = "ms", 1e3
    else:
        print(f"scenario {args.scenario}, horizon {args.horizon}, "
              f"record_steps {args.record_steps}, {args.pairs} pairs")
        unit, scale = "s", 1.0
    print(f"{'side':8s} {'median_' + unit:>10s} {'q1_' + unit:>10s} {'q3_' + unit:>10s} "
          f"{'faster':>7s}")
    medians = {}
    for name in SIDES:
        q1, medians[name], q3 = statistics.quantiles(times[name], n=4, method="inclusive")
        print(f"{name:8s} {medians[name] * scale:10.4f} {q1 * scale:10.4f} {q3 * scale:10.4f} "
              f"{wins[name]:7d}")
    ratio = medians["change"] / medians["parent"]
    print(f"change median / parent median: {ratio:.3f} ({ratio - 1.0:+.1%})")
    if args.record:
        differ = _differing_columns([warm[name] for name in SIDES])
        print("columns that differ: " + (", ".join(f"{name} {rel:.1e}"
                                                    for name, rel in differ.items()) or "none"))
    equal = digests["parent"] is not None and digests["parent"] == digests["change"]
    print(f"records bitwise equal: {'yes' if equal else 'no'}")
    return 0 if equal else 1


if __name__ == "__main__":
    if sys.argv[1:] == ["--worker"]:
        _worker()
    else:
        sys.exit(main())
