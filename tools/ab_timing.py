"""Time whole library-scenario runs of two checkouts against each other.

    python3 tools/ab_timing.py PARENT_SRC CHANGE_SRC --scenario NAME \\
        [--record-steps] [--horizon H] [--pairs P]

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
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

SIDES = ("parent", "change")
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _worker():
    """Run the scenario of each request line on stdin and answer with one
    line of JSON: the run's seconds and the digest of its records."""
    import numpy as np
    from flocklab.harness import scenario

    for line in sys.stdin:
        request = json.loads(line)
        cfg = scenario(request["scenario"], horizon=request["horizon"])
        start = time.perf_counter()
        traj = cfg.run(record_steps=request["record_steps"])
        seconds = time.perf_counter() - start
        digest = hashlib.sha256()
        for record in traj.records:
            digest.update(np.array(record.to_row(), dtype=float).tobytes())
        if traj.error is not None:
            digest.update(f"{type(traj.error).__name__}: {traj.error}".encode())
        print(json.dumps({"seconds": seconds, "digest": digest.hexdigest(),
                          "records": len(traj.records)}), flush=True)


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


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--scenario", required=True)
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
               "record_steps": args.record_steps}
    sides = {}
    try:
        for name, src in zip(SIDES, (args.parent_src, args.change_src)):
            sides[name] = _Side(src)
        digests = {name: side.run(request)["digest"] for name, side in sides.items()}  # warm-up
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
    print(f"scenario {args.scenario}, horizon {args.horizon}, record_steps {args.record_steps}, "
          f"{args.pairs} pairs")
    print(f"{'side':8s} {'median_s':>10s} {'q1_s':>10s} {'q3_s':>10s} {'faster':>7s}")
    medians = {}
    for name in SIDES:
        q1, medians[name], q3 = statistics.quantiles(times[name], n=4, method="inclusive")
        print(f"{name:8s} {medians[name]:10.4f} {q1:10.4f} {q3:10.4f} {wins[name]:7d}")
    ratio = medians["change"] / medians["parent"]
    print(f"change median / parent median: {ratio:.3f} ({ratio - 1.0:+.1%})")
    equal = digests["parent"] is not None and digests["parent"] == digests["change"]
    print(f"records bitwise equal: {'yes' if equal else 'no'}")
    return 0 if equal else 1


if __name__ == "__main__":
    if sys.argv[1:] == ["--worker"]:
        _worker()
    else:
        sys.exit(main())
