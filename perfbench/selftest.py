"""Self-test of the benchmark: every workload at a tiny size, with its checks.

Usage, from the root of a flocklab checkout:

    python3 perfbench/selftest.py

Runs one untraced and one traced round of each workload at a few agents
and short horizons, and requires every operation to pass its checks, the
two rounds to agree bit for bit, and every per-layer metric to be
reported.  It then shows that the checks reject broken output, that
BENCHMARK.json names exactly the metrics ``run.py`` prints, and that
``run.py`` refuses to run without ``src/flocklab``.  Takes well under a
minute; exits 0 when everything holds.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.pin_blas()
SRC = run.find_source()
if SRC is None:
    sys.exit("selftest: run from the root of a flocklab checkout")
sys.path.insert(0, SRC)

import bench  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from flocklab import dynamics  # noqa: E402

FAILURES = []


def expect(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def tiny_rounds():
    outcomes = {}
    for name, cls in workloads.WORKLOADS.items():
        b = bench.Bench(cls(seed=1, tiny=True), tracing.Tracer())
        b.round(traced=False, warmup=True)
        b.round(traced=False)
        b.round(traced=True)
        expect(b.failed == 0 and not b.problems,
               f"{name}: {b.attempted} operations pass their checks {b.problems[:3]}")
        expect(b.deterministic, f"{name}: traced and untraced rounds agree bit for bit")
        expect(len(b.verdicts) == b.wl.ops, f"{name}: each distinct output is checked once")
        metrics = b.per_layer()
        expect(set(metrics) == {n for n, _ in run.PER_LAYER},
               f"{name}: every per-layer metric is reported")
        expect(metrics["dynamics.step.calls"] > 0
               and metrics["diagnostics.compute_record.calls"] > 0
               and metrics["kernels.classify.calls"] > 0,
               f"{name}: the traced round recorded steps, records and classify calls")
        outcomes[name] = b.last_outcomes
    return outcomes


def checks_have_teeth(outcomes):
    out = outcomes["local-ensemble"][0]
    traj = copy.deepcopy(out.traj)
    rec = traj.records[-1]
    rec.momentum = tuple(c + 1e-6 for c in rec.momentum)
    rec.V2 *= 1.0 + 1e-3
    problems = checks.check_flow(traj, workloads.LocalEnsemble.energy_rtol)
    expect(any("momentum" in p for p in problems), "a momentum drift is rejected")
    expect(any("energy identity" in p for p in problems), "a broken energy identity is rejected")

    sing = outcomes["singular-lyapunov"][0]
    traj = copy.deepcopy(sing.traj)
    traj.records[-1].C *= 4.0
    expect(checks.check_collision_bound(traj, sing.cfg.kernel) != [],
           "a collision potential above its a-priori bound is rejected")
    traj = copy.deepcopy(sing.traj)
    for r in traj.records[1::2]:
        r.G += 1.0
    expect(checks.check_descent(traj, sing.search) != [], "a non-descending functional is rejected")

    state = out.traj.states[-1]
    original = dynamics.rhs
    dynamics.rhs = lambda *a: original(*a) * (1.0 + 1e-9)
    try:
        problems, _ = checks.check_forces(state, out.cfg.kernel, out.cfg.domain)
    finally:
        dynamics.rhs = original
    expect(problems != [], "forces off by 1e-9 relative are rejected")
    problems, share = checks.check_forces(state, out.cfg.kernel, out.cfg.domain)
    expect(problems == [] and 0.0 < share < 1.0, "the program's forces match the reference")


def benchmark_json_matches():
    with open(os.path.join(os.getcwd(), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES),
           "BENCHMARK.json lists the workloads run.py accepts")
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
           "BENCHMARK.json lists the end-to-end metrics run.py prints")
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER),
           "BENCHMARK.json lists the per-layer metrics run.py prints")


def refuses_without_source():
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    empty = tempfile.mkdtemp(dir=os.path.join(HERE, "out"))
    try:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", "large-n",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=empty, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(empty)
    expect(done.returncode != 0 and done.stdout == "",
           "run.py exits non-zero, printing no result, without src/flocklab")


def main():
    outcomes = tiny_rounds()
    checks_have_teeth(outcomes)
    benchmark_json_matches()
    refuses_without_source()
    print(f"selftest: {len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
