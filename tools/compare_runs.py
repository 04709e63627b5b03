"""Dump the library scenarios bit for bit, and compare two dumps.

    PYTHONPATH=<checkout>/src python3 tools/compare_runs.py dump OUT.json
    PYTHONPATH=src python3 tools/compare_runs.py diff A.json B.json [--rtol R]

``dump`` runs all 13 library scenarios at the short horizons below, and seven
of them again with a record after every step (``STEP_HORIZONS``): the three
``torus-singular-*`` scenarios and one scenario of each other Lyapunov
variant, so the constant search runs on all five variants, and
``two-agent-weak-singular-collision``, a run that records every step and
ends in an error.
The library flocks are at most 64 agents, one row block, so it also runs
three multi-block flocks (``BLOCK_RUNS``): two shaped like perfbench's
``large-n`` at smaller N, several record blocks and the stepper's sorted
column windows, and a singular circle of 96 agents with a record after
every step, whose records are formed in chunks of two stacked states over
two row blocks, with the collision potential C.
It writes each run's canonical config JSON, every record, every stored
state (``t``, ``x``, ``v``, ``diss2``, ``diss2_root``) and the run's error
(type, pair, distance, t), and for the record-every-step runs with a
Lyapunov functional the (a, b, c) that ``lyapunov_constant_search``
returns.  It also writes the x, v and m of ``initial_state`` for every
initial-data kind at two seeds.  Each float is stored as its exact hex
form, so two checkouts can be compared without round-off.

``diff`` prints one line per run: whether its records, states and error
are bitwise equal, and the largest relative difference
|a - b| / max(|a|, |b|) over the records, with the record column where it
occurs, the positions x, the velocities v and the other state and error
fields (a different error type or pair, and an inf or nan in place of
another value, read as inf), then whether the
config JSON and the searched constants are equal.  Under a run whose
record columns differ, an indented line names every such column with its
largest relative difference, the worst first.
Circle positions are compared through ``geometry.displacement``, as an
absolute difference, so a round-off step across the seam at 0 = 2*pi does
not read as 2*pi.  One more line per initial state says whether x, v and m
are bitwise equal.  ``diff`` exits 1 when any run, config, constant or
initial state differs or is missing from one dump, and 0 otherwise.  With
``--rtol R`` a run that differs passes when its largest difference, over
its records, x, v and the rest, is at most R; the lines still say which
runs are bitwise equal, and configs, constants and initial states must
still be equal.
"""

import json
import math
import sys

import numpy as np

# horizon of each library run: long enough to cross several observer times
# and to reach the collision where the scenario has one, short enough that
# a dump takes seconds
HORIZONS = {
    "two-agent-fat-tail-escape": 200.0,
    "two-agent-smooth-collision": 10.0,
    "two-agent-weak-singular-collision": 10.0,
    "two-agent-strong-singular-approach": 100.0,
    "parallel-lines-R2": 50.0,
    "euclid-classical-smooth": 25.0,
    "euclid-annular-fat-tail": 200.0,
    "torus-local-ensemble": 200.0,
    "torus-singular-beta2": 2.0,
    "torus-singular-beta2.5": 2.0,
    "torus-singular-beta3": 2.0,
    "lagrangian-torus-weighted": 100.0,
    "vacuum-gap-torus": 200.0,
}
# horizon of each run that records every step and searches the Lyapunov
# constants, with the variant it searches, or that has no functional
STEP_HORIZONS = {
    "two-agent-weak-singular-collision": 10.0,  # none: ends in a StiffnessError
    "torus-singular-beta2": 0.5,  # circle_ii
    "torus-singular-beta2.5": 0.5,  # circle_iii
    "torus-singular-beta3": 0.5,  # circle_iii
    "torus-local-ensemble": 20.0,  # circle_i
    "euclid-classical-smooth": 5.0,  # euclidean_v4
    "euclid-annular-fat-tail": 20.0,  # euclidean_v2
}
# (domain, N, initial data, kernel, Lyapunov variant, record_steps) of each
# multi-block run, stepped by RK4 with dt_max = 0.01 to BLOCK_HORIZON: the
# local flocks take five steps with records at the start and the end; the
# singular circle's steps are stiffness-limited, each recorded
_LOCAL = {"kind": "local_mollified", "lam": 1.0, "r0": 0.1}
BLOCK_RUNS = {
    "blocks-circle-256": ("circle", 256, {"kind": "uniform_gaussian", "params": {"sigma": 1.0}},
                          _LOCAL, "circle_i", False),
    "blocks-plane-192": ("euclidean2", 192,
                         {"kind": "uniform_gaussian", "params": {"box": 1.0, "sigma": 1.0}},
                         _LOCAL, "euclidean_v4", False),
    "blocks-singular-circle-96": (
        "circle", 96, {"kind": "lattice_circle", "params": {"jitter": 0.02, "sigma": 0.5}},
        {"kind": "singular_power", "lam": 1.0, "beta": 2.5, "r0": 1.0}, "circle_iii", True),
}
BLOCK_HORIZON = 0.05
INITIAL_SEEDS = (0, 1)
# (label, domain, n, settings) per initial-data kind, every parameter set
# away from its default; the domain is "circle" or "euclidean<d>"
INITIAL_CASES = (
    ("uniform_gaussian-plane", "euclidean2", 16,
     {"kind": "uniform_gaussian", "params": {"box": 2.0, "sigma": 0.5},
      "weight_mode": "random", "total_mass": 2.0}),
    ("uniform_gaussian-circle", "circle", 16,
     {"kind": "uniform_gaussian", "params": {"sigma": 0.5}}),
    ("two_agent_symmetric", "euclidean1", 2,
     {"kind": "two_agent_symmetric", "params": {"x0": 0.7, "v0": -1.5}}),
    ("parallel_lines", "euclidean2", 2,
     {"kind": "parallel_lines", "params": {"sep": 1.5, "v1": 0.8, "v2": 0.3}}),
    ("two_cluster_circle", "circle", 12,
     {"kind": "two_cluster_circle", "weight_mode": "random",
      "params": {"n1": 5, "width": 0.3, "dv": 1.2, "sigma": 0.1,
                 "center1": 1.0, "center2": 4.0}}),
    ("vacuum_arc", "circle", 12,
     {"kind": "vacuum_arc", "params": {"arc": 2.0, "sigma": 0.7}}),
    ("lattice_circle", "circle", 12,
     {"kind": "lattice_circle", "params": {"jitter": 0.05, "sigma": 0.5}}),
)


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


def _run(cfg, record_steps):
    from flocklab.diagnostics import DiagnosticsRecord, lyapunov_constant_search

    traj = cfg.run(record_steps=record_steps)
    err = traj.error
    run = {
        "config": cfg.canonical_json(),
        "periodic": cfg.domain.periodic,
        "columns": DiagnosticsRecord.column_names(cfg.domain.dim),
        "records": [_hex(rec.to_row()) for rec in traj.records],
        "states": [
            {"t": _hex(s.t), "x": _hex(s.x), "v": _hex(s.v),
             "diss2": _hex(s.diss2), "diss2_root": _hex(s.diss2_root)}
            for s in traj.states
        ],
        "error": None if err is None else {
            "type": type(err).__name__, "pair": list(err.pair),
            "distance": _hex(err.distance), "t": _hex(err.t),
        },
    }
    if record_steps and cfg.lyapunov is not None:
        n_eff = 1.0 / float(np.max(traj.states[0].m))
        best = lyapunov_constant_search(traj.records, cfg.lyapunov.variant, n_eff)
        run["constants"] = _hex([best.a, best.b, best.c])
    return run


def _domain(name):
    from flocklab.geometry import circle, euclidean

    return circle() if name == "circle" else euclidean(int(name[len("euclidean"):]))


def _block_config(name):
    """The ScenarioConfig of one of BLOCK_RUNS."""
    from flocklab.diagnostics import LyapunovConfig
    from flocklab.dynamics import ObserverSchedule, StepperConfig
    from flocklab.harness import ScenarioConfig
    from flocklab.kernels import KernelSpec

    domain, n, initial, kernel, variant, _ = BLOCK_RUNS[name]
    kernel = KernelSpec(**kernel)
    return ScenarioConfig(
        name=name, domain=_domain(domain), kernel=kernel, n=n, mode="discrete",
        initial={"seed": 0, **initial},
        stepper=StepperConfig(dt_max=0.01), horizon=BLOCK_HORIZON,
        observers=ObserverSchedule("linear", spacing=BLOCK_HORIZON),
        lyapunov=LyapunovConfig.defaults(variant, kernel),
    )


def _block_run(name):
    """The dump of one of BLOCK_RUNS."""
    return _run(_block_config(name), BLOCK_RUNS[name][-1])


def _initial_states():
    from flocklab.dynamics import initial_state

    out = {}
    for label, domain, n, settings in INITIAL_CASES:
        dom = _domain(domain)
        for seed in INITIAL_SEEDS:
            st = initial_state(dom, n, seed=seed, **settings)
            out[f"{label}/seed{seed}"] = {"x": _hex(st.x), "v": _hex(st.v), "m": _hex(st.m)}
    return out


def dump(path):
    from flocklab.harness import scenario, scenario_names

    runs = {}
    for name in scenario_names():
        runs[name] = _run(scenario(name, horizon=HORIZONS[name]), False)
        if name in STEP_HORIZONS:
            runs[name + "/steps"] = _run(scenario(name, horizon=STEP_HORIZONS[name]), True)
    for name in BLOCK_RUNS:
        runs[name] = _block_run(name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"runs": runs, "initial": _initial_states()}, fh)


def _floats(hexes):
    return np.array([float.fromhex(h) for h in hexes])


def _rel(a, b):
    """Largest |a - b| / max(|a|, |b|), with nan equal to nan; a column far
    below 1 is scored relative to its own size, and an inf or nan in place
    of another value scores inf, the worst."""
    if a.shape != b.shape:
        return math.inf
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    if same.all():
        return 0.0
    where = np.flatnonzero(~same)
    rel = np.abs(a[where] - b[where]) / np.maximum(np.abs(a[where]), np.abs(b[where]))
    rel[np.isnan(rel)] = math.inf
    return float(rel.max())


def _column_scores(ra, rb):
    """The largest relative difference of each record column that differs
    between two runs' records, by name, the worst first; {None: inf} when
    the records do not have one shape."""
    a = np.array([_floats(row) for row in ra["records"]])
    b = np.array([_floats(row) for row in rb["records"]])
    if a.shape != b.shape:
        return {None: math.inf}
    if not a.size:
        return {}
    scores = {name: _rel(a[:, k], b[:, k]) for k, name in enumerate(ra["columns"])}
    return dict(sorted(((name, score) for name, score in scores.items() if score > 0.0),
                       key=lambda item: -item[1]))


def _compare(ra, rb):
    """Largest relative difference of the records, x, v and the rest of two
    runs, and the largest relative difference of each record column that
    differs (_column_scores)."""
    from flocklab.geometry import circle, displacement

    worst = dict.fromkeys(("records", "x", "v", "other"), 0.0)
    if (len(ra["records"]) != len(rb["records"]) or len(ra["states"]) != len(rb["states"])
            or (ra["error"] is None) != (rb["error"] is None)):
        return dict.fromkeys(worst, math.inf), {None: math.inf}

    def note(key, value):
        worst[key] = max(worst[key], value)

    columns = _column_scores(ra, rb)
    note("records", max(columns.values(), default=0.0))
    for sa, sb in zip(ra["states"], rb["states"]):
        note("v", _rel(_floats(sa["v"]), _floats(sb["v"])))
        for key in ("t", "diss2", "diss2_root"):
            note("other", _rel(_floats(sa[key]), _floats(sb[key])))
        xa, xb = _floats(sa["x"]), _floats(sb["x"])
        if ra["periodic"] and xa.shape == xb.shape:
            note("x", float(np.max(np.abs(displacement(circle(), xa, xb)), initial=0.0)))
        else:
            note("x", _rel(xa, xb))
    ea, eb = ra["error"], rb["error"]
    if ea is not None:
        if ea["type"] != eb["type"] or ea["pair"] != eb["pair"]:
            note("other", math.inf)
        for key in ("distance", "t"):
            note("other", _rel(_floats(ea[key]), _floats(eb[key])))
    return worst, columns


def _split(run):
    """A run's records, states and error apart from its config and constants."""
    return {k: v for k, v in run.items() if k not in ("config", "constants")}


def diff(path_a, path_b, rtol=0.0):
    with open(path_a, encoding="utf-8") as fh:
        dump_a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        dump_b = json.load(fh)
    # bitwise equality of the runs, their configs, their constants and the initial states
    same = dict.fromkeys(("runs", "configs", "constants", "initial states"), True)
    runs_a, runs_b = dump_a["runs"], dump_b["runs"]
    for name in sorted(set(runs_a) | set(runs_b)):
        if name not in runs_a or name not in runs_b:
            print(f"{name:42s} missing from {path_a if name not in runs_a else path_b}")
            same["runs"] = False
            continue
        ra, rb = runs_a[name], runs_b[name]
        equal = _split(ra) == _split(rb)
        verdict = "bitwise equal" if equal else "differs"
        worst, columns = _compare(ra, rb)
        column = next(iter(columns), None)
        same["runs"] &= equal or (rtol > 0.0 and max(worst.values()) <= rtol)
        line = (f"{name:42s} {verdict:14s}"
                + "".join(f" {key} {value:.1e}" for key, value in worst.items())
                + ("" if column is None else f" ({column})"))
        same["configs"] &= ra["config"] == rb["config"]
        line += " config " + ("equal" if ra["config"] == rb["config"] else "differs")
        if "constants" in ra or "constants" in rb:
            equal = ra.get("constants") == rb.get("constants")
            same["constants"] &= equal
            line += " constants " + ("equal" if equal else "differ")
        print(line)
        if column is not None:
            print("    columns " + ", ".join(f"{key} {value:.1e}" for key, value in columns.items()))
    init_a, init_b = dump_a["initial"], dump_b["initial"]
    for name in sorted(set(init_a) | set(init_b)):
        if name not in init_a or name not in init_b:
            print(f"initial/{name:34s} missing from {path_a if name not in init_a else path_b}")
            same["initial states"] = False
            continue
        equal = init_a[name] == init_b[name]
        same["initial states"] &= equal
        worst = {key: _rel(_floats(init_a[name][key]), _floats(init_b[name][key]))
                 for key in ("x", "v", "m")}
        print(f"initial/{name:34s} {'bitwise equal' if equal else 'differs':14s}"
              + "".join(f" {key} {value:.1e}" for key, value in worst.items()))
    for what, equal in same.items():
        agree = "all within" if what == "runs" and rtol > 0.0 else "all bitwise equal"
        print(f"{what}: {agree if equal else 'some differ'}"
              + (f" rtol {rtol:.1e}" if what == "runs" and rtol > 0.0 else ""))
    return all(same.values())


def main(argv):
    if len(argv) == 2 and argv[0] == "dump":
        dump(argv[1])
    elif len(argv) in (3, 5) and argv[0] == "diff" and argv[3:4] in ([], ["--rtol"]):
        try:
            rtol = float(argv[4]) if len(argv) == 5 else 0.0
        except ValueError:
            sys.exit(f"--rtol must be a number, got {argv[4]!r}")
        if not 0.0 <= rtol < math.inf:
            sys.exit(f"--rtol must be non-negative and finite, got {argv[4]}")
        if not diff(argv[1], argv[2], rtol):
            sys.exit(1)
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])
