"""Dump the library scenarios bit for bit, and compare two dumps.

    PYTHONPATH=<checkout>/src python3 tools/compare_runs.py dump OUT.json
    PYTHONPATH=src python3 tools/compare_runs.py diff A.json B.json

``dump`` runs all 13 library scenarios at the short horizons below, and the
three ``torus-singular-*`` scenarios again with a record after every step.
It writes every record, every stored state (``t``, ``x``, ``v``, ``diss2``,
``diss2_root``) and the run's error (type, pair, distance, t), each float
as its exact hex form, so two checkouts can be compared without round-off.

``diff`` prints one line per run: whether the two dumps are bitwise equal,
and the largest |a - b| / max(1, |a|) over the records, with the record
column where it occurs, the positions x, the velocities v and the other
state and error fields (a different error type or pair reads as inf).
Circle positions are compared through ``geometry.displacement``, as an
absolute difference, so a round-off step across the seam at 0 = 2*pi does
not read as 2*pi.
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
STEP_HORIZON = 0.5  # horizon of the torus-singular runs that record every step


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


def _run(cfg, record_steps):
    from flocklab.diagnostics import DiagnosticsRecord

    traj = cfg.run(record_steps=record_steps)
    err = traj.error
    return {
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


def dump(path):
    from flocklab.harness import scenario, scenario_names

    runs = {}
    for name in scenario_names():
        runs[name] = _run(scenario(name, horizon=HORIZONS[name]), False)
        if name.startswith("torus-singular-"):
            runs[name + "/steps"] = _run(scenario(name, horizon=STEP_HORIZON), True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(runs, fh)


def _floats(hexes):
    return np.array([float.fromhex(h) for h in hexes])


def _rel(a, b):
    """Largest |a - b| / max(1, |a|), with nan equal to nan, and its flat index."""
    if a.shape != b.shape:
        return math.inf, None
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    if same.all():
        return 0.0, None
    where = np.flatnonzero(~same)
    rel = np.abs(a[where] - b[where]) / np.maximum(1.0, np.abs(a[where]))
    k = int(np.argmax(rel))
    return float(rel[k]), int(where[k])


def _compare(ra, rb):
    """Largest relative difference of the records, x, v and the rest of two
    runs, and the record column of the largest record difference."""
    from flocklab.geometry import circle, displacement

    worst = dict.fromkeys(("records", "x", "v", "other"), 0.0)
    if (len(ra["records"]) != len(rb["records"]) or len(ra["states"]) != len(rb["states"])
            or (ra["error"] is None) != (rb["error"] is None)):
        return dict.fromkeys(worst, math.inf), None
    column = None

    def note(key, value):
        worst[key] = max(worst[key], value)

    for a, b in zip(ra["records"], rb["records"]):
        value, k = _rel(_floats(a), _floats(b))
        if value > worst["records"]:
            worst["records"] = value
            column = None if k is None else ra["columns"][k]
    for sa, sb in zip(ra["states"], rb["states"]):
        note("v", _rel(_floats(sa["v"]), _floats(sb["v"]))[0])
        for key in ("t", "diss2", "diss2_root"):
            note("other", _rel(_floats(sa[key]), _floats(sb[key]))[0])
        xa, xb = _floats(sa["x"]), _floats(sb["x"])
        if ra["periodic"] and xa.shape == xb.shape:
            note("x", float(np.max(np.abs(displacement(circle(), xa, xb)), initial=0.0)))
        else:
            note("x", _rel(xa, xb)[0])
    ea, eb = ra["error"], rb["error"]
    if ea is not None:
        if ea["type"] != eb["type"] or ea["pair"] != eb["pair"]:
            note("other", math.inf)
        for key in ("distance", "t"):
            note("other", _rel(_floats(ea[key]), _floats(eb[key]))[0])
    return worst, column


def diff(path_a, path_b):
    with open(path_a, encoding="utf-8") as fh:
        runs_a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        runs_b = json.load(fh)
    equal_all = True
    for name in sorted(set(runs_a) | set(runs_b)):
        if name not in runs_a or name not in runs_b:
            print(f"{name:42s} missing from {path_a if name not in runs_a else path_b}")
            equal_all = False
            continue
        equal = runs_a[name] == runs_b[name]
        equal_all &= equal
        verdict = "bitwise equal" if equal else "differs"
        worst, column = _compare(runs_a[name], runs_b[name])
        print(f"{name:42s} {verdict:14s}"
              + "".join(f" {key} {value:.1e}" for key, value in worst.items())
              + ("" if column is None else f" ({column})"))
    print("all runs bitwise equal" if equal_all else "some runs differ")


def main(argv):
    if len(argv) == 2 and argv[0] == "dump":
        dump(argv[1])
    elif len(argv) == 3 and argv[0] == "diff":
        diff(argv[1], argv[2])
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])
