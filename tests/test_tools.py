"""The command-line tools under tools/, run as a script runs them."""

import copy
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dense_reference as dense
from flocklab import diagnostics, geometry
from flocklab.harness import scenario

ROOT = Path(__file__).resolve().parents[1]
COMPARE_RUNS = ROOT / "tools" / "compare_runs.py"
PAIR_FIELD_TIMING = ROOT / "tools" / "pair_field_timing.py"
AB_TIMING = ROOT / "tools" / "ab_timing.py"
PERFBENCH_SELFTEST = ROOT / "perfbench" / "selftest.py"


def _load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def dump():
    """A small dump in the format of ``compare_runs.py dump``: one run, one
    run with searched constants, one run that records every step and ends
    in an error, the multi-block runs and every initial state."""
    tool = _load(COMPARE_RUNS)
    runs = {
        "two-agent-smooth-collision": tool._run(
            scenario("two-agent-smooth-collision", horizon=1.0), False),
        "torus-singular-beta2/steps": tool._run(
            scenario("torus-singular-beta2", horizon=0.02), True),
        "two-agent-weak-singular-collision/steps": tool._run(
            scenario("two-agent-weak-singular-collision",
                     horizon=tool.STEP_HORIZONS["two-agent-weak-singular-collision"]), True),
    }
    for name in tool.BLOCK_RUNS:
        runs[name] = tool._block_run(name)
    return {"runs": runs, "initial": tool._initial_states()}


def test_compare_runs_dump_covers_several_blocks(dump):
    # the local multi-block runs span several record blocks and step on the
    # stepper's sorted column windows, which no library flock reaches; the
    # singular circle records every step in chunks of two stacked states
    # over two blocks, with the collision potential
    tool = _load(COMPARE_RUNS)
    block = diagnostics._RECORD_BLOCK
    for name, (*_, record_steps) in tool.BLOCK_RUNS.items():
        cfg = tool._block_config(name)
        run = dump["runs"][name]
        times = [float.fromhex(rec[0]) for rec in run["records"]]
        assert run["error"] is None and json.loads(run["config"])["n"] == cfg.n
        if record_steps:
            assert block < cfg.n <= 2 * block and diagnostics._chunk_states(cfg.n) == 2
            assert len(times) > 4 and times[0] == 0.0 and times[-1] == tool.BLOCK_HORIZON
            column = run["columns"].index("C")
            assert all(math.isfinite(float.fromhex(rec[column])) for rec in run["records"])
            assert "constants" in run
            continue
        assert cfg.n > 2 * block
        index, windows = geometry._row_windows(cfg.domain, cfg.build().x, cfg.kernel.r0, block)
        assert index is not None and any(c1 - c0 < cfg.n for *_, c0, c1 in windows)
        assert times == [0.0, tool.BLOCK_HORIZON]
    assert any(record_steps for *_, record_steps in tool.BLOCK_RUNS.values())


def test_compare_runs_dump_searches_every_variant():
    # the record-every-step runs search the Lyapunov constants of all five
    # variants; four steps of each scenario the older dumps lacked write
    # their searched (a, b, c)
    tool = _load(COMPARE_RUNS)
    functionals = [scenario(name).lyapunov for name in tool.STEP_HORIZONS]
    assert {cfg.variant for cfg in functionals if cfg is not None} == set(
        diagnostics.LyapunovVariant)
    for name in ("torus-local-ensemble", "euclid-classical-smooth", "euclid-annular-fat-tail"):
        cfg = scenario(name)
        run = tool._run(scenario(name, horizon=4 * cfg.stepper.dt_max), True)
        assert len(run["records"]) >= 5 and run["error"] is None, name
        constants = [float.fromhex(h) for h in run["constants"]]
        assert len(constants) == 3 and min(constants) > 0.0, name


def test_compare_runs_dump_records_every_step_of_a_failed_run(dump):
    # the run with no functional searches no constants, and its records
    # cover every stored state up to the state the failed step started from
    run = dump["runs"]["two-agent-weak-singular-collision/steps"]
    assert run["error"]["type"] == "StiffnessError" and "constants" not in run
    assert len(run["records"]) == len(run["states"]) > 2
    assert run["records"][-1][0] == run["states"][-1]["t"][0] == run["error"]["t"][0]


def _nudge(hexes, k=0):
    """The hex floats with entry k moved to the next float up."""
    out = list(hexes)
    out[k] = float(np.nextafter(float.fromhex(out[k]), np.inf)).hex()
    return out


def _record(d):
    run = d["runs"]["two-agent-smooth-collision"]
    run["records"][-1] = _nudge(run["records"][-1], 1)


def _block_record(d):
    run = d["runs"]["blocks-plane-192"]
    run["records"][0] = _nudge(run["records"][0], run["columns"].index("G3"))


def _failed_state(d):
    run = d["runs"]["two-agent-weak-singular-collision/steps"]
    run["states"][-1]["x"] = _nudge(run["states"][-1]["x"])


def _config(d):
    run = d["runs"]["two-agent-smooth-collision"]
    run["config"] = run["config"].replace('"seed":', '"seed": ')


def _constants(d):
    run = d["runs"]["torus-singular-beta2/steps"]
    run["constants"] = _nudge(run["constants"])


def _initial(d):
    state = next(iter(d["initial"].values()))
    state["v"] = _nudge(state["v"])


def _missing(d):
    del d["runs"]["two-agent-smooth-collision"]


def _diff(tmp_path, a, b, *options):
    paths = []
    for name, content in (("a.json", a), ("b.json", b)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(content))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, str(COMPARE_RUNS), "diff", *map(str, paths), *options],
                          env=env, capture_output=True, text=True, timeout=120)


def test_compare_runs_diff_exits_0_on_equal_dumps(tmp_path, dump):
    out = _diff(tmp_path, dump, dump)
    assert out.returncode == 0, out.stderr
    assert "runs: all bitwise equal" in out.stdout


@pytest.mark.parametrize("change, verdict", [
    (_record, "runs: some differ"),
    (_block_record, "runs: some differ"),
    (_failed_state, "runs: some differ"),
    (_config, "configs: some differ"),
    (_constants, "constants: some differ"),
    (_initial, "initial states: some differ"),
    (_missing, "runs: some differ"),
], ids=["record", "block-record", "failed-state", "config", "constants", "initial-state",
        "missing-run"])
def test_compare_runs_diff_exits_1_on_any_difference(tmp_path, dump, change, verdict):
    # a script can gate on the exit code: one changed float is enough
    changed = copy.deepcopy(dump)
    change(changed)
    out = _diff(tmp_path, dump, changed)
    assert out.returncode == 1, out.stdout + out.stderr
    assert verdict in out.stdout


def test_compare_runs_diff_names_every_record_column_that_differs(tmp_path, dump):
    # V4 of one record moved by 1e-9 of its value and I4 of another by one
    # ulp: the run's line names the worst, and the line under it names both
    # with their scores, the worst first; a run that is equal has no such line
    changed = copy.deepcopy(dump)
    run = changed["runs"]["blocks-circle-256"]
    v4, i4 = run["columns"].index("V4"), run["columns"].index("I4")
    first, last = run["records"][0], run["records"][-1]
    first[v4] = (float.fromhex(first[v4]) * (1.0 + 1e-9)).hex()
    run["records"][-1] = _nudge(last, i4)
    out = _diff(tmp_path, dump, changed)
    assert out.returncode == 1, out.stdout + out.stderr
    lines = out.stdout.splitlines()
    k = next(k for k, line in enumerate(lines) if line.startswith("blocks-circle-256"))
    assert lines[k].split(" records ")[1].split()[:2] == ["1.0e-09", "x"]
    assert lines[k].endswith(" config equal") and " (V4) " in lines[k]
    name, score, rest = lines[k + 1].split(None, 2)
    assert (name, score) == ("columns", "V4") and rest.startswith("1.0e-09, I4 ")
    assert 0.0 < float(rest.split()[-1]) < 1e-15
    assert not any(line.startswith("    columns") for line in lines[:k] + lines[k + 2:])


def test_pair_field_timing_helpers_run(monkeypatch, capsys):
    # each helper once at N = 128, so a renamed name the tool reaches fails here
    tool = _load(PAIR_FIELD_TIMING)
    monkeypatch.setattr(tool, "BUDGET_S", 0.0)
    for name in ("circle", "plane"):
        domain, state = tool._setup(name, 128)
        acc, i2 = tool._force(state, domain)
        assert np.allclose(tool._force(state, domain, 128)[0], acc, rtol=0, atol=1e-12)
        assert tool._record(state, domain)["I2"] == pytest.approx(i2, rel=1e-12)
        assert tool._record(state, domain, 16)["V2"] == pytest.approx(
            tool._record(state, domain)["V2"], rel=1e-12)
        assert tool._median_us(lambda: tool._record(state, domain)) > 0.0
        assert tool._peak_mb(lambda: tool._record(state, domain)) > 0.0
        tool._row("record", name, 128, tool._cells(lambda: tool._record(state, domain)))
        tool._row("force", name, 128, tool._cells(lambda: tool._force(state, domain)),
                  ("-", "-"))
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 4 and all(row.split()[2] == "128" for row in rows)
    assert "-" in rows[1].split()
    assert tool.diagnostics._RECORD_BLOCK == 64  # restored after each reference call


def test_pair_field_timing_record_split(capsys):
    # the split profiles the record itself: its parts add up to the record,
    # and the helpers that form each block's pair quantities, its speed
    # powers and its corrector summands are timed
    tool = _load(PAIR_FIELD_TIMING)
    for name, pairs, corrector in (("circle", "_circle_pairs", "_circle_summand"),
                                   ("plane", "_euclidean_pairs", "_euclidean_summands")):
        domain, state = tool._setup(name, 130)
        split = tool._record_split(state, domain)
        helpers = [fn.__name__ for fn in tool._split_helpers(domain)]
        assert list(split) == [*helpers, "rest", "record"]
        assert split["_collision_summand"] == 0.0  # not called under the local kernel
        parts = [split[part] for part in (*helpers, "rest")]
        assert all(s >= 0.0 for s in parts) and split["record"] > 0.0
        assert math.isclose(sum(parts), split["record"])
        assert helpers[0] == pairs and helpers[3] == corrector
        assert all(split[part] > 0.0 for part in (pairs, "_speed_powers", corrector, "_pair_sum"))
    for name, corrector in (("circle", "_circle_summand"), ("plane", "_euclidean_summands")):
        tool._split_table(name, 130, budget_s=0.0)
        rows = capsys.readouterr().out.splitlines()
        assert [row.split()[0] for row in rows[1:]] == [
            "_circle_pairs" if name == "circle" else "_euclidean_pairs", "_evaluate_raw",
            "_speed_powers", corrector, "_pair_sum", "_collision_summand", "rest", "record"]


def test_pair_field_timing_counts_page_faults(capsys):
    # a record row ends with its minor page faults per call
    tool = _load(PAIR_FIELD_TIMING)
    domain, state = tool._setup("circle", 130)
    faults = tool._faults(lambda: tool._record(state, domain), calls=2)
    assert faults >= 0.0
    tool._row("record", "circle", 130, (1.0, 0.5), faults=faults)
    cells = capsys.readouterr().out.split()
    assert cells[:3] == ["record", "circle", "130"] and float(cells[-1]) == round(faults)


def test_pair_field_timing_chunk_sweep(monkeypatch, capsys):
    # one row per scenario and chunk size, the budget set for each row so a
    # chunk holds that many states, and restored after it
    tool = _load(PAIR_FIELD_TIMING)
    monkeypatch.setattr(tool, "BUDGET_S", 0.0)
    monkeypatch.setattr(tool, "CHUNK_STEPS", 4)
    monkeypatch.setattr(tool, "CHUNK_STATES", (1, 3))
    budget = diagnostics._RECORD_ELEMENTS
    with tool._chunks_of(3, 64):
        assert diagnostics._chunk_states(64) == 3
    tool._chunk_table()
    assert diagnostics._RECORD_ELEMENTS == budget
    rows = capsys.readouterr().out.splitlines()
    assert rows[0].startswith("chunk sweep: records of 4 stepped states")
    cells = [row.split() for row in rows[2:]]
    assert [(c[0], int(c[1]), int(c[2])) for c in cells] == [
        (name, n, size) for name, n in zip(tool.CHUNK_SCENARIOS, (32, 64)) for size in (1, 3)]
    assert all(float(c[3]) > 0.0 and float(c[4]) > 0.0 for c in cells)


def test_ab_timing_of_one_checkout_against_itself():
    # both sides run the same code: every pair is timed, neither side wins
    # more pairs than were run, and the records are bitwise equal
    out = subprocess.run([sys.executable, str(AB_TIMING), str(ROOT / "src"), str(ROOT / "src"),
                          "--scenario", "torus-singular-beta2.5", "--record-steps",
                          "--horizon", "0.01", "--pairs", "2"],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == ("scenario torus-singular-beta2.5, horizon 0.01, record_steps True, "
                        "2 pairs")
    sides = {row.split()[0]: row.split()[1:] for row in lines[2:4]}
    assert list(sides) == ["parent", "change"]
    assert all(float(value) > 0.0 for row in sides.values() for value in row[:3])
    assert sum(int(row[3]) for row in sides.values()) <= 2
    assert lines[-1] == "records bitwise equal: yes"


@pytest.mark.parametrize("flock", ["circle:96", "plane:96"])
def test_ab_timing_of_one_record_of_one_checkout_against_itself(flock):
    # single records of a large-n shaped flock, in milliseconds: every pair
    # is timed, no column differs, and the records are bitwise equal
    out = subprocess.run([sys.executable, str(AB_TIMING), str(ROOT / "src"), str(ROOT / "src"),
                          "--record", flock, "--pairs", "2"],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == f"record {flock}, 2 pairs"
    assert lines[1].split() == ["side", "median_ms", "q1_ms", "q3_ms", "faster"]
    sides = {row.split()[0]: row.split()[1:] for row in lines[2:4]}
    assert list(sides) == ["parent", "change"]
    assert all(float(value) > 0.0 for row in sides.values() for value in row[:3])
    assert sum(int(row[3]) for row in sides.values()) <= 2
    assert lines[-2:] == ["columns that differ: none", "records bitwise equal: yes"]


def test_ab_timing_names_the_record_columns_that_differ():
    # a column moved in its last bit is named with its relative difference;
    # a nan on both sides is equal
    tool = _load(AB_TIMING)
    rows = [[1.0.hex(), math.nan.hex(), 3.0.hex()],
            [1.0.hex(), math.nan.hex(), np.nextafter(3.0, 4.0).hex()]]
    assert tool._differing_columns(rows, ["V2", "C", "V4"]) == {
        "V4": pytest.approx(2.0**-52 * 2 / 3, rel=1e-6)}
    for bad in ("torus:96", "circle:1", "plane:", "plane:1e3"):
        with pytest.raises(SystemExit):
            tool._parse(["a", "b", "--record", bad])
    with pytest.raises(SystemExit):
        tool._parse(["a", "b", "--record", "circle:96", "--scenario", "x"])


def test_pair_field_timing_stage_tables(monkeypatch, capsys):
    # a stage on the pair set is the stage without one bit for bit, and it
    # and the dense block are the dense oracle's within 1e-12; a first pass
    # that builds none keeps none, and the module is restored after it; the
    # share sweep's shares rise
    tool = _load(PAIR_FIELD_TIMING)
    monkeypatch.setattr(tool, "BUDGET_S", 0.0)
    skin, pair_set = tool.dynamics._SKIN, tool.dynamics._PairSet
    for name, n in (("circle", tool.STAGE_N), ("plane", tool.STAGE_N), ("circle", 2)):
        domain, state = tool._setup(name, n)
        pairs = tool._pair_set(state, domain)
        on_set, listed = tool._stage(state, domain, pairs=pairs), tool._stage(state, domain)
        assert on_set[0].tobytes() == listed[0].tobytes() and on_set[1] == listed[1]
        acc, i2 = dense._field(state.x, state.v, state.m, tool.KERNEL, domain, state.t)
        for stage in (on_set, tool._block_stage(state, domain)):
            assert np.max(np.abs(stage[0] - acc)) <= 1e-12 * np.max(np.abs(acc))
            assert stage[1] == pytest.approx(i2, rel=1e-12)
        assert tool.kernels.support_radius(tool.KERNEL) == tool.KERNEL.r0  # restored
        assert 0.0 <= tool._share(pairs, n) < 0.1
        assert tool._first_pass(state, domain, build=False)[5] is None
        assert (tool.dynamics._SKIN, tool.dynamics._PairSet) == (skin, pair_set)
    tool._stage_tables()
    rows = capsys.readouterr().out.splitlines()
    assert [row.split()[0] for row in rows[1:3]] == ["circle", "plane"]
    assert rows[3].startswith("size sweep")
    sizes = rows[4:4 + len(tool.STAGE_SIZES)]
    assert [int(row.split()[1]) for row in sizes] == list(tool.STAGE_SIZES)
    assert rows[4 + len(sizes)].startswith("share sweep")
    sweep = rows[5 + len(sizes):]
    assert len(sweep) == len(tool.SHARE_RADII)
    shares = [float(row.split()[3].rstrip("%")) / 100.0 for row in sweep]
    assert shares == sorted(shares) and shares[-1] > 0.5
    assert all(len(row.split()) == 9 for row in rows[1:3] + sizes + sweep)
    assert all(float(cell) > 0.0 for row in sizes + sweep for cell in row.split()[4:7])


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_compare_runs_diff_scores_a_lost_finite_entry_as_the_worst(tmp_path, dump, value):
    # |a - b| / max(|a|, |b|) is nan here; max() and > would drop it and read 0
    changed = copy.deepcopy(dump)
    run = changed["runs"]["two-agent-smooth-collision"]
    record = run["records"][-1]
    k = next(k for k, h in enumerate(record) if math.isfinite(float.fromhex(h)))
    record[k] = value.hex()
    out = _diff(tmp_path, dump, changed)
    assert out.returncode == 1, out.stdout + out.stderr
    line = next(s for s in out.stdout.splitlines() if s.startswith("two-agent-smooth-collision"))
    assert line.split(" records ")[1].split()[0] == "inf"
    assert f"({run['columns'][k]})" in line


def test_compare_runs_diff_scores_a_small_entry_against_its_own_size(tmp_path, dump):
    # an entry below 1 moved by 1e-6 of its value reads as 1e-6, not as the
    # absolute difference
    changed = copy.deepcopy(dump)
    run = changed["runs"]["two-agent-smooth-collision"]
    record = run["records"][-1]
    k = next(k for k, h in enumerate(record) if 0.0 < abs(float.fromhex(h)) < 0.1)
    record[k] = (float.fromhex(record[k]) * (1.0 + 1e-6)).hex()
    out = _diff(tmp_path, dump, changed)
    assert out.returncode == 1, out.stdout + out.stderr
    line = next(s for s in out.stdout.splitlines() if s.startswith("two-agent-smooth-collision"))
    score = float(line.split(" records ")[1].split()[0])
    assert score == pytest.approx(1e-6, rel=1e-3)
    assert f"({run['columns'][k]})" in line


def test_perfbench_tracer_binds_every_entry_point_and_restores_it(monkeypatch):
    # perfbench/tracing.py wraps its entry points by name; each must still
    # exist, and uninstall must put back every binding install replaced
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # perfbench/ stays as it is
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    originals = []
    for owner, attr, name, _ in tracing.ENTRY_POINTS:
        assert callable(getattr(owner, attr, None)), (attr, name)
        originals.append(getattr(owner, attr))
    targets = [owner for owner, *_ in tracing.ENTRY_POINTS]
    targets += [m for k, m in sys.modules.items()
                if m is not None and (k == "flocklab" or k.startswith("flocklab."))]
    bound = {(target, key): value for target in targets for key, value in vars(target).items()
             if any(value is fn for fn in originals)}
    assert len(bound) >= len(originals)
    cfg = scenario("torus-singular-beta2.5")
    state = cfg.build()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (target, key), value in bound.items():
            assert getattr(target, key) is not value, key
        diagnostics.lyapunov(state, cfg.kernel, cfg.domain, cfg.lyapunov)
        diagnostics.corrector_circle(state, cfg.kernel.r0)
    finally:
        tracer.uninstall()
    for (target, key), value in bound.items():
        assert getattr(target, key) is value, key
    names = [span[0] for span in tracer.spans if span[0].startswith("diagnostics.")]
    assert names == ["diagnostics.lyapunov", "diagnostics.compute_record",
                     "diagnostics.corrector"]


def test_perfbench_selftest_passes():
    # the benchmark's own contract, run from the root as its usage says:
    # each workload at a tiny size passes its checks traced and untraced,
    # the checks reject broken output and BENCHMARK.json names its metrics
    out = subprocess.run([sys.executable, str(PERFBENCH_SELFTEST)], cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.splitlines()[-1] == "selftest: 0 failure(s)"


@pytest.mark.parametrize("rtol, code", [("1e-8", 0), ("1e-10", 1), ("0", 1)])
def test_compare_runs_diff_passes_a_run_within_rtol(tmp_path, dump, rtol, code):
    # one record entry of one run and one velocity of another moved by 1e-9
    # of their values: within 1e-8 both pass, and within 1e-10 or bitwise
    # (rtol 0, the default) they do not; every line still says which runs
    # are bitwise equal
    changed = copy.deepcopy(dump)
    record = changed["runs"]["two-agent-smooth-collision"]["records"][-1]
    k = next(k for k, h in enumerate(record) if abs(float.fromhex(h)) > 0.1)
    record[k] = (float.fromhex(record[k]) * (1.0 + 1e-9)).hex()
    state = changed["runs"]["blocks-circle-256"]["states"][-1]
    state["v"][3] = (float.fromhex(state["v"][3]) * (1.0 - 1e-9)).hex()
    out = _diff(tmp_path, dump, changed, "--rtol", rtol)
    assert out.returncode == code, out.stdout + out.stderr
    lines = {line.split()[0]: line for line in out.stdout.splitlines()}
    assert " differs " in lines["two-agent-smooth-collision"]
    assert " differs " in lines["blocks-circle-256"]
    assert " bitwise equal " in lines["blocks-plane-192"]
    assert lines["runs:"].startswith("runs: all within" if code == 0 else "runs: some differ")


def test_compare_runs_diff_still_needs_equal_configs_within_rtol(tmp_path, dump):
    changed = copy.deepcopy(dump)
    _config(changed)
    out = _diff(tmp_path, dump, changed, "--rtol", "1e-12")
    assert out.returncode == 1, out.stdout + out.stderr
    assert "configs: some differ" in out.stdout and "runs: all within" in out.stdout


@pytest.mark.parametrize("rtol", ["-1e-12", "nan", "tight"])
def test_compare_runs_diff_refuses_a_bad_rtol(tmp_path, dump, rtol):
    out = _diff(tmp_path, dump, dump, "--rtol", rtol)
    assert out.returncode == 1 and "--rtol must be" in out.stderr
