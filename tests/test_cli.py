"""Command-line entry points."""

import json

import pytest

from flocklab.diagnostics import read_csv
from flocklab.harness import scenario, scenario_names
from flocklab.harness.cli import main


def test_scenario_list(capsys):
    assert main(["scenario", "list"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == scenario_names()


def test_scenario_show(capsys):
    assert main(["scenario", "show", "parallel-lines-R2"]) == 0
    shown = json.loads(capsys.readouterr().out)
    assert shown == scenario("parallel-lines-R2").to_dict()


def test_scenario_show_requires_name(capsys):
    assert main(["scenario", "show"]) == 2
    assert "error" in capsys.readouterr().err


def test_run_library_scenario(tmp_path, capsys):
    out = tmp_path / "lines.csv"
    code = main(["run", "parallel-lines-R2", "--horizon", "3.0", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out.strip() == str(out)
    meta, cols = read_csv(out)
    assert meta["scenario"] == "parallel-lines-R2"
    assert cols["t"][-1] == 3.0


def test_run_json_config(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(scenario("two-agent-smooth-collision", horizon=1.0).to_dict()))
    out = tmp_path / "pair.csv"
    assert main(["run", str(cfg_path), "--out", str(out)]) == 0
    _, cols = read_csv(out)
    assert cols["t"][-1] == 1.0
    bad = scenario("two-agent-smooth-collision").to_dict()
    bad["observers"]["kind"] = "linaer"
    cfg_path.write_text(json.dumps(bad))
    assert main(["run", str(cfg_path), "--out", str(out)]) == 2
    assert "linaer" in capsys.readouterr().err
    # json reads NaN; the schedule rejects it before times() could loop on it
    bad = scenario("two-agent-smooth-collision").to_dict()
    bad["observers"]["spacing"] = float("nan")
    cfg_path.write_text(json.dumps(bad))
    assert "NaN" in cfg_path.read_text()
    assert main(["run", str(cfg_path), "--out", str(out)]) == 2
    assert "spacing" in capsys.readouterr().err


def test_run_header_config_reproduces_an_overridden_run(tmp_path):
    first = tmp_path / "first.csv"
    assert main(["run", "two-agent-smooth-collision", "--seed", "3", "--horizon", "0.5",
                 "--out", str(first)]) == 0
    meta, _ = read_csv(first)
    assert (meta["seed"], meta["horizon"]) == ("3", "0.5")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(meta["config"])
    again = tmp_path / "again.csv"
    assert main(["run", str(cfg_path), "--out", str(again)]) == 0
    assert again.read_bytes() == first.read_bytes()


def test_run_unknown_config(capsys):
    assert main(["run", "definitely-not-a-scenario.json"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.fixture(scope="module")
def pair_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("csv") / "pair.csv"
    scenario("two-agent-smooth-collision").run_to_csv(path=str(path))
    return path


def test_rates_command(pair_csv, capsys):
    assert main(["rates", str(pair_csv), "--window", "1", "5"]) == 0
    out = capsys.readouterr().out
    assert "model=powerlaw" in out and "exponent=" in out
    assert main(["rates", str(pair_csv), "--model", "logovert", "--window", "2", "10",
                 "--column", "V1"]) == 0
    assert "column=V1" in capsys.readouterr().out


def test_rates_missing_column(pair_csv, capsys):
    assert main(["rates", str(pair_csv), "--column", "V9"]) == 2
    assert "V9" in capsys.readouterr().err


def test_rates_bad_window(pair_csv, capsys):
    # domain errors surface as one-line messages, not tracebacks
    assert main(["rates", str(pair_csv), "--window", "0.5", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "t >= 1" in err


def test_accept_unknown_suite(capsys):
    assert main(["accept", "no-such-suite"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "{dir}"],
    ["rates", "{dir}"],
    ["run", "two-agent-smooth-collision", "--horizon", "0.5", "--out", "{dir}"],
    ["accept", "consistency", "--out", "{dir}"],
    ["rates", "{header_only}"],
    ["rates", "{short_row}"],
    ["rates", "{long_row}"],
    ["rates", "{ragged_rows}"],
], ids=["run-config-dir", "rates-csv-dir", "run-out-dir", "accept-out-dir",
        "rates-header-only-csv", "rates-short-row", "rates-long-row", "rates-ragged-rows"])
def test_a_file_the_command_cannot_use_is_one_error_line(tmp_path, capsys, argv):
    # exit 2 with one line, not a traceback
    files = {"header_only": "", "short_row": "1,2\n", "long_row": "1,2,3\n",
             "ragged_rows": "1\n1,2,3\n"}
    for name, rows in files.items():
        files[name] = tmp_path / f"{name}.csv"
        files[name].write_text("# scenario: none\nt,V2\n" + rows)
    argv = [arg.format(dir=tmp_path, **files) for arg in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err


@pytest.mark.parametrize("path, value", [
    (("initial", "seed"), 1.5),
    (("initial", "seed"), True),
    (("initial", "seed"), -1),
    (("initial", "params", "sigmaa"), 5.0),
    (("initial", "params", "sigma"), float("nan")),
    (("initial", "weightmode"), "uniform"),
    (("n",), 2.5),
    (("domain", "dim"), 2.7),
    (("kernel", "bta"), 3.0),
    (("stepper", "dt_max"), None),
    (("initial", "kind"), ["two_agent_symmetric"]),
    (("observers", "factor"), 7.0),
    (("horizon",), "0.5"),
], ids=["seed-fraction", "seed-bool", "seed-negative", "param-misspelt", "param-nan",
        "initial-key-misspelt", "n-fraction", "dim-fraction", "kernel-key-misspelt",
        "dt_max-null", "kind-list", "observers-stray-key", "horizon-string"])
def test_run_rejects_a_bad_config_in_one_line(tmp_path, capsys, path, value):
    # refused before anything runs: one line naming the key, no traceback
    cfg = scenario("euclid-classical-smooth", horizon=0.5).to_dict()
    section = cfg
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out.csv")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert path[-1] in err[0]


@pytest.mark.parametrize("path", [
    ("n",), ("horizon",), ("domain", "kind"), ("kernel", "kind"), ("stepper", "dt_max"),
    ("observers", "kind"), ("lyapunov", "variant"),
], ids=lambda path: ".".join(path))
def test_run_names_a_missing_config_key(tmp_path, capsys, path):
    cfg = scenario("euclid-classical-smooth", horizon=0.5).to_dict()
    section = cfg
    for key in path[:-1]:
        section = section[key]
    del section[path[-1]]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out.csv")]) == 2
    err = capsys.readouterr().err.splitlines()
    name = path[0] if len(path) > 1 else "config"
    assert err == [f"error: {name} needs the key {path[-1]!r}"]
