"""Command-line front end: run scenarios, fit rates, run acceptance suites."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from ..diagnostics import read_csv
from .acceptance import AcceptanceLab, run_acceptance, suite_names
from .ratefit import RateModel, rate_fit
from .scenarios import ScenarioConfig, reseeded, scenario, scenario_names


def _load_config(ref: str) -> ScenarioConfig:
    """A library name or a path to a JSON config file."""
    if ref in scenario_names():
        return scenario(ref)
    with open(ref, "r", encoding="utf-8") as fh:
        return ScenarioConfig.from_dict(json.load(fh))


def _cmd_run(args) -> int:
    cfg = _load_config(args.config)
    if args.seed is not None:
        cfg = reseeded(cfg, args.seed)
    if args.horizon is not None:
        cfg = dataclasses.replace(cfg, horizon=args.horizon)
    path = cfg.run_to_csv(path=args.out)
    print(path)
    return 0


def _cmd_rates(args) -> int:
    meta, cols = read_csv(args.csv)
    if args.column not in cols:
        print(f"error: column {args.column!r} not in {args.csv}", file=sys.stderr)
        return 2
    window = tuple(args.window) if args.window else None
    fit = rate_fit(cols["t"], cols[args.column], RateModel(args.model), window)
    print(
        f"model={fit.model.value} column={args.column} "
        f"window=[{fit.window[0]:g},{fit.window[1]:g}] n={fit.n_samples} "
        f"exponent={fit.exponent:.6g} amplitude={fit.amplitude:.6g} "
        f"residual={fit.residual:.3e}"
    )
    return 0


def _cmd_scenario(args) -> int:
    if args.action == "list":
        for name in scenario_names():
            print(name)
        return 0
    if not args.name:
        print("error: scenario show requires a name", file=sys.stderr)
        return 2
    cfg = scenario(args.name)
    print(json.dumps(cfg.to_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_accept(args) -> int:
    report = run_acceptance(args.suite, AcceptanceLab())
    lines = report.lines()
    for line in lines:
        print(line)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flocklab",
        description="Alignment dynamics lab: simulate, fit decay rates, "
                    "and run the acceptance experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario and write CSV")
    p_run.add_argument("config", help="library scenario name or JSON config path")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--horizon", type=float, default=None)
    p_run.add_argument("--out", default=None, help="output CSV path")
    p_run.set_defaults(func=_cmd_run)

    p_rates = sub.add_parser("rates", help="fit a decay model to a CSV column")
    p_rates.add_argument("csv")
    p_rates.add_argument("--model", choices=[m.value for m in RateModel],
                         default=RateModel.POWER_LAW.value)
    p_rates.add_argument("--window", type=float, nargs=2, metavar=("LO", "HI"),
                         default=None)
    p_rates.add_argument("--column", default="V2")
    p_rates.set_defaults(func=_cmd_rates)

    p_scen = sub.add_parser("scenario", help="list or show library scenarios")
    p_scen.add_argument("action", choices=["list", "show"])
    p_scen.add_argument("name", nargs="?", default=None)
    p_scen.set_defaults(func=_cmd_scenario)

    p_accept = sub.add_parser("accept", help="run an acceptance suite")
    p_accept.add_argument("suite", help=f"one of: {', '.join(suite_names())}")
    p_accept.add_argument("--out", default=None, help="also write report lines here")
    p_accept.set_defaults(func=_cmd_accept)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except KeyError as err:
        print(f"error: {err.args[0]}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
