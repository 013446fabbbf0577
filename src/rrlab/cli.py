"""Command-line entry points.

``rrlab run <config-file> [--out DIR] [--seed N]`` runs one scenario and
writes its CSV report; ``rrlab check`` runs the built-in acceptance
suite.  Exit codes: 0 success, 2 invalid configuration or an output
that cannot be written, 3 solver failure, 4 acceptance threshold
violated.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

from . import __version__
from .lab import (_RUNNERS, ConfigError, ScenarioConfig, parse_config,
                  run_scenario)
from .subsolve import SolverFailure

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_THRESHOLD = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rrlab",
        description="Robin-Robin domain decomposition laboratory for "
                    "linear parabolic problems.")
    parser.add_argument("--version", action="version",
                        version=f"rrlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run", help="run one scenario from a key=value config file",
        description=f"Scenarios: {', '.join(_RUNNERS)}.  Config keys "
                    "mirror ScenarioConfig fields: "
                    f"{', '.join(f.name for f in fields(ScenarioConfig))}.")
    run_p.add_argument("config", help="path to the configuration file")
    run_p.add_argument("--out", default=".", help="output directory")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the configured random seed")

    sub.add_parser("check", help="run the built-in acceptance suite")
    return parser


def _cmd_run(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config file: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        config = parse_config(text)
        try:
            # before the run, so a bad --out costs no scenario
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            print(f"error: cannot create output directory: {exc}",
                  file=sys.stderr)
            return EXIT_CONFIG
        result = run_scenario(config, seed=args.seed)
    except ConfigError as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverFailure as exc:
        print(f"error: solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER

    path = os.path.join(args.out, f"{config.scenario}.csv")
    try:
        result.report.write(path)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(path)
    if result.violation is not None:
        print(f"threshold violated: {result.violation}", file=sys.stderr)
        return EXIT_THRESHOLD
    return EXIT_OK


def _cmd_check() -> int:
    from .acceptance import run_acceptance
    return run_acceptance()


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_check()


if __name__ == "__main__":
    sys.exit(main())
