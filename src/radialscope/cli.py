"""Command-line interface.

Subcommands run the pipeline with a stage filter:

    radialscope analyze          --config cfg.json [--out DIR] ...
    radialscope scan-energies    --config cfg.json
    radialscope normal-form      --config cfg.json
    radialscope flow             --config cfg.json
    radialscope morse            --config cfg.json
    radialscope expansion        --config cfg.json
    radialscope stationary-phase --config cfg.json

Exit codes: 0 ok, 2 config error, 3 forbidden energy (within --tol of a
critical value of V0 or a Hessian threshold, in abstract and explicit
mode alike), 4 numerical-stage failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .cli_reports import (EXIT_CONFIG, EXIT_FORBIDDEN_ENERGY, EXIT_NUMERICAL, EXIT_OK,
                          AnalysisConfig, ConfigError, emit, run_analysis)
from .radial import ForbiddenEnergyError

STAGE_SETS = {
    "analyze": None,  # config-driven default
    "scan-energies": ["scan"],
    "normal-form": ["radial", "resonance", "normalform"],
    "flow": ["flow"],
    "morse": ["flow", "morse"],
    "expansion": ["radial", "resonance", "normalform", "expansion"],
    "stationary-phase": ["stationaryPhase"],
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and reused by every main call."""
    parser = argparse.ArgumentParser(prog="radialscope",
                                     description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in STAGE_SETS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        p.add_argument("--format", default="json",
                       help="comma-separated formats: json,csv (default: json)")
        p.add_argument("--sigma", type=float, default=None,
                       help="override the config energy with a single value")
        p.add_argument("--max-degree", type=int, default=None,
                       help="override options.maxDegree")
        p.add_argument("--tol", type=float, default=None, help="override options.tol")
    return parser


def _reject_constant(name: str):
    """json.load's hook for NaN, Infinity and -Infinity, which JSON does not allow."""
    raise ConfigError(f"non-finite number {name} is not allowed")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh, parse_constant=_reject_constant)
        # the overrides below need an object with an options object
        if not isinstance(raw, dict):
            raise ConfigError(f"the config must be a JSON object, got {type(raw).__name__}")
        if not isinstance(raw.get("options", {}), dict):
            raise ConfigError(f"options must be a JSON object, "
                              f"got {type(raw['options']).__name__}")
        if args.sigma is not None:
            raw["energy"] = args.sigma
        opts = raw.setdefault("options", {})
        if args.max_degree is not None:
            opts["maxDegree"] = args.max_degree
        if args.tol is not None:
            opts["tol"] = args.tol
        stages = STAGE_SETS[args.command]
        if stages is not None:
            raw["stages"] = stages
        config = AnalysisConfig.from_dict(raw)
        formats = [f.strip() for f in args.format.split(",") if f.strip()]
        if not formats or not set(formats) <= {"json", "csv"}:
            raise ConfigError(f"--format must list json and/or csv, got {args.format!r}")
    except (OSError, json.JSONDecodeError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        report = run_analysis(config)
    except ForbiddenEnergyError as exc:
        print(f"forbidden energy: {exc}", file=sys.stderr)
        return EXIT_FORBIDDEN_ENERGY
    except Exception as exc:  # noqa: BLE001 - numerical stage failure
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    try:
        paths = emit(report, formats, args.out)
    except ValueError as exc:   # a non-finite float has no JSON form
        print(f"numerical failure: report not written: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    for p in paths:
        print(p)
    if report.stage_errors:
        for stage, msg in sorted(report.stage_errors.items()):
            print(f"stage error [{stage}]: {msg}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
