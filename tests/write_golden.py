"""Write the golden job outputs that tests/test_golden.py pins.

    PYTHONPATH=src python tests/write_golden.py [--rewrite]

For each pinned workload, reads the benchmark's seed-1 job list from
bench/workloads.py and runs every job through the CLI entry point in
process.  The job's config.json and every file the CLI writes go to
tests/data/golden/<workload>/<job>/.  The CASES, which no workload
reaches, go the same way to tests/data/golden/cases/<case>/, with the
exit code in an exit_code file.  An existing workload or case directory
is left alone unless --rewrite is given, because rewriting a golden file
is a report change; a new case is written without it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import pathlib
import shutil
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN = HERE / "data" / "golden"
PINNED = ("nf-exact", "energy-scan", "circle-analyze", "stationary-phase")
SEED = 1
# cases no workload reaches, each run with `analyze --format json`; their exit
# codes go to an exit_code file beside config.json
CASES = {
    # a failing stage leaves the others intact: stationaryPhase has no stationary
    # point in the amplitude's support (exit 4)
    "stage-error": {
        "mode": "abstract",
        "criticalPoints": [{"label": "min", "value": 0, "hessian": [0.375]}],
        "energy": 1.0,
        "stages": ["radial", "resonance", "expansion", "stationaryPhase"],
        "options": {"stationaryPhase": {"tau": 0.1, "center": 1.0, "width": 0.05}}},
    # a complex (y''') block: the normal form is a stageSkips entry (exit 0)
    "complex-block": {
        "mode": "abstract",
        "criticalPoints": [{"label": "z", "value": 0, "hessian": [10.0]}],
        "energy": 1.0,
        "stages": ["radial", "resonance", "normalform", "expansion"]},
    # y' Hessian entries three orders apart: over resonance.MAX_SCAN_FAMILIES (exit 4)
    "scan-over-ceiling": {
        "mode": "abstract",
        "criticalPoints": [{"label": "z", "value": 0, "hessian": [-1, -1, -1e-3]}],
        "energy": [1.0, 2.0]},
    # a scan on a grid of 9,999 steps, not a square: I' and I'' roots in
    # several of its cells and a Hessian threshold (exit 0)
    "scan-non-square-grid": {
        "mode": "abstract",
        "criticalPoints": [{"label": "z", "value": 0, "hessian": ["-12", "-4", "3/8"]}],
        "energy": [0.5, 2.0],
        "stages": ["scan"],
        "options": {"scanGridPoints": 9999}},
}


def write_job(dest: pathlib.Path, command: str, config: dict, formats: str, cli_main) -> int:
    """Store config.json and the files the CLI writes for it in dest; return the exit code."""
    dest.mkdir(parents=True)
    path = dest / "config.json"
    path.write_text(json.dumps(config, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    with tempfile.TemporaryDirectory() as out, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = cli_main([command, "--config", str(path), "--out", out, "--format", formats])
        for written in sorted(pathlib.Path(out).iterdir()):
            shutil.copyfile(written, dest / written.name)
    return rc


def write_workload(name: str, jobs, cli_main) -> None:
    for job in jobs:
        rc = write_job(GOLDEN / name / job.name, job.command, job.config, job.formats, cli_main)
        if rc != 0:
            raise SystemExit(f"{name}/{job.name}: the CLI exited {rc}")


def write_cases(cli_main) -> None:
    for name, config in CASES.items():
        dest = GOLDEN / "cases" / name
        if dest.exists():
            print(f"{dest} exists; pass --rewrite to replace it", file=sys.stderr)
            continue
        rc = write_job(dest, "analyze", config, "json", cli_main)
        (dest / "exit_code").write_text(f"{rc}\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rewrite", action="store_true",
                        help="replace the existing golden files of each pinned workload and case")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE.parent / "bench"))
    from workloads import WORKLOADS
    from radialscope.cli import main as cli_main

    for name in PINNED:
        if (GOLDEN / name).exists():
            if not args.rewrite:
                print(f"{GOLDEN / name} exists; pass --rewrite to replace it", file=sys.stderr)
                continue
            shutil.rmtree(GOLDEN / name)
        write_workload(name, WORKLOADS[name](SEED), cli_main)
    if args.rewrite and (GOLDEN / "cases").exists():
        shutil.rmtree(GOLDEN / "cases")
    write_cases(cli_main)
    return 0


if __name__ == "__main__":
    sys.exit(main())
