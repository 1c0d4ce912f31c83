"""Write the golden job outputs that tests/test_golden.py pins.

    PYTHONPATH=src python tests/write_golden.py [--rewrite]

For each pinned workload, reads the benchmark's seed-1 job list from
bench/workloads.py and runs every job through the CLI entry point in
process.  The job's config.json and every file the CLI writes go to
tests/data/golden/<workload>/<job>/.  An existing workload directory is
left alone unless --rewrite is given, because rewriting a golden file is
a report change.
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
PINNED = ("nf-exact",)
SEED = 1


def write_workload(name: str, jobs, cli_main) -> None:
    for job in jobs:
        dest = GOLDEN / name / job.name
        dest.mkdir(parents=True)
        config = dest / "config.json"
        config.write_text(json.dumps(job.config, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        with tempfile.TemporaryDirectory() as out, \
                contextlib.redirect_stdout(io.StringIO()):
            rc = cli_main([job.command, "--config", str(config), "--out", out,
                           "--format", job.formats])
            if rc != 0:
                raise SystemExit(f"{name}/{job.name}: the CLI exited {rc}")
            for path in sorted(pathlib.Path(out).iterdir()):
                shutil.copyfile(path, dest / path.name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rewrite", action="store_true",
                        help="replace the existing golden files of each pinned workload")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE.parent / "bench"))
    from workloads import WORKLOADS
    from radialscope.cli import main as cli_main

    for name in PINNED:
        if (GOLDEN / name).exists():
            if not args.rewrite:
                print(f"{GOLDEN / name} exists; pass --rewrite to replace it", file=sys.stderr)
                return 1
            shutil.rmtree(GOLDEN / name)
        write_workload(name, WORKLOADS[name](SEED), cli_main)
    return 0


if __name__ == "__main__":
    sys.exit(main())
