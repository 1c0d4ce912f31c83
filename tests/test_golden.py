"""Every output byte of the pinned workloads' seed-1 jobs.

tests/write_golden.py wrote each job's config.json and the files the CLI
wrote for it under tests/data/golden/<workload>/<job>/.  Each job runs
here from its stored config alone, in process, and every file the CLI
writes must equal the stored one byte for byte.  The cases that no
workload reaches (tests/data/golden/cases/) also store the exit code the
CLI must return.  The floating workloads'
files carry test_cli's FLOAT_REPORTS_PINNED_WITH caveat.
"""

import pathlib

import pytest

from radialscope.cli import main
from test_cli import FLOAT_REPORTS_PINNED_WITH

GOLDEN = pathlib.Path(__file__).resolve().parent / "data" / "golden"
# the CLI subcommand and --format of each pinned workload's jobs
COMMANDS = {"nf-exact": ("expansion", "json"), "energy-scan": ("scan-energies", "json"),
            "circle-analyze": ("analyze", "json,csv"),
            "stationary-phase": ("stationary-phase", "json"), "cases": ("analyze", "json")}
EXACT = {"nf-exact"}
JOBS = sorted(job.relative_to(GOLDEN).as_posix() for workload in COMMANDS
              for job in (GOLDEN / workload).iterdir())


def test_every_pinned_workload_has_jobs():
    assert {job.split("/")[0] for job in JOBS} == set(COMMANDS)


def outputs(case):
    return sorted(path.name for path in case.iterdir()
                  if path.name not in ("config.json", "exit_code"))


def run_job(job, out):
    case = GOLDEN / job
    command, formats = COMMANDS[job.split("/")[0]]
    exit_code = case / "exit_code"
    want = int(exit_code.read_text()) if exit_code.exists() else 0
    assert main([command, "--config", str(case / "config.json"), "--out", str(out),
                 "--format", formats]) == want
    return case


@pytest.mark.parametrize("job", JOBS)
def test_golden_output_bytes(tmp_path, capsys, job):
    case = run_job(job, tmp_path)
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == outputs(case)
    caveat = "" if job.split("/")[0] in EXACT else f", pinned with {FLOAT_REPORTS_PINNED_WITH}"
    for name in written:
        assert (tmp_path / name).read_bytes() == (case / name).read_bytes(), name + caveat


def test_rerun_over_longer_stale_files(tmp_path, capsys):
    # every file is rewritten in place and cut to its new length; report.json
    # is a symlink, which the rerun writes through and leaves a symlink
    for job in JOBS:
        case, out, target = GOLDEN / job, tmp_path / job, tmp_path / "targets" / job
        out.mkdir(parents=True)
        target.parent.mkdir(parents=True, exist_ok=True)
        for name in outputs(case):
            stale = b"9" * (2 * (case / name).stat().st_size + 100)
            (target if name == "report.json" else out / name).write_bytes(stale)
        (out / "report.json").symlink_to(target)
        run_job(job, out)
        assert (out / "report.json").is_symlink(), job
        for name in outputs(case):
            assert (out / name).read_bytes() == (case / name).read_bytes(), f"{job}/{name}"
