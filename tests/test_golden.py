"""Every output byte of the pinned workloads' seed-1 jobs.

tests/write_golden.py wrote each job's config.json and the files the CLI
wrote for it under tests/data/golden/<workload>/<job>/.  Each job runs
here from its stored config alone, in process, and every file the CLI
writes must equal the stored one byte for byte.
"""

import pathlib

import pytest

from radialscope.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent / "data" / "golden"
# the CLI subcommand and --format of each pinned workload's jobs
COMMANDS = {"nf-exact": ("expansion", "json")}
JOBS = sorted(job.relative_to(GOLDEN).as_posix() for workload in COMMANDS
              for job in (GOLDEN / workload).iterdir())


def test_every_pinned_workload_has_jobs():
    assert {job.split("/")[0] for job in JOBS} == set(COMMANDS)


@pytest.mark.parametrize("job", JOBS)
def test_golden_output_bytes(tmp_path, capsys, job):
    case = GOLDEN / job
    command, formats = COMMANDS[job.split("/")[0]]
    assert main([command, "--config", str(case / "config.json"), "--out", str(tmp_path),
                 "--format", formats]) == 0
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == sorted(path.name for path in case.iterdir() if path.name != "config.json")
    for name in written:
        assert (tmp_path / name).read_bytes() == (case / name).read_bytes(), name
