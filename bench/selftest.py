"""Shows that each output checker rejects a deliberately wrong answer.

    python3 bench/selftest.py

Runs the first job of each workload (seed 1) through the CLI, checks its
real report, then an altered copy:

- nf-exact: a nonresonant monomial added to pNorm
- energy-scan: a scan root moved by 1e-6
- stationary-phase: the prefactor at x ~ 1e-3 scaled by 1.1
- circle-analyze: a DAG edge reversed

Exits 0 when every real report passes and every altered one is rejected.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys

import run
from checks import CHECKERS, CheckError, grade
from workloads import WORKLOADS, monomials, normalized_eigenvalue


def add_nonresonant_monomial(report: dict, job) -> None:
    point = next(iter(report["perEnergy"].values()))["z"]
    terms = point["normalForm"]["pNorm"]["terms"]
    present = {(t["a"], tuple(t["alpha"]), tuple(t["beta"])) for t in terms}
    rs = job.expect["r"]
    key = next(k for k in monomials(len(rs), 3)
               if normalized_eigenvalue(k, rs) != 0 and k not in present)
    assert grade(key) == 1
    terms.append({"a": key[0], "alpha": list(key[1]), "beta": list(key[2]),
                  "re": "1/1", "im": "0/1"})


def move_scan_root(report: dict, job) -> None:
    roots = report["global"]["energyScan"]["z"]["roots"]
    next(r for r in roots if r["kind"] == "effres")["sigma"] += 1e-6


def scale_prefactor(report: dict, job) -> None:
    rows = report["global"]["stationaryPhase"]["rows"]
    row = min(rows, key=lambda r: abs(r["x"] - 1e-3))
    for key in ("re", "im", "prefactorMod"):
        row[key] *= 1.1


def reverse_edge(report: dict, job) -> None:
    edge = report["global"]["dag"]["edges"][0]
    edge["from"], edge["to"] = edge["to"], edge["from"]


MUTATIONS = {
    "nf-exact": add_nonresonant_monomial,
    "energy-scan": move_scan_root,
    "stationary-phase": scale_prefactor,
    "circle-analyze": reverse_edge,
}


def main() -> int:
    sys.path.insert(0, run.SRC)
    from radialscope.cli import main as cli_main

    ok = True
    for workload, mutate in MUTATIONS.items():
        workdir = os.path.join(run.HERE, "work", "selftest", workload)
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        job = WORKLOADS[workload](1)[0]
        runner = run.Runner(cli_main, [job], workdir)
        rc, _ = runner.invoke(job)
        runner.settle(job, rc)
        if runner.failures:
            print(f"{workload}: job failed: {runner.failures}")
            ok = False
            continue
        report = json.loads(runner.first_report[job.name])
        check = CHECKERS[workload]
        check(job, report, runner.out_dir(job))
        wrong = copy.deepcopy(report)
        mutate(wrong, job)
        try:
            check(job, wrong, runner.out_dir(job))
        except CheckError as exc:
            print(f"{workload}: {mutate.__name__} rejected: {exc}")
        else:
            print(f"{workload}: {mutate.__name__} NOT rejected")
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
