"""radialscope benchmark: seeded CLI workloads, checked outputs, traced layers.

    python3 bench/run.py --workload nf-exact --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout; the program is imported from
src/.  One process, one client in a closed loop: jobs of the workload's
list run back to back through radialscope.cli.main, in whole rounds, for
--seconds (at least two rounds, so every report is also compared byte for
byte with its first run).  Configs and outputs go to bench/work/<workload>/,
a record of the run to bench/results/.

--trace 0 prints the end-to-end metrics; --trace 1 makes the traced run
and prints the per-layer metrics (see README.md).  The last line of
standard output is the result object.
"""

from __future__ import annotations

import os

# one job at a time in one thread: no pipeline threads, no BLAS threads
os.environ.pop("RADIALSCOPE_THREADS", None)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import compileall  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_SAMPLES = 3


def measure_setup() -> list[float]:
    """Wall times of fresh interpreters importing radialscope.cli, after
    the bytecode caches are written."""
    compileall.compile_dir(os.path.join(SRC, "radialscope"), quiet=1)
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable, "-c", "import radialscope.cli"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, timeout=120)
        samples.append(time.perf_counter() - t0)
    return samples


def more_rounds(start: float, rounds: int, seconds: float, minimum: int) -> bool:
    """Whether to start another round: until `minimum` rounds, then while
    one more round of the mean length so far ends within `seconds`."""
    if rounds < minimum:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / rounds <= seconds


class Runner:
    """Runs jobs through the CLI entry point and tracks their outcomes."""

    def __init__(self, cli_main, jobs, workdir):
        self.cli_main = cli_main
        self.jobs = jobs
        self.workdir = workdir
        self.first_report: dict[str, bytes] = {}
        self.failures: dict[str, str] = {}      # job -> first reason
        self.attempted = 0
        self.failed = 0
        for job in jobs:
            with open(self.config_path(job), "w", encoding="utf-8") as fh:
                json.dump(job.config, fh, sort_keys=True)

    def config_path(self, job) -> str:
        return os.path.join(self.workdir, f"{job.name}.json")

    def out_dir(self, job) -> str:
        return os.path.join(self.workdir, job.name)

    def invoke(self, job) -> tuple[object, float]:
        argv = [job.command, "--config", self.config_path(job), "--out", self.out_dir(job),
                "--format", job.formats]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            try:
                rc = self.cli_main(argv)
            except Exception as exc:  # noqa: BLE001 - a crash is a failed job
                rc = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
        if rc != 0:
            rc = f"exit {rc}: {sink.getvalue().strip()[-300:]}"
        return rc, elapsed

    def settle(self, job, rc) -> None:
        """Count one attempt; a failure is a non-zero exit, stageErrors, or
        a report that differs from the job's first one."""
        self.attempted += 1
        reason = None if rc == 0 else str(rc)
        if reason is None:
            with open(os.path.join(self.out_dir(job), "report.json"), "rb") as fh:
                data = fh.read()
            first = self.first_report.setdefault(job.name, data)
            errors = json.loads(data)["stageErrors"]
            if errors:
                reason = f"stageErrors: {errors}"
            elif data != first:
                reason = "report.json differs from the job's first run"
        if reason is not None:
            self.failed += 1
            self.failures.setdefault(job.name, reason)


def timed_pass(runner, time_reference) -> tuple[list, list]:
    """One round over the job list: each job's wall time and the mean of
    the reference-kernel times taken right before and after it."""
    elapsed, refs = [], []
    for job in runner.jobs:
        before = time_reference()
        rc, seconds = runner.invoke(job)
        after = time_reference()
        elapsed.append(seconds)
        refs.append(0.5 * (before + after))
        runner.settle(job, rc)
    return elapsed, refs


def run_checks(runner, workload, checkers) -> bool:
    """Check each job's first report; a wrong answer fails the job in
    every attempt and makes the run incorrect."""
    correct = True
    check = checkers[workload]
    rounds = runner.attempted // len(runner.jobs)
    for job in runner.jobs:
        if job.name in runner.failures:
            continue
        try:
            check(job, json.loads(runner.first_report[job.name]), runner.out_dir(job))
        except AssertionError as exc:
            correct = False
            runner.failures[job.name] = f"check: {exc}"
            runner.failed += rounds
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "radialscope", "cli.py")):
        print(f"radialscope sources not found under {SRC}", file=sys.stderr)
        return 2
    from checks import CHECKERS
    from reference import time_reference
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    setup = [] if args.trace else measure_setup()
    sys.path.insert(0, SRC)
    import numpy
    import scipy
    from radialscope.cli import main as cli_main

    workdir = os.path.join(HERE, "work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    runner = Runner(cli_main, WORKLOADS[args.workload](args.seed), workdir)

    # untimed warm-up: imports inside the program, caches, first allocations
    runner.invoke(runner.jobs[0])

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "jobs": [j.name for j in runner.jobs],
        "setup_samples_s": setup,
    }
    if args.trace:
        metrics, extra = traced_run(runner, time_reference, args.seconds)
        record.update(extra)
    else:
        metrics, extra = timed_run(runner, time_reference, args.seconds)
        record.update(extra)
        metrics["setup_s"] = (statistics.median(setup), "s")
    correct = run_checks(runner, args.workload, CHECKERS)

    result = {"correct": correct, "attempted": runner.attempted, "failed": runner.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record.update(result)
    record["failures"] = runner.failures
    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for name, reason in sorted(runner.failures.items()):
        print(f"failed {name}: {reason}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def timed_run(runner, time_reference, seconds):
    """Whole rounds for `seconds`; a job list's time is the sum of each
    job's median over the rounds, which shrugs off a slow or fast spell of
    the machine within the run."""
    rounds = []
    start = time.perf_counter()
    while more_rounds(start, len(rounds), seconds, minimum=2):
        rounds.append(timed_pass(runner, time_reference))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    per_job = list(zip(*(elapsed for elapsed, _ in rounds)))
    per_job_ref = list(zip(*([e / r for e, r in zip(*rnd)] for rnd in rounds)))
    metrics = {
        "wall_s": (sum(statistics.median(t) for t in per_job), "s"),
        "wall_ref": (sum(statistics.median(t) for t in per_job_ref), "ref"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    extra = {"rounds": len(rounds), "job_wall_s": per_job, "job_ref_s": [r for _, r in rounds],
             "round_wall_s": [sum(e) for e, _ in rounds],
             "round_wall_ref": [sum(e / r for e, r in zip(*rnd)) for rnd in rounds],
             "ref_kernel_median_s": statistics.median(r for _, refs in rounds for r in refs)}
    return metrics, extra


def traced_run(runner, time_reference, seconds):
    """Rounds of an untraced pass and a span pass, then one counter pass."""
    from tracing import SPAN_TARGETS, Counters, Patch, SpanRecorder

    recorder = SpanRecorder()
    untraced, rounds, refs = [], [], []
    start = time.perf_counter()
    while more_rounds(start, len(rounds), seconds, minimum=1):
        elapsed, round_refs = timed_pass(runner, time_reference)
        untraced.append(sum(e / r for e, r in zip(elapsed, round_refs)))
        refs += round_refs
        layers: dict[str, float] = {}
        with Patch() as patch:
            recorder.install(patch)
            for job in runner.jobs:
                first = len(recorder.spans)
                before = time_reference()
                rc = recorder.call("job", runner.invoke, job)[0]
                after = time_reference()
                runner.settle(job, rc)
                ref = 0.5 * (before + after)
                for name, t in recorder.self_times(first).items():
                    layers[name] = layers.get(name, 0.0) + t / ref
                job_span = recorder.spans[first]
                layers["trace.job"] = layers.get("trace.job", 0.0) \
                    + (job_span[2] - job_span[1]) / ref
        attributed = sum(v for k, v in layers.items() if k != "trace.job")
        if abs(attributed - layers["trace.job"]) > 1e-9 * layers["trace.job"]:
            raise RuntimeError("span self times do not add up to the traced job time")
        rounds.append(layers)

    counters = Counters()
    with Patch() as patch:
        counters.install(patch)
        for job in runner.jobs:
            runner.settle(job, runner.invoke(job)[0])

    median_round = sorted(rounds, key=lambda r: r["trace.job"])[(len(rounds) - 1) // 2]
    metrics = {f"{name}_ref": (median_round.get(name, 0.0), "ref") for name, _, _ in SPAN_TARGETS}
    metrics["trace.job_ref"] = (median_round["trace.job"], "ref")
    metrics["trace.unattributed_ref"] = (median_round.get("job", 0.0), "ref")
    metrics["trace.overhead"] = (statistics.median(r["trace.job"] for r in rounds)
                                 / statistics.median(untraced), "ratio")
    for name, value in counters.metrics().items():
        metrics[name] = (value, "ratio" if name == "symalg.kept_ratio" else "count")

    spans_path = os.path.join(HERE, "results", f"spans-{os.path.basename(runner.workdir)}.json")
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(recorder.spans, fh)
    extra = {"rounds": len(rounds), "ref_kernel_median_s": statistics.median(refs),
             "round_untraced_ref": untraced, "spans_file": os.path.relpath(spans_path, ROOT)}
    return metrics, extra


if __name__ == "__main__":
    sys.exit(main())
