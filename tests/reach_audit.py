"""Reach audit: which functions in src/ does no run of the program enter?

    PYTHONPATH=src python tests/reach_audit.py

Under sys.setprofile it runs, in process:
- every job of the four benchmark workloads at seed 1, through
  radialscope.cli.main with --format json,csv (the jobs come from
  bench/workloads.py, which it only reads);
- the eight demos;
- the README's library quick-start block.

It then lists every function defined in src/radialscope that no run
entered and that ALLOWLIST does not name, every ALLOWLIST entry that a
run did enter (a stale reason) and every entry that names no function.
It exits 1 if any list is non-empty.  Code that only the tests reach
belongs with the tests.  pytest does not collect this file.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import json
import pathlib
import re
import runpy
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "radialscope"
SEED = 1

# "module.qualname" -> why it stays in src/ although no run enters it
ALLOWLIST = {
    # kept by the benchmark's tracer until the program counts its own work
    "symalg.WeightedPolynomial.__len__":
        "bench/tracing.py's mul_pairs and kept_ratio counters call len() on polynomials",
    "scalars.GaussianRational.__sub__":
        "ring operator the tracer patches; the ring-law tests treat the set as a whole",
    "scalars.GaussianRational.__rsub__":
        "ring operator the tracer patches; the ring-law tests treat the set as a whole",
    "scalars.GaussianRational.__truediv__":
        "ring operator the tracer patches; the ring-law tests treat the set as a whole "
        "(the exact homological solve divides int numerators)",
    "scalars.GaussianRational.__rtruediv__":
        "ring operator the tracer patches; the ring-law tests treat the set as a whole",
    "dynamics.solve_ivp":
        "the tracer's ivp_calls/rhs_evals counters name it; goes with the recorder module",
    "oscverify._gk15":
        "adaptive Gauss-Kronrod, which the tracer's quadrature span names",
    "oscverify._gk_adaptive":
        "adaptive Gauss-Kronrod, which the tracer's quadrature span names",
    "oscverify.oscillatory_quadrature":
        "the tracer's oscverify.quadrature span names it",
    # the hash/eq contract: equal values hash equal, whether or not a run hashes
    "scalars.GaussianRational.__hash__": "hash/eq contract of an __eq__ class",
    "multipoly.MultiPoly.__hash__": "hash/eq contract of an __eq__ class",
    "symalg.WeightedPolynomial.__hash__": "hash/eq contract of an __eq__ class",
    # CLI error paths: no workload fails, but a bad config or stage does
    "cli._reject_constant": "CLI error path: NaN/Infinity literals in a config",
    "cli_reports._stage_error": "CLI error path: formats a failed stage or option",
    "cli_reports._oscillator_spec": "CLI error path and options.oscillator parsing",
    "dynamics._cycle_through": "CLI error path: names a cycle in a non-DAG flow graph",
    "dynamics.FlowStepError.__init__": "CLI error path: a flow trace that fails",
    # the twin of what a run uses
    "radial.LinearizationData.eigenvalue_e": "twin of eigenvalue_f; demo 02 shows both",
    "__init__.__dir__": "PEP 562 twin of the package's __getattr__: dir() lists the "
                        "lazy exports before their first use",
}


def defined_functions() -> dict[tuple[str, str], str]:
    """(file, qualname) -> "module.qualname" for every def in the package."""
    out = {}

    def walk(node, prefix, path, module):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = prefix + child.name
                out[(path, qual)] = f"{module}.{qual}"
                walk(child, qual + ".<locals>.", path, module)
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".", path, module)
            else:
                walk(child, prefix, path, module)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), "", str(path), path.stem)
    return out


def quickstart_source() -> str:
    """The python block under the README's "Library quick start" heading."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def run_workloads(workdir: pathlib.Path) -> None:
    from radialscope.cli import main as cli_main
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    workloads = sys.modules["workloads"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name, make in workloads.WORKLOADS.items():
        for job in make(SEED):
            config = workdir / f"{name}-{job.name}.json"
            config.write_text(json.dumps(job.config), encoding="utf-8")
            argv = [job.command, "--config", str(config),
                    "--out", str(workdir / f"{name}-{job.name}"), "--format", "json,csv"]
            rc = cli_main(argv)
            if rc != 0:
                raise SystemExit(f"{name}/{job.name} exited {rc}")


def run_demos() -> None:
    for path in sorted((ROOT / "demos").glob("*.py")):
        runpy.run_path(str(path), run_name="__main__")


def main() -> int:
    defined = defined_functions()
    entered: set[tuple[str, str]] = set()
    prefix = str(PACKAGE)

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(prefix):
                entered.add((code.co_filename, code.co_qualname))

    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        sys.setprofile(profile)
        try:
            run_workloads(pathlib.Path(tmp))
            run_demos()
            exec(compile(quickstart_source(), "README quick start", "exec"), {})
        finally:
            sys.setprofile(None)
    seconds = time.perf_counter() - t0

    unknown = sorted(set(ALLOWLIST) - set(defined.values()))
    missed = sorted(name for key, name in defined.items()
                    if key not in entered and name not in ALLOWLIST)
    stale = sorted(name for key, name in defined.items() if key in entered and name in ALLOWLIST)
    print(f"{len(defined)} functions in src/radialscope, {len(entered & set(defined))} entered, "
          f"{len(ALLOWLIST)} allowlisted; {seconds:.1f} s")
    for name in missed:
        print(f"never entered: {name}")
    for name in stale:
        print(f"allowlisted but entered: {name}")
    for name in unknown:
        print(f"allowlisted but not defined: {name}")
    return 1 if missed or stale or unknown else 0


if __name__ == "__main__":
    sys.exit(main())
