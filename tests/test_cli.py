import functools
import importlib
import json
import math
import os
import pathlib
import re
import subprocess
import sys
from fractions import Fraction

import jsonschema
import pytest
from hypothesis import example, given, settings, strategies as st

from radialscope import cli_reports
from radialscope.cli import build_parser, main
from radialscope.cli_reports import (CONFIG_SCHEMA, DEFAULTS, EXIT_CONFIG,
                                     EXIT_FORBIDDEN_ENERGY, EXIT_NUMERICAL, EXIT_OK,
                                     AnalysisConfig, ConfigError)
from radialscope.symalg import WeightedPolynomial

COS2_CONFIG = {
    "mode": "explicit",
    "potential": {"n": 2, "v0": [[2, 1.0, 0.0]]},
    "energy": 2.0,
    "options": {"maxDegree": 5, "K": 2},
}


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_analyze_deterministic(tmp_path):
    cfg = write_config(tmp_path, COS2_CONFIG)
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "a")]) == EXIT_OK
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "b")]) == EXIT_OK
    ba = (tmp_path / "a" / "report.json").read_bytes()
    bb = (tmp_path / "b" / "report.json").read_bytes()
    assert ba == bb


def test_analyze_report_content(tmp_path):
    cfg = write_config(tmp_path, COS2_CONFIG)
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--format", "json,csv"]) == EXIT_OK
    rep = json.loads((tmp_path / "o" / "report.json").read_text())
    entry = rep["perEnergy"]["2.0"]
    outgoing = [k for k, v in entry.items() if v["radial"].get("outgoing")]
    assert len(outgoing) == 4
    edges = {(e["from"], e["to"]) for e in rep["global"]["dag"]["edges"]}
    assert all(src.startswith(("cp0", "cp2")) for src, _ in edges)
    assert rep["global"]["morse"]["verified"]
    assert not rep["stageErrors"]
    # trajectory CSVs double as plot data
    csvs = [f for f in os.listdir(tmp_path / "o") if f.startswith("trajectory")]
    assert len(csvs) == 4


def test_config_round_trip_identical_behavior(tmp_path):
    cfg = write_config(tmp_path, COS2_CONFIG)
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "r1")]) == EXIT_OK
    rep = json.loads((tmp_path / "r1" / "report.json").read_text())
    cfg2 = write_config(tmp_path, rep["provenance"]["config"], name="echo.json")
    assert main(["analyze", "--config", cfg2, "--out", str(tmp_path / "r2")]) == EXIT_OK
    assert (tmp_path / "r1" / "report.json").read_bytes() == \
        (tmp_path / "r2" / "report.json").read_bytes()


def test_empty_critical_points_exit_2(tmp_path):
    cfg = write_config(tmp_path, {"mode": "abstract", "criticalPoints": [],
                                  "energy": 1.0})
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_schema_violation_exit_2(tmp_path):
    cfg = write_config(tmp_path, {"mode": "bogus"})
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    missing = str(tmp_path / "missing.json")
    assert main(["analyze", "--config", missing, "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_threshold_energy_exit_3(tmp_path):
    cfg = write_config(tmp_path, dict(COS2_CONFIG, energy=1.0))   # critical value of V0
    assert main(["analyze", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == EXIT_FORBIDDEN_ENERGY


def test_abstract_pipeline_and_overrides(tmp_path):
    cfg = write_config(tmp_path, {
        "mode": "abstract",
        "criticalPoints": [{"label": "min", "value": "0", "hessian": ["3/8"]}],
        "energy": "1",
    })
    assert main(["expansion", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--max-degree", "5"]) == EXIT_OK
    rep = json.loads((tmp_path / "o" / "report.json").read_text())
    data = rep["perEnergy"]["1.0"]["min"]
    assert data["radial"]["rList"] == [{"re": 0.25, "im": 0.0}]
    assert data["expansion"]["exponents"]["B"] == 0.375
    assert rep["provenance"]["effectiveOptions"]["maxDegree"] == 5


def test_scan_subcommand(tmp_path):
    cfg = write_config(tmp_path, {
        "mode": "abstract",
        "criticalPoints": [{"label": "z", "value": 0, "hessian": [-12, -4]}],
        "energy": [0.5, 2.0],
    })
    assert main(["scan-energies", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_OK
    rep = json.loads((tmp_path / "o" / "report.json").read_text())
    roots = rep["global"]["energyScan"]["z"]["roots"]
    assert len(roots) == 1
    assert abs(roots[0]["sigma"] - 1.0) < 1e-8
    assert roots[0]["witness"] == {"a": 0, "alpha": [0, 2], "beta": [1, 0]}


@pytest.mark.parametrize("grid", [0, 1, -3, 2.5, 100.0, "100", True])
def test_scan_grid_points_must_be_integer_at_least_2(tmp_path, capsys, grid):
    cfg = write_config(tmp_path, {
        "mode": "abstract",
        "criticalPoints": [{"label": "z", "value": 0, "hessian": [-12, -4]}],
        "energy": [0.5, 2.0],
        "options": {"scanGridPoints": grid},
    })
    assert main(["scan-energies", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "scanGridPoints must be an integer >= 2" in err
    assert not (tmp_path / "o").exists()


def assert_config_exit(tmp_path, capsys, data, message, command="analyze", flags=()):
    """The CLI exits 2 with one stderr line holding `message`, no traceback, no report."""
    cfg = write_config(tmp_path, data)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o"),
                 *flags]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("config error: ") and message in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("degree", [-3, 0, 2.5, 6.0, "6", True, None])
def test_max_degree_must_be_integer_at_least_1(tmp_path, capsys, degree):
    assert_config_exit(tmp_path, capsys, {
        "mode": "abstract",
        "criticalPoints": [{"label": "z", "value": 0, "hessian": ["3/8"]}],
        "energy": 1.0,
        "options": {"maxDegree": degree},
    }, "option maxDegree must be an integer >= 1")


@pytest.mark.parametrize("degree", [1, 2])
def test_max_degree_below_3_has_no_resonances(tmp_path, degree):
    # no monomial has weighted degree in [3, maxDegree]: the resonance stage
    # reports no records instead of failing
    cfg = write_config(tmp_path, {
        "mode": "abstract",
        "criticalPoints": [{"label": "z", "value": 0, "hessian": ["3/8"]}],
        "energy": 1,
    })
    assert main(["expansion", "--config", cfg, "--max-degree", str(degree),
                 "--out", str(tmp_path / "o")]) == EXIT_OK
    rep = json.loads((tmp_path / "o" / "report.json").read_text())
    assert rep["stageErrors"] == {}
    assert rep["perEnergy"]["1.0"]["z"]["resonance"]["records"] == []


def test_scan_grid_points_ceiling(tmp_path, capsys):
    # checked at load: the ceiling passes on a run that never scans, and one
    # more exits 2 before the scan allocates its grid
    cfg = write_config(tmp_path, dict(ABSTRACT_Z, options={"scanGridPoints": 1_000_000}))
    assert main(["expansion", "--config", cfg, "--out", str(tmp_path / "ok")]) == EXIT_OK
    assert_config_exit(tmp_path, capsys, {
        "mode": "abstract",
        "criticalPoints": [{"label": "z", "value": 0, "hessian": [-12, -4]}],
        "energy": [0.5, 2.0],
        "options": {"scanGridPoints": 1_000_001},
    }, "option scanGridPoints must be an integer >= 2 and <= 1000000, got 1000001",
        command="scan-energies")


def test_duplicate_critical_point_labels_rejected(tmp_path, capsys):
    assert_config_exit(tmp_path, capsys, {
        "mode": "abstract",
        "criticalPoints": [{"label": "z", "value": 0, "hessian": ["3/8"]},
                           {"label": "z", "value": 1, "hessian": [-1]}],
        "energy": 2.0,
    }, "duplicate critical point label 'z'")


@pytest.mark.parametrize("hessian", [["0/1"], [0], [-1, 0.0]])
def test_zero_hessian_entry_is_config_error(tmp_path, capsys, hessian):
    assert_config_exit(tmp_path, capsys, {
        "mode": "abstract",
        "criticalPoints": [{"label": "z", "value": 0, "hessian": hessian}],
        "energy": 1.0,
    }, "critical point 'z': Morse condition violated: zero Hessian eigenvalue")


def test_config_top_level_must_be_an_object(tmp_path, capsys):
    assert_config_exit(tmp_path, capsys, [1], "the config must be a JSON object, got list")


def test_config_options_must_be_an_object_before_overrides(tmp_path, capsys):
    assert_config_exit(tmp_path, capsys, {
        "mode": "abstract",
        "criticalPoints": [{"label": "z", "value": 0, "hessian": ["3/8"]}],
        "energy": 1.0,
        "options": 5,
    }, "options must be a JSON object, got int", flags=["--max-degree", "4"])


ABSTRACT_Z = {"mode": "abstract",
              "criticalPoints": [{"label": "z", "value": 0, "hessian": ["3/8"]}],
              "energy": 1.0}


# hessian 1 at energy 1 gives r = 1/2 + i/2: one y''' block, index 0
ABSTRACT_Y3 = dict(ABSTRACT_Z, criticalPoints=[{"label": "z", "value": 0, "hessian": [1]}])


@pytest.mark.parametrize("config, oscillator, message", [
    (ABSTRACT_Y3, {"p": 1.0, "q": 0.0},
     "options.oscillator must map exactly p, q and c to numbers, got {'p': 1.0, 'q': 0.0}"),
    (ABSTRACT_Y3, {"0": {"p": 1.0, "q": 0.0, "c": "x"}},
     "options.oscillator['0'] must map exactly p, q and c to numbers"),
    (ABSTRACT_Y3, {"p": 1.0, "q": 2.0, "c": 1.0},
     "options.oscillator: oscillator block must be elliptic: pc - q^2 > 0"),
    (ABSTRACT_Y3, {"first": {"p": 1.0, "q": 0.0, "c": 1.0}},
     "options.oscillator key 'first' is not a block index"),
    # no y''' block, so the spec is never used: refused at load all the same
    (ABSTRACT_Z, {"p": 1.0, "q": 0.0, "c": "x"},
     "options.oscillator must map exactly p, q and c to numbers"),
])
def test_malformed_oscillator_exits_2_at_load(tmp_path, capsys, config, oscillator, message):
    assert_config_exit(tmp_path, capsys, dict(config, options={"oscillator": oscillator}),
                       message, command="expansion")


def test_oscillator_one_spec_or_per_block(tmp_path):
    # both accepted shapes reach the y''' block: kappa_k = (2k + 1) sqrt(pc - (q - 1/4)^2)
    spec = {"p": 1.0, "q": 0.1, "c": 2}
    results = []
    for name, oscillator in (("one", spec), ("block", {"0": spec})):
        cfg = write_config(tmp_path, dict(ABSTRACT_Y3, options={"oscillator": oscillator}),
                           name=f"{name}.json")
        assert main(["expansion", "--config", cfg, "--out", str(tmp_path / name)]) == EXIT_OK
        rep = json.loads((tmp_path / name / "report.json").read_text())
        assert not rep["stageErrors"]
        results.append(rep["perEnergy"])
    assert results[0] == results[1]
    kappas = results[0]["1.0"]["z"]["expansion"]["exponents"]["kappas"]
    assert kappas == pytest.approx([(2 * k + 1) * math.sqrt(2.0 - 0.15 ** 2)
                                    for k in range(len(kappas))])


@pytest.mark.parametrize("data, literal", [
    (dict(ABSTRACT_Z, energy=float("nan")), "NaN"),
    (dict(ABSTRACT_Z, options={"reB": float("inf")}), "Infinity"),
    (dict(ABSTRACT_Z, criticalPoints=[{"label": "z", "value": 0,
                                       "hessian": [0.375, -float("inf")]}]), "-Infinity"),
])
def test_non_finite_json_literals_are_config_errors(tmp_path, capsys, data, literal):
    # json.dumps writes NaN, Infinity and -Infinity, which JSON itself does not allow
    assert literal in json.dumps(data)
    assert_config_exit(tmp_path, capsys, data, f"non-finite number {literal} is not allowed",
                       command="expansion")


@pytest.mark.parametrize("flags, message", [
    (["--sigma", "nan"], "non-finite number nan at energy"),
    (["--tol", "inf"], "non-finite number inf at options.tol"),
])
def test_non_finite_overrides_are_config_errors(tmp_path, capsys, flags, message):
    assert_config_exit(tmp_path, capsys, ABSTRACT_Z, message, command="expansion",
                       flags=flags)


@pytest.mark.parametrize("fmt", ["xml", ",", "", "json,xml", "JSON"])
def test_format_naming_no_known_format_is_config_error(tmp_path, capsys, fmt):
    # such a list used to run the pipeline, write nothing and exit 0
    assert_config_exit(tmp_path, capsys, ABSTRACT_Z,
                       f"--format must list json and/or csv, got {fmt!r}",
                       command="normal-form", flags=["--format", fmt])


def test_loader_rejects_non_finite_floats_anywhere():
    with pytest.raises(ConfigError, match="non-finite number nan at criticalPoints.0.hessian.1"):
        AnalysisConfig.from_dict(dict(ABSTRACT_Z, criticalPoints=[
            {"label": "z", "value": 0, "hessian": [0.375, float("nan")]}]))
    with pytest.raises(ConfigError, match="non-finite number -inf at options.stationaryPhase.v0z"):
        AnalysisConfig.from_dict(dict(ABSTRACT_Z, options={
            "stationaryPhase": {"v0z": -math.inf}}))


def test_canonical_json_rejects_non_finite_floats(tmp_path):
    with pytest.raises(ValueError):
        cli_reports.canonical_json({"x": float("nan")})
    # a report that cannot be written leaves no empty report.json behind
    report = cli_reports.AnalysisReport(config=None, per_energy={}, stage_errors={},
                                        global_results={"x": float("inf")}, provenance={})
    with pytest.raises(ValueError):
        cli_reports.emit(report, ["json"], str(tmp_path))
    assert not (tmp_path / "report.json").exists()


def test_oscillator_with_overflowing_kappas_is_an_expansion_stage_error(tmp_path, capsys):
    # pc = 1e400 overflows: finite, elliptic input whose kappas are infinite
    cfg = write_config(tmp_path, dict(ABSTRACT_Y3, options={
        "oscillator": {"p": 1e200, "q": 0.1, "c": 1e200}}))
    assert main(["expansion", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err == "stage error [z:expansion]: OverflowError: pc - q~^2 = inf: " \
        "the kappas are not finite\n"
    rep = json.loads((tmp_path / "o" / "report.json").read_text())
    assert list(rep["stageErrors"]) == ["z:expansion"]


def test_scan_over_the_family_ceiling_is_a_stage_error(tmp_path, capsys):
    # y' Hessian entries three orders apart would need over 10^9 families
    cfg = write_config(tmp_path, {
        "mode": "abstract",
        "criticalPoints": [{"label": "z", "value": 0, "hessian": [-1, -1, -1e-3]}],
        "energy": [1.0, 2.0]})
    assert main(["scan-energies", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("stage error [scan:z]: ScanBudgetError: energy scan on sigma - V0 "
                          "in [1.0, 2.0] needs ") and err.count("\n") == 1
    rep = json.loads((tmp_path / "o" / "report.json").read_text())
    assert list(rep["stageErrors"]) == ["scan:z"]


@pytest.mark.parametrize("hessian, energy, flags, message", [
    # 458,612,235 monomials of degree 3..60 in 2 x 3 variables
    ([-1, 1, 2], 10, ["--max-degree", "60"], "resonance enumeration to degree 60 needs "
     "458612235 monomials, over MAX_RESONANCE_MONOMIALS = 1000000"),
    # r'' about 0.0013 and 0.0016: J'' candidates of alpha'' totals up to about 1,600
    ([1.0, 1.3], 400, [], "J'' needs 1920021 candidates, over "
     "MAX_SECOND_INDEX_CANDIDATES = 500000"),
])
def test_resonance_scans_over_their_ceilings_are_stage_errors(tmp_path, capsys, hessian,
                                                               energy, flags, message):
    cfg = write_config(tmp_path, {
        "mode": "abstract",
        "criticalPoints": [{"label": "z", "value": 0, "hessian": hessian}],
        "energy": energy})
    out = str(tmp_path / "o")
    assert main(["normal-form", "--config", cfg, "--out", out, *flags]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("stage error [z:resonance]: ScanBudgetError: " + message)
    assert err.count("\n") == 1
    rep = json.loads((tmp_path / "o" / "report.json").read_text())
    assert list(rep["stageErrors"]) == ["z:resonance"]


def test_report_that_cannot_be_written_exits_4(tmp_path, capsys, monkeypatch):
    # the backstop for a non-finite value that no stage caught
    report = cli_reports.AnalysisReport(config=None, per_energy={}, stage_errors={},
                                        global_results={"x": float("inf")}, provenance={})
    monkeypatch.setattr("radialscope.cli.run_analysis", lambda config: report)
    cfg = write_config(tmp_path, ABSTRACT_Z)
    assert main(["expansion", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("numerical failure: report not written: Out of range float values")
    assert not (tmp_path / "o" / "report.json").exists()


# runs (subcommand, config, out, format) quadruples given as argv in a fresh
# interpreter (none: a bare import of the CLI); the last stdout line lists the
# exit codes, the unused dependencies loaded and which of numpy and the
# numpy-backed modules loaded
COLD_RUN = """
import json, sys
import radialscope.cli as cli
args = sys.argv[1:]
codes = [cli.main([args[i], "--config", args[i + 1], "--out", args[i + 2],
                   "--format", args[i + 3]])
         for i in range(0, len(args), 4)]
unused = ("jsonschema", "networkx", "scipy")
staged = ("numpy", "radialscope.dynamics", "radialscope.oscverify")
print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith(unused)),
                  [m for m in staged if m in sys.modules]]))
"""
NUMPY, DYNAMICS, OSCVERIFY = "numpy", "radialscope.dynamics", "radialscope.oscverify"


def test_cold_cli_run_imports_no_unused_dependency(tmp_path):
    # a bare import of the CLI loads no numpy and none of the modules built on it
    proc = subprocess.run([sys.executable, "-c", COLD_RUN], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[], [], []]
    # scan-energies, an abstract expansion and an explicit analyze (flow
    # and Morse included) need none of scipy; the root finder, the DOP853
    # tableau and stepper live in the package.  None reaches oscverify.
    scan = write_config(tmp_path, {
        "mode": "abstract",
        "criticalPoints": [{"label": "z", "value": 0, "hessian": [-12, -4]}],
        "energy": [0.5, 2.0], "options": {"scanGridPoints": 2000},
    }, "scan.json")
    expansion = write_config(tmp_path, ABSTRACT_Z, "expansion.json")
    analyze = write_config(tmp_path, COS2_CONFIG, "analyze.json")
    proc = subprocess.run(
        [sys.executable, "-c", COLD_RUN,
         "scan-energies", scan, str(tmp_path / "scan"), "json",
         "expansion", expansion, str(tmp_path / "expansion"), "json",
         "analyze", analyze, str(tmp_path / "analyze"), "json,csv"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[EXIT_OK, EXIT_OK, EXIT_OK], [],
                                                        [NUMPY, DYNAMICS]]
    assert len(list((tmp_path / "analyze").glob("trajectory_*.csv"))) == 4


def test_no_subcommand_loads_jsonschema_or_scipy(tmp_path):
    # each subcommand in its own interpreter; none needs scipy.  A run loads
    # numpy, dynamics and oscverify only for the stages that use them: the
    # exact normal-form and expansion runs load none of them, the scan loads
    # numpy alone
    scan = dict(ABSTRACT_Z, energy=[0.5, 2.0], options={"scanGridPoints": 200})
    stationary = dict(ABSTRACT_Y3, options={"stationaryPhase": {"xList": [1e-2]}})
    runs = {"analyze": COS2_CONFIG, "scan-energies": scan, "normal-form": ABSTRACT_Z,
            "flow": COS2_CONFIG, "morse": COS2_CONFIG, "expansion": ABSTRACT_Z,
            "stationary-phase": stationary}
    staged = {"analyze": [NUMPY, DYNAMICS], "scan-energies": [NUMPY], "normal-form": [],
              "flow": [NUMPY, DYNAMICS], "morse": [NUMPY, DYNAMICS], "expansion": [],
              "stationary-phase": [NUMPY, OSCVERIFY]}
    procs = {command: subprocess.Popen(
        [sys.executable, "-c", COLD_RUN, command,
         write_config(tmp_path, config, f"{command}.json"), str(tmp_path / command), "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for command, config in runs.items()}
    for command, proc in procs.items():
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        codes, loaded, loaded_staged = json.loads(out.splitlines()[-1])
        assert (codes, loaded, loaded_staged) == ([EXIT_OK], [], staged[command]), command


def test_lazy_exports_are_the_defining_modules_names():
    # the package's name -> module table is its export list, and each name
    # resolves (and is cached) as the object its module defines
    import radialscope
    for name, module in radialscope._EXPORTS.items():
        value = getattr(radialscope, name)
        assert value is getattr(importlib.import_module(f"radialscope.{module}"), name), name
        assert vars(radialscope)[name] is value
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        radialscope.no_such_name  # noqa: B018
    assert sorted(radialscope.__all__) == sorted(radialscope._EXPORTS)
    assert set(radialscope._EXPORTS) <= set(dir(radialscope))


def test_flows_import_no_scipy_integrate():
    # integrate_flow and the Nelson limit run on the package's DOP853
    code = ("import math, sys\n"
            "from radialscope.dynamics import ContactPoint, PotentialModel, integrate_flow\n"
            "from radialscope.normalform import flat_perturbation_case_1d, nelson_limit\n"
            "pm = PotentialModel(n=2, v0_coeffs=[(2, 1.0, 0.0)])\n"
            "pt = ContactPoint('circle', (math.pi / 4,), 1.0, (1.0,))\n"
            "integrate_flow(pm, 2.0, pt, (0.0, -2.0))\n"
            "assert nelson_limit(flat_perturbation_case_1d()).converged\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.integrate')))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_parser_built_once_per_process():
    assert build_parser() is build_parser()


def test_stage_isolation_failing_stage_preserves_others(tmp_path):
    # stationary-phase stage fails (sigma_c far outside the amplitude
    # support) while the abstract pipeline results stay intact
    cfg = write_config(tmp_path, {
        "mode": "abstract",
        "criticalPoints": [{"label": "min", "value": 0, "hessian": [0.375]}],
        "energy": 1.0,
        "stages": ["radial", "resonance", "expansion", "stationaryPhase"],
        "options": {"stationaryPhase": {"tau": 0.1, "center": 1.0, "width": 0.05}},
    })
    rc = main(["analyze", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == EXIT_NUMERICAL
    rep = json.loads((tmp_path / "o" / "report.json").read_text())
    assert "stationaryPhase" in rep["stageErrors"]
    assert rep["perEnergy"]["1.0"]["min"]["radial"]["rList"] == [{"re": 0.25, "im": 0.0}]
    assert "expansion" in rep["perEnergy"]["1.0"]["min"]


def test_stage_error_names_exception_type(tmp_path, monkeypatch):
    from radialscope import dynamics
    cfg = write_config(tmp_path, {
        "mode": "abstract",
        "criticalPoints": [{"label": "min", "value": 0, "hessian": [0.375]}],
        "energy": 1.0,
        "stages": ["stationaryPhase"],
        "options": {"stationaryPhase": {"tau": 0.1, "center": 1.0, "width": 0.05}},
    })
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "sp")]) == EXIT_NUMERICAL
    errors = json.loads((tmp_path / "sp" / "report.json").read_text())["stageErrors"]
    assert errors["stationaryPhase"].startswith("NoStationaryPointError: sigma_c = ")

    def fail(*args, **kwargs):
        raise FloatingPointError("forced")

    monkeypatch.setattr(dynamics, "heteroclinic_dag", fail)
    cfg = write_config(tmp_path, COS2_CONFIG, name="flow.json")
    assert main(["flow", "--config", cfg, "--out", str(tmp_path / "flow")]) == EXIT_NUMERICAL
    errors = json.loads((tmp_path / "flow" / "report.json").read_text())["stageErrors"]
    assert errors == {"flow": "FloatingPointError: forced"}


def test_scan_and_morse_stage_errors_name_their_exception_type(tmp_path, monkeypatch):
    # an interval that does not start above V0 fails that point's scan alone
    cfg = write_config(tmp_path, {
        "mode": "abstract",
        "criticalPoints": [{"label": "lo", "value": 0, "hessian": [4.0]},
                           {"label": "hi", "value": 1.5, "hessian": [4.0]}],
        "energy": [1.0, 2.0]})
    assert main(["scan-energies", "--config", cfg, "--out", str(tmp_path / "scan")]) \
        == EXIT_NUMERICAL
    rep = json.loads((tmp_path / "scan" / "report.json").read_text())
    assert rep["stageErrors"] == {"scan:hi": "InvalidIntervalError: interval [1.0, 2.0] must "
                                             "be compact and strictly above V0 = 1.5"}
    assert list(rep["global"]["energyScan"]) == ["lo"]

    # an unverified Morse sequence is reported and is a morse stage error
    from radialscope import dynamics
    unverified = dynamics.MorseSequence(order=[], gammas=[], verified=False,
                                        issues=["cycle detected: cp0:out -> cp2:out -> cp0:out"])
    monkeypatch.setattr(dynamics, "morse_sequence", lambda dag: unverified)
    cfg = write_config(tmp_path, COS2_CONFIG, name="morse.json")
    assert main(["morse", "--config", cfg, "--out", str(tmp_path / "morse")]) == EXIT_NUMERICAL
    rep = json.loads((tmp_path / "morse" / "report.json").read_text())
    assert rep["stageErrors"] == {
        "morse": "MorseSequenceError: cycle detected: cp0:out -> cp2:out -> cp0:out"}
    assert rep["global"]["morse"]["verified"] is False and rep["global"]["dag"]["edges"]


def test_abstract_radial_failure_is_a_stage_error_with_a_report(tmp_path, monkeypatch):
    # an unexpected exception in one point's linearization fails that point's
    # radial stage alone; the other point still runs and the report is written
    real = cli_reports.linearization_spectrum

    def flaky(cp, *args):
        if cp.label == "z":
            raise RuntimeError("forced")
        return real(cp, *args)

    monkeypatch.setattr(cli_reports, "linearization_spectrum", flaky)
    cfg = write_config(tmp_path, {
        "mode": "abstract", "energy": 1.0, "stages": ["radial", "resonance"],
        "criticalPoints": [{"label": "z", "value": 0, "hessian": [0.375]},
                           {"label": "w", "value": 0, "hessian": [0.375]}]})
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_NUMERICAL
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert rep["stageErrors"] == {"z:radial": "RuntimeError: forced"}
    assert list(rep["perEnergy"]["1.0"]) == ["w"] and "resonance" in rep["perEnergy"]["1.0"]["w"]


def test_stationary_phase_subcommand(tmp_path):
    cfg = write_config(tmp_path, {
        "mode": "abstract",
        "criticalPoints": [{"label": "z", "value": 0, "hessian": [1]}],
        "options": {"stationaryPhase": {"xList": [1e-2, 1e-3]}},
    })
    assert main(["stationary-phase", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--format", "json,csv"]) == EXIT_OK
    assert (tmp_path / "o" / "stationary_phase.csv").exists()
    rep = json.loads((tmp_path / "o" / "report.json").read_text())
    assert abs(rep["global"]["stationaryPhase"]["sigmaC"] - 1.0) < 1e-12


def test_stationary_phase_support_clipped_at_v0(tmp_path):
    # tau = 0.6 puts the amplitude support below V0(z) = 0, where it is clipped
    cfg = write_config(tmp_path, dict(COS2_CONFIG, options={"stationaryPhase": {"tau": 0.6}}))
    assert main(["stationary-phase", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == EXIT_OK
    rep = json.loads((tmp_path / "o" / "report.json").read_text())
    res = rep["global"]["stationaryPhase"]
    assert abs(res["peakSigma"] - 1.0 / (4.0 * 0.6 ** 2)) < 1e-6
    assert 0.8 <= res["convergenceExponent"] <= 1.2


@pytest.mark.parametrize("x_list", [[1e-3, 3e-4, 5e-5], [1e-3, 1e-4, 1e-6]])
def test_stationary_phase_clipped_support_at_small_x(tmp_path, x_list):
    # tau = 0.6 clips the support at V0(z) = 0, which in u = sqrt(sigma - V0)
    # is a smooth end point at every x
    cfg = write_config(tmp_path, dict(COS2_CONFIG, options={
        "stationaryPhase": {"tau": 0.6, "xList": x_list}}))
    assert main(["stationary-phase", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == EXIT_OK
    res = json.loads((tmp_path / "o" / "report.json").read_text())["global"]["stationaryPhase"]
    assert abs(res["peakSigma"] - 1.0 / (4.0 * 0.6 ** 2)) < 1e-6
    if x_list[-1] == 1e-6:
        assert abs(res["rows"][-1]["prefactorMod"] - 1.0 / (2.0 * math.sqrt(math.pi))) < 1e-3


@pytest.mark.parametrize("sp, message", [
    ({"tau": -0.5}, "at options.stationaryPhase.tau: -0.5 is less than or equal to the minimum of 0"),
    ({"tau": "a"}, "at options.stationaryPhase.tau: 'a' is not of type 'number'"),
    ({"width": 0}, "at options.stationaryPhase.width: 0 is less than or equal to the minimum of 0"),
    ({"cut": -1}, "at options.stationaryPhase.cut: -1 is less than or equal to the minimum of 0"),
    ({"xList": []}, "at options.stationaryPhase.xList: [] should be non-empty"),
    ({"xList": [1e-3, 0]},
     "at options.stationaryPhase.xList.1: 0 is less than or equal to the minimum of 0"),
    ({"xList": [1e-3, -1e-3]},
     "at options.stationaryPhase.xList.1: -0.001 is less than or equal to the minimum of 0"),
    ({"xlist": [1e-3]}, "Additional properties are not allowed ('xlist' was unexpected)"),
])
def test_stationary_phase_options_checked_at_load(tmp_path, capsys, sp, message):
    assert_config_exit(tmp_path, capsys, {
        "mode": "abstract",
        "criticalPoints": [{"label": "z", "value": 0, "hessian": [1]}],
        "options": {"stationaryPhase": sp},
    }, message, command="stationary-phase")


@pytest.mark.parametrize("key, value, message", [
    ("flowTol", "x", "at options.flowTol: 'x' is not of type 'number'"),
    ("tol", "a", "at options.tol: 'a' is not of type 'number'"),
    ("tMax", None, "at options.tMax: None is not of type 'number'"),
    ("tMax", -1, "at options.tMax: -1 is less than or equal to the minimum of 0"),
    ("seedEps", 0, "at options.seedEps: 0 is less than or equal to the minimum of 0"),
    ("seedEps", "1e-6", "at options.seedEps: '1e-6' is not of type 'number'"),
    ("tol", 0, "at options.tol: 0 is less than or equal to the minimum of 0"),
    ("bisectTol", -1e-10, "at options.bisectTol: -1e-10 is less than or equal to the minimum of 0"),
])
def test_flow_and_tolerance_options_checked_at_load(tmp_path, capsys, key, value, message):
    assert_config_exit(tmp_path, capsys, dict(COS2_CONFIG, options={key: value}), message,
                       command="morse")


def test_non_integer_fourier_mode_exits_2(tmp_path, capsys):
    # cos(2.5 theta) is not a function on the circle; it used to give five
    # "critical points" and an undecided trace
    assert_config_exit(tmp_path, capsys, {
        "mode": "explicit", "potential": {"n": 2, "v0": [[2.5, 1, 0]]}, "energy": 2.0,
    }, "Fourier mode k = 2.5 is not an integer, so V0 is not a function on S^1")


@pytest.mark.parametrize("key", ["wStop", "holdTime", "ballRadius"])
def test_removed_flow_options_exit_2(tmp_path, capsys, key):
    # heteroclinic traces stop on entry into a certified sink region, so
    # the old detection ball, |W| threshold and hold are no longer options
    assert_config_exit(tmp_path, capsys, dict(COS2_CONFIG, options={key: 1e-3}),
                       f"Additional properties are not allowed ('{key}' was unexpected)",
                       command="morse")


ABSTRACT_CONFIG = {
    "mode": "abstract",
    "criticalPoints": [{"label": "z", "value": 0.1, "hessian": [0.3]}],
    "energy": 1.3,
}


@pytest.mark.parametrize("options, message", [
    ({"K": -1}, "option K must be an integer >= 0, got -1"),
    ({"maxBetaPrime": 1.5}, "option maxBetaPrime must be an integer >= 0, got 1.5"),
    ({"sign": 5}, "at options.sign: 5 is not one of [1, -1]"),
    ({"reB": "0"}, "at options.reB: '0' is not of type 'number'"),
    ({"floatResonanceTol": 0},
     "at options.floatResonanceTol: 0 is less than or equal to the minimum of 0"),
    ({"perturbation": 2}, "at options.perturbation: 2 is not of type 'object', 'null'"),
    ({"oscillator": [1.0]}, "at options.oscillator: [1.0] is not of type 'object', 'null'"),
    ({"maxdegree": 4}, "Additional properties are not allowed ('maxdegree' was unexpected)"),
])
def test_remaining_options_checked_at_load(tmp_path, capsys, options, message):
    assert_config_exit(tmp_path, capsys, dict(ABSTRACT_CONFIG, options=options), message)


@pytest.mark.parametrize("stage", ["nonsense", "stationary-phase"])
def test_stage_names_are_closed(tmp_path, capsys, stage):
    assert_config_exit(tmp_path, capsys, dict(ABSTRACT_CONFIG, stages=["radial", stage]),
                       f"at stages.1: '{stage}' is not one of ['radial', ")


ABSTRACT_NO_ENERGY = {k: v for k, v in ABSTRACT_CONFIG.items() if k != "energy"}
EXPLICIT_NO_ENERGY = {k: v for k, v in COS2_CONFIG.items() if k != "energy"}


@pytest.mark.parametrize("command, data, message", [
    ("scan-energies", ABSTRACT_CONFIG, "stage scan needs an interval energy [lo, hi]"),
    ("scan-energies", ABSTRACT_NO_ENERGY, "stage scan needs an interval energy [lo, hi]"),
    ("normal-form", dict(ABSTRACT_CONFIG, energy=[1.0, 2.0]),
     "stage radial needs a single energy"),
    ("expansion", ABSTRACT_NO_ENERGY, "stage radial needs a single energy"),
    ("analyze", ABSTRACT_NO_ENERGY, "stage radial needs a single energy"),
    ("analyze", dict(ABSTRACT_CONFIG, stages=["resonance", "expansion"], energy=[1.0, 2.0]),
     "stage resonance needs a single energy"),
    ("flow", ABSTRACT_CONFIG, "stage flow needs explicit mode"),
    ("morse", ABSTRACT_NO_ENERGY, "stage flow needs explicit mode"),
    ("analyze", dict(ABSTRACT_CONFIG, stages=["radial", "morse"]),
     "stage morse needs explicit mode"),
    ("flow", dict(COS2_CONFIG, energy=[2.0, 3.0]), "stage flow needs a single energy"),
    ("morse", EXPLICIT_NO_ENERGY, "stage flow needs a single energy"),
    ("analyze", EXPLICIT_NO_ENERGY, "stage radial needs a single energy"),
    ("analyze", dict(EXPLICIT_NO_ENERGY, stages=["morse"]), "stage morse needs a single energy"),
])
def test_stages_the_config_cannot_run_exit_2_at_load(tmp_path, capsys, command, data,
                                                     message):
    # scan needs an interval energy, the point and flow stages a single one, and
    # flow/morse explicit mode; no report is written
    assert_config_exit(tmp_path, capsys, data, message, command=command)


@pytest.mark.parametrize("energy, message", [
    ([1, "2"], "at energy.1: '2' is not of type 'number'"),
    (["1", 2], "at energy.0: '1' is not of type 'number'"),
    ([None, 2.0], "at energy.0: None is not of type 'number'"),
    ([2.0, [3]], "at energy.1: [3] is not of type 'number'"),
])
def test_interval_energy_entries_must_be_numbers(tmp_path, capsys, energy, message):
    assert_config_exit(tmp_path, capsys, dict(ABSTRACT_CONFIG, energy=energy), message,
                       command="scan-energies")


def floating_perturbation(*terms):
    return {"mode": "floating", "n": 2, "blocks": [1, 2],
            "terms": [{"a": a, "alpha": alpha, "beta": beta, "re": re, "im": 0.0}
                      for a, alpha, beta, re in terms]}


@pytest.mark.parametrize("perturbation, message", [
    (floating_perturbation((0, [-1], [2], 0.5)), "ValueError: negative exponent"),
    (dict(floating_perturbation((0, [3], [0], 0.2)), mode="exakt"),
     "ValueError: unknown mode 'exakt'"),
    ({"mode": "exact", "n": 2, "blocks": [1, 2],
      "terms": [{"a": 0, "beta": [0], "re": "1/2", "im": "0/1"}]}, "KeyError: 'alpha'"),
    # exponents are integers: a float or a bool used to run and print it in the report
    ({"mode": "exact", "n": 3, "blocks": [2, 3],
      "terms": [{"a": 0.5, "alpha": [1, 0], "beta": [0, 1.5], "re": "1/1", "im": "0/1"}]},
     "ValueError: exponents must be integers, got (0.5, (1, 0), (0, 1.5))"),
    ({"mode": "exact", "n": 3, "blocks": [2, 3],
      "terms": [{"a": True, "alpha": [1, 0], "beta": [0, 1], "re": "1/1", "im": "0/1"}]},
     "ValueError: exponents must be integers, got (True, (1, 0), (0, 1))"),
    # a short alpha with a long beta has the flat length of an n = 3 key
    ({"mode": "exact", "n": 3, "blocks": [2, 3],
      "terms": [{"a": 0, "alpha": [1], "beta": [0, 0, 1], "re": "1/1", "im": "0/1"}]},
     "ValueError: exponent tuple length does not match layout"),
])
def test_malformed_perturbation_is_config_error(tmp_path, capsys, perturbation, message):
    assert_config_exit(tmp_path, capsys,
                       dict(ABSTRACT_CONFIG, options={"perturbation": perturbation}),
                       f"options.perturbation is not a polynomial: {message}")


@pytest.mark.parametrize("command", ["analyze", "normal-form", "expansion"])
def test_perturbation_mode_mismatch_is_config_error(tmp_path, capsys, command):
    # hessian [0.3] at energy 1.3 is a floating radial point: an exact
    # perturbation cannot be added to its normal form (exit 2, not a stage error)
    exact = {"mode": "exact", "n": 2, "blocks": [1, 2],
             "terms": [{"a": 0, "alpha": [3], "beta": [0], "re": "1/5", "im": "0/1"}]}
    assert_config_exit(tmp_path, capsys, dict(ABSTRACT_CONFIG, options={"perturbation": exact}),
                       "config error: perturbation mode must match the radial point data",
                       command=command)


def test_perturbation_blocks_are_range_checked_and_the_point_partition_used(tmp_path, capsys):
    # blocks [s, m] must satisfy 1 <= s <= m <= n (exit 2), but they are not
    # compared with the radial point: hessian [0.3] at energy 1.3 is one y''
    # block (the point's blocks [1, 2]), and a perturbation that declares
    # [2, 2] (one y' block) runs in the point's partition as [1, 2] does
    assert_config_exit(tmp_path, capsys, dict(ABSTRACT_CONFIG, options={
        "perturbation": dict(floating_perturbation((0, [3], [0], 0.2)), blocks=[3, 2])}),
        "options.perturbation is not a polynomial: ValueError: block boundaries must satisfy")

    def normal_form(blocks):
        name = "b" + "".join(map(str, blocks))
        cfg = write_config(tmp_path, dict(
            ABSTRACT_CONFIG, stages=["radial", "normalform"],
            options={"perturbation": dict(floating_perturbation((0, [3], [0], 0.2)),
                                          blocks=blocks)}), name=name + ".json")
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path / name)]) == EXIT_OK
        point = json.loads((tmp_path / name / "report.json").read_text())["perEnergy"]["1.3"]["z"]
        return point["normalForm"]

    declared_own, declared_other = normal_form([1, 2]), normal_form([2, 2])
    assert declared_other == declared_own
    assert declared_own["pNorm"]["blocks"] == [1, 2]


def test_perturbation_parsed_once_per_run(tmp_path, monkeypatch):
    calls = []
    parse = WeightedPolynomial.from_json_dict.__func__

    def counting(cls, data):
        calls.append(data)
        return parse(cls, data)

    monkeypatch.setattr(WeightedPolynomial, "from_json_dict", classmethod(counting))
    cfg = write_config(tmp_path, dict(
        ABSTRACT_CONFIG, stages=["radial", "normalform"],
        criticalPoints=[{"label": "z", "value": 0.1, "hessian": [0.3]},
                        {"label": "w", "value": 0.2, "hessian": [0.25]}],
        options={"perturbation": floating_perturbation((0, [3], [0], 0.2))}))
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_OK
    assert len(calls) == 1
    rep = json.loads((tmp_path / "o" / "report.json").read_text())
    assert set(rep["perEnergy"]["1.3"]) == {"z", "w"}
    assert rep["provenance"]["config"]["options"]["perturbation"] == calls[0]


def test_floating_normal_form_keeps_grade0_noise_in_p_norm_only(tmp_path):
    # a grade-0 term within 100 tol of the model passes the model check; it
    # stays in pNorm and is not classified as a remainder term
    def normal_form(*terms):
        name = f"o{len(terms)}"
        cfg = write_config(tmp_path, dict(
            ABSTRACT_CONFIG, stages=["radial", "resonance", "normalform"],
            options={"perturbation": floating_perturbation(*terms)}), name=name + ".json")
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path / name)]) == EXIT_OK
        rep = json.loads((tmp_path / name / "report.json").read_text())
        nf = rep["perEnergy"]["1.3"]["z"]["normalForm"]
        return {part: {(t["a"], tuple(t["alpha"]), tuple(t["beta"])): t["re"]
                       for t in nf[part]["terms"]} for part in ("pNorm", "rEffR", "rEffNR")}

    clean = normal_form((0, [3], [0], 0.2))
    noisy = normal_form((0, [1], [1], 1e-11), (0, [3], [0], 0.2))
    ymu = (0, (1,), (1,))
    assert abs(noisy["pNorm"][ymu] - clean["pNorm"][ymu] - 1e-11) < 1e-16
    assert ymu not in noisy["rEffR"] and ymu not in noisy["rEffNR"]
    assert noisy["rEffR"] == clean["rEffR"] == {}


def test_float_resonance_tol_reaches_the_normal_form(tmp_path):
    # r = 1/3 + delta puts y^3 at |R / lam| = 3 delta = 1e-9: resonant at
    # floatResonanceTol 1e-8, nonresonant at the default 1e-12, in the
    # resonance records, J'' and the normal form of one report alike
    r = 1 / 3 + 1e-9 / 3
    y3 = (0, (3,), (0,))

    def run(name, **options):
        cfg = write_config(tmp_path, {
            "mode": "abstract",
            "criticalPoints": [{"label": "z", "value": 0.0, "hessian": [2 * r * (1 - r)]}],
            "energy": 1.0,
            "options": {"perturbation": floating_perturbation((0, [3], [0], 0.25)), **options},
        }, name=name + ".json")
        assert main(["normal-form", "--config", cfg, "--out", str(tmp_path / name)]) == EXIT_OK
        point = json.loads((tmp_path / name / "report.json").read_text())["perEnergy"]["1.0"]["z"]
        records = {(t["a"], tuple(t["alpha"]), tuple(t["beta"])): t["class"]
                   for t in point["resonance"]["records"]}
        eff_r = {(t["a"], tuple(t["alpha"]), tuple(t["beta"])): t["re"]
                 for t in point["normalForm"]["rEffR"]["terms"]}
        return records, eff_r, point["resonance"]["secondIndexSet"]

    records, eff_r, second = run("loose", floatResonanceTol=1e-8)
    assert records[y3] == "effR2" and eff_r == {y3: 0.25}
    assert [[3], [0]] not in second
    records, eff_r, second = run("default")
    assert y3 not in records and y3 not in eff_r
    assert [[3], [0]] in second


def test_tol_override_checked_at_load(tmp_path, capsys):
    cfg = write_config(tmp_path, COS2_CONFIG)
    assert main(["morse", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--tol", "0"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == ("config error: config schema violation at options.tol: "
                   "0.0 is less than or equal to the minimum of 0\n")


def test_schema_doc_matches_defaults_and_schema():
    path = pathlib.Path(__file__).resolve().parents[1] / "docs" / "config_schema.json"
    text = path.read_text(encoding="utf-8")
    doc = {"$comment": json.loads(text)["$comment"],
           "defaults": DEFAULTS, "schema": CONFIG_SCHEMA}
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_schema_violation_message_is_best_match():
    bad = {"mode": "abstract", "criticalPoints": [{"label": 1, "value": 0}]}
    with pytest.raises(jsonschema.ValidationError) as ref:
        jsonschema.validate(bad, CONFIG_SCHEMA)
    with pytest.raises(ConfigError, match=re.escape(ref.value.message)):
        AnalysisConfig.from_dict(bad)


def test_config_schema_is_valid_draft_2020_12():
    jsonschema.Draft202012Validator.check_schema(CONFIG_SCHEMA)


def subschemas(schema):
    """A schema and every schema nested in it through items and properties."""
    yield schema
    nested = list(schema.get("properties", {}).values())
    if "items" in schema:
        nested.append(schema["items"])
    for sub in nested:
        yield from subschemas(sub)


def test_config_schema_uses_only_implemented_keywords():
    for schema in subschemas(CONFIG_SCHEMA):
        for key, value in schema.items():
            # raises ValueError on a keyword, or an additionalProperties value, it lacks
            list(cli_reports._schema_errors(None, {key: value}))
        kinds = schema.get("type", [])
        assert set([kinds] if isinstance(kinds, str) else kinds) <= set(cli_reports._JSON_TYPES)
        # the enum test compares scalars; JSON arrays and objects would need recursion
        assert all(type(each) in (str, int) for each in schema.get("enum", []))


# -- the built-in validator against jsonschema: valid configs, then faults ----------

fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))
numbers = st.integers(-5, 5) | st.floats(-10, 10) | fractions
positives = st.floats(1e-9, 10) | st.integers(1, 5) | fractions.filter(lambda q: q > 0)
rationals = st.sampled_from(["1/2", "-3/8", "2"])
lists = functools.partial(st.lists, max_size=3)
options = st.fixed_dictionaries({}, optional={
    **{key: st.integers(0, 8) for key in cli_reports.INTEGER_OPTIONS},
    **{key: positives
       for key in ("tol", "bisectTol", "flowTol", "seedEps", "tMax", "floatResonanceTol")},
    "sign": st.sampled_from([1, -1, 1.0]), "reB": numbers,
    "perturbation": st.none() | st.just({}),
    "oscillator": st.none() | st.just({"p": 1, "q": 0, "c": 1}),
    "stationaryPhase": st.fixed_dictionaries({}, optional={
        "v0z": numbers, "tau": positives, "center": numbers | st.none(),
        "width": positives, "cut": positives, "xList": lists(positives, min_size=1)}),
})
valid_configs = st.fixed_dictionaries(
    {"mode": st.sampled_from(["abstract", "explicit"])},
    optional={
        "criticalPoints": lists(st.fixed_dictionaries({
            "label": st.sampled_from(["z", "m"]), "value": numbers | rationals,
            "hessian": lists(numbers | rationals, min_size=1)})),
        "potential": st.fixed_dictionaries({
            "n": st.integers(1, 4) | st.just(3.0),
            "v0": lists(lists(numbers, min_size=3, max_size=3))}),
        "energy": numbers | rationals | lists(numbers, min_size=2, max_size=2),
        "stages": lists(st.sampled_from(cli_reports.STAGES)),
        "options": options,
    })


def locations(value, path=()):
    """(path, value) for the root of a JSON tree and for each object entry and array item."""
    yield path, value
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from locations(item, path + (key,))


def replaced(tree, path, new):
    if not path:
        return new
    copy = dict(tree) if isinstance(tree, dict) else list(tree)
    copy[path[0]] = replaced(tree[path[0]], path[1:], new)
    return copy


@st.composite
def faulty_configs(draw):
    """A valid config with up to three faults, each at a location drawn from the whole
    tree: a wrong type, a bool, a non-positive number, an array one item short or long,
    an object with a key missing or an unknown key."""
    data = draw(valid_configs)
    rng = draw(st.randoms(use_true_random=True))   # uniform: hypothesis favours simple draws
    for _ in range(rng.randint(0, 3)):
        path, value = rng.choice(list(locations(data)))
        faults = [None, True, False, "x", [], {}, 0, -1e-9]
        if isinstance(value, list) and value:
            faults += [value[:-1], value + value[-1:]]
        if isinstance(value, dict):
            faults.append({**value, rng.choice(["bogus", "Tol", "xlist"]): 1})
            faults += [{k: v for k, v in value.items() if k != gone} for gone in value]
        if cli_reports._is_number(value):
            faults.append(-value)
        data = replaced(data, path, rng.choice(faults))
    return data


REFERENCE = jsonschema.Draft202012Validator(CONFIG_SCHEMA)


@settings(max_examples=400, deadline=None)
@given(faulty_configs())
# the rules a generated config may miss: bool is not a number, 3.0 is an integer,
# a Fraction is a number, true is not in [1, -1] while 1.0 is, minItems 1 has its own
# wording, unexpected keys are listed sorted, and a v0 row holds at most three numbers
@example({"mode": "abstract", "energy": False})
@example({"mode": "abstract", "options": {"sign": True}})
@example({"mode": "explicit", "potential": {"n": 3.0, "v0": [[1, 0.5, True]]}})
@example({"mode": "abstract", "options": {"sign": 1.0, "tol": Fraction(1, 2)}})
@example({"mode": "abstract", "criticalPoints": [{"label": "z", "value": 0, "hessian": []}]})
@example({"mode": "abstract", "options": {"zeta": 1, "Tol": 2, "alpha": 3}})
@example({"mode": "explicit", "potential": {"n": 2, "v0": [[2, 1.0, 0.0, 0.0]]}})
def test_schema_violation_matches_jsonschema(data):
    ref = jsonschema.exceptions.best_match(REFERENCE.iter_errors(data))
    expected = None if ref is None else (tuple(ref.absolute_path), ref.message)
    assert cli_reports.schema_violation(data) == expected


def test_console_script_runs(tmp_path):
    cfg = write_config(tmp_path, {
        "mode": "abstract",
        "criticalPoints": [{"label": "min", "value": 0, "hessian": [0.375]}],
        "energy": 1.0,
    })
    proc = subprocess.run(
        [sys.executable, "-m", "radialscope.cli", "normal-form",
         "--config", cfg, "--out", str(tmp_path / "o")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "o" / "report.json").exists()


def test_config_interval_validation():
    with pytest.raises(ConfigError):
        AnalysisConfig.from_dict({"mode": "abstract",
                                  "criticalPoints": [{"label": "z", "value": 0,
                                                      "hessian": [1]}],
                                  "energy": [2.0, 1.0]})
    with pytest.raises(ConfigError):
        AnalysisConfig.from_dict({"mode": "explicit", "energy": 1.0})


def test_abstract_threshold_energy_exit_3(tmp_path):
    cfg = write_config(tmp_path, {
        "mode": "abstract",
        "criticalPoints": [{"label": "z", "value": "0", "hessian": ["1/2"]}],
        "energy": "1",     # exactly V0 + 4a
    })
    assert main(["analyze", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == EXIT_FORBIDDEN_ENERGY


def test_no_real_radial_point_is_informational(tmp_path):
    cfg = write_config(tmp_path, {
        "mode": "abstract",
        "criticalPoints": [{"label": "hi", "value": 5.0, "hessian": [1.0]},
                           {"label": "lo", "value": 0.0, "hessian": [-4.0]}],
        "energy": 1.0,
    })
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_OK
    rep = json.loads((tmp_path / "o" / "report.json").read_text())
    assert "error" in rep["perEnergy"]["1.0"]["hi"]
    assert rep["perEnergy"]["1.0"]["lo"]["radial"]["class"] == "saddle"


def test_out_naming_a_file_is_config_error(tmp_path, capsys):
    # emit cannot make the directory: exit 2 with one line, the file untouched
    cfg = write_config(tmp_path, ABSTRACT_CONFIG)
    out = tmp_path / "o"
    out.write_text("keep")
    assert main(["normal-form", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert captured.err.startswith("config error: --out: ") and not captured.out
    assert out.read_text() == "keep"


def assert_forbidden_exit(tmp_path, capsys, data, command, flags=()):
    """The CLI exits 3 with one stderr line, no traceback and no report; returns the line."""
    cfg = write_config(tmp_path, data)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o"),
                 *flags]) == EXIT_FORBIDDEN_ENERGY
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("forbidden energy: ")
    assert not (tmp_path / "o").exists()
    return err


@pytest.mark.parametrize("command", ["flow", "morse"])
def test_critical_value_exits_3_on_flow_subcommands(tmp_path, capsys, command):
    assert_forbidden_exit(tmp_path, capsys, dict(COS2_CONFIG, energy=1.0), command)


@pytest.mark.parametrize("command", ["analyze", "flow"])
def test_options_tol_decides_a_near_critical_energy(tmp_path, capsys, command):
    # 5e-10 above max V0 = 1: outside the default tol 1e-10, inside 1e-8
    data = dict(COS2_CONFIG, energy=1.0 + 5e-10)
    cfg = write_config(tmp_path, data)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "ok")]) == EXIT_OK
    rep = json.loads((tmp_path / "ok" / "report.json").read_text())
    assert rep["stageErrors"] == {} and rep["global"]["dag"]["nodes"]
    capsys.readouterr()
    assert_forbidden_exit(tmp_path, capsys, data, command, flags=["--tol", "1e-8"])


CONSTANT_POTENTIAL = {"mode": "explicit", "potential": {"n": 2, "v0": [[0, 0.5, 0]]}}


@pytest.mark.parametrize("command", ["analyze", "flow"])
def test_locate_failure_is_a_radial_stage_error(tmp_path, command):
    cfg = write_config(tmp_path, dict(CONSTANT_POTENTIAL, energy=2.0))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_NUMERICAL
    rep = json.loads((tmp_path / "o" / "report.json").read_text())
    assert rep["stageErrors"] == {
        "radial": "NotMorseError: degenerate critical point at theta = 0.0"}
    assert rep["perEnergy"] == {} and "dag" not in rep["global"]


def test_explicit_scan_critical_point_failure_is_a_scan_stage_error(tmp_path):
    cfg = write_config(tmp_path, dict(CONSTANT_POTENTIAL, energy=[1.0, 2.0]))
    assert main(["scan-energies", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == EXIT_NUMERICAL
    rep = json.loads((tmp_path / "o" / "report.json").read_text())
    assert rep["stageErrors"] == {
        "scan": "NotMorseError: degenerate critical point at theta = 0.0"}


def test_explicit_analyze_locates_radial_points_once(tmp_path, monkeypatch):
    from radialscope import dynamics
    calls = {"locate": 0, "angles": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(dynamics, "locate_radial_points",
                        counted("locate", dynamics.locate_radial_points))
    monkeypatch.setattr(dynamics, "_critical_angles",
                        counted("angles", dynamics._critical_angles))
    cfg = write_config(tmp_path, COS2_CONFIG)
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_OK
    assert calls == {"locate": 1, "angles": 1}


def test_critical_angle_at_zero_with_roundoff_size_derivative(tmp_path):
    # V0'(0) = -1.5e-233, while the scalar V0' at 2 pi reads sin(2 pi) = -2.4e-16
    # and the last grid cell's ends lost their sign change (exit 4 before)
    cfg = write_config(tmp_path, {"mode": "explicit", "energy": 2.0,
                                  "potential": {"n": 2, "v0": [[1, 1.0, -1.5e-233]]}})
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_OK
    rep = json.loads((tmp_path / "o" / "report.json").read_text())
    assert not rep["stageErrors"]
    thetas = {v["radial"]["label"]: v["radial"]["theta"] for v in rep["perEnergy"]["2.0"].values()}
    assert thetas == {"cp0": 0.0, "cp1": pytest.approx(math.pi)}


@pytest.mark.parametrize("command", ["analyze", "flow", "normal-form", "expansion"])
def test_explicit_hessian_threshold_exits_3(tmp_path, capsys, command):
    # the minima of cos 2 theta (V0 = -1, V0'' = 4) have their threshold at -1 + 2 * 4
    assert_forbidden_exit(tmp_path, capsys, dict(COS2_CONFIG, energy=7.0), command)


def abstract_config(value, hessian, energy):
    return {"mode": "abstract", "energy": energy,
            "criticalPoints": [{"label": "z", "value": value, "hessian": hessian}]}


@pytest.mark.parametrize("value, energy", [("1/2", "1/2"), (0.5, 0.5), (0.5, 0.5 - 5e-11)])
def test_abstract_critical_value_exits_3(tmp_path, capsys, value, energy):
    assert_forbidden_exit(tmp_path, capsys, abstract_config(value, ["-4", "3/8"], energy),
                          "analyze")


def test_abstract_threshold_within_default_tol_exits_3(tmp_path, capsys):
    # V0 + 4a = 0 + 2 * 1.0; 1e-11 is inside the default tol 1e-10
    assert_forbidden_exit(tmp_path, capsys, abstract_config(0.0, [1.0], 2.0 + 1e-11), "analyze")


@pytest.mark.parametrize("data", [abstract_config(0.0, [1.0], 2.0 + 1e-7),
                                  dict(COS2_CONFIG, energy=7.0 + 1e-7)],
                         ids=["abstract", "explicit"])
def test_options_tol_decides_a_near_threshold_energy(tmp_path, capsys, data):
    # 1e-7 above the threshold: outside the default tol 1e-10, inside 1e-6
    cfg = write_config(tmp_path, data)
    assert main(["normal-form", "--config", cfg, "--out", str(tmp_path / "ok")]) == EXIT_OK
    capsys.readouterr()
    assert_forbidden_exit(tmp_path, capsys, data, "normal-form", flags=["--tol", "1e-6"])


def test_threshold_message_lists_thresholds_as_numbers(tmp_path, capsys):
    err = assert_forbidden_exit(tmp_path, capsys, abstract_config("-1", ["4", "-2"], "7"),
                                "analyze")
    assert err.endswith("thresholds: 7\n") and "Fraction" not in err


def test_mixed_exact_and_irrational_ratios_run(tmp_path):
    # w = 1/2: a = 1/4 gives r = 1/2 + i/2 exactly, a = -2 gives r = (1 - sqrt 17)/2
    cfg = write_config(tmp_path, abstract_config("0", ["-4", "1/2"], "1/2"))
    assert main(["expansion", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_OK
    rep = json.loads((tmp_path / "o" / "report.json").read_text())
    assert rep["stageErrors"] == {}
    assert rep["perEnergy"]["0.5"]["z"]["expansion"]


EXACT_REPORTS = pathlib.Path(__file__).resolve().parent / "data" / "exact_reports"


@pytest.mark.parametrize("name", ["nf_real_block_n3", "complex_ratio", "complex_coefficients"])
def test_exact_report_bytes_are_pinned(tmp_path, name):
    # report.json of three exact expansion jobs, byte for byte: an n = 3 real-block
    # nf-exact job, complex ratios r = 1/2 + i/2 and 1/2 + i, and complex exact
    # perturbation coefficients through the normal form
    case = EXACT_REPORTS / name
    assert main(["expansion", "--config", str(case / "config.json"),
                 "--out", str(tmp_path)]) == EXIT_OK
    assert (tmp_path / "report.json").read_bytes() == (case / "report.json").read_bytes()


FLOAT_REPORTS = pathlib.Path(__file__).resolve().parent / "data" / "float_reports"
# the floating reports were written under this version; another numpy may
# move their last digits
FLOAT_REPORTS_PINNED_WITH = {"numpy": "2.4.6"}


@pytest.mark.parametrize("name, command", [("circle_analyze", "analyze"),
                                           ("stationary_phase", "stationary-phase"),
                                           ("rational_r_irrational_nu", "expansion")])
def test_float_report_bytes_are_pinned(tmp_path, name, command):
    # circle_analyze: an explicit cos 2θ-type circle with a floating perturbation,
    # whose report has e'''/f''' module orders and "d":-0.0; stationary_phase: the
    # shape of the benchmark's stationary-phase jobs; rational_r_irrational_nu: a
    # floating point (ν = √2) whose r_j = -1, 1/4 stay Fractions, so R / λ is a
    # Fraction and its products with λ are floats
    import numpy
    case = FLOAT_REPORTS / name
    assert main([command, "--config", str(case / "config.json"),
                 "--out", str(tmp_path)]) == EXIT_OK
    versions = {"numpy": numpy.__version__}
    assert (tmp_path / "report.json").read_bytes() == (case / "report.json").read_bytes(), \
        f"pinned with {FLOAT_REPORTS_PINNED_WITH}, running {versions}"


# where each point stage shows in a point's report entry
POINT_OUTPUTS = {"radial": "radial", "resonance": "resonance", "normalform": "normalForm",
                 "expansion": "expansion"}


def unaccounted_stages(rep: dict) -> list[str]:
    """The requested stages that the report neither shows nor names under
    stageErrors or stageSkips: "<tag>:<stage>" for a point or scan stage,
    "<stage>" for a global one."""
    config = AnalysisConfig.from_dict(rep["provenance"]["config"])
    errors, skips, results = rep["stageErrors"], rep.get("stageSkips", {}), rep["global"]
    missing = []

    def account(shown: bool, *names: str) -> None:
        if not shown and not any(name in errors or name in skips for name in names):
            missing.append(names[0])

    point_stages = [stage for stage in config.stages if stage in POINT_OUTPUTS]
    # an explicit run that cannot locate its points fails them under radial
    if point_stages and "radial" not in errors:
        (entry,) = rep["perEnergy"].values()
        tags = ([cp.label for cp in config.critical_points] if config.mode == "abstract"
                else [node["id"] for node in results["dag"]["nodes"]] if "dag" in results
                else list(entry))
        assert sorted(entry) == sorted(tags)
        for tag in tags:
            for stage in point_stages:
                # a critical value above sigma has no radial point; its error says so
                account(POINT_OUTPUTS[stage] in entry[tag] or "error" in entry[tag],
                        f"{tag}:{stage}")
    if "scan" in config.stages and config.mode == "abstract":
        for cp in config.critical_points:
            account(cp.label in results.get("energyScan", {}), f"scan:{cp.label}", "scan")
    elif "scan" in config.stages:
        account("energyScan" in results, "scan")
    if "flow" in config.stages:
        account("dag" in results, "flow", "radial")
    if "morse" in config.stages:
        account("morse" in results, "morse", "flow", "radial")
    if "stationaryPhase" in config.stages:
        account("stationaryPhase" in results, "stationaryPhase")
    return missing


GOLDEN_CASES = pathlib.Path(__file__).resolve().parent / "data" / "golden" / "cases"


def json_file(path):
    return json.loads(path.read_text())


@pytest.mark.parametrize("command, config", [
    ("analyze", ABSTRACT_CONFIG),                                           # real block
    ("expansion", json_file(EXACT_REPORTS / "complex_ratio" / "config.json")),
    ("analyze", json_file(FLOAT_REPORTS / "circle_analyze" / "config.json")),
    ("morse", COS2_CONFIG),
    ("analyze", json_file(GOLDEN_CASES / "stage-error" / "config.json")),  # stationaryPhase fails
    ("expansion", dict(ABSTRACT_Y3, options={"oscillator": {"p": 1e200, "q": 0.1, "c": 1e200}})),
    ("analyze", {"mode": "abstract", "energy": 1.0,                        # V0 above sigma
                 "criticalPoints": [{"label": "below", "value": 0, "hessian": [0.375]},
                                    {"label": "above", "value": 2, "hessian": [1.0]}]}),
    ("analyze", dict(CONSTANT_POTENTIAL, energy=2.0)),                     # locate fails
    ("scan-energies", json_file(GOLDEN_CASES / "scan-over-ceiling" / "config.json")),
], ids=["real-block", "complex-ratio", "circle", "cos2-morse", "stage-error",
        "expansion-error", "value-above-sigma", "locate-error", "scan-over-ceiling"])
def test_every_requested_stage_is_accounted_for(tmp_path, capsys, command, config):
    cfg = write_config(tmp_path, config)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) in (EXIT_OK,
                                                                              EXIT_NUMERICAL)
    assert unaccounted_stages(json.loads((tmp_path / "o" / "report.json").read_text())) == []
