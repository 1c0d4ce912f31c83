"""Configuration ingestion, pipeline orchestration and report emission.

A single JSON config drives the pipeline
locate -> linearize -> resonate -> normal-form -> expand, plus the
explicit-mode flow/Morse stages and the stationary-phase verification
when requested.  Reports are deterministic: identical configs produce
byte-identical files (canonical key order, rationals as "p/q" strings,
no timestamps).
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction

import jsonschema

from . import __version__
from .symalg import EXACT, WeightedPolynomial
from .radial import (DEFAULT_TOL, CriticalPointSpec, ForbiddenEnergyError,
                     NoRealRadialPointError, RadialPoint, linearization_spectrum)
from .resonance import (enumerate_resonances, module_order,
                        scan_effectively_resonant_energies, second_index_set)
from .normalform import reduce_to_normal_form
from .expansion import (OscillatorSpec, exponent_data, expansion_template,
                        log_variable_recursion)
from .dynamics import (PotentialModel, critical_points,
                       heteroclinic_dag, locate_radial_points, lyapunov_check,
                       morse_sequence)
from .oscverify import (StationaryPhaseCase, gaussian_amplitude,
                        stationary_phase_check)

from .parallel import parallel_map

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FORBIDDEN_ENERGY = 3
EXIT_NUMERICAL = 4

# Single source of documented defaults; reports embed the effective values.
DEFAULTS = {
    "maxDegree": 6,          # resonance / normal-form weighted-degree ceiling
    "K": 3,                  # oscillator levels per template
    "maxBetaPrime": 2,       # saddle monomial ceiling
    "reB": 0.0,              # user Re b (subprincipal constant input)
    "tol": DEFAULT_TOL,      # refuse an energy this close to a critical value or Hessian threshold
    "floatResonanceTol": 1e-12,
    "scanGridPoints": 10000,
    "bisectTol": 1e-10,
    "flowTol": 1e-10,
    "seedEps": 1e-5,
    "ballRadius": 1e-3,
    "wStop": 1e-6,
    "holdTime": 5.0,
    "tMax": 60.0,
    "sign": 1,
    "stationaryPhase": {
        "v0z": 0.0, "tau": 0.5, "center": None, "width": 0.3, "cut": 3.0,
        "xList": [1e-2, 10 ** -2.5, 1e-3, 10 ** -3.5, 1e-4],
    },
}

_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
# integer options and their least values, checked at load
INTEGER_OPTIONS = {"scanGridPoints": 2, "maxDegree": 1, "K": 0, "maxBetaPrime": 0}
STAGES = ["radial", "resonance", "normalform", "expansion", "scan", "flow", "morse",
          "stationaryPhase"]
CONFIG_SCHEMA = {
    "type": "object",
    "required": ["mode"],
    "properties": {
        "mode": {"enum": ["abstract", "explicit"]},
        "criticalPoints": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["label", "value", "hessian"],
                "properties": {
                    "label": {"type": "string"},
                    "value": {"type": ["number", "string"]},
                    "hessian": {"type": "array", "minItems": 1,
                                "items": {"type": ["number", "string"]}},
                },
            },
        },
        "potential": {
            "type": "object",
            "required": ["n", "v0"],
            "properties": {
                "n": {"type": "integer"},
                "v0": {"type": "array",
                       "items": {"type": "array", "minItems": 3, "maxItems": 3,
                                 "items": {"type": "number"}}},
            },
        },
        "energy": {"type": ["number", "array", "string"], "items": {"type": "number"}},
        "stages": {"type": "array", "items": {"enum": STAGES}},
        "options": {"type": "object", "additionalProperties": False, "properties": {
            **{key: {"$comment": f"an integer >= {least}, checked at load"}
               for key, least in INTEGER_OPTIONS.items()},
            **{key: _POSITIVE for key in ("tol", "bisectTol", "flowTol", "wStop", "seedEps",
                                          "ballRadius", "holdTime", "tMax", "floatResonanceTol")},
            "sign": {"enum": [1, -1]},
            "reB": {"type": "number"},
            "perturbation": {"type": ["object", "null"]},
            "oscillator": {"type": ["object", "null"]},
            "stationaryPhase": {
                "type": "object",
                "properties": {"v0z": {"type": "number"}, "tau": _POSITIVE,
                               "center": {"type": ["number", "null"]},
                               "width": _POSITIVE, "cut": _POSITIVE,
                               "xList": {"type": "array", "minItems": 1,
                                         "items": _POSITIVE}},
                "additionalProperties": False,
            }}},
    },
}


class ConfigError(ValueError):
    pass


def _stage_error(exc: Exception) -> str:
    """A stageErrors entry: the exception's type, then its message."""
    return f"{type(exc).__name__}: {exc}"


@functools.cache
def _config_validator():
    """CONFIG_SCHEMA's validator, checked against its meta-schema once per process.

    A single CLI run builds it once, as jsonschema.validate did; a process that
    calls from_dict for many configs (library use, in-process batches) no
    longer repeats the meta-schema check for each.
    """
    cls = jsonschema.validators.validator_for(CONFIG_SCHEMA)
    cls.check_schema(CONFIG_SCHEMA)
    return cls(CONFIG_SCHEMA)


def _check_finite(obj, path: list) -> None:
    """Raise ConfigError at the first NaN or infinite float in a JSON-like tree."""
    if isinstance(obj, float) and not math.isfinite(obj):
        raise ConfigError(f"non-finite number {obj!r} at {'.'.join(map(str, path))}")
    for key, value in (obj.items() if isinstance(obj, dict)
                       else enumerate(obj) if isinstance(obj, list) else ()):
        _check_finite(value, path + [key])


def _parse_number(x):
    """Accept JSON numbers or "p/q" strings; strings stay exact."""
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad rational literal {x!r}") from exc
    return x


@dataclass
class AnalysisConfig:
    mode: str
    critical_points: list[CriticalPointSpec]
    potential: PotentialModel | None
    energy: object                      # scalar or (lo, hi)
    stages: list[str]
    options: dict
    raw: dict
    perturbation: WeightedPolynomial | None = field(init=False)   # options.perturbation

    def __post_init__(self):
        data = self.options.get("perturbation")
        try:
            self.perturbation = None if data is None else WeightedPolynomial.from_json_dict(data)
        except (ArithmeticError, LookupError, TypeError, ValueError) as exc:
            raise ConfigError(f"options.perturbation is not a polynomial: "
                              f"{_stage_error(exc)}") from exc

    @classmethod
    def from_dict(cls, data: dict) -> "AnalysisConfig":
        error = jsonschema.exceptions.best_match(_config_validator().iter_errors(data))
        if error is not None:
            path = ".".join(map(str, error.absolute_path))
            where = f" at {path}" if path else ""
            raise ConfigError(f"config schema violation{where}: {error.message}")
        _check_finite(data, [])
        mode = data["mode"]
        cps = []
        for entry in data.get("criticalPoints", []):
            if any(cp.label == entry["label"] for cp in cps):
                raise ConfigError(f"duplicate critical point label {entry['label']!r}")
            hess = tuple(_parse_number(h) for h in entry["hessian"])
            value = _parse_number(entry["value"])
            try:
                cps.append(CriticalPointSpec(label=entry["label"], value=value, hessian=hess))
            except ValueError as exc:
                raise ConfigError(f"critical point {entry['label']!r}: {exc}") from exc
        potential = None
        if mode == "explicit":
            if "potential" not in data:
                raise ConfigError("explicit mode requires a potential")
            pot = data["potential"]
            try:
                potential = PotentialModel(n=pot["n"], v0_coeffs=pot["v0"])
            except NotImplementedError as exc:
                raise ConfigError(str(exc)) from exc
        elif not cps:
            raise ConfigError("abstract mode requires a nonempty criticalPoints list")

        energy = data.get("energy")
        if isinstance(energy, list):
            if len(energy) != 2 or not energy[0] < energy[1]:
                raise ConfigError("interval energy must be [lo, hi] with lo < hi")
            energy = (float(energy[0]), float(energy[1]))
        elif energy is not None:
            energy = _parse_number(energy)

        options = dict(DEFAULTS)
        sp_defaults = dict(DEFAULTS["stationaryPhase"])
        user_opts = data.get("options", {})
        sp_user = user_opts.get("stationaryPhase", {})
        options.update({k: v for k, v in user_opts.items() if k != "stationaryPhase"})
        sp_defaults.update(sp_user)
        options["stationaryPhase"] = sp_defaults
        for key, least in INTEGER_OPTIONS.items():
            value = options[key]
            if isinstance(value, bool) or not isinstance(value, int) or value < least:
                raise ConfigError(f"option {key} must be an integer >= {least}, got {value!r}")

        stages = data.get("stages")
        if stages is None:
            stages = ["radial", "resonance", "normalform", "expansion"]
            if mode == "explicit":
                stages += ["flow", "morse"]
            if isinstance(energy, tuple):
                stages = ["scan"]
        return cls(mode=mode, critical_points=cps, potential=potential,
                   energy=energy, stages=stages, options=options, raw=data)


@dataclass
class AnalysisReport:
    config: AnalysisConfig
    per_energy: dict
    global_results: dict
    stage_errors: dict
    provenance: dict
    artifacts: dict = field(default_factory=dict)   # live objects for CSV emission

    def to_json_dict(self) -> dict:
        return {
            "provenance": self.provenance,
            "perEnergy": self.per_energy,
            "global": self.global_results,
            "stageErrors": self.stage_errors,
        }


def _point_stages(rp: RadialPoint, config: AnalysisConfig, errors, tag):
    """The per-radial-point pipeline: resonance, normal form, expansion."""
    out = {"radial": rp.to_json_dict()}
    stages, options, perturbation = config.stages, config.options, config.perturbation

    if "resonance" in stages:
        try:
            recs = enumerate_resonances(rp, options["maxDegree"],
                                        tol=options["floatResonanceTol"])
            rec_mod = module_order(rp)
            out["resonance"] = {
                "maxDegree": options["maxDegree"],
                "records": [r.to_json_dict() for r in recs],
                "secondIndexSet": [[list(a), list(b)] for a, b in second_index_set(rp)],
                "moduleOrders": [{"id": g.symbol_id, "sigma": float(g.eigenvalue),
                                  "s": float(g.order)} for g in rec_mod.generators],
            }
        except Exception as exc:  # noqa: BLE001 - stage isolation by contract
            errors[f"{tag}:resonance"] = _stage_error(exc)

    nf = None
    if "normalform" in stages and rp.layout.is_real_block:
        try:
            mode = rp.mode
            p = rp.model_quadratic().p0(mode)
            if perturbation is not None:
                if perturbation.mode != mode:
                    raise ConfigError("perturbation mode must match the radial point data")
                p = p + perturbation
            nf = reduce_to_normal_form(p, rp, options["maxDegree"])
            out["normalForm"] = nf.to_json_dict()
        except Exception as exc:  # noqa: BLE001
            errors[f"{tag}:normalform"] = _stage_error(exc)

    if "expansion" in stages:
        try:
            osc = None
            if options.get("oscillator") is not None:
                blocks = options["oscillator"]
                osc = {int(k): OscillatorSpec(**v) for k, v in blocks.items()} \
                    if all(isinstance(v, dict) for v in blocks.values()) \
                    else {j: OscillatorSpec(**blocks) for j in rp.layout.ythird_indices}
            elif rp.layout.ythird_indices:
                # default normalized block (mu^2 + a y^2)/|lambda|, which
                # reproduces the block eigenvalue ratios r(1-r) = a/w exactly;
                # overridable via options.oscillator (quantization ambiguity)
                from .radial import cp_hessian_sorted
                lam_abs = abs(float(rp.lam))
                hs = cp_hessian_sorted(rp)
                osc = {j: OscillatorSpec(p=1.0 / lam_abs, q=0.0,
                                         c=float(hs[j]) / 2.0 / lam_abs)
                       for j in rp.layout.ythird_indices}
            ed = exponent_data(rp, re_b=options["reB"], k_max=options["K"],
                               max_beta_prime=options["maxBetaPrime"],
                               oscillator_specs=osc)
            eff_r = None
            if nf is not None and not nf.r_eff_r.is_zero() and rp.mode == EXACT:
                eff_r = log_variable_recursion(rp, r_eff_r=nf.r_eff_r)
            tpl = expansion_template(rp, ed, k_max=options["K"],
                                     max_beta_prime=options["maxBetaPrime"], eff_r=eff_r)
            out["expansion"] = {"exponents": ed.to_json_dict(),
                                "template": tpl.to_json_dict()}
        except Exception as exc:  # noqa: BLE001
            errors[f"{tag}:expansion"] = _stage_error(exc)
    return out


def run_analysis(config: AnalysisConfig) -> AnalysisReport:
    """Execute the configured pipeline; stage failures are recorded per
    stage and leave completed stages intact."""
    errors: dict[str, str] = {}
    per_energy: dict = {}
    global_results: dict = {}
    artifacts: dict = {}
    options = config.options
    stages = config.stages

    if "scan" in stages:
        if not isinstance(config.energy, tuple):
            raise ConfigError("scan stage requires an interval energy [lo, hi]")
        try:
            cps = config.critical_points if config.potential is None else \
                [cp for _, cp in critical_points(config.potential)]
        except Exception as exc:  # noqa: BLE001
            errors["scan"] = _stage_error(exc)
        else:
            scans = {}
            for cp in cps:
                if float(cp.value) >= config.energy[0]:
                    errors[f"scan:{cp.label}"] = (
                        f"interval starts at {config.energy[0]} which is not above "
                        f"V0({cp.label}) = {float(cp.value)}")
                    continue
                try:
                    res = scan_effectively_resonant_energies(
                        cp, config.energy, sign=options["sign"],
                        grid_points=options["scanGridPoints"],
                        bisect_tol=options["bisectTol"])
                    scans[cp.label] = res.to_json_dict()
                except Exception as exc:  # noqa: BLE001
                    errors[f"scan:{cp.label}"] = _stage_error(exc)
            global_results["energyScan"] = scans

    scalar_energy = config.energy is not None and not isinstance(config.energy, tuple)
    point_stages = {"radial", "resonance", "normalform", "expansion"} & set(stages)
    flow_stages = {"flow", "morse"} & set(stages) if config.mode == "explicit" else set()
    located = None
    if config.mode == "explicit" and scalar_energy and (point_stages or flow_stages):
        # the one locate of the run; a forbidden energy propagates (exit 3)
        try:
            located = locate_radial_points(config.potential, float(config.energy),
                                           tol=options["tol"])
        except ForbiddenEnergyError:
            raise
        except Exception as exc:  # noqa: BLE001
            errors["radial"] = _stage_error(exc)

    if point_stages and scalar_energy and (config.mode == "abstract" or located is not None):
        sigma = config.energy
        entry: dict = {}
        if config.mode == "abstract":
            def run_cp(cp):
                # a forbidden energy propagates (exit 3); a critical value
                # above sigma is ordinary data
                try:
                    rp = linearization_spectrum(cp, sigma, options["sign"], options["tol"])
                except NoRealRadialPointError as exc:
                    return cp.label, {"error": str(exc)}
                return cp.label, _point_stages(rp, config, errors, cp.label)

            for label, data in parallel_map(run_cp, config.critical_points):
                entry[label] = data
        else:
            for node in located:
                if not node.outgoing:
                    entry[node.node_id] = {"radial": node.to_json_dict()}
                    continue
                data = _point_stages(node.record, config, errors, node.node_id)
                data["radial"] = node.to_json_dict()
                entry[node.node_id] = data
        per_energy[repr(float(sigma))] = entry

    if flow_stages and not scalar_energy:
        errors["flow"] = "flow/morse stages need a single energy"
    elif flow_stages and located is not None:
        sigma = float(config.energy)
        try:
            dag = heteroclinic_dag(
                config.potential, sigma, eps=options["seedEps"], tol=options["flowTol"],
                ball_radius=options["ballRadius"], w_stop=options["wStop"],
                hold_time=options["holdTime"], t_max=options["tMax"], nodes=located)
            global_results["dag"] = dag.to_json_dict()
            artifacts["dag"] = dag
            global_results["lyapunov"] = [lyapunov_check(config.potential, sigma, n)
                                          for n in dag.nodes if n.outgoing]
            if "morse" in flow_stages:
                ms = morse_sequence(dag)
                global_results["morse"] = ms.to_json_dict()
                if not ms.verified:
                    errors["morse"] = "; ".join(ms.issues)
        except Exception as exc:  # noqa: BLE001
            errors["flow"] = _stage_error(exc)

    if "stationaryPhase" in stages:
        sp = options["stationaryPhase"]
        try:
            center = sp["center"]
            if center is None:
                center = sp["v0z"] + 1.0 / (4.0 * sp["tau"] ** 2)
            amp = gaussian_amplitude(center, sp["width"], cut=sp["cut"])
            case = StationaryPhaseCase(v0z=sp["v0z"], tau=sp["tau"], amplitude=amp,
                                       x_list=tuple(sp["xList"]))
            res = stationary_phase_check(case)
            global_results["stationaryPhase"] = res.to_json_dict()
            artifacts["stationaryPhase"] = res
        except Exception as exc:  # noqa: BLE001
            errors["stationaryPhase"] = _stage_error(exc)

    provenance = {
        "tool": "radialscope",
        "version": __version__,
        "config": config.raw,
        "effectiveOptions": options,
    }
    return AnalysisReport(config=config, per_energy=per_energy,
                          global_results=global_results, stage_errors=errors,
                          provenance=provenance, artifacts=artifacts)


# -- emission --------------------------------------------------------------------------


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True,
                      allow_nan=False) + "\n"


def emit(report: AnalysisReport, formats: list[str], outdir: str) -> list[str]:
    """Write report files; returns the paths written.

    json -> report.json (canonical); csv -> one file per tabular series
    (per-edge trajectories and the stationary-phase prefactor curve,
    which double as plot data).  Outputs are byte-identical across runs
    with identical config.
    """
    os.makedirs(outdir, exist_ok=True)
    written = []
    csv_tables = {}
    sp = report.artifacts.get("stationaryPhase")
    if sp is not None:
        csv_tables["stationary_phase.csv"] = sp.to_csv_rows()
    dag = report.artifacts.get("dag")
    if dag is not None:
        for i, edge in enumerate(dag.edges):
            csv_tables[f"trajectory_{i:03d}.csv"] = edge.trajectory.to_csv_rows()

    if "json" in formats:
        path = os.path.join(outdir, "report.json")
        text = canonical_json(report.to_json_dict())
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        written.append(path)
    if "csv" in formats:
        for name in sorted(csv_tables):
            path = os.path.join(outdir, name)
            with open(path, "w", encoding="utf-8") as fh:
                for row in csv_tables[name]:
                    fh.write(",".join(row) + "\n")
            written.append(path)
    return written
