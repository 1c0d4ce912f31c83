"""Configuration ingestion, pipeline orchestration and report emission.

A single JSON config drives the pipeline
locate -> linearize -> resonate -> normal-form -> expand, plus the
explicit-mode flow/Morse stages and the stationary-phase verification
when requested.  Reports are deterministic: identical configs produce
byte-identical files (canonical key order, rationals as "p/q" strings,
no timestamps).
"""

from __future__ import annotations

import contextlib
import json
import math
import numbers
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING

from . import __version__
from .symalg import EXACT, WeightedPolynomial
from .radial import (DEFAULT_FLOW_TOL, DEFAULT_SEED_EPS, DEFAULT_T_MAX, DEFAULT_TOL,
                     CriticalPointSpec, ForbiddenEnergyError, NoRealRadialPointError,
                     RadialPoint, cp_hessian_sorted, linearization_spectrum)
from .resonance import (DEFAULT_BISECT_TOL, DEFAULT_FLOAT_TOL, DEFAULT_GRID,
                        enumerate_resonances, module_order,
                        scan_effectively_resonant_energies, second_index_set)
from .normalform import reduce_to_normal_form
from .expansion import (OscillatorSpec, exponent_data, expansion_template,
                        log_variable_recursion)

# dynamics (explicit mode) and oscverify (the stationary-phase stage) load with
# numpy, so they are imported in the branch that runs them
if TYPE_CHECKING:
    from .dynamics import PotentialModel

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
    "floatResonanceTol": DEFAULT_FLOAT_TOL,
    "scanGridPoints": DEFAULT_GRID,
    "bisectTol": DEFAULT_BISECT_TOL,
    "flowTol": DEFAULT_FLOW_TOL,
    "seedEps": DEFAULT_SEED_EPS,
    "tMax": DEFAULT_T_MAX,
    "sign": 1,
    "stationaryPhase": {
        "v0z": 0.0, "tau": 0.5, "center": None, "width": 0.3, "cut": 3.0,
        "xList": [1e-2, 10 ** -2.5, 1e-3, 10 ** -3.5, 1e-4],
    },
}

_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
# integer options and their (least, greatest) values, checked at load; None is
# no ceiling.  The scan allocates scanGridPoints + 1 floats per family.
INTEGER_OPTIONS = {"scanGridPoints": (2, 1_000_000), "maxDegree": (1, None), "K": (0, None),
                   "maxBetaPrime": (0, None)}


def _integer_range(key: str) -> str:
    least, most = INTEGER_OPTIONS[key]
    return f">= {least}" if most is None else f">= {least} and <= {most}"


STAGES = ["radial", "resonance", "normalform", "expansion", "scan", "flow", "morse",
          "stationaryPhase"]
POINT_STAGES = {"radial", "resonance", "normalform", "expansion"}   # need a single energy
FLOW_STAGES = {"flow", "morse"}              # need a single energy and explicit mode
# stageSkips reasons, keyed "<tag>:<stage>" as stageErrors is
SKIP_COMPLEX_BLOCK = ("the normal form reduces real-block radial points only, and this "
                      "point has a complex (y''') block")
SKIP_INCOMING = "incoming radial point: explicit mode runs the point stages at outgoing points"
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
            **{key: {"$comment": f"an integer {_integer_range(key)}, checked at load"}
               for key in INTEGER_OPTIONS},
            **{key: _POSITIVE for key in ("tol", "bisectTol", "flowTol", "seedEps", "tMax",
                                          "floatResonanceTol")},
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


@contextlib.contextmanager
def _stage(errors: dict, label: str):
    """Run one requested stage: a failure is errors[label] and the run goes on,
    but a forbidden energy (exit 3) or a config error (exit 2) ends the run."""
    try:
        yield
    except (ConfigError, ForbiddenEnergyError):
        raise
    except Exception as exc:  # noqa: BLE001 - stage isolation by contract
        errors[label] = _stage_error(exc)


def _is_number(x) -> bool:
    return isinstance(x, numbers.Number) and not isinstance(x, bool)


# Draft 2020-12's types: bool is not a number, and a float such as 3.0 is an integer
_JSON_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "null": lambda x: x is None,
    "number": _is_number,
    "integer": lambda x: (isinstance(x, int) and not isinstance(x, bool)
                          or isinstance(x, float) and x.is_integer()),
}


# The exit-2 text must not change: the order, the choice and the wording of
# errors follow jsonschema 4.26's best_match, the tests' reference.
def _schema_errors(instance, schema: dict, path: tuple = ()):
    """Yield (path, message) for each violation of `schema` by `instance`.

    Covers the keywords CONFIG_SCHEMA uses and raises ValueError on any other.
    Errors come in schema keyword order, `properties` in schema order.
    """
    is_list, is_dict = isinstance(instance, list), isinstance(instance, dict)
    for key, value in schema.items():
        match key:
            case "type":
                kinds = [value] if isinstance(value, str) else value
                if not any(_JSON_TYPES[kind](instance) for kind in kinds):
                    yield path, f"{instance!r} is not of type {', '.join(map(repr, kinds))}"
            case "enum":
                # bool equals no number: true is not in [1, -1], while 1.0 is
                if not any(isinstance(each, bool) == isinstance(instance, bool)
                           and each == instance for each in value):
                    yield path, f"{instance!r} is not one of {value!r}"
            case "exclusiveMinimum":
                if _is_number(instance) and instance <= value:
                    yield path, f"{instance!r} is less than or equal to the minimum of {value!r}"
            case "minItems":
                if is_list and len(instance) < value:
                    yield path, f"{instance!r} " + (
                        "should be non-empty" if value == 1 else "is too short")
            case "maxItems":
                if is_list and len(instance) > value:
                    yield path, f"{instance!r} " + (
                        "is expected to be empty" if value == 0 else "is too long")
            case "items":
                for index, item in enumerate(instance if is_list else ()):
                    yield from _schema_errors(item, value, path + (index,))
            case "required":
                for name in value if is_dict else ():
                    if name not in instance:
                        yield path, f"{name!r} is a required property"
            case "properties":
                for name, subschema in value.items() if is_dict else ():
                    if name in instance:
                        yield from _schema_errors(instance[name], subschema, path + (name,))
            case "additionalProperties" if value is False:
                known = schema.get("properties", {})
                extras = sorted((name for name in instance if name not in known) if is_dict
                                else (), key=str)
                if extras:
                    verb = "was" if len(extras) == 1 else "were"
                    yield path, (f"Additional properties are not allowed "
                                 f"({', '.join(map(repr, extras))} {verb} unexpected)")
            case "$comment":
                pass
            case _:
                raise ValueError(f"schema keyword {key!r}: {value!r} is not implemented")


def schema_violation(data) -> tuple[tuple, str] | None:
    """The (path, message) of the most relevant CONFIG_SCHEMA violation, or None.

    The shallowest error wins, then the greatest path; on a tie, the first.
    """
    return max(_schema_errors(data, CONFIG_SCHEMA), key=lambda error: (-len(error[0]), error[0]),
               default=None)


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


def _oscillator_spec(data: dict, where: str) -> OscillatorSpec:
    """One options.oscillator block {p, q, c}, elliptic with p > 0."""
    if sorted(data) != ["c", "p", "q"] or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in data.values()):
        raise ConfigError(f"options.oscillator{where} must map exactly p, q and c to "
                          f"numbers, got {data!r}")
    try:
        return OscillatorSpec(**data)
    except (ArithmeticError, ValueError) as exc:
        raise ConfigError(f"options.oscillator{where}: {exc}") from exc


def _check_stages(stages: list[str], mode: str, energy) -> None:
    """Refuse the first stage that the mode or the energy of the config cannot run."""
    single = energy is not None and not isinstance(energy, tuple)
    for stage in stages:
        if stage == "scan" and not isinstance(energy, tuple):
            raise ConfigError("stage scan needs an interval energy [lo, hi]")
        if stage in FLOW_STAGES and mode != "explicit":
            raise ConfigError(f"stage {stage} needs explicit mode")
        if stage in POINT_STAGES | FLOW_STAGES and not single:
            raise ConfigError(f"stage {stage} needs a single energy")


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
    # options.oscillator: one spec for every y''' block, or specs per block index
    oscillator: OscillatorSpec | dict[int, OscillatorSpec] | None = field(init=False)

    def __post_init__(self):
        _check_stages(self.stages, self.mode, self.energy)
        data = self.options.get("perturbation")
        try:
            self.perturbation = None if data is None else WeightedPolynomial.from_json_dict(data)
        except (ArithmeticError, LookupError, TypeError, ValueError) as exc:
            raise ConfigError(f"options.perturbation is not a polynomial: "
                              f"{_stage_error(exc)}") from exc
        data = self.options.get("oscillator")
        if data is None or not all(isinstance(v, dict) for v in data.values()):
            self.oscillator = None if data is None else _oscillator_spec(data, "")
        else:
            self.oscillator = {}
            for key, spec in data.items():
                try:
                    index = int(key)
                except ValueError:
                    raise ConfigError(f"options.oscillator key {key!r} is not a block "
                                      f"index") from None
                self.oscillator[index] = _oscillator_spec(spec, f"[{key!r}]")

    @classmethod
    def from_dict(cls, data: dict) -> "AnalysisConfig":
        error = schema_violation(data)
        if error is not None:
            path, message = error
            where = f" at {'.'.join(map(str, path))}" if path else ""
            raise ConfigError(f"config schema violation{where}: {message}")
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
            from . import dynamics
            try:
                potential = dynamics.PotentialModel(n=pot["n"], v0_coeffs=pot["v0"])
            except (NotImplementedError, ValueError) as exc:
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
        for key, (least, most) in INTEGER_OPTIONS.items():
            value = options[key]
            if isinstance(value, bool) or not isinstance(value, int) or value < least \
                    or (most is not None and value > most):
                raise ConfigError(f"option {key} must be an integer {_integer_range(key)}, "
                                  f"got {value!r}")

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
    stage_skips: dict = field(default_factory=dict)
    artifacts: dict = field(default_factory=dict)   # live objects for CSV emission

    def to_json_dict(self) -> dict:
        # stageSkips only when a stage was skipped, so other reports keep their bytes
        skips = {"stageSkips": self.stage_skips} if self.stage_skips else {}
        return {"provenance": self.provenance, "perEnergy": self.per_energy,
                "global": self.global_results, "stageErrors": self.stage_errors, **skips}


def _point_stages(tag: str, rp: RadialPoint, config: AnalysisConfig, errors: dict,
                  skips: dict) -> dict:
    """The requested point stages at one radial point: resonance, normal form,
    expansion.  Each runs under _stage or is recorded in skips with its reason."""
    out = {}
    stages, options, perturbation = config.stages, config.options, config.perturbation

    if "resonance" in stages:
        with _stage(errors, f"{tag}:resonance"):
            tol = options["floatResonanceTol"]
            recs = enumerate_resonances(rp, options["maxDegree"], tol=tol)
            rec_mod = module_order(rp)
            out["resonance"] = {
                "maxDegree": options["maxDegree"],
                "records": [r.to_json_dict() for r in recs],
                "secondIndexSet": [[list(a), list(b)] for a, b in second_index_set(rp, tol=tol)],
                "moduleOrders": [{"id": g.symbol_id, "sigma": float(g.eigenvalue),
                                  "s": float(g.order)} for g in rec_mod.generators],
            }

    nf = None
    if "normalform" in stages and not rp.layout.is_real_block:
        skips[f"{tag}:normalform"] = SKIP_COMPLEX_BLOCK
    elif "normalform" in stages:
        with _stage(errors, f"{tag}:normalform"):
            p = rp.p0
            if perturbation is not None:
                if perturbation.mode != p.mode:
                    raise ConfigError("perturbation mode must match the radial point data")
                p = p + perturbation
            nf = reduce_to_normal_form(p, rp, options["maxDegree"],
                                       tol=options["floatResonanceTol"])
            out["normalForm"] = nf.to_json_dict()

    if "expansion" in stages:
        with _stage(errors, f"{tag}:expansion"):
            osc = config.oscillator
            if isinstance(osc, OscillatorSpec):
                osc = {j: osc for j in rp.layout.ythird_indices}
            elif osc is None and rp.layout.ythird_indices:
                # default normalized block (mu^2 + a y^2)/|lambda|, which
                # reproduces the block eigenvalue ratios r(1-r) = a/w exactly;
                # overridable via options.oscillator (quantization ambiguity)
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
    return out


def run_analysis(config: AnalysisConfig) -> AnalysisReport:
    """Execute the configured pipeline.  Each requested stage runs under
    _stage, where a failure is recorded and leaves completed stages intact,
    or is recorded as skipped with its reason."""
    errors: dict[str, str] = {}
    skips: dict[str, str] = {}
    per_energy: dict = {}
    global_results: dict = {}
    artifacts: dict = {}
    options = config.options
    stages = config.stages

    if "scan" in stages:
        with _stage(errors, "scan"):
            if config.potential is None:
                cps = config.critical_points
            else:
                from . import dynamics
                cps = [cp for _, cp in dynamics.critical_points(config.potential)]
            scans = global_results["energyScan"] = {}
            for cp in cps:
                with _stage(errors, f"scan:{cp.label}"):
                    scans[cp.label] = scan_effectively_resonant_energies(
                        cp, config.energy, sign=options["sign"],
                        grid_points=options["scanGridPoints"],
                        bisect_tol=options["bisectTol"]).to_json_dict()

    point_stages = POINT_STAGES & set(stages)
    flow_stages = FLOW_STAGES & set(stages)
    located = None
    if config.mode == "explicit" and (point_stages or flow_stages):
        from . import dynamics
        # the one locate of the run; a forbidden energy propagates (exit 3)
        with _stage(errors, "radial"):
            located = dynamics.locate_radial_points(config.potential, float(config.energy),
                                                    tol=options["tol"])

    if point_stages and (config.mode == "abstract" or located is not None):
        entry = per_energy[repr(float(config.energy))] = {}
        points = []         # (tag, radial point, its radial entry, incoming explicit node)
        if config.mode == "abstract":
            for cp in config.critical_points:
                # a forbidden energy propagates (exit 3); a critical value
                # above sigma is ordinary data
                with _stage(errors, f"{cp.label}:radial"):
                    try:
                        rp = linearization_spectrum(cp, config.energy, options["sign"],
                                                    options["tol"])
                    except NoRealRadialPointError as exc:
                        entry[cp.label] = {"error": str(exc)}
                    else:
                        points.append((cp.label, rp, rp.to_json_dict(), False))
        else:
            points = [(node.node_id, node.record, node.to_json_dict(), not node.outgoing)
                      for node in located]
        for tag, rp, radial, incoming in points:
            entry[tag] = {"radial": radial}
            if not incoming:
                entry[tag].update(_point_stages(tag, rp, config, errors, skips))
            for stage in point_stages - {"radial"} if incoming else ():
                skips[f"{tag}:{stage}"] = SKIP_INCOMING

    if flow_stages and located is not None:
        with _stage(errors, "flow"):
            dag = dynamics.heteroclinic_dag(config.potential, float(config.energy),
                                            eps=options["seedEps"], tol=options["flowTol"],
                                            t_max=options["tMax"], nodes=located)
            global_results["dag"] = dag.to_json_dict()
            artifacts["dag"] = dag
            global_results["lyapunov"] = list(dag.lyapunov)
        if "morse" in flow_stages and "dag" in artifacts:
            with _stage(errors, "morse"):
                ms = dynamics.morse_sequence(dag)
                global_results["morse"] = ms.to_json_dict()
                if not ms.verified:
                    raise dynamics.MorseSequenceError("; ".join(ms.issues))

    if "stationaryPhase" in stages:
        sp = options["stationaryPhase"]
        from . import oscverify
        with _stage(errors, "stationaryPhase"):
            center = sp["center"]
            if center is None:
                center = sp["v0z"] + 1.0 / (4.0 * sp["tau"] ** 2)
            amp = oscverify.gaussian_amplitude(center, sp["width"], cut=sp["cut"])
            case = oscverify.StationaryPhaseCase(v0z=sp["v0z"], tau=sp["tau"], amplitude=amp,
                                                 x_list=tuple(sp["xList"]))
            res = oscverify.stationary_phase_check(case)
            global_results["stationaryPhase"] = res.to_json_dict()
            artifacts["stationaryPhase"] = res

    provenance = {
        "tool": "radialscope",
        "version": __version__,
        "config": config.raw,
        "effectiveOptions": options,
    }
    return AnalysisReport(config=config, per_energy=per_energy,
                          global_results=global_results, stage_errors=errors,
                          stage_skips=skips, provenance=provenance, artifacts=artifacts)


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
