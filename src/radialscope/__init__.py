"""radialscope: the computable core of scattering at order-zero potentials.

Modules cover the sparse-polynomial kernel (multipoly), the weighted
symbol algebra built on it (symalg), radial-point linearization
(radial), Brent's root finder (roots), resonance sets, J'' and test-module
orders (resonance), normal-form reduction (normalform), explicit boundary
flows and the Morse DAG (dynamics), eigenfunction expansion templates
(expansion), stationary phase verification (oscverify) and report
orchestration (cli_reports).  Checks that no run uses, such as the test
module's closure under the bracket, live with the tests.

The names below are re-exported lazily: `radialscope.X` imports X's module
on first use.  A run loads only the modules and the numpy that its stages
use.  numpy loads with the energy scan, with dynamics (every explicit-mode
run) and with oscverify (the stationary-phase stage), and in the few
numerical helpers that no CLI run calls; an abstract-mode `normal-form`,
`expansion` or `analyze` run, exact or floating, loads none of them.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {name: module for module, names in {
    "symalg": ("EXACT", "FLOATING", "ModelQuadratic", "VariableLayout", "WeightedMonomial",
               "WeightedPolynomial", "ad_exponential", "bracket", "eigen_action_table",
               "grade_components"),
    "radial": ("CriticalPointSpec", "RadialPoint", "classify_radial", "hessian_thresholds",
               "linearization_eigenvectors", "linearization_spectrum",
               "radial_point_from_spectrum"),
    "resonance": ("ResonanceRecord", "enumerate_resonances", "module_order", "s_alpha",
                  "scan_effectively_resonant_energies", "second_index_set"),
    "normalform": ("FamilyCoefficients", "NelsonCase", "NormalFormResult",
                   "family_normal_form", "flat_perturbation_case_1d", "nelson_limit",
                   "reduce_to_normal_form", "solve_homological"),
    "dynamics": ("ContactPoint", "PotentialModel", "field_eval", "heteroclinic_dag",
                 "integrate_flow", "locate_radial_points", "lyapunov_check", "morse_sequence"),
    "expansion": ("ExpansionTemplate", "ExponentData", "LogVariableSet", "OscillatorSpec",
                  "exponent_data", "expansion_template", "log_variable_recursion",
                  "oscillator_spectrum"),
    "oscverify": ("STATIONARY_PHASE_CONSTANT", "StationaryPhaseCase", "gaussian_amplitude",
                  "oscillatory_quadrature", "stationary_phase_check"),
    "cli_reports": ("AnalysisConfig", "AnalysisReport", "emit", "run_analysis"),
}.items() for name in names}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    """Import the defining module of an exported name and cache the name here."""
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
