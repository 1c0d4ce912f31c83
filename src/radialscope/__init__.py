"""radialscope: the computable core of scattering at order-zero potentials.

Modules cover the sparse-polynomial kernel (multipoly), the weighted
symbol algebra built on it (symalg), radial-point linearization
(radial), Brent's root finder (roots), resonance sets, J'' and test-module
orders (resonance), normal-form reduction (normalform), explicit boundary
flows and the Morse DAG (dynamics), eigenfunction expansion templates
(expansion), stationary phase verification (oscverify) and report
orchestration (cli_reports).  Checks that no run uses, such as the test
module's closure under the bracket, live with the tests.
"""

__version__ = "0.1.0"

from .symalg import (EXACT, FLOATING, ModelQuadratic, VariableLayout,  # noqa: F401
                     WeightedMonomial, WeightedPolynomial, ad_exponential, bracket,
                     eigen_action_table, grade_components)
from .radial import (CriticalPointSpec, RadialPoint, classify_radial,  # noqa: F401
                     hessian_thresholds, linearization_eigenvectors,
                     linearization_spectrum, radial_point_from_spectrum)
from .resonance import (ResonanceRecord, enumerate_resonances, module_order,  # noqa: F401
                        s_alpha, scan_effectively_resonant_energies, second_index_set)
from .normalform import (FamilyCoefficients, NelsonCase, NormalFormResult,  # noqa: F401
                         family_normal_form, flat_perturbation_case_1d, nelson_limit,
                         reduce_to_normal_form, solve_homological)
from .dynamics import (ContactPoint, PotentialModel, field_eval,  # noqa: F401
                       heteroclinic_dag, integrate_flow, locate_radial_points,
                       lyapunov_check, morse_sequence)
from .expansion import (ExpansionTemplate, ExponentData, LogVariableSet,  # noqa: F401
                        OscillatorSpec, exponent_data, expansion_template,
                        log_variable_recursion, oscillator_spectrum)
from .oscverify import (STATIONARY_PHASE_CONSTANT, StationaryPhaseCase,  # noqa: F401
                        gaussian_amplitude, oscillatory_quadrature,
                        stationary_phase_check)
from .cli_reports import AnalysisConfig, AnalysisReport, emit, run_analysis  # noqa: F401
