"""
Stationary-phase verification of the long-time asymptotics
==========================================================

The model integral (1/2 pi i) int a(sigma) e^{i(-tau sigma +
sqrt(sigma - V0))/x} d sigma localizes at the energy-equation value
sigma_c = V0 + 1/(4 tau^2).  Dividing by x^{1/2} tau^{-3/2} a(sigma_c)
e^{i Psi/x} must reproduce the universal constant
c = (1/(2 sqrt(pi))) e^{-3 i pi/4} as x -> 0, at rate O(x).
"""

import cmath
import math

from radialscope import (STATIONARY_PHASE_CONSTANT, StationaryPhaseCase,
                         gaussian_amplitude, stationary_phase_check)
from radialscope.oscverify import measure_phase_hessian

print("c =", STATIONARY_PHASE_CONSTANT)
print("|c| = 1/(2 sqrt pi) =", abs(STATIONARY_PHASE_CONSTANT))
print("arg c = -3 pi/4 =", cmath.phase(STATIONARY_PHASE_CONSTANT))

case = StationaryPhaseCase(
    v0z=0.0, tau=0.5,
    amplitude=gaussian_amplitude(1.0, 0.3, cut=3.0),
    x_list=tuple(10 ** e for e in (-2, -2.5, -3, -3.5, -4, -6)),
)
print("\nenergy equation: sigma_c = V0 + 1/(4 tau^2) =", case.sigma_c)

res = stationary_phase_check(case)
print("measured peak:", res.peak_sigma)
print(f"phase Hessian at x = {case.x_list[-1]:.0e}:", res.hessian_measured,
      " (expected -2 tau^3/x =", res.hessian_expected, ")")

cmod = abs(STATIONARY_PHASE_CONSTANT)
cph = cmath.phase(STATIONARY_PHASE_CONSTANT)
print("\n    x        |prefactor|   dev        phase      dev")
for r in res.rows:
    print(f"  {r['x']:.1e}  {r['prefactorMod']:.6f}  {abs(r['prefactorMod'] - cmod):.1e}"
          f"  {r['prefactorPhase']:+.5f}  {abs(r['prefactorPhase'] - cph):.1e}")
print("fitted convergence exponent (expect ~1):", round(res.convergence_exponent, 3))

# the envelope property d Psi/d tau = -sigma_c
from radialscope.oscverify import psi_of_tau
h = 1e-6
dpsi = (psi_of_tau(0.0, 0.5 + h) - psi_of_tau(0.0, 0.5 - h)) / (2 * h)
print("\nenvelope check: dPsi/dtau =", dpsi, " vs -sigma_c =", -case.sigma_c)
