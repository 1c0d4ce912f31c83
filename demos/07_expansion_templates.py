"""
Eigenfunction expansion templates
=================================

At an outgoing radial point the microlocal eigenfunctions expand in
powers x^{-i b~ - i kappa_k} (source/sink) or x^{a_{beta'} - i kappa_k}
(saddle), with kappa_k the spectrum of the shifted oscillator
Q~ = Q - (YD + DY)/4 and profiles as symbolic slots.  Effectively
resonant points acquire log-shifted variables and the integrating factor
exp(-i Psharp_0).
"""

import math
from fractions import Fraction

from radialscope import (OscillatorSpec, exponent_data, expansion_template,
                         log_variable_recursion, oscillator_spectrum,
                         radial_point_from_spectrum)
from radialscope.multipoly import MultiPoly

# the shifted oscillator spectrum in closed form (the tests check it
# against a finite-difference eigensolve)
spec = OscillatorSpec(p=1.0, q=0.0, c=1.0)       # Q = D^2 + Y^2, q~ = -1/4
closed = oscillator_spectrum(spec, 3)
print("kappa (closed) :", [round(k, 10) for k in closed])
print("base sqrt(pc - q~^2) =", math.sqrt(15) / 4)

# a source/sink with one gentle block: B = 1/2 - r''/2 = 3/8 and the
# template is a single slot per oscillator level
rp = radial_point_from_spectrum(Fraction(1), (Fraction(1, 4),))
ed = exponent_data(rp, re_b=0.0, k_max=2, max_beta_prime=0)
print("\nsource/sink: B =", ed.B, " b~ =", ed.b_tilde)
for t in expansion_template(rp, ed, k_max=2, max_beta_prime=0).terms:
    print("  term:", t.exponent, t.profile)

# a saddle with r' = -1: exponents a_{beta'} = |r'| beta' - i b~ step by 1
rp2 = radial_point_from_spectrum(Fraction(1), (Fraction(-1),))
ed2 = exponent_data(rp2, re_b=0.0, k_max=0, max_beta_prime=2)
tpl2 = expansion_template(rp2, ed2, k_max=0, max_beta_prime=2)
print("\nsaddle: d =", ed2.d, " Im b~ = B + d =", ed2.b_tilde.imag)
for t in tpl2.terms:
    print("  term:", t.exponent, "beta' =", t.beta_prime)
print(" ", tpl2.decay_note)

# effectively resonant source/sink: P_0 = 5 y^3 at r'' = 1/3 integrates to
# Psharp_0 = 5 Y^3 log x, certified exactly, and the profiles compose with
# the integrating factor
rp3 = radial_point_from_spectrum(Fraction(-2), (Fraction(1, 3),))
lvs = log_variable_recursion(rp3, p_polys={}, p0_poly=MultiPoly(1, {(3,): Fraction(5)}))
print("\nPsharp_0 =", lvs.psharp0, " certificate:", lvs.certificate)
ed3 = exponent_data(rp3, k_max=1, max_beta_prime=0)
for t in expansion_template(rp3, ed3, k_max=1, max_beta_prime=0, eff_r=lvs).terms:
    print("  term:", t.exponent, "log power", t.log_power, "|", t.profile)
