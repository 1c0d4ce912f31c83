"""
Resonant multiindices and effectively resonant energies
=======================================================

A multiindex (a, alpha, beta) of weighted degree >= 3 is resonant when
a - 1 + sum alpha_j r_j + sum beta_j (1 - r_j) = 0.  Only the small
effectively resonant subsets I' and I'' alter leading asymptotics;
energies carrying them are isolated and found by a sign-change scan.
"""

from fractions import Fraction

from radialscope import (CriticalPointSpec, enumerate_resonances, module_order,
                         radial_point_from_spectrum, s_alpha,
                         scan_effectively_resonant_energies, second_index_set)
from radialscope.resonance import module_multiindex

# a saddle with r' = (-2, -1): the key (0, 0, 2, 1, 0), that is a = 0,
# alpha = (0, 2), beta = (1, 0), witnesses 2 r'_2 = r'_1, an I'-type
# (effR1) resonance
rp = radial_point_from_spectrum(Fraction(1), (Fraction(-2), Fraction(-1)))
for rec in enumerate_resonances(rp, max_degree=5):
    print(f"degree {rec.degree}: {rec.idx} -> {rec.klass}")

# the test-module order bookkeeping separates the classes: a resonant
# index is effectively resonant exactly when its module product has
# total order 1, effectively nonresonant when the order exceeds 1
rec_mod = module_order(rp)
print("generators:", [(g.symbol_id, str(g.order)) for g in rec_mod.generators])
for rec in enumerate_resonances(rp, max_degree=5):
    gamma = module_multiindex(rec.idx, rec_mod)
    s, s_tilde = s_alpha(rec_mod, gamma)
    print(f"{rec.idx}: s = {s}, s~ = {s_tilde}  ({rec.klass})")

# scanning an energy window of the same critical point locates the single
# effectively resonant energy sigma = 1 (where r' = (-2, -1))
cp = CriticalPointSpec("z", Fraction(0), (Fraction(-12), Fraction(-4)))
scan = scan_effectively_resonant_energies(cp, (0.5, 2.0))
for sigma, idx, residual in scan.eff_res_energies:
    print(f"effectively resonant energy sigma = {sigma:.9f}, witness {idx}, "
          f"residual {residual:.1e}")

# the finite second index set J'' for a gentle-ascent block
rp2 = radial_point_from_spectrum(1.0, (0.3,))
print("J'' for r'' = 0.3:", second_index_set(rp2))
