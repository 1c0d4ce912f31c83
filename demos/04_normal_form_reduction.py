"""
Normal-form reduction and parameter families
============================================

Grade by grade, nonresonant terms are cancelled by time-1 flows of
homological generators; what survives is resonant and splits into the
effectively resonant and effectively nonresonant remainders.  Over an
energy window free of effectively resonant energies, one fixed index set
gives coefficient curves that stay smooth across plain resonances.
"""

from fractions import Fraction

import numpy as np

from radialscope import (CriticalPointSpec, VariableLayout, WeightedPolynomial,
                         family_normal_form, radial_point_from_spectrum,
                         reduce_to_normal_form, solve_homological)

rp = radial_point_from_spectrum(Fraction(1), (Fraction(1, 4),))
p0 = rp.model_quadratic().p0()
y = WeightedPolynomial.y(rp.layout, 0)

# the homological equation {{p0, b}} = e: nonresonant e inverts exactly,
# resonant e lands in the residual
sol = solve_homological(rp.model_quadratic(), y * y * y)
print("e = y^3:  b =", sol.b, " residual =", sol.residual)
sol = solve_homological(rp.model_quadratic(), y * y * y * y)
print("e = y^4:  b =", sol.b, " residual =", sol.residual)

# a cubic perturbation is nonresonant at r = 1/4 and disappears exactly
res = reduce_to_normal_form(p0 + y * y * y, rp, max_grade=6)
print("reduce(p0 + y^3):", res.p_norm, " effR:", res.r_eff_r, " effNR:", res.r_eff_nr)
print("inverse transform recovers the input:",
      res.apply_inverse(res.p_norm) == p0 + y * y * y)

# the quartic is resonant (4 r = 1) and effectively resonant of I'' type
res4 = reduce_to_normal_form(p0 + y * y * y * y, rp, max_grade=6)
print("reduce(p0 + y^4): effR =", res4.r_eff_r)

# a family across a plain (non-effective) resonance: at sigma = 1 the
# monomial nu y^2 mu, key (a, alpha_1, beta_1) = (1, 2, 1), is resonant but
# harmless; the fixed index set keeps it for the whole window and every
# kept coefficient curve crosses sigma = 1 smoothly (removals feed
# sigma-dependent corrections into the kept slot (0, 3, 2) below)
cp = CriticalPointSpec("z", Fraction(0), (Fraction(-4),))
lay = VariableLayout(n=2, s=1, m=2)
pert = WeightedPolynomial(lay, "floating", {(1, 2, 1): 0.3 + 0j,
                                            (0, 3, 0): 0.5 + 0j,
                                            (0, 1, 2): 0.4 + 0j})
fam = family_normal_form(cp, (0.9, 1.1), max_grade=5, grid_size=9, perturbation=pert)
print("sigma grid:", np.round(fam.sigma_grid, 3))
for idx in ((1, 2, 1), (0, 3, 2)):
    print(f"|c(sigma)| for {idx}:", np.round(np.abs(fam.curve(idx)), 5),
          " max first divided difference:",
          round(fam.divided_differences[idx]["max_first_dd"], 4))
