"""The staged normal-form reduction on coefficient objects, as a test oracle.

normalform.reduce_to_normal_form holds an exact reduction as one numerator
form from the first stage to the last.  This is the loop it replaced: each
stage negates its grade part, divides every coefficient that is not
resonant by ModelQuadratic.eigenvalue as GaussianRational objects and
applies exp(ad_b) with bracket_oracle's Lie series.  test_normalform
compares the two.
"""

import bracket_oracle
from radialscope.resonance import EFF_NONRES, block_class, is_resonant
from radialscope.symalg import WeightedPolynomial, weighted_degree


def reduce_to_normal_form(p: WeightedPolynomial, rp, max_grade: int, keep=None) -> tuple:
    """(p_norm, generators, r_eff_r, r_eff_nr) of p at the exact point rp.

    A monomial is resonant when its R is 0, or, given keep, when keep has it.
    """
    model = rp.model_quadratic()
    current = p.truncate_grade(max_grade)
    generators = []
    for l in range(1, max_grade + 1):
        e = -current.grade_part(l)
        b = WeightedPolynomial(p.layout, p.mode, {
            key: coeff / model.eigenvalue(key) for key, coeff in e.items()
            if not (key in keep if keep is not None else model.eigenvalue(key) == 0)})
        generators.append(b)
        if not b.is_zero():
            current = bracket_oracle.ad_exponential(b, current, max_grade)
    eff_r, eff_nr = {}, {}
    for key, coeff in (current - model.p0()).items():
        if weighted_degree(key) >= 3:
            effective = is_resonant(key, rp) and block_class(key, rp.layout) != EFF_NONRES
            (eff_r if effective else eff_nr)[key] = coeff
    return (current, generators, WeightedPolynomial(p.layout, p.mode, eff_r),
            WeightedPolynomial(p.layout, p.mode, eff_nr))
