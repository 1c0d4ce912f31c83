"""
The weighted symbol algebra and its bracket
===========================================

Polynomials on the boundary contact space carry a grading in which nu has
weight 2 and the y, mu variables weight 1.  The rescaled bracket is grade
additive, and the quadratic model p0 acts diagonally on monomials.
"""

from fractions import Fraction

from radialscope import (ModelQuadratic, VariableLayout, WeightedPolynomial,
                         ad_exponential, bracket, eigen_action_table, grade_components)

lay = VariableLayout(n=2, s=1, m=2)
nu = WeightedPolynomial.nu(lay)
y = WeightedPolynomial.y(lay, 0)
mu = WeightedPolynomial.mu(lay, 0)

# the grading: nu sits at grade 0 (weight 2), y*mu too, nu*y^2*mu at grade 3
p = nu + y * y * mu * nu
print("grades of", p, "->", {l: str(c) for l, c in grade_components(p).items()})

# the model at eigenvalue ratio r = 1/4
model = ModelQuadratic(lam=Fraction(1), r_list=(Fraction(1, 4),), layout=lay)
p0 = model.p0()
print("p0 =", p0)

# monomials are eigenvectors: {{p0, y}} = lam(r - 1) y = -(3/4) y
print("{{p0, y}} =", bracket(p0, y))
print("{{p0, nu}} =", bracket(p0, nu), " (p0-multiples act trivially)")

# the eigenvalue table drives the homological solves downstream; a key
# (a, alpha_1, beta_1) has weighted degree 2a + alpha_1 + beta_1
table = eigen_action_table(model, lay, max_grade=2)
for key in sorted(table, key=lambda k: (k[0] + sum(k), k)):
    if table[key] == 0:
        print("resonant monomial (eigenvalue 0):", key)

# exponential of the bracket-derivation: the cubic is nonresonant and the
# time-1 flow of its generator removes it in one step
b = (y * y * y).scale(4)
print("exp(ad_b)(p0) =", ad_exponential(b, p0, max_grade=6), " with b = 4 y^3")
