"""The bracket and the Lie series on coefficient objects, as a test oracle.

symalg.bracket and symalg.ad_exponential run exact coefficients as int
numerators over one denominator per polynomial.  These are the loops they
replaced: the same closed form of the symalg module docstring, computed on
the stored coefficients themselves (GaussianRational products and sums in
exact mode, complex in floating mode), with 1/k applied as a scale of each
series term.  test_bracket_kernel compares the two.
"""

import math
from fractions import Fraction
from operator import add

from radialscope.symalg import WeightedPolynomial, weighted_degree


def bracket(a: WeightedPolynomial, b: WeightedPolynomial,
            max_grade: int | None = None) -> WeightedPolynomial:
    """The rescaled Poisson bracket {{a, b}}, monomial pair by monomial pair.

    Uses the closed form of the symalg docstring on flat keys.  Pairs whose
    grades sum above `max_grade` are skipped, which equals truncating the
    full bracket.  Antisymmetric and grade-additive: for homogeneous inputs
    the result is homogeneous of grade(a) + grade(b).
    """
    a._check_compatible(b)
    limit = math.inf if max_grade is None else max_grade
    m, width = a.layout.nvars, a.poly.nvars
    # per pair (y_j, mu_j): both flat positions and the offsets lowering each by one
    pairs = [(1 + j, 1 + m + j, tuple(-1 if i in (1 + j, 1 + m + j) else 0 for i in range(width)))
             for j in range(m)]
    bterms = [(k2, k2[0], sum(k2[m + 1:]), weighted_degree(k2) - 2, c2)
              for k2, c2 in b.poly.terms.items()]
    out: dict[tuple, object] = {}
    for k1, c1 in a.poly.terms.items():
        a1 = k1[0]
        g1 = weighted_degree(k1) - 2
        nb1 = sum(k1[m + 1:])
        for k2, a2, nb2, g2, c2 in bterms:
            if g1 + g2 > limit:
                continue
            c = c1 * c2
            ab = tuple(map(add, k1, k2))
            k = a1 * (1 - nb2) + a2 * (nb1 - 1)
            if k:
                key = (ab[0] - 1,) + ab[1:]
                cur = out.get(key)
                out[key] = c * k if cur is None else cur + c * k
            for iy, imu, lower in pairs:
                mm = k1[imu] * k2[iy] - k1[iy] * k2[imu]
                if mm:
                    key = tuple(map(add, ab, lower))
                    cur = out.get(key)
                    out[key] = c * mm if cur is None else cur + c * mm
    return a._from_terms({key: c for key, c in out.items() if c})


def ad_exponential(b: WeightedPolynomial, p: WeightedPolynomial, max_grade: int) -> WeightedPolynomial:
    """sum_k (1/k!) ad_b^k(p), truncated beyond max_grade, on the oracle's bracket."""
    result = term = p.truncate_grade(max_grade)
    k = 0
    while not b.is_zero() and not term.is_zero():
        k += 1
        term = bracket(term, b, max_grade).scale(Fraction(1, k))
        result = result + term
    return result
