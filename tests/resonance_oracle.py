"""Brute-force oracles for the resonance code, exact and floating.

At an exact radial point, resonance.enumerate_resonances tests every
monomial on the integer forms of the point's weights, and
resonance.second_index_set cuts J'' out with integer bounds.  The
Fraction oracles instead evaluate R / lam or the J'' value of every
candidate in Fraction (or GaussianRational) arithmetic.  At a floating
point the resonance code asks the point's weights; the float oracle
tests |R / lam| <= tol on every candidate directly.  test_resonance
compares the two.  The oracles live with the tests because no stage of
the program uses them.
"""

import itertools
import math
from fractions import Fraction

from radialscope.symalg import iter_monomials, normalized_eigenvalue, weighted_degree


def brute_force_resonances(r_list, max_degree: int) -> list:
    """Every (a, alpha, beta) of weighted degree in [3, max_degree] with
    R / lam exactly 0, in (degree, idx) order: the scan of every monomial."""
    found = [idx for idx in iter_monomials(len(r_list), max_degree, min_weighted_degree=3)
             if normalized_eigenvalue(idx, r_list) == 0]
    return sorted(found, key=lambda idx: (weighted_degree(idx), idx))


def brute_force_second_index_set(r_second) -> list:
    """J'' = {(alpha'', beta''): 1 < sum r_j alpha_j + (1 - r_j) beta_j < 2},
    sorted, for exact 0 < r_j < 1/2.

    Each exponent is bounded on its own: alpha_j r_j < 2 and
    beta_j (1 - r_j) < 2 with 1 - r_j > 1/2, so beta_j <= 3.
    """
    rs = [Fraction(r) for r in r_second]
    alpha_ranges = [range(math.ceil(2 / r)) for r in rs]
    out = []
    for av in itertools.product(*alpha_ranges):
        for bv in itertools.product(range(4), repeat=len(rs)):
            val = sum(a * r + b * (1 - r) for a, b, r in zip(av, bv, rs))
            if 1 < val < 2:
                out.append((av, bv))
    return sorted(out)


def float_resonant(idx, r_list, tol: float) -> bool:
    """|R / lam| <= tol at idx, evaluated in r_list's own arithmetic."""
    return abs(normalized_eigenvalue(idx, r_list)) <= tol


def float_resonances(r_list, max_degree: int, tol: float) -> list:
    """Every (a, alpha, beta) of weighted degree in [3, max_degree] with
    |R / lam| <= tol, in (degree, idx) order."""
    found = [idx for idx in iter_monomials(len(r_list), max_degree, min_weighted_degree=3)
             if float_resonant(idx, r_list, tol)]
    return sorted(found, key=lambda idx: (weighted_degree(idx), idx))
