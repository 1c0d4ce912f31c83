"""Brute-force oracles for the resonance code, exact and floating.

The resonance code asks the point's weights: at an exact radial point
resonance.enumerate_resonances tests every monomial on their integer
forms, and resonance.second_index_set cuts J'' out with bounds on the
weights r_j = p_j / d, ints at an exact point and floats (d = 1) at a
floating one.  The Fraction oracles instead evaluate R / lam or the J''
value of every candidate in Fraction (or GaussianRational) arithmetic;
the float oracles test |R / lam| <= tol on every candidate directly, and
scan a wide J'' window in floats.  test_resonance compares the two.
near_resonances lists the near misses of a tolerance.  These live with
the tests because no stage of the program uses them.
"""

import itertools
import math
from fractions import Fraction

from radialscope.resonance import DEFAULT_FLOAT_TOL
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


def float_second_index_set(r_second, tol: float = DEFAULT_FLOAT_TOL) -> list:
    """J'' at a floating point, sorted, by a scan of a wide exponent window.

    Each alpha_j runs two past its bound 2 / r_j and each beta_j to 4
    (its bound is 3).  An alpha part whose value already passes 2.5 is
    skipped, since beta only adds.  The value s is summed in floats in
    block order, alpha_j r_j + beta_j (1 - r_j) per block, as
    second_index_set sums it; it is kept when 1 < s < 2 and it lies more
    than tol from both ends, where s = 1 is an I'' resonance at tol.
    """
    rs = list(r_second)
    out = []
    for av in itertools.product(*(range(int(2 / r) + 3) for r in rs)):
        if sum(a * r for a, r in zip(av, rs)) > 2.5:
            continue
        for bv in itertools.product(range(5), repeat=len(rs)):
            s = sum(a * r + b * (1 - r) for a, b, r in zip(av, bv, rs))
            if 1 < s < 2 and abs(s - 1) > tol and abs(s - 2) > tol:
                out.append((av, bv))
    return sorted(out)


def near_resonances(rp, max_degree: int, tol: float = DEFAULT_FLOAT_TOL) -> list:
    """Indices of weighted degree in [3, max_degree] with tol < |R / lam| <= 10 tol;
    none at an exact point, whose weights ignore tol."""
    w = rp.weights
    return [idx for idx in iter_monomials(rp.n - 1, max_degree, min_weighted_degree=3)
            if w.vanishes(idx, 10 * tol) and not w.vanishes(idx, tol)]


def float_resonant(idx, r_list, tol: float) -> bool:
    """|R / lam| <= tol at idx, evaluated in r_list's own arithmetic."""
    return abs(normalized_eigenvalue(idx, r_list)) <= tol


def float_resonances(r_list, max_degree: int, tol: float) -> list:
    """Every (a, alpha, beta) of weighted degree in [3, max_degree] with
    |R / lam| <= tol, in (degree, idx) order."""
    found = [idx for idx in iter_monomials(len(r_list), max_degree, min_weighted_degree=3)
             if float_resonant(idx, r_list, tol)]
    return sorted(found, key=lambda idx: (weighted_degree(idx), idx))
