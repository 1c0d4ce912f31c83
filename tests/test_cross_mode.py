"""Exact mode checks floating mode.

Every exact spectrum has a floating twin: the same lam and r_j as floats,
built through the same Hessian data, so the twin's r_j come back from the
square-root formula within a few ulps.  Both modes run the same code on
different weights (symalg.point_weights), so the exact results are an
oracle for the floating ones with no reference code of their own.

Resonance and J'' are compared here.  The floating J'' drops every
candidate within the resonance tolerance of the boundary sums 1 and 2,
where the exact sum is 1 or 2 and the twin's lands an ulp to either
side, so both sets agree.  The normal-form supports are not compared:
they disagree by design until the floating normal form chops relative to
scale, which brings their comparison with it.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from radialscope.radial import radial_point_from_spectrum
from radialscope.resonance import enumerate_resonances, second_index_set
from radialscope.symalg import EXACT, FLOATING

MAX_DEGREE = 7
# y' ratios (r < 0) and y'' ratios (0 < r < 1/2) with small denominators,
# so that sums like 3 * (1/3) - 1 land on resonances
R_POOL = [Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(-1, 3), Fraction(-3, 2),
          Fraction(1, 6), Fraction(1, 5), Fraction(1, 4), Fraction(1, 3), Fraction(2, 5)]


@st.composite
def exact_spectra(draw):
    rs = sorted(draw(st.lists(st.sampled_from(R_POOL), min_size=1, max_size=3)))
    lam = draw(st.sampled_from([Fraction(1), Fraction(-2), Fraction(3, 2)]))
    return lam, tuple(rs)


def resonance_list(rp):
    return [(rec.idx, rec.klass) for rec in enumerate_resonances(rp, MAX_DEGREE)]


@settings(max_examples=100, deadline=None)
@given(exact_spectra())
def test_resonances_agree_with_the_floating_twin(spectrum):
    lam, rs = spectrum
    exact = radial_point_from_spectrum(lam, rs)
    twin = radial_point_from_spectrum(float(lam), tuple(float(r) for r in rs))
    assert (exact.mode, twin.mode) == (EXACT, FLOATING)
    assert resonance_list(exact) == resonance_list(twin)
    assert second_index_set(exact) == second_index_set(twin)
