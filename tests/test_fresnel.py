"""oscverify._diagonal_erf, erf on the lines arg z = -+pi/4 (Cephes fresnl).

Against mpmath it is within 4 eps |erf| max(1, |t|): a few ulps of the
rational approximations, and above the split the one rounding of the phase
t*t, which is of order t^2 eps and scaled by the factor 1/(t sqrt(2 pi)).
scipy.special.erf, which the Filon moments used before, is imported here
only, as a cross-check.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erf as scipy_erf

from radialscope.oscverify import _FRESNEL_SPLIT, _diagonal_erf

EPS = np.finfo(float).eps
SPLIT = math.sqrt(_FRESNEL_SPLIT)
# small t, both sides of the branch split, and large |t| up to 10^4
POINTS = np.array(
    [0.0, 1e-300, 1e-12, 1e-6, 0.00785, 0.02, 0.1, 0.5, 1.0, 1.5, 2.0,
     np.nextafter(SPLIT, 0.0), SPLIT, np.nextafter(SPLIT, 3.0), 2.5, 3.0, 5.0, 8.0,
     12.0, 30.0, 88.0, 100.0, 613.7, 1000.0, 3210.5, 1e4])
POINTS = np.concatenate([POINTS, -POINTS[1:]])


def mp_erf(t, line):
    with mpmath.workdps(40):
        return complex(mpmath.erf(mpmath.expjpi(-0.25 * line) * mpmath.mpf(float(t))))


def assert_within(ours, ref, t, c):
    bound = c * EPS * np.abs(ref) * np.maximum(1.0, np.abs(t))
    assert np.all(np.abs(ours - ref) <= bound), np.max(np.abs(ours - ref) / bound)


@pytest.mark.parametrize("line", [1.0, -1.0])
def test_diagonal_erf_against_mpmath(line):
    ref = np.array([mp_erf(t, line) for t in POINTS])
    assert_within(_diagonal_erf(POINTS, line), ref, POINTS, 4.0)


@pytest.mark.parametrize("line", [1.0, -1.0])
def test_diagonal_erf_against_scipy(line):
    t = np.concatenate([np.linspace(-12.0, 12.0, 4001), np.geomspace(1e-8, 1e4, 2000)])
    ref = scipy_erf(np.exp(-0.25j * math.pi * line) * t)
    # scipy's complex erf is off by up to about 1e-13 relative near |t| = 0.01
    # (8.9e-14 at t = 0.00785 against mpmath, where ours is within 1.2e-16),
    # and its argument is off the line by the rounding of e^{-+i pi/4} t
    ours = _diagonal_erf(t, line)
    assert np.all(np.abs(ours - ref) <= 1e-12 * np.abs(ref) + 16 * EPS * np.abs(t))


def test_both_ends_in_one_call_take_the_line_per_column():
    # the Filon moments pass both ends stacked, one b (hence line) per column
    t = np.array([[0.3, 5.0, -40.0], [-2.5, 0.0, 1e3]])
    line = np.array([1.0, -1.0, -2.0])
    got = _diagonal_erf(t, line)
    for (i, j), v in np.ndenumerate(t):
        assert got[i, j] == _diagonal_erf(np.array([v]), line[j])[0]
        assert abs(got[i, j] - mp_erf(v, np.sign(line[j]))) <= 4 * EPS * max(1.0, abs(v))


finite_t = st.floats(-1e4, 1e4, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(finite_t)
def test_diagonal_erf_is_odd(t):
    t = np.array([t])
    assert _diagonal_erf(-t, 1.0) == -_diagonal_erf(t, 1.0)


@settings(max_examples=100, deadline=None)
@given(finite_t)
def test_diagonal_erf_is_conjugate_symmetric(t):
    # erf(conj z) = conj erf(z) maps one line onto the other
    ta = np.array([t])
    upper = _diagonal_erf(ta, -1.0)
    assert upper == np.conj(_diagonal_erf(ta, 1.0))
    assert_within(upper, mp_erf(t, -1.0), ta, 4.0)


def test_non_finite_arguments():
    got = _diagonal_erf(np.array([np.inf, -np.inf, np.nan]), np.array([1.0, -1.0, 1.0]))
    assert got[0] == 1.0 and got[1] == -1.0
    assert np.isnan(got[2])
