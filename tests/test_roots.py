"""radialscope.roots.brentq against scipy.optimize.brentq, which it ports:
equal floats (==) on random brackets and at the package's three call
sites, and the same exception types on the three failures."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq as scipy_brentq

from radialscope import dynamics, oscverify, resonance
from radialscope.dynamics import PotentialModel, _critical_angles
from radialscope.oscverify import StationaryPhaseCase, gaussian_amplitude, locate_phase_peak
from radialscope.radial import CriticalPointSpec
from radialscope.resonance import scan_effectively_resonant_energies
from radialscope.roots import brentq

coefficients = st.floats(-1.0, 1.0, allow_nan=False)


def trigonometric(c):
    """x -> c0 + sum_k c_{2k-1} cos(k x) + c_{2k} sin(k x)."""
    def f(x):
        v = c[0]
        for k in range(1, (len(c) + 1) // 2):
            v += c[2 * k - 1] * math.cos(k * x) + c[2 * k] * math.sin(k * x)
        return v
    return f


@settings(max_examples=300, deadline=None)
# subnormal values, where C's division by zero gives inf or NaN and Python raises
@example([0.0, 0.0, 2.4112082994801082e-304], 0.0, 1.0, -10.0)
@given(st.lists(coefficients, min_size=3, max_size=11), st.floats(-4.0, 4.0),
       st.floats(1e-3, 4.0), st.floats(-14.0, -10.0))
def test_brentq_equals_scipy_on_trigonometric_brackets(c, a, width, log_xtol):
    b, xtol, raw = a + width, 10.0 ** log_xtol, trigonometric(c)
    f = trigonometric([c[0] - (raw(a) + raw(b)) / 2.0] + c[1:])    # f(a) = -f(b)

    def outcome(finder):    # the root, or the error type
        try:
            return finder(f, a, b, xtol=xtol)
        except (ValueError, RuntimeError) as exc:
            return type(exc)
    assert outcome(brentq) == outcome(scipy_brentq)


def checked(monkeypatch, module):
    """Route module.brentq through both finders, asserting equal roots."""
    calls = []

    def both(f, a, b, **kw):
        got = brentq(f, a, b, **kw)
        assert got == scipy_brentq(f, a, b, **kw)
        calls.append((a, b))
        return got
    monkeypatch.setattr(module, "brentq", both)
    return calls


def test_brentq_equals_scipy_at_the_call_sites(monkeypatch):
    scan = checked(monkeypatch, resonance)
    cp = CriticalPointSpec("z", Fraction(0), (Fraction(-12), Fraction(-4), Fraction(1, 3)))
    scan_effectively_resonant_energies(cp, (0.5, 4.0), grid_points=2000)

    angles = checked(monkeypatch, dynamics)
    _critical_angles(PotentialModel(n=2, v0_coeffs=[(2, 1.0, 0.0), (3, 0.03, -0.02)]))

    peak = checked(monkeypatch, oscverify)
    case = StationaryPhaseCase(v0z=0.25, tau=0.5,
                               amplitude=gaussian_amplitude(1.25, 0.3), x_list=(1e-3,))
    locate_phase_peak(case)
    assert scan and angles and peak


@pytest.mark.parametrize("f, a, b, kw, error", [
    (lambda x: x * x + 1.0, -1.0, 1.0, {}, ValueError),                    # same sign
    (lambda x: math.nan if x > 0.5 else x - 0.3, 0.0, 1.0, {}, ValueError),  # NaN
    (lambda x: x ** 3 - 0.2, -1.0, 3.0, {"maxiter": 3}, RuntimeError),     # budget spent
])
def test_brentq_errors_as_scipy(f, a, b, kw, error):
    with pytest.raises(error):
        scipy_brentq(f, a, b, **kw)
    with pytest.raises(error):
        brentq(f, a, b, **kw)
