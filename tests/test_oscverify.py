import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from radialscope.oscverify import (STATIONARY_PHASE_CONSTANT, NoStationaryPointError,
                                   QuadratureError, StationaryPhaseCase, _filon_integrate,
                                   gaussian_amplitude, locate_phase_peak,
                                   measure_phase_hessian, oscillatory_quadrature,
                                   psi_of_tau, stationary_phase_check)

AMP = gaussian_amplitude(1.0, 0.05)


def acceptance_case(x_list=(1e-2, 1e-3, 1e-4)):
    return StationaryPhaseCase(v0z=0.0, tau=0.5,
                               amplitude=gaussian_amplitude(1.0, 0.3, cut=3.0),
                               x_list=tuple(x_list))


def test_zero_phase_reduces_to_plain_integral():
    val = oscillatory_quadrature(AMP, lambda s: 0.0, 1.0, *AMP.support)
    assert val.imag == pytest.approx(0.0, abs=1e-14)
    assert val.real == pytest.approx(0.05 * math.sqrt(2 * math.pi), rel=1e-10)


def test_gaussian_fourier_transform_closed_form():
    w, omega, x = 0.05, 0.3, 0.01
    val = oscillatory_quadrature(AMP, lambda s: omega * s, x, *AMP.support)
    expect = w * math.sqrt(2 * math.pi) * cmath.exp(1j * omega / x) \
        * math.exp(-(w * omega / x) ** 2 / 2.0)
    assert abs(val - expect) < 1e-8


def test_no_stationary_point_rapid_decay():
    # phase strictly monotone on the support: |I| = O(x^N)
    phase = lambda s: -2.0 * s + math.sqrt(s)   # critical at s = 1/16, outside supp
    vals = []
    for x in (1e-2, 5e-3, 2.5e-3):
        vals.append(abs(oscillatory_quadrature(AMP, phase, x, *AMP.support)))
    # fit |I| ~ x^N: slope should be large (here limited by N=3 check)
    slope = np.polyfit(np.log([1e-2, 5e-3, 2.5e-3]), np.log(vals), 1)[0]
    assert slope > 3.0


def test_filon_agrees_with_gauss_kronrod():
    case = acceptance_case()
    lo, hi = case.support()
    for x in (3e-4, 1.5e-4):
        gk = oscillatory_quadrature(case.amplitude, case.phase, x, lo, hi,
                                    filon_threshold=1e-6)    # force GK
        fi, _ = _filon_integrate(case.amplitude, case.phase, x, lo, hi, 1e-13)
        assert abs(gk - fi) < 1e-10 * max(abs(gk), 1e-3)


def test_energy_equation_peak():
    for tau in (0.3, 0.4, 0.5, 0.7, 1.0):
        case = StationaryPhaseCase(v0z=0.25, tau=tau,
                                   amplitude=gaussian_amplitude(0.25 + 1 / (4 * tau ** 2),
                                                                0.02),
                                   x_list=(1e-3,))
        peak = locate_phase_peak(case)
        assert abs(peak - case.sigma_c) <= 1e-6


def test_phase_hessian_identity_numeric():
    case = acceptance_case()
    x = 1e-3
    measured = measure_phase_hessian(case, x)
    expected = -2.0 * case.tau ** 3 / x
    assert abs(measured - expected) / abs(expected) <= 1e-6


def test_phase_hessian_identity_exact_rationals():
    # (1/4)(sigma_c - V0)^{-3/2} = 2 tau^3 given sigma_c - V0 = 1/(4 tau^2)
    for tau in (Fraction(1, 2), Fraction(2, 3), Fraction(3), Fraction(7, 5)):
        w = 1 / (4 * tau ** 2)
        # (w)^{3/2} = w * sqrt(w); sqrt(w) = 1/(2 tau) exactly
        sqrt_w = 1 / (2 * tau)
        lhs = Fraction(1, 4) / (w * sqrt_w)
        assert lhs == 2 * tau ** 3


def test_envelope_property():
    # d Psi / d tau = -sigma_c(tau)
    for tau in (0.4, 0.5, 0.8):
        h = 1e-6
        d = (psi_of_tau(0.0, tau + h) - psi_of_tau(0.0, tau - h)) / (2 * h)
        sigma_c = 1.0 / (4 * tau * tau)
        assert abs(d + sigma_c) <= 1e-8


def test_stationary_phase_constant():
    assert abs(STATIONARY_PHASE_CONSTANT) == pytest.approx(1 / (2 * math.sqrt(math.pi)))
    assert cmath.phase(STATIONARY_PHASE_CONSTANT) == pytest.approx(-3 * math.pi / 4)


def test_prefactor_limit_and_rate():
    case = acceptance_case(x_list=tuple(10 ** e for e in
                                        (-2, -2.5, -3, -3.5, -4)))
    res = stationary_phase_check(case)
    assert abs(res.peak_sigma - 1.0) <= 1e-6
    by_x = {round(math.log10(r["x"]), 3): r for r in res.rows}
    cmod = abs(STATIONARY_PHASE_CONSTANT)
    cph = cmath.phase(STATIONARY_PHASE_CONSTANT)
    r3 = by_x[-3.0]
    assert abs(r3["prefactorMod"] - cmod) <= 0.05 * cmod
    assert abs(r3["prefactorPhase"] - cph) <= 0.05
    # deviation decreasing in x
    devs = [abs(r["prefactor"] - STATIONARY_PHASE_CONSTANT) for r in res.rows]
    assert all(a > b for a, b in zip(devs, devs[1:]))
    assert 0.8 <= res.convergence_exponent <= 1.2


def test_sigma_c_outside_support_raises():
    case = StationaryPhaseCase(v0z=0.0, tau=0.1,     # sigma_c = 25
                               amplitude=gaussian_amplitude(1.0, 0.05),
                               x_list=(1e-3,))
    with pytest.raises(NoStationaryPointError):
        stationary_phase_check(case)


def test_sp_result_csv():
    case = acceptance_case(x_list=(1e-2, 1e-3, 1e-4))
    res = stationary_phase_check(case)
    rows = res.to_csv_rows()
    assert rows[0][0] == "x" and len(rows) == 4


def test_quadrature_error_budget_exceeded():
    from radialscope.oscverify import QuadratureError
    with pytest.raises(QuadratureError):
        oscillatory_quadrature(AMP, lambda s: (s - 1.0) ** 2, 1e-3,
                               *AMP.support, rel_tol=1e-30)


def test_prefactor_convergence_continues_into_filon_regime():
    case = acceptance_case(x_list=(1e-4, 5e-5, 3e-5))   # below 1e-4: Filon rule
    res = stationary_phase_check(case)
    cmod = abs(STATIONARY_PHASE_CONSTANT)
    cph = cmath.phase(STATIONARY_PHASE_CONSTANT)
    devs = [abs(r["prefactor"] - STATIONARY_PHASE_CONSTANT) for r in res.rows]
    assert all(a > b for a, b in zip(devs, devs[1:]))
    last = res.rows[-1]
    assert abs(last["prefactorMod"] - cmod) < 1e-6
    assert abs(last["prefactorPhase"] - cph) < 1e-3


def test_against_mpmath_high_precision_oracle():
    # independent oracle: 30-digit tanh-sinh quadrature of the same integrand
    import mpmath as mp

    mp.mp.dps = 30
    amp = gaussian_amplitude(1.0, 0.3, cut=3.0)
    lo, hi = amp.support
    tau, x = 0.5, 1e-3

    def f(s):
        s = float(s)
        return mp.mpc(amp(s) * cmath.exp(1j * (-tau * s + math.sqrt(s)) / x))

    pts = [lo + (hi - lo) * k / 80 for k in range(81)]
    oracle = complex(mp.quad(f, pts, maxdegree=8))
    ours = oscillatory_quadrature(amp, lambda s: -tau * s + math.sqrt(s), x, lo, hi)
    assert abs(oracle - ours) < 1e-12


def test_filon_unconverged_is_a_quadrature_error(monkeypatch):
    # panels whose composite sum never settles: after the last doubling the
    # estimate is that halving's difference, not 0, and must fail the budget
    monkeypatch.setattr("radialscope.oscverify._filon_panel",
                        lambda f, phi, x, u, v: math.sqrt(v - u))
    lo, hi = AMP.support
    val, err = _filon_integrate(AMP, lambda s: 0.0, 1e-5, lo, hi, 1e-8)
    assert err == pytest.approx(val * (1.0 - math.sqrt(0.5)))
    with pytest.raises(QuadratureError):
        oscillatory_quadrature(AMP, lambda s: 0.0, 1e-5, lo, hi)


def test_filon_nan_is_a_quadrature_error():
    with pytest.raises(QuadratureError), np.errstate(invalid="ignore"):
        oscillatory_quadrature(AMP, lambda s: math.nan, 1e-5, *AMP.support)
