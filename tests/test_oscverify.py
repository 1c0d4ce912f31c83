import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from radialscope import oscverify
from radialscope.oscverify import (STATIONARY_PHASE_CONSTANT, NoStationaryPointError,
                                   QuadratureError, StationaryPhaseCase,
                                   gaussian_amplitude, locate_phase_peak,
                                   measure_phase_hessian, oscillatory_quadrature,
                                   psi_of_tau, quadratic_phase_filon,
                                   stationary_phase_check, _linear_moments,
                                   _quadratic_moments)

AMP = gaussian_amplitude(1.0, 0.05)


def acceptance_case(x_list=(1e-2, 1e-3, 1e-4)):
    return StationaryPhaseCase(v0z=0.0, tau=0.5,
                               amplitude=gaussian_amplitude(1.0, 0.3, cut=3.0),
                               x_list=tuple(x_list))


def filon_integral(case, x, tol=1e-13, **kwargs):
    """integral a(sigma) e^{i phi(sigma)/x} d sigma by the Filon rule in u, and its panels."""
    vals, panels = quadratic_phase_filon(case.u_amplitude, np.array([-case.tau / x]),
                                         0.5 / case.tau, *case.u_support(), tol, **kwargs)
    return complex(vals[0]) * cmath.exp(1j * case.psi / x), int(panels[0])


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
    # the Filon rule in u against Gauss-Kronrod in sigma
    case = acceptance_case()
    lo, hi = case.support()
    for x in (1e-2, 1e-3, 3e-4, 1.5e-4):
        gk = oscillatory_quadrature(case.amplitude, case.phase, x, lo, hi)
        fi, _ = filon_integral(case, x)
        assert abs(gk - fi) < 1e-10 * max(abs(gk), 1e-3)


def test_check_integrals_agree_with_gauss_kronrod_relative():
    # the check's tolerance is absolute (1e-10 of max|a| times the support), yet
    # its integrals match Gauss-Kronrod to 1e-10 relative, also on a support
    # clipped at V0 (tau = 0.6), where one agreement of two passes was not enough
    for tau in (0.5, 0.6):
        case = StationaryPhaseCase(v0z=0.0, tau=tau,
                                   amplitude=gaussian_amplitude(0.25 / tau ** 2, 0.3, cut=3.0),
                                   x_list=(1e-3, 1e-4))
        lo, hi = case.support()
        for row in stationary_phase_check(case).rows:
            gk = oscillatory_quadrature(case.amplitude, case.phase, row["x"], lo, hi) / (2j * math.pi)
            assert abs(row["integral"] - gk) <= 1e-10 * abs(gk)


def test_filon_against_mpmath_oracle():
    # the u-integrand 2u a(u^2) e^{-i tau (u - 1/(2 tau))^2 / x} is smooth:
    # 30-digit tanh-sinh quadrature of it is an independent oracle
    import mpmath as mp

    mp.mp.dps = 30
    case, x = acceptance_case(), 1e-3
    lo, hi = case.u_support()
    beta, u0 = -case.tau / x, 0.5 / case.tau

    def f(u):
        s = float(u)
        return 2.0 * s * case.amplitude(s * s) * mp.expj(beta * (u - u0) ** 2)

    oracle = complex(mp.quad(f, mp.linspace(lo, hi, 41), maxdegree=6))
    (ours, mirror), _ = quadratic_phase_filon(case.u_amplitude, np.array([beta, -beta]),
                                              u0, lo, hi, 1e-13)
    assert abs(oracle - ours) < 1e-12
    assert abs(mirror - oracle.conjugate()) < 1e-12


MOMENT_BS = [1e-9, -0.3, 1.0, -1.01, 5.0, -40.0, 600.0]
S_STAR = np.array([0.0, 0.4, 1.0, 1.99, 2.01, 3.0, 12.0, 40.0])


def assert_moments_match_gauss_legendre(mu, a, b):
    t, w = np.polynomial.legendre.leggauss(40)
    for row, ai, bi in zip(mu, a, np.broadcast_to(b, a.shape)):
        edges = np.linspace(-1.0, 1.0, int(abs(ai) + 2 * abs(bi)) // 8 + 5)
        s = (0.5 * (edges[1:] + edges[:-1])[:, None] + 0.5 * np.diff(edges)[:, None] * t).ravel()
        ws = (0.5 * np.diff(edges)[:, None] * w).ravel() * np.exp(1j * (ai * s + bi * s * s))
        ref = np.array([np.sum(ws * s ** j) for j in range(len(row))])
        assert np.max(np.abs(row - ref)) < 1e-12


@pytest.mark.parametrize("b", MOMENT_BS)
def test_quadratic_moments_against_gauss_legendre(b):
    # every branch: chirp series (|b| <= 1), forward recurrence near the
    # stationary point, backward sweep far from it
    a = -2.0 * b * S_STAR if abs(b) > 1e-3 else 3.0 * S_STAR
    assert_moments_match_gauss_legendre(_quadratic_moments(a, b), a, b)


def test_quadratic_moments_rows_with_several_b():
    # one call whose rows carry every b above, series and erf branches mixed,
    # with the rows shuffled so that neither branch is a contiguous block
    b = np.repeat(MOMENT_BS, S_STAR.size)
    a = np.where(np.abs(b) > 1e-3, -2.0 * b * np.tile(S_STAR, len(MOMENT_BS)),
                 3.0 * np.tile(S_STAR, len(MOMENT_BS)))
    order = np.random.default_rng(5).permutation(b.size)
    assert_moments_match_gauss_legendre(_quadratic_moments(a[order], b[order]),
                                        a[order], b[order])


def fixed_start_linear_moments(a, kmax):
    """_linear_moments with its backward sweep started at kmax + 60 for every row."""
    ea, ema = np.exp(1j * a), np.exp(-1j * a)
    ends = (ea - ema, ea + ema)
    ia = 1j * np.where(np.abs(a) < 1.0, 1.0, a)
    fwd = np.empty((a.size, kmax + 1), dtype=complex)
    bwd = np.empty_like(fwd)
    fwd[:, 0] = ends[0] / ia
    for k in range(1, kmax + 1):
        fwd[:, k] = (ends[k % 2] - k * fwd[:, k - 1]) / ia
    back = np.zeros(a.size, dtype=complex)
    for k in range(kmax + 60, 0, -1):
        back = (ends[k % 2] - 1j * a * back) / k
        if k <= kmax + 1:
            bwd[:, k - 1] = back
    return np.where(np.arange(1, kmax + 2) > np.abs(a)[:, None], bwd, fwd)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-150.0, 150.0), min_size=1, max_size=12), st.integers(7, 47))
def test_linear_moments_shorter_start_matches_fixed_start(a, kmax):
    # the backward sweep starts where its start error is damped below 2^-64
    a = np.array(a)
    ours, ref = _linear_moments(a, kmax), fixed_start_linear_moments(a, kmax)
    scale = np.spacing(np.max(np.abs(ref), axis=0))
    assert np.all(np.abs(ours - ref) <= 4 * scale)


def test_batched_check_equals_one_x_checks(monkeypatch):
    # one batched pass sequence for the whole x list gives every x the floats
    # of a check of its own; each moments call stays within the row cap
    rows_seen = []

    def spy(a, b):
        rows_seen.append(a.size)
        return _quadratic_moments(a, b)

    monkeypatch.setattr(oscverify, "_quadratic_moments", spy)
    xs = (1e-2, 10 ** -2.5, 1e-3, 10 ** -3.5, 1e-4, 5e-5, 3e-5)
    for tau in (0.5, 0.6):      # 0.6 clips the support at V0(z) = 0
        amp = gaussian_amplitude(0.25 / tau ** 2, 0.3, cut=3.0)
        batched = stationary_phase_check(StationaryPhaseCase(v0z=0.0, tau=tau, amplitude=amp,
                                                             x_list=xs))
        for row in batched.rows:
            alone = stationary_phase_check(StationaryPhaseCase(
                v0z=0.0, tau=tau, amplitude=amp, x_list=(row["x"],))).rows[0]
            for key in ("x", "integral", "panels", "prefactorMod", "prefactorPhase"):
                assert row[key] == alone[key]
    assert max(rows_seen) == oscverify._MAX_ROWS


def test_filon_panels_do_not_grow_as_x_shrinks():
    res = stationary_phase_check(acceptance_case(x_list=(1e-3, 1e-6)))
    panels = {r["x"]: r["panels"] for r in res.rows}
    assert panels[1e-6] <= 4 * panels[1e-3]
    assert abs(res.rows[-1]["prefactorMod"] - abs(STATIONARY_PHASE_CONSTANT)) < 1e-6


def test_filon_panels_same_for_affine_equivalent_cases():
    # sigma = V0 + s v maps the (tau, width) = (0.5, 0.3) problem at x to the one
    # at tau / sqrt(s), width * s, x * sqrt(s): the same quadrature in u, scaled
    counts = set()
    for v0z, s in ((0.0, 1.0), (0.3, 1.1), (-0.7, 0.85), (0.41, 1.23)):
        tau = 0.5 / math.sqrt(s)
        case = StationaryPhaseCase(
            v0z=v0z, tau=tau,
            amplitude=gaussian_amplitude(v0z + 1 / (4 * tau * tau), 0.3 * s, cut=3.0),
            x_list=(2.5e-5 * math.sqrt(s),))
        counts.add(stationary_phase_check(case).rows[0]["panels"])
    assert len(counts) == 1


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
    case = acceptance_case(x_list=(1e-4, 5e-5, 3e-5))
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


def test_filon_unconverged_is_a_quadrature_error():
    # passes that have not agreed twice when the panel budget runs out fail
    case = acceptance_case()
    with pytest.raises(QuadratureError, match="within 32 panels"):
        filon_integral(case, 1e-3, max_panels=32)
    val, panels = filon_integral(case, 1e-3)
    assert panels > 32 and math.isfinite(abs(val))


def test_filon_nan_is_a_quadrature_error():
    with pytest.raises(QuadratureError, match="with 8 panels is not finite"):
        quadratic_phase_filon(lambda u: np.full(u.shape, np.nan), np.array([-500.0]),
                              1.0, 0.3, 1.4, 1e-10)


def test_gaussian_amplitude_array_matches_scalar():
    center, width, cut = 1.0, 0.3, 3.0
    amp = gaussian_amplitude(center, width, cut=cut)
    lo, hi = amp.support
    band = [center + sign * k * width for sign in (-1, 1) for k in (cut - 2.0, cut)]
    sigma = np.concatenate([np.linspace(lo - 0.2, hi + 0.2, 1995), [lo, hi, center], band])
    assert sigma.size == 2002
    vec = amp(sigma)
    ref = np.array([amp(float(s)) for s in sigma])
    zero = ref == 0.0
    assert zero.any() and (~zero).any()
    assert np.all(vec[zero] == 0.0)
    assert np.all(np.abs(vec[~zero] - ref[~zero]) <= 2 * np.spacing(ref[~zero]))
