import math
import random
from fractions import Fraction

import numpy as np
import pytest

from radialscope.expansion import (DegenerateOscillatorError, InvalidInputError,
                                   OscillatorSpec, eff_r_polynomials, exponent_data,
                                   expansion_template, log_variable_recursion,
                                   oscillator_spectrum)
from radialscope.multipoly import MultiPoly
from radialscope.radial import radial_point_from_spectrum
from radialscope.symalg import WeightedPolynomial

from oscillator_oracle import oscillator_spectrum_grid


def test_oscillator_closed_form_examples():
    spec = OscillatorSpec(1.0, 0.0, 1.0)          # Q = D^2 + Y^2, q~ = -1/4
    kappas = oscillator_spectrum(spec, 5)
    base = math.sqrt(15) / 4
    assert kappas == pytest.approx(tuple((2 * k + 1) * base for k in range(6)))

    spec2 = OscillatorSpec(1.0, 0.25, 1.0)        # cross term cancels the shift
    assert oscillator_spectrum(spec2, 3) == pytest.approx((1.0, 3.0, 5.0, 7.0))


def test_oscillator_degenerate_boundary():
    spec = OscillatorSpec(1.0, 0.0, 1.0 / 16.0)   # pc = q~^2 exactly
    with pytest.raises(DegenerateOscillatorError):
        oscillator_spectrum(spec, 1)
    with pytest.raises(InvalidInputError):
        OscillatorSpec(1.0, 1.0, 0.5)             # not elliptic


def test_oscillator_kappas_must_be_finite():
    with pytest.raises(OverflowError, match="not finite"):
        oscillator_spectrum(OscillatorSpec(1e200, 0.1, 1e200), 2)   # pc overflows to inf
    base = math.sqrt(1e300)
    assert oscillator_spectrum(OscillatorSpec(1e150, 0.25, 1e150), 2) == (base, 3 * base,
                                                                          5 * base)


def test_oscillator_grid_oracle_agrees():
    for spec in (OscillatorSpec(1.0, 0.0, 1.0), OscillatorSpec(1.0, 0.25, 1.0),
                 OscillatorSpec(0.7, -0.2, 1.4)):
        closed = np.array(oscillator_spectrum(spec, 5))
        grid = oscillator_spectrum_grid(spec, 5)
        assert np.max(np.abs(closed - grid)) < 1e-6


def test_exponent_data_source_sink():
    rp = radial_point_from_spectrum(Fraction(1), (Fraction(1, 4),))
    ed = exponent_data(rp, re_b=0.0, k_max=2, max_beta_prime=2)
    assert ed.classification == "sourceSink"
    assert ed.B == Fraction(3, 8)                 # (n-1)/2 - r''/2 with n = m = 2
    assert ed.d == 0
    assert ed.b_tilde == complex(0.0, 0.375)
    assert ed.kappas == (0.0,)                    # no y''' block
    assert ed.a_beta[()] == pytest.approx(-1j * ed.b_tilde)


def test_exponent_data_saddle():
    rp = radial_point_from_spectrum(Fraction(1), (Fraction(-1),))
    ed = exponent_data(rp, re_b=0.0, k_max=1, max_beta_prime=2)
    assert ed.classification == "saddle"
    assert ed.d == Fraction(1, 2)                 # -(1/2) sum r'
    assert ed.b_tilde.imag == pytest.approx(float(ed.B + ed.d))
    # a_{beta'} = -sum r' beta' - i b~; with Im b~ = 1: a_0 = 1, a_(1) = 2, a_(2) = 3
    assert ed.a_beta[(0,)] == pytest.approx(1.0 + 0.0j)
    assert ed.a_beta[(1,)] == pytest.approx(2.0 + 0.0j)
    assert ed.a_beta[(2,)] == pytest.approx(3.0 + 0.0j)


def test_exponent_invariants():
    rng = random.Random(4)
    for _ in range(8):
        # a saddle with two y' directions and one y''
        r1 = Fraction(-rng.randint(2, 5), rng.randint(1, 2))
        r2 = Fraction(-rng.randint(1, 3), rng.randint(1, 3))
        r3 = Fraction(1, rng.randint(3, 7))
        rp = radial_point_from_spectrum(Fraction(1), tuple(sorted((r1, r2))) + (r3,))
        ed = exponent_data(rp, re_b=0.7, k_max=1, max_beta_prime=2)
        re_b_tilde = ed.b_tilde.real
        ims = {bp: a.imag for bp, a in ed.a_beta.items()}
        assert all(abs(v + re_b_tilde) < 1e-12 for v in ims.values())
        for bp, a in ed.a_beta.items():
            expected = sum(abs(float(rp.r_list[j])) * e for j, e in enumerate(bp)) \
                + ed.b_tilde.imag
            assert a.real == pytest.approx(expected)
        assert float(ed.d) > 0


def test_exponent_data_requires_oscillator_for_third_block():
    rp = radial_point_from_spectrum(-2.0, (complex(0.5, 0.5),))
    with pytest.raises(InvalidInputError):
        exponent_data(rp, k_max=2, max_beta_prime=0)
    ed = exponent_data(rp, k_max=2, max_beta_prime=0,
                       oscillator_specs={0: OscillatorSpec(1.0, 0.0, 1.0)})
    base = math.sqrt(15) / 4
    assert ed.kappas == pytest.approx(tuple((2 * k + 1) * base for k in range(3)))


def test_log_recursion_worked_case():
    rp = radial_point_from_spectrum(Fraction(-2), (Fraction(1, 5), Fraction(2, 5)))
    lvs = log_variable_recursion(rp, p_polys={1: MultiPoly(2, {(2, 0): Fraction(3)})})
    # Psharp_2 = 3 Y_1^2 t: ring variables (Y_1, Y_2, t)
    assert lvs.sec_psharp[1] == MultiPoly(3, {(2, 0, 1): Fraction(3)})
    assert all(lvs.certificate.values())
    assert lvs.max_log_power() == 1


def test_log_recursion_zero_case():
    rp = radial_point_from_spectrum(Fraction(-2), (Fraction(1, 5), Fraction(2, 5)))
    lvs = log_variable_recursion(rp, p_polys={})
    assert not lvs.sec_psharp and all(lvs.certificate.values()) and lvs.max_log_power() == 0


def test_log_recursion_integrating_factor():
    rp = radial_point_from_spectrum(Fraction(-2), (Fraction(1, 3),))
    lvs = log_variable_recursion(rp, p_polys={},
                                 p0_poly=MultiPoly(1, {(3,): Fraction(5)}))
    assert lvs.psharp0 == MultiPoly(2, {(3, 1): Fraction(5)})   # 5 Y^3 t
    assert lvs.certificate["P_0"]


def test_log_recursion_chained_log_squared():
    rp = radial_point_from_spectrum(
        Fraction(-2), (Fraction(1, 10), Fraction(3, 10), Fraction(2, 5)))
    lvs = log_variable_recursion(rp, p_polys={
        1: MultiPoly(3, {(3, 0, 0): Fraction(1)}),
        2: MultiPoly(3, {(1, 1, 0): Fraction(2)}),
    })
    assert all(lvs.certificate.values())
    assert lvs.max_log_power() == 2     # nested substitution produces t^2


def test_log_recursion_saddle_chain():
    rp = radial_point_from_spectrum(Fraction(1), (Fraction(-2), Fraction(-1)))
    lvs = log_variable_recursion(rp, p_polys={0: MultiPoly(2, {(0, 2): Fraction(7)})})
    assert all(lvs.certificate.values())
    # and via the weighted-polynomial source
    reff = WeightedPolynomial(rp.layout, "exact", {(0, (0, 2), (1, 0)): Fraction(7)})
    lvs2 = log_variable_recursion(rp, r_eff_r=reff)
    assert lvs2.pr_psharp == lvs.pr_psharp


def test_log_recursion_validates_homogeneity():
    rp = radial_point_from_spectrum(Fraction(-2), (Fraction(1, 5), Fraction(2, 5)))
    with pytest.raises(InvalidInputError):
        log_variable_recursion(rp, p_polys={1: MultiPoly(2, {(3, 0): Fraction(1)})})
    with pytest.raises(InvalidInputError):
        log_variable_recursion(rp, p_polys={},
                               p0_poly=MultiPoly(2, {(1, 0): Fraction(1)}))


def test_eff_r_polynomial_split():
    rp = radial_point_from_spectrum(Fraction(1), (Fraction(-2), Fraction(-1)))
    reff = WeightedPolynomial(rp.layout, "exact", {(0, (0, 2), (1, 0)): Fraction(7)})
    p_polys, p0 = eff_r_polynomials(rp, reff)
    assert p0 is None
    assert list(p_polys) == [0]
    with pytest.raises(InvalidInputError):
        eff_r_polynomials(rp, WeightedPolynomial(rp.layout, "exact",
                                                 {(1, (2, 0), (1, 0)): Fraction(1)}))


def test_template_source_sink():
    rp = radial_point_from_spectrum(Fraction(1), (Fraction(1, 4),))
    ed = exponent_data(rp, k_max=2, max_beta_prime=0)
    tpl = expansion_template(rp, ed, k_max=2, max_beta_prime=0)
    assert tpl.classification == "sourceSink"
    assert len(tpl.terms) == 1                    # no oscillator: single k = 0 slot
    term = tpl.terms[0]
    assert term.beta_prime == () and term.log_power == 0
    assert term.exponent == pytest.approx(-1j * ed.b_tilde)


def test_template_source_sink_with_oscillator():
    rp = radial_point_from_spectrum(-2.0, (complex(0.5, 0.5),))
    ed = exponent_data(rp, k_max=2, max_beta_prime=0,
                       oscillator_specs={0: OscillatorSpec(1.0, 0.0, 1.0)})
    tpl = expansion_template(rp, ed, k_max=2, max_beta_prime=0)
    assert len(tpl.terms) == 3
    # x^{-i kappa_k} only oscillates: the real part is Im b~ for every k,
    # and the imaginary parts decrease by the kappa gaps
    res = [t.exponent.real for t in tpl.terms]
    assert res == pytest.approx([ed.b_tilde.imag] * 3)
    ims = [t.exponent.imag for t in tpl.terms]
    assert np.all(np.diff(ims) < 0)
    assert [t.k for t in tpl.terms] == [0, 1, 2]


def test_template_saddle_ordering_and_flag():
    rp = radial_point_from_spectrum(Fraction(1), (Fraction(-1),))
    ed = exponent_data(rp, k_max=0, max_beta_prime=2)
    tpl = expansion_template(rp, ed, k_max=0, max_beta_prime=2)
    assert "x^{-1/2+eps}" in tpl.decay_note
    res = [t.exponent.real for t in tpl.terms]
    assert res == sorted(res)
    assert [sum(t.beta_prime) for t in tpl.terms] == [0, 1, 2]


def test_template_effectively_resonant_composition():
    rp = radial_point_from_spectrum(Fraction(-2), (Fraction(1, 3),))
    lvs = log_variable_recursion(rp, p_polys={},
                                 p0_poly=MultiPoly(1, {(3,): Fraction(5)}))
    ed = exponent_data(rp, k_max=1, max_beta_prime=0)
    plain = expansion_template(rp, ed, k_max=1, max_beta_prime=0)
    resonant = expansion_template(rp, ed, k_max=1, max_beta_prime=0, eff_r=lvs)
    assert [t.exponent for t in resonant.terms] == [t.exponent for t in plain.terms]
    assert all(t.log_power == 1 for t in resonant.terms)
    assert all("Psharp0" in t.profile for t in resonant.terms)
    assert resonant.certificates["P_0"]
