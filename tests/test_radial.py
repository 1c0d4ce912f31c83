from fractions import Fraction

import numpy as np
import pytest

from radialscope.radial import (CriticalPointSpec, ForbiddenEnergyError,
                                HessianThresholdError, NoRealRadialPointError,
                                ThresholdEnergyError,
                                classify_radial, cp_hessian_sorted, hessian_thresholds,
                                linearization_eigenvectors, linearization_spectrum,
                                numerical_jacobian, radial_point_from_spectrum)
from radialscope.scalars import GaussianRational


def test_spectrum_examples():
    cp = CriticalPointSpec("z", Fraction(0), (Fraction(3, 8),))
    rp = linearization_spectrum(cp, Fraction(1), +1)
    assert rp.r_list == (Fraction(1, 4),)
    assert rp.nu == 1 and rp.lam == -2
    assert rp.outgoing

    cp2 = CriticalPointSpec("z", Fraction(0), (Fraction(-4),))
    rp2 = linearization_spectrum(cp2, Fraction(1), +1)
    assert rp2.r_list == (Fraction(-1),)


def test_no_real_radial_point():
    cp = CriticalPointSpec("z", Fraction(2), (Fraction(1),))
    with pytest.raises(NoRealRadialPointError):
        linearization_spectrum(cp, Fraction(1), +1)


def test_hessian_threshold_raise_and_list():
    cp = CriticalPointSpec("z", Fraction(0), (Fraction(1, 2), Fraction(2)))
    assert hessian_thresholds(cp) == [Fraction(1), Fraction(4)]
    with pytest.raises(HessianThresholdError):
        linearization_spectrum(cp, Fraction(1), +1)
    with pytest.raises(HessianThresholdError):
        linearization_spectrum(cp, Fraction(4), +1)
    # exact agreement on rational inputs, including shifted base value
    cp2 = CriticalPointSpec("z", Fraction(3), (Fraction(1),))
    assert hessian_thresholds(cp2) == [Fraction(5)]
    # maxima contribute no thresholds
    cp3 = CriticalPointSpec("z", Fraction(0), (Fraction(-1), Fraction(-7, 3)))
    assert hessian_thresholds(cp3) == []


@pytest.mark.parametrize("sigma, tol, error", [
    (2.0 + 5e-11, 1e-10, HessianThresholdError),
    (2.0 + 1e-7, 1e-6, HessianThresholdError),
    (Fraction(2) + Fraction(1, 10 ** 11), 1e-10, HessianThresholdError),
    (5e-11, 1e-10, ThresholdEnergyError),
    (-5e-11, 1e-10, ThresholdEnergyError),     # below V0, yet refused, not "no point"
    (Fraction(0), 1e-10, ThresholdEnergyError),
])
def test_gate_refuses_energies_within_tol(sigma, tol, error):
    cp = CriticalPointSpec("z", Fraction(0), (Fraction(1), Fraction(-4)))
    with pytest.raises(error) as err:
        linearization_spectrum(cp, sigma, +1, tol)
    assert isinstance(err.value, ForbiddenEnergyError) and err.value.offending == sigma


def test_gate_passes_energies_outside_tol():
    cp = CriticalPointSpec("z", 0.0, (1.0, -4.0))
    assert linearization_spectrum(cp, 2.0 + 1e-7, +1).mode == "floating"
    with pytest.raises(NoRealRadialPointError):
        linearization_spectrum(cp, -2e-10, +1)


def test_one_irrational_ratio_makes_every_ratio_floating():
    cp = CriticalPointSpec("z", Fraction(0), (Fraction(-4), Fraction(1, 2)))
    rp = linearization_spectrum(cp, Fraction(1, 2), +1)
    assert [type(r) for r in rp.r_list] == [float, complex]
    assert rp.r_list[1] == complex(0.5, 0.5) and rp.mode == "floating"


def test_block_partition_consistency():
    # a_j/w > 1/4 -> y''' ; a_j < 0 -> y' ; otherwise y''
    cp = CriticalPointSpec("z", 0.0, (-2.0, 0.3, 3.0))
    rp = linearization_spectrum(cp, 1.0, +1)
    lay = rp.layout
    assert len(lay.yprime_indices) == 1
    assert len(lay.ysecond_indices) == 1
    assert len(lay.ythird_indices) == 1
    hs = cp_hessian_sorted(rp)
    assert hs[0] < 0 and 0 < hs[1] / 2 < 0.25 and hs[2] / 2 > 0.25


def test_sign_duality():
    cp = CriticalPointSpec("z", Fraction(0), (Fraction(3, 8), Fraction(-4)))
    plus = linearization_spectrum(cp, Fraction(1), +1)
    minus = linearization_spectrum(cp, Fraction(1), -1)
    assert plus.r_list == minus.r_list
    assert plus.lam == -minus.lam
    assert plus.outgoing and not minus.outgoing


def test_classify_examples():
    mins = CriticalPointSpec("m", 0, (1.0, 2.0))
    rp = linearization_spectrum(mins, 9.0, +1)
    assert classify_radial(rp) == "sourceSink"

    mixed = CriticalPointSpec("s", 0, (-1.0, 2.0))
    rp2 = linearization_spectrum(mixed, 9.0, +1)
    assert classify_radial(rp2) == "saddle"
    assert len(rp2.layout.yprime_indices) == 1 == mixed.morse_index


def test_rlist_sorted_ascending():
    cp = CriticalPointSpec("z", 0.0, (3.0, -2.0, 0.3))
    rp = linearization_spectrum(cp, 1.0, +1)
    res = [(rr.real if isinstance(rr, complex) else float(rr)) for rr in
           [complex(r) if isinstance(r, complex) else r for r in rp.r_list]]
    assert res == sorted(res)


def numerical_form_residual(rp, sigma, coeffs, eigenvalue, j):
    J = numerical_jacobian(rp, sigma)
    lin = linearization_eigenvectors(rp)
    v = lin.form_vector(coeffs, j)
    return np.linalg.norm(J.T @ v - eigenvalue * v)


def test_eigenvectors_against_numerical_jacobian_real():
    # lam = -2, r = -1 block
    cp = CriticalPointSpec("z", Fraction(0), (Fraction(-4),))
    rp = linearization_spectrum(cp, Fraction(1), +1)
    lin = linearization_eigenvectors(rp)
    # f~ has eigenvalue lam(1-r) = -4, e~ has eigenvalue lam r = 2
    assert abs(lin.eigenvalue_f(0) - (-4)) < 1e-12
    assert abs(lin.eigenvalue_e(0) - 2) < 1e-12
    assert numerical_form_residual(rp, 1.0, lin.f_forms[0], lin.eigenvalue_f(0), 0) < 1e-6
    assert numerical_form_residual(rp, 1.0, lin.e_forms[0], lin.eigenvalue_e(0), 0) < 1e-6
    # the dy coefficients: e~ = -(lam/2)(1-r) dy + dmu = 2 dy + dmu,
    # f~ = -(lam/2) r dy + dmu = -dy + dmu (sign fixed by the Jacobian check)
    assert lin.e_forms[0][0] == pytest.approx(2.0)
    assert lin.f_forms[0][0] == pytest.approx(-1.0)


def test_eigenvectors_complex_pair():
    # r = 1/2 + i/2 at lam = -2 needs a/w = r(1-r) = 1/2, i.e. hessian 2a = 1 at w = 1
    cp = CriticalPointSpec("z", Fraction(0), (Fraction(1),))
    rp = linearization_spectrum(cp, Fraction(1), +1)
    assert rp.r_list[0] == GaussianRational(Fraction(1, 2), Fraction(1, 2))
    lin = linearization_eigenvectors(rp)
    assert lin.eigenvalue_e(0) == pytest.approx(-1 - 1j)
    assert lin.eigenvalue_f(0) == pytest.approx(-1 + 1j)
    assert numerical_form_residual(rp, 1.0, lin.e_forms[0], lin.eigenvalue_e(0), 0) < 1e-6
    assert numerical_form_residual(rp, 1.0, lin.f_forms[0], lin.eigenvalue_f(0), 0) < 1e-6


def test_eigenvectors_random_spots():
    rng = np.random.default_rng(8)
    for _ in range(6):
        hess = tuple(float(h) for h in rng.uniform(-4, 4, size=2) if abs(h) > 0.3) or (1.0,)
        cp = CriticalPointSpec("z", 0.0, hess)
        sigma = float(rng.uniform(0.5, 4.0))
        try:
            rp = linearization_spectrum(cp, sigma, +1)
        except HessianThresholdError:
            continue
        lin = linearization_eigenvectors(rp)
        for j in range(len(hess)):
            assert numerical_form_residual(rp, sigma, lin.e_forms[j],
                                           lin.eigenvalue_e(j), j) < 1e-5
            assert numerical_form_residual(rp, sigma, lin.f_forms[j],
                                           lin.eigenvalue_f(j), j) < 1e-5


def test_threshold_refuses_eigenvectors():
    cp = CriticalPointSpec("z", Fraction(0), (Fraction(1, 2),))
    try:
        rp = linearization_spectrum(cp, Fraction(1), +1)
    except HessianThresholdError:
        rp = None
    assert rp is None


def test_pair_sum_and_symplectic_property():
    cp = CriticalPointSpec("z", 0.0, (-1.7, 0.9))
    sigma = 2.3
    rp = linearization_spectrum(cp, sigma, +1)
    lam = float(rp.lam)
    J = numerical_jacobian(rp, sigma)
    eig = np.linalg.eigvals(J)
    # eigenvalues pair up to sum lam per 2x2 block
    assert abs(eig.sum() - 2 * lam) < 1e-6
    lin = linearization_eigenvectors(rp)
    S = lin.matrix_a - (lam / 2.0) * np.eye(len(J))
    assert np.linalg.norm(S.T @ lin.omega + lin.omega @ S) < 1e-9


def test_from_spectrum_round_trip():
    rp = radial_point_from_spectrum(Fraction(1), (Fraction(1, 4),))
    assert rp.lam == 1 and rp.r_list == (Fraction(1, 4),)
    rp2 = radial_point_from_spectrum(Fraction(-2), (Fraction(-2), Fraction(-1)))
    assert rp2.r_list == (Fraction(-2), Fraction(-1))
    assert rp2.outgoing
    rp3 = radial_point_from_spectrum(-2.0, (complex(0.5, 0.5),))
    assert abs(complex(rp3.r_list[0]) - complex(0.5, 0.5)) < 1e-12


def test_report_json_shape():
    cp = CriticalPointSpec("z", Fraction(0), (Fraction(3, 8),))
    rp = linearization_spectrum(cp, Fraction(1), +1)
    d = rp.to_json_dict()
    assert d["rList"] == [{"re": 0.25, "im": 0.0}]
    assert d["partition"] == [1, 2]
    assert d["class"] == "sourceSink"
