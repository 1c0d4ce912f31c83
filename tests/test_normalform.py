import dataclasses
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import normalform_oracle as oracle
from radialscope.radial import CriticalPointSpec, radial_point_from_spectrum
from radialscope.scalars import GaussianRational
from radialscope.symalg import (EXACT, FLOATING, ModeMismatchError, ModelQuadratic, VariableLayout,
                                WeightedPolynomial, iter_monomials, monomial_key as K)
from radialscope.normalform import (ForbiddenEnergyError, ModelMismatchError, NelsonCase,
                                    ThresholdModelError, family_normal_form,
                                    flat_perturbation_case_1d, linear_contraction_rate,
                                    _flow, nelson_limit, reduce_to_normal_form,
                                    solve_homological)

LAY1 = VariableLayout(n=2, s=1, m=2)


def quarter_setup():
    rp = radial_point_from_spectrum(Fraction(1), (Fraction(1, 4),))
    model = rp.model
    return rp, model, model.p0()


def test_solve_homological_examples():
    rp, model, p0 = quarter_setup()
    y = WeightedPolynomial.y(rp.layout, 0)
    y3, y4 = y * y * y, y * y * y * y

    sol = solve_homological(model, y3)
    assert sol.b == y3.scale(-4)           # R = -1/4
    assert sol.residual.is_zero()

    sol2 = solve_homological(model, y4)
    assert sol2.b.is_zero()
    assert sol2.residual == y4             # R = 0, resonant

    sol3 = solve_homological(model, WeightedPolynomial.zero(rp.layout))
    assert sol3.b.is_zero() and sol3.residual.is_zero()


THRESHOLD_MESSAGE = r"^model has r_j = 1/2; homological equation degenerates$"


def test_solve_homological_refuses_threshold_model():
    # exact: r_j == 1/2 exactly
    model = ModelQuadratic(lam=Fraction(1), r_list=(Fraction(1, 2),), layout=LAY1)
    y = WeightedPolynomial.y(LAY1, 0)
    with pytest.raises(ThresholdModelError, match=THRESHOLD_MESSAGE):
        solve_homological(model, y * y * y)


def test_solve_homological_refuses_floating_threshold_model():
    # floating: r_j within 1e-12 of 1/2 is refused, a farther one is solved
    y = WeightedPolynomial.y(LAY1, 0, mode=FLOATING)
    for r in (0.5 + 5e-13, 0.5 - 5e-13):
        model = ModelQuadratic(lam=1.0, r_list=(r,), layout=LAY1)
        with pytest.raises(ThresholdModelError, match=THRESHOLD_MESSAGE):
            solve_homological(model, y * y * y)
    model = ModelQuadratic(lam=1.0, r_list=(0.5 + 1e-11,), layout=LAY1)
    assert not solve_homological(model, y * y * y).b.is_zero()


def test_reduce_cubic_exact():
    rp, model, p0 = quarter_setup()
    y = WeightedPolynomial.y(rp.layout, 0)
    res = reduce_to_normal_form(p0 + y * y * y, rp, 6)
    assert res.p_norm == p0
    assert res.r_eff_r.is_zero() and res.r_eff_nr.is_zero()
    # inverse round trip recovers the input exactly
    assert res.apply_inverse(res.p_norm) == p0 + y * y * y


def test_reduce_identity_on_model():
    rp, model, p0 = quarter_setup()
    res = reduce_to_normal_form(p0, rp, 4)
    assert res.p_norm == p0
    assert all(b.is_zero() for b in res.generators)


def test_reduce_retains_resonant_quartic():
    rp, model, p0 = quarter_setup()
    y = WeightedPolynomial.y(rp.layout, 0)
    res = reduce_to_normal_form(p0 + y * y * y * y, rp, 6)
    assert res.r_eff_r == y * y * y * y     # (0,4,0) is in I''_effr
    assert res.r_eff_nr.is_zero()


def test_reduce_model_mismatch():
    rp, model, p0 = quarter_setup()
    nu = WeightedPolynomial.nu(rp.layout)
    with pytest.raises(ModelMismatchError):
        reduce_to_normal_form(p0 + nu, rp, 4)
    y = WeightedPolynomial.y(rp.layout, 0)
    with pytest.raises(ModelMismatchError):
        reduce_to_normal_form(p0 + y, rp, 4)   # grade -1 term


def test_reduce_refuses_mode_mismatch():
    # p in the other mode than its radial point: an exact point with its
    # model in floats, with and without a nonresonant term, and a floating
    # point with an exact p
    rp, model, p0 = quarter_setup()
    y = WeightedPolynomial.y(rp.layout, 0, FLOATING)
    for p in (p0.to_mode(FLOATING), p0.to_mode(FLOATING) + y * y * y):
        with pytest.raises(ModeMismatchError):
            reduce_to_normal_form(p, rp, 4)
    frp = radial_point_from_spectrum(1.0, (0.3,))
    assert frp.mode == FLOATING
    with pytest.raises(ModeMismatchError):
        reduce_to_normal_form(-WeightedPolynomial.nu(frp.layout, EXACT), frp, 4)


def rand_high_order(lay, rng, max_grade):
    terms = {}
    for _ in range(6):
        w = rng.randint(3, max_grade + 2)
        a = rng.randint(0, w // 2)
        rem = w - 2 * a
        da = rng.randint(0, rem)
        alpha = (da,)
        beta = (rem - da,)
        terms[K(a, alpha, beta)] = GaussianRational(
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    return WeightedPolynomial(lay, EXACT, terms)


def test_reduction_properties_random():
    rng = random.Random(17)
    for r in (Fraction(1, 4), Fraction(-1), Fraction(1, 3)):
        rp = radial_point_from_spectrum(Fraction(1), (r,))
        p0 = rp.p0
        for _ in range(6):
            pert = rand_high_order(rp.layout, rng, 5)
            p = p0 + pert
            res = reduce_to_normal_form(p, rp, 5)
            # grade-0 part untouched
            assert res.p_norm.truncate_grade(0) == p0
            # every surviving higher-grade monomial is resonant
            model = rp.model
            for key, _ in (res.p_norm - p0).items():
                assert model.eigenvalue(key) == 0
            # exact reversibility
            assert res.apply_inverse(res.p_norm) == p.truncate_grade(5)
            # the split reassembles the remainder
            assert res.p_norm - p0 == res.r_eff_r + res.r_eff_nr


# real-block ratios: y' (r < 0) and y'' (0 < r < 1/2), with resonances among them
RATIOS = [Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(-1, 3), Fraction(-3, 2),
          Fraction(1, 3), Fraction(1, 4), Fraction(1, 5), Fraction(2, 5)]


@st.composite
def exact_reductions(draw):
    """(rp, p, max_grade, keep): p = p0 plus Gaussian-rational terms of grade
    >= 1 at a random exact real-block point; keep is None or every key with
    R = 0 plus some keys with R != 0."""
    lam = draw(st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 2)]))
    r_list = tuple(draw(st.lists(st.sampled_from(RATIOS), min_size=1, max_size=2)))
    rp = radial_point_from_spectrum(lam, r_list)
    max_grade = draw(st.integers(2, 5 if len(r_list) == 1 else 4))
    keys = list(iter_monomials(rp.layout.nvars, max_grade + 2, 3))
    part = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 7]))
    coeffs = st.builds(GaussianRational, part, part | st.just(Fraction(0)))
    terms = draw(st.dictionaries(st.sampled_from(keys), coeffs, min_size=1, max_size=5))
    keep = None
    if draw(st.booleans()):
        model = rp.model
        keep = {key for key in keys if model.eigenvalue(key) == 0}
        keep |= set(draw(st.lists(st.sampled_from(keys), max_size=4)))
    return rp, rp.p0 + WeightedPolynomial(rp.layout, EXACT, terms), max_grade, keep


@settings(max_examples=60, deadline=None)
@given(exact_reductions())
def test_exact_reduction_equals_the_object_oracle(case):
    rp, p, max_grade, keep = case
    got = reduce_to_normal_form(p, rp, max_grade, keep=keep)
    p_norm, generators, r_eff_r, r_eff_nr = oracle.reduce_to_normal_form(p, rp, max_grade, keep)
    assert got.p_norm == p_norm and list(got.generators) == generators
    assert got.r_eff_r == r_eff_r and got.r_eff_nr == r_eff_nr


def test_exact_reduction_runs_no_gaussian_rational_operator(monkeypatch):
    # two y' ratios with resonances and complex coefficients, reduced with and
    # without a keep set: every stage runs on int numerators
    rp = radial_point_from_spectrum(Fraction(1), (Fraction(-1), Fraction(-1, 2)))
    lay = rp.layout
    pert = WeightedPolynomial(lay, EXACT, {
        K(0, (1, 1), (1, 0)): GaussianRational(Fraction(2, 3), 1),
        K(1, (1, 0), (0, 0)): Fraction(-5, 7),
        K(0, (2, 0), (1, 0)): GaussianRational(0, Fraction(1, 5)),
        K(1, (0, 1), (0, 1)): 3,
        K(0, (1, 2), (0, 1)): GaussianRational(Fraction(-1, 4), Fraction(3, 2))})
    p = rp.p0 + pert
    model = rp.model
    keep = {key for key in iter_monomials(2, 7, 3) if model.eigenvalue(key) == 0}
    keep |= {K(1, (0, 1), (0, 1)), K(0, (2, 0), (1, 0))}    # R != 0, kept all the same
    cases = [(None, oracle.reduce_to_normal_form(p, rp, 5)),
             (keep, oracle.reduce_to_normal_form(p, rp, 5, keep))]

    def refuse(*args):
        raise AssertionError("GaussianRational operator inside the reduction")

    for op in ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
               "__mul__", "__rmul__", "__truediv__", "__rtruediv__"):
        monkeypatch.setattr(GaussianRational, op, refuse)
    got = [reduce_to_normal_form(p, rp, 5, keep=k) for k, _ in cases]
    monkeypatch.undo()
    for res, (_, want) in zip(got, cases):
        assert sum(not b.is_zero() for b in res.generators) >= 2 and res.p_norm != p
        assert (res.p_norm, list(res.generators), res.r_eff_r, res.r_eff_nr) == want


def test_family_nonresonant_interval_is_zero():
    cp = CriticalPointSpec("z", Fraction(0), (Fraction(-4),))
    fam = family_normal_form(cp, (1.5, 1.7), max_grade=4, grid_size=5)
    for idx in fam.index_set:
        assert np.allclose(fam.curve(idx), 0.0)


def test_family_continuous_through_plain_resonance():
    # r = -1 at sigma = 1 makes (1,(2),(1)) resonant but not effectively so;
    # a generic perturbation leaves a continuous nonzero coefficient curve.
    cp = CriticalPointSpec("z", Fraction(0), (Fraction(-4),))
    lay = VariableLayout(n=2, s=1, m=2)
    pert = WeightedPolynomial(lay, "floating", {K(1, (2,), (1,)): 0.3 + 0j,
                                                K(0, (3,), (0,)): 0.5 + 0j})
    fam = family_normal_form(cp, (0.9, 1.1), max_grade=4, grid_size=9,
                             perturbation=pert)
    idx = K(1, (2,), (1,))
    assert idx in fam.index_set
    curve = fam.curve(idx)
    assert np.all(np.abs(curve) > 0.01)
    dd = fam.divided_differences[idx]["max_first_dd"]
    assert dd < 10.0, "coefficient curve should be smooth across the resonance"


def test_family_single_point_matches_pointwise_reduction():
    cp = CriticalPointSpec("z", Fraction(0), (Fraction(-4),))
    lay = VariableLayout(n=2, s=1, m=2)
    pert = WeightedPolynomial(lay, "floating", {K(1, (2,), (1,)): 0.3 + 0j})
    fam = family_normal_form(cp, (0.999999999, 1.000000001), max_grade=5, grid_size=1,
                             scan_grid=500, perturbation=pert)
    sigma = fam.sigma_grid[0]
    from radialscope.radial import linearization_spectrum
    rp = linearization_spectrum(cp, sigma, +1)
    p = rp.p0 + pert
    res = reduce_to_normal_form(p, rp, 5, tol=1e-9)
    for idx in fam.index_set:
        a = fam.coeffs[idx][0]
        b = complex(res.p_norm.coefficient(idx))
        assert abs(a - b) < 1e-8, idx


def test_family_refuses_forbidden_energy():
    cp = CriticalPointSpec("z", Fraction(0), (Fraction(-12), Fraction(-4)))
    with pytest.raises(ForbiddenEnergyError) as err:
        family_normal_form(cp, (0.5, 2.0), max_grade=4, grid_size=3)
    assert abs(err.value.offending - 1.0) < 1e-6
    # thresholds are refused too
    cp2 = CriticalPointSpec("z", Fraction(0), (Fraction(1, 2),))
    with pytest.raises(ForbiddenEnergyError):
        family_normal_form(cp2, (0.9, 1.1), max_grade=4, grid_size=3)


def test_nelson_zero_perturbation_is_identity():
    case = NelsonCase(dim=1, x0_field=lambda z: -z, x1_field=lambda z: 0.0 * z,
                      samples=(np.array([0.7]), np.array([-0.2])), t_max=8.0)
    out = nelson_limit(case)
    assert out.converged
    for i, x in enumerate(case.samples):
        assert np.linalg.norm(out.w_minus[i] - x) < 1e-9


def test_nelson_flat_case_converges_with_positive_rate():
    case = flat_perturbation_case_1d()
    assert case.validate_flatness(5)
    out = nelson_limit(case)
    assert out.converged
    for rate in out.cauchy_rates.values():
        assert rate > 0


def test_nelson_flatness_exponent():
    xs = [0.4 * 2 ** (-k / 2) for k in range(6)]
    case = flat_perturbation_case_1d(samples=xs, t_max=14.0)
    out = nelson_limit(case)
    devs = [abs(float(out.w_minus[i][0]) - xs[i]) for i in range(len(xs))]
    m = np.polyfit(np.log(xs), np.log(devs), 1)[0]
    assert m >= 5.0


def test_linear_contraction_rate_matches_eigenvalue():
    rate = linear_contraction_rate(lambda z: -z, np.array([0.8]), [1, 2, 3, 4, 5, 6])
    assert abs(rate - 1.0) < 1e-6
    rate2 = linear_contraction_rate(lambda z: -2.5 * z, np.array([0.3]), [0.5, 1.0, 1.5, 2.0])
    assert abs(rate2 - 2.5) < 1e-6


def test_flow_on_two_components_matches_closed_form():
    # X0 z = A z with A = [[-1, 2], [-2, -1]]: U0(t) x = e^{-t} R(-2t) x
    a = np.array([[-1.0, 2.0], [-2.0, -1.0]])
    x = np.array([0.6, -0.3])
    for t in (0.5, 3.0):
        c, s = math.cos(2.0 * t), math.sin(2.0 * t)
        exact = math.exp(-t) * np.array([c * x[0] + s * x[1], -s * x[0] + c * x[1]])
        assert np.max(np.abs(_flow(lambda z: a @ z, x, t, 1e-12) - exact)) < 1e-10


def test_nelson_step_budget_bounds_huge_t_max():
    # below atol the model flow steps at its stability limit, about 6 time
    # units a step, so a flow to t = 1e8 would take some 1.6e7 steps; it
    # spends MAX_FLOW_STEPS, and each sample reports the failure
    case = dataclasses.replace(flat_perturbation_case_1d(), t_max=1e9, dt=1e8)
    start = time.perf_counter()
    out = nelson_limit(case)
    assert time.perf_counter() - start < 10.0
    assert not out.converged
    for diag in out.diagnostics.values():
        assert diag["reason"] == "RuntimeError: flow integration failed: attempted-step budget spent"


def test_flat_case_x1_is_zero_past_the_cutoff():
    # the backward flow amplifies roundoff by e^t, to about 7e73 at t = 200;
    # X1 must not form v ** 5 out there, where it would overflow
    case = flat_perturbation_case_1d(samples=[0.9], t_max=200.0)
    assert case.x1_field(np.array([1e70])).tolist() == [0.0]
    out = nelson_limit(dataclasses.replace(case, dt=100.0))
    assert "reason" not in out.diagnostics[0]


@pytest.mark.parametrize("x1, x, t_max, dt, reason", [
    # X1 = 0, formed as 0 * v ** 5: the roundoff-driven backward flow overflows it
    (lambda z: np.array([0.0 * float(z[0]) ** 5]), 0.9, 200.0, 100.0,
     "OverflowError: "),
    # z' = z + z^5 from 2 e^{-1} blows up before t = 1: the step falls below its floor
    (lambda z: -z ** 5, 2.0, 3.0, 1.0,
     "RuntimeError: flow integration failed: Required step size is less than spacing"),
])
def test_nelson_flow_failure_gives_converged_false(x1, x, t_max, dt, reason):
    case = NelsonCase(dim=1, x0_field=lambda z: -z, x1_field=x1, samples=(np.array([x]),),
                      t_max=t_max, dt=dt)
    out = nelson_limit(case)
    assert not out.converged and 0 in out.w_minus
    assert out.diagnostics[0]["reason"].startswith(reason)


def test_nelson_nonconvergence_diagnostic():
    # a perturbation that does not vanish at 0 violates the flatness
    # hypothesis: U(-t)U0(t)x diverges, and the result carries partial
    # data with converged=False instead of raising
    import math

    def x1(z):
        v = float(z[0])
        bump = math.exp(-v * v / max(1.0 - v * v, 1e-9)) if abs(v) < 1.0 else 0.0
        return np.array([0.3 * math.cos(5.0 * v) * bump])

    case = NelsonCase(dim=1, x0_field=lambda z: -z, x1_field=x1,
                      samples=(np.array([0.4]),), t_max=6.0, dt=1.0)
    assert not case.validate_flatness(1)
    out = nelson_limit(case)
    assert not out.converged
    assert 0 in out.w_minus and 0 in out.diagnostics


def test_nelson_case_e_basis_validation():
    import math

    def x1(z):
        return 0.0 * z

    basis = np.array([[1.0, 0.0]])
    ok = NelsonCase(dim=2, x0_field=lambda z: -z, x1_field=x1,
                    samples=(np.array([0.5, 0.0]),), e_basis=basis)
    assert math.isfinite(float(ok.samples[0][0]))
    with pytest.raises(ValueError):
        NelsonCase(dim=2, x0_field=lambda z: -z, x1_field=x1,
                   samples=(np.array([0.5, 0.3]),), e_basis=basis)


def test_reduce_rejects_complex_block_points():
    from radialscope.radial import radial_point_from_spectrum as from_spec
    rp = from_spec(-2.0, (complex(0.5, 0.5),))
    p = WeightedPolynomial.zero(rp.layout, "floating")
    with pytest.raises(ValueError, match="real-block"):
        reduce_to_normal_form(p, rp, 4)


def test_nelson_matches_first_order_dyson_integral():
    # to first order in the perturbation strength,
    # W_-(x) - x = -int_0^inf e^{s} X1(e^{-s} x) ds for X0 = -x d/dx
    import math

    from scipy.integrate import quad

    case = flat_perturbation_case_1d(samples=[0.3, 0.2, -0.25], t_max=14.0)
    out = nelson_limit(case)
    for i, xarr in enumerate(case.samples):
        x = float(xarr[0])
        dyson, _ = quad(lambda s: math.exp(s)
                        * float(case.x1_field(np.array([x * math.exp(-s)]))[0]),
                        0.0, 30.0, limit=200)
        measured = float(out.w_minus[i][0]) - x
        assert abs(-dyson - measured) <= 1e-3 * abs(measured) + 1e-12
