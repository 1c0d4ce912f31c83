import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from radialscope import resonance
from radialscope.normalform import reduce_to_normal_form
from radialscope.radial import radial_point_from_spectrum
from radialscope.scalars import GaussianRational
from radialscope.symalg import (EXACT, FLOATING, ModeMismatchError, ModelQuadratic,
                                VariableLayout, WeightedPolynomial, ad_exponential,
                                bracket, compositions, eigen_action_table,
                                grade_components, iter_monomials, key_parts,
                                monomial_key as K)

LAY1 = VariableLayout(n=2, s=1, m=2)
LAY2 = VariableLayout(n=3)


def diff_nu(p):
    """d p / d nu, term by term through the public constructor."""
    return WeightedPolynomial(p.layout, p.mode, {(key[0] - 1, *key[1:]): c * key[0]
                                                 for key, c in p.items() if key[0]})


def rand_poly(lay, rng, nterms=5, max_exp=2):
    terms = {}
    for _ in range(nterms):
        a = rng.randint(0, 1)
        alpha = tuple(rng.randint(0, max_exp) for _ in range(lay.nvars))
        beta = tuple(rng.randint(0, max_exp) for _ in range(lay.nvars))
        coeff = GaussianRational(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                                 Fraction(rng.randint(-2, 2)))
        terms[K(a, alpha, beta)] = coeff
    return WeightedPolynomial(lay, EXACT, terms)


def exact_polys(lay, max_terms=5, grade=None):
    """Strategy: rand_poly's exact polynomials (exponents up to 2), or
    polynomials homogeneous of the given grade, drawn by hypothesis."""
    if grade is None:
        exps = st.tuples(*[st.integers(0, 2)] * lay.nvars)
        keys = st.tuples(st.integers(0, 1), exps, exps).map(lambda parts: K(*parts))
    else:
        keys = st.sampled_from(list(iter_monomials(lay.nvars, grade + 2, grade + 2)))
    coeffs = st.builds(GaussianRational, st.fractions(-5, 5, max_denominator=4),
                       st.integers(-2, 2).map(Fraction))
    return st.dictionaries(keys, coeffs, max_size=max_terms).map(
        lambda t: WeightedPolynomial(lay, EXACT, t))


def model_quarter():
    return ModelQuadratic(lam=Fraction(1), r_list=(Fraction(1, 4),), layout=LAY1)


def test_layout_blocks():
    lay = VariableLayout(n=4, s=2, m=3)
    assert list(lay.yprime_indices) == [0]
    assert list(lay.ysecond_indices) == [1]
    assert list(lay.ythird_indices) == [2]
    with pytest.raises(ValueError):
        VariableLayout(n=3, s=3, m=2)


def test_grade_components_examples():
    nu = WeightedPolynomial.nu(LAY1)
    comps = grade_components(nu)
    assert list(comps) == [0] and comps[0] == nu

    y, mu = WeightedPolynomial.y(LAY1, 0), WeightedPolynomial.mu(LAY1, 0)
    comps = grade_components(y * mu)
    assert list(comps) == [0]

    p = nu * y * y * mu
    comps = grade_components(p)
    assert list(comps) == [3]

    mixed = nu + y * y * mu * nu
    comps = grade_components(mixed)
    assert sum(comps.values(), WeightedPolynomial.zero(LAY1)) == mixed
    assert all(len(c.grades()) == 1 for c in comps.values())


def test_bracket_examples():
    nu = WeightedPolynomial.nu(LAY1)
    y = WeightedPolynomial.y(LAY1, 0)
    assert bracket(-nu, y) == -y
    assert bracket(-nu, nu).is_zero()
    p0 = model_quarter().p0()
    assert bracket(p0, y) == y.scale(Fraction(-3, 4))


def test_bracket_mode_mismatch():
    a = WeightedPolynomial.y(LAY1, 0, EXACT)
    b = WeightedPolynomial.y(LAY1, 0, FLOATING)
    with pytest.raises(ModeMismatchError):
        bracket(a, b)


@settings(max_examples=40, deadline=None)
@given(exact_polys(LAY2), exact_polys(LAY2), exact_polys(LAY2, 3, grade=1),
       exact_polys(LAY2, 3, grade=2))
def test_bracket_antisymmetry_and_grading(a, b, a1, b2):
    assert (bracket(a, b) + bracket(b, a)).is_zero()
    # grade additivity on homogeneous inputs
    br = bracket(a1, b2)
    if not br.is_zero():
        assert br.homogeneous_grade() == 3


def _term_map(p, rule):
    """Image of p under a term-wise linear map: rule(a, alpha, beta) gives
    (factor, new key), and distinct keys with nonzero factor map apart."""
    terms = {}
    for key, c in p.items():
        factor, (a, alpha, beta) = rule(*key_parts(key))
        if factor:
            terms[K(a, alpha, beta)] = c * factor
    return WeightedPolynomial(p.layout, p.mode, terms)


def _lower(exps, j):
    return exps[:j] + (exps[j] - 1,) + exps[j + 1:]


def product_bracket(a, b, max_grade):
    """Reference bracket: W_a(b) + (d_nu a) b from whole polynomial
    products, then truncated (the definition in the symalg docstring)."""
    def d_nu(p):
        return _term_map(p, lambda e, al, be: (e, (e - 1, al, be)))

    def euler_mu(p):
        return _term_map(p, lambda e, al, be: (sum(be), (e, al, be)))

    def d_y(p, j):
        return _term_map(p, lambda e, al, be: (al[j], (e, _lower(al, j), be)))

    def d_mu(p, j):
        return _term_map(p, lambda e, al, be: (be[j], (e, al, _lower(be, j))))

    out = -(d_nu(a) * euler_mu(b)) + (euler_mu(a) - a) * d_nu(b) + d_nu(a) * b
    for j in range(a.layout.nvars):
        out = out + d_mu(a, j) * d_y(b, j) - d_y(a, j) * d_mu(b, j)
    return out.truncate_grade(max_grade)


def test_bracket_equals_product_formula():
    # complex Gaussian-rational coefficients, with and without a grade bound
    rng = random.Random(29)
    complex_pairs = 0
    for lay in (LAY1, LAY2, VariableLayout(n=4)):
        for _ in range(15):
            a = rand_poly(lay, rng, nterms=rng.randint(1, 7))
            b = rand_poly(lay, rng, nterms=rng.randint(1, 7))
            complex_pairs += any(c.im for p in (a, b) for _, c in p.items())
            assert bracket(a, b) == product_bracket(a, b, 99)
            for max_grade in (-1, 0, 2, 4, 6):
                assert bracket(a, b, max_grade) == product_bracket(a, b, max_grade)
    assert complex_pairs >= 40


def test_floating_bracket_matches_product_formula():
    rng = random.Random(31)
    for _ in range(15):
        a, b = (WeightedPolynomial(LAY2, FLOATING, {key: complex(c) / 3
                                                    for key, c in rand_poly(LAY2, rng).items()})
                for _ in range(2))
        got = bracket(a, b, 3)
        ref = product_bracket(a, b, 3)
        keys = {key for key, _ in ref.items()}
        assert keys == {key for key, _ in got.items()}
        for key in keys:
            assert abs(got.coefficient(key) - ref.coefficient(key)) <= 1e-12


ROUND_TRIP_POINT = radial_point_from_spectrum(Fraction(1), (Fraction(-1, 3), Fraction(1, 5)))


@settings(max_examples=5, deadline=None)
@given(st.dictionaries(st.sampled_from(list(iter_monomials(2, 7, 3))),
                       st.fractions(-6, 6, max_denominator=5).filter(bool),
                       min_size=31, max_size=40))
def test_reduction_round_trip_random_real_block(terms):
    # n = 3, G = 5: exact reversibility apply_inverse(reduce(p)) == p on a
    # random real-coefficient perturbation of grades 1..5
    rp = ROUND_TRIP_POINT
    assert rp.layout.nvars == 2 and rp.layout.is_real_block
    pert = WeightedPolynomial(rp.layout, EXACT, terms)
    p = rp.model_quadratic().p0() + pert
    res = reduce_to_normal_form(p, rp, 5)
    assert len(pert) > 30 and any(not b.is_zero() for b in res.generators)
    assert res.apply_inverse(res.p_norm) == p.truncate_grade(5)


def test_gaussian_real_fast_path_agrees_with_general_formula():
    rng = random.Random(47)

    def rand_scalar():
        re = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        kind = rng.randrange(4)
        if kind == 0:
            return re                                   # a plain Fraction operand
        im = Fraction(rng.randint(-3, 3), rng.randint(1, 4)) if kind == 1 else 0
        return GaussianRational(re, im)

    for _ in range(400):
        x, y = rand_scalar(), rand_scalar()
        if not isinstance(x, GaussianRational):
            x = GaussianRational(x)
        yy = GaussianRational.coerce(y)
        expect_sum = GaussianRational(x.re + yy.re, x.im + yy.im)
        expect_prod = GaussianRational(x.re * yy.re - x.im * yy.im,
                                       x.re * yy.im + x.im * yy.re)
        for got, expect in ((x + y, expect_sum), (y + x, expect_sum),
                            (x * y, expect_prod), (y * x, expect_prod)):
            assert type(got.re) is Fraction and type(got.im) is Fraction
            assert (got.re, got.im) == (expect.re, expect.im)
            assert got == expect and hash(got) == hash(expect)
            if not expect.im:
                assert got == expect.re and hash(got) == hash(expect.re)
    assert GaussianRational(3) == GaussianRational(Fraction(3), Fraction(0))
    assert type(GaussianRational(3, 1).im) is Fraction


@settings(max_examples=25, deadline=None)
@given(exact_polys(LAY2, max_terms=4), exact_polys(LAY2, max_terms=4),
       exact_polys(LAY2, max_terms=4))
def test_jacobi_identity(a, b, c):
    acc = bracket(a, bracket(b, c)) + bracket(b, bracket(c, a)) + bracket(c, bracket(a, b))
    assert acc.is_zero()


def test_leibniz_defect():
    rng = random.Random(37)
    for _ in range(25):
        a, b, c = (rand_poly(LAY2, rng, nterms=4) for _ in range(3))
        lhs = bracket(c, a * b)
        rhs = bracket(c, a) * b + a * bracket(c, b) - diff_nu(c) * a * b
        assert (lhs - rhs).is_zero()


def test_p0_derivation_identity():
    # specializing the defect to c = p0 with d_nu p0 = -lam
    rng = random.Random(41)
    model = model_quarter()
    p0 = model.p0()
    for _ in range(15):
        a, b = rand_poly(LAY1, rng), rand_poly(LAY1, rng)
        lhs = bracket(p0, a * b)
        rhs = (a * b).scale(model.lam) + bracket(p0, a) * b + a * bracket(p0, b)
        assert (lhs - rhs).is_zero()


@pytest.mark.parametrize("r", [Fraction(1, 4), Fraction(-1)])
def test_eigenvalue_lemma_grade6(r):
    model = ModelQuadratic(lam=Fraction(1), r_list=(r,), layout=LAY1)
    p0 = model.p0()
    table = eigen_action_table(model, LAY1, max_grade=6)
    assert table, "table must be nonempty"
    for key, R in table.items():
        mono = WeightedPolynomial(LAY1, EXACT, {key: 1})
        assert (bracket(p0, mono) - mono.scale(R)).is_zero(), key


def test_eigen_table_examples():
    m1 = ModelQuadratic(lam=Fraction(1), r_list=(Fraction(-1),), layout=LAY1)
    assert m1.eigenvalue((1, 2, 1)) == 0
    assert m1.eigenvalue((1, 0, 0)) == 0  # nu itself
    m2 = model_quarter()
    assert m2.eigenvalue((0, 3, 0)) == Fraction(-1, 4)


def test_ad_exponential_examples():
    model = model_quarter()
    p0 = model.p0()
    y = WeightedPolynomial.y(LAY1, 0)
    zero = WeightedPolynomial.zero(LAY1)
    assert ad_exponential(zero, p0, 6) == p0

    b = (y * y * y).scale(4)
    assert ad_exponential(b, p0, 6) == p0 - y * y * y

    # generic grade-1 generator, grade-0 input: p + {{p,b}} + (1/2){{{{p,b}},b}}
    rng = random.Random(5)
    for _ in range(10):
        b1 = rand_poly(LAY2, rng).grade_part(1)
        p = rand_poly(LAY2, rng).grade_part(0)
        if b1.is_zero():
            continue
        got = ad_exponential(b1, p, 2)
        first = bracket(p, b1)
        second = bracket(first, b1).scale(Fraction(1, 2))
        assert got == (p + first + second).truncate_grade(2)


def test_ad_exponential_rejects_low_grade():
    y = WeightedPolynomial.y(LAY1, 0)
    mu = WeightedPolynomial.mu(LAY1, 0)
    with pytest.raises(ValueError):
        ad_exponential(y * mu, y, 4)  # grade 0 generator would not terminate


def test_serialization_bit_exact_round_trip():
    rng = random.Random(99)
    for _ in range(10):
        p = rand_poly(LAY2, rng)
        q = WeightedPolynomial.from_json_dict(p.to_json_dict())
        assert q == p
        assert q.to_json_dict() == p.to_json_dict()


def test_serialization_format():
    p = WeightedPolynomial.monomial(LAY1, GaussianRational(Fraction(3, 7), Fraction(-1, 2)),
                                    a=1, alpha=(2,), beta=(0,))
    d = p.to_json_dict()
    assert d["mode"] == "exact" and d["n"] == 2 and d["blocks"] == [1, 2]
    assert d["terms"] == [{"a": 1, "alpha": [2], "beta": [0], "re": "3/7", "im": "-1/2"}]


def test_no_zero_terms_stored():
    y = WeightedPolynomial.y(LAY1, 0)
    assert (y - y).is_zero()
    assert len(y + y - y - y) == 0


def _assert_clean(p):
    """p's terms are what the validating constructor would store."""
    kind = GaussianRational if p.mode == EXACT else complex
    terms = dict(p.items())
    for key, c in terms.items():
        a, alpha, beta = key_parts(key)
        assert len(key) == 2 * p.layout.nvars + 1
        assert a >= 0 and min(alpha + beta, default=0) >= 0
        assert type(c) is kind and c
    assert WeightedPolynomial(p.layout, p.mode, terms) == p


def test_operation_results_skip_validation_but_stay_clean():
    # bracket, +, scale, truncate_grade and grade_part build their results
    # without re-validating; each must equal the checked construction
    rng = random.Random(17)
    for lay in (LAY1, LAY2):
        for _ in range(10):
            a, b = rand_poly(lay, rng, nterms=6), rand_poly(lay, rng, nterms=6)
            fa, fb = (WeightedPolynomial(lay, FLOATING, {key: complex(c) for key, c in q.items()})
                      for q in (a, b))
            for x, y, scalar in ((a, b, Fraction(-3, 7)), (fa, fb, -3 / 7)):
                results = [bracket(x, y), bracket(x, y, max_grade=2), x + y, x + x.scale(-1),
                           x.scale(scalar), x.truncate_grade(2), x.grade_part(1)]
                for r in results:
                    _assert_clean(r)
    # a floating product that underflows is dropped, as __init__ drops zeros
    tiny = WeightedPolynomial.monomial(LAY1, 1e-200, a=1, mode=FLOATING) \
        + WeightedPolynomial.monomial(LAY1, 1.0, mode=FLOATING)
    scaled = tiny.scale(1e-200)
    _assert_clean(scaled)
    assert len(scaled) == 1
    # public construction keeps every check
    with pytest.raises(ValueError, match="negative exponent"):
        WeightedPolynomial(LAY1, EXACT, {(0, -1, 0): 1})
    with pytest.raises(ValueError, match="does not match layout"):
        WeightedPolynomial(LAY1, EXACT, {(0, 0, 0, 0): 1})
    with pytest.raises(TypeError):
        WeightedPolynomial(LAY1, EXACT, {(0, 0, 0): 0.5j})


def test_monomial_iteration_canonical_order():
    rng = random.Random(3)
    p = rand_poly(LAY2, rng, nterms=8)
    keys = [(2 * a + sum(alpha) + sum(beta) - 2, a, alpha, beta)
            for a, alpha, beta in (key_parts(key) for key, _ in p.items())]
    assert keys == sorted(keys)


def test_iter_monomials_count():
    # n=2: weighted degrees 0..4 of (a, alpha, beta), one y/mu pair
    keys = list(iter_monomials(1, 4))
    assert len(set(keys)) == len(keys)
    for key in keys:
        a, alpha, beta = key_parts(key)
        assert 2 * a + sum(alpha) + sum(beta) <= 4


def test_iter_monomials_yields_each_key_once_in_order_and_counted():
    # every key of weighted degree lo..8, built from itertools.product and
    # sorted by weighted degree, a, |alpha|, alpha, beta: the enumeration order
    # of the nested (a, alpha, beta) keys, whose total the budget counts
    for nvars in (1, 2, 3):
        parts = [t for t in itertools.product(range(9), repeat=nvars) if sum(t) <= 8]
        for lo in (0, 3):
            want = sorted(((a, *al, *be) for a in range(5) for al in parts for be in parts
                           if lo <= 2 * a + sum(al) + sum(be) <= 8),
                          key=lambda k: (k[0] + sum(k), k[0], sum(k[1:nvars + 1]), k))
            got = list(iter_monomials(nvars, 8, lo))
            assert got == want, (nvars, lo)
            for hi in range(9):
                assert sum(1 for k in got if k[0] + sum(k) <= hi) \
                    == resonance._monomial_count(nvars, lo, hi), (nvars, lo, hi)


@pytest.mark.parametrize("key, message", [
    ((0, 0, 0, 0), "exponent tuple length does not match layout"),
    ((0, 0), "exponent tuple length does not match layout"),
    ((0, 1.0, 0), "exponents must be integers, got (0, (1.0,), (0,))"),
    ((0, 1, True), "exponents must be integers, got (0, (1,), (True,))"),
    ((0, 0, -1), "negative exponent"),
])
def test_constructor_rejects_malformed_flat_keys(key, message):
    with pytest.raises(ValueError) as exc:
        WeightedPolynomial(LAY1, EXACT, {key: 1})
    assert str(exc.value) == message


def test_a_short_alpha_with_a_long_beta_is_no_key():
    # (0, 1, 0, 0, 1) has the flat length of an n = 3 key, but not from these parts
    with pytest.raises(ValueError, match="^exponent tuple length does not match layout$"):
        K(0, (1,), (0, 0, 1))
    with pytest.raises(ValueError, match="^exponent tuple length does not match layout$"):
        WeightedPolynomial.monomial(LAY2, 1, alpha=(1,), beta=(0, 0, 1))
    assert K(0, (1, 0), (0, 1)) == (0, 1, 0, 0, 1)
    assert key_parts((0, 1, 0, 0, 1)) == (0, (1, 0), (0, 1))


def test_compositions_match_filtered_product():
    for length in range(5):
        for total in range(7):
            expect = [t for t in itertools.product(range(total + 1), repeat=length)
                      if sum(t) == total]
            assert list(compositions(length, total)) == expect, (length, total)


def test_complex_block_model_requires_elliptic():
    lay = VariableLayout(n=2, s=1, m=1)
    with pytest.raises(ValueError):
        ModelQuadratic(lam=1.0, r_list=(complex(0.5, 0.5),), layout=lay,
                       quad_blocks={0: (1.0, 1.0, 0.5)})  # pc - q^2 < 0
    model = ModelQuadratic(lam=1.0, r_list=(complex(0.5, 0.5),), layout=lay,
                           quad_blocks={0: (1.0, 0.0, 1.0)})
    p0 = model.p0()
    assert p0.mode == FLOATING and not p0.is_zero()


def test_eigenvalue_lemma_defect_on_complex_block():
    # with a y''' block, nu-basis monomials are eigen only modulo the
    # grade-0 defect {{p0, nu}} = lam (mu dQ/dmu - Q): for real-block
    # supported monomials the residual is exactly a * (mono/nu) * defect,
    # i.e. it lies in the span obtained by re-expressing nu through p0
    lay = VariableLayout(n=3, s=1, m=2)
    model = ModelQuadratic(
        lam=Fraction(1),
        r_list=(Fraction(1, 4), GaussianRational(Fraction(1, 2), Fraction(1, 2))),
        layout=lay,
        quad_blocks={1: (Fraction(1), Fraction(0), Fraction(1))})
    p0 = model.p0()
    nu = WeightedPolynomial.nu(lay)
    defect = bracket(p0, nu)
    # Q = mu^2 + y^2 gives defect = mu^2 - y^2 on the third block
    assert defect == WeightedPolynomial(lay, EXACT, {K(0, (0, 0), (0, 2)): 1,
                                                     K(0, (0, 2), (0, 0)): -1})
    for key in iter_monomials(2, 8):
        a, alpha, beta = key_parts(key)
        if alpha[1] or beta[1]:
            continue
        mono = WeightedPolynomial(lay, EXACT, {key: 1})
        resid = bracket(p0, mono) - mono.scale(model.eigenvalue(key))
        if a == 0:
            assert resid.is_zero(), key
        else:
            expect = WeightedPolynomial(lay, EXACT, {K(a - 1, alpha, beta): a}) * defect
            assert (resid - expect).is_zero(), key
            assert resid.homogeneous_grade() == 2 * a + sum(alpha) + sum(beta) - 2
