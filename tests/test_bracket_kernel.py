"""symalg's bracket and Lie series against the coefficient-object oracle.

Exact mode runs on int numerators over one denominator per polynomial, so
it must give the oracle's values exactly, whatever the denominators.
Floating mode runs the oracle's own loop on complex coefficients, so it
must give the oracle's terms in the same order, repr for repr, signed
zeros included: that order fixes floating report bytes.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import bracket_oracle as oracle
from radialscope.normalform import NormalFormResult
from radialscope.scalars import GaussianRational
from radialscope.symalg import (EXACT, FLOATING, VariableLayout, WeightedPolynomial,
                                ad_exponential, bracket, iter_monomials, monomial_key as K)

LAYOUTS = [VariableLayout(n=n) for n in (2, 3, 4)]
# small, coprime and large denominators (2^61 - 1 and 10^12 + 39 are prime)
DENOMINATORS = [1, 2, 3, 4, 7, 9, 25, 2 ** 61 - 1, 10 ** 12 + 39]


def gaussian_rationals():
    part = st.builds(Fraction, st.integers(-10 ** 15, 10 ** 15) | st.integers(-6, 6),
                     st.sampled_from(DENOMINATORS))
    return st.builds(GaussianRational, part, part | st.just(Fraction(0)))


@st.composite
def exact_poly(draw, lay, grade=None, max_terms=5):
    """An exact polynomial with exponents up to 2, or homogeneous of `grade`."""
    if grade is None:
        exps = st.tuples(*[st.integers(0, 2)] * lay.nvars)
        keys = st.tuples(st.integers(0, 1), exps, exps).map(lambda parts: K(*parts))
    else:
        keys = st.sampled_from(list(iter_monomials(lay.nvars, grade + 2, grade + 2)))
    terms = draw(st.dictionaries(keys, gaussian_rationals(), max_size=max_terms))
    return WeightedPolynomial(lay, EXACT, terms)


@st.composite
def bracket_cases(draw):
    lay = draw(st.sampled_from(LAYOUTS))
    max_grade = draw(st.none() | st.integers(-1, 5))
    return draw(exact_poly(lay)), draw(exact_poly(lay)), max_grade


@st.composite
def series_cases(draw):
    """(generators, p, max_grade): generators homogeneous of grades 1-3."""
    lay = draw(st.sampled_from(LAYOUTS))
    max_grade = draw(st.integers(1, 4 if lay.nvars < 3 else 3))
    grades = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
    gens = [draw(exact_poly(lay, grade=g, max_terms=3)) for g in grades]
    p = draw(exact_poly(lay, max_terms=4))
    return gens, p, max_grade


@settings(max_examples=100, deadline=None)
@given(bracket_cases())
def test_exact_bracket_equals_the_oracle(case):
    a, b, max_grade = case
    got = bracket(a, b, max_grade)
    assert got == oracle.bracket(a, b, max_grade)
    assert all(type(c) is GaussianRational for c in got.poly.terms.values())


@settings(max_examples=60, deadline=None)
@given(series_cases())
def test_exact_ad_exponential_equals_the_oracle(case):
    gens, p, max_grade = case
    for b in gens:
        got = ad_exponential(b, p, max_grade)
        assert got == oracle.ad_exponential(b, p, max_grade)
        p = got


@settings(max_examples=40, deadline=None)
@given(series_cases())
def test_apply_inverse_undoes_the_exact_series(case):
    gens, p, max_grade = case
    forward = p
    for b in gens:
        forward = ad_exponential(b, forward, max_grade)
    zero = WeightedPolynomial.zero(p.layout)
    res = NormalFormResult(forward, tuple(gens), zero, zero, max_grade)
    assert res.apply_inverse(forward) == p.truncate_grade(max_grade)


def test_exact_series_runs_no_gaussian_rational_operator(monkeypatch):
    lay = LAYOUTS[1]
    b = WeightedPolynomial(lay, EXACT, {K(0, (1, 1), (1, 0)): GaussianRational(Fraction(2, 3), 1),
                                        K(1, (0, 1), (0, 0)): Fraction(-5, 7)})
    p = WeightedPolynomial(lay, EXACT, {K(1, (0, 0), (0, 0)): -1, K(0, (1, 0), (1, 0)): Fraction(1, 3),
                                        K(0, (0, 1), (0, 1)): GaussianRational(0, Fraction(1, 5))})
    want = oracle.ad_exponential(b, p, 4)

    def refuse(*args):
        raise AssertionError("GaussianRational operator inside the series")

    for op in ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
               "__mul__", "__rmul__", "__truediv__", "__rtruediv__"):
        monkeypatch.setattr(GaussianRational, op, refuse)
    got = ad_exponential(b, p, 4)
    monkeypatch.undo()
    assert len(got) > len(p) and got == want


SIGNED = [0.0, -0.0, 1.5, -0.25, 1e-300, -3.0, 0.1]


@st.composite
def floating_cases(draw):
    lay = draw(st.sampled_from(LAYOUTS))
    exps = st.tuples(*[st.integers(0, 2)] * lay.nvars)
    keys = st.tuples(st.integers(0, 1), exps, exps).map(lambda parts: K(*parts))
    coeffs = st.builds(complex, st.sampled_from(SIGNED) | st.floats(-4, 4),
                       st.sampled_from(SIGNED) | st.floats(-4, 4))
    a, b = (WeightedPolynomial(lay, FLOATING, draw(st.dictionaries(keys, coeffs, max_size=5)))
            for _ in range(2))
    return a, b, draw(st.none() | st.integers(0, 4))


def term_reprs(p):
    return [(key, repr(c)) for key, c in p.poly.terms.items()]


@settings(max_examples=100, deadline=None)
@given(floating_cases())
def test_floating_bracket_is_the_oracle_repr_for_repr(case):
    a, b, max_grade = case
    assert term_reprs(bracket(a, b, max_grade)) == term_reprs(oracle.bracket(a, b, max_grade))


def test_floating_bracket_keeps_signed_zeros():
    # {{y, mu}} at n = 2 with signed zero parts: a -0.0 part must stay -0.0, not 0.0
    lay = LAYOUTS[0]
    a = WeightedPolynomial(lay, FLOATING, {K(0, (1,), (0,)): complex(-0.0, 2.0)})
    b = WeightedPolynomial(lay, FLOATING, {K(0, (0,), (1,)): complex(1.0, -0.0)})
    got, want = bracket(a, b), oracle.bracket(a, b)
    assert term_reprs(got) == term_reprs(want) and "-0" in repr(got.poly.terms)


@pytest.mark.parametrize("lay", LAYOUTS)
def test_floating_ad_exponential_is_the_oracle_repr_for_repr(lay):
    b = WeightedPolynomial(lay, FLOATING, {key: complex(0.3 * i - 0.5, -0.0 if i % 2 else 0.7)
                                           for i, key in enumerate(iter_monomials(lay.nvars, 3, 3))})
    p = WeightedPolynomial(lay, FLOATING, {key: complex(1.0 / (i + 1), 0.0)
                                           for i, key in enumerate(iter_monomials(lay.nvars, 2, 2))})
    assert term_reprs(ad_exponential(b, p, 3)) == term_reprs(oracle.ad_exponential(b, p, 3))
