from fractions import Fraction

import pytest

from radialscope.multipoly import MultiPoly
from radialscope.scalars import (GaussianRational, format_fraction, parse_fraction,
                                 rational_sqrt)


def test_gaussian_rational_field_ops():
    a = GaussianRational(Fraction(1, 2), Fraction(3))
    b = GaussianRational(Fraction(-2), Fraction(1, 4))
    assert a + b == GaussianRational(Fraction(-3, 2), Fraction(13, 4))
    assert a * b == GaussianRational(Fraction(1, 2) * Fraction(-2) - 3 * Fraction(1, 4),
                                     Fraction(1, 2) * Fraction(1, 4) + 3 * Fraction(-2))
    assert (a / b) * b == a
    assert a - a == GaussianRational(0)
    assert not GaussianRational(0)
    assert complex(a) == complex(0.5, 3.0)
    assert a.conjugate() == GaussianRational(Fraction(1, 2), Fraction(-3))
    with pytest.raises(ZeroDivisionError):
        a / GaussianRational(0)
    with pytest.raises(TypeError):
        GaussianRational.coerce(0.5)   # binary floats never enter exact mode


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(0)) == 0
    assert rational_sqrt(Fraction(2)) is None
    with pytest.raises(ValueError):
        rational_sqrt(Fraction(-1))


def test_fraction_wire_format():
    assert format_fraction(Fraction(-3, 7)) == "-3/7"
    assert format_fraction(Fraction(5)) == "5/1"
    assert parse_fraction("-3/7") == Fraction(-3, 7)


def test_multipoly_arithmetic_and_calculus():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    p = x * x + y.scale(Fraction(3))
    assert p.diff(0) == x.scale(2)
    assert p.diff(1) == MultiPoly.constant(2, Fraction(3))
    assert (p - p).is_zero()
    # definite integral from 0 in the second variable
    q = (x * y).integrate_zero_to(1)
    assert q == MultiPoly(2, {(1, 2): Fraction(1, 2)})


def test_multipoly_substitute_is_simultaneous():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    # x -> x + y in x^2 y: (x + y)^2 y, even though the value contains x itself
    out = (x * x * y).compose({0: x + y, 1: y}, 2)
    assert out == (x * x + (x * y).scale(2) + y * y) * y
    # swapping the variables needs every value taken from the old ring
    assert (x * y * y).compose({0: y, 1: x}, 2) == y * x * x
    # the target ring may differ: x -> t^2, y -> 3 in Q[t]
    t = MultiPoly.variable(1, 0)
    assert (x * y).compose({0: t * t, 1: MultiPoly.constant(1, Fraction(3))}, 1) \
        == (t * t).scale(3)


def test_multipoly_laurent_guards():
    p = MultiPoly(1, {(-2,): Fraction(1)})
    with pytest.raises(ValueError):
        p.integrate_zero_to(0)
    with pytest.raises(ValueError):
        p.compose({0: MultiPoly.variable(1, 0)}, 1)
    # Laurent multiplication itself is fine
    q = p * MultiPoly(1, {(3,): Fraction(2)})
    assert q == MultiPoly(1, {(1,): Fraction(2)})


def test_multipoly_map_vars():
    p = MultiPoly(2, {(1, 2): Fraction(5)})
    q = p.map_vars([2, 0], 3)
    assert q == MultiPoly(3, {(2, 0, 1): Fraction(5)})


def test_weighted_polynomial_pow():
    from radialscope.symalg import VariableLayout, WeightedPolynomial
    lay = VariableLayout(n=2)
    y = WeightedPolynomial.y(lay, 0)
    assert y ** 3 == y * y * y
    assert y ** 0 == WeightedPolynomial.monomial(lay, 1)
    with pytest.raises(ValueError):
        y ** -1
