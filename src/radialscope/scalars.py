"""Exact Gaussian-rational scalars and rational square roots.

The normal-form cancellations in this package are tested to equality, so
the default coefficient field is Q(i) with Fraction components.  Floating
complex is used only where eigenvalue data is irrational.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

Rat = Union[int, Fraction]

_FRACTION_ZERO = Fraction(0)


class GaussianRational:
    """A complex number with exact rational real/imaginary parts.

    Sums and products of two real values (both imaginary parts 0) take one
    Fraction operation; real-block exact models produce only such values.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: Rat = 0, im: Rat = _FRACTION_ZERO):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    @classmethod
    def coerce(cls, value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(value)
        if isinstance(value, complex):
            raise TypeError("cannot coerce a binary float into an exact scalar")
        raise TypeError(f"cannot coerce {type(value).__name__} into GaussianRational")

    def __add__(self, other):
        other = GaussianRational.coerce(other)
        if not self.im and not other.im:
            return GaussianRational(self.re + other.re, _FRACTION_ZERO)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-GaussianRational.coerce(other))

    def __rsub__(self, other):
        return GaussianRational.coerce(other) + (-self)

    def __mul__(self, other):
        other = GaussianRational.coerce(other)
        if not self.im and not other.im:
            return GaussianRational(self.re * other.re, _FRACTION_ZERO)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussianRational.coerce(other)
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) / self

    def __eq__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if self.im == 0:
            return f"{self.re}"
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}*i)"


ZERO = GaussianRational(0)
ONE = GaussianRational(1)


def rational_sqrt(value: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if value < 0:
        raise ValueError("rational_sqrt of a negative value")
    if value == 0:
        return Fraction(0)
    num = math.isqrt(value.numerator)
    den = math.isqrt(value.denominator)
    if num * num == value.numerator and den * den == value.denominator:
        return Fraction(num, den)
    return None


def is_exact(value) -> bool:
    """True for scalars that participate in exact-mode arithmetic."""
    return isinstance(value, (int, Fraction, GaussianRational))


def format_fraction(value: Fraction) -> str:
    """Render a Fraction as the wire format "p/q" (always with denominator)."""
    return f"{value.numerator}/{value.denominator}"


def parse_fraction(text: str) -> Fraction:
    return Fraction(text)
