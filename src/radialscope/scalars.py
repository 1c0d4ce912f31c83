"""Exact Gaussian-rational scalars and rational square roots.

The normal-form cancellations in this package are tested to equality, so
the default coefficient field is Q(i).  A Gaussian rational is stored as
machine integers, a numerator pair over one reduced denominator (as in
FLINT's fmpq), so the hot products and sums of the bracket work on Python
ints and never build a Fraction.  Floating complex is used only where
eigenvalue data is irrational.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

Rat = Union[int, Fraction]

_gcd = math.gcd


class GaussianRational:
    """A complex number (r + i*I)/d with exact rational parts.

    The three slots are ints with d > 0 and gcd(r, i, d) = 1, so every
    value has one stored form and `==` compares slots.  Each result takes
    at most one gcd.  Fast paths: a plain int operand (the bracket's
    integer multipliers), a Fraction operand taken as (p, 0, q), sums over
    equal denominators and products of two real values.  `re` and `im`
    build a Fraction only when read.
    """

    __slots__ = ("_r", "_i", "_d")

    def __init__(self, re: Rat = 0, im: Rat = 0):
        if type(re) is int and type(im) is int:
            self._r, self._i, self._d = re, im, 1
            return
        re, im = Fraction(re), Fraction(im)
        qr, qi = re.denominator, im.denominator
        # the lcm of two reduced denominators leaves no factor common to all three
        d = qr // _gcd(qr, qi) * qi
        self._r, self._i, self._d = re.numerator * (d // qr), im.numerator * (d // qi), d

    @property
    def re(self) -> Fraction:
        return Fraction(self._r, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._i, self._d)

    @classmethod
    def from_ints(cls, re: int, im: int, d: int) -> "GaussianRational":
        """The value (re + im*I)/d of three ints with d > 0, in one gcd."""
        return _reduced(re, im, d)

    @classmethod
    def coerce(cls, value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if type(value) is Fraction:
            return _triple(value.numerator, 0, value.denominator)
        if isinstance(value, (int, Fraction)):
            return cls(value)
        if isinstance(value, complex):
            raise TypeError("cannot coerce a binary float into an exact scalar")
        raise TypeError(f"cannot coerce {type(value).__name__} into GaussianRational")

    def __add__(self, other):
        t = type(other)
        if t is GaussianRational:
            r2, i2, d2 = other._r, other._i, other._d
        elif t is int:
            # gcd(r + k d, i, d) = gcd(r, i, d) = 1
            return _triple(self._r + other * self._d, self._i, self._d)
        else:
            r2, i2, d2 = _parts(other)
        d = self._d
        if d == d2:
            r, i = self._r + r2, self._i + i2
            if d == 1:
                return _triple(r, i, 1)
        else:
            r, i = self._r * d2 + r2 * d, self._i * d2 + i2 * d
            d *= d2
        return _reduced(r, i, d)

    __radd__ = __add__

    def __neg__(self):
        return _triple(-self._r, -self._i, self._d)

    def __sub__(self, other):
        return self + (-GaussianRational.coerce(other))

    def __rsub__(self, other):
        return GaussianRational.coerce(other) + (-self)

    def __mul__(self, other):
        t = type(other)
        if t is GaussianRational:
            r2, i2, d2 = other._r, other._i, other._d
        elif t is int:
            if not other:
                return _triple(0, 0, 1)
            # k/g and d/g are coprime, and gcd(r, i, d) = 1 carries over
            g = _gcd(other, self._d)
            if g != 1:
                other //= g
                return _triple(self._r * other, self._i * other, self._d // g)
            return _triple(self._r * other, self._i * other, self._d)
        else:
            r2, i2, d2 = _parts(other)
        r1, i1 = self._r, self._i
        d = self._d * d2
        if not i1 and not i2:
            r = r1 * r2
            if d == 1:
                return _triple(r, 0, 1)
            g = _gcd(r, d)
            return _triple(r // g, 0, d // g)
        return _reduced(r1 * r2 - i1 * i2, r1 * i2 + i1 * r2, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is int:
            r2, i2, d2 = other, 0, 1
        else:
            r2, i2, d2 = _parts(other)
        r1, i1 = self._r, self._i
        if not i2:
            if not r2:
                raise ZeroDivisionError("division by zero GaussianRational")
            if r2 < 0:
                r2, d2 = -r2, -d2
            return _reduced(r1 * d2, i1 * d2, self._d * r2)
        # (r1 + i1 I)(r2 - i2 I) d2 / (d1 |r2 + i2 I|^2)
        return _reduced((r1 * r2 + i1 * i2) * d2, (i1 * r2 - r1 * i2) * d2,
                        self._d * (r2 * r2 + i2 * i2))

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) / self

    def __eq__(self, other):
        if type(other) is int:
            return not self._i and self._d == 1 and self._r == other
        try:
            return (self._r, self._i, self._d) == _parts(other)
        except TypeError:
            return NotImplemented

    def __hash__(self):
        # a real value equals its int or Fraction, so it hashes as they do
        if self._i:
            return hash((self._r, self._i, self._d))
        return hash(self._r) if self._d == 1 else hash(Fraction(self._r, self._d))

    def __bool__(self):
        return bool(self._r or self._i)

    def conjugate(self) -> "GaussianRational":
        return _triple(self._r, -self._i, self._d)

    def __complex__(self) -> complex:
        # int / int rounds the exact quotient, as float(Fraction) does
        return complex(self._r / self._d, self._i / self._d)

    def __repr__(self):
        re, im = self.re, self.im
        if im == 0:
            return f"{re}"
        if re == 0:
            return f"{im}*i"
        sign = "+" if im > 0 else "-"
        return f"({re}{sign}{abs(im)}*i)"


_new = object.__new__


def _parts(value) -> tuple[int, int, int]:
    """The stored triple of an exact scalar; a Fraction p/q gives (p, 0, q)."""
    if type(value) is Fraction:
        return value.numerator, 0, value.denominator
    value = GaussianRational.coerce(value)
    return value._r, value._i, value._d


def _triple(r: int, i: int, d: int) -> GaussianRational:
    """The value (r + i*I)/d from a triple that is already canonical."""
    z = _new(GaussianRational)
    z._r, z._i, z._d = r, i, d
    return z


def _reduced(r: int, i: int, d: int) -> GaussianRational:
    """The value (r + i*I)/d for d > 0, divided by gcd(r, i, d)."""
    g = _gcd(r, i, d)
    if g != 1:
        r, i, d = r // g, i // g, d // g
    return _triple(r, i, d)


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
