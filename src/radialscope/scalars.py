"""Exact Gaussian-rational scalars and rational square roots.

The normal-form cancellations in this package are tested to equality, so
the default coefficient field is Q(i).  A Gaussian rational is stored as
Python ints, a numerator pair over one reduced denominator (as in FLINT's
fmpq).  The bracket, the Lie series and the exact normal form take no
scalar at a time: a whole polynomial goes over one denominator
(common_numerators, as in FLINT's fmpq_poly), symalg and normalform sum,
multiply and divide its int numerators, and from_numerators reduces each
result once.  An exact reduction keeps its polynomial in this form from
the first stage to the last.  Floating complex is used only where
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
    at most one gcd, and an int summand none.  `re` and `im` build a
    Fraction only when read.
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
    def from_ints(cls, re: int, im: int, d: int, d_im: int = 0) -> "GaussianRational":
        """The value (re + im*I)/(d + d_im*I) of four ints, in one gcd."""
        if d_im:
            re, im, d = re * d + im * d_im, im * d - re * d_im, d * d + d_im * d_im
        elif d < 0:
            re, im, d = -re, -im, -d
        elif not d:
            raise ZeroDivisionError("division by zero GaussianRational")
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
        if type(other) is int:
            # gcd(r + k d, i, d) = gcd(r, i, d) = 1
            return _triple(self._r + other * self._d, self._i, self._d)
        r2, i2, d2 = int_parts(other)
        d = self._d
        return _reduced(self._r * d2 + r2 * d, self._i * d2 + i2 * d, d * d2)

    __radd__ = __add__

    def __neg__(self):
        return _triple(-self._r, -self._i, self._d)

    def __sub__(self, other):
        return self + (-GaussianRational.coerce(other))

    def __rsub__(self, other):
        return GaussianRational.coerce(other) + (-self)

    def __mul__(self, other):
        r2, i2, d2 = int_parts(other)
        r1, i1 = self._r, self._i
        return _reduced(r1 * r2 - i1 * i2, r1 * i2 + i1 * r2, self._d * d2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        r2, i2, d2 = int_parts(other)
        return GaussianRational.from_ints(self._r * d2, self._i * d2, self._d * r2, self._d * i2)

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) / self

    def __eq__(self, other):
        if type(other) is int:
            return not self._i and self._d == 1 and self._r == other
        try:
            return (self._r, self._i, self._d) == int_parts(other)
        except TypeError:
            return NotImplemented

    def __hash__(self):
        # a real value equals its int or Fraction, so it hashes as they do
        if self._i:
            return hash((self._r, self._i, self._d))
        return hash(self._r) if self._d == 1 else hash(Fraction(self._r, self._d))

    def __bool__(self):
        return bool(self._r or self._i)

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


def int_parts(value) -> tuple[int, int, int]:
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


def common_numerators(values: dict) -> tuple[dict, dict, int]:
    """The numerator form (re, im, d) of a dict of exact values, values[k] =
    (re[k] + im[k]*I)/d over one d; re and im keep nonzero numerators only."""
    d = math.lcm(*(z._d for z in values.values()))
    return ({k: z._r * (d // z._d) for k, z in values.items() if z._r},
            {k: z._i * (d // z._d) for k, z in values.items() if z._i}, d)


def sum_numerators(*forms: tuple) -> tuple[dict, dict, int]:
    """The sum of numerator forms (re, im, d) as one: the ints are summed over
    the lcm of the d, zero sums dropped, and one gcd of them all divided out."""
    d = math.lcm(*(form[2] for form in forms))
    re, im = {}, {}
    for form in forms:
        scale = d // form[2]
        for part, out in zip(form, (re, im)):
            for k, c in part.items():
                out[k] = out.get(k, 0) + c * scale
    g = math.gcd(d, *re.values(), *im.values())
    return ({k: c // g for k, c in re.items() if c},
            {k: c // g for k, c in im.items() if c}, d // g)


def from_numerators(form: tuple) -> dict:
    """The exact values of a numerator form (re, im, d), one gcd per key."""
    re, im, d = form
    return {k: _reduced(re.get(k, 0), im.get(k, 0), d) for k in {**re, **im}}


def wire_parts(value: GaussianRational) -> tuple[str, str]:
    """The wire strings "p/q" of an exact value's real and imaginary parts,
    read off its stored triple with one gcd each."""
    r, i, d = value._r, value._i, value._d
    g, h = _gcd(r, d), _gcd(i, d)
    return f"{r // g}/{d // g}", f"{i // h}/{d // h}"


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


def parse_fraction(text: str) -> Fraction:
    return Fraction(text)
