"""The package's one sparse-polynomial kernel.

A MultiPoly maps flat integer exponent tuples to coefficients of any ring
(Fraction, GaussianRational, complex).  Exponents may be negative, so the
same arithmetic serves the Laurent ring Q[y_1..y_k, X, X^{-1}, T] of the
blown-up log-variable recursion and its certificate (X a root of the
boundary defining function, T = log x) and, through
symalg.WeightedPolynomial, the weighted-graded ring of (nu, y, mu), stored
under keys (a, *alpha, *beta).

Zero coefficients are never stored.  Every operation keeps the insertion
order of its operands' terms, so floating sums are formed in a fixed
order and results are reproducible bit for bit.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Iterable, Mapping


class MultiPoly:
    """Sparse polynomial: dict of exponent tuples -> nonzero coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple, object] | None = None):
        self.nvars = nvars
        self.terms: dict[tuple, object] = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != nvars:
                    raise ValueError("exponent tuple length mismatch")
                if coeff:
                    cur = self.terms.get(exps)
                    val = coeff if cur is None else cur + coeff
                    if val:
                        self.terms[tuple(exps)] = val
                    elif exps in self.terms:
                        del self.terms[exps]

    @classmethod
    def of(cls, nvars: int, terms: dict[tuple, object]) -> "MultiPoly":
        """An instance that owns `terms` as they are: tuples of length nvars,
        no zero coefficients.  For results of the kernel's own operations;
        other input goes through __init__, which checks and merges."""
        out = object.__new__(cls)
        out.nvars, out.terms = nvars, terms
        return out

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, j: int) -> "MultiPoly":
        exps = [0] * nvars
        exps[j] = 1
        return cls(nvars, {tuple(exps): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, MultiPoly) and self.nvars == other.nvars \
            and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def _same_ring(self, other: "MultiPoly"):
        if self.nvars != other.nvars:
            raise ValueError("exponent tuple length mismatch")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._same_ring(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            cur = out.get(exps)
            val = c if cur is None else cur + c
            if val:
                out[exps] = val
            elif cur is not None:
                del out[exps]
        return MultiPoly.of(self.nvars, out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly.of(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            return self.scale(other)
        self._same_ring(other)
        out: dict[tuple, object] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(map(add, e1, e2))
                c = c1 * c2
                cur = out.get(key)
                c = c if cur is None else cur + c
                if c:
                    out[key] = c
                elif cur is not None:
                    del out[key]
        return MultiPoly.of(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "MultiPoly":
        """Repeated product from the constant Fraction(1)."""
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only nonnegative integer powers")
        out = MultiPoly.constant(self.nvars, Fraction(1))
        for _ in range(exponent):
            out = out * self
        return out

    def scale(self, scalar) -> "MultiPoly":
        # a floating product can underflow to 0
        return MultiPoly.of(self.nvars, {e: v for e, c in self.terms.items()
                                         if (v := c * scalar)})

    def map_coeffs(self, fn) -> "MultiPoly":
        """Apply fn to every coefficient; terms mapped to 0 are dropped."""
        return MultiPoly.of(self.nvars, {e: v for e, c in self.terms.items() if (v := fn(c))})

    def diff(self, j: int) -> "MultiPoly":
        out = {}
        for exps, c in self.terms.items():
            e = exps[j]
            if e:
                key = exps[:j] + (e - 1,) + exps[j + 1:]
                out[key] = c * e
        return MultiPoly.of(self.nvars, out)

    def integrate_zero_to(self, j: int) -> "MultiPoly":
        """Definite integral over variable j from 0 to (the same variable).

        Valid for polynomial dependence (no negative powers of j):
        c * v^k -> c * v^{k+1} / (k + 1).
        """
        out = {}
        for exps, c in self.terms.items():
            e = exps[j]
            if e < 0:
                raise ValueError("cannot integrate a Laurent power")
            key = exps[:j] + (e + 1,) + exps[j + 1:]
            out[key] = c * Fraction(1, e + 1)
        return MultiPoly.of(self.nvars, out)

    def compose(self, args: Mapping[int, "MultiPoly"], nvars: int) -> "MultiPoly":
        """Replace every variable j by args[j] at once, in a ring of nvars variables.

        Variables that occur must have a value in args; Laurent (negative)
        powers cannot be substituted into.
        """
        out = MultiPoly.zero(nvars)
        for exps, c in self.terms.items():
            term = MultiPoly.constant(nvars, c)
            for j, e in enumerate(exps):
                if e < 0:
                    raise ValueError("cannot substitute into a Laurent power")
                for _ in range(e):
                    term = term * args[j]
            out = out + term
        return out

    def degree_in(self, j: int) -> int:
        return max((exps[j] for exps in self.terms), default=0)

    def map_vars(self, mapping: Iterable[int], new_nvars: int) -> "MultiPoly":
        """Re-embed into a ring with new_nvars variables; mapping[j] is the new index."""
        mapping = list(mapping)
        out = {}
        for exps, c in self.terms.items():
            key = [0] * new_nvars
            for j, e in enumerate(exps):
                if e:
                    key[mapping[j]] += e
            out[tuple(key)] = c
        return MultiPoly(new_nvars, out)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms):
            c = self.terms[exps]
            body = "*".join(f"v{j}^{e}" for j, e in enumerate(exps) if e) or "1"
            parts.append(f"({c})*{body}")
        return " + ".join(parts)

    __repr__ = __str__
