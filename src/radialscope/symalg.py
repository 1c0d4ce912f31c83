"""Weighted-graded polynomial algebra on boundary contact coordinates.

Polynomials live in the variables (nu, y_1..y_{n-1}, mu_1..mu_{n-1}) where
nu carries weight 2 and y, mu carry weight 1.  The grade of a monomial
nu^a y^alpha mu^beta is 2a + |alpha| + |beta| - 2, so the quadratic model
sits at grade 0 and the rescaled bracket is grade-additive.

A monomial's one key is the flat exponent tuple (a, alpha_1..alpha_m,
beta_1..beta_m), m = n - 1, under which the terms live in the package's
sparse-polynomial kernel (multipoly.MultiPoly) and its ring arithmetic.
Only this module knows its layout: monomial_key and key_parts build and
split it, key_json and from_json_dict write and read its report shape.
This module adds the layout, the coefficient mode, the grading, the
canonical term order and the bracket.

The rescaled bracket is {{a, b}} = W_a(b) + (d_nu a) b, with W_a the
Legendre field of a,

    W_a = -(d_nu a)(mu . d_mu) + (mu . d_mu a - a) d_nu
          + sum_j (d_{mu_j} a d_{y_j} - d_{y_j} a d_{mu_j}).

It is computed in closed form on monomial pairs, in one pass.  For
A = nu^a1 y^al1 mu^be1 and B = nu^a2 y^al2 mu^be2, with AB their monomial
product and |be| the mu-degree,

    {{A, B}} = (a1 (1 - |be2|) + a2 (|be1| - 1)) AB / nu
               + sum_j (be1_j al2_j - al1_j be2_j) AB / (y_j mu_j).

Both parts have grade grade(A) + grade(B), so a grade bound skips whole
pairs instead of truncating a finished product.  The bracket is
antisymmetric, satisfies the Jacobi identity and reproduces the monomial
eigenvalue table of the quadratic model, which fixes the convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add
from typing import Iterator, Mapping

from .multipoly import MultiPoly
from .scalars import GaussianRational, format_fraction, is_exact, parse_fraction

MonomialKey = tuple[int, ...]

EXACT = "exact"
FLOATING = "floating"


class ModeMismatchError(ValueError):
    """Raised when exact and floating polynomials are combined."""


@dataclass(frozen=True)
class VariableLayout:
    """Dimension and block partition of the boundary contact coordinates.

    The y/mu index pairs 1..n-1 are split into three blocks:
    y' = 1..s-1 (negative real eigenvalue ratios), y'' = s..m-1 (ratios in
    (0, 1/2)) and y''' = m..n-1 (complex ratio pairs).  Indices here are
    1-based to match the block boundaries s and m; the *_indices helpers
    return 0-based positions into exponent tuples.
    """

    n: int
    s: int | None = None
    m: int | None = None

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("layout requires n >= 2")
        s = self.n if self.s is None else self.s
        m = self.n if self.m is None else self.m
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "m", m)
        if not (1 <= s <= m <= self.n):
            raise ValueError(f"block boundaries must satisfy 1 <= s <= m <= n, got s={s}, m={m}, n={self.n}")

    @property
    def nvars(self) -> int:
        """Number of y (equivalently mu) variables."""
        return self.n - 1

    @property
    def yprime_indices(self) -> range:
        return range(0, self.s - 1)

    @property
    def ysecond_indices(self) -> range:
        return range(self.s - 1, self.m - 1)

    @property
    def ythird_indices(self) -> range:
        return range(self.m - 1, self.n - 1)

    @property
    def is_real_block(self) -> bool:
        return self.m == self.n

    def split(self, exps: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """Split an exponent tuple into (prime, second, third) parts."""
        return (
            tuple(exps[j] for j in self.yprime_indices),
            tuple(exps[j] for j in self.ysecond_indices),
            tuple(exps[j] for j in self.ythird_indices),
        )


def weighted_degree(key: MonomialKey) -> int:
    """2a + |alpha| + |beta| of a key; its grade is this minus 2."""
    return key[0] + sum(key)


def monomial_key(a: int, alpha, beta) -> MonomialKey:
    """The key of nu^a y^alpha mu^beta.  alpha and beta must have one length:
    a short alpha with a long beta has the flat length of a valid key."""
    if len(alpha) != len(beta):
        raise ValueError("exponent tuple length does not match layout")
    return (a, *alpha, *beta)


def key_parts(key: MonomialKey) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """(a, alpha, beta) of a key."""
    m = len(key) // 2
    return key[0], key[1:m + 1], key[m + 1:]


def key_json(key: MonomialKey) -> dict:
    """A key in the report's shape {"a", "alpha", "beta"}; from_json_dict reads it."""
    a, alpha, beta = key_parts(key)
    return {"a": a, "alpha": list(alpha), "beta": list(beta)}


def _checked_key(key: MonomialKey, width: int) -> MonomialKey:
    """key, if it has width non-negative int exponents (bool is no int here)."""
    if len(key) != width:
        raise ValueError("exponent tuple length does not match layout")
    if any(isinstance(e, bool) or not isinstance(e, int) for e in key):
        raise ValueError(f"exponents must be integers, got {key_parts(key)!r}")
    if any(e < 0 for e in key):
        raise ValueError("negative exponent")
    return key


# coefficient type of each mode
_COERCE = {EXACT: GaussianRational.coerce, FLOATING: complex}


class WeightedPolynomial:
    """Sparse polynomial in (nu, y, mu) with the weight-2 grading on nu.

    The terms live in `poly`, a kernel MultiPoly over the 2n - 1 exponents
    of a key; the ring arithmetic is the kernel's.  Immutable by
    convention: all operations return new instances.  Terms with zero
    coefficient are never stored.
    """

    __slots__ = ("layout", "mode", "poly")

    def __init__(self, layout: VariableLayout, mode: str = EXACT,
                 terms: Mapping[MonomialKey, object] | None = None):
        if mode not in (EXACT, FLOATING):
            raise ValueError(f"unknown mode {mode!r}")
        coerce, width = _COERCE[mode], 2 * layout.nvars + 1
        self.layout = layout
        self.mode = mode
        self.poly = MultiPoly(width, {_checked_key(key, width): coerce(coeff)
                                      for key, coeff in (terms or {}).items()})

    # -- construction helpers -------------------------------------------------

    def _of(self, poly: MultiPoly) -> "WeightedPolynomial":
        """A polynomial of self's layout and mode that owns `poly`, a result
        of kernel operations on clean terms; public construction goes
        through __init__, which checks keys and coefficients."""
        out = object.__new__(WeightedPolynomial)
        out.layout, out.mode, out.poly = self.layout, self.mode, poly
        return out

    def _from_terms(self, terms: dict) -> "WeightedPolynomial":
        return self._of(MultiPoly.of(self.poly.nvars, terms))

    @classmethod
    def zero(cls, layout: VariableLayout, mode: str = EXACT) -> "WeightedPolynomial":
        return cls(layout, mode)

    @classmethod
    def monomial(cls, layout: VariableLayout, coeff, a: int = 0,
                 alpha: tuple[int, ...] | None = None,
                 beta: tuple[int, ...] | None = None,
                 mode: str = EXACT) -> "WeightedPolynomial":
        alpha = tuple(alpha) if alpha is not None else (0,) * layout.nvars
        beta = tuple(beta) if beta is not None else (0,) * layout.nvars
        return cls(layout, mode, {monomial_key(a, alpha, beta): coeff})

    @classmethod
    def nu(cls, layout: VariableLayout, mode: str = EXACT) -> "WeightedPolynomial":
        return cls.monomial(layout, 1, a=1, mode=mode)

    @classmethod
    def y(cls, layout: VariableLayout, j: int, mode: str = EXACT) -> "WeightedPolynomial":
        alpha = tuple(1 if k == j else 0 for k in range(layout.nvars))
        return cls.monomial(layout, 1, alpha=alpha, mode=mode)

    @classmethod
    def mu(cls, layout: VariableLayout, j: int, mode: str = EXACT) -> "WeightedPolynomial":
        beta = tuple(1 if k == j else 0 for k in range(layout.nvars))
        return cls.monomial(layout, 1, beta=beta, mode=mode)

    def to_mode(self, mode: str) -> "WeightedPolynomial":
        """The same polynomial with its coefficients coerced to `mode`."""
        out = WeightedPolynomial(self.layout, mode)
        out.poly = self.poly.map_coeffs(_COERCE[mode])
        return out

    # -- inspection ------------------------------------------------------------

    def items(self) -> list[tuple[MonomialKey, object]]:
        """(key, coeff) pairs in the canonical (grade, key) order."""
        return sorted(self.poly.terms.items(), key=lambda kc: (weighted_degree(kc[0]), kc[0]))

    def coefficient(self, key: MonomialKey):
        return self.poly.terms.get(key, GaussianRational(0) if self.mode == EXACT else 0j)

    def is_zero(self) -> bool:
        return not self.poly.terms

    def __len__(self) -> int:
        return len(self.poly.terms)

    def grades(self) -> list[int]:
        return sorted({weighted_degree(key) - 2 for key in self.poly.terms})

    def homogeneous_grade(self) -> int | None:
        """The single grade of a homogeneous polynomial (None for 0)."""
        gs = self.grades()
        if not gs:
            return None
        if len(gs) > 1:
            raise ValueError("polynomial is not weighted-homogeneous")
        return gs[0]

    def __eq__(self, other):
        if not isinstance(other, WeightedPolynomial):
            return NotImplemented
        return self.mode == other.mode and self.poly == other.poly

    def __hash__(self):
        return hash((self.mode, self.poly))

    def __str__(self):
        if not self.poly.terms:
            return "0"
        m = self.layout.nvars
        names = ["nu"] + [f"y{j + 1}" for j in range(m)] + [f"mu{j + 1}" for j in range(m)]
        parts = []
        for key, coeff in self.items():
            factors = [name + (f"^{e}" if e > 1 else "") for name, e in zip(names, key) if e]
            parts.append(f"({coeff})*{'*'.join(factors) if factors else '1'}")
        return " + ".join(parts)

    __repr__ = __str__

    # -- ring operations (the kernel's) -------------------------------------------

    def _check_compatible(self, other: "WeightedPolynomial"):
        if self.mode != other.mode:
            raise ModeMismatchError(f"cannot combine {self.mode} and {other.mode} polynomials")
        if self.layout.n != other.layout.n:
            raise ValueError("layouts have different dimension")

    def __add__(self, other: "WeightedPolynomial") -> "WeightedPolynomial":
        self._check_compatible(other)
        return self._of(self.poly + other.poly)

    def __neg__(self) -> "WeightedPolynomial":
        return self._of(-self.poly)

    def __sub__(self, other: "WeightedPolynomial") -> "WeightedPolynomial":
        return self + (-other)

    def __mul__(self, other) -> "WeightedPolynomial":
        if not isinstance(other, WeightedPolynomial):
            return self.scale(other)
        self._check_compatible(other)
        return self._of(self.poly * other.poly)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "WeightedPolynomial":
        # the kernel's zeroth power is the constant Fraction(1)
        return self._of((self.poly ** exponent).map_coeffs(_COERCE[self.mode]))

    def scale(self, scalar) -> "WeightedPolynomial":
        return self._of(self.poly.scale(_COERCE[self.mode](scalar)))

    def chop(self, tol: float = 0.0) -> "WeightedPolynomial":
        """Drop floating terms with |coeff| <= tol (no-op in exact mode)."""
        if self.mode == EXACT or tol <= 0:
            return self
        return self._from_terms({k: c for k, c in self.poly.terms.items() if abs(c) > tol})

    # -- grading -------------------------------------------------------------------

    def grade_part(self, l: int) -> "WeightedPolynomial":
        return self._from_terms({k: c for k, c in self.poly.terms.items()
                             if k[0] + sum(k) - 2 == l})

    def truncate_grade(self, max_grade: int) -> "WeightedPolynomial":
        return self._from_terms({k: c for k, c in self.poly.terms.items()
                             if k[0] + sum(k) - 2 <= max_grade})

    # -- serialization ----------------------------------------------------------------

    def to_json_dict(self) -> dict:
        terms = []
        for key, coeff in self.items():
            re, im = ((format_fraction(coeff.re), format_fraction(coeff.im))
                      if self.mode == EXACT else (coeff.real, coeff.imag))
            terms.append({**key_json(key), "re": re, "im": im})
        return {"mode": self.mode, "n": self.layout.n,
                "blocks": [self.layout.s, self.layout.m], "terms": terms}

    @classmethod
    def from_json_dict(cls, data: dict) -> "WeightedPolynomial":
        layout = VariableLayout(n=data["n"], s=data["blocks"][0], m=data["blocks"][1])
        mode = cls(layout, data["mode"]).mode      # an unknown mode fails first
        parsed = {}
        for entry in data["terms"]:
            parts = (entry["a"], tuple(entry["alpha"]), tuple(entry["beta"]))
            if mode == EXACT:
                coeff = GaussianRational(parse_fraction(entry["re"]), parse_fraction(entry["im"]))
            else:
                coeff = complex(entry["re"], entry["im"])
            parsed[parts] = coeff
        # all terms parse first, then each key is checked, its parts' lengths first
        width = 2 * layout.nvars + 1
        return cls(layout, mode, {_checked_key(monomial_key(*parts), width): coeff
                                  for parts, coeff in parsed.items()})


def grade_components(p: WeightedPolynomial) -> dict[int, WeightedPolynomial]:
    """Split p into its weighted-homogeneous components, keyed by grade."""
    out: dict[int, dict] = {}
    for key, coeff in p.poly.terms.items():
        out.setdefault(weighted_degree(key) - 2, {})[key] = coeff
    return {l: p._from_terms(terms) for l, terms in sorted(out.items())}


def bracket(a: WeightedPolynomial, b: WeightedPolynomial,
            max_grade: int | None = None) -> WeightedPolynomial:
    """The rescaled Poisson bracket {{a, b}}, monomial pair by monomial pair.

    Uses the closed form of the module docstring on flat keys.  Pairs whose
    grades sum above `max_grade` are skipped, which equals truncating the
    full bracket.  Antisymmetric and grade-additive: for homogeneous inputs
    the result is homogeneous of grade(a) + grade(b).
    """
    a._check_compatible(b)
    limit = math.inf if max_grade is None else max_grade
    m, width = a.layout.nvars, a.poly.nvars
    # per pair (y_j, mu_j): both flat positions and the offsets lowering each by one
    pairs = [(1 + j, 1 + m + j, tuple(-1 if i in (1 + j, 1 + m + j) else 0 for i in range(width)))
             for j in range(m)]
    bterms = [(k2, k2[0], sum(k2[m + 1:]), weighted_degree(k2) - 2, c2)
              for k2, c2 in b.poly.terms.items()]
    out: dict[tuple, object] = {}
    for k1, c1 in a.poly.terms.items():
        a1 = k1[0]
        g1 = weighted_degree(k1) - 2
        nb1 = sum(k1[m + 1:])
        for k2, a2, nb2, g2, c2 in bterms:
            if g1 + g2 > limit:
                continue
            c = c1 * c2
            ab = tuple(map(add, k1, k2))
            k = a1 * (1 - nb2) + a2 * (nb1 - 1)
            if k:
                key = (ab[0] - 1,) + ab[1:]
                cur = out.get(key)
                out[key] = c * k if cur is None else cur + c * k
            for iy, imu, lower in pairs:
                mm = k1[imu] * k2[iy] - k1[iy] * k2[imu]
                if mm:
                    key = tuple(map(add, ab, lower))
                    cur = out.get(key)
                    out[key] = c * mm if cur is None else cur + c * mm
    return a._from_terms({key: c for key, c in out.items() if c})


def ad_exponential(b: WeightedPolynomial, p: WeightedPolynomial, max_grade: int) -> WeightedPolynomial:
    """Pullback of p by the time-1 flow of the Hamilton field of x^{-1} b.

    Computes sum_k (1/k!) ad_b^k(p) with ad_b(q) = {{q, b}}, truncated
    beyond `max_grade`.  Requires b homogeneous of grade >= 1 so that the
    series terminates under truncation; b = 0 returns p unchanged.
    """
    if b.is_zero():
        return p.truncate_grade(max_grade)
    l = b.homogeneous_grade()
    if l is None or l < 1:
        raise ValueError(f"generator must be homogeneous of grade >= 1, got grade {l}")
    result = term = p.truncate_grade(max_grade)
    k = 0
    while not term.is_zero():
        k += 1
        term = bracket(term, b, max_grade).scale(Fraction(1, k))
        result = result + term
    return result


@dataclass(frozen=True)
class ModelQuadratic:
    """The grade-0 model p0 = lam * (-nu + sum r_j y_j mu_j + sum Q_j).

    `r_list[j]` is the eigenvalue ratio of the j-th block (Fraction or
    float for real blocks; complex with real part 1/2 for y''' blocks).
    `quad_blocks[j] = (p, q, c)` gives the elliptic quadratic
    Q_j = p mu_j^2 + 2 q y_j mu_j + c y_j^2 on a y''' block.
    """

    lam: object
    r_list: tuple
    layout: VariableLayout
    quad_blocks: Mapping[int, tuple] = field(default_factory=dict)
    weights: EigenWeights | FloatWeights = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.lam == 0:
            raise ValueError("model requires lam != 0")
        if len(self.r_list) != self.layout.nvars:
            raise ValueError("r_list length must be n - 1")
        for j in self.layout.ythird_indices:
            if j not in self.quad_blocks:
                raise ValueError(f"y''' index {j} needs an elliptic quadratic block")
            p, q, c = self.quad_blocks[j]
            if not p * c - q * q > 0:
                raise ValueError(f"quadratic block {j} is not elliptic")
        object.__setattr__(self, "weights", point_weights(self.lam, self.r_list))

    @property
    def mode(self) -> str:
        return self.weights.mode

    def p0(self) -> WeightedPolynomial:
        mode = self.mode
        layout = self.layout
        poly = -WeightedPolynomial.nu(layout, mode)
        for j in range(layout.nvars):
            if j in layout.ythird_indices:
                p, q, c = self.quad_blocks[j]
                qj = (WeightedPolynomial.mu(layout, j, mode) * WeightedPolynomial.mu(layout, j, mode)).scale(p) \
                    + (WeightedPolynomial.y(layout, j, mode) * WeightedPolynomial.mu(layout, j, mode)).scale(2 * q) \
                    + (WeightedPolynomial.y(layout, j, mode) * WeightedPolynomial.y(layout, j, mode)).scale(c)
                poly = poly + qj
            else:
                poly = poly + (WeightedPolynomial.y(layout, j, mode)
                               * WeightedPolynomial.mu(layout, j, mode)).scale(self.r_list[j])
        return poly.scale(self.lam)

    def eigenvalue(self, key: MonomialKey):
        """R_{a,alpha,beta} = lam (a - 1 + sum alpha_j r_j + sum beta_j (1 - r_j))."""
        return self.lam * self.weights.value(key)


def point_weights(lam, r_list) -> EigenWeights | FloatWeights:
    """The weights of R / lam at the point (lam, r_list), exact or floating.

    A spectrum is exact when lam and every r_j are exact scalars; it gets
    integer weights (EigenWeights), and any other spectrum evaluates its
    r_list in floats (FloatWeights).  This is the one place that decides.
    """
    if is_exact(lam) and all(is_exact(r) for r in r_list):
        return EigenWeights.of(r_list)
    return FloatWeights(tuple(r_list))


@dataclass(frozen=True)
class EigenWeights:
    """The integer weights of an exact point: r_j = (p_j + i q_j) / d, one d > 0.

    For a key (a, alpha, beta), d R / lam has the integer real part

        d (a - 1) + sum_j alpha_j p_j + sum_j beta_j (d - p_j)

    and the integer imaginary part sum_j (alpha_j - beta_j) q_j, nonzero
    only on y''' blocks.  Every exact test of R / lam is a test on these
    two ints, with no tolerance.  FloatWeights has the same interface.
    """

    mode = EXACT

    d: int
    p: tuple[int, ...]
    q: tuple[int, ...]

    @classmethod
    def of(cls, r_list) -> EigenWeights:
        parts = [(g.re, g.im) for g in map(GaussianRational.coerce, r_list)]
        d = math.lcm(*(x.denominator for pair in parts for x in pair))
        return cls(d, tuple(re.numerator * (d // re.denominator) for re, _ in parts),
                   tuple(im.numerator * (d // im.denominator) for _, im in parts))

    def forms(self, key: MonomialKey) -> tuple[int, int]:
        """(Re, Im) of d R / lam at key."""
        d = self.d
        re, im = d * (key[0] - 1), 0
        # zip stops at the m entries of p: key[1:] yields alpha, key[m + 1:] beta
        for al, be, p, q in zip(key[1:], key[len(self.p) + 1:], self.p, self.q):
            re += al * p + be * (d - p)
            im += (al - be) * q
        return re, im

    def vanishes(self, key: MonomialKey, tol: float) -> bool:
        """R / lam = 0 at key: both integer forms are 0; tol is ignored."""
        return self.forms(key) == (0, 0)

    def slack(self, tol: float) -> int:
        """How far from a value a sum may fall and still count as equal: 0."""
        return 0

    def value(self, key: MonomialKey) -> GaussianRational:
        """R / lam at key, from the two forms with one gcd."""
        return GaussianRational.from_ints(*self.forms(key), self.d)


@dataclass(frozen=True)
class FloatWeights:
    """The weights of a floating point: R / lam evaluated on its r_list.

    Like EigenWeights it has r_j = p_j / d on real blocks, with d = 1 and
    p = r_list, so J'' runs one algorithm on either.
    """

    mode = FLOATING
    d = 1

    r_list: tuple

    @property
    def p(self) -> tuple:
        return self.r_list

    def vanishes(self, key: MonomialKey, tol: float) -> bool:
        """|R / lam| <= tol at key."""
        return abs(self.value(key)) <= tol

    def slack(self, tol: float) -> float:
        """How far from a value a sum may fall and still count as equal: tol."""
        return tol

    def value(self, key: MonomialKey):
        return normalized_eigenvalue(key, self.r_list)


def normalized_eigenvalue(key: MonomialKey, r_list):
    """R / lam = a - 1 + sum alpha_j r_j + sum beta_j (1 - r_j), in r_list order.

    FloatWeights.value is this sum, and its order fixes floating report
    bytes.  Exact points do not reach it: their EigenWeights test and
    evaluate R / lam on integer forms.
    """
    acc = key[0] - 1
    for r, al, be in zip(r_list, key[1:], key[len(r_list) + 1:]):
        if al:
            acc = acc + al * r
        if be:
            acc = acc + be * (1 - r)
    return acc


def compositions(length: int, total: int) -> Iterator[tuple[int, ...]]:
    """All nonnegative integer tuples of the given length summing to total.

    Ordered lexicographically (first entry ascending, then the rest).
    """
    if length == 0:
        if total == 0:
            yield ()
        return
    if length == 1:     # the last part is what is left, one tuple
        if total >= 0:
            yield (total,)
        return
    for head in range(total + 1):
        for tail in compositions(length - 1, total - head):
            yield (head,) + tail


def iter_monomials(nvars: int, max_weighted_degree: int,
                   min_weighted_degree: int = 0) -> Iterator[MonomialKey]:
    """All keys (a, *alpha, *beta) with weighted degree in the given range, in
    the order of weighted degree, a, |alpha|, alpha, beta."""
    for w in range(min_weighted_degree, max_weighted_degree + 1):
        for a in range(w // 2 + 1):
            rem = w - 2 * a
            for da in range(rem + 1):
                for alpha in compositions(nvars, da):
                    head = (a,) + alpha
                    for beta in compositions(nvars, rem - da):
                        yield head + beta


def eigen_action_table(model: ModelQuadratic, layout: VariableLayout | None = None,
                       max_grade: int = 4) -> dict[MonomialKey, object]:
    """Eigenvalue R_{a,alpha,beta} for every monomial of grade <= max_grade.

    On a real-block model with e_j = y_j, f_j = mu_j the table is exact:
    {{p0, nu^a y^alpha mu^beta}} = R_{a,alpha,beta} nu^a y^alpha mu^beta.
    With y''' blocks present the identity holds after re-expressing the
    same-grade quadratic defect in the complex eigenbasis.
    """
    layout = layout or model.layout
    return {key: model.eigenvalue(key)
            for key in iter_monomials(layout.nvars, max_grade + 2)}
