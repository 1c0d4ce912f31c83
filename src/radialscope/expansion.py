"""Asymptotic-expansion templates at outgoing radial points.

The microlocal eigenfunction expansions are parameterized by: complex
powers of the boundary defining function built from the exponent data
(b~, B, d, a_{beta'}), harmonic-oscillator eigenvalues kappa_k of the
cross-term-shifted quadratic Q~ = Q - (YD + DY)/4, and, at effectively
resonant points, log-shifted blow-up variables Y_j and the integrating
factor exp(-i Psharp_0).  Profiles w are symbolic slots; nothing here
solves a PDE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .multipoly import MultiPoly
from .radial import RadialPoint, classify_radial

from .symalg import EXACT, WeightedPolynomial, compositions, key_parts


class DegenerateOscillatorError(ValueError):
    """pc - q~^2 <= 0: the shifted oscillator has no discrete spectrum."""


class InvalidInputError(ValueError):
    pass


@dataclass(frozen=True)
class OscillatorSpec:
    """Elliptic quadratic Q = p D^2 + 2 q sym(YD) + c Y^2 on one y''' block."""

    p: float
    q: float
    c: float

    def __post_init__(self):
        if not self.p * self.c - self.q * self.q > 0:
            raise InvalidInputError("oscillator block must be elliptic: pc - q^2 > 0")
        if self.p <= 0:
            raise InvalidInputError("normalization requires p > 0")

    @property
    def q_tilde(self) -> float:
        return self.q - 0.25


def oscillator_spectrum(spec: OscillatorSpec, k_max: int) -> tuple[float, ...]:
    """kappa_k = (2k + 1) sqrt(pc - q~^2), k = 0..k_max.

    The Gaussian-phase conjugation exp(i q~ Y^2 / (2p)) removes the cross
    term, leaving p D^2 + (c - q~^2/p) Y^2 whose spectrum is standard.
    """
    disc = spec.p * spec.c - spec.q_tilde ** 2
    if disc <= 0:
        raise DegenerateOscillatorError(
            f"pc - q~^2 = {disc} <= 0; no oscillator spectrum")
    base = math.sqrt(disc)
    kappas = tuple((2 * k + 1) * base for k in range(k_max + 1))
    if not all(map(math.isfinite, kappas)):
        raise OverflowError(f"pc - q~^2 = {disc}: the kappas are not finite")
    return kappas


@dataclass(frozen=True)
class ExponentData:
    """Exponents of the expansion templates at one radial point.

    B = (n-1)/2 - (1/2) sum r''_j - (n-m)/4 and d = -(1/2) sum r'_j; the
    self-adjointness constraint forces Im b~ = B at a source/sink and
    B + d at a saddle.  Re b~ is user input (the subprincipal constant is
    not determined by the symbol data ingested here).
    """

    rp: RadialPoint
    classification: str
    b_tilde: complex
    B: object
    d: object
    re_b_provenance: str
    kappas: tuple[float, ...]
    kappa_indices: tuple[tuple[int, ...], ...]
    a_beta: dict

    def to_json_dict(self) -> dict:
        return {
            "class": self.classification,
            "bTilde": {"re": self.b_tilde.real, "im": self.b_tilde.imag},
            "B": float(self.B),
            "d": float(self.d),
            "reBProvenance": self.re_b_provenance,
            "kappas": list(self.kappas),
            "aBeta": [{"betaPrime": list(bp),
                       "re": a.real, "im": a.imag}
                      for bp, a in sorted(self.a_beta.items())],
        }


def exponent_data(rp: RadialPoint, re_b: float = 0.0, k_max: int = 5,
                  max_beta_prime: int = 2,
                  oscillator_specs: Mapping[int, OscillatorSpec] | None = None) -> ExponentData:
    """Compute (b~, B, d, kappas, a_{beta'}) for a radial point.

    oscillator_specs maps y''' positions to their normalized quadratic
    data; required when the y''' block is nonempty (the explicit Q_j is
    an input at this stage, not derived).  Multiple blocks combine by
    Cartesian sums of their spectra, sorted ascending.
    """
    lay = rp.layout
    classification = classify_radial(rp)
    exact = rp.mode == EXACT

    half = Fraction(1, 2) if exact else 0.5
    quarter = Fraction(1, 4) if exact else 0.25
    sum_rsec = sum((rp.r_list[j] for j in lay.ysecond_indices),
                   Fraction(0) if exact else 0.0)
    sum_rpr = sum((rp.r_list[j] for j in lay.yprime_indices),
                  Fraction(0) if exact else 0.0)
    n, m = lay.n, lay.m
    B = (n - 1) * half - half * sum_rsec - (n - m) * quarter
    d = -half * sum_rpr
    im_b_tilde = B if classification == "sourceSink" else B + d
    b_tilde = complex(float(re_b), float(im_b_tilde))

    third = list(lay.ythird_indices)
    if third:
        if not oscillator_specs or any(j not in oscillator_specs for j in third):
            raise InvalidInputError("y''' block present: oscillator_specs required per block")
        per_block = [oscillator_spectrum(oscillator_specs[j], k_max) for j in third]
        combos = [((), 0.0)]
        for spec_levels in per_block:
            combos = [(idx + (k,), val + spec_levels[k])
                      for idx, val in combos for k in range(len(spec_levels))]
        combos.sort(key=lambda iv: iv[1])
        combos = combos[:k_max + 1]
        kappas = tuple(val for _, val in combos)
        kappa_indices = tuple(idx for idx, _ in combos)
    else:
        kappas = (0.0,)
        kappa_indices = ((),)

    a_beta = {}
    nprime = len(lay.yprime_indices)
    for total in range(max_beta_prime + 1):
        for bp in compositions(nprime, total):
            acc = 0.0
            for pos, e in enumerate(bp):
                if e:
                    acc += e * float(rp.r_list[list(lay.yprime_indices)[pos]])
            a_beta[bp] = complex(-acc, 0.0) + (-1j) * b_tilde
    return ExponentData(rp=rp, classification=classification, b_tilde=b_tilde,
                        B=B, d=d,
                        re_b_provenance="user input (default 0); Im forced by self-adjointness",
                        kappas=kappas, kappa_indices=kappa_indices, a_beta=a_beta)


# -- log variables -----------------------------------------------------------------


@dataclass(frozen=True)
class LogVariableSet:
    """Blown-up variables Y_j = y_j x^{-r_j} - Psharp_j(Y, log x).

    Psharp polynomials live in rings whose variables are the chain's Y
    variables plus t = log x (always the last slot).  The certificate
    records the exact annihilation V(Y_j) = 0 by the model field
    V = x d_x + sum (r_j y_j + P_j(y)) d_{y_j}, verified in the Laurent
    ring Q[y, X^{+-1}, t] with X = x^{1/D}.
    """

    rp: RadialPoint
    sec_positions: tuple[int, ...]
    pr_positions: tuple[int, ...]
    sec_psharp: dict
    pr_psharp: dict
    psharp0: MultiPoly | None
    certificate: dict

    def max_log_power(self) -> int:
        deg = 0
        for store in (self.sec_psharp, self.pr_psharp):
            for ps in store.values():
                deg = max(deg, ps.degree_in(ps.nvars - 1))
        if self.psharp0 is not None:
            deg = max(deg, self.psharp0.degree_in(self.psharp0.nvars - 1))
        return deg


def eff_r_polynomials(rp: RadialPoint, r_eff_r: WeightedPolynomial):
    """Split an effectively resonant remainder into (P_j, P_0) data.

    Terms (0, alpha, e_j) become the coefficient polynomial P_j(y);
    terms (0, alpha'', 0) with no mu factor feed the zeroth-order P_0.
    """
    parts: dict = {}                  # mu index j (None: no mu factor) -> {alpha: coeff}
    for key, coeff in r_eff_r.items():
        a, alpha, beta = key_parts(key)
        if a != 0:
            raise InvalidInputError("effectively resonant terms have a = 0")
        if sum(beta) > 1:
            raise InvalidInputError("effectively resonant terms have |beta| <= 1")
        j = beta.index(1) if any(beta) else None
        parts.setdefault(j, {})[alpha] = coeff
    p_polys = {j: MultiPoly(rp.layout.nvars, t) for j, t in parts.items()}
    return p_polys, p_polys.pop(None, None)


def _validate_homogeneous(poly: MultiPoly, r_all: Sequence[Fraction], target: Fraction,
                          allowed: set[int], what: str):
    for exps, _ in poly.terms.items():
        deg = Fraction(0)
        for pos, e in enumerate(exps):
            if e:
                if pos not in allowed:
                    raise InvalidInputError(
                        f"{what} may only involve y positions {sorted(allowed)}")
                deg += e * r_all[pos]
        if deg != target:
            raise InvalidInputError(
                f"{what} monomial {exps} has weighted degree {deg}, expected {target}")


def log_variable_recursion(rp: RadialPoint,
                           p_polys: Mapping[int, MultiPoly] | None = None,
                           p0_poly: MultiPoly | None = None,
                           r_eff_r: WeightedPolynomial | None = None) -> LogVariableSet:
    """Build the Psharp polynomials and certify V(Y_j) = 0 exactly.

    Input is either a normal-form effectively resonant remainder
    (r_eff_r) or explicit polynomial data: p_polys[j] is P_j in the full
    y-ring (positions 0..n-2), p0_poly is P_0.  Requires rational r_j on
    the real blocks.  The y'' chain is built ascending, the y' chain
    descending, each Psharp by exact integration in t.
    """
    if r_eff_r is not None:
        if p_polys or p0_poly:
            raise InvalidInputError("pass either r_eff_r or explicit polynomials, not both")
        p_polys, p0_poly = eff_r_polynomials(rp, r_eff_r)
    p_polys = dict(p_polys or {})
    lay = rp.layout
    nvars = lay.nvars
    r_all = []
    for j in range(nvars):
        r = rp.r_list[j]
        if j in lay.ythird_indices:
            r_all.append(None)
        else:
            if not isinstance(r, (int, Fraction)):
                raise InvalidInputError("log-variable recursion requires rational r_j")
            r_all.append(Fraction(r))

    sec = list(lay.ysecond_indices)
    pr = list(lay.yprime_indices)
    for j, poly in p_polys.items():
        if j in sec:
            allowed = {k for k in sec if k < j}
            _validate_homogeneous(poly, r_all, r_all[j], allowed, f"P_{j + 1} (y'' chain)")
            for exps, _ in poly.terms.items():
                if sum(exps) < 2:
                    raise InvalidInputError("y'' chain P_j has no constant or linear terms")
        elif j in pr:
            allowed = {k for k in pr if k > j}
            _validate_homogeneous(poly, r_all, r_all[j], allowed, f"P_{j + 1} (y' chain)")
        else:
            raise InvalidInputError("P_j indices must lie in the real blocks")
    if p0_poly is not None:
        _validate_homogeneous(p0_poly, r_all, Fraction(1), set(sec), "P_0")

    def shifted_ys(positions: list[int], psharp: dict) -> dict[int, MultiPoly]:
        """Y + Psharp per position, in the ring (Y over `positions`, t last)."""
        nv = len(positions) + 1
        out = {}
        for slot, pos in enumerate(positions):
            base = MultiPoly.variable(nv, slot)
            out[pos] = base + psharp[pos] if pos in psharp else base
        return out

    def build_chain(positions: list[int], ordered: list[int]):
        """psharp per position, in the ring (Y over `positions`, t last)."""
        nv = len(positions) + 1
        psharp: dict[int, MultiPoly] = {}
        for pos in ordered:
            poly = p_polys.get(pos)
            if poly is None or poly.is_zero():
                continue
            integrand = poly.compose(shifted_ys(positions, psharp), nv)
            psharp[pos] = integrand.integrate_zero_to(nv - 1)
        return psharp

    sec_psharp = build_chain(sec, sorted(sec))
    pr_psharp = build_chain(pr, sorted(pr, reverse=True))

    psharp0 = None
    if p0_poly is not None and not p0_poly.is_zero():
        integrand = p0_poly.compose(shifted_ys(sec, sec_psharp), len(sec) + 1)
        psharp0 = integrand.integrate_zero_to(len(sec))

    certificate = _certify(rp, p_polys, p0_poly, sec, pr, sec_psharp, pr_psharp,
                           psharp0, r_all)
    return LogVariableSet(rp=rp, sec_positions=tuple(sec), pr_positions=tuple(pr),
                          sec_psharp=sec_psharp, pr_psharp=pr_psharp,
                          psharp0=psharp0, certificate=certificate)


def _certify(rp, p_polys, p0_poly, sec, pr, sec_psharp, pr_psharp, psharp0, r_all):
    """Exact check that V annihilates every generated Y_j (and the P_0 identity).

    Works in Q[y_0..y_{nv-1}, X, T] with X = x^{1/D} Laurent and T = log x:
    V(y_j) = r_j y_j + P_j(y), V(X) = X/D, V(T) = 1.
    """
    nvars = rp.layout.nvars
    rationals = [r for r in r_all if r is not None]
    denom = 1
    for r in rationals:
        denom = denom * r.denominator // math.gcd(denom, r.denominator)
    NV = nvars + 2
    x_slot, t_slot = nvars, nvars + 1

    def yvar(j):
        return MultiPoly.variable(NV, j)

    def xpow(k: int) -> MultiPoly:
        exps = [0] * NV
        exps[x_slot] = k
        return MultiPoly(NV, {tuple(exps): Fraction(1)})

    def lift(poly: MultiPoly) -> MultiPoly:
        return poly.map_vars(list(range(poly.nvars)), NV)

    def v_apply(f: MultiPoly) -> MultiPoly:
        # x d_x = (X / D) d_X
        out = f.diff(x_slot) * xpow(1).scale(Fraction(1, denom)) + f.diff(t_slot)
        for j in range(nvars):
            if r_all[j] is None:
                continue
            coeff = yvar(j).scale(r_all[j])
            if j in p_polys:
                coeff = coeff + lift(p_polys[j])
            out = out + coeff * f.diff(j)
        return out

    # expand each Y_j into the big ring, in chain dependency order
    y_expr: dict[int, MultiPoly] = {}

    def expand_chain(chain_positions: list[int], ordered: list[int], psharp: dict):
        for pos in ordered:
            dr = int(r_all[pos] * denom)
            base = yvar(pos) * xpow(-dr)
            ps = psharp.get(pos)
            if ps is not None:
                args = {i: y_expr[cp] for i, cp in enumerate(chain_positions) if cp in y_expr}
                args[len(chain_positions)] = MultiPoly.variable(NV, t_slot)
                base = base - ps.compose(args, NV)
            y_expr[pos] = base

    expand_chain(sec, sorted(sec), sec_psharp)
    expand_chain(pr, sorted(pr, reverse=True), pr_psharp)

    cert = {}
    for pos in sec + pr:
        cert[f"Y_{pos + 1}"] = v_apply(y_expr[pos]).is_zero()
    if psharp0 is not None:
        args = {i: y_expr[cp] for i, cp in enumerate(sec)}
        args[len(sec)] = MultiPoly.variable(NV, t_slot)
        p0_expr = psharp0.compose(args, NV)
        target = lift(p0_poly) * xpow(-denom)
        cert["P_0"] = (v_apply(p0_expr) - target).is_zero()
    return cert


# -- templates ------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpansionTerm:
    exponent: complex
    log_power: int
    beta_prime: tuple[int, ...]
    k: int
    profile: str

    def to_json_dict(self) -> dict:
        return {"exponent": {"re": self.exponent.real, "im": self.exponent.imag},
                "logPower": self.log_power, "betaPrime": list(self.beta_prime),
                "k": self.k, "profile": self.profile}


@dataclass(frozen=True)
class ExpansionTemplate:
    rp: RadialPoint
    classification: str
    terms: tuple[ExpansionTerm, ...]
    decay_note: str
    certificates: dict

    def to_json_dict(self) -> dict:
        return {"class": self.classification,
                "terms": [t.to_json_dict() for t in self.terms],
                "decayNote": self.decay_note,
                "certificates": {k: bool(v) for k, v in self.certificates.items()}}


def expansion_template(rp: RadialPoint, exponents: ExponentData, k_max: int,
                       max_beta_prime: int,
                       eff_r: LogVariableSet | None = None) -> ExpansionTemplate:
    """The complete term list of the microlocal expansion template.

    Source/sink: x^{-i b~ - i kappa_k} w_k(Y'') v_k(Y''').  Saddle:
    x^{a_{beta'} - i kappa_k} (y')^{beta'} w_{beta',k}(Y'') v_k(Y''').
    Effectively resonant points carry the same exponents with profiles
    composed with exp(-i Psharp_0) and log-shifted Y variables; the
    logPower field bounds the power of log x introduced.
    """
    classification = exponents.classification
    kappas = exponents.kappas[:k_max + 1]
    log_power = eff_r.max_log_power() if eff_r is not None else 0
    shift_note = ""
    if eff_r is not None:
        shift_note = ", Y log-shifted"
        if eff_r.psharp0 is not None:
            shift_note = ", profile * exp(-i*Psharp0)" + ", Y log-shifted"

    terms = []
    if classification == "sourceSink":
        for k, kap in enumerate(kappas):
            expo = -1j * (exponents.b_tilde + kap)
            terms.append(ExpansionTerm(
                exponent=expo, log_power=log_power, beta_prime=(),
                k=k, profile=f"w[{k}](Y'') * v[{k}](Y''')" + shift_note))
        decay_note = "leading order x^{-i b~}; L2-borderline x^{-1/2}"
    else:
        for bp, a in sorted(exponents.a_beta.items(), key=lambda kv: (sum(kv[0]), kv[0])):
            if sum(bp) > max_beta_prime:
                continue
            for k, kap in enumerate(kappas):
                expo = a - 1j * kap
                terms.append(ExpansionTerm(
                    exponent=expo, log_power=log_power, beta_prime=bp,
                    k=k, profile=f"(y')^{list(bp)} * w[{list(bp)},{k}](Y'') * v[{k}](Y''')"
                                 + shift_note))
        decay_note = "saddle: all microlocally outgoing solutions lie in x^{-1/2+eps} L2"
    terms.sort(key=lambda t: (t.exponent.real, sum(t.beta_prime), t.k))
    return ExpansionTemplate(rp=rp, classification=classification,
                             terms=tuple(terms), decay_note=decay_note,
                             certificates=dict(eff_r.certificate) if eff_r else {})
