"""Finite-order normal-form reduction and the numerical Sternberg limit.

Grade by grade, the nonresonant part of the symbol is cancelled by the
time-1 flow of a homogeneous generator b solving the homological equation
{{p0, b}} = -e; what survives is resonant and splits into the effectively
resonant and effectively nonresonant remainders.  The flat error that the
formal stage cannot see is controlled by Nelson's conjugacy argument,
verified here numerically as the limit W_- = lim U(-t) U0(t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Sequence

from .parallel import parallel_map
from .symalg import (FLOATING, ModelQuadratic, MonomialKey, WeightedPolynomial,
                     ad_exponential, iter_monomials, key_parts, weighted_degree)
from .radial import (CriticalPointSpec, ForbiddenEnergyError,
                     RadialPoint, linearization_spectrum)
from .resonance import (DEFAULT_FLOAT_TOL, EFF_NONRES, block_class, is_resonant,
                        scan_effectively_resonant_energies)

# numpy is imported in the functions that use it: the family coefficients and
# the Nelson limit, which no exact reduction needs
if TYPE_CHECKING:
    import numpy as np


# floating tolerances that decide no resonance and do not follow the resonance
# tol: grade <= 0 differences from the model up to _MODEL_TOL pass the model
# check, and coefficients up to _CHOP_TOL are dropped after each stage
_MODEL_TOL = 100 * DEFAULT_FLOAT_TOL
_CHOP_TOL = DEFAULT_FLOAT_TOL * 1e-2


class ModelMismatchError(ValueError):
    """Input symbol does not start at the model quadratic."""


class ThresholdModelError(ValueError):
    """Homological solve refused: some r_j = 1/2."""


@dataclass(frozen=True)
class HomologicalSolution:
    b: WeightedPolynomial
    residual: WeightedPolynomial


def solve_homological(model: ModelQuadratic, e: WeightedPolynomial,
                      tol: float = DEFAULT_FLOAT_TOL,
                      keep: set[MonomialKey] | None = None) -> HomologicalSolution:
    """Solve {{p0, b}} = e modulo resonant terms, in the nu-monomial eigenbasis.

    Requires a real-block model (where nu^a y^alpha mu^beta is an exact
    eigenbasis) and e homogeneous of grade >= 1.  The generator b has no
    component on resonant monomials (minimal-norm convention); the
    residual is exactly the resonant part of e, and every other term is
    divided by its R (ModelQuadratic.eigenvalue).  Resonance is the model's
    weights' vanishes test: on integer forms at an exact model, |R / lam|
    <= tol at a floating one.  A keep set replaces the resonance test:
    exactly its monomials go to the residual.
    """
    if not model.layout.is_real_block:
        raise ValueError("homological solve requires a real-block model")
    if any(r == Fraction(1, 2) or (not isinstance(r, Fraction)
                                   and abs(float(r) - 0.5) < DEFAULT_FLOAT_TOL)
           for r in model.r_list):
        raise ThresholdModelError("model has r_j = 1/2; homological equation degenerates")
    if e.is_zero():
        zero = WeightedPolynomial.zero(e.layout, e.mode)
        return HomologicalSolution(zero, zero)
    l = e.homogeneous_grade()
    if l < 1:
        raise ValueError(f"homological input must have grade >= 1, got {l}")
    w = model.weights
    b_terms = {}
    resid_terms = {}
    for key, coeff in e.items():
        resonant = key in keep if keep is not None else w.vanishes(key, tol)
        if resonant:
            resid_terms[key] = coeff
        else:
            q = coeff / model.eigenvalue(key)
            if q:       # a floating quotient can underflow to 0, which is not stored
                b_terms[key] = q
    return HomologicalSolution(e._from_terms(b_terms), e._from_terms(resid_terms))


@dataclass(frozen=True)
class NormalFormResult:
    """Outcome of the staged reduction to grade N.

    p_norm - p0 is supported on resonant monomials only (exact mode); the
    stage-l generator b_l satisfies {{p0, b_l}} = -(nonresonant grade-l
    part), so the first-order pullback correction cancels it.
    """

    p_norm: WeightedPolynomial
    generators: tuple[WeightedPolynomial, ...]
    r_eff_r: WeightedPolynomial
    r_eff_nr: WeightedPolynomial
    residual_grade: int

    def apply_inverse(self, q: WeightedPolynomial) -> WeightedPolynomial:
        """Undo the reduction: exponentials in reverse order, negated generators."""
        out = q
        for b in reversed(self.generators):
            out = ad_exponential(-b, out, self.residual_grade)
        return out

    def to_json_dict(self) -> dict:
        return {
            "pNorm": self.p_norm.to_json_dict(),
            "generators": [b.to_json_dict() for b in self.generators],
            "rEffR": self.r_eff_r.to_json_dict(),
            "rEffNR": self.r_eff_nr.to_json_dict(),
            "residualGrade": self.residual_grade,
        }


def reduce_to_normal_form(p: WeightedPolynomial, rp: RadialPoint, max_grade: int,
                          tol: float = DEFAULT_FLOAT_TOL,
                          keep: set[MonomialKey] | None = None) -> NormalFormResult:
    """Iterated homological reduction of p to grades <= max_grade.

    Precondition: p has rp's mode (raises ModeMismatchError otherwise)
    and its grade <= 0 part equals the model quadratic of rp (raises
    ModelMismatchError otherwise).  Grade-0 terms are never
    modified; in exact mode every nonresonant monomial of the output
    vanishes identically.  keep, if given, is passed to every
    solve_homological call in place of its resonance test.  In floating
    mode tol decides resonance in the solve and in the remainder split
    alike.
    """
    if max_grade < 1:
        raise ValueError("max_grade must be >= 1")
    if not rp.layout.is_real_block:
        raise ValueError("reduction requires a real-block radial point "
                         "(the nu-monomial eigenbasis is exact only there)")
    model = rp.model_quadratic()
    p0 = model.p0()
    # exact: no difference at all (chop is a no-op); floating: none above _MODEL_TOL
    if not (p.truncate_grade(0) - p0).chop(_MODEL_TOL).is_zero():
        raise ModelMismatchError(
            "grade <= 0 part of p must equal the model quadratic of the radial point")

    current = p.truncate_grade(max_grade)
    generators = []
    for l in range(1, max_grade + 1):
        e_l = current.grade_part(l)
        sol = solve_homological(model, -e_l, tol, keep) if not e_l.is_zero() else None
        if sol is None or sol.b.is_zero():
            generators.append(WeightedPolynomial.zero(p.layout, p.mode))
            continue
        generators.append(sol.b)
        current = ad_exponential(sol.b, current, max_grade).chop(_CHOP_TOL)

    # grade <= 0 noise that passed the model check is no remainder term
    effr_terms, effnr_terms = {}, {}
    for key, coeff in (current - p0).items():
        if weighted_degree(key) < 3:
            continue
        if is_resonant(key, rp, tol) and block_class(key, rp.layout) != EFF_NONRES:
            effr_terms[key] = coeff
        else:
            effnr_terms[key] = coeff
    return NormalFormResult(
        p_norm=current,
        generators=tuple(generators),
        r_eff_r=current._from_terms(effr_terms),
        r_eff_nr=current._from_terms(effnr_terms),
        residual_grade=max_grade,
    )


# -- parameter families ---------------------------------------------------------------


@dataclass(frozen=True)
class FamilyCoefficients:
    """Normal-form coefficients over an energy grid with one fixed index set.

    The fixed set I' contains every index resonant at some grid energy;
    coefficient curves sigma -> c_idx(sigma) are therefore defined on the
    whole interval and smooth, which the divided-difference report checks
    numerically.
    """

    sigma_grid: tuple[float, ...]
    index_set: tuple[MonomialKey, ...]
    coeffs: dict
    divided_differences: dict

    def curve(self, idx: MonomialKey) -> np.ndarray:
        import numpy as np
        return np.asarray(self.coeffs[idx])


def _fixed_index_set(rps: Sequence[RadialPoint], max_degree: int) -> list[MonomialKey]:
    """The fixed set I' from the parameter-family construction, for the
    radial points of one critical point at the grid energies.

    Its complement consists of the never-resonant cases: (1) a + |beta'| = 1
    with alpha'' = alpha''' = beta'' = beta''' = 0; (2)-(3) purely one-sided
    y''' factors; (4) a = 0, beta' = 0, one e''' and one f''' factor and no
    y'' part; (5) a = 0, beta' = beta''' = alpha''' = 0 with
    s_{alpha'' beta''}(sigma) < 1 on the whole grid.  Case (1) for
    a = 0, |beta'| = 1 additionally requires non-effective-resonance, which
    holds because the interval was scanned.
    """
    lay = rps[0].layout
    nvars = lay.nvars
    out = []
    for idx in iter_monomials(nvars, max_degree + 2, min_weighted_degree=3):
        a, alpha, beta = key_parts(idx)
        ap, asec, ath = lay.split(alpha)
        bp, bsec, bth = lay.split(beta)
        if a + sum(bp) == 1 and not any(asec) and not any(ath) and not any(bsec) and not any(bth):
            continue
        if sum(ath) >= 1 and sum(bth) == 0:
            continue
        if sum(bth) >= 1 and sum(ath) == 0:
            continue
        if a == 0 and sum(bp) == 0 and sum(ath) + sum(bth) == 2 \
                and not any(asec) and not any(bsec) and sum(ath) == 1:
            continue
        if a == 0 and sum(bp) == 0 and sum(ath) == 0 and sum(bth) == 0:
            svals = []
            for rp in rps:
                sec = list(rp.layout.ysecond_indices)
                sv = sum(alpha[j] * float(rp.r_list[j]) + beta[j] * (1 - float(rp.r_list[j]))
                         for j in sec)
                svals.append(sv)
            if all(sv < 1.0 for sv in svals):
                continue
        out.append(idx)
    return out


def family_normal_form(cp: CriticalPointSpec, interval: tuple[float, float],
                       max_grade: int, grid_size: int, sign: int = +1,
                       perturbation: WeightedPolynomial | None = None,
                       scan_grid: int = 2000) -> FamilyCoefficients:
    """Smooth-in-sigma reduction with one fixed index set over the interval.

    The interval is scanned first: an effectively resonant energy or a
    Hessian threshold inside raises ForbiddenEnergyError with the
    offending sigma.  At each grid energy the reduction removes exactly
    the complement of the fixed set I', so coefficient curves are
    continuous across plain (non-effective) resonances.
    """
    import numpy as np
    scan = scan_effectively_resonant_energies(cp, interval, sign, grid_points=scan_grid)
    if scan.eff_res_energies:
        s0 = scan.eff_res_energies[0][0]
        raise ForbiddenEnergyError(
            f"interval contains effectively resonant energy sigma = {s0}", s0)
    if scan.thresholds:
        t0 = scan.thresholds[0][0]
        raise ForbiddenEnergyError(
            f"interval contains Hessian threshold sigma = {t0}", t0)

    if grid_size < 1:
        raise ValueError("grid_size must be >= 1")
    lo, hi = float(interval[0]), float(interval[1])
    if grid_size == 1:
        sigmas = [0.5 * (lo + hi)]
    else:
        sigmas = [lo + i * (hi - lo) / (grid_size - 1) for i in range(grid_size)]

    rps = [linearization_spectrum(cp, s, sign) for s in sigmas]
    index_set = _fixed_index_set(rps, max_grade)
    keep = set(index_set)

    def reduce_at(rp: RadialPoint) -> dict:
        p = rp.model_quadratic().p0()
        if perturbation is not None:
            p = p + perturbation.to_mode(FLOATING)
        nf = reduce_to_normal_form(p, rp, max_grade, keep=keep)
        return {idx: complex(nf.p_norm.coefficient(idx)) for idx in index_set}

    per_sigma = parallel_map(reduce_at, rps)
    coeffs = {idx: [row[idx] for row in per_sigma] for idx in index_set}

    dd_report = {}
    if len(sigmas) >= 2:
        h = np.diff(np.asarray(sigmas))
        for idx in index_set:
            c = np.asarray(coeffs[idx])
            d1 = np.abs(np.diff(c) / h)
            dd_report[idx] = {"max_first_dd": float(d1.max()) if d1.size else 0.0}
            if len(sigmas) >= 3:
                d2 = np.abs(np.diff(c, 2) / (h[:-1] * h[1:]))
                dd_report[idx]["max_second_dd"] = float(d2.max()) if d2.size else 0.0
    return FamilyCoefficients(sigma_grid=tuple(sigmas), index_set=tuple(index_set),
                              coeffs=coeffs, divided_differences=dd_report)


# -- Nelson conjugacy -------------------------------------------------------------------


@dataclass
class NelsonCase:
    """A numerical instance of the flat-perturbation conjugacy limit.

    x0_field must be linear outside a compact set with hyperbolic
    linearization; x1_field = X - X0 vanishes to high order at 0.  The
    limit W_- x = lim_{t->inf} U(-t) U0(t) x is taken over samples in the
    contracted invariant subspace E (rows of e_basis; None = the whole
    space).
    """

    dim: int
    x0_field: Callable[[np.ndarray], np.ndarray]
    x1_field: Callable[[np.ndarray], np.ndarray]
    samples: tuple
    e_basis: np.ndarray | None = None
    t_max: float = 12.0
    dt: float = 0.75
    ode_tol: float = 1e-12

    def __post_init__(self):
        import numpy as np
        if self.e_basis is not None:
            basis = np.atleast_2d(np.asarray(self.e_basis, dtype=float))
            for x in self.samples:
                x = np.asarray(x, dtype=float)
                coeff, *_ = np.linalg.lstsq(basis.T, x, rcond=None)
                if np.linalg.norm(basis.T @ coeff - x) > 1e-9 * max(1.0, np.linalg.norm(x)):
                    raise ValueError("sample does not lie in the span of e_basis")

    def full_field(self, x: np.ndarray) -> np.ndarray:
        return self.x0_field(x) + self.x1_field(x)

    def validate_flatness(self, order: int, radius: float = 1e-2,
                          scale: float = 10.0) -> bool:
        """|X1(x)| <= scale * |x|^order on a sample of small radii."""
        import numpy as np
        for k in range(1, 9):
            r = radius / 2 ** k
            x = np.full(self.dim, r / math.sqrt(self.dim))
            if np.linalg.norm(self.x1_field(x)) > scale * r ** order:
                return False
        return True


@dataclass
class NelsonResult:
    w_minus: dict                 # sample index -> limit point
    cauchy_rates: dict            # sample index -> fitted exponential decay rate
    converged: bool
    diagnostics: dict


def _flow(field: Callable, x: np.ndarray, t: float, tol: float) -> np.ndarray:
    """U(t) x, t >= 0, on _dop853 with rtol = atol = tol under MAX_FLOW_STEPS."""
    import numpy as np

    from .dynamics import MAX_FLOW_STEPS, FlowStepError, _dop853
    state = np.asarray(x, dtype=float).tolist()
    try:
        for _, state, _ in _dop853(lambda *z: field(np.array(z)).tolist(), state, t, tol, tol,
                                   MAX_FLOW_STEPS):
            pass
    except FlowStepError as exc:
        raise RuntimeError(f"flow integration failed: {exc}") from exc
    return np.array(state)


def nelson_limit(case: NelsonCase) -> NelsonResult:
    """Numerically converge W_- x = lim U(-t) U0(t) x on the case samples.

    Returns the limit per sample together with the fitted exponential
    decay rate of successive Cauchy differences.  Non-convergence within
    t_max, or a flow that fails (its step budget or step floor, or an
    OverflowError from the field), produces converged=False with partial
    data and the reason in that sample's diagnostics rather than an
    exception.
    """
    import numpy as np
    times = np.arange(case.dt, case.t_max + case.dt / 2, case.dt)

    def converge_sample(x):
        x = np.asarray(x, dtype=float)
        vals = []
        for t in times:
            try:
                z = _flow(case.x0_field, x, float(t), case.ode_tol)
                w = _flow(lambda y: -case.full_field(y), z, float(t), case.ode_tol)
            except (RuntimeError, OverflowError) as exc:
                return (vals[-1] if vals else x), float("nan"), {
                    "converged": False, "stop_time": float(t),
                    "reason": f"{type(exc).__name__}: {exc}"}
            vals.append(w)
        diffs = np.array([np.linalg.norm(b - a) for a, b in zip(vals, vals[1:])])
        if np.all(diffs == 0.0):
            return vals[0], math.inf, {"converged": True, "stop_time": float(times[0]),
                                       "first_diff": 0.0, "min_diff": 0.0}
        # The Cauchy differences decay exponentially until the backward flow
        # starts amplifying integrator roundoff (~ tol * e^{kappa t}); the
        # minimizer marks the optimal truncation of the limit.
        k_star = int(np.argmin(diffs))
        fit_idx = np.arange(0, k_star + 1)
        fit_idx = fit_idx[diffs[fit_idx] > 0]
        if fit_idx.size >= 2:
            slope = np.polyfit(times[1:][fit_idx], np.log(diffs[fit_idx]), 1)[0]
            rate = -float(slope)
        else:
            rate = float("nan")
        converged_i = (not math.isnan(rate) and rate > 0) or diffs[k_star] < 1e-12
        diag = {"first_diff": float(diffs[0]), "min_diff": float(diffs[k_star]),
                "stop_time": float(times[k_star + 1]), "converged": bool(converged_i)}
        return vals[k_star + 1], rate, diag

    results = parallel_map(converge_sample, case.samples)
    w_minus = {i: r[0] for i, r in enumerate(results)}
    rates = {i: r[1] for i, r in enumerate(results)}
    diags = {i: r[2] for i, r in enumerate(results)}
    all_ok = all(d["converged"] for d in diags.values())
    return NelsonResult(w_minus=w_minus, cauchy_rates=rates,
                        converged=all_ok, diagnostics=diags)


def linear_contraction_rate(x0_field: Callable, x: np.ndarray,
                            t_grid: Sequence[float], tol: float = 1e-12) -> float:
    """Fitted decay rate c of ||U0(t) x|| ~ e^{-c t} along the model flow."""
    import numpy as np
    norms = []
    for t in t_grid:
        z = _flow(x0_field, np.asarray(x, dtype=float), float(t), tol)
        norms.append(np.linalg.norm(z))
    slope = np.polyfit(np.asarray(t_grid, dtype=float), np.log(norms), 1)[0]
    return -float(slope)


def flat_perturbation_case_1d(coeff: float = 0.1, power: int = 5,
                              cutoff: float = 1.0, flat_width: float = 0.1,
                              samples: Sequence[float] = (),
                              t_max: float = 12.0) -> NelsonCase:
    """The standard 1-D test case: X0 = -x d/dx with a flat perturbation.

    X1 = coeff * x^power * exp(-flat_width^2 / x^2) * bump(x) vanishes to
    infinite order at 0 (the proposition's hypothesis); the bump is 1 on
    |x| <= cutoff/2 and falls smoothly to 0 at |x| = cutoff, so
    X = X0 + X1 is linear outside a compact set.
    """
    import numpy as np

    def bump(x: float) -> float:
        ax = abs(x)
        if ax <= cutoff / 2:
            return 1.0
        if ax >= cutoff:
            return 0.0
        # smooth step via the standard exp(-1/t) glue
        t = (ax - cutoff / 2) / (cutoff / 2)
        a = math.exp(-1.0 / max(t, 1e-300))
        b = math.exp(-1.0 / max(1.0 - t, 1e-300))
        return b / (a + b)

    def flat(x: float) -> float:
        if x == 0.0:
            return 0.0
        arg = (flat_width / x) ** 2
        return math.exp(-arg) if arg < 700 else 0.0

    def x0(z: np.ndarray) -> np.ndarray:
        return -z

    def x1(z: np.ndarray) -> np.ndarray:
        v = float(z[0])
        if abs(v) >= cutoff:    # v ** power would overflow on a growing backward flow
            return np.array([0.0])
        return np.array([coeff * v ** power * flat(v) * bump(v)])

    if not samples:
        samples = tuple(np.array([s]) for s in (0.9, 0.6, 0.3, -0.45))
    else:
        samples = tuple(np.array([s]) for s in samples)
    return NelsonCase(dim=1, x0_field=x0, x1_field=x1, samples=samples,
                      e_basis=np.array([[1.0]]), t_max=t_max)
