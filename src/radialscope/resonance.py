"""Resonant multiindices, their effective classification, and energy scans.

A multiindex (a, alpha, beta) of weighted degree >= 3 is resonant when

    R = lam (a - 1 + sum_j alpha_j r_j + sum_j beta_j (1 - r_j)) = 0.

Resonant indices split into the effectively resonant sets

    I'  : a = 0, alpha'' = beta'' = alpha''' = beta''' = 0, |beta'| = 1,
    I'' : a = 0, alpha' = beta' = alpha''' = beta''' = 0,

which alter leading asymptotics; everything else resonant is effectively
nonresonant and absorbable.  The enumerator scans every monomial and asks
the point's weights (symalg.point_weights) whether R / lam vanishes: on
two integer forms with no tolerance at an exact point, as |R / lam| <= tol
at a floating one.  J'' runs one algorithm on the same weights, as
integers at an exact point.  Energies at which I' or I'' is nonempty form a
discrete set, located here by a sign-change scan plus bisection over the
finitely many defining functions.  The range bound of a function (from
the end values of the monotone r_j) runs on each threshold-free
subinterval and then on each coarse cell of its grid, and the function is
evaluated only on the cells whose bound admits a zero; tangential zeros
are not found.  The test module's orders
s(alpha) serve the reports; its closure under the bracket is a test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, mul
from typing import Sequence

from .roots import brentq
from .symalg import (MonomialKey, VariableLayout, composition_count, compositions,
                     iter_monomials, key_json, key_parts, monomial_count, monomial_key,
                     weighted_degree)
from .radial import CriticalPointSpec, RadialPoint

EFF_R1 = "effR1"
EFF_R2 = "effR2"
EFF_NONRES = "effNonres"

DEFAULT_FLOAT_TOL = 1e-12
DEFAULT_GRID = 10_000
DEFAULT_BISECT_TOL = 1e-10
_NEAR_ZERO = 1e-12
# families per threshold-free subinterval of an energy scan; a scan that
# would enumerate more raises ScanBudgetError before building any.  At the
# ceiling they take about 2.5 s and 100 MB (2-CPU VM); the benchmark's and
# the tests' scans build at most a few hundred
MAX_SCAN_FAMILIES = 100_000
# monomials that enumerate_resonances scans, and (alpha'', beta'') candidates
# that second_index_set visits; each is counted before the scan starts, and
# a count over its ceiling raises ScanBudgetError.  At the ceilings each takes
# about 1.5 s, J'' with some 150 MB for its result (2-CPU VM)
MAX_RESONANCE_MONOMIALS = 1_000_000
MAX_SECOND_INDEX_CANDIDATES = 500_000


class InvalidInputError(ValueError):
    pass


class InvalidIntervalError(ValueError):
    pass


class ScanBudgetError(RuntimeError):
    """A scan whose size, counted before it starts, exceeds its ceiling: the
    energy scan's families (MAX_SCAN_FAMILIES), the monomials of
    enumerate_resonances (MAX_RESONANCE_MONOMIALS) or the candidates of
    second_index_set (MAX_SECOND_INDEX_CANDIDATES)."""


@dataclass(frozen=True)
class ResonanceRecord:
    idx: MonomialKey
    eigenvalue: object
    klass: str

    @property
    def degree(self) -> int:
        return weighted_degree(self.idx)

    def to_json_dict(self) -> dict:
        ev = complex(self.eigenvalue)
        return {**key_json(self.idx), "eigenvalue": {"re": ev.real, "im": ev.imag},
                "class": self.klass}


def is_resonant(idx: MonomialKey, rp: RadialPoint, tol: float = DEFAULT_FLOAT_TOL) -> bool:
    return weighted_degree(idx) >= 3 and rp.weights.vanishes(idx, tol)


def block_class(idx: MonomialKey, layout: VariableLayout) -> str:
    """effR1 (I'), effR2 (I'') or effNonres of a resonant index, by its blocks."""
    a, alpha, beta = key_parts(idx)
    ap, asec, athird = layout.split(alpha)
    bp, bsec, bthird = layout.split(beta)
    if a == 0 and not any(athird) and not any(bthird):
        if not any(asec) and not any(bsec) and sum(bp) == 1:
            return EFF_R1
        if not any(ap) and not any(bp):
            return EFF_R2
    return EFF_NONRES


def enumerate_resonances(rp: RadialPoint, max_degree: int,
                         tol: float = DEFAULT_FLOAT_TOL) -> list[ResonanceRecord]:
    """All resonant (a, alpha, beta) with weighted degree in [3, max_degree].

    Every monomial is scanned and kept when the point's weights say
    R / lam vanishes (tol is ignored at an exact point); below degree 3
    there is none.  Records come in (degree, idx) order.  The finiteness
    bounds enter only in the energy scan.  Raises ScanBudgetError when the
    monomials, counted in closed form first, are more than
    MAX_RESONANCE_MONOMIALS.
    """
    count = monomial_count(rp.n - 1, 3, max_degree)
    if count > MAX_RESONANCE_MONOMIALS:
        raise ScanBudgetError(
            f"resonance enumeration to degree {max_degree} needs {count} monomials, over "
            f"MAX_RESONANCE_MONOMIALS = {MAX_RESONANCE_MONOMIALS}")
    w = rp.weights
    out = [ResonanceRecord(idx=idx, eigenvalue=rp.lam * w.value(idx),
                           klass=block_class(idx, rp.layout))
           for idx in iter_monomials(rp.n - 1, max_degree, min_weighted_degree=3)
           if w.vanishes(idx, tol)]
    out.sort(key=lambda rec: (rec.degree, rec.idx))
    return out


# -- energy scan ------------------------------------------------------------------


@dataclass(frozen=True)
class EnergyScanResult:
    interval: tuple[float, float]
    eff_res_energies: tuple        # of (sigma, idx, residual)
    thresholds: tuple              # of (sigma, hessian_index)
    settings: dict = field(default_factory=dict, compare=False)

    @property
    def min_gap(self) -> float | None:
        sigmas = sorted([s for s, _, _ in self.eff_res_energies] + [s for s, _ in self.thresholds])
        if len(sigmas) < 2:
            return None
        return min(b - a for a, b in zip(sigmas, sigmas[1:]))

    def to_json_dict(self) -> dict:
        roots = [{"sigma": s, "kind": "effres",
                  "witness": key_json(idx),
                  "residual": res}
                 for s, idx, res in self.eff_res_energies]
        roots += [{"sigma": s, "kind": "threshold", "witness": {"hessianIndex": j},
                   "residual": 0.0}
                  for s, j in self.thresholds]
        roots.sort(key=lambda r: (r["sigma"], r["kind"]))
        return {"interval": list(self.interval), "roots": roots,
                "minGap": self.min_gap, "settings": self.settings}


def _r_real(h: float, w: float) -> float:
    """Real branch r = 1/2 - sqrt(1/4 - (h/2)/w); caller guarantees realness."""
    disc = 0.25 - (h / 2.0) / w
    return 0.5 - disc ** 0.5


def _families(hsorted: Sequence[float], neg_pos: Sequence[int], sec_pos: Sequence[int],
              wa: float, wb: float) -> list:
    """The I' and I'' families of a threshold-free subinterval V0 + [wa, wb].

    Each family is (idx, f, weight): f maps r = {block: r_j} to the
    family's value R / lam at its witness idx = (0, alpha, beta), and weight
    counts its r terms with multiplicity.  Raises ScanBudgetError when the
    families, counted in closed form first, are more than MAX_SCAN_FAMILIES.
    """
    nvars = len(hsorted)
    bounds, amax = {}, 0
    if neg_pos:
        rp_lo = {j: _r_real(hsorted[j], wa) for j in neg_pos}
        rp_hi = {j: _r_real(hsorted[j], wb) for j in neg_pos}
        min_abs = min(min(abs(rp_lo[j]), abs(rp_hi[j])) for j in neg_pos)
        # On y' every r_j < 0 and |r_j| is monotone, so a family of
        # total |alpha'| is at most max_abs_k - total * min_abs.  Past
        # bound, total >= bound + 1 > max_abs_k / min_abs + 1e-9, which
        # keeps it below -1e-9 min_abs (less the quotient's rounding,
        # relative 1e-16): no zero there.  The slack only raises bound,
        # by one where the float quotient falls within 1e-9 below an
        # integer, so it adds families and drops none.
        bounds = {k: int(max(abs(rp_lo[k]), abs(rp_hi[k])) / min_abs + 1e-9) for k in neg_pos}
    if sec_pos:
        min_r = min(min(_r_real(hsorted[j], wa), _r_real(hsorted[j], wb)) for j in sec_pos)
        # On y'' 0 < r_j < 1/2, so |beta''| >= 2 already puts the beta part
        # above 1, and with atotal >= amax + 1 > 1 / min_r + 1e-9 the alpha
        # part alone exceeds 1 + 1e-9 min_r: no zero past amax.  As with
        # bound, the slack only adds families.
        amax = int(1.0 / min_r + 1e-9)
    m1, m2 = len(neg_pos), len(sec_pos)
    count = (sum(composition_count(m1, 2, bound) for bound in bounds.values())
             + composition_count(m2, 3, amax) + m2 * composition_count(m2, 2, amax))
    if count > MAX_SCAN_FAMILIES:
        raise ScanBudgetError(
            f"energy scan on sigma - V0 in [{wa}, {wb}] needs {count} families, over "
            f"MAX_SCAN_FAMILIES = {MAX_SCAN_FAMILIES}")

    def embed(positions: Sequence[int], values: Sequence[int]) -> tuple[int, ...]:
        out = [0] * nvars
        for p, v in zip(positions, values):
            out[p] = v
        return tuple(out)

    families = []
    for k, bound in bounds.items():
        for total in range(2, bound + 1):
            for av in compositions(m1, total):
                idx = monomial_key(0, embed(neg_pos, av), embed([k], [1]))

                def f(r, av=av, k=k):
                    return sum(av[i] * r[j] for i, j in enumerate(neg_pos)) - r[k]

                families.append((idx, f, total + 1))
    for btotal in (0, 1):
        for bv in compositions(m2, btotal):
            for atotal in range(max(0, 3 - btotal), amax + 1):
                for av in compositions(m2, atotal):
                    idx = monomial_key(0, embed(sec_pos, av), embed(sec_pos, bv))

                    def f(r, av=av, bv=bv):
                        return sum(av[i] * r[j] + bv[i] * (1.0 - r[j])
                                   for i, j in enumerate(sec_pos)) - 1.0

                    families.append((idx, f, atotal + btotal + 1))
    return families


def _range_bound(idx: MonomialKey, starts: dict, stops: dict,
                 lower=min, upper=max) -> tuple:
    """[lo, hi] enclosing a family's value where each r_j runs monotonically
    from starts[j] to stops[j]: the range-enclosure step of interval
    analysis, in plain floats.  The ends are floats for one interval; for
    arrays of cells pass lower=np.minimum and upper=np.maximum, and lo and
    hi are arrays of cell bounds.

    At a witness (0, alpha, beta) the value R / lam is c0 + sum_j c_j r_j
    with c_j = alpha_j - beta_j and c0 = |beta| - 1; lo and hi add the
    smaller and the larger end value of each c_j r_j.
    """
    _, alpha, beta = key_parts(idx)
    lo = hi = float(sum(beta) - 1)
    for j, ra in starts.items():
        c = alpha[j] - beta[j]
        if c:
            u, v = c * ra, c * stops[j]
            lo = lo + lower(u, v)
            hi = hi + upper(u, v)
    return lo, hi


def scan_effectively_resonant_energies(cp: CriticalPointSpec,
                                       interval: tuple[float, float],
                                       sign: int = +1,
                                       grid_points: int = DEFAULT_GRID,
                                       bisect_tol: float = DEFAULT_BISECT_TOL) -> EnergyScanResult:
    """Locate effectively resonant energies and Hessian thresholds in an interval.

    Finds all zeros of the finitely many functions

        sum_j alpha'_j r'_j(sigma) - r'_k(sigma)                    (I' family)
        sum_j (alpha''_j r''_j(sigma) + beta''_j (1 - r''_j)) - 1   (I'' family)

    over the multiindex families bounded by |alpha'| <= |r'_k| / min |r'_j|
    and |alpha''| <= 1 / min r''_j, |beta''| <= 1, by a sign-change scan on
    a grid followed by bisection.  The interval is split at the Hessian
    thresholds, across which the y''/y''' block structure changes.

    On each threshold-free subinterval the grid of grid_points + 1 energies
    is split into coarse cells of isqrt(grid_points) steps (the last may be
    shorter), and every block's r_j is a numpy array on the cell ends.
    Each family is c0 + sum_j c_j r_j (its R / lam), and every r_j is
    monotone on the grid (each of its float operations rounds
    monotonically), so the family's array values on a cell lie within a
    roundoff margin of [lo, hi], the sums of the smaller and of the larger
    end values of c_j r_j there.  The bound on the whole subinterval
    excludes a family first; the bound per cell then leaves open only the
    cells whose [lo, hi] comes within twice the near-zero margin of 0, and
    the family is evaluated as array arithmetic on the grid points of each
    run of open cells alone.  A closed cell has no value near zero and no
    sign change, ends included.  Grid points where a family's array value
    is near zero are re-decided with its scalar function, so zeros and
    signs agree bit for bit with a point-by-point scalar scan.  brentq runs
    on the scalar function, and only on grid steps whose end values change
    sign; tangential zeros are not found.  grid_points must be an integer
    >= 2.
    """
    import numpy as np
    if isinstance(grid_points, bool) or not isinstance(grid_points, int) or grid_points < 2:
        raise InvalidInputError(f"grid_points must be an integer >= 2, got {grid_points!r}")
    lo, hi = float(interval[0]), float(interval[1])
    v0 = float(cp.value)
    if not (v0 < lo < hi):
        raise InvalidIntervalError(
            f"interval [{lo}, {hi}] must be compact and strictly above V0 = {v0}")

    hvals = [float(h) for h in cp.hessian]
    order = sorted(range(len(hvals)), key=lambda i: hvals[i])
    hsorted = [hvals[i] for i in order]
    neg_pos = [j for j, h in enumerate(hsorted) if h < 0]

    thresholds = []
    for h_idx, h in enumerate(cp.hessian):
        if float(h) > 0:
            t = v0 + 2.0 * float(h)
            if lo <= t <= hi:
                thresholds.append((t, h_idx))
    thresholds.sort()

    cuts = sorted({lo, hi} | {t for t, _ in thresholds})
    pad = max((hi - lo) * 1e-9, 1e-12)
    subintervals = []
    for a, b in zip(cuts, cuts[1:]):
        aa = a + (pad if any(abs(a - t) < pad for t, _ in thresholds) else 0.0)
        bb = b - (pad if any(abs(b - t) < pad for t, _ in thresholds) else 0.0)
        if aa < bb:
            subintervals.append((aa, bb))

    roots: list[tuple[float, MonomialKey, float]] = []
    # coarse cells of about isqrt(grid_points) steps; neighbours share an end
    coarse = np.append(np.arange(0, grid_points, math.isqrt(grid_points)), grid_points)
    for (a_end, b_end) in subintervals:
        wa, wb = a_end - v0, b_end - v0
        # y'' membership is constant on a threshold-free subinterval
        sec_pos = [j for j, h in enumerate(hsorted) if h > 0 and wa > 2.0 * h and wb > 2.0 * h]
        families = _families(hsorted, neg_pos, sec_pos, wa, wb)
        if not families:
            continue
        blocks = neg_pos + sec_pos
        step = (b_end - a_end) / grid_points
        # r_j at the coarse points; a grid point a_end + i step and its r_j
        # take correctly rounded elementwise operations only, so they are the
        # same floats on any subset of the grid
        r_coarse = {j: _r_real(hsorted[j], a_end + coarse * step - v0) for j in blocks}
        # |r_j| is monotone in sigma, so its largest value sits at an end
        rmax = max([1.0] + [abs(r[e]) for r in r_coarse.values() for e in (0, -1)])
        firsts = {j: float(r[0]) for j, r in r_coarse.items()}
        lasts = {j: float(r[-1]) for j, r in r_coarse.items()}
        starts = {j: r[:-1] for j, r in r_coarse.items()}
        stops = {j: r[1:] for j, r in r_coarse.items()}

        for idx, f, weight in families:
            margin = _NEAR_ZERO * weight * rmax
            # every array value lies in [lo - margin, hi + margin] of its
            # cell, so past 2 margin none is near zero and none changes sign
            g_lo, g_hi = _range_bound(idx, firsts, lasts)
            if g_lo > 2.0 * margin or g_hi < -2.0 * margin:
                continue
            c_lo, c_hi = _range_bound(idx, starts, stops, np.minimum, np.maximum)
            runs = []   # [first, last + 1) of each run of adjacent open cells
            for c in np.flatnonzero((c_lo <= 2.0 * margin) & (c_hi >= -2.0 * margin)).tolist():
                if runs and runs[-1][1] == c:
                    runs[-1][1] = c + 1
                else:
                    runs.append([c, c + 1])

            def g(sig, f=f):
                return f({j: _r_real(hsorted[j], sig - v0) for j in blocks})

            for c0, c1 in runs:
                i0, i1 = int(coarse[c0]), int(coarse[c1])
                grid = a_end + np.arange(i0, i1 + 1) * step
                vals = f({j: _r_real(hsorted[j], grid - v0) for j in blocks})
                # numpy's sqrt and libm's pow can differ in the last bit, which
                # moves vals by a few ulps of weight * rmax; re-decide every
                # point within a thousandfold margin of that with the scalar
                # g, so zeros and signs are the ones the scalar g gives
                for i in np.flatnonzero(np.abs(vals) <= margin):
                    vals[i] = g(float(grid[i]))
                for i in np.flatnonzero((vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0.0)):
                    if vals[i] == 0.0:
                        roots.append((float(grid[i]), idx, 0.0))
                    else:
                        root = brentq(g, float(grid[i]), float(grid[i + 1]),
                                      xtol=bisect_tol * 1e-4)
                        roots.append((root, idx, abs(g(root))))
                # a run's last point is 0.0 only at the grid's end: a closed
                # cell beyond it keeps every value past the margin
                if i1 == grid_points and vals[-1] == 0.0:
                    roots.append((float(grid[-1]), idx, 0.0))

    dedup: dict[tuple, tuple[float, MonomialKey, float]] = {}
    for s, idx, res in roots:
        key = (round(s / bisect_tol), idx)
        if key not in dedup or res < dedup[key][2]:
            dedup[key] = (s, idx, res)
    eff = sorted(dedup.values())

    return EnergyScanResult(
        interval=(lo, hi),
        eff_res_energies=tuple(eff),
        thresholds=tuple(thresholds),
        settings={"gridPoints": grid_points, "bisectTol": bisect_tol, "sign": sign},
    )


# -- J'' and module order ------------------------------------------------------------


def second_index_set(rp: RadialPoint, tol: float = DEFAULT_FLOAT_TOL
                     ) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The finite set J'' = {(alpha'', beta''): sum r'' a + (1-r'') b in (1,2)}.

    Exponents are over the y'' block only, in sorted-block order.  With
    r_j = p_j / d from the point's weights, the value is
    s = sum_j p_j alpha_j + (d - p_j) beta_j and the test is
    s - d > m and 2d - s > m, with m = slack(tol) from the weights: on ints
    with m = 0 (d < s < 2d) at an exact point, and at a floating point
    (d = 1) on floats summed in block order with m = tol.  So a floating
    point drops every candidate with |s - 1| <= tol or |s - 2| <= tol: at
    s = 1 that is the I'' resonance FloatWeights.vanishes finds at a = 0,
    at the same tolerance.  Raises ScanBudgetError when the candidates,
    counted in closed form first, are more than MAX_SECOND_INDEX_CANDIDATES.
    """
    sec = list(rp.layout.ysecond_indices)
    if not sec:
        return []
    w = rp.weights
    d = w.d
    ps = [w.p[j] for j in sec]
    qs = [d - pj for pj in ps]
    # 0 < r_j < 1/2 on y'', so all weights are positive: a total t adds at
    # least t pmin (alpha) or t qmin (beta), and the value stays below 2d.
    # The slack keeps every float candidate that rounds inside; on ints it
    # only adds totals that reach 2d, which the test rejects.
    pmin, qmin = min(ps), min(qs)
    # Each beta total b (at most 3, as qmin > d / 2) pairs its compositions
    # with every alpha of total at most tb, where tb pmin + b qmin stays in
    # the bound (with the loops' float slack, 0 on ints): the loops below
    # visit no more candidates than that
    k, eps = len(sec), w.slack(1e-9)
    count = sum(composition_count(k, b, b)
                * composition_count(k, 0, int((2 * d - b * qmin + eps) // pmin))
                for b in range(4))
    if count > MAX_SECOND_INDEX_CANDIDATES:
        raise ScanBudgetError(f"J'' needs {count} candidates, over "
                              f"MAX_SECOND_INDEX_CANDIDATES = {MAX_SECOND_INDEX_CANDIDATES}")
    m = w.slack(tol)
    out = []
    atotal = 0
    while atotal * pmin - 2 * d <= 1e-9:
        for av in compositions(len(sec), atotal):
            ap = list(map(mul, av, ps))
            va = sum(ap)
            btotal = 0
            while va + btotal * qmin - 2 * d <= 1e-9:
                for bv in compositions(len(sec), btotal):
                    s = sum(map(add, ap, map(mul, bv, qs)))
                    if s - d > m and 2 * d - s > m:
                        out.append((av, bv))
                btotal += 1
        atotal += 1
    out.sort()
    return out


@dataclass(frozen=True)
class ModuleGenerator:
    symbol_id: str
    eigenvalue: object      # normalized eigenvalue sigma_i (real part for y''')
    order: object           # s_i = min(1, sigma_i)
    slot: int               # the key position it counts, a VariableLayout slot


@dataclass(frozen=True)
class ModuleOrderRecord:
    """Test-module generators with their truncated decay orders.

    Generators follow the boundary symbols x^{-1} f'_j, x^{-r''_j} e''_j,
    x^{-(1-r''_j)} f''_j, x^{-1/2} e'''_j, x^{-1/2} f'''_j and x^{-1} p0;
    s_i = min(1, sigma_i) where sigma_i is the normalized eigenvalue.
    """

    generators: tuple[ModuleGenerator, ...]

    def s_sum(self, alpha: Sequence[int]):
        if len(alpha) != len(self.generators):
            raise InvalidInputError("multiindex length must match generator count")
        total = 0
        for g, e in zip(self.generators, alpha):
            if e:
                total = total + g.order * e
        return total


def module_order(rp: RadialPoint) -> ModuleOrderRecord:
    gens = []
    lay = rp.layout
    for j in lay.yprime_indices:
        gens.append(ModuleGenerator(f"f'_{j + 1}", 1 - rp.r_list[j], 1, lay.mu_slot(j)))
    for j in lay.ysecond_indices:
        gens.append(ModuleGenerator(f"e''_{j + 1}", rp.r_list[j], rp.r_list[j], lay.y_slot(j)))
        gens.append(ModuleGenerator(f"f''_{j + 1}", 1 - rp.r_list[j], 1 - rp.r_list[j],
                                    lay.mu_slot(j)))
    half = Fraction(1, 2)
    for j in lay.ythird_indices:
        gens.append(ModuleGenerator(f"e'''_{j + 1}", half, half, lay.y_slot(j)))
        gens.append(ModuleGenerator(f"f'''_{j + 1}", half, half, lay.mu_slot(j)))
    gens.append(ModuleGenerator("p0", 1, 1, lay.nu_slot))
    return ModuleOrderRecord(generators=tuple(gens))


def s_alpha(rec: ModuleOrderRecord, alpha: Sequence[int]):
    """(s(alpha), s~(alpha)) = (min(sum s_i alpha_i, 1), remainder)."""
    total = rec.s_sum(alpha)
    s = total if total < 1 else 1
    return s, total - s


def module_multiindex(idx: MonomialKey, rec: ModuleOrderRecord) -> tuple[int, ...]:
    """Generator multiindex of the module product induced by nu^a y^alpha mu^beta.

    nu maps to the p0 generator, y''/mu'' and y'''/mu''' to their e/f
    generators, mu' to f'; y' factors are order-zero coefficients and do
    not contribute.
    """
    return tuple(idx[g.slot] for g in rec.generators)
