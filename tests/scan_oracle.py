"""The energy scan on the whole grid, as a test oracle.

resonance.scan_effectively_resonant_energies evaluates a family only on
the coarse cells of its grid whose range bound admits a zero.  This is the
loop it replaced: every family whose range bound on the whole
threshold-free subinterval admits a zero is evaluated at every grid point.
test_resonance compares the two.
"""

from __future__ import annotations

from radialscope.radial import CriticalPointSpec
from radialscope.resonance import (_NEAR_ZERO, DEFAULT_BISECT_TOL, DEFAULT_GRID,
                                   EnergyScanResult, InvalidInputError, InvalidIntervalError,
                                   _families, _r_real, _range_bound, brentq)
from radialscope.symalg import MonomialKey


def scan_effectively_resonant_energies(cp: CriticalPointSpec,
                                       interval: tuple[float, float],
                                       sign: int = +1,
                                       grid_points: int = DEFAULT_GRID,
                                       bisect_tol: float = DEFAULT_BISECT_TOL) -> EnergyScanResult:
    """The scan's EnergyScanResult, each family evaluated on the whole grid.

    Each family whose range bound on a threshold-free subinterval admits a
    zero is evaluated at all grid_points + 1 points as array arithmetic;
    points near zero are re-decided with the scalar function and brentq
    runs on every cell whose end values change sign.
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
    for (a_end, b_end) in subintervals:
        wa, wb = a_end - v0, b_end - v0
        # y'' membership is constant on a threshold-free subinterval
        sec_pos = [j for j, h in enumerate(hsorted) if h > 0 and wa > 2.0 * h and wb > 2.0 * h]
        families = _families(hsorted, neg_pos, sec_pos, wa, wb)
        if not families:
            continue
        blocks = neg_pos + sec_pos
        step = (b_end - a_end) / grid_points
        grid = a_end + np.arange(grid_points + 1) * step
        r_grid = {j: _r_real(hsorted[j], grid - v0) for j in blocks}
        # |r_j| is monotone in sigma, so its largest value sits at an end
        rmax = max([1.0] + [abs(r_grid[j][e]) for j in blocks for e in (0, -1)])
        firsts = {j: float(r_grid[j][0]) for j in blocks}
        lasts = {j: float(r_grid[j][-1]) for j in blocks}

        for idx, f, weight in families:
            margin = _NEAR_ZERO * weight * rmax
            g_lo, g_hi = _range_bound(idx, firsts, lasts)
            # every array value lies in [g_lo - margin, g_hi + margin], so
            # past 2 margin none is near zero and none changes sign
            if g_lo > 2.0 * margin or g_hi < -2.0 * margin:
                continue

            def g(sig, f=f):
                return f({j: _r_real(hsorted[j], sig - v0) for j in blocks})

            vals = f(r_grid)
            # numpy's sqrt and libm's pow can differ in the last bit, which
            # moves vals by a few ulps of weight * rmax; re-decide every point
            # within a thousandfold margin of that with the scalar g, so
            # zeros and signs are the ones the scalar g gives
            for i in np.flatnonzero(np.abs(vals) <= margin):
                vals[i] = g(float(grid[i]))
            for i in np.flatnonzero((vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0.0)):
                if vals[i] == 0.0:
                    roots.append((float(grid[i]), idx, 0.0))
                else:
                    root = brentq(g, float(grid[i]), float(grid[i + 1]),
                                  xtol=bisect_tol * 1e-4)
                    roots.append((root, idx, abs(g(root))))
            if vals[-1] == 0.0:
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
