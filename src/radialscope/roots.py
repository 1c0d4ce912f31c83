"""Brent's root finder on a sign-changing bracket, in plain floats.

A line-for-line port of scipy's Zeros/brentq.c (Brent, Algorithms for
Minimization without Derivatives, 1973, Ch. 4): inverse quadratic or
secant steps while they shrink the bracket fast enough, bisection
otherwise.  It returns the same floats as scipy.optimize.brentq with the
same arguments, so the package's three root searches (the energy scan,
V0's critical angles and the stationary-phase peak) need no scipy.
"""

from __future__ import annotations

import math
import sys

_EPS = sys.float_info.epsilon


def brentq(f, a: float, b: float, xtol: float = 2e-12, rtol: float = 4 * _EPS,
           maxiter: int = 100) -> float:
    """A zero of f in [a, b], to within xtol + rtol * |x|.

    Raises ValueError when f(a) and f(b) have the same sign or f returns
    NaN, and RuntimeError when maxiter iterations do not converge.
    """
    def call(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:        # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:                   # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:   # C gets inf or NaN here, which bisects below
                stry = math.inf
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry     # good short step
            else:
                spre = scur = sbis          # bisect
        else:
            spre = scur = sbis              # bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")
