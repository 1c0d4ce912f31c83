"""Numerical verification of the long-time stationary-phase asymptotics.

The model integral is

    I(x) = (1 / 2 pi i) * integral a(sigma) e^{i phi(sigma)/x} d sigma,
    phi(sigma) = -tau sigma + sqrt(sigma - V0(z)),

whose stationary point sits at the energy-equation value
sigma_c = V0(z) + 1/(4 tau^2), with phase Hessian
phi''(sigma_c)/x = -2 tau^3 / x.  Stationary phase predicts

    I(x) -> c * x^{1/2} tau^{-3/2} a(sigma_c) e^{i Psi / x},
    c = (1 / (2 sqrt(pi))) e^{-3 i pi / 4},
    Psi = -tau sigma_c + sqrt(sigma_c - V0(z)),

and this module measures the prefactor, its phase, the peak location and
the convergence rate as x -> 0.

Quadrature: in u = sqrt(sigma - V0(z)), the radial-point coordinate nu,
the phase is exactly quadratic, phi = Psi - tau (u - 1/(2 tau))^2, and
d sigma = 2u du.  A composite Filon rule interpolates the amplitude
2u a(V0 + u^2) at degree 7 on each panel and integrates the interpolant
exactly against that phase (Fresnel/erf moments), so its panels resolve
the amplitude and its cost does not grow as x -> 0.  Adaptive
Gauss-Kronrod 15(7) (`oscillatory_quadrature`) remains for arbitrary
phases.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import brentq
from scipy.special import erf

STATIONARY_PHASE_CONSTANT = (1.0 / (2.0 * math.sqrt(math.pi))) * cmath.exp(-0.75j * math.pi)
DEFAULT_REL_TOL = 1e-10


class QuadratureError(RuntimeError):
    """Error estimate above budget after full subdivision."""


class NoStationaryPointError(ValueError):
    """The critical energy lies outside the amplitude support."""


# -- Gauss-Kronrod 15(7) -----------------------------------------------------------

_GK_NODES = (
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
)
_GK_WEIGHTS = (
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
)
_G7_WEIGHTS = (
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
)


def _gk15(fn: Callable[[float], complex], a: float, b: float) -> tuple[complex, float]:
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    vals = [fn(mid + half * t) for t in _GK_NODES]
    kron = half * sum(w * v for w, v in zip(_GK_WEIGHTS, vals))
    gauss = half * sum(w * vals[2 * i + 1] for i, w in enumerate(_G7_WEIGHTS))
    return kron, abs(kron - gauss)


def _gk_adaptive(fn, a, b, tol, max_depth=28, max_panels=60_000):
    total = 0.0 + 0.0j
    stack = [(a, b, 0)]
    err_total = 0.0
    budget = tol / max(b - a, 1e-300)
    panels = 0
    while stack:
        lo, hi, depth = stack.pop()
        val, err = _gk15(fn, lo, hi)
        panels += 1
        if err <= budget * (hi - lo) or depth >= max_depth or panels >= max_panels:
            total += val
            err_total += err
        else:
            mid = 0.5 * (lo + hi)
            stack.append((lo, mid, depth + 1))
            stack.append((mid, hi, depth + 1))
    return total, err_total


# -- Filon rule with an exact quadratic phase ----------------------------------------

_NODES = 8        # amplitude interpolated at degree 7 on each panel
_CHEB = np.cos((2.0 * np.arange(_NODES) + 1.0) * np.pi / (2.0 * _NODES))
# column i: monomial coefficients of the Lagrange polynomial of node i (no LAPACK at import)
_TO_MONOMIAL = np.array([np.poly(np.delete(_CHEB, i))[::-1] / np.prod(t - np.delete(_CHEB, i))
                         for i, t in enumerate(_CHEB)]).T
_SWEEP_DEPTH = 48    # start of the backward sweep for panels far from the stationary point


def _linear_moments(a: np.ndarray, kmax: int) -> np.ndarray:
    """L[:, k] = integral_{-1}^{1} s^k e^{i a s} ds for k = 0..kmax.

    Forward recursion in 1/(ia) is stable while k < |a|; above that the
    backward recursion, started at 0 well above kmax, is used instead.
    """
    ea, ema = np.exp(1j * a), np.exp(-1j * a)
    ends = (ea - ema, ea + ema)          # [s^k e^{ias}] from -1 to 1, by parity of k
    ia = 1j * np.where(np.abs(a) < 1.0, 1.0, a)     # rows with |a| < 1 use no forward value
    fwd = np.empty((a.size, kmax + 1), dtype=complex)
    bwd = np.empty_like(fwd)
    fwd[:, 0] = ends[0] / ia
    for k in range(1, kmax + 1):
        fwd[:, k] = (ends[k % 2] - k * fwd[:, k - 1]) / ia
    back = np.zeros(a.size, dtype=complex)
    for k in range(kmax + 60, 0, -1):
        back = (ends[k % 2] - 1j * a * back) / k      # L_{k-1}
        if k <= kmax + 1:
            bwd[:, k - 1] = back
    return np.where(np.arange(1, kmax + 2) > np.abs(a)[:, None], bwd, fwd)


def _quadratic_moments(a: np.ndarray, b: float) -> np.ndarray:
    """mu[:, j] = integral_{-1}^{1} s^j e^{i(a s + b s^2)} ds for j < _NODES.

    One row per entry of a.  For |b| <= 1 the chirp e^{i b s^2} is summed as
    a series over linear moments.  Otherwise mu_0 is a difference of complex
    error functions and the rest follow from the recurrence
        2b mu_{j+1} + a mu_j - i j mu_{j-1} = -i (e^{i(b+a)} - (-1)^j e^{i(b-a)}):
    forward where the stationary point -a/(2b) lies within 2 of the panel
    centre, and elsewhere, where forward recursion grows like |a/(2b)|^j, by
    a backward sweep from mu_{_SWEEP_DEPTH+1} = 0 (Olver's algorithm).
    """
    if abs(b) <= 1.0:
        coefs = [1.0 + 0.0j]
        while abs(coefs[-1]) > 1e-17:
            coefs.append(coefs[-1] * 1j * b / len(coefs))
        lin = _linear_moments(a, _NODES - 1 + 2 * (len(coefs) - 1))
        return sum(coef * lin[:, 2 * n:2 * n + _NODES] for n, coef in enumerate(coefs))
    ep, em = np.exp(1j * (b + a)), np.exp(1j * (b - a))
    rhs = (-1j * (ep - em), -1j * (ep + em))       # by parity of j
    root, c = np.sqrt(-1j * b), a / (2.0 * b)
    mu = np.empty((a.size, _NODES), dtype=complex)
    mu[:, 0] = (0.5 * math.sqrt(math.pi) / root) * np.exp(-0.5j * a * c) \
        * (erf(root * (c + 1.0)) - erf(root * (c - 1.0)))
    near, far = np.abs(c) <= 2.0, ~(np.abs(c) <= 2.0)
    for j in range(_NODES - 1):
        prev = 1j * j * mu[near, j - 1] if j else 0.0
        mu[near, j + 1] = (rhs[j % 2][near] + prev - a[near] * mu[near, j]) / (2.0 * b)
    # far rows: mu_{j+1} = e_j mu_j + f_j, eliminated upwards from row _SWEEP_DEPTH
    af, rf = a[far], (rhs[0][far], rhs[1][far])
    e = f = np.zeros(af.size, dtype=complex)
    steps = [None] * (_NODES - 1)
    for j in range(_SWEEP_DEPTH, 0, -1):
        den = af + 2.0 * b * e
        e, f = 1j * j / den, (rf[j % 2] - 2.0 * b * f) / den
        if j < _NODES:
            steps[j - 1] = (e, f)
    for j, (e, f) in enumerate(steps):
        mu[far, j + 1] = e * mu[far, j] + f
    return mu


def quadratic_phase_filon(g: Callable[[np.ndarray], np.ndarray], beta: float, u0: float,
                          lo: float, hi: float, tol: float,
                          max_panels: int = 4096) -> tuple[complex, int]:
    """integral_lo^hi g(u) e^{i beta (u - u0)^2} du and the final panel count.

    Composite Filon rule with an exact phase (Iserles and Norsett, 2005): on
    each panel g, which takes an array, is interpolated at _NODES Chebyshev
    points and the interpolant is integrated exactly against the phase, so
    panels resolve the amplitude, not the oscillation.  Panels are halved,
    from 8, until two successive halvings each change the value by at most
    tol: a single agreement can be a coincidence before the asymptotic rate
    sets in.  Raises QuadratureError when a pass is not finite or the passes
    have not agreed within max_panels.
    """
    prev, agreed, n = None, 0, 8
    while n <= max_panels:
        r = 0.5 * (hi - lo) / n
        mid = lo + r * (2.0 * np.arange(n) + 1.0)
        w = mid - u0
        moments = _quadratic_moments(2.0 * beta * r * w, beta * r * r)
        panels = np.einsum("pj,ji,pi->p", moments, _TO_MONOMIAL, g(mid[:, None] + r * _CHEB))
        cur = complex(r * np.sum(np.exp(1j * beta * w * w) * panels))
        if not cmath.isfinite(cur):
            raise QuadratureError(f"Filon pass with {n} panels is not finite")
        agreed = agreed + 1 if prev is not None and abs(cur - prev) <= tol else 0
        if agreed == 2:
            return cur, n
        prev, n = cur, 2 * n
    raise QuadratureError(f"Filon passes did not agree to {tol} within {max_panels} panels")


def _abs_tolerance(f: Callable[[float], complex], a: float, b: float, rel_tol: float) -> float:
    """rel_tol times a sampled max |f| times the length of [a, b]."""
    scale = max(abs(complex(f(a + (b - a) * t))) for t in (0.125, 0.35, 0.5, 0.65, 0.875))
    return rel_tol * max(scale, 1e-30) * (b - a)


def oscillatory_quadrature(f: Callable[[float], complex], phi: Callable[[float], float],
                           x: float, a: float, b: float,
                           rel_tol: float = DEFAULT_REL_TOL) -> complex:
    """integral_a^b f(sigma) e^{i phi(sigma)/x} d sigma to ~rel_tol * scale.

    Adaptive Gauss-Kronrod for an arbitrary phase; its cost grows like 1/x.
    Raises QuadratureError when the error estimate exceeds the budget.
    """
    if x <= 0:
        raise ValueError("x must be positive")
    tol = _abs_tolerance(f, a, b, rel_tol)
    fn = lambda s: complex(f(s)) * cmath.exp(1j * phi(s) / x)
    val, err = _gk_adaptive(fn, a, b, tol)
    if not err <= 50 * tol:     # NaN counts as failure
        raise QuadratureError(f"estimated error {err} exceeds budget {tol}")
    return val


# -- the stationary-phase case ------------------------------------------------------------


def gaussian_amplitude(center: float, width: float, cut: float = 12.0):
    """Gaussian truncated at cut*width with a smooth cutoff (budget ~1e-12).

    The amplitude takes a float, or a numpy array elementwise.
    """

    def smoothstep(t: float) -> float:
        if t <= 0.0:
            return 1.0
        if t >= 1.0:
            return 0.0
        va = math.exp(-1.0 / max(t, 1e-300))
        vb = math.exp(-1.0 / max(1.0 - t, 1e-300))
        return vb / (va + vb)

    def a(sigma):
        if isinstance(sigma, np.ndarray):
            return amplitude_array(sigma)
        u = abs(sigma - center) / width
        if u >= cut:
            return 0.0
        core = math.exp(-0.5 * u * u)
        return core * smoothstep((u - (cut - 2.0)) / 2.0)

    def amplitude_array(sigma: np.ndarray) -> np.ndarray:
        u = np.abs(sigma - center) / width
        t = (u - (cut - 2.0)) / 2.0
        inside = (t > 0.0) & (t < 1.0)
        ti = np.where(inside, t, 0.5)
        va, vb = np.exp(-1.0 / ti), np.exp(-1.0 / (1.0 - ti))
        step = np.where(inside, vb / (va + vb), np.where(t <= 0.0, 1.0, 0.0))
        return np.where(u >= cut, 0.0, np.exp(-0.5 * u * u) * step)

    a.support = (center - cut * width, center + cut * width)
    a.center = center
    a.width = width
    return a


@dataclass
class StationaryPhaseCase:
    """One verification instance of the long-time asymptotics."""

    v0z: float
    tau: float
    amplitude: Callable[[float], float]
    x_list: tuple[float, ...]

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        self.x_list = tuple(sorted(self.x_list, reverse=True))

    @property
    def sigma_c(self) -> float:
        return self.v0z + 1.0 / (4.0 * self.tau * self.tau)

    def phase(self, sigma: float) -> float:
        return -self.tau * sigma + math.sqrt(sigma - self.v0z)

    @property
    def psi(self) -> float:
        return self.phase(self.sigma_c)

    def support(self) -> tuple[float, float]:
        """The amplitude support, clipped at V0(z) where the phase ends."""
        lo, hi = self.amplitude.support
        return (max(lo, self.v0z), hi)

    def u_support(self) -> tuple[float, float]:
        """support() in u = sqrt(sigma - V0(z))."""
        lo, hi = self.support()
        return (math.sqrt(lo - self.v0z), math.sqrt(max(hi - self.v0z, 0.0)))

    def u_amplitude(self, u: np.ndarray) -> np.ndarray:
        """g(u) = 2u a(V0 + u^2): sigma = V0 + u^2 makes the phase
        Psi - tau (u - 1/(2 tau))^2, exactly quadratic, and d sigma = 2u du."""
        return 2.0 * u * self.amplitude(self.v0z + u * u)


@dataclass
class SPResult:
    case: StationaryPhaseCase
    rows: list            # dicts per x
    peak_sigma: float
    hessian_measured: float
    hessian_expected: float
    convergence_exponent: float | None

    def to_csv_rows(self):
        values = [(r["x"], r["integral"].real, r["integral"].imag, r["prefactorMod"],
                   r["prefactorPhase"], self.peak_sigma) for r in self.rows]
        return [("x", "reIntegral", "imIntegral", "prefactorMod", "prefactorPhase", "peakSigma"),
                *zip(*(map(repr, column) for column in zip(*values)))]

    def to_json_dict(self) -> dict:
        return {
            "sigmaC": self.case.sigma_c,
            "peakSigma": self.peak_sigma,
            "hessianMeasured": self.hessian_measured,
            "hessianExpected": self.hessian_expected,
            "convergenceExponent": self.convergence_exponent,
            "limitModulus": abs(STATIONARY_PHASE_CONSTANT),
            "limitPhase": cmath.phase(STATIONARY_PHASE_CONSTANT),
            "rows": [{"x": r["x"], "re": r["integral"].real, "im": r["integral"].imag,
                      "prefactorMod": r["prefactorMod"],
                      "prefactorPhase": r["prefactorPhase"]} for r in self.rows],
        }


def locate_phase_peak(case: StationaryPhaseCase, fd_step: float = 1e-7) -> float:
    """Root of the finite-difference phase derivative inside the support."""
    lo, hi = case.support()
    if lo - fd_step <= case.v0z:
        lo = case.v0z + 2.0 * fd_step    # the stencil stays where the phase is defined

    def dphi(s: float) -> float:
        return (case.phase(s + fd_step) - case.phase(s - fd_step)) / (2.0 * fd_step)

    if dphi(lo) * dphi(hi) > 0:
        raise NoStationaryPointError(
            f"no stationary energy in the amplitude support [{lo}, {hi}]")
    return float(brentq(dphi, lo, hi, xtol=1e-12))


def measure_phase_hessian(case: StationaryPhaseCase, x: float,
                          fd_step: float = 1e-4) -> float:
    """Central second difference of phi/x at sigma_c."""
    s = case.sigma_c
    h = fd_step
    d2 = (case.phase(s + h) - 2.0 * case.phase(s) + case.phase(s - h)) / (h * h)
    return d2 / x


def stationary_phase_check(case: StationaryPhaseCase,
                           rel_tol: float = DEFAULT_REL_TOL) -> SPResult:
    """Run the full verification: peak, prefactor limit, Hessian, rate.

    For each x the integral is divided by x^{1/2} tau^{-3/2} a(sigma_c)
    e^{i Psi/x}; the quotient must approach the universal constant
    (1/(2 sqrt(pi))) e^{-3 i pi/4} as x -> 0, at a rate O(x).
    """
    lo, hi = case.support()
    sc = case.sigma_c
    if not (lo < sc < hi) or case.amplitude(sc) == 0.0:
        raise NoStationaryPointError(
            f"sigma_c = {sc} outside the amplitude support [{lo}, {hi}]")
    peak = locate_phase_peak(case)
    a_c = case.amplitude(sc)
    tol = _abs_tolerance(case.amplitude, lo, hi, rel_tol)
    rows = []
    for x in case.x_list:
        val, panels = quadratic_phase_filon(case.u_amplitude, -case.tau / x, 0.5 / case.tau,
                                            *case.u_support(), tol)
        integral = val * cmath.exp(1j * case.psi / x) / (2j * math.pi)
        ref = math.sqrt(x) * case.tau ** (-1.5) * a_c * cmath.exp(1j * case.psi / x)
        pref = integral / ref
        rows.append({"x": x, "integral": integral, "panels": panels,
                     "prefactorMod": abs(pref),
                     "prefactorPhase": cmath.phase(pref),
                     "prefactor": pref})
    hess = measure_phase_hessian(case, case.x_list[-1])
    hess_expected = -2.0 * case.tau ** 3 / case.x_list[-1]

    exponent = None
    if len(rows) >= 3:
        devs = np.array([abs(r["prefactor"] - STATIONARY_PHASE_CONSTANT) for r in rows])
        xs = np.array([r["x"] for r in rows])
        good = devs > 0
        if good.sum() >= 3:
            exponent = float(np.polyfit(np.log(xs[good]), np.log(devs[good]), 1)[0])
    return SPResult(case=case, rows=rows, peak_sigma=peak,
                    hessian_measured=hess, hessian_expected=hess_expected,
                    convergence_exponent=exponent)


def psi_of_tau(v0z: float, tau: float) -> float:
    """Psi(tau) = -tau sigma_c(tau) + sqrt(sigma_c(tau) - V0(z))."""
    sc = v0z + 1.0 / (4.0 * tau * tau)
    return -tau * sc + math.sqrt(sc - v0z)
