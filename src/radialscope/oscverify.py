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

Quadrature: adaptive Gauss-Kronrod 15(7) with oscillation-aware panel
splitting for moderate x; below the Filon threshold a moment-based
Filon-type rule with local cubic phase interpolation takes over.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import brentq
from scipy.special import erf

from .parallel import parallel_map

STATIONARY_PHASE_CONSTANT = (1.0 / (2.0 * math.sqrt(math.pi))) * cmath.exp(-0.75j * math.pi)
DEFAULT_REL_TOL = 1e-10
FILON_THRESHOLD = 1e-4


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


# -- Filon-type moments -------------------------------------------------------------


def _linear_moments(alpha: float, h: float, kmax: int) -> list[complex]:
    """L_k = integral_0^h s^k e^{i alpha s} ds, k = 0..kmax."""
    out = []
    if abs(alpha) * h < 0.5:
        # series: L_k = sum_j (i alpha)^j h^{k+j+1} / (j! (k+j+1))
        for k in range(kmax + 1):
            term, acc = 1.0 + 0.0j, 0.0 + 0.0j
            for j in range(40):
                acc += term * h ** (k + j + 1) / (k + j + 1)
                term *= 1j * alpha / (j + 1)
                if abs(term) * h ** (k + j + 2) < 1e-300:
                    break
            out.append(acc)
        return out
    e = cmath.exp(1j * alpha * h)
    ia = 1j * alpha
    out.append((e - 1.0) / ia)
    for k in range(1, kmax + 1):
        out.append((h ** k * e - k * out[k - 1]) / ia)
    return out


def _fresnel_integral(beta: float, z0: float, z1: float) -> complex:
    """integral_{z0}^{z1} e^{i beta u^2} du via the complex error function."""
    root = cmath.sqrt(-1j * beta)

    def F(z):
        return (math.sqrt(math.pi) / 2.0) * erf(root * z) / root

    return F(z1) - F(z0)


def _quadratic_moments(alpha: float, beta: float, h: float, kmax: int) -> list[complex]:
    """G_k = integral_0^h s^k e^{i(alpha s + beta s^2)} ds, k = 0..kmax.

    Requires |beta| h^2 not small (caller dispatches); the recursion
    divides by 2 i beta so it is forward-stable in that regime.
    """
    c = alpha / (2.0 * beta)
    phase0 = cmath.exp(-1j * alpha * alpha / (4.0 * beta))
    g0 = phase0 * _fresnel_integral(beta, c, c + h)
    end = cmath.exp(1j * (alpha * h + beta * h * h))
    g1 = (end - 1.0) / (2j * beta) - c * g0
    out = [g0, g1]
    for k in range(1, kmax):
        nxt = (h ** k * end - k * out[k - 1] - 1j * alpha * out[k]) / (2j * beta)
        out.append(nxt)
    return out


def _filon_panel(f, phi, x, u, v) -> complex:
    """One Filon panel: cubic phase and cubic amplitude through 4 nodes."""
    h = v - u
    ss = np.array([0.0, h / 3.0, 2.0 * h / 3.0, h])
    pts = u + ss
    ph = np.array([phi(p) for p in pts])
    am = np.array([f(p) for p in pts], dtype=complex)
    V = np.vander(ss, 4, increasing=True)
    c_ph = np.linalg.solve(V, ph)      # c0 + c1 s + c2 s^2 + c3 s^3
    c_am = np.linalg.solve(V, am)
    alpha, beta, gamma = c_ph[1] / x, c_ph[2] / x, c_ph[3] / x
    # cubic correction by series: e^{i gamma s^3} = sum (i gamma)^j s^{3j} / j!
    gh3 = abs(gamma) * h ** 3
    nser = 1
    term = gh3
    while term > 1e-16 and nser < 24:
        nser += 1
        term *= gh3 / nser
    kmax = 3 + 3 * nser
    if abs(beta) * h * h <= 0.5:
        # fold the quadratic into the series as well
        bh2 = abs(beta) * h ** 2
        nq = 1
        term = bh2
        while term > 1e-16 and nq < 30:
            nq += 1
            term *= bh2 / nq
        moments = _linear_moments(alpha, h, kmax + 2 * nq)
        acc = 0.0 + 0.0j
        for k_am in range(4):
            if not c_am[k_am]:
                continue
            cj = 1.0 + 0.0j
            for j3 in range(nser + 1):
                bj = 1.0 + 0.0j
                for j2 in range(nq + 1):
                    idx = k_am + 3 * j3 + 2 * j2
                    acc += c_am[k_am] * cj * bj * moments[idx]
                    bj *= 1j * beta / (j2 + 1)
                cj *= 1j * gamma / (j3 + 1)
        return cmath.exp(1j * c_ph[0] / x) * acc
    moments = _quadratic_moments(alpha, beta, h, kmax)
    acc = 0.0 + 0.0j
    for k_am in range(4):
        if not c_am[k_am]:
            continue
        cj = 1.0 + 0.0j
        for j3 in range(nser + 1):
            acc += c_am[k_am] * cj * moments[k_am + 3 * j3]
            cj *= 1j * gamma / (j3 + 1)
    return cmath.exp(1j * c_ph[0] / x) * acc


def _filon_integrate(f, phi, x, a, b, tol):
    """Composite Filon rule with Richardson control via panel halving."""

    def pass_with(n_panels: int) -> complex:
        edges = np.linspace(a, b, n_panels + 1)
        return sum(_filon_panel(f, phi, x, edges[i], edges[i + 1])
                   for i in range(n_panels))

    # size panels by the cubic-phase budget |phi'''| h^3 / x <= 0.3
    h0 = b - a
    phippp = _max_third_derivative(phi, a, b)
    if phippp > 0:
        h0 = min(h0, (0.3 * x / phippp) ** (1.0 / 3.0))
    n = max(8, int(math.ceil((b - a) / h0)))
    val = pass_with(n)
    for _ in range(12):
        n *= 2
        cur = pass_with(n)
        err = abs(cur - val)
        val = cur
        if not err > tol:     # converged, or NaN that no halving mends
            break
    return val, err


def _max_third_derivative(phi, a, b, samples: int = 64) -> float:
    xs = np.linspace(a, b, samples)
    h = (b - a) / samples / 8.0
    vals = []
    for t in xs:
        d3 = (phi(t + 2 * h) - 2 * phi(t + h) + 2 * phi(t - h) - phi(t - 2 * h)) / (2 * h ** 3)
        vals.append(abs(d3))
    return float(max(vals))


def oscillatory_quadrature(f: Callable[[float], complex], phi: Callable[[float], float],
                           x: float, a: float, b: float,
                           rel_tol: float = DEFAULT_REL_TOL,
                           filon_threshold: float = FILON_THRESHOLD) -> complex:
    """integral_a^b f(sigma) e^{i phi(sigma)/x} d sigma to ~rel_tol * scale.

    Uses adaptive Gauss-Kronrod with oscillation-aware splitting for
    x >= filon_threshold and the Filon-type rule below; raises
    QuadratureError when the error estimate exceeds the budget.
    """
    if x <= 0:
        raise ValueError("x must be positive")
    scale = max(abs(complex(f(a + (b - a) * t))) for t in (0.125, 0.35, 0.5, 0.65, 0.875))
    scale = max(scale, 1e-30) * (b - a)
    tol = rel_tol * scale
    if x >= filon_threshold:
        fn = lambda s: complex(f(s)) * cmath.exp(1j * phi(s) / x)
        val, err = _gk_adaptive(fn, a, b, tol)
    else:
        val, err = _filon_integrate(f, phi, x, a, b, tol)
    if not err <= 50 * tol:     # NaN counts as failure
        raise QuadratureError(f"estimated error {err} exceeds budget {tol}")
    return val


# -- the stationary-phase case ------------------------------------------------------------


def gaussian_amplitude(center: float, width: float, cut: float = 12.0):
    """Gaussian truncated at cut*width with a smooth cutoff (budget ~1e-12)."""

    def smoothstep(t: float) -> float:
        if t <= 0.0:
            return 1.0
        if t >= 1.0:
            return 0.0
        va = math.exp(-1.0 / max(t, 1e-300))
        vb = math.exp(-1.0 / max(1.0 - t, 1e-300))
        return vb / (va + vb)

    def a(sigma: float) -> float:
        u = abs(sigma - center) / width
        if u >= cut:
            return 0.0
        core = math.exp(-0.5 * u * u)
        return core * smoothstep((u - (cut - 2.0)) / 2.0)

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
        lo, hi = self.amplitude.support
        return (max(lo, self.v0z + 1e-12), hi)


@dataclass
class SPResult:
    case: StationaryPhaseCase
    rows: list            # dicts per x
    peak_sigma: float
    hessian_measured: float
    hessian_expected: float
    convergence_exponent: float | None

    def to_csv_rows(self):
        out = [("x", "reIntegral", "imIntegral", "prefactorMod", "prefactorPhase", "peakSigma")]
        for r in self.rows:
            out.append((repr(r["x"]), repr(r["integral"].real), repr(r["integral"].imag),
                        repr(r["prefactorMod"]), repr(r["prefactorPhase"]), repr(self.peak_sigma)))
        return out

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

    def evaluate(x: float) -> dict:
        integral = oscillatory_quadrature(case.amplitude, case.phase, x, lo, hi,
                                          rel_tol=rel_tol)
        integral /= 2j * math.pi
        ref = math.sqrt(x) * case.tau ** (-1.5) * a_c * cmath.exp(1j * case.psi / x)
        pref = integral / ref
        return {"x": x, "integral": integral,
                "prefactorMod": abs(pref),
                "prefactorPhase": cmath.phase(pref),
                "prefactor": pref}

    rows = parallel_map(evaluate, case.x_list)
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
