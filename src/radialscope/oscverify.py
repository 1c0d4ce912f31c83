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
exactly against that phase (moments from erf on the lines arg z = -+pi/4,
Fresnel integrals from a numpy port of Cephes fresnl), so its panels resolve
the amplitude and its cost does not grow as x -> 0.  Its passes are
batched over beta = -tau/x: one pass samples the amplitude once and
computes the moments of every x's panels together, while each x keeps its
own pass sequence and stopping rule, so it gets the floats of a run of its
own.  Adaptive
Gauss-Kronrod 15(7) (`oscillatory_quadrature`) remains for arbitrary
phases.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .roots import brentq

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
# column i: monomial coefficients of the Lagrange polynomial of node i (no LAPACK at
# import), complex like the moments: np.einsum casts a real operand through a buffer
_TO_MONOMIAL = np.array([np.poly(np.delete(_CHEB, i))[::-1] / np.prod(t - np.delete(_CHEB, i))
                         for i, t in enumerate(_CHEB)]).T.astype(complex)
_SWEEP_DEPTH = 48    # start of the backward sweep for panels far from the stationary point
_MILLER_MARGIN = 60  # _linear_moments starts its backward sweep at most this far past kmax
_MAX_ROWS = 256      # rows per moments call, the size of one 256-panel pass


def _linear_moments(a: np.ndarray, kmax: int) -> np.ndarray:
    """L[:, k] = integral_{-1}^{1} s^k e^{i a s} ds for k = 0..kmax.

    Column k takes the forward recursion in 1/(ia) where k + 1 <= |a|, where
    it is stable, and elsewhere the backward recursion started at L_N = 0
    (Miller's algorithm).  That start is damped by prod_{k=kmax+2}^{N} A/k at
    column kmax, A the largest |a| below kmax + 1 (Gautschi 1967), so N is the
    first index that makes the product at most 2^-64, and at most
    kmax + _MILLER_MARGIN.
    """
    abs_a = np.abs(a)
    ea, ema = np.exp(1j * a), np.exp(-1j * a)
    ends = (ea - ema, ea + ema)          # [s^k e^{ias}] from -1 to 1, by parity of k
    out = np.empty((a.size, kmax + 1), dtype=complex)
    slow = abs_a[abs_a < kmax + 1]
    if slow.size:
        big, start, damp = float(slow.max()), kmax + 1, 1.0
        while damp > 2.0 ** -64 and start < kmax + _MILLER_MARGIN:
            start += 1
            damp *= big / start
        ia = 1j * a
        back = np.zeros(a.size, dtype=complex)
        for k in range(start, 0, -1):
            back = (ends[k % 2] - ia * back) / k      # L_{k-1}
            if k <= kmax + 1:
                out[:, k - 1] = back
    reach = abs_a.max()
    ia = 1j * np.where(abs_a < 1.0, 1.0, a)     # rows with |a| < 1 use no forward value
    fwd = ends[0] / ia
    for k in range(int(reach) if reach < kmax + 1 else kmax + 1):   # NaN takes all
        if k:
            fwd = (ends[k % 2] - k * fwd) / ia
        np.copyto(out[:, k], fwd, where=abs_a >= k + 1)
    return out


def _quadratic_moments(a: np.ndarray, b) -> np.ndarray:
    """mu[:, j] = integral_{-1}^{1} s^j e^{i(a s + b s^2)} ds for j < _NODES.

    One row per entry of a; b is a scalar or one value per row.  Where
    |b| <= 1 the chirp e^{i b s^2} is summed as a series over linear moments.
    Elsewhere mu_0 is a difference of error functions on the line
    arg z = -sign(b) pi/4, where they are Fresnel integrals (_diagonal_erf),
    and the rest follow from the recurrence
        2b mu_{j+1} + a mu_j - i j mu_{j-1} = -i (e^{i(b+a)} - (-1)^j e^{i(b-a)}):
    forward where the stationary point -a/(2b) lies within 2 of the panel
    centre, and elsewhere, where forward recursion grows like |a/(2b)|^j, by
    a backward sweep from mu_{_SWEEP_DEPTH+1} = 0 (Olver's algorithm).
    """
    b = np.broadcast_to(np.asarray(b, dtype=float), a.shape)
    series = np.abs(b) <= 1.0
    mu = np.empty((a.size, _NODES), dtype=complex)
    if series.any():
        mu[series] = _chirp_series_moments(a[series], b[series])
    if not series.all():
        mu[~series] = _erf_moments(a[~series], b[~series])
    return mu


def _distinct(b: np.ndarray) -> tuple[list[float], np.ndarray]:
    """The distinct values of b as Python floats, and each row's index into
    them; runs of equal rows are found without a sort."""
    starts = np.flatnonzero(np.concatenate(([True], b[1:] != b[:-1])))
    index: dict[float, int] = {}
    runs = [index.setdefault(v, len(index)) for v in b[starts].tolist()]
    return list(index), np.repeat(runs, np.diff(np.append(starts, b.size)))


def _chirp_series_moments(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # each distinct b's coefficients (i b)^n / n! in Python complex scalars,
    # padded with zeros to the longest series
    distinct, rows = _distinct(b)
    series = []
    for bv in distinct:
        coefs = [1.0 + 0.0j]
        while abs(coefs[-1]) > 1e-17:
            coefs.append(coefs[-1] * 1j * bv / len(coefs))
        series.append(coefs)
    terms = max(map(len, series))
    coefs = np.array([c + [0j] * (terms - len(c)) for c in series])[rows]
    lin = _linear_moments(a, _NODES - 1 + 2 * (terms - 1))
    return sum(coefs[:, n, None] * lin[:, 2 * n:2 * n + _NODES] for n in range(terms))


# erf on the lines arg z = -+pi/4, where it is a Fresnel integral, from Cephes
# fresnl (S. Moshier), the routine behind scipy.special.fresnel: rational
# approximations of C and S for x = t sqrt(2/pi) below 1.6, and of the
# auxiliary functions f and g of u = 1/(pi x^2)^2 above.  Each row holds one
# polynomial, highest degree first, zero-padded on the left, with the leading 1
# of Cephes' p1evl written out.
_FRESNEL_SMALL = np.array([
    [0.0, -2.99181919401019853726E3, 7.08840045257738576863E5, -6.29741486205862506537E7,
     2.54890880573376359104E9, -4.42979518059697779103E10, 3.18016297876567817986E11],
    [1.0, 2.81376268889994315696E2, 4.55847810806532581675E4, 5.17343888770096400730E6,
     4.19320245898111231129E8, 2.24411795645340920940E10, 6.07366389490084639049E11],
    [0.0, -4.98843114573573548651E-8, 9.50428062829859605134E-6, -6.45191435683965050962E-4,
     1.88843319396703850064E-2, -2.05525900955013891793E-1, 9.99999999999999998822E-1],
    [3.99982968972495980367E-12, 9.15439215774657478799E-10, 1.25001862479598821474E-7,
     1.22262789024179030997E-5, 8.68029542941784300606E-4, 4.12142090722199792936E-2,
     1.00000000000000000118E0],
])   # S numerator, S denominator, C numerator, C denominator, in x^4
_FRESNEL_LARGE = np.array([
    [0.0, 0.0, 4.21543555043677546506E-1, 1.43407919780758885261E-1,
     1.15220955073585758835E-2, 3.45017939782574027900E-4, 4.63613749287867322088E-6,
     3.05568983790257605827E-8, 1.02304514164907233465E-10, 1.72010743268161828879E-13,
     1.34283276233062758925E-16, 3.76329711269987889006E-20],
    [0.0, 1.0, 7.51586398353378947175E-1, 1.16888925859191382142E-1,
     6.44051526508858611005E-3, 1.55934409164153020873E-4, 1.84627567348930545870E-6,
     1.12699224763999035261E-8, 3.60140029589371370404E-11, 5.88754533621578410010E-14,
     4.52001434074129701496E-17, 1.25443237090011264384E-20],
    [0.0, 5.04442073643383265887E-1, 1.97102833525523411709E-1, 1.87648584092575249293E-2,
     6.84079380915393090172E-4, 1.15138826111884280931E-5, 9.82852443688422223854E-8,
     4.45344415861750144738E-10, 1.08268041139020870318E-12, 1.37555460633261799868E-15,
     8.36354435630677421531E-19, 1.86958710162783235106E-22],
    [1.0, 1.47495759925128324529E0, 3.37748989120019970451E-1, 2.53603741420338795122E-2,
     8.14679107184306179049E-4, 1.27545075667729118702E-5, 1.04314589657571990585E-7,
     4.60680728146520428211E-10, 1.10273215066240270757E-12, 1.38796531259578871258E-15,
     8.39158816283118707363E-19, 1.86958710162783236342E-22],
])   # f numerator, f denominator, g numerator, g denominator, in u
_FRESNEL_SPLIT = 2.5625 * math.pi / 2.0     # Cephes' x^2 < 2.5625, in t^2


def _horner(coefs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Every row of coefs at x in one Horner loop; the zero padding adds no rounding."""
    out = np.zeros((coefs.shape[0], x.size))
    for col in coefs.T[:, :, None]:
        out *= x
        out += col
    return out


def _diagonal_erf(t: np.ndarray, line: np.ndarray) -> np.ndarray:
    """erf(e^{-i pi/4} t) for real t, and its conjugate erf(e^{i pi/4} t)
    where line < 0; line broadcasts against t.

    erf(e^{-i pi/4} t) = (1 - i)(C(x) + i S(x)), x = t sqrt(2/pi).  Above
    the split it is sign(t) - (1 + i)(f - i g) e^{i t^2} / (t sqrt(2 pi)),
    whose phase is formed as t*t, not as pi x^2 / 2, which would add roundings
    to a phase of order t^2.  +-inf, and |t| whose square overflows, give
    +-1; NaN gives NaN.
    """
    t2 = t * t
    out = np.sign(t).astype(complex)
    small = t2 < _FRESNEL_SPLIT
    large = ~small & np.isfinite(t2)
    x = t[small] * math.sqrt(2.0 / math.pi)
    x2 = x * x
    sn, sd, cn, cd = _horner(_FRESNEL_SMALL, x2 * x2)
    out[small] = (1.0 - 1.0j) * (x * cn / cd + 1j * (x * x2 * sn / sd))
    q = 0.5 / t2[large]                         # 1 / (pi x^2)
    fn, fd, gn, gd = _horner(_FRESNEL_LARGE, q * q)
    f, g = 1.0 - q * q * fn / fd, q * gn / gd
    out[large] -= ((1.0 + 1.0j) * (f - 1j * g) * np.exp(1j * t2[large])
                   / (t[large] * math.sqrt(2.0 * math.pi)))
    return np.where(line < 0, out.conj(), out)


def _erf_moments(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # mu_0 = sqrt(pi) / (2 w) e^{-iac/2} (erf(w(c + 1)) - erf(w(c - 1))), c = a/(2b),
    # with w = sqrt(-ib) = sqrt|b| e^{-+i pi/4} on the line that the sign of b picks
    root = np.sqrt(np.abs(b))
    scale = math.sqrt(math.pi / 8.0) * (1.0 + 1j * np.sign(b)) / root
    ep, em = np.exp(1j * (b + a)), np.exp(1j * (b - a))
    rhs = (-1j * (ep - em), -1j * (ep + em))       # by parity of j
    c = a / (2.0 * b)
    ends = _diagonal_erf(root * np.stack((c + 1.0, c - 1.0)), b)
    mu = np.empty((a.size, _NODES), dtype=complex)
    mu[:, 0] = scale * np.exp(-0.5j * a * c) * (ends[0] - ends[1])
    near, far = np.abs(c) <= 2.0, ~(np.abs(c) <= 2.0)
    an, bn = a[near], b[near]
    for j in range(_NODES - 1):
        prev = 1j * j * mu[near, j - 1] if j else 0.0
        mu[near, j + 1] = (rhs[j % 2][near] + prev - an * mu[near, j]) / (2.0 * bn)
    # far rows: mu_{j+1} = e_j mu_j + f_j, eliminated upwards from row _SWEEP_DEPTH
    af, bf, rf = a[far], b[far], (rhs[0][far], rhs[1][far])
    e = f = np.zeros(af.size, dtype=complex)
    steps = [None] * (_NODES - 1)
    for j in range(_SWEEP_DEPTH, 0, -1):
        den = af + 2.0 * bf * e
        e, f = 1j * j / den, (rf[j % 2] - 2.0 * bf * f) / den
        if j < _NODES:
            steps[j - 1] = (e, f)
    for j, (e, f) in enumerate(steps):
        mu[far, j + 1] = e * mu[far, j] + f
    return mu


def quadratic_phase_filon(g: Callable[[np.ndarray], np.ndarray], betas: np.ndarray, u0: float,
                          lo: float, hi: float, tol: float,
                          max_panels: int = 4096) -> tuple[np.ndarray, np.ndarray]:
    """integral_lo^hi g(u) e^{i beta (u - u0)^2} du for each beta of betas,
    and the final panel counts.

    Composite Filon rule with an exact phase (Iserles and Norsett, 2005): on
    each panel g, which takes an array, is interpolated at _NODES Chebyshev
    points and the interpolant is integrated exactly against the phase, so
    panels resolve the amplitude, not the oscillation.  Each beta halves its
    panels, from 8, until two successive halvings each change its value by
    at most tol: a single agreement can be a coincidence before the
    asymptotic rate sets in.  A pass is batched over the betas still open:
    g is evaluated once, and each moments call takes the panels of as many
    betas as fit in _MAX_ROWS rows; each beta gets the floats a pass of its
    own would give.  Raises QuadratureError when a pass is not finite or
    some beta's passes have not agreed within max_panels.
    """
    betas = np.asarray(betas, dtype=float)
    values = np.zeros(betas.size, dtype=complex)
    panels = np.zeros(betas.size, dtype=int)
    prev, agreed = [None] * betas.size, [0] * betas.size
    open_, n = list(range(betas.size)), 8
    while open_ and n <= max_panels:
        r = 0.5 * (hi - lo) / n
        mid = lo + r * (2.0 * np.arange(n) + 1.0)
        w = mid - u0
        amp = g(mid[:, None] + r * _CHEB).astype(complex)
        per_call = max(1, _MAX_ROWS // n)
        for group in (open_[i:i + per_call] for i in range(0, len(open_), per_call)):
            a = (2.0 * betas[group, None] * r * w).ravel()
            b = np.repeat(betas[group] * r * r, n)
            moments = np.concatenate([_quadratic_moments(a[i:i + _MAX_ROWS], b[i:i + _MAX_ROWS])
                                      for i in range(0, a.size, _MAX_ROWS)])
            for row, k in enumerate(group):
                sums = np.einsum("pj,ji,pi->p", moments[row * n:(row + 1) * n],
                                 _TO_MONOMIAL, amp)
                cur = complex(r * np.sum(np.exp(1j * float(betas[k]) * w * w) * sums))
                if not cmath.isfinite(cur):
                    raise QuadratureError(f"Filon pass with {n} panels is not finite")
                close = prev[k] is not None and abs(cur - prev[k]) <= tol
                agreed[k] = agreed[k] + 1 if close else 0
                prev[k] = cur
                if agreed[k] == 2:
                    values[k], panels[k] = cur, n
        open_, n = [k for k in open_ if agreed[k] < 2], 2 * n
    if open_:
        raise QuadratureError(f"Filon passes did not agree to {tol} within {max_panels} panels")
    return values, panels


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
    values, panels = quadratic_phase_filon(case.u_amplitude,
                                           np.array([-case.tau / x for x in case.x_list]),
                                           0.5 / case.tau, *case.u_support(), tol)
    rows = []
    for x, val, n in zip(case.x_list, values.tolist(), panels.tolist()):
        integral = val * cmath.exp(1j * case.psi / x) / (2j * math.pi)
        ref = math.sqrt(x) * case.tau ** (-1.5) * a_c * cmath.exp(1j * case.psi / x)
        pref = integral / ref
        rows.append({"x": x, "integral": integral, "panels": n,
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
