"""Radial points of p = |zeta|^2 + V0 - sigma over critical points of V0.

A Morse critical point of V0 with value below sigma carries two radial
points nu = +-sqrt(sigma - V0(z)).  The linearization of the Legendre
field there decomposes into 2x2 blocks, one per Hessian eigenvalue 2a_j,
with eigenvalue pairs lam*r_j, lam*(1 - r_j),

    r_j = 1/2 - sqrt(1/4 - a_j/(sigma - V0(z))),   lam = -2 nu.

r_j is kept exact (Fraction, or GaussianRational on complex blocks) when
the inputs are rational and every discriminant is a perfect square;
otherwise every r_j is a float or complex.

linearization_spectrum is the one gate for forbidden energies, in the
abstract and the explicit pipeline alike: sigma within tol of a critical
value V0(z) raises ThresholdEnergyError, and within tol of a Hessian
threshold V0(z) + 4 a_j (a_j > 0, where r_j = 1/2) HessianThresholdError.
Exact inputs are tested on the exact difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .scalars import GaussianRational, is_exact, rational_sqrt
from .symalg import (EXACT, EigenWeights, FloatWeights, ModelQuadratic, VariableLayout,
                     point_weights)

# distance in energy under which sigma is refused; options.tol's default
DEFAULT_TOL = 1e-10


class ForbiddenEnergyError(ValueError):
    """sigma is a forbidden energy; offending is the refused sigma (CLI exit 3)."""

    def __init__(self, message, offending):
        super().__init__(message)
        self.offending = offending


class ThresholdEnergyError(ForbiddenEnergyError):
    """sigma is a critical value of V0."""


class HessianThresholdError(ForbiddenEnergyError):
    """sigma sits at a Hessian threshold V0(z) + 4 a_j."""


class NoRealRadialPointError(ValueError):
    """sigma <= V0(z): no real radial point over this critical point."""


@dataclass(frozen=True)
class CriticalPointSpec:
    """A Morse critical point of V0: its value and Hessian eigenvalues 2a_j."""

    label: str
    value: object
    hessian: tuple

    def __post_init__(self):
        object.__setattr__(self, "hessian", tuple(self.hessian))
        if any(h == 0 for h in self.hessian):
            raise ValueError("Morse condition violated: zero Hessian eigenvalue")
        if len(self.hessian) == 0:
            raise ValueError("hessian list must have n - 1 >= 1 entries")

    @property
    def n(self) -> int:
        return len(self.hessian) + 1

    @property
    def morse_index(self) -> int:
        return sum(1 for h in self.hessian if h < 0)

    @property
    def is_exact(self) -> bool:
        return is_exact(self.value) and all(is_exact(h) for h in self.hessian)

    def to_json_dict(self) -> dict:
        return {"label": self.label, "value": _num(self.value),
                "hessian": [_num(h) for h in self.hessian]}


def _num(x):
    if isinstance(x, Fraction):
        return float(x) if x.denominator != 1 else int(x)
    return x


def is_complex_ratio(r) -> bool:
    return complex(r).imag != 0.0


@dataclass(frozen=True)
class RadialPoint:
    """One radial point: a critical point, a sign of nu, and its spectrum.

    r_list is sorted ascending by (real part, imaginary part); layout
    records the induced (y', y'', y''') partition and hessian_order maps
    sorted positions back to positions in cp.hessian.
    """

    cp: CriticalPointSpec
    sign: int
    nu: object
    lam: object
    r_list: tuple
    layout: VariableLayout
    hessian_order: tuple[int, ...]

    @property
    def outgoing(self) -> bool:
        return complex(self.lam).real < 0

    @property
    def n(self) -> int:
        return self.cp.n

    @property
    def mode(self) -> str:
        return self.weights.mode

    @cached_property
    def weights(self) -> EigenWeights | FloatWeights:
        """The weights of R / lam at this point, built once."""
        return point_weights(self.lam, self.r_list)

    def model_quadratic(self, quad_blocks=None) -> ModelQuadratic:
        """The grade-0 model for this radial point.

        Real blocks use r_j y_j mu_j; y''' blocks need elliptic quadratic
        data, which is not determined by the Hessian alone and must be
        supplied by the caller.
        """
        return ModelQuadratic(lam=self.lam, r_list=self.r_list, layout=self.layout,
                              quad_blocks=quad_blocks or {})

    def to_json_dict(self) -> dict:
        return {
            "label": self.cp.label,
            "sign": self.sign,
            "nu": _num(self.nu),
            "lambda": _num(self.lam),
            "rList": [{"re": complex(r).real, "im": complex(r).imag} for r in self.r_list],
            "partition": [self.layout.s, self.layout.m],
            "outgoing": self.outgoing,
            "hessianThreshold": False,   # thresholds are refused; kept for the report format
            "class": classify_radial(self),
        }


def _ratio_to_r(ratio, exact: bool):
    """r = 1/2 - sqrt(1/4 - ratio) with Re r <= 1/2, exact when the root is rational."""
    disc = Fraction(1, 4) - ratio if exact else 0.25 - float(ratio)
    if exact:
        root = rational_sqrt(abs(disc))
        if root is not None:
            return Fraction(1, 2) - root if disc > 0 else GaussianRational(Fraction(1, 2), root)
        disc = float(disc)
    if disc >= 0:
        return 0.5 - math.sqrt(disc)
    return complex(0.5, math.sqrt(-disc))


def linearization_spectrum(cp: CriticalPointSpec, sigma, sign: int,
                           tol: float = DEFAULT_TOL) -> RadialPoint:
    """Build the radial point over cp at energy sigma with nu of given sign.

    Raises ThresholdEnergyError when |sigma - V0(z)| < tol,
    HessianThresholdError when |sigma - (V0(z) + 4 a_j)| < tol for some
    a_j > 0, and then NoRealRadialPointError when sigma < V0(z).
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    exact = cp.is_exact and is_exact(sigma)
    w = (Fraction(sigma) - Fraction(cp.value)) if exact else float(sigma) - float(cp.value)
    if abs(w) < tol:
        raise ThresholdEnergyError(
            f"sigma = {sigma} is a critical value of V0: V0({cp.label}) = {cp.value}", sigma)
    halves = [Fraction(h) / 2 if exact else float(h) / 2.0 for h in cp.hessian]
    if any(a > 0 and abs(w - 4 * a) < tol for a in halves):
        listed = ", ".join(map(str, hessian_thresholds(cp)))
        raise HessianThresholdError(
            f"sigma = {sigma} is a Hessian threshold for {cp.label}; thresholds: {listed}",
            sigma)
    if w <= 0:
        raise NoRealRadialPointError(
            f"sigma = {sigma} is not above V0({cp.label}) = {cp.value}")

    entries = sorted(enumerate(_ratio_to_r(a / w, exact) for a in halves),
                     key=lambda item: (complex(item[1]).real, complex(item[1]).imag))
    order = tuple(idx for idx, _ in entries)
    r_list = tuple(r for _, r in entries)
    if not all(is_exact(r) for r in r_list):
        # one representation per point: a single irrational r_j makes all floating
        r_list = tuple(complex(r) if is_complex_ratio(r) else float(r) for r in r_list)

    s = 1 + sum(1 for r in r_list if not is_complex_ratio(r) and complex(r).real < 0)
    m = s + sum(1 for r in r_list if not is_complex_ratio(r) and complex(r).real > 0)
    layout = VariableLayout(n=cp.n, s=s, m=m)

    if exact:
        root = rational_sqrt(w)
        nu = sign * root if root is not None else sign * math.sqrt(float(w))
    else:
        nu = sign * math.sqrt(w)
    lam = -2 * nu
    return RadialPoint(cp=cp, sign=sign, nu=nu, lam=lam, r_list=r_list,
                       layout=layout, hessian_order=order)


def radial_point_from_spectrum(lam, r_list: Sequence, label: str = "abstract",
                               value=0) -> RadialPoint:
    """Build the radial point with prescribed lam and eigenvalue ratios.

    Reconstructs the matching critical-point data (Hessian eigenvalues
    2 a_j = (lam^2 / 2) r_j (1 - r_j), energy sigma = V0 + lam^2 / 4) and
    runs it through linearization_spectrum, so all derived structure is
    consistent.  Exact inputs stay exact.
    """
    if point_weights(lam, r_list).mode == EXACT:
        lam = Fraction(lam)
        w = lam * lam / 4
        hess = []
        for r in r_list:
            prod = r * (1 - r)
            if isinstance(prod, GaussianRational):
                if prod.im != 0:
                    raise ValueError("complex r must have real part 1/2")
                prod = prod.re
            hess.append(2 * w * prod)
        sigma = Fraction(value) + w
    else:
        lam = float(lam)
        w = lam * lam / 4.0
        hess = [2.0 * w * (complex(r) * (1 - complex(r))).real for r in r_list]
        sigma = float(value) + w
    cp = CriticalPointSpec(label, value, tuple(hess))
    sign = +1 if lam < 0 else -1
    return linearization_spectrum(cp, sigma, sign)


def hessian_thresholds(cp: CriticalPointSpec) -> list:
    """Energies V0(z) + 4 a_j over the positive Hessian eigenvalues 2 a_j."""
    out = []
    for h in cp.hessian:
        a = Fraction(h) / 2 if is_exact(h) else h / 2.0
        if a > 0:
            if is_exact(cp.value) and is_exact(h):
                out.append(Fraction(cp.value) + 4 * a)
            else:
                out.append(float(cp.value) + 4.0 * float(a))
    return sorted(out)


def classify_radial(rp: RadialPoint) -> str:
    """'sourceSink' over a local minimum of V0 (empty y' block), else 'saddle'."""
    return "sourceSink" if len(rp.layout.yprime_indices) == 0 else "saddle"


@dataclass(frozen=True)
class LinearizationData:
    """Linearization of W at a radial point, acting on T_q Sigma.

    matrix_a acts on tangent vectors in the (y_1..y_{n-1}, mu_1..mu_{n-1})
    ordering (sorted block order); omega is d(alpha) restricted to the
    same basis.  Eigenforms are rows of coefficient pairs (c_y, c_mu) per
    block, each satisfying A^T v = eigenvalue * v for the stated value.
    """

    rp: RadialPoint
    matrix_a: np.ndarray
    omega: np.ndarray
    e_forms: tuple            # per index j: (c_y, c_mu) with eigenvalue lam*r_j
    f_forms: tuple            # per index j: (c_y, c_mu) with eigenvalue lam*(1-r_j)

    def eigenvalue_e(self, j: int) -> complex:
        return complex(self.rp.lam) * complex(self.rp.r_list[j])

    def eigenvalue_f(self, j: int) -> complex:
        return complex(self.rp.lam) * (1 - complex(self.rp.r_list[j]))

    def form_vector(self, coeffs: tuple, j: int) -> np.ndarray:
        """Embed a per-block form (c_y, c_mu) as a full covector."""
        nv = self.rp.n - 1
        vec = np.zeros(2 * nv, dtype=complex)
        vec[j] = coeffs[0]
        vec[nv + j] = coeffs[1]
        return vec


def linearization_eigenvectors(rp: RadialPoint) -> LinearizationData:
    """Eigenforms of the linearization at rp.

    In the sorted-block coordinates centered at the radial point,

        e~_j = -(lam/2)(1 - r_j) dy_j + dmu_j   (eigenvalue lam r_j),
        f~_j = -(lam/2) r_j dy_j + dmu_j        (eigenvalue lam (1 - r_j)),

    each verified against the Jacobian of W: the returned forms satisfy
    A^T v = eigenvalue v exactly for the quadratic local model.
    """
    lam = complex(rp.lam)
    nv = rp.n - 1
    A = np.zeros((2 * nv, 2 * nv))
    # Per-block tangent action: d/dt (y_j, mu_j) = (2 mu_j, -2a_j y_j + lam mu_j).
    for j in range(nv):
        h = float(cp_hessian_sorted(rp)[j])
        A[j, nv + j] = 2.0
        A[nv + j, j] = -h
        A[nv + j, nv + j] = lam.real
    omega = np.zeros((2 * nv, 2 * nv))
    omega[:nv, nv:] = -np.eye(nv)
    omega[nv:, :nv] = np.eye(nv)

    e_forms = []
    f_forms = []
    for j in range(nv):
        r = complex(rp.r_list[j])
        e_forms.append((-(lam / 2) * (1 - r), 1.0 + 0j))
        f_forms.append((-(lam / 2) * r, 1.0 + 0j))
    return LinearizationData(rp=rp, matrix_a=A, omega=omega,
                             e_forms=tuple(e_forms), f_forms=tuple(f_forms))


def cp_hessian_sorted(rp: RadialPoint) -> tuple:
    """Hessian eigenvalues 2a_j reordered to match rp.r_list."""
    return tuple(rp.cp.hessian[idx] for idx in rp.hessian_order)


def local_symbol(rp: RadialPoint):
    """Callable p(y, nu, mu) for the quadratic local model at rp.

    Arguments are offsets from the critical point (y), the absolute nu,
    and mu; used for finite-difference cross checks of the linearization.
    """
    hess = [float(h) for h in cp_hessian_sorted(rp)]
    v0 = float(rp.cp.value)

    def p(y: Sequence[float], nu: float, mu: Sequence[float], sigma: float) -> float:
        quad = sum(0.5 * h * yy * yy for h, yy in zip(hess, y))
        return nu * nu + sum(m * m for m in mu) + v0 + quad - sigma

    return p


def legendre_field_numeric(p, sigma: float, nvars: int, step: float = 1e-6):
    """Finite-difference Legendre field of a callable symbol p(y, nu, mu, sigma).

    Returns W(y, nu, mu) -> (dy, dnu, dmu) implementing
    W = -(d_nu p) mu.d_mu + (mu.d_mu p - p) d_nu + sum_j (d_mu_j p d_y_j - d_y_j p d_mu_j).
    """

    def grad(y, nu, mu):
        dp_y = np.zeros(nvars)
        dp_mu = np.zeros(nvars)
        for j in range(nvars):
            ey = np.zeros(nvars)
            ey[j] = step
            dp_y[j] = (p(y + ey, nu, mu, sigma) - p(y - ey, nu, mu, sigma)) / (2 * step)
            dp_mu[j] = (p(y, nu, mu + ey, sigma) - p(y, nu, mu - ey, sigma)) / (2 * step)
        dp_nu = (p(y, nu + step, mu, sigma) - p(y, nu - step, mu, sigma)) / (2 * step)
        return dp_y, dp_nu, dp_mu

    def W(y, nu, mu):
        y = np.asarray(y, dtype=float)
        mu = np.asarray(mu, dtype=float)
        dp_y, dp_nu, dp_mu = grad(y, nu, mu)
        dy = dp_mu
        dmu = -dp_nu * mu - dp_y
        dnu = float(mu @ dp_mu) - p(y, nu, mu, sigma)
        return dy, dnu, dmu

    return W


def numerical_jacobian(rp: RadialPoint, sigma: float, step: float = 1e-5) -> np.ndarray:
    """Finite-difference Jacobian of W at rp in (y, mu) coordinates on T Sigma."""
    nv = rp.n - 1
    p = local_symbol(rp)
    W = legendre_field_numeric(p, sigma, nv)
    nu0 = float(rp.nu)

    def field(z):
        y, mu = z[:nv], z[nv:]
        dy, _, dmu = W(y, nu0, mu)
        return np.concatenate([dy, dmu])

    J = np.zeros((2 * nv, 2 * nv))
    for k in range(2 * nv):
        e = np.zeros(2 * nv)
        e[k] = step
        J[:, k] = (field(e) - field(-e)) / (2 * step)
    return J
