"""Explicit bicharacteristic flow on the boundary contact space over S^1.

For n = 2 the symbol is p = nu^2 + mu^2 + V0(theta) - sigma and the
Legendre field reads

    W = 2 mu d_theta + (2 mu^2 - p) d_nu + (-2 nu mu - V0'(theta)) d_mu,

so on the shell {p = 0} the variable nu is nondecreasing.  Radial points
sit over critical points of V0 at nu = +-sqrt(sigma - V0); forward
trajectories seeded along unstable directions of saddles witness the
heteroclinic partial order, aggregated into a DAG and totally ordered by
the microlocal Morse construction (descending nu, minima last on ties).

Trigonometric potentials are given as coefficient rows (k, a_k, b_k)
meaning V0(theta) = sum a_k cos(k theta) + b_k sin(k theta).

The heteroclinic traces run on _dop853, a DOP853 stepper on three Python
floats with solve_ivp's tableau and step control (Hairer, Norsett and
Wanner, Solving ODEs I, Sec. II.10), under a fixed budget of attempted
steps per trajectory.  integrate_flow, which takes backward spans and
max_step, stays on solve_ivp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients as _dop
from scipy.optimize import brentq

from .radial import (DEFAULT_TOL, CriticalPointSpec, NoRealRadialPointError, RadialPoint,
                     ThresholdEnergyError,  # noqa: F401 - re-exported
                     classify_radial, linearization_spectrum)

DEFAULT_FLOW_TOL = 1e-10
DEFAULT_BALL_RADIUS = 1e-3
DEFAULT_W_STOP = 1e-6
DEFAULT_HOLD_TIME = 5.0
# attempted DOP853 steps per heteroclinic trace, chunks and hold together;
# a workload trajectory takes about 170
MAX_FLOW_STEPS = 10_000


class NotMorseError(ValueError):
    pass


@dataclass(frozen=True)
class PotentialModel:
    """A trigonometric potential on S^1 (n = 2).

    The two-chart stereographic S^2 case (n = 3) is not implemented; the
    abstract critical-point pipeline covers higher dimensions.
    """

    n: int
    v0_coeffs: tuple  # rows (k, a_k, b_k)

    def __post_init__(self):
        if self.n != 2:
            raise NotImplementedError(
                "explicit flows are implemented for n = 2 (S^1); use the abstract "
                "critical-point pipeline for other dimensions")
        object.__setattr__(self, "v0_coeffs", tuple(tuple(row) for row in self.v0_coeffs))

    # Each form adds its rows left to right from 0, so the scalar, array and
    # right-hand-side (_rhs) values agree bit for bit where np.cos/np.sin
    # agree with math.cos/math.sin.
    def v0(self, theta: float) -> float:
        total = 0.0
        for k, a, b in self.v0_coeffs:
            total += a * math.cos(k * theta) + b * math.sin(k * theta)
        return total

    def v0_prime(self, theta: float) -> float:
        total = 0.0
        for k, a, b in self.v0_coeffs:
            total += -a * k * math.sin(k * theta) + b * k * math.cos(k * theta)
        return total

    def v0_array(self, theta: np.ndarray) -> np.ndarray:
        total = np.zeros(np.shape(theta))
        for k, a, b in self.v0_coeffs:
            total += a * np.cos(k * theta) + b * np.sin(k * theta)
        return total

    def v0_prime_array(self, theta: np.ndarray) -> np.ndarray:
        total = np.zeros(np.shape(theta))
        for k, a, b in self.v0_coeffs:
            total += -a * k * np.sin(k * theta) + b * k * np.cos(k * theta)
        return total

    def v0_second(self, theta: float) -> float:
        return sum(-a * k * k * math.cos(k * theta) - b * k * k * math.sin(k * theta)
                   for k, a, b in self.v0_coeffs)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "v0": [list(row) for row in self.v0_coeffs]}


@dataclass(frozen=True)
class ContactPoint:
    chart: str
    y: tuple[float, ...]
    nu: float
    mu: tuple[float, ...]

    @property
    def theta(self) -> float:
        return self.y[0]

    def state(self) -> np.ndarray:
        return np.array([*self.y, self.nu, *self.mu])


def symbol_value(pm: PotentialModel, sigma: float, pt: ContactPoint) -> float:
    return pt.nu ** 2 + sum(m * m for m in pt.mu) + pm.v0(pt.theta) - sigma


def field_eval(pm: PotentialModel, sigma: float, pt: ContactPoint) -> np.ndarray:
    """W at pt, as (dtheta, dnu, dmu)."""
    return np.array(_rhs(pm, sigma)(pt.theta, pt.nu, pt.mu[0]))


def _rhs(pm: PotentialModel, sigma: float):
    """W as a function (theta, nu, mu) -> (dtheta, dnu, dmu) on plain floats.

    One cos/sin pair per row; each row carries the products -a k and b k
    that pm.v0_prime forms, so V0 and V0' equal pm.v0's and pm.v0_prime's
    bit for bit.
    """
    rows = tuple((k, a, b, -a * k, b * k) for k, a, b in pm.v0_coeffs)
    cos, sin = math.cos, math.sin

    def fn(theta, nu, mu):
        v = vp = 0.0
        for k, a, b, ak, bk in rows:
            c, s = cos(k * theta), sin(k * theta)
            v += a * c + b * s
            vp += ak * s + bk * c
        p = nu * nu + mu * mu + v - sigma
        return (2.0 * mu, 2.0 * mu * mu - p, -2.0 * nu * mu - vp)
    return fn


# solve_ivp's DOP853 tableau, nonzero entries only: stage rows of A, the
# weights B and the error weights E5 and E3, each as (j, coefficient of k_j)
_DOP_A = tuple(tuple((j, float(_dop.A[s, j])) for j in range(s) if _dop.A[s, j])
               for s in range(1, _dop.N_STAGES))
_DOP_B, _DOP_E5, _DOP_E3 = (tuple((j, float(c)) for j, c in enumerate(w[:_dop.N_STAGES]) if c)
                            for w in (_dop.B, _dop.E5, _dop.E3))
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1.0 / 8.0


class FlowStepError(RuntimeError):
    """The stepper stopped early; t and state are the last accepted point."""

    def __init__(self, message: str, t: float, state: tuple):
        super().__init__(message)
        self.t, self.state = t, state


def _straight_line_step():
    """One DOP853 step, step(field, y, f0, h) -> (y_new, e5, e3), as
    straight-line code generated once from the tableau.

    Each stage is one expression per component over its nonzero entries,
    summed left to right, with no loop or indexing at run time; e5 and e3
    are the error sums per component without the factor h.  Against a
    loop over the same entries (the reference in the tests, equal bit for
    bit) it cuts circle-analyze wall_ref by about 8 % (2-CPU VM, Python
    3.11.7).
    """
    def combo(pairs, i):
        return " + ".join(f"{c!r} * k{j}_{i}" for j, c in pairs)

    lines = ["def step(field, y, f0, h):",
             "    y0, y1, y2 = y",
             "    k0_0, k0_1, k0_2 = f0"]
    for s, row in enumerate(_DOP_A, start=1):
        args = ", ".join(f"y{i} + ({combo(row, i)}) * h" for i in range(3))
        lines.append(f"    k{s}_0, k{s}_1, k{s}_2 = field({args})")
    y_new = ", ".join(f"y{i} + h * ({combo(_DOP_B, i)})" for i in range(3))
    e5 = ", ".join(combo(_DOP_E5, i) for i in range(3))
    e3 = ", ".join(combo(_DOP_E3, i) for i in range(3))
    lines.append(f"    return ({y_new}), ({e5}), ({e3})")
    namespace: dict = {}
    exec("\n".join(lines), namespace)
    return namespace["step"]


_dop853_step = _straight_line_step()


def _rms(v, s) -> float:
    """RMS of v / s over the three components, summed left to right."""
    return math.sqrt(((v[0] / s[0]) ** 2 + (v[1] / s[1]) ** 2 + (v[2] / s[2]) ** 2) / 3.0)


def _dop853(field, y, t_bound: float, rtol: float, atol: float, max_steps: int):
    """Integrate y' = field(*y) over (0, t_bound] as solve_ivp's DOP853 would.

    The same tableau and control: select_initial_step with exponent 1/8,
    steps clipped to t_bound, a floor of 10 ulp(t) on the step, the
    DOP853 error norm |h| ||e5||^2 / sqrt((||e5||^2 + 0.01 ||e3||^2) 3)
    scaled by atol + max(|y|, |y_new|) rtol, SAFETY 0.9, MIN_FACTOR 0.2,
    MAX_FACTOR 10 and no growth right after a rejection.  The sums run
    left to right in Python floats, where scipy uses BLAS dot products,
    so results agree with solve_ivp's to roundoff, not bit for bit.

    Returns (times, states, attempted): the time and state at the end of
    each accepted step (t = 0 excluded) and the number of attempted
    steps.  Raises FlowStepError when the step falls below its floor or
    max_steps attempts are spent.
    """
    times: list[float] = []
    states: list[tuple] = []
    if t_bound <= 0.0:
        return times, states, 0
    y = tuple(y)
    f = field(*y)
    # select_initial_step
    scale = [atol + abs(v) * rtol for v in y]
    d0, d1 = _rms(y, scale), _rms(f, scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_bound)
    f1 = field(*(v + h0 * g for v, g in zip(y, f)))
    d2 = _rms([a - b for a, b in zip(f1, f)], scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    h_abs = min(100.0 * h0, h1, t_bound)

    t = 0.0
    attempted = 0
    while t < t_bound:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise FlowStepError("Required step size is less than spacing between numbers.",
                                    t, y)
            if attempted >= max_steps:
                raise FlowStepError("attempted-step budget spent", t, y)
            t_new = min(t + h_abs, t_bound)
            h = h_abs = t_new - t
            attempted += 1
            y_new, e5, e3 = _dop853_step(field, y, f, h)
            n5 = n3 = 0.0
            for a, b, c, d in zip(y, y_new, e5, e3):
                s = atol + max(abs(a), abs(b)) * rtol
                n5 += (c / s) ** 2
                n3 += (d / s) ** 2
            err = 0.0 if n5 == 0.0 and n3 == 0.0 else h_abs * n5 / math.sqrt((n5 + 0.01 * n3) * 3.0)
            if err < 1.0:
                factor = _MAX_FACTOR if err == 0.0 else min(_MAX_FACTOR,
                                                            _SAFETY * err ** _ERROR_EXPONENT)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err ** _ERROR_EXPONENT)
            rejected = True
        t, y = t_new, y_new
        f = field(*y)
        times.append(t)
        states.append(y)
    return times, states, attempted


def tangency_identity() -> bool:
    """Symbolic check that W(p) = -2 nu p identically for n = 2.

    Works in the polynomial ring Q[nu, mu, V, V', s] with the boundary
    potential and its derivative as opaque generators, so the identity
    (hence tangency of W to every shell {p = 0}) holds for every V0 and
    sigma, with no trigonometric input.
    """
    from fractions import Fraction

    from .multipoly import MultiPoly

    nu, mu, V, Vp, s = (MultiPoly.variable(5, j) for j in range(5))
    p = nu * nu + mu * mu + V - s
    dp_theta, dp_nu, dp_mu = Vp, nu.scale(2), mu.scale(2)
    w_theta = mu.scale(2)
    w_nu = mu * mu * Fraction(2) - p
    w_mu = -(nu * mu).scale(2) - Vp
    wp = w_theta * dp_theta + w_nu * dp_nu + w_mu * dp_mu
    return (wp + (nu * p).scale(2)).is_zero()


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray          # rows (theta, nu, mu)
    pvals: np.ndarray
    sigma: float
    p_drift: float
    nu_min_increment: float

    def to_csv_rows(self):
        th, nu, mu = self.states.T.tolist()
        return [("t", "chart", "y1", "nu", "mu1", "p"),
                *zip(map(repr, self.times.tolist()), ["circle"] * len(th), map(repr, th),
                     map(repr, nu), map(repr, mu), map(repr, self.pvals.tolist()))]


def _make_trajectory(pm: PotentialModel, sigma: float, times, states, p_ref: float = 0.0) -> Trajectory:
    times = np.asarray(times, dtype=float)
    states = np.asarray(states, dtype=float)
    pvals = states[:, 1] ** 2 + states[:, 2] ** 2 + pm.v0_array(states[:, 0]) - sigma
    drift = float(np.max(np.abs(pvals - p_ref))) if pvals.size else 0.0
    dnu = np.diff(states[:, 1])
    nu_min_inc = float(dnu.min()) if dnu.size else 0.0
    return Trajectory(times=times, states=states, pvals=pvals, sigma=sigma,
                      p_drift=drift, nu_min_increment=nu_min_inc)


def integrate_flow(pm: PotentialModel, sigma: float, pt0: ContactPoint,
                   t_span: tuple[float, float], tol: float = DEFAULT_FLOW_TOL,
                   max_step: float | None = None) -> Trajectory:
    """Adaptive integration of W with conservation and monotonicity audits.

    The initial point must be on-shell within tol; along the accepted
    trajectory |p| drifts by at most ~10 tol and nu decreases by at most
    ~10 tol between consecutive samples.
    """
    p_init = symbol_value(pm, sigma, pt0)
    if abs(p_init) > 10 * tol:
        raise ValueError(f"initial point is off-shell: p = {p_init}")
    field = _rhs(pm, sigma)
    sol = solve_ivp(lambda _t, z: field(*z.tolist()), t_span, list(pt0.state()), method="DOP853",
                    rtol=tol, atol=tol * 1e-2, dense_output=False,
                    max_step=max_step or np.inf)
    if not sol.success:
        raise RuntimeError(f"flow integration failed: {sol.message}")
    return _make_trajectory(pm, sigma, sol.t, sol.y.T, p_ref=p_init)


@dataclass(frozen=True)
class LocatedRadialPoint:
    """A radial point of the explicit flow, with its boundary position."""

    node_id: str
    theta: float
    record: RadialPoint

    @property
    def nu(self) -> float:
        return float(self.record.nu)

    @property
    def is_min(self) -> bool:
        return classify_radial(self.record) == "sourceSink"

    @property
    def outgoing(self) -> bool:
        return self.record.outgoing

    def contact_point(self) -> ContactPoint:
        return ContactPoint("circle", (self.theta,), self.nu, (0.0,))

    def to_json_dict(self) -> dict:
        d = self.record.to_json_dict()
        d.update({"id": self.node_id, "theta": self.theta})
        return d


def _critical_angles(pm: PotentialModel, grid: int = 4096, tol: float = 1e-12) -> list[float]:
    """Zeros of V0' on [0, 2 pi): grid zeros as they are, brentq on sign changes."""
    thetas = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    vals = pm.v0_prime_array(thetas)
    nxt = np.roll(vals, -1)
    roots = thetas[vals == 0.0].tolist()
    for i in np.flatnonzero((vals != 0.0) & (vals * nxt < 0.0)).tolist():
        a, b = thetas[i], thetas[(i + 1) % grid]
        bb = b if b > a else b + 2.0 * math.pi
        roots.append(float(brentq(pm.v0_prime, a, bb, xtol=1e-14)) % (2.0 * math.pi))
    dedup: list[float] = []
    for r in sorted(roots):
        if not dedup or abs(r - dedup[-1]) > 1e-9:
            dedup.append(r)
    if dedup and abs(dedup[0] + 2.0 * math.pi - dedup[-1]) < 1e-9:
        dedup.pop()
    return dedup


def critical_points(pm: PotentialModel) -> list[tuple[float, CriticalPointSpec]]:
    """V0's critical angles on [0, 2 pi), each with its spec cp{k}.

    Raises NotMorseError when there are none or one has |V0''| < 1e-8.
    """
    angles = _critical_angles(pm)
    if not angles:
        raise NotMorseError("V0 has no nondegenerate critical points on the grid")
    out = []
    for k, th in enumerate(angles):
        h = pm.v0_second(th)
        if abs(h) < 1e-8:
            raise NotMorseError(f"degenerate critical point at theta = {th}")
        out.append((th, CriticalPointSpec(label=f"cp{k}", value=pm.v0(th), hessian=(h,))))
    return out


def locate_radial_points(pm: PotentialModel, sigma: float,
                         tol: float = DEFAULT_TOL) -> list[LocatedRadialPoint]:
    """All radial points (theta_c, +-sqrt(sigma - V0(theta_c)), mu = 0).

    Critical points of V0 come from critical_points; each is
    cross-checked through the abstract linearization using the
    numerically computed Hessian.  linearization_spectrum refuses sigma
    within tol of a critical value or a Hessian threshold
    (ForbiddenEnergyError).
    """
    out = []
    for th, cp in critical_points(pm):
        try:
            pair = [linearization_spectrum(cp, sigma, sign, tol) for sign in (+1, -1)]
        except NoRealRadialPointError:
            continue
        for rp, tag in zip(pair, ("out", "in")):
            node = LocatedRadialPoint(node_id=f"{cp.label}:{tag}", theta=th, record=rp)
            w = field_eval(pm, sigma, node.contact_point())
            if np.linalg.norm(w) > 1e-7:
                raise RuntimeError(f"located point {node.node_id} is not radial: |W| = {np.linalg.norm(w)}")
            out.append(node)
    return out


def flow_jacobian(pm: PotentialModel, sigma: float, node: LocatedRadialPoint) -> np.ndarray:
    """Analytic Jacobian of W at a radial point, in (theta, nu, mu)."""
    lam = -2.0 * node.nu
    h = pm.v0_second(node.theta)
    return np.array([[0.0, 0.0, 2.0],
                     [0.0, lam, 0.0],
                     [-h, 0.0, lam]])


@dataclass(frozen=True)
class FlowoutRecord:
    """A witnessed heteroclinic edge q -> q' with its trajectory."""

    source: str
    target: str
    seed_offset: float
    seed_direction: tuple[float, float, float]
    trajectory: Trajectory
    hold_time: float

    def to_json_dict(self) -> dict:
        return {"from": self.source, "to": self.target,
                "seedOffset": self.seed_offset,
                "seedDirection": list(self.seed_direction),
                "pDrift": self.trajectory.p_drift,
                "nuMinIncrement": self.trajectory.nu_min_increment,
                "holdTime": self.hold_time}


@dataclass
class HeteroclinicDag:
    nodes: list[LocatedRadialPoint]
    edges: list[FlowoutRecord]
    undecided: list[dict]
    settings: dict

    def to_json_dict(self) -> dict:
        return {"nodes": [n.to_json_dict() for n in self.nodes],
                "edges": [e.to_json_dict() for e in self.edges],
                "undecided": self.undecided,
                "settings": self.settings}


def _circle_dist(a: float, b: float) -> float:
    d = abs(a - b) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


def heteroclinic_dag(pm: PotentialModel, sigma: float, eps: float = 1e-5,
                     tol: float = DEFAULT_FLOW_TOL,
                     ball_radius: float = DEFAULT_BALL_RADIUS,
                     w_stop: float = DEFAULT_W_STOP,
                     hold_time: float = DEFAULT_HOLD_TIME,
                     t_max: float = 60.0,
                     nodes: list[LocatedRadialPoint] | None = None) -> HeteroclinicDag:
    """Edges of the flowout order, witnessed by forward trajectories.

    Every non-minimal outgoing radial point is seeded at +-eps along each
    unstable direction of W restricted to the shell; a trajectory records
    an edge when it enters the ball_radius-ball of another radial point
    with |W| < w_stop and stays for hold_time.  Trajectories that do
    neither within t_max, or whose integration fails (a step below its
    floor, or MAX_FLOW_STEPS attempted steps spent), are reported as
    undecided with a one-line reason, never dropped.  Each seed runs on
    the _dop853 stepper in 1-unit chunks; seeds are traced one after the
    other, in node order.
    """
    nodes = nodes if nodes is not None else locate_radial_points(pm, sigma)
    edges: list[FlowoutRecord] = []
    undecided: list[dict] = []
    field = _rhs(pm, sigma)

    for node in nodes:
        if not node.outgoing or node.is_min:
            continue
        J = flow_jacobian(pm, sigma, node)
        eigvals, eigvecs = np.linalg.eig(J)
        for col in range(3):
            ev = eigvals[col]
            if ev.real <= 1e-9 or abs(ev.imag) > 1e-12:
                continue
            v = np.real(eigvecs[:, col])
            v = v / np.linalg.norm(v)
            for direction in (+1.0, -1.0):
                seed = node.contact_point().state() + direction * eps * v
                # project back to the shell along nu
                rad = sigma - pm.v0(seed[0]) - seed[2] ** 2
                if rad <= 0:
                    undecided.append({"from": node.node_id, "reason": "seed off shell",
                                      "direction": direction})
                    continue
                seed[1] = math.copysign(math.sqrt(rad), node.nu)
                rec = _trace_to_radial_point(pm, sigma, field, seed.tolist(), nodes, node,
                                             direction * eps, tuple(v.tolist()), tol,
                                             ball_radius, w_stop, hold_time, t_max)
                if isinstance(rec, FlowoutRecord):
                    edges.append(rec)
                else:
                    undecided.append(rec)

    settings = {"eps": eps, "tol": tol, "ballRadius": ball_radius,
                "wStop": w_stop, "holdTime": hold_time, "tMax": t_max}
    return HeteroclinicDag(nodes=nodes, edges=edges, undecided=undecided, settings=settings)


def _trace_to_radial_point(pm, sigma, field, seed, nodes, source, seed_offset,
                           seed_direction, tol, ball_radius, w_stop, hold_time, t_max):
    """Trace one seed in 1-unit chunks, each a fresh _dop853 run, until it
    holds in another node's ball; MAX_FLOW_STEPS bounds the attempted
    steps of all chunks and the hold together."""
    chunk = 1.0
    t_done = 0.0
    state = tuple(seed)
    times_all = [0.0]
    states_all = [state]
    steps_left = MAX_FLOW_STEPS

    def failure(exc, t0):
        return {"from": source.node_id,
                "reason": f"integration failure at t = {t0 + exc.t!r}: {exc}",
                "direction": math.copysign(1.0, seed_offset),
                "final_state": list(exc.state)}

    while t_done < t_max:
        try:
            times, states, used = _dop853(field, state, chunk, tol, tol * 1e-2, steps_left)
        except FlowStepError as exc:
            return failure(exc, t_done)
        steps_left -= used
        state = states[-1]
        t_done += chunk
        times_all.extend(t_done - chunk + t for t in times)
        states_all.extend(states)
        for target in nodes:
            if target.node_id == source.node_id:
                continue
            d = math.hypot(_circle_dist(state[0], target.theta),
                           state[1] - target.nu, state[2])
            if d < ball_radius:
                pt = ContactPoint("circle", (state[0],), state[1], (state[2],))
                wnorm = np.linalg.norm(field_eval(pm, sigma, pt))
                if wnorm < w_stop:
                    try:
                        _, held, used = _dop853(field, state, hold_time, tol, tol * 1e-2,
                                                steps_left)
                    except FlowStepError as exc:
                        return failure(exc, t_done)
                    steps_left -= used
                    end = held[-1] if held else state
                    d_end = math.hypot(_circle_dist(end[0], target.theta),
                                       end[1] - target.nu, end[2])
                    if d_end < ball_radius:
                        traj = _make_trajectory(pm, sigma, times_all, states_all)
                        return FlowoutRecord(source=source.node_id, target=target.node_id,
                                             seed_offset=seed_offset,
                                             seed_direction=seed_direction,
                                             trajectory=traj, hold_time=hold_time)
    return {"from": source.node_id, "reason": "no convergence within t_max",
            "direction": math.copysign(1.0, seed_offset),
            "final_state": list(state)}


@dataclass
class MorseSequence:
    """A total order refining the flowout partial order.

    order[i] is the node added at stage i+1 (so Gamma_i = set(order[:i]));
    each Gamma_i is closed under the partial order and the new node is
    minimal in it.
    """

    order: list[str]
    gammas: list[list[str]]
    verified: bool
    issues: list[str]

    def to_json_dict(self) -> dict:
        return {"order": self.order, "gammas": self.gammas,
                "verified": self.verified, "issues": self.issues}


def _reachable(succ: dict[str, list[str]], start: str) -> set[str]:
    """Nodes reached from start along one or more edges (start itself only on a cycle)."""
    seen: set[str] = set()
    stack = list(succ[start])
    while stack:
        q = stack.pop()
        if q not in seen:
            seen.add(q)
            stack.extend(succ[q])
    return seen


def _cycle_through(succ: dict[str, list[str]], start: str) -> list[tuple[str, str]]:
    """A shortest closed walk start -> ... -> start, as (source, target) edges."""
    parent: dict[str, str] = {}
    queue = [start]
    for q in queue:
        for t in succ[q]:
            if t == start:
                walk = [(q, start)]
                while q != start:
                    walk.append((parent[q], q))
                    q = parent[q]
                return walk[::-1]
            if t not in parent:
                parent[t] = q
                queue.append(t)


def morse_sequence(dag: HeteroclinicDag, nu_tie_tol: float = 1e-9) -> MorseSequence:
    """Order outgoing radial points by descending nu, minima last on ties.

    Verifies that the cumulative sets are closed under the transitive
    flowout order (the edges among outgoing points) and that each added
    point is order-minimal; a cycle in the DAG (a numerical
    misclassification) is reported, not silently broken.
    """
    by_id = {n.node_id: n for n in dag.nodes if n.outgoing}
    succ: dict[str, list[str]] = {nid: [] for nid in by_id}
    for e in dag.edges:
        if e.source in by_id and e.target in by_id and e.target not in succ[e.source]:
            succ[e.source].append(e.target)
    reach = {nid: _reachable(succ, nid) for nid in by_id}
    on_cycle = [nid for nid in by_id if nid in reach[nid]]
    if on_cycle:
        return MorseSequence(order=[], gammas=[], verified=False,
                             issues=[f"cycle detected: {_cycle_through(succ, on_cycle[0])}"])

    def sort_key(node_id: str):
        n = by_id[node_id]
        # descending nu; among (numerically) equal nu, minima last
        return (-n.nu, 1 if n.is_min else 0, node_id)

    ids = sorted(by_id, key=sort_key)
    # group equal-nu blocks so the min-last tiebreak applies inside them
    groups: list[list[str]] = []
    for nid in ids:
        if groups and abs(by_id[groups[-1][-1]].nu - by_id[nid].nu) <= nu_tie_tol:
            groups[-1].append(nid)
        else:
            groups.append([nid])
    order: list[str] = []
    for g in groups:
        g.sort(key=lambda nid: (0 if not by_id[nid].is_min else 1, -by_id[nid].nu, nid))
        order.extend(g)

    issues: list[str] = []
    gammas = []
    for i, nid in enumerate(order):
        for q in order[:i + 1]:
            issues += [f"Gamma_{i + 1} not closed: {q} -> {s}"
                       for s in order[i + 1:] if s in reach[q]]
        issues += [f"{nid} not minimal in Gamma_{i + 1}: {q} < {nid}"
                   for q in order[:i] if nid in reach[q]]
        gammas.append(sorted(order[:i + 1]))
    return MorseSequence(order=order, gammas=gammas, verified=not issues, issues=issues)


@dataclass
class LyapunovGauge:
    """The local gauge rho = |xi_unstable|^2 - |xi_stable|^2 near a radial point.

    xi are eigenframe coordinates of the shell linearization (model
    coordinates to linear order), with the sign flipped for incoming
    points so that W rho > 0 off the point.
    """

    node: LocatedRadialPoint
    frame_inv: np.ndarray       # maps (dtheta, dmu) to eigen coordinates
    signs: np.ndarray           # +1 unstable, -1 stable

    def rho(self, theta: np.ndarray, mu: np.ndarray) -> np.ndarray:
        """rho at the points (theta, mu), elementwise over arrays."""
        dth = theta - self.node.theta
        (f00, f01), (f10, f11) = self.frame_inv
        val = self.signs[0] * (f00 * dth + f01 * mu) ** 2 \
            + self.signs[1] * (f10 * dth + f11 * mu) ** 2
        return val if self.node.outgoing else -val


def lyapunov_gauge(pm: PotentialModel, sigma: float, node: LocatedRadialPoint) -> LyapunovGauge:
    J = flow_jacobian(pm, sigma, node)
    # restrict to the shell tangent (theta, mu); the nu direction decouples
    Js = J[np.ix_([0, 2], [0, 2])]
    eigvals, eigvecs = np.linalg.eig(Js)
    if abs(eigvals[0].imag) > 1e-12:
        # spiral block: use the real/imaginary parts of one eigenvector
        v = eigvecs[:, 0]
        frame = np.column_stack([v.real, v.imag])
        signs = np.array([1.0 if eigvals[0].real > 0 else -1.0] * 2)
    else:
        frame = np.real(eigvecs)
        signs = np.sign(np.real(eigvals))
    return LyapunovGauge(node=node, frame_inv=np.linalg.inv(frame), signs=signs)


def lyapunov_check(pm: PotentialModel, sigma: float, node: LocatedRadialPoint,
                   radius: float = 1e-2, samples: int = 200,
                   rng: np.random.Generator | None = None) -> dict:
    """Spot check W rho >= c (|y|^2 + |mu|^2) / 2 on shell samples near node.

    Returns the empirical constant c and the validated radius (halved
    until the positivity holds on all samples, if needed).  Each pass
    draws 2 * samples uniforms at once, angle 2 pi u[0::2] and radius
    r sqrt(0.05 + 0.95 u[1::2]), and evaluates every sample as arrays.
    A pass that fails at sample i leaves the stream 2 (i + 1) draws past
    its start, as a sample-by-sample loop that stops there would, so the
    next pass draws the same values.  Samples off the shell are skipped
    but still consume their draws.
    """
    rng = rng or np.random.default_rng(20260810)
    gauge = lyapunov_gauge(pm, sigma, node)
    h = 1e-7
    r = radius
    for _ in range(12):
        start = rng.bit_generator.state
        u = rng.random(2 * samples)
        ang = 2.0 * math.pi * u[0::2]
        rad = r * np.sqrt(0.05 + 0.95 * u[1::2])
        dth, dmu = rad * np.cos(ang), rad * np.sin(ang)
        th = node.theta + dth
        shell = sigma - pm.v0_array(th) - dmu * dmu
        kept = np.flatnonzero(shell > 0)
        th, mu, dth, shell = th[kept], dmu[kept], dth[kept], shell[kept]
        nu = np.copysign(np.sqrt(shell), node.nu)
        # W's theta and mu components as field_eval forms them; rho is
        # nu-independent
        w_th = 2.0 * mu
        w_mu = -2.0 * nu * mu - pm.v0_prime_array(th)
        # W rho via the chain rule, with forward differences of rho
        rho = gauge.rho(th, mu)
        drho_th = (gauge.rho(th + h, mu) - rho) / h
        drho_mu = (gauge.rho(th, mu + h) - rho) / h
        wrho = drho_th * w_th + drho_mu * w_mu
        failed = np.flatnonzero(wrho <= 0)
        if failed.size:
            rng.bit_generator.state = start
            rng.random(2 * (int(kept[failed[0]]) + 1))
        elif kept.size:
            quad = dth * dth + mu * mu
            c_best = float(np.min(2.0 * wrho / quad))
            return {"nodeId": node.node_id, "validatedRadius": r, "c": c_best, "ok": True}
        r /= 2.0
    return {"nodeId": node.node_id, "validatedRadius": 0.0, "c": 0.0, "ok": False}
