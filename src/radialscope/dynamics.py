"""Explicit bicharacteristic flow on the boundary contact space over S^1.

For n = 2 the symbol is p = nu^2 + mu^2 + V0(theta) - sigma and the
Legendre field reads

    W = 2 mu d_theta + (2 mu^2 - p) d_nu + (-2 nu mu - V0'(theta)) d_mu,

so on the shell {p = 0} the variable nu is nondecreasing.  Radial points
sit over critical points of V0 at nu = +-sqrt(sigma - V0); forward
trajectories seeded along unstable directions of saddles witness the
heteroclinic partial order, aggregated into a DAG and totally ordered by
the microlocal Morse construction (descending nu, minima last on ties).
An edge ends at a minimum: lyapunov_check bounds in closed form a disk
around each radial point on which the local gauge rho is a strict
Lyapunov function, and a trace stops at its first accepted step inside
the largest rho-sublevel ellipse in a minimum's disk, which it can no
longer leave.

Trigonometric potentials are given as coefficient rows (k, a_k, b_k)
meaning V0(theta) = sum a_k cos(k theta) + b_k sin(k theta).

Every flow here, and the Nelson limit in normalform, runs on _dop853, a
DOP853 stepper on n Python floats with solve_ivp's step control (Hairer,
Norsett and Wanner, Solving ODEs I, Sec. II.4 and II.10) and a literal
copy of solve_ivp's tableau, under a budget of MAX_FLOW_STEPS attempted
steps per run.  A heteroclinic trace is one run whose accepted steps are
tested as the stepper yields them.  The module-level solve_ivp is only
the name that bench/tracing.py patches; nothing here calls it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .radial import (DEFAULT_FLOW_TOL, DEFAULT_SEED_EPS, DEFAULT_T_MAX, DEFAULT_TOL,
                     CriticalPointSpec, NoRealRadialPointError, RadialPoint,
                     ThresholdEnergyError,  # noqa: F401 - re-exported
                     classify_radial, linearization_spectrum)
from .roots import brentq

# attempted DOP853 steps per _dop853 run: one heteroclinic trace, one
# integrate_flow or one Nelson flow
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
        for k, _, _ in self.v0_coeffs:
            if k != round(k):
                raise ValueError(f"Fourier mode k = {k!r} is not an integer, so V0 is not "
                                 f"a function on S^1")

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


# solve_ivp's DOP853 tableau (scipy.integrate._ivp.dop853_coefficients),
# nonzero entries only: stage rows of A, the weights B and the error weights
# E5 and E3, each as (j, coefficient of k_j), written with repr
_DOP_A = (
    ((0, 0.05260015195876773),),
    ((0, 0.0197250569845379), (1, 0.0591751709536137)),
    ((0, 0.02958758547680685), (2, 0.08876275643042054)),
    ((0, 0.2413651341592667), (2, -0.8845494793282861), (3, 0.924834003261792)),
    ((0, 0.037037037037037035), (3, 0.17082860872947386), (4, 0.12546768756682242)),
    ((0, 0.037109375), (3, 0.17025221101954405), (4, 0.06021653898045596), (5, -0.017578125)),
    ((0, 0.03709200011850479), (3, 0.17038392571223998), (4, 0.10726203044637328),
     (5, -0.015319437748624402), (6, 0.008273789163814023)),
    ((0, 0.6241109587160757), (3, -3.3608926294469414), (4, -0.868219346841726),
     (5, 27.59209969944671), (6, 20.154067550477894), (7, -43.48988418106996)),
    ((0, 0.47766253643826434), (3, -2.4881146199716677), (4, -0.590290826836843),
     (5, 21.230051448181193), (6, 15.279233632882423), (7, -33.28821096898486),
     (8, -0.020331201708508627)),
    ((0, -0.9371424300859873), (3, 5.186372428844064), (4, 1.0914373489967295),
     (5, -8.149787010746927), (6, -18.52006565999696), (7, 22.739487099350505),
     (8, 2.4936055526796523), (9, -3.0467644718982196)),
    ((0, 2.273310147516538), (3, -10.53449546673725), (4, -2.0008720582248625),
     (5, -17.9589318631188), (6, 27.94888452941996), (7, -2.8589982771350235),
     (8, -8.87285693353063), (9, 12.360567175794303), (10, 0.6433927460157636)),
)
_DOP_B = ((0, 0.054293734116568765), (5, 4.450312892752409), (6, 1.8915178993145003),
          (7, -5.801203960010585), (8, 0.3111643669578199), (9, -0.1521609496625161),
          (10, 0.20136540080403034), (11, 0.04471061572777259))
_DOP_E5 = ((0, 0.01312004499419488), (5, -1.2251564463762044), (6, -0.4957589496572502),
           (7, 1.6643771824549864), (8, -0.35032884874997366), (9, 0.3341791187130175),
           (10, 0.08192320648511571), (11, -0.022355307863886294))
_DOP_E3 = ((0, -0.18980075407240762), (5, 4.450312892752409), (6, 1.8915178993145003),
           (7, -5.801203960010585), (8, -0.4226823213237919), (9, -0.1521609496625161),
           (10, 0.20136540080403034), (11, 0.02265179219836082))
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1.0 / 8.0


class FlowStepError(RuntimeError):
    """The stepper stopped early; t and state are the last accepted point."""

    def __init__(self, message: str, t: float, state: tuple):
        super().__init__(message)
        self.t, self.state = t, state


@functools.cache
def _straight_line_step(n: int):
    """One DOP853 step on n components, step(field, y, f0, h) -> (y_new,
    e5, e3), as straight-line code generated once per n from the tableau.

    Each stage is one expression per component over its nonzero entries,
    summed left to right, with no loop or indexing at run time; e5 and e3
    are the error sums per component without the factor h.  Against a
    loop over the same entries (the reference in the tests, equal bit for
    bit) it cuts circle-analyze wall_ref by about 8 % (2-CPU VM, Python
    3.11.7).
    """
    def combo(pairs, i):
        return " + ".join(f"{c!r} * k{j}_{i}" for j, c in pairs)

    def tup(items):   # a 1-tuple needs its trailing comma
        return ", ".join(items) + ("," if n == 1 else "")

    lines = ["def step(field, y, f0, h):",
             f"    {tup(f'y{i}' for i in range(n))} = y",
             f"    {tup(f'k0_{i}' for i in range(n))} = f0"]
    for s, row in enumerate(_DOP_A, start=1):
        args = ", ".join(f"y{i} + ({combo(row, i)}) * h" for i in range(n))
        lines.append(f"    {tup(f'k{s}_{i}' for i in range(n))} = field({args})")
    y_new = tup(f"y{i} + h * ({combo(_DOP_B, i)})" for i in range(n))
    lines.append(f"    return ({y_new}), ({tup(combo(_DOP_E5, i) for i in range(n))}), "
                 f"({tup(combo(_DOP_E3, i) for i in range(n))})")
    namespace: dict = {}
    exec("\n".join(lines), namespace)
    return namespace["step"]


_dop853_step = _straight_line_step(3)


def _rms(v, s) -> float:
    """RMS of v / s over the components, summed left to right."""
    total = 0.0
    for a, b in zip(v, s):
        total += (a / b) ** 2
    return math.sqrt(total / len(v))


def _dop853(field, y, t_bound: float, rtol: float, atol: float, max_steps: int):
    """Integrate y' = field(*y), n = len(y), over (0, t_bound] as solve_ivp's DOP853 would.

    The same tableau and control: select_initial_step with exponent 1/8,
    steps clipped to t_bound, a floor of 10 ulp(t) on the step, the
    DOP853 error norm |h| ||e5||^2 / sqrt((||e5||^2 + 0.01 ||e3||^2) n)
    scaled by atol + max(|y|, |y_new|) rtol, SAFETY 0.9, MIN_FACTOR 0.2,
    MAX_FACTOR 10 and no growth right after a rejection.  The sums run
    left to right in Python floats, where scipy uses BLAS dot products,
    so results agree with solve_ivp's to roundoff, not bit for bit.

    A generator: yields (t, state, field(*state)) at the end of each
    accepted step (t = 0 excluded), so a caller can stop the run or test
    the state at every step.  Raises FlowStepError when the step falls
    below its floor or max_steps attempts are spent.
    """
    if t_bound <= 0.0:
        return
    y = tuple(y)
    n, step = len(y), _straight_line_step(len(y))
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
            y_new, e5, e3 = step(field, y, f, h)
            n5 = n3 = 0.0
            for a, b, c, d in zip(y, y_new, e5, e3):
                s = atol + max(abs(a), abs(b)) * rtol
                n5 += (c / s) ** 2
                n3 += (d / s) ** 2
            err = 0.0 if n5 == 0.0 and n3 == 0.0 else h_abs * n5 / math.sqrt((n5 + 0.01 * n3) * n)
            if err < 1.0:
                factor = _MAX_FACTOR if err == 0.0 else min(_MAX_FACTOR,
                                                            _SAFETY * err ** _ERROR_EXPONENT)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err ** _ERROR_EXPONENT)
            rejected = True
        t, y = t_new, y_new
        f = field(*y)
        yield t, y, f


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


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on the first call.  No flow here
    calls it; it is kept only as the name bench/tracing.py patches, until
    that tracer reads counters of its own (ROADMAP item 1).  scipy is not a
    run-time dependency: it comes with the test extra."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp
    return scipy_solve_ivp(*args, **kwargs)


def integrate_flow(pm: PotentialModel, sigma: float, pt0: ContactPoint,
                   t_span: tuple[float, float], tol: float = DEFAULT_FLOW_TOL) -> Trajectory:
    """Adaptive integration of W with conservation and monotonicity audits.

    The initial point must be on-shell within tol; along the accepted
    trajectory |p| drifts by at most ~10 tol and nu decreases by at most
    ~10 tol between consecutive samples.  A backward span runs -W forward.
    """
    p_init = symbol_value(pm, sigma, pt0)
    if abs(p_init) > 10 * tol:
        raise ValueError(f"initial point is off-shell: p = {p_init}")
    t0, t1 = t_span
    y0, forward = tuple(pt0.state().tolist()), _rhs(pm, sigma)
    field = forward if t1 >= t0 else (lambda *z: tuple(-w for w in forward(*z)))
    try:
        run = list(_dop853(field, y0, abs(t1 - t0), tol, tol * 1e-2, MAX_FLOW_STEPS))
    except FlowStepError as exc:
        raise RuntimeError(f"flow integration failed: {exc}") from exc
    times = [t0, *(t0 + math.copysign(t, t1 - t0) for t, _, _ in run)]
    return _make_trajectory(pm, sigma, times, [y0, *(y for _, y, _ in run)], p_ref=p_init)


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


def _critical_angles(pm: PotentialModel, grid: int = 4096) -> list[float]:
    """Zeros of V0' on [0, 2 pi): grid zeros as they are, brentq on sign changes."""
    thetas = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    vals = pm.v0_prime_array(thetas)
    nxt = np.roll(vals, -1)
    roots = thetas[vals == 0.0].tolist()
    for i in np.flatnonzero((vals != 0.0) & (vals * nxt < 0.0)).tolist():
        a, f = thetas[i], pm.v0_prime
        if i + 1 < grid:
            b = thetas[i + 1]
        else:
            b = 2.0 * math.pi
            # sin(2 pi k) is not exactly 0, so when V0'(0) is within roundoff of 0
            # the scalar V0' at 2 pi can lose the grid's sign: end on the grid value
            if f(b) * vals[i] > 0.0:
                end_value = float(vals[0])
                f = lambda t: end_value if t >= b else pm.v0_prime(t)
        roots.append(float(brentq(f, a, b, xtol=1e-14)) % (2.0 * math.pi))
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

    def to_json_dict(self) -> dict:
        return {"from": self.source, "to": self.target,
                "seedOffset": self.seed_offset,
                "seedDirection": list(self.seed_direction),
                "pDrift": self.trajectory.p_drift,
                "nuMinIncrement": self.trajectory.nu_min_increment}


@dataclass
class HeteroclinicDag:
    nodes: list[LocatedRadialPoint]
    edges: list[FlowoutRecord]
    undecided: list[dict]
    settings: dict
    lyapunov: tuple[dict, ...] = ()     # lyapunov_check of each outgoing node, in node order

    def to_json_dict(self) -> dict:
        return {"nodes": [n.to_json_dict() for n in self.nodes],
                "edges": [e.to_json_dict() for e in self.edges],
                "undecided": self.undecided,
                "settings": self.settings}


def heteroclinic_dag(pm: PotentialModel, sigma: float, eps: float = DEFAULT_SEED_EPS,
                     tol: float = DEFAULT_FLOW_TOL, t_max: float = DEFAULT_T_MAX,
                     nodes: list[LocatedRadialPoint] | None = None) -> HeteroclinicDag:
    """Edges of the flowout order, witnessed by forward trajectories.

    Every non-minimal outgoing radial point is seeded at +-eps along each
    unstable direction of W restricted to the shell.  Each outgoing
    minimum with a positive lyapunov_check is a certified sink: on its
    nu branch, with x = (dtheta, mu) and P = F^-T F^-1 for F^-1 the
    gauge's frame_inv, the ellipse x^T P x < r^2 lambda_min(P) lies in
    the disk of the validated radius r, where W (x^T P x) < 0 off the
    point, so a trajectory that enters it stays and tends to the node.
    A trajectory records an edge at its first accepted step inside such
    an ellipse, and ends there.  Saddles are never targets: reaching one
    needs the stable manifold, which a generic seed misses.
    Trajectories that enter no ellipse within t_max, or whose integration
    fails (a step below its floor, or MAX_FLOW_STEPS attempted steps
    spent), are reported as undecided with a one-line reason, never
    dropped.  Each seed is one _dop853 run over (0, t_max], tested after
    every accepted step; seeds are traced one after the other, in node
    order.  Each outgoing node's lyapunov_check runs once, and the result
    keeps them, in node order, as its lyapunov.
    """
    nodes = nodes if nodes is not None else locate_radial_points(pm, sigma)
    edges: list[FlowoutRecord] = []
    undecided: list[dict] = []
    field = _rhs(pm, sigma)
    checks = [(node, lyapunov_check(pm, sigma, node)) for node in nodes if node.outgoing]
    sinks = [_sink_region(pm, sigma, node, check["validatedRadius"])
             for node, check in checks if node.is_min and check["ok"]]

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
                rec = _trace_to_sink(pm, sigma, field, seed.tolist(), sinks, node,
                                     direction * eps, tuple(v.tolist()), tol, t_max)
                if isinstance(rec, FlowoutRecord):
                    edges.append(rec)
                else:
                    undecided.append(rec)

    settings = {"eps": eps, "tol": tol, "tMax": t_max}
    return HeteroclinicDag(nodes=nodes, edges=edges, undecided=undecided, settings=settings,
                           lyapunov=tuple(check for _, check in checks))


def _sink_region(pm, sigma, node, radius):
    """(node, theta_c, nu sign, P00, 2 P01, P11, radius^2 lambda_min(P)) of the
    certified ellipse x^T P x < radius^2 lambda_min(P) around an outgoing minimum."""
    frame_inv = lyapunov_gauge(pm, sigma, node).frame_inv
    p = frame_inv.T @ frame_inv
    bound = radius * radius * float(np.linalg.eigvalsh(p)[0])
    return (node, node.theta, math.copysign(1.0, node.nu),
            float(p[0, 0]), 2.0 * float(p[0, 1]), float(p[1, 1]), bound)


def _entered_sink(state, sinks):
    """The node of the first sink region that holds state (theta, nu, mu), or None."""
    theta, nu, mu = state
    for node, theta_c, sign, p00, p01, p11, bound in sinks:
        if nu * sign > 0.0:
            d = (theta - theta_c + math.pi) % (2.0 * math.pi) - math.pi
            if (p00 * d + p01 * mu) * d + p11 * mu * mu < bound:
                return node
    return None


def _trace_to_sink(pm, sigma, field, seed, sinks, source, seed_offset, seed_direction,
                   tol, t_max):
    """Trace one seed in one _dop853 run over (0, t_max], up to the first
    accepted step inside a sink region; the trajectory ends at that step."""
    times, states = [0.0], [tuple(seed)]
    try:
        for t, state, _ in _dop853(field, seed, t_max, tol, tol * 1e-2, MAX_FLOW_STEPS):
            times.append(t)
            states.append(state)
            target = _entered_sink(state, sinks)
            if target is not None:
                return FlowoutRecord(source=source.node_id, target=target.node_id,
                                     seed_offset=seed_offset, seed_direction=seed_direction,
                                     trajectory=_make_trajectory(pm, sigma, times, states))
    except FlowStepError as exc:
        return {"from": source.node_id,
                "reason": f"integration failure at t = {exc.t!r}: {exc}",
                "direction": math.copysign(1.0, seed_offset),
                "final_state": list(exc.state)}
    return {"from": source.node_id, "reason": "no convergence within t_max",
            "direction": math.copysign(1.0, seed_offset),
            "final_state": list(states[-1])}


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
    coordinates to linear order), so that W rho > 0 off the point to
    second order, at incoming and outgoing points alike.
    """

    frame_inv: np.ndarray       # maps (dtheta, dmu) to eigen coordinates
    signs: np.ndarray           # +1 unstable, -1 stable

    @property
    def matrix(self) -> np.ndarray:
        """S with rho = x^T S x at x = (dtheta, mu)."""
        return self.frame_inv.T @ np.diag(self.signs) @ self.frame_inv


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
    return LyapunovGauge(frame_inv=np.linalg.inv(frame), signs=signs)


def _derivative_bound(pm: PotentialModel, j: int) -> float:
    """M_j = sum |k|^j (|a_k| + |b_k|), a bound on |V0^(j)| over the circle."""
    return sum(abs(k) ** j * (abs(a) + abs(b)) for k, a, b in pm.v0_coeffs)


def lyapunov_check(pm: PotentialModel, sigma: float, node: LocatedRadialPoint) -> dict:
    """A closed-form radius within which W rho >= c |x|^2 / 2 on node's nu branch.

    In shell coordinates x = (dtheta, mu), dtheta taken on the circle,
    rho = x^T S x (S = lyapunov_gauge's matrix) and the flow reads
    x' = J_s x + r(x) with J_s the shell Jacobian.  Only the mu row of r
    is nonzero, and V0'(theta_c) = 0 and |nu + nu0| >= |nu0| give

        |r_2| <= M_3 dtheta^2 / 2 + (M_2 + 2) |x|^3 / |nu0|,

    M_j as in _derivative_bound.  So W rho = x^T (S J_s + J_s^T S) x
    + 2 x^T S r >= c |x|^2 / 2 with c = lambda_min(S J_s + J_s^T S)
    wherever ||S e_2|| (M_3 |x| + 2 (M_2 + 2) |x|^2 / |nu0|) <= c / 2.
    validatedRadius is the positive root of that equality, capped at
    |nu0| / sqrt(1 + M_2 / 2) so that nu keeps its sign on the open disk;
    ok is c > 0.
    """
    s = lyapunov_gauge(pm, sigma, node).matrix
    js = flow_jacobian(pm, sigma, node)[np.ix_([0, 2], [0, 2])]
    c = float(np.linalg.eigvalsh(s @ js + js.T @ s)[0])
    if c <= 0.0:
        return {"nodeId": node.node_id, "validatedRadius": 0.0, "c": c, "ok": False}
    m2, nu0, se2 = _derivative_bound(pm, 2), abs(node.nu), math.hypot(s[0, 1], s[1, 1])
    # quad r^2 + lin r = c / 2, its positive root in the form free of cancellation
    quad, lin = 2.0 * (m2 + 2.0) * se2 / nu0, _derivative_bound(pm, 3) * se2
    radius = min(c / (lin + math.sqrt(lin * lin + 2.0 * quad * c)),
                 nu0 / math.sqrt(1.0 + m2 / 2.0))
    return {"nodeId": node.node_id, "validatedRadius": radius, "c": c, "ok": True}
