import math
import time
import types

import numpy as np
import pytest

from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients as dop
from scipy.optimize import brentq

from radialscope.dynamics import (_DOP_A, _DOP_B, _DOP_E3, _DOP_E5, DEFAULT_BALL_RADIUS,
                                  DEFAULT_W_STOP, MAX_FLOW_STEPS, ContactPoint, FlowStepError, HeteroclinicDag,
                                  NotMorseError, PotentialModel, ThresholdEnergyError,
                                  _ball_distance, _critical_angles, _dop853, _dop853_step, _rhs,
                                  _straight_line_step, field_eval,
                                  flow_jacobian, heteroclinic_dag, integrate_flow,
                                  locate_radial_points, lyapunov_check, lyapunov_gauge,
                                  morse_sequence, symbol_value)
from radialscope.cli_reports import DEFAULTS
from radialscope.normalform import ForbiddenEnergyError
from radialscope.radial import CriticalPointSpec, HessianThresholdError, linearization_spectrum

COS2 = PotentialModel(n=2, v0_coeffs=[(2, 1.0, 0.0)])


def edge_set(dag):
    return {(e.source, e.target) for e in dag.edges}


def fake_edge(source, target):
    """A stand-in for a FlowoutRecord: morse_sequence reads only its endpoints."""
    return types.SimpleNamespace(source=source, target=target)


def fd_field(pm, sigma, pt, step=1e-6):
    """Independent W via central differences of the defining symbol."""
    def p(th, nu, mu):
        return nu * nu + mu * mu + pm.v0(th) - sigma

    th, nu, mu = pt.theta, pt.nu, pt.mu[0]
    dp_th = (p(th + step, nu, mu) - p(th - step, nu, mu)) / (2 * step)
    dp_nu = (p(th, nu + step, mu) - p(th, nu - step, mu)) / (2 * step)
    dp_mu = (p(th, nu, mu + step) - p(th, nu, mu - step)) / (2 * step)
    return np.array([dp_mu,
                     mu * dp_mu - p(th, nu, mu),
                     -dp_nu * mu - dp_th])


def test_field_matches_finite_differences():
    rng = np.random.default_rng(12)
    for _ in range(20):
        pt = ContactPoint("circle", (float(rng.uniform(0, 2 * math.pi)),),
                          float(rng.uniform(-2, 2)), (float(rng.uniform(-2, 2)),))
        got = field_eval(COS2, 2.0, pt)
        want = fd_field(COS2, 2.0, pt)
        assert np.linalg.norm(got - want) < 1e-6


def test_field_zero_at_radial_point_and_monotone_nu():
    node = [n for n in locate_radial_points(COS2, 2.0) if n.outgoing][0]
    w = field_eval(COS2, 2.0, node.contact_point())
    assert np.linalg.norm(w) < 1e-9
    # on-shell nu-component is 2 mu^2 >= 0
    pt = ContactPoint("circle", (math.pi / 4,), 1.0, (1.0,))
    assert abs(symbol_value(COS2, 2.0, pt)) < 1e-12
    assert field_eval(COS2, 2.0, pt)[1] == pytest.approx(2.0)


def test_locate_radial_points_counts():
    nodes = locate_radial_points(COS2, 2.0)
    assert len(nodes) == 8
    assert sum(n.outgoing for n in nodes) == 4

    nodes15 = locate_radial_points(COS2, 1.5)
    nus = sorted(round(n.nu, 6) for n in nodes15 if n.outgoing)
    assert nus == pytest.approx([math.sqrt(0.5), math.sqrt(0.5),
                                 math.sqrt(2.5), math.sqrt(2.5)])

    nodes05 = locate_radial_points(COS2, 0.5)
    assert len(nodes05) == 4          # only the two minima contribute


def test_locate_cross_checks_abstract_path():
    nodes = locate_radial_points(COS2, 2.0)
    for n in nodes:
        cp = CriticalPointSpec(n.record.cp.label, n.record.cp.value, n.record.cp.hessian)
        rp = linearization_spectrum(cp, 2.0, n.record.sign)
        assert rp.r_list == n.record.r_list


def test_threshold_energy_rejected():
    with pytest.raises(ThresholdEnergyError):
        locate_radial_points(COS2, 1.0)   # sigma = max V0


def test_hessian_threshold_rejected():
    # min V0 + 2 V0'' = -1 + 8, refused as a forbidden energy (CLI exit 3)
    with pytest.raises(HessianThresholdError) as err:
        locate_radial_points(COS2, 7.0)
    assert isinstance(err.value, ForbiddenEnergyError) and err.value.offending == 7.0


def test_library_default_tol_is_the_clis():
    # 5e-10 above max V0 = 1 is outside the default tol 1e-10, as in the CLI
    assert locate_radial_points.__defaults__ == (DEFAULTS["tol"],)
    assert heteroclinic_dag(COS2, 1.0 + 5e-10).nodes


def test_not_morse_rejected():
    flat = PotentialModel(n=2, v0_coeffs=[(0, 0.5, 0.0)])
    with pytest.raises(NotMorseError):
        locate_radial_points(flat, 2.0)


def test_n3_not_implemented():
    with pytest.raises(NotImplementedError):
        PotentialModel(n=3, v0_coeffs=[(1, 1.0, 0.0)])


def test_stationary_trajectory_from_radial_point():
    node = locate_radial_points(COS2, 2.0)[0]
    traj = integrate_flow(COS2, 2.0, node.contact_point(), (0.0, 5.0))
    assert np.max(np.abs(traj.states - traj.states[0])) < 1e-8
    assert traj.p_drift < 1e-10


def test_integrate_flow_conservation_and_monotonicity():
    pt = ContactPoint("circle", (math.pi / 4,), 1.0, (1.0,))
    traj = integrate_flow(COS2, 2.0, pt, (0.0, 10.0))
    assert traj.p_drift <= 1e-9
    assert traj.nu_min_increment >= -1e-9


def test_integrate_flow_agrees_with_solve_ivp_both_ways():
    pt = ContactPoint("circle", (math.pi / 4,), 1.0, (1.0,))
    field = _rhs(COS2, 2.0)
    for span in ((0.0, 3.0), (1.0, -2.0)):
        traj = integrate_flow(COS2, 2.0, pt, span)
        sol = solve_ivp(lambda _t, z: field(*z.tolist()), span, pt.state(), method="DOP853",
                        rtol=1e-10, atol=1e-12)
        assert traj.times[0] == span[0] and traj.times[-1] == span[1]
        assert np.all(np.diff(traj.times) * (span[1] - span[0]) > 0)
        assert traj.states[0].tolist() == pt.state().tolist()
        assert np.max(np.abs(traj.states[-1] - sol.y[:, -1])) < 1e-8
    # forward then backward returns to the start
    end = integrate_flow(COS2, 2.0, pt, (0.0, 3.0)).states[-1]
    back = integrate_flow(COS2, 2.0, ContactPoint("circle", (end[0],), end[1], (end[2],)),
                          (3.0, 0.0))
    assert back.times[-1] == 0.0
    assert np.max(np.abs(back.states[-1] - pt.state())) < 1e-8


def test_integrate_flow_step_budget_bounds_huge_span():
    pt = ContactPoint("circle", (math.pi / 4,), 1.0, (1.0,))
    start = time.perf_counter()
    with pytest.raises(RuntimeError) as info:
        integrate_flow(COS2, 2.0, pt, (0.0, 1e9))
    assert time.perf_counter() - start < 10.0
    assert str(info.value) == "flow integration failed: attempted-step budget spent"
    assert isinstance(info.value.__cause__, FlowStepError)


def test_integrate_flow_rejects_off_shell():
    pt = ContactPoint("circle", (0.3,), 1.0, (1.0,))
    assert abs(symbol_value(COS2, 2.0, pt)) > 1e-3
    with pytest.raises(ValueError):
        integrate_flow(COS2, 2.0, pt, (0.0, 1.0))


def test_heteroclinic_dag_cos2theta():
    dag = heteroclinic_dag(COS2, 2.0)
    by_id = {n.node_id: n for n in dag.nodes}
    edges = edge_set(dag)
    maxima = {n.node_id for n in dag.nodes if n.outgoing and not n.is_min}
    minima = {n.node_id for n in dag.nodes if n.outgoing and n.is_min}
    assert len(maxima) == 2 and len(minima) == 2
    assert edges == {(mx, mn) for mx in maxima for mn in minima}
    assert not dag.undecided
    for e in dag.edges:
        assert e.trajectory.p_drift <= 1e-9
        assert e.trajectory.nu_min_increment >= -1e-9
        assert by_id[e.source].nu < by_id[e.target].nu


def test_heteroclinic_dag_stable_under_eps_halving():
    dag1 = heteroclinic_dag(COS2, 2.0, eps=1e-5)
    dag2 = heteroclinic_dag(COS2, 2.0, eps=5e-6)
    assert edge_set(dag1) == edge_set(dag2)


def test_single_well_dag_isolated_minimum():
    single = PotentialModel(n=2, v0_coeffs=[(1, 1.0, 0.0)])   # V0 = cos(theta)
    dag = heteroclinic_dag(single, 0.5)                       # only the minimum is below
    assert len([n for n in dag.nodes if n.outgoing]) == 1
    assert not edge_set(dag)
    assert not dag.undecided


def test_reverse_time_from_sink_approaches_saddle():
    # reversing time along a witnessed heteroclinic, starting where the
    # forward trajectory entered the sink ball, passes back by the saddle
    dag = heteroclinic_dag(COS2, 2.0)
    edge = dag.edges[0]
    by_id = {n.node_id: n for n in dag.nodes}
    saddle, sink = by_id[edge.source], by_id[edge.target]
    # first sample within 1e-2 of the sink (before the contraction erases
    # the transverse history needed for the backward retrace)
    k0 = next(i for i, s in enumerate(edge.trajectory.states)
              if math.hypot(s[0] - sink.theta, s[1] - sink.nu, s[2]) < 1e-2)
    entry = edge.trajectory.states[k0]
    pt = ContactPoint("circle", (entry[0],), entry[1], (entry[2],))
    total = float(edge.trajectory.times[k0])
    traj = integrate_flow(COS2, 2.0, pt, (0.0, -total))
    dists = [math.hypot(min(abs(s[0] - saddle.theta) % (2 * math.pi),
                            2 * math.pi - abs(s[0] - saddle.theta) % (2 * math.pi)),
                        s[1] - saddle.nu, s[2]) for s in traj.states]
    assert min(dists) < 1e-2


def test_morse_sequence_cos2theta():
    dag = heteroclinic_dag(COS2, 2.0)
    ms = morse_sequence(dag)
    assert ms.verified, ms.issues
    by_id = {n.node_id: n for n in dag.nodes}
    nus = [by_id[nid].nu for nid in ms.order]
    assert nus == sorted(nus, reverse=True)
    by_id = {n.node_id: n for n in dag.nodes}
    assert all(by_id[nid].is_min for nid in ms.order[:2])     # minima first (nu = sqrt 3)
    assert all(not by_id[nid].is_min for nid in ms.order[2:])
    # each gamma is a superset chain
    for a, b in zip(ms.gammas, ms.gammas[1:]):
        assert set(a) <= set(b)


def test_morse_sequence_equal_nu_tiebreak():
    # engineered DAG: a max-type and a min-type node at identical nu
    import radialscope.dynamics as dyn

    class FakeNode:
        def __init__(self, node_id, nu, is_min):
            self.node_id, self.nu, self.is_min = node_id, nu, is_min
            self.outgoing = True
            self.theta = 0.0

    nodes = [FakeNode("max", 1.0, False), FakeNode("min", 1.0, True)]
    dag = HeteroclinicDag(nodes=nodes, edges=[], undecided=[], settings={})
    ms = morse_sequence(dag)
    assert ms.order == ["max", "min"]     # min placed last on ties
    assert ms.verified


def test_morse_sequence_reports_cycles():
    class FakeNode:
        def __init__(self, node_id, nu):
            self.node_id, self.nu = node_id, nu
            self.is_min, self.outgoing, self.theta = False, True, 0.0

    dag = HeteroclinicDag(nodes=[FakeNode("a", 1.0), FakeNode("b", 1.0)],
                          edges=[fake_edge("a", "b"), fake_edge("b", "a")],
                          undecided=[], settings={})
    ms = morse_sequence(dag)
    assert not ms.verified
    assert ms.issues == ["cycle detected: [('a', 'b'), ('b', 'a')]"]


def test_lyapunov_spot_check():
    for node in locate_radial_points(COS2, 2.0):
        if not node.outgoing:
            continue
        rep = lyapunov_check(COS2, 2.0, node, radius=5e-3)
        assert rep["ok"]
        assert rep["c"] > 0


def test_trajectory_csv_rows():
    pt = ContactPoint("circle", (math.pi / 4,), 1.0, (1.0,))
    traj = integrate_flow(COS2, 2.0, pt, (0.0, 1.0))
    rows = traj.to_csv_rows()
    assert rows[0] == ("t", "chart", "y1", "nu", "mu1", "p")
    assert len(rows) == len(traj.times) + 1
    th, nu, mu = traj.states[-1]
    assert rows[-1] == (repr(float(traj.times[-1])), "circle", repr(float(th)),
                        repr(float(nu)), repr(float(mu)), repr(float(traj.pvals[-1])))


def test_tangency_identity_symbolic():
    # W(p) = -2 nu p as an exact polynomial identity in (nu, mu, V0, V0', sigma),
    # so W is tangent to the shell for every potential and energy
    from radialscope.dynamics import tangency_identity
    assert tangency_identity()


def test_asymmetric_double_well_dag():
    # cos(2t) + 0.3 sin(t): symmetric under t -> pi - t, so the maxima share
    # their value while the minima differ; all four max->min edges exist and
    # the Morse order interleaves by nu
    pm = PotentialModel(n=2, v0_coeffs=[(2, 1.0, 0.0), (1, 0.0, 0.3)])
    dag = heteroclinic_dag(pm, 2.2)
    outgoing = {n.node_id: n for n in dag.nodes if n.outgoing}
    maxima = {k for k, n in outgoing.items() if not n.is_min}
    minima = {k for k, n in outgoing.items() if n.is_min}
    assert edge_set(dag) == {(a, b) for a in maxima for b in minima}
    assert not dag.undecided
    ms = morse_sequence(dag)
    assert ms.verified
    nus = [outgoing[n].nu for n in ms.order]
    assert nus == sorted(nus, reverse=True)
    for e in dag.edges:
        assert e.trajectory.p_drift <= 1e-9
        assert e.trajectory.nu_min_increment >= -1e-9


def random_potentials(seed, count):
    """Random trigonometric potentials with 1-3 rows, harmonics 0-4."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        rows = [(int(rng.integers(0, 5)), float(rng.normal()), float(rng.normal()))
                for _ in range(int(rng.integers(1, 4)))]
        out.append(PotentialModel(n=2, v0_coeffs=rows))
    return out


def reference_rhs(pm, sigma, z):
    """W from the scalar symbol, V0 and V0' as field_eval forms it."""
    theta, nu, mu = z
    p = nu * nu + mu * mu + pm.v0(theta) - sigma
    return (2.0 * mu, 2.0 * mu * mu - p, -2.0 * nu * mu - pm.v0_prime(theta))


def test_rhs_equals_scalar_formula_bitwise():
    rng = np.random.default_rng(31)
    for pm in random_potentials(5, 4) + [COS2]:
        sigma = float(rng.uniform(-1.0, 3.0))
        fn = _rhs(pm, sigma)
        for _ in range(500):
            z = (float(rng.uniform(-10.0, 10.0)), float(rng.normal()), float(rng.normal()))
            got = [float(v).hex() for v in fn(*z)]
            assert got == [float(v).hex() for v in reference_rhs(pm, sigma, z)]


def reference_lyapunov_check(pm, sigma, node, radius, samples=200, rng=None):
    """lyapunov_check one sample at a time, with a matrix-vector product per rho."""
    rng = rng or np.random.default_rng(20260810)
    gauge = lyapunov_gauge(pm, sigma, node)

    def rho(th, mu):
        xi = gauge.frame_inv @ np.array([th - node.theta, mu])
        val = float(np.sum(gauge.signs * np.abs(xi) ** 2))
        return val if node.outgoing else -val

    r = radius
    for _ in range(12):
        ok = True
        c_best = math.inf
        for _ in range(samples):
            ang = rng.uniform(0.0, 2.0 * math.pi)
            rad = r * math.sqrt(rng.uniform(0.05, 1.0))
            dth, dmu = rad * math.cos(ang), rad * math.sin(ang)
            th = node.theta + dth
            mu = dmu
            shell = sigma - pm.v0(th) - mu * mu
            if shell <= 0:
                continue
            nu = math.copysign(math.sqrt(shell), node.nu)
            w = field_eval(pm, sigma, ContactPoint("circle", (th,), nu, (mu,)))
            h = 1e-7
            drho_th = (rho(th + h, mu) - rho(th, mu)) / h
            drho_mu = (rho(th, mu + h) - rho(th, mu)) / h
            wrho = drho_th * w[0] + drho_mu * w[2]
            quad = dth * dth + dmu * dmu
            if wrho <= 0:
                ok = False
                break
            c_best = min(c_best, 2.0 * wrho / quad)
        if ok and c_best < math.inf:
            return {"nodeId": node.node_id, "validatedRadius": r, "c": c_best, "ok": True}
        r /= 2.0
    return {"nodeId": node.node_id, "validatedRadius": 0.0, "c": 0.0, "ok": False}


@pytest.mark.parametrize("radius", [1e-2, 2.0, 3.0])
def test_lyapunov_check_matches_per_sample_reference(radius):
    # radii 2.0 and 3.0 fail a pass part way through its samples, so the
    # halved pass must start where the per-sample loop stopped drawing
    pm = PotentialModel(n=2, v0_coeffs=[(2, 1.0, 0.0), (1, 0.0, 0.3)])
    halved = 0
    for node in locate_radial_points(pm, 2.2):
        if not node.outgoing:
            continue
        # the default generator, then a caller's one, which must be left
        # where the per-sample loop leaves it
        for seed in (20260810, 7):
            rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got = lyapunov_check(pm, 2.2, node, radius=radius,
                                 rng=rng_new if seed == 7 else None)
            want = reference_lyapunov_check(pm, 2.2, node, radius, rng=rng_ref)
            assert (got["nodeId"], got["ok"], got["validatedRadius"]) == \
                (want["nodeId"], want["ok"], want["validatedRadius"])
            assert got["c"] == pytest.approx(want["c"], rel=1e-7, abs=0.0)
            if seed == 7:
                assert rng_new.bit_generator.state == rng_ref.bit_generator.state
            halved += got["validatedRadius"] < radius
    assert halved > 0 if radius > 1.0 else halved == 0


def reference_critical_angles(pm, grid=4096):
    """_critical_angles with V0' evaluated one grid point at a time."""
    thetas = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    vals = [pm.v0_prime(float(t)) for t in thetas]
    roots = []
    for i in range(grid):
        a, b = float(thetas[i]), float(thetas[(i + 1) % grid])
        fa, fb = vals[i], vals[(i + 1) % grid]
        if fa == 0.0:
            roots.append(a)
        elif fa * fb < 0.0:
            bb = b if b > a else b + 2.0 * math.pi
            roots.append(brentq(pm.v0_prime, a, bb, xtol=1e-14) % (2.0 * math.pi))
    dedup = []
    for r in sorted(roots):
        if not dedup or abs(r - dedup[-1]) > 1e-9:
            dedup.append(r)
    if dedup and abs(dedup[0] + 2.0 * math.pi - dedup[-1]) < 1e-9:
        dedup.pop()
    return dedup


def test_critical_angles_match_scalar_grid():
    # sin(2 theta) vanishes exactly at grid point 0, so the grid-zero branch runs too
    pms = random_potentials(11, 6) + [COS2, PotentialModel(n=2, v0_coeffs=[(2, 0.0, 1.0)])]
    for pm in pms:
        assert _critical_angles(pm) == reference_critical_angles(pm)


def test_potential_arrays_match_scalar_forms():
    thetas = np.random.default_rng(3).uniform(-7.0, 7.0, 400)
    for pm in random_potentials(13, 4):
        want_v0 = np.array([pm.v0(t) for t in thetas.tolist()])
        want_vp = np.array([pm.v0_prime(t) for t in thetas.tolist()])
        scale = sum(abs(a) + abs(b) for _, a, b in pm.v0_coeffs) * 5.0
        np.testing.assert_allclose(pm.v0_array(thetas), want_v0, rtol=0, atol=1e-14 * scale)
        np.testing.assert_allclose(pm.v0_prime_array(thetas), want_vp, rtol=0,
                                   atol=1e-14 * scale)


def saddle_seed(pm, sigma, eps=1e-5):
    """A shell point eps along the unstable direction of a maximum's outgoing
    radial point, projected along nu as heteroclinic_dag seeds it."""
    node = next(n for n in locate_radial_points(pm, sigma) if n.outgoing and not n.is_min)
    eigvals, eigvecs = np.linalg.eig(flow_jacobian(pm, sigma, node))
    col = int(np.argmax(eigvals.real))
    v = np.real(eigvecs[:, col]) / np.linalg.norm(np.real(eigvecs[:, col]))
    seed = node.contact_point().state() + eps * v
    seed[1] = math.copysign(math.sqrt(sigma - pm.v0(seed[0]) - seed[2] ** 2), node.nu)
    return tuple(seed.tolist())


def reference_dop853_step(field, y, f0, h):
    """One DOP853 step on len(y) components as a loop over scipy's tableau,
    nonzero entries in index order, sums left to right."""
    n, m = dop.N_STAGES, len(y)
    k = [f0]
    for s in range(1, n):
        d = [0.0] * m
        for j in range(s):
            if dop.A[s, j]:
                for i in range(m):
                    d[i] += float(dop.A[s, j]) * k[j][i]
        k.append(field(*(y[i] + d[i] * h for i in range(m))))

    def combo(weights):
        out = [0.0] * m
        for j in range(n):
            if weights[j]:
                for i in range(m):
                    out[i] += float(weights[j]) * k[j][i]
        return tuple(out)

    b = combo(dop.B)
    return (tuple(y[i] + h * b[i] for i in range(m)), combo(dop.E5), combo(dop.E3))


def test_dop853_tableau_literals_equal_scipy():
    n = dop.N_STAGES
    assert _DOP_A == tuple(tuple((j, float(dop.A[s, j])) for j in range(s) if dop.A[s, j])
                           for s in range(1, n))
    for literal, weights in ((_DOP_B, dop.B), (_DOP_E5, dop.E5), (_DOP_E3, dop.E3)):
        assert literal == tuple((j, float(c)) for j, c in enumerate(weights[:n]) if c)


def test_straight_line_step_equals_loop_bitwise():
    rng = np.random.default_rng(41)
    a, b = (float(v) for v in rng.normal(size=2))
    fields = [lambda x: (a * math.sin(x) + b * x * x,),             # n = 1
              lambda x, v: (v, -math.sin(x) + a * v)]               # n = 2, a pendulum
    fields += [_rhs(pm, float(rng.uniform(0.0, 3.0)))               # n = 3
               for pm in random_potentials(9, 3) + [COS2]]
    assert _straight_line_step(3) is _dop853_step
    for field in fields:
        n = field.__code__.co_argcount
        step = _straight_line_step(n)
        for _ in range(200):
            y = (float(rng.uniform(-7.0, 7.0)), *rng.normal(size=n - 1).tolist())
            h = float(10.0 ** rng.uniform(-6.0, 0.0))
            got, want = step(field, y, field(*y), h), reference_dop853_step(field, y, field(*y), h)
            assert [len(part) for part in got] == [n, n, n]
            assert [[v.hex() for v in part] for part in got] == \
                [[v.hex() for v in part] for part in want]


def run_dop853(field, y0, t_bound, rtol, atol, max_steps=MAX_FLOW_STEPS):
    """_dop853's accepted times and states and its attempted steps, counted
    from the field calls: two to start, 11 stages per attempt and one per
    accepted step.  Checks that each yielded field value is W at its state."""
    calls = 0

    def counting(*z):
        nonlocal calls
        calls += 1
        return field(*z)

    steps = list(_dop853(counting, y0, t_bound, rtol, atol, max_steps))
    assert all(w == field(*y) for _, y, w in steps)
    attempted, rest = divmod(calls - 2 - len(steps), 11) if steps else (0, calls)
    assert rest == 0
    return [t for t, _, _ in steps], [y for _, y, _ in steps], attempted


def test_dop853_stepper_follows_solve_ivp():
    # the same tableau and control as solve_ivp's DOP853: roundoff in the
    # BLAS stage sums may move a step size, never the step count by more
    # than a couple or the end state beyond the tolerance
    pms = [pm for pm in random_potentials(21, 12) if any(k for k, _, _ in pm.v0_coeffs)][:3]
    assert len(pms) == 3
    tol = 1e-10
    for pm in pms:
        sigma = max(pm.v0(t) for t in np.linspace(0.0, 2.0 * math.pi, 400).tolist()) + 0.5
        y0 = saddle_seed(pm, sigma)
        field = _rhs(pm, sigma)
        # at a loose tolerance roundoff barely moves the error estimate, so
        # every step of the control (growth capped after a rejection too)
        # shows in the step times
        times, _, _ = run_dop853(field, y0, 12.0, 1e-4, 1e-6)
        sol = solve_ivp(lambda _t, z: field(*z.tolist()), (0.0, 12.0), y0,
                        method="DOP853", rtol=1e-4, atol=1e-6)
        assert times == pytest.approx(sol.t[1:].tolist(), rel=1e-4, abs=0.0)
    for pm in pms:
        sigma = max(pm.v0(t) for t in np.linspace(0.0, 2.0 * math.pi, 400).tolist()) + 0.5
        y0 = saddle_seed(pm, sigma)
        field = _rhs(pm, sigma)
        for t_end in (1.0, 12.0):
            times, states, attempted = run_dop853(field, y0, t_end, tol, tol * 1e-2)
            sol = solve_ivp(lambda _t, z: field(*z.tolist()), (0.0, t_end), y0,
                            method="DOP853", rtol=tol, atol=tol * 1e-2)
            assert sol.success
            assert times[0] == pytest.approx(float(sol.t[1]), rel=1e-12, abs=0.0)
            # roundoff in the error sums moves early step sizes by about 1e-6
            assert times[:10] == pytest.approx(sol.t[1:11].tolist(), rel=1e-4, abs=0.0)
            assert abs(len(times) - (len(sol.t) - 1)) <= 2
            if len(times) == len(sol.t) - 1:
                assert times == pytest.approx(sol.t[1:].tolist(), rel=1e-2, abs=0.0)
            # solve_ivp evaluates the field twice to start and 12 times per attempt
            assert abs(attempted - (sol.nfev - 2) // 12) <= 2
            assert times[-1] == t_end
            assert np.max(np.abs(np.array(states[-1]) - sol.y[:, -1])) < 1e-8


def test_dop853_stepper_matches_closed_form_on_constant_potential():
    # V0 = c: with R^2 = sigma - c the shell flow is nu = R tanh(2R(t - t0)),
    # mu = R sech(2R(t - t0)), theta = theta0 + gd(2R(t - t0)) - gd(-2R t0)
    c, R, t0, theta0 = 0.7, 1.3, 2.0, 0.4
    pm = PotentialModel(n=2, v0_coeffs=[(0, c, 0.0)])
    sigma = c + R * R

    def gd(x):
        return math.atan(math.sinh(x))

    def exact(t):
        x = 2.0 * R * (t - t0)
        return (theta0 + gd(x) - gd(-2.0 * R * t0), R * math.tanh(x), R / math.cosh(x))

    times, states, _ = run_dop853(_rhs(pm, sigma), exact(0.0), 6.0, 1e-10, 1e-12)
    assert len(times) > 10 and times[-1] == 6.0
    for t, state in zip(times, states):
        assert max(abs(a - b) for a, b in zip(state, exact(t))) < 1e-8


def test_dop853_stepper_reports_step_floor_and_budget():
    # y' = y^2 from 1 blows up at t = 1: the step falls below 10 ulp(t)
    # there, where solve_ivp stops with the same message
    blowup = lambda a, b, c: (a * a, 0.0, 0.0)   # noqa: E731
    with pytest.raises(FlowStepError, match="less than spacing") as info:
        list(_dop853(blowup, (1.0, 0.0, 0.0), 2.0, 1e-10, 1e-12, MAX_FLOW_STEPS))
    sol = solve_ivp(lambda _t, z: blowup(*z.tolist()), (0.0, 2.0), [1.0, 0.0, 0.0],
                    method="DOP853", rtol=1e-10, atol=1e-12)
    assert sol.status == -1 and str(info.value) == sol.message
    assert info.value.t == pytest.approx(float(sol.t[-1]), rel=1e-12, abs=0.0)
    field = _rhs(COS2, 2.0)
    y0 = saddle_seed(COS2, 2.0)
    with pytest.raises(FlowStepError, match="budget") as info:
        list(_dop853(field, y0, 12.0, 1e-10, 1e-12, 5))
    assert 0.0 < info.value.t < 12.0
    assert run_dop853(field, y0, 0.0, 1e-10, 1e-12, 5) == ([], [], 0)


def test_heteroclinic_dag_step_budget_bounds_huge_t_max():
    # no ball is ever reached, so without a budget t_max = 1e9 would run for days
    dag = heteroclinic_dag(COS2, 2.0, ball_radius=1e-300, t_max=1e9)
    assert not dag.edges
    assert len(dag.undecided) == 4
    for rec in dag.undecided:
        assert "budget" in rec["reason"] and "\n" not in rec["reason"]
        assert len(rec["final_state"]) == 3


def test_trace_budget_counts_a_hold_that_leaves_the_ball(monkeypatch):
    # a decoy node where the trace passes at t = 2, with |W| always below
    # w_stop: a hold starts there and leaves the ball, and the trace goes on
    # in the same run, on the same budget, to its target
    import radialscope.dynamics as dyn
    edge = heteroclinic_dag(COS2, 2.0).edges[0]
    nodes = locate_radial_points(COS2, 2.0)
    source = next(n for n in nodes if n.node_id == edge.source)
    target = next(n for n in nodes if n.node_id == edge.target)
    k = int(np.searchsorted(edge.trajectory.times, 2.0))
    th, nu, _ = edge.trajectory.states[k].tolist()
    decoy = types.SimpleNamespace(node_id="decoy", theta=th, nu=nu)
    calls = []

    def spy(*args):
        calls.append(args)
        return dyn_dop853(*args)

    dyn_dop853 = dyn._dop853
    monkeypatch.setattr(dyn, "_dop853", spy)
    seed = edge.trajectory.states[0].tolist()
    rec = dyn._trace_to_radial_point(COS2, 2.0, _rhs(COS2, 2.0), seed, nodes + [decoy], source,
                                     edge.seed_offset, edge.seed_direction, 1e-10, 1e-3,
                                     1e9, 2.5, 60.0)
    assert rec.target == edge.target
    assert [(c[2], c[5]) for c in calls] == [(62.5, MAX_FLOW_STEPS)]    # one run per seed
    states, times = rec.trajectory.states, rec.trajectory.times
    in_decoy = [_ball_distance(s, decoy) < 1e-3 for s in states.tolist()]
    first = in_decoy.index(True)
    last = len(in_decoy) - 1 - in_decoy[::-1].index(True)
    assert times[last] - times[first] < 2.5 and not any(in_decoy[last + 1:])
    assert _ball_distance(states[-1], target) < 1e-3


def test_trace_stops_past_t_max_without_a_hold(monkeypatch):
    # no ball is reached: each run ends at its first accepted step past t_max
    import radialscope.dynamics as dyn
    runs = []

    def spy(*args):
        runs.append([])
        for step in dyn_dop853(*args):
            runs[-1].append(step[0])
            yield step

    dyn_dop853 = dyn._dop853
    monkeypatch.setattr(dyn, "_dop853", spy)
    dag = heteroclinic_dag(COS2, 2.0, ball_radius=1e-300, t_max=10.0)
    assert [rec["reason"] for rec in dag.undecided] == ["no convergence within t_max"] * 4
    assert len(runs) == 4
    for times in runs:
        assert times[-2] <= 10.0 < times[-1] < 15.0


def test_edges_end_at_entry_into_the_target_ball():
    dag = heteroclinic_dag(COS2, 2.0)
    by_id = {n.node_id: n for n in dag.nodes}
    field = _rhs(COS2, 2.0)
    assert len(dag.edges) == 4
    for e in dag.edges:
        states = e.trajectory.states.tolist()
        target = by_id[e.target]
        near = [math.hypot(*field(*s)) < DEFAULT_W_STOP
                and _ball_distance(s, target) < DEFAULT_BALL_RADIUS for s in states]
        # the last state is the first that meets the entry condition
        assert near[-1] and not any(near[:-1])
