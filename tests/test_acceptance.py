"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a PASS line on success (visible with pytest -s); every
expected value is either an exact algebraic identity, a brute-force
enumeration, or an independently computed numerical oracle.
"""

import cmath
import itertools
import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from radialscope.cli import main as cli_main
from radialscope.expansion import OscillatorSpec, log_variable_recursion, oscillator_spectrum
from radialscope.multipoly import MultiPoly
from radialscope.normalform import (flat_perturbation_case_1d, nelson_limit,
                                    reduce_to_normal_form)
from radialscope.oscverify import (STATIONARY_PHASE_CONSTANT, StationaryPhaseCase,
                                   gaussian_amplitude, locate_phase_peak,
                                   measure_phase_hessian, stationary_phase_check)
from radialscope.radial import (CriticalPointSpec, hessian_thresholds,
                                radial_point_from_spectrum)
from radialscope.resonance import enumerate_resonances, scan_effectively_resonant_energies
from radialscope.symalg import (EXACT, ModelQuadratic, VariableLayout,
                                WeightedPolynomial, bracket, eigen_action_table)
from radialscope.dynamics import PotentialModel, heteroclinic_dag, morse_sequence

from oscillator_oracle import oscillator_spectrum_grid


def report(num: int, detail: str):
    print(f"ACCEPTANCE {num:02d}: PASS - {detail}")


def test_criterion_01_stationary_phase_constant():
    t0 = time.perf_counter()
    xs = tuple(10 ** e for e in (-2, -2.5, -3, -3.5, -4))
    case = StationaryPhaseCase(v0z=0.0, tau=0.5,
                               amplitude=gaussian_amplitude(1.0, 0.3, cut=3.0),
                               x_list=xs)
    res = stationary_phase_check(case)
    cmod = abs(STATIONARY_PHASE_CONSTANT)
    cph = cmath.phase(STATIONARY_PHASE_CONSTANT)
    assert cmod == pytest.approx(0.28209, abs=5e-6)
    row = next(r for r in res.rows if abs(r["x"] - 1e-3) < 1e-15)
    mod_dev = abs(row["prefactorMod"] - cmod) / cmod
    ph_dev = abs(row["prefactorPhase"] - cph)
    assert mod_dev <= 0.05
    assert ph_dev <= 0.05
    assert 0.8 <= res.convergence_exponent <= 1.2
    elapsed = time.perf_counter() - t0
    assert elapsed <= 30.0
    report(1, f"|pref| dev {mod_dev:.2e}, phase dev {ph_dev:.3f} rad, "
              f"exponent {res.convergence_exponent:.3f}, {elapsed:.1f}s")


def test_criterion_02_energy_equation():
    taus = (0.3, 0.4, 0.5, 0.7, 1.0)
    worst = 0.0
    for tau in taus:
        sigma_c = 0.25 + 1.0 / (4.0 * tau * tau)
        case = StationaryPhaseCase(v0z=0.25, tau=tau,
                                   amplitude=gaussian_amplitude(sigma_c, 0.02),
                                   x_list=(1e-3,))
        peak = locate_phase_peak(case)
        worst = max(worst, abs(peak - case.sigma_c))
        assert abs(peak - case.sigma_c) <= 1e-6
    report(2, f"peak = sigma_c to {worst:.1e} over {len(taus)} tau values")


def test_criterion_03_phase_hessian():
    case = StationaryPhaseCase(v0z=0.0, tau=0.5,
                               amplitude=gaussian_amplitude(1.0, 0.3, cut=3.0),
                               x_list=(1e-3,))
    measured = measure_phase_hessian(case, 1e-3)
    expected = -2.0 * 0.5 ** 3 / 1e-3
    rel = abs(measured - expected) / abs(expected)
    assert rel <= 1e-6
    report(3, f"phase Hessian -2 tau^3/x matched to rel {rel:.1e}")


@pytest.mark.parametrize("r", [Fraction(1, 4), Fraction(-1)], ids=["1/4", "-1"])
def test_criterion_04_eigenvalue_lemma(r):
    lay = VariableLayout(n=2, s=1, m=2)
    model = ModelQuadratic(lam=Fraction(1), r_list=(r,), layout=lay)
    p0 = model.p0()
    table = eigen_action_table(model, lay, max_grade=6)
    checked = 0
    for key, value in table.items():
        mono = WeightedPolynomial(lay, EXACT, {key: 1})
        residual = bracket(p0, mono) - mono.scale(value)
        assert residual.is_zero(), key
        checked += 1
    report(4, f"r = {r}: {checked} monomials of grade <= 6, zero residual")


def test_criterion_05_normal_form_exactness():
    t0 = time.perf_counter()
    rp = radial_point_from_spectrum(Fraction(1), (Fraction(1, 4),))
    p0 = rp.model_quadratic().p0()
    y = WeightedPolynomial.y(rp.layout, 0)
    p = p0 + y * y * y
    res = reduce_to_normal_form(p, rp, 6)
    assert res.p_norm == p0
    assert res.apply_inverse(res.p_norm) == p
    elapsed = time.perf_counter() - t0
    assert elapsed <= 1.0
    report(5, f"pNorm = p0 exactly to grade 6, round trip exact, {elapsed * 1e3:.0f} ms")


def _brute_force(r_list, max_degree):
    n = len(r_list)
    found = set()
    for w in range(3, max_degree + 1):
        for a in range(w // 2 + 1):
            rem = w - 2 * a
            for alpha in itertools.product(range(rem + 1), repeat=n):
                if sum(alpha) > rem:
                    continue
                for beta in itertools.product(range(rem - sum(alpha) + 1), repeat=n):
                    if sum(alpha) + sum(beta) != rem:
                        continue
                    acc = a - 1
                    for j in range(n):
                        acc += alpha[j] * r_list[j] + beta[j] * (1 - r_list[j])
                    if acc == 0:
                        found.add((a, alpha, beta))
    return found


def test_criterion_06_resonance_brute_force_equivalence():
    cases = [(Fraction(-1),), (Fraction(1, 4),), (Fraction(-2), Fraction(-1)),
             (Fraction(1, 5), Fraction(2, 5))]
    total = 0
    for r_list in cases:
        rp = radial_point_from_spectrum(Fraction(1), r_list)
        got = {rec.idx for rec in enumerate_resonances(rp, 8)}
        want = _brute_force(r_list, 8)
        assert got == want, r_list
        total += len(got)
    report(6, f"exact set equality on 4 spectra, degree <= 8 ({total} resonances)")


def test_criterion_07_effectively_resonant_scan():
    t0 = time.perf_counter()
    cp = CriticalPointSpec("z", Fraction(0), (Fraction(-12), Fraction(-4)))
    res = scan_effectively_resonant_energies(cp, (0.5, 2.0))
    assert len(res.eff_res_energies) == 1, "no spurious roots allowed"
    sigma, idx, residual = res.eff_res_energies[0]
    assert abs(sigma - 1.0) <= 1e-8
    assert idx == (0, (0, 2), (1, 0))
    assert res.thresholds == ()
    elapsed = time.perf_counter() - t0
    assert elapsed <= 10.0
    report(7, f"sigma = {sigma:.9f} witness (0,(0,2),(1,0)), "
              f"residual {residual:.1e}, {elapsed:.1f}s")


def test_criterion_08_hessian_thresholds_exact():
    cp = CriticalPointSpec("z", Fraction(0), (Fraction(1, 2), Fraction(2)))
    assert hessian_thresholds(cp) == [Fraction(1), Fraction(4)]
    cp2 = CriticalPointSpec("z", Fraction(3), (Fraction(1),))
    assert hessian_thresholds(cp2) == [Fraction(5)]
    cp3 = CriticalPointSpec("z", Fraction(-7, 3), (Fraction(5, 9), Fraction(-2)))
    assert hessian_thresholds(cp3) == [Fraction(-7, 3) + Fraction(10, 9)]
    report(8, "V0(z) + 4 a_j exact on rational inputs")


def test_criterion_09_morse_decomposition():
    t0 = time.perf_counter()
    pm = PotentialModel(n=2, v0_coeffs=[(2, 1.0, 0.0)])
    dag = heteroclinic_dag(pm, 2.0)
    outgoing = [n for n in dag.nodes if n.outgoing]
    assert len(outgoing) == 4
    maxima = sorted(n.node_id for n in outgoing if not n.is_min)
    minima = sorted(n.node_id for n in outgoing if n.is_min)
    assert len(maxima) == 2 and len(minima) == 2
    # each maximum flows into its two adjacent minima (the two minima)
    assert {(e.source, e.target) for e in dag.edges} == {(mx, mn) for mx in maxima
                                                          for mn in minima}
    assert not dag.undecided
    for e in dag.edges:
        assert e.trajectory.p_drift <= 1e-9
        assert e.trajectory.nu_min_increment >= -1e-9
    ms = morse_sequence(dag)
    assert ms.verified
    by_id = {n.node_id: n for n in dag.nodes}
    assert [by_id[nid].is_min for nid in ms.order] == [True, True, False, False]
    nus = [by_id[nid].nu for nid in ms.order]
    assert nus[0] == pytest.approx(math.sqrt(3.0)) and nus[-1] == pytest.approx(1.0)
    assert nus == sorted(nus, reverse=True)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 60.0
    report(9, f"4 outgoing points, edges = max -> adjacent minima, "
              f"order {ms.order}, {elapsed:.1f}s")


def test_criterion_10_oscillator_spectrum():
    rng = random.Random(20260810)
    cases = 0
    worst = 0.0
    while cases < 10:
        p = rng.uniform(0.6, 1.8)
        q = rng.uniform(-0.4, 0.7)
        c = rng.uniform(0.6, 1.8)
        if p * c - q * q <= 0.05 or p * c - (q - 0.25) ** 2 <= 0.05:
            continue
        spec = OscillatorSpec(p, q, c)
        closed = np.array(oscillator_spectrum(spec, 5))
        grid = oscillator_spectrum_grid(spec, 5, domain=(-20.0, 20.0), npts=2000)
        diff = float(np.max(np.abs(closed - grid)))
        worst = max(worst, diff)
        assert diff <= 1e-6, (p, q, c, diff)
        cases += 1
    report(10, f"closed form vs grid eigensolve: worst |diff| = {worst:.1e} "
               f"over 10 randomized elliptic blocks, k <= 5")


def _random_log_case(rng):
    kind = rng.choice(["second_pair", "second_triple", "prime_chain", "integrating"])
    if kind == "second_pair":
        q = rng.randint(5, 12)
        n1 = rng.choice([1, 2])
        k = rng.randint(2, 4)
        if 2 * k * n1 >= q:
            q = 2 * k * n1 + rng.randint(1, 3)
        r = (Fraction(n1, q), Fraction(k * n1, q))
        coeff = Fraction(rng.randint(1, 9), rng.randint(1, 5))
        return r, {1: MultiPoly(2, {(k, 0): coeff})}, None
    if kind == "second_triple":
        base = rng.randint(10, 14)
        r = (Fraction(1, base), Fraction(3, base), Fraction(4, base))
        c1 = Fraction(rng.randint(1, 7), rng.randint(1, 3))
        c2 = Fraction(rng.randint(1, 7), rng.randint(1, 3))
        return r, {1: MultiPoly(3, {(3, 0, 0): c1}),
                   2: MultiPoly(3, {(1, 1, 0): c2, (4, 0, 0): c1})}, None
    if kind == "prime_chain":
        u = rng.randint(1, 3)
        r = (Fraction(-2 * u), Fraction(-u))
        coeff = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        return r, {0: MultiPoly(2, {(0, 2): coeff})}, None
    k = rng.randint(3, 6)       # k = 2 would sit exactly at the Hessian threshold
    r = (Fraction(1, k),)
    coeff = Fraction(rng.randint(1, 9), rng.randint(1, 4))
    return r, {}, MultiPoly(1, {(k,): coeff})


def test_criterion_11_log_variable_certificate():
    rp = radial_point_from_spectrum(Fraction(-2), (Fraction(1, 5), Fraction(2, 5)))
    worked = log_variable_recursion(rp, p_polys={1: MultiPoly(2, {(2, 0): Fraction(3)})})
    assert all(worked.certificate.values())
    assert worked.sec_psharp[1] == MultiPoly(3, {(2, 0, 1): Fraction(3)})

    rng = random.Random(77)
    for trial in range(20):
        r_list, p_polys, p0 = _random_log_case(rng)
        lam = Fraction(-2) if all(r > 0 for r in r_list) else Fraction(1)
        rp_t = radial_point_from_spectrum(lam, r_list)
        lvs = log_variable_recursion(rp_t, p_polys=p_polys, p0_poly=p0)
        assert all(lvs.certificate.values()), (trial, r_list, lvs.certificate)
    report(11, "V(Y_j) = 0 exact for the (1/5, 2/5) case and 20 randomized inputs")


def test_criterion_12_nelson_conjugacy():
    t0 = time.perf_counter()
    case = flat_perturbation_case_1d()
    out = nelson_limit(case)
    assert out.converged
    min_rate = min(out.cauchy_rates.values())
    assert min_rate > 0

    xs = [0.4 * 2 ** (-k / 2) for k in range(6)]
    case2 = flat_perturbation_case_1d(samples=xs, t_max=14.0)
    out2 = nelson_limit(case2)
    devs = [abs(float(out2.w_minus[i][0]) - xs[i]) for i in range(len(xs))]
    m = float(np.polyfit(np.log(xs), np.log(devs), 1)[0])
    assert m >= 5.0
    elapsed = time.perf_counter() - t0
    assert elapsed <= 30.0
    report(12, f"Cauchy rate >= {min_rate:.2f} > 0, flatness fit m = {m:.2f} >= 5, "
               f"{elapsed:.1f}s")


def test_criterion_13_determinism(tmp_path):
    cfg = {"mode": "explicit", "potential": {"n": 2, "v0": [[2, 1.0, 0.0]]},
           "energy": 2.0, "options": {"maxDegree": 5, "K": 2}}
    path = tmp_path / "cos2.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["analyze", "--config", str(path), "--out", str(tmp_path / "a")]) == 0
    assert cli_main(["analyze", "--config", str(path), "--out", str(tmp_path / "b")]) == 0
    ba = (tmp_path / "a" / "report.json").read_bytes()
    bb = (tmp_path / "b" / "report.json").read_bytes()
    assert ba == bb
    report(13, f"two analyze runs byte-identical ({len(ba)} bytes)")
