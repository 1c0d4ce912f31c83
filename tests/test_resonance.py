import math
import unittest.mock
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq

import radialscope.resonance as resonance
import radialscope.symalg as symalg
from radialscope.normalform import reduce_to_normal_form, solve_homological
from radialscope.radial import CriticalPointSpec, linearization_spectrum, radial_point_from_spectrum
from radialscope.resonance import (DEFAULT_FLOAT_TOL, EFF_NONRES, EFF_R1, EFF_R2,
                                   InvalidInputError, InvalidIntervalError, block_class,
                                   enumerate_resonances, is_resonant, module_multiindex,
                                   module_order, s_alpha, scan_effectively_resonant_energies,
                                   second_index_set)
from radialscope.scalars import GaussianRational
from radialscope.symalg import (FLOATING, WeightedPolynomial, compositions, iter_monomials,
                                key_parts, monomial_key as K, normalized_eigenvalue,
                                weighted_degree)
from module_oracle import module_closure_check
from resonance_oracle import (brute_force_resonances, brute_force_second_index_set,
                              float_resonant, float_resonances, float_second_index_set,
                              near_resonances)


def classify_resonance(idx, rp, tol=DEFAULT_FLOAT_TOL):
    """effR1 (I'), effR2 (I'') or effNonres of an index that must be resonant."""
    if not is_resonant(idx, rp, tol):
        raise InvalidInputError(f"index {idx} is not resonant for this radial point")
    return block_class(idx, rp.layout)


R_CASES = [
    (Fraction(-1),),
    (Fraction(1, 4),),
    (Fraction(-2), Fraction(-1)),
    (Fraction(1, 5), Fraction(2, 5)),
]


@pytest.mark.parametrize("r_list", R_CASES, ids=["-1", "1/4", "(-2,-1)", "(1/5,2/5)"])
def test_enumeration_matches_brute_force(r_list):
    rp = radial_point_from_spectrum(Fraction(1), r_list)
    got = [rec.idx for rec in enumerate_resonances(rp, 8)]
    assert got == brute_force_resonances(rp.r_list, 8)


def test_enumeration_examples():
    rp = radial_point_from_spectrum(Fraction(1), (Fraction(-1),))
    idxs = {rec.idx for rec in enumerate_resonances(rp, 5)}
    assert K(1, (2,), (1,)) in idxs
    assert K(0, (3,), (2,)) in idxs

    rp2 = radial_point_from_spectrum(Fraction(1), (Fraction(1, 4),))
    idxs2 = {rec.idx for rec in enumerate_resonances(rp2, 4)}
    assert K(0, (4,), (0,)) in idxs2


def test_generic_irrational_r_has_no_resonances():
    r = math.sqrt(2) / 10
    rp = radial_point_from_spectrum(1.0, (r,))
    assert enumerate_resonances(rp, 8, tol=1e-12) == []


def test_near_resonances_reported_separately():
    # r slightly off 1/4: (0,(4),(0)) lands in the (tol, 10 tol] band
    rp = radial_point_from_spectrum(1.0, (0.25 + 1e-10,))
    deviation = abs(4 * float(rp.r_list[0]) - 1)
    tol = deviation / 5
    assert all(rec.idx != K(0, (4,), (0,)) for rec in
               enumerate_resonances(rp, 4, tol=tol))
    assert K(0, (4,), (0,)) in near_resonances(rp, 4, tol=tol)


def test_classification_examples():
    rp = radial_point_from_spectrum(Fraction(1), (Fraction(-2), Fraction(-1)))
    assert classify_resonance(K(0, (0, 2), (1, 0)), rp) == EFF_R1

    rp2 = radial_point_from_spectrum(Fraction(1), (Fraction(1, 3),))
    assert classify_resonance(K(0, (3,), (0,)), rp2) == EFF_R2

    rp3 = radial_point_from_spectrum(Fraction(1), (Fraction(-1),))
    assert classify_resonance(K(1, (2,), (1,)), rp3) == EFF_NONRES

    with pytest.raises(InvalidInputError):
        classify_resonance(K(0, (1, 0), (0, 0)), rp)  # not resonant


def test_classification_totality_and_uniqueness():
    for r_list in R_CASES:
        rp = radial_point_from_spectrum(Fraction(1), r_list)
        for rec in enumerate_resonances(rp, 8):
            assert rec.klass in (EFF_R1, EFF_R2, EFF_NONRES)
            a, alpha, beta = key_parts(rec.idx)
            ap, asec, ath = rp.layout.split(alpha)
            bp, bsec, bth = rp.layout.split(beta)
            in_i1 = (a == 0 and not any(asec) and not any(ath) and not any(bsec)
                     and not any(bth) and sum(bp) == 1)
            in_i2 = (a == 0 and not any(ap) and not any(bp) and not any(ath)
                     and not any(bth))
            assert not (in_i1 and in_i2)
            assert (rec.klass == EFF_R1) == in_i1
            assert (rec.klass == EFF_R2) == in_i2


def test_scan_worked_case():
    cp = CriticalPointSpec("z", Fraction(0), (Fraction(-12), Fraction(-4)))
    res = scan_effectively_resonant_energies(cp, (0.5, 2.0))
    assert len(res.eff_res_energies) == 1
    sigma, idx, residual = res.eff_res_energies[0]
    assert abs(sigma - 1.0) <= 1e-8
    assert idx == K(0, (0, 2), (1, 0))
    assert residual <= 1e-10
    assert res.thresholds == ()


def test_scan_soundness_reproduces_witness():
    cp = CriticalPointSpec("z", Fraction(0), (Fraction(-12), Fraction(-4)))
    res = scan_effectively_resonant_energies(cp, (0.5, 2.0))
    sigma, idx, _ = res.eff_res_energies[0]
    rp = linearization_spectrum(cp, sigma, +1)
    assert is_resonant(idx, rp, tol=1e-7)
    assert classify_resonance(idx, rp, tol=1e-7) == EFF_R1


def test_scan_includes_thresholds():
    cp = CriticalPointSpec("z", Fraction(0), (Fraction(1, 2), Fraction(2)))
    res = scan_effectively_resonant_energies(cp, (0.5, 5.0), grid_points=3000)
    assert [t for t, _ in res.thresholds] == [1.0, 4.0]
    # every root satisfies its equation to 1e-10 and the set is isolated
    for _, _, residual in res.eff_res_energies:
        assert residual <= 1e-10
    assert res.min_gap is None or res.min_gap >= 0


def test_scan_no_second_block_when_all_maxima():
    cp = CriticalPointSpec("z", Fraction(0), (Fraction(-3), Fraction(-5)))
    res = scan_effectively_resonant_energies(cp, (0.5, 1.5), grid_points=2000)
    # only I' families can fire; verify none of the witnesses involve beta''
    for _, idx, _ in res.eff_res_energies:
        assert sum(key_parts(idx)[2]) == 1


def test_scan_invalid_interval():
    cp = CriticalPointSpec("z", Fraction(0), (Fraction(-4),))
    with pytest.raises(InvalidIntervalError):
        scan_effectively_resonant_energies(cp, (0.0, 1.0))
    with pytest.raises(InvalidIntervalError):
        scan_effectively_resonant_energies(cp, (-1.0, -0.5))


def test_second_index_set_examples():
    rp = radial_point_from_spectrum(1.0, (0.3,))
    j2 = second_index_set(rp)
    assert ((4,), (0,)) in j2
    assert ((0,), (2,)) in j2
    assert ((2,), (1,)) in j2
    assert ((1,), (1,)) not in j2      # exactly 1.0, open interval
    assert ((0,), (1,)) not in j2      # 0.7 < 1
    expected = {((0,), (2,)), ((1,), (2,)), ((2,), (1,)), ((3,), (1,)),
                ((4,), (0,)), ((4,), (1,)), ((5,), (0,)), ((6,), (0,))}
    assert set(j2) == expected


def test_second_index_set_empty_without_block():
    rp = radial_point_from_spectrum(Fraction(1), (Fraction(-1),))
    assert second_index_set(rp) == []


def generator_power(rec, symbol_id, power):
    """The generator multiindex of A^power for the generator named symbol_id."""
    return [power if g.symbol_id == symbol_id else 0 for g in rec.generators]


def test_module_order_examples():
    rp = radial_point_from_spectrum(Fraction(1), (Fraction(1, 3),))
    rec = module_order(rp)
    assert s_alpha(rec, generator_power(rec, "e''_1", 3)) == (1, 0)

    rp2 = radial_point_from_spectrum(Fraction(1), (Fraction(-1),))
    rec2 = module_order(rp2)
    assert s_alpha(rec2, generator_power(rec2, "f'_1", 2)) == (1, 1)

    rp3 = radial_point_from_spectrum(-2.0, (complex(0.5, 0.5),))
    rec3 = module_order(rp3)
    s, st = s_alpha(rec3, generator_power(rec3, "e'''_1", 1))
    assert s == 0.5 and st == 0.0


def test_module_order_characterizes_effective_resonance():
    for r_list in R_CASES + [(Fraction(1, 3),)]:
        rp = radial_point_from_spectrum(Fraction(1), r_list)
        rec = module_order(rp)
        for record in enumerate_resonances(rp, 7):
            total = rec.s_sum(module_multiindex(record.idx, rec))
            if record.klass in (EFF_R1, EFF_R2):
                assert total == 1, (r_list, record)
            else:
                assert total > 1, (r_list, record)


def test_module_closure():
    for r_list in ((Fraction(1, 4),), (Fraction(-1),), (Fraction(-2), Fraction(-1)),
                   (Fraction(1, 5), Fraction(2, 5))):
        rp = radial_point_from_spectrum(Fraction(1), r_list)
        report = module_closure_check(rp, max_degree=3)
        assert report.closed, (r_list, report.violations[:3])
        assert report.eigen_relations_ok
        assert report.pairs_checked > 0


def test_module_closure_rejects_complex_blocks():
    rp = radial_point_from_spectrum(-2.0, (complex(0.5, 0.5),))
    with pytest.raises(InvalidInputError):
        module_closure_check(rp)


def test_second_index_set_complete_against_wide_enumeration():
    # independent completeness check with a much larger exponent window
    rp = radial_point_from_spectrum(1.0, (0.3,))
    got = set(second_index_set(rp))
    wide = set()
    for a in range(30):
        for b in range(30):
            if a + b and 1.0 < 0.3 * a + 0.7 * b < 2.0:
                wide.add(((a,), (b,)))
    assert got == wide


@st.composite
def floating_second_spectra(draw):
    """A floating radial point with 1-3 y'' blocks, seeded with ratios
    (0.125, 0.25, 0.3, 0.4) that put candidate values on 1 and 2 in floats."""
    rs = draw(st.lists(st.sampled_from([0.125, 0.25, 0.3, 0.4])
                       | st.floats(0.12, 0.49, allow_subnormal=False), min_size=1, max_size=3))
    lam = draw(st.sampled_from([1.0, -2.0]))
    return radial_point_from_spectrum(lam, tuple(rs))


@settings(max_examples=40, deadline=None)
@given(floating_second_spectra())
def test_floating_second_index_set_matches_float_oracle(rp):
    assert rp.mode == FLOATING
    sec = [rp.r_list[j] for j in rp.layout.ysecond_indices]
    assert second_index_set(rp) == float_second_index_set(sec)


def test_floating_second_index_set_drops_candidates_within_tol_of_1_and_2():
    # at r = 1/3 +- 1e-13, 3 r = 1 + 3e-13 and 6 r = 2 - 6e-13 fall inside
    # (1, 2) but within the default tol 1e-12 of its ends: at s = 1 that is
    # the I'' resonance y^3, which enumerate_resonances also reports
    for r, idx in ((1 / 3 + 1e-13, ((3,), (0,))), (1 / 3 - 1e-13, ((6,), (0,)))):
        rp = radial_point_from_spectrum(1.0, (r,))
        assert idx not in second_index_set(rp)
        assert idx in second_index_set(rp, tol=1e-14)
        assert second_index_set(rp, tol=1e-14) == float_second_index_set((r,), tol=1e-14)
    rp = radial_point_from_spectrum(1.0, (1 / 3 + 1e-13,))
    assert K(0, (3,), (0,)) in {rec.idx for rec in enumerate_resonances(rp, 3)}


def test_scan_deterministic():
    cp = CriticalPointSpec("z", Fraction(0), (Fraction(-12), Fraction(-4)))
    base = scan_effectively_resonant_energies(cp, (0.5, 2.0), grid_points=2000)
    again = scan_effectively_resonant_energies(cp, (0.5, 2.0), grid_points=2000)
    assert base.eff_res_energies == again.eff_res_energies


def test_scan_grid_points_contract():
    cp = CriticalPointSpec("z", Fraction(0), (Fraction(-12), Fraction(-4)))
    for bad in (0, 1, -5, 2.5, 100.0, "100", True, None):
        with pytest.raises(ValueError, match="integer >= 2"):
            scan_effectively_resonant_energies(cp, (0.5, 2.0), grid_points=bad)
    assert scan_effectively_resonant_energies(cp, (0.5, 2.0), grid_points=2).settings[
        "gridPoints"] == 2


# -- the vectorised scan against a point-by-point scalar scan ------------------------


def threshold_split(cp, interval):
    """(thresholds, threshold-free subintervals) of an interval, as the scan cuts it."""
    lo, hi = float(interval[0]), float(interval[1])
    v0 = float(cp.value)
    thresholds = sorted((v0 + 2.0 * float(h), h_idx) for h_idx, h in enumerate(cp.hessian)
                        if float(h) > 0 and lo <= v0 + 2.0 * float(h) <= hi)
    cuts = sorted({lo, hi} | {t for t, _ in thresholds})
    pad = max((hi - lo) * 1e-9, 1e-12)
    subintervals = []
    for a, b in zip(cuts, cuts[1:]):
        aa = a + (pad if any(abs(a - t) < pad for t, _ in thresholds) else 0.0)
        bb = b - (pad if any(abs(b - t) < pad for t, _ in thresholds) else 0.0)
        if aa < bb:
            subintervals.append((aa, bb))
    return thresholds, subintervals


def scalar_reference_scan(cp, interval, grid_points, bisect_tol=1e-10):
    """One Python closure per family, called at every grid point; brentq on sign changes.

    Returns (eff_res_energies, thresholds) as the scan reports them.
    """
    v0 = float(cp.value)
    hsorted = sorted(float(h) for h in cp.hessian)
    neg_pos = [j for j, h in enumerate(hsorted) if h < 0]

    def r_of(h, w):
        return 0.5 - (0.25 - (h / 2.0) / w) ** 0.5

    thresholds, subintervals = threshold_split(cp, interval)

    def embed(positions, values):
        out = [0] * len(hsorted)
        for p, v in zip(positions, values):
            out[p] = v
        return tuple(out)

    roots = []
    for a_end, b_end in subintervals:
        wa, wb = a_end - v0, b_end - v0
        sec_pos = [j for j, h in enumerate(hsorted) if h > 0 and wa > 2.0 * h and wb > 2.0 * h]
        families = []
        if neg_pos:
            ends = {j: (r_of(hsorted[j], wa), r_of(hsorted[j], wb)) for j in neg_pos}
            min_abs = min(abs(r) for j in neg_pos for r in ends[j])
            for k in neg_pos:
                bound = int(max(abs(r) for r in ends[k]) / min_abs + 1e-9)
                for total in range(2, bound + 1):
                    for av in compositions(len(neg_pos), total):
                        def g(sig, av=av, k=k):
                            w = sig - v0
                            return (sum(av[i] * r_of(hsorted[j], w) for i, j in enumerate(neg_pos))
                                    - r_of(hsorted[k], w))
                        families.append((K(0, embed(neg_pos, av), embed([k], [1])), g))
        if sec_pos:
            min_r = min(min(r_of(hsorted[j], wa), r_of(hsorted[j], wb)) for j in sec_pos)
            amax = int(1.0 / min_r + 1e-9)
            for btotal in (0, 1):
                for bv in compositions(len(sec_pos), btotal):
                    for atotal in range(max(0, 3 - btotal), amax + 1):
                        for av in compositions(len(sec_pos), atotal):
                            def g(sig, av=av, bv=bv, sec_pos=sec_pos):
                                w = sig - v0
                                return sum(av[i] * r_of(hsorted[j], w)
                                           + bv[i] * (1.0 - r_of(hsorted[j], w))
                                           for i, j in enumerate(sec_pos)) - 1.0
                            families.append((K(0, embed(sec_pos, av), embed(sec_pos, bv)), g))
        step = (b_end - a_end) / grid_points
        grid = [a_end + i * step for i in range(grid_points + 1)]
        for idx, g in families:
            vals = [g(s) for s in grid]
            for i in range(grid_points):
                if vals[i] == 0.0:
                    roots.append((grid[i], idx, 0.0))
                elif vals[i] * vals[i + 1] < 0.0:
                    root = brentq(g, grid[i], grid[i + 1], xtol=bisect_tol * 1e-4)
                    roots.append((root, idx, abs(g(root))))
            if vals[-1] == 0.0:
                roots.append((grid[-1], idx, 0.0))

    dedup = {}
    for s, idx, res in roots:
        key = (round(s / bisect_tol), idx)
        if key not in dedup or res < dedup[key][2]:
            dedup[key] = (s, idx, res)
    return tuple(sorted(dedup.values())), tuple(thresholds)


SCALAR_CASES = [
    # (Hessian, V0, interval, grid, root families expected)
    ((Fraction(-1), Fraction(-1, 2), Fraction(1, 4)), 0, (0.2, 3.0), 3000, {"I''"}),
    ((Fraction(-2), Fraction(-1), Fraction(1, 3)), 0, (0.3, 2.5), 3000, {"I''"}),
    # ratios (-1, -1/2, 1/4) and (-2, -1, 1/3) planted at sigma = 1
    ((Fraction(-4), Fraction(-3, 2), Fraction(3, 8)), 0, (0.7, 1.2), 3000, {"I'", "I''"}),
    ((Fraction(-12), Fraction(-4), Fraction(4, 9)), 0, (0.85, 1.25), 3000, {"I'", "I''"}),
    ((Fraction(-12), Fraction(-4), Fraction(3, 8)), 0, (0.5, 2.0), 8192, {"I'", "I''"}),
    ((Fraction(3, 8),), 0, (0.875, 1.125), 8192, {"I''"}),
    # at sigma = lo the family (2, 2) is exactly 0.0 with libm's pow and
    # -1.1e-16 with numpy's sqrt; only the scalar value may decide it
    ((0.2, 0.7422063750045471), 0, (1.5150087658616196, 1.6), 1000, {"I''"}),
]


@pytest.mark.parametrize("hessian,v0,interval,grid,kinds", SCALAR_CASES,
                         ids=["(-1,-1/2,1/4)", "(-2,-1,1/3)", "r=(-1,-1/2,1/4)",
                              "r=(-2,-1,1/3)", "(-12,-4,3/8)", "grid-hit", "pow-vs-sqrt"])
def test_scan_equals_scalar_reference(hessian, v0, interval, grid, kinds):
    cp = CriticalPointSpec("z", Fraction(v0), hessian)
    res = scan_effectively_resonant_energies(cp, interval, grid_points=grid)
    eff, thresholds = scalar_reference_scan(cp, interval, grid)
    assert res.eff_res_energies == eff
    assert res.thresholds == thresholds
    # I' witnesses carry beta' (the negative, leading Hessian positions)
    n_neg = sum(1 for h in hessian if h < 0)
    assert {"I'" if any(key_parts(idx)[2][:n_neg]) else "I''" for _, idx, _ in eff} == kinds


def test_scan_reports_exact_grid_hits():
    cp = CriticalPointSpec("z", Fraction(0), (Fraction(3, 8),))
    for interval in ((0.875, 1.125), (0.875, 1.0), (1.0, 1.125)):   # inside, last, first
        res = scan_effectively_resonant_energies(cp, interval, grid_points=8192)
        assert res.eff_res_energies == ((1.0, K(0, (4,), (0,)), 0.0),)
    cp = CriticalPointSpec("z", Fraction(0), (0.2, 0.7422063750045471))
    res = scan_effectively_resonant_energies(cp, (1.5150087658616196, 1.6), grid_points=1000)
    assert res.eff_res_energies[0] == (1.5150087658616196, K(0, (2, 2), (0, 0)), 0.0)


# -- the scan against exact enumeration at planted rational energies -----------------

PLANTED_SHAPES = [
    ((Fraction(1, 3),), Fraction(4, 5), Fraction(31, 20)),
    ((Fraction(1, 4),), Fraction(7, 10), Fraction(29, 20)),
    ((Fraction(-1, 2), Fraction(1, 3)), Fraction(17, 20), Fraction(13, 10)),
    ((Fraction(-1), Fraction(-1, 2), Fraction(1, 4)), Fraction(7, 10), Fraction(6, 5)),
    ((Fraction(1, 6), Fraction(1, 3)), Fraction(3, 5), Fraction(11, 10)),
    ((Fraction(-2), Fraction(-1), Fraction(1, 3)), Fraction(17, 20), Fraction(5, 4)),
]


@pytest.mark.parametrize("rs,lo_rel,hi_rel", PLANTED_SHAPES,
                         ids=[",".join(map(str, s[0])) for s in PLANTED_SHAPES])
def test_scan_finds_every_exact_effective_resonance(rs, lo_rel, hi_rel):
    v0, w = Fraction(-7, 3), Fraction(5, 8)
    hessian = tuple(2 * w * r * (1 - r) for r in rs)
    cp = CriticalPointSpec("z", v0, hessian)
    bisect_tol = 1e-10
    res = scan_effectively_resonant_energies(cp, (float(v0 + w * lo_rel), float(v0 + w * hi_rel)),
                                             bisect_tol=bisect_tol)
    sigma_star = v0 + w
    rp = linearization_spectrum(cp, sigma_star, +1)
    assert rp.r_list == tuple(sorted(rs))
    planted = {rec.idx for rec in enumerate_resonances(rp, 8) if rec.klass in (EFF_R1, EFF_R2)}
    assert planted
    near = {idx for s, idx, _ in res.eff_res_energies if abs(s - float(sigma_star)) <= bisect_tol}
    assert planted <= near


# -- witness soundness: every reported root is a sign change of its witness's R/lam ----

PLANT_RS = [Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(-1, 3), Fraction(1, 6),
            Fraction(1, 5), Fraction(1, 4), Fraction(1, 3), Fraction(2, 5)]


@st.composite
def planted_scans(draw):
    """A rational Hessian 2 w r (1 - r) per drawn r, so that sigma = V0 + w is
    effectively resonant whenever some r is, and an interval about it."""
    rs = draw(st.lists(st.sampled_from(PLANT_RS), min_size=1, max_size=3, unique=True))
    v0 = Fraction(draw(st.integers(-12, 12)), 4)
    w = Fraction(draw(st.integers(2, 12)), 8)
    lo, hi = (Fraction(draw(st.integers(12, 19)), 20), Fraction(draw(st.integers(21, 30)), 20))
    cp = CriticalPointSpec("z", v0, tuple(2 * w * r * (1 - r) for r in rs))
    return cp, (float(v0 + w * lo), float(v0 + w * hi))


@settings(max_examples=30, deadline=None)
@given(planted_scans())
def test_scan_roots_are_sign_changes_of_their_witness(scan):
    cp, interval = scan
    res = scan_effectively_resonant_energies(cp, interval, grid_points=1000)
    tol = res.settings["bisectTol"]
    for sigma, idx, _ in res.eff_res_energies:
        below, above = (normalized_eigenvalue(idx, linearization_spectrum(cp, s, +1).r_list)
                        for s in (sigma - tol, sigma + tol))
        assert below * above <= 0.0, (sigma, idx, below, above)


# -- range exclusion: families skipped by their end-value bound ----------------------


@st.composite
def random_scans(draw):
    """A float Hessian of 1-3 blocks of either sign, V0 and an interval, from
    ratios r_j at a reference distance w* above V0 (h_j = 2 w* r_j (1 - r_j)).
    Half the intervals straddle the threshold V0 + 2 h_j of a y'' ratio."""
    rs = draw(st.lists(st.floats(-1.5, -0.3) | st.floats(0.22, 0.45), min_size=1, max_size=3))
    v0 = draw(st.floats(-3.0, 3.0))
    w = draw(st.floats(0.25, 2.0))
    hessian = tuple(2.0 * w * r * (1.0 - r) for r in rs)
    pos = [h for h in hessian if h > 0]
    if pos and draw(st.booleans()):
        t = 2.0 * draw(st.sampled_from(pos))
        interval = (v0 + t * draw(st.floats(0.5, 0.95)), v0 + t * draw(st.floats(1.05, 1.4)))
    else:
        lo = w * draw(st.floats(0.6, 1.0))
        interval = (v0 + lo, v0 + lo + w * draw(st.floats(0.05, 0.6)))
    return CriticalPointSpec("z", v0, hessian), interval


scans = random_scans() | planted_scans()
# ratios landing exactly on an integer: |r'_k| / min |r'_j| = 1 / 0.5 and
# 1 / min r'' = 1 / 0.25, where a bound without its slack would stop one short
ON_THE_BOUND = [(CriticalPointSpec("z", 0, (-4.0, -3.0)), (1.0, 2.0)),
                (CriticalPointSpec("z", 0, (0.375,)), (0.875, 1.0))]


@settings(max_examples=60, deadline=None)
@given(scans, st.integers(200, 2000))
@example(ON_THE_BOUND[0], 200)
@example(ON_THE_BOUND[1], 200)
def test_scan_equals_scalar_reference_on_random_scans(scan, grid):
    cp, interval = scan
    res = scan_effectively_resonant_energies(cp, interval, grid_points=grid)
    eff, thresholds = scalar_reference_scan(cp, interval, grid)
    assert res.eff_res_energies == eff
    assert res.thresholds == thresholds


def scan_pieces(cp, interval, grid_points):
    """Per threshold-free subinterval, what the scan builds there:
    (families, neg_pos, sec_pos, r_grid, rmax, ends)."""
    v0 = float(cp.value)
    hsorted = sorted(float(h) for h in cp.hessian)
    neg_pos = [j for j, h in enumerate(hsorted) if h < 0]
    for a_end, b_end in threshold_split(cp, interval)[1]:
        wa, wb = a_end - v0, b_end - v0
        sec_pos = [j for j, h in enumerate(hsorted) if h > 0 and wa > 2.0 * h and wb > 2.0 * h]
        grid = a_end + np.arange(grid_points + 1) * ((b_end - a_end) / grid_points)
        r_grid = {j: resonance._r_real(hsorted[j], grid - v0) for j in neg_pos + sec_pos}
        rmax = max([1.0] + [abs(r[e]) for r in r_grid.values() for e in (0, -1)])
        ends = {j: (float(r[0]), float(r[-1])) for j, r in r_grid.items()}
        yield (resonance._families(hsorted, neg_pos, sec_pos, wa, wb), neg_pos, sec_pos,
               r_grid, rmax, ends)


@settings(max_examples=40, deadline=None)
@given(scans, st.integers(200, 2000))
def test_family_values_lie_in_their_range_bound(scan, grid):
    cp, interval = scan
    for families, _, _, r_grid, rmax, ends in scan_pieces(cp, interval, grid):
        for idx, f, weight in families:
            lo, hi = resonance._range_bound(idx, ends)
            margin = resonance._NEAR_ZERO * weight * rmax
            vals = f(r_grid)
            assert np.all(vals >= lo - margin) and np.all(vals <= hi + margin), idx


@settings(max_examples=60, deadline=None)
@given(scans)
@example(ON_THE_BOUND[0])
@example(ON_THE_BOUND[1])
def test_families_past_the_enumeration_bounds_exclude_zero(scan):
    """The float bounds with their 1e-9 slack drop no family that can vanish:
    every family of one total more than the enumeration reaches (for I'
    per beta'_k, for I'' in |alpha''| at |beta''| <= 1) has a range bound
    on its subinterval that excludes zero."""
    cp, interval = scan
    nvars = len(cp.hessian)

    def embed(positions, values):
        out = [0] * nvars
        for p, v in zip(positions, values):
            out[p] = v
        return tuple(out)

    for families, neg_pos, sec_pos, _, _, ends in scan_pieces(cp, interval, 200):
        parts = [key_parts(idx) for idx, *_ in families]
        for k in neg_pos:
            # totals run from 2, so a k with no family has bound <= 1
            total = 1 + max((sum(alpha) for _, alpha, beta in parts if beta[k]), default=1)
            for av in compositions(len(neg_pos), total):
                idx = K(0, embed(neg_pos, av), embed([k], [1]))
                assert resonance._range_bound(idx, ends)[1] < 0.0, idx
        if sec_pos:
            atotal = 1 + max(sum(alpha) for _, alpha, _ in parts
                             if any(alpha[j] for j in sec_pos))
            for btotal in (0, 1):
                for bv in compositions(len(sec_pos), btotal):
                    for av in compositions(len(sec_pos), atotal):
                        idx = K(0, embed(sec_pos, av), embed(sec_pos, bv))
                        assert resonance._range_bound(idx, ends)[0] > 0.0, idx


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 4), st.integers(0, 12), st.integers(0, 12))
def test_composition_count_is_the_number_of_compositions(parts, lo, hi):
    assert symalg.composition_count(parts, lo, hi) == sum(
        1 for total in range(lo, hi + 1) for _ in compositions(parts, total))


@settings(max_examples=40, deadline=None)
@given(scans)
@example(ON_THE_BOUND[0])
@example(ON_THE_BOUND[1])
def test_family_ceiling_counts_the_families_it_builds(scan):
    # a ceiling of exactly the families of a subinterval builds them all,
    # one fewer raises before building any
    cp, interval = scan
    v0 = float(cp.value)
    hsorted = sorted(float(h) for h in cp.hessian)
    neg_pos = [j for j, h in enumerate(hsorted) if h < 0]
    for a_end, b_end in threshold_split(cp, interval)[1]:
        wa, wb = a_end - v0, b_end - v0
        sec_pos = [j for j, h in enumerate(hsorted) if h > 0 and wa > 2.0 * h and wb > 2.0 * h]
        count = len(resonance._families(hsorted, neg_pos, sec_pos, wa, wb))
        with unittest.mock.patch.object(resonance, "MAX_SCAN_FAMILIES", count):
            assert len(resonance._families(hsorted, neg_pos, sec_pos, wa, wb)) == count
        if count:
            with unittest.mock.patch.object(resonance, "MAX_SCAN_FAMILIES", count - 1), \
                    pytest.raises(resonance.ScanBudgetError, match=f"needs {count} families"):
                resonance._families(hsorted, neg_pos, sec_pos, wa, wb)


def test_scan_over_the_family_ceiling_raises_without_enumerating(monkeypatch):
    # y' entries three orders apart: |r'_k| / min |r'_j| is about 1,464 on
    # [1, 2], over 10^9 families in all; the count alone decides
    def no_enumeration(*args):
        raise AssertionError("families enumerated")

    monkeypatch.setattr(resonance, "compositions", no_enumeration)
    cp = CriticalPointSpec("z", 0, (-1.0, -1.0, -1e-3))
    with pytest.raises(resonance.ScanBudgetError,
                       match=r"^energy scan on sigma - V0 in \[1\.0, 2\.0\] needs \d{10} families, "
                             r"over MAX_SCAN_FAMILIES = 100000$"):
        scan_effectively_resonant_energies(cp, (1.0, 2.0))


# -- exact points: the integer-weight tests against the Fraction oracles ------------


@st.composite
def exact_spectra(draw):
    """An exact radial point with 1-3 blocks drawn from y' (r < 0), y''
    (0 < r < 1/2) and y''' (r = 1/2 + i t), with small denominators so that
    resonances are frequent."""
    def frac(lo, hi, qmax):
        q = draw(st.integers(1, qmax))
        return Fraction(draw(st.integers(lo * q, hi * q)), q)

    kinds = draw(st.lists(st.sampled_from(["prime", "second", "third"]), min_size=1, max_size=3))
    r_list = []
    for kind in kinds:
        if kind == "prime":
            r = frac(-3, 0, 4)
            r_list.append(r if r < 0 else Fraction(-1, 4))
        elif kind == "second":
            q = draw(st.integers(3, 8))
            r_list.append(Fraction(draw(st.integers(1, (q - 1) // 2)), q))
        else:
            r_list.append(GaussianRational(Fraction(1, 2), frac(0, 2, 4) or Fraction(1, 3)))
    lam = draw(st.sampled_from([Fraction(1), Fraction(-2), Fraction(1, 2), Fraction(-3, 4)]))
    return radial_point_from_spectrum(lam, r_list)


@settings(max_examples=30, deadline=None)
@given(exact_spectra(), st.integers(3, 8))
def test_exact_enumeration_matches_fraction_scan(rp, max_degree):
    recs = enumerate_resonances(rp, max_degree)
    assert [rec.idx for rec in recs] == brute_force_resonances(rp.r_list, max_degree)
    for rec in recs:
        assert rec.eigenvalue == 0 and rec.klass == block_class(rec.idx, rp.layout)


@pytest.mark.parametrize("r_second", [(Fraction(1, 4),), (Fraction(1, 3),),
                                      (Fraction(1, 4), Fraction(1, 3)),
                                      (Fraction(1, 5), Fraction(2, 5)),
                                      (Fraction(1, 3) + Fraction(1, 10**400),)],
                         ids=["1/4", "1/3", "1/4,1/3", "1/5,2/5", "1/3+1e-400"])
def test_exact_second_index_set_matches_fraction_oracle(r_second):
    # 1/3 + 1e-400 has a denominator no float can hold: the bounds stay in ints
    rp = radial_point_from_spectrum(Fraction(1), (Fraction(-1),) + r_second)
    sec = [rp.r_list[j] for j in rp.layout.ysecond_indices]
    assert second_index_set(rp) == brute_force_second_index_set(sec)


def test_exact_second_index_set_planted_boundaries():
    rp = radial_point_from_spectrum(Fraction(1), (Fraction(1, 4),))
    j2 = second_index_set(rp)
    assert ((4,), (0,)) not in j2 and ((8,), (0,)) not in j2    # 1 and 2
    assert ((1,), (1,)) not in j2 and ((0,), (1,)) not in j2    # 1 and 3/4
    assert ((5,), (0,)) in j2 and ((7,), (0,)) in j2            # 5/4 and 7/4
    rp3 = radial_point_from_spectrum(Fraction(1), (Fraction(1, 3),))
    j3 = second_index_set(rp3)
    assert ((3,), (0,)) not in j3 and ((6,), (0,)) not in j3 and ((0,), (3,)) not in j3
    assert ((4,), (0,)) in j3 and ((1,), (2,)) in j3           # 4/3 and 5/3


@settings(max_examples=30, deadline=None)
@given(exact_spectra())
def test_exact_second_index_set_matches_fraction_oracle_on_random_spectra(rp):
    sec = [rp.r_list[j] for j in rp.layout.ysecond_indices]
    assert second_index_set(rp) == brute_force_second_index_set(sec)


def refuse_to_enumerate(*args):
    raise AssertionError("a scan over its ceiling enumerated")


def test_resonance_enumeration_over_its_ceiling_raises_before_scanning(monkeypatch):
    rp = radial_point_from_spectrum(Fraction(1), (Fraction(-1, 2), Fraction(1, 4), Fraction(1, 3)))
    count = len(list(iter_monomials(3, 8, 3)))
    assert count == symalg.monomial_count(3, 3, 8) == 4137
    with unittest.mock.patch.object(resonance, "MAX_RESONANCE_MONOMIALS", count):
        want = enumerate_resonances(rp, 8)
    monkeypatch.setattr(resonance, "iter_monomials", refuse_to_enumerate)
    with unittest.mock.patch.object(resonance, "MAX_RESONANCE_MONOMIALS", count - 1), \
            pytest.raises(resonance.ScanBudgetError, match=f"needs {count} monomials"):
        enumerate_resonances(rp, 8)
    assert want
    # 1,479,423 monomials of degree 3..24, about 2 s of scanning
    with pytest.raises(resonance.ScanBudgetError,
                       match=r"^resonance enumeration to degree 24 needs 1479423 monomials, "
                             r"over MAX_RESONANCE_MONOMIALS = 1000000$"):
        enumerate_resonances(rp, 24)


@pytest.mark.parametrize("r_second", [(Fraction(1, 5), Fraction(2, 7)), (0.05, 0.3, 0.45)])
def test_second_index_set_over_its_ceiling_raises_before_enumerating(monkeypatch, r_second):
    rp = radial_point_from_spectrum(Fraction(1), r_second)
    with unittest.mock.patch.object(resonance, "MAX_SECOND_INDEX_CANDIDATES", 0), \
            pytest.raises(resonance.ScanBudgetError) as exc:
        second_index_set(rp)
    count = int(str(exc.value).split()[2])
    with unittest.mock.patch.object(resonance, "MAX_SECOND_INDEX_CANDIDATES", count):
        assert 0 < len(second_index_set(rp)) <= count
    monkeypatch.setattr(resonance, "compositions", refuse_to_enumerate)
    with unittest.mock.patch.object(resonance, "MAX_SECOND_INDEX_CANDIDATES", count - 1), \
            pytest.raises(resonance.ScanBudgetError,
                          match=f"^J'' needs {count} candidates, over "
                                f"MAX_SECOND_INDEX_CANDIDATES = {count - 1}$"):
        second_index_set(rp)


def test_exact_points_decide_resonance_on_integer_weights(monkeypatch):
    # the Fraction evaluator of R / lam is not reached on an exact point:
    # every floating caller reaches it through symalg, where it is patched
    def refuse(*args):
        raise AssertionError("normalized_eigenvalue called on an exact point")

    rp = radial_point_from_spectrum(Fraction(1), (Fraction(-1, 2), Fraction(1, 4), Fraction(1, 3)))
    want = brute_force_resonances(rp.r_list, 6)
    monkeypatch.setattr(symalg, "normalized_eigenvalue", refuse)
    assert [rec.idx for rec in enumerate_resonances(rp, 6)] == want
    assert near_resonances(rp, 6) == []
    assert second_index_set(rp)
    assert all(is_resonant(idx, rp) for idx in want)
    model = rp.model_quadratic()
    assert model.eigenvalue(K(0, (1, 1, 1), (0, 0, 0))) == Fraction(-11, 12)
    y = [WeightedPolynomial.y(rp.layout, j) for j in range(3)]
    e = y[2] * y[2] * y[2] + y[0] * y[1] * y[2]
    sol = solve_homological(model, e)
    assert sol.residual == y[2] * y[2] * y[2]                       # r = 1/3: R = 0
    assert sol.b == (y[0] * y[1] * y[2]).scale(Fraction(-12, 11))   # R / lam = -11/12
    reduce_to_normal_form(model.p0() + e, rp, 3)


# -- floating points: the weights against the float oracle --------------------------


THIRD = 1 / 3
# offsets of r from 1/3, where y''^3 has R / lam = 3 eps: +-1e-13 and +-5e-12
# straddle tol = 1e-12 and 1e-10; 3.2e-12 (3 eps = 9.6e-12) and -1e-10 fall in the
# near band (tol, 10 tol] at tol = 1e-12 and 1e-10, the first just below its top
PLANTED_EPS = [1e-13, -1e-13, 5e-12, -5e-12, 3.2e-12, -1e-10]


def rational_r_irrational_nu():
    """A floating point whose r_j stay Fractions: r = (-1, 1/4), nu = sqrt 2."""
    return linearization_spectrum(CriticalPointSpec("z", 0, (Fraction(3, 4), Fraction(-8))),
                                  2, +1)


def assert_floating_resonance_matches_oracle(rp, max_degree, tol):
    r_list = rp.r_list
    assert rp.mode == rp.model_quadratic().mode == rp.weights.mode == FLOATING
    recs = enumerate_resonances(rp, max_degree, tol)
    assert [rec.idx for rec in recs] == float_resonances(r_list, max_degree, tol)
    for rec in recs:
        assert rec.eigenvalue == rp.lam * normalized_eigenvalue(rec.idx, r_list)
    keys = list(iter_monomials(rp.n - 1, max_degree))
    for idx in keys:
        assert is_resonant(idx, rp, tol) == (weighted_degree(idx) >= 3
                                             and float_resonant(idx, r_list, tol))
    assert near_resonances(rp, max_degree, tol) == [
        idx for idx in iter_monomials(rp.n - 1, max_degree, min_weighted_degree=3)
        if float_resonant(idx, r_list, 10 * tol) and not float_resonant(idx, r_list, tol)]
    # the homological residual is the resonant part of e at tol
    top = [idx for idx in keys if weighted_degree(idx) == max_degree]
    e = WeightedPolynomial(rp.layout, FLOATING, {idx: 1.0 for idx in top})
    sol = solve_homological(rp.model_quadratic(), e, tol)
    assert sorted(key for key, _ in sol.residual.items()) == \
        sorted(idx for idx in top if float_resonant(idx, r_list, tol))


@pytest.mark.parametrize("tol", [1e-12, 1e-10])
@pytest.mark.parametrize("eps", PLANTED_EPS)
def test_planted_near_third_matches_float_oracle(eps, tol):
    rp = radial_point_from_spectrum(-2.0, (-1.0, THIRD + eps))
    assert_floating_resonance_matches_oracle(rp, 6, tol)
    # y''^3 sits at R / lam = 3 eps
    cube = K(0, (0, 3), (0, 0))
    assert is_resonant(cube, rp, tol) == (3 * abs(eps) <= tol)
    assert (cube in near_resonances(rp, 6, tol)) == (tol < 3 * abs(eps) <= 10 * tol)


@pytest.mark.parametrize("tol", [1e-12, 1e-10])
def test_rational_r_irrational_nu_matches_float_oracle(tol):
    rp = rational_r_irrational_nu()
    assert rp.r_list == (Fraction(-1), Fraction(1, 4)) and isinstance(rp.lam, float)
    assert_floating_resonance_matches_oracle(rp, 6, tol)


@st.composite
def float_spectra(draw):
    """A floating real-block point with 1-3 ratios: a planted 1/3 + eps, a
    resonance-prone float (-1, -1/2, 1/4, 1/5) or a random one, away from
    r = 0 and r = 1/2."""
    pool = st.one_of(st.sampled_from([THIRD + eps for eps in PLANTED_EPS]
                                     + [-1.0, -0.5, 0.25, 0.2]),
                     st.floats(-3.0, -0.05), st.floats(0.05, 0.45))
    r_list = draw(st.lists(pool, min_size=1, max_size=3))
    lam = draw(st.sampled_from([-2.0, 1.0, 0.75, -math.sqrt(2)]))
    return radial_point_from_spectrum(lam, r_list)


@settings(max_examples=30, deadline=None)
@given(float_spectra(), st.sampled_from([1e-12, 1e-10]), st.integers(3, 6))
def test_floating_resonance_matches_float_oracle_on_random_spectra(rp, tol, max_degree):
    assert_floating_resonance_matches_oracle(rp, max_degree, tol)
