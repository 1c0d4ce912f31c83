"""Output checkers, written apart from radialscope.

Every checker recomputes what it compares against from the planted job
data and the paper's formulas, with its own arithmetic: nothing here
imports radialscope.  A checker raises CheckError with a one-line reason.
"""

from __future__ import annotations

import cmath
import math
import os
from fractions import Fraction as Q

from workloads import Job, compositions, normalized_eigenvalue, trig_value


class CheckError(AssertionError):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# -- exact weighted polynomials as {(a, alpha, beta): Fraction} ------------------------


def grade(key) -> int:
    a, alpha, beta = key
    return 2 * a + sum(alpha) + sum(beta) - 2


def parse_exact(poly: dict) -> dict:
    """The program's exact polynomial JSON as a dict of Fractions (real only)."""
    require(poly["mode"] == "exact", "expected an exact polynomial")
    out = {}
    for t in poly["terms"]:
        require(Q(t["im"]) == 0, "real-block exact data produced an imaginary coefficient")
        c = Q(t["re"])
        require(c != 0, "stored zero coefficient")
        out[(t["a"], tuple(t["alpha"]), tuple(t["beta"]))] = c
    return out


def add_into(out: dict, key, c) -> None:
    c = out.get(key, 0) + c
    if c:
        out[key] = c
    else:
        out.pop(key, None)


def poly_sum(*polys, signs=None) -> dict:
    out: dict = {}
    for poly, sign in zip(polys, signs or [1] * len(polys)):
        for key, c in poly.items():
            add_into(out, key, sign * c)
    return out


def truncate(p: dict, max_grade: int) -> dict:
    return {k: c for k, c in p.items() if grade(k) <= max_grade}


def model_p0(rs, lam) -> dict:
    """p0 = lam (-nu + sum r_j y_j mu_j)."""
    nv = len(rs)
    zero = (0,) * nv
    p0 = {(1, zero, zero): -lam}
    for j, r in enumerate(rs):
        e = tuple(1 if i == j else 0 for i in range(nv))
        p0[(0, e, e)] = lam * r
    return p0


def bracket(p: dict, q: dict, max_grade: int) -> dict:
    """{{p, q}} monomial by monomial, dropping grades above max_grade.

    For A = nu^a1 y^al1 mu^be1 and B = nu^a2 y^al2 mu^be2 the rescaled
    bracket W_A(B) + (d_nu A) B is
      (a1 (1 - |be2|) + a2 (|be1| - 1)) nu^(a1+a2-1) y^(al1+al2) mu^(be1+be2)
      + sum_j (be1_j al2_j - al1_j be2_j) nu^(a1+a2) y^(al1+al2-e_j) mu^(be1+be2-e_j).
    """
    out: dict = {}
    qs = [(k, c, grade(k), sum(k[2])) for k, c in q.items()]
    for (a1, al1, be1), c1 in p.items():
        g1 = 2 * a1 + sum(al1) + sum(be1) - 2
        nb1 = sum(be1)
        for (a2, al2, be2), c2, g2, nb2 in qs:
            if g1 + g2 > max_grade:
                continue
            c = c1 * c2
            al = tuple(x + y for x, y in zip(al1, al2))
            be = tuple(x + y for x, y in zip(be1, be2))
            k = a1 * (1 - nb2) + a2 * (nb1 - 1)
            if k:
                add_into(out, (a1 + a2 - 1, al, be), c * k)
            for j in range(len(al)):
                m = be1[j] * al2[j] - al1[j] * be2[j]
                if m:
                    alj = al[:j] + (al[j] - 1,) + al[j + 1:]
                    bej = be[:j] + (be[j] - 1,) + be[j + 1:]
                    add_into(out, (a1 + a2, alj, bej), c * m)
    return out


def exp_ad(b: dict, p: dict, max_grade: int) -> dict:
    """sum_k ad_b^k(p) / k! with ad_b(q) = {{q, b}}, truncated at max_grade."""
    result = truncate(p, max_grade)
    term = dict(result)
    k = 0
    while term:
        k += 1
        term = {key: c / k for key, c in bracket(term, b, max_grade).items()}
        result = poly_sum(result, term)
    return result


def classify(key, rs) -> str:
    """effR1 (I'), effR2 (I'') or effNonres for a resonant index, by the
    block definitions: y' has r < 0, y'' has 0 < r < 1/2."""
    a, alpha, beta = key
    yp = [j for j, r in enumerate(rs) if r < 0]
    ys = [j for j, r in enumerate(rs) if r > 0]
    if a == 0:
        if not any(alpha[j] or beta[j] for j in ys) and sum(beta[j] for j in yp) == 1:
            return "effR1"
        if not any(alpha[j] or beta[j] for j in yp):
            return "effR2"
    return "effNonres"


def check_nf_exact(job: Job, report: dict, outdir: str) -> None:
    exp = job.expect
    rs, lam, max_grade = exp["r"], exp["lam"], exp["maxDegree"]
    entries = list(report["perEnergy"].values())
    require(len(entries) == 1 and set(entries[0]) == {"z"}, "one critical point expected")
    point = entries[0]["z"]
    radial = point["radial"]
    require([x["re"] for x in radial["rList"]] == [float(r) for r in rs], "rList differs from the planted ratios")
    require(radial["lambda"] == float(lam), "lambda differs from -2 nu")

    nf = point["normalForm"]
    require(nf["residualGrade"] == max_grade, "residual grade differs from maxDegree")
    p0 = model_p0(rs, lam)
    p_norm = parse_exact(nf["pNorm"])
    require(truncate(p_norm, 0) == p0, "grade <= 0 part of pNorm is not the model quadratic")
    rest = poly_sum(p_norm, p0, signs=[1, -1])
    for key in rest:
        require(1 <= grade(key) <= max_grade, f"pNorm term {key} outside grades 1..{max_grade}")
        require(lam * normalized_eigenvalue(key, rs) == 0, f"nonresonant monomial {key} in pNorm")
    eff_r, eff_nr = parse_exact(nf["rEffR"]), parse_exact(nf["rEffNR"])
    require(poly_sum(eff_r, eff_nr) == rest, "rEffR + rEffNR != pNorm - p0")
    require(all(classify(k, rs) != "effNonres" for k in eff_r), "rEffR holds an effectively nonresonant term")
    require(all(classify(k, rs) == "effNonres" for k in eff_nr), "rEffNR holds an effectively resonant term")

    brute = set()
    for wdeg in range(3, max_grade + 1):
        for a in range(wdeg // 2 + 1):
            for ex in compositions(2 * len(rs), wdeg - 2 * a):
                key = (a, ex[:len(rs)], ex[len(rs):])
                if normalized_eigenvalue(key, rs) == 0:
                    brute.add((key, classify(key, rs)))
    records = point["resonance"]["records"]
    got = {((r["a"], tuple(r["alpha"]), tuple(r["beta"])), r["class"]) for r in records}
    require(len(got) == len(records), "duplicate resonance records")
    require(got == brute, f"resonance records differ from brute force: {sorted(got ^ brute)[:3]}")
    require(all(r["eigenvalue"] == {"re": 0.0, "im": 0.0} for r in records), "resonant eigenvalue not zero")
    require("expansion" in point, "expansion stage missing")

    gens = [parse_exact(g) for g in nf["generators"]]
    require(len(gens) == max_grade, "one generator per grade expected")
    current = truncate(poly_sum(p0, exp["perturbation"]), max_grade)
    for b in gens:
        if b:
            current = exp_ad(b, current, max_grade)
    require(current == p_norm, "pushing the input through the generators does not give pNorm")


# -- energy-scan ----------------------------------------------------------------------


def exact_sqrt(x: Q) -> Q:
    num, den = math.isqrt(x.numerator), math.isqrt(x.denominator)
    require(num * num == x.numerator and den * den == x.denominator, f"planted ratio not rational: sqrt({x})")
    return Q(num, den)


def scan_expectations(exp: dict):
    """Thresholds and roots derived in closed form from the planted data.

    Positions index the Hessian sorted ascending, as witnesses do.
    Returns (thresholds {(sigma, hessianIndex)}, roots [(sigma, alpha, beta)]).
    """
    v0, hess, (lo, hi) = exp["v0"], exp["hessian"], exp["interval"]
    hs = sorted(hess)
    nv = len(hs)
    thresholds = {(v0 + 2 * h, j) for j, h in enumerate(hess) if h > 0 and lo <= v0 + 2 * h <= hi}
    roots = []

    def unit(p, k=1):
        return tuple(k if i == p else 0 for i in range(nv))

    zero = (0,) * nv
    for p, h in enumerate(hs):
        if h <= 0:
            continue
        alpha_n = 3
        while True:   # alpha_n r_p(sigma) = 1  <=>  w = (h/2) n^2 / (n - 1)
            sigma = v0 + (h / 2) * alpha_n * alpha_n / (alpha_n - 1)
            if sigma > hi:
                break
            if sigma >= lo:
                roots.append((sigma, unit(p, alpha_n), zero))
            alpha_n += 1

    # every family exactly zero at sigma*, where the planted r_j are rational
    star = exp["sigmaStar"]
    w = star - v0
    r = [Q(1, 2) - exact_sqrt(Q(1, 4) - (h / 2) / w) for h in hs]
    yp = [p for p, h in enumerate(hs) if h < 0]
    ys = [p for p, h in enumerate(hs) if h > 0]

    def embed(positions, values):
        out = [0] * nv
        for p, v in zip(positions, values):
            out[p] = v
        return tuple(out)

    if ys:
        bound = int(1 / min(r[p] for p in ys))
        for bv in [(0,) * len(ys)] + [tuple(1 if k == i else 0 for k in range(len(ys)))
                                      for i in range(len(ys))]:
            for total in range(max(0, 3 - sum(bv)), bound + 1):
                for av in compositions(len(ys), total):
                    val = sum(x * r[p] for x, p in zip(av, ys)) + sum(x * (1 - r[p]) for x, p in zip(bv, ys))
                    if val == 1:
                        roots.append((star, embed(ys, av), embed(ys, bv)))
    for k in yp:
        bound = int(abs(r[k]) / min(abs(r[p]) for p in yp))
        for total in range(2, bound + 1):
            for av in compositions(len(yp), total):
                if sum(x * r[p] for x, p in zip(av, yp)) == r[k]:
                    roots.append((star, embed(yp, av), unit(k)))
    return thresholds, sorted(set(roots))


def check_energy_scan(job: Job, report: dict, outdir: str) -> None:
    exp = job.expect
    v0, hess = exp["v0"], exp["hessian"]
    lo, hi = (float(x) for x in exp["interval"])
    hs = sorted(float(h) for h in hess)
    scan = report["global"]["energyScan"]["z"]
    reported = scan["roots"]
    thresholds, roots = scan_expectations(exp)
    require(len(roots) >= 2, "shape plants fewer than two closed-form roots")

    got_thr = [(x["sigma"], x["witness"]["hessianIndex"]) for x in reported if x["kind"] == "threshold"]
    require(len(got_thr) == len(thresholds), f"{len(got_thr)} thresholds reported, {len(thresholds)} expected")
    for sigma, j in thresholds:
        require(any(gj == j and abs(gs - float(sigma)) <= 1e-8 for gs, gj in got_thr),
                f"threshold {float(sigma)} (Hessian {j}) not reported")

    effres = [x for x in reported if x["kind"] == "effres"]
    for sigma, alpha, beta in roots:
        require(any(abs(x["sigma"] - float(sigma)) <= 1e-8
                    and tuple(x["witness"]["alpha"]) == alpha and tuple(x["witness"]["beta"]) == beta
                    and x["witness"]["a"] == 0 for x in effres),
                f"closed-form root {float(sigma)} with witness {alpha}/{beta} not reported")

    for x in effres:
        sigma = x["sigma"]
        require(lo <= sigma <= hi, f"root {sigma} outside the interval")
        wit = x["witness"]
        require(wit["a"] == 0, "effectively resonant witness with a != 0")
        wv = sigma - float(v0)
        rr = [0.5 - math.sqrt(max(0.25 - (h / 2.0) / wv, 0.0)) for h in hs]
        resid = -1.0 + sum(a * rj for a, rj in zip(wit["alpha"], rr)) \
            + sum(b * (1.0 - rj) for b, rj in zip(wit["beta"], rr))
        require(abs(resid) <= 1e-8, f"root {sigma} has residual {resid:.2e}")


# -- circle-analyze -------------------------------------------------------------------


def trig_prime(rows, theta: float) -> float:
    return sum(-a * k * math.sin(k * theta) + b * k * math.cos(k * theta) for k, a, b in rows)


def trig_second(rows, theta: float) -> float:
    return sum(-a * k * k * math.cos(k * theta) - b * k * k * math.sin(k * theta) for k, a, b in rows)


def circle_critical_points(rows, grid: int = 8192) -> list[float]:
    """Zeros of V0' on [0, 2 pi): grid sign changes refined by bisection."""
    two_pi = 2.0 * math.pi
    ts = [two_pi * i / grid for i in range(grid + 1)]
    vals = [trig_prime(rows, t) for t in ts]
    out = []
    for i in range(grid):
        a, b, fa = ts[i], ts[i + 1], vals[i]
        if fa * vals[i + 1] > 0:
            continue
        for _ in range(80):
            mid = 0.5 * (a + b)
            fm = trig_prime(rows, mid)
            if fa * fm <= 0:
                b = mid
            else:
                a, fa = mid, fm
        out.append(0.5 * (a + b) % two_pi)
    return sorted(out)


def circle_dist(a: float, b: float) -> float:
    d = abs(a - b) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


def check_circle_analyze(job: Job, report: dict, outdir: str) -> None:
    rows, sigma = job.expect["rows"], job.expect["sigma"]
    crit = circle_critical_points(rows)
    require(len(crit) >= 4 and len(crit) % 2 == 0, f"own root count {len(crit)} is not a Morse circle count")
    is_max = [trig_second(rows, t) < 0 for t in crit]
    dag = report["global"]["dag"]
    nodes = {n["id"]: n for n in dag["nodes"]}
    require(len(nodes) == 2 * len(crit), f"{len(nodes)} radial points located, {2 * len(crit)} expected")
    where = {}
    for nid, n in nodes.items():
        matches = [i for i, t in enumerate(crit) if circle_dist(t, n["theta"]) <= 1e-7]
        require(len(matches) == 1, f"{nid} at theta {n['theta']} matches no own critical point")
        i = matches[0]
        nu = n["sign"] * math.sqrt(sigma - trig_value(rows, crit[i]))
        require(abs(n["nu"] - nu) <= 1e-9, f"{nid}: nu {n['nu']} != {nu}")
        require((n["class"] == "saddle") == is_max[i], f"{nid}: class {n['class']} disagrees with V0''")
        where[nid] = i
    require(sorted(where.values()) == sorted(list(range(len(crit))) * 2), "critical points not covered twice")

    require(not dag["undecided"], f"{len(dag['undecided'])} undecided trajectories")
    require(dag["edges"], "no heteroclinic edges")
    m = len(crit)
    for e in dag["edges"]:
        i, j = where[e["from"]], where[e["to"]]
        require(is_max[i] and nodes[e["from"]]["outgoing"], f"edge {e['from']} does not start at an outgoing maximum")
        require(not is_max[j], f"edge {e['from']} -> {e['to']} does not end at a minimum")
        require(j in ((i - 1) % m, (i + 1) % m), f"edge {e['from']} -> {e['to']} skips a critical point")
        require(e["pDrift"] <= 1e-9, f"edge {e['from']} -> {e['to']} drifts {e['pDrift']:.1e} off the shell")

    morse = report["global"]["morse"]
    require(morse["verified"] and not morse["issues"], "Morse sequence not verified")
    order = morse["order"]
    require(sorted(order) == sorted(k for k, n in nodes.items() if n["outgoing"]), "Morse order is not the outgoing set")
    for p, q in zip(order, order[1:]):
        dnu = nodes[p]["nu"] - nodes[q]["nu"]
        require(dnu >= -1e-9, f"Morse order raises nu from {p} to {q}")
        if abs(dnu) <= 1e-9:
            require(not (not is_max[where[p]] and is_max[where[q]]), f"minimum {p} before maximum {q} on a tie")

    csvs = sorted(f for f in os.listdir(outdir) if f.startswith("trajectory_"))
    require(len(csvs) == len(dag["edges"]), "one trajectory CSV per edge expected")
    for name in csvs:
        with open(os.path.join(outdir, name), encoding="utf-8") as fh:
            head = fh.readline().strip()
            require(head == "t,chart,y1,nu,mu1,p" and fh.readline(), f"{name} is empty or malformed")


# -- stationary-phase -----------------------------------------------------------------

LIMIT = cmath.exp(-0.75j * math.pi) / (2.0 * math.sqrt(math.pi))


def check_stationary_phase(job: Job, report: dict, outdir: str) -> None:
    sp = job.expect
    tau, v0z = sp["tau"], sp["v0z"]
    res = report["global"]["stationaryPhase"]
    xs = sorted(sp["xList"], reverse=True)
    rows = res["rows"]
    require([r["x"] for r in rows] == xs, "rows do not follow the requested x list")
    sigma_c = v0z + 1.0 / (4.0 * tau * tau)
    psi = -tau * sigma_c + math.sqrt(sigma_c - v0z)
    prefactors = []
    for r in rows:
        x = r["x"]
        pref = complex(r["re"], r["im"]) / (math.sqrt(x) * tau ** -1.5 * cmath.exp(1j * psi / x))
        require(abs(abs(pref) - r["prefactorMod"]) <= 1e-9 * abs(pref), f"x={x}: prefactor modulus disagrees")
        require(abs(cmath.phase(pref) - r["prefactorPhase"]) <= 1e-7, f"x={x}: prefactor phase disagrees")
        if x <= 1.2e-3:
            require(abs(abs(pref) - abs(LIMIT)) <= 0.05 * abs(LIMIT), f"x={x}: |prefactor| {abs(pref):.4f} off the limit")
            require(abs(cmath.phase(pref) - cmath.phase(LIMIT)) <= 0.05, f"x={x}: prefactor phase off the limit")
        prefactors.append((x, abs(pref - LIMIT)))
    lx = [math.log(x) for x, _ in prefactors]
    ld = [math.log(d) for _, d in prefactors]
    mx, md = sum(lx) / len(lx), sum(ld) / len(ld)
    slope = sum((a - mx) * (b - md) for a, b in zip(lx, ld)) / sum((a - mx) ** 2 for a in lx)
    require(0.8 <= slope <= 1.2, f"fitted rate exponent {slope:.3f} outside [0.8, 1.2]")
    require(abs(slope - res["convergenceExponent"]) <= 1e-6, "reported rate exponent differs from the fit")
    require(abs(res["peakSigma"] - sigma_c) <= 1e-6, f"peak {res['peakSigma']} != V0 + 1/(4 tau^2) = {sigma_c}")
    hess = -2.0 * tau ** 3 / xs[-1]
    require(abs(res["hessianMeasured"] - hess) <= 1e-6 * abs(hess), "phase Hessian differs from -2 tau^3 / x")


CHECKERS = {
    "nf-exact": check_nf_exact,
    "energy-scan": check_energy_scan,
    "circle-analyze": check_circle_analyze,
    "stationary-phase": check_stationary_phase,
}
