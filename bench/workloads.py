"""Seeded job lists for the four workloads.

Each workload is a fixed list of job *shapes*.  The shape fixes what sets
the cost of a job (block structure, eigenvalue ratios, monomial support,
Fourier modes, quadrature problem); the seed draws the values inside it
(coefficients, critical values, energy scales, rotations).  So every seed
poses a job list of the same size, and the spread between seeds measures
the machine and the program rather than the luck of the draw.

A job carries the config the program sees and the planted data its
checker needs; the program never sees the planted data.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction as Q


@dataclass
class Job:
    name: str
    command: str            # radialscope subcommand
    config: dict
    formats: str = "json"
    expect: dict = field(default_factory=dict)


def rat(x) -> str:
    x = Q(x)
    return f"{x.numerator}/{x.denominator}"


def compositions(length: int, total: int):
    """All tuples of `length` nonnegative ints summing to `total`."""
    if length == 0:
        if total == 0:
            yield ()
        return
    for head in range(total + 1):
        for tail in compositions(length - 1, total - head):
            yield (head,) + tail


def monomials(nvars: int, wdeg: int):
    """All (a, alpha, beta) of weighted degree 2a + |alpha| + |beta| = wdeg."""
    out = []
    for a in range(wdeg // 2 + 1):
        for ex in compositions(2 * nvars, wdeg - 2 * a):
            out.append((a, ex[:nvars], ex[nvars:]))
    return out


def normalized_eigenvalue(key, rs) -> Q:
    """a - 1 + sum alpha_j r_j + sum beta_j (1 - r_j), exact."""
    a, alpha, beta = key
    return a - 1 + sum(x * r for x, r in zip(alpha, rs)) + sum(x * (1 - r) for x, r in zip(beta, rs))


# -- nf-exact ---------------------------------------------------------------------------
#
# (eigenvalue ratios r_j ascending, nu, maxDegree, nonresonant terms per grade).
# y' blocks have r < 0, y'' blocks 0 < r < 1/2; nu is rational so lambda = -2 nu is.

NF_SHAPES = [
    ((Q(1, 3),), Q(1), 6, 2),
    ((Q(1, 4),), Q(1, 2), 6, 2),
    ((Q(-1, 2),), Q(1), 6, 2),
    ((Q(1, 5),), Q(2), 6, 2),
    ((Q(-1, 3),), Q(3, 2), 6, 2),
    ((Q(2, 5),), Q(1), 6, 2),
    ((Q(-1, 2), Q(1, 3)), Q(1), 5, 1),
    ((Q(1, 4), Q(1, 3)), Q(1), 5, 1),
    ((Q(-1), Q(1, 4)), Q(3, 2), 5, 1),
    ((Q(1, 5), Q(2, 5)), Q(1), 4, 2),
]


def nf_support(index: int, rs, max_grade: int, per_grade: int) -> list:
    """The fixed monomial support of shape `index` with a denominator per
    term: per grade, `per_grade` nonresonant monomials plus one resonant
    monomial where one exists."""
    srng = random.Random(f"nf-exact/shape{index}")
    support = []
    for g in range(1, max_grade + 1):
        ms = monomials(len(rs), g + 2)
        res = [m for m in ms if normalized_eigenvalue(m, rs) == 0]
        non = [m for m in ms if normalized_eigenvalue(m, rs) != 0]
        support += srng.sample(non, min(per_grade, len(non)))
        if res:
            support.append(srng.choice(res))
    return [(key, srng.randint(1, 6)) for key in support]


def make_nf_exact(seed: int) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for i, (rs, nu, max_grade, per_grade) in enumerate(NF_SHAPES):
        n = len(rs) + 1
        s = 1 + sum(1 for r in rs if r < 0)
        w = nu * nu
        v0 = Q(rng.randint(-20, 20), rng.randint(1, 9))
        hess = [2 * w * r * (1 - r) for r in rs]
        coeffs = {key: Q(rng.choice((-1, 1)) * rng.randint(1, 9), den)
                  for key, den in nf_support(i, rs, max_grade, per_grade)}
        terms = [{"a": a, "alpha": list(al), "beta": list(be), "re": rat(c), "im": "0/1"}
                 for (a, al, be), c in coeffs.items()]
        config = {
            "mode": "abstract",
            "criticalPoints": [{"label": "z", "value": rat(v0),
                                "hessian": [rat(h) for h in hess]}],
            "energy": rat(v0 + w),
            "options": {"maxDegree": max_grade,
                        "perturbation": {"mode": "exact", "n": n, "blocks": [s, n],
                                         "terms": terms}},
        }
        jobs.append(Job(f"nf{i:02d}", "expansion", config,
                        expect={"r": rs, "lam": -2 * nu, "maxDegree": max_grade,
                                "perturbation": coeffs}))
    return jobs


# -- energy-scan ------------------------------------------------------------------------
#
# (ratios r_j planted at sigma* = V0 + w*, interval [lo, hi] in units of w*).
# Every shape's interval holds sigma*, at least one Hessian threshold
# V0 + 2h (except the all-saddle shape) and closed-form roots, all well
# inside.  A seeded scale s maps (w, h) -> (s w, s h), which leaves every
# r_j(sigma) profile and hence the scan's work unchanged.

ES_SHAPES = [
    ((Q(1, 3),), Q(4, 5), Q(31, 20)),
    ((Q(1, 4),), Q(7, 10), Q(29, 20)),
    ((Q(-1, 2), Q(1, 3)), Q(17, 20), Q(13, 10)),
    ((Q(-1), Q(-1, 2), Q(1, 4)), Q(7, 10), Q(6, 5)),
    ((Q(1, 6), Q(1, 3)), Q(3, 5), Q(11, 10)),
    ((Q(-2), Q(-1), Q(1, 3)), Q(17, 20), Q(5, 4)),
]


def make_energy_scan(seed: int) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for i, (rs, lo_rel, hi_rel) in enumerate(ES_SHAPES):
        v0 = Q(rng.randint(-30, 30), rng.randint(1, 9))
        scale = Q(rng.randint(4, 12), 8)
        hess = [2 * scale * r * (1 - r) for r in rs]
        perm = list(range(len(hess)))
        rng.shuffle(perm)
        hess = [hess[p] for p in perm]
        config = {
            "mode": "abstract",
            "criticalPoints": [{"label": "z", "value": rat(v0),
                                "hessian": [rat(h) for h in hess]}],
            "energy": [float(v0 + scale * lo_rel), float(v0 + scale * hi_rel)],
        }
        jobs.append(Job(f"es{i:02d}", "scan-energies", config,
                        expect={"v0": v0, "hessian": hess, "sigmaStar": v0 + scale,
                                "interval": (v0 + scale * lo_rel, v0 + scale * hi_rel)}))
    return jobs


# -- circle-analyze ---------------------------------------------------------------------
#
# (dominant mode k, small harmonics).  V0 = cos k(theta - phi) + harmonics of
# amplitude <= 0.04, which keeps exactly 2k Morse critical points.

CA_SHAPES = [(2, (1, 3)), (3, (1, 2)), (4, (1, 3)), (2, (3, 5)), (3, (2, 4)), (4, (2, 5))]

CA_PERTURBATION_SUPPORT = [(0, (3,), (0,)), (0, (2,), (1,)), (1, (1,), (0,)),
                           (0, (4,), (0,)), (1, (0,), (2,)), (0, (1,), (3,))]


def trig_value(rows, theta: float) -> float:
    return sum(a * math.cos(k * theta) + b * math.sin(k * theta) for k, a, b in rows)


def make_circle_analyze(seed: int) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for i, (k, harmonics) in enumerate(CA_SHAPES):
        phi = rng.uniform(0.0, 2.0 * math.pi)
        rows = [[k, math.cos(k * phi), math.sin(k * phi)]]
        rows += [[j, rng.uniform(-0.04, 0.04), rng.uniform(-0.04, 0.04)] for j in harmonics]
        vmax = max(trig_value(rows, 2.0 * math.pi * t / 20000) for t in range(20000))
        sigma = round(vmax + rng.uniform(0.6, 1.4), 6)
        terms = [{"a": a, "alpha": list(al), "beta": list(be),
                  "re": round(rng.uniform(-0.5, 0.5), 6), "im": 0.0}
                 for a, al, be in CA_PERTURBATION_SUPPORT]
        config = {
            "mode": "explicit",
            "potential": {"n": 2, "v0": rows},
            "energy": sigma,
            "options": {"maxDegree": 5,
                        "perturbation": {"mode": "floating", "n": 2, "blocks": [1, 2],
                                         "terms": terms}},
        }
        jobs.append(Job(f"ca{i:02d}", "analyze", config, formats="json,csv",
                        expect={"rows": rows, "sigma": sigma}))
    return jobs


# -- stationary-phase -------------------------------------------------------------------
#
# (tau, width, x list) of a base problem with V0(z) = 0.  The seed draws
# V0(z) and a scale s; sigma = V0 + s u maps the base integral to one with
# tau / sqrt(s), width * s and x * sqrt(s), the same quadrature work.  The
# x list keeps x >= 1e-4 (Gauss-Kronrod) and 1e-5 <= x < 1e-4 (Filon) on
# their sides for every s in [0.8, 1.25].  The amplitude support
# center +- 3 width stays above V0(z).

SP_XLIST = (1e-2, 3e-3, 1e-3, 4e-4, 2e-4, 5e-5, 3e-5)
SP_SHAPES = [(0.5, 0.3), (0.45, 0.25), (0.55, 0.2)]


def make_stationary_phase(seed: int) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for i, (tau0, width0) in enumerate(SP_SHAPES):
        v0z = round(rng.uniform(-1.0, 1.0), 6)
        scale = rng.uniform(0.8, 1.25)
        root = math.sqrt(scale)
        tau = tau0 / root
        sp = {"v0z": v0z, "tau": tau, "width": width0 * scale, "cut": 3.0,
              "xList": [x * root for x in SP_XLIST]}
        config = {
            "mode": "abstract",
            "criticalPoints": [{"label": "z", "value": v0z, "hessian": [1.0]}],
            "options": {"stationaryPhase": sp},
        }
        jobs.append(Job(f"sp{i:02d}", "stationary-phase", config, expect=dict(sp)))
    return jobs


WORKLOADS = {
    "nf-exact": make_nf_exact,
    "energy-scan": make_energy_scan,
    "circle-analyze": make_circle_analyze,
    "stationary-phase": make_stationary_phase,
}
