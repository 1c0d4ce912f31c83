"""Property tests: the sparse-polynomial kernel's ring laws, WeightedPolynomial
as a view of it, GaussianRational against a Fraction-pair reference, the
config loader's totality, the CLI's forbidden-energy
exit, and the Morse sequence's order checks against a brute-force
reachability matrix."""

import ast
import contextlib
import io
import json
import math
import operator
import os
import tempfile
from fractions import Fraction
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from radialscope.cli import main
from radialscope.cli_reports import DEFAULTS, STAGES, AnalysisConfig, ConfigError
from radialscope.dynamics import HeteroclinicDag, morse_sequence
from radialscope.multipoly import MultiPoly
from radialscope.scalars import GaussianRational
from radialscope.symalg import EXACT, FLOATING, VariableLayout, WeightedPolynomial

FEW = settings(max_examples=15, deadline=None)

NV = 3
fractions = st.fractions(min_value=-4, max_value=4, max_denominator=5)


def multipolys(nvars=NV, low=-2, high=2, size=4):
    """Sparse polynomials whose exponents lie in [low, high] (low < 0: Laurent)."""
    keys = st.tuples(*[st.integers(low, high)] * nvars)
    return st.dictionaries(keys, fractions, max_size=size).map(lambda t: MultiPoly(nvars, t))


@FEW
@given(multipolys(), multipolys(), multipolys())
def test_kernel_ring_laws(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert (p - p).is_zero() and p * MultiPoly.constant(NV, Fraction(1)) == p
    assert p ** 2 == p * p


@FEW
@given(multipolys(2, low=0, size=3), multipolys(2, low=0, size=3),
       multipolys(size=3), multipolys(size=3))
def test_kernel_compose_is_a_ring_homomorphism(p, q, f, g):
    def sub(s):
        return s.compose({0: f, 1: g}, NV)

    assert sub(p + q) == sub(p) + sub(q)
    assert sub(p * q) == sub(p) * sub(q)
    assert sub(MultiPoly.constant(2, Fraction(3))) == MultiPoly.constant(NV, Fraction(3))


LAYOUT = VariableLayout(n=3)
keys = st.tuples(*[st.integers(0, 2)] * 5)
COEFFS = {
    EXACT: st.builds(GaussianRational, fractions, fractions),
    FLOATING: st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
}


def raw_pairs(mode):
    terms = st.dictionaries(keys, COEFFS[mode], max_size=5)
    return st.tuples(st.just(mode), terms, terms, COEFFS[mode])


@FEW
@given(st.sampled_from([EXACT, FLOATING]).flatmap(raw_pairs))
def test_weighted_polynomial_arithmetic_is_the_kernels(case):
    # the same flat terms in the same order: equal bit for bit in both modes
    mode, ta, tb, s = case
    a, b = (WeightedPolynomial(LAYOUT, mode, t) for t in (ta, tb))
    ka, kb = (MultiPoly(5, t) for t in (ta, tb))
    assert dict(a.items()) == ka.terms
    assert dict((a + b).items()) == (ka + kb).terms
    assert dict((a - b).items()) == (ka - kb).terms
    assert dict((a * b).items()) == (ka * kb).terms
    assert dict(a.scale(s).items()) == ka.scale(s).terms
    assert (a == b) == (ka == kb)


# -- GaussianRational against a reference built from Fraction pairs ----------------

ring_fractions = st.fractions(min_value=-30, max_value=30, max_denominator=40)


@st.composite
def exact_scalars(draw, gaussian=None):
    """(operand, reference (re, im) Fraction pair): an int, a Fraction or a
    GaussianRational, zero often enough to reach division by zero."""
    kind = "gaussian" if gaussian else draw(st.sampled_from(["int", "fraction", "gaussian"]))
    if kind == "int":
        value = draw(st.integers(-30, 30) | st.just(0))
        return value, (Fraction(value), Fraction(0))
    re = draw(ring_fractions | st.just(Fraction(0)))
    if kind == "fraction":
        return re, (re, Fraction(0))
    im = draw(ring_fractions | st.just(Fraction(0)))
    return GaussianRational(re, im), (re, im)


def ref_op(op, x, y):
    (a, b), (c, d) = x, y
    if op is operator.add:
        return a + c, b + d
    if op is operator.sub:
        return a - c, b - d
    if op is operator.mul:
        return a * c - b * d, a * d + b * c
    norm = c * c + d * d
    return (a * c + b * d) / norm, (b * c - a * d) / norm


def assert_matches(z, ref):
    assert type(z) is GaussianRational
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert (z.re, z.im) == ref
    r, i, d = (getattr(z, slot) for slot in GaussianRational.__slots__)
    assert (type(r), type(i), type(d)) == (int, int, int)
    assert d > 0 and math.gcd(r, i, d) == 1
    assert hash(z) == hash(GaussianRational(*ref)) and bool(z) == any(ref)
    if not ref[1]:
        assert hash(z) == hash(ref[0])


@settings(max_examples=300, deadline=None)
@given(exact_scalars(gaussian=True), exact_scalars(),
       st.sampled_from([operator.add, operator.sub, operator.mul, operator.truediv]))
def test_gaussian_rational_matches_fraction_pairs(x, y, op):
    (gx, rx), (vy, ry) = x, y
    assert_matches(gx, rx)
    assert_matches(-gx, (-rx[0], -rx[1]))
    assert (gx == vy) == (vy == gx) == (rx == ry)
    for left, right, rl, rr in ((gx, vy, rx, ry), (vy, gx, ry, rx)):
        if op is operator.truediv and not any(rr):
            try:
                op(left, right)
            except ZeroDivisionError:
                continue
            raise AssertionError("division by zero did not raise ZeroDivisionError")
        assert_matches(op(left, right), ref_op(op, rl, rr))


def equal_forms(ref):
    """The GaussianRational of a Fraction pair, and its Fraction and int when real."""
    re, im = ref
    forms = [GaussianRational(re, im)]
    if not im:
        forms.append(re)
        if re.denominator == 1:
            forms.append(int(re))
    return forms


@settings(max_examples=300, deadline=None)
@given(exact_scalars(), exact_scalars())
def test_equal_exact_scalars_hash_equal(x, y):
    forms = [x[0], y[0], *equal_forms(x[1]), *equal_forms(y[1])]
    for a in forms:
        for b in forms:
            if a == b:
                assert hash(a) == hash(b) and len({a, b}) == 1, (a, b)


# -- the loader is total: any JSON value gives a config or a ConfigError -----------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10**6)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=8)

# near-valid perturbations with arbitrary JSON in some field
perturbations = st.fixed_dictionaries({
    "mode": st.sampled_from([EXACT, FLOATING]) | json_values,
    "n": st.just(2) | json_values,
    "blocks": st.just([1, 2]) | json_values,
    "terms": st.lists(st.fixed_dictionaries({
        "a": st.integers(-1, 2) | json_values,
        "alpha": st.lists(st.integers(-1, 3), max_size=2) | json_values,
        "beta": st.lists(st.integers(-1, 3), max_size=2) | json_values,
        "re": st.sampled_from(["1/2", 0.5, "0/1"]) | json_values,
        "im": st.sampled_from(["0/1", 0.0]) | json_values,
    }), max_size=2),
})

BASE = {"mode": "abstract",
        "criticalPoints": [{"label": "z", "value": 0, "hessian": [0.375]}],
        "energy": 1.0}


def loads_or_config_error(data):
    try:
        AnalysisConfig.from_dict(data)
    except ConfigError:
        pass


@FEW
@given(st.sampled_from(sorted(DEFAULTS) + ["perturbation", "oscillator", "unknown"]),
       json_values)
def test_loader_total_on_any_option_value(key, value):
    loads_or_config_error(dict(BASE, options={key: value}))


@FEW
@given(perturbations)
def test_loader_total_on_near_valid_perturbations(perturbation):
    loads_or_config_error(dict(BASE, options={"perturbation": perturbation}))


@FEW
@given(st.lists(st.sampled_from(STAGES) | json_values, max_size=3))
def test_loader_total_on_any_stage_entries(stages):
    loads_or_config_error(dict(BASE, stages=stages))


@FEW
@given(json_values | st.lists(json_values, min_size=2, max_size=2))
def test_loader_total_on_any_energy(energy):
    loads_or_config_error(dict(BASE, energy=energy))


@st.composite
def energy_cases(draw):
    """A config, a subcommand, an optional --tol, and the energies it must refuse.

    Abstract points and explicit potentials V0 = A cos k theta, whose critical
    values are +-A and whose minima have the Hessian threshold -A + 2 A k^2;
    sigma sits within tol/2 of one of them, 2 to 100 tols away, or anywhere.
    """
    tol = draw(st.sampled_from([None, 1e-6]))
    if draw(st.booleans()):
        amp, k = draw(st.sampled_from([0.5, 1.0, 2.0])), draw(st.sampled_from([1, 2]))
        config = {"mode": "explicit", "potential": {"n": 2, "v0": [[k, amp, 0.0]]}}
        special = [amp, -amp, -amp + 2 * amp * k * k]
        command = "normal-form"
    else:
        value = draw(st.integers(-2, 2))
        hessian = draw(st.lists(st.sampled_from([-4, -1, 1, 3]), min_size=1, max_size=2))
        config = {"mode": "abstract",
                  "criticalPoints": [{"label": "z", "value": value, "hessian": hessian}]}
        special = [value] + [value + 2 * h for h in hessian if h > 0]
        command = draw(st.sampled_from(["analyze", "expansion"]))
    eff = DEFAULTS["tol"] if tol is None else tol
    kind = draw(st.sampled_from(["inside", "outside", "exact", "anywhere"]))
    if kind == "anywhere":
        sigma = draw(st.floats(-3.0, 10.0))
    elif kind == "exact":
        sigma = Fraction(draw(st.sampled_from(special)))
    else:
        u = draw(st.floats(-0.5, 0.5)) if kind == "inside" else \
            draw(st.floats(2.0, 100.0)) * draw(st.sampled_from([-1, 1]))
        sigma = draw(st.sampled_from(special)) + u * eff
    config["energy"] = str(sigma) if isinstance(sigma, Fraction) else sigma
    config["options"] = {"maxDegree": 4, "K": 1}
    flags = [] if tol is None else ["--tol", repr(tol)]
    return config, command, flags, any(abs(sigma - c) < eff for c in special)


@settings(max_examples=60, deadline=None)
@given(energy_cases())
def test_cli_exits_3_exactly_on_forbidden_energies(case):
    config, command, flags, forbidden = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "out")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--config", cfg, "--out", out, *flags])
        assert code in (0, 3, 4)
        assert (code == 3) == forbidden, err.getvalue()
        if code == 3:
            assert err.getvalue().count("\n") == 1 and not os.path.exists(out)
        else:
            assert os.path.exists(os.path.join(out, "report.json"))


@st.composite
def digraphs(draw):
    """Up to 8 stand-in nodes with tied nu values, some incoming, and random edges
    (self-loops and repeats included); half the draws keep only forward edges."""
    n = draw(st.integers(1, 8))
    nodes = [SimpleNamespace(node_id=f"n{i}", nu=draw(st.sampled_from([1.0, 1.25, 1.5])),
                             is_min=draw(st.booleans()),
                             outgoing=draw(st.sampled_from([True, True, True, False])))
             for i in range(n)]
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=12))
    if draw(st.booleans()):
        pairs = [(min(i, j), max(i, j)) for i, j in pairs if i != j]
    edges = [SimpleNamespace(source=f"n{i}", target=f"n{j}") for i, j in pairs]
    return HeteroclinicDag(nodes=nodes, edges=edges, undecided=[], settings={})


@settings(max_examples=300, deadline=None)
@given(digraphs())
def test_morse_sequence_matches_brute_force_reachability(dag):
    ids = [n.node_id for n in dag.nodes if n.outgoing]
    arcs = {(e.source, e.target) for e in dag.edges if e.source in ids and e.target in ids}
    reach = {(a, b): (a, b) in arcs for a in ids for b in ids}
    for k in ids:                                      # Warshall's closure
        for a in ids:
            for b in ids:
                reach[a, b] = reach[a, b] or (reach[a, k] and reach[k, b])
    ms = morse_sequence(dag)
    on_cycle = [a for a in ids if reach[a, a]]
    if on_cycle:
        assert not ms.verified and ms.order == [] and ms.gammas == [] and len(ms.issues) == 1
        prefix = "cycle detected: "
        assert ms.issues[0].startswith(prefix)
        walk = ast.literal_eval(ms.issues[0][len(prefix):])
        assert walk and walk[0][0] == on_cycle[0] and walk[-1][1] == on_cycle[0]
        assert all(edge in arcs for edge in walk)
        assert all(a[1] == b[0] for a, b in zip(walk, walk[1:]))
        return
    assert sorted(ms.order) == sorted(ids)
    nus = [next(n.nu for n in dag.nodes if n.node_id == nid) for nid in ms.order]
    assert nus == sorted(nus, reverse=True)
    expected = []
    for i, nid in enumerate(ms.order):
        gamma, rest = ms.order[:i + 1], ms.order[i + 1:]
        expected += [f"Gamma_{i + 1} not closed: {q} -> {s}"
                     for q in gamma for s in rest if reach[q, s]]
        expected += [f"{nid} not minimal in Gamma_{i + 1}: {q} < {nid}"
                     for q in gamma[:-1] if reach[q, nid]]
    assert ms.issues == expected
    assert ms.verified == (not expected)
    assert ms.gammas == [sorted(ms.order[:i + 1]) for i in range(len(ms.order))]
