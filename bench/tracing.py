"""Spans and counters for the traced run, patched in from outside the program.

A target names a function or method by module and attribute.  A function
defined in radialscope is replaced in every radialscope module namespace
that binds it (`normalform.ad_exponential` as well as
`symalg.ad_exponential`), so calls through any import path are seen.  A
third-party function (`brentq`, `solve_ivp`) is replaced only in the
named module, so its count belongs to that layer.  Methods are patched on
their class.  Everything is restored when the `with` block ends.

Spans and counters run in separate passes: the counters sit on hot
methods (GaussianRational operators, WeightedPolynomial.__mul__,
StationaryPhaseCase.phase) and would distort the span self times.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from time import perf_counter

# (span name, module, attribute); the per-layer metric is "<name>_ref"
SPAN_TARGETS = [
    ("cli_reports.config", "radialscope.cli_reports", "AnalysisConfig.from_dict"),
    ("cli_reports.run", "radialscope.cli_reports", "run_analysis"),
    ("cli_reports.emit", "radialscope.cli_reports", "emit"),
    ("normalform.reduce", "radialscope.normalform", "reduce_to_normal_form"),
    ("normalform.homological", "radialscope.normalform", "solve_homological"),
    ("symalg.ad_exp", "radialscope.symalg", "ad_exponential"),
    ("symalg.bracket", "radialscope.symalg", "bracket"),
    ("resonance.enumerate", "radialscope.resonance", "enumerate_resonances"),
    ("resonance.scan", "radialscope.resonance", "scan_effectively_resonant_energies"),
    ("expansion.exponent", "radialscope.expansion", "exponent_data"),
    ("expansion.logvar", "radialscope.expansion", "log_variable_recursion"),
    ("dynamics.locate", "radialscope.dynamics", "locate_radial_points"),
    ("dynamics.dag", "radialscope.dynamics", "heteroclinic_dag"),
    ("dynamics.lyapunov", "radialscope.dynamics", "lyapunov_check"),
    ("oscverify.quadrature", "radialscope.oscverify", "oscillatory_quadrature"),
    ("oscverify.sp_check", "radialscope.oscverify", "stationary_phase_check"),
]

# (counter, module, attribute): one count per call
CALL_COUNTERS = [
    ("symalg.bracket_calls", "radialscope.symalg", "bracket"),
    ("normalform.homological_calls", "radialscope.normalform", "solve_homological"),
    ("resonance.brentq_calls", "radialscope.resonance", "brentq"),
    ("oscverify.phase_evals", "radialscope.oscverify", "StationaryPhaseCase.phase"),
    ("parallel.map_calls", "radialscope.parallel", "parallel_map"),
]

GAUSSIAN_OPS = ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
                "__mul__", "__rmul__", "__truediv__", "__rtruediv__")

COUNTER_NAMES = [name for name, _, _ in CALL_COUNTERS] + [
    "scalars.gaussian_ops", "symalg.mul_pairs", "dynamics.ivp_calls", "dynamics.rhs_evals"]


class Patch:
    """Replace targets with wrappers; restore the originals on exit."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def method(self, cls, attr: str, make):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(make(raw.__func__)))
        else:
            self._set(cls, attr, make(raw))

    def target(self, module: str, attr: str, make):
        mod = importlib.import_module(module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            self.method(getattr(mod, cls_name), meth, make)
            return
        original = getattr(mod, attr)
        wrapper = make(original)
        if not getattr(original, "__module__", "").startswith("radialscope"):
            self._set(mod, attr, wrapper)
            return
        for name, other in list(sys.modules.items()):
            if name == "radialscope" or name.startswith("radialscope."):
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._set(other, key, wrapper)


class SpanRecorder:
    """Spans [name, start, end, parent index], kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str):
        spans, stack = self.spans, self._stack

        def make(fn):
            def wrapper(*args, **kwargs):
                idx = len(spans)
                spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
                stack.append(idx)
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    spans[idx][1], spans[idx][2] = start, end
            return wrapper
        return make

    def call(self, name: str, fn, *args):
        return self.wrap(name)(fn)(*args)

    def install(self, patch: Patch) -> None:
        for name, module, attr in SPAN_TARGETS:
            patch.target(module, attr, self.wrap(name))

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Self time per span name over spans[first:]: duration minus the
        time its direct children cover (children nest inside parents)."""
        spans = self.spans
        own = {i: spans[i][2] - spans[i][1] for i in range(first, len(spans))}
        for i in range(first, len(spans)):
            parent = spans[i][3]
            if parent >= first:
                own[parent] -= spans[i][2] - spans[i][1]
        out: dict[str, float] = defaultdict(float)
        for i, t in own.items():
            out[spans[i][0]] += t
        return out


class Counters:
    """Deterministic work counts from the counter pass."""

    def __init__(self):
        self.counts: dict[str, int] = defaultdict(int)
        self.truncate_given = 0
        self.truncate_kept = 0

    def install(self, patch: Patch) -> None:
        counts = self.counts

        def counting(name):
            def make(fn):
                def wrapper(*args, **kwargs):
                    counts[name] += 1
                    return fn(*args, **kwargs)
                return wrapper
            return make

        for name, module, attr in CALL_COUNTERS:
            patch.target(module, attr, counting(name))

        scalars = importlib.import_module("radialscope.scalars")
        for op in GAUSSIAN_OPS:
            patch.method(scalars.GaussianRational, op, counting("scalars.gaussian_ops"))

        symalg = importlib.import_module("radialscope.symalg")
        poly_cls = symalg.WeightedPolynomial

        def pairs(fn):
            def wrapper(self, other):
                if isinstance(other, poly_cls):
                    counts["symalg.mul_pairs"] += len(self) * len(other)
                return fn(self, other)
            return wrapper

        patch.method(poly_cls, "__mul__", pairs)
        patch.method(poly_cls, "__rmul__", pairs)

        depth = [0]

        def inside_ad_exp(fn):
            def wrapper(*args, **kwargs):
                depth[0] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    depth[0] -= 1
            return wrapper

        def truncation(fn):
            def wrapper(poly, max_grade):
                out = fn(poly, max_grade)
                if depth[0]:
                    self.truncate_given += len(poly)
                    self.truncate_kept += len(out)
                return out
            return wrapper

        patch.target("radialscope.symalg", "ad_exponential", inside_ad_exp)
        patch.method(poly_cls, "truncate_grade", truncation)

        def ivp(fn):
            def wrapper(*args, **kwargs):
                sol = fn(*args, **kwargs)
                counts["dynamics.ivp_calls"] += 1
                counts["dynamics.rhs_evals"] += int(sol.nfev)
                return sol
            return wrapper

        patch.target("radialscope.dynamics", "solve_ivp", ivp)

    def metrics(self) -> dict[str, float]:
        out = {name: self.counts[name] for name in COUNTER_NAMES}
        out["symalg.kept_ratio"] = (self.truncate_kept / self.truncate_given
                                    if self.truncate_given else 0.0)
        return out
