"""Span recorder for the traced run, wrapped around discwalk's public functions.

Spans are recorded from outside the program: each layer function listed in
``FUNCTIONS`` / ``METHODS`` is replaced, in every ``discwalk`` module that
binds it (module globals and dicts of functions such as the CLI's op table),
by a wrapper that records a span.  A span holds its name, start, end, parent
span and request id; self time is its duration minus its children's.  Spans
stay in memory and are written out once, when the run ends
(``.perfbench_out/spans-<workload>.json.gz``, one column per field).

A listed function that no longer exists is reported as missing, and the
metrics fed only by missing functions are left out; nothing crashes.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import os
import sys
from time import perf_counter

import numpy as np


def _size_arg(a, k):
    return int(np.size(a[1] if len(a) > 1 else k.get("z")))


def _family_tag(spec) -> str:
    name = type(spec).__name__.lower()
    return {"productkernel": "product", "poissonszego": "poisson"}.get(name, name)


# (module, function, (count from args/result or None), (tag from args or None))
FUNCTIONS = [
    ("special", "jacobi_R_all", lambda a, k, r: int(np.size(r)), None),
    ("quadrature", "build_rule", None, None),
    ("quadrature", "expand", lambda a, k, r: len(r), None),
    ("quadrature", "synthesize", lambda a, k, r: _size_arg(a, k), None),
    ("quadrature", "coefficient_sum", None, None),
    ("families", "eval_family", lambda a, k, r: _size_arg(a, k), lambda a, k: _family_tag(a[0])),
    ("families", "family_coefficients", lambda a, k, r: len(r), lambda a, k: _family_tag(a[0])),
    ("families", "difference_pattern", None, None),
    ("walks", "descente_z", lambda a, k, r: len(r), None),
    ("walks", "descente_zbar", lambda a, k, r: len(r), None),
    ("walks", "descente_x", lambda a, k, r: len(r), None),
    ("walks", "montee_z", lambda a, k, r: len(r.table), None),
    ("walks", "montee_zbar", lambda a, k, r: len(r.table), None),
    ("positivity", "spd_verdict", None, None),
    ("positivity", "intersects_progression", None, None),
    ("positivity", "is_pd", None, None),
    ("positivity", "difference_set", None, None),
    ("positivity", "gram_matrix", None, None),
    ("positivity", "sample_sphere", None, None),
]

# (module, class, method, span name, (entries, bytes) from args/result)
METHODS = [
    ("tables", "CoefficientTable", "save", "tables.save",
     lambda a, k, r: (len(a[0]), os.path.getsize(a[1] if len(a) > 1 else k["path"]))),
    ("tables", "CoefficientTable", "load", "tables.load",
     lambda a, k, r: (len(r), os.path.getsize(a[1] if len(a) > 1 else k["path"]))),
    ("walks", "MonteeResult", "dumps", "tables.save", lambda a, k, r: (len(a[0].table), len(r))),
]

KERNELS = ("families.eval_family", "quadrature.synthesize")


class Span:
    __slots__ = ("name", "tag", "start", "end", "parent", "request", "child", "count")

    def __init__(self, name, tag, start, parent, request):
        self.name = name
        self.tag = tag
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.child = 0.0
        self.count = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.active = False
        self.request = -1
        self.missing: list[str] = []
        self._undo: list = []

    def open(self, name: str, tag=None) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(name, tag, perf_counter(), parent, self.request))
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = perf_counter()
        self.stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child += span.end - span.start

    def _wrap(self, fn, name, count, tag):
        rec = self

        @functools.wraps(fn)
        def wrapper(*a, **k):
            if not rec.active:
                return fn(*a, **k)
            idx = rec.open(name, tag(a, k) if tag else None)
            try:
                out = fn(*a, **k)
            finally:
                rec.close(idx)
            if count:
                rec.spans[idx].count = count(a, k, out)
            return out

        return wrapper

    def _rebind(self, orig, wrapper) -> None:
        """Replace ``orig`` by ``wrapper`` wherever a discwalk module binds it."""
        for modname, mod in list(sys.modules.items()):
            if modname != "discwalk" and not modname.startswith("discwalk."):
                continue
            for name, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, name, wrapper)
                    self._undo.append((setattr, mod, name, orig))
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is orig:
                            value[key] = wrapper
                            self._undo.append((dict.__setitem__, value, key, orig))

    def install(self) -> None:
        for modname, fname, count, tag in FUNCTIONS:
            try:
                orig = getattr(importlib.import_module(f"discwalk.{modname}"), fname)
            except (ImportError, AttributeError):
                self.missing.append(f"{modname}.{fname}")
                continue
            self._rebind(orig, self._wrap(orig, f"{modname}.{fname}", count, tag))
        for modname, cname, mname, span, count in METHODS:
            try:
                cls = getattr(importlib.import_module(f"discwalk.{modname}"), cname)
                raw = cls.__dict__[mname]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{modname}.{cname}.{mname}")
                continue
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, span, count, None))
            else:
                new = self._wrap(raw, span, count, None)
            setattr(cls, mname, new)
            self._undo.append((setattr, cls, mname, raw))
        self._undo.append((setattr, np.linalg, "eigvalsh", np.linalg.eigvalsh))
        np.linalg.eigvalsh = self._wrap(np.linalg.eigvalsh, "positivity.eigvalsh", None, None)

    def uninstall(self) -> None:
        for fn, obj, key, value in reversed(self._undo):
            fn(obj, key, value)
        self._undo.clear()

    def write(self, path, meta: dict) -> None:
        """Write all spans as gzipped columnar JSON; times in microseconds from the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        names: dict = {}
        cols: dict = {"name": [], "start_us": [], "end_us": [], "parent": [], "request": []}
        for s in self.spans:
            label = s.name if s.tag is None else f"{s.name}.{s.tag}"
            cols["name"].append(names.setdefault(label, len(names)))
            cols["start_us"].append(round((s.start - t0) * 1e6))
            cols["end_us"].append(round((s.end - t0) * 1e6))
            cols["parent"].append(s.parent)
            cols["request"].append(s.request)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
            json.dump(dict(meta, names=list(names), **cols), fh)


# --------------------------------------------------------------------------
# per-layer metrics

FAMILIES = ("product", "poisson", "exponential", "aktas", "horn", "lauricella")
EXACT_FAMILIES = ("exponential", "aktas", "horn", "lauricella")
CLI_KINDS = ("expand", "walk", "check", "gram", "counterexample", "plot_data")

#: metric prefix -> wrapped functions that feed it (left out when all are missing)
SOURCES = {
    "special.jacobi_R_all": ["special.jacobi_R_all"],
    "quadrature.build_rule": ["quadrature.build_rule"],
    "quadrature.expand": ["quadrature.expand"],
    "quadrature.synthesize": ["quadrature.synthesize"],
    "quadrature.coefficient_sum": ["quadrature.coefficient_sum"],
    "families.eval_family": ["families.eval_family"],
    "families.family_coefficients": ["families.family_coefficients"],
    "families.difference_pattern": ["families.difference_pattern"],
    "tables.save": ["tables.CoefficientTable.save", "walks.MonteeResult.dumps"],
    "tables.load": ["tables.CoefficientTable.load"],
    "tables.entries_written": ["tables.CoefficientTable.save", "walks.MonteeResult.dumps"],
    "tables.entries_read": ["tables.CoefficientTable.load"],
    "walks.descente": ["walks.descente_z", "walks.descente_zbar", "walks.descente_x"],
    "walks.montee": ["walks.montee_z", "walks.montee_zbar"],
    "positivity.spd_verdict": ["positivity.spd_verdict"],
    "positivity.intersects_progression": ["positivity.intersects_progression"],
    "positivity.is_pd": ["positivity.is_pd"],
    "positivity.difference_set": ["positivity.difference_set"],
    "positivity.gram_matrix": ["positivity.gram_matrix"],
    "positivity.sample_sphere": ["positivity.sample_sphere"],
}


class _Agg:
    __slots__ = ("calls", "self_s", "count", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.count = 0
        self.extra = 0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, plot_rows: dict, overhead_ratio: float) -> dict:
    """Per-layer metrics as {name: (value, unit)}; ``plot_rows`` maps a
    plot-data request id to its rows with a value."""
    agg: dict = {}
    evaluate_s = 0.0
    kernel_calls = 0
    spans = rec.spans
    for s in spans:
        for key in ((s.name,) if s.tag is None else (s.name, f"{s.name}.{s.tag}")):
            a = agg.get(key)
            if a is None:
                a = agg[key] = _Agg()
            a.calls += 1
            a.self_s += s.self_time
            if isinstance(s.count, tuple):
                a.count += s.count[0]
                a.extra += s.count[1]
            elif s.count is not None:
                a.count += s.count
        if s.name in KERNELS:
            parent = spans[s.parent] if s.parent >= 0 else None
            if parent is not None and parent.name == "quadrature.expand":
                evaluate_s += s.duration
            if s.request in plot_rows and (parent is None or parent.name not in KERNELS):
                kernel_calls += 1
    A = lambda key: agg.get(key, _Agg())  # noqa: E731
    ms = lambda key: A(key).self_s * 1e3  # noqa: E731

    m: dict = {}
    jac = A("special.jacobi_R_all")
    m["special.jacobi_R_all.calls"] = (jac.calls, "count")
    m["special.jacobi_R_all.self_ms"] = (ms("special.jacobi_R_all"), "ms")
    m["special.jacobi_R_all.values"] = (jac.count, "count")
    m["special.jacobi_R_all.values_per_call"] = (_ratio(jac.count, jac.calls), "count")
    m["quadrature.build_rule.calls"] = (A("quadrature.build_rule").calls, "count")
    m["quadrature.build_rule.self_ms"] = (ms("quadrature.build_rule"), "ms")
    m["quadrature.expand.calls"] = (A("quadrature.expand").calls, "count")
    m["quadrature.expand.self_ms"] = (ms("quadrature.expand"), "ms")
    m["quadrature.expand.evaluate_ms"] = (evaluate_s * 1e3, "ms")
    m["quadrature.expand.coefficients"] = (A("quadrature.expand").count, "count")
    syn = A("quadrature.synthesize")
    m["quadrature.synthesize.calls"] = (syn.calls, "count")
    m["quadrature.synthesize.self_ms"] = (ms("quadrature.synthesize"), "ms")
    m["quadrature.synthesize.points"] = (syn.count, "count")
    m["quadrature.synthesize.points_per_call"] = (_ratio(syn.count, syn.calls), "count")
    m["quadrature.coefficient_sum.self_ms"] = (ms("quadrature.coefficient_sum"), "ms")
    for fam in FAMILIES:
        key = f"families.eval_family.{fam}"
        ev = A(key)
        m[f"{key}.calls"] = (ev.calls, "count")
        m[f"{key}.points"] = (ev.count, "count")
        m[f"{key}.self_ms"] = (ev.self_s * 1e3, "ms")
        m[f"{key}.us_per_point"] = (_ratio(ev.self_s * 1e6, ev.count), "us")
    for fam in EXACT_FAMILIES:
        key = f"families.family_coefficients.{fam}"
        m[f"{key}.self_ms"] = (ms(key), "ms")
        m[f"{key}.entries"] = (A(key).count, "count")
    m["families.difference_pattern.self_ms"] = (ms("families.difference_pattern"), "ms")
    save, load = A("tables.save"), A("tables.load")
    m["tables.save.calls"] = (save.calls, "count")
    m["tables.save.self_ms"] = (save.self_s * 1e3, "ms")
    m["tables.save.bytes"] = (save.extra, "B")
    m["tables.load.calls"] = (load.calls, "count")
    m["tables.load.self_ms"] = (load.self_s * 1e3, "ms")
    m["tables.load.bytes"] = (load.extra, "B")
    m["tables.entries_written"] = (save.count, "count")
    m["tables.entries_read"] = (load.count, "count")
    for group, names in (("descente", ("descente_z", "descente_zbar", "descente_x")),
                         ("montee", ("montee_z", "montee_zbar"))):
        parts = [A(f"walks.{n}") for n in names]
        m[f"walks.{group}.calls"] = (sum(p.calls for p in parts), "count")
        m[f"walks.{group}.self_ms"] = (sum(p.self_s for p in parts) * 1e3, "ms")
        m[f"walks.{group}.entries"] = (sum(p.count for p in parts), "count")
    verdicts = A("positivity.spd_verdict").calls
    inter = A("positivity.intersects_progression").calls
    eig = A("positivity.eigvalsh")
    m["positivity.spd_verdict.calls"] = (verdicts, "count")
    m["positivity.spd_verdict.self_ms"] = (ms("positivity.spd_verdict"), "ms")
    m["positivity.intersects_progression.calls"] = (inter, "count")
    m["positivity.intersects_progression.calls_per_verdict"] = (_ratio(inter, verdicts), "count")
    for name in ("is_pd", "difference_set", "gram_matrix", "sample_sphere"):
        m[f"positivity.{name}.self_ms"] = (ms(f"positivity.{name}"), "ms")
    m["positivity.eigvalsh.calls"] = (eig.calls, "count")
    m["positivity.eigvalsh.self_ms"] = (eig.self_s * 1e3, "ms")
    m["positivity.eigvalsh.calls_per_gram"] = (_ratio(eig.calls, A("positivity.gram_matrix").calls), "count")
    for kind in CLI_KINDS:
        m[f"cli.{kind}.self_ms"] = (ms(f"cli.{kind}"), "ms")
    m["cli.plot_data.kernel_calls_per_row"] = (_ratio(kernel_calls, sum(plot_rows.values())), "count")
    m["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    m["trace.span_count"] = (len(spans), "count")

    gone = set(rec.missing)
    for prefix, feeds in SOURCES.items():
        if all(f in gone for f in feeds):
            for name in [n for n in m if n.startswith(prefix)]:
                del m[name]
    return m
