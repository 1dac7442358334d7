"""In-memory span recorder installed on galab's public functions at run time.

``Tracer.install(package)`` replaces each traced function with a wrapper,
in its defining module and under every name another galab module imported
it as (``galab.invertibility.convolve`` is ``galab.algebra.convolve``, so
both are wrapped).  Group ``mul`` and weight ``value`` are wrapped on every
concrete class and only counted.  ``uninstall`` restores the originals.

A span is ``[name, start, end, parent, query_id, info]``; ``parent`` is the
index of the enclosing span or -1, and ``info`` holds sizes taken from the
call's arguments or result.  Self time is a span's duration minus the part
of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter

# (module, attribute, span name, info hook).  A hook maps (args, result) to
# the sizes recorded on the span.
TRACED = (
    ("algebra", "convolve", "algebra.convolve",
     lambda a, r: {"exact": a[0].exact and a[1].exact, "products": a[0].n_terms * a[1].n_terms}),
    ("algebra", "element_from_json", "algebra.codec", None),
    ("algebra", "element_to_json", "algebra.codec", None),
    ("algebra", "AlgebraElement.norm", "algebra.norm", None),
    ("groups", "CayleyGroup.__init__", "groups.cayley_build", None),
    ("operators", "symbol_grid", "operators.symbol_grid",
     lambda a, r: {"points": int(r.size)}),
    ("operators", "apply_convolution_action", "operators.apply_convolution_action", None),
    ("weights", "check_weight", "weights.check_weight", None),
    ("weights", "dominate_character", "weights.dominate_character", None),
    ("invertibility", "invert_finite", "invertibility.invert_finite", None),
    ("invertibility", "invert_via_fft", "invertibility.invert_via_fft",
     lambda a, r: {"useful": r.invertible,
                   "kept": r.inverse.n_terms if r.inverse is not None else 0}),
    ("invertibility", "wiener_certify", "invertibility.wiener_certify", None),
    ("invertibility", "neumann_invert", "invertibility.neumann_invert", None),
    ("invertibility", "verify_direct_finiteness", "invertibility.verify_direct_finiteness", None),
    ("invertibility", "probe_quotients", "invertibility.probe_quotients",
     lambda a, r: {"quotients": len(r.probes)}),
    ("invertibility", "auto_invert", "invertibility.auto_invert", None),
    ("scenarios", "scenario_lp", "scenarios.scenario_lp", None),
    ("scenarios", "scenario_torus", "scenarios.scenario_torus", None),
    ("cli", "main", "cli.main", None),
)

COUNTED = (
    ("groups", ("LatticeGroup", "FreeGroup", "CayleyGroup"), "mul", "groups.mul.calls"),
    ("weights", ("ConstantWeight", "ExpSymmetricWeight", "PolynomialWeight",
                 "ExpDirectionalWeight", "TableWeight", "QuotientWeight", "ProductWeight"),
     "value", "weights.value.calls"),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self.query_id = None
        self._stack = []
        self._undo = []

    # -- wrappers --------------------------------------------------------

    def _span(self, name, fn, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.query_id, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if hook is not None:
                rec[5] = hook(args, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    # -- installation ----------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package="galab"):
        pkg = importlib.import_module(package)
        modules = {name: importlib.import_module(f"{package}.{name}")
                   for name in ("algebra", "groups", "operators", "weights",
                                "invertibility", "scenarios", "cli")}
        namespaces = [pkg, *modules.values()]
        for mod_name, attr, span_name, hook in TRACED:
            mod = modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._set(cls, meth, self._span(span_name, getattr(cls, meth), hook))
                continue
            orig = getattr(mod, attr)
            wrapped = self._span(span_name, orig, hook)
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is orig:
                        self._set(ns, key, wrapped)
        for mod_name, classes, meth, count_name in COUNTED:
            for cls_name in classes:
                cls = getattr(modules[mod_name], cls_name)
                self._set(cls, meth, self._counter(count_name, cls.__dict__[meth]))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "query", "info"],
                       "spans": self.spans, "counts": self.counts}, fh)


# ---------------------------------------------------------------------------
# analysis


def unit_of(name):
    """Unit of a per-layer metric, from its name."""
    if name.endswith("kept_terms"):
        return "terms/call"
    if name.endswith("ms"):
        return "ms/query"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes/query"
    return "count/query"


def self_times(spans):
    """Duration of each span minus the union of its direct children's intervals."""
    children = {}
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children.setdefault(s[3], []).append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end))
                             for c in children.get(i, ())):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def outermost(spans, i):
    """True when no ancestor of span i has the same name (no double counting)."""
    name, parent = spans[i][0], spans[i][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return False
        parent = spans[parent][3]
    return True


def layer_metrics(tracer, n_queries, report_bytes=0):
    """Per-query layer metrics (ms, counts and ratios) from one traced pass."""
    spans = tracer.spans
    selfs = self_times(spans)
    ms = {}        # inclusive time of outermost spans, by name
    self_ms = {}
    calls = {}
    child_ms = {}  # (parent name, child name) -> time
    info = {}
    for i, s in enumerate(spans):
        name, dur = s[0], s[2] - s[1]
        calls[name] = calls.get(name, 0) + 1
        self_ms[name] = self_ms.get(name, 0.0) + selfs[i]
        if outermost(spans, i):
            ms[name] = ms.get(name, 0.0) + dur
        if s[3] >= 0:
            key = (spans[s[3]][0], name)
            child_ms[key] = child_ms.get(key, 0.0) + dur
        if s[5]:
            info.setdefault(name, []).append((s[5], dur))

    conv = info.get("algebra.convolve", [])
    fft = info.get("invertibility.invert_via_fft", [])
    n = max(n_queries, 1)

    def per_q(v):
        return v / n

    def t(d, name):
        return per_q(d.get(name, 0.0)) * 1e3

    inv, conv_name = "invertibility.", "algebra.convolve"
    out = {
        "invertibility.invert_finite.self_ms": t(self_ms, inv + "invert_finite"),
        "invertibility.invert_finite.verify_ms": t(child_ms, (inv + "invert_finite", conv_name)),
        "invertibility.invert_via_fft.calls": per_q(calls.get(inv + "invert_via_fft", 0)),
        "invertibility.invert_via_fft.useful_ratio":
            sum(1 for d, _ in fft if d["useful"]) / len(fft) if fft else 0.0,
        "invertibility.invert_via_fft.self_ms": t(self_ms, inv + "invert_via_fft"),
        "invertibility.invert_via_fft.verify_ms": t(child_ms, (inv + "invert_via_fft", conv_name)),
        "invertibility.invert_via_fft.kept_terms":
            sum(d["kept"] for d, _ in fft) / len(fft) if fft else 0.0,
        "invertibility.wiener_certify.self_ms": t(self_ms, inv + "wiener_certify"),
        "operators.symbol_grid.calls": per_q(calls.get("operators.symbol_grid", 0)),
        "operators.symbol_grid.points":
            per_q(sum(d["points"] for d, _ in info.get("operators.symbol_grid", []))),
        "operators.symbol_grid.ms": t(ms, "operators.symbol_grid"),
        "algebra.convolve.calls": per_q(calls.get(conv_name, 0)),
        "algebra.convolve.products": per_q(sum(d["products"] for d, _ in conv)),
        "algebra.convolve.exact_ms": per_q(sum(dur for d, dur in conv if d["exact"])) * 1e3,
        "algebra.convolve.float_ms": per_q(sum(dur for d, dur in conv if not d["exact"])) * 1e3,
        "invertibility.neumann_invert.ms": t(ms, inv + "neumann_invert"),
        "invertibility.neumann_invert.self_ms": t(self_ms, inv + "neumann_invert"),
        "invertibility.neumann_invert.convolve_ms":
            t(child_ms, (inv + "neumann_invert", conv_name)),
        "invertibility.verify_direct_finiteness.ms": t(ms, inv + "verify_direct_finiteness"),
        "algebra.norm.ms": t(ms, "algebra.norm"),
        "weights.value.calls": per_q(tracer.counts.get("weights.value.calls", 0)),
        "groups.mul.calls": per_q(tracer.counts.get("groups.mul.calls", 0)),
        "groups.cayley_build.count": per_q(calls.get("groups.cayley_build", 0)),
        "groups.cayley_build.ms": t(ms, "groups.cayley_build"),
        "algebra.codec.ms": t(ms, "algebra.codec"),
        "cli.main.calls": per_q(calls.get("cli.main", 0)),
        "cli.main.self_ms": t(self_ms, "cli.main"),
        "cli.report_bytes": per_q(report_bytes),
        "scenarios.scenario_lp.ms": t(ms, "scenarios.scenario_lp"),
        "scenarios.scenario_torus.ms": t(ms, "scenarios.scenario_torus"),
        "operators.apply_convolution_action.ms": t(ms, "operators.apply_convolution_action"),
        "weights.check_weight.ms": t(ms, "weights.check_weight"),
        "weights.dominate_character.ms": t(ms, "weights.dominate_character"),
        "invertibility.probe_quotients.ms": t(ms, inv + "probe_quotients"),
        "invertibility.probe_quotients.quotients":
            per_q(sum(d["quotients"] for d, _ in info.get(inv + "probe_quotients", []))),
    }
    return out, {name: v * 1e3 / n for name, v in self_ms.items()}
