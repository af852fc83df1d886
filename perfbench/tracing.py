"""Spans around qstar's public functions, recorded from outside the package.

install() replaces each function named in TARGETS, in every loaded qstar
module that holds a reference to it, with a wrapper that records one span
per call: name, start, end, parent span and operation id.  Nothing under
src/ changes.  Spans stay in memory until the child process writes them.

layer_metrics() turns the spans of a run into the per-layer metrics: call
counts, self time (a span's duration minus its child spans), and the
counts noted on individual spans.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute) of each traced function; a dotted attribute is a
# classmethod on a class of that module
TARGETS = (
    ("qstar.modular", "load_dataset"),
    ("qstar.modular", "derive_equation"),
    ("qstar.jpipeline", "LevelContext.from_data"),
    ("qstar.jpipeline", "j_expression"),
    ("qstar.jpipeline", "j_polynomial_at_point"),
    ("qstar.hyperelliptic", "search_points"),
    ("qstar.series", "convolve"),
    ("qstar.series", "j_expansion"),
    ("qstar.algnum", "factor_rational"),
    ("qstar.algnum", "quadratic_surd_roots"),
    ("qstar.algnum", "identify_multiquadratic"),
    ("qstar.algnum", "squarefree_kernel"),
    ("qstar.cm", "class_polynomial"),
    ("qstar.cm", "identify_cm"),
    ("qstar.arith", "exp_complex"),
    ("qstar.cli", "point_report"),
)


def _convolve_products(args, result) -> dict:
    """Coefficient products of convolve(a, b, n), computed from the lengths."""
    a, b, n = args[0], args[1], args[2]
    return {"products": sum(min(len(b), n - i) for i in range(min(len(a), n)))}


# extra counts noted on a span from the call's arguments and result
NOTES = {
    "series.convolve": _convolve_products,
    "hyperelliptic.search_points": lambda args, result: {"points": len(result)},
    "cm.identify_cm": lambda args, result: {"hits": int(result is not None)},
    "algnum.identify_multiquadratic": lambda args, result: {"found": int(result is not None)},
}


class Recorder:
    """Keeps the spans of one process in memory, in call order."""

    def __init__(self, op: int = 0):
        self.op = op
        self.spans: list = []
        self._open: list = []

    def wrap(self, name: str, fn):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "op": self.op,
                "parent": self._open[-1] if self._open else None,
                "start": time.perf_counter_ns(),
            }
            self.spans.append(span)
            self._open.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter_ns()
                self._open.pop()
            if note is not None:
                span.update(note(args, result))
            return result

        return traced


def install(recorder: Recorder) -> None:
    """Wrap every target in each qstar module (and class) that holds it."""
    import qstar.cli  # noqa: F401  (loads every module that holds a target)

    modules = [m for n, m in sys.modules.items() if n == "qstar" or n.startswith("qstar.")]
    for module_name, attr in TARGETS:
        module = sys.modules[module_name]
        name = span_name(module_name, attr)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[method].__func__
            setattr(cls, method, classmethod(recorder.wrap(name, raw)))
            continue
        original = getattr(module, attr)
        wrapper = recorder.wrap(name, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


def self_times(spans: list) -> list:
    """Each span's duration minus the durations of its direct children, in s.

    Span ids are unique within one operation, so children are matched to
    parents by (op, id).
    """
    child_ns = {}
    for s in spans:
        if s["parent"] is not None:
            key = (s["op"], s["parent"])
            child_ns[key] = child_ns.get(key, 0) + s["end"] - s["start"]
    return [
        (s["end"] - s["start"] - child_ns.get((s["op"], s["id"]), 0)) / 1e9 for s in spans
    ]


def _under(span: dict, name: str, by_id: dict) -> bool:
    parent = span["parent"]
    while parent is not None:
        p = by_id[(span["op"], parent)]
        if p["name"] == name:
            return True
        parent = p["parent"]
    return False


def span_name(module_name: str, attr: str) -> str:
    """'qstar.algnum', 'squarefree_kernel' -> 'algnum.squarefree_kernel'."""
    return module_name.split(".")[-1] + "." + attr


def layer_metrics(spans: list) -> dict:
    """Per-layer totals keyed '<span name>.<field>'.

    For every target: calls, self_s, and exhausted / exhausted_s, the calls
    that raised FactorizationError and their duration; the counts noted on
    spans (products, points, hits, found) summed; and
    cm.identify_cm.hit_ratio, lookups that hit per class polynomial built
    under a lookup (0 when no lookup built one).
    """
    out: dict = {}
    for module_name, attr in TARGETS:
        name = span_name(module_name, attr)
        out.update({f"{name}.calls": 0, f"{name}.self_s": 0.0,
                    f"{name}.exhausted": 0, f"{name}.exhausted_s": 0.0})
        for key in ("products", "points", "hits", "found"):
            out[f"{name}.{key}"] = 0
    for span, own in zip(spans, self_times(spans)):
        name = span["name"]
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += own
        if span.get("error") == "FactorizationError":
            out[f"{name}.exhausted"] += 1
            out[f"{name}.exhausted_s"] += (span["end"] - span["start"]) / 1e9
        for key in ("products", "points", "hits", "found"):
            out[f"{name}.{key}"] += span.get(key, 0)
    by_id = {(s["op"], s["id"]): s for s in spans}
    built = sum(
        1 for s in spans
        if s["name"] == "cm.class_polynomial" and _under(s, "cm.identify_cm", by_id)
    )
    out["cm.identify_cm.hit_ratio"] = out["cm.identify_cm.hits"] / built if built else 0.0
    return out
