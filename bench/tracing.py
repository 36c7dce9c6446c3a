"""Spans around calls into paircanon's public functions, recorded from outside.

A :class:`Tracer` replaces each traced function, in every paircanon module
that holds a reference to it, with a wrapper that records a span: name,
start, end, parent span and op id, plus counts taken from the arguments and
result.  Leaving the ``with`` block puts the original functions back.  Spans
stay in memory; :func:`layer_metrics` derives the per-layer metrics from
them and :meth:`Tracer.write` saves them at the end of a run.
"""

from __future__ import annotations

import json
from time import perf_counter

MODULES = ("cli", "frame", "graphio", "pairgroup", "polyinv", "sortframe")

# traced function -> counts taken from (args, result) at the call boundary
TARGETS = {
    "cli.main": {},
    "graphio.parse_weighted": {"bytes_in": lambda args, r: len(args[0])},
    "graphio.emit_weighted": {"bytes_out": lambda args, r: len(r)},
    "graphio.parse_graph6": {},
    "graphio.emit_graph6": {},
    "pairgroup.induced_pair_action": {},
    "pairgroup.act": {},
    "pairgroup.generating_set": {
        "elements_in": lambda args, r: len(args[0]),
        "generators_out": lambda args, r: len(r),
    },
    "frame.canonical_form": {"aut_total": lambda args, r: r.aut_order},
    "polyinv.reynolds": {"terms_out": lambda args, r: len(r.terms)},
    "polyinv.classify_simple_graphs_n4": {},
    "sortframe.sort_frame": {},
    "sortframe.elementary_symmetric": {},
}
SELF_TIMED = ("cli.main", "frame.canonical_form")

UNITS = {
    "calls": "count",
    "busy_s": "s",
    "self_s": "s",
    "bytes_in": "bytes",
    "bytes_out": "bytes",
    "elements_in": "count",
    "generators_out": "count",
    "aut_total": "count",
    "terms_out": "count",
    "max_call_ms": "ms",
}


def _per_layer_names() -> dict[str, str]:
    names = {}
    for target, counts in TARGETS.items():
        fields = ["calls", "busy_s"]
        if target in SELF_TIMED:
            fields.append("self_s")
        fields += list(counts)
        if target == "frame.canonical_form":
            fields.append("max_call_ms")
        names.update({f"{target}.{f}": UNITS[f] for f in fields})
    names["pairgroup.generating_set.waste_ratio"] = "ratio"
    names["trace_overhead_ratio"] = "ratio"
    return names


#: every per-layer metric name -> unit, in report order
PER_LAYER = _per_layer_names()


class Tracer:
    """Records spans of the traced functions while used as a context manager."""

    def __init__(self, package):
        self.spans: list[list] = []  # [name, start, end, parent, op, counts]
        self.op = None  # id of the op in progress, set by the caller
        self._stack: list[int] = []
        self._patches = []
        modules = [package] + [getattr(package, name) for name in MODULES]
        for target, counts in TARGETS.items():
            module_name, attr = target.split(".")
            original = getattr(getattr(package, module_name), attr)
            wrapper = self._wrap(target, original, counts)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, name, original, wrapper))

    def _wrap(self, name, fn, counts):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counts:
                span[5] = {field: f(args, result) for field, f in counts.items()}
            return result

        return traced

    def __enter__(self):
        for module, name, _, wrapper in self._patches:
            setattr(module, name, wrapper)
        return self

    def __exit__(self, *exc):
        for module, name, original, _ in self._patches:
            setattr(module, name, original)

    def write(self, path) -> None:
        """Save the spans as JSON lines, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, op, counts in self.spans:
                row = {"name": name, "start": start - t0, "end": end - t0}
                row.update(parent=parent, op=op, **(counts or {}))
                f.write(json.dumps(row) + "\n")


def layer_metrics(spans, passes: int) -> dict[str, float]:
    """Per-layer metrics per pass of the op list (max_call_ms over all calls).

    A span's self time is its duration minus its direct children's; calls
    nest on one thread, so children never overlap.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child[parent] += end - start
    totals = {name: 0.0 for name in PER_LAYER}
    max_ms = 0.0
    for k, (name, start, end, _, _, counts) in enumerate(spans):
        totals[f"{name}.calls"] += 1
        totals[f"{name}.busy_s"] += end - start
        if name in SELF_TIMED:
            totals[f"{name}.self_s"] += end - start - child[k]
        for field, value in (counts or {}).items():
            totals[f"{name}.{field}"] += value
        if name == "frame.canonical_form":
            max_ms = max(max_ms, (end - start) * 1e3)
    metrics = {name: value / passes for name, value in totals.items()}
    metrics["frame.canonical_form.max_call_ms"] = max_ms
    elements = totals["pairgroup.generating_set.elements_in"]
    generators = totals["pairgroup.generating_set.generators_out"]
    metrics["pairgroup.generating_set.waste_ratio"] = generators / elements if elements else 0.0
    del metrics["trace_overhead_ratio"]  # set by the caller from two timed runs
    return metrics
