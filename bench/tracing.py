"""In-memory spans around the public functions of each slicedeg module.

The program has no tracing of its own, so the benchmark wraps functions
at the module attributes through which they are called (``engine`` binds
``vs_obstruction`` at import, so the wrapper replaces ``engine.vs_obstruction``).
Each call of a wrapped function is one span: name, start, end, parent,
and counts as attributes.  Generators are timed only while they run, so
the lambda enumeration gets one span per search with a yield count, not
one span per lambda.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

# (module, attribute the caller reads, span name, kind)
# kind: "call" plain call, "gen" generator, or an attribute extractor name.
WRAP_POINTS = (
    ("knots", "parse_knot_db", "knots.parse_knot_db", "records"),
    ("cli", "load_knot_db", "knots.load_knot_db", "call"),
    ("engine", "vs_of", "staircase.vs_of", "call"),
    ("staircase", "vs_of", "staircase.vs_of", "call"),
    ("engine", "enumerate_classes", "lattice.enumerate_classes", "classes"),
    ("obstructions", "enumerate_odd_vectors", "lattice.enumerate_odd_vectors", "gen"),
    ("obstructions", "kappa_min", "lattice.kappa_min", "call"),
    ("obstructions", "eta", "lattice.eta", "call"),
    ("engine", "beta_adjunction", "obstructions.beta_adjunction", "verdict"),
    ("engine", "vs_obstruction", "obstructions.vs_obstruction", "verdict"),
    ("engine", "gamma_general", "obstructions.gamma_general", "verdict"),
    ("engine", "null_class_check", "obstructions.null_class_check", "verdict"),
    ("engine", "friend_rule", "obstructions.friend_rule", "verdict"),
    ("engine", "lower_bound", "engine.lower_bound", "levels"),
    ("engine", "bound_report", "engine.bound_report", "call"),
    ("cli", "bound_report", "engine.bound_report", "call"),
    ("engine", "report_table", "engine.report_table", "call"),
    ("cli", "report_table", "engine.report_table", "call"),
    ("engine", "report_to_jsonable", "engine.report_to_jsonable", "call"),
    ("cli", "report_to_jsonable", "engine.report_to_jsonable", "call"),
    ("cli", "main", "cli.main", "call"),
)


def _attrs(kind: str, result) -> dict:
    if kind == "records":
        return {"records": len(result)}
    if kind == "classes":
        return {"classes": len(result)}
    if kind == "verdict":
        return {"kill": int(result.obstructed)}
    if kind == "levels":
        return {"levels": len(result.certificates) + (0 if result.exhausted else 1)}
    return {}


class Tracer:
    """Records spans as [id, parent, name, start, end, covered, attrs].

    ``covered`` is the time the span's children ran, so self time is
    ``end - start - covered``.  The program is single-threaded, so
    children never overlap.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[list] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), parent[0] if parent else None, name, 0.0, 0.0, 0.0, {}]
        self.spans.append(span)
        self._stack.append(span)
        span[3] = time.perf_counter()
        return span

    def _close(self, span: list, busy: float | None = None) -> None:
        span[4] = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1][5] += (span[4] - span[3]) if busy is None else busy

    def wrap(self, fn, name: str, kind: str):
        tracer = self
        if kind == "gen":
            def traced_gen(*args, **kwargs):
                return tracer._generator(fn(*args, **kwargs), name)
            return traced_gen

        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            span[6] = _attrs(kind, result)
            return result
        return traced

    def _generator(self, gen, name: str):
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), parent[0] if parent else None, name, time.perf_counter(), 0.0, 0.0, {}]
        self.spans.append(span)
        busy = 0.0
        count = 0
        clock = time.perf_counter
        try:
            while True:
                t0 = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    busy += clock() - t0
                    return
                busy += clock() - t0
                count += 1
                yield item
        finally:
            gen.close()
            span[4] = clock()
            span[6] = {"yielded": count, "busy": busy}
            if parent is not None:
                parent[5] += busy

    @contextmanager
    def installed(self, modules: dict):
        """Replace every wrap point for the duration of the block."""
        saved = []
        try:
            for mod, attr, name, kind in WRAP_POINTS:
                module = modules[mod]
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, kind))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total time, self time and summed attributes."""
    out: dict[str, dict[str, float]] = {}
    for _id, _parent, name, start, end, covered, attrs in spans:
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        if "busy" in attrs:
            row["total_s"] += attrs["busy"]
            row["self_s"] += attrs["busy"]
        else:
            row["total_s"] += end - start
            row["self_s"] += end - start - covered
        for key, value in attrs.items():
            if key != "busy":
                row[key] = row.get(key, 0) + value
    return out
