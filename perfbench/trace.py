"""Benchmark-side spans: a null tracer for timed runs, an in-memory one for
traced runs, and wrappers that time the layer objects a model exposes.

Spans are recorded around public calls from the benchmark's own code; the
library is never patched at class level. A traced run wraps instance
attributes of one model and restores them afterwards.
"""

from __future__ import annotations

import statistics
from contextlib import nullcontext
from time import perf_counter

UNIT = "unit"
_NULL = nullcontext()


class NullTracer:
    """Tracer for end-to-end runs: every span is the same no-op context."""

    def span(self, name: str, rows: int = 0):
        return _NULL


class _Span:
    __slots__ = ("tracer", "name", "rows", "index")

    def __init__(self, tracer, name, rows):
        self.tracer = tracer
        self.name = name
        self.rows = rows

    def __enter__(self):
        tr = self.tracer
        self.index = len(tr.records)
        parent = tr.stack[-1] if tr.stack else -1
        tr.records.append([self.name, perf_counter(), 0.0, parent, self.rows])
        tr.stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.records[self.index][2] = perf_counter()
        tr.stack.pop()
        return False


class Tracer:
    """Keeps every span as [name, start, end, parent index, rows] in memory."""

    def __init__(self):
        self.records: list[list] = []
        self.stack: list[int] = []

    def span(self, name: str, rows: int = 0) -> _Span:
        return _Span(self, name, rows)


class _Timed:
    """Calls through to a layer object inside a span named by its path."""

    def __init__(self, inner, name: str, tracer: Tracer):
        self._inner = inner
        self._name = name
        self._tracer = tracer

    def __call__(self, *args, **kwargs):
        with self._tracer.span(self._name):
            return self._inner(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


def instrument(model, tracer: Tracer):
    """Wrap the model's layer objects in spans named like ``params()`` prefixes.

    Returns a function that restores every wrapped attribute.
    """
    undo = []

    def wrap_attr(obj, attr, name):
        inner = getattr(obj, attr)
        setattr(obj, attr, _Timed(inner, name, tracer))
        if attr in vars(type(obj)):  # a method: drop the instance override
            undo.append(lambda: delattr(obj, attr))
        else:
            undo.append(lambda: setattr(obj, attr, inner))

    def wrap_item(container, key, name):
        inner = container[key]
        container[key] = _Timed(inner, name, tracer)
        undo.append(lambda: container.__setitem__(key, inner))

    den = model.denoiser
    wrap_attr(den, "time_features", "denoiser.time")
    wrap_attr(den, "in_conv", "denoiser.in_conv")
    for lvl, stage in enumerate(den.down):
        for b, entry in enumerate(stage["blocks"]):
            for kind in ("res", "attn"):
                if kind in entry:
                    wrap_item(entry, kind, f"denoiser.down{lvl}.{kind}{b}")
        if stage["down"] is not None:
            wrap_item(stage, "down", f"denoiser.down{lvl}.down")
    for attr, name in (("mid_res1", "res1"), ("mid_attn", "attn"), ("mid_res2", "res2")):
        wrap_attr(den, attr, f"denoiser.mid.{name}")
    for i, stage in enumerate(den.up):
        lvl = len(den.up) - 1 - i
        for b, entry in enumerate(stage["blocks"]):
            for kind in ("res", "attn"):
                if kind in entry:
                    wrap_item(entry, kind, f"denoiser.up{lvl}.{kind}{b}")
        if stage["up"] is not None:
            wrap_item(stage, "up", f"denoiser.up{lvl}.up")
    wrap_attr(den, "out_norm", "denoiser.out")
    wrap_attr(den, "out_conv", "denoiser.out")

    cond = model.conditioner
    wrap_attr(cond, "image_encoder", "cond.image_encoder")
    for i in range(len(cond.fusion.layers)):
        wrap_item(cond.fusion.layers, i, f"cond.fusion.layer{i}")
    wrap_attr(cond.fusion, "final_norm", "cond.fusion.final_norm")

    def restore():
        while undo:
            undo.pop()()

    return restore


def unit_breakdown(records: list[list]) -> list[dict]:
    """Per-unit totals from the spans of ``unit`` roots.

    Each entry holds the total duration of each direct child name (the
    layers), the self time of every span name below the unit, ``other``
    (unit time no child covers), the denoiser call and row counts, and
    whether the children nest: inside the unit and not overlapping.
    """
    children: dict[int, list[int]] = {}
    for i, rec in enumerate(records):
        children.setdefault(rec[3], []).append(i)

    def dur(i):
        return records[i][2] - records[i][1]

    units = []
    for root in children.get(-1, []):
        if records[root][0] != UNIT:
            continue
        layers: dict[str, float] = {}
        selfs: dict[str, float] = {}
        calls = rows = 0
        kids = children.get(root, [])
        nested = True
        prev_end = records[root][1]
        for k in kids:
            start, end = records[k][1], records[k][2]
            nested &= prev_end <= start and end <= records[root][2]
            prev_end = end
            name = records[k][0]
            layers[name] = layers.get(name, 0.0) + dur(k)
        stack = list(kids)
        while stack:
            i = stack.pop()
            sub = children.get(i, [])
            name = records[i][0]
            if name == "denoiser.forward":
                calls += 1
                rows += records[i][4]
            selfs[name] = selfs.get(name, 0.0) + dur(i) - sum(dur(j) for j in sub)
            stack.extend(sub)
        units.append({
            "layers": layers,
            "selfs": selfs,
            "other": dur(root) - sum(layers.values()),
            "calls": calls,
            "rows": rows,
            "nested": nested,
        })
    return units


def median_ms(values) -> float:
    return 1e3 * statistics.median(values)
