"""Spans around the calls into qndsim's layers, recorded from outside the program.

A span is one call into a layer's public function: name, start, end, parent
span, operation id, plus a few counts taken at the boundary (runs and shots
for ``montecarlo``, bootstrap resamples, process CPU time).  Spans are kept in
memory and written out when the run ends.

Layers are the package modules.  ``active`` wraps every public function of
each layer module, both in the module itself and wherever another qndsim
module bound it by name (``from .montecarlo import run_sequence``), so a call
is traced however the calling module binds it.  Calls a layer makes into its
own functions show up as nested spans of the same layer; they count towards
self time but not towards the layer's calls or busy time.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import threading
import time
from dataclasses import dataclass, field

LAYERS = ("gaussian_core", "physics", "montecarlo", "stats", "harness")


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    parent: int | None
    op: int
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for calls made from the thread that created it.

    Calls from other threads (the sampler's worker pool) run untraced; their
    time is inside the span of the call that started them.
    """

    def __init__(self):
        self.thread = threading.get_ident()
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[Span] = []

    def open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, layer, time.perf_counter(), parent, self.op)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def call(self, layer: str, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span; used for entry points such as ``harness.main``."""
        span = self.open(f"{layer}.{name}", layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(span)

    def to_json(self) -> list[dict]:
        return [
            {
                "id": s.id,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "op": s.op,
                **({"attrs": s.attrs} if s.attrs else {}),
            }
            for s in self.spans
        ]


def _layer_of(fn) -> str | None:
    module = getattr(fn, "__module__", "") or ""
    head, _, tail = module.partition(".")
    return tail if head == "qndsim" and tail in LAYERS else None


def _wrap(tracer: Tracer, layer: str, name: str, fn):
    signature = inspect.signature(fn)
    takes_resamples = "resamples" in signature.parameters

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if threading.get_ident() != tracer.thread:
            return fn(*args, **kwargs)
        span = tracer.open(f"{layer}.{name}", layer)
        cpu = time.process_time()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.attrs["cpu_s"] = time.process_time() - cpu
            tracer.close(span)
        if layer == "montecarlo":
            runs = result if isinstance(result, list) else [result]
            runs = [r for r in runs if hasattr(r, "config") and hasattr(r, "s1")]
            if runs:
                span.attrs["runs"] = len(runs)
                span.attrs["shots"] = sum(len(r.s1) for r in runs)
        if takes_resamples:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            span.attrs["resamples"] = bound.arguments["resamples"]
        return result

    return traced


@contextlib.contextmanager
def active(tracer: Tracer | None):
    """Trace calls into the layers inside the block; a no-op without a tracer."""
    if tracer is None:
        yield
        return
    replaced = _instrument(tracer)
    try:
        yield
    finally:
        for module, name, value in replaced:
            setattr(module, name, value)


def _instrument(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every public layer function wherever qndsim binds it; return the originals."""
    modules = [m for n, m in sys.modules.items() if n == "qndsim" or n.startswith("qndsim.")]
    wrapped: dict[int, object] = {}
    replaced = []
    for module in modules:
        for name, value in list(vars(module).items()):
            if name.startswith("_") or not inspect.isfunction(value):
                continue
            layer = _layer_of(value)
            if layer is None or layer == "harness":
                continue
            if id(value) not in wrapped:
                wrapped[id(value)] = _wrap(tracer, layer, value.__name__, value)
            replaced.append((module, name, value))
            setattr(module, name, wrapped[id(value)])
    return replaced


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its child spans cover."""
    own = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent in own:
            own[s.parent] -= s.duration
    return own


def layer_totals(spans: list[Span]) -> dict:
    """Per-layer calls, busy time (top-level spans) and self time, plus counts."""
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    totals = {
        layer: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "cpu_s": 0.0, "by_name": {}}
        for layer in LAYERS
    }
    counts = {"runs": 0, "shots": 0, "resamples": 0}
    for s in spans:
        if s.layer not in totals:
            continue
        t = totals[s.layer]
        t["self_s"] += own[s.id]
        parent = by_id.get(s.parent)
        if parent is not None and parent.layer == s.layer:
            continue
        t["calls"] += 1
        t["busy_s"] += s.duration
        t["cpu_s"] += s.attrs.get("cpu_s", 0.0)
        t["by_name"][s.name] = t["by_name"].get(s.name, 0.0) + s.duration
        for key in counts:
            counts[key] += s.attrs.get(key, 0)
    return {"layers": totals, **counts}
