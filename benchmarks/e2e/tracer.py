"""Spans recorded from outside the program.

:class:`Tracer` replaces functions and methods of the ``repro`` package
with wrappers that record one :class:`Span` per call: name, layer,
start, end, parent span and trace id.  The span stack is thread-local,
so the service daemon's worker and HTTP threads each build their own
trees; a span opened with an empty stack starts a new trace (one per
estimate, job or request).  Spans stay in memory and are summarised
when the run ends.

Methods are patched on their class, where every caller looks them up
at call time.  A module-level function is rebound in *every* loaded
``repro`` module that holds it, because ``from x import f`` copies the
binding: patching ``repro.core.importance.importance_ratios`` alone
would miss the estimator module's own reference to it.

A span's self time is its duration minus the part of it that its child
spans cover; self times of one thread's spans partition the wall time
of that thread's root spans.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

#: layer name of root spans opened by the benchmark itself
ROOT_LAYER = "root"


@dataclass(slots=True)
class Span:
    """One recorded call."""

    id: int
    name: str
    layer: str
    parent: int | None
    trace: int
    thread: int
    start: float
    end: float = 0.0
    #: work the call did (rows, bytes, ...), from the target's counter
    work: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class NameStats:
    """Aggregate of every span with one name."""

    layer: str
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    work: float = 0.0


@dataclass
class TraceSummary:
    """What a run's spans add up to."""

    names: dict[str, NameStats] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    roots: int = 0
    root_wall_s: float = 0.0
    spans: int = 0

    def as_dict(self) -> dict:
        return {"names": {n: vars(s) for n, s in self.names.items()},
                "layers": dict(self.layers), "roots": self.roots,
                "root_wall_s": self.root_wall_s, "spans": self.spans}

    @classmethod
    def from_dict(cls, data: dict) -> "TraceSummary":
        return cls(names={n: NameStats(**s)
                          for n, s in data["names"].items()},
                   layers=dict(data["layers"]), roots=data["roots"],
                   root_wall_s=data["root_wall_s"], spans=data["spans"])


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: duration minus the union of its
    children's intervals (clipped to the parent's)."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered, reach = 0.0, span.start
        for child in sorted(children.get(span.id, ()),
                            key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.id] = span.duration - covered
    return out


def summarize(spans: list[Span]) -> TraceSummary:
    """Per-name and per-layer totals of ``spans``."""
    selfs = self_times(spans)
    summary = TraceSummary(spans=len(spans))
    for span in spans:
        stats = summary.names.setdefault(span.name, NameStats(span.layer))
        stats.calls += 1
        stats.total_s += span.duration
        stats.self_s += selfs[span.id]
        stats.work += span.work
        summary.layers[span.layer] = (summary.layers.get(span.layer, 0.0)
                                      + selfs[span.id])
        if span.parent is None:
            summary.roots += 1
            summary.root_wall_s += span.duration
    return summary


class Tracer:
    """Records spans around patched ``repro`` callables."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, layer: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        span = Span(id=span_id, name=name, layer=layer,
                    parent=parent.id if parent else None,
                    trace=parent.trace if parent else span_id,
                    thread=threading.get_ident(),
                    start=time.perf_counter())
        stack.append(span)
        return span

    def close(self, span: Span, work: float = 0.0,
              end: float | None = None) -> None:
        span.end = time.perf_counter() if end is None else end
        span.work = work
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)  # list.append is atomic across threads

    @contextmanager
    def root(self, name: str):
        """A benchmark-level root span around the ``with`` body."""
        span = self.open(name, ROOT_LAYER) if self.enabled else None
        try:
            yield
        finally:
            if span is not None:
                self.close(span)

    # -- wrapping ------------------------------------------------------
    def wrap(self, fn: Callable, name: str, layer: str,
             work: Callable | None = None) -> Callable:
        """``fn`` recording a span per call while the tracer is enabled.

        ``work(args, kwargs, result)`` returns the amount of work a call
        that returned did; it runs outside the timed interval.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = tracer.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(span)
                raise
            end = time.perf_counter()
            tracer.close(span, work(args, kwargs, result) if work else 0.0,
                         end)
            return result

        return traced

    def patch(self, target: str, name: str, layer: str,
              work: Callable | None = None) -> None:
        """Wrap ``"module:attr"`` or ``"module:Class.method"``."""
        module_name, _, path = target.partition(":")
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[attr]
            if isinstance(original, staticmethod):
                wrapped = staticmethod(self.wrap(original.__func__, name,
                                                 layer, work))
            else:
                wrapped = self.wrap(original, name, layer, work)
            self._rebind(cls, attr, original, wrapped)
            return
        original = getattr(module, path)
        wrapped = self.wrap(original, name, layer, work)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._rebind(mod, attr, original, wrapped)

    def _rebind(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Undo every patch (newest first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def per_span_cost_s(calls: int = 20_000) -> float:
    """Measured cost one recorded span adds to a call."""
    def noop():
        return None

    traced = Tracer().wrap(noop, "calibrate", "calibrate")
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    plain = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        traced()
    return max(0.0, (time.perf_counter() - start - plain) / calls)
