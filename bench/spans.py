"""Span tracing for the benchmark, done from outside the package.

The tracer replaces a module attribute (the binding a consumer looks up at
call time, such as ``summatoria.cli.load``) with a wrapper that records one
span per call: name, layer, thread, start, end, parent and an optional
measure of the arguments or result. Spans stay in memory until the run ends.
``restore`` puts back every original attribute.

A call made on a worker thread that has no open span of its own gets as its
parent the innermost span open on the thread that created the tracer. Sieve
segments submitted to a thread pool are children of the ``accumulate`` call
that submitted them.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter
from typing import NamedTuple


class Span(NamedTuple):
    sid: int
    parent: int | None
    name: str
    layer: str
    binding: str
    thread: int
    start: float
    end: float
    measure: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps module attributes and collects the spans of every call."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._originals: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[list[int], int, int | None]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main else None
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent

    def wrap(self, module, attr: str, name: str, layer: str, measure=None) -> None:
        """Replace module.attr by a recording wrapper.

        measure(args, kwargs, result) runs after the span has closed and its
        return value is stored with the span.
        """
        original = getattr(module, attr)
        binding = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        tracer = self

        def wrapper(*args, **kwargs):
            stack, sid, parent = tracer._open()
            result = None
            t0 = perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                m = measure(args, kwargs, result) if measure is not None else None
                tracer.spans.append(
                    Span(sid, parent, name, layer, binding, threading.get_ident(), t0, t1, m)
                )

        wrapper.__wrapped__ = original
        self._originals.append((module, attr, original))
        setattr(module, attr, wrapper)

    def call(self, name: str, layer: str, fn, *args):
        """Run fn(*args) inside a span of its own."""
        stack, sid, parent = self._open()
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = perf_counter()
            stack.pop()
            self.spans.append(Span(sid, parent, name, layer, name, threading.get_ident(), t0, t1))

    def restore(self) -> None:
        """Put back every wrapped attribute, last wrapped first."""
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.sid, "parent": s.parent, "name": s.name, "layer": s.layer,
                    "binding": s.binding, "thread": s.thread,
                    "start": s.start, "end": s.end, "measure": s.measure,
                }) + "\n")


def depths(spans: list[Span]) -> dict[int, int]:
    """Nesting depth of each span; a span without a parent has depth 0."""
    parent = {s.sid: s.parent for s in spans}
    out: dict[int, int] = {}
    for sid in parent:
        chain = []
        while sid is not None and sid not in out:
            chain.append(sid)
            sid = parent.get(sid)
        d = -1 if sid is None else out[sid]
        for c in reversed(chain):
            d += 1
            out[c] = d
    return out


def self_times(spans: list[Span]) -> dict[int, float]:
    """Wall-clock self time of each span.

    Every instant covered by a span is charged to the deepest spans open at
    that instant, on any thread, shared equally among them. A span's self
    time is its duration minus the part of it that its descendants cover,
    and the self times of all spans add up to the wall time the root spans
    cover. Busy time summed over threads is the sum of durations instead.
    """
    depth = depths(spans)
    events = []
    for s in spans:
        events.append((s.start, 1, s.sid))
        events.append((s.end, -1, s.sid))
    events.sort(key=lambda e: (e[0], e[1]))
    active: dict[int, int] = {}
    out: dict[int, float] = defaultdict(float)
    prev = None
    for t, kind, sid in events:
        if active and prev is not None and t > prev:
            top = max(active.values())
            deepest = [a for a, d in active.items() if d == top]
            share = (t - prev) / len(deepest)
            for a in deepest:
                out[a] += share
        prev = t
        if kind == 1:
            active[sid] = depth[sid]
        else:
            del active[sid]
    return out


def snapshot(modules) -> dict[object, dict[str, object]]:
    """The attribute dictionary of each module, copied."""
    return {m: dict(vars(m)) for m in modules}


def changed_attributes(before: dict[object, dict[str, object]]) -> list[str]:
    """Attributes of the snapshotted modules that are no longer the same object."""
    return [
        f"{m.__name__}.{attr}"
        for m, attrs in before.items()
        for attr, value in attrs.items()
        if vars(m).get(attr) is not value
    ]
