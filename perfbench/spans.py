"""In-memory span recording around public calls into the program.

The traced run wraps public functions and methods of ``repro`` from the
benchmark's own code (:func:`wrap`); the program itself is not edited.
Each call is a span ``(name, parent, duration)``.  Spans are aggregated in
memory per ``(parent, name)`` edge — a campaign fires millions of them —
and written out once, when the run ends (:meth:`SpanRecorder.to_json`).

A span's self time is its duration minus the durations of its direct
child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
from time import perf_counter

ROOT = "<root>"


class SpanRecorder:
    """Aggregates nested spans: calls, inclusive and child seconds."""

    def __init__(self) -> None:
        #: (parent, name) -> [calls, inclusive_s, children_s]
        self.edges: dict[tuple[str, str], list] = {}
        #: open spans: [name, children_s]
        self._stack: list[list] = []

    def reset(self) -> None:
        """Forget every span (a forked worker drops its parent's)."""
        self.edges = {}
        self._stack = []

    def enter(self, name: str) -> None:
        self._stack.append([name, 0.0])

    def exit(self, duration_s: float) -> None:
        name, children = self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += duration_s
        key = (parent[0] if parent is not None else ROOT, name)
        edge = self.edges.get(key)
        if edge is None:
            self.edges[key] = [1, duration_s, children]
        else:
            edge[0] += 1
            edge[1] += duration_s
            edge[2] += children

    def calls(self, name: str) -> int:
        return sum(e[0] for (_, n), e in self.edges.items() if n == name)

    def total(self, name: str) -> float:
        """Inclusive seconds of every span called ``name``."""
        return sum(e[1] for (_, n), e in self.edges.items() if n == name)

    def self_time(self, name: str) -> float:
        """Seconds inside ``name`` not covered by its child spans."""
        return sum(e[1] - e[2] for (_, n), e in self.edges.items() if n == name)

    def child_total(self, parent: str) -> float:
        """Inclusive seconds of the direct children of ``parent`` spans."""
        return sum(e[1] for (p, _), e in self.edges.items() if p == parent)

    def merge(self, edges: dict[tuple[str, str], list]) -> None:
        """Fold another recorder's edges (e.g. a worker process's) in."""
        for key, (calls, total, children) in edges.items():
            edge = self.edges.setdefault(key, [0, 0.0, 0.0])
            edge[0] += calls
            edge[1] += total
            edge[2] += children

    def to_json(self) -> str:
        return json.dumps([[p, n, *e] for (p, n), e in sorted(self.edges.items())])

    @staticmethod
    def edges_from_json(text: str) -> dict[tuple[str, str], list]:
        return {(p, n): [c, t, ch] for p, n, c, t, ch in json.loads(text)}


def _timed(recorder: SpanRecorder, name: str, func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        recorder.enter(name)
        t0 = perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            recorder.exit(perf_counter() - t0)

    return wrapper


def wrap(recorder: SpanRecorder, owner, attr: str, name: str) -> None:
    """Replace ``owner.attr`` (a module function, method or classmethod)
    with a span-recording wrapper named ``name``."""
    raw = inspect.getattr_static(owner, attr)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(_timed(recorder, name, raw.__func__)))
    else:
        setattr(owner, attr, _timed(recorder, name, raw))
