"""In-memory spans around the package's public functions.

A traced run replaces selected functions, in the module namespace their
callers import them from, by wrappers that record a span (name, start,
end, parent span, case id) and hand the call's arguments and result to a
counter hook. Spans stay in memory until the run ends. Nothing here is
imported by the package, and every wrapper is removed again on exit.
"""
from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    case: Any


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, list[float]] = defaultdict(list)
        self.case: Any = None
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, on_result: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span per call; ``on_result(tracer, args,
        kwargs, result)`` records counts at the same boundary."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, time.perf_counter(), 0.0, parent, self.case)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span.end = time.perf_counter()
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        return traced

    def install(self, module, attr: str, name: str, on_result: Optional[Callable] = None) -> None:
        """Wrap ``module.attr`` where the module's own code looks it up."""
        original = getattr(module, attr)
        self._installed.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, on_result))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def count(self, name: str, value: float) -> None:
        self.counts[name].append(float(value))

    def self_times(self, name: str) -> list[float]:
        """Per call of ``name``: its duration minus the time covered by its
        child spans (calls are serial, so children never overlap)."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        return [
            s.end - s.start - child_time[i] for i, s in enumerate(self.spans) if s.name == name
        ]

    def to_dict(self) -> dict:
        return {
            "spans": [[s.name, s.start, s.end, s.parent, s.case] for s in self.spans],
            "counts": dict(self.counts),
        }

    def total_time(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)
