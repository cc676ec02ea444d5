"""In-memory span tracer for the traced benchmark pass.

The tracer wraps the functions each nslp module exposes to the tracking
loop, by rebinding the name in the module that calls it (the modules
import each other's functions by name, so patching the defining module
alone would miss most calls). Spans hold name, start, end, parent and
iteration id; counts are kept at the same boundaries. Nothing is written
out: the benchmark reduces the spans to per-layer numbers when it ends.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import ExitStack
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None  # index into Tracer.spans
    iteration: int


class Tracer:
    """Collects spans and counters for one serial pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.values: dict[str, list] = {}
        self.iteration = -1
        self._stack: list[int] = []
        self._open: Counter = Counter()  # open spans per name

    def inside(self, name: str) -> bool:
        """True when a span called ``name`` is open on the current stack."""
        return self._open[name] > 0

    def record(self, key: str, value) -> None:
        self.values.setdefault(key, []).append(value)

    def timed(self, name: str, fn, on_result=None):
        """``fn`` wrapped in a span; ``on_result(tracer, result)`` runs after it."""

        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, self.iteration))
            self._stack.append(idx)
            self._open[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open[name] -= 1
                self._stack.pop()
                self.spans[idx].end_ns = time.perf_counter_ns()
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    def counted(self, name: str, fn, on_result=None):
        """``fn`` wrapped in a counter only: for calls too small and too
        many to afford a span each."""

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts[name] += 1
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper


def patched(replacements) -> ExitStack:
    """Rebind ``(module, attribute, new)`` triples; closing the returned
    stack restores every original binding."""
    stack = ExitStack()
    for module, attr, new in replacements:
        old = getattr(module, attr)
        setattr(module, attr, new)
        stack.callback(setattr, module, attr, old)
    return stack


def self_times_ns(spans: list[Span]) -> list[int]:
    """Each span's duration minus the summed durations of its direct
    children. The tracer nests spans on one stack, so children are
    disjoint and lie inside their parent."""
    out = [s.end_ns - s.start_ns for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end_ns - s.start_ns
    return out


def totals_ns(spans: list[Span], *, self_time: bool = False) -> Counter:
    """Summed duration (or self time) per span name."""
    durations = (self_times_ns(spans) if self_time
                 else [s.end_ns - s.start_ns for s in spans])
    out: Counter = Counter()
    for s, d in zip(spans, durations):
        out[s.name] += d
    return out
