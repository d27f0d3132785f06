"""In-memory span recorder, and the interval arithmetic that reads its spans.

A span is one timed call at a layer boundary: name, start, end, the span that
caused it (its parent) and the run it belongs to.  Spans stay in memory until
the run ends, when :meth:`Recorder.dump` hands them over for writing.  Counters
record events too frequent to time one by one (once per integration step).

A layer's self time is its span's duration minus the part of that interval
covered by its children.  Children can overlap one another when they run on
worker threads, so "covered" is the length of the union of their intervals,
clipped to the parent.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Spans and counters of one run.  Safe to use from several threads.

    Each thread keeps its own stack of open spans; a span's parent is the top
    of its thread's stack.  Work handed to another thread keeps its causal
    parent through :meth:`adopt`.
    """

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counters: dict[str, int] = {}
        self._clock = clock
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        """Id of the innermost open span on this thread (None outside any span)."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextlib.contextmanager
    def adopt(self, parent: int | None):
        """Make ``parent`` the parent of spans opened on this thread meanwhile."""
        stack = self._stack()
        stack.append(parent)
        try:
            yield
        finally:
            stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Time the enclosed block; an exception is recorded by type and re-raised."""
        stack = self._stack()
        record = Span(next(self._ids), name, self._clock(), math.nan,
                      stack[-1] if stack else None, self.run_id, attrs)
        stack.append(record.span_id)
        try:
            yield record
        except BaseException as err:
            record.attrs["error"] = type(err).__name__
            raise
        finally:
            stack.pop()
            record.end = self._clock()
            self.spans.append(record)

    def count(self, name: str, n: int = 1):
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def dump(self) -> dict:
        return {"run_id": self.run_id,
                "spans": [asdict(s) for s in self.spans],
                "counters": dict(self.counters)}


def load_spans(dumped: dict) -> list[Span]:
    return [Span(**s) for s in dumped["spans"]]


def union_length(intervals) -> float:
    """Total length covered by a collection of (start, end) intervals."""
    total = 0.0
    lo = hi = None
    for start, end in sorted(intervals):
        if hi is None or start > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = start, end
        else:
            hi = max(hi, end)
    if hi is not None:
        total += hi - lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals within it."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = [(max(c.start, s.start), min(c.end, s.end))
                   for c in children[s.span_id] if c.end > s.start and c.start < s.end]
        out[s.span_id] = s.duration - union_length(covered)
    return out


def outermost(spans, name: str) -> list[Span]:
    """Spans called ``name`` that have no ancestor of the same name.

    Summing their durations times a layer once even where its functions call
    one another.
    """
    by_id = {s.span_id: s for s in spans}

    def nested(s: Span) -> bool:
        parent = by_id.get(s.parent)
        while parent is not None:
            if parent.name == name:
                return True
            parent = by_id.get(parent.parent)
        return False

    return [s for s in spans if s.name == name and not nested(s)]
