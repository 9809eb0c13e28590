"""In-memory spans and counters, installed by wrapping functions from outside.

A span records a name, start, end, its parent span and the document it
belongs to.  Spans stay in memory until :meth:`Tracer.dump` writes them out.
A span's *self time* is its duration minus the part of it covered by its
children (the union, so overlapping children are not counted twice).
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    doc_id: int
    name: str
    start: float
    end: float = 0.0


def self_times(spans: list[Span]) -> dict[int, float]:
    """Map span id -> self time, for spans whose children lie in *spans*."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent_id is not None:
            children[s.parent_id].append(s)
    result = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children[s.span_id], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[s.span_id] = (s.end - s.start) - covered
    return result


class Tracer:
    """Records spans for one document at a time, plus named counters."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self.docs = 0
        self._doc: Span | None = None
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, start: float | None = None) -> Span | None:
        if self._doc is None:
            return None
        stack = self._stack()
        parent = stack[-1] if stack else self._doc
        with self._lock:
            self._next_id += 1
            span = Span(self._next_id, parent.span_id, self._doc.doc_id, name,
                        time.perf_counter() if start is None else start)
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span | None, end: float | None = None) -> None:
        if span is None:
            return
        span.end = time.perf_counter() if end is None else end
        self._stack().pop()

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished leaf span under the current one."""
        span = self.open(name, start)
        self.close(span, end)

    def begin_doc(self, name: str = "bench.doc") -> Span:
        """Open the root span of the next document and reset the counters."""
        self.counts = Counter()
        with self._lock:
            self._next_id += 1
            self.docs += 1
            self._doc = Span(self._next_id, None, self.docs - 1, name, time.perf_counter())
            self.spans.append(self._doc)
        return self._doc

    def end_doc(self) -> Span:
        doc, self._doc = self._doc, None
        doc.end = time.perf_counter()
        return doc

    def doc_spans(self, doc_id: int) -> list[Span]:
        return [s for s in self.spans if s.doc_id == doc_id]

    # -- installing wrappers ------------------------------------------------

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a version that records span *name*."""
        original = owner.__dict__[attr]

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                return original(*args, **kwargs)
            finally:
                self.close(span)

        self._patch(owner, attr, traced)

    def count_calls(self, owner, attr: str, counter: str) -> None:
        """Replace ``owner.attr`` with a version that bumps *counter*."""
        original = owner.__dict__[attr]

        @functools.wraps(original)
        def counted(*args, **kwargs):
            if self._doc is not None:
                self.counts[counter] += 1
            return original(*args, **kwargs)

        self._patch(owner, attr, counted)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
