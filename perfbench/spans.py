"""In-memory span tracer for the benchmark's traced run.

A span records its name, start, end, parent and attributes.  Spans of
one op nest under that op's root span, which carries the op id.  The
tracer only collects; ``self_times`` and the worker turn the spans
into per-layer numbers after the run, and the worker writes them out
as JSON once the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional


class Tracer:
    """Collects nested spans; ``span`` yields the span's attribute dict."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Dict[str, Any]]:
        record = {"id": len(self.spans),
                  "parent": self._open[-1] if self._open else None,
                  "name": name, "start": time.perf_counter(), "end": None,
                  "attrs": attrs}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield attrs
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


class NullTracer:
    """The untraced run's stand-in: records nothing."""

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Dict[str, Any]]:
        yield attrs


def self_times(spans: List[Dict[str, Any]]) -> Dict[int, float]:
    """Span id -> duration minus the time its children cover.

    Ops run on one thread, so a span's children never overlap and the
    time they cover is the sum of their durations.
    """
    own: Dict[int, float] = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        parent: Optional[int] = s["parent"]
        if parent is not None:
            own[parent] -= s["end"] - s["start"]
    return own
