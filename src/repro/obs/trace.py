"""Structured trace spans: per-job timelines across processes.

A :class:`Span` is one timed operation — a job execution, a scheduler
wait, one CAD :class:`~repro.cad.flow.FlowStage`, a store load/publish,
a gateway request — identified by a ``trace_id`` shared by everything
belonging to the same logical job and chained by ``parent_id``, so a
job's end-to-end timeline (scheduler -> shard -> stage -> store)
reconstructs from the flat span list.

Conventions:

* ids are 16-hex-char strings (:func:`new_id`); a trace's *root* span
  reuses the trace id as its span id, so the root is found without a
  sentinel parent value;
* ``start_s`` is wall-clock epoch seconds (comparable across
  processes), ``duration_s`` is measured with the monotonic clock;
* spans are plain data — :meth:`Span.to_plain` / :meth:`Span.from_plain`
  round-trip through JSON for the wire verb and ``--trace-out`` files.

The :class:`SpanSink` is a bounded ring buffer with a monotonically
increasing cursor: ``since(cursor)`` returns the spans recorded after a
previous read, which is what the ``metrics`` wire verb exposes so a
poller (``repro-warp top``) never re-reads spans it has seen.
"""

from __future__ import annotations

import json
import threading
import uuid
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

#: Spans retained in a sink before the oldest are dropped.
DEFAULT_SPAN_CAPACITY = 8192


def new_id() -> str:
    """A fresh 16-hex-char trace/span id."""
    return uuid.uuid4().hex[:16]


@dataclass
class Span:
    """One timed, parented operation of a trace."""

    name: str
    trace_id: str
    span_id: str
    parent_id: Optional[str] = None
    #: Wall-clock start (epoch seconds; comparable across processes).
    start_s: float = 0.0
    duration_s: float = 0.0
    attrs: Dict[str, object] = field(default_factory=dict)

    def to_plain(self) -> Dict:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "attrs": self.attrs,
        }

    @classmethod
    def from_plain(cls, plain: Dict) -> "Span":
        return cls(
            name=plain.get("name", ""),
            trace_id=plain.get("trace_id", ""),
            span_id=plain.get("span_id", ""),
            parent_id=plain.get("parent_id"),
            start_s=plain.get("start_s", 0.0),
            duration_s=plain.get("duration_s", 0.0),
            attrs=plain.get("attrs", {}) or {},
        )


class SpanSink:
    """Bounded, cursor-addressable ring buffer of finished spans."""

    def __init__(self, capacity: int = DEFAULT_SPAN_CAPACITY):
        if capacity <= 0:
            raise ValueError("span capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._ring: Deque[Tuple[int, Span]] = deque(maxlen=capacity)
        self._recorded = 0

    def record(self, span: Span) -> int:
        """Append one span; returns its sequence number."""
        with self._lock:
            sequence = self._recorded
            self._recorded += 1
            self._ring.append((sequence, span))
            return sequence

    @property
    def cursor(self) -> int:
        """Total spans ever recorded (the next ``since`` cursor)."""
        with self._lock:
            return self._recorded

    def since(self, cursor: int = 0) -> Tuple[int, List[Span]]:
        """Spans recorded at or after ``cursor`` (ring-bounded), plus the
        new cursor to poll from next time.  Spans that aged out of the
        ring before being read are simply gone — the cursor still
        advances past them, so pollers never stall."""
        with self._lock:
            spans = [span for sequence, span in self._ring
                     if sequence >= cursor]
            return self._recorded, spans

    def snapshot(self) -> List[Span]:
        with self._lock:
            return [span for _, span in self._ring]

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()

    def drain(self) -> List[Span]:
        """Remove and return every retained span (the cursor keeps
        counting)."""
        with self._lock:
            spans = [span for _, span in self._ring]
            self._ring.clear()
            return spans

    # ------------------------------------------------------------------ JSONL
    def export_jsonl(self, path) -> int:
        """Write every retained span to ``path``; returns the count."""
        spans = self.snapshot()
        with open(path, "w") as handle:
            for span in spans:
                handle.write(json.dumps(span.to_plain(),
                                        separators=(",", ":")) + "\n")
        return len(spans)


def spans_from_jsonl(text: str) -> List[Span]:
    """Parse :meth:`SpanSink.export_jsonl` output."""
    return [Span.from_plain(json.loads(line))
            for line in text.splitlines() if line.strip()]


__all__ = [
    "DEFAULT_SPAN_CAPACITY",
    "Span",
    "SpanSink",
    "new_id",
    "spans_from_jsonl",
]
