"""Unified telemetry plane for the warp service stack.

One process-wide :class:`Telemetry` object couples a
:class:`~repro.obs.metrics.MetricsRegistry` (counters, gauges,
histograms) with a :class:`~repro.obs.trace.SpanSink` (per-job trace
spans).  Every layer of the stack — scheduler, worker pool, CAD flow,
artifact store, wire protocol, gateway — reports into it, and the
``metrics`` wire verb / ``repro-warp top`` / the Prometheus exposition
read out of it.

**Zero overhead when disabled** — the same gating discipline as
:mod:`repro.chaos`: hot call sites read the module-level :data:`ACTIVE`
and compare against ``None``::

    from .. import obs
    ...
    if obs.ACTIVE is not None:
        obs.inc("warp_retries_total", site="cad-stage")

With no telemetry installed that is one module attribute load and an
``is`` check — no call, no allocation.  (:func:`span` additionally
returns a shared no-op context manager, so ``with obs.span(...)`` costs
two trivial method calls when disabled; keep it off per-instruction hot
loops and on per-stage/per-job boundaries.)

**Cross-process aggregation** — pool workers cannot write into the
parent's registry, so each job result carries their telemetry back.
Before each job the pool process calls :func:`ensure_process_telemetry`
with whether the submitting service has telemetry, which installs a
fresh per-process *worker* telemetry exactly when it does.  After every job :func:`flush_worker_telemetry` returns the
worker's full registry snapshot (idempotent totals, so a crashed worker
loses at most its in-flight job) plus the spans recorded since its last
flush; the job result carries that payload home on a transport-only
field, where the primary's :meth:`Telemetry.ingest` keeps the latest
snapshot per worker and records the spans into its own sink.
:meth:`Telemetry.collect` merges those snapshots with its own registry,
so the ``metrics`` verb sees the whole pool.

**Trace identity** — every :class:`~repro.service.jobs.WarpJob` gets a
``trace_id`` when telemetry is active; the job's root span reuses the
trace id as its span id, child spans chain ``parent_id``, and the
worker-side spans (execute, CAD stages, store I/O) join the same trace
through the job object itself — so one job's timeline reconstructs end
to end from the flat span list, across processes.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    merge_snapshots,
    prometheus_text,
)
from .trace import (
    DEFAULT_SPAN_CAPACITY,
    Span,
    SpanSink,
    new_id,
    spans_from_jsonl,
)

#: The process-wide installed telemetry, or ``None`` (the common case).
#: Hot call sites read this directly; everything else goes through
#: :func:`install` / :func:`clear`.
ACTIVE: Optional["Telemetry"] = None

#: Collectors: callables invoked with the registry right before every
#: snapshot, to publish state that lives elsewhere (cache counters,
#: compile-cache stats, chaos injection tallies) as gauge families
#: without any hot-path writes.  Registered once per module via
#: :func:`add_collector`; exceptions are swallowed — telemetry must
#: never take the service down.
_COLLECTORS: List[Callable[[MetricsRegistry], None]] = []

_CONTEXT = threading.local()


# ----------------------------------------------------------------- telemetry
class Telemetry:
    """One process's metrics registry + span sink.

    A primary telemetry also keeps the latest snapshot of every pool
    worker whose payload it has ingested; a ``worker`` telemetry instead
    ships its own with each job result (:meth:`flush`).
    """

    def __init__(self, worker: bool = False,
                 span_capacity: int = DEFAULT_SPAN_CAPACITY):
        self.registry = MetricsRegistry()
        self.spans = SpanSink(capacity=span_capacity)
        self.worker = worker
        self.owner_pid = os.getpid()
        #: Names this telemetry's process in a primary's worker table: a
        #: restarted worker may reuse a dead worker's pid, never its id.
        self.process_id = new_id()
        #: Primary side: worker ``process_id`` -> its latest snapshot.
        #: Guarded by ``_lock``: a gateway's batch threads ingest while
        #: its event loop collects.
        self._workers: Dict[str, Dict[str, Dict]] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------- snapshots
    def snapshot(self) -> Dict[str, Dict]:
        """This process's families (collectors included), no workers."""
        for collector in list(_COLLECTORS):
            try:
                collector(self.registry)
            except Exception:  # noqa: BLE001 - observability never fails work
                pass
        return self.registry.snapshot()

    def collect(self) -> Dict[str, Dict]:
        """The aggregate snapshot: this process merged with the latest
        snapshot of every ingested worker."""
        with self._lock:
            workers = list(self._workers.values())
        return merge_snapshots([self.snapshot(), *workers])

    # ------------------------------------------------------ worker -> primary
    def flush(self) -> Dict:
        """Worker side: the payload for the primary — the registry's
        *full* snapshot (totals are idempotent, so a later payload
        supersedes an earlier one) and the spans recorded since the last
        flush."""
        return {"process_id": self.process_id, "metrics": self.snapshot(),
                "spans": self.spans.drain()}

    def ingest(self, payload: Dict) -> None:
        """Primary side: fold in one worker's :meth:`flush` payload."""
        with self._lock:
            self._workers[payload["process_id"]] = payload["metrics"]
            for span in payload["spans"]:
                self.spans.record(span)


# ----------------------------------------------------------------- lifecycle
def install(telemetry: Optional[Telemetry] = None) -> Telemetry:
    """Install ``telemetry`` (or a fresh one) as this process's sink."""
    global ACTIVE
    if telemetry is None:
        telemetry = Telemetry()
    ACTIVE = telemetry
    return telemetry


def clear() -> None:
    """Deactivate telemetry in this process."""
    global ACTIVE
    ACTIVE = None


def ensure_process_telemetry(enabled: bool) -> None:
    """Set up a pool worker's telemetry for its next job.

    Called in the pool process with whether the submitting service has
    telemetry, so a worker collects exactly when its primary does.  This
    process's own primary telemetry is left alone.  A forked worker
    inherits the parent's module state — including the parent's *live*
    :data:`ACTIVE` — so anything whose ``owner_pid`` is not ours is
    replaced: with a fresh worker telemetry, or with ``None`` (the
    inherited registry would be invisible to the parent and its
    inherited counts double-reported).
    """
    global ACTIVE
    telemetry = ACTIVE
    if telemetry is not None and telemetry.owner_pid == os.getpid():
        if telemetry.worker and not enabled:
            ACTIVE = None
        return
    ACTIVE = Telemetry(worker=True) if enabled else None


def flush_worker_telemetry() -> Optional[Dict]:
    """A pool worker's telemetry payload for its primary (``None`` in
    the primary itself, whose registry is read directly)."""
    telemetry = ACTIVE
    if telemetry is not None and telemetry.worker:
        return telemetry.flush()
    return None


@contextmanager
def active_telemetry(span_capacity: int = DEFAULT_SPAN_CAPACITY):
    """Context manager: install a fresh :class:`Telemetry`, restoring the
    previous one on exit."""
    global ACTIVE
    previous = ACTIVE
    telemetry = install(Telemetry(span_capacity=span_capacity))
    try:
        yield telemetry
    finally:
        ACTIVE = previous


def add_collector(collector: Callable[[MetricsRegistry], None]) -> None:
    """Register a snapshot-time collector (idempotent by identity)."""
    if collector not in _COLLECTORS:
        _COLLECTORS.append(collector)


def remove_collector(collector: Callable[[MetricsRegistry], None]) -> None:
    try:
        _COLLECTORS.remove(collector)
    except ValueError:
        pass


# ----------------------------------------------------------- metric helpers
# Convenience wrappers over ``ACTIVE.registry``; call sites still gate on
# ``obs.ACTIVE is not None`` themselves so the disabled path never enters
# a function — these re-check only to stay safe against races.
def inc(name: str, value: float = 1.0, help_text: str = "",
        **labels) -> None:
    telemetry = ACTIVE
    if telemetry is not None:
        telemetry.registry.counter(name, help_text).inc(value, **labels)


def set_gauge(name: str, value: float, help_text: str = "",
              **labels) -> None:
    telemetry = ACTIVE
    if telemetry is not None:
        telemetry.registry.gauge(name, help_text).set(value, **labels)


def observe(name: str, value: float, help_text: str = "",
            **labels) -> None:
    telemetry = ACTIVE
    if telemetry is not None:
        telemetry.registry.histogram(name, help_text).observe(value,
                                                              **labels)


# -------------------------------------------------------------------- spans
def _span_stack() -> List[Tuple[str, str]]:
    stack = getattr(_CONTEXT, "stack", None)
    if stack is None:
        stack = []
        _CONTEXT.stack = stack
    return stack


def current_trace() -> Optional[Tuple[str, str]]:
    """The calling thread's ``(trace_id, span_id)`` context, if any."""
    stack = getattr(_CONTEXT, "stack", None)
    return stack[-1] if stack else None


def _resolve_parent(trace_id: Optional[str],
                    parent_id: Optional[str]) -> Tuple[str, Optional[str]]:
    """Fill trace/parent from the thread's span stack: an explicit trace
    id starts (or joins) that trace; otherwise nest under the current
    span; otherwise start a fresh root trace."""
    if trace_id is not None:
        return trace_id, parent_id if parent_id is not None else trace_id
    current = current_trace()
    if current is not None:
        return current[0], parent_id if parent_id is not None \
            else current[1]
    fresh = new_id()
    return fresh, parent_id


class _NoopSpan:
    """Shared do-nothing context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc_info):
        return False


_NOOP_SPAN = _NoopSpan()


class SpanHandle:
    """A live span: context manager that times its body, maintains the
    thread's span stack (children nest automatically) and records into
    the active sink on exit."""

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "attrs",
                 "_start_wall", "_start_perf")

    def __init__(self, name: str, trace_id: str, span_id: str,
                 parent_id: Optional[str], attrs: Dict[str, object]):
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self._start_wall = 0.0
        self._start_perf = 0.0

    def set(self, **attrs) -> None:
        """Attach attributes discovered while the span runs."""
        self.attrs.update(attrs)

    def __enter__(self) -> "SpanHandle":
        self._start_wall = time.time()
        self._start_perf = time.perf_counter()
        _span_stack().append((self.trace_id, self.span_id))
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        stack = _span_stack()
        if stack and stack[-1] == (self.trace_id, self.span_id):
            stack.pop()
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        telemetry = ACTIVE
        if telemetry is not None:
            telemetry.spans.record(Span(
                name=self.name, trace_id=self.trace_id,
                span_id=self.span_id, parent_id=self.parent_id,
                start_s=self._start_wall,
                duration_s=time.perf_counter() - self._start_perf,
                attrs=self.attrs))
        return False


def span(name: str, trace_id: Optional[str] = None,
         parent_id: Optional[str] = None, **attrs):
    """A live timed span (or the shared no-op when telemetry is off).

    With no explicit ids the span nests under the calling thread's
    current span; a ``trace_id`` without a ``parent_id`` parents to that
    trace's root.
    """
    if ACTIVE is None:
        return _NOOP_SPAN
    trace, parent = _resolve_parent(trace_id, parent_id)
    return SpanHandle(name, trace, new_id(), parent, dict(attrs))


def record_span(name: str, duration_s: float,
                start_s: Optional[float] = None,
                trace_id: Optional[str] = None,
                parent_id: Optional[str] = None,
                span_id: Optional[str] = None, **attrs) -> Optional[str]:
    """Record an already-measured span post hoc (for call sites that
    keep their own clocks).  Returns the span id, or ``None`` when
    telemetry is off."""
    telemetry = ACTIVE
    if telemetry is None:
        return None
    trace, parent = _resolve_parent(trace_id, parent_id)
    identity = span_id if span_id is not None else new_id()
    if identity == trace and parent_id is None:
        parent = None  # a root span (span id == trace id) has no parent
    if start_s is None:
        start_s = time.time() - duration_s
    telemetry.spans.record(Span(
        name=name, trace_id=trace, span_id=identity, parent_id=parent,
        start_s=start_s, duration_s=duration_s, attrs=dict(attrs)))
    return identity


def new_trace_id() -> str:
    return new_id()


__all__ = [
    "ACTIVE",
    "Counter",
    "DEFAULT_BUCKETS",
    "DEFAULT_SPAN_CAPACITY",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "Span",
    "SpanHandle",
    "SpanSink",
    "Telemetry",
    "active_telemetry",
    "add_collector",
    "clear",
    "current_trace",
    "ensure_process_telemetry",
    "flush_worker_telemetry",
    "inc",
    "install",
    "merge_snapshots",
    "new_trace_id",
    "observe",
    "prometheus_text",
    "record_span",
    "remove_collector",
    "set_gauge",
    "span",
]
