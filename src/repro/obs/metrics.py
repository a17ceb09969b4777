"""Lock-safe metrics registry: counters, gauges, histograms.

A :class:`MetricsRegistry` holds labeled metric *families* —
:class:`Counter`, :class:`Gauge`, :class:`Histogram` — behind one lock,
and renders them to a plain-JSON :meth:`~MetricsRegistry.snapshot` that
travels the wire protocol, pool job results and the Prometheus text
exposition unchanged.

Design points:

* **labels are the identity** — a family is one name + kind; each
  distinct label combination is one sample.  Label values are coerced
  to strings (that is what they are on every exposition surface).
* **fixed histogram bounds** — bucket bounds are set at family creation
  and never change, so snapshots from different processes merge by
  plain element-wise addition (:func:`merge_snapshots`).
* **plain JSON snapshots** — a snapshot is a dict of families, each
  ``{"kind", "help", "samples": [{"labels", ...}]}``; nothing in it
  needs the registry to be interpreted, so cross-process aggregation is
  just merging the dicts pool workers send back with their results.
* **merge semantics** — counters and histograms add; gauges add too
  (process-local gauges like a worker's cache size sum to the fleet
  value, and single-writer gauges like the gateway's queue depth are
  only ever set in one process, so the sum *is* the value).

The registry is threadsafe (one re-entrant lock around every mutation
and the snapshot), not lock-free: metric updates are gated off the hot
path entirely when no telemetry sink is installed (see
:mod:`repro.obs`), so the lock only costs when someone asked to watch.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from typing import Dict, Iterable, List, Sequence, Tuple

#: Default histogram bucket bounds (seconds): spans the microsecond gate
#: costs up to multi-second cold CAD flows.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class MetricError(ValueError):
    """A metric family was used inconsistently (kind or bounds clash)."""


def _label_key(labels: Dict[str, object]) -> Tuple[Tuple[str, str], ...]:
    """Canonical sample identity: sorted ``(name, str(value))`` pairs."""
    return tuple(sorted((str(name), str(value))
                        for name, value in labels.items()))


class _Family:
    """Shared base: one named family of labeled samples."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str, lock: threading.RLock):
        self.name = name
        self.help = help_text
        self._lock = lock
        self._samples: Dict[Tuple[Tuple[str, str], ...], object] = {}

    def _sample_payloads(self) -> List[Dict]:
        raise NotImplementedError

    def to_plain(self) -> Dict:
        return {"kind": self.kind, "help": self.help,
                "samples": self._sample_payloads()}


class Counter(_Family):
    """A monotonically increasing sum per label combination."""

    kind = "counter"

    def inc(self, value: float = 1.0, **labels) -> None:
        if value < 0:
            raise MetricError(f"counter {self.name!r} cannot decrease "
                              f"(inc by {value})")
        key = _label_key(labels)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0.0) + value

    def value(self, **labels) -> float:
        with self._lock:
            return self._samples.get(_label_key(labels), 0.0)

    def _sample_payloads(self) -> List[Dict]:
        return [{"labels": dict(key), "value": value}
                for key, value in sorted(self._samples.items())]


class Gauge(_Family):
    """A point-in-time value per label combination (set, not summed)."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        with self._lock:
            self._samples[_label_key(labels)] = float(value)

    def inc(self, value: float = 1.0, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0.0) + value

    def value(self, **labels) -> float:
        with self._lock:
            return self._samples.get(_label_key(labels), 0.0)

    def _sample_payloads(self) -> List[Dict]:
        return [{"labels": dict(key), "value": value}
                for key, value in sorted(self._samples.items())]


class Histogram(_Family):
    """Fixed-bound bucketed observations per label combination.

    Per-bucket counts are stored non-cumulative (they add trivially when
    merging snapshots); the Prometheus exposition cumulates at render
    time, as the format requires.
    """

    kind = "histogram"

    def __init__(self, name: str, help_text: str, lock: threading.RLock,
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        super().__init__(name, help_text, lock)
        bounds = tuple(float(bound) for bound in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise MetricError(f"histogram {name!r} bounds must be a "
                              f"non-empty strictly increasing sequence")
        self.bounds = bounds

    def observe(self, value: float, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            state = self._samples.get(key)
            if state is None:
                state = {"counts": [0] * (len(self.bounds) + 1),
                         "sum": 0.0, "count": 0}
                self._samples[key] = state
            state["counts"][bisect_right(self.bounds, value)] += 1
            state["sum"] += value
            state["count"] += 1

    def _sample_payloads(self) -> List[Dict]:
        return [{"labels": dict(key), "counts": list(state["counts"]),
                 "sum": state["sum"], "count": state["count"]}
                for key, state in sorted(self._samples.items())]

    def to_plain(self) -> Dict:
        payload = super().to_plain()
        payload["bounds"] = list(self.bounds)
        return payload


_KINDS = {family.kind: family for family in (Counter, Gauge, Histogram)}


class MetricsRegistry:
    """One process's metric families behind one lock."""

    def __init__(self):
        self._lock = threading.RLock()
        self._families: Dict[str, _Family] = {}

    # ------------------------------------------------------------- families
    def _family(self, cls, name: str, help_text: str, **kwargs) -> _Family:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = cls(name, help_text, self._lock, **kwargs)
                self._families[name] = family
            elif not isinstance(family, cls):
                raise MetricError(
                    f"metric {name!r} is a {family.kind}, not a {cls.kind}")
            return family

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._family(Counter, name, help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._family(Gauge, name, help_text)

    def histogram(self, name: str, help_text: str = "",
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        family = self._family(Histogram, name, help_text, buckets=buckets)
        if family.bounds != tuple(float(bound) for bound in buckets):
            raise MetricError(f"histogram {name!r} already exists with "
                              f"different bucket bounds")
        return family

    def clear(self) -> None:
        with self._lock:
            self._families.clear()

    # ------------------------------------------------------------- snapshot
    def snapshot(self) -> Dict[str, Dict]:
        """Plain-JSON view of every family (safe to serialize/merge)."""
        with self._lock:
            return {name: family.to_plain()
                    for name, family in sorted(self._families.items())}


# --------------------------------------------------------------------- merging
def merge_snapshots(snapshots: Iterable[Dict[str, Dict]]) -> Dict[str, Dict]:
    """Aggregate plain snapshots (e.g. one per worker process) into one.

    Counters, gauges and histogram states add per label combination;
    histogram bounds must agree (they are fixed at family creation by the
    same code in every process).  Kind clashes raise :class:`MetricError`
    — they can only come from mixing incompatible builds.
    """
    merged: Dict[str, Dict] = {}
    for snapshot in snapshots:
        for name, family in snapshot.items():
            into = merged.get(name)
            if into is None:
                merged[name] = {
                    "kind": family["kind"],
                    "help": family.get("help", ""),
                    **({"bounds": list(family["bounds"])}
                       if "bounds" in family else {}),
                    "samples": [dict(sample, labels=dict(sample["labels"]))
                                for sample in family["samples"]],
                }
                continue
            if into["kind"] != family["kind"]:
                raise MetricError(f"cannot merge metric {name!r}: kind "
                                  f"{family['kind']} vs {into['kind']}")
            if into.get("bounds") != family.get("bounds"):
                raise MetricError(f"cannot merge histogram {name!r}: "
                                  f"bucket bounds differ")
            by_labels = {_label_key(sample["labels"]): sample
                         for sample in into["samples"]}
            for sample in family["samples"]:
                key = _label_key(sample["labels"])
                existing = by_labels.get(key)
                if existing is None:
                    sample = dict(sample, labels=dict(sample["labels"]))
                    into["samples"].append(sample)
                    by_labels[key] = sample
                elif "value" in sample:
                    existing["value"] += sample["value"]
                else:
                    existing["counts"] = [a + b for a, b in
                                          zip(existing["counts"],
                                              sample["counts"])]
                    existing["sum"] += sample["sum"]
                    existing["count"] += sample["count"]
    for family in merged.values():
        family["samples"].sort(key=lambda s: _label_key(s["labels"]))
    return merged


# ------------------------------------------------------------------ exposition
def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r'\"') \
                .replace("\n", r"\n")


def _format_value(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _label_text(labels: Dict[str, str], extra: str = "") -> str:
    parts = [f'{name}="{_escape_label(str(value))}"'
             for name, value in sorted(labels.items())]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def prometheus_text(snapshot: Dict[str, Dict]) -> str:
    """Render a snapshot in the Prometheus text exposition format."""
    lines: List[str] = []
    for name, family in sorted(snapshot.items()):
        if family.get("help"):
            lines.append(f"# HELP {name} {family['help']}")
        lines.append(f"# TYPE {name} {family['kind']}")
        if family["kind"] != "histogram":
            for sample in family["samples"]:
                lines.append(f"{name}{_label_text(sample['labels'])} "
                             f"{_format_value(sample['value'])}")
            continue
        bounds = family.get("bounds", [])
        for sample in family["samples"]:
            cumulative = 0
            for bound, count in zip(list(bounds) + ["+Inf"],
                                    sample["counts"]):
                cumulative += count
                le = _format_value(bound) if bound != "+Inf" else "+Inf"
                le_label = 'le="%s"' % le
                labels = _label_text(sample["labels"], le_label)
                lines.append(f"{name}_bucket{labels} {cumulative}")
            lines.append(f"{name}_sum{_label_text(sample['labels'])} "
                         f"{_format_value(sample['sum'])}")
            lines.append(f"{name}_count{_label_text(sample['labels'])} "
                         f"{sample['count']}")
    return "\n".join(lines) + ("\n" if lines else "")


__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "merge_snapshots",
    "prometheus_text",
]
