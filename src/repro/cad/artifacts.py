"""The content-addressed cache of CAD stage outputs.

The expensive part of a warp job is not the simulation — it is the CAD
flow the dynamic partitioning module runs for each critical region.  Two
jobs that partition *the same loop body* onto *the same WCLA* produce
identical artifacts, no matter which benchmark instance, processor core or
sweep configuration the loop came from.  :class:`CadArtifactCache`
memoizes that work per stage: each :class:`~repro.cad.flow.FlowStage`
stores its output under its own content address, so an exact repeat is
served stage by stage and a sweep that changes only a routing-relevant
parameter still serves synthesis and placement from the cache.

Capacity rejections are memoized too: a kernel that exceeds the fabric
(:class:`~repro.fabric.place.FabricCapacityError`, or a placement whose
``area.fits`` is false) stores a :class:`CapacityRejection` marker (or the
non-fitting placement itself) under the same stage address, so repeated
jobs skip re-running synthesis and placement just to fail again.

Per-run quantities — the binary patch and the modelled on-chip
partitioning time, which depend on the region's concrete addresses — stay
outside the cache.  The in-memory entries sit on the repo-wide
:class:`repro.caching.BoundedLRU`.

A *persistent* tier can be layered underneath: pass a
:class:`repro.server.store.DiskArtifactStore` (or any object with
``stage_get``/``stage_put``/``stats``, where ``stage_get`` returns
the value or ``None``) as ``store``.  Entries are written
through to it and a memory miss consults it before counting a miss, so a
fresh process — or another machine sharing the directory — starts warm.

Every lookup reports how it was satisfied with one ``SOURCE_*`` value,
which the flow copies onto the stage's record, and the cache counts each
lookup once under ``(stage, source)``.  Every counter the cache exposes
derives from that one table.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..caching import BoundedLRU
from ..fabric.place import PlacementResult

#: How a stage was satisfied (a stage record's ``source``).
SOURCE_MISS = "miss"                  # executed; cache consulted and stored
SOURCE_HIT = "hit"                    # served from an in-memory entry
SOURCE_NEGATIVE = "negative-hit"      # memoized capacity rejection replayed
SOURCE_DISK = "disk-hit"              # served by the persistent store tier
SOURCE_UNCACHED = "uncached"          # executed; no cache or uncacheable

#: The sources that count as served from the cache — the one definition
#: behind ``cad_cache_hit``, the report's stage hit rates and ``top``.
CACHE_SERVED_SOURCES = (SOURCE_HIT, SOURCE_NEGATIVE, SOURCE_DISK)

#: Bound on the in-memory stage entries of one cache.
STAGE_CACHE_ENTRIES = 1024


@dataclass(frozen=True)
class CapacityRejection:
    """Memoized negative result: this content exceeds the fabric capacity."""

    message: str


def is_negative_artifact(value: object) -> bool:
    """Whether a cached stage value records a capacity rejection.

    Only the placement stage's outputs qualify: a rejection marker, or a
    placement that completed but does not fit.  Downstream artifacts that
    merely *reference* a non-fitting placement (an implementation's
    ``area`` proxies it) must not count the same rejection again.
    """
    if isinstance(value, CapacityRejection):
        return True
    return isinstance(value, PlacementResult) and not value.area.fits


def _by_stage(counts: Dict[Tuple[str, str], int],
              *sources: str) -> Dict[str, int]:
    """Per-stage totals of a ``{(stage, source): n}`` table over
    ``sources``."""
    totals: Dict[str, int] = {}
    for (stage, source), count in sorted(counts.items()):
        if source in sources:
            totals[stage] = totals.get(stage, 0) + count
    return totals


class CadArtifactCache:
    """Bounded content-addressed store of CAD stage outputs.

    One instance is typically shared per process: the serial service path
    keeps a module-level instance, every pool worker owns its own (warmed
    for the worker's lifetime), and a
    :class:`~repro.warp.multiprocessor.MultiProcessorWarpSystem` shares one
    across its cores, mirroring the paper's single DPM serving all
    processors.  Lookups may come from several threads at once (the
    gateway's concurrent batch executors share the serial path's cache),
    so the counter table is lock-guarded and every snapshot is taken
    under that lock.
    """

    def __init__(self, store=None):
        self._stages = BoundedLRU(STAGE_CACHE_ENTRIES)
        #: Optional persistent tier under the in-memory entries (duck-typed:
        #: ``stage_get`` -> value or ``None``/``stage_put``/``stats``, e.g.
        #: :class:`repro.server.store.DiskArtifactStore`).
        self.disk_store = store
        self._lock = threading.Lock()
        self._lookups: Dict[Tuple[str, str], int] = {}
        #: Write-throughs to the persistent tier that failed (and were
        #: swallowed — persistence is an accelerator, not a dependency).
        self.store_put_errors = 0

    # ----------------------------------------------------------------- stages
    def stage_lookup(self, stage: str,
                     key: str) -> Tuple[Optional[object], str]:
        """Fetch one stage's output as ``(value, source)``.

        ``value`` is ``None`` on a miss.  A memory miss consults the
        persistent tier (when configured); a hit there promotes the entry
        into memory.  A replayed capacity rejection is a negative hit
        whichever tier held it, so ``disk-hit`` always means a usable
        artifact.
        """
        entry = f"{stage}\x00{key}"
        value = self._stages.get(entry)
        source = SOURCE_HIT
        if value is None and self.disk_store is not None:
            value = self.disk_store.stage_get(stage, key)
            if value is not None:
                self._stages.put(entry, value)
                source = SOURCE_DISK
        if value is None:
            source = SOURCE_MISS
        elif is_negative_artifact(value):
            source = SOURCE_NEGATIVE
        with self._lock:
            self._lookups[stage, source] = \
                self._lookups.get((stage, source), 0) + 1
        return value, source

    def stage_store(self, stage: str, key: str, value: object) -> None:
        self._stages.put(f"{stage}\x00{key}", value)
        if self.disk_store is not None:
            try:
                self.disk_store.stage_put(stage, key, value)
            except Exception:
                # The persistent tier is an accelerator, never a
                # dependency: a job must not fail because write-through
                # persistence failed (full disk, dead NFS mount, injected
                # publish fault).  The loss is counted, the entry still
                # lives in memory, and the next cold process recomputes.
                with self._lock:
                    self.store_put_errors += 1

    def clear(self) -> None:
        """Drop the in-memory entries and counters (the persistent store,
        when attached, keeps its entries — it has its own ``clear()``)."""
        self._stages.clear()
        with self._lock:
            self._lookups.clear()
            self.store_put_errors = 0

    # -------------------------------------------------------------- accounting
    def __len__(self) -> int:
        return len(self._stages)

    def lookup_counts(self) -> Dict[Tuple[str, str], int]:
        """Snapshot of the one counter table: ``{(stage, source): n}``."""
        with self._lock:
            return dict(self._lookups)

    @property
    def negative_hits(self) -> int:
        """Memoized capacity rejections replayed."""
        return sum(_by_stage(self.lookup_counts(), SOURCE_NEGATIVE).values())

    @property
    def disk_hits(self) -> int:
        """Stage lookups served by the persistent tier."""
        return sum(self.stage_disk_hits().values())

    def stage_counters(self) -> Dict[str, Tuple[int, int]]:
        """Per-stage ``{stage: (memory hits, misses)}``.  Memory hits
        include replayed rejections; disk hits are separate — see
        :meth:`stage_disk_hits`."""
        counts = self.lookup_counts()
        hits = _by_stage(counts, SOURCE_HIT, SOURCE_NEGATIVE)
        misses = _by_stage(counts, SOURCE_MISS)
        return {stage: (hits.get(stage, 0), misses.get(stage, 0))
                for stage in sorted(set(hits) | set(misses))}

    def stage_disk_hits(self) -> Dict[str, int]:
        """Per-stage hits served by the persistent tier."""
        return _by_stage(self.lookup_counts(), SOURCE_DISK)

    def stats(self) -> Dict:
        """Monitoring snapshot of the counter table.

        ``hits``, ``misses`` and ``hit_rate`` are totals over stage
        lookups: every cache-served source (memory, negative, disk) is a
        hit, and ``disk_hits`` breaks out the subset served by the
        persistent tier — the report's stage-table convention.
        ``per_stage`` splits the same numbers by stage.
        """
        with self._lock:
            counts = dict(self._lookups)
            put_errors = self.store_put_errors
        per_stage: Dict[str, Dict[str, int]] = {}
        for (stage, source), count in sorted(counts.items()):
            bucket = per_stage.setdefault(stage, {
                "hits": 0, "misses": 0, "disk_hits": 0})
            if source == SOURCE_MISS:
                bucket["misses"] += count
            else:
                bucket["hits"] += count
                if source == SOURCE_DISK:
                    bucket["disk_hits"] += count
        hits = sum(bucket["hits"] for bucket in per_stage.values())
        misses = sum(bucket["misses"] for bucket in per_stage.values())
        lookups = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "hit_rate": round(hits / lookups, 4) if lookups else 0.0,
            "negative_hits": sum(_by_stage(counts, SOURCE_NEGATIVE).values()),
            "disk_hits": sum(b["disk_hits"] for b in per_stage.values()),
            "store_put_errors": put_errors,
            "stages": self._stages.stats(),
            "per_stage": per_stage,
            "store": self.disk_store.stats()
                     if self.disk_store is not None else None,
        }
