"""Persistent, content-addressed on-disk CAD artifact store.

:class:`DiskArtifactStore` is the second tier under
:class:`~repro.cad.artifacts.CadArtifactCache`: per-stage CAD artifacts
(synthesis results, placements, routings, implementations — and memoized
:class:`~repro.cad.artifacts.CapacityRejection` markers) are written
through to disk under the *same* per-stage content digests the in-memory
tier uses (:mod:`repro.cad.keys`), so a second **run** — a fresh process,
or a gateway restarted on another day — warms straight from disk instead
of re-synthesizing, just as a second *sweep* warms from memory.

Design points:

* **one file per entry** — ``<stage>-<key>.art`` inside the store root.
  Every file is self-describing: an 8-byte ``WARPDISK`` magic, a 2-byte
  big-endian schema version, then a zlib-compressed pickle of the
  artifact.  A version this build does not understand is rejected
  *loudly* (:class:`DiskStoreSchemaError`), never silently treated as a
  miss: a silent miss would hide that an upgrade quietly threw away a
  multi-gigabyte warm store.
* **atomic writes** — entries are written to a unique temporary name in
  the same directory and published with :func:`os.replace`, so readers
  only ever see complete entries and concurrent writers of the same
  content (which is byte-identical by construction) cannot corrupt each
  other.
* **cross-process safety** — mutating operations (publish + eviction)
  serialize on an ``flock``-ed lockfile, so many worker processes and
  gateways can share one store directory.  On platforms without
  :mod:`fcntl` the lock degrades to a no-op; atomic renames alone keep
  readers safe there.
* **size-bounded LRU by mtime** — reads touch the entry's mtime; when
  the store grows past ``max_bytes`` the oldest-mtime entries are
  evicted until it fits.

Trust model: store entries hold real repo classes and are unpickled
normally.  The store is a *local cache directory* with filesystem
permissions, not a network input — do not point it at untrusted data.
Nothing travels the wire protocol as a pickle; the wire carries JSON
only.
"""

from __future__ import annotations

import io
import os
import pickle
import time
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .. import chaos, obs

try:  # POSIX: real cross-process locking.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

#: Magic prefix of every entry file.
STORE_MAGIC = b"WARPDISK"
#: Current entry schema version (bump on any payload layout change and
#: keep a reader for the old one or keep rejecting it loudly).
STORE_SCHEMA_VERSION = 1
_HEADER_BYTES = len(STORE_MAGIC) + 2

#: Default size bound (bytes) before mtime-LRU eviction kicks in.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: Orphaned ``*.tmp`` files older than this are garbage-collected when a
#: store opens.  Fresh tmps are left alone: another process may be
#: between its tmp-write and its atomic rename right now.
DEFAULT_TMP_MAX_AGE_S = 3600.0


class DiskStoreError(Exception):
    """Raised when the store directory or an entry cannot be used."""


class DiskStoreSchemaError(DiskStoreError):
    """An entry (or the store marker) has an unsupported schema version."""


class DiskArtifactStore:
    """A size-bounded, content-addressed artifact store in one directory.

    The public surface is the stage-entry protocol
    :class:`~repro.cad.artifacts.CadArtifactCache` consumes —
    :meth:`stage_get` / :meth:`stage_put` — plus accounting.  Keys are the
    per-stage content digests of :mod:`repro.cad.keys`; the store never
    interprets them beyond using them as file names.
    """

    def __init__(self, root, max_bytes: Optional[int] = DEFAULT_MAX_BYTES,
                 quarantine_corrupt: bool = True,
                 tmp_max_age_s: float = DEFAULT_TMP_MAX_AGE_S):
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive (or None, unbounded)")
        self.root = Path(root)
        self.max_bytes = max_bytes
        #: When set (the default), a corrupt/truncated entry is moved
        #: aside and reported as a miss instead of raising — the caller
        #: recomputes, the flow survives.  Schema-version mismatches are
        #: never quarantined: those are a build/store disagreement and
        #: must stay loud.  Disable to get the raising behaviour back
        #: (the chaos harness does, to prove the faults are real).
        self.quarantine_corrupt = quarantine_corrupt
        self.tmp_max_age_s = tmp_max_age_s
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.evictions = 0
        #: Corrupt/truncated entries quarantined at read time.
        self.corrupt_entries = 0
        #: Orphaned tmp files removed by the open-time GC.
        self.orphan_tmp_removed = 0
        #: Running size estimate so a write only pays a full directory
        #: scan when the bound is (approximately) crossed.  Other
        #: processes' writes are invisible to it, but eviction itself
        #: rescans under the lock, so the bound stays authoritative.
        self._approx_bytes: Optional[int] = None
        self.root.mkdir(parents=True, exist_ok=True)
        self._check_marker()
        self._collect_orphan_tmps()

    # ----------------------------------------------------------------- marker
    def _marker_path(self) -> Path:
        return self.root / "WARPDISK.schema"

    def _check_marker(self) -> None:
        """Validate (or create) the store-level schema marker.

        The marker makes a whole-directory version mismatch fail at
        *open* time with one clear message instead of per entry.
        """
        marker = self._marker_path()
        if marker.exists():
            text = marker.read_text().strip()
            if text != str(STORE_SCHEMA_VERSION):
                raise DiskStoreSchemaError(
                    f"artifact store at {self.root} has schema version "
                    f"{text!r} but this build reads version "
                    f"{STORE_SCHEMA_VERSION}; delete the store directory to "
                    f"rebuild it"
                )
            return
        with self._locked():
            if not marker.exists():
                self._publish(marker, str(STORE_SCHEMA_VERSION).encode())

    def _collect_orphan_tmps(self) -> None:
        """Remove stale ``.*.tmp`` files left by writers that died between
        the tmp-write and the atomic rename.  Age-gated: a fresh tmp may
        belong to a live writer in another process."""
        if self.tmp_max_age_s is None:
            return
        cutoff = time.time() - self.tmp_max_age_s
        for tmp in self.root.glob(".*.tmp"):
            try:
                if tmp.stat().st_mtime >= cutoff:
                    continue
                tmp.unlink()
            except FileNotFoundError:  # pragma: no cover - concurrent GC
                continue
            self.orphan_tmp_removed += 1

    # ------------------------------------------------------------------ paths
    def _entry_path(self, stage: str, key: str) -> Path:
        name = f"{stage}-{key}"
        if os.sep in name or (os.altsep and os.altsep in name):
            raise DiskStoreError(f"invalid entry name {name!r}")
        return self.root / f"{name}.art"

    # ------------------------------------------------------------------- lock
    @contextmanager
    def _locked(self):
        """Serialize mutations across processes via flock (no-op without
        fcntl; atomic renames still keep readers consistent there)."""
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            yield
            return
        lock_path = self.root / ".lock"
        with open(lock_path, "a+b") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    # ------------------------------------------------------------------ codec
    @staticmethod
    def _encode(value: object) -> bytes:
        body = zlib.compress(pickle.dumps(value, protocol=4), level=6)
        return (STORE_MAGIC
                + STORE_SCHEMA_VERSION.to_bytes(2, "big")
                + body)

    @staticmethod
    def _decode(blob: bytes, label: str) -> object:
        if not blob.startswith(STORE_MAGIC):
            raise DiskStoreError(f"{label}: not an artifact store entry "
                                 f"(bad magic)")
        version = int.from_bytes(
            blob[len(STORE_MAGIC):_HEADER_BYTES], "big")
        if version != STORE_SCHEMA_VERSION:
            raise DiskStoreSchemaError(
                f"{label}: entry schema version {version} is not supported "
                f"(this build reads version {STORE_SCHEMA_VERSION}); delete "
                f"the store directory to rebuild it"
            )
        try:
            return pickle.Unpickler(
                io.BytesIO(zlib.decompress(blob[_HEADER_BYTES:]))).load()
        except Exception as error:
            raise DiskStoreError(f"{label}: corrupt entry payload: "
                                 f"{error}") from error

    def _publish(self, path: Path, blob: bytes) -> None:
        if chaos.ACTIVE_PLAN is not None:
            injection = chaos.fire(chaos.SITE_STORE_PUBLISH, label=path.name)
            if injection is not None:
                if injection.kind == "truncate":
                    blob = injection.mangle(blob)
                elif injection.kind == "orphan":
                    # Model a writer dying between tmp-write and rename:
                    # the tmp is left behind, the entry never appears.
                    orphan = path.with_name(
                        f".{path.name}.{os.getpid()}.tmp")
                    orphan.write_bytes(blob)
                    return
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        tmp.write_bytes(blob)
        os.replace(tmp, path)

    # ---------------------------------------------------------------- entries
    def stage_get(self, stage: str, key: str) -> Optional[object]:
        """Fetch one stage entry, or ``None`` on a miss.

        A hit refreshes the entry's mtime (the LRU clock).  A truncated,
        zero-length or undecodable entry is **quarantined** (moved to
        ``<name>.quarantine``, counted in ``corrupt_entries``) and
        reported as a miss so the caller recomputes — unless
        ``quarantine_corrupt`` is off, in which case it raises
        :class:`DiskStoreError`.  Unsupported schema versions always
        raise :class:`DiskStoreSchemaError`: the build and the store
        disagree, and recomputing would silently discard a warm store.
        """
        if obs.ACTIVE is None:
            return self._stage_get(stage, key)[0]
        start = time.perf_counter()
        outcome = "miss"
        try:
            value, outcome = self._stage_get(stage, key)
            return value
        finally:
            # Nests under the caller's open span (the CAD stage that
            # missed in memory), joining the job's trace.
            obs.record_span("store-load",
                            time.perf_counter() - start, stage=stage,
                            outcome="hit" if outcome == "disk" else outcome)

    def _stage_get(self, stage: str,
                   key: str) -> Tuple[Optional[object], str]:
        """``(value, outcome)``: the outcome (``disk``, ``miss`` or
        ``corrupt``) labels the store-load span."""
        path = self._entry_path(stage, key)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            self.misses += 1
            return None, "miss"
        if chaos.ACTIVE_PLAN is not None:
            injection = chaos.fire(chaos.SITE_STORE_LOAD, label=path.name)
            if injection is not None:
                # Corrupt the payload, not the header: header damage is
                # bit-rot too, but a flipped schema byte would look like
                # a version mismatch, which is a different (loud) path.
                if len(blob) > _HEADER_BYTES:
                    blob = (blob[:_HEADER_BYTES]
                            + injection.mangle(blob[_HEADER_BYTES:]))
                else:
                    blob = injection.mangle(blob)
        try:
            value = self._decode(blob, str(path))
        except DiskStoreSchemaError:
            raise
        except DiskStoreError:
            if not self.quarantine_corrupt:
                raise
            self._quarantine(path)
            self.corrupt_entries += 1
            self.misses += 1
            return None, "corrupt"
        try:
            os.utime(path)
        except OSError:  # pragma: no cover - entry evicted under our feet
            pass
        self.hits += 1
        return value, "disk"

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside (``<name>.quarantine``) so the next
        lookup recomputes instead of re-tripping on it, while the bad
        bytes stay on disk for a post-mortem."""
        try:
            os.replace(path, path.with_name(path.name + ".quarantine"))
        except FileNotFoundError:  # pragma: no cover - evicted meanwhile
            pass

    def stage_put(self, stage: str, key: str, value: object) -> None:
        """Publish one stage entry atomically, then enforce the size bound
        (the full-directory eviction scan runs only when the running size
        estimate crosses ``max_bytes``, not on every write)."""
        if obs.ACTIVE is None:
            return self._stage_put(stage, key, value)
        start = time.perf_counter()
        try:
            return self._stage_put(stage, key, value)
        finally:
            obs.record_span("store-publish",
                            time.perf_counter() - start, stage=stage)

    def _stage_put(self, stage: str, key: str, value: object) -> None:
        path = self._entry_path(stage, key)
        blob = self._encode(value)
        with self._locked():
            self._publish(path, blob)
            self.writes += 1
            if self.max_bytes is None:
                return
            if self._approx_bytes is None:
                self._approx_bytes = self.size_bytes()
            else:
                self._approx_bytes += len(blob)
            if self._approx_bytes > self.max_bytes:
                self._approx_bytes = self._evict_locked()

    # --------------------------------------------------------------- eviction
    def _entries(self) -> List[Tuple[Path, int, float]]:
        entries = []
        for path in self.root.glob("*.art"):
            try:
                status = path.stat()
            except FileNotFoundError:  # pragma: no cover - concurrent evict
                continue
            entries.append((path, status.st_size, status.st_mtime))
        return entries

    def _evict_locked(self) -> int:
        """Evict oldest-mtime entries until the store fits; returns the
        store's measured size afterwards."""
        entries = self._entries()
        total = sum(size for _, size, _ in entries)
        if self.max_bytes is None or total <= self.max_bytes:
            return total
        # Oldest mtime first; ties broken by name for determinism.
        for path, size, _ in sorted(entries,
                                    key=lambda item: (item[2], item[0].name)):
            if total <= self.max_bytes:
                break
            try:
                path.unlink()
            except FileNotFoundError:  # pragma: no cover - concurrent evict
                continue
            total -= size
            self.evictions += 1
        return total

    def clear(self) -> None:
        """Drop every entry (the schema marker stays) and reset counters."""
        with self._locked():
            for path, _, _ in self._entries():
                try:
                    path.unlink()
                except FileNotFoundError:  # pragma: no cover
                    pass
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.evictions = 0
        self.corrupt_entries = 0
        self.orphan_tmp_removed = 0
        self._approx_bytes = None

    # -------------------------------------------------------------- accounting
    def __len__(self) -> int:
        return len(self._entries())

    def size_bytes(self) -> int:
        return sum(size for _, size, _ in self._entries())

    def stats(self) -> Dict:
        entries = self._entries()        # one directory scan for both
        return {
            "root": str(self.root),
            "schema": STORE_SCHEMA_VERSION,
            "entries": len(entries),
            "size_bytes": sum(size for _, size, _ in entries),
            "max_bytes": self.max_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "evictions": self.evictions,
            "corrupt_entries": self.corrupt_entries,
            "orphan_tmp_removed": self.orphan_tmp_removed,
        }
