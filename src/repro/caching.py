"""Shared bounded-LRU cache used by every memoization layer of the repo.

Three layers memoize expensive work across the warp service:

* the compiler cache (:func:`repro.compiler.driver.compile_source_cached`)
  memoizes source → :class:`~repro.compiler.driver.CompilationResult`;
* the CAD artifact cache (:class:`repro.cad.CadArtifactCache`) memoizes a
  kernel's synthesis / placement / routing / implementation outputs, one
  content-addressed entry per stage;
* the persistent :class:`repro.server.store.DiskArtifactStore` sits
  *under* the artifact cache as its disk tier (its mtime-LRU eviction is
  file-based, not this in-memory primitive).

The in-memory layers sit on the same primitive defined here so they share
one eviction policy, one hit/miss accounting convention, and one explicit
``clear()`` that the tests use to force cold-cache behaviour.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, Optional, Tuple

_MISSING = object()


class BoundedLRU:
    """A bounded least-recently-used mapping with hit/miss accounting.

    ``maxsize=None`` disables eviction (unbounded).  Lookups move the entry
    to the most-recently-used position; insertion beyond ``maxsize`` evicts
    the least recently used entry.  Mutations serialize on an internal
    lock: pool workers own private instances, but the gateway's concurrent
    batch executors share the serial path's process-wide caches across
    threads.  :meth:`get_or_create` deliberately runs the factory
    *outside* the lock — two threads may both compute a missed entry, but
    entries are content-addressed (both compute the identical value, last
    put wins) and a lock held across an expensive CAD stage would
    serialize the very concurrency the executors exist for.
    """

    def __init__(self, maxsize: Optional[int] = 128):
        if maxsize is not None and maxsize <= 0:
            raise ValueError("maxsize must be positive (or None for unbounded)")
        self.maxsize = maxsize
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------ basics
    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Look up ``key``, counting a hit or a miss."""
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                return default
            self.hits += 1
            self._data.move_to_end(key)
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert or refresh ``key`` (does not touch hit/miss counters)."""
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            if self.maxsize is not None and len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1

    def get_or_create(self, key: Hashable, factory: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, creating it on a miss."""
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is not _MISSING:
                self.hits += 1
                self._data.move_to_end(key)
                return value
            self.misses += 1
        value = factory()
        self.put(key, value)
        return value

    def clear(self) -> None:
        """Drop every entry and reset the accounting counters."""
        with self._lock:
            self._data.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    # -------------------------------------------------------------- accounting
    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def counters(self) -> Tuple[int, int]:
        """``(hits, misses)`` — cheap snapshot for per-job delta accounting."""
        return self.hits, self.misses

    def stats(self) -> Dict[str, Any]:
        return {
            "size": len(self._data),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
        }


def lru_memoize(maxsize: Optional[int] = 128):
    """Decorator form of :class:`BoundedLRU` for pure positional functions.

    Unlike :func:`functools.lru_cache` the backing cache is exposed as
    ``wrapper.cache`` so callers (and tests) can read the hit/miss counters
    and call ``wrapper.cache.clear()``.
    """

    def decorate(fn: Callable) -> Callable:
        cache = BoundedLRU(maxsize)

        def wrapper(*args):
            return cache.get_or_create(args, lambda: fn(*args))

        wrapper.cache = cache
        wrapper.cache_clear = cache.clear
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "memoized")
        wrapper.__doc__ = fn.__doc__
        return wrapper

    return decorate
