"""One stable SHA-256 digest helper for every content-addressing layer.

Three subsystems need the *same* notion of a stable content digest:

* the CAD flow's content addresses (:mod:`repro.cad.keys`) hash canonical
  text forms into per-stage keys;
* the worker pool's content-affinity routing
  (:meth:`repro.service.pool.WarpService._shard_index`) and the remote
  backend's gateway routing (:class:`repro.server.client.RemoteWorkerBackend`)
  map a job's content onto a shard/gateway index;
* the persistent on-disk artifact store (:mod:`repro.server.store`) names
  its entry files after the same digests.

All of them must avoid the builtin ``hash()``: string hashing is salted
per interpreter launch (``PYTHONHASHSEED``), so it is neither stable
across processes (which would scatter a distributed sweep's cache
affinity) nor across runs (which would make benchmark wall times random).
SHA-256 hex strings are stable everywhere and cheap at these sizes.
"""

from __future__ import annotations

import hashlib

__all__ = ["sha256_hex", "digest_int", "shard_index"]


def sha256_hex(*parts: str) -> str:
    """SHA-256 hex digest over NUL-separated text parts.

    The separator keeps adjacent parts from concatenating ambiguously
    (``("ab", "c")`` and ``("a", "bc")`` digest differently).
    """
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode())
        digest.update(b"\x00")
    return digest.hexdigest()


def digest_int(text: str) -> int:
    """The first 8 digest bytes as a big-endian integer (routing keys)."""
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def shard_index(text: str, shards: int) -> int:
    """Deterministic content-affinity routing: ``text`` -> shard index.

    Equal content always maps to the same shard for a given shard count,
    in every process and on every machine.
    """
    if shards <= 0:
        raise ValueError("shards must be positive")
    return digest_int(text) % shards
