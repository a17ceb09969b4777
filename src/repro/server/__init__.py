"""The networked warp service: gateway, wire protocol, clients, store.

PR 2 made warp processing a *service object*; this package makes it an
actual **service**: a process you can start, submit jobs to over TCP,
and restart without losing its CAD work.

* :mod:`~repro.server.protocol` — the versioned ``WARPNET`` wire
  protocol: length-prefixed JSON frames, handshake, verb/error shapes,
  and the job/config/WCLA codecs that keep content-addressed CAD keys
  stable across machines.  JSON only — nothing off a socket ever reaches
  a deserializer that can execute code.
* :mod:`~repro.server.gateway` — :class:`WarpGateway`, the asyncio
  server fronting a :class:`~repro.service.pool.WarpService` with
  admission control and 429-style backpressure.
* :mod:`~repro.server.client` — :class:`GatewayClient` (blocking),
  :class:`AsyncGatewayClient` (asyncio) and
  :class:`RemoteWorkerBackend`, the ``worker_fn`` backend that lets a
  local service fan jobs out to remote gateways with stable content
  affinity.
* :mod:`~repro.server.store` — :class:`DiskArtifactStore`, the
  persistent content-addressed artifact tier under
  :class:`~repro.cad.CadArtifactCache`: atomic one-file-per-entry
  writes, ``flock`` cross-process safety, mtime-LRU size bounding, and
  loud schema versioning.

CLI front ends: ``repro-warp serve`` / ``submit`` / ``remote-suite``
(:mod:`repro.service.cli`).
"""

from .client import (
    AsyncGatewayClient,
    GatewayClient,
    RemoteWorkerBackend,
    close_pooled_clients,
    parse_address,
)
from .gateway import DEFAULT_QUEUE_LIMIT, WarpGateway, start_gateway_thread
from .protocol import (
    GatewayBusyError,
    GatewayDrainingError,
    HandshakeError,
    MAX_FRAME_BYTES,
    PROTOCOL_MAGIC,
    PROTOCOL_VERSION,
    ProtocolError,
    RemoteError,
)
from .store import (
    DEFAULT_MAX_BYTES,
    DiskArtifactStore,
    DiskStoreError,
    DiskStoreSchemaError,
    STORE_MAGIC,
    STORE_SCHEMA_VERSION,
)

__all__ = [
    "AsyncGatewayClient",
    "GatewayClient",
    "RemoteWorkerBackend",
    "close_pooled_clients",
    "parse_address",
    "DEFAULT_QUEUE_LIMIT",
    "WarpGateway",
    "start_gateway_thread",
    "GatewayBusyError",
    "GatewayDrainingError",
    "HandshakeError",
    "MAX_FRAME_BYTES",
    "PROTOCOL_MAGIC",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RemoteError",
    "DEFAULT_MAX_BYTES",
    "DiskArtifactStore",
    "DiskStoreError",
    "DiskStoreSchemaError",
    "STORE_MAGIC",
    "STORE_SCHEMA_VERSION",
]
