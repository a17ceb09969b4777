"""Clients for the warp gateway, and the remote worker backend.

Three consumers of the ``WARPNET`` protocol live here:

* :class:`GatewayClient` — a blocking socket client: handshake on
  connect, then ``submit`` / ``status`` / ``stream_results`` /
  ``cache_stats`` / ``shutdown`` verbs.  Admission-control rejections
  surface as the typed
  :class:`~repro.server.protocol.GatewayBusyError` (never a hang), and
  reports/results come back as real
  :class:`~repro.service.jobs.ServiceReport` /
  :class:`~repro.service.jobs.ServiceResult` objects.
* :class:`AsyncGatewayClient` — the same verbs on asyncio streams, for
  callers that multiplex many gateways from one event loop.
* :class:`RemoteWorkerBackend` — the remote executor for the
  :class:`~repro.service.pool.WarpService` backend seam: a picklable
  ``worker_fn(WarpJob) -> ServiceResult`` callable that routes each job
  to one of several gateways by the same stable content digest the local
  pool uses for shard affinity
  (:func:`repro.digest.shard_index`), so repeated content lands on the
  same gateway — whose caches stay warm.  Connections are pooled
  per-process, so a backend instance shipped into pool workers reuses
  one socket per gateway per worker.
"""

from __future__ import annotations

import socket
import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..digest import shard_index
from ..retry import DEFAULT_REMOTE_POLICY, RetryPolicy
from ..service.jobs import ServiceReport, ServiceResult, WarpJob
from . import protocol

Address = Union[str, Tuple[str, int]]

#: Default I/O timeout: CAD flows on cold caches take seconds, not hours.
DEFAULT_TIMEOUT = 600.0


def parse_address(address: Address) -> Tuple[str, int]:
    """``"host:port"`` (or a ready tuple) -> ``(host, port)``."""
    if isinstance(address, tuple):
        host, port = address
        return host, int(port)
    host, separator, port = address.rpartition(":")
    if not separator or not host or not port.isdigit():
        raise ValueError(f"address {address!r} is not 'host:port'")
    return host, int(port)


# --------------------------------------------------------------------------- blocking client
class GatewayClient:
    """A blocking WARPNET client over one TCP connection.

    With a :class:`~repro.retry.RetryPolicy` attached (``retry=``), the
    request/reply verbs absorb *transient* faults — a ``busy`` rejection
    (backoff scaled by the gateway's reported queue occupancy), a dropped
    or reset connection, a timeout — by backing off and retrying on a
    fresh connection, up to the policy's bounded budget.  Re-sending a
    verb is safe: jobs are content-addressed and deterministic, so the
    worst case of a reply lost after execution is wasted gateway work,
    never a different report.  Typed non-transient errors
    (:class:`~repro.server.protocol.HandshakeError`,
    :class:`~repro.server.protocol.GatewayDrainingError`,
    :class:`~repro.server.protocol.RemoteError`) never retry.  Without a
    policy (the default) every fault surfaces immediately, as before.
    """

    def __init__(self, address: Address, timeout: float = DEFAULT_TIMEOUT,
                 retry: Optional[RetryPolicy] = None):
        self.host, self.port = parse_address(address)
        self.timeout = timeout
        self.retry = retry
        self._sock = None
        self._connect()

    def _connect(self) -> None:
        self._sock = socket.create_connection((self.host, self.port),
                                              timeout=self.timeout)
        try:
            protocol.send_frame(self._sock, protocol.hello_frame())
            protocol.check_hello(protocol.recv_frame(self._sock))
        except BaseException:
            self._sock.close()
            raise

    def _reconnect(self) -> None:
        self.close()
        self._connect()

    # ----------------------------------------------------------------- plumbing
    def _round_trip_once(self, request: Dict) -> Dict:
        protocol.send_frame(self._sock, request)
        return protocol.raise_for_error(protocol.recv_frame(self._sock))

    def _round_trip(self, request: Dict) -> Dict:
        if self.retry is None:
            return self._round_trip_once(request)
        schedule = self.retry.delays()
        reconnect = False
        while True:
            occupancy = 0.0
            try:
                # Reconnecting happens inside the guarded region: a fault
                # during the replacement handshake is as transient as the
                # one that broke the connection, and must consume an
                # attempt rather than escape the loop.
                if reconnect:
                    self._reconnect()
                    reconnect = False
                return self._round_trip_once(request)
            except protocol.HandshakeError:
                raise  # wrong peer or protocol — retrying cannot help
            except protocol.GatewayBusyError as error:
                if schedule.give_up():
                    raise
                occupancy = error.occupancy()
            except (protocol.ProtocolError, TimeoutError,
                    ConnectionError, OSError, EOFError):
                if schedule.give_up():
                    raise
                reconnect = True
            schedule.backoff(occupancy)

    def close(self) -> None:
        if self._sock is None:
            return
        try:
            self._sock.close()
        except OSError:  # pragma: no cover
            pass

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -------------------------------------------------------------------- verbs
    def submit(self, jobs: Sequence[WarpJob], wait: bool = True,
               client_id: Optional[str] = None) -> Union[ServiceReport, str]:
        """Submit a batch.  ``wait=True`` blocks for the finished
        :class:`ServiceReport`; ``wait=False`` returns the batch id.

        ``client_id`` attributes the batch to a per-client admission
        quota on the gateway; it travels as an additive request key —
        older gateways ignore it.

        Raises :class:`~repro.server.protocol.GatewayBusyError` when the
        gateway's admission queue rejects the batch.
        """
        request = {
            "verb": "submit",
            "wait": wait,
            "jobs": protocol.jobs_to_plain(jobs),
        }
        if client_id is not None:
            request["client"] = client_id
        reply = self._round_trip(request)
        if wait:
            return ServiceReport.from_plain(reply["report"])
        return reply["batch_id"]

    def status(self, batch_id: str) -> Dict:
        """Queue state of a batch; includes the report once done."""
        reply = self._round_trip({"verb": "status", "batch_id": batch_id})
        if "report" in reply:
            reply = dict(reply)
            reply["report"] = ServiceReport.from_plain(reply["report"])
        return reply

    def stream_results(self, batch_id: str) -> Iterator[ServiceResult]:
        """Yield a batch's results one frame at a time (blocks until the
        batch completes; the terminating ``done`` frame ends iteration).

        Abandoning the iterator early (``break``) drains the remaining
        frames, so the connection stays frame-aligned for later verbs.
        """
        protocol.send_frame(self._sock, {"verb": "stream-results",
                                         "batch_id": batch_id})
        protocol.raise_for_error(protocol.recv_frame(self._sock))
        drained = False
        try:
            while True:
                frame = protocol.raise_for_error(
                    protocol.recv_frame(self._sock))
                if frame.get("done"):
                    drained = True
                    return
                yield ServiceResult.from_plain(frame["result"])
        finally:
            if not drained:
                # Left mid-stream (early break, or a frame/protocol
                # error): resynchronize by reading to the done frame, or
                # close the connection so later verbs fail loudly rather
                # than misread leftover frames.
                try:
                    while True:
                        frame = protocol.recv_frame(self._sock)
                        if frame is None or frame.get("done"):
                            break
                except Exception:  # noqa: BLE001 - already broken
                    self.close()

    def cache_stats(self) -> Dict:
        """The gateway's CAD cache / store / queue statistics."""
        return self._round_trip({"verb": "cache-stats"})

    def metrics(self, since: int = 0, include_spans: bool = True) -> Dict:
        """The gateway's live telemetry snapshot.

        The reply carries the aggregated metric families (gateway process
        merged with its pool workers), queue occupancy, and — unless
        ``include_spans`` is off — the trace spans recorded since the
        ``since`` cursor, plus the ``cursor`` to poll from next time.
        """
        return self._round_trip({"verb": "metrics", "since": since,
                                 "spans": include_spans})

    def shutdown(self) -> None:
        """Ask the gateway to stop (acknowledged before it goes down)."""
        self._round_trip({"verb": "shutdown"})


# ---------------------------------------------------------------------- async client
class AsyncGatewayClient:
    """The same verbs on asyncio streams (``await connect()`` first)."""

    def __init__(self, address: Address):
        self.host, self.port = parse_address(address)
        self._reader = None
        self._writer = None

    async def connect(self) -> "AsyncGatewayClient":
        import asyncio

        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port)
        await protocol.write_frame(self._writer, protocol.hello_frame())
        protocol.check_hello(await protocol.read_frame(self._reader))
        return self

    async def _round_trip(self, request: Dict) -> Dict:
        await protocol.write_frame(self._writer, request)
        return protocol.raise_for_error(
            await protocol.read_frame(self._reader))

    async def submit(self, jobs: Sequence[WarpJob],
                     wait: bool = True) -> Union[ServiceReport, str]:
        reply = await self._round_trip({
            "verb": "submit",
            "wait": wait,
            "jobs": protocol.jobs_to_plain(jobs),
        })
        if wait:
            return ServiceReport.from_plain(reply["report"])
        return reply["batch_id"]

    async def status(self, batch_id: str) -> Dict:
        reply = await self._round_trip({"verb": "status",
                                        "batch_id": batch_id})
        if "report" in reply:
            reply = dict(reply)
            reply["report"] = ServiceReport.from_plain(reply["report"])
        return reply

    async def stream_results(self, batch_id: str):
        await protocol.write_frame(self._writer, {"verb": "stream-results",
                                                  "batch_id": batch_id})
        protocol.raise_for_error(await protocol.read_frame(self._reader))
        drained = False
        try:
            while True:
                frame = protocol.raise_for_error(
                    await protocol.read_frame(self._reader))
                if frame.get("done"):
                    drained = True
                    return
                yield ServiceResult.from_plain(frame["result"])
        finally:
            if not drained:
                try:
                    while True:
                        frame = await protocol.read_frame(self._reader)
                        if frame is None or frame.get("done"):
                            break
                except Exception:  # noqa: BLE001 - already broken
                    await self.close()

    async def cache_stats(self) -> Dict:
        return await self._round_trip({"verb": "cache-stats"})

    async def metrics(self, since: int = 0,
                      include_spans: bool = True) -> Dict:
        return await self._round_trip({"verb": "metrics", "since": since,
                                       "spans": include_spans})

    async def shutdown(self) -> None:
        await self._round_trip({"verb": "shutdown"})

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass


# ----------------------------------------------------------- per-process connections
#: Idle leased connections per gateway address, as ``(timeout, client)``
#: pairs.  The pool holds only *idle* connections: WARPNET framing is
#: strict request/reply per connection, so a connection is leased to
#: exactly one round trip at a time — two threads sharing a socket would
#: read each other's replies.
_CLIENT_POOL: Dict[Tuple[str, int], List[Tuple[float, GatewayClient]]] = {}
_CLIENT_POOL_LOCK = threading.Lock()

#: Idle connections kept per gateway address; concurrent leases beyond
#: this run on their own short-lived connections and are closed on
#: release instead of pooled.
_POOL_IDLE_CAP = 4


@contextmanager
def _pooled_client(address: Tuple[str, int], timeout: float):
    """Lease a connection to ``address`` for one request/reply exchange.

    Concurrent leases get separate sockets; a clean release returns the
    connection to the idle pool (up to :data:`_POOL_IDLE_CAP`), any
    error closes it — a connection that died (or was abandoned mid-
    exchange) must never serve a later caller a stale reply frame.
    """
    client = None
    with _CLIENT_POOL_LOCK:
        idle = _CLIENT_POOL.get(address)
        if idle:
            for index, (idle_timeout, idle_client) in enumerate(idle):
                if idle_timeout == timeout:
                    client = idle_client
                    del idle[index]
                    break
    if client is None:
        client = GatewayClient(address, timeout=timeout)
    try:
        yield client
    except BaseException:
        client.close()
        raise
    with _CLIENT_POOL_LOCK:
        idle = _CLIENT_POOL.setdefault(address, [])
        if len(idle) < _POOL_IDLE_CAP:
            idle.append((timeout, client))
            client = None
    if client is not None:
        client.close()


def _drop_pooled_client(address: Tuple[str, int]) -> None:
    """Close the idle pooled connections to ``address`` (a failure
    talking to it makes every cached connection suspect; in-flight
    leases close themselves on their own error path)."""
    with _CLIENT_POOL_LOCK:
        idle = _CLIENT_POOL.pop(address, [])
    for _, client in idle:
        client.close()


def close_pooled_clients() -> None:
    """Close every per-process pooled gateway connection (tests)."""
    with _CLIENT_POOL_LOCK:
        clients = [client for idle in _CLIENT_POOL.values()
                   for _, client in idle]
        _CLIENT_POOL.clear()
    for client in clients:
        client.close()


# ------------------------------------------------------------------ remote backend
class RemoteWorkerBackend:
    """``worker_fn`` that executes jobs on remote gateway processes.

    Implements the documented backend seam of
    :class:`~repro.service.pool.WarpService`: call it with a
    :class:`WarpJob`, get a :class:`ServiceResult` — never raises; a
    network fault comes back as a failed result, matching the local
    worker contract.  Jobs route across ``addresses`` by the stable
    content digest (same digest as pool shard affinity).

    Transient faults — a stale/reset/dropped connection, a submission
    timeout, a ``busy`` rejection — are retried on a fresh connection
    with the exponential-backoff-plus-jitter ``retry`` policy, the
    ``busy`` backoff scaled by the gateway's reported queue occupancy.
    Resubmission is idempotent: jobs are content-addressed and
    deterministic, so the worst case of a reply lost after execution is
    wasted gateway work (usually absorbed by the gateway's own cache),
    never a different result.  ``busy`` still surviving the whole budget
    is re-raised typed (backpressure is for the caller to see); a
    ``draining`` rejection never retries — that gateway wants traffic to
    stop.  Absorbed retries are counted on the returned result.

    Instances are picklable (connections live in a per-process pool, not
    on the instance), so the backend works both serially
    (``WarpService(workers=0, worker_fn=backend)`` — one job at a time
    over the wire) and pooled (``workers=len(addresses)`` — each local
    shard relays its content partition to "its" gateway concurrently).
    """

    def __init__(self, addresses: Sequence[Address],
                 timeout: float = DEFAULT_TIMEOUT,
                 retry: RetryPolicy = DEFAULT_REMOTE_POLICY):
        if not addresses:
            raise ValueError("RemoteWorkerBackend needs at least one "
                             "gateway address")
        self.addresses = [parse_address(address) for address in addresses]
        self.timeout = timeout
        self.retry = retry

    def address_for(self, job: WarpJob) -> Tuple[str, int]:
        """Content-affinity gateway routing (stable across processes)."""
        return self.addresses[shard_index(repr(job.dedup_key()),
                                          len(self.addresses))]

    def __call__(self, job: WarpJob) -> ServiceResult:
        schedule = self.retry.delays()
        address = self.address_for(job)
        while True:
            occupancy = 0.0
            try:
                result = self._submit_once(address, job)
                result.retries += schedule.attempts
                return result
            except protocol.GatewayDrainingError as error:
                return self._failed(job, address, error)
            except protocol.GatewayBusyError as error:
                if schedule.give_up():
                    raise  # backpressure is for the caller to see
                occupancy = error.occupancy()
            except protocol.HandshakeError as error:
                _drop_pooled_client(address)
                return self._failed(job, address, error)
            except (protocol.ProtocolError, TimeoutError,
                    ConnectionError, OSError, EOFError) as error:
                _drop_pooled_client(address)
                if schedule.give_up():
                    return self._failed(job, address, error)
            except Exception as error:  # noqa: BLE001 - remote fault boundary
                return self._failed(job, address, error)
            schedule.backoff(occupancy)

    def _submit_once(self, address: Tuple[str, int],
                     job: WarpJob) -> ServiceResult:
        with _pooled_client(address, self.timeout) as client:
            report = client.submit([job], wait=True)
        if not report.results:
            raise protocol.ProtocolError("gateway returned an empty report")
        return report.results[0]

    @staticmethod
    def _failed(job: WarpJob, address: Tuple[str, int],
                error: BaseException) -> ServiceResult:
        from ..service.pool import _failed_result

        return _failed_result(
            job, (f"remote gateway {address[0]}:{address[1]} failed: "
                  f"{type(error).__name__}: {error}"))

    def close(self) -> None:
        """Drop this process's pooled connections to our gateways."""
        for address in self.addresses:
            _drop_pooled_client(address)

    # Connections are per-process state; the instance itself is plain data.
    def __getstate__(self) -> Dict:
        return {"addresses": self.addresses, "timeout": self.timeout,
                "retry": self.retry}

    def __setstate__(self, state: Dict) -> None:
        self.addresses = [tuple(address) for address in state["addresses"]]
        self.timeout = state["timeout"]
        self.retry = state.get("retry", DEFAULT_REMOTE_POLICY)
