"""The blocking client for the warp gateway.

:class:`GatewayClient` speaks the ``WARPNET`` protocol over one TCP
connection: handshake on connect, then ``submit`` / ``status`` /
``stream_results`` / ``cache_stats`` / ``metrics`` / ``shutdown`` verbs.
Admission-control rejections surface as the typed
:class:`~repro.server.protocol.GatewayBusyError` (never a hang), and
reports/results come back as real
:class:`~repro.service.jobs.ServiceReport` /
:class:`~repro.service.jobs.ServiceResult` objects.
"""

from __future__ import annotations

import socket
from typing import Dict, Iterator, Optional, Sequence, Tuple, Union

from ..retry import RetryPolicy
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
