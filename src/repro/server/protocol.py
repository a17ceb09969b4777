"""The ``WARPNET`` wire protocol: length-prefixed JSON frames.

Every message on a gateway connection is one *frame*: a 4-byte big-endian
length followed by that many bytes of UTF-8 JSON.  JSON (not pickle)
deliberately: a gateway listens on a socket, and nothing read off a
socket may ever reach a deserializer that can execute code.  The frame
codec is shared by the blocking client, the asyncio client and the
gateway, in both directions.

Connection lifecycle::

    client                         gateway
    ------                         -------
    {"magic": "WARPNET",
     "version": 1}          ->
                            <-     {"magic": "WARPNET", "version": 1,
                                    "ok": true}
    {"verb": "submit", ...} ->
                            <-     {"ok": true, ...}        (or rejection)
    ...                            (any number of verbs per connection)

The handshake is versioned: a gateway that does not speak the client's
protocol version answers ``{"ok": false, "error": "version-mismatch"}``
and closes, so old clients fail with one clear message instead of a
JSON parse error three verbs later.

Verbs (the request's ``"verb"`` field): ``submit`` (a batch of jobs;
``wait`` for the report, or get a ``batch_id`` back), ``status``,
``stream-results`` (one frame per result, then a ``done`` frame),
``cache-stats``, ``metrics`` (the live telemetry snapshot: aggregated
metric families plus trace spans since a ``since`` cursor; pass
``"spans": false`` to skip span payloads), the mesh verbs ``mesh-join``
(announce a gateway address; the reply carries the receiver's member
list), ``mesh-peers`` (membership + ring version + peer-fetch counters)
and ``mesh-fetch`` (one raw store entry blob, base64 inside the JSON
frame — additive verbs per the versioning discipline below, NOT a
version bump), and ``shutdown``.  A ``submit`` may carry the additive
``client`` (per-client quota attribution) and ``route``/``forwarded``
keys (``route="ring"`` lets a mesh gateway forward a stale-ring
submission to the ring owner; the reply then gains ``forwarded_to``).
Error replies are
``{"ok": false, "error": <kind>, "message": ...}``; the admission-control
rejection additionally carries ``"code": 429`` and the queue occupancy so
clients can implement typed backpressure handling
(:class:`GatewayBusyError`).

Job and result payloads travel as plain JSON objects.  A job's processor
configuration and WCLA parameters are serialized field-by-field
(nested frozen dataclasses), so a job constructed on one machine
reconstructs bit-identically on another — which is what keeps the
content-addressed CAD keys, and therefore the distributed cache affinity,
stable across the wire.
"""

from __future__ import annotations

import dataclasses
import json
import socket
import struct
from typing import Any, Dict, List, Optional, Sequence

from .. import chaos
from ..fabric.architecture import FabricParameters, WclaParameters
from ..microblaze.config import MicroBlazeConfig, PipelineTimings
from ..service.jobs import JobSpecError, WarpJob

#: Handshake magic and protocol version (bump on any frame-shape change).
#:
#: Versioning discipline: the version bumps only when an existing frame
#: shape changes incompatibly.  *Adding* reply keys is explicitly not a
#: bump — payloads are JSON objects and every decoder reads them with
#: ``.get()``, so old clients ignore keys they do not know.  This is how
#: the ``busy`` rejection grew ``queue_depth``/``queue_limit`` and the
#: ``draining`` rejection was introduced without breaking version-1
#: clients: an old client still sees a well-formed error reply; only new
#: clients exploit the extra fields for proportional backoff.
PROTOCOL_MAGIC = "WARPNET"
PROTOCOL_VERSION = 1

#: Upper bound on one frame's payload; a length prefix beyond this is
#: treated as a corrupt/hostile stream, not an allocation request.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct(">I")


# --------------------------------------------------------------------------- errors
class ProtocolError(Exception):
    """The peer sent bytes that are not valid WARPNET frames."""


class HandshakeError(ProtocolError):
    """The peer speaks a different protocol (or none at all)."""


class GatewayBusyError(Exception):
    """Typed 429-style rejection: the gateway's admission queue is full.

    Carries the gateway's queue occupancy so callers can back off
    intelligently instead of string-matching an error message.
    """

    def __init__(self, message: str, pending_jobs: int = 0,
                 queue_limit: int = 0, queue_depth: Optional[int] = None):
        super().__init__(message)
        self.pending_jobs = pending_jobs
        self.queue_limit = queue_limit
        #: Jobs currently queued; falls back to ``pending_jobs`` for
        #: replies from gateways that predate the field.
        self.queue_depth = pending_jobs if queue_depth is None \
            else queue_depth

    def occupancy(self) -> float:
        """Queue fullness in [0, 1] — drives proportional client backoff."""
        if self.queue_limit <= 0:
            return 1.0
        return min(1.0, self.queue_depth / self.queue_limit)


class GatewayDrainingError(Exception):
    """Typed rejection: the gateway is draining — it is finishing the
    batch already running but accepts no new submissions.  Not a
    transient fault: retrying against the same gateway is pointless,
    callers should fail over or report the job as rejected."""


class RemoteError(Exception):
    """The gateway answered a verb with a non-busy error reply."""

    def __init__(self, kind: str, message: str):
        super().__init__(f"{kind}: {message}")
        self.kind = kind


# --------------------------------------------------------------------------- frame codec
def encode_frame(payload: Dict[str, Any]) -> bytes:
    """One frame: 4-byte big-endian length + compact UTF-8 JSON."""
    body = json.dumps(payload, separators=(",", ":")).encode()
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(body)} bytes exceeds the "
                            f"{MAX_FRAME_BYTES}-byte limit")
    return _LENGTH.pack(len(body)) + body


def decode_body(body: bytes) -> Dict[str, Any]:
    try:
        payload = json.loads(body.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"frame body is not valid JSON: {error}") \
            from error
    if not isinstance(payload, dict):
        raise ProtocolError("frame body must be a JSON object")
    return payload


def frame_length(prefix: bytes) -> int:
    """Validate and decode the 4-byte length prefix."""
    (length,) = _LENGTH.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame length {length} exceeds the "
                            f"{MAX_FRAME_BYTES}-byte limit")
    return length


# ------------------------------------------------------------- blocking transport
#
# The wire injection sites live on the *blocking* transport — the client
# boundary of the channel.  Faulting either direction here exercises the
# full channel (a truncated write reaches the gateway as an EOF
# mid-frame; an injected reset on read is what a dropped gateway reply
# looks like), and it is the side that owns a retry policy.


def _abort_socket(sock) -> None:
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass


def send_frame(sock, payload: Dict[str, Any]) -> None:
    blob = encode_frame(payload)
    if chaos.ACTIVE_PLAN is not None:
        injection = chaos.fire(chaos.SITE_WIRE_WRITE,
                               label=str(payload.get("verb", "")))
        if injection is not None and injection.kind == "truncate":
            sock.sendall(injection.mangle(blob))
            _abort_socket(sock)
            raise ConnectionResetError(
                "chaos: frame truncated on the wire")
    sock.sendall(blob)


def _recv_exactly(sock, count: int) -> Optional[bytes]:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if remaining == count and not chunks:
                return None  # clean EOF on a frame boundary
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock) -> Optional[Dict[str, Any]]:
    """Read one frame; ``None`` on a clean EOF at a frame boundary."""
    if chaos.ACTIVE_PLAN is not None:
        # "reset" rules raise ConnectionResetError from fire(); a
        # data-shape injection on the read side means the peer's frame
        # was cut short, which a real reader sees as a mid-frame close.
        injection = chaos.fire(chaos.SITE_WIRE_READ)
        if injection is not None:
            _abort_socket(sock)
            raise ProtocolError("chaos: connection closed mid-frame")
    prefix = _recv_exactly(sock, _LENGTH.size)
    if prefix is None:
        return None
    body = _recv_exactly(sock, frame_length(prefix))
    if body is None:
        raise ProtocolError("connection closed mid-frame")
    return decode_body(body)


# --------------------------------------------------------------- async transport
async def write_frame(writer, payload: Dict[str, Any]) -> None:
    writer.write(encode_frame(payload))
    await writer.drain()


async def read_frame(reader) -> Optional[Dict[str, Any]]:
    """Read one frame; ``None`` on a clean EOF at a frame boundary."""
    import asyncio

    try:
        prefix = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise ProtocolError("connection closed mid-frame") from error
    try:
        body = await reader.readexactly(frame_length(prefix))
    except asyncio.IncompleteReadError as error:
        raise ProtocolError("connection closed mid-frame") from error
    return decode_body(body)


# ------------------------------------------------------------------- handshake
def hello_frame() -> Dict[str, Any]:
    return {"magic": PROTOCOL_MAGIC, "version": PROTOCOL_VERSION}


def check_hello(frame: Optional[Dict[str, Any]]) -> None:
    """Validate the peer's handshake frame (either direction)."""
    if frame is None:
        raise HandshakeError("peer closed the connection before the "
                             "WARPNET handshake")
    if frame.get("magic") != PROTOCOL_MAGIC:
        raise HandshakeError(f"peer is not a WARPNET endpoint "
                             f"(magic={frame.get('magic')!r})")
    if frame.get("version") != PROTOCOL_VERSION:
        raise HandshakeError(
            f"protocol version mismatch: peer speaks WARPNET "
            f"{frame.get('version')!r}, this build speaks "
            f"{PROTOCOL_VERSION}"
        )
    if frame.get("ok") is False:
        raise HandshakeError(f"gateway refused the handshake: "
                             f"{frame.get('message', 'no reason given')}")


def raise_for_error(reply: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """Turn an error reply into the matching typed exception."""
    if reply is None:
        raise ProtocolError("gateway closed the connection instead of "
                            "replying")
    if reply.get("ok", False):
        return reply
    kind = reply.get("error", "unknown")
    message = reply.get("message", "no detail")
    if kind == "busy":
        raise GatewayBusyError(message,
                               pending_jobs=reply.get("pending_jobs", 0),
                               queue_limit=reply.get("queue_limit", 0),
                               queue_depth=reply.get("queue_depth"))
    if kind == "draining":
        raise GatewayDrainingError(message)
    raise RemoteError(kind, message)


# ---------------------------------------------------------------- job codecs
def config_to_plain(config: MicroBlazeConfig) -> Dict[str, Any]:
    return dataclasses.asdict(config)


def config_from_plain(plain: Dict[str, Any]) -> MicroBlazeConfig:
    fields = dict(plain)
    fields["timings"] = PipelineTimings(**fields["timings"])
    return MicroBlazeConfig(**fields)


def wcla_to_plain(wcla: WclaParameters) -> Dict[str, Any]:
    return dataclasses.asdict(wcla)


def wcla_from_plain(plain: Dict[str, Any]) -> WclaParameters:
    fields = dict(plain)
    fields["fabric"] = FabricParameters(**fields["fabric"])
    return WclaParameters(**fields)


def job_to_plain(job: WarpJob) -> Dict[str, Any]:
    """Serialize one job for the wire (full config/WCLA, not overrides)."""
    return {
        "name": job.name,
        "benchmark": job.benchmark,
        "source": job.source,
        "small": job.small,
        "config": config_to_plain(job.config),
        "config_label": job.config_label,
        "wcla": wcla_to_plain(job.wcla),
        "engine": job.engine,
        "max_instructions": job.max_instructions,
        "priority": job.priority,
        "stages": list(job.stages) if job.stages is not None else None,
        "timeout_s": job.timeout_s,
        "trace_id": job.trace_id,
        # Fuzz-campaign jobs (additive keys — absent for classic jobs on
        # old senders, defaulted below; not a protocol version bump).
        "fuzz_profile": job.fuzz_profile,
        "fuzz_seed": job.fuzz_seed,
        "fuzz_count": job.fuzz_count,
        "fuzz_engines": list(job.fuzz_engines)
        if job.fuzz_engines is not None else None,
    }


def job_from_plain(plain: Dict[str, Any]) -> WarpJob:
    """Reconstruct a job; malformed payloads raise :class:`JobSpecError`."""
    if not isinstance(plain, dict) or "name" not in plain:
        raise JobSpecError("wire job must be an object with a 'name'")
    try:
        config = config_from_plain(plain["config"])
        wcla = wcla_from_plain(plain["wcla"])
    except (KeyError, TypeError, ValueError) as error:
        raise JobSpecError(f"wire job {plain.get('name')!r}: bad config/"
                           f"wcla payload: {error}") from error
    if plain.get("fuzz_precise"):
        # Version-1 senders always write this removed key: their default
        # ``false`` still means the same job, ``true`` asks for a mode
        # that no longer exists.
        raise JobSpecError(f"wire job {plain['name']!r}: fuzz_precise was "
                           "removed; block engines always match the "
                           "interpreter at a fault")
    stages = plain.get("stages")
    fuzz_engines = plain.get("fuzz_engines")
    return WarpJob(
        name=plain["name"],
        benchmark=plain.get("benchmark"),
        source=plain.get("source"),
        small=bool(plain.get("small", False)),
        config=config,
        config_label=plain.get("config_label", "paper"),
        wcla=wcla,
        engine=plain.get("engine"),
        max_instructions=plain.get("max_instructions", 50_000_000),
        priority=plain.get("priority", 0),
        stages=tuple(stages) if stages is not None else None,
        timeout_s=plain.get("timeout_s"),
        trace_id=plain.get("trace_id"),
        fuzz_profile=plain.get("fuzz_profile"),
        fuzz_seed=plain.get("fuzz_seed", 0),
        fuzz_count=plain.get("fuzz_count", 25),
        fuzz_engines=tuple(fuzz_engines)
        if fuzz_engines is not None else None,
    )


def jobs_to_plain(jobs: Sequence[WarpJob]) -> List[Dict[str, Any]]:
    return [job_to_plain(job) for job in jobs]


def jobs_from_plain(entries: Sequence[Dict[str, Any]]) -> List[WarpJob]:
    if not isinstance(entries, list) or not entries:
        raise JobSpecError("submit payload must carry a non-empty job list")
    return [job_from_plain(entry) for entry in entries]
