"""The asyncio warp gateway: a networked front end for the warp service.

A :class:`WarpGateway` binds one listening socket and fronts one
:class:`~repro.service.pool.WarpService` (serial or pooled) with the
``WARPNET`` protocol of :mod:`repro.server.protocol`:

* **submission** — a ``submit`` verb carries a batch of wire-encoded
  jobs.  The batch is scheduled/deduplicated/executed by the service
  exactly as an in-process ``service.run(jobs)`` would be, so a remote
  submission produces byte-identical :class:`ServiceResult` numbers.
* **admission control / backpressure** — the gateway admits at most
  ``queue_limit`` *jobs* (summed over queued and running batches).  A
  submission that would exceed the limit is rejected immediately with a
  429-style ``busy`` reply — the client raises the typed
  :class:`~repro.server.protocol.GatewayBusyError` — instead of queueing
  unboundedly or hanging the connection.
* **execution** — admitted batches run on a bounded pool of executor
  threads (``max_concurrent_batches``), all sharing the one service:
  the serial path's caches are thread-safe, and a pooled service's
  content-affinity shards serialize per-shard inside
  ``ProcessPoolExecutor``.  Runner tasks pick the pending batch with the
  highest *aged* priority (:func:`repro.service.scheduler.aged_priority`
  over the batch's best job priority), so sustained high-priority
  traffic delays low-priority batches but can never starve them.
* **quotas** — beyond the global ``queue_limit``, an optional
  ``client_quota`` caps the pending jobs attributed to one client id
  (the additive ``"client"`` submit key); an over-quota submission gets
  the same typed 429-style ``busy`` reply, extended with the client's
  own occupancy.
* **persistence** — with a ``store_path`` the gateway's CAD cache is
  backed by a :class:`~repro.server.store.DiskArtifactStore`, so a
  restarted gateway (or a second one sharing the directory) starts warm.

The gateway is deliberately loop-per-thread: ``run()`` owns its own
``asyncio`` event loop, so tests and the CLI can host a gateway on a
background thread next to blocking client code.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional

from .. import obs
from ..service.jobs import JobSpecError, ServiceReport, WarpJob
from ..service.pool import WarpService, configure_process_store
from ..service.scheduler import DEFAULT_AGING_INTERVAL_S, aged_priority
from . import protocol

#: Default number of jobs the admission queue accepts (queued + running).
DEFAULT_QUEUE_LIMIT = 64

#: Completed batches retained for status/stream-results queries; beyond
#: this the oldest finished batches are dropped (a long-running gateway
#: must not grow without bound).
DEFAULT_RETAINED_BATCHES = 256

#: Default number of batches executing concurrently.  Small on purpose:
#: each executing batch fans out over the same worker pool (or the
#: serial path's single thread of CPU), so this bounds *overlap* — a
#: short batch no longer waits behind a long one — not total parallelism.
DEFAULT_MAX_CONCURRENT_BATCHES = 4


class _Batch:
    """One submitted batch: its jobs, state and (eventually) report."""

    __slots__ = ("batch_id", "sequence", "jobs", "num_jobs", "state",
                 "report", "error", "done", "enqueued_monotonic",
                 "priority", "client")

    def __init__(self, batch_id: str, sequence: int, jobs: List[WarpJob],
                 client: Optional[str] = None):
        self.batch_id = batch_id
        self.sequence = sequence
        self.jobs = jobs                 # dropped once the batch finishes
        self.num_jobs = len(jobs)
        self.state = "queued"            # queued -> running -> done/failed
        self.report: Optional[ServiceReport] = None
        self.error: Optional[str] = None
        self.done = asyncio.Event()
        #: When the batch was admitted (the queue-age gauge's clock and
        #: the aging clock of the priority scheduler).
        self.enqueued_monotonic = time.monotonic()
        #: The batch competes at its best job's priority; aging lifts it
        #: from there while it waits.
        self.priority = max((job.priority for job in jobs), default=0)
        #: Client id for per-client quota accounting (``None`` = anonymous).
        self.client = client


class WarpGateway:
    """One listening endpoint fronting one warp service."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 workers: int = 0, policy: str = "priority",
                 queue_limit: int = DEFAULT_QUEUE_LIMIT,
                 retained_batches: int = DEFAULT_RETAINED_BATCHES,
                 store_path=None,
                 service: Optional[WarpService] = None,
                 telemetry: bool = True,
                 max_concurrent_batches: int = DEFAULT_MAX_CONCURRENT_BATCHES,
                 client_quota: Optional[int] = None,
                 aging_interval_s: Optional[float] = DEFAULT_AGING_INTERVAL_S):
        if queue_limit <= 0:
            raise ValueError("queue_limit must be positive")
        if retained_batches <= 0:
            raise ValueError("retained_batches must be positive")
        if max_concurrent_batches <= 0:
            raise ValueError("max_concurrent_batches must be positive")
        if client_quota is not None and client_quota <= 0:
            raise ValueError("client_quota must be positive (or None)")
        self.host = host
        self.port = port                 # rebound to the real port on start
        self.queue_limit = queue_limit
        self.retained_batches = retained_batches
        self.store_path = store_path
        self.max_concurrent_batches = max_concurrent_batches
        #: Per-client pending-job cap (``None`` = only the global limit).
        self.client_quota = client_quota
        #: Aging cadence of the batch queue's priority scheduler
        #: (``None`` disables aging — classic strict priority).
        self.aging_interval_s = aging_interval_s
        #: Telemetry plane: a gateway is observable out of the box — it
        #: installs a process-wide telemetry (pool workers send theirs
        #: back with each job result) unless the process already has one
        #: (then it joins it and never tears it down) or
        #: ``telemetry=False``.  The ``metrics`` verb serves it live.
        self._owns_telemetry = False
        if telemetry and obs.ACTIVE is None:
            obs.install()
            self._owns_telemetry = True
        if service is not None:
            self.service = service
        else:
            artifact_cache = None
            if store_path is not None:
                # Also exported via the environment so pool workers the
                # service forks later inherit the same store directory.
                artifact_cache = configure_process_store(store_path)
            self.service = WarpService(workers=workers, policy=policy,
                                       artifact_cache=artifact_cache)
        self._batches: Dict[str, _Batch] = {}
        self._connections: set = set()
        #: Graceful-drain state: set by the ``shutdown`` verb.  A
        #: draining gateway finishes the batches already admitted but
        #: rejects new submissions with the typed ``draining`` reply,
        #: and stops once the queue is empty.
        self._draining = False
        #: Batches admitted and not yet picked by a runner, ordered by
        #: aged priority at pick time (not submit time — that is the
        #: whole point of aging).  Lives on the event loop: only
        #: coroutines touch it, guarded by ``_pending_cond``.
        self._pending: List[_Batch] = []
        self._pending_cond: Optional[asyncio.Condition] = None
        self._pending_jobs = 0
        #: client id -> pending jobs, for ``client_quota`` admission.
        self._pending_by_client: Dict[str, int] = {}
        self._quota_rejections = 0
        self._ids = itertools.count(1)
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._runner_tasks: List = []
        self._stop_event: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=max_concurrent_batches,
            thread_name_prefix="warp-batch")

    # ------------------------------------------------------------------ lifecycle
    async def start(self) -> None:
        """Bind the socket and start the batch runner pool (idempotent)."""
        if self._server is not None:
            return
        self._loop = asyncio.get_running_loop()
        self._pending_cond = asyncio.Condition()
        self._stop_event = asyncio.Event()
        self._server = await asyncio.start_server(self._handle_connection,
                                                  host=self.host,
                                                  port=self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._runner_tasks = [
            asyncio.ensure_future(self._run_batches())
            for _ in range(self.max_concurrent_batches)]
        self._ready.set()

    async def serve(self) -> None:
        """Start, then serve until a ``shutdown`` verb (or request_stop)."""
        await self.start()
        try:
            await self._stop_event.wait()
        finally:
            await self._shutdown()

    async def _shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
            # Close open connections explicitly: handlers parked on a
            # read of an idle keep-alive connection would otherwise keep
            # Server.wait_closed() (which awaits handler completion on
            # Python >= 3.12) blocked forever.
            for writer in list(self._connections):
                writer.close()
            await self._server.wait_closed()
        for task in self._runner_tasks:
            task.cancel()
        for task in self._runner_tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._runner_tasks = []
        self._executor.shutdown(wait=True)
        self.service.close()
        if self._owns_telemetry:
            obs.clear()
            self._owns_telemetry = False

    def run(self) -> None:
        """Blocking entry point: own loop, serve until shutdown."""
        asyncio.run(self.serve())

    def wait_ready(self, timeout: Optional[float] = None) -> bool:
        """Block until the socket is bound (gateway-on-a-thread helper)."""
        return self._ready.wait(timeout)

    def request_stop(self) -> None:
        """Thread-safe external shutdown request."""
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    # ------------------------------------------------------------------- batches
    def _effective_priority(self, batch: _Batch, now: float) -> int:
        return aged_priority(batch.priority,
                             now - batch.enqueued_monotonic,
                             self.aging_interval_s)

    async def _next_batch(self) -> _Batch:
        """Wait for a pending batch and claim the best one: highest aged
        priority first, admission order within a level."""
        async with self._pending_cond:
            while not self._pending:
                await self._pending_cond.wait()
            now = time.monotonic()
            self._pending.sort(
                key=lambda b: (-self._effective_priority(b, now),
                               b.sequence))
            batch = self._pending.pop(0)
        boost = self._effective_priority(batch, now) - batch.priority
        if obs.ACTIVE is not None:
            obs.set_gauge("warp_batch_priority_boost", float(boost),
                          "Aging boost (priority levels) of the most "
                          "recently scheduled batch")
            if boost > 0:
                obs.inc("warp_batch_aged_total",
                        help_text="Batches scheduled above their "
                                  "submitted priority by aging")
        return batch

    async def _run_batches(self) -> None:
        """One batch runner; ``max_concurrent_batches`` of these share
        the executor thread pool (and the one service under it)."""
        while True:
            batch = await self._next_batch()
            batch.state = "running"
            try:
                batch.report = await asyncio.get_running_loop() \
                    .run_in_executor(self._executor, self.service.run,
                                     batch.jobs)
                batch.state = "done"
            except Exception as error:  # noqa: BLE001 - kept per batch
                batch.state = "failed"
                batch.error = f"{type(error).__name__}: {error}"
            finally:
                self._pending_jobs -= batch.num_jobs
                if batch.client is not None:
                    remaining = self._pending_by_client.get(batch.client, 0) \
                        - batch.num_jobs
                    if remaining > 0:
                        self._pending_by_client[batch.client] = remaining
                    else:
                        self._pending_by_client.pop(batch.client, None)
                batch.jobs = []          # results live in the report now
                batch.done.set()
                self._set_queue_gauges()
                self._prune_finished()
                if self._draining and self._pending_jobs == 0:
                    # Drain complete.  The grace sleep lets submit
                    # handlers woken by ``batch.done`` flush their reply
                    # frames before teardown closes the connections.
                    await asyncio.sleep(0.05)
                    self._stop_event.set()

    def _prune_finished(self) -> None:
        """Drop the oldest finished batches beyond the retention bound
        (in-flight batches are never dropped; insertion order is batch
        order, so a plain scan evicts oldest-first)."""
        finished = [batch_id for batch_id, batch in self._batches.items()
                    if batch.state in ("done", "failed")]
        for batch_id in finished[:max(0, len(finished)
                                      - self.retained_batches)]:
            del self._batches[batch_id]

    def _admit(self, jobs: List[WarpJob],
               client: Optional[str] = None) -> Optional[Dict]:
        """Admission control: an error reply when the queue cannot take
        the batch, ``None`` when admitted.

        A batch that could *never* fit gets the distinct, non-retryable
        ``batch-too-large`` error; the 429-style ``busy`` reply is
        reserved for transient fullness, where backing off and retrying
        can succeed — it carries ``queue_depth``/``queue_limit`` so
        clients back off proportionally to how loaded we actually are.
        With a ``client_quota`` configured, a submission carrying a
        ``client`` id is additionally held to that client's own pending
        cap (the ``busy`` reply then also carries ``client_pending`` /
        ``client_quota``).  A draining gateway rejects every submission
        with the typed, equally non-retryable ``draining`` reply.
        """
        if self._draining:
            return {
                "ok": False,
                "error": "draining",
                "message": ("gateway is draining: finishing "
                            f"{self._pending_jobs} admitted jobs, "
                            "accepting no new submissions"),
                "pending_jobs": self._pending_jobs,
                "queue_depth": self._pending_jobs,
                "queue_limit": self.queue_limit,
            }
        limit = self.queue_limit
        if self.client_quota is not None and client is not None:
            limit = min(limit, self.client_quota)
        if len(jobs) > limit:
            return {
                "ok": False,
                "error": "batch-too-large",
                "message": (f"batch of {len(jobs)} jobs exceeds this "
                            f"gateway's admission limit of "
                            f"{limit}; split the batch (no "
                            f"amount of retrying can admit it whole)"),
                "queue_limit": self.queue_limit,
            }
        if self._pending_jobs + len(jobs) > self.queue_limit:
            return {
                "ok": False,
                "error": "busy",
                "code": 429,
                "message": (f"admission queue is full: {self._pending_jobs} "
                            f"jobs pending, limit {self.queue_limit}, "
                            f"batch of {len(jobs)} rejected"),
                "pending_jobs": self._pending_jobs,
                "queue_depth": self._pending_jobs,
                "queue_limit": self.queue_limit,
            }
        if self.client_quota is not None and client is not None:
            client_pending = self._pending_by_client.get(client, 0)
            if client_pending + len(jobs) > self.client_quota:
                self._quota_rejections += 1
                if obs.ACTIVE is not None:
                    obs.inc("warp_quota_rejections_total", client=client,
                            help_text="Submissions rejected by the "
                                      "per-client quota")
                return {
                    "ok": False,
                    "error": "busy",
                    "code": 429,
                    "message": (f"client {client!r} is over quota: "
                                f"{client_pending} jobs pending, quota "
                                f"{self.client_quota}, batch of "
                                f"{len(jobs)} rejected"),
                    "pending_jobs": self._pending_jobs,
                    "queue_depth": self._pending_jobs,
                    "queue_limit": self.queue_limit,
                    "client": client,
                    "client_pending": client_pending,
                    "client_quota": self.client_quota,
                }
        return None

    async def _enqueue(self, jobs: List[WarpJob],
                       client: Optional[str] = None) -> _Batch:
        sequence = next(self._ids)
        batch = _Batch(f"batch-{sequence}", sequence, jobs, client=client)
        self._batches[batch.batch_id] = batch
        self._pending_jobs += len(jobs)
        if client is not None:
            self._pending_by_client[client] = \
                self._pending_by_client.get(client, 0) + len(jobs)
        async with self._pending_cond:
            self._pending.append(batch)
            self._pending_cond.notify()
        self._set_queue_gauges()
        return batch

    def _set_queue_gauges(self) -> None:
        """Publish the admission queue's live state as gauge families
        (queue depth, limit, per-client occupancy and the age of the
        oldest pending batch)."""
        if obs.ACTIVE is None:
            return
        obs.set_gauge("warp_queue_depth", self._pending_jobs,
                      "Jobs admitted and not yet finished")
        obs.set_gauge("warp_queue_limit", self.queue_limit,
                      "Admission limit (queued + running jobs)")
        for client, pending in self._pending_by_client.items():
            obs.set_gauge("warp_client_pending_jobs", float(pending),
                          "Pending jobs by submitting client",
                          client=client)
        pending = [batch.enqueued_monotonic
                   for batch in self._batches.values()
                   if batch.state in ("queued", "running")]
        age = (time.monotonic() - min(pending)) if pending else 0.0
        obs.set_gauge("warp_queue_oldest_age_seconds", age,
                      "Age of the oldest unfinished batch")

    def _batch_reply(self, batch: _Batch) -> Dict:
        reply = {"ok": True, "batch_id": batch.batch_id,
                 "state": batch.state, "num_jobs": batch.num_jobs,
                 "queue_depth": self._pending_jobs,
                 "queue_limit": self.queue_limit}
        if batch.state == "done":
            reply["report"] = batch.report.to_plain()
        elif batch.state == "failed":
            reply["ok"] = False
            reply["error"] = "batch-failed"
            reply["message"] = batch.error
        return reply

    # --------------------------------------------------------------- connection
    async def _handle_connection(self, reader, writer) -> None:
        self._connections.add(writer)
        try:
            await self._converse(reader, writer)
        except asyncio.CancelledError:
            # Loop teardown cancels handlers blocked on a read; finishing
            # quietly here keeps shutdown free of spurious tracebacks.
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _converse(self, reader, writer) -> None:
        try:
            hello = await protocol.read_frame(reader)
            try:
                protocol.check_hello(hello)
            except protocol.HandshakeError as error:
                await protocol.write_frame(writer, {
                    "magic": protocol.PROTOCOL_MAGIC,
                    "version": protocol.PROTOCOL_VERSION,
                    "ok": False, "error": "version-mismatch",
                    "message": str(error),
                })
                return
            await protocol.write_frame(writer, {
                "magic": protocol.PROTOCOL_MAGIC,
                "version": protocol.PROTOCOL_VERSION,
                "ok": True,
            })
            while True:
                request = await protocol.read_frame(reader)
                if request is None:
                    return
                stop_after = await self._dispatch(request, writer)
                if stop_after:
                    return
        except (protocol.ProtocolError, ConnectionError):
            pass  # a broken peer never takes the gateway down

    async def _dispatch(self, request: Dict, writer) -> bool:
        """Handle one verb; returns True when the connection should end."""
        verb = request.get("verb")
        if obs.ACTIVE is not None:
            obs.inc("warp_gateway_requests_total", verb=str(verb))
            start = time.perf_counter()
            try:
                return await self._dispatch_verb(verb, request, writer)
            finally:
                # A request span per verb; ``submit`` spans cover the
                # whole wait for the batch report, by design.
                obs.record_span(f"gateway:{verb}",
                                time.perf_counter() - start)
        return await self._dispatch_verb(verb, request, writer)

    async def _dispatch_verb(self, verb, request: Dict, writer) -> bool:
        if verb == "submit":
            await self._verb_submit(request, writer)
        elif verb == "status":
            await self._verb_status(request, writer)
        elif verb == "stream-results":
            await self._verb_stream(request, writer)
        elif verb == "cache-stats":
            await self._verb_cache_stats(writer)
        elif verb == "metrics":
            await self._verb_metrics(request, writer)
        elif verb == "shutdown":
            # Graceful drain: admitted batches finish (their submitters
            # get real reports), new submissions are rejected with the
            # typed ``draining`` reply, and the gateway stops once the
            # queue is empty — immediately when it already is.
            self._draining = True
            await protocol.write_frame(writer, {
                "ok": True,
                "state": "draining" if self._pending_jobs else "stopping",
                "pending_jobs": self._pending_jobs,
            })
            if self._pending_jobs == 0:
                self._stop_event.set()
            return True
        else:
            await protocol.write_frame(writer, {
                "ok": False, "error": "unknown-verb",
                "message": f"unknown verb {verb!r}",
            })
        return False

    async def _verb_submit(self, request: Dict, writer) -> None:
        if "route" in request:
            # A routed submit asks for a relay this gateway does not do;
            # running it here would silently ignore that.
            await protocol.write_frame(writer, {
                "ok": False, "error": "bad-request",
                "message": "submit does not take 'route': this gateway "
                           "runs every batch itself",
            })
            return
        try:
            jobs = protocol.jobs_from_plain(request.get("jobs"))
        except JobSpecError as error:
            await protocol.write_frame(writer, {
                "ok": False, "error": "bad-jobs", "message": str(error),
            })
            return
        client = request.get("client")
        busy = self._admit(jobs, client=client)
        if busy is not None:
            await protocol.write_frame(writer, busy)
            return
        batch = await self._enqueue(jobs, client=client)
        if not request.get("wait", True):
            await protocol.write_frame(writer, {
                "ok": True, "batch_id": batch.batch_id,
                "state": batch.state, "num_jobs": batch.num_jobs,
            })
            return
        await batch.done.wait()
        await protocol.write_frame(writer, self._batch_reply(batch))

    def _lookup(self, request: Dict) -> Optional[_Batch]:
        return self._batches.get(request.get("batch_id"))

    async def _verb_status(self, request: Dict, writer) -> None:
        batch = self._lookup(request)
        if batch is None:
            await protocol.write_frame(writer, {
                "ok": False, "error": "unknown-batch",
                "message": f"no batch {request.get('batch_id')!r}",
            })
            return
        await protocol.write_frame(writer, self._batch_reply(batch))

    async def _verb_stream(self, request: Dict, writer) -> None:
        """Stream a batch's results one frame at a time, then ``done``.

        Results stream as soon as the batch completes; each frame carries
        one :class:`ServiceResult`, so a large report never has to fit in
        a single frame on constrained clients.
        """
        batch = self._lookup(request)
        if batch is None:
            await protocol.write_frame(writer, {
                "ok": False, "error": "unknown-batch",
                "message": f"no batch {request.get('batch_id')!r}",
            })
            return
        await batch.done.wait()
        if batch.state == "failed":
            await protocol.write_frame(writer, self._batch_reply(batch))
            return
        await protocol.write_frame(writer, {
            "ok": True, "streaming": True, "batch_id": batch.batch_id,
            "num_results": len(batch.report.results),
        })
        for result in batch.report.results:
            await protocol.write_frame(writer, {
                "ok": True, "result": result.to_plain(),
            })
        await protocol.write_frame(writer, {
            "ok": True, "done": True,
            "wall_seconds": batch.report.wall_seconds,
            "mode": batch.report.mode,
            "workers": batch.report.workers,
        })

    async def _verb_metrics(self, request: Dict, writer) -> None:
        """The live telemetry snapshot: aggregated metric families (this
        process merged with its pool workers' latest snapshots) plus the
        trace spans recorded since the request's ``since`` cursor.

        Additive reply keys on an additive verb — decoders use ``.get()``,
        so per protocol.py's documented discipline this is NOT a protocol
        version bump.  ``"spans": false`` skips span payloads for pure
        metric scrapers; the returned ``cursor`` feeds the next poll's
        ``since`` so a poller never re-reads spans it has seen.
        """
        reply = {
            "ok": True,
            "enabled": obs.ACTIVE is not None,
            "metrics": {},
            "spans": [],
            "cursor": 0,
            "queue_depth": self._pending_jobs,
            "queue_limit": self.queue_limit,
            "client_quota": self.client_quota,
            "quota_rejections": self._quota_rejections,
            "max_concurrent_batches": self.max_concurrent_batches,
            "draining": self._draining,
            "mode": self.service.mode,
            "workers": self.service.workers,
        }
        telemetry = obs.ACTIVE
        if telemetry is not None:
            self._set_queue_gauges()
            reply["metrics"] = telemetry.collect()
            try:
                since = int(request.get("since", 0) or 0)
            except (TypeError, ValueError):
                since = 0
            if request.get("spans", True):
                cursor, spans = telemetry.spans.since(since)
                reply["cursor"] = cursor
                reply["spans"] = [span.to_plain() for span in spans]
            else:
                reply["cursor"] = telemetry.spans.cursor
        await protocol.write_frame(writer, reply)

    async def _verb_cache_stats(self, writer) -> None:
        """Reply with the CAD cache, store and queue statistics.

        The ``cache`` block is :meth:`CadArtifactCache.stats`, snapshotted
        under the cache's own lock (safe while executor threads run
        batches): its ``hits``, ``misses`` and ``hit_rate`` are totals
        over stage lookups, with ``per_stage`` splitting them by stage.
        """
        reply = {
            "ok": True,
            "cache": self.service.artifact_cache.stats(),
            "pending_jobs": self._pending_jobs,
            "queue_depth": self._pending_jobs,
            "queue_limit": self.queue_limit,
            "client_quota": self.client_quota,
            "quota_rejections": self._quota_rejections,
            "draining": self._draining,
            "batches": {batch_id: batch.state
                        for batch_id, batch in self._batches.items()},
            "mode": self.service.mode,
            "workers": self.service.workers,
        }
        if self.service.workers >= 1:
            # Pool workers hold their own per-process caches; this
            # process's hit/miss counters see only the serial path.  The
            # store block's entries/size_bytes are still live (they scan
            # the shared directory), so say so instead of letting the
            # zeros read as a cold service.
            reply["cache_scope"] = (
                "gateway process only; pooled workers keep their own "
                "caches (per-job counters travel in each report; the "
                "store's entries/size reflect the shared directory)")
        await protocol.write_frame(writer, reply)


# --------------------------------------------------------------------------- helpers
def start_gateway_thread(gateway: WarpGateway,
                         timeout: float = 30.0) -> threading.Thread:
    """Host ``gateway`` on a daemon thread and block until it is bound.

    The gateway binds an ephemeral port when constructed with ``port=0``;
    after this returns, ``gateway.port`` holds the real port.
    """
    thread = threading.Thread(target=gateway.run, name="warp-gateway",
                              daemon=True)
    thread.start()
    if not gateway.wait_ready(timeout):
        raise RuntimeError("gateway did not come up within "
                           f"{timeout} seconds")
    return thread
