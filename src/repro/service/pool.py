"""Worker pool and the :class:`WarpService` façade.

Execution model:

* **serial** (``workers=0``) — jobs run in-process, sharing the process's
  CAD artifact cache and compile cache.  This is also the fallback when a
  platform cannot host a process pool.
* **pooled** (``workers>=1``) — jobs run across ``workers`` process
  *shards*, each a single-worker
  :class:`concurrent.futures.ProcessPoolExecutor`.  A job routes to the
  shard addressed by the hash of its content
  (:meth:`~repro.service.jobs.WarpJob.dedup_key`), so repeated submissions
  of the same content always land on the same worker — whose module-level
  compile cache and CAD artifact cache stay warm for the worker's whole
  lifetime.  A second identical sweep through a living service is
  therefore served almost entirely from worker memory.  Job and result
  payloads are plain picklable dataclasses; on POSIX (fork start method)
  workers additionally inherit whatever the parent had already cached at
  shard creation.

Fault handling: a job that raises is caught *inside* the worker and comes
back as a failed :class:`~repro.service.jobs.ServiceResult`; transient
faults (:class:`~repro.chaos.ChaosError`) are retried in place first.  A
job that kills its worker outright (the interpreter dies) breaks only its
own shard — the other shards keep computing — and every job queued on the
broken shard is retried once in a fresh isolated single-worker pool:
innocent victims complete normally (their results count one retry), and
only the job that kills its worker a second time is reported as failed.
A job with a ``timeout_s`` budget that is still running past it is
handled by the pool *watchdog*: the hung shard's worker is killed, the
job is reported as a timeout (``timeouts=1``), and the jobs queued behind
it go through the same innocent-retry path as a crash.  Broken shards
are replaced lazily; subsequent batches run normally.  (Timeouts are a
pool feature: the serial path runs jobs on the service's own thread and
cannot preempt them.)
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import replace
from pathlib import Path
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import chaos, obs
from ..cad import (
    SOURCE_DISK,
    SOURCE_NEGATIVE,
    CadArtifactCache,
    served_from_cache,
)
from ..caching import lru_memoize
from ..compiler import compile_source_cached
from ..digest import shard_index
from ..microblaze.engines import DEFAULT_ENGINE
from ..power.energy import microblaze_energy, warp_energy
from ..warp.processor import WarpProcessor
from .jobs import ServiceReport, ServiceResult, WarpJob
from .scheduler import JobScheduler, ScheduledJob

# --------------------------------------------------------------------------- per-process cache
_PROCESS_CACHE: Optional[CadArtifactCache] = None

#: Environment variable naming a persistent on-disk artifact store
#: directory.  It is read when the per-process cache is first created, so
#: setting it before a pool spins up makes every worker — a forked local
#: shard or a gateway started from the CLI — share one store.
STORE_ENV_VAR = "REPRO_CAD_STORE"


def _store_from_environment():
    path = os.environ.get(STORE_ENV_VAR)
    if not path:
        return None
    from ..server.store import DiskArtifactStore
    return DiskArtifactStore(path)


def process_artifact_cache() -> CadArtifactCache:
    """The calling process's CAD artifact cache (created on first use).

    In a pool worker this is the per-worker warm cache; in serial mode it
    is the service process's own.  When :data:`STORE_ENV_VAR` names a
    directory, the cache is backed by a persistent
    :class:`~repro.server.store.DiskArtifactStore` tier.  Tests reset it
    with ``.clear()`` (memory tiers only).
    """
    global _PROCESS_CACHE
    if _PROCESS_CACHE is None:
        _PROCESS_CACHE = CadArtifactCache(store=_store_from_environment())
    return _PROCESS_CACHE


def configure_process_store(path) -> CadArtifactCache:
    """Attach a persistent store at ``path`` to this process (and, via the
    environment, to every worker process created afterwards).

    The store is *process-wide* state (it backs the per-process cache and
    the environment workers inherit), so reconfiguring to a different
    path is refused rather than silently redirecting whoever attached
    the first store.  Calling again with the same path is a no-op.
    """
    cache = process_artifact_cache()
    store = cache.disk_store
    if store is not None and getattr(store, "root", None) != Path(str(path)):
        raise ValueError(
            f"this process already persists CAD artifacts to {store.root}; "
            f"refusing to redirect it to {path} (one store per process — "
            f"run a second gateway in its own process instead)")
    os.environ[STORE_ENV_VAR] = str(path)
    if store is None:
        cache.disk_store = _store_from_environment()
    return cache


# --------------------------------------------------------------------------- job execution
#: Transient-fault (``ChaosError``) retries per job on top of the
#: per-stage retries of the CAD flow.
JOB_TRANSIENT_RETRIES = 2


def execute_job(job: WarpJob,
                artifact_cache: Optional[CadArtifactCache] = None) -> ServiceResult:
    """Run one warp job to a :class:`ServiceResult` (never raises).

    This is the single execution path for both the serial mode and the
    pool workers.  Transient faults (:class:`~repro.chaos.ChaosError`,
    injected or real environment hiccups classified as retryable) restart
    the whole attempt up to :data:`JOB_TRANSIENT_RETRIES` times — each
    attempt builds a *fresh* result, so a half-filled attempt never leaks
    stage accounting into the report — with the absorbed retries counted
    on the final result.  Everything else fails the job immediately.
    """
    chaos.ensure_process_plan()
    start = time.perf_counter()
    retries = 0
    # The execute span joins the trace the submitting service assigned to
    # the job (parenting to its root); without one it becomes its own
    # root, so directly-invoked jobs still trace.
    with obs.span("execute", trace_id=job.trace_id,
                  job=job.name) as execute_span:
        while True:
            try:
                if chaos.ACTIVE_PLAN is not None:
                    chaos.fire(chaos.SITE_WORKER_JOB, label=job.name)
                result = _execute_attempt(job, artifact_cache)
            except chaos.ChaosError as error:
                if retries >= JOB_TRANSIENT_RETRIES:
                    result = _failed_result(
                        job, f"{type(error).__name__}: {error}")
                    break
                retries += 1
                if obs.ACTIVE is not None:
                    obs.inc("warp_retries_total", site="worker-transient")
                continue
            break
        if execute_span is not None:
            execute_span.set(status="ok" if result.ok else "failed",
                             retries=retries)
    result.retries += retries
    result.worker_pid = os.getpid()
    result.wall_seconds = time.perf_counter() - start
    result.trace_id = job.trace_id
    if obs.ACTIVE is not None:
        obs.inc("warp_jobs_total", engine=result.engine,
                status="ok" if result.ok else "failed")
        obs.observe("warp_job_wall_seconds", result.wall_seconds,
                    engine=result.engine)
        result.telemetry = obs.flush_worker_telemetry()
    return result


def _workload_label(job: WarpJob) -> str:
    if job.fuzz_profile is not None:
        return (f"fuzz:{job.fuzz_profile}"
                f"[{job.fuzz_seed}..{job.fuzz_seed + job.fuzz_count})")
    return job.benchmark if job.benchmark else "<inline source>"


def _execute_fuzz(job: WarpJob, result: ServiceResult) -> None:
    """Run one differential fuzzing campaign shard (see :mod:`repro.fuzz`).

    The shard fails (``ok=False``) exactly when an *unexplained*
    divergence survives; each one arrives pre-bisected as a replayable
    repro bundle on ``result.fuzz_bundles``.
    """
    from ..fuzz.harness import run_campaign
    engines = list(job.fuzz_engines) if job.fuzz_engines is not None \
        else None
    report = run_campaign(
        job.fuzz_count, start_seed=job.fuzz_seed, profile=job.fuzz_profile,
        engines=engines, config=job.config,
        max_instructions=job.max_instructions)
    result.fuzz_programs = report.programs
    result.fuzz_instructions = report.instructions
    result.fuzz_divergences = (report.known_divergences
                               + report.unexplained_divergences)
    result.fuzz_known_divergences = report.known_divergences
    result.fuzz_bisect_steps = report.bisect_steps
    result.fuzz_bundles = list(report.bundles)
    if report.unexplained_divergences:
        result.ok = False
        engines_hit = sorted({entry["engine"]
                              for entry in report.divergences
                              if not entry["known"]})
        result.error = (
            f"{report.unexplained_divergences} unexplained divergence(s) "
            f"against {', '.join(engines_hit)} "
            f"({len(result.fuzz_bundles)} repro bundle(s) attached)")


@lru_memoize(maxsize=64)
def _suite_source(benchmark: str, small: bool) -> Tuple[str, str]:
    """``(source, name)`` of a suite benchmark.  Both are a pure function
    of the name and size, so a worker builds each one once; building also
    computes the reference checksum, which a job never reads."""
    from ..apps import build_benchmark
    bench = build_benchmark(benchmark, small=small)
    return bench.source, bench.name


def _execute_attempt(job: WarpJob,
                     artifact_cache: Optional[CadArtifactCache]) -> ServiceResult:
    """One execution attempt: compile (memoized), profile, partition
    (through the content-addressed CAD cache), co-simulate, and evaluate
    the Figure-5 energies for the software-only and warp-processed runs.
    Fuzz jobs run their differential campaign instead of the warp
    pipeline.

    Transient :class:`~repro.chaos.ChaosError` faults propagate (the
    caller owns the retry loop); every other exception is absorbed into a
    failed result — the job isolation boundary.
    """
    start = time.perf_counter()
    result = ServiceResult(
        job_name=job.name,
        workload=_workload_label(job),
        config_label=job.config_label,
        engine=job.engine if job.engine else DEFAULT_ENGINE,
        worker_pid=os.getpid(),
    )
    if job.fuzz_profile is not None:
        try:
            _execute_fuzz(job, result)
        except chaos.ChaosError:
            raise
        except Exception as error:  # noqa: BLE001 - job isolation boundary
            result.ok = False
            result.error = f"{type(error).__name__}: {error}"
        result.wall_seconds = time.perf_counter() - start
        return result
    try:
        cache = artifact_cache if artifact_cache is not None \
            else process_artifact_cache()
        if job.benchmark is not None:
            source, name = _suite_source(job.benchmark, job.small)
        else:
            source, name = job.source, job.name
        program = compile_source_cached(source, name=name,
                                        config=job.config).program
        processor = WarpProcessor(config=job.config, wcla=job.wcla,
                                  engine=job.engine, artifact_cache=cache)
        warp = processor.run(program, max_instructions=job.max_instructions)

        outcome = warp.partitioning
        result.partitioned = outcome.success
        result.partition_reason = outcome.reason
        result.checksum_ok = warp.checksums_match
        result.speedup = warp.speedup
        result.software_ms = warp.software_seconds * 1e3
        result.warp_ms = warp.warp_seconds * 1e3
        result.dpm_ms = outcome.dpm_seconds * 1e3
        _account_cache(result, outcome.stage_records)
        if obs.ACTIVE is not None:
            software = warp.software_result
            obs.inc("warp_engine_instructions_total",
                    float(software.instructions), engine=result.engine)
            obs.inc("warp_engine_cycles_total", float(software.cycles),
                    engine=result.engine)

        mb_energy = microblaze_energy(warp.software_seconds,
                                      job.config.clock_mhz)
        if outcome.success:
            synthesis = outcome.synthesis
            w_energy = warp_energy(
                mb_active_seconds=warp.microblaze_seconds,
                hw_seconds=warp.hw_seconds,
                clock_mhz=job.config.clock_mhz,
                wcla_luts=synthesis.total_luts,
                uses_mac=synthesis.mac_operations > 0,
            )
        else:
            w_energy = microblaze_energy(warp.software_seconds,
                                         job.config.clock_mhz,
                                         label="MicroBlaze (Warp)")
        result.mb_energy_mj = mb_energy.total_mj
        result.warp_energy_mj = w_energy.total_mj
        result.normalized_warp_energy = w_energy.normalized_to(mb_energy)
    except chaos.ChaosError:
        raise
    except Exception as error:  # noqa: BLE001 - job isolation boundary
        result.ok = False
        result.error = f"{type(error).__name__}: {error}"
    result.wall_seconds = time.perf_counter() - start
    return result


def _account_cache(result: ServiceResult, records) -> None:
    """Fill every cache field of ``result`` from the job's own stage
    records — never from the shared cache's counters, which concurrent
    jobs move too.

    ``cache_hits``/``cache_misses`` count one per partitioning that
    consulted the cache: a hit when every keyed stage was cache-served.
    The tier counters count matching stage records.
    """
    sources = [record.source for record in records]
    for record in records:
        result.stage_wall_ms[record.stage] = record.wall_seconds * 1e3
        result.stage_cache[record.stage] = record.source
    result.cad_cache_hit = served_from_cache(records)
    if any(record.key is not None for record in records):
        result.cache_hits = int(result.cad_cache_hit)
        result.cache_misses = 1 - result.cache_hits
    result.cache_negative_hits = sources.count(SOURCE_NEGATIVE)
    result.cache_disk_hits = sources.count(SOURCE_DISK)


def _worker_entry(job: WarpJob) -> ServiceResult:
    """Module-level pool entry point (must be picklable by reference)."""
    return execute_job(job)


def _pool_call(worker_fn: Callable[[WarpJob], ServiceResult],
               collect: bool, job: WarpJob) -> ServiceResult:
    """What a pool process runs for one job: collect telemetry exactly
    when the submitting service has it (``collect``), then run the job.
    The flag travels beside the job because a job's ``trace_id`` may
    come from the wire, whatever this service's telemetry."""
    obs.ensure_process_telemetry(collect)
    return worker_fn(job)


def _take_telemetry(result: ServiceResult) -> ServiceResult:
    """Hand a pool worker's telemetry payload to this process's
    telemetry and take it off the result."""
    payload = result.telemetry
    if payload is not None:
        result.telemetry = None
        telemetry = obs.ACTIVE
        if telemetry is not None:
            telemetry.ingest(payload)
    return result


def _collect_cache_metrics(registry) -> None:
    """Snapshot-time collector: republish this process's cache tiers'
    bespoke counters as live metric families.

    Cumulative totals *set* (not incremented) at snapshot time, so they
    are gauges; each process publishes its own totals and the primary's
    merge of the worker snapshots sums them to the fleet value.
    Registered at import — it only runs when a telemetry snapshot is
    taken.
    """
    cache = _PROCESS_CACHE
    if cache is not None:
        events = registry.gauge(
            "warp_cache_events",
            "CAD artifact cache events by kind (cumulative)")
        events.set(cache.negative_hits, kind="negative-hit")
        events.set(cache.disk_hits, kind="disk-hit")
        events.set(cache.store_put_errors, kind="store-put-error")
        stage_family = registry.gauge(
            "warp_cache_stage_lookups",
            "Per-stage CAD cache lookups by result (cumulative)")
        for stage, (hits, misses) in cache.stage_counters().items():
            stage_family.set(hits, stage=stage, result="hit")
            stage_family.set(misses, stage=stage, result="miss")
        for stage, disk in cache.stage_disk_hits().items():
            stage_family.set(disk, stage=stage, result="disk-hit")
        store = cache.disk_store
        if store is not None:
            store_family = registry.gauge(
                "warp_store_events",
                "Persistent artifact store events by kind (cumulative)")
            for kind, value in store.stats().items():
                if isinstance(value, (int, float)) \
                        and not isinstance(value, bool):
                    store_family.set(value, kind=kind)
    from ..compiler import compile_cache_stats
    compile_family = registry.gauge(
        "warp_compile_cache_events",
        "Compilation memo cache events by kind (cumulative)")
    for kind, value in compile_cache_stats().items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            compile_family.set(value, kind=kind)


obs.add_collector(_collect_cache_metrics)


def _failed_result(job: WarpJob, message: str) -> ServiceResult:
    return ServiceResult(
        job_name=job.name,
        workload=_workload_label(job),
        config_label=job.config_label,
        engine=job.engine if job.engine else DEFAULT_ENGINE,
        ok=False,
        error=message,
    )


def _worker_died(job: WarpJob, error: BaseException) -> ServiceResult:
    return _failed_result(
        job, f"worker process died while running this job: {error}")


def _timed_out_result(job: WarpJob, timeout_s: float) -> ServiceResult:
    result = _failed_result(
        job, f"TimeoutError: job exceeded its {timeout_s:g}s wall-clock "
             f"budget; the watchdog killed its worker")
    result.timeouts = 1
    return result


def _backend_failed(job: WarpJob, error: BaseException) -> ServiceResult:
    """A backend raised instead of returning a result — report *what* it
    raised (e.g. a gateway's typed busy rejection), not a worker death."""
    return _failed_result(
        job, f"worker backend error: {type(error).__name__}: {error}")


# --------------------------------------------------------------------------- the service
class WarpService:
    """Batch warp-as-a-service orchestrator.

    Combines the deduplicating :class:`~repro.service.scheduler.JobScheduler`,
    the worker pool (or the serial path) and the content-addressed CAD
    cache into one object whose :meth:`run` takes a batch of
    :class:`WarpJob` specs and returns a :class:`ServiceReport`.  The
    service — and with it the pool's warm worker caches — survives across
    :meth:`run` calls, so a repeated sweep is served from cache.
    """

    def __init__(self, workers: int = 0, policy: str = "priority",
                 artifact_cache: Optional[CadArtifactCache] = None,
                 worker_fn: Callable[[WarpJob], ServiceResult] = _worker_entry):
        """``worker_fn`` is the backend seam: any ``WarpJob ->
        ServiceResult`` callable (tests substitute slow, crashing or
        hanging fakes through it).  With ``workers=0`` a custom backend
        runs in-process, one job at a time; with ``workers>=1`` it runs
        inside the content-affinity sharded pool, so it must be picklable
        by reference."""
        if workers < 0:
            raise ValueError("workers must be >= 0 (0 = serial in-process)")
        self.workers = workers
        self.policy = policy
        #: Cache used by the serial path (pool workers use their own
        #: per-process instances).
        self.artifact_cache = artifact_cache if artifact_cache is not None \
            else process_artifact_cache()
        self._worker_fn = worker_fn
        #: Shard index -> its single-worker executor (created lazily).
        #: Guarded by ``_shards_lock``: the gateway's concurrent batch
        #: executors share one service, so shard creation, watchdog
        #: kills and close() race across threads.
        self._shards: Dict[int, ProcessPoolExecutor] = {}
        self._shards_lock = threading.Lock()

    # ------------------------------------------------------------------ pool
    @property
    def mode(self) -> str:
        return "pool" if self.workers >= 1 else "serial"

    def _shard_index(self, job: WarpJob) -> int:
        """Content-affinity routing: same job content, same worker.

        A stable digest (:func:`repro.digest.shard_index`) rather than the
        builtin ``hash()``: string hashing is salted per interpreter launch
        (``PYTHONHASHSEED``), which would make job-to-worker distribution —
        and therefore pool load balance and benchmark wall times — random
        per run.  ``dedup_key()`` is a tuple of strings/bools/ints and
        frozen dataclasses whose ``repr`` is deterministic and
        field-ordered.
        """
        return shard_index(repr(job.dedup_key()), self.workers)

    def _shard(self, index: int) -> ProcessPoolExecutor:
        with self._shards_lock:
            executor = self._shards.get(index)
            if executor is None:
                executor = ProcessPoolExecutor(max_workers=1)
                self._shards[index] = executor
            return executor

    def _drop_shard(self, index: int) -> None:
        with self._shards_lock:
            executor = self._shards.pop(index, None)
        if executor is not None:
            executor.shutdown(wait=False)

    def _kill_shard(self, index: int) -> None:
        """Forcibly terminate a shard whose worker is *hung* (not dead).

        ``ProcessPoolExecutor`` has no public cancel-running-work API,
        and simply dropping the executor would leave the hung worker
        alive — a non-daemon child that blocks interpreter exit at the
        atexit join.  Killing the worker process flags the executor
        broken, which fails its queued futures with
        ``BrokenProcessPool`` — the same signal a crash produces, so the
        innocent-retry path downstream handles both identically.
        """
        with self._shards_lock:
            executor = self._shards.pop(index, None)
        if executor is None:
            return
        for process in list(getattr(executor, "_processes", {}).values()):
            try:
                process.kill()
            except Exception:  # noqa: BLE001 - already-dead race
                pass
        executor.shutdown(wait=False)

    def close(self) -> None:
        """Shut every shard down (idempotent)."""
        with self._shards_lock:
            executors = list(self._shards.values())
            self._shards.clear()
        for executor in executors:
            executor.shutdown()

    def __enter__(self) -> "WarpService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------- runs
    def run(self, jobs: Sequence[WarpJob]) -> ServiceReport:
        """Schedule, deduplicate and execute ``jobs``; aggregate a report.

        Results are returned in submission order, duplicates included
        (each carries ``deduped_from`` naming the job that actually ran).
        """
        scheduler = JobScheduler(policy=self.policy)
        scheduler.add_many(jobs)
        plan = scheduler.plan()

        if obs.ACTIVE is not None:
            # Assign every planned job a trace identity: the id rides the
            # job into the worker process (and across the wire), so the
            # worker-side execute/stage/store spans join the parent-side
            # root/wait/dispatch spans in one reconstructable timeline.
            for slot in plan:
                if slot.job.trace_id is None:
                    slot.job = replace(slot.job,
                                       trace_id=obs.new_trace_id())
            obs.set_gauge("warp_scheduler_planned_jobs", len(plan))
            duplicates = sum(len(slot.duplicates) for slot in plan)
            if duplicates:
                obs.inc("warp_scheduler_deduped_total", float(duplicates))

        start = time.perf_counter()
        if self.workers >= 1:
            primary = self._run_pooled(plan)
        elif self._worker_fn is not _worker_entry:
            # Custom backend, serial: every job goes through the backend
            # seam (a backend that raises is isolated to a failed result,
            # matching the in-process contract that jobs never raise).
            primary = {slot.job.name:
                       self._run_serial_slot(slot, start, self._run_backend)
                       for slot in plan}
        else:
            primary = {slot.job.name: self._run_serial_slot(
                           slot, start,
                           lambda job: execute_job(job, self.artifact_cache))
                       for slot in plan}
        wall = time.perf_counter() - start
        if obs.ACTIVE is not None:
            obs.inc("warp_batches_total", mode=self.mode)
            obs.observe("warp_batch_wall_seconds", wall, mode=self.mode)

        by_name: Dict[str, ServiceResult] = {}
        for slot in plan:
            for result in JobScheduler.expand(slot, primary[slot.job.name]):
                by_name[result.job_name] = result
        ordered = [by_name[job.name] for job in jobs]
        return ServiceReport(results=ordered, wall_seconds=wall,
                             mode=self.mode, workers=self.workers)

    def _run_serial_slot(self, slot: ScheduledJob, batch_start_perf: float,
                         run: Callable[[WarpJob], ServiceResult]) -> ServiceResult:
        """Execute one planned job on the serial path, recording its
        scheduler-wait and root trace spans when telemetry is active."""
        job = slot.job
        if obs.ACTIVE is None:
            return run(job)
        wait_s = time.perf_counter() - batch_start_perf
        obs.record_span("scheduler-wait", wait_s,
                        start_s=time.time() - wait_s,
                        trace_id=job.trace_id, parent_id=job.trace_id,
                        policy=self.policy)
        result = run(job)
        total_s = time.perf_counter() - batch_start_perf
        obs.record_span("job", total_s, start_s=time.time() - total_s,
                        trace_id=job.trace_id, span_id=job.trace_id,
                        job=job.name, mode="serial",
                        status="ok" if result.ok else "failed")
        return result

    def _record_pooled_spans(self, slot: ScheduledJob, shard: int,
                             submit_wall: float, submit_perf: float,
                             result: ServiceResult) -> None:
        """Parent-side spans for one collected pooled job: the root span,
        the shard-dispatch span, and the scheduler wait (dispatch time not
        spent executing — i.e. queueing behind shard neighbours)."""
        job = slot.job
        dispatch_s = time.perf_counter() - submit_perf
        obs.record_span("job", dispatch_s, start_s=submit_wall,
                        trace_id=job.trace_id, span_id=job.trace_id,
                        job=job.name, mode="pool",
                        status="ok" if result.ok else "failed")
        obs.record_span("shard-dispatch", dispatch_s, start_s=submit_wall,
                        trace_id=job.trace_id, parent_id=job.trace_id,
                        shard=shard)
        wait_s = max(0.0, dispatch_s - result.wall_seconds)
        obs.record_span("scheduler-wait", wait_s, start_s=submit_wall,
                        trace_id=job.trace_id, parent_id=job.trace_id,
                        policy=self.policy)

    def _run_pooled(self, plan: List[ScheduledJob]) -> Dict[str, ServiceResult]:
        telemetry = obs.ACTIVE is not None
        submissions = []
        submit_time = time.monotonic()
        submit_perf = time.perf_counter()
        submit_wall = time.time()
        for slot in plan:
            shard = self._shard_index(slot.job)
            if telemetry:
                obs.inc("warp_shard_jobs_total", shard=shard)
            submissions.append(
                (slot, shard, self._shard(shard).submit(
                    _pool_call, self._worker_fn, telemetry, slot.job)))
        if telemetry:
            obs.set_gauge("warp_shards_active", len(self._shards))
        results: Dict[str, ServiceResult] = {}
        broken: List[ScheduledJob] = []
        dead_shards = set()
        timed_out_shards = set()
        for slot, shard, future in submissions:
            if shard in dead_shards:
                # The shard died (crash or watchdog kill) while an
                # earlier job was being collected; everything queued
                # behind it is an innocent victim — retry, don't wait.
                broken.append(slot)
                continue
            # Watchdog deadline: shard queues are FIFO and collected in
            # the same order, so when this wait times out, *this* job is
            # the one hogging the worker — innocents behind it go to the
            # broken-shard retry path.
            deadline = None
            if slot.timeout_s is not None:
                deadline = max(0.0, submit_time + slot.timeout_s
                               - time.monotonic())
            try:
                result = _take_telemetry(future.result(timeout=deadline))
                results[slot.job.name] = result
                if telemetry:
                    self._record_pooled_spans(slot, shard, submit_wall,
                                              submit_perf, result)
            except FuturesTimeoutError:
                self._kill_shard(shard)
                dead_shards.add(shard)
                timed_out_shards.add(shard)
                results[slot.job.name] = _timed_out_result(slot.job,
                                                           slot.timeout_s)
                if telemetry:
                    obs.inc("warp_timeouts_total")
                    obs.inc("warp_worker_restarts_total", reason="timeout")
            except BrokenProcessPool:
                broken.append(slot)
                dead_shards.add(shard)
                if telemetry:
                    obs.inc("warp_worker_restarts_total", reason="crash")
            except Exception as error:  # noqa: BLE001 - submission-side fault
                results[slot.job.name] = _backend_failed(slot.job, error)
        for shard in dead_shards - timed_out_shards:
            # The shard's worker died; drop the executor (a fresh one is
            # created lazily on the next submission to this shard).
            # Watchdog-killed shards were already removed by _kill_shard.
            self._drop_shard(shard)
        for slot in broken:
            # Re-run every job queued on a dead shard in an isolated pool:
            # innocent victims complete (counted as one retry), the
            # actual crasher fails cleanly.
            result = _take_telemetry(self._retry_isolated(
                slot.job, timeout_s=slot.timeout_s))
            result.retries += 1
            results[slot.job.name] = result
            if telemetry:
                obs.inc("warp_retries_total", site="pool-crash")
                self._record_pooled_spans(slot, self._shard_index(slot.job),
                                          submit_wall, submit_perf, result)
        if telemetry:
            obs.set_gauge("warp_shards_active", len(self._shards))
        return results

    def _run_backend(self, job: WarpJob) -> ServiceResult:
        try:
            return self._worker_fn(job)
        except Exception as error:  # noqa: BLE001 - backend isolation boundary
            return _backend_failed(job, error)

    def _retry_isolated(self, job: WarpJob,
                        timeout_s: Optional[float] = None) -> ServiceResult:
        try:
            with ProcessPoolExecutor(max_workers=1) as isolated:
                future = isolated.submit(_pool_call, self._worker_fn,
                                         obs.ACTIVE is not None, job)
                try:
                    return future.result(timeout=timeout_s)
                except FuturesTimeoutError:
                    # Hung again, alone this time: kill the worker so
                    # the ``with`` join below can complete, and report
                    # the timeout.
                    for process in list(getattr(isolated, "_processes",
                                                {}).values()):
                        try:
                            process.kill()
                        except Exception:  # noqa: BLE001
                            pass
                    return _timed_out_result(job, timeout_s)
        except BrokenProcessPool as error:
            return _worker_died(job, error)
