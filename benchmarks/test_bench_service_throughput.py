"""Warp-service throughput: pooled vs serial sweeps, CAD-cache reuse.

Runs the built-in full-size suite sweep (six benchmarks × the paper
configuration × both execution engines = 12 jobs) through the warp
service twice per mode:

* **pooled, cold → warm** — the sweep on a content-affinity worker pool,
  then the identical sweep again through the same (living) service, whose
  per-worker CAD caches are now warm;
* **serial, cold → warm** — the same pair on the in-process path.

Asserted floors (ISSUE 2 acceptance):

* the second identical sweep reaches a >= 90% artifact-cache hit rate and
  skips synthesis/place/route for every cached kernel (every partitioned
  job reports ``cad_cache_hit`` with zero misses);
* on a machine with at least two CPUs the pooled cold sweep beats the
  serial cold sweep's wall time;
* pooled and serial sweeps produce numerically identical results.

All numbers are appended to ``BENCH_service.json`` at the repository root
so future PRs have a recorded service-throughput trajectory.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

from repro.compiler import clear_compile_cache
from repro.microblaze import DEFAULT_ENGINE, PAPER_CONFIG
from repro.service import WarpService, process_artifact_cache, suite_sweep_jobs

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_service.json"

#: Acceptance floor: hit rate of the second identical sweep.
MIN_SECOND_SWEEP_HIT_RATE = 0.90


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-POSIX fallback
        return os.cpu_count() or 1


def _sweep_jobs():
    return suite_sweep_jobs(configs=[("paper", PAPER_CONFIG)],
                            engines=(DEFAULT_ENGINE, "interp"))


def _timed_run(service, jobs):
    start = time.perf_counter()
    report = service.run(jobs)
    return report, time.perf_counter() - start


def _assert_warm_sweep_served_from_cache(report):
    assert report.cache_hit_rate >= MIN_SECOND_SWEEP_HIT_RATE, \
        f"second sweep hit rate {report.cache_hit_rate:.2f}"
    for result in report.results:
        assert result.ok, result.error
        if result.partitioned:
            # Synthesis/place/route were skipped: the CAD artifacts came
            # out of the content-addressed cache without a single miss.
            assert result.cad_cache_hit, result.job_name
            assert result.cache_misses == 0, result.job_name


def test_service_sweep_throughput_and_cache_reuse():
    cpus = _cpu_count()
    jobs = _sweep_jobs()
    workers = max(2, min(4, cpus))

    # ---------------------------------------------------------------- pooled
    with WarpService(workers=workers) as pooled_service:
        pooled_cold, pooled_cold_seconds = _timed_run(pooled_service, jobs)
        pooled_warm, pooled_warm_seconds = _timed_run(pooled_service, jobs)
    assert pooled_cold.num_failed == 0
    _assert_warm_sweep_served_from_cache(pooled_warm)

    # ---------------------------------------------------------------- serial
    # Cold caches for a fair serial baseline (the pooled run warmed only
    # its worker processes, but clear defensively).
    process_artifact_cache().clear()
    clear_compile_cache()
    serial_service = WarpService(workers=0)
    serial_cold, serial_cold_seconds = _timed_run(serial_service, jobs)
    serial_warm, serial_warm_seconds = _timed_run(serial_service, jobs)
    assert serial_cold.num_failed == 0
    _assert_warm_sweep_served_from_cache(serial_warm)

    # ------------------------------------------------------------ equivalence
    for a, b in zip(serial_cold.results, pooled_cold.results):
        assert a.job_name == b.job_name
        assert a.speedup == b.speedup, a.job_name
        assert a.normalized_warp_energy == b.normalized_warp_energy, a.job_name
        assert a.checksum_ok and b.checksum_ok

    record = {
        "jobs": len(jobs),
        "cpus": cpus,
        "workers": workers,
        "serial": {
            "cold_seconds": round(serial_cold_seconds, 4),
            "warm_seconds": round(serial_warm_seconds, 4),
            "warm_hit_rate": round(serial_warm.cache_hit_rate, 4),
        },
        "pooled": {
            "cold_seconds": round(pooled_cold_seconds, 4),
            "warm_seconds": round(pooled_warm_seconds, 4),
            "warm_hit_rate": round(pooled_warm.cache_hit_rate, 4),
        },
        "pool_speedup": round(serial_cold_seconds / pooled_cold_seconds, 2),
        "thresholds": {
            "second_sweep_hit_rate": MIN_SECOND_SWEEP_HIT_RATE,
            "pooled_faster_than_serial": "only asserted on >= 2 CPUs",
        },
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
    }

    history = []
    if BENCH_PATH.exists():
        try:
            previous = json.loads(BENCH_PATH.read_text())
            history = previous.get("history", [])
        except (json.JSONDecodeError, AttributeError):
            history = []
    history.append(record)
    BENCH_PATH.write_text(json.dumps({"latest": record,
                                      "history": history[-20:]},
                                     indent=2) + "\n")

    # -------------------------------------------------------------- the floor
    if cpus >= 2:
        assert pooled_cold_seconds < serial_cold_seconds, record


#: Generous ceiling on injection-gate visits per job: one worker gate,
#: every CAD stage, a store load + publish per stage, and a few wire
#: frames.  The real warm-path count is far lower (cache hits skip the
#: stage and store gates entirely).
GATES_PER_JOB = 100

#: Acceptance: the disabled fault plane costs < 2% of a warm job.
MAX_DISABLED_CHAOS_OVERHEAD = 0.02


def test_disabled_fault_plane_overhead_is_negligible():
    """Chaos-plane guard: with no fault plan installed, every injection
    site costs one module attribute load and an ``is`` check.

    Wall-clock A/B sweeps cannot resolve a 2% bound on this host (the
    scheduler noise between two identical warm sweeps exceeds it), so
    the guard bounds the overhead analytically from two measurements:
    the per-visit cost of a disabled gate (measured over enough visits
    to defeat timer noise) times a generous per-job gate-count ceiling,
    as a fraction of the best measured warm job.  The margin is ~two
    orders of magnitude, so this stays stable on a loaded CI box.
    """
    from repro import chaos

    assert chaos.ACTIVE_PLAN is None  # measuring the *disabled* plane
    iterations = 200_000
    start = time.perf_counter()
    for _ in range(iterations):
        # The exact production pattern at every injection site.
        if chaos.ACTIVE_PLAN is not None:  # pragma: no cover
            chaos.fire(chaos.SITE_WORKER_JOB)
    gate_seconds = (time.perf_counter() - start) / iterations

    jobs = suite_sweep_jobs(benchmarks=["brev", "matmul", "idct"],
                            small=True)
    service = WarpService(workers=0)
    service.run(jobs)  # warm every cache first
    best_sweep = min(_timed_run(service, jobs)[1] for _ in range(5))
    job_seconds = best_sweep / len(jobs)

    overhead = GATES_PER_JOB * gate_seconds / job_seconds
    assert overhead < MAX_DISABLED_CHAOS_OVERHEAD, (
        f"disabled chaos gates cost {overhead:.2%} of a warm job "
        f"({gate_seconds * 1e9:.0f} ns/gate x {GATES_PER_JOB} gates vs "
        f"{job_seconds * 1e3:.2f} ms/job)")


#: Generous ceiling on telemetry-gate visits per job: the execute span,
#: every CAD stage span + lookup counter, store load/publish wrappers,
#: engine counters and the batch/scheduler bookkeeping.  The real count
#: on a warm (cache-served) job is far lower.
TELEMETRY_GATES_PER_JOB = 150

#: Acceptance: the uninstrumented (telemetry off) run stays within 2% of
#: the plain warm-job throughput recorded before the telemetry plane.
MAX_DISABLED_TELEMETRY_OVERHEAD = 0.02


def test_disabled_telemetry_overhead_is_negligible():
    """Telemetry-plane guard: with no telemetry installed, every metric
    and span site costs one module attribute load and an ``is`` check —
    the same discipline the fault plane proved out above.

    The same analytic bound is used for the same reason: scheduler noise
    between two identical warm sweeps exceeds 2% on a shared box, while
    gate cost x a generous per-job site ceiling against the best warm
    job resolves it with orders of magnitude to spare.  The measured
    numbers ride along in ``BENCH_service.json`` so the trajectory of
    the uninstrumented path stays on record.
    """
    from repro import obs

    assert obs.ACTIVE is None  # measuring the *disabled* plane
    iterations = 200_000
    start = time.perf_counter()
    for _ in range(iterations):
        # The exact production pattern at every instrumentation site.
        if obs.ACTIVE is not None:  # pragma: no cover
            obs.inc("warp_jobs_total", status="ok")
    gate_seconds = (time.perf_counter() - start) / iterations

    jobs = suite_sweep_jobs(benchmarks=["brev", "matmul", "idct"],
                            small=True)
    service = WarpService(workers=0)
    service.run(jobs)  # warm every cache first
    best_sweep = min(_timed_run(service, jobs)[1] for _ in range(5))
    job_seconds = best_sweep / len(jobs)

    overhead = TELEMETRY_GATES_PER_JOB * gate_seconds / job_seconds

    # Record the measurement next to the throughput numbers, keeping the
    # file's shape ({"latest": ..., "history": [...]}) and history.
    if BENCH_PATH.exists():
        try:
            payload = json.loads(BENCH_PATH.read_text())
        except json.JSONDecodeError:
            payload = {"latest": {}, "history": []}
        block = {
            "gate_ns": round(gate_seconds * 1e9, 1),
            "gates_per_job_ceiling": TELEMETRY_GATES_PER_JOB,
            "warm_job_ms": round(job_seconds * 1e3, 3),
            "overhead_fraction": round(overhead, 6),
            "threshold": MAX_DISABLED_TELEMETRY_OVERHEAD,
        }
        payload.setdefault("latest", {})["telemetry_overhead"] = block
        if payload.get("history"):
            payload["history"][-1]["telemetry_overhead"] = block
        BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    assert overhead < MAX_DISABLED_TELEMETRY_OVERHEAD, (
        f"disabled telemetry gates cost {overhead:.2%} of a warm job "
        f"({gate_seconds * 1e9:.0f} ns/gate x {TELEMETRY_GATES_PER_JOB} "
        f"gates vs {job_seconds * 1e3:.2f} ms/job)")
