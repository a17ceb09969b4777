"""Networked warp service benchmarks: persistent store warm-up and gateway
throughput.

Two claims are measured and floored:

* **warm disk store across processes** — the full-size default-engine
  suite sweep runs twice through the ``repro-warp suite`` CLI, each time
  in a *fresh subprocess* sharing one ``--store`` directory.  The second
  process starts with cold in-memory caches but a warm
  :class:`~repro.server.store.DiskArtifactStore`; its CAD stage lookups
  must reach a >= 90% hit rate, with the disk tier counted separately
  from memory hits (it *is* the disk tier doing the serving).
* **gateway throughput** — the full-size both-engine sweep (12 jobs)
  submitted to a WARPNET gateway backed by a 3-worker pool, once as
  single-job submissions over one connection (serial round trips, serial
  execution) and once as one 12-job batch (the pool's content-affinity
  shards run concurrently), alternately for :data:`GATEWAY_ROUNDS`
  rounds.  Every pass gets a fresh gateway that executes one warm-up job
  before the clock starts, so both sides start from the same state and
  the measurement compares steady-state submission paths rather than
  who pays the pool fork.  On a machine with >= 2 CPUs the median batch
  speedup must be at least 1.0.

All numbers are appended to ``BENCH_server.json`` at the repository root
so future changes have a recorded service trajectory.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from repro.microblaze import DEFAULT_ENGINE
from repro.server import GatewayClient, WarpGateway, start_gateway_thread
from repro.service import suite_sweep_jobs
from repro.service.pool import STORE_ENV_VAR

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_PATH = REPO_ROOT / "BENCH_server.json"

#: Acceptance floor: CAD stage hit rate of a fresh process on a warm store.
MIN_WARM_STORE_STAGE_HIT_RATE = 0.90

#: Acceptance floor (>= 2 CPUs): batch submission must not lose to serial,
#: judged on the median serial/batch ratio of :data:`GATEWAY_ROUNDS`.
MIN_BATCH_SPEEDUP = 1.0

#: Alternating serial/batch pass pairs, judged on their median ratio.  A
#: single pair ranged 0.95-1.48 on 2-CPU containers (BENCH_server.json
#: history), so one unlucky pass used to decide the floor.
GATEWAY_ROUNDS = 5

#: Pool size of the gateways in the throughput comparison.
GATEWAY_WORKERS = 3


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-POSIX fallback
        return os.cpu_count() or 1


def _suite_cli(store: Path, out: Path) -> None:
    """One full-size default-engine sweep in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop(STORE_ENV_VAR, None)  # the --store flag must do the wiring
    subprocess.run(
        [sys.executable, "-m", "repro.service.cli", "suite",
         "--store", str(store),
         "--out", str(out), "--quiet"],
        check=True, env=env, cwd=REPO_ROOT, timeout=600,
    )


def _stage_totals(report: dict) -> dict:
    hits = misses = disk = 0
    for metrics in report["stages"].values():
        hits += metrics["hits"]
        misses += metrics["misses"]
        disk += metrics["disk_hits"]
    lookups = hits + misses
    return {
        "stage_hits": hits,
        "stage_misses": misses,
        "stage_disk_hits": disk,
        "stage_hit_rate": hits / lookups if lookups else 0.0,
    }


def _gateway_pass(jobs, warmup, batch: bool):
    """Time ``jobs`` through a fresh 3-worker gateway, after one untimed
    warm-up job (pool fork and first imports stay off the clock).

    Serial submission sends one job per request over one connection, so
    each job executes alone; batch submission sends them all in one
    request, so the pool's shards run concurrently.  Returns the seconds
    and the results."""
    gateway = WarpGateway(port=0, workers=GATEWAY_WORKERS, queue_limit=64)
    thread = start_gateway_thread(gateway)
    try:
        with GatewayClient(gateway.address) as client:
            assert client.submit(warmup).num_failed == 0
            started = time.perf_counter()
            if batch:
                results = client.submit(jobs).results
            else:
                results = [client.submit([job]).results[0] for job in jobs]
            seconds = time.perf_counter() - started
    finally:
        gateway.request_stop()
        thread.join(timeout=60)
    for result in results:
        assert result.ok, (result.job_name, result.error)
    return seconds, results


def test_warm_disk_store_and_gateway_throughput(tmp_path):
    cpus = _cpu_count()

    # ------------------------------------------------- warm store, fresh process
    store = tmp_path / "artifact-store"
    cold_out = tmp_path / "cold.json"
    warm_out = tmp_path / "warm.json"

    cold_started = time.perf_counter()
    _suite_cli(store, cold_out)
    cold_seconds = time.perf_counter() - cold_started
    warm_started = time.perf_counter()
    _suite_cli(store, warm_out)
    warm_seconds = time.perf_counter() - warm_started

    cold = json.loads(cold_out.read_text())
    warm = json.loads(warm_out.read_text())
    assert cold["num_failed"] == 0 and warm["num_failed"] == 0

    cold_stages = _stage_totals(cold)
    warm_stages = _stage_totals(warm)
    # The first process wrote the store; it served nothing from disk.
    assert cold_stages["stage_disk_hits"] == 0
    # The second process's stage hits came from the disk tier (its memory
    # caches started cold), counted separately from memory hits.
    assert warm["cache"]["disk_hits"] > 0
    assert warm_stages["stage_disk_hits"] > 0
    assert warm_stages["stage_disk_hits"] <= warm_stages["stage_hits"]
    assert warm_stages["stage_hit_rate"] >= MIN_WARM_STORE_STAGE_HIT_RATE, \
        warm_stages

    # Results are identical across processes (content-addressed reuse is
    # an optimization, never a numbers change).
    for a, b in zip(cold["jobs"], warm["jobs"]):
        assert a["job_name"] == b["job_name"]
        assert a["speedup"] == b["speedup"], a["job_name"]
        assert a["normalized_warp_energy"] == b["normalized_warp_energy"]

    # ------------------------------------------------------ gateway throughput
    jobs = suite_sweep_jobs(engines=(DEFAULT_ENGINE, "interp"))
    warmup = suite_sweep_jobs(benchmarks=["brev"], small=True)
    rounds = []
    reference = None
    for _ in range(GATEWAY_ROUNDS):
        serial_seconds, serial_results = _gateway_pass(jobs, warmup,
                                                       batch=False)
        batch_seconds, batch_results = _gateway_pass(jobs, warmup,
                                                     batch=True)
        # Same numbers either way, every round (and either way matches
        # the fresh-process CLI runs above).
        if reference is None:
            reference = {result.job_name: result.speedup
                         for result in serial_results}
        for result in serial_results + batch_results:
            assert result.speedup == reference[result.job_name]
        rounds.append({
            "serial_submission_seconds": round(serial_seconds, 4),
            "batch_submission_seconds": round(batch_seconds, 4),
            "batch_speedup": round(serial_seconds / batch_seconds, 2),
        })
    batch_speedup = statistics.median(r["batch_speedup"] for r in rounds)

    record = {
        "jobs": len(jobs),
        "cpus": cpus,
        "store": {
            "cold_process_seconds": round(cold_seconds, 4),
            "warm_process_seconds": round(warm_seconds, 4),
            "cold": cold_stages,
            "warm": warm_stages,
            "warm_disk_hits": warm["cache"]["disk_hits"],
        },
        "gateway": {
            "workers": GATEWAY_WORKERS,
            "batch_speedup": batch_speedup,
            "rounds": rounds,
        },
        "thresholds": {
            "warm_store_stage_hit_rate": MIN_WARM_STORE_STAGE_HIT_RATE,
            "batch_speedup": MIN_BATCH_SPEEDUP,
            "batch_speedup_note": "median of the rounds; only asserted "
                                  "on >= 2 CPUs",
        },
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
    }

    data = _load_bench()
    history = data.get("history", [])
    history.append(record)
    data["latest"] = record
    data["history"] = history[-20:]
    BENCH_PATH.write_text(json.dumps(data, indent=2) + "\n")

    # ---------------------------------------------------------------- the floor
    if cpus >= 2:
        assert batch_speedup >= MIN_BATCH_SPEEDUP, record


def _load_bench() -> dict:
    """The BENCH_server.json document, or {} — an update rewrites only
    its own keys and keeps every other block as recorded."""
    if BENCH_PATH.exists():
        try:
            data = json.loads(BENCH_PATH.read_text())
            if isinstance(data, dict):
                return data
        except json.JSONDecodeError:
            pass
    return {}
