"""The warp service: jobs, scheduler, artifact cache, worker pool, CLI."""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import obs
from repro.apps import build_benchmark
from repro.caching import BoundedLRU, lru_memoize
from repro.compiler import (clear_compile_cache, compile_cache_stats,
                            compile_source, compile_source_cached)
from repro.cad import canonical_wcla_form
from repro.fabric import DEFAULT_WCLA
from repro.fabric.architecture import WclaParameters
from repro.microblaze import MINIMAL_CONFIG, PAPER_CONFIG
from repro.obs import spans_from_jsonl
from repro.server import DiskArtifactStore
from repro.service import (
    CadArtifactCache,
    JobScheduler,
    JobSpecError,
    WarpJob,
    WarpService,
    canonical_body_form,
    execute_job,
    suite_sweep_jobs,
)
from repro.service.cli import load_job_file, main
from repro.warp import WarpProcessor


# --------------------------------------------------------------------------- shared LRU
class TestBoundedLRU:
    def test_hit_miss_accounting_and_eviction(self):
        lru = BoundedLRU(maxsize=2)
        assert lru.get("a") is None
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.get("a") == 1
        lru.put("c", 3)  # evicts "b" (least recently used)
        assert lru.get("b") is None
        assert lru.get("c") == 3
        assert (lru.hits, lru.misses, lru.evictions) == (2, 2, 1)

    def test_clear_resets_everything(self):
        lru = BoundedLRU(maxsize=4)
        lru.put("a", 1)
        lru.get("a")
        lru.clear()
        assert len(lru) == 0
        assert lru.counters() == (0, 0)

    def test_memoize_decorator_shares_the_primitive(self):
        calls = []

        @lru_memoize(maxsize=8)
        def square(x):
            calls.append(x)
            return x * x

        assert square(3) == 9
        assert square(3) == 9
        assert calls == [3]
        assert isinstance(square.cache, BoundedLRU)
        square.cache_clear()
        assert square(3) == 9
        assert calls == [3, 3]

    def test_compile_cache_is_a_bounded_lru(self):
        """Satellite: compile_source_cached and the artifact cache share
        one LRU implementation with an explicit clear()."""
        clear_compile_cache()
        bench = build_benchmark("brev", small=True)
        compile_source_cached(bench.source, name="brev", config=PAPER_CONFIG)
        compile_source_cached(bench.source, name="brev", config=PAPER_CONFIG)
        stats = compile_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        clear_compile_cache()
        assert compile_cache_stats()["size"] == 0


# --------------------------------------------------------------------------- jobs
class TestWarpJob:
    def test_exactly_one_workload_required(self):
        with pytest.raises(JobSpecError):
            WarpJob(name="neither")
        with pytest.raises(JobSpecError):
            WarpJob(name="both", benchmark="brev", source="int main() {}")

    def test_dedup_key_ignores_name_and_priority(self):
        a = WarpJob(name="a", benchmark="brev", small=True, priority=1)
        b = WarpJob(name="b", benchmark="brev", small=True, priority=9)
        c = WarpJob(name="c", benchmark="brev", small=False)
        d = WarpJob(name="d", benchmark="brev", small=True,
                    config=MINIMAL_CONFIG)
        assert a.dedup_key() == b.dedup_key()
        assert a.dedup_key() != c.dedup_key()
        assert a.dedup_key() != d.dedup_key()

    def test_jobs_are_picklable(self):
        import pickle
        job = WarpJob(name="a", benchmark="brev", small=True)
        assert pickle.loads(pickle.dumps(job)) == job

    def test_suite_sweep_enumerates_the_cross_product(self):
        jobs = suite_sweep_jobs(configs=[("paper", PAPER_CONFIG),
                                         ("minimal", MINIMAL_CONFIG)],
                                engines=("jit", "interp"),
                                benchmarks=["brev", "matmul"], small=True)
        assert len(jobs) == 2 * 2 * 2
        assert len({job.name for job in jobs}) == len(jobs)


# --------------------------------------------------------------------------- scheduler
class TestJobScheduler:
    def test_dedup_and_priority_order(self):
        scheduler = JobScheduler(policy="priority")
        low = WarpJob(name="low", benchmark="brev", small=True, priority=0)
        high = WarpJob(name="high", benchmark="matmul", small=True, priority=5)
        twin = WarpJob(name="twin", benchmark="brev", small=True, priority=9)
        scheduler.add_many([low, high, twin])
        assert scheduler.num_submitted == 3
        assert scheduler.num_unique == 2
        plan = scheduler.plan()
        # The twin's priority 9 lifts the brev slot above the matmul slot.
        assert [slot.job.name for slot in plan] == ["low", "high"]
        assert plan[0].priority == 9
        assert [j.name for j in plan[0].duplicates] == ["twin"]

    def test_fifo_policy_keeps_submission_order(self):
        scheduler = JobScheduler(policy="fifo")
        scheduler.add_many([
            WarpJob(name="a", benchmark="brev", small=True, priority=0),
            WarpJob(name="b", benchmark="matmul", small=True, priority=99),
        ])
        assert [slot.job.name for slot in scheduler.plan()] == ["a", "b"]

    def test_duplicate_names_rejected(self):
        scheduler = JobScheduler()
        scheduler.add(WarpJob(name="a", benchmark="brev", small=True))
        with pytest.raises(ValueError, match="name"):
            scheduler.add(WarpJob(name="a", benchmark="matmul", small=True))

    def test_twin_result_keeps_its_own_label(self):
        """config_label is scheduling metadata (outside the dedup key), so
        a deduplicated twin's fanned-out result must carry its own label."""
        from repro.service.jobs import expand_duplicate
        from repro.service import ServiceResult
        primary = ServiceResult(job_name="a", workload="brev",
                                config_label="paper", engine="jit",
                                speedup=2.0, cache_hits=3, cache_misses=1)
        twin = WarpJob(name="b", benchmark="brev", small=True,
                       config_label="my-label")
        expanded = expand_duplicate(primary, twin)
        assert expanded.job_name == "b"
        assert expanded.config_label == "my-label"
        assert expanded.deduped_from == "a"
        assert expanded.speedup == 2.0
        # Cache accounting stays with the job that actually executed.
        assert (expanded.cache_hits, expanded.cache_misses) == (0, 0)


# --------------------------------------------------------------------------- artifact cache
def _hits_misses(cache):
    stats = cache.stats()
    return stats["hits"], stats["misses"]


class TestArtifactCache:
    def _kernel_for(self, name, config=PAPER_CONFIG):
        bench = build_benchmark(name, small=True)
        program = compile_source(bench.source, name=name,
                                 config=config).program
        processor = WarpProcessor(config=config)
        result, profiler = processor.profile(program)
        from repro.decompile import decompile_and_extract
        return decompile_and_extract(program.text,
                                     profiler.most_critical_region())

    def test_canonical_form_is_address_independent_and_deterministic(self):
        kernel_a = self._kernel_for("brev")
        kernel_b = self._kernel_for("brev")
        assert canonical_body_form(kernel_a.body) \
            == canonical_body_form(kernel_b.body)

    def test_key_distinguishes_kernels_and_wcla(self):
        brev = self._kernel_for("brev")
        matmul = self._kernel_for("matmul")
        assert canonical_body_form(brev.body) \
            != canonical_body_form(matmul.body)
        other_wcla = WclaParameters(memory_ports=2)
        assert canonical_wcla_form(DEFAULT_WCLA) \
            != canonical_wcla_form(other_wcla)

    def test_warp_flow_hits_on_repeat_and_skips_cad(self):
        cache = CadArtifactCache()
        bench = build_benchmark("brev", small=True)
        program = compile_source(bench.source, name="brev",
                                 config=PAPER_CONFIG).program

        first = WarpProcessor(config=PAPER_CONFIG,
                              artifact_cache=cache).run(program.copy())
        assert first.partitioning.success
        assert not first.partitioning.cad_cache_hit
        assert _hits_misses(cache) == (0, 5)  # the five keyed CAD stages

        second = WarpProcessor(config=PAPER_CONFIG,
                               artifact_cache=cache).run(program.copy())
        assert second.partitioning.cad_cache_hit
        assert _hits_misses(cache) == (5, 5)
        # Served from cache, yet numerically identical.
        assert second.speedup == first.speedup
        assert second.partitioning.synthesis is first.partitioning.synthesis
        assert second.checksums_match
        # The modelled on-chip tool time is a property of the simulated
        # system, not of the host-side memoization.
        assert second.partitioning.dpm_seconds \
            == first.partitioning.dpm_seconds

    def test_clear_forces_cold_flow(self):
        cache = CadArtifactCache()
        bench = build_benchmark("brev", small=True)
        program = compile_source(bench.source, name="brev",
                                 config=PAPER_CONFIG).program
        WarpProcessor(config=PAPER_CONFIG,
                      artifact_cache=cache).run(program.copy())
        cache.clear()
        result = WarpProcessor(config=PAPER_CONFIG,
                               artifact_cache=cache).run(program.copy())
        assert not result.partitioning.cad_cache_hit
        assert _hits_misses(cache) == (0, 5)


# --------------------------------------------------------------------------- execution
class TestExecuteJob:
    def test_successful_job(self):
        cache = CadArtifactCache()
        job = WarpJob(name="brev-job", benchmark="brev", small=True)
        result = execute_job(job, cache)
        assert result.ok and result.partitioned and result.checksum_ok
        assert result.speedup > 1.0
        assert result.normalized_warp_energy < 1.0
        assert result.cache_misses == 1
        assert result.worker_pid == os.getpid()

    def test_failing_job_is_contained(self):
        job = WarpJob(name="bad", source="int main( {")
        result = execute_job(job, CadArtifactCache())
        assert not result.ok
        assert "ParseError" in result.error

    def test_unpartitionable_job_reports_reason(self):
        # A straight-line kernel has no loop for the profiler to find.
        job = WarpJob(name="flat", source="int main() { return 7; }")
        result = execute_job(job, CadArtifactCache())
        assert result.ok
        assert not result.partitioned
        assert result.partition_reason
        assert result.speedup == 1.0


class TestWarpServiceSerial:
    def test_batch_with_dedup_failure_and_report(self):
        jobs = [
            WarpJob(name="brev", benchmark="brev", small=True),
            WarpJob(name="brev-twin", benchmark="brev", small=True),
            WarpJob(name="matmul", benchmark="matmul", small=True),
            WarpJob(name="broken", source="int main( {"),
        ]
        service = WarpService(workers=0, artifact_cache=CadArtifactCache())
        report = service.run(jobs)
        assert report.mode == "serial"
        assert [r.job_name for r in report.results] \
            == [job.name for job in jobs]
        by_name = {r.job_name: r for r in report.results}
        assert by_name["brev-twin"].deduped_from == "brev"
        assert by_name["brev-twin"].speedup == by_name["brev"].speedup
        assert not by_name["broken"].ok
        assert report.num_failed == 1
        # Report plumbing: figure-style rows and JSON round trip.
        rows = report.speedup_rows()
        assert rows[-1][0] == "Average:"
        plain = json.loads(report.to_json())
        assert plain["num_jobs"] == 4
        assert "speedup" in plain["tables"]

    def test_second_sweep_is_served_from_cache(self):
        jobs = suite_sweep_jobs(benchmarks=["brev", "matmul", "idct"],
                                small=True)
        service = WarpService(workers=0, artifact_cache=CadArtifactCache())
        first = service.run(jobs)
        second = service.run(jobs)
        assert first.cache_hit_rate == 0.0
        assert second.cache_hit_rate == 1.0
        assert all(r.cad_cache_hit for r in second.results)


class TestConcurrentCacheAccounting:
    """Threads sharing one cache — what the gateway's concurrent batch
    executors do with ``workers=0`` — must each be credited exactly their
    own lookups: per-job counts come from the job's stage records, never
    from deltas of the shared cache's counters."""

    THREADS = 4
    ROUNDS = 5

    def _run_in_threads(self, jobs, cache):
        def run_all(_):
            return [execute_job(job, cache) for job in jobs]
        with ThreadPoolExecutor(self.THREADS) as pool:
            batches = list(pool.map(run_all, range(self.THREADS),
                                    timeout=120))
        return [result for batch in batches for result in batch]

    def test_warm_shared_cache_credits_one_hit_per_job(self):
        jobs = suite_sweep_jobs(small=True)
        cache = CadArtifactCache()
        for job in jobs:
            execute_job(job, cache)
        results = self._run_in_threads(jobs, cache)
        assert len(results) == self.THREADS * len(jobs)
        assert all(result.ok for result in results)
        assert [(result.cache_hits, result.cache_misses)
                for result in results] == [(1, 0)] * len(results)

    def test_disk_hits_per_job_sum_to_the_cache_count(self, tmp_path):
        """Each round races fresh in-memory caches over one warm store:
        which thread's lookup hits disk first is up to the scheduler, but
        the per-job counts must always add up to the cache's own."""
        jobs = suite_sweep_jobs(small=True)
        warm = CadArtifactCache(store=DiskArtifactStore(tmp_path))
        for job in jobs:
            execute_job(job, warm)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for _ in range(self.ROUNDS):
                cache = CadArtifactCache(store=DiskArtifactStore(tmp_path))
                results = self._run_in_threads(jobs, cache)
                assert all(result.ok and result.cad_cache_hit
                           for result in results)
                assert sum(result.cache_disk_hits for result in results) \
                    == cache.disk_hits > 0
        finally:
            sys.setswitchinterval(interval)


# --------------------------------------------------------------------------- the pool
def _crashing_worker(job):
    """Test worker: kills its process for the poisoned job (bypassing all
    exception handling, like a segfault would)."""
    if job.name == "poison":
        os._exit(17)
    from repro.service.pool import _worker_entry
    return _worker_entry(job)


def _poisoned_batch():
    """A batch whose middle job kills its worker (see _crashing_worker)."""
    return [
        WarpJob(name="before", benchmark="brev", small=True),
        WarpJob(name="poison", benchmark="matmul", small=True),
        WarpJob(name="after", benchmark="idct", small=True),
    ]


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="worker-crash test relies on fork inheritance")
class TestWarpServicePool:
    def test_pooled_results_match_serial(self):
        jobs = suite_sweep_jobs(benchmarks=["brev", "matmul"], small=True)
        serial = WarpService(workers=0,
                             artifact_cache=CadArtifactCache()).run(jobs)
        with WarpService(workers=2) as pooled_service:
            pooled = pooled_service.run(jobs)
        assert pooled.mode == "pool"
        for a, b in zip(serial.results, pooled.results):
            assert a.job_name == b.job_name
            assert a.speedup == b.speedup
            assert a.normalized_warp_energy == b.normalized_warp_energy

    def test_content_affinity_keeps_worker_caches_warm(self):
        jobs = suite_sweep_jobs(benchmarks=["brev", "matmul", "idct"],
                                small=True)
        with WarpService(workers=2) as service:
            service.run(jobs)
            second = service.run(jobs)
        # Same content routes to the same (warm) worker: full hit rate.
        assert second.cache_hit_rate == 1.0

    def test_worker_crash_yields_failed_result_not_dead_pool(self):
        jobs = _poisoned_batch()
        with WarpService(workers=1, worker_fn=_crashing_worker) as service:
            report = service.run(jobs)
            by_name = {r.job_name: r for r in report.results}
            assert by_name["before"].ok
            assert not by_name["poison"].ok
            assert "died" in by_name["poison"].error
            assert by_name["after"].ok
            # The service survives for the next batch.
            again = service.run([WarpJob(name="healthy", benchmark="brev",
                                         small=True)])
            assert again.results[0].ok

    def test_worker_crash_loses_only_its_in_flight_jobs_telemetry(self):
        """Each job's telemetry comes home with its result, so the crash
        costs only the poisoned job's: the jobs before and after it (the
        latter retried in a fresh worker) are counted and traced."""
        jobs = _poisoned_batch()
        with obs.active_telemetry() as telemetry:
            with WarpService(workers=1, worker_fn=_crashing_worker) as service:
                report = service.run(jobs)
            merged = telemetry.collect()
            spans = telemetry.spans.snapshot()
        traces = {result.job_name: result.trace_id
                  for result in report.results}
        assert sum(sample["value"] for sample in
                   merged["warp_jobs_total"]["samples"]) == 2
        assert {span.trace_id for span in spans if span.name == "execute"} \
            == {traces["before"], traces["after"]}


# --------------------------------------------------------------------------- CLI
class TestCli:
    def test_trace_out_exports_worker_spans_under_job_roots(self, tmp_path):
        out = tmp_path / "spans.jsonl"
        code = main(["suite", "--benchmarks", "brev,matmul", "--small",
                     "--workers", "2", "--trace-out", str(out), "--quiet"])
        assert code == 0
        assert obs.ACTIVE is None
        spans = spans_from_jsonl(out.read_text())
        roots = {span.span_id for span in spans
                 if span.name == "job" and span.parent_id is None}
        assert len(roots) == 2
        assert "shard-dispatch" in {span.name for span in spans}
        # execute and its CAD stages ran in the pool workers
        executes = {span.span_id: span for span in spans
                    if span.name == "execute"}
        assert {span.parent_id for span in executes.values()} == roots
        stages = [span for span in spans if span.name == "cad-stage"]
        assert stages and all(span.parent_id in executes for span in stages)

    def test_suite_subcommand_writes_report(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["suite", "--benchmarks", "brev", "--small",
                     "--workers", "0", "--repeat", "2", "--quiet",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["num_jobs"] == 1
        # The second repeat was served from the CAD cache.
        assert payload["cache"]["hit_rate"] == 1.0

    def test_jobs_subcommand(self, tmp_path):
        jobfile = tmp_path / "jobs.json"
        jobfile.write_text(json.dumps({"jobs": [
            {"name": "fast", "benchmark": "brev", "small": True,
             "priority": 2},
            {"name": "no-units", "benchmark": "brev", "small": True,
             "config": {"use_barrel_shifter": False,
                        "use_multiplier": False},
             "config_label": "minimal-ish"},
        ]}))
        out = tmp_path / "report.json"
        code = main(["jobs", str(jobfile), "--quiet", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        names = {job["job_name"] for job in payload["jobs"]}
        assert names == {"fast", "no-units"}

    def test_job_file_validation(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"jobs": [{"name": "x",
                                             "benchmark": "brev",
                                             "bogus_field": 1}]}))
        with pytest.raises(JobSpecError, match="bogus_field"):
            load_job_file(bad)
        bad.write_text(json.dumps({"jobs": [{"name": "x", "benchmark": "b",
                                             "config": {"not_a_field": 1}}]}))
        with pytest.raises(JobSpecError, match="not_a_field"):
            load_job_file(bad)
        # Structured config values and non-integer scheduling fields are
        # rejected with a clean JobSpecError, not a raw traceback later.
        bad.write_text(json.dumps({"jobs": [
            {"name": "x", "benchmark": "b",
             "config": {"timings": {"load": 2}}}]}))
        with pytest.raises(JobSpecError, match="scalar"):
            load_job_file(bad)
        bad.write_text(json.dumps({"jobs": [
            {"name": "x", "benchmark": "b", "priority": "high"}]}))
        with pytest.raises(JobSpecError, match="integer"):
            load_job_file(bad)

    def test_failing_jobs_set_exit_code(self, tmp_path):
        jobfile = tmp_path / "jobs.json"
        jobfile.write_text(json.dumps({"jobs": [
            {"name": "broken", "source": "int main( {"},
        ]}))
        assert main(["jobs", str(jobfile), "--quiet"]) == 1

    def test_unknown_config_name_rejected(self):
        assert main(["suite", "--configs", "nonsense", "--quiet"]) == 2


# --------------------------------------------------------------------------- integration
class TestMultiprocessorSharedCache:
    def test_cores_share_one_cad_flow(self, compiled_small_programs):
        """Two cores running the same application: the shared DPM performs
        the CAD flow once and serves the second core from the cache."""
        from repro.warp import MultiProcessorWarpSystem
        cache = CadArtifactCache()
        system = MultiProcessorWarpSystem(num_cores=2, artifact_cache=cache)
        result = system.run([compiled_small_programs["brev"].copy(),
                             compiled_small_programs["brev"].copy()])
        assert all(core.partitioning.success for core in result.per_core)
        assert not result.per_core[0].partitioning.cad_cache_hit
        assert result.per_core[1].partitioning.cad_cache_hit
        assert _hits_misses(cache) == (5, 5)
        assert result.per_core[0].speedup == result.per_core[1].speedup
