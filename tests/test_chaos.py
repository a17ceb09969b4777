"""Chaos differential harness — seeded fault injection vs. recovery.

The acceptance bar of the fault-injection PR: under deterministic,
seeded fault plans (wire truncations and resets, store corruption and
publish orphans, transient CAD-stage and worker faults, worker kills,
hung workers) the recovery policies must keep the *canonical* report —
the physics the paper cares about — bit-identical to a fault-free run.
Graceful degradation means slower, never different.

And the inverse: with recovery disabled (no retry policy, quarantine
off, budgets exhausted), faults must surface as *typed, named errors* —
never hangs, never silent divergence.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import time

import pytest

from repro import chaos
from repro.cad import CadArtifactCache
from repro.chaos import (
    ChaosError,
    FaultPlan,
    FaultRule,
    Injection,
    SITE_CAD_STAGE,
    SITE_STORE_LOAD,
    SITE_STORE_PUBLISH,
    SITE_WIRE_READ,
    SITE_WIRE_WRITE,
    SITE_WORKER_JOB,
)
from repro.microblaze import PAPER_CONFIG
from repro.microblaze.engines import engine_names
from repro.retry import DEFAULT_REMOTE_POLICY, RetryPolicy
from repro.server import DiskArtifactStore, GatewayClient, WarpGateway, \
    start_gateway_thread
from repro.service import WarpJob, WarpService, execute_job


@pytest.fixture(autouse=True)
def _no_plan_leaks():
    """Chaos plans are process-global state; never leak one across tests."""
    yield
    chaos.clear_plan()
    chaos.clear_environment_plan()


def _parity_jobs():
    """A small but representative batch: duplicate content (dedup path),
    a custom processor configuration, two different benchmarks."""
    return [
        WarpJob(name="brev", benchmark="brev", small=True, priority=2),
        WarpJob(name="brev-twin", benchmark="brev", small=True),
        WarpJob(name="idct-no-mul", benchmark="idct", small=True,
                config=dataclasses.replace(PAPER_CONFIG,
                                           use_multiplier=False),
                config_label="no-mul"),
    ]


def _baseline(jobs, store_path=None):
    store = DiskArtifactStore(store_path) if store_path else None
    cache = CadArtifactCache(store=store) if store else CadArtifactCache()
    return WarpService(workers=0, artifact_cache=cache).run(jobs)


# ------------------------------------------------------------- plan machinery
class TestFaultPlanMachinery:
    def test_rule_validation_is_loud(self):
        with pytest.raises(ValueError, match="site"):
            FaultRule(site="warp-core", kind="error")
        with pytest.raises(ValueError, match="kind"):
            FaultRule(site=SITE_WORKER_JOB, kind="bitrot")
        with pytest.raises(ValueError, match="probability"):
            FaultRule(site=SITE_WORKER_JOB, kind="error", probability=0.0)
        with pytest.raises(ValueError, match="max_fires"):
            FaultRule(site=SITE_WORKER_JOB, kind="error", max_fires=0)

    @pytest.mark.parametrize("site, kind", [("peer-fetch", "error"),
                                            ("mesh-member", "reset")])
    def test_deleted_gateway_mesh_sites_are_rejected(self, site, kind):
        """The gateway mesh and its two injection sites are gone; a plan
        that still names one fails when built, never fires silently."""
        with pytest.raises(ValueError, match="unknown injection site"):
            FaultRule(site=site, kind=kind)
        # A plan exported to pool workers (JSON) is rejected the same way.
        with pytest.raises(ValueError, match="unknown injection site"):
            FaultPlan.from_plain({"seed": 1, "rules": [{"site": site,
                                                        "kind": kind}]})

    @staticmethod
    def _fire_script(plan):
        """Drive a fixed site sequence, recording what each visit did."""
        trace = []
        for site in (SITE_CAD_STAGE, SITE_STORE_LOAD, SITE_CAD_STAGE,
                     SITE_STORE_PUBLISH, SITE_CAD_STAGE, SITE_STORE_LOAD) * 5:
            try:
                injection = plan.fire(site, label="script")
            except ChaosError:
                trace.append("error")
            else:
                trace.append(injection.kind if injection else None)
        return trace

    def test_same_seed_fires_identically(self):
        rules = [
            FaultRule(site=SITE_CAD_STAGE, kind="error", probability=0.3,
                      max_fires=3),
            FaultRule(site=SITE_STORE_LOAD, kind="corrupt", probability=0.4),
            FaultRule(site=SITE_STORE_PUBLISH, kind="orphan",
                      probability=0.5),
        ]
        first = self._fire_script(FaultPlan(seed=7, rules=rules))
        second = self._fire_script(FaultPlan(seed=7, rules=rules))
        different = self._fire_script(FaultPlan(seed=8, rules=rules))
        assert first == second
        assert any(entry is not None for entry in first)
        assert first != different  # the seed is load-bearing

    def test_json_round_trip_preserves_behavior(self):
        plan = chaos.standard_plan(5)
        clone = FaultPlan.from_json(plan.to_json())
        assert clone.seed == plan.seed
        assert clone.rules == plan.rules
        assert self._fire_script(clone) \
            == self._fire_script(chaos.standard_plan(5))

    def test_in_process_fire_budget_is_bounded(self):
        plan = FaultPlan(seed=0, rules=[
            FaultRule(site=SITE_WORKER_JOB, kind="error", max_fires=2)])
        for _ in range(2):
            with pytest.raises(ChaosError):
                plan.fire(SITE_WORKER_JOB)
        assert plan.fire(SITE_WORKER_JOB) is None  # budget spent
        assert plan.injections == {(SITE_WORKER_JOB, "error"): 2}

    def test_budget_dir_spans_plan_instances(self, tmp_path):
        """Marker-file budgets make "exactly once" hold across processes;
        two instances sharing the directory model two pool workers."""
        spec = FaultPlan(seed=0, rules=[
            FaultRule(site=SITE_WORKER_JOB, kind="error", max_fires=1)],
            budget_dir=tmp_path).to_json()
        worker_a = FaultPlan.from_json(spec)
        worker_b = FaultPlan.from_json(spec)
        with pytest.raises(ChaosError):
            worker_a.fire(SITE_WORKER_JOB)
        assert worker_b.fire(SITE_WORKER_JOB) is None
        assert worker_a.fire(SITE_WORKER_JOB) is None

    def test_mangle_truncates_and_corrupts(self):
        blob = bytes(range(64))
        truncated = Injection(site=SITE_WIRE_WRITE, kind="truncate",
                              fraction=0.5).mangle(blob)
        assert truncated == blob[:32]
        corrupted = Injection(site=SITE_STORE_LOAD, kind="corrupt",
                              fraction=0.25).mangle(blob)
        assert len(corrupted) == len(blob)
        assert corrupted != blob
        assert corrupted[16] == blob[16] ^ 0xFF

    def test_no_plan_means_no_injection(self):
        assert chaos.ACTIVE_PLAN is None
        assert chaos.fire(SITE_WORKER_JOB, label="anything") is None

    def test_active_plan_restores_and_exports(self):
        plan = chaos.standard_plan(1)
        with chaos.active_plan(plan, export=True):
            assert chaos.ACTIVE_PLAN is plan
            assert chaos.PLAN_ENV_VAR in os.environ
        assert chaos.ACTIVE_PLAN is None
        assert chaos.PLAN_ENV_VAR not in os.environ

    def test_ensure_process_plan_reads_the_environment(self):
        chaos.clear_plan()
        os.environ[chaos.PLAN_ENV_VAR] = chaos.standard_plan(9).to_json()
        try:
            chaos.ensure_process_plan()
            assert chaos.ACTIVE_PLAN is not None
            assert chaos.ACTIVE_PLAN.seed == 9
        finally:
            chaos.clear_plan()
            chaos.clear_environment_plan()


# ------------------------------------------------------------------ retry policy
class TestRetryPolicy:
    def test_schedules_are_deterministic(self):
        policy = RetryPolicy(max_attempts=5, seed=3)
        a, b = policy.delays(), policy.delays()
        assert [a.next_delay() for _ in range(4)] \
            == [b.next_delay() for _ in range(4)]
        reseeded = RetryPolicy(max_attempts=5, seed=4).delays()
        assert reseeded.next_delay() != policy.delays().next_delay()

    def test_backoff_grows_and_is_capped(self):
        policy = RetryPolicy(max_attempts=10, base_delay_s=0.05,
                             max_delay_s=0.4, jitter=0.0)
        schedule = policy.delays()
        delays = [schedule.next_delay() for _ in range(6)]
        assert delays[0] == pytest.approx(0.05)
        assert delays[1] == pytest.approx(0.10)
        assert all(x <= 0.4 + 1e-9 for x in delays)
        assert delays[-1] == pytest.approx(0.4)

    def test_occupancy_stretches_the_delay(self):
        policy = RetryPolicy(jitter=0.0)
        empty = policy.delays().next_delay(occupancy=0.0)
        full = policy.delays().next_delay(occupancy=1.0)
        assert full == pytest.approx(2 * empty)

    def test_give_up_after_the_attempt_budget(self):
        schedule = RetryPolicy(max_attempts=3).delays()
        verdicts = []
        for _ in range(4):
            verdicts.append(schedule.give_up())
            schedule.next_delay()
        assert verdicts == [False, False, False, True]

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=-1)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)


# ----------------------------------------------------- serial recovery policies
class TestSerialRecovery:
    def test_transient_cad_stage_faults_are_absorbed(self):
        job = WarpJob(name="j", benchmark="brev", small=True)
        clean = execute_job(job, CadArtifactCache())
        plan = FaultPlan(seed=0, rules=[
            FaultRule(site=SITE_CAD_STAGE, kind="error", max_fires=2)])
        with chaos.active_plan(plan):
            faulted = execute_job(job, CadArtifactCache())
        assert faulted.ok
        assert faulted.canonical() == clean.canonical()
        assert plan.injections == {(SITE_CAD_STAGE, "error"): 2}

    def test_transient_worker_faults_are_retried_and_counted(self):
        job = WarpJob(name="j", benchmark="brev", small=True)
        clean = execute_job(job, CadArtifactCache())
        plan = FaultPlan(seed=0, rules=[
            FaultRule(site=SITE_WORKER_JOB, kind="error", max_fires=2)])
        with chaos.active_plan(plan):
            faulted = execute_job(job, CadArtifactCache())
        assert faulted.ok
        assert faulted.retries == 2  # surfaced in the resilience counters
        assert faulted.canonical() == clean.canonical()

    def test_exhausted_budget_is_a_typed_error_not_a_hang(self):
        """Recovery disabled (faults beyond every retry budget) must
        yield a failed result naming the fault type — never a hang."""
        job = WarpJob(name="doomed", benchmark="brev", small=True)
        plan = FaultPlan(seed=0, rules=[
            FaultRule(site=SITE_WORKER_JOB, kind="error")])  # unlimited
        with chaos.active_plan(plan):
            result = execute_job(job, CadArtifactCache())
        assert not result.ok
        assert "ChaosError" in result.error
        assert "worker-job" in result.error

    def test_unrecovered_stage_fault_is_typed_too(self):
        job = WarpJob(name="doomed", benchmark="brev", small=True)
        plan = FaultPlan(seed=0, rules=[
            FaultRule(site=SITE_CAD_STAGE, kind="error", match="route")])
        with chaos.active_plan(plan):
            result = execute_job(job, CadArtifactCache())
        assert not result.ok
        assert "ChaosError" in result.error


# --------------------------------------------------------- differential parity
class TestDifferentialParity:
    """The tentpole proof: seeded fault plans + recovery == fault-free."""

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_standard_plan_is_invisible_in_the_report(self, seed, tmp_path):
        jobs = _parity_jobs()
        baseline = _baseline(jobs, tmp_path / "clean-store")
        plan = chaos.standard_plan(seed)
        with chaos.active_plan(plan):
            store = DiskArtifactStore(tmp_path / "chaos-store")
            chaotic = WarpService(
                workers=0,
                artifact_cache=CadArtifactCache(store=store)).run(jobs)
        assert chaotic.canonical() == baseline.canonical()
        assert plan.total_injections() > 0, \
            "seed fired nothing — pick a different seed"

    def test_wire_faults_with_retry_are_invisible(self):
        jobs = _parity_jobs()
        baseline = _baseline(jobs)
        plan = FaultPlan(seed=5, rules=[
            # match= keeps the handshake clean: the constructor connects
            # outside the retry loop by design (wrong peer ≠ transient).
            FaultRule(site=SITE_WIRE_WRITE, kind="truncate", max_fires=1,
                      match="submit"),
            FaultRule(site=SITE_WIRE_READ, kind="reset", max_fires=1),
        ])
        retry = RetryPolicy(max_attempts=5, base_delay_s=0.01,
                            max_delay_s=0.05)
        gateway = WarpGateway(port=0, workers=0)
        thread = start_gateway_thread(gateway)
        try:
            with GatewayClient(gateway.address, retry=retry) as client:
                with chaos.active_plan(plan):
                    report = client.submit(jobs, wait=True)
        finally:
            gateway.request_stop()
            thread.join(timeout=30)
        assert report.canonical() == baseline.canonical()
        assert plan.total_injections() == 2

    def test_wire_fault_without_retry_is_a_typed_error(self):
        plan = FaultPlan(seed=1, rules=[
            FaultRule(site=SITE_WIRE_READ, kind="reset", max_fires=1)])
        gateway = WarpGateway(port=0, workers=0)
        thread = start_gateway_thread(gateway)
        try:
            with GatewayClient(gateway.address) as client:  # no retry
                with chaos.active_plan(plan):
                    with pytest.raises(ConnectionResetError):
                        client.cache_stats()
        finally:
            gateway.request_stop()
            thread.join(timeout=30)

    def test_store_corruption_is_recomputed_not_propagated(self, tmp_path):
        """A corrupted disk entry is quarantined and the value recomputed;
        the warm-run report matches the cold one exactly."""
        job = WarpJob(name="j", benchmark="brev", small=True)
        cold = execute_job(job, CadArtifactCache(
            store=DiskArtifactStore(tmp_path)))
        plan = FaultPlan(seed=2, rules=[
            FaultRule(site=SITE_STORE_LOAD, kind="corrupt", max_fires=2)])
        store = DiskArtifactStore(tmp_path)
        with chaos.active_plan(plan):
            warm = execute_job(job, CadArtifactCache(store=store))
        assert warm.ok
        assert warm.canonical() == cold.canonical()
        assert store.corrupt_entries == 2
        quarantined = list(tmp_path.rglob("*.quarantine"))
        assert len(quarantined) == 2

    def test_publish_orphans_degrade_to_recompute(self, tmp_path):
        """Entries orphaned mid-publish (tmp written, never renamed) are
        invisible to correctness and swept by the next open's GC."""
        job = WarpJob(name="j", benchmark="brev", small=True)
        clean = execute_job(job, CadArtifactCache())
        plan = FaultPlan(seed=4, rules=[
            FaultRule(site=SITE_STORE_PUBLISH, kind="orphan")])
        with chaos.active_plan(plan):
            faulted = execute_job(job, CadArtifactCache(
                store=DiskArtifactStore(tmp_path)))
        assert faulted.canonical() == clean.canonical()
        orphans = list(tmp_path.rglob(".*.tmp"))
        assert orphans, "every publish should have orphaned a tmp file"
        for orphan in orphans:  # age past the GC cutoff deterministically
            os.utime(orphan, (time.time() - 7200, time.time() - 7200))
        reopened = DiskArtifactStore(tmp_path)
        # The orphaned schema marker is republished (renamed away) at
        # reopen rather than collected; entry orphans are GC'd.
        entry_orphans = [o for o in orphans if "WARPDISK" not in o.name]
        assert reopened.orphan_tmp_removed == len(entry_orphans)
        assert not list(tmp_path.rglob(".*.tmp"))


# ------------------------------------------------------------------ pool chaos
def _sleepy_worker(job):
    """Test worker: wedges the process on the poisoned job (a hang the
    watchdog, not exception handling, must resolve)."""
    if job.name == "hang":
        time.sleep(60)
    from repro.service.pool import _worker_entry
    return _worker_entry(job)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="pool chaos tests rely on fork inheritance")
class TestPoolChaos:
    def test_watchdog_kills_hung_worker_and_retries_innocents(self):
        jobs = [
            WarpJob(name="hang", benchmark="brev", small=True,
                    timeout_s=1.0, priority=10),
            WarpJob(name="innocent", benchmark="matmul", small=True),
        ]
        with WarpService(workers=1, worker_fn=_sleepy_worker) as service:
            started = time.monotonic()
            report = service.run(jobs)
            elapsed = time.monotonic() - started
        by_name = {r.job_name: r for r in report.results}
        assert not by_name["hang"].ok
        assert by_name["hang"].timeouts == 1
        assert "watchdog" in by_name["hang"].error
        assert "1s" in by_name["hang"].error  # names the budget
        # The innocent queued behind the hang is retried in isolation,
        # not blamed for its shard-mate's timeout.
        assert by_name["innocent"].ok
        assert by_name["innocent"].retries == 1
        assert report.total_timeouts == 1
        assert elapsed < 30, "the watchdog must preempt the hang"
        # A fresh service (the shard was killed) still executes cleanly.
        with WarpService(workers=1, worker_fn=_sleepy_worker) as service:
            again = service.run([WarpJob(name="healthy", benchmark="brev",
                                         small=True)])
        assert again.num_failed == 0

    def test_timeout_metadata_is_not_part_of_job_identity(self):
        a = WarpJob(name="a", benchmark="brev", small=True, timeout_s=1.0)
        b = WarpJob(name="b", benchmark="brev", small=True, timeout_s=9.0)
        assert a.dedup_key() == b.dedup_key()
        with pytest.raises(Exception, match="timeout_s"):
            WarpJob(name="bad", benchmark="brev", timeout_s=-1.0)

    @pytest.mark.parametrize("engine", engine_names())
    def test_injected_worker_kill_is_invisible_per_engine(self, engine,
                                                          tmp_path):
        """Satellite: for every registered execution engine, killing one
        pool worker mid-batch (exit 43, bypassing all handlers) leaves
        the canonical report identical to the fault-free run."""
        jobs = [
            WarpJob(name=f"{engine}-brev", benchmark="brev", small=True,
                    engine=engine),
            WarpJob(name=f"{engine}-matmul", benchmark="matmul", small=True,
                    engine=engine),
        ]
        baseline = _baseline(jobs)
        plan = FaultPlan(seed=9, rules=[
            FaultRule(site=SITE_WORKER_JOB, kind="kill", max_fires=1)],
            budget_dir=tmp_path)
        with chaos.active_plan(plan, export=True):
            with WarpService(workers=2) as service:
                chaotic = service.run(jobs)
        assert chaotic.canonical() == baseline.canonical()
        # Exactly one kill was claimed (marker file), and the victim's
        # isolated retry is visible in the resilience counters.
        assert len(list(tmp_path.iterdir())) == 1
        assert chaotic.total_retries >= 1
        assert chaotic.num_failed == 0

    def test_standard_plan_parity_under_a_pool(self, tmp_path):
        jobs = _parity_jobs()
        baseline = _baseline(jobs)
        plan = chaos.standard_plan(17, budget_dir=tmp_path)
        with chaos.active_plan(plan, export=True):
            with WarpService(workers=2) as service:
                chaotic = service.run(jobs)
        assert chaotic.canonical() == baseline.canonical()
