"""The unified telemetry plane: metrics registry, trace spans, pool-worker
telemetry returned with job results, the live ``metrics`` wire verb, and
report derivation."""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import replace

import pytest

from repro import obs
from repro.obs import (
    MetricError,
    MetricsRegistry,
    Span,
    SpanSink,
    Telemetry,
    merge_snapshots,
    prometheus_text,
    spans_from_jsonl,
)
from repro.server import GatewayClient, WarpGateway, start_gateway_thread
from repro.service import WarpJob, WarpService
from repro.service.jobs import RESULT_METRIC_FIELDS, ServiceResult


@contextlib.contextmanager
def running_gateway(**kwargs):
    kwargs.setdefault("port", 0)
    gateway = WarpGateway(**kwargs)
    thread = start_gateway_thread(gateway)
    try:
        yield gateway
    finally:
        gateway.request_stop()
        thread.join(timeout=30)


def _jobs():
    return [
        WarpJob(name="brev-s", benchmark="brev", small=True, priority=2),
        WarpJob(name="matmul-s", benchmark="matmul", small=True),
        WarpJob(name="brev-twin", benchmark="brev", small=True),
    ]


def _family_sum(snapshot, family):
    return sum(s["value"] for s in
               snapshot.get(family, {}).get("samples", []))


def _stage_lookup_totals(snapshot):
    """Per-stage lookup counts summed over sources — mode-invariant:
    whether a stage was served from cache or computed, it is looked up
    exactly once per unique execution."""
    totals = {}
    for sample in snapshot.get("warp_stage_lookups_total",
                               {}).get("samples", []):
        stage = sample["labels"]["stage"]
        totals[stage] = totals.get(stage, 0) + sample["value"]
    return totals


# --------------------------------------------------------------------------- registry
class TestMetricsRegistry:
    def test_counter_labels_and_negative_rejection(self):
        reg = MetricsRegistry()
        requests = reg.counter("requests")
        requests.inc(verb="submit")
        requests.inc(2, verb="submit")
        requests.inc(verb="status")
        snap = reg.snapshot()
        by_verb = {s["labels"]["verb"]: s["value"]
                   for s in snap["requests"]["samples"]}
        assert by_verb == {"submit": 3, "status": 1}
        with pytest.raises(MetricError):
            requests.inc(-1, verb="submit")

    def test_kind_clash_raises(self):
        reg = MetricsRegistry()
        reg.counter("thing")
        with pytest.raises(MetricError):
            reg.gauge("thing")

    def test_gauge_set_and_inc(self):
        reg = MetricsRegistry()
        depth = reg.gauge("depth")
        depth.set(4)
        depth.set(7)  # set semantics: last write wins
        assert reg.snapshot()["depth"]["samples"][0]["value"] == 7
        depth.inc(2)
        assert depth.value() == 9

    def test_histogram_bucket_placement(self):
        reg = MetricsRegistry()
        wall = reg.histogram("wall")
        wall.observe(0.0005)
        wall.observe(0.3)
        wall.observe(99.0)  # above every bound -> overflow
        state = reg.snapshot()["wall"]["samples"][0]
        assert state["count"] == 3
        assert sum(state["counts"]) == 3
        assert state["counts"][0] == 1       # <= 0.001
        assert state["counts"][-1] == 1      # +Inf overflow
        assert state["sum"] == pytest.approx(0.3005 + 99.0)

    def test_histogram_bounds_must_increase(self):
        reg = MetricsRegistry()
        with pytest.raises(MetricError):
            reg.histogram("bad", buckets=(1.0, 1.0, 2.0))

    def test_merge_adds_counters_gauges_and_buckets(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("jobs").inc(2, status="ok")
        b.counter("jobs").inc(3, status="ok")
        b.counter("jobs").inc(1, status="error")
        a.gauge("shards").set(1)
        b.gauge("shards").set(1)  # per-process gauges sum to the fleet
        a.histogram("wall", buckets=(1.0,)).observe(0.1)
        b.histogram("wall", buckets=(1.0,)).observe(5.0)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        jobs = {s["labels"]["status"]: s["value"]
                for s in merged["jobs"]["samples"]}
        assert jobs == {"ok": 5, "error": 1}
        assert merged["shards"]["samples"][0]["value"] == 2
        wall = merged["wall"]["samples"][0]
        assert wall["counts"] == [1, 1] and wall["count"] == 2

    def test_merge_rejects_kind_clash(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("x").inc()
        b.gauge("x").set(1)
        with pytest.raises(MetricError):
            merge_snapshots([a.snapshot(), b.snapshot()])

    def test_prometheus_text_exposition(self):
        reg = MetricsRegistry()
        reg.counter("warp_jobs_total").inc(3, engine="jit", status="ok")
        reg.gauge("warp_queue_depth").set(2)
        reg.histogram("warp_job_wall_seconds",
                      buckets=(0.1, 1.0)).observe(0.3)
        text = prometheus_text(reg.snapshot())
        assert '# TYPE warp_jobs_total counter' in text
        assert 'warp_jobs_total{engine="jit",status="ok"} 3' in text
        assert "warp_queue_depth 2" in text
        # histogram buckets are cumulative in the exposition
        assert 'warp_job_wall_seconds_bucket{le="1"} 1' in text
        assert 'warp_job_wall_seconds_bucket{le="+Inf"} 1' in text
        assert "warp_job_wall_seconds_count 1" in text
        # every sample line is `name{labels} value` parseable
        for line in text.splitlines():
            if line.startswith("#") or not line:
                continue
            name, value = line.rsplit(" ", 1)
            assert name and float(value) is not None


# --------------------------------------------------------------------------- spans
class TestSpanSink:
    def test_ring_capacity_and_cursor(self):
        sink = SpanSink(capacity=4)
        for i in range(6):
            sink.record(Span(name=f"s{i}", trace_id="t", span_id=str(i),
                             parent_id=None, start_s=float(i),
                             duration_s=0.0))
        assert [s.name for s in sink.snapshot()] == ["s2", "s3", "s4", "s5"]
        cursor, new = sink.since(4)
        assert cursor == 6 and [s.name for s in new] == ["s4", "s5"]
        # stale cursor beyond eviction still yields what the ring holds
        _, tail = sink.since(0)
        assert len(tail) == 4

    def test_jsonl_roundtrip_rejects_torn_lines(self, tmp_path):
        sink = SpanSink()
        with obs.active_telemetry():
            with obs.span("outer"):
                with obs.span("inner", step=1):
                    pass
            sink = obs.ACTIVE.spans
            path = tmp_path / "trace.jsonl"
            sink.export_jsonl(path)
        blob = path.read_text()
        with pytest.raises(json.JSONDecodeError):
            spans_from_jsonl(blob + '{"name": "torn", "trace')
        spans = spans_from_jsonl(blob)
        assert [s.name for s in spans] == ["inner", "outer"]
        inner, outer = spans
        assert inner.trace_id == outer.trace_id
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert inner.attrs == {"step": 1}


# --------------------------------------------------------------------------- gating
class TestDisabledGating:
    def test_helpers_are_noops_without_active_telemetry(self):
        assert obs.ACTIVE is None
        obs.inc("warp_never_total", status="ok")
        obs.set_gauge("warp_never_depth", 3)
        obs.observe("warp_never_wall", 0.5)
        handle = obs.span("never")
        assert handle is obs._NOOP_SPAN
        with handle as bound:
            assert bound is None
        assert obs.ACTIVE is None  # still nothing installed

    def test_active_telemetry_installs_and_restores(self):
        assert obs.ACTIVE is None
        with obs.active_telemetry() as telemetry:
            assert obs.ACTIVE is telemetry
            obs.inc("warp_x_total")
            assert _family_sum(telemetry.snapshot(), "warp_x_total") == 1
        assert obs.ACTIVE is None


# --------------------------------------------------------------------------- serial wiring
class TestServiceTelemetrySerial:
    def test_serial_run_populates_families_and_timelines(self):
        with obs.active_telemetry() as telemetry:
            with WarpService(workers=0) as service:
                report = service.run(_jobs())
            snap = telemetry.snapshot()
        assert report.num_failed == 0
        # jobs/engine accounting: the dedup twin shares the primary's
        # execution, so 3 jobs -> 2 executed
        assert _family_sum(snap, "warp_jobs_total") == 2
        assert _family_sum(snap, "warp_engine_instructions_total") > 0
        assert snap["warp_batches_total"]["samples"][0]["labels"] == \
            {"mode": "serial"}
        assert _family_sum(snap, "warp_scheduler_deduped_total") == 1
        # stage lookups cover the executed flow
        stages = _stage_lookup_totals(snap)
        assert stages and all(count >= 1 for count in stages.values())
        # every result carries its trace id; the dedup twin shares the
        # primary's execution and therefore its trace
        traces = {r.job_name: r.trace_id for r in report.results}
        assert all(traces.values())
        assert traces["brev-twin"] == traces["brev-s"]
        # timeline reconstructs: root job span -> execute -> cad stages
        spans = telemetry.spans.snapshot()
        for trace_id in {traces["brev-s"], traces["matmul-s"]}:
            mine = [s for s in spans if s.trace_id == trace_id]
            by_name = {}
            for span in mine:
                by_name.setdefault(span.name, []).append(span)
            root = by_name["job"][0]
            assert root.parent_id is None and root.span_id == trace_id
            assert by_name["scheduler-wait"][0].parent_id == trace_id
            execute = by_name["execute"][0]
            assert execute.parent_id == trace_id
            assert by_name["cad-stage"], trace_id
            assert all(s.parent_id == execute.span_id
                       for s in by_name["cad-stage"])

    def test_disabled_run_records_nothing(self):
        assert obs.ACTIVE is None
        with WarpService(workers=0) as service:
            report = service.run(_jobs()[:1])
        assert report.num_failed == 0
        assert report.results[0].trace_id is None
        assert obs.ACTIVE is None


# --------------------------------------------------------------------------- cross-process
class TestCrossProcessAggregation:
    def test_pool_worker_metrics_sum_identically_to_serial(self):
        """The pooled snapshot, merged from the workers' returned
        telemetry, agrees with a serial run on every mode-invariant
        family (differential)."""
        with obs.active_telemetry() as telemetry:
            with WarpService(workers=0) as service:
                serial_report = service.run(_jobs())
            serial = telemetry.snapshot()

        with obs.active_telemetry() as telemetry:
            with WarpService(workers=2) as service:
                pooled_report = service.run(_jobs())
            parent_only = telemetry.snapshot()
            pooled = telemetry.collect()

        assert serial_report.num_failed == 0
        assert pooled_report.num_failed == 0
        # workers incremented these in their own processes: the parent
        # registry alone must lack them, the merged collect must have them
        assert "warp_jobs_total" not in parent_only
        assert _family_sum(pooled, "warp_jobs_total") == \
            _family_sum(serial, "warp_jobs_total") == 2
        assert _stage_lookup_totals(pooled) == _stage_lookup_totals(serial)
        assert _family_sum(pooled, "warp_engine_instructions_total") == \
            _family_sum(serial, "warp_engine_instructions_total")
        # worker spans came back too: full timelines reconstruct
        pooled.get("warp_shard_jobs_total")  # pooled-only family present
        assert "warp_shard_jobs_total" in pooled
        names = {s.name for s in telemetry.spans.snapshot()}
        assert {"job", "shard-dispatch", "execute", "cad-stage"} <= names
        assert obs.ACTIVE is None

    def test_pooled_report_json_carries_no_telemetry(self):
        """The worker payload is transport only: taken off every result
        before the report exists, and never read back from the wire."""
        with obs.active_telemetry():
            with WarpService(workers=1) as service:
                report = service.run(_jobs()[:2])
        assert report.num_failed == 0
        assert all(result.trace_id and result.telemetry is None
                   for result in report.results)
        for job in json.loads(report.to_json())["jobs"]:
            assert "telemetry" not in job
        plain = dict(report.results[0].to_plain(),
                     telemetry=[{"process_id": "gateway", "metrics": {}}])
        assert ServiceResult.from_plain(plain).telemetry is None

    def test_worker_snapshots_are_keyed_by_process_id_not_pid(self):
        """A restarted worker that reuses a dead worker's pid adds to the
        totals instead of overwriting the dead worker's."""
        dead, restarted = Telemetry(worker=True), Telemetry(worker=True)
        assert dead.owner_pid == restarted.owner_pid == os.getpid()
        dead.registry.counter("warp_jobs_total").inc(3)
        restarted.registry.counter("warp_jobs_total").inc(2)
        primary = Telemetry()
        primary.ingest(dead.flush())
        primary.ingest(restarted.flush())
        assert _family_sum(primary.collect(), "warp_jobs_total") == 5

    def test_newer_worker_snapshot_replaces_the_older_one(self):
        """Snapshots are full totals: a second payload from the same
        worker supersedes the first, while its spans arrive once each."""
        worker, primary = Telemetry(worker=True), Telemetry()
        counter = worker.registry.counter("warp_jobs_total")
        for name in ("first", "second"):
            counter.inc()
            worker.spans.record(Span(name=name, trace_id="t",
                                     span_id=name))
            primary.ingest(worker.flush())
        assert _family_sum(primary.collect(), "warp_jobs_total") == 2
        assert [s.name for s in primary.spans.snapshot()] == \
            ["first", "second"]
        assert worker.spans.snapshot() == []

    def test_untraced_pool_ignores_trace_ids_from_the_wire(self,
                                                           monkeypatch):
        """Whether a pool worker collects follows the submitting service,
        not the job: a job that arrives already carrying a trace id (a
        wire submit or a job file) costs an untraced
        service's workers nothing."""
        from repro.service import pool

        payloads = []
        take = pool._take_telemetry

        def recording_take(result):
            payloads.append(result.telemetry)
            return take(result)

        monkeypatch.setattr(pool, "_take_telemetry", recording_take)
        jobs = [replace(job, trace_id=f"upstream-{job.name}")
                for job in _jobs()]
        with WarpService(workers=1) as service:
            report = service.run(jobs)
        assert report.num_failed == 0
        assert payloads == [None, None]
        assert all(result.telemetry is None for result in report.results)
        # the same jobs under telemetry do ship a payload each
        payloads.clear()
        with obs.active_telemetry():
            with WarpService(workers=1) as service:
                assert service.run(jobs).num_failed == 0
        assert len(payloads) == 2 and all(payloads)

    def test_worker_telemetry_follows_the_primary_and_never_the_fork(self):
        """A pool worker collects exactly when its primary does, never
        into a telemetry inherited from its parent, and leaves a
        primary's own telemetry alone."""
        inherited = Telemetry()
        inherited.owner_pid = -1  # what a forked worker sees of its parent
        try:
            obs.install(inherited)
            obs.ensure_process_telemetry(False)
            assert obs.ACTIVE is None
            obs.install(inherited)
            obs.ensure_process_telemetry(True)
            worker = obs.ACTIVE
            assert worker is not inherited and worker.worker
            obs.ensure_process_telemetry(True)
            assert obs.ACTIVE is worker
            assert obs.flush_worker_telemetry()["process_id"] == \
                worker.process_id
            obs.ensure_process_telemetry(False)
            assert obs.ACTIVE is None
            with obs.active_telemetry() as primary:
                obs.ensure_process_telemetry(False)
                assert obs.ACTIVE is primary
                assert obs.flush_worker_telemetry() is None
        finally:
            obs.clear()


# --------------------------------------------------------------------------- wire verb
class TestGatewayMetricsVerb:
    def test_metrics_verb_and_queue_depth_in_status(self):
        with running_gateway(workers=0) as gateway:
            with GatewayClient(gateway.address) as client:
                report_reply = client.submit(_jobs()[:2], wait=True)
                reply = client.metrics()
                assert reply["enabled"] is True
                metrics = reply["metrics"]
                assert _family_sum(metrics, "warp_jobs_total") == 2
                assert _family_sum(metrics, "warp_gateway_requests_total") \
                    >= 2
                assert "warp_queue_depth" in metrics
                assert "warp_queue_limit" in metrics
                # queue bookkeeping rides on batch replies (satellite)
                assert reply["queue_depth"] == 0
                assert reply["queue_limit"] == gateway.queue_limit
                # incremental span polling via the cursor
                assert reply["spans"], "first poll returns the backlog"
                cursor = reply["cursor"]
                again = client.metrics(since=cursor)
                # the only news since the cursor is the previous metrics
                # request itself (the verb observes itself too)
                assert {s["name"] for s in again["spans"]} <= \
                    {"gateway:metrics"}
                cursor = again["cursor"]
                client.submit(_jobs()[:1], wait=True)
                fresh = client.metrics(since=cursor)
                assert fresh["spans"], "new work produces new spans"
                assert {s["name"] for s in fresh["spans"]} & \
                    {"job", "execute", "gateway:submit"}
                # spans can be skipped to keep the payload small
                lean = client.metrics(include_spans=False)
                assert lean["spans"] == []
            assert report_reply.num_failed == 0
        # gateway owned the telemetry: teardown uninstalls it
        assert obs.ACTIVE is None

    def test_no_telemetry_gateway_reports_disabled(self):
        with running_gateway(workers=0, telemetry=False) as gateway:
            with GatewayClient(gateway.address) as client:
                reply = client.metrics()
                assert reply["enabled"] is False
                assert reply["metrics"] == {}
                # queue keys are plain bookkeeping, present regardless
                assert reply["queue_depth"] == 0
        assert obs.ACTIVE is None


# --------------------------------------------------------------------------- report derivation
class TestReportMetricDerivation:
    def test_report_blocks_derive_from_the_metric_mapping(self):
        """Satellite: cache/resilience report blocks come from one
        mapping, not hand-merged ints."""
        with WarpService(workers=0) as service:
            report = service.run(_jobs())
        totals = report.metrics_totals()
        assert set(totals) == set(RESULT_METRIC_FIELDS)
        assert totals["cache.hits"] == report.cache_hits
        assert totals["resilience.retries"] == report.total_retries
        plain = report.to_plain()
        assert set(plain["cache"]) == \
            {key.split(".", 1)[1] for key in RESULT_METRIC_FIELDS
             if key.startswith("cache.")} | {"hit_rate"}
        assert plain["resilience"] == report.metrics_block("resilience")
        # per-result metric snapshot mirrors the same mapping
        first = report.results[0].metrics_snapshot()
        assert set(first) == set(RESULT_METRIC_FIELDS)
