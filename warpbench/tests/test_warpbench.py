"""Tests of the benchmark's own helpers (no timing is asserted).

Run with ``PYTHONPATH=src python -m pytest warpbench/tests -q``.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from warpbench import stats, workloads  # noqa: E402
from warpbench.calibration import REFERENCE_SECONDS, HostSpeed  # noqa: E402
from warpbench.checks import checksum_matches  # noqa: E402
from warpbench.tracing import Tracer, layer_table  # noqa: E402


# ------------------------------------------------------------- percentiles
def test_percentile_is_nearest_rank():
    values = list(range(1, 11))
    assert stats.percentile(values, 50) == 5
    assert stats.percentile(values, 90) == 9
    assert stats.percentile(values, 100) == 10
    assert stats.percentile([7.0], 90) == 7.0


@pytest.mark.parametrize("count, expected", [
    (10, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
    (1000, 99.0), (9999, 99.0), (10000, 99.9)])
def test_highest_percentile_keeps_ten_samples_beyond(count, expected):
    assert stats.highest_percentile(count) == expected
    if expected is not None:
        assert stats.samples_beyond(count, expected) >= 10


def test_latency_summary_reports_count_and_refuses_small_samples():
    summary = stats.latency_summary([float(value) for value in range(100)])
    assert summary["samples"] == 100
    assert summary["top_pct"] == 90.0
    assert summary["p50"] == 49.0 and summary["p90"] == 89.0
    with pytest.raises(ValueError):
        stats.latency_summary([1.0] * 99)


def test_host_speed_scales_to_the_reference_host():
    host = HostSpeed()
    host.samples = [2 * REFERENCE_SECONDS, 4 * REFERENCE_SECONDS,
                    2 * REFERENCE_SECONDS]
    assert host.factor == pytest.approx(0.5)
    assert host.seconds(3.0) == pytest.approx(1.5)
    host.sample()
    assert len(host.samples) == 4 and host.samples[-1] > 0


def test_median_rate_takes_the_median_of_whole_chunks():
    events = [(0.5, 5), (0.5, 5), (1.0, 30), (0.25, 1)]
    assert stats.median_rate(events) == pytest.approx(20.0)
    assert stats.median_rate([(1.0, 4)] * 3 + [(1.0, 40)]) == \
        pytest.approx(4.0)
    with pytest.raises(ValueError):
        stats.median_rate([(0.5, 5)])


# --------------------------------------------------------------- self time
def _span(span_id, parent, start, end, name="x", trace="t"):
    return {"span_id": span_id, "parent_id": parent, "start": start,
            "end": end, "name": name, "trace_id": trace, "attrs": {}}


def test_self_time_subtracts_the_union_of_children():
    spans = [_span("root", None, 0.0, 10.0),
             _span("a", "root", 1.0, 4.0),
             _span("b", "root", 3.0, 6.0),
             _span("a1", "a", 2.0, 3.0),
             _span("late", "root", 9.0, 12.0)]
    selfs = stats.self_times(spans)
    assert selfs["root"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs["a"] == pytest.approx(2.0)
    assert selfs["b"] == pytest.approx(3.0)
    assert selfs["a1"] == pytest.approx(1.0)


def test_layer_table_coverage_and_phases():
    spans = [
        _span("j", None, 0.0, 10.0, "job", "j"),
        _span("c", "j", 0.0, 1.0, "compiler.compile", "j"),
        _span("p", "j", 1.0, 4.0, "warp.profile", "j"),
        _span("pr", "p", 1.5, 4.0, "microblaze.run", "j"),
        _span("w", "j", 4.0, 9.5, "warp.run", "j"),
        _span("wr", "w", 5.0, 9.0, "microblaze.run", "j"),
        _span("k", "wr", 6.0, 8.0, "fabric.kernel", "j"),
        _span("other", None, 20.0, 30.0, "microblaze.run", "o"),
    ]
    spans[3]["attrs"]["instructions"] = 1000
    spans[5]["attrs"]["instructions"] = 1000
    spans[6]["attrs"]["iterations"] = 4
    table = layer_table(spans)
    assert table["jobs"] == 1
    assert table["job_wall_ms"] == pytest.approx(10_000.0)
    assert table["microblaze.profile_run_ms"] == pytest.approx(2_500.0)
    assert table["microblaze.warp_run_ms"] == pytest.approx(2_000.0)
    assert table["fabric.kernel_ms"] == pytest.approx(2_000.0)
    assert table["fabric.kernel_iterations"] == 4
    assert table["microblaze.host_ns_per_instr"] == pytest.approx(
        4.5e9 / 2000)
    assert table["warp.self_ms"] == pytest.approx(500.0 + 1_500.0)
    assert table["job.unattributed_ms"] == pytest.approx(500.0)
    assert table["job.coverage_ratio"] == pytest.approx(0.95)
    slow_host = layer_table(spans, speed_factor=0.5)
    assert slow_host["fabric.kernel_ms"] == pytest.approx(1_000.0)
    assert slow_host["job.coverage_ratio"] == pytest.approx(0.95)


# ------------------------------------------------------------ model errors
def test_model_errors_against_the_paper_means():
    assert stats.model_errors([5.8] * 6, [0.43] * 6) == \
        pytest.approx((0.0, 0.0))
    speedup_err, energy_err = stats.model_errors([6.38, 5.22], [0.3, 0.3])
    assert speedup_err == pytest.approx(0.0)
    assert energy_err == pytest.approx((0.7 - 0.57) / 0.57)
    speedup_err, _ = stats.model_errors([5.49], [0.43])
    assert speedup_err == pytest.approx(0.31 / 5.8)
    with pytest.raises(ValueError):
        stats.model_errors([], [])


def test_checksums_compare_as_32_bit_words():
    assert checksum_matches(0xFFFFFFFF, -1)
    assert checksum_matches(5, 5)
    assert not checksum_matches(5, -5)


# ------------------------------------------------------------- workloads
def _job_bytes(workload, seed, count):
    from repro.server.protocol import jobs_to_plain
    return json.dumps(jobs_to_plain(workloads.describe(workload, seed,
                                                       count)),
                      sort_keys=True).encode()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_seed_reproduces_byte_identical_job_lists(workload):
    count = workloads.EPOCH_JOBS + 5
    first = _job_bytes(workload, 7, count)
    assert first == _job_bytes(workload, 7, count)
    assert first != _job_bytes(workload, 8, count)


def test_fresh_epoch_structure():
    entries = next(workloads.fresh_epochs(3))
    jobs = [job for job, _ in entries]
    assert len(jobs) == workloads.EPOCH_JOBS
    assert len({job.source for job in jobs}) == len(jobs)
    sizes = {}
    for job in jobs:
        kernel_size = job.name.split(".")[-1]
        sizes[kernel_size] = sizes.get(kernel_size, 0) + 1
    # Three sizes per kernel, two for idct (its size range is 1..2).
    assert len(sizes) == 3 * (len(workloads.FRESH_SIZES) - 1) + 2


# ---------------------------------------------------------------- tracing
def test_tracer_wraps_one_job_and_restores_the_entry_points():
    from repro.cad import CadArtifactCache
    from repro.service import pool
    from repro.service.jobs import WarpJob

    original = pool.execute_job
    tracer = Tracer()
    assert tracer.install() == []
    try:
        report = pool.WarpService(
            workers=0, artifact_cache=CadArtifactCache()).run(
            [WarpJob(name="traced", benchmark="brev", small=True)])
    finally:
        tracer.uninstall()
    assert pool.execute_job is original
    assert report.results[0].ok
    names = {span["name"] for span in tracer.spans}
    assert {"service.run", "job", "compiler.compile", "microblaze.run",
            "fabric.kernel", "cad.partition", "power.energy"} <= names
    table = layer_table(tracer.spans)
    assert table["jobs"] == 1
    assert 0.5 < table["job.coverage_ratio"] <= 1.0
    assert table["fabric.kernel_iterations"] > 0


def test_expectations_name_every_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    notes = json.loads((ROOT / "warpbench" / "expectations.json")
                       .read_text())
    assert set(notes["per_layer"]) == {metric["name"]
                                       for metric in spec["per_layer"]}
    assert set(notes["workloads"]) == {workload["name"]
                                       for workload in spec["workloads"]}
    assert set(notes["workloads"]) == set(workloads.WORKLOADS)
