"""CAD-flow benchmark: per-stage wall times and per-stage caching.

Profiles each suite benchmark once, then drives the dynamic partitioning
module directly (no simulation in the timed sections) to measure:

* **per-stage host wall time** of a cold flow over the six kernels —
  where the on-chip CAD time actually goes on the host;
* **second-pass stage-level hit rate** — an identical second pass over
  the same kernels must serve >= 90% of its cacheable stage lookups from
  the cache (in practice 100%: every keyed stage is a per-stage hit);
* **staged caching vs cold runs on a routing-only sweep** — changing only
  the fabric's channel width invalidates routing and implementation but
  not synthesis or placement, so the staged flow must beat a fully cold
  flow at the swept parameters.

All numbers are appended to ``BENCH_cad.json`` at the repository root so
future PRs have a recorded CAD-flow trajectory.
"""

from __future__ import annotations

import dataclasses
import json
import platform
import time
from pathlib import Path

from repro.apps import build_suite
from repro.cad import CACHE_SERVED_SOURCES, SOURCE_MISS, CadArtifactCache
from repro.compiler import compile_source
from repro.fabric import DEFAULT_WCLA
from repro.microblaze import PAPER_CONFIG, run_program
from repro.partition import DynamicPartitioningModule
from repro.profiler import OnChipProfiler

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_cad.json"

#: Acceptance floor: cacheable-stage hit rate of the second identical pass.
MIN_SECOND_PASS_STAGE_HIT_RATE = 0.90

#: Timed repetitions per configuration (best-of to damp scheduler noise).
#: The staged flow skips synthesis and placement; with the incremental
#: placer, synthesis (then decompilation) is the larger share of the cold
#: wall time, and the comparison below held with a 2.3x-2.6x margin
#: (median 2.6x) over ten runs on a 2-CPU x86-64 container.
REPEATS = 5


def _profiled_kernels():
    """(name, program, region) for every suite benchmark (small inputs:
    the loop bodies — and therefore the CAD problems — are identical to
    the full-size ones)."""
    out = []
    for bench in build_suite(small=True):
        program = compile_source(bench.source, name=bench.name,
                                 config=PAPER_CONFIG).program
        profiler = OnChipProfiler()
        run_program(program, PAPER_CONFIG, listeners=[profiler])
        out.append((bench.name, program, profiler.most_critical_region()))
    return out


def _run_pass(dpm, kernels):
    """Partition every kernel once; returns (outcomes, wall_seconds)."""
    outcomes = []
    start = time.perf_counter()
    for _, program, region in kernels:
        outcomes.append(dpm.partition(program.copy(), region))
    return outcomes, time.perf_counter() - start


def _stage_hit_rate(outcomes):
    hits = misses = 0
    for outcome in outcomes:
        for record in outcome.stage_records:
            if record.source in CACHE_SERVED_SOURCES:
                hits += 1
            elif record.source == SOURCE_MISS:
                misses += 1
    lookups = hits + misses
    return hits / lookups if lookups else 0.0


def test_cad_flow_staged_caching_and_stage_times():
    kernels = _profiled_kernels()

    # ------------------------------------------------------------- cold pass
    cache = CadArtifactCache()
    dpm = DynamicPartitioningModule(artifact_cache=cache)
    cold_outcomes, cold_seconds = _run_pass(dpm, kernels)
    assert all(outcome.success for outcome in cold_outcomes)

    stage_wall_ms = {}
    for outcome in cold_outcomes:
        for record in outcome.stage_records:
            stage_wall_ms[record.stage] = stage_wall_ms.get(record.stage, 0.0) \
                + record.wall_seconds * 1e3

    # ------------------------------------------------- identical second pass
    warm_outcomes, warm_seconds = _run_pass(dpm, kernels)
    warm_hit_rate = _stage_hit_rate(warm_outcomes)
    assert warm_hit_rate >= MIN_SECOND_PASS_STAGE_HIT_RATE, \
        f"second-pass stage hit rate {warm_hit_rate:.2f}"
    assert all(outcome.cad_cache_hit for outcome in warm_outcomes)

    # ------------------------------------------------- routing-only sweep
    # Changing only the channel width leaves the synthesis and placement
    # stage keys intact: the staged flow reroutes on top of cached
    # placements, a cold flow redoes everything.
    narrow = dataclasses.replace(
        DEFAULT_WCLA,
        fabric=dataclasses.replace(DEFAULT_WCLA.fabric, channel_width=6))

    staged_seconds = []
    cold_swept_seconds = []
    for _ in range(REPEATS):
        staged_cache = CadArtifactCache()
        _run_pass(DynamicPartitioningModule(artifact_cache=staged_cache),
                  kernels)  # warm synthesis/placement at the base parameters
        staged_dpm = DynamicPartitioningModule(wcla=narrow,
                                               artifact_cache=staged_cache)
        swept_outcomes, seconds = _run_pass(staged_dpm, kernels)
        staged_seconds.append(seconds)

        cold_dpm = DynamicPartitioningModule(wcla=narrow,
                                             artifact_cache=CadArtifactCache())
        cold_swept, seconds = _run_pass(cold_dpm, kernels)
        cold_swept_seconds.append(seconds)

    # The staged sweep reused synthesis+placement for every kernel...
    for outcome in swept_outcomes:
        sources = {record.stage: record.source
                   for record in outcome.stage_records}
        assert sources["synthesis"] == "hit", sources
        assert sources["place"] == "hit", sources
        assert sources["route"] == "miss", sources
    # ...and produced the same modelled on-chip times as the cold flow.
    for staged, cold in zip(swept_outcomes, cold_swept):
        assert staged.dpm_seconds == cold.dpm_seconds

    staged_best = min(staged_seconds)
    cold_best = min(cold_swept_seconds)

    record = {
        "kernels": len(kernels),
        "cold_pass_seconds": round(cold_seconds, 4),
        "warm_pass_seconds": round(warm_seconds, 4),
        "warm_stage_hit_rate": round(warm_hit_rate, 4),
        "stage_wall_ms_cold": {stage: round(ms, 3)
                               for stage, ms in stage_wall_ms.items()},
        "routing_only_sweep": {
            "staged_seconds_best": round(staged_best, 4),
            "cold_seconds_best": round(cold_best, 4),
            "staged_speedup": round(cold_best / staged_best, 2)
            if staged_best > 0 else 0.0,
        },
        "thresholds": {
            "second_pass_stage_hit_rate": MIN_SECOND_PASS_STAGE_HIT_RATE,
            "staged_beats_cold_on_routing_only_sweep": True,
        },
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
    }

    history = []
    if BENCH_PATH.exists():
        try:
            history = json.loads(BENCH_PATH.read_text()).get("history", [])
        except (json.JSONDecodeError, AttributeError):
            history = []
    history.append(record)
    BENCH_PATH.write_text(json.dumps({"latest": record,
                                      "history": history[-20:]},
                                     indent=2) + "\n")

    # ---------------------------------------------------------- the floors
    assert staged_best < cold_best, record
