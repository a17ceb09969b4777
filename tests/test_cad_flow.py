"""The staged CAD flow: pass pipeline, per-stage caching, bit-exactness.

Covers the ISSUE 3 acceptance criteria: the staged flow must produce
outcomes bit-identical to the monolithic flow on every cache path
(uncached, cold, warm), a routing-only WCLA
sweep must reuse synthesis and placement via stage-level cache entries,
capacity rejections must be memoized with a distinct counter, and
alternate passes must be swappable through the stage registry.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cad import (
    DEFAULT_STAGE_NAMES,
    CadArtifactCache,
    DpmCostModel,
    RouteStage,
    available_stage_names,
    build_flow,
    keys,
    register_stage,
)
from repro.fabric import DEFAULT_WCLA
from repro.microblaze import PAPER_CONFIG, run_program
from repro.partition import DynamicPartitioningModule
from repro.profiler import OnChipProfiler
from repro.server import DiskArtifactStore
from repro.service import ServiceReport, WarpJob, execute_job
from repro.warp import WarpProcessor

GREEDY_STAGES = ("decompile", "synthesis", "place", "route-greedy",
                 "implement", "binary-update")


def _fabric_variant(**overrides):
    return dataclasses.replace(
        DEFAULT_WCLA,
        fabric=dataclasses.replace(DEFAULT_WCLA.fabric, **overrides))


@pytest.fixture(scope="module")
def profiled(compiled_small_programs):
    """(program, critical region) per benchmark, profiled once."""
    out = {}
    for name, program in compiled_small_programs.items():
        profiler = OnChipProfiler()
        run_program(program, PAPER_CONFIG, listeners=[profiler])
        out[name] = (program, profiler.most_critical_region())
    return out


def _sources(outcome):
    return {record.stage: record.source for record in outcome.stage_records}


def _assert_outcomes_match(a, b):
    assert a.success and b.success
    assert a.dpm_seconds == b.dpm_seconds
    assert a.kernel.summary() == b.kernel.summary()
    assert a.synthesis.summary() == b.synthesis.summary()
    assert a.implementation.summary() == b.implementation.summary()
    assert a.placement.total_wirelength == b.placement.total_wirelength
    assert a.routing.total_segments_used == b.routing.total_segments_used
    assert a.patch.stub_words == b.patch.stub_words


# --------------------------------------------------------------------------- registry
class TestRegistry:
    def test_default_flow_matches_the_paper_pipeline(self):
        assert DEFAULT_STAGE_NAMES == ("decompile", "synthesis", "place",
                                       "route", "implement", "binary-update")
        assert build_flow().stage_names() == list(DEFAULT_STAGE_NAMES)

    def test_alternates_are_registered(self):
        names = available_stage_names()
        assert "route" in names and "route-greedy" in names

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError, match="unknown CAD stage"):
            build_flow(("decompile", "no-such-stage"))

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_stage("route", RouteStage)


# --------------------------------------------------------------------------- bit-exactness
class TestBitExactEquivalence:
    def test_all_cache_paths_match_the_uncached_flow(self, profiled,
                                                     warp_small_results):
        """Every suite benchmark, every cache path: identical artifacts and
        identical modelled dpm_seconds (the ISSUE 3 differential)."""
        for name, (program, region) in profiled.items():
            reference = warp_small_results[name].partitioning  # uncached
            cache = CadArtifactCache()
            dpm = DynamicPartitioningModule(artifact_cache=cache)
            cold = dpm.partition(program.copy(), region)
            warm = dpm.partition(program.copy(), region)

            for outcome in (cold, warm):
                _assert_outcomes_match(reference, outcome)

            assert not cold.cad_cache_hit
            # The warm run is a full chain of per-stage hits.
            assert warm.cad_cache_hit
            assert all(_sources(warm)[stage] == "hit"
                       for stage in ("synthesis", "place", "route",
                                     "implement"))

    def test_dpm_seconds_equals_the_closed_form_cost_model(self,
                                                           warp_small_results):
        """The per-stage cycle contributions sum to exactly the monolithic
        cost-model formula."""
        model = DpmCostModel()
        for result in warp_small_results.values():
            outcome = result.partitioning
            assert outcome.dpm_seconds == model.partitioning_seconds(
                outcome.kernel, outcome.synthesis, outcome.placement,
                outcome.routing)

    def test_stage_records_cover_the_whole_flow(self, warp_small_results):
        for result in warp_small_results.values():
            records = result.partitioning.stage_records
            assert [record.stage for record in records] \
                == list(DEFAULT_STAGE_NAMES)
            assert all(record.wall_seconds >= 0.0 for record in records)
            # No cache was attached: every stage executed uncached.
            assert {record.source for record in records} == {"uncached"}


# --------------------------------------------------------------------------- partial reuse
class TestPartialStageReuse:
    def test_routing_only_sweep_reuses_synthesis_and_placement(self,
                                                               profiled):
        """ISSUE 3 satellite: a WCLA sweep varying a routing-only parameter
        re-runs only routing+implementation."""
        program, region = profiled["idct"]
        cache = CadArtifactCache()
        base = DynamicPartitioningModule(
            artifact_cache=cache).partition(program.copy(), region)
        assert base.success

        narrow = _fabric_variant(channel_width=6)
        swept = DynamicPartitioningModule(
            wcla=narrow, artifact_cache=cache).partition(program.copy(),
                                                         region)
        sources = _sources(swept)
        assert sources["synthesis"] == "hit"
        assert sources["place"] == "hit"
        assert sources["route"] == "miss"
        assert sources["implement"] == "miss"
        counters = cache.stage_counters()
        assert counters["synthesis"] == (1, 1)
        assert counters["place"] == (1, 1)
        assert counters["route"] == (0, 2)

        # The partially reused outcome is identical to a fully cold flow
        # at the swept parameters.
        cold = DynamicPartitioningModule(wcla=narrow).partition(
            program.copy(), region)
        _assert_outcomes_match(cold, swept)

        # An exact repeat of the swept parameters is served entirely
        # from the stage entries.
        again = DynamicPartitioningModule(
            wcla=narrow, artifact_cache=cache).partition(program.copy(),
                                                         region)
        assert again.cad_cache_hit
        assert _sources(again)["route"] == "hit"

    def test_lut_inputs_change_invalidates_from_synthesis_down(self,
                                                               profiled):
        program, region = profiled["idct"]
        cache = CadArtifactCache()
        DynamicPartitioningModule(artifact_cache=cache).partition(
            program.copy(), region)

        wider = _fabric_variant(lut_inputs=4)
        swept = DynamicPartitioningModule(
            wcla=wider, artifact_cache=cache).partition(program.copy(),
                                                        region)
        sources = _sources(swept)
        assert all(sources[stage] == "miss"
                   for stage in ("synthesis", "place", "route", "implement"))


# --------------------------------------------------------------------------- capacity rejections
class TestCapacityRejectionMemoization:
    def test_repeat_rejection_skips_synthesis_and_placement(self, profiled):
        """ISSUE 3 satellite: an over-capacity kernel fails from the cache
        on repeats instead of re-running synthesis+placement."""
        program, region = profiled["matmul"]
        tiny = _fabric_variant(rows=2, columns=2)
        cache = CadArtifactCache()
        dpm = DynamicPartitioningModule(wcla=tiny, artifact_cache=cache)

        first = dpm.partition(program.copy(), region)
        assert not first.success
        assert "fabric out of CLB sites" in first.reason
        assert cache.negative_hits == 0

        second = dpm.partition(program.copy(), region)
        assert not second.success
        assert second.reason == first.reason
        sources = _sources(second)
        assert sources["synthesis"] == "hit"
        assert sources["place"] == "negative-hit"
        assert cache.negative_hits == 1
        assert cache.stage_counters()["synthesis"] == (1, 1)
        # The rejection short-circuits the flow: nothing downstream ran.
        assert [record.stage for record in second.stage_records] \
            == ["decompile", "synthesis", "place"]

    def test_nonfitting_placement_counts_one_negative_per_repeat(
            self, profiled):
        """The fits==False flavor: placement completes but oversubscribes
        the fabric.  A repeat serves the whole chain from the cache, and
        the single logical rejection counts exactly once (the cached
        implementation referencing the same area must not count again)."""
        program, region = profiled["g3fax"]
        snug = _fabric_variant(rows=5, columns=4)
        cache = CadArtifactCache()
        dpm = DynamicPartitioningModule(wcla=snug, artifact_cache=cache)

        first = dpm.partition(program.copy(), region)
        assert not first.success
        assert first.reason == "kernel does not fit the fabric"
        assert first.placement is not None and not first.placement.area.fits

        second = dpm.partition(program.copy(), region)
        assert second.reason == first.reason
        sources = _sources(second)
        assert sources["place"] == "negative-hit"
        assert sources["route"] == "hit"
        assert sources["implement"] == "hit"
        assert cache.negative_hits == 1

    def test_negative_hits_survive_in_service_results(self, profiled):
        tiny = _fabric_variant(rows=2, columns=2)
        cache = CadArtifactCache()
        job = WarpJob(name="too-big", benchmark="matmul", small=True,
                      wcla=tiny)
        execute_job(job, cache)
        repeat = execute_job(dataclasses.replace(job, name="too-big-again"),
                             cache)
        assert repeat.ok and not repeat.partitioned
        assert repeat.cache_negative_hits == 1
        assert repeat.stage_cache["place"] == "negative-hit"


# --------------------------------------------------------------------------- decompile key
_TRIPS_TEMPLATE = """
int n = %d;
int a[64];
int main() {
    int i; int s;
    s = 0;
    for (i = 0; i < n; i = i + 1) { %s }
    return s + a[5];
}
"""


def _trips_program(trips, body="s = s + a[i] + i;"):
    """A program whose text does not depend on ``trips``: the trip count
    is a global, so it lives in the data image only."""
    from repro.compiler import compile_to_program
    return compile_to_program(_TRIPS_TEMPLATE % (trips, body),
                              name=f"trips{trips}", config=PAPER_CONFIG)


class TestDecompileKey:
    def test_same_loop_text_hits_and_keeps_its_own_profile(self):
        """Two programs with the same loop text at the same addresses but
        different trip counts share the decompilation; each job's kernel
        and body carry its own region and profile counts."""
        cache = CadArtifactCache()
        first_program, second_program = _trips_program(20), _trips_program(50)
        assert first_program.text == second_program.text
        first = WarpProcessor(config=PAPER_CONFIG,
                              artifact_cache=cache).run(first_program)
        second = WarpProcessor(config=PAPER_CONFIG,
                               artifact_cache=cache).run(second_program)
        assert _sources(first.partitioning)["decompile"] == "miss"
        assert _sources(second.partitioning)["decompile"] == "hit"
        for result, trips in ((first, 20), (second, 50)):
            outcome = result.partitioning
            assert outcome.success and result.checksums_match
            assert outcome.region.frequency == trips
            assert outcome.kernel.region is outcome.region
            assert outcome.kernel.body.region is outcome.region
        assert second.hw_iterations == 50 and first.hw_iterations == 20
        assert second.partitioning.kernel.body.register_updates \
            is first.partitioning.kernel.body.register_updates

    def test_changed_loop_text_misses(self):
        cache = CadArtifactCache()
        WarpProcessor(config=PAPER_CONFIG, artifact_cache=cache).run(
            _trips_program(20))
        other = WarpProcessor(config=PAPER_CONFIG, artifact_cache=cache).run(
            _trips_program(20, body="s = s + a[i] - i;"))
        assert other.partitioning.success
        assert _sources(other.partitioning)["decompile"] == "miss"

    def test_decompilation_errors_are_memoized_as_negatives(self):
        cache = CadArtifactCache()
        body = "a[i] = i + 3; s = s + i;"
        outcomes = [WarpProcessor(config=PAPER_CONFIG, artifact_cache=cache)
                    .run(_trips_program(trips, body)).partitioning
                    for trips in (20, 50)]
        reason = "decompilation failed: load after store in one iteration"
        assert [outcome.reason for outcome in outcomes] == [reason, reason]
        assert [_sources(outcome) for outcome in outcomes] == [
            {"decompile": "miss"}, {"decompile": "negative-hit"}]
        assert cache.negative_hits == 1


#: The synthesis keys of the six small-suite kernels (paper configuration),
#: recorded before the canonical body form was kept on the body.
SMALL_SYNTHESIS_KEYS = {
    "brev": "de37ceb3f0ae50c9a445130d8e0627f437469dec2b50ed7d40645b9d6e1d2481",
    "g3fax": "35e0351574857e4a679136ad9cc6e8cfafa474ec592d60973e1aa8d64eb3bcde",
    "canrdr": "5721994dca3a6ad62ea6ad7667e9c91b9b1cb778712df65cf424604b48ce24f3",
    "bitmnp": "5f9bff54a8e9f70bb8dce2232805bc8d0fbb027bc718b4e25fd0534beeb3bbd1",
    "idct": "ceb3efe387df93d294b7e5c45eb14bf1244163fc616c063bf3f30bae2820781f",
    "matmul": "f4f50622ed77996430ac1437d0882db54b3764879eb11e665456af605a15c99f",
}


class TestSynthesisKey:
    @pytest.fixture
    def serializations(self, monkeypatch):
        """Every ``canonical_body_form`` call made through the keys."""
        calls = []
        serialize = keys.canonical_body_form

        def counted(body):
            calls.append(body)
            return serialize(body)

        monkeypatch.setattr(keys, "canonical_body_form", counted)
        return calls

    def test_keys_are_unchanged_and_each_body_serializes_once(
            self, compiled_small_programs, serializations):
        cache = CadArtifactCache()
        for name, program in compiled_small_programs.items():
            records = [
                {record.stage: record for record in
                 WarpProcessor(config=PAPER_CONFIG, artifact_cache=cache)
                 .run(program.copy()).partitioning.stage_records}
                for _ in range(3)]
            assert [r["synthesis"].key for r in records] \
                == [SMALL_SYNTHESIS_KEYS[name]] * 3
            assert [r["decompile"].source for r in records] \
                == ["miss", "hit", "hit"]
        # One serialization per computed decompilation; every warm job's
        # rebound body carries the cached body's form.
        assert len(serializations) == len(SMALL_SYNTHESIS_KEYS)

    def test_a_body_from_the_disk_tier_serializes_once(
            self, compiled_small_programs, tmp_path, serializations):
        program = compiled_small_programs["idct"]
        store = DiskArtifactStore(tmp_path)
        WarpProcessor(config=PAPER_CONFIG,
                      artifact_cache=CadArtifactCache(store)).run(
            program.copy())
        del serializations[:]
        # A fresh memory tier over the same store: a new process.
        cache = CadArtifactCache(store)
        outcomes = [WarpProcessor(config=PAPER_CONFIG, artifact_cache=cache)
                    .run(program.copy()).partitioning for _ in range(3)]
        assert [_sources(outcome)["decompile"] for outcome in outcomes] \
            == ["disk-hit", "hit", "hit"]
        assert {record.key for outcome in outcomes
                for record in outcome.stage_records
                if record.stage == "synthesis"} \
            == {SMALL_SYNTHESIS_KEYS["idct"]}
        assert len(serializations) == 1


# --------------------------------------------------------------------------- pluggable stages
class TestPluggableStages:
    def test_greedy_router_swaps_in_and_keeps_functionality(self, profiled):
        program, region = profiled["brev"]
        cache = CadArtifactCache()
        default = DynamicPartitioningModule(
            artifact_cache=cache).partition(program.copy(), region)
        greedy = DynamicPartitioningModule(
            artifact_cache=cache,
            stage_names=GREEDY_STAGES).partition(program.copy(), region)
        assert greedy.success
        assert greedy.routing.iterations == 1
        sources = _sources(greedy)
        # Upstream stages are shared with the default flow; the alternate
        # router (and everything keyed below it) recomputes.
        assert sources["synthesis"] == "hit"
        assert sources["place"] == "hit"
        assert sources["route"] == "miss"
        assert default.synthesis is greedy.synthesis

    def test_greedy_flow_end_to_end_through_the_warp_processor(
            self, compiled_small_programs):
        processor = WarpProcessor(config=PAPER_CONFIG,
                                  stage_names=GREEDY_STAGES)
        result = processor.run(compiled_small_programs["brev"].copy())
        assert result.partitioning.success
        assert result.checksums_match
        assert result.speedup > 1.0

    def test_job_stages_participate_in_dedup(self):
        plain = WarpJob(name="a", benchmark="brev", small=True)
        greedy = WarpJob(name="b", benchmark="brev", small=True,
                         stages=GREEDY_STAGES)
        assert plain.dedup_key() != greedy.dedup_key()
        # List specs coerce to a hashable tuple.
        listed = WarpJob(name="c", benchmark="brev", small=True,
                         stages=list(GREEDY_STAGES))
        assert listed.dedup_key() == greedy.dedup_key()

    def test_job_rejects_malformed_stage_specs(self):
        from repro.service import JobSpecError
        with pytest.raises(JobSpecError, match="single string"):
            WarpJob(name="s", benchmark="brev", stages="route-greedy")
        with pytest.raises(JobSpecError, match="non-empty"):
            WarpJob(name="e", benchmark="brev", stages=())
        # Slot coverage is validated at spec time, not deep in a worker:
        # omitting or reordering a slot is a JobSpecError.
        with pytest.raises(JobSpecError, match="slots"):
            WarpJob(name="m", benchmark="brev",
                    stages=GREEDY_STAGES[1:])  # decompile omitted
        with pytest.raises(JobSpecError, match="slots"):
            WarpJob(name="o", benchmark="brev",
                    stages=("decompile", "place", "synthesis", "route",
                            "implement", "binary-update"))

    def test_dpm_rejects_flow_plus_build_arguments(self):
        from repro.cad import build_flow
        with pytest.raises(ValueError, match="prebuilt flow"):
            DynamicPartitioningModule(flow=build_flow(),
                                      trace_hooks=[lambda r, c: None])
        with pytest.raises(ValueError, match="prebuilt flow"):
            DynamicPartitioningModule(flow=build_flow(),
                                      stage_names=GREEDY_STAGES)

    def test_processor_rejects_dpm_plus_overrides(self):
        dpm = DynamicPartitioningModule()
        with pytest.raises(ValueError, match="prebuilt dpm"):
            WarpProcessor(dpm=dpm, stage_names=GREEDY_STAGES)
        with pytest.raises(ValueError, match="prebuilt dpm"):
            WarpProcessor(dpm=dpm, artifact_cache=CadArtifactCache())

    def test_trace_hooks_observe_every_stage(self, profiled):
        program, region = profiled["brev"]
        seen = []
        dpm = DynamicPartitioningModule(
            trace_hooks=[lambda record, context: seen.append(record.stage)])
        outcome = dpm.partition(program.copy(), region)
        assert outcome.success
        assert seen == list(DEFAULT_STAGE_NAMES)


# --------------------------------------------------------------------------- service surface
class TestServiceStageSurface:
    def test_execute_job_reports_per_stage_accounting(self):
        cache = CadArtifactCache()
        result = execute_job(WarpJob(name="j", benchmark="brev", small=True),
                             cache)
        assert result.ok and result.partitioned
        assert set(result.stage_wall_ms) == set(DEFAULT_STAGE_NAMES)
        assert result.stage_cache["synthesis"] == "miss"
        assert result.stage_cache["decompile"] == "miss"
        assert result.stage_cache["binary-update"] == "uncached"

        report = ServiceReport(results=[result])
        table = report.stage_table()
        assert "synthesis" in table and "binary-update" in table
        plain = report.to_plain()
        assert plain["stages"]["synthesis"]["misses"] == 1
        assert plain["cache"]["negative_hits"] == 0
        assert "stages" in plain["tables"]

    def test_job_file_accepts_and_validates_stages(self, tmp_path):
        import json
        from repro.service.cli import load_job_file
        from repro.service import JobSpecError

        good = tmp_path / "good.json"
        good.write_text(json.dumps({"jobs": [
            {"name": "g", "benchmark": "brev", "small": True,
             "stages": list(GREEDY_STAGES)}]}))
        jobs = load_job_file(good)
        assert jobs[0].stages == GREEDY_STAGES

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"jobs": [
            {"name": "b", "benchmark": "brev",
             "stages": ["decompile", "warp-speed"]}]}))
        with pytest.raises(JobSpecError, match="warp-speed"):
            load_job_file(bad)


# --------------------------------------------------------------------------- layering
class TestLayering:
    def test_partition_no_longer_imports_the_service_layer(self):
        """ISSUE 3 satellite: the artifact types live in repro.cad; the
        partition layer must not reach up into repro.service."""
        import inspect
        import repro.partition.dpm as dpm
        source = inspect.getsource(dpm)
        assert "from ..service" not in source
        assert "repro.service" not in source
