"""The staged CAD flow: pass pipeline, per-stage caching, bit-exactness.

The staged flow must produce outcomes bit-identical to the monolithic
flow on every cache path (uncached, cold, warm), a routing-only WCLA
sweep must reuse synthesis and placement via stage-level cache entries,
capacity rejections must be memoized with a distinct counter, and the
stages' content keys must stay the ones existing disk stores hold.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cad import (
    DEFAULT_STAGE_NAMES,
    PAPER_FLOW,
    CadArtifactCache,
    DpmCostModel,
    keys,
)
from repro.fabric import DEFAULT_WCLA
from repro.microblaze import PAPER_CONFIG, run_program
from repro.partition import DynamicPartitioningModule
from repro.profiler import OnChipProfiler
from repro.server import DiskArtifactStore
from repro.service import ServiceReport, WarpJob, execute_job
from repro.warp import WarpProcessor


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


# --------------------------------------------------------------------------- the one flow
class TestOneFlow:
    def test_the_flow_is_the_paper_pipeline(self):
        assert DEFAULT_STAGE_NAMES == ("decompile", "synthesis", "place",
                                       "route", "implement", "binary-update")
        assert tuple(stage.name for stage in PAPER_FLOW.stages) \
            == DEFAULT_STAGE_NAMES

    def test_processor_rejects_dpm_plus_overrides(self):
        dpm = DynamicPartitioningModule()
        with pytest.raises(ValueError, match="prebuilt dpm"):
            WarpProcessor(dpm=dpm, artifact_cache=CadArtifactCache())
        with pytest.raises(ValueError, match="prebuilt dpm"):
            WarpProcessor(dpm=dpm, wcla=_fabric_variant(channel_width=6))


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
#: recorded before the canonical body form was kept on the body.  canrdr's
#: was re-recorded when its body gained r24, written on one arm of a
#: branch, as a live-in; its downstream keys below moved with it.
SMALL_SYNTHESIS_KEYS = {
    "brev": "de37ceb3f0ae50c9a445130d8e0627f437469dec2b50ed7d40645b9d6e1d2481",
    "g3fax": "35e0351574857e4a679136ad9cc6e8cfafa474ec592d60973e1aa8d64eb3bcde",
    "canrdr": "b7add74a792e54d532c317956bd547c0238a71c052e4d8aed9325c5faf7488c0",
    "bitmnp": "5f9bff54a8e9f70bb8dce2232805bc8d0fbb027bc718b4e25fd0534beeb3bbd1",
    "idct": "ceb3efe387df93d294b7e5c45eb14bf1244163fc616c063bf3f30bae2820781f",
    "matmul": "f4f50622ed77996430ac1437d0882db54b3764879eb11e665456af605a15c99f",
}


#: The place, route and implement keys of the same six kernels, recorded
#: while the flow still had a stage registry: entries already in a disk
#: store stay addressable.
SMALL_STAGE_KEYS = {
    "brev": (
        "cc1b8da8f258f05a706c81eac8fa56df680fa0ecb46d663365ce6081b6f381dd",
        "f39cbcfcaa34c75f8f8c80eb50cd35f73d7e925c36501319f16bc0301316e6b3",
        "fac5edbe03e6dba63638acf3b26947142e06545644ad57a6b1315ab6bad6fd2d",
    ),
    "g3fax": (
        "b7eb3394e60300db78d8eb2f11512b4b88f867dc2e32774ef51b595104ae8632",
        "e4cb0ff344c41974d97560fc146815646199603823d35a5047c901d5aa0c5b37",
        "5048eb689551f440bb5328e3e9a9d913b5b1ff162ce19eefdb6b2b186a44fe1d",
    ),
    "canrdr": (
        "96001fd74f8701ba525108ad625f875c9dce1170ac85ae818bcc221a4b909ffe",
        "31ea2f2d1e9b99a8c2ec8ab909dbd54e51bc0f378f4a9fc9423979b8b8da9366",
        "cba332ee48483e2f6222717f5ece5d7c98fd3369cb1d8c9af717f910e998cc6a",
    ),
    "bitmnp": (
        "ea38e32cb7cacd93c2857f6a08376f1be72b038e0650477b137d314ae321203a",
        "6df87f4a001f2f8101f2799bf984039920347b21e359b7659e1b2fb203e764c4",
        "ff630deee150b252f89795908bea198fd622e8036ba6e3135c034025e263414d",
    ),
    "idct": (
        "372052181c2d2a5f25a6ad3371c47cad85b7ef950a1037f0673c4d28c0d9a8da",
        "02339367ae8f9f49eb4941b0775866c26a74185bf8ee95907d12c9ed121d601c",
        "230a864e4579ddff764b7ff75af79fdb815c9118dd5b3dcfc0aa64570d9c33f0",
    ),
    "matmul": (
        "e517f12c3e2d78434e6fb2bce892a62cb9592453b16351aa59e5e82d7af306b4",
        "25aa60ffd4c6ae21eeff417fd161866464efb4d8d46525837a8a0892bcb1373c",
        "3ccb43aa670d44044186c6dfc053d8ee5a140fb4d8c1e8d80f235560822b119d",
    ),
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

    def test_place_route_and_implement_keys_are_unchanged(self, profiled):
        for name, (program, region) in profiled.items():
            outcome = DynamicPartitioningModule(
                artifact_cache=CadArtifactCache()).partition(program.copy(),
                                                             region)
            records = {record.stage: record.key
                       for record in outcome.stage_records}
            assert (records["place"], records["route"],
                    records["implement"]) == SMALL_STAGE_KEYS[name], name

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
