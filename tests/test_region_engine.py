"""Tests for the region-fusing execution engine (``engine="region"``).

The registry-wide differential suite (``test_engine_differential``)
already proves bit-exactness; this module pins the mechanisms that make
the region engine more than a jit clone:

* **Formation** — hot block entries past :attr:`hot_threshold` fuse
  their static successor graph into one region function; cold code (and
  everything, under a prohibitive threshold) stays on block dispatch.
* **Deferred statistics** — per-block counters accumulate inside the
  region and fold into the CPU's counter array at region exit, so a
  preempted (budget-split) run still reports exact statistics.
* **Invalidation** — a live binary patch tears down exactly the regions
  covering the patched address, and the patched code re-profiles.
* **Checkpoints** — regions are derived state: capture mid-run with
  regions formed, restore anywhere (including onto other engines), and
  ``on_restore()`` drops them for rebuild against the restored text.
* **Profiler seeding** — an attached profiler's ``edge_counts`` pre-warm
  the promotion counters, shortening warm-up.
* **Telemetry** — region fusion publishes the ``warp_codegen_*`` metric
  families when telemetry is live.
* **Registry integration** — the name travels every layer (jobs, wire
  codec, sweeps) like any other registered engine.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.isa import assemble
from repro.microblaze import (
    ExecutionLimitExceeded,
    MicroBlazeSystem,
    PAPER_CONFIG,
    capture_checkpoint,
    engine_names,
    run_program,
    run_slice,
    spawn_from_checkpoint,
)
from repro.partition.binary_patch import patch_live_words
from repro.profiler.profiler import OnChipProfiler

HOT_LOOP = """
    addi r5, r0, 200
    addi r3, r0, 0
loop:
    addi r3, r3, 1
    addi r5, r5, -1
    bnei r5, loop
    bri 0
"""


def _region_system(threshold: int = 8) -> MicroBlazeSystem:
    system = MicroBlazeSystem(config=PAPER_CONFIG, engine="region")
    system.cpu._engine_impl.hot_threshold = threshold
    return system


def _impl(system: MicroBlazeSystem):
    return system.cpu._engine_impl


# ------------------------------------------------------------------ formation
class TestFormation:
    def test_hot_loop_forms_region_and_matches_interp(self):
        program = assemble(HOT_LOOP)
        reference = run_program(program, PAPER_CONFIG, engine="interp")
        system = _region_system()
        result = system.run(program)
        assert _impl(system).regions, "hot loop must have been promoted"
        assert result.stats == reference.stats
        assert result.return_value == reference.return_value == 200

    def test_region_fuses_multiple_superblocks(self, compiled_small_programs):
        system = _region_system()
        system.run(compiled_small_programs["canrdr"])
        meta = _impl(system)._region_meta
        assert meta
        assert any(len(members) >= 2 for _low, _high, members
                   in meta.values()), "expected a multi-superblock region"

    def test_prohibitive_threshold_disables_fusion(self,
                                                   compiled_small_programs):
        program = compiled_small_programs["brev"]
        reference = run_program(program, PAPER_CONFIG, engine="interp")
        system = _region_system(threshold=1 << 30)
        result = system.run(program)
        assert not _impl(system).regions
        assert result.stats == reference.stats
        assert result.return_value == reference.return_value

    def test_only_executed_blocks_join_regions(self,
                                               compiled_small_programs):
        """Cold successors (error paths, never-taken arms) stay outside
        the region: membership requires a previously dispatched block.
        This is also what keeps fetch-port accounting exact."""
        system = _region_system()
        system.run(compiled_small_programs["g3fax"])
        impl = _impl(system)
        for _root, (_low, _high, members) in impl._region_meta.items():
            for entry in members:
                assert entry in impl.blocks

    def test_capability_flags(self):
        impl = _impl(_region_system())
        assert impl.branch_hooks
        assert not impl.full_trace
        assert not impl.supports_max_cycles
        assert not impl.supports_halt_address

    def test_full_trace_listener_falls_back_to_interpreter(self):
        """A full-trace listener (no ``on_branch``) forces the CPU off
        the region engine, so the listener still sees every event."""
        events = []

        class Recorder:
            def on_instruction(self, event):
                events.append(event.pc)

        program = assemble(HOT_LOOP)
        system = _region_system()
        system.cpu.add_listener(Recorder())
        result = system.run(program)
        assert not _impl(system).regions  # engine never dispatched
        assert len(events) == result.stats.instructions


# ----------------------------------------------------------- deferred statistics
class TestDeferredStatistics:
    def test_budget_split_mid_region_is_exact(self):
        """Preempting inside a fused region must report the same
        statistics and registers as the interpreter at the same budget —
        the deferred counters fold out at the split point."""
        program = assemble(HOT_LOOP)
        for budget in (83, 200, 301):
            states = {}
            for engine in ("interp", "region"):
                system = MicroBlazeSystem(config=PAPER_CONFIG, engine=engine)
                if engine == "region":
                    system.cpu._engine_impl.hot_threshold = 8
                system.load(program)
                system.cpu.reset(entry_point=program.entry_point)
                with pytest.raises(ExecutionLimitExceeded):
                    system.cpu.run(max_instructions=budget)
                states[engine] = (system.cpu.stats,
                                  list(system.cpu.registers), system.cpu.pc)
            assert states["region"] == states["interp"], budget

    def test_resume_after_budget_split_completes_exactly(self):
        program = assemble(HOT_LOOP)
        reference = run_program(program, PAPER_CONFIG, engine="interp")
        system = _region_system()
        system.load(program)
        system.cpu.reset(entry_point=program.entry_point)
        with pytest.raises(ExecutionLimitExceeded):
            system.cpu.run(max_instructions=150)
        assert _impl(system).regions
        stats = system.cpu.run()
        assert stats == reference.stats
        assert system.cpu.read_register(3) == reference.return_value


# --------------------------------------------------------------- invalidation
class TestInvalidation:
    def _warm(self):
        program = assemble(HOT_LOOP)
        system = _region_system()
        system.load(program)
        system.cpu.reset(entry_point=program.entry_point)
        with pytest.raises(ExecutionLimitExceeded):
            system.cpu.run(max_instructions=100)
        assert _impl(system).regions, "loop must be fused before patching"
        return system, program

    def test_patch_tears_down_covering_region(self):
        system, _program = self._warm()
        impl = _impl(system)
        patched = assemble(HOT_LOOP.replace("addi r3, r3, 1",
                                            "addi r3, r3, 16"))
        patch_live_words(system, 8, [patched.text[2]])
        assert not impl.regions, "patched region must be dropped"
        assert not impl._region_meta
        # The patched loop re-profiles, re-fuses against the new text and
        # finishes with the patched increment.
        system.cpu.run()
        assert impl.regions, "patched code must re-form a region"
        reference_system = MicroBlazeSystem(config=PAPER_CONFIG,
                                            engine="interp")
        reference_system.load(assemble(HOT_LOOP))
        reference_system.cpu.reset(entry_point=0)
        with pytest.raises(ExecutionLimitExceeded):
            reference_system.cpu.run(max_instructions=100)
        patch_live_words(reference_system, 8, [patched.text[2]])
        reference_system.cpu.run()
        assert system.cpu.read_register(3) \
            == reference_system.cpu.read_register(3)

    def test_patch_outside_region_keeps_it(self):
        system, _program = self._warm()
        impl = _impl(system)
        regions_before = dict(impl.regions)
        # The final ``bri 0`` at byte 20 sits outside the fused loop.
        low = min(low for low, _high, _m in impl._region_meta.values())
        high = max(high for _low, high, _m in impl._region_meta.values())
        assert not (low <= 20 <= high), "halt block unexpectedly fused"
        patch_live_words(system, 20, [assemble("bri 0").text[0]])
        assert impl.regions == regions_before

    def test_selective_invalidation_drops_only_covering_blocks(self):
        """Invalidating one word drops exactly the superblocks and regions
        whose range covers it; everything else stays warm."""
        system, _program = self._warm()
        cpu, impl = system.cpu, _impl(system)
        blocks_before = dict(cpu._blocks)
        regions_before = dict(impl._region_meta)
        # Byte 0 is covered by the entry superblock but not by the loop
        # region, which starts at the loop header (byte 8).
        cpu.invalidate_decode_cache(0)
        for entry, block in blocks_before.items():
            # Block layout shared with jit: (n, fn, entry, end, cycles).
            assert (entry in cpu._blocks) == (not block[2] <= 0 <= block[3])
        for entry, (low, high, _members) in regions_before.items():
            assert (entry in impl.regions) == (not low <= 0 <= high)
        assert 0 in blocks_before and 0 not in cpu._blocks
        assert impl.regions, "the loop region must survive"
        assert 0 not in cpu._decoded

    def test_wholesale_invalidate_clears_everything(self):
        system, _program = self._warm()
        impl = _impl(system)
        impl.invalidate()
        assert not impl.regions and not impl._region_meta
        assert not impl.blocks and not impl._entry_counts


# ---------------------------------------------------------------- checkpoints
class TestCheckpoints:
    def _blob_with_regions_formed(self):
        program = assemble(HOT_LOOP)
        system = _region_system()
        system.start(program)
        finished = run_slice(system, 150)
        assert not finished
        assert _impl(system).regions, "checkpoint must cover live regions"
        return program, capture_checkpoint(system)

    @pytest.mark.parametrize("resume_engine", engine_names())
    def test_capture_with_regions_resumes_anywhere(self, resume_engine):
        program, blob = self._blob_with_regions_formed()
        reference = run_program(program, PAPER_CONFIG, engine="interp")
        restored = spawn_from_checkpoint(blob, engine=resume_engine)
        result = restored.resume()
        assert result.stats == reference.stats
        assert result.return_value == reference.return_value
        assert result.data_image == reference.data_image

    def test_on_restore_drops_derived_regions(self):
        _program, blob = self._blob_with_regions_formed()
        restored = spawn_from_checkpoint(blob, engine="region")
        impl = _impl(restored)
        assert not impl.regions and not impl._region_meta
        assert not impl.blocks, "translations are derived state"

    def test_capture_on_jit_resume_on_region(self, compiled_small_programs):
        program = compiled_small_programs["bitmnp"]
        reference = run_program(program, PAPER_CONFIG, engine="interp")
        system = MicroBlazeSystem(config=PAPER_CONFIG, engine="jit")
        system.start(program)
        assert not run_slice(system, 400)
        blob = capture_checkpoint(system)
        restored = spawn_from_checkpoint(blob, engine="region")
        restored.cpu._engine_impl.hot_threshold = 8
        result = restored.resume()
        assert result.stats == reference.stats
        assert result.return_value == reference.return_value
        assert result.data_image == reference.data_image


# ------------------------------------------------------------ profiler seeding
class TestProfilerSeeding:
    def test_edge_counts_seed_promotion(self):
        """A profiler that has already proven the loop hot pre-warms the
        promotion counter: the region forms on the earliest possible
        dispatch instead of re-counting from zero."""
        program = assemble(HOT_LOOP)
        profiler = OnChipProfiler()
        run_program(program, PAPER_CONFIG, engine="interp",
                    listeners=[profiler])
        loop_entry = 8
        assert any(dst == loop_entry and count >= 64
                   for (_src, dst), count in profiler.edge_counts.items())

        system = MicroBlazeSystem(config=PAPER_CONFIG, engine="region")
        system.cpu.add_listener(profiler)  # hook carries the edge counts
        seeded = _impl(system)
        assert seeded.hot_threshold == 64  # the default, deliberately
        system.run(program)
        assert loop_entry in {entry for _root, (_l, _h, members)
                              in seeded._region_meta.items()
                              for entry in members}

        # Without seeding, the same threshold over the same 200-iteration
        # loop still promotes — but a *short* run stays cold.
        short = assemble(HOT_LOOP.replace("200", "30"))
        cold = MicroBlazeSystem(config=PAPER_CONFIG, engine="region")
        cold.run(short)
        assert not _impl(cold).regions
        warm = MicroBlazeSystem(config=PAPER_CONFIG, engine="region")
        warm.cpu.add_listener(profiler)
        warm.run(short)
        assert _impl(warm).regions, "seeded counters must promote early"


# -------------------------------------------------------------------- telemetry
class TestTelemetry:
    def test_codegen_families_published_live(self):
        # A unique iteration constant makes the entry block a guaranteed
        # code-cache miss (-> compiles); the second run over the same
        # program is a guaranteed hit (-> cache_hits).
        program = assemble(HOT_LOOP.replace("200", "199"),
                           name="telemetry-loop")
        with obs.active_telemetry() as telemetry:
            for _ in range(2):
                system = _region_system()
                system.run(program)
            snapshot = telemetry.snapshot()
        assert _impl(system).regions
        for family in ("warp_codegen_compiles", "warp_codegen_cache_hits",
                       "warp_codegen_compile_ms", "warp_codegen_regions",
                       "warp_codegen_region_blocks",
                       "warp_codegen_events", "warp_codegen_cache_entries"):
            assert family in snapshot, family
        region_count = sum(
            sample["value"]
            for sample in snapshot["warp_codegen_regions"]["samples"])
        assert region_count >= 1
        # The collector mirrors the always-on accounting, including the
        # fused-superblock totals, into the snapshot.
        events = {(sample["labels"]["engine"], sample["labels"]["kind"]):
                  sample["value"]
                  for sample in snapshot["warp_codegen_events"]["samples"]}
        assert events[("region", "regions")] >= 1
        assert events[("region", "region_blocks")] \
            >= events[("region", "regions")]


# ------------------------------------------------------------------- registry
class TestRegistryIntegration:
    def test_region_is_registered(self):
        assert "region" in engine_names()

    def test_warpjob_accepts_region(self):
        from repro.service.jobs import WarpJob, suite_sweep_jobs

        job = WarpJob(name="r", benchmark="brev", engine="region")
        assert job.engine == "region"
        jobs = suite_sweep_jobs(engines=("jit", "region"),
                                benchmarks=("brev",))
        assert [j.engine for j in jobs] == ["jit", "region"]
        assert len({j.dedup_key() for j in jobs}) == 2

    def test_wire_codec_round_trips_region(self):
        from repro.server.protocol import job_from_plain, job_to_plain
        from repro.service.jobs import WarpJob

        job = WarpJob(name="wired", benchmark="brev", engine="region")
        assert job_from_plain(job_to_plain(job)).engine == "region"
