"""Tests for the dynamic partitioning module, binary patching, and the warp
processor (single- and multi-core)."""

from __future__ import annotations

import pytest

from repro.apps import benchmark_names
from repro.decompile import decompile_and_extract
from repro.fabric import DEFAULT_WCLA
from repro.isa import decode
from repro.microblaze import MINIMAL_CONFIG, PAPER_CONFIG, run_program
from repro.partition import (
    DpmCostModel,
    DynamicPartitioningModule,
    apply_patch,
    undo_patch,
)
from repro.profiler import OnChipProfiler
from repro.warp import MultiProcessorWarpSystem, WarpProcessor


def _profile(program):
    profiler = OnChipProfiler()
    result = run_program(program, PAPER_CONFIG, listeners=[profiler])
    return result, profiler.most_critical_region()


# --------------------------------------------------------------------------- binary patching
class TestBinaryPatching:
    def test_patch_and_undo_roundtrip(self, compiled_small_programs):
        program = compiled_small_programs["brev"].copy()
        original_words = list(program.text)
        _, region = _profile(program)
        kernel = decompile_and_extract(program.text, region)
        patch = apply_patch(program, kernel)
        assert program.text != original_words
        assert len(program.text) == len(original_words) + patch.stub_instructions
        # The loop header now branches to the stub.
        header = decode(program.word_at(patch.header_address))
        assert header.mnemonic == "brai"
        assert header.imm == patch.stub_address
        undo_patch(program, patch)
        assert program.text == original_words

    def test_stub_structure(self, compiled_small_programs):
        program = compiled_small_programs["matmul"].copy()
        _, region = _profile(program)
        kernel = decompile_and_extract(program.text, region)
        patch = apply_patch(program, kernel)
        stub = [decode(word) for word in patch.stub_words]
        mnemonics = [instr.mnemonic for instr in stub]
        assert mnemonics[0] == "imm"
        assert mnemonics[-1] == "brai"
        assert mnemonics.count("swi") == len(patch.live_in_registers) + 1
        assert mnemonics.count("lwi") == len(patch.live_out_registers)
        assert patch.invocation_opb_accesses >= 3


# --------------------------------------------------------------------------- DPM
class TestDynamicPartitioningModule:
    def test_successful_partitioning(self, compiled_small_programs):
        program = compiled_small_programs["canrdr"].copy()
        _, region = _profile(program)
        dpm = DynamicPartitioningModule()
        outcome = dpm.partition(program, region)
        assert outcome.success
        assert outcome.implementation is not None
        assert outcome.patch is not None
        assert outcome.dpm_seconds > 0
        assert "kernel" in outcome.summary()

    def test_no_region_is_rejected_gracefully(self, compiled_small_programs):
        program = compiled_small_programs["brev"].copy()
        outcome = DynamicPartitioningModule().partition(program, None)
        assert not outcome.success
        assert "profiler" in outcome.reason

    def test_cost_model_scales_with_problem_size(self):
        model = DpmCostModel()
        assert model.fixed_overhead_cycles > 0
        assert model.clock_mhz == pytest.approx(85.0)


# --------------------------------------------------------------------------- warp processor
class TestWarpProcessor:
    @pytest.mark.parametrize("name", benchmark_names())
    def test_warp_preserves_functionality(self, name, warp_small_results,
                                          small_benchmarks):
        result = warp_small_results[name]
        expected = small_benchmarks[name].expected_checksum & 0xFFFFFFFF
        assert result.software_result.return_value == expected
        assert result.checksums_match

    @pytest.mark.parametrize("name", benchmark_names())
    def test_warp_partitions_every_benchmark(self, name, warp_small_results):
        assert warp_small_results[name].partitioning.success

    def test_warp_speeds_up_every_benchmark(self, warp_small_results):
        for name, result in warp_small_results.items():
            assert result.speedup > 1.0, f"{name} did not speed up"

    def test_hardware_actually_used(self, warp_small_results):
        for result in warp_small_results.values():
            assert result.hw_invocations >= 1
            assert result.hw_iterations >= result.hw_invocations
            assert result.hw_cycles > 0
            assert result.hw_clock_mhz > 0

    def test_warp_time_decomposition(self, warp_small_results):
        for result in warp_small_results.values():
            assert result.warp_seconds == pytest.approx(
                result.microblaze_seconds + result.hw_seconds)
            assert 0.0 <= result.kernel_time_fraction <= 1.0
            assert "speedup" in result.summary()

    def test_brev_has_largest_speedup(self, warp_small_results):
        speedups = {name: result.speedup
                    for name, result in warp_small_results.items()}
        assert max(speedups, key=speedups.get) == "brev"


# --------------------------------------------------------------------------- transparency
_RELOAD_TEMPLATE = """
int a[9] = {1, 4, 7, 10, 13, 16, 19, 22, 25};
int b[9];
int main() {
    int i; int s; int t;
    s = 0;
    for (i = 0; i < 9; i = i + 1) { %s }
    t = 0;
    for (i = 0; i < 9; i = i + 1) { t = t + b[i]; }
    return s + t;
}
"""


_ONE_ARM_SOURCE = """
int a[16] = {1, 9, 2, 8, 3, 7, 4, 6, 5, 5, 6, 4, 7, 3, 8, 2};
int main() {
    int i; int s; int x;
    s = 0;
    x = 7;
    for (i = 0; i < 16; i = i + 1) {
        if (a[i] > 5) { x = a[i]; }
        s = s + x;
    }
    return s;
}
"""


def _software_and_warp_runs(body, config):
    """The warp result for a two-loop program whose first loop is ``body``,
    and the run its answer comes from: the patched warp run when the
    kernel partitioned, the software run otherwise."""
    from repro.compiler import compile_to_program

    program = compile_to_program(_RELOAD_TEMPLATE % body, name="reload",
                                 config=config)
    result = WarpProcessor(config=config).run(program)
    warp = result.warp_mb_result if result.partitioning.success \
        else result.software_result
    return result, warp


class TestWarpTransparency:
    """A warp run must equal the software run in return value and in the
    whole data image, also for loops the WCLA cannot host."""

    @pytest.mark.parametrize("config", [PAPER_CONFIG, MINIMAL_CONFIG],
                             ids=["paper", "minimal"])
    @pytest.mark.parametrize("body", [
        "b[i] = a[i]; s = s + b[i];",
        "b[i] = a[i]; b[i] = b[i] + 1;",
    ])
    def test_store_then_reload_stays_in_software(self, body, config):
        result, warp = _software_and_warp_runs(body, config)
        assert not result.partitioning.success
        assert result.partitioning.reason == \
            "decompilation failed: load after store in one iteration"
        software = result.software_result
        assert warp.return_value == software.return_value
        assert bytes(warp.data_image) == bytes(software.data_image)

    @pytest.mark.parametrize("config", [PAPER_CONFIG, MINIMAL_CONFIG],
                             ids=["paper", "minimal"])
    def test_load_before_store_still_partitions(self, config):
        result, warp = _software_and_warp_runs(
            "s = s + b[i]; b[i] = a[i] + 1;", config)
        assert result.partitioning.success
        software = result.software_result
        assert warp.return_value == software.return_value
        assert bytes(warp.data_image) == bytes(software.data_image)

    @pytest.mark.parametrize("config", [PAPER_CONFIG, MINIMAL_CONFIG],
                             ids=["paper", "minimal"])
    def test_register_written_on_one_arm_is_a_live_in(self, config):
        """``x`` keeps its value from before the loop until the taken arm
        first writes it, so the kernel must read it from the register
        file, not start it at 0."""
        from repro.compiler import compile_to_program

        program = compile_to_program(_ONE_ARM_SOURCE, name="one-arm",
                                     config=config)
        result = WarpProcessor(config=config).run(program)
        assert result.partitioning.success
        software = result.software_result
        assert software.return_value == 115
        assert result.warp_mb_result.return_value == 115
        assert bytes(result.warp_mb_result.data_image) \
            == bytes(software.data_image)
        assert result.checksums_match


# --------------------------------------------------------------------------- multiprocessor
class TestMultiProcessor:
    def test_shared_dpm_round_robin(self, compiled_small_programs):
        programs = [compiled_small_programs["brev"].copy(),
                    compiled_small_programs["canrdr"].copy()]
        system = MultiProcessorWarpSystem(num_cores=2)
        result = system.run(programs)
        assert result.num_cores == 2
        assert len(result.schedule) == 2
        # Round-robin: the second kernel waits for the first on the single DPM.
        assert result.schedule[1].dpm_start_seconds >= \
            result.schedule[0].dpm_finish_seconds - 1e-12
        assert result.average_speedup > 1.0
        assert result.fabric_fits_all_kernels
        assert "core" in result.summary()

    def test_two_dpms_halve_the_wait(self, compiled_small_programs):
        programs = [compiled_small_programs["brev"].copy(),
                    compiled_small_programs["canrdr"].copy()]
        one = MultiProcessorWarpSystem(num_cores=2, num_dpm_modules=1).run(
            [p.copy() for p in programs])
        two = MultiProcessorWarpSystem(num_cores=2, num_dpm_modules=2).run(
            [p.copy() for p in programs])
        assert two.last_core_served_seconds <= one.last_core_served_seconds

    def test_validation(self):
        with pytest.raises(ValueError):
            MultiProcessorWarpSystem(num_cores=0)
        with pytest.raises(ValueError):
            MultiProcessorWarpSystem(num_cores=1).run([None, None])


class TestDpmSchedule:
    """Round-robin DPM schedule invariants (ISSUE 2 satellite)."""

    def test_single_dpm_schedule_is_contiguous_and_ordered(
            self, compiled_small_programs):
        programs = [compiled_small_programs["brev"].copy(),
                    compiled_small_programs["canrdr"].copy(),
                    compiled_small_programs["matmul"].copy()]
        result = MultiProcessorWarpSystem(num_cores=3).run(programs)
        assert len(result.schedule) == 3

        # Cores are served in round-robin (submission) order...
        assert [item.core_index for item in result.schedule] == [0, 1, 2]
        # ...the first core is served immediately...
        assert result.schedule[0].dpm_start_seconds == 0.0
        # ...and with a single DPM the service intervals are contiguous:
        # each core's partitioning starts the instant the previous one ends.
        for earlier, later in zip(result.schedule, result.schedule[1:]):
            assert later.dpm_start_seconds == pytest.approx(
                earlier.dpm_finish_seconds)
        for item in result.schedule:
            assert item.dpm_finish_seconds > item.dpm_start_seconds
            assert item.dpm_service_seconds == pytest.approx(
                item.dpm_finish_seconds - item.dpm_start_seconds)

    def test_core_keeps_software_timing_until_served(
            self, compiled_small_programs):
        programs = [compiled_small_programs["brev"].copy(),
                    compiled_small_programs["canrdr"].copy()]
        result = MultiProcessorWarpSystem(num_cores=2).run(programs)
        # A partitioned core runs its original (software) binary exactly
        # until the DPM finishes serving it.
        for item in result.schedule:
            assert result.software_phase_seconds(item.core_index) \
                == pytest.approx(item.dpm_finish_seconds)
        # Later cores wait longer for the shared DPM than earlier ones.
        assert result.software_phase_seconds(1) \
            > result.software_phase_seconds(0)

    def test_unpartitioned_core_stays_in_software_for_the_whole_run(self):
        from repro.isa.assembler import assemble
        # A loop-free program: the profiler finds no critical region, the
        # DPM never serves this core, and it keeps software timing for its
        # entire execution.
        flat = assemble("""
            addi r3, r0, 7
            bri  0
        """, name="flat")
        result = MultiProcessorWarpSystem(num_cores=1).run([flat])
        assert not result.per_core[0].partitioning.success
        assert result.schedule == []
        assert result.software_phase_seconds(0) \
            == pytest.approx(result.per_core[0].software_seconds)

    def test_two_dpms_overlap_service_intervals(self,
                                                compiled_small_programs):
        programs = [compiled_small_programs["brev"].copy(),
                    compiled_small_programs["canrdr"].copy()]
        result = MultiProcessorWarpSystem(
            num_cores=2, num_dpm_modules=2).run(programs)
        # With one DPM per core both kernels are served immediately.
        assert all(item.dpm_start_seconds == 0.0
                   for item in result.schedule)
