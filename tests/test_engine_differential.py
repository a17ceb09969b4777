"""Differential equivalence of *every* registered execution engine.

The per-engine test module (``test_jit_engine``) pins the jit's own
mechanisms; this module is the registry-wide
contract: every name :func:`engine_names` returns must reproduce the
reference interpreter bit for bit — statistics, register file, data
image, *and* memory-port access counters — across the six-benchmark
suite (also compiled for the Section 2 reduced configurations), through
the whole warp flow, under profiler hooks, through live binary patches,
at runtime faults and on a fixed corpus of generated programs.  A future engine
registered into the registry is pulled into all of these tests
automatically.
"""

from __future__ import annotations

import pytest

from repro.apps import build_suite
from repro.compiler import compile_source_cached
from repro.fabric.hw_exec import WclaPeripheral
from repro.fuzz import (
    check_program,
    generate_program,
    observe,
    profile_names,
    resolve_profile,
)
from repro.fuzz.harness import compare_observations
from repro.isa import HwUnit, assemble
from repro.microblaze import (
    ExecutionLimitExceeded,
    MINIMAL_CONFIG,
    MemoryError_,
    MicroBlazeConfig,
    MicroBlazeSystem,
    PAPER_CONFIG,
    engine_names,
    run_program,
)
from repro.microblaze.engine import signed_division
from repro.partition.binary_patch import (
    apply_patch,
    patch_live_words,
    undo_patch,
)
from repro.profiler.branch_cache import BranchFrequencyCache
from repro.profiler.profiler import OnChipProfiler
from repro.warp import WarpProcessor

SUITE_NAMES = [benchmark.name for benchmark in build_suite(small=True)]

#: Every engine that translates blocks (everything but the reference).
BLOCK_ENGINES = tuple(name for name in engine_names() if name != "interp")

DIVIDER_CONFIG = MicroBlazeConfig(use_barrel_shifter=True, use_multiplier=True,
                                  use_divider=True)

#: The Section 2 reduced configurations.  The compiler replaces each
#: removed unit with a software routine, so the block engine translates
#: different code than it does for :data:`PAPER_CONFIG`.
REDUCED_CONFIGS = {
    "no-barrel-shifter": PAPER_CONFIG.without(HwUnit.BARREL_SHIFTER),
    "no-multiplier": PAPER_CONFIG.without(HwUnit.MULTIPLIER),
    "minimal": MINIMAL_CONFIG,
}

#: Seeds of every generator profile that tier-1 runs, one test per
#: program (the ``fuzz`` CLI verb runs longer campaigns).
CORPUS_SEEDS = range(12)


def _system(engine: str, config: MicroBlazeConfig = PAPER_CONFIG
            ) -> MicroBlazeSystem:
    return MicroBlazeSystem(config=config, engine=engine)


def _observe(system: MicroBlazeSystem, result) -> tuple:
    return (
        result.stats,
        result.return_value,
        result.data_image,
        list(system.cpu.registers),
        system.cpu.pc,
        # The full data BRAM, not just the returned prefix.
        bytes(system.data_bram.storage),
        # Port accounting is part of the architectural model (the paper's
        # profiler snoops these buses), so engines may not skew it.
        system.data_bram.port_a_accesses,
        system.instr_bram.port_a_accesses,
        system.data_bram.port_b_accesses,
        system.instr_bram.port_b_accesses,
    )


# ---------------------------------------------------------------- differential
class TestSuiteBitExact:
    @pytest.mark.parametrize("engine", engine_names())
    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_suite_benchmark_bit_exact(self, engine, name,
                                       compiled_small_programs):
        program = compiled_small_programs[name]
        reference_system = _system("interp")
        reference = _observe(reference_system,
                             reference_system.run(program))
        system = _system(engine)
        observed = _observe(system, system.run(program))
        assert observed == reference

    @pytest.mark.parametrize("engine", BLOCK_ENGINES)
    @pytest.mark.parametrize("config", sorted(REDUCED_CONFIGS))
    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_reduced_configuration_bit_exact(self, engine, config, name,
                                             small_benchmarks):
        reduced = REDUCED_CONFIGS[config]
        program = compile_source_cached(small_benchmarks[name].source,
                                        name=name, config=reduced).program
        reference_system = _system("interp", reduced)
        reference = _observe(reference_system,
                             reference_system.run(program))
        system = _system(engine, reduced)
        observed = _observe(system, system.run(program))
        assert observed == reference

    @pytest.mark.parametrize("engine", engine_names())
    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_profiler_rankings_identical(self, engine, name,
                                         compiled_small_programs):
        program = compiled_small_programs[name]
        profilers = {}
        for which in ("interp", engine):
            profiler = OnChipProfiler(BranchFrequencyCache(num_entries=16))
            system = _system(which)
            system.cpu.add_listener(profiler)
            system.run(program)
            profilers[which] = profiler
        a, b = profilers["interp"], profilers[engine]
        assert a.critical_regions() == b.critical_regions()
        assert a.cache.sets == b.cache.sets
        assert (a.cache.evictions, a.cache.updates, a.instructions_observed) \
            == (b.cache.evictions, b.cache.updates, b.instructions_observed)

    @pytest.mark.parametrize("engine", BLOCK_ENGINES)
    def test_warp_flow_cycle_exact(self, engine, compiled_small_programs):
        """Profile, partition, patch and co-execute with the WCLA: the
        whole warp flow reports the interpreter's cycles and speedup."""
        program = compiled_small_programs["brev"]
        results = {}
        for which in ("interp", engine):
            results[which] = WarpProcessor(config=PAPER_CONFIG,
                                           engine=which).run(program.copy())
        a, b = results["interp"], results[engine]
        assert a.software_result.stats == b.software_result.stats
        assert a.warp_mb_result.stats == b.warp_mb_result.stats
        assert a.hw_cycles == b.hw_cycles
        assert a.speedup == b.speedup


# ------------------------------------------------------------ semantics edges
def _run_asm(source, engine, config=PAPER_CONFIG):
    return run_program(assemble(source), config, engine=engine)


def _assert_equivalent(reference, observed):
    assert observed.stats == reference.stats
    assert observed.return_value == reference.return_value
    assert observed.data_image == reference.data_image


class TestSemanticsEdges:
    @pytest.mark.parametrize("engine", BLOCK_ENGINES)
    def test_imm_prefix_fusion(self, engine):
        source = """
            li r5, 0x12345678
            li r6, 0xFFFF0000
            add r3, r5, r6
            bri 0
        """
        observed = _run_asm(source, engine)
        _assert_equivalent(_run_asm(source, "interp"), observed)
        assert observed.return_value == (0x12345678 + 0xFFFF0000) & 0xFFFFFFFF

    @pytest.mark.parametrize("engine", BLOCK_ENGINES)
    def test_imm_prefixed_memory_access(self, engine):
        source = """
            addi r5, r0, 77
            imm 0
            swi r5, r0, 512
            imm 0
            lwi r3, r0, 512
            bri 0
        """
        observed = _run_asm(source, engine)
        _assert_equivalent(_run_asm(source, "interp"), observed)
        assert observed.return_value == 77

    @pytest.mark.parametrize("engine", BLOCK_ENGINES)
    def test_conditional_delay_slot_runs_when_not_taken(self, engine):
        source = """
            addi r5, r0, 0
            beqid r5, target
            addi r3, r3, 5      # slot runs whether or not the branch is taken
        target:
            bneid r5, elsewhere
            addi r3, r3, 7      # not taken: slot still runs
            bri 0
        elsewhere:
            bri 0
        """
        observed = _run_asm(source, engine)
        _assert_equivalent(_run_asm(source, "interp"), observed)
        assert observed.return_value == 12

    @pytest.mark.parametrize("engine", BLOCK_ENGINES)
    def test_delay_slot_cycle_accounting(self, engine):
        # The interpreter charges a delay slot's cycles both to the slot's
        # class and to the branch; a block engine must reproduce that.
        source = """
            .entry main
        sub:
            add r3, r5, r5
            rtsd r15, 8
            addi r3, r3, 1      # delay slot executes after the return issues
        main:
            addi r5, r0, 4
            brlid r15, sub
            addi r5, r5, 1      # delay slot of the call
            bri 0
        """
        observed = _run_asm(source, engine)
        _assert_equivalent(_run_asm(source, "interp"), observed)
        assert observed.return_value == 11  # (4 + 1) * 2 + 1

    @pytest.mark.parametrize("engine", BLOCK_ENGINES)
    def test_imm_latch_survives_into_delay_slot(self, engine):
        # The interpreter clears the imm latch only once the whole branch —
        # delay slot included — has executed, so a prefix before a delayed
        # branch fuses into the slot's immediate too.
        source = """
            addi r5, r0, 0
            addi r6, r0, 8      # register-form branch offset: pc+8
            imm 1
            beqd r5, r6         # taken; the latch stays set for the slot
            addi r4, r0, 1      # slot sees the latch: r4 = 0x10001
            add r3, r4, r0      # branch target (pc + 8)
            bri 0
        """
        observed = _run_asm(source, engine)
        _assert_equivalent(_run_asm(source, "interp"), observed)
        assert observed.return_value == 0x10001

    @pytest.mark.parametrize("engine", BLOCK_ENGINES)
    def test_register_indirect_branch_halt(self, engine):
        # A register-form branch to its own address is the halt idiom too,
        # and a block engine must detect it dynamically.
        source = """
            addi r3, r0, 9
            addi r5, r0, 0
            br r5               # target == pc: dynamic self-branch halt
        """
        observed = _run_asm(source, engine)
        _assert_equivalent(_run_asm(source, "interp"), observed)
        assert observed.return_value == 9

    @pytest.mark.parametrize("engine", BLOCK_ENGINES)
    def test_fetch_past_bram_end_faults_after_block_executes(self, engine):
        # Straight-line code running off the end of the instruction BRAM:
        # the interpreter executes the block's instructions (including the
        # store) before the out-of-range fetch faults; a block engine must
        # not fault earlier, at translation time.
        program = assemble("""
            addi r5, r0, 7
            swi r5, r0, 0
        """)
        images = {}
        for which in ("interp", engine):
            config = MicroBlazeConfig(instr_bram_kb=1, data_bram_kb=1)
            system = MicroBlazeSystem(config=config, engine=which)
            # Place the two instructions at the very end of the BRAM.
            base = system.instr_bram.size - 4 * len(program.text)
            system.instr_bram.store_words(base, program.text)
            system._loaded_program = program
            system.cpu.reset(entry_point=base)
            with pytest.raises(MemoryError_):
                system.cpu.run()
            images[which] = (bytes(system.data_bram.storage),
                             system.cpu.stats)
        assert images[engine] == images["interp"]
        assert images[engine][0][0] == 7  # the store did execute

    @pytest.mark.parametrize("engine", BLOCK_ENGINES)
    def test_execution_budget_raises_at_same_instruction(self, engine):
        program = assemble("""
            addi r5, r0, 100
        loop:
            addi r5, r5, -1
            bnei r5, loop
            bri 0
        """)
        for budget in (1, 2, 3, 50, 101):
            stats = {}
            for which in ("interp", engine):
                system = _system(which)
                system.load(program)
                system.cpu.reset(entry_point=program.entry_point)
                with pytest.raises(ExecutionLimitExceeded):
                    system.cpu.run(max_instructions=budget)
                stats[which] = system.cpu.stats
            assert stats[engine] == stats["interp"]

    def test_idiv_exact_integer_semantics(self):
        # Truncation toward zero, zero divisor, and INT_MIN / -1 overflow.
        assert signed_division(7, 2) == 3
        assert signed_division(-7, 2) == (-3) & 0xFFFFFFFF
        assert signed_division(7, -2) == (-3) & 0xFFFFFFFF
        assert signed_division(-7, -2) == 3
        assert signed_division(123, 0) == 0
        assert signed_division(-0x8000_0000, -1) == 0x8000_0000
        assert signed_division(0x7FFF_FFFF, 1) == 0x7FFF_FFFF

    @pytest.mark.parametrize("engine", BLOCK_ENGINES)
    def test_idiv_instruction_differential(self, engine):
        source = """
            li r5, -2147483648
            addi r6, r0, -1
            idiv r3, r6, r5     # rd = rb / ra = INT_MIN / -1
            bri 0
        """
        observed = _run_asm(source, engine, DIVIDER_CONFIG)
        _assert_equivalent(_run_asm(source, "interp", DIVIDER_CONFIG),
                           observed)
        assert observed.return_value == 0x8000_0000


# -------------------------------------------------------------------- faults
#: A misaligned word load (address 9) landing mid-superblock.
MISALIGNED_MID_BLOCK = """
    addi r5, r0, 8
    addi r6, r0, 1
    add  r7, r5, r6        # r7 = 9: misaligned
    addi r8, r0, 3
    lw   r9, r7, r0        # faults here, mid-block
    addi r10, r0, 99       # must never execute
    bri  0
"""

MISALIGNED_IN_HOT_LOOP = """
    addi r5, r0, 64        # iterations until the fault
    addi r3, r0, 0
loop:
    addi r3, r3, 1
    addi r5, r5, -1
    bnei r5, loop
    lw   r9, r3, r0        # r3 = 64 after the loop: aligned... (64 % 4 == 0)
    addi r3, r3, 3
    lw   r9, r3, r0        # 67: misaligned, after the hot loop retired
    bri  0
"""


class TestFaultPaths:
    @pytest.mark.parametrize("engine", engine_names())
    @pytest.mark.parametrize("source", [MISALIGNED_MID_BLOCK,
                                        MISALIGNED_IN_HOT_LOOP])
    def test_fault_matches_interpreter(self, engine, source):
        program = assemble(source, name="faulty")
        states = {}
        for which in ("interp", engine):
            system = MicroBlazeSystem(config=PAPER_CONFIG, engine=which)
            with pytest.raises(MemoryError_) as info:
                system.run(program)
            states[which] = (system.cpu.stats, list(system.cpu.registers),
                             system.cpu.pc, system.cpu._imm_latch,
                             str(info.value))
        assert states[engine] == states["interp"]

    @pytest.mark.parametrize("engine", engine_names())
    def test_fault_observations_match_but_fetch_lookahead(self, engine):
        """Every fuzz-harness observation of a fault after a hot loop —
        profiler state, port counters, OPB state — matches the reference,
        except the instruction-fetch port the translation ran ahead on."""
        program = assemble(MISALIGNED_IN_HOT_LOOP, name="faulty")
        reference = observe(program, "interp")
        observed = observe(program, engine)
        assert reference.outcome == "fault"
        assert set(compare_observations(reference, observed)) \
            <= {"instr_ports"}


# --------------------------------------------------------------- live patching
PATCH_LOOP = """
    addi r5, r0, 40
    addi r3, r0, 0
loop:
    addi r3, r3, 1
    addi r5, r5, -1
    bnei r5, loop
    bri 0
"""


class TestLivePatchInvalidation:
    """The dynamic partitioning module patches the *executing* binary;
    every engine must drop any translation covering the patched words."""

    #: Byte address of the first loop-body instruction.
    ADDRESS = 8

    def _warm_system(self, engine):
        program = assemble(PATCH_LOOP)
        system = _system(engine)
        system.load(program)
        system.cpu.reset(entry_point=program.entry_point)
        # Deep enough into the run that the loop's superblocks are warm.
        with pytest.raises(ExecutionLimitExceeded):
            system.cpu.run(max_instructions=80)
        patched = assemble(PATCH_LOOP.replace("addi r3, r3, 1",
                                              "addi r3, r3, 16"))
        return system, patched.text[self.ADDRESS // 4]

    def _run_patched(self, engine):
        system, word = self._warm_system(engine)
        patch_live_words(system, self.ADDRESS, [word])
        system.cpu.run()
        return system.cpu.read_register(3), system.cpu.stats

    @pytest.mark.parametrize("engine", engine_names())
    def test_mid_run_word_patch_takes_effect(self, engine):
        assert self._run_patched(engine) == self._run_patched("interp")

    @pytest.mark.parametrize("engine", engine_names())
    def test_stale_translation_without_invalidation(self, engine):
        """Writing the BRAM behind the caches' back is the documented bug
        surface: the decode cache and every derived translation keep
        serving the old loop body.  This pins the contract that makes
        explicit invalidation necessary."""
        system, word = self._warm_system(engine)
        system.instr_bram.store_words(self.ADDRESS, [word])  # no invalidate
        system.cpu.run()
        assert system.cpu.read_register(3) == 40  # stale +1 per iteration

    @staticmethod
    def _partitioned_canrdr(engine, compiled_small_programs):
        program = compiled_small_programs["canrdr"]
        warp = WarpProcessor(config=PAPER_CONFIG, engine=engine)
        software, profiler = warp.profile(program)
        outcome = warp.dpm.partition(program.copy(),
                                     profiler.most_critical_region())
        assert outcome.success
        live = program.copy()
        system = _system(engine)
        system.load(live)
        peripheral = WclaPeripheral(warp.wcla_base_address,
                                    outcome.implementation, system.data_bram)
        system.attach_peripheral(peripheral)
        system.cpu.reset(entry_point=live.entry_point)
        return warp, software, outcome, live, system, peripheral

    @pytest.mark.parametrize("engine", engine_names())
    def test_mid_run_dpm_patch_and_superblock_invalidation(
            self, engine, compiled_small_programs):
        """The full Section 3 story, mid-flight: profile, partition, then
        patch the *executing* binary and let the run finish on the WCLA."""
        warp, software, outcome, live, system, peripheral = \
            self._partitioned_canrdr(engine, compiled_small_programs)
        cpu = system.cpu
        with pytest.raises(ExecutionLimitExceeded):
            cpu.run(max_instructions=software.instructions // 2)

        apply_patch(live, outcome.kernel, wcla_base=warp.wcla_base_address,
                    system=system)
        stats = cpu.run()
        # The patched binary must ship the remaining loop work to hardware
        # and still produce the software run's checksum.
        assert cpu.read_register(3) == software.return_value
        assert peripheral.invocations >= 1
        assert stats.instructions < software.instructions

    @pytest.mark.parametrize("engine", BLOCK_ENGINES)
    def test_live_undo_restores_software_execution(
            self, engine, compiled_small_programs):
        warp, software, outcome, live, system, peripheral = \
            self._partitioned_canrdr(engine, compiled_small_programs)
        program_text = list(live.text)
        patch = apply_patch(live, outcome.kernel,
                            wcla_base=warp.wcla_base_address, system=system)
        undo_patch(live, patch, system=system)
        assert live.text == program_text
        stats = system.cpu.run()
        assert system.cpu.read_register(3) == software.return_value
        assert peripheral.invocations == 0
        assert stats.instructions == software.instructions


# ---------------------------------------------------------- generated programs
class TestGeneratedPrograms:
    @pytest.mark.parametrize("engine", BLOCK_ENGINES)
    @pytest.mark.parametrize("seed", CORPUS_SEEDS)
    @pytest.mark.parametrize("profile", profile_names())
    def test_generated_program_matches_interpreter(self, profile, seed,
                                                   engine):
        """Registers, data BRAM, OPB state, statistics, port counters and
        profiler rankings match the reference.  Only a program of the
        near-fault profile may differ, and only in the documented
        instruction-fetch lookahead of a faulted run."""
        resolved = resolve_profile(profile)
        verdict = check_program(generate_program(seed, resolved), seed=seed,
                                profile=profile, engines=(engine,),
                                with_opb=resolved.opb_traffic)
        assert verdict.instructions > 0
        assert [d.fields for d in verdict.unexplained] == []
        if not resolved.near_fault:
            assert [d.fields for d in verdict.divergences] == []
