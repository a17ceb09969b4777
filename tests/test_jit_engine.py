"""Tests for the source-generating JIT execution engine.

* **Differential equivalence** — every suite benchmark runs on the
  reference interpreter and on ``engine="jit"`` and must produce
  identical ``ExecutionStats``, register files, data-BRAM images and
  profiler rankings.
* **Fault paths** — a misaligned access landing mid-superblock, a fault
  behind a fused ``imm`` prefix, and a fault in a delay slot must leave
  interpreter-identical state: statistics, registers, pc, imm latch.
* **Cache invalidation** — generated blocks must drop when the dynamic
  partitioning module patches the executing binary, survive a patch
  outside their range, and all drop on a wholesale ``invalidate()``.
* **Dispatch fallback** — a full-trace listener keeps the run on the
  interpreter.
* **Telemetry** — translations land in ``codegen_stats()`` and in the
  live ``warp_codegen_*`` metric families under ``engine="jit"``.
* **Semantics edges** — imm fusion, delay slots, budgets, static and
  dynamic self-branch halts: everything the generated source
  specializes.
"""

from __future__ import annotations

import re

import pytest

from repro import obs
from repro.apps import build_benchmark, build_suite
from repro.compiler import compile_source, compile_to_program
from repro.isa import assemble
from repro.microblaze import (
    ExecutionLimitExceeded,
    IllegalInstruction,
    MemoryError_,
    MicroBlazeConfig,
    MicroBlazeSystem,
    MINIMAL_CONFIG,
    PAPER_CONFIG,
    run_program,
)
from repro.microblaze.engines.jit import (
    _CODE_CACHE,
    EAGER,
    codegen_stats,
    reset_codegen_stats,
)
from repro.partition.binary_patch import patch_live_words
from repro.profiler.branch_cache import BranchFrequencyCache
from repro.profiler.profiler import OnChipProfiler

SUITE_NAMES = [b.name for b in build_suite(small=True)]


def run_engines(program, engines=("interp", "jit"), config=PAPER_CONFIG,
                **kwargs):
    return {engine: run_program(program, config, engine=engine, **kwargs)
            for engine in engines}


def assert_equivalent(reference, observed):
    assert observed.stats == reference.stats
    assert observed.return_value == reference.return_value
    assert observed.data_image == reference.data_image


# ---------------------------------------------------------------- differential
class TestDifferential:
    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_suite_benchmark_bit_exact(self, name, compiled_small_programs):
        program = compiled_small_programs[name]
        systems = {}
        results = {}
        for engine in ("interp", "jit"):
            system = MicroBlazeSystem(config=PAPER_CONFIG, engine=engine)
            results[engine] = system.run(program)
            systems[engine] = system

        assert_equivalent(results["interp"], results["jit"])
        assert systems["jit"].cpu.registers == systems["interp"].cpu.registers
        assert bytes(systems["jit"].data_bram.storage) \
            == bytes(systems["interp"].data_bram.storage)

    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_profiler_rankings_identical(self, name, compiled_small_programs):
        program = compiled_small_programs[name]
        profilers = {}
        for engine in ("interp", "jit"):
            profiler = OnChipProfiler(BranchFrequencyCache(num_entries=16))
            run_program(program, PAPER_CONFIG, listeners=[profiler],
                        engine=engine)
            profilers[engine] = profiler
        a, b = profilers["interp"], profilers["jit"]
        assert a.critical_regions() == b.critical_regions()
        assert a.cache.sets == b.cache.sets
        assert (a.cache.evictions, a.cache.updates, a.instructions_observed) \
            == (b.cache.evictions, b.cache.updates, b.instructions_observed)


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

MISALIGNED_AFTER_IMM = """
    addi r5, r0, 1
    imm  0
    lwi  r9, r5, 8         # address 9 via imm-fused immediate: faults
    bri  0
"""

MISALIGNED_IN_DELAY_SLOT = """
    addi r5, r0, 6
    addi r6, r0, 1
    brid 12                # taken, delay slot executes
    sw   r6, r5, r0        # misaligned store at 6: faults in the slot
    addi r7, r0, 1
    bri  0
"""


def _run_to_fault(source, engine, config=PAPER_CONFIG,
                  exception=MemoryError_):
    program = assemble(source, name="faulty")
    system = MicroBlazeSystem(config=config, engine=engine)
    with pytest.raises(exception) as info:
        system.run(program)
    cpu = system.cpu
    return {
        "stats": cpu.stats,
        "registers": list(cpu.registers),
        "pc": cpu.pc,
        "imm_latch": cpu._imm_latch,
        "message": str(info.value),
    }


class TestFaultPaths:
    @pytest.mark.parametrize("source,expected_instructions", [
        (MISALIGNED_MID_BLOCK, 4),
        (MISALIGNED_AFTER_IMM, 2),
        # A faulting slot leaves both the slot and its branch unrecorded.
        (MISALIGNED_IN_DELAY_SLOT, 2),
    ])
    def test_fault_matches_interpreter(self, source, expected_instructions):
        interp = _run_to_fault(source, "interp")
        observed = _run_to_fault(source, "jit")
        assert observed == interp
        assert interp["stats"].instructions == expected_instructions

    def test_missing_unit_fault(self):
        source = """
            addi r5, r0, 3
            addi r6, r0, 4
            mul  r7, r5, r6       # no multiplier in MINIMAL_CONFIG
            bri  0
        """
        interp = _run_to_fault(source, "interp", config=MINIMAL_CONFIG,
                               exception=IllegalInstruction)
        observed = _run_to_fault(source, "jit", config=MINIMAL_CONFIG,
                                 exception=IllegalInstruction)
        assert observed == interp

    def test_fetch_past_bram_end_faults_after_block_executes(self):
        program = assemble("""
            addi r5, r0, 7
            swi r5, r0, 0
        """)
        images = {}
        for engine in ("interp", "jit"):
            config = MicroBlazeConfig(instr_bram_kb=1, data_bram_kb=1)
            system = MicroBlazeSystem(config=config, engine=engine)
            base = system.instr_bram.size - 4 * len(program.text)
            system.instr_bram.store_words(base, program.text)
            system._loaded_program = program
            system.cpu.reset(entry_point=base)
            with pytest.raises(MemoryError_):
                system.cpu.run()
            images[engine] = (bytes(system.data_bram.storage),
                              system.cpu.stats)
        assert images["jit"] == images["interp"]
        assert images["jit"][0][0] == 7  # the store did execute


# ------------------------------------------------------------ semantics edges
class TestSemanticsEdges:
    def run_asm(self, source, config=PAPER_CONFIG):
        program = assemble(source)
        results = run_engines(program, config=config)
        assert_equivalent(results["interp"], results["jit"])
        return results["jit"]

    def test_imm_prefix_fusion(self):
        result = self.run_asm("""
            li r5, 0x12345678
            li r6, 0xFFFF0000
            add r3, r5, r6
            bri 0
        """)
        assert result.return_value == (0x12345678 + 0xFFFF0000) & 0xFFFFFFFF

    def test_imm_latch_survives_into_delay_slot(self):
        result = self.run_asm("""
            addi r5, r0, 0
            addi r6, r0, 8
            imm 1
            beqd r5, r6
            addi r4, r0, 1      # slot sees the latch: r4 = 0x10001
            add r3, r4, r0
            bri 0
        """)
        assert result.return_value == 0x10001

    def test_delay_slot_cycle_accounting(self):
        result = self.run_asm("""
            .entry main
        sub:
            add r3, r5, r5
            rtsd r15, 8
            addi r3, r3, 1
        main:
            addi r5, r0, 4
            brlid r15, sub
            addi r5, r5, 1
            bri 0
        """)
        assert result.return_value == 11

    @pytest.mark.parametrize("source", [
        "addi r5, r0, 1\n brid 0\n addi r6, r0, 2\n",
        # Absolute: brai has no delay slot, only its halt check.
        "addi r5, r0, 1\n brai 4\n addi r6, r0, 2\n",
    ], ids=["brid", "brai"])
    def test_static_halting_branch_fetches_no_slot(self, source):
        """The halt idiom skips its delay slot, so the translation must not
        fetch it either: instruction-port counts, statistics and
        registers all match the interpreter."""
        program = assemble(source)
        observed = {}
        for engine in ("interp", "jit"):
            system = MicroBlazeSystem(config=PAPER_CONFIG, engine=engine)
            result = system.run(program)
            observed[engine] = (system.instr_bram.port_a_accesses,
                                system.data_bram.port_a_accesses,
                                result.stats, list(system.cpu.registers),
                                system.cpu.pc)
        assert observed["jit"] == observed["interp"]
        assert observed["interp"][0] == 2
        assert observed["interp"][3][6] == 0  # the slot never ran

    @staticmethod
    def _outcomes(program, config=PAPER_CONFIG, last_word=False):
        """Run ``program`` on interp, jit and jit again (the second jit
        system rebinds the first one's translations: the
        translation-table replay path) and check they agree.  Returns the
        interpreter's outcome: the raised fault (or ``None``), the
        instruction- and data-port counts, the statistics, the registers,
        the pc and the imm latch.  ``last_word`` loads the program at the
        end of the instruction BRAM."""
        outcomes = []
        for engine in ("interp", "jit", "jit"):
            system = MicroBlazeSystem(config=config, engine=engine)
            try:
                if last_word:
                    base = system.instr_bram.size - 4 * len(program.text)
                    system.instr_bram.store_words(base, program.text)
                    system.cpu.reset(entry_point=base)
                    system.cpu.run()
                else:
                    system.run(program)
                fault = None
            except (IllegalInstruction, MemoryError_) as exc:
                fault = f"{type(exc).__name__}: {exc}"
            cpu = system.cpu
            outcomes.append((fault, system.instr_bram.port_a_accesses,
                             system.data_bram.port_a_accesses,
                             cpu.stats, list(cpu.registers), cpu.pc,
                             cpu._imm_latch))
        assert outcomes[1] == outcomes[0]
        assert outcomes[2] == outcomes[0]
        return outcomes[0]

    @pytest.mark.parametrize("source,ports,fault", [
        ("addi r5, r0, 0\n brd r5\n addi r6, r0, 2\n", 2, None),
        ("addi r5, r0, 4\n brad r5\n addi r6, r0, 2\n", 2, None),
        # Not halting: the slot is fetched and runs, as in the interpreter.
        ("addi r5, r0, 12\n brd r5\n addi r6, r0, 2\n addi r7, r0, 1\n"
         " bri 0\n", 4, None),
        # A halting branch never reaches an illegal slot...
        ("addi r5, r0, 0\n brd r5\n brid 0\n", 2, None),
        ("addi r5, r0, 0\n brd r5\n imm 5\n", 2, None),
        # ...and a jumping one faults on it, at the branch.
        ("addi r5, r0, 12\n brd r5\n brid 0\n", 3,
         "IllegalInstruction: illegal instruction brid in delay slot "
         "at 0x8"),
    ], ids=["brd-halts", "brad-halts", "brd-jumps", "brd-halts-branch-slot",
            "brd-halts-imm-slot", "brd-jumps-branch-slot"])
    def test_register_held_halting_branch_fetches_no_slot(self, source,
                                                           ports, fault):
        """A register-held unconditional branch halts or not at run time;
        a halting one never fetches its slot, so an illegal slot faults
        only when the branch does not halt."""
        outcome = self._outcomes(assemble(source))
        assert outcome[0] == fault
        assert outcome[1] == ports
        assert outcome[4][6] == (2 if ports == 4 else 0)  # the slot ran
        if fault is not None:
            assert outcome[5] == 4  # the branch's pc, the branch unrecorded
            assert outcome[3].branches_taken == 0

    @pytest.mark.parametrize("source,config,link,fault", [
        # A halting branch skips a slot whose unit is missing.
        ("addi r5, r0, 0\n brd r5\n mul r3, r4, r4\n", MINIMAL_CONFIG,
         0, None),
        # A call writes its link register before its slot faults.
        ("addi r5, r0, 12\n brlid r15, 8\n brid 0\n", PAPER_CONFIG, 4,
         "IllegalInstruction: illegal instruction brid in delay slot "
         "at 0x8"),
        ("addi r5, r0, 12\n brald r15, r5\n mul r3, r4, r4\n",
         MINIMAL_CONFIG, 4,
         "IllegalInstruction: mul at 0x8 requires the multiplier which is "
         "not configured"),
    ], ids=["brd-halts-unit-slot", "brlid-branch-slot", "brald-unit-slot"])
    def test_faulting_delay_slots_match_the_interpreter(self, source, config,
                                                        link, fault):
        outcome = self._outcomes(assemble(source), config=config)
        assert outcome[0] == fault
        assert outcome[4][15] == link

    @pytest.mark.parametrize("source,fault", [
        ("addi r3, r0, 5\n addi r5, r0, 0\n brd r5\n", None),
        ("addi r3, r0, 5\n addi r5, r0, 8\n brd r5\n",
         "MemoryError_: instr_bram: access of 4 bytes at 0x400 outside "
         "0..0x400"),
    ], ids=["brd-halts", "brd-jumps"])
    def test_register_held_branch_in_last_bram_word(self, source, fault):
        """The slot of a register-held branch in the last instruction word
        lies past the BRAM end: fetching it faults only when the branch
        does not halt."""
        outcome = self._outcomes(
            assemble(source),
            config=MicroBlazeConfig(instr_bram_kb=1, data_bram_kb=1),
            last_word=True)
        assert outcome[0] == fault
        assert outcome[4][3] == 5

    def test_halting_branch_in_last_bram_word_halts(self):
        """A ``brid 0`` in the last instruction word halts on both engines:
        its slot would lie past the BRAM end, and is never fetched."""
        program = assemble("addi r3, r0, 5\n brid 0\n")
        outcomes = {}
        for engine in ("interp", "jit"):
            config = MicroBlazeConfig(instr_bram_kb=1, data_bram_kb=1)
            system = MicroBlazeSystem(config=config, engine=engine)
            base = system.instr_bram.size - 4 * len(program.text)
            system.instr_bram.store_words(base, program.text)
            system.cpu.reset(entry_point=base)
            stats = system.cpu.run()
            outcomes[engine] = (stats, system.cpu.read_register(3),
                                system.instr_bram.port_a_accesses)
        assert outcomes["jit"] == outcomes["interp"]
        assert outcomes["interp"][1] == 5

    def test_register_indirect_branch_halt(self):
        result = self.run_asm("""
            addi r3, r0, 9
            addi r5, r0, 0
            br r5               # target == pc: dynamic self-branch halt
        """)
        assert result.return_value == 9

    def test_execution_budget_raises_at_same_instruction(self):
        program = assemble("""
            addi r5, r0, 100
        loop:
            addi r5, r5, -1
            bnei r5, loop
            bri 0
        """)
        for budget in (1, 2, 3, 50, 101):
            stats = {}
            for engine in ("interp", "jit"):
                system = MicroBlazeSystem(config=PAPER_CONFIG, engine=engine)
                system.load(program)
                system.cpu.reset(entry_point=program.entry_point)
                with pytest.raises(ExecutionLimitExceeded):
                    system.cpu.run(max_instructions=budget)
                stats[engine] = system.cpu.stats
            assert stats["jit"] == stats["interp"]


# ------------------------------------------------------------ cache invalidation
class TestCacheInvalidation:
    LOOP = """
        addi r5, r0, 10
        addi r3, r0, 0
    loop:
        addi r3, r3, 1
        addi r5, r5, -1
        bnei r5, loop
        bri 0
    """

    def _warm_system(self):
        program = assemble(self.LOOP)
        system = MicroBlazeSystem(config=PAPER_CONFIG, engine="jit")
        system.load(program)
        system.cpu.reset(entry_point=program.entry_point)
        with pytest.raises(ExecutionLimitExceeded):
            system.cpu.run(max_instructions=8)
        return system, program

    def test_mid_run_word_patch_takes_effect(self):
        system, program = self._warm_system()
        assert system.cpu._blocks, "jit superblocks should be warm"
        patched = assemble(self.LOOP.replace("addi r3, r3, 1",
                                             "addi r3, r3, 16"))
        patch_live_words(system, 8, [patched.text[2]])
        system.cpu.run()
        executed_before = 2
        expected = executed_before * 1 + (10 - executed_before) * 16
        assert system.cpu.read_register(3) == expected

    def test_selective_invalidation_drops_only_covering_blocks(self):
        system, program = self._warm_system()
        cpu = system.cpu
        blocks_before = dict(cpu._blocks)
        assert blocks_before
        cpu.invalidate_decode_cache(8)
        for entry, block in blocks_before.items():
            # JIT block layout: (n, fn, entry, end, static_cycles).
            if block[2] <= 8 <= block[3]:
                assert entry not in cpu._blocks
            else:
                assert entry in cpu._blocks
        assert 8 not in cpu._decoded

    def test_patch_outside_a_block_keeps_its_translation(self):
        system, _program = self._warm_system()
        impl = system.cpu._engine_impl
        blocks_before = dict(impl.blocks)
        # The final ``bri 0`` at byte 20 lies outside every warm block.
        assert all(not block[2] <= 20 <= block[3]
                   for block in blocks_before.values())
        patch_live_words(system, 20, [assemble("bri 0").text[0]])
        assert impl.blocks.keys() == blocks_before.keys()
        assert all(impl.blocks[entry] is block
                   for entry, block in blocks_before.items())
        system.cpu.run()
        assert system.cpu.read_register(3) == 10

    def test_wholesale_invalidate_clears_everything(self):
        system, _program = self._warm_system()
        impl = system.cpu._engine_impl
        impl.image_digest()
        impl.invalidate()
        assert not impl.blocks
        assert impl._image_digest is None
        system.cpu.run()
        assert system.cpu.read_register(3) == 10

    def test_image_key_covers_the_written_words(self):
        """Equal images give equal keys whatever was loaded before, and a
        patched word, in the text or past it, changes the key."""
        program = assemble(self.LOOP)
        fresh = MicroBlazeSystem(config=PAPER_CONFIG, engine="jit")
        fresh.load(program)
        reused = MicroBlazeSystem(config=PAPER_CONFIG, engine="jit")
        reused.load(assemble(self.LOOP + "    addi r3, r3, 1\n" * 40))
        reused.load(program)
        assert fresh.instr_bram.extent == reused.instr_bram.extent \
            == 4 * len(program.text)
        key = fresh.cpu._engine_impl.image_digest()
        assert reused.cpu._engine_impl.image_digest() == key

        patched = assemble(self.LOOP.replace("addi r3, r3, 1",
                                             "addi r3, r3, 16")).text[2]
        patch_live_words(fresh, 8, [patched])
        assert fresh.cpu._engine_impl.image_digest() != key
        patch_live_words(fresh, 8, [program.text[2]])
        assert fresh.cpu._engine_impl.image_digest() == key
        stub = 4 * len(program.text) + 64
        patch_live_words(fresh, stub, [patched])
        assert fresh.instr_bram.extent == stub + 4
        assert fresh.cpu._engine_impl.image_digest() != key
        patch_live_words(fresh, stub, [0])
        assert fresh.cpu._engine_impl.image_digest() == key


# ----------------------------------------------------------------- block counts
def test_non_loop_blocks_add_only_eager_constants():
    """A block that is not a self-loop records its static statistics as
    one count in its slot: the only constant counter additions left at
    its top level are the eager counters', across the six full-size
    benchmarks' blocks."""
    constant = re.compile(r"^        cnt\[(\d+)\] [+-]= \d+$", re.M)
    checked = 0
    for bench in build_suite():
        program = compile_to_program(bench.source, name=bench.name,
                                     config=PAPER_CONFIG)
        system = MicroBlazeSystem(config=PAPER_CONFIG, engine="jit")
        system.run(program)
        compiler = system.cpu._engine_impl.compiler
        for entry in system.cpu._blocks:
            source = compiler._translate(entry)[3]
            if "for _i in range(" in source:
                continue
            counters = set(map(int, constant.findall(source)))
            assert counters <= set(EAGER), (bench.name, hex(entry), source)
            assert "\n        bc[slot] += 1\n" in source
            checked += 1
    assert checked >= 60


# -------------------------------------------------------------------- telemetry
def test_translations_are_accounted_and_scraped():
    """A cold run compiles every superblock it dispatches; a second fresh
    system on the same program serves all of them from the translation
    table.  Both land in ``codegen_stats()`` and in the live snapshot."""
    program = assemble(TestCacheInvalidation.LOOP, name="telemetry-loop")
    _CODE_CACHE.clear()
    reset_codegen_stats()
    with obs.active_telemetry() as telemetry:
        MicroBlazeSystem(config=PAPER_CONFIG, engine="jit").run(program)
        cold = codegen_stats()["jit"]
        MicroBlazeSystem(config=PAPER_CONFIG, engine="jit").run(program)
        warm = codegen_stats()["jit"]
        snapshot = telemetry.snapshot()
    assert cold["compiles"] > 0 and cold["cache_hits"] == 0
    assert warm["compiles"] == warm["cache_hits"] == cold["compiles"]
    assert set(warm) == {"compiles", "cache_hits", "compile_seconds"}

    def jit_samples(family):
        return [sample for sample in snapshot[family]["samples"]
                if sample["labels"].get("engine") == "jit"]

    labels = {"engine": "jit", "kind": "block"}
    assert [(sample["labels"], sample["value"])
            for sample in jit_samples("warp_codegen_compiles")] \
        == [(labels, cold["compiles"])]
    assert [(sample["labels"], sample["value"])
            for sample in jit_samples("warp_codegen_cache_hits")] \
        == [(labels, cold["compiles"])]
    assert [sample["count"]
            for sample in jit_samples("warp_codegen_compile_ms")] \
        == [2 * cold["compiles"]]
    events = {sample["labels"]["kind"]: sample["value"]
              for sample in jit_samples("warp_codegen_events")}
    assert events.keys() == {"compiles", "cache_hits", "compile_seconds"}
    assert snapshot["warp_codegen_cache_entries"]["samples"][0]["value"] > 0
