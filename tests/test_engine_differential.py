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
from repro.microblaze.opb import OPB_BASE_ADDRESS, SimplePeripheral
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


# ----------------------------------------------------------------- warp runs
@pytest.fixture(scope="module")
def patched_small_suite(compiled_small_programs):
    """``{name: (patched program, implementation)}`` for the six small
    benchmarks, partitioned on the reference engine's profile."""
    warp = WarpProcessor(config=PAPER_CONFIG, engine="interp")
    patched = {}
    for name in SUITE_NAMES:
        program = compiled_small_programs[name]
        _, profiler = warp.profile(program)
        image = program.copy()
        outcome = warp.dpm.partition(image, profiler.most_critical_region())
        assert outcome.success, name
        patched[name] = image, outcome.implementation
    return patched


def _warp_observe(engine: str, program, implementation) -> tuple:
    """Run a patched binary with its WCLA attached; everything the run
    leaves in the core, the buses and the peripheral."""
    system = _system(engine)
    system.load(program)
    peripheral = WclaPeripheral(OPB_BASE_ADDRESS, implementation,
                                system.data_bram)
    system.attach_peripheral(peripheral)
    observed = _observe(system, system.run())
    return observed + (
        system.opb.reads, system.opb.writes,
        list(peripheral.register_file), peripheral.invocations,
        peripheral.total_iterations, peripheral.total_hw_cycles,
        peripheral.done)


class TestWarpRunBitExact:
    @pytest.mark.parametrize("engine", BLOCK_ENGINES)
    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_patched_run_matches_interpreter(self, engine, name,
                                             patched_small_suite):
        """The patched binary of every small kernel: statistics, return
        value, the whole data BRAM, every port counter, the OPB counters
        and the WCLA's register file and totals match the reference."""
        program, implementation = patched_small_suite[name]
        reference = _warp_observe("interp", program, implementation)
        observed = _warp_observe(engine, program, implementation)
        assert observed == reference
        # Every invocation crossed the bus: at least a start write and a
        # live-out read.
        opb_reads, opb_writes, _, invocations = reference[-7:-3]
        assert invocations >= 1
        assert opb_reads >= invocations and opb_writes >= invocations


# ------------------------------------------------------------ static OPB
#: A block that sets its OPB base itself, so both accesses have static
#: addresses the block engine binds to the peripheral.
STATIC_OPB = """
    li   r18, 0x80000000
    addi r5, r0, 7
    swi  r5, r18, 4
    lwi  r6, r18, 4
    add  r3, r6, r5
    bri  0
"""

#: A static address past the peripheral's 16-byte window: no peripheral
#: owns it, so the access falls through to the data BRAM and faults.
STATIC_UNMAPPED = """
    addi r5, r0, 7
    li   r18, 0x80000000
    swi  r5, r18, 4
    {access}
    addi r3, r0, 1
    bri  0
"""

#: Static OPB accesses in a self-loop, in its delay slot and in the
#: delay slot of an unconditional branch.
STATIC_OPB_LOOP = """
    addi r5, r0, 20
    addi r3, r0, 0
loop:
    li   r19, 0x80000000
    swi  r5, r19, 0
    lwi  r6, r19, 8
    add  r3, r3, r6
    addi r5, r5, -1
    bneid r5, loop
    swi  r3, r19, 8
    li   r19, 0x80000000
    brid done
    swi  r3, r19, 12
    addi r3, r0, 99
done:
    bri  0
"""


#: A load and a call's link write replace a constant OPB base: the
#: stores after them go to the data BRAM.
FORGOTTEN_CONSTANTS = """
    addi r5, r0, 77
    li   r18, 0x80000000
    lwi  r18, r18, 0
    swi  r5, r18, 4
    li   r19, 0x80000000
    brlid r19, sub
    swi  r5, r19, 4
    lwi  r3, r0, 260
    bri  0
sub:
    rtsd r19, 8
    nop
"""


#: Twelve static sites in the factory prologue, then a misaligned load a
#: few lines before the next instruction: the fault point must count the
#: prologue to land on the load.
STATIC_THEN_FAULT = """
    li   r18, 0x80000000
    addi r7, r0, 9
""" + "".join(f"    swi  r5, r18, {4 * index}\n    lwi  r6, r18, {4 * index}\n"
              for index in range(6)) + """
    lw   r9, r7, r0
    addi r10, r0, 1
    addi r11, r0, 2
    bri  0
"""


class _Tripwire(SimplePeripheral):
    """A register file whose ``trip``-th write raises, after counting."""

    def __init__(self, trip: int):
        super().__init__(OPB_BASE_ADDRESS)
        self.trip = trip

    def write(self, offset: int, value: int) -> None:
        super().write(offset, value)
        if self.writes == self.trip:
            raise RuntimeError(f"tripwire at write {self.writes}")


def _peripheral_run(engine: str, source: str, peripheral, error=None):
    """Run ``source`` with ``peripheral`` attached: core, bus and
    peripheral state, plus the exception text when ``error`` is raised."""
    system = MicroBlazeSystem(config=PAPER_CONFIG, engine=engine,
                              peripherals=(peripheral,))
    program = assemble(source, name="opb")
    message = None
    if error is None:
        system.run(program)
    else:
        with pytest.raises(error) as info:
            system.run(program)
        message = str(info.value)
    cpu = system.cpu
    return system, (message, cpu.stats, list(cpu.registers), cpu.pc,
                    cpu._imm_latch, bytes(system.data_bram.storage),
                    system.data_bram.port_a_accesses,
                    system.opb.reads, system.opb.writes,
                    list(peripheral.registers), peripheral.reads,
                    peripheral.writes)


def _bound_calls(block) -> bool:
    """Whether a jit block's closure holds resolved OPB accesses."""
    return any(name.startswith("_b")
               for name in block[1].__code__.co_freevars)


class TestStaticOpbAccesses:
    @pytest.mark.parametrize("engine", BLOCK_ENGINES)
    def test_static_accesses_bind_to_the_peripheral(self, engine):
        system, observed = _peripheral_run(engine, STATIC_OPB,
                                           SimplePeripheral(OPB_BASE_ADDRESS))
        _, reference = _peripheral_run("interp", STATIC_OPB,
                                       SimplePeripheral(OPB_BASE_ADDRESS))
        assert observed == reference
        assert system.cpu.read_register(3) == 14
        assert reference[-2:] == (1, 1)
        if engine == "jit":
            assert _bound_calls(system.cpu._blocks[0])

    @pytest.mark.parametrize("engine", BLOCK_ENGINES)
    def test_a_load_or_a_link_write_forgets_the_constant(self, engine):
        def peripheral():
            device = SimplePeripheral(OPB_BASE_ADDRESS)
            device.registers[0] = 256
            return device

        _, observed = _peripheral_run(engine, FORGOTTEN_CONSTANTS,
                                      peripheral())
        _, reference = _peripheral_run("interp", FORGOTTEN_CONSTANTS,
                                       peripheral())
        assert observed == reference
        # One peripheral read (the load of the new base), no writes.
        assert reference[-2:] == (1, 0)
        assert reference[2][3] == 77

    @pytest.mark.parametrize("engine", BLOCK_ENGINES)
    def test_block_bound_before_attach_reaches_the_new_peripheral(
            self, engine):
        """A block translated and bound while no peripheral owns its
        static address keeps decoding per access, so a peripheral
        attached afterwards is reached."""
        program = assemble(STATIC_OPB, name="opb")
        states = {}
        for which in ("interp", engine):
            system = _system(which)
            # The budget stops the run before the block executes, after
            # the block engine has bound it.
            with pytest.raises(ExecutionLimitExceeded):
                system.run(program, max_instructions=1)
            before = system.cpu._blocks.get(program.entry_point)
            peripheral = SimplePeripheral(OPB_BASE_ADDRESS)
            system.attach_peripheral(peripheral)
            result = system.run()
            if which != "interp":
                assert before is not None
                assert system.cpu._blocks[program.entry_point] is before
            states[which] = (_observe(system, result), system.opb.reads,
                             system.opb.writes, list(peripheral.registers),
                             peripheral.reads, peripheral.writes)
        assert states[engine] == states["interp"]
        assert states["interp"][0][1] == 14
        assert states["interp"][-2:] == (1, 1)

    @pytest.mark.parametrize("engine", BLOCK_ENGINES)
    @pytest.mark.parametrize("access", ["swi  r5, r18, 64",
                                        "lwi  r6, r18, 64",
                                        "lwi  r0, r18, 64"])
    def test_static_unmapped_address_faults_like_the_interpreter(
            self, engine, access):
        source = STATIC_UNMAPPED.format(access=access)
        _, observed = _peripheral_run(engine, source,
                                      SimplePeripheral(OPB_BASE_ADDRESS),
                                      error=MemoryError_)
        _, reference = _peripheral_run("interp", source,
                                       SimplePeripheral(OPB_BASE_ADDRESS),
                                       error=MemoryError_)
        assert observed == reference
        # The mapped store before the fault completed; the fault left the
        # bus untouched.
        assert reference[-5:-3] == (0, 1)

    @pytest.mark.parametrize("engine", BLOCK_ENGINES)
    def test_fault_after_many_static_sites(self, engine):
        def peripheral():
            return SimplePeripheral(OPB_BASE_ADDRESS, num_registers=8)

        system, observed = _peripheral_run(engine, STATIC_THEN_FAULT,
                                           peripheral(), error=MemoryError_)
        _, reference = _peripheral_run("interp", STATIC_THEN_FAULT,
                                       peripheral(), error=MemoryError_)
        assert observed == reference
        assert reference[-2:] == (6, 6)
        if engine == "jit":
            assert _bound_calls(system.cpu._blocks[0])

    @pytest.mark.parametrize("engine", BLOCK_ENGINES)
    def test_static_accesses_in_a_self_loop_and_delay_slots(self, engine):
        system, observed = _peripheral_run(
            engine, STATIC_OPB_LOOP, SimplePeripheral(OPB_BASE_ADDRESS))
        _, reference = _peripheral_run(
            "interp", STATIC_OPB_LOOP, SimplePeripheral(OPB_BASE_ADDRESS))
        assert observed == reference
        assert reference[-2:] == (20, 41)
        if engine == "jit":
            loop = assemble(STATIC_OPB_LOOP).symbols["loop"].address
            block = system.cpu._blocks[loop]
            assert "_i" in block[1].__code__.co_varnames
            assert _bound_calls(block)

    @pytest.mark.parametrize("engine", BLOCK_ENGINES)
    @pytest.mark.parametrize("source,trip", [
        (STATIC_OPB, 1),             # mid-block
        (STATIC_OPB_LOOP, 9),        # fifth iteration's loop-body store
        (STATIC_OPB_LOOP, 10),       # fifth iteration's delay slot
        (STATIC_OPB_LOOP, 41),       # the unconditional branch's slot
    ])
    def test_raising_peripheral_leaves_the_interpreter_fault_point(
            self, engine, source, trip):
        _, observed = _peripheral_run(engine, source, _Tripwire(trip),
                                      error=RuntimeError)
        _, reference = _peripheral_run("interp", source, _Tripwire(trip),
                                       error=RuntimeError)
        assert observed == reference
        assert reference[0] == f"tripwire at write {trip}"


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
        profiler rankings match the reference.  Only a program of a
        profile that faults by design — the near-fault profile, or the
        ``opb`` profile's rare static access past the peripheral window —
        may differ, and only in the documented instruction-fetch
        lookahead of a faulted run."""
        resolved = resolve_profile(profile)
        verdict = check_program(generate_program(seed, resolved), seed=seed,
                                profile=profile, engines=(engine,),
                                with_opb=resolved.opb_traffic)
        assert verdict.instructions > 0
        assert [d.fields for d in verdict.unexplained] == []
        if not (resolved.near_fault or resolved.opb_faults):
            assert [d.fields for d in verdict.divergences] == []
