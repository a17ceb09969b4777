"""Cross-engine ``run_slice`` budget-split equivalence at adversarial
split points.

Preemption at *any* instruction boundary is invisible: a run carved into
slices finishes with the same architectural state as an uninterrupted
one, on every engine, even when the budget expires inside a hot
translated loop, lands in the middle of an atomic branch/delay-slot
pair, or stops one instruction short of a fault.  The divergence
bisector (:mod:`repro.fuzz.bisect`) stops every probe with one budget
and compares the engines there, so these splits are pinned here
directly.
"""

from __future__ import annotations

import pytest

from repro.fuzz import generate_program
from repro.isa import assemble
from repro.microblaze import (
    MicroBlazeSystem,
    PAPER_CONFIG,
    engine_names,
    run_slice,
)

#: 64 iterations of a 3-instruction loop — translated long before it
#: exits — then a misaligned word load faults.
HOT_LOOP_THEN_FAULT = """
    addi r5, r0, 64
    addi r3, r0, 0
loop:
    addi r3, r3, 1
    addi r5, r5, -1
    bnei r5, loop
    addi r3, r3, 3
    lw   r9, r3, r0
    bri  0
"""

#: Every loop iteration retires its branch and delay slot atomically, so
#: half of all instruction counts fall *inside* a delay pair.
DELAY_PAIR_LOOP = """
    addi r5, r0, 20
    addi r3, r0, 0
loop:
    addi r3, r3, 1
    addi r5, r5, -1
    bneid r5, loop
    add  r3, r3, r3
    bri  0
"""

BIG = 1_000_000


def _system(engine: str) -> MicroBlazeSystem:
    return MicroBlazeSystem(config=PAPER_CONFIG, engine=engine)


def _architectural(system: MicroBlazeSystem) -> tuple:
    return (tuple(system.cpu.registers), bytes(system.data_bram.storage),
            system.cpu.halted)


def _full(system: MicroBlazeSystem) -> tuple:
    return _architectural(system) + (system.cpu.pc, system.cpu.stats,
                                     system.cpu._imm_latch)


def _run_whole(program, engine: str) -> tuple:
    system = _system(engine)
    system.start(program)
    fault = None
    try:
        run_slice(system, BIG)
    except Exception as error:  # noqa: BLE001 - the fault is compared
        fault = f"{type(error).__name__}: {error}"
    return system, fault


def _run_split(program, engine: str, split: int) -> tuple:
    system = _system(engine)
    system.start(program)
    fault = None
    try:
        finished = run_slice(system, split)
        if not finished:
            run_slice(system, BIG)
    except Exception as error:  # noqa: BLE001 - the fault is compared
        fault = f"{type(error).__name__}: {error}"
    return system, fault


class TestSplitInsideHotRegion:
    """Budget expiry after the loop is translated but before it exits:
    the block engine is preempted mid-translation-lifetime."""

    @pytest.mark.parametrize("engine", engine_names())
    @pytest.mark.parametrize("split", (2, 30, 100))
    def test_halting_program_is_split_invariant(self, engine, split):
        program = generate_program(1, "branchy")
        whole, whole_fault = _run_whole(program, engine)
        sliced, sliced_fault = _run_split(program, engine, split)
        assert whole_fault is None and sliced_fault is None
        assert _full(sliced) == _full(whole)


class TestSplitOnDelaySlot:
    """Budgets landing inside an atomic branch/delay-slot pair must snap
    forward to the pair's end, never split it."""

    @pytest.mark.parametrize("engine", engine_names())
    @pytest.mark.parametrize("split", (5, 6, 7, 8))
    def test_mid_pair_budgets_snap_and_stay_equivalent(self, engine, split):
        program = assemble(DELAY_PAIR_LOOP, name="delay-pairs")
        whole, _ = _run_whole(program, engine)
        sliced_system = _system(engine)
        sliced_system.start(program)
        finished = run_slice(sliced_system, split)
        if not finished:
            # Preemption stopped at a real boundary: at or one past the
            # requested budget (one past when it snapped over a pair).
            actual = sliced_system.cpu.stats.instructions
            assert actual in (split, split + 1)
            run_slice(sliced_system, BIG)
        assert _full(sliced_system) == _full(whole)

    def test_snap_is_observable_on_the_reference(self):
        """At least one of the probed budgets really lands mid-pair (the
        adversarial case exists, it is not vacuously passed)."""
        program = assemble(DELAY_PAIR_LOOP, name="delay-pairs")
        snapped = []
        for split in (5, 6, 7, 8):
            system = _system("interp")
            system.start(program)
            if not run_slice(system, split):
                snapped.append(system.cpu.stats.instructions - split)
        assert 1 in snapped


class TestSplitBeforeFault:
    """Slices ending before a memory fault: in the first loop iteration,
    mid-loop, near the loop's end, and at the nastiest boundary, one
    instruction before the fault, so the resumed slice's very first step
    faults.  The resumed run stops at the interpreter's uninterrupted
    fault point: statistics, pc and imm latch too."""

    @pytest.mark.parametrize("engine", engine_names())
    @pytest.mark.parametrize("before_fault", (192, 95, 5, 1))
    def test_fault_state_is_split_invariant(self, engine, before_fault):
        program = assemble(HOT_LOOP_THEN_FAULT, name="hot-fault")
        reference, reference_fault = _run_whole(program, "interp")
        assert reference_fault is not None
        split = reference.cpu.stats.instructions - before_fault
        sliced, sliced_fault = _run_split(program, engine, split)
        assert sliced_fault == reference_fault
        assert _full(sliced) == _full(reference)
