"""Cross-engine ``run_slice`` budget-split equivalence at adversarial
split points.

The checkpoint plane promises that preemption at *any* instruction
boundary is invisible: a run carved into slices finishes with the same
architectural state as an uninterrupted one, on every engine, even when
the budget expires inside a hot translated loop, lands in the middle of
an atomic branch/delay-slot pair, or stops one instruction short of a
fault.  The divergence bisector (:mod:`repro.fuzz.bisect`) leans on
exactly this property, so these splits are pinned here directly.
"""

from __future__ import annotations

import pytest

from repro.fuzz import generate_program
from repro.isa import assemble
from repro.microblaze import (
    MicroBlazeSystem,
    PAPER_CONFIG,
    engine_names,
)
from repro.microblaze.checkpoint import run_slice, spawn_from_checkpoint

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


def _system(engine: str, precise: bool = False) -> MicroBlazeSystem:
    return MicroBlazeSystem(config=PAPER_CONFIG, engine=engine,
                            precise_fault_stats=precise)


def _architectural(system: MicroBlazeSystem) -> tuple:
    return (tuple(system.cpu.registers), bytes(system.data_bram.storage),
            system.cpu.halted)


def _full(system: MicroBlazeSystem) -> tuple:
    return _architectural(system) + (system.cpu.pc, system.cpu.stats)


def _run_whole(program, engine: str, precise: bool = False) -> tuple:
    system = _system(engine, precise)
    system.start(program)
    fault = None
    try:
        run_slice(system, BIG)
    except Exception as error:  # noqa: BLE001 - the fault is compared
        fault = f"{type(error).__name__}: {error}"
    return system, fault


def _run_split(program, engine: str, split: int,
               precise: bool = False) -> tuple:
    system = _system(engine, precise)
    system.start(program)
    fault = None
    try:
        finished = run_slice(system, split)
        if not finished:
            run_slice(system, BIG)
    except Exception as error:  # noqa: BLE001 - the fault is compared
        fault = f"{type(error).__name__}: {error}"
    return system, fault


def _fault_count(program) -> int:
    """Instructions the reference retires before the fault."""
    system, fault = _run_whole(program, "interp")
    assert fault is not None
    return system.cpu.stats.instructions


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

    @pytest.mark.parametrize("engine", engine_names())
    def test_cross_engine_checkpoint_handoff(self, engine):
        """Interp runs the prefix, the checkpoint crosses the engine
        boundary, ``engine`` finishes — and lands exactly where an
        uninterrupted interp run does (the bisector's core move)."""
        program = generate_program(1, "branchy")
        prefix = _system("interp")
        prefix.start(program)
        assert not run_slice(prefix, 50)
        blob = prefix.checkpoint()
        resumed = spawn_from_checkpoint(blob, engine=engine)
        assert run_slice(resumed, BIG)
        reference, _ = _run_whole(program, "interp")
        assert _full(resumed) == _full(reference)


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


class TestSplitOneBeforeFault:
    """The nastiest boundary: the slice ends one instruction before a
    memory fault, so the resumed slice's very first step faults."""

    @pytest.mark.parametrize("engine", engine_names())
    def test_precise_mode_fault_state_is_split_invariant(self, engine):
        program = assemble(HOT_LOOP_THEN_FAULT, name="hot-fault")
        boundary = _fault_count(program)
        whole, whole_fault = _run_whole(program, engine, precise=True)
        sliced, sliced_fault = _run_split(program, engine, boundary - 1,
                                          precise=True)
        assert whole_fault is not None
        assert sliced_fault == whole_fault
        assert _full(sliced) == _full(whole)

    @pytest.mark.parametrize("engine", engine_names())
    def test_default_mode_keeps_architectural_state(self, engine):
        """Default mode only promises registers + data memory at a fault
        (the tier-1 contract); those must survive any split."""
        program = assemble(HOT_LOOP_THEN_FAULT, name="hot-fault")
        boundary = _fault_count(program)
        whole, whole_fault = _run_whole(program, engine)
        sliced, sliced_fault = _run_split(program, engine, boundary - 1)
        assert whole_fault is not None and sliced_fault is not None
        assert type(whole_fault) is type(sliced_fault)
        assert _architectural(sliced) == _architectural(whole)
