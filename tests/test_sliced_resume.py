"""Sliced execution on one system: ``start``, ``run_slice`` budgets, then
``resume``.

A preempted run continues on the system that ran its prefix; nothing is
serialized in between.  The promises pinned here:

* **Resume equals run** — after one or many slices, :meth:`resume`
  returns a result indistinguishable from an uninterrupted :meth:`run`
  of the same program on a fresh system (statistics, return value, data
  image, program name, configuration), on every engine.
* **Peripherals** — OPB device state (``snapshot_state``) and the bus
  counters after a sliced run equal a whole run's, including a run that
  faults past the peripheral window.
* **Cross-engine boundaries** — every engine stops a budget at the same
  instruction boundary with the same state as the interpreter, for every
  generator profile; the divergence bisector compares exactly these
  states.
* **Guards** — ``resume`` with nothing loaded, non-positive budgets,
  slicing a finished run, and ``run`` after a preempted slice.
"""

from __future__ import annotations

import pytest

from repro.fuzz import fuzz_peripherals, generate_program, profile_names
from repro.isa.assembler import assemble
from repro.microblaze import (
    MicroBlazeSystem,
    PAPER_CONFIG,
    SimplePeripheral,
    engine_names,
    run_slice,
)
from repro.microblaze.opb import OPB_BASE_ADDRESS

ENGINES = engine_names()

SMALL_SUITE = ("brev", "g3fax", "canrdr", "bitmnp", "idct", "matmul")

BIG = 1_000_000

#: Store to the peripheral, then read it back into r3.
OPB_ROUND_TRIP = f"""
    addi r5, r0, 1
    imm  {OPB_BASE_ADDRESS >> 16}
    swi  r5, r0, 0
    imm  {OPB_BASE_ADDRESS >> 16}
    lwi  r3, r0, 0
    bri  0
"""

#: Six increments of r3 and no branch before the halt.
STRAIGHT_LINE = "\n".join(["    addi r3, r3, 1"] * 6 + ["    bri  0", ""])


def _result_fields(result) -> tuple:
    return (result.program_name, result.config, result.stats,
            result.return_value, result.data_image)


def _reference(program, engine: str):
    return MicroBlazeSystem(config=PAPER_CONFIG, engine=engine).run(program)


def _state(system: MicroBlazeSystem) -> tuple:
    cpu = system.cpu
    return (tuple(cpu.registers), bytes(system.data_bram.storage),
            cpu.halted, cpu.pc, cpu.stats, cpu._imm_latch,
            system.opb.reads, system.opb.writes,
            tuple(repr(p.snapshot_state()) for p in system.opb.peripherals))


def _sliced(program, engine: str, budgets, *, with_opb: bool = False):
    """Run ``program`` on a fresh system through ``budgets`` slices (the
    last one ``BIG``), stopping early at a fault; returns
    ``(system, fault)``."""
    peripherals = fuzz_peripherals() if with_opb else ()
    system = MicroBlazeSystem(config=PAPER_CONFIG, peripherals=peripherals,
                              engine=engine)
    system.start(program)
    try:
        for budget in budgets:
            if run_slice(system, budget):
                break
    except Exception as error:  # noqa: BLE001 - the fault is compared
        return system, f"{type(error).__name__}: {error}"
    return system, None


class TestResumeMatchesRun:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("name", SMALL_SUITE)
    def test_resume_after_one_slice(self, name, engine,
                                    compiled_small_programs):
        program = compiled_small_programs[name]
        system = MicroBlazeSystem(config=PAPER_CONFIG, engine=engine)
        system.start(program)
        assert not run_slice(system, 400), "program too small to preempt"
        assert system.cpu.stats.instructions in (400, 401)
        assert (_result_fields(system.resume())
                == _result_fields(_reference(program, engine)))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_many_slices_then_resume(self, engine, compiled_small_programs):
        """Preempting every 300 instructions on one system changes
        nothing, and matches the interpreter's uninterrupted run."""
        program = compiled_small_programs["canrdr"]
        system = MicroBlazeSystem(config=PAPER_CONFIG, engine=engine)
        system.start(program)
        hops = 0
        while not run_slice(system, 300):
            hops += 1
            assert hops < 1_000, "slices make no progress"
        assert hops >= 2
        assert (_result_fields(system.resume())
                == _result_fields(_reference(program, "interp")))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_registers_are_kept_across_preemption(self, engine,
                                                  compiled_small_programs):
        """The preempted system's registers, pc and statistics equal the
        interpreter's at the same budget: preemption loses nothing."""
        program = compiled_small_programs["bitmnp"]
        states = []
        for side in (engine, "interp"):
            system = MicroBlazeSystem(config=PAPER_CONFIG, engine=side)
            system.start(program)
            assert not run_slice(system, 400)
            states.append((list(system.cpu.registers), system.cpu.pc,
                           system.cpu.stats))
        assert states[0] == states[1]


class TestPeripheralState:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_opb_round_trip_across_a_slice(self, engine):
        program = assemble(OPB_ROUND_TRIP, name="opb-io")
        periph = SimplePeripheral(base_address=OPB_BASE_ADDRESS,
                                  name="periph")
        system = MicroBlazeSystem(config=PAPER_CONFIG, peripherals=[periph],
                                  engine=engine)
        system.start(program)
        assert not run_slice(system, 3)  # past the store, before the load
        state = periph.snapshot_state()
        assert state["registers"][0] == 1
        assert (state["reads"], state["writes"]) == (0, 1)
        result = system.resume()
        assert result.return_value == 1
        assert (result.stats.opb_reads, result.stats.opb_writes) == (1, 1)
        assert (periph.snapshot_state()["reads"],
                periph.snapshot_state()["writes"]) == (1, 1)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("seed", range(4))
    def test_sliced_opb_program_matches_a_whole_run(self, seed, engine):
        """``opb`` seeds 0–3 (seed 2 faults past the peripheral window),
        sliced every 37 instructions, against one uninterrupted budget on
        the interpreter: same fault, CPU state, bus counters and device
        state."""
        program = generate_program(seed, "opb")
        whole, whole_fault = _sliced(program, "interp", [BIG],
                                     with_opb=True)
        sliced, sliced_fault = _sliced(program, engine, [37] * 400 + [BIG],
                                       with_opb=True)
        assert sliced_fault == whole_fault
        assert whole.opb.reads + whole.opb.writes > 0
        assert _state(sliced) == _state(whole)


class TestCrossEngineBoundaries:
    @pytest.mark.parametrize("profile", profile_names())
    def test_engines_stop_where_the_interpreter_stops(self, profile):
        """At a quarter, half, three quarters and one short of the run's
        end, every engine's state equals the interpreter's."""
        program = generate_program(3, profile)
        with_opb = profile == "opb"
        reference, _ = _sliced(program, "interp", [BIG], with_opb=with_opb)
        end = reference.cpu.stats.instructions
        assert end > 8
        for count in (1, end // 4, end // 2, 3 * end // 4, end - 1):
            expected = _sliced(program, "interp", [count], with_opb=with_opb)
            for engine in ENGINES:
                observed = _sliced(program, engine, [count],
                                   with_opb=with_opb)
                assert observed[1] == expected[1], (engine, count)
                assert _state(observed[0]) == _state(expected[0]), \
                    (engine, count)


class TestGuards:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("budget", (1, 2, 5))
    def test_budget_stops_exactly_on_straight_line_code(self, budget,
                                                        engine):
        """With no delay pair to snap over, a slice retires exactly its
        budget and leaves the pc on the next instruction."""
        program = assemble(STRAIGHT_LINE, name="straight-line")
        system = MicroBlazeSystem(config=PAPER_CONFIG, engine=engine)
        system.start(program)
        assert not run_slice(system, budget)
        assert system.cpu.stats.instructions == budget
        assert system.cpu.pc == program.entry_point + 4 * budget
        assert system.cpu.read_register(3) == budget
        assert system.resume().return_value == 6

    def test_resume_without_a_program_raises(self):
        system = MicroBlazeSystem(config=PAPER_CONFIG)
        with pytest.raises(RuntimeError, match="no program loaded"):
            system.resume()

    @pytest.mark.parametrize("budget", (0, -1))
    def test_run_slice_rejects_non_positive_budgets(self, budget):
        system = MicroBlazeSystem(config=PAPER_CONFIG)
        system.start(assemble(OPB_ROUND_TRIP, name="opb-io"))
        with pytest.raises(ValueError, match="must be positive"):
            run_slice(system, budget)
        assert system.cpu.stats.instructions == 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_slicing_a_finished_run_changes_nothing(self, engine,
                                                    compiled_small_programs):
        program = compiled_small_programs["brev"]
        system = MicroBlazeSystem(config=PAPER_CONFIG, engine=engine)
        system.start(program)
        assert run_slice(system, BIG)
        finished = _state(system)
        assert run_slice(system, 5)
        assert _state(system) == finished
        assert (_result_fields(system.resume())
                == _result_fields(_reference(program, engine)))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_run_after_a_slice_starts_from_reset(self, engine,
                                                 compiled_small_programs):
        """``run`` resets the CPU: a preempted prefix does not leak into
        the next run's statistics or result."""
        program = compiled_small_programs["matmul"]
        system = MicroBlazeSystem(config=PAPER_CONFIG, engine=engine)
        system.start(program)
        assert not run_slice(system, 400)
        assert (_result_fields(system.run(program))
                == _result_fields(_reference(program, engine)))
