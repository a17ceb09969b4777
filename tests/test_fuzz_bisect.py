"""Checkpoint-driven divergence bisection.

The headline guarantee: register a deliberately wrong engine (an
interpreter that corrupts one register the first time a chosen pc
retires), fuzz it, and the bisector must pin the *exact* injected pc and
produce a repro bundle that replays from ``(seed, profile)`` alone.
"""

from __future__ import annotations

from typing import Optional

import pytest

from repro.fuzz import (
    bisect_divergence,
    check_program,
    generate_program,
    run_campaign,
)
from repro.microblaze import (
    ExecutionLimitExceeded,
    MicroBlazeSystem,
    PAPER_CONFIG,
)
from repro.microblaze.engines import _REGISTRY, register_engine
from repro.microblaze.engines.interp import InterpreterEngine

SEED, PROFILE = 0, "mixed"


class MutantEngine(InterpreterEngine):
    """The reference loop plus one injected register corruption: after the
    instruction at :attr:`target_pc` retires, ``r3`` (the generated
    programs' checksum register) is flipped by one bit."""

    #: Class-level so the registry factory (``MutantEngine(cpu)``) needs
    #: no extra arguments; the test fixture sets it.
    target_pc: Optional[int] = None

    def run(self, max_instructions, max_cycles=None):
        cpu = self.cpu
        while not cpu.halted:
            if cpu.stats.instructions >= max_instructions:
                raise ExecutionLimitExceeded(
                    f"exceeded {max_instructions} instructions "
                    f"at pc={cpu.pc:#x}")
            pc = cpu.pc
            cpu.step()
            if pc == self.target_pc:
                cpu.registers[3] ^= 0x10000


def _retired_steps(program):
    """The reference retirement order: ``(pc, instructions_before)`` per
    :meth:`step` call.  A branch retires atomically with its delay slot,
    so the instruction count can advance by two between steps — step
    index and instruction count are *not* interchangeable."""
    system = MicroBlazeSystem(config=PAPER_CONFIG, engine="interp")
    system.start(program)
    steps = []
    while not system.cpu.halted:
        steps.append((system.cpu.pc, system.cpu.stats.instructions))
        system.cpu.step()
    return steps


@pytest.fixture()
def mutant_engine():
    program = generate_program(SEED, PROFILE)
    # Inject in the checksum epilogue: it retires exactly once and the
    # fold chain is bijective, so the corruption reaches the final state.
    MutantEngine.target_pc = _retired_steps(program)[-4][0]
    register_engine("mutant", MutantEngine)
    try:
        yield program, MutantEngine.target_pc
    finally:
        del _REGISTRY["mutant"]
        MutantEngine.target_pc = None


class TestMutantPinpointing:
    def test_bisector_reports_the_exact_injected_pc(self, mutant_engine):
        program, target_pc = mutant_engine
        bundle = bisect_divergence(program, "mutant", seed=SEED,
                                   profile=PROFILE)
        assert bundle is not None
        assert bundle.first_divergent_pc == target_pc
        expected = next(count for pc, count in _retired_steps(program)
                        if pc == target_pc)
        assert bundle.instructions_before_divergence == expected
        assert "r3" in bundle.state_diff["registers"]
        assert bundle.bisect_steps > 0
        # Logarithmic, not linear: far fewer probes than instructions.
        assert bundle.bisect_steps < 32

    def test_bundle_replays_from_seed_and_profile_alone(self, mutant_engine):
        program, target_pc = mutant_engine
        bundle = bisect_divergence(program, "mutant", seed=SEED,
                                   profile=PROFILE)
        replay = bundle.replay
        regenerated = generate_program(replay["seed"], replay["profile"])
        assert regenerated.text == program.text
        assert bundle.source == regenerated.source
        again = bisect_divergence(regenerated, replay["engine"],
                                  seed=replay["seed"],
                                  profile=replay["profile"],
                                  precise_fault_stats=replay[
                                      "precise_fault_stats"])
        assert again is not None
        assert again.first_divergent_pc == bundle.first_divergent_pc

    def test_campaign_bisects_the_mutant_automatically(self, mutant_engine):
        program, target_pc = mutant_engine
        report = run_campaign(1, start_seed=SEED, profile=PROFILE,
                              engines=("mutant",))
        assert report.unexplained_divergences == 1
        assert len(report.bundles) == 1
        bundle = report.bundles[0]
        assert bundle["engine"] == "mutant"
        assert bundle["first_divergent_pc"] == target_pc
        assert bundle["replay"]["seed"] == SEED

    def test_check_program_flags_the_mutant_as_unexplained(self,
                                                           mutant_engine):
        program, _ = mutant_engine
        verdict = check_program(program, seed=SEED, profile=PROFILE,
                                engines=("mutant",))
        assert len(verdict.unexplained) == 1
        assert "checksum" in verdict.unexplained[0].fields


class TestAgreementAndFaults:
    def test_agreeing_engines_bisect_to_none(self):
        program = generate_program(2, "alu")
        assert bisect_divergence(program, "jit", seed=2,
                                 profile="alu") is None

    def test_divergent_fault_attribution(self, mutant_engine):
        """The bundle records both sides' run lengths so a bisected
        divergence on a faulting program stays interpretable."""
        program, _ = mutant_engine
        bundle = bisect_divergence(program, "mutant", seed=SEED,
                                   profile=PROFILE)
        assert bundle.reference_end == bundle.engine_end
        assert bundle.engine == "mutant"
        assert bundle.reference == "interp"
        assert bundle.first_divergent_instruction
