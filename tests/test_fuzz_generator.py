"""The seeded random program generator: determinism, halting, shrinking."""

from __future__ import annotations

import random
import re

import pytest

from repro.fuzz import (
    generate_program,
    generate_source,
    num_blocks,
    profile_names,
    resolve_profile,
    shrink,
)
from repro.fuzz.generator import (
    ALIGNED_MASKS,
    DATA_WINDOW_BYTES,
    OPB_UNMAPPED_OFFSETS,
    _BlockBuilder,
    _MISALIGNED_ACCESS_PROBABILITY,
)
from repro.fuzz.harness import check_program, observe
from repro.microblaze import MemoryError_, MicroBlazeSystem, PAPER_CONFIG
from repro.microblaze.opb import OPB_BASE_ADDRESS, SimplePeripheral


class TestDeterminism:
    @pytest.mark.parametrize("profile", profile_names())
    def test_same_seed_is_bit_identical(self, profile):
        first = generate_program(11, profile)
        second = generate_program(11, profile)
        assert first.text == second.text
        assert bytes(first.data) == bytes(second.data)
        assert first.source == second.source

    def test_distinct_seeds_differ(self):
        texts = {tuple(generate_program(seed, "mixed").text)
                 for seed in range(8)}
        assert len(texts) == 8

    def test_profiles_differ_for_same_seed(self):
        assert generate_source(0, "mixed") != generate_source(0, "alu")

    def test_unknown_profile_lists_choices(self):
        with pytest.raises(KeyError, match="alu"):
            resolve_profile("nosuch")


class TestHalting:
    """Generated programs are bounded by construction (all loops count
    down), so every one must halt — or fault, for profiles that fault by
    design — well inside the campaign budget on the reference
    interpreter.  The ``opb`` profile faults only at a static address past
    the peripheral window."""

    @pytest.mark.parametrize("profile", profile_names())
    @pytest.mark.parametrize("seed", (0, 5))
    def test_program_terminates_on_the_interpreter(self, profile, seed):
        resolved = resolve_profile(profile)
        peripherals = (SimplePeripheral(OPB_BASE_ADDRESS, num_registers=4),) \
            if resolved.opb_traffic else ()
        system = MicroBlazeSystem(config=PAPER_CONFIG,
                                  peripherals=peripherals, engine="interp")
        program = generate_program(seed, resolved)
        assert program.data_size >= DATA_WINDOW_BYTES
        try:
            system.run(program, max_instructions=2_000_000)
        except Exception as error:  # noqa: BLE001 - faults terminate too
            if resolved.near_fault or resolved.self_loops:
                return
            unmapped = "|".join(f"{OPB_BASE_ADDRESS + offset:#010x}"
                                for offset in OPB_UNMAPPED_OFFSETS)
            if not (resolved.opb_faults and isinstance(error, MemoryError_)
                    and re.search(f"at ({unmapped}) outside", str(error))):
                raise
        else:
            assert system.cpu.halted


class TestSlotFaults:
    """The ``faulty`` profile starts some blocks with an unconditional
    delay-slot branch or call whose slot cannot execute (a branch, an
    ``imm`` or ``idiv`` without a divider).  Seeds 0-199 reach it from
    every form, raising in the slot and, for a register-held branch to
    itself, halting without running the slot; every engine matches the
    interpreter on those runs in every compared field."""

    def test_reached_forms_match_the_interpreter_exactly(self):
        reached = set()
        for seed in range(200):
            first = re.search(r"Lb0_slotbr\d+:\n\s+(\w+)",
                              generate_source(seed, "faulty"))
            if first is None:
                continue
            program = generate_program(seed, "faulty")
            reference = observe(program, "interp")
            slot_fault = reference.outcome == "fault" \
                and "IllegalInstruction" in reference.error
            assert slot_fault or reference.outcome == "halted", seed
            reached.add((first.group(1), reference.outcome))
            verdict = check_program(program, seed=seed, profile="faulty")
            assert verdict.divergences == [], seed
        assert {form for form, _ in reached} \
            == {"brd", "brad", "brld", "brald", "brlid"}
        assert {outcome for _, outcome in reached} == {"fault", "halted"}


class TestMisalignedAccesses:
    """The ``faulty`` profile gives only a few accesses the byte mask, so
    most of its programs run past their first block before a misaligned
    access faults; every other profile keeps its width's aligned mask and
    draws nothing for it, leaving its random stream untouched."""

    WIDTHS = ("word", "half", "byte") * 400

    def test_aligned_profiles_never_draw_for_a_mask(self):
        for name in profile_names():
            profile = resolve_profile(name)
            if profile.near_fault:
                continue
            rng = random.Random(7)
            builder = _BlockBuilder(rng, profile, 0)
            before = rng.getstate()
            masks = [builder._mask_for(width) for width in self.WIDTHS]
            assert rng.getstate() == before, name
            assert masks == [ALIGNED_MASKS[width] for width in self.WIDTHS]

    def test_faulty_misaligns_a_minority_of_accesses(self):
        builder = _BlockBuilder(random.Random(7), resolve_profile("faulty"),
                                0)
        wide = [width for width in self.WIDTHS if width != "byte"]
        misaligned = sum(builder._mask_for(width) == ALIGNED_MASKS["byte"]
                         for width in wide)
        share = misaligned / len(wide)
        assert _MISALIGNED_ACCESS_PROBABILITY / 2 < share \
            < _MISALIGNED_ACCESS_PROBABILITY * 2

    def test_most_faulty_programs_outlive_a_misaligned_fault(self):
        outcomes = [observe(generate_program(seed, "faulty"), "interp")
                    for seed in range(40)]
        misaligned = [o for o in outcomes if o.outcome == "fault"
                      and "misaligned" in o.error]
        assert 0 < len(misaligned) < len(outcomes) // 2
        assert any(o.outcome == "halted" for o in outcomes)


class TestShrinking:
    def test_kept_blocks_are_bit_identical_to_original(self):
        blocks = num_blocks(4, "mixed")
        assert blocks >= 1
        full = generate_source(4, "mixed")
        half = generate_source(4, "mixed",
                               include_blocks=range(0, blocks, 2))
        for line in half.splitlines():
            assert line in full

    def test_shrink_minimizes_while_predicate_holds(self):
        target = num_blocks(9, "branchy") - 1

        def predicate(program) -> bool:
            # "Still reproduces" stand-in: the last body block is present.
            return f"Lb{target}_" in (program.source or "") \
                or not any(f"Lb{index}_" in generate_source(9, "branchy")
                           for index in (target,))

        kept, shrunk = shrink(9, "branchy", predicate)
        assert kept == [target] or predicate(shrunk)
        assert len(kept) <= num_blocks(9, "branchy")
        # Shrinking is reproducible: regenerating the kept set is identical.
        again = generate_program(9, "branchy", include_blocks=kept)
        assert again.text == shrunk.text

    def test_shrink_rejects_vacuous_predicate(self):
        with pytest.raises(ValueError, match="predicate does not hold"):
            shrink(0, "mixed", lambda program: False)

    def test_unknown_block_indices_raise(self):
        with pytest.raises(ValueError, match="no such body blocks"):
            generate_source(0, "mixed", include_blocks=[999])
