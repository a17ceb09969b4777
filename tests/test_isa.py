"""Tests for the ISA layer: registers, instructions, encoding, assembler."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa import (
    AssemblyError,
    EncodingError,
    Instruction,
    InstrClass,
    InstrFormat,
    OPCODES,
    assemble,
    decode,
    encode,
    listing,
    nop,
    parse_register,
    register_name,
    to_signed,
    to_unsigned,
)
from repro.isa.encoding import roundtrips
from repro.isa.registers import RegisterError
from repro.isa.semantics import BINARY, UNARY

#: Classes whose instructions compute a register value.
DATA_CLASSES = {InstrClass.ALU, InstrClass.LOGICAL, InstrClass.SHIFT,
                InstrClass.BARREL_SHIFT, InstrClass.MULTIPLY,
                InstrClass.DIVIDE, InstrClass.COMPARE, InstrClass.SEXT}


# --------------------------------------------------------------------------- registers
class TestRegisters:
    def test_register_names_roundtrip(self):
        for index in range(32):
            assert parse_register(register_name(index)) == index

    def test_aliases(self):
        assert parse_register("sp") == 1
        assert parse_register("lr") == 15
        assert parse_register("zero") == 0

    def test_invalid_register(self):
        with pytest.raises(RegisterError):
            parse_register("r32")
        with pytest.raises(RegisterError):
            parse_register("x7")
        with pytest.raises(RegisterError):
            register_name(40)

    def test_signed_unsigned_conversion(self):
        assert to_signed(0xFFFFFFFF) == -1
        assert to_signed(0x7FFFFFFF) == 0x7FFFFFFF
        assert to_unsigned(-1) == 0xFFFFFFFF
        assert to_signed(to_unsigned(-12345)) == -12345


# --------------------------------------------------------------------------- opcode table
class TestOpcodeTable:
    def test_every_spec_has_consistent_operands(self):
        for mnemonic, spec in OPCODES.items():
            assert spec.mnemonic == mnemonic
            for field in spec.operands:
                assert field in ("rd", "ra", "rb", "imm")
            if spec.fmt is InstrFormat.TYPE_B:
                assert "rb" not in spec.operands

    def test_optional_units_marked(self):
        assert OPCODES["mul"].requires is not None
        assert OPCODES["bslli"].requires is not None
        assert OPCODES["idiv"].requires is not None
        assert OPCODES["add"].requires is None

    def test_branch_classification(self):
        assert OPCODES["beqi"].is_branch
        assert OPCODES["brlid"].is_branch
        assert OPCODES["rtsd"].is_branch
        assert not OPCODES["add"].is_branch

    def test_delay_slot_flags(self):
        assert OPCODES["brlid"].delay_slot
        assert OPCODES["rtsd"].delay_slot
        assert OPCODES["beqid"].delay_slot
        assert not OPCODES["beqi"].delay_slot

    def test_data_instructions_declare_their_operator(self):
        for mnemonic, spec in OPCODES.items():
            if spec.klass in DATA_CLASSES and not spec.is_branch \
                    and mnemonic not in ("idiv", "idivu"):
                assert spec.op is not None, mnemonic
            else:
                assert spec.op is None, mnemonic

    def test_operator_sources_fit_the_format(self):
        for mnemonic, spec in OPCODES.items():
            if spec.op is None:
                continue
            kind, *sources = spec.op
            assert kind in (UNARY if len(sources) == 1 else BINARY), mnemonic
            allowed = {"ra", 1, "rb"} if spec.fmt is InstrFormat.TYPE_A \
                else {"ra", "imm5" if spec.opcode == 0x19 else "imm"}
            assert set(sources) <= allowed, mnemonic
            assert "ra" in sources, mnemonic

    def test_memory_widths_match_the_stem(self):
        stems = {"b": 1, "h": 2, "w": 4}
        for mnemonic, spec in OPCODES.items():
            if spec.klass in (InstrClass.LOAD, InstrClass.STORE):
                assert spec.width in (1, 2, 4), mnemonic
                assert spec.width == stems[mnemonic[1]], mnemonic
            else:
                assert spec.width == 0, mnemonic

    def test_absolute_branches(self):
        absolute = {m for m, spec in OPCODES.items() if spec.absolute}
        assert absolute == {"bra", "brad", "brald", "brai", "bralid"}

    def test_nop_is_canonical_or(self):
        instr = nop()
        assert instr.mnemonic == "or"
        assert instr.registers_written() == ()


# --------------------------------------------------------------------------- encoding
def _sample_instruction(mnemonic: str) -> Instruction:
    spec = OPCODES[mnemonic]
    instr = Instruction(mnemonic)
    for index, field in enumerate(spec.operands):
        if field == "imm":
            if mnemonic == "imm":
                instr.imm = 0xBEEF
            elif spec.opcode == 0x19:  # barrel shift immediates
                instr.imm = 7
            else:
                instr.imm = -44
        else:
            setattr(instr, field, 3 + index * 5)
    return instr


class TestEncoding:
    @pytest.mark.parametrize("mnemonic", sorted(OPCODES))
    def test_roundtrip_every_mnemonic(self, mnemonic):
        assert roundtrips(_sample_instruction(mnemonic))

    def test_unique_encodings(self):
        words = {encode(_sample_instruction(m)) for m in OPCODES}
        assert len(words) == len(OPCODES)

    def test_immediate_range_checked(self):
        with pytest.raises(EncodingError):
            encode(Instruction("addi", rd=1, ra=2, imm=0x12345))

    def test_barrel_shift_amount_range(self):
        with pytest.raises(EncodingError):
            encode(Instruction("bslli", rd=1, ra=2, imm=40))

    def test_decode_rejects_unknown_opcode(self):
        with pytest.raises(EncodingError):
            decode(0xFFFFFFFF)

    @given(
        rd=st.integers(0, 31),
        ra=st.integers(0, 31),
        rb=st.integers(0, 31),
    )
    @settings(max_examples=50, deadline=None)
    def test_type_a_roundtrip_property(self, rd, ra, rb):
        instr = Instruction("add", rd=rd, ra=ra, rb=rb)
        assert roundtrips(instr)

    @given(rd=st.integers(0, 31), ra=st.integers(0, 31),
           imm=st.integers(-0x8000, 0x7FFF))
    @settings(max_examples=50, deadline=None)
    def test_type_b_roundtrip_property(self, rd, ra, imm):
        instr = Instruction("addi", rd=rd, ra=ra, imm=imm)
        assert roundtrips(instr)


# --------------------------------------------------------------------------- assembler
class TestAssembler:
    def test_simple_program(self):
        program = assemble("""
        .text
        .entry main
        main:
            addi r3, r0, 42
            bri 0
        .data
        value: .word 7, 8
        """, name="simple")
        assert program.num_instructions == 2
        assert program.entry_point == 0
        assert program.symbol_address("value") == 0
        assert program.data[0:4] == (7).to_bytes(4, "little")

    def test_branch_label_resolution(self):
        program = assemble("""
        start:
            addi r5, r0, 3
        loop:
            addi r5, r5, -1
            bnei r5, loop
            bri 0
        """)
        branch = decode(program.text[2])
        assert branch.mnemonic == "bnei"
        assert branch.imm == -4

    def test_li_expansion(self):
        small = assemble("li r4, 100\nbri 0")
        large = assemble("li r4, 0x12345678\nbri 0")
        assert small.num_instructions == 2
        assert large.num_instructions == 3
        assert decode(large.text[0]).mnemonic == "imm"

    def test_la_uses_data_address(self):
        program = assemble("""
        .text
            la r6, table
            bri 0
        .data
        pad: .space 8
        table: .word 1
        """)
        instr = decode(program.text[0])
        assert instr.mnemonic == "addi"
        assert instr.imm == 8

    def test_duplicate_label_rejected(self):
        with pytest.raises(AssemblyError):
            assemble("a:\n nop\na:\n nop")

    def test_unknown_mnemonic_rejected(self):
        with pytest.raises(AssemblyError):
            assemble("frobnicate r1, r2")

    def test_undefined_label_rejected(self):
        with pytest.raises(AssemblyError):
            assemble("bri nowhere")

    def test_operand_count_checked(self):
        with pytest.raises(AssemblyError):
            assemble("add r1, r2")

    def test_data_directives(self):
        program = assemble("""
        .data
        bytes: .byte 1, 2, 3
        .align 4
        halfs: .half 500
        words: .word -1
        """)
        assert program.symbol_address("bytes") == 0
        assert program.symbol_address("halfs") == 4
        assert program.symbol_address("words") == 6 or program.symbol_address("words") == 8

    def test_listing_contains_labels(self):
        program = assemble("main:\n addi r3, r0, 1\n bri 0\n")
        text = listing(program)
        assert "main:" in text
        assert "addi" in text

    def test_patch_word_and_copy(self):
        program = assemble("main:\n addi r3, r0, 1\n bri 0\n")
        clone = program.copy()
        clone.patch_word(0, encode(Instruction("addi", rd=3, ra=0, imm=9)))
        assert decode(program.text[0]).imm == 1
        assert decode(clone.text[0]).imm == 9
