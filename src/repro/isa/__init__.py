"""MicroBlaze-like instruction set architecture.

This package provides the ISA substrate the whole reproduction rests on:
instruction definitions and classification (:mod:`~repro.isa.instructions`),
bit-level encoding/decoding (:mod:`~repro.isa.encoding`), the assembler and
disassembler, and the :class:`~repro.isa.program.Program` image container
that the MicroBlaze system simulator loads into its block RAMs and the
dynamic partitioning module later reads back and patches.
"""

from .assembler import Assembler, AssemblyError, assemble
from .disassembler import (disassemble, disassemble_bram,
                           format_instruction, listing)
from .encoding import EncodingError, decode, decode_program, encode, encode_program
from .instructions import (
    CONDITION_BY_STEM,
    Condition,
    HwUnit,
    Instruction,
    InstrClass,
    InstrFormat,
    OPCODES,
    OpSpec,
    nop,
)
from .program import Program, Symbol, SymbolError
from .registers import (
    ARGUMENT_REGISTERS,
    ASSEMBLER_TEMP,
    CALLEE_SAVED,
    CALLER_SAVED,
    LINK_REGISTER,
    NUM_REGISTERS,
    RETURN_VALUE,
    STACK_POINTER,
    WORD_MASK,
    ZERO_REG,
    RegisterError,
    parse_register,
    register_name,
    to_signed,
    to_unsigned,
)

__all__ = [
    "Assembler",
    "AssemblyError",
    "assemble",
    "disassemble",
    "disassemble_bram",
    "format_instruction",
    "listing",
    "EncodingError",
    "decode",
    "decode_program",
    "encode",
    "encode_program",
    "CONDITION_BY_STEM",
    "Condition",
    "HwUnit",
    "Instruction",
    "InstrClass",
    "InstrFormat",
    "OPCODES",
    "OpSpec",
    "nop",
    "Program",
    "Symbol",
    "SymbolError",
    "ARGUMENT_REGISTERS",
    "ASSEMBLER_TEMP",
    "CALLEE_SAVED",
    "CALLER_SAVED",
    "LINK_REGISTER",
    "NUM_REGISTERS",
    "RETURN_VALUE",
    "STACK_POINTER",
    "WORD_MASK",
    "ZERO_REG",
    "RegisterError",
    "parse_register",
    "register_name",
    "to_signed",
    "to_unsigned",
]
