"""General purpose register file definitions for the MicroBlaze-like ISA.

The MicroBlaze soft processor core has thirty-two 32-bit general purpose
registers.  Register ``r0`` always reads as zero and writes to it are
discarded.  The remaining registers are general purpose, but the standard
Xilinx ABI assigns conventional roles to several of them; the compiler and
the runtime library in :mod:`repro.compiler` follow those conventions so
that generated binaries look like the binaries the paper's dynamic
partitioning tools would have observed.

The ABI roles reproduced here:

===========  =====================================================
Register     Role
===========  =====================================================
``r0``       constant zero
``r1``       stack pointer
``r2``       read-only small-data-area anchor (unused by our compiler)
``r3, r4``   return values
``r5 - r10`` subroutine arguments
``r11, r12`` caller-saved temporaries
``r13``      read/write small-data-area anchor (unused)
``r14``      interrupt return address
``r15``      subroutine return address (link register)
``r16``      trap/debug return address
``r17``      exception return address
``r18``      assembler/compiler temporary
``r19-r31``  callee-saved registers
===========  =====================================================
"""

from __future__ import annotations

from typing import Optional

NUM_REGISTERS = 32
WORD_BITS = 32
WORD_MASK = 0xFFFFFFFF

#: Register used as the constant zero source.
ZERO_REG = 0
#: Stack pointer register per the MicroBlaze ABI.
STACK_POINTER = 1
#: First return-value register.
RETURN_VALUE = 3
#: Registers used to pass the first six subroutine arguments.
ARGUMENT_REGISTERS = (5, 6, 7, 8, 9, 10)
#: Caller saved scratch registers.
CALLER_SAVED = (3, 4, 5, 6, 7, 8, 9, 10, 11, 12)
#: Link register written by ``brlid`` and consumed by ``rtsd``.
LINK_REGISTER = 15
#: Reserved assembler temporary (used by the code generator for spills).
ASSEMBLER_TEMP = 18
#: Callee saved registers available to the register allocator.
CALLEE_SAVED = tuple(range(19, 32))


class RegisterError(ValueError):
    """Raised when a register name or index is invalid."""


def register_name(index: int) -> str:
    """Return the canonical assembly name (``r0`` .. ``r31``) for ``index``."""
    if not 0 <= index < NUM_REGISTERS:
        raise RegisterError(f"register index out of range: {index}")
    return f"r{index}"


#: Register operand spellings -> index: ``r0`` .. ``r31`` and the ABI
#: aliases.
_REGISTER_NAMES = {**{f"r{index}": index for index in range(NUM_REGISTERS)},
                   "zero": 0, "sp": STACK_POINTER, "lr": LINK_REGISTER}


def register_index(name: str) -> Optional[int]:
    """The index of register operand ``name``, or ``None`` when ``name`` is
    not a register (see :func:`parse_register` for the accepted syntax)."""
    index = _REGISTER_NAMES.get(name)
    if index is not None:
        return index
    text = name.strip().lower().rstrip(",")
    index = _REGISTER_NAMES.get(text)
    if index is None and text.startswith("r") and text[1:].isdigit():
        index = int(text[1:])
        if not 0 <= index < NUM_REGISTERS:
            return None
    return index


def parse_register(name: str) -> int:
    """Parse a register operand such as ``r12`` into its numeric index.

    Accepts the ``rN`` syntax used by the MicroBlaze assembler as well as a
    handful of ABI aliases (``sp``, ``lr``, ``zero``) which make compiler
    generated assembly easier to read.
    """
    index = register_index(name)
    if index is None:
        raise RegisterError(f"invalid register operand: {name!r}")
    return index


def to_signed(value: int, bits: int = WORD_BITS) -> int:
    """Interpret ``value`` (a non-negative bit pattern) as a signed integer."""
    value &= (1 << bits) - 1
    if value >= 1 << (bits - 1):
        value -= 1 << bits
    return value


def to_unsigned(value: int, bits: int = WORD_BITS) -> int:
    """Truncate a Python integer to an unsigned ``bits``-wide bit pattern."""
    return value & ((1 << bits) - 1)
