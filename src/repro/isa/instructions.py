"""Instruction set definition for the MicroBlaze-like soft processor core.

This module defines the subset of the Xilinx MicroBlaze instruction set used
throughout the reproduction: the instruction formats, the per-mnemonic
operation specifications (:class:`OpSpec`), and the :class:`Instruction`
container produced by the assembler, the compiler back end, and the binary
decoder.

The subset covers everything the Powerstone / EEMBC-style benchmark kernels
need and everything the paper's Section 2 configurability study exercises:

* integer arithmetic (``add``/``rsub`` families, with and without carry-keep),
* the optional hardware multiplier (``mul``, ``muli``) and divider (``idiv``),
* logical operations, single-bit shifts and the optional barrel shifter,
* compare instructions feeding conditional branches,
* conditional and unconditional branches with and without delay slots,
  subroutine call (``brlid``) and return (``rtsd``),
* byte/half/word loads and stores on the local memory bus,
* the ``imm`` prefix instruction that extends 16-bit immediates to 32 bits.

Encodings follow the published MicroBlaze major-opcode assignments so that
the binary-level decompilation performed by the dynamic partitioning module
operates on realistic machine words (see :mod:`repro.isa.encoding`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from .registers import register_name
from .semantics import OpKind


class InstrFormat(enum.Enum):
    """MicroBlaze instruction formats.

    ``TYPE_A`` instructions operate on three registers (``rd``, ``ra``,
    ``rb``) and carry an 11-bit function field in the low bits of the word.
    ``TYPE_B`` instructions replace ``rb`` with a 16-bit signed immediate.
    """

    TYPE_A = "A"
    TYPE_B = "B"


class InstrClass(enum.Enum):
    """Coarse behavioural classification used by the timing and power models.

    The classes mirror the groupings the paper discusses when describing the
    MicroBlaze three-stage pipeline: single-cycle ALU operations, the
    three-cycle multiplier, the iterative divider, one-to-three cycle
    branches, and the local-memory-bus loads and stores.
    """

    ALU = "alu"
    LOGICAL = "logical"
    SHIFT = "shift"
    BARREL_SHIFT = "barrel_shift"
    MULTIPLY = "multiply"
    DIVIDE = "divide"
    COMPARE = "compare"
    SEXT = "sext"
    LOAD = "load"
    STORE = "store"
    BRANCH_COND = "branch_cond"
    BRANCH_UNCOND = "branch_uncond"
    CALL = "call"
    RETURN = "return"
    IMM_PREFIX = "imm_prefix"


class HwUnit(enum.Enum):
    """Optional MicroBlaze hardware units selected by the processor config."""

    MULTIPLIER = "multiplier"
    DIVIDER = "divider"
    BARREL_SHIFTER = "barrel_shifter"


class Condition(enum.IntEnum):
    """Branch condition codes (encoded in the ``rd`` field of branches)."""

    EQ = 0
    NE = 1
    LT = 2
    LE = 3
    GT = 4
    GE = 5


#: Maps a conditional-branch mnemonic stem to its condition code.
CONDITION_BY_STEM: Dict[str, Condition] = {
    "beq": Condition.EQ,
    "bne": Condition.NE,
    "blt": Condition.LT,
    "ble": Condition.LE,
    "bgt": Condition.GT,
    "bge": Condition.GE,
}


@dataclass(frozen=True)
class OpSpec:
    """Static description of one mnemonic.

    Attributes
    ----------
    mnemonic:
        Assembly mnemonic, lower case.
    fmt:
        Instruction format (:class:`InstrFormat`).
    klass:
        Behavioural class used by the timing model.
    opcode:
        6-bit major opcode.
    func:
        Value of the secondary function field for TYPE_A instructions that
        share a major opcode (0 when unused).
    operands:
        Operand signature as a tuple of field names in assembly order,
        e.g. ``("rd", "ra", "rb")`` for ``add`` or ``("ra", "imm")`` for
        ``beqi``.  Stores list ``rd`` first because MicroBlaze stores read
        the value to be stored from the ``rd`` field.
    requires:
        Optional hardware unit that must be present in the processor
        configuration for the instruction to be legal.
    delay_slot:
        True when the instruction executes the following instruction in a
        branch delay slot.
    reads / writes:
        Register fields read and written, used by dataflow analysis during
        decompilation.
    condition:
        For conditional branches, the condition tested against ``ra``.
    op:
        For data instructions, what they compute: an
        :class:`~repro.isa.semantics.OpKind` followed by its operand
        sources, each ``"ra"``, ``"rb"``, ``"imm"`` (the immediate, fused
        with a pending ``imm`` prefix), ``"imm5"`` (the raw 5-bit
        barrel-shift field) or the literal ``1``.  ``rsub``, for example,
        is ``(OpKind.SUB, "rb", "ra")``.  The divides have none.
    width:
        Access width in bytes of a load or store (0 otherwise).
    absolute:
        True for the unconditional branches whose target is absolute
        rather than PC-relative.
    """

    mnemonic: str
    fmt: InstrFormat
    klass: InstrClass
    opcode: int
    func: int = 0
    operands: Tuple[str, ...] = ()
    requires: Optional[HwUnit] = None
    delay_slot: bool = False
    reads: Tuple[str, ...] = ()
    writes: Tuple[str, ...] = ()
    condition: Optional[Condition] = None
    op: Optional[Tuple] = None
    width: int = 0
    absolute: bool = False

    @property
    def is_branch(self) -> bool:
        return self.klass in (
            InstrClass.BRANCH_COND,
            InstrClass.BRANCH_UNCOND,
            InstrClass.CALL,
            InstrClass.RETURN,
        )

    @property
    def is_memory(self) -> bool:
        return self.klass in (InstrClass.LOAD, InstrClass.STORE)


def _spec(
    mnemonic: str,
    fmt: InstrFormat,
    klass: InstrClass,
    opcode: int,
    *,
    func: int = 0,
    operands: Sequence[str],
    requires: Optional[HwUnit] = None,
    delay_slot: bool = False,
    reads: Sequence[str] = (),
    writes: Sequence[str] = (),
    condition: Optional[Condition] = None,
    op: Optional[Tuple] = None,
    width: int = 0,
    absolute: bool = False,
) -> OpSpec:
    return OpSpec(
        mnemonic=mnemonic,
        fmt=fmt,
        klass=klass,
        opcode=opcode,
        func=func,
        operands=tuple(operands),
        requires=requires,
        delay_slot=delay_slot,
        reads=tuple(reads),
        writes=tuple(writes),
        condition=condition,
        op=op,
        width=width,
        absolute=absolute,
    )


def _build_opcode_table() -> Dict[str, OpSpec]:
    """Construct the full mnemonic -> :class:`OpSpec` table."""
    table: Dict[str, OpSpec] = {}

    def add(spec: OpSpec) -> None:
        if spec.mnemonic in table:
            raise ValueError(f"duplicate mnemonic {spec.mnemonic}")
        table[spec.mnemonic] = spec

    A, B = InstrFormat.TYPE_A, InstrFormat.TYPE_B
    K = OpKind
    RRR = ("rd", "ra", "rb")
    RRI = ("rd", "ra", "imm")

    def rrr(mnemonic, klass, opcode, op=None, **kw):
        add(_spec(mnemonic, A, klass, opcode, operands=RRR, reads=("ra", "rb"),
                  writes=("rd",), op=op, **kw))

    def rri(mnemonic, klass, opcode, op=None, **kw):
        add(_spec(mnemonic, B, klass, opcode, operands=RRI, reads=("ra",),
                  writes=("rd",), op=op, **kw))

    def rr(mnemonic, klass, func, op):
        add(_spec(mnemonic, A, klass, 0x24, func=func, operands=("rd", "ra"),
                  reads=("ra",), writes=("rd",), op=op))

    # ----- integer add / subtract -------------------------------------------------
    rrr("add", InstrClass.ALU, 0x00, (K.ADD, "ra", "rb"))
    rrr("rsub", InstrClass.ALU, 0x01, (K.SUB, "rb", "ra"))
    rrr("addk", InstrClass.ALU, 0x04, (K.ADD, "ra", "rb"))
    rrr("rsubk", InstrClass.ALU, 0x05, (K.SUB, "rb", "ra"), func=0x000)
    rrr("cmp", InstrClass.COMPARE, 0x05, (K.CMP_SIGN, "ra", "rb"), func=0x001)
    rrr("cmpu", InstrClass.COMPARE, 0x05, (K.CMP_SIGN_U, "ra", "rb"), func=0x003)
    rri("addi", InstrClass.ALU, 0x08, (K.ADD, "ra", "imm"))
    rri("rsubi", InstrClass.ALU, 0x09, (K.SUB, "imm", "ra"))
    rri("addik", InstrClass.ALU, 0x0C, (K.ADD, "ra", "imm"))
    rri("rsubik", InstrClass.ALU, 0x0D, (K.SUB, "imm", "ra"))

    # ----- multiply / divide (optional hardware units) ---------------------------
    rrr("mul", InstrClass.MULTIPLY, 0x10, (K.MUL, "ra", "rb"), requires=HwUnit.MULTIPLIER)
    rri("muli", InstrClass.MULTIPLY, 0x18, (K.MUL, "ra", "imm"), requires=HwUnit.MULTIPLIER)
    rrr("idiv", InstrClass.DIVIDE, 0x12, func=0x000, requires=HwUnit.DIVIDER)
    rrr("idivu", InstrClass.DIVIDE, 0x12, func=0x002, requires=HwUnit.DIVIDER)

    # ----- barrel shifter (optional) ----------------------------------------------
    BS = HwUnit.BARREL_SHIFTER
    rrr("bsrl", InstrClass.BARREL_SHIFT, 0x11, (K.SHR_LOGICAL, "ra", "rb"), func=0x000, requires=BS)
    rrr("bsra", InstrClass.BARREL_SHIFT, 0x11, (K.SHR_ARITH, "ra", "rb"), func=0x200, requires=BS)
    rrr("bsll", InstrClass.BARREL_SHIFT, 0x11, (K.SHL, "ra", "rb"), func=0x400, requires=BS)
    rri("bsrli", InstrClass.BARREL_SHIFT, 0x19, (K.SHR_LOGICAL, "ra", "imm5"), func=0x000, requires=BS)
    rri("bsrai", InstrClass.BARREL_SHIFT, 0x19, (K.SHR_ARITH, "ra", "imm5"), func=0x200, requires=BS)
    rri("bslli", InstrClass.BARREL_SHIFT, 0x19, (K.SHL, "ra", "imm5"), func=0x400, requires=BS)

    # ----- logical ----------------------------------------------------------------
    rrr("or", InstrClass.LOGICAL, 0x20, (K.OR, "ra", "rb"))
    rrr("and", InstrClass.LOGICAL, 0x21, (K.AND, "ra", "rb"))
    rrr("xor", InstrClass.LOGICAL, 0x22, (K.XOR, "ra", "rb"))
    rrr("andn", InstrClass.LOGICAL, 0x23, (K.ANDN, "ra", "rb"))
    rri("ori", InstrClass.LOGICAL, 0x28, (K.OR, "ra", "imm"))
    rri("andi", InstrClass.LOGICAL, 0x29, (K.AND, "ra", "imm"))
    rri("xori", InstrClass.LOGICAL, 0x2A, (K.XOR, "ra", "imm"))
    rri("andni", InstrClass.LOGICAL, 0x2B, (K.ANDN, "ra", "imm"))

    # ----- single-bit shifts and sign extension (opcode 0x24 group) ---------------
    rr("sra", InstrClass.SHIFT, 0x001, (K.SHR_ARITH, "ra", 1))
    rr("src", InstrClass.SHIFT, 0x021, (K.SHR_LOGICAL, "ra", 1))
    rr("srl", InstrClass.SHIFT, 0x041, (K.SHR_LOGICAL, "ra", 1))
    rr("sext8", InstrClass.SEXT, 0x060, (K.SEXT8, "ra"))
    rr("sext16", InstrClass.SEXT, 0x061, (K.SEXT16, "ra"))

    # ----- imm prefix ---------------------------------------------------------------
    add(_spec("imm", B, InstrClass.IMM_PREFIX, 0x2C, operands=("imm",)))

    # ----- unconditional branches ---------------------------------------------------
    # Register forms share opcode 0x26; the ra field encodes D (delay), A
    # (absolute) and L (link) bits exactly as the real MicroBlaze does.
    add(_spec("br", A, InstrClass.BRANCH_UNCOND, 0x26, func=0x00, operands=("rb",), reads=("rb",)))
    add(_spec("brd", A, InstrClass.BRANCH_UNCOND, 0x26, func=0x10, operands=("rb",), reads=("rb",),
              delay_slot=True))
    add(_spec("brld", A, InstrClass.CALL, 0x26, func=0x14, operands=("rd", "rb"),
              reads=("rb",), writes=("rd",), delay_slot=True))
    add(_spec("bra", A, InstrClass.BRANCH_UNCOND, 0x26, func=0x08, operands=("rb",), reads=("rb",),
              absolute=True))
    add(_spec("brad", A, InstrClass.BRANCH_UNCOND, 0x26, func=0x18, operands=("rb",), reads=("rb",),
              delay_slot=True, absolute=True))
    add(_spec("brald", A, InstrClass.CALL, 0x26, func=0x1C, operands=("rd", "rb"),
              reads=("rb",), writes=("rd",), delay_slot=True, absolute=True))
    add(_spec("bri", B, InstrClass.BRANCH_UNCOND, 0x2E, func=0x00, operands=("imm",)))
    add(_spec("brid", B, InstrClass.BRANCH_UNCOND, 0x2E, func=0x10, operands=("imm",), delay_slot=True))
    add(_spec("brlid", B, InstrClass.CALL, 0x2E, func=0x14, operands=("rd", "imm"),
              writes=("rd",), delay_slot=True))
    add(_spec("brai", B, InstrClass.BRANCH_UNCOND, 0x2E, func=0x08, operands=("imm",),
              absolute=True))
    add(_spec("bralid", B, InstrClass.CALL, 0x2E, func=0x1C, operands=("rd", "imm"),
              writes=("rd",), delay_slot=True, absolute=True))

    # ----- subroutine return --------------------------------------------------------
    add(_spec("rtsd", B, InstrClass.RETURN, 0x2D, operands=("ra", "imm"), reads=("ra",),
              delay_slot=True))

    # ----- conditional branches ------------------------------------------------------
    for stem, cond in CONDITION_BY_STEM.items():
        add(_spec(stem, A, InstrClass.BRANCH_COND, 0x27, func=int(cond), operands=("ra", "rb"),
                  reads=("ra", "rb"), condition=cond))
        add(_spec(stem + "d", A, InstrClass.BRANCH_COND, 0x27, func=0x10 | int(cond),
                  operands=("ra", "rb"), reads=("ra", "rb"), condition=cond, delay_slot=True))
        add(_spec(stem + "i", B, InstrClass.BRANCH_COND, 0x2F, func=int(cond), operands=("ra", "imm"),
                  reads=("ra",), condition=cond))
        add(_spec(stem + "id", B, InstrClass.BRANCH_COND, 0x2F, func=0x10 | int(cond),
                  operands=("ra", "imm"), reads=("ra",), condition=cond, delay_slot=True))

    # ----- loads and stores ----------------------------------------------------------
    rrr("lbu", InstrClass.LOAD, 0x30, width=1)
    rrr("lhu", InstrClass.LOAD, 0x31, width=2)
    rrr("lw", InstrClass.LOAD, 0x32, width=4)
    add(_spec("sb", A, InstrClass.STORE, 0x34, operands=RRR, reads=("rd", "ra", "rb"), width=1))
    add(_spec("sh", A, InstrClass.STORE, 0x35, operands=RRR, reads=("rd", "ra", "rb"), width=2))
    add(_spec("sw", A, InstrClass.STORE, 0x36, operands=RRR, reads=("rd", "ra", "rb"), width=4))
    rri("lbui", InstrClass.LOAD, 0x38, width=1)
    rri("lhui", InstrClass.LOAD, 0x39, width=2)
    rri("lwi", InstrClass.LOAD, 0x3A, width=4)
    add(_spec("sbi", B, InstrClass.STORE, 0x3C, operands=RRI, reads=("rd", "ra"), width=1))
    add(_spec("shi", B, InstrClass.STORE, 0x3D, operands=RRI, reads=("rd", "ra"), width=2))
    add(_spec("swi", B, InstrClass.STORE, 0x3E, operands=RRI, reads=("rd", "ra"), width=4))

    return table


#: Mnemonic -> :class:`OpSpec` lookup table for the whole instruction set.
OPCODES: Dict[str, OpSpec] = _build_opcode_table()


@dataclass
class Instruction:
    """One decoded (or not-yet-encoded) machine instruction.

    The same class is used by the assembler, the compiler back end, the
    processor simulator and the binary decompiler.  Fields that an
    instruction does not use are left at zero; ``target`` optionally holds a
    symbolic label that the assembler resolves into ``imm`` during the
    second pass.
    """

    mnemonic: str
    rd: int = 0
    ra: int = 0
    rb: int = 0
    imm: int = 0
    target: Optional[str] = None
    address: Optional[int] = None
    comment: str = ""

    def __post_init__(self) -> None:
        if self.mnemonic not in OPCODES:
            raise ValueError(f"unknown mnemonic: {self.mnemonic!r}")

    # -- static metadata ---------------------------------------------------------
    @property
    def spec(self) -> OpSpec:
        return OPCODES[self.mnemonic]

    @property
    def klass(self) -> InstrClass:
        return self.spec.klass

    @property
    def is_branch(self) -> bool:
        return self.spec.is_branch

    @property
    def is_conditional_branch(self) -> bool:
        return self.klass is InstrClass.BRANCH_COND

    @property
    def is_memory(self) -> bool:
        return self.spec.is_memory

    @property
    def has_delay_slot(self) -> bool:
        return self.spec.delay_slot

    @property
    def requires(self) -> Optional[HwUnit]:
        return self.spec.requires

    # -- dataflow helpers ----------------------------------------------------------
    def registers_read(self) -> Tuple[int, ...]:
        """Registers whose values this instruction consumes."""
        mapping = {"rd": self.rd, "ra": self.ra, "rb": self.rb}
        return tuple(mapping[f] for f in self.spec.reads)

    def registers_written(self) -> Tuple[int, ...]:
        """Registers this instruction defines (``r0`` writes are discarded)."""
        mapping = {"rd": self.rd, "ra": self.ra, "rb": self.rb}
        return tuple(mapping[f] for f in self.spec.writes if mapping[f] != 0)

    # -- pretty printing -------------------------------------------------------------
    def operand_strings(self) -> Tuple[str, ...]:
        parts = []
        for name in self.spec.operands:
            if name == "imm":
                if self.target is not None:
                    parts.append(self.target)
                else:
                    parts.append(str(self.imm))
            else:
                parts.append(register_name(getattr(self, name)))
        return tuple(parts)

    def __str__(self) -> str:
        operands = ", ".join(self.operand_strings())
        text = f"{self.mnemonic}\t{operands}" if operands else self.mnemonic
        if self.comment:
            text = f"{text}\t# {self.comment}"
        return text


def nop() -> Instruction:
    """Return the canonical MicroBlaze NOP (``or r0, r0, r0``)."""
    return Instruction("or", rd=0, ra=0, rb=0, comment="nop")

