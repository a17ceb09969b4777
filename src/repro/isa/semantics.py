"""The meaning of every word operator, defined once for the whole stack.

A data instruction's :class:`~repro.isa.instructions.OpSpec` names its
operator (an :class:`OpKind`) and where the operands come from; this
module says what each operator computes, twice, in two independent
styles:

* **Reference callables** — :data:`BINARY`, :data:`UNARY` and
  :data:`RELATIONS`, written the obvious way over signed readings.  The
  ``interp`` reference interpreter, the decompiler's constant folder and
  :func:`repro.decompile.expr.evaluate` call them.
* **Source templates** — :func:`source` and :func:`relation_source`,
  Python expressions over unsigned words that never call back into
  Python helpers.  The ``jit`` block engine and the generated WCLA kernels
  (:mod:`repro.fabric.hw_exec`) emit them.

Because the two definitions are written separately, the jit-vs-interp and
kernel-vs-``evaluate`` differentials still compare two implementations of
every operator.

Every operand and result is an unsigned 32-bit word; relations test the
signed reading of one word against zero.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, Optional

from .registers import WORD_MASK, to_signed


class OpKind(enum.Enum):
    """Word-level operator kinds (also the decompiler's DFG operators)."""

    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    AND = "and"
    OR = "or"
    XOR = "xor"
    ANDN = "andn"
    SHL = "shl"
    SHR_LOGICAL = "shr_l"
    SHR_ARITH = "shr_a"
    SEXT8 = "sext8"
    SEXT16 = "sext16"
    NEG = "neg"
    NOT = "not"
    CMP_SIGN = "cmp_sign"    # sign(b - a) in {-1, 0, +1}
    CMP_SIGN_U = "cmp_sign_u"


def _sign(value: int) -> int:
    return (value > 0) - (value < 0)


#: Reference semantics of the two-operand operators.  Shift amounts use
#: the low five bits of the right operand.
BINARY: Dict[OpKind, Callable[[int, int], int]] = {
    OpKind.ADD: lambda a, b: (a + b) & WORD_MASK,
    OpKind.SUB: lambda a, b: (a - b) & WORD_MASK,
    OpKind.MUL: lambda a, b: (a * b) & WORD_MASK,
    OpKind.AND: lambda a, b: a & b,
    OpKind.OR: lambda a, b: a | b,
    OpKind.XOR: lambda a, b: a ^ b,
    OpKind.ANDN: lambda a, b: a & ~b & WORD_MASK,
    OpKind.SHL: lambda a, b: (a << (b & 31)) & WORD_MASK,
    OpKind.SHR_LOGICAL: lambda a, b: a >> (b & 31),
    OpKind.SHR_ARITH: lambda a, b: (to_signed(a) >> (b & 31)) & WORD_MASK,
    OpKind.CMP_SIGN: lambda a, b: _sign(to_signed(b) - to_signed(a)) & WORD_MASK,
    OpKind.CMP_SIGN_U: lambda a, b: _sign(b - a) & WORD_MASK,
}

#: Reference semantics of the one-operand operators.
UNARY: Dict[OpKind, Callable[[int], int]] = {
    OpKind.NEG: lambda a: -a & WORD_MASK,
    OpKind.NOT: lambda a: ~a & WORD_MASK,
    OpKind.SEXT8: lambda a: to_signed(a, 8) & WORD_MASK,
    OpKind.SEXT16: lambda a: to_signed(a, 16) & WORD_MASK,
}

#: ``value <relation> 0`` over the signed reading of a word, keyed by the
#: lower-case name of a branch :class:`~repro.isa.instructions.Condition`.
RELATIONS: Dict[str, Callable[[int], bool]] = {
    "eq": lambda a: to_signed(a) == 0,
    "ne": lambda a: to_signed(a) != 0,
    "lt": lambda a: to_signed(a) < 0,
    "le": lambda a: to_signed(a) <= 0,
    "gt": lambda a: to_signed(a) > 0,
    "ge": lambda a: to_signed(a) >= 0,
}


def fuse_imm(latch: Optional[int], imm: int) -> int:
    """The immediate an instruction sees: its own signed 16-bit field, or,
    after an ``imm`` prefix that latched ``latch``, the signed 32-bit word
    with the latch as its upper half."""
    if latch is None:
        return imm
    return to_signed(((latch << 16) | (imm & 0xFFFF)) & WORD_MASK)


# --------------------------------------------------------------- generated code
_M = "0xFFFFFFFF"
_SIGN = "0x80000000"

#: Operator templates over operand sources ``a`` and ``b``; every result is
#: an unsigned 32-bit word.  Operands are always in ``[0, 2**32)``, so
#: ``x ^ SIGN`` orders words as signed values and sign extension needs no
#: re-masking.  Shift templates take the already-reduced shift amount ``s``.
_BINARY_SOURCE = {
    OpKind.ADD: "({a} + {b}) & " + _M,
    OpKind.SUB: "({a} - {b}) & " + _M,
    OpKind.MUL: "({a} * {b}) & " + _M,
    OpKind.AND: "{a} & {b}",
    OpKind.OR: "{a} | {b}",
    OpKind.XOR: "{a} ^ {b}",
    OpKind.ANDN: "{a} & ~{b} & " + _M,
    OpKind.SHL: "({a} << {s}) & " + _M,
    OpKind.SHR_LOGICAL: "{a} >> {s}",
    OpKind.SHR_ARITH: f"((({{a}} ^ {_SIGN}) - {_SIGN}) >> {{s}}) & {_M}",
    OpKind.CMP_SIGN: (f"1 if ({{b}} ^ {_SIGN}) > ({{a}} ^ {_SIGN}) "
                      f"else 0 if {{a}} == {{b}} else {_M}"),
    OpKind.CMP_SIGN_U: (f"1 if {{b}} > {{a}} "
                        f"else 0 if {{a}} == {{b}} else {_M}"),
}
_SHIFTS = (OpKind.SHL, OpKind.SHR_LOGICAL, OpKind.SHR_ARITH)
_UNARY_SOURCE = {
    OpKind.NEG: "-{a} & " + _M,
    OpKind.NOT: "~{a} & " + _M,
    OpKind.SEXT8: "{a} | 0xFFFFFF00 if {a} & 0x80 else {a} & 0xFF",
    OpKind.SEXT16: "{a} | 0xFFFF0000 if {a} & 0x8000 else {a} & 0xFFFF",
}
_RELATION_SOURCE = {
    "eq": "{a} == 0",
    "ne": "{a} != 0",
    "lt": "{a} >= " + _SIGN,
    "le": "{a} >= " + _SIGN + " or {a} == 0",
    "gt": "0 < {a} < " + _SIGN,
    "ge": "{a} < " + _SIGN,
}


def source(op: OpKind, a: str, b: Optional[str] = None) -> str:
    """A Python expression computing ``op`` over the operand expressions
    ``a`` (and ``b`` for binary operators), which must be side-effect free
    and evaluate to unsigned words.  A shift amount given as a decimal
    literal is reduced here rather than in the generated code."""
    if b is None:
        template = _UNARY_SOURCE.get(op)
        if template is None:
            raise ValueError(f"unknown unary op {op}")
        return template.format(a=a)
    template = _BINARY_SOURCE.get(op)
    if template is None:
        raise ValueError(f"unknown binary op {op}")
    s = (b if op not in _SHIFTS else
         str(int(b) & 31) if b.isdigit() else f"({b} & 31)")
    return template.format(a=a, b=b, s=s)


def relation_source(relation: str, a: str) -> str:
    """A Python condition testing the word expression ``a`` against zero
    (``relation`` as in :data:`RELATIONS`)."""
    template = _RELATION_SOURCE.get(relation)
    if template is None:
        raise ValueError(f"unknown condition relation {relation!r}")
    return template.format(a=a)
