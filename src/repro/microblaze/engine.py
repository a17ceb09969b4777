"""Counter layout and helpers shared by the MicroBlaze engines.

The reference interpreter (:mod:`repro.microblaze.cpu`) and the block
engine (:mod:`repro.microblaze.engines.jit`) record statistics into one
flat list of integer counters, ``MicroBlazeCPU._counters``, which
``MicroBlazeCPU._sync_counters`` folds into
:class:`~repro.microblaze.cpu.ExecutionStats`.  This module fixes that
layout:

* ``CNT_*`` name the scalar slots (cycles, instructions, taken and
  not-taken branches, loads, stores, OPB reads and writes);
* ``CNT_CLASS_COUNT + i`` and ``CNT_CLASS_CYCLES + i`` hold the count and
  the cycles of instruction class ``CLASS_LIST[i]`` (``CLASS_INDEX`` maps
  a class to ``i``); ``NUM_COUNTERS`` is the length of the list.

It also holds :data:`MAX_BLOCK_INSTRUCTIONS` (the superblock length
bound) and :func:`signed_division`, the exact ``idiv``.  What each
instruction computes, accesses or jumps to is not here: the opcode table
(:data:`repro.isa.OPCODES`) and :mod:`repro.isa.semantics` define it for
every engine.
"""

from __future__ import annotations

from typing import Tuple

from ..isa.instructions import InstrClass
from ..isa.registers import WORD_MASK

#: Order in which instruction classes map onto counter-array slots.
CLASS_LIST: Tuple[InstrClass, ...] = tuple(InstrClass)
CLASS_INDEX = {klass: index for index, klass in enumerate(CLASS_LIST)}

# Scalar-counter array layout (see MicroBlazeCPU._counters).
CNT_CYCLES = 0
CNT_INSTRUCTIONS = 1
CNT_BRANCHES_TAKEN = 2
CNT_BRANCHES_NOT_TAKEN = 3
CNT_LOADS = 4
CNT_STORES = 5
CNT_OPB_READS = 6
CNT_OPB_WRITES = 7
CNT_CLASS_COUNT = 8
CNT_CLASS_CYCLES = CNT_CLASS_COUNT + len(CLASS_LIST)
NUM_COUNTERS = CNT_CLASS_CYCLES + len(CLASS_LIST)

#: Upper bound on instructions folded into one superblock.  Straight-line
#: runs longer than this end in a fall-through terminator; the bound keeps
#: single compilations cheap and block descriptors small.
MAX_BLOCK_INSTRUCTIONS = 128


def signed_division(dividend: int, divisor: int) -> int:
    """Exact MicroBlaze ``idiv``: truncation toward zero, masked to 32 bits.

    Uses integer arithmetic throughout — ``int(dividend / divisor)`` loses
    precision once the quotient exceeds 2**53 — and makes the
    ``INT_MIN / -1`` overflow case explicit: the true quotient 2**31 does
    not fit in a 32-bit signed register and wraps back to ``INT_MIN``,
    which is what the masked hardware result is as well.
    """
    if divisor == 0:
        return 0
    if dividend == -0x8000_0000 and divisor == -1:
        return 0x8000_0000
    quotient = abs(dividend) // abs(divisor)
    if (dividend < 0) != (divisor < 0):
        quotient = -quotient
    return quotient & WORD_MASK
