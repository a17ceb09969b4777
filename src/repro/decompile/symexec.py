"""Symbolic execution of a critical region's binary code.

Given the address range of the loop the profiler selected, this module
re-executes the loop body *symbolically*, producing for one generic
iteration:

* the new value of every register the body writes, as an expression over
  the registers live at loop entry (:class:`~repro.decompile.expr.LiveIn`),
  constants, and memory reads;
* the memory stores the body performs (with guards for stores inside an
  ``if``);
* the loop-continuation condition evaluated by the backward branch.

Simple forward conditional branches inside the body (an ``if`` without an
``else``) are if-converted into :class:`~repro.decompile.expr.Mux` nodes.
Anything the on-chip tools could not handle — subroutine calls, indirect
branches, branches that leave the region, a load that follows a store of
the same iteration — raises
:class:`DecompilationError`, which the dynamic partitioning module treats
as "leave this kernel in software".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..isa.encoding import decode
from ..isa.instructions import Instruction, InstrClass
from ..isa.semantics import fuse_imm
from ..profiler.profiler import CriticalRegion
from .expr import (
    Condition,
    ExpressionBuilder,
    Load,
    Node,
    OpKind,
    StoreOp,
)


class DecompilationError(Exception):
    """Raised when the selected region cannot be decompiled to hardware."""


_NEGATED_RELATION = {"eq": "ne", "ne": "eq", "lt": "ge", "ge": "lt",
                     "gt": "le", "le": "gt"}


@dataclass
class SymbolicLoopBody:
    """The dataflow view of one loop iteration."""

    builder: ExpressionBuilder
    region: CriticalRegion
    register_updates: Dict[int, Node] = field(default_factory=dict)
    stores: List[StoreOp] = field(default_factory=list)
    loads: List[Load] = field(default_factory=list)
    continue_condition: Optional[Node] = None
    live_in_registers: Set[int] = field(default_factory=set)
    written_registers: Set[int] = field(default_factory=set)
    num_instructions: int = 0
    #: The CAD flow's canonical text form of this body, filled in once by
    #: :func:`repro.cad.keys.body_form` (a rebound copy carries it).
    canonical_form: Optional[str] = field(default=None, compare=False,
                                          repr=False)

    def roots(self) -> List[Node]:
        """All expression roots of the iteration (for DAG walks)."""
        roots: List[Node] = list(self.register_updates.values())
        for store in self.stores:
            roots.extend([store.address, store.value])
            if store.guard is not None:
                roots.append(store.guard)
        if self.continue_condition is not None:
            roots.append(self.continue_condition)
        return roots


class SymbolicExecutor:
    """Symbolically executes the instructions of one critical region."""

    def __init__(self, text_words: Sequence[int], region: CriticalRegion,
                 base_address: int = 0):
        self.region = region
        self.builder = ExpressionBuilder()
        self.instructions: List[Instruction] = []
        for address in range(region.start_address, region.end_address + 4, 4):
            index = (address - base_address) // 4
            if index < 0 or index >= len(text_words):
                raise DecompilationError(
                    f"region address {address:#x} outside the program text"
                )
            self.instructions.append(decode(text_words[index], address=address))
        self._state: Dict[int, Node] = {}
        self._live_in: Set[int] = set()
        self._written: Set[int] = set()
        self._stores: List[StoreOp] = []
        self._loads: List[Load] = []
        self._sequence = 0
        self._imm_latch: Optional[int] = None

    # ------------------------------------------------------------------ state
    def _read_reg(self, register: int, state: Dict[int, Node]) -> Node:
        if register == 0:
            return self.builder.const(0)
        if register not in state:
            # Also a register written on only one arm of an earlier
            # branch: the merge reads its value from before the loop.
            self._live_in.add(register)
            state[register] = self.builder.live_in(register)
        return state[register]

    def _write_reg(self, register: int, value: Node, state: Dict[int, Node]) -> None:
        if register == 0:
            return
        state[register] = value
        self._written.add(register)

    # ------------------------------------------------------------------ driver
    def run(self) -> SymbolicLoopBody:
        if not self.instructions:
            raise DecompilationError("empty region")
        final = self.instructions[-1]
        if final.klass is not InstrClass.BRANCH_COND or final.imm >= 0:
            raise DecompilationError(
                "region does not end in a backward conditional branch"
            )
        continue_condition = self._execute_block(self._state, 0, len(self.instructions) - 1)
        # The final backward branch provides the loop-continue condition.
        tested = self._read_reg(final.ra, self._state)
        relation = final.spec.condition.name.lower()
        condition = self.builder.condition(tested, relation)
        if continue_condition is not None:
            raise DecompilationError("unexpected dangling condition")

        body = SymbolicLoopBody(
            builder=self.builder,
            region=self.region,
            register_updates=dict(self._state),
            stores=list(self._stores),
            loads=list(self._loads),
            continue_condition=condition,
            live_in_registers=set(self._live_in),
            written_registers=set(self._written),
            num_instructions=len(self.instructions),
        )
        # Registers that were only read keep their live-in value and need no
        # update entry.
        for register in list(body.register_updates):
            node = body.register_updates[register]
            if node.__class__.__name__ == "LiveIn" and node.register == register:
                del body.register_updates[register]
        return body

    # ----------------------------------------------------------------- blocks
    def _execute_block(self, state: Dict[int, Node], start: int, end: int,
                       guard: Optional[Node] = None) -> Optional[Node]:
        """Execute instructions [start, end) updating ``state`` in place."""
        index = start
        while index < end:
            instr = self.instructions[index]
            klass = instr.klass

            if klass is InstrClass.BRANCH_COND:
                index = self._forward_branch(instr, index, end, state, guard)
                continue
            if instr.is_branch:
                raise DecompilationError(
                    f"unsupported branch {instr.mnemonic} inside the region at "
                    f"{instr.address:#x}"
                )
            self._execute_straightline(instr, state, guard)
            index += 1
        return None

    def _forward_branch(self, instr: Instruction, index: int, end: int,
                        state: Dict[int, Node], guard: Optional[Node]) -> int:
        """Handle an if-then pattern: a forward conditional branch that skips
        a block of straight-line code within the region."""
        if guard is not None:
            raise DecompilationError("nested conditionals are not supported")
        if instr.spec.fmt.value != "B" or instr.imm <= 0:
            raise DecompilationError(
                f"unsupported conditional branch at {instr.address:#x}"
            )
        target_address = instr.address + instr.imm
        target_index = (target_address - self.region.start_address) // 4
        if not index < target_index <= end:
            raise DecompilationError(
                f"conditional branch at {instr.address:#x} leaves the region"
            )
        tested = self._read_reg(instr.ra, state)
        relation = instr.spec.condition.name.lower()
        skip_condition = self.builder.condition(tested, relation)
        execute_condition = self.builder.condition(
            tested, _NEGATED_RELATION[relation]
        )
        # Execute the then-block on a copy of the state, guarded.
        then_state = dict(state)
        self._execute_block(then_state, index + 1, target_index,
                            guard=execute_condition)
        # Merge: a register keeps its old value when the branch (skip) is
        # taken and receives the then-block value otherwise.
        for register, then_value in then_state.items():
            old_value = state.get(register)
            if old_value is None:
                old_value = self._read_reg(register, state)
            if then_value is not old_value:
                merged = self.builder.mux(skip_condition, old_value, then_value)
                self._write_reg(register, merged, state)
        return target_index

    # ------------------------------------------------------------ instructions
    def _execute_straightline(self, instr: Instruction, state: Dict[int, Node],
                              guard: Optional[Node]) -> None:
        klass = instr.klass
        builder = self.builder

        if klass is InstrClass.IMM_PREFIX:
            self._imm_latch = instr.imm & 0xFFFF
            return
        imm = fuse_imm(self._imm_latch, instr.imm)
        self._imm_latch = None

        if klass is InstrClass.LOAD:
            if self._stores:
                # The WCLA reads every load from start-of-iteration memory
                # and writes the stores back afterwards, so a load after a
                # store of the same iteration would read a stale word.
                raise DecompilationError("load after store in one iteration")
            base = self._read_reg(instr.ra, state)
            offset = self._read_reg(instr.rb, state) if instr.spec.fmt.value == "A" \
                else builder.const(imm)
            address = builder.binary(OpKind.ADD, base, offset)
            load = builder.load(address, instr.spec.width, self._sequence)
            self._sequence += 1
            self._loads.append(load)
            self._write_reg(instr.rd, load, state)
            return
        if klass is InstrClass.STORE:
            base = self._read_reg(instr.ra, state)
            offset = self._read_reg(instr.rb, state) if instr.spec.fmt.value == "A" \
                else builder.const(imm)
            address = builder.binary(OpKind.ADD, base, offset)
            value = self._read_reg(instr.rd, state)
            self._stores.append(StoreOp(address=address, value=value,
                                        width=instr.spec.width, guard=guard,
                                        sequence=self._sequence))
            self._sequence += 1
            return
        if instr.is_branch:  # pragma: no cover - handled by caller
            raise DecompilationError("branch reached straight-line executor")

        result = self._data_expression(instr, imm, state)
        self._write_reg(instr.rd, result, state)

    def _data_expression(self, instr: Instruction, imm: int,
                         state: Dict[int, Node]) -> Node:
        """The opcode table's operator over the instruction's operands.

        ``ra``, ``rb`` and the immediate are read for every instruction,
        in that order, so node numbering does not depend on the operator.
        """
        builder = self.builder
        operands = {"ra": self._read_reg(instr.ra, state),
                    "rb": self._read_reg(instr.rb, state),
                    "imm": builder.const(imm)}
        op = instr.spec.op
        if op is None:
            raise DecompilationError(
                f"instruction {instr.mnemonic} at {instr.address:#x} cannot be mapped to hardware"
            )
        kind, *sources = op
        # The raw shift field and the literal 1 become constants only
        # where used, after the three reads above.
        args = [operands[source] if source in operands
                else builder.const(instr.imm & 31 if source == "imm5" else source)
                for source in sources]
        if len(args) == 1:
            return builder.unary(kind, *args)
        return builder.binary(kind, *args)


def decompile_region(text_words: Sequence[int], region: CriticalRegion,
                     base_address: int = 0) -> SymbolicLoopBody:
    """Decompile ``region`` of a program into its symbolic loop body."""
    return SymbolicExecutor(text_words, region, base_address=base_address).run()
