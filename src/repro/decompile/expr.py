"""Symbolic dataflow expressions used by binary decompilation.

The dynamic partitioning module decompiles the selected critical region
into a control/data-flow graph.  The nodes defined here represent the data
side of that graph: values computed by one loop iteration expressed over
the registers live at loop entry (:class:`LiveIn`), constants recovered
from immediates, memory reads, and word-level operators.  Conditional
behaviour inside the loop body (an ``if`` inside the loop) is represented
by :class:`Mux` nodes, i.e. the decompiler if-converts simple forward
branches.

Expressions form a DAG: structurally identical nodes are shared through
:class:`ExpressionBuilder`, which is what makes the later hardware cost
estimation (one adder per distinct addition, wires for shared sub-terms)
faithful to what a synthesis tool would produce.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..isa.registers import WORD_MASK, to_signed
from ..isa.semantics import BINARY, RELATIONS, UNARY, OpKind


#: Depth bound of the human-readable expression renderer.  Expressions form
#: a structurally *shared* DAG; naive recursive stringification expands every
#: shared sub-term at every use, which is exponential on the deep graphs
#: that e.g. software-shift lowering produces (a 32-iteration bit loop
#: symbolically unrolled).  Every ``__str__`` below therefore delegates to
#: the depth-limited :func:`format_node` — identical output for shallow
#: expressions, ``...`` placeholders past the bound.
STR_MAX_DEPTH = 8


def format_node(node: "Node", max_depth: int = STR_MAX_DEPTH) -> str:
    """Depth-bounded pretty printer for expression DAGs (always O(2^depth),
    never exponential in the graph's *unshared* size)."""
    if node is None:
        return "?"
    if isinstance(node, Const):
        return f"{to_signed(node.value)}"
    if isinstance(node, LiveIn):
        return f"r{node.register}_in"
    if max_depth <= 0:
        return "..."
    inner = max_depth - 1
    if isinstance(node, BinExpr):
        return (f"({format_node(node.left, inner)} {node.op.value} "
                f"{format_node(node.right, inner)})")
    if isinstance(node, UnExpr):
        return f"({node.op.value} {format_node(node.operand, inner)})"
    if isinstance(node, Load):
        return f"mem{8 * node.width}[{format_node(node.address, inner)}]"
    if isinstance(node, Mux):
        return (f"({format_node(node.condition, inner)} ? "
                f"{format_node(node.if_true, inner)} : "
                f"{format_node(node.if_false, inner)})")
    if isinstance(node, Condition):
        return f"({format_node(node.value, inner)} {node.relation} 0)"
    return repr(node)


@dataclass(frozen=True)
class Node:
    """Base class of all DFG nodes; ``node_id`` is assigned by the builder."""

    node_id: int = field(compare=False, default=-1)


@dataclass(frozen=True)
class Const(Node):
    value: int = 0

    def __str__(self) -> str:
        return format_node(self)


@dataclass(frozen=True)
class LiveIn(Node):
    """The value of architectural register ``register`` at loop entry."""

    register: int = 0

    def __str__(self) -> str:
        return format_node(self)


@dataclass(frozen=True)
class BinExpr(Node):
    op: OpKind = OpKind.ADD
    left: "Node" = None
    right: "Node" = None

    def __str__(self) -> str:
        return format_node(self)


@dataclass(frozen=True)
class UnExpr(Node):
    op: OpKind = OpKind.NEG
    operand: "Node" = None

    def __str__(self) -> str:
        return format_node(self)


@dataclass(frozen=True)
class Load(Node):
    """A memory word/half/byte read at ``address`` (an expression)."""

    address: "Node" = None
    width: int = 4
    sequence: int = 0  # program order of the access within the iteration

    def __str__(self) -> str:
        return format_node(self)


@dataclass(frozen=True)
class Mux(Node):
    """``condition ? if_true : if_false`` produced by if-conversion."""

    condition: "Node" = None
    if_true: "Node" = None
    if_false: "Node" = None

    def __str__(self) -> str:
        return format_node(self)


@dataclass(frozen=True)
class Condition(Node):
    """A boolean node: ``value <relation> 0`` over a word expression."""

    value: "Node" = None
    relation: str = "ne"  # eq, ne, lt, le, gt, ge against zero

    def __str__(self) -> str:
        return format_node(self)


@dataclass
class StoreOp:
    """A memory write performed by one loop iteration.

    ``guard`` is ``None`` for unconditional stores, otherwise the store only
    happens when the guard condition evaluates true.
    """

    address: Node
    value: Node
    width: int = 4
    guard: Optional[Node] = None
    sequence: int = 0

    def __str__(self) -> str:
        text = f"mem{8 * self.width}[{self.address}] = {self.value}"
        if self.guard is not None:
            text = f"if {self.guard}: {text}"
        return text


class ExpressionBuilder:
    """Builds a structurally-hashed expression DAG."""

    def __init__(self) -> None:
        self._nodes: List[Node] = []
        self._cache: Dict[Tuple, Node] = {}

    # ------------------------------------------------------------------ basics
    def _intern(self, key: Tuple, factory) -> Node:
        node = self._cache.get(key)
        if node is None:
            node = factory(len(self._nodes))
            self._nodes.append(node)
            self._cache[key] = node
        return node

    def const(self, value: int) -> Const:
        value &= WORD_MASK
        return self._intern(("const", value), lambda i: Const(node_id=i, value=value))

    def live_in(self, register: int) -> LiveIn:
        return self._intern(("live", register), lambda i: LiveIn(node_id=i, register=register))

    def binary(self, op: OpKind, left: Node, right: Node) -> Node:
        folded = self._fold_binary(op, left, right)
        if folded is not None:
            return folded
        key = ("bin", op, left.node_id, right.node_id)
        return self._intern(key, lambda i: BinExpr(node_id=i, op=op, left=left, right=right))

    def unary(self, op: OpKind, operand: Node) -> Node:
        if isinstance(operand, Const):
            return self.const(UNARY[op](operand.value))
        key = ("un", op, operand.node_id)
        return self._intern(key, lambda i: UnExpr(node_id=i, op=op, operand=operand))

    def load(self, address: Node, width: int, sequence: int) -> Load:
        key = ("load", address.node_id, width, sequence)
        return self._intern(key, lambda i: Load(node_id=i, address=address, width=width,
                                                sequence=sequence))

    def mux(self, condition: Node, if_true: Node, if_false: Node) -> Node:
        if if_true is if_false:
            return if_true
        key = ("mux", condition.node_id, if_true.node_id, if_false.node_id)
        return self._intern(key, lambda i: Mux(node_id=i, condition=condition,
                                               if_true=if_true, if_false=if_false))

    def condition(self, value: Node, relation: str) -> Node:
        key = ("cond", value.node_id, relation)
        return self._intern(key, lambda i: Condition(node_id=i, value=value,
                                                     relation=relation))

    # -------------------------------------------------------------- simplifier
    def _fold_binary(self, op: OpKind, left: Node, right: Node) -> Optional[Node]:
        """Constant folding and identities applied while building the DAG."""
        if isinstance(left, Const) and isinstance(right, Const):
            return self.const(BINARY[op](left.value, right.value))
        if isinstance(right, Const) and right.value == 0:
            if op in (OpKind.ADD, OpKind.SUB, OpKind.OR, OpKind.XOR, OpKind.SHL,
                      OpKind.SHR_LOGICAL, OpKind.SHR_ARITH):
                return left
            if op is OpKind.AND:
                return self.const(0)
        if isinstance(left, Const) and left.value == 0:
            if op in (OpKind.ADD, OpKind.OR, OpKind.XOR):
                return right
            if op in (OpKind.AND, OpKind.MUL, OpKind.SHL,
                      OpKind.SHR_LOGICAL, OpKind.SHR_ARITH):
                return self.const(0)
        if isinstance(right, Const) and right.value == 0 and op is OpKind.MUL:
            return self.const(0)
        return None

    # ------------------------------------------------------------------ queries
    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    def nodes(self) -> List[Node]:
        return list(self._nodes)


def operands(node: Node) -> Tuple[Node, ...]:
    """The direct inputs of ``node`` (none for constants and live-ins)."""
    if isinstance(node, BinExpr):
        return node.left, node.right
    if isinstance(node, UnExpr):
        return (node.operand,)
    if isinstance(node, Load):
        return (node.address,)
    if isinstance(node, Mux):
        return node.condition, node.if_true, node.if_false
    if isinstance(node, Condition):
        return (node.value,)
    return ()


def walk(*nodes: Node) -> Iterable[Node]:
    """Yield ``nodes`` and every node reachable from them (depth first,
    deduped)."""
    seen = set()
    stack = list(nodes)
    while stack:
        current = stack.pop()
        if id(current) in seen or current is None:
            continue
        seen.add(id(current))
        yield current
        stack.extend(operands(current))


def evaluate(node: Node, live_values: Dict[int, int], memory_read, loads_cache: Dict[int, int]) -> int:
    """Evaluate ``node`` for one iteration.

    This is the reference semantics of the dataflow graph.  Operators and
    relations apply the reference callables of :mod:`repro.isa.semantics`
    (the ones the ``interp`` reference interpreter applies); the WCLA model
    (:mod:`repro.fabric.hw_exec`) instead lowers whole kernel bodies to the
    module's source templates for speed and is tested against this
    function.

    ``live_values`` maps architectural register numbers to their values at
    the start of the iteration, ``memory_read(address, width)`` performs a
    memory read, and ``loads_cache`` memoises Load nodes so that each load
    node reads memory exactly once per iteration.
    Returns an unsigned 32-bit value (conditions return 0/1).
    """
    if isinstance(node, Const):
        return node.value & WORD_MASK
    if isinstance(node, LiveIn):
        return live_values.get(node.register, 0) & WORD_MASK
    if isinstance(node, Load):
        if node.node_id not in loads_cache:
            address = evaluate(node.address, live_values, memory_read, loads_cache)
            loads_cache[node.node_id] = memory_read(address, node.width) & WORD_MASK
        return loads_cache[node.node_id]
    if isinstance(node, UnExpr):
        value = evaluate(node.operand, live_values, memory_read, loads_cache)
        unary = UNARY.get(node.op)
        if unary is None:
            raise ValueError(f"unknown unary op {node.op}")
        return unary(value)
    if isinstance(node, Mux):
        condition = evaluate(node.condition, live_values, memory_read, loads_cache)
        chosen = node.if_true if condition else node.if_false
        return evaluate(chosen, live_values, memory_read, loads_cache)
    if isinstance(node, Condition):
        value = evaluate(node.value, live_values, memory_read, loads_cache)
        return int(RELATIONS[node.relation](value))
    if isinstance(node, BinExpr):
        a = evaluate(node.left, live_values, memory_read, loads_cache)
        b = evaluate(node.right, live_values, memory_read, loads_cache)
        binary = BINARY.get(node.op)
        if binary is None:
            raise ValueError(f"unknown binary op {node.op}")
        return binary(a, b)
    raise TypeError(f"cannot evaluate node {node!r}")
