"""Content addressing for the staged CAD flow.

The stages build their cache keys out of the canonical forms and
:func:`content_digest` defined here.  Each stage hashes only the inputs it
actually consumes (synthesis: canonical DADG + LUT/memory parameters;
placement: the synthesis digest + fabric geometry; routing: the placement
digest + channel capacity; implementation: the routing digest + the full
WCLA), chaining the upstream stage's digest so an upstream invalidation
propagates downstream automatically.  A sweep that changes only a
routing-relevant parameter therefore re-runs routing and implementation
while synthesis and placement are served from the cache.

The canonical DADG form is deterministic and address-independent: register
updates in register order, stores in program order, the continue condition,
and the live-in set — the complete content the CAD flow consumes.  Region
byte addresses are deliberately excluded, so the same loop body linked at a
different address (or running on another core) hits.

Versioning rules:

* bump :data:`CANONICAL_FORM_VERSION` whenever the serialization below
  changes shape — it participates in every key, so everything invalidates;
* bump a stage's ``key_version`` (see :class:`repro.cad.flow.FlowStage`)
  when only that stage's algorithm or key encoding changes — digest
  chaining invalidates the downstream stages automatically.
"""

from __future__ import annotations

from typing import Dict, List

from ..digest import sha256_hex

from ..decompile.expr import (
    BinExpr,
    Condition,
    Const,
    LiveIn,
    Load,
    Mux,
    Node,
    UnExpr,
)
from ..decompile.symexec import SymbolicLoopBody
from ..fabric.architecture import WclaParameters

#: Bump whenever the canonical serialization below changes shape.
CANONICAL_FORM_VERSION = 1


# --------------------------------------------------------------------------- canonical form
def _serialize_node(node: Node, memo: Dict[int, int],
                    lines: List[str]) -> int:
    """Append ``node`` (postorder) to ``lines`` and return its line index.

    Identity-memoized: the expression DAG is structurally hashed by its
    builder, so shared sub-terms serialize once and references are by line
    index — structurally identical DAGs produce identical line sequences
    regardless of the ``node_id`` values the builder happened to assign.
    """
    index = memo.get(id(node))
    if index is not None:
        return index
    if isinstance(node, Const):
        line = f"const {node.value & 0xFFFFFFFF}"
    elif isinstance(node, LiveIn):
        line = f"live r{node.register}"
    elif isinstance(node, BinExpr):
        left = _serialize_node(node.left, memo, lines)
        right = _serialize_node(node.right, memo, lines)
        line = f"bin {node.op.value} {left} {right}"
    elif isinstance(node, UnExpr):
        operand = _serialize_node(node.operand, memo, lines)
        line = f"un {node.op.value} {operand}"
    elif isinstance(node, Load):
        address = _serialize_node(node.address, memo, lines)
        line = f"load w{node.width} seq{node.sequence} {address}"
    elif isinstance(node, Mux):
        condition = _serialize_node(node.condition, memo, lines)
        if_true = _serialize_node(node.if_true, memo, lines)
        if_false = _serialize_node(node.if_false, memo, lines)
        line = f"mux {condition} {if_true} {if_false}"
    elif isinstance(node, Condition):
        value = _serialize_node(node.value, memo, lines)
        line = f"cond {node.relation} {value}"
    else:  # pragma: no cover - defensive: new node kinds must be added here
        raise TypeError(f"cannot canonicalize node {node!r}")
    lines.append(line)
    memo[id(node)] = len(lines) - 1
    return len(lines) - 1


def canonical_body_form(body: SymbolicLoopBody) -> str:
    """Deterministic, address-independent text form of one loop body's DADG.

    Register updates are emitted in register order, stores in program
    order, the continue condition last, followed by the live-in set — the
    complete content the CAD flow consumes.  Two regions with the same
    canonical form synthesize, place and route identically.
    """
    memo: Dict[int, int] = {}
    lines: List[str] = [f"v{CANONICAL_FORM_VERSION}"]
    for register in sorted(body.register_updates):
        index = _serialize_node(body.register_updates[register], memo, lines)
        lines.append(f"update r{register} {index}")
    for store in body.stores:
        address = _serialize_node(store.address, memo, lines)
        value = _serialize_node(store.value, memo, lines)
        guard = (-1 if store.guard is None
                 else _serialize_node(store.guard, memo, lines))
        lines.append(f"store w{store.width} seq{store.sequence} "
                     f"{address} {value} {guard}")
    if body.continue_condition is not None:
        index = _serialize_node(body.continue_condition, memo, lines)
        lines.append(f"continue {index}")
    lines.append("livein " + ",".join(str(r)
                                      for r in sorted(body.live_in_registers)))
    return "\n".join(lines)


def body_form(body: SymbolicLoopBody) -> str:
    """:func:`canonical_body_form` of ``body``, serialized once per body
    object and kept on it (:attr:`SymbolicLoopBody.canonical_form`)."""
    form = body.canonical_form
    if form is None:
        form = body.canonical_form = canonical_body_form(body)
    return form


def canonical_wcla_form(wcla: WclaParameters) -> str:
    """Deterministic text form of the WCLA parameters (frozen dataclasses
    have a stable field-ordered ``repr``)."""
    return repr(wcla)


# --------------------------------------------------------------------------- digests
def content_digest(*parts: str) -> str:
    """SHA-256 hex digest over NUL-separated text parts.

    A thin alias of :func:`repro.digest.sha256_hex` — the repo-wide
    digest helper — kept so CAD code reads in CAD vocabulary.  The byte
    layout (NUL after every part) is unchanged from when this function
    owned the implementation, so existing on-disk store entries and
    recorded digests stay valid.
    """
    return sha256_hex(*parts)
