"""Cycle-counted functional execution of hardware kernels.

Two pieces live here:

* :class:`WclaExecutionEngine` — lowers the decompiled kernel's dataflow
  graph, once, to the source of one Python function that runs the whole
  hardware loop against the data block RAM exactly as the configured WCLA
  would, and converts the iteration count into WCLA clock cycles using
  the implementation's initiation interval and pipeline depth.  Like the
  WCLA, which runs a kernel under a loop counter while its data address
  generator streams affine addresses, a kernel whose loop compares an
  induction variable with a loop invariant runs as a *counted loop*
  (:func:`counted_kernel_source`): the trip count and every address
  stream's range are settled once per invocation, and the iterations
  index their streams with no per-access test and no continue
  condition.  An invocation the entry cannot settle (a trip count past
  the budget, a wrapping counter, a stream leaving the BRAM) runs the
  generic loop (:func:`kernel_source`) instead, built on first use.
* :class:`WclaPeripheral` — the on-chip-peripheral-bus face of the WCLA
  (Figure 2): the patched application writes the kernel's live-in registers
  into the peripheral's register file, pokes the start register, reads the
  live-out registers back, and continues after the loop.  The generated
  kernel reads and writes that register file itself.  The peripheral
  accumulates the hardware cycles and invocation counts that the warp
  execution model and the energy model consume.

Because the engine executes the *decompiled* dataflow graph rather than the
original instructions, a matching checksum between the software-only run
and the warp-processed run is genuine evidence that decompilation,
synthesis and binary patching preserved the application's semantics.
:func:`repro.decompile.expr.evaluate` stays the reference semantics of
every node; the generated code is tested against it.  Operators and
relations are rendered with the source templates of
:mod:`repro.isa.semantics`, the same ones the ``jit`` block engine emits,
while ``evaluate`` applies that module's separately written reference
callables.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from .. import obs
from ..caching import BoundedLRU
from ..decompile.expr import (
    BinExpr,
    Condition,
    Const,
    LiveIn,
    Load,
    Mux,
    Node,
    OpKind,
    UnExpr,
    WORD_MASK,
    operands,
    walk,
)
from ..decompile.kernel import (
    AffineForm,
    affine_decompose,
    find_induction_variables,
)
from ..isa.semantics import relation_source, source
from ..microblaze.engines.jit import (
    _codegen_bucket,
    _record_translation,
    _scaled,
)
from ..microblaze.memory import (
    BlockRAM,
    inline_access_source,
    stream_access_source,
    stream_shift,
)
from .implementation import HardwareImplementation


class HardwareExecutionError(Exception):
    """Raised when a hardware kernel fails to terminate within its budget."""


@dataclass
class KernelInvocation:
    """Statistics of one hardware invocation of the kernel."""

    iterations: int
    hw_cycles: int


class _KernelCodeCache(BoundedLRU):
    """Generated source -> code object, plus the built ``_kernel`` of
    each live loop body in :attr:`kernels`; one :meth:`clear` drops both.

    Constants, widths and register numbers are baked into the source as
    literals and memory arrives through the call, so the source is a
    complete content address: every job that configures the same kernel
    reuses the bytecode.  A warm job's implementation comes from the CAD
    cache with the same body object every time, so :attr:`kernels`
    (``id(body)`` -> ``(function, form)``, an entry dropped when its body
    is collected) skips even the source walk.
    """

    def __init__(self, maxsize: int) -> None:
        super().__init__(maxsize)
        self.kernels: Dict[int, Tuple[object, str]] = {}

    def clear(self) -> None:
        super().clear()
        self.kernels.clear()


#: The process-wide kernel code cache.  The bound matches the 256 kernels
#: whose four cached CAD stages fill the CAD cache
#: (``STAGE_CACHE_ENTRIES = 1024``).
_KERNEL_CODE_CACHE = _KernelCodeCache(maxsize=256)

_M = "0xFFFFFFFF"


class _Scope:
    """A block of the generated function: its indentation and the nodes
    whose locals are certainly assigned when control reaches it."""

    def __init__(self, indent: str, defined: Set[int]):
        self.indent = indent
        self.defined = defined

    def child(self) -> "_Scope":
        return _Scope(self.indent + "    ", set(self.defined))


class _KernelSource:
    """Lowers one loop body to the source of ``_kernel``.

    Every DAG node gets one local (``v<n>``, numbered in emission order),
    computed at its first use in evaluation order and reused wherever that
    computation dominates.  Live-in registers are locals ``r<n>``.  The
    arms of a ``Mux`` are ``if``/``else`` blocks with their own scopes; a
    node that *both* arms certainly compute is computed once before the
    branch instead, which keeps the source linear in the graph for chains
    of if-converted updates (re-emitting the shared term in each arm would
    double the source per link).  Loads stay lazy: the textually first read
    of a ``Load`` is a plain read, and a later use that the first read does
    not dominate tests a per-iteration ``-1`` sentinel.  So every iteration
    reads exactly the loads :func:`~repro.decompile.expr.evaluate` reads,
    each once, and on the same side of every store; hoisting may only swap
    two reads within one expression, where no store can intervene.
    """

    def __init__(self) -> None:
        self.lines: List[str] = []
        self._names: Dict[int, str] = {}
        self._loads_emitted: Set[int] = set()
        #: Loads read behind a sentinel test (reset every iteration).
        self.sentinels: Dict[str, None] = {}
        self.registers: Set[int] = set()

    def line(self, scope: _Scope, text: str) -> None:
        self.lines.append(scope.indent + text)

    def access(self, scope: _Scope, load: bool, width: int, address: str,
               value: str) -> None:
        """One port-B access, indexing the BRAM storage or its word and
        halfword views directly when the address is valid (loaded words
        are zero-extended, never wider than 32 bits)."""
        for text in inline_access_source(
                load, width, address, value, "mem", "words", "halves",
                "load" if load else "store", f"top{width}", "pb += 1"):
            self.line(scope, text)

    def address(self, node: Node, width: int, scope: _Scope) -> str:
        """The operand that :meth:`access` takes for an access of ``width``
        bytes at ``node``: here the address itself."""
        return self.value(node, scope)

    def value(self, node: Node, scope: _Scope) -> str:
        """Emit whatever ``node`` needs in ``scope``; return its operand
        source (a literal or a local name)."""
        if isinstance(node, Const):
            return str(node.value & WORD_MASK)
        if isinstance(node, LiveIn):
            self.registers.add(node.register)
            return f"r{node.register}"
        key = id(node)
        name = self._names.get(key)
        if name is None:
            name = self._names[key] = f"v{len(self._names)}"
        elif key in scope.defined:
            return name
        if isinstance(node, Load):
            target = scope
            if key in self._loads_emitted:
                # An earlier read sits on a path that may not have run.
                self.sentinels[name] = None
                self.line(scope, f"if {name} < 0:")
                target = scope.child()
            self._loads_emitted.add(key)
            address = self.address(node.address, node.width, target)
            self.access(target, True, node.width, address, name)
        elif isinstance(node, BinExpr):
            a = self.value(node.left, scope)
            b = self.value(node.right, scope)
            self.line(scope, f"{name} = " + source(node.op, a, b))
        elif isinstance(node, UnExpr):
            a = self.value(node.operand, scope)
            self.line(scope, f"{name} = " + source(node.op, a))
        elif isinstance(node, Condition):
            a = self.value(node.value, scope)
            self.line(scope,
                      f"{name} = 1 if {relation_source(node.relation, a)} else 0")
        elif isinstance(node, Mux):
            condition = self.value(node.condition, scope)
            on_true = _certain(node.if_true, scope.defined)
            on_false = _certain(node.if_false, scope.defined)
            for other_key, other in on_true.items():
                if other_key in on_false:
                    self.value(other, scope)
            for keyword, arm in (("if " + condition, node.if_true),
                                 ("else", node.if_false)):
                self.line(scope, f"{keyword}:")
                inner = scope.child()
                self.line(inner, f"{name} = {self.value(arm, inner)}")
        else:
            raise TypeError(f"cannot compile node {node!r}")
        scope.defined.add(key)
        return name


def _certain(node: Node, defined: Set[int],
             memo: Optional[Dict[int, Dict[int, Node]]] = None
             ) -> Dict[int, Node]:
    """The nodes that evaluating ``node`` certainly computes beyond
    ``defined``, keyed by ``id``, children before parents."""
    if memo is None:
        memo = {}
    if isinstance(node, (Const, LiveIn)) or id(node) in defined:
        return {}
    found = memo.get(id(node))
    if found is not None:
        return found
    if isinstance(node, Mux):
        found = dict(_certain(node.condition, defined, memo))
        if_false = _certain(node.if_false, defined, memo)
        found.update((key, other) for key, other
                     in _certain(node.if_true, defined, memo).items()
                     if key in if_false)
    else:
        found = {}
        for operand in operands(node):
            found.update(_certain(operand, defined, memo))
    found[id(node)] = node
    memo[id(node)] = found
    return found


def _iteration(emitter: _KernelSource, body, scope: _Scope
               ) -> List[Tuple[int, str]]:
    """Emit one iteration's register updates, then its stores in program
    order; return each updated register with its value's operand."""
    updates = [(register, emitter.value(expr, scope))
               for register, expr in body.register_updates.items()]
    for store in body.stores:
        target = scope
        if store.guard is not None:
            emitter.line(scope, f"if {emitter.value(store.guard, scope)}:")
            target = scope.child()
        address = emitter.address(store.address, store.width, target)
        value = emitter.value(store.value, target)
        emitter.access(target, False, store.width, address, value)
    return updates


def kernel_source(body) -> str:
    """The source of ``_kernel(rf, bram, max_iterations)`` for one loop
    body (a :class:`~repro.decompile.symexec.SymbolicLoopBody`).

    ``rf`` is the WCLA's 32-entry register file
    (:attr:`WclaPeripheral.register_file`).  The function reads the
    body's live-in registers from it (a register the body reads without
    declaring it live-in is 0: the invocation stub never writes it), runs
    iterations until the continue condition fails, writes the registers
    the loop updates back into ``rf`` and returns the iteration count.
    Once ``max_iterations`` iterations have run with the loop still
    going, it returns 0 and leaves ``rf`` untouched; so does a port-B
    fault, which propagates.  Each iteration evaluates the register
    updates, then the stores in program order, then the continue
    condition, all against the registers at the start of the iteration,
    and only then commits the register updates (registered semantics).
    Memory is the data BRAM's port B: a valid access indexes its storage
    (bytes) or its native-order ``word_view`` / ``half_view`` at the
    shifted address (words and halfwords; on a big-endian host, a
    converted storage slice, see
    :func:`~repro.microblaze.memory.inline_access_source`) and is counted
    in a local that is added to ``port_b_accesses`` on every exit; the
    rest go through ``load_port_b`` / ``store_port_b``, which raise.

    This is the generic loop: every body has one.  A counted loop
    (:func:`counted_kernel_source`) runs it as its fallback.
    """
    emitter = _KernelSource()
    scope = _Scope(" " * 12, set())
    updates = _iteration(emitter, body, scope)
    keep = emitter.value(body.continue_condition, scope)
    emitter.line(scope, f"keep = {keep}")
    if updates:
        emitter.line(scope,
                     ", ".join(f"r{register}" for register, _ in updates)
                     + " = " + ", ".join(value for _, value in updates))
    live_in = body.live_in_registers
    prologue = [f"    r{register} = rf[{register}] & {_M}"
                if register in live_in else f"    r{register} = 0"
                for register in sorted(emitter.registers)]
    # Every generated value is an unsigned word, so live-outs commit
    # unmasked.
    live_out = [f"                rf[{register}] = r{register}"
                for register, _ in updates]
    resets = [f"            {name} = -1" for name in emitter.sentinels]
    return "\n".join([
        "def _kernel(rf, bram, max_iterations):",
        "    mem = bram.storage",
        "    words, halves = bram.word_view, bram.half_view",
        "    load = bram.load_port_b",
        "    store = bram.store_port_b",
        "    top1, top2, top4 = bram.size - 1, bram.size - 2, bram.size - 4",
        *prologue,
        "    pb = 0",
        "    try:",
        "        for iteration in range(1, max_iterations + 1):",
        *resets,
        *emitter.lines,
        "            if not keep:",
        *live_out,
        "                return iteration",
        "        return 0",
        "    finally:",
        "        bram.port_b_accesses += pb",
        "",
    ])


# ----------------------------------------------------------- counted loops
_SIGN = 0x8000_0000
#: ``b <relation> a`` as a relation of ``a`` to ``b``.
_MIRRORED = {"lt": "gt", "le": "ge", "gt": "lt", "ge": "le", "eq": "eq",
             "ne": "ne"}
_FALLBACK = "return _fallback(rf, bram, max_iterations)"


class _Stream(NamedTuple):
    """One affine address stream of a counted kernel: its number ``n``
    (its first address is the local ``a<n>``, its index ``i<n>``), its
    access width, its address over the live-ins and its stride in bytes
    per iteration."""

    number: int
    width: int
    affine: AffineForm
    stride: int


class _CountedPlan(NamedTuple):
    """Why a body runs as a counted loop (see :func:`_counted_plan`).

    The loop continues while ``c <relation> bound``, where ``c`` is the
    word ``(r<counter> + offset) & 0xFFFFFFFF`` and moves by ``step`` per
    iteration; a signed compare is moved to unsigned order by adding
    2**31 to both sides.  ``bound`` is a literal or a register
    expression; ``registers`` are the registers the entry reads;
    ``streams`` lists the address streams by number and ``accesses``
    maps every access, ``(id(address), width)``, to its stream."""

    counter: int
    step: int
    offset: int
    bound: str
    relation: str
    registers: Set[int]
    streams: List[_Stream]
    accesses: Dict[Tuple[int, int], _Stream]


def _counted_plan(body) -> Optional[_CountedPlan]:
    """The counted-loop plan of ``body``, or ``None`` when only the
    generic loop can run it.

    Eligible is a body whose continue condition is ``Condition(cmp_sign
    (a, b), relation)`` (or ``cmp_sign_u``) where one side is ``LiveIn(iv)
    + c`` for an induction variable ``iv`` with a nonzero step and the
    other a constant or a register the body does not update, and whose
    every load and store address is affine over induction variables and
    registers the body does not update, with a stride that is a multiple
    of the access width."""
    condition = body.continue_condition
    compare = getattr(condition, "value", None)
    if not isinstance(condition, Condition) \
            or not isinstance(compare, BinExpr) \
            or compare.op not in (OpKind.CMP_SIGN, OpKind.CMP_SIGN_U):
        return None
    updated = body.register_updates
    steps = {variable.register: variable.step
             for variable in find_induction_variables(body) if variable.step}
    flip = _SIGN if compare.op is OpKind.CMP_SIGN else 0
    # cmp_sign(a, b) is the sign of b - a: the relation holds of b to a.
    for counter, bound, relation in (
            (compare.right, compare.left, condition.relation),
            (compare.left, compare.right, _MIRRORED[condition.relation])):
        form = affine_decompose(counter)
        if form is None or len(form.coefficients) != 1:
            continue
        (register, coefficient), = form.coefficients.items()
        if coefficient != 1 or register not in steps:
            continue
        registers = {register}
        if isinstance(bound, Const):
            bound_source = str((bound.value & WORD_MASK) ^ flip)
        elif isinstance(bound, LiveIn) and bound.register not in updated:
            registers.add(bound.register)
            bound_source = f"r{bound.register}" \
                + (f" ^ {_SIGN:#x}" if flip else "")
        else:
            continue
        break
    else:
        return None
    addresses = {}
    for node in walk(*body.roots()):
        if isinstance(node, Load):
            addresses[id(node.address), node.width] = node.address
    for store in body.stores:
        addresses[id(store.address), store.width] = store.address
    shapes: Dict[tuple, _Stream] = {}
    accesses = {}
    for (key, width), address in addresses.items():
        affine = affine_decompose(address)
        if affine is None:
            return None
        stride = 0
        for base, scale in affine.coefficients.items():
            if base in steps:
                stride += scale * steps[base]
            elif base in updated:
                return None
        if stride % width:
            return None
        shape = (affine.constant, tuple(sorted(affine.coefficients.items())),
                 width)
        stream = shapes.get(shape)
        if stream is None:
            stream = shapes[shape] = _Stream(len(shapes), width, affine,
                                             stride)
            registers.update(affine.coefficients)
        accesses[key, width] = stream
    return _CountedPlan(register, steps[register],
                        (form.constant + flip) & WORD_MASK, bound_source,
                        relation, registers, list(shapes.values()),
                        accesses)


class _StreamSource(_KernelSource):
    """The loop body of a counted kernel: every access indexes its
    stream's view at the stream's current index, with no test, which the
    entry made safe for the whole loop.  An access that runs once per
    iteration (at the body's top level) is counted once at exit, ``k *
    trips``; a guarded or lazy one counts in ``pb`` when it runs."""

    def __init__(self, accesses: Dict[Tuple[int, int], _Stream],
                 indent: str) -> None:
        super().__init__()
        self.accesses = accesses
        self.indent = indent
        self.unconditional = 0
        self.counted_inline = False

    def address(self, node: Node, width: int, scope: _Scope) -> str:
        return f"i{self.accesses[id(node), width].number}"

    def access(self, scope: _Scope, load: bool, width: int, address: str,
               value: str) -> None:
        self.line(scope, stream_access_source(load, width, address, value,
                                              "mem", "words", "halves"))
        if scope.indent == self.indent:
            self.unconditional += 1
        else:
            self.line(scope, "pb += 1")
            self.counted_inline = True


def _trip_count(plan: _CountedPlan) -> Tuple[List[str], Optional[str]]:
    """The entry lines that set ``trips``, the first iteration whose
    continue condition fails, in closed form for the plan's relation and
    step direction (an away-moving loop that continues at iteration 1 has
    none: those lines fall back); and the test that ``c`` wraps within
    iterations 1..trips in terms of ``last = trips - 1``, ``None`` where
    the form or a literal bound rules a wrap out."""
    d, up, relation = abs(plan.step), plan.step > 0, plan.relation
    lines = ["    c = " + (f"r{plan.counter}" if not plan.offset else
                           f"(r{plan.counter} + {plan.offset}) & {_M}")]
    bound = plan.bound
    if not bound.isdigit():
        lines.append(f"    b = {bound}")
        bound = "b"
    # g: how far the bound lies ahead of c in the direction c moves.
    lines.append(f"    g = {bound} - c" if up else f"    g = c - {bound}")
    toward = relation in (("lt", "le") if up else ("gt", "ge"))
    # How far past the bound c may get by the last iteration.
    overshoot = None
    if toward and relation in ("lt", "gt"):
        # Runs while g > 0: to the first index at or past the bound.
        trips = "g + 1" if d == 1 else f"(g + {d - 1}) // {d} + 1"
        lines.append(f"    trips = {trips} if g > 0 else 1")
        overshoot = d - 1
    elif toward or relation == "eq":
        # Runs while g >= 0 (g == 0 for eq): to the first index past it.
        trips = ("2" if relation == "eq" else
                 "g + 2" if d == 1 else f"g // {d} + 2")
        lines.append(f"    trips = {trips} if g "
                     f"{'==' if relation == 'eq' else '>='} 0 else 1")
        overshoot = d
    elif relation == "ne":
        # Runs until c meets the bound: it must lie ahead on the grid.
        lines += [f"    if g < 0{'' if d == 1 else f' or g % {d}'}:",
                  f"        {_FALLBACK}",
                  "    trips = g + 1" if d == 1 else f"    trips = g // {d} + 1"]
    else:
        # Moving away: if it continues at all it runs until c wraps.
        lines += [f"    if g {'<' if relation in ('gt', 'lt') else '<='} 0:",
                  f"        {_FALLBACK}", "    trips = 1"]
    if overshoot is None:
        return lines, None
    if bound.isdigit():
        reach = int(bound) + overshoot if up else int(bound) - overshoot
        if 0 <= reach <= WORD_MASK:
            return lines, None
    scaled = "last" if d == 1 else f"{d} * last"
    return lines, (f"c + {scaled} > {_M}" if up else f"c < {scaled}")


def _affine_source(affine: AffineForm) -> str:
    """``affine`` over the register locals, as a Python expression."""
    text = str(affine.constant) if affine.constant else ""
    for register, scale in sorted(affine.coefficients.items()):
        text = _scaled(text, scale, f"r{register}")
    return text or "0"


def counted_kernel_source(body) -> Optional[str]:
    """The source of the counted-loop ``_kernel(rf, bram, max_iterations)``
    of ``body``, or ``None`` when ``body`` is not a counted loop (see
    :func:`_counted_plan`).

    The function behaves exactly like :func:`kernel_source`'s, in less
    work per iteration.  Its entry computes the trip count in closed form
    and each address stream's first and last address; when the trip count
    exceeds ``max_iterations``, the compared value would wrap, or a
    stream's first or last address is misaligned or outside ``[0, size -
    width]``, it returns ``_fallback(rf, bram, max_iterations)`` (the
    generic loop, bound into the function's globals) before touching
    anything.  Otherwise ``for _ in range(trips)`` runs the body with no
    continue condition and no per-access test: each access indexes its
    stream's view, and the stream indices step by stride over width.
    Registers the body reads commit every iteration; one it only writes
    commits once at exit, as its constant or its last iteration's local
    (a bare live-in update keeps its per-iteration commit).  Unconditional
    accesses are counted once at exit; guarded and lazy ones as they run.
    """
    plan = _counted_plan(body)
    return None if plan is None else _counted_source(body, plan)


def _counted_source(body, plan: _CountedPlan) -> str:
    emitter = _StreamSource(plan.accesses, " " * 8)
    updates = _iteration(emitter, body, _Scope(emitter.indent, set()))
    read = set(emitter.registers)
    every, exits = [], []
    for register, value in updates:
        if register in read \
                or isinstance(body.register_updates[register], LiveIn):
            every.append((register, value))
            value = f"r{register}"
        exits.append(f"    rf[{register}] = {value}")
    live_in = body.live_in_registers
    lines = ["def _kernel(rf, bram, max_iterations):"]
    lines += [f"    r{register} = rf[{register}] & {_M}"
              if register in live_in else f"    r{register} = 0"
              for register in sorted(read | plan.registers)]
    trip_lines, wraps = _trip_count(plan)
    lines += trip_lines
    lines.append("    last = trips - 1")
    checks = ["last >= max_iterations"] + ([wraps] if wraps else [])
    if plan.streams:
        lines.append("    size = bram.size")
    starts, steps = [], []
    for stream in plan.streams:
        number, width, stride = stream.number, stream.width, stream.stride
        first, index = f"a{number}", f"i{number}"
        lines.append(f"    {first} = ({_affine_source(stream.affine)})"
                     f" & {_M}")
        if width > 1:
            checks.append(f"{first} & {width - 1}")
        top = f"size - {width}"
        if stride > 0:
            checks.append(f"{first} + {stride} * last > {top}")
        else:
            checks.append(f"{first} > {top}")
            if stride < 0:
                checks.append(f"{first} < {-stride} * last")
        shift = stream_shift(width)
        starts.append(f"    {index} = {first}"
                      + (f" >> {shift}" if shift else ""))
        step = stride // (1 << shift)
        if step:
            steps.append(f"        {index} "
                         f"{'+' if step > 0 else '-'}= {abs(step)}")
    lines += [f"    if {' or '.join(checks)}:", f"        {_FALLBACK}"]
    text = "\n".join(emitter.lines)
    lines += [f"    {name} = bram.{attribute}" for name, attribute in
              (("mem", "storage"), ("words", "word_view"),
               ("halves", "half_view")) if f"{name}[" in text]
    lines += starts
    if emitter.counted_inline:
        lines.append("    pb = 0")
    lines.append("    for _ in range(trips):")
    lines += [f"        {name} = -1" for name in emitter.sentinels]
    lines += emitter.lines
    lines += steps
    if every:
        lines.append("        " + ", ".join(f"r{register}"
                                             for register, _ in every)
                     + " = " + ", ".join(value for _, value in every))
    lines += exits
    counts = ([] if not emitter.unconditional else
              ["trips"] if emitter.unconditional == 1 else
              [f"{emitter.unconditional} * trips"])
    if emitter.counted_inline:
        counts.append("pb")
    if counts:
        lines.append(f"    bram.port_b_accesses += {' + '.join(counts)}")
    lines += ["    return trips", ""]
    return "\n".join(lines)


def _compiled(source: str):
    """The code object of kernel ``source`` and whether it came from
    :data:`_KERNEL_CODE_CACHE`."""
    code = _KERNEL_CODE_CACHE.get(source)
    if code is not None:
        return code, True
    code = compile(source, "<wcla kernel>", "exec")
    _KERNEL_CODE_CACHE.put(source, code)
    return code, False


def _generic_fallback(body):
    """The ``_fallback`` of ``body``'s counted kernel: the generic loop,
    built on its first call.  It holds ``body`` through a weak
    reference, so the kernel entry still dies with its body.  Every call
    counts one ``wcla`` fallback (and, with telemetry on, one
    ``warp_codegen_fallbacks``)."""
    reference = weakref.ref(body)
    kernel = None

    def _fallback(rf, bram, max_iterations):
        nonlocal kernel
        if kernel is None:
            namespace: Dict[str, object] = {}
            exec(_compiled(kernel_source(reference()))[0], namespace)
            kernel = namespace["_kernel"]
        _codegen_bucket("wcla")["fallbacks"] += 1
        if obs.ACTIVE is not None:
            obs.inc("warp_codegen_fallbacks",
                    help_text="WCLA kernel invocations that fell back from "
                              "the counted loop to the generic one",
                    engine="wcla", kind="kernel")
        return kernel(rf, bram, max_iterations)

    return _fallback


def _build_kernel(body):
    """``(kernel, form)`` for ``body`` and whether it came from
    :data:`_KERNEL_CODE_CACHE` (built before for this body, or its code
    object compiled for an identical source).  ``kernel`` is the counted
    form when ``body`` has one, else the generic loop; ``form`` names
    which, e.g. ``"counted loop, 2 address streams"``."""
    kernels = _KERNEL_CODE_CACHE.kernels
    key = id(body)
    built = kernels.get(key)
    if built is not None:
        return built, True
    namespace: Dict[str, object] = {}
    plan = _counted_plan(body)
    if plan is None:
        source, form = kernel_source(body), "generic loop"
    else:
        source = _counted_source(body, plan)
        namespace["_fallback"] = _generic_fallback(body)
        streams = len(plan.streams)
        form = f"counted loop, {streams} address stream" \
            + ("" if streams == 1 else "s")
    code, cached = _compiled(source)
    exec(code, namespace)
    built = kernels[key] = (namespace["_kernel"], form)
    # The function holds no reference to the body: the entry goes with
    # it, before its id can be reused.
    weakref.finalize(body, kernels.pop, key, None)
    return built, cached


class WclaExecutionEngine:
    """Functionally executes one kernel's dataflow graph.

    The decompiled body is lowered once to one generated Python function
    that runs the whole hardware loop: the counted loop
    (:func:`counted_kernel_source`) when the body has one, else the
    generic loop (:func:`kernel_source`); :attr:`form` says which.  No
    per-node dispatch or call remains per iteration.  The function is
    built once per body object and its bytecode shared process-wide
    through a source-keyed cache (:data:`_KERNEL_CODE_CACHE`), and each
    engine construction is recorded in the code-generation accounting
    under ``engine="wcla"`` (a reused function or code object is a cache
    hit; an invocation that falls back from the counted to the generic
    loop counts under ``fallbacks``).  The implementation's
    per-invocation cycle constants (pipeline fill, initiation interval)
    are read once, here.
    """

    def __init__(self, implementation: HardwareImplementation,
                 max_iterations_per_invocation: int = 5_000_000):
        self.implementation = implementation
        self.kernel = implementation.kernel
        self.body = implementation.kernel.body
        self.max_iterations = max_iterations_per_invocation
        self.pipeline_fill_cycles = implementation.pipeline_fill_cycles
        self.initiation_interval = implementation.initiation_interval
        start = time.perf_counter()
        #: The kernel model's form: ``"generic loop"``, or a counted loop
        #: with its address streams, e.g. ``"counted loop, 2 address
        #: streams"``.
        self.form: str
        (self._kernel, self.form), cached = _build_kernel(self.body)
        _record_translation("wcla", "kernel", cached,
                            time.perf_counter() - start)

    def execute(
        self,
        register_file: List[int],
        bram: BlockRAM,
    ) -> Tuple[List[int], KernelInvocation]:
        """Run one invocation: the kernel until its continue condition
        fails.

        The kernel reads its live-in registers from ``register_file``
        (indexed by architectural register number) and, on a normal exit,
        writes every register the loop updates back into it, as of loop
        exit.  It reads and writes ``bram`` through its second port (the
        WCLA's data address generator side).  Returns ``(register_file,
        invocation)``; an exhausted iteration budget raises
        :class:`HardwareExecutionError` with ``register_file`` unchanged.
        """
        iterations = self._kernel(register_file, bram, self.max_iterations)
        if not iterations:
            raise HardwareExecutionError(
                f"kernel at {self.kernel.region.start_address:#x} exceeded "
                f"{self.max_iterations} iterations"
            )
        return register_file, KernelInvocation(
            iterations, self.pipeline_fill_cycles
            + iterations * self.initiation_interval)


class WclaPeripheral:
    """The WCLA as a memory-mapped peripheral on the on-chip peripheral bus.

    Register map (word offsets within the peripheral window):

    ========  ====================================================
    offset    contents
    ========  ====================================================
    0x00-0x7C the 32-entry register file mirroring MicroBlaze
              architectural registers (live-in written by the
              invocation stub, live-out read back by it)
    0x80      control: writing 1 starts the configured kernel
    0x84      status: reads 1 once the kernel has completed
    0x88      total hardware cycles consumed so far (low 32 bits)
    0x8C      number of kernel invocations so far
    ========  ====================================================

    A start write is one :meth:`WclaExecutionEngine.execute` call on
    :attr:`register_file`, looked up through :attr:`engine` at that time
    (a tracer or a test may substitute it).  The ``jit`` engine binds the
    invocation stub's static accesses straight to :meth:`read` and
    :meth:`write` (:meth:`~repro.microblaze.opb.OnChipPeripheralBus.resolve`).
    """

    CONTROL_OFFSET = 0x80
    STATUS_OFFSET = 0x84
    CYCLES_OFFSET = 0x88
    INVOCATIONS_OFFSET = 0x8C
    WINDOW_SIZE = 0x100

    def __init__(self, base_address: int, implementation: HardwareImplementation,
                 data_bram: BlockRAM, name: str = "wcla"):
        self.base_address = base_address
        self.window_size = self.WINDOW_SIZE
        self.name = name
        self.implementation = implementation
        self.data_bram = data_bram
        self.engine = WclaExecutionEngine(implementation)
        self.register_file = [0] * 32
        self.done = True
        self.invocations = 0
        self.total_hw_cycles = 0
        self.total_iterations = 0

    # ------------------------------------------------------------------- bus API
    def read(self, offset: int) -> int:
        if offset < 0x80:
            return self.register_file[(offset // 4) % 32]
        if offset == self.STATUS_OFFSET:
            return 1 if self.done else 0
        if offset == self.CYCLES_OFFSET:
            return self.total_hw_cycles & 0xFFFFFFFF
        if offset == self.INVOCATIONS_OFFSET:
            return self.invocations & 0xFFFFFFFF
        return 0

    def write(self, offset: int, value: int) -> None:
        if offset < 0x80:
            self.register_file[(offset // 4) % 32] = value & 0xFFFFFFFF
            return
        if offset == self.CONTROL_OFFSET and value & 1:
            self._run_kernel()

    def tick(self, cycles: int) -> None:  # pragma: no cover - time handled analytically
        return None

    # ------------------------------------------------------------ inspection
    def snapshot_state(self) -> Dict:
        """Device state as plain builtins (the configuration, i.e. the
        implementation and the kernel function generated from it, is not
        part of it)."""
        return {
            "register_file": list(self.register_file),
            "done": self.done,
            "invocations": self.invocations,
            "total_hw_cycles": self.total_hw_cycles,
            "total_iterations": self.total_iterations,
        }

    # ------------------------------------------------------------------- engine
    def _run_kernel(self) -> None:
        invocation = self.engine.execute(self.register_file,
                                         self.data_bram)[1]
        self.invocations += 1
        self.total_iterations += invocation.iterations
        self.total_hw_cycles += invocation.hw_cycles
        self.done = True

    # ------------------------------------------------------------------ results
    @property
    def total_hw_seconds(self) -> float:
        return self.total_hw_cycles / (self.implementation.clock_mhz * 1e6)
