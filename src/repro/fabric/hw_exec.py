"""Cycle-counted functional execution of hardware kernels.

Two pieces live here:

* :class:`WclaExecutionEngine` — lowers the decompiled kernel's dataflow
  graph, once, to the source of one Python function that runs the whole
  hardware loop against the data block RAM exactly as the configured WCLA
  would, and converts the iteration count into WCLA clock cycles using
  the implementation's initiation interval and pipeline depth.
* :class:`WclaPeripheral` — the on-chip-peripheral-bus face of the WCLA
  (Figure 2): the patched application writes the kernel's live-in registers
  into the peripheral's register file, pokes the start register, reads the
  live-out registers back, and continues after the loop.  The peripheral
  accumulates the hardware cycles and invocation counts that the warp
  execution model and the energy model consume.

Because the engine executes the *decompiled* dataflow graph rather than the
original instructions, a matching checksum between the software-only run
and the warp-processed run is genuine evidence that decompilation,
synthesis and binary patching preserved the application's semantics.
:func:`repro.decompile.expr.evaluate` stays the reference semantics of
every node; the generated code is tested against it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

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
)
from ..microblaze.engines.jit import _record_translation
from ..microblaze.memory import BlockRAM, inline_access_source
from .implementation import HardwareImplementation


class HardwareExecutionError(Exception):
    """Raised when a hardware kernel fails to terminate within its budget."""


@dataclass
class KernelInvocation:
    """Statistics of one hardware invocation of the kernel."""

    iterations: int
    hw_cycles: int


#: Process-wide generated-source -> code-object cache for kernel bodies.
#: Constants, widths and register numbers are baked into the source as
#: literals and memory arrives through the call, so the source is a
#: complete content address: every job that configures the same kernel
#: reuses the bytecode.  The bound matches the 256 kernels whose four
#: cached CAD stages fill the CAD cache (``STAGE_CACHE_ENTRIES = 1024``).
_KERNEL_CODE_CACHE = BoundedLRU(maxsize=256)

_M = "0xFFFFFFFF"
_SIGN = "0x80000000"

#: Operator templates over operand sources ``a`` and ``b``; every result is
#: an unsigned 32-bit word, like :func:`repro.decompile.expr.evaluate`.
#: Operands are always in ``[0, 2**32)``, so ``x ^ SIGN`` orders words as
#: signed values and sign extension needs no re-masking.  Shift templates
#: take the already-reduced shift amount ``s``.
_BINARY = {
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
_UNARY = {
    OpKind.NEG: "-{a} & " + _M,
    OpKind.NOT: "~{a} & " + _M,
    OpKind.SEXT8: "{a} | 0xFFFFFF00 if {a} & 0x80 else {a} & 0xFF",
    OpKind.SEXT16: "{a} | 0xFFFF0000 if {a} & 0x8000 else {a} & 0xFFFF",
}
#: ``value <relation> 0`` over the signed reading of an unsigned word.
_RELATIONS = {
    "eq": "{a} == 0",
    "ne": "{a} != 0",
    "lt": "{a} >= " + _SIGN,
    "le": "{a} >= " + _SIGN + " or {a} == 0",
    "gt": "0 < {a} < " + _SIGN,
    "ge": "{a} < " + _SIGN,
}


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
        """One port-B access, indexing the BRAM storage directly when the
        address is valid (loaded words are zero-extended, never wider
        than 32 bits)."""
        for text in inline_access_source(
                load, width, address, value, "mem",
                "load" if load else "store", f"top{width}", "pb += 1"):
            self.line(scope, text)

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
            address = self.value(node.address, target)
            self.access(target, True, node.width, address, name)
        elif isinstance(node, BinExpr):
            template = _BINARY.get(node.op)
            if template is None:
                raise ValueError(f"unknown binary op {node.op}")
            a = self.value(node.left, scope)
            b = self.value(node.right, scope)
            s = (b if node.op not in _SHIFTS else
                 str(int(b) & 31) if b.isdigit() else f"({b} & 31)")
            self.line(scope, f"{name} = " + template.format(a=a, b=b, s=s))
        elif isinstance(node, UnExpr):
            template = _UNARY.get(node.op)
            if template is None:
                raise ValueError(f"unknown unary op {node.op}")
            a = self.value(node.operand, scope)
            self.line(scope, f"{name} = " + template.format(a=a))
        elif isinstance(node, Condition):
            template = _RELATIONS.get(node.relation)
            if template is None:
                raise ValueError(
                    f"unknown condition relation {node.relation!r}")
            a = self.value(node.value, scope)
            self.line(scope, f"{name} = 1 if {template.format(a=a)} else 0")
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


def kernel_source(body) -> str:
    """The source of ``_kernel(live_in, bram, max_iterations)`` for one
    loop body (a :class:`~repro.decompile.symexec.SymbolicLoopBody`).

    The function runs iterations until the continue condition fails and
    returns ``(live_out, iterations)``, or ``(None, max_iterations)`` once
    the budget is spent with the loop still running.  Each iteration
    evaluates the register updates, then the stores in program order,
    then the continue condition, all against the registers at the start
    of the iteration, and only then commits the register updates
    (registered semantics).  Memory is the data BRAM's port B: valid
    accesses index its storage directly and are counted in a local that
    is added to ``port_b_accesses`` on every exit; the rest go through
    ``load_port_b`` / ``store_port_b``, which raise.
    """
    emitter = _KernelSource()
    scope = _Scope(" " * 12, set())
    updates = [(register, emitter.value(expr, scope))
               for register, expr in body.register_updates.items()]
    for store in body.stores:
        target = scope
        if store.guard is not None:
            emitter.line(scope, f"if {emitter.value(store.guard, scope)}:")
            target = scope.child()
        address = emitter.value(store.address, target)
        value = emitter.value(store.value, target)
        emitter.access(target, False, store.width, address, value)
    keep = emitter.value(body.continue_condition, scope)
    emitter.line(scope, f"keep = {keep}")
    if updates:
        emitter.line(scope,
                     ", ".join(f"r{register}" for register, _ in updates)
                     + " = " + ", ".join(value for _, value in updates))
    live_out = ", ".join(f"{register}: r{register}" for register, _ in updates)
    prologue = [f"    r{register} = live_in.get({register}, 0) & {_M}"
                for register in sorted(emitter.registers)]
    resets = [f"            {name} = -1" for name in emitter.sentinels]
    return "\n".join([
        "def _kernel(live_in, bram, max_iterations):",
        "    mem = bram.storage",
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
        f"                return {{{live_out}}}, iteration",
        "        return None, max_iterations",
        "    finally:",
        "        bram.port_b_accesses += pb",
        "",
    ])


class WclaExecutionEngine:
    """Functionally executes one kernel's dataflow graph.

    The decompiled body is lowered once, at engine construction, to one
    generated Python function (:func:`kernel_source`) that runs the whole
    hardware loop: no per-node dispatch or call remains per iteration.
    The bytecode is shared process-wide through a source-keyed cache, and
    each translation is recorded in the code-generation accounting under
    ``engine="wcla"``.
    """

    def __init__(self, implementation: HardwareImplementation,
                 max_iterations_per_invocation: int = 5_000_000):
        self.implementation = implementation
        self.kernel = implementation.kernel
        self.body = implementation.kernel.body
        self.max_iterations = max_iterations_per_invocation
        start = time.perf_counter()
        source = kernel_source(self.body)
        code = _KERNEL_CODE_CACHE.get(source)
        cached = code is not None
        if not cached:
            code = compile(source, "<wcla kernel>", "exec")
            _KERNEL_CODE_CACHE.put(source, code)
        namespace: Dict[str, object] = {}
        exec(code, namespace)
        self._kernel = namespace["_kernel"]
        _record_translation("wcla", "kernel", cached,
                            time.perf_counter() - start)

    def execute(
        self,
        live_in: Dict[int, int],
        bram: BlockRAM,
    ) -> Tuple[Dict[int, int], KernelInvocation]:
        """Run the kernel until its continue condition fails.

        ``live_in`` maps architectural register numbers to their values at
        loop entry; the returned dictionary holds the values of every
        register the loop writes, as of loop exit.  The kernel reads and
        writes ``bram`` through its second port (the WCLA's data address
        generator side).
        """
        live_out, iterations = self._kernel(live_in, bram,
                                            self.max_iterations)
        if live_out is None:
            raise HardwareExecutionError(
                f"kernel at {self.kernel.region.start_address:#x} exceeded "
                f"{self.max_iterations} iterations"
            )
        invocation = KernelInvocation(
            iterations=iterations,
            hw_cycles=self.implementation.cycles_for_iterations(iterations),
        )
        return live_out, invocation


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

    # ------------------------------------------------------------ checkpointing
    def snapshot_state(self) -> Dict:
        """Device state for the system checkpoint (configuration — the
        implementation and the kernel function generated from it — is
        rebuilt by whoever reconstructs the peripheral, not carried in the
        blob)."""
        return {
            "register_file": list(self.register_file),
            "done": self.done,
            "invocations": self.invocations,
            "total_hw_cycles": self.total_hw_cycles,
            "total_iterations": self.total_iterations,
        }

    def restore_state(self, state: Dict) -> None:
        self.register_file[:] = state["register_file"]
        self.done = state["done"]
        self.invocations = state["invocations"]
        self.total_hw_cycles = state["total_hw_cycles"]
        self.total_iterations = state["total_iterations"]

    # ------------------------------------------------------------------- engine
    def _run_kernel(self) -> None:
        kernel = self.implementation.kernel
        live_in = {register: self.register_file[register]
                   for register in kernel.live_in_registers}
        live_out, invocation = self.engine.execute(live_in, self.data_bram)
        for register, value in live_out.items():
            self.register_file[register] = value & 0xFFFFFFFF
        self.invocations += 1
        self.total_iterations += invocation.iterations
        self.total_hw_cycles += invocation.hw_cycles
        self.done = True

    # ------------------------------------------------------------------ results
    @property
    def total_hw_seconds(self) -> float:
        return self.total_hw_cycles / (self.implementation.clock_mhz * 1e6)
