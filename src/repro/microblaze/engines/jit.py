"""Source-generating JIT engine: one specialized Python function per superblock.

The reference interpreter re-resolves every instruction on every
execution: a dispatch over the mnemonic, width lookups, ``imm`` latch
checks and per-instruction statistics updates.  This engine does that
work once, at decode time — the lifting step of static binary
translators (decode once, generate code, run many): for every superblock
(a straight-line run ending in a branch) it emits specialized Python
**source** in which

* the straight-line handler bodies are inlined as plain statements with
  operand indices, immediates (``imm`` prefixes statically fused) and
  latencies baked in as literals,
* the block's static statistics — its delay slot's and its branch's,
  counted as taken, included — are one execution count: the block adds
  one to its slot in the engine's ``bc`` list, which
  :meth:`JitEngine.fold_block_counts` multiplies out once per run, and
  adds only the :data:`EAGER` instruction and cycle counts to the
  counter array,
* only genuinely dynamic contributions (OPB access penalties, a
  not-taken branch's correction, a delay slot's OPB double charge)
  remain as runtime code,
* the terminating branch sits at the end and returns the next program
  counter (backward-branch observer calls included),

``exec``\\ s it once into a cached closure — CPU state (register file,
counter array, memories, peripheral bus, observer list) is bound via
an outer factory function, so the hot path runs on fast closure lookups —
and then dispatches block-at-a-time: one Python call per superblock.

A *self-loop* — a block whose terminator statically branches back to
the block's own entry, the shape of most hot embedded loops — runs all
its iterations in that one call.  Its generated function loops while the
branch is taken and its ``_limit`` argument (the iterations the
instruction budget allows; the dispatch loop passes 1 while a ticking
peripheral is attached) has not run out.  The registers it touches are
fast locals, read once before the loop and written back at exit, its
dynamic counter updates and its data-BRAM port-A count go to locals,
and its exit adds its iterations to its slot (the eager counters,
``delta * iterations``).  The branch is part of those: per iteration it
only computes ``_taken`` and tests it, its statistics count as a taken
branch, and a loop that falls through adds one to its correction slot
at exit.  When every
attached observer has ``on_backward_branches`` (the CPU keeps that flag,
read once per call), no observer is called inside the loop: the exit
delivers the iteration count in one call per observer, and a fault the
branches already completed.  Otherwise every observer is called once per
taken backward branch, from inside the loop.  Either way observers must
not read CPU registers or statistics mid-run.

Straight-line code renders a block-local constant register as its
literal, so CPython folds what becomes constant; an ``add``, ``or`` or
``xor`` with a literal 0 operand is a plain move, and a load or store
with offset 0 takes its base as the address, both without a mask.

Each program is translated once per process: a per-program translation
table (``_CODE_CACHE.translations``) maps the instruction-BRAM digest, the
configuration and the entry pc to the finished translation, whose module
code ran once, when it was made, leaving its ``_make`` factory.  So a
fresh system running an already-seen program only replays the recorded
fetches and calls each block's factory to bind its closure.  Data-BRAM
loads and stores read and write the BRAM
in place when the address is valid: a byte indexes its storage, a word
or halfword its native-order ``word_view`` / ``half_view`` at the
shifted address (on a big-endian host, where the views would read the
words byte-swapped, a storage slice converted to and from an integer).
Every other address falls back to the checked
:class:`~repro.microblaze.memory.BlockRAM` methods, which raise the
interpreter's exact fault.

A data instruction's body is its opcode-table operator
(:attr:`~repro.isa.instructions.OpSpec.op`) rendered by
:func:`repro.isa.semantics.source`, and branch conditions by
:func:`~repro.isa.semantics.relation_source`: unsigned-word templates the
WCLA kernels share, written apart from the reference callables the
interpreter applies.

Semantics are defined by the ``interp`` reference interpreter: the
generated code reproduces it bit-exactly on fault-free runs (statistics,
cycles, branch-event streams, memory-port counters, the seed's delay-slot
double charge) and compiles compile-time faults into raiser blocks that
fire at the same execution point with the same exception and message.
A *runtime* fault (misaligned access, unmapped OPB address) landing
mid-block finds the block's statistics already added wholesale, as its
execution count (a self-loop's ``except`` handler first flushes its
locals and counts every iteration begun); the dispatch loop reads the
faulting line from the block's traceback frame, re-derives that line's
fault point (:meth:`SourceBlockCompiler.fault_point`) and takes back the
statistics of the instructions not yet executed (a self-loop's branch
included when its body or delay slot faulted), so statistics, pc and
``imm`` latch are the interpreter's at the fault.  An observer raising
from the hook lines has its own fault point: the branch has completed,
so the pc is its target.  The one difference left on a faulted run is
the instruction-fetch port: the translation fetched the block's words
past the fault point.

An OPB load or store decodes its address per access through the bus
(``try_read`` / ``try_write``), unless its address is static: the
emitter tracks block-local constants (a register set from constants and
not rewritten since; a load, a divide, a call's link write or a result
from any unknown operand forgets it), and a static address at or above
``OPB_BASE_ADDRESS`` is resolved to its owner's bound ``read`` /
``write`` and offset by the generated factory, i.e. when the block is
bound to a CPU — never at translation time, because the translation
table is shared by systems with different peripheral instances.  The
resolved access counts the bus's ``reads`` / ``writes`` and masks
exactly as ``try_read`` / ``try_write`` do, then records the same
penalty counters; an address no peripheral owned at bind time keeps the
per-access decode, so it faults as before and reaches a peripheral
attached later.  This is what makes a WCLA invocation stub (live-in
writes, start write, live-out reads off one constant base) cheap.

OPB peripheral time is batched: one ``tick(n)`` per block for opted-in
peripherals, dropping to interpreter granularity when a declared tick
deadline falls inside the block, so timed device models never observe a
batch crossing their deadline.
"""

from __future__ import annotations

import re
import time
import weakref
from typing import Dict, List, NamedTuple, Optional, Tuple

from ... import obs
from ...caching import BoundedLRU
from ...isa.encoding import EncodingError
from ...isa.instructions import Instruction, InstrClass
from ...isa.registers import WORD_MASK, to_signed
from ...isa.semantics import (
    BINARY,
    UNARY,
    OpKind,
    fuse_imm,
    relation_source,
    source,
)
from ..engine import (
    CLASS_INDEX,
    CNT_BRANCHES_NOT_TAKEN,
    CNT_BRANCHES_TAKEN,
    CNT_CLASS_COUNT,
    CNT_CLASS_CYCLES,
    CNT_CYCLES,
    CNT_INSTRUCTIONS,
    CNT_LOADS,
    CNT_OPB_READS,
    CNT_OPB_WRITES,
    CNT_STORES,
    MAX_BLOCK_INSTRUCTIONS,
    signed_division,
)
from ..memory import MemoryError_, inline_access_source
from ..opb import OPB_BASE_ADDRESS
from . import ExecutionEngine, register_engine

#: A compiled jit superblock: ``(n_instructions, fn, entry_address,
#: end_address, static_cycles)``.  ``fn(limit)`` executes the whole block —
#: statistics constants, inlined bodies, terminator — and returns the next
#: program counter; a self-loop repeats it for up to ``limit`` iterations
#: (other blocks ignore ``limit``).  ``n_instructions`` and
#: ``static_cycles`` (the deadline pre-check of the tick-batching
#: dispatch loop) count one iteration.
JitBlock = Tuple[int, object, int, int, int]

_M = WORD_MASK


class _CodeCache(BoundedLRU):
    """Generated source → code object, plus the per-program translation
    table in :attr:`translations`; one :meth:`clear` drops both.

    CPython bytecode compilation dominates emission cost (~0.4 ms per
    block).  The source is a complete content address for its code object
    (every operand, immediate, latency and address is a literal, and CPU
    state arrives through the factory call, never through globals), so
    identical blocks of different programs share bytecode.

    The translation table maps ``(image key, entry pc)`` to ``(n, end,
    static_cycles, make, slots, addresses, fetched)``.  The image key
    (:class:`_ImageKey`) is ``(compiler class, OPB present, cpu.config,
    data BRAM size, instruction BRAM digest)``; ``make`` is the block's
    factory (see :func:`factory`), ``slots`` the sparse deltas of its
    execution-count slots (see :func:`bind`), and ``addresses`` and
    ``fetched`` hold each word the translation fetched and its
    instruction.  Everything block emission reads is in the key, so a
    fresh system running a program this process has already run — a
    service job, a sweep pass, the evaluation harness — only replays
    those fetches and calls ``make``: no fetch, decode, source emission
    or ``exec``.  Its own, smaller bound, counted in
    translations, keeps a stream of distinct programs from holding every
    decoded instruction it ever ran.
    """

    def __init__(self, maxsize: int, table_size: int) -> None:
        super().__init__(maxsize)
        self.translations = BoundedLRU(maxsize=table_size)

    def clear(self) -> None:
        super().clear()
        self.translations.clear()


#: The process-wide code cache (cold-cache tests and benchmarks ``clear()``
#: it; the repo-wide LRU's hit/miss accounting).
_CODE_CACHE = _CodeCache(maxsize=8192, table_size=1024)

#: Always-on, process-wide translation accounting per engine label:
#: how many translations were compiled vs served from :data:`_CODE_CACHE`
#: (a translation-table hit or a reused code object), the wall seconds
#: spent translating (table lookup, fetch + decode, source emission,
#: bytecode compile and closure bind).  The simulator benchmark reads
#: this through :func:`codegen_stats` to break the cold-suite time into
#: run cost vs translation cost, and the telemetry collector below
#: mirrors it into the live ``metrics`` snapshot.
_CODEGEN: Dict[str, Dict[str, float]] = {}

_CODEGEN_KEYS = ("compiles", "cache_hits", "compile_seconds")

#: Event counts a label's bucket keeps beyond the translation accounting:
#: ``wcla`` counts the kernel invocations that fell back from the counted
#: loop to the generic one (:mod:`repro.fabric.hw_exec`).
_CODEGEN_EVENTS = {"wcla": ("fallbacks",)}


def _codegen_bucket(label: str) -> Dict[str, float]:
    bucket = _CODEGEN.get(label)
    if bucket is None:
        bucket = _CODEGEN[label] = dict.fromkeys(
            _CODEGEN_KEYS + _CODEGEN_EVENTS.get(label, ()), 0)
        bucket["compile_seconds"] = 0.0
    return bucket


def codegen_stats() -> Dict[str, Dict[str, float]]:
    """Cumulative per-engine translation accounting (a deep copy)."""
    return {label: dict(bucket) for label, bucket in _CODEGEN.items()}


def reset_codegen_stats() -> None:
    """Zero the accounting (benchmarks isolate per-engine measurements)."""
    _CODEGEN.clear()


def _record_translation(label: str, kind: str, cached: bool,
                        seconds: float) -> None:
    """Fold one translation into the accounting and the live metrics."""
    bucket = _codegen_bucket(label)
    bucket["cache_hits" if cached else "compiles"] += 1
    bucket["compile_seconds"] += seconds
    if obs.ACTIVE is not None:
        if cached:
            obs.inc("warp_codegen_cache_hits",
                    help_text="Generated-code cache hits (translation or "
                              "code object reused, closures re-bound)",
                    engine=label, kind=kind)
        else:
            obs.inc("warp_codegen_compiles",
                    help_text="Generated-code compilations (source "
                              "emitted and byte-compiled)",
                    engine=label, kind=kind)
        obs.observe("warp_codegen_compile_ms", seconds * 1e3,
                    help_text="Wall milliseconds per translation "
                              "(lookup + fetch + emit + compile + bind)",
                    engine=label, kind=kind)


def _collect_codegen_metrics(registry) -> None:
    """Snapshot-time collector: publish the always-on accounting (which
    also covers translations performed before telemetry was installed)
    and the shared code-cache occupancy as gauge families."""
    events = registry.gauge(
        "warp_codegen_events",
        "Cumulative code-generation accounting by engine and kind")
    for label, bucket in _CODEGEN.items():
        for key, value in bucket.items():
            events.set(float(value), engine=label, kind=key)
    registry.gauge(
        "warp_codegen_cache_entries",
        "Entries in the process-wide code cache and translation table",
    ).set(float(len(_CODE_CACHE) + len(_CODE_CACHE.translations)))


obs.add_collector(_collect_codegen_metrics)


#: Register and counter subscripts in generated lines; a self-loop block
#: renames them to the locals ``r<i>`` and ``c<i>``.
_REG = re.compile(r"regs\[(\d+)\]")
_REG_WRITE = re.compile(r"regs\[(\d+)\] = ")
_CNT = re.compile(r"cnt\[(\d+)\]")
#: An inline data-BRAM access's port-A count; a self-loop counts into
#: the local ``_pa`` instead.
_PORT_A = "dbram.port_a_accesses += 1"

#: Operators with 0 as their identity.
_ZERO_IDENTITY = (OpKind.ADD, OpKind.OR, OpKind.XOR)


def _r(index: int) -> str:
    """Source expression for a register read (r0 reads as the literal 0)."""
    return "0" if index == 0 else f"regs[{index}]"


def _operator(kind: OpKind, args: List[str]) -> str:
    """:func:`~repro.isa.semantics.source` of ``kind`` over ``args``, or,
    for an identity-0 operator with a literal 0 operand, the other
    operand: registers and masked literals are words, so no mask."""
    if kind in _ZERO_IDENTITY and "0" in args:
        return args[1] if args[0] == "0" else args[0]
    return source(kind, *args)


def _scaled(expr: str, factor: int, name: str) -> str:
    """``expr + factor * name``, omitting zero terms."""
    if not factor:
        return expr
    term = name if abs(factor) == 1 else f"{abs(factor)} * {name}"
    if not expr:
        return term if factor > 0 else f"-{term}"
    return f"{expr} {'+' if factor > 0 else '-'} {term}"


def _plus(*parts: Dict[int, int]) -> Dict[int, int]:
    """The sum of sparse counter deltas."""
    total: Dict[int, int] = {}
    for part in parts:
        for index, delta in part.items():
            total[index] = total.get(index, 0) + delta
    return total


def _sparse(deltas) -> tuple:
    """The ``(index, delta)`` pairs of ``deltas`` items that go through an
    execution-count slot: the nonzero ones that are not :data:`EAGER`."""
    return tuple((index, delta) for index, delta in deltas
                 if delta and index not in EAGER)


class _Terminator(NamedTuple):
    """The lines ending a block, the expression of its next pc (``None``
    for a raiser), its observer calls, its static statistics (the
    branch's, counted as taken, and its delay slot's), the
    ``correction`` its other path adds to them once (a not-taken branch,
    or a register-held branch that halts and so skips its slot), whether
    it is a self-loop's branch, and the ``(pc, target)`` a self-loop
    delivers to bulk observers (``None`` when its branch is not
    backward)."""

    lines: List[str]
    next: Optional[str]
    hooks: List[str]
    deltas: Dict[int, int] = {}
    correction: Dict[int, int] = {}
    loop: bool = False
    bulk: Optional[Tuple[int, int]] = None


def _backward_hook(guard: str, pc: int, target: str) -> List[str]:
    """Observer calls for a taken backward branch at ``pc``, emitted under
    the run-time ``guard`` (empty when translation proved the branch
    taken and backward).  ``hooks`` is tested first: runs without
    observers pay one truth test."""
    return [
        f"if hooks{' and ' + guard if guard else ''}:",
        f"    for _h in hooks:",
        f"        _h.on_backward_branch({pc}, {target})",
    ]


#: Parameter list of every generated factory ``_make``: the CPU state a
#: translation binds, see :func:`bind`.  ``opb`` is the peripheral bus
#: itself: the factory resolves the block's static OPB addresses through
#: it, and the resolved accesses count its ``reads`` and ``writes``.
#: The helpers that are the same for every CPU (``to_signed``,
#: ``signed_division``, ``IllegalInstruction``) are the factory's
#: globals, see :func:`factory`.
FACTORY_PARAMS = ("cpu, regs, cnt, bc, slot, bram_load, bram_store, "
                  "opb_read, opb_write, hooks, dmem, dwords, dhalves, dbram, "
                  "opb")

#: The counters a block adds to ``cnt`` as it runs: the dispatch loop
#: reads the instruction count for its budget and the ticking path the
#: cycle count for ``opb.tick_bounded``.  Every other static statistic
#: goes through the block's execution-count slots (:meth:`JitEngine.
#: fold_block_counts`).
EAGER = (CNT_CYCLES, CNT_INSTRUCTIONS)


def compile_source(source: str, filename: str):
    """The code object of generated ``source`` and whether it came from
    :data:`_CODE_CACHE`."""
    hits_before = _CODE_CACHE.hits
    code = _CODE_CACHE.get_or_create(
        source, lambda: compile(source, filename, "exec"))
    return code, _CODE_CACHE.hits > hits_before


#: The globals every generated module shares (filled on first use: the
#: CPU module imports this one).
_FACTORY_GLOBALS: Dict[str, object] = {}


def factory(code):
    """Run a generated module's code object, once per translation, and
    return its ``_make`` factory (see :func:`bind`).  ``_make`` lands in
    a mapping of its own, so translations made concurrently share the
    globals safely."""
    if not _FACTORY_GLOBALS:
        from ..cpu import IllegalInstruction
        _FACTORY_GLOBALS.update(
            to_signed=to_signed, signed_division=signed_division,
            IllegalInstruction=IllegalInstruction)
    names: Dict[str, object] = {}
    exec(code, _FACTORY_GLOBALS, names)
    return names["_make"]


def bind(make, cpu, slots):
    """Call a translation's ``_make`` factory with ``cpu``'s state.

    Register file, counter array, observer list, BRAM storage and its
    word and halfword views keep their identity for the CPU's lifetime,
    so one bind lasts until the engine invalidates the translation.  The
    bind gives the block ``len(slots)`` fresh execution-count slots in
    the engine's ``bc`` list, ``slots`` holding each one's sparse
    ``(counter index, delta)`` pairs (:meth:`JitEngine.add_slots`); the
    block counts into ``bc[slot]`` onward.  Slots are per bind, not per
    translation, because the translation table shares translations
    between systems.  The factory also resolves each static OPB address
    of the block to the bound ``read``/``write`` of the peripheral
    owning it on *this* bus
    (:meth:`~repro.microblaze.opb.OnChipPeripheralBus.resolve`); an
    address no peripheral owns yet stays on the per-access decode, so a
    peripheral attached after the bind is still reached.
    """
    opb = cpu.opb
    dbram = cpu.data_bram
    engine = cpu._engine_impl
    return make(
        cpu, cpu.registers, cpu._counters, engine.bc,
        engine.add_slots(slots), dbram.load, dbram.store,
        opb.try_read if opb is not None else None,
        opb.try_write if opb is not None else None,
        cpu._observers, dbram.storage, dbram.word_view, dbram.half_view,
        dbram, opb,
    )


class _ImageKey:
    """The fixed part of a translation-table key: ``(compiler class, OPB
    present, cpu.config, data BRAM size, instruction BRAM digest)``.

    It is hashed once, and :meth:`of` interns it, so every system
    running the same image under the same configuration holds the same
    object and a table lookup compares it by identity."""

    __slots__ = ("parts", "_hash", "__weakref__")
    _interned: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()

    def __init__(self, parts: tuple) -> None:
        self.parts = parts
        self._hash = hash(parts)

    @classmethod
    def of(cls, parts: tuple) -> "_ImageKey":
        key = cls._interned.get(parts)
        if key is None:
            key = cls._interned[parts] = cls(parts)
        return key

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, _ImageKey)
                                 and self.parts == other.parts)


class SourceBlockCompiler:
    """Generates, compiles and caches jit superblocks for one engine."""

    def __init__(self, engine: ExecutionEngine) -> None:
        self.engine = engine
        self.cpu = cpu = engine.cpu
        self.blocks = engine.blocks
        #: Instructions fetched by the translation in progress; ``None``
        #: once a fetch faulted (raiser blocks are never shared through the
        #: translation table).
        self._fetched: Optional[List[Instruction]] = None
        #: Fault points recorded by a :meth:`fault_point` re-derivation:
        #: ``(body line index, pc, imm latch, block deltas before)`` per
        #: instruction; ``None`` while translating.
        self._points: Optional[List[tuple]] = None
        #: Block-local constants of the translation in progress: the
        #: registers set from constants and not rewritten since.
        self._known: Dict[int, int] = {}
        #: The block's static OPB accesses, ``(address, write)`` -> the
        #: index of the factory locals its resolution binds.
        self._bound: Dict[Tuple[int, bool], int] = {}
        #: The fixed part of this system's translation-table keys, kept
        #: until the image digest changes.
        self._image: Optional[_ImageKey] = None
        self._image_digest: Optional[str] = None

    # ------------------------------------------------------------------ entry
    def compile_block(self, entry: int) -> JitBlock:
        """The superblock at ``entry``: from the translation table when
        this process has translated the same program image under the same
        configuration before, freshly translated otherwise."""
        start = time.perf_counter()
        cpu = self.cpu
        digest = self.engine.image_digest()
        if self._image_digest is not digest:
            self._image_digest = digest
            self._image = _ImageKey.of(
                (type(self), cpu.opb is not None, cpu.config,
                 cpu.data_bram.size, digest))
        key = (self._image, entry)
        table = _CODE_CACHE.translations
        translation = table.get(key)
        if translation is not None:
            cached = True
            n, end, static_cycles, make, slots, addresses, fetched = \
                translation
            # Replay the fetch side effects the translation would have
            # had: the decode cache and the instruction-port counter end
            # up exactly as after a fresh translation.
            decoded = cpu._decoded
            if decoded.keys().isdisjoint(addresses):
                decoded.update(zip(addresses, fetched))
                cpu.instr_bram.port_a_accesses += len(addresses)
            else:
                for address, instr in zip(addresses, fetched):
                    if address not in decoded:
                        decoded[address] = instr
                        cpu.instr_bram.port_a_accesses += 1
        else:
            self._fetched = []
            n, end, static_cycles, source, _, slots = self._translate(entry)
            code, cached = compile_source(source, f"<jit block {entry:#x}>")
            make = factory(code)
            if self._fetched is not None:
                # Each word once: a fetch of a decoded word counts no port
                # access.
                fetched = {instr.address: instr for instr in self._fetched}
                table.put(key, (n, end, static_cycles, make, slots,
                                tuple(fetched), tuple(fetched.values())))
        block: JitBlock = (n, bind(make, cpu, slots), entry, end,
                           static_cycles)
        self.blocks[entry] = block
        _record_translation("jit", "block", cached,
                            time.perf_counter() - start)
        return block

    def fault_point(self, entry: int, lineno: int):
        """The interpreter's state when line ``lineno`` of the block at
        ``entry`` raises: ``(pc, imm latch, counter deltas)``, where the
        deltas are the block statistics of the instructions not yet
        executed and ``pc`` is ``None`` on a raiser (which sets
        ``cpu.pc`` itself) or, for an observer raising on a register-held
        branch target, the name of the block-frame local holding it.
        ``None`` for a line outside every instruction.

        Only the fault path calls this: it re-emits the block from the
        decode cache, so no fetch, port count or translation-table entry
        changes, and no translation carries the map.
        """
        self._points = points = []
        try:
            first = self._translate(entry)[4]
        finally:
            self._points = None
        # The last point is the block's end: its deltas are the block's
        # constants.
        final = points[-1][3]
        for index, pc, latch, before in reversed(points):
            if first + index <= lineno:
                return pc, latch, [total - done
                                   for total, done in zip(final, before)]
        return None

    def _fetch(self, pc: int) -> Instruction:
        """:meth:`MicroBlazeCPU.fetch` for translation, recording the
        fetch for replay on later translation-table hits."""
        if self._points is not None:
            # Re-derivation: every word the translation decoded is still
            # cached, and a missing one is where its fetch faulted.
            instr = self.cpu._decoded.get(pc)
            if instr is None:
                raise MemoryError_(f"no decoded instruction at {pc:#x}")
            return instr
        try:
            instr = self.cpu.fetch(pc)
        except (EncodingError, MemoryError_):
            self._fetched = None
            raise
        if self._fetched is not None:
            self._fetched.append(instr)
        return instr

    def _translate(self, entry: int) -> Tuple[int, int, int, str, int,
                                              tuple]:
        """Fetch, decode and emit the superblock at ``entry``: ``(n, end,
        static_cycles, source, first body line, slots)``."""
        cpu = self.cpu
        timings = cpu.config.timings
        points = self._points
        lines: List[str] = []
        deltas = [0] * (CNT_CLASS_CYCLES + len(CLASS_INDEX))
        # Statically known straight-line cycles (the dispatch loop's
        # tick-deadline pre-check).
        static_cycles = 0
        n = 0
        pc = entry
        pending_imm: Optional[int] = None
        # The terminator's static target.
        target: Optional[int] = None
        # The pc a fault in the terminator's lines leaves; ``None`` for a
        # raiser, which sets cpu.pc itself.
        fault_pc: Optional[int] = None
        self._known = {}
        self._bound = {}

        while True:
            end = pc
            try:
                instr = self._fetch(pc)
            except (EncodingError, MemoryError_):
                # Undecodable word or fetch past the BRAM end: generate a
                # raiser so the fault fires at run time, at the same point
                # and with the same exception as the interpreter's fetch.
                term = self._raiser(pc, f"cpu.fetch({pc})",
                                    "refetch did not raise")
                break

            unit = instr.requires
            if unit is not None and not cpu.config.has_unit(unit):
                message = (f"{instr.mnemonic} at {instr.address:#x} requires "
                           f"the {unit.value} which is not configured")
                term = self._raiser(pc,
                                    f"raise IllegalInstruction({message!r})",
                                    None)
                break

            klass = instr.klass
            if klass is InstrClass.IMM_PREFIX:
                pending_imm = instr.imm & 0xFFFF
                static_cycles += timings.imm_prefix
                self._delta(deltas, klass, timings.imm_prefix)
                n += 1
                pc += 4
                continue

            if instr.is_branch:
                target = self._static_target(pc, instr, pending_imm)
                # A block branching back to its own entry is a self-loop
                # (an unconditional branch to itself is the halt idiom).
                loop = target == entry and (
                    instr.klass is InstrClass.BRANCH_COND
                    or (instr.klass is InstrClass.BRANCH_UNCOND
                        and entry != pc))
                term, extra, end, fault_pc = self._terminator(
                    pc, instr, pending_imm, loop)
                n += 1 + extra
                break

            cycles = self._cycles(timings, klass)
            static_cycles += cycles
            if points is not None:
                points.append((len(lines), pc, pending_imm, list(deltas)))
            lines += self._straightline(instr, pending_imm)
            self._track(instr, pending_imm)
            self._delta(deltas, klass, cycles)
            if klass is InstrClass.LOAD:
                deltas[CNT_LOADS] += 1
            elif klass is InstrClass.STORE:
                deltas[CNT_STORES] += 1
            pending_imm = None
            n += 1
            pc += 4

            if n >= MAX_BLOCK_INSTRUCTIONS:
                term, end = _Terminator([], str(pc), []), pc - 4
                break

        if points is not None:
            # Only a delay slot or a raiser can fault in the terminator's
            # lines.
            points.append((len(lines), fault_pc, pending_imm, list(deltas)))
        # The branch's and its delay slot's statistics are block constants
        # from here on, so a fault before this point takes them back.
        for index, delta in term.deltas.items():
            deltas[index] += delta
        if points is not None:
            # The block's end, whose deltas are the block's constants, and
            # where a raising observer leaves: the branch has completed,
            # so the pc is its target (a register-held one is the frame's
            # ``_target``) and the latch is clear.
            points.append((len(lines) + len(term.lines),
                           "_target" if target is None else target,
                           None, list(deltas)))
        return self._finish(entry, end, n, deltas, lines, term,
                            static_cycles=static_cycles)

    def _peek(self, pc: int) -> Instruction:
        """The instruction at ``pc`` without a fetch's side effects (no
        decode-cache entry, no port count, no translation-table record);
        raises where :meth:`_fetch` would."""
        cpu = self.cpu
        instr = cpu._decoded.get(pc)
        if instr is not None:
            return instr
        ports = cpu.instr_bram.port_a_accesses
        try:
            return cpu.fetch(pc)
        except (EncodingError, MemoryError_):
            if self._points is None:
                self._fetched = None
            raise
        finally:
            cpu._decoded.pop(pc, None)
            cpu.instr_bram.port_a_accesses = ports

    # ------------------------------------------------------------------ pieces
    @staticmethod
    def _delta(deltas: List[int], klass: InstrClass, cycles: int) -> None:
        """Fold one instruction's static statistics into the block deltas."""
        deltas[CNT_CYCLES] += cycles
        deltas[CNT_INSTRUCTIONS] += 1
        ci = CLASS_INDEX[klass]
        deltas[CNT_CLASS_COUNT + ci] += 1
        deltas[CNT_CLASS_CYCLES + ci] += cycles

    def _track(self, instr: Instruction,
               pending_imm: Optional[int]) -> None:
        """Fold one straight-line instruction into the block-local
        constants: a result computed from constants is known, and a load,
        a divide or a result from any unknown operand is not."""
        rd = instr.rd
        klass = instr.klass
        if not rd or klass is InstrClass.STORE:
            return
        known = self._known
        op = instr.spec.op
        value = None
        if klass is not InstrClass.LOAD and op is not None:
            operands = {"ra": 0 if instr.ra == 0 else known.get(instr.ra),
                        "rb": 0 if instr.rb == 0 else known.get(instr.rb),
                        1: 1,
                        "imm": fuse_imm(pending_imm, instr.imm) & _M,
                        "imm5": instr.imm & 31}
            kind, *sources = op
            args = [operands[name] for name in sources]
            if None not in args:
                value = (UNARY[kind] if len(args) == 1 else BINARY[kind])(
                    *args)
        if value is None:
            known.pop(rd, None)
        else:
            known[rd] = value

    def _static_address(self, instr: Instruction,
                        pending_imm: Optional[int]) -> Optional[int]:
        """The address of a load or store whose base and offset are
        block-local constants, ``None`` otherwise."""
        known = self._known
        base = 0 if instr.ra == 0 else known.get(instr.ra)
        if instr.spec.fmt.value == "A":
            offset = 0 if instr.rb == 0 else known.get(instr.rb)
        else:
            offset = fuse_imm(pending_imm, instr.imm)
        if base is None or offset is None:
            return None
        return (base + offset) & _M

    @staticmethod
    def _cycles(timings, klass: InstrClass) -> int:
        """A straight-line instruction's static cycle cost."""
        if klass is InstrClass.LOAD:
            return timings.load
        if klass is InstrClass.STORE:
            return timings.store
        return timings.for_class(klass)

    @staticmethod
    def _branch_stats(klass: InstrClass, cycles: int) -> Dict[int, int]:
        """A taken branch's statistics, ``cycles`` its static cost."""
        ci = CLASS_INDEX[klass]
        return {CNT_CYCLES: cycles, CNT_INSTRUCTIONS: 1,
                CNT_CLASS_COUNT + ci: 1, CNT_CLASS_CYCLES + ci: cycles,
                CNT_BRANCHES_TAKEN: 1}

    def _slot_stats(self, instr: Instruction,
                    branch: InstrClass) -> Dict[int, int]:
        """A delay slot's static statistics and the branch's double
        charge of its static cycles (an OPB access's penalty is charged
        to both where it happens, see :meth:`_memory`)."""
        klass = instr.klass
        cycles = self._cycles(self.cpu.config.timings, klass)
        ci = CLASS_INDEX[klass]
        stats = {CNT_CYCLES: 2 * cycles, CNT_INSTRUCTIONS: 1,
                 CNT_CLASS_COUNT + ci: 1, CNT_CLASS_CYCLES + ci: cycles,
                 CNT_CLASS_CYCLES + CLASS_INDEX[branch]: cycles}
        if klass is InstrClass.LOAD:
            stats[CNT_LOADS] = 1
        elif klass is InstrClass.STORE:
            stats[CNT_STORES] = 1
        return stats

    @staticmethod
    def _not_taken(klass: InstrClass, saved: int) -> Dict[int, int]:
        """What a not-taken exit adds to a branch counted as taken:
        ``saved`` is the taken cost less the not-taken one."""
        ci = CLASS_INDEX[klass]
        return {CNT_CYCLES: -saved, CNT_CLASS_CYCLES + ci: -saved,
                CNT_BRANCHES_TAKEN: -1, CNT_BRANCHES_NOT_TAKEN: 1}

    @staticmethod
    def _correct(correction: Dict[int, int]) -> List[str]:
        """Lines applying a block's ``correction`` once: its eager
        counters in place, the rest as one count in the correction slot
        ``bc[slot + 1]``."""
        lines = [f"cnt[{index}] {'+' if delta > 0 else '-'}= {abs(delta)}"
                 for index, delta in sorted(correction.items())
                 if index in EAGER and delta]
        return lines + ["bc[slot + 1] += 1"]

    def _raiser(self, pc: int, statement: str,
                unreachable: Optional[str]):
        """A terminator that reproduces an interpreter fault (and sets
        the fault pc: the interpreter's delay-slot checks move it)."""
        lines = [f"cpu.pc = {pc}", statement]
        if unreachable is not None:
            lines.append(f"raise AssertionError('unreachable: "
                         f"{unreachable}')")
        return _Terminator(lines, None, [])

    def _src(self, index: int) -> str:
        """Source of a straight-line register read: the literal of a
        block-local constant (``r0`` reads 0), else the register."""
        value = self._known.get(index)
        return _r(index) if value is None else str(value)

    # --------------------------------------------------------- straight line
    def _straightline(self, instr: Instruction, pending_imm: Optional[int],
                      branch: Optional[InstrClass] = None) -> List[str]:
        """Source for one non-branch instruction.

        Statistics live in the enclosing block's constants and only
        dynamic OPB penalties are recorded inline.  In the delay slot of
        a ``branch`` (its class) the penalty is charged twice, to the slot
        and to the branch (the delay-slot double charge); the slot's
        static statistics are the terminator's (:meth:`_slot_stats`).
        """
        klass = instr.klass
        if klass is InstrClass.LOAD or klass is InstrClass.STORE:
            return self._memory(instr, pending_imm, branch,
                                load=klass is InstrClass.LOAD)
        return self._compute(instr, pending_imm)

    def _compute(self, instr: Instruction,
                 pending_imm: Optional[int]) -> List[str]:
        """ALU / logical / shift / multiply / divide / compare / sext: the
        opcode table's operator rendered over the operand sources, with
        block-local constants as literals (CPython folds what becomes
        constant)."""
        rd = instr.rd
        A, B = self._src(instr.ra), self._src(instr.rb)
        if rd == 0:
            # Writes to r0 are discarded and no compute op has another
            # side effect; the block constants still account for it.
            return []
        op = instr.spec.op
        if op is None:
            if instr.mnemonic == "idiv":
                return [f"regs[{rd}] = signed_division(to_signed({B}), "
                        f"to_signed({A}))"]
            return [f"_d = {A}",
                    f"regs[{rd}] = ({B} // _d) & {_M} if _d else 0"]
        operands = {"ra": A, "rb": B, 1: "1",
                    "imm": str(fuse_imm(pending_imm, instr.imm) & _M),
                    # Barrel-shift immediates use the raw 5-bit field,
                    # never a fused imm prefix.
                    "imm5": str(instr.imm & 31)}
        kind, *sources = op
        return [f"regs[{rd}] = "
                + _operator(kind, [operands[name] for name in sources])]

    def _memory(self, instr: Instruction, pending_imm: Optional[int],
                branch: Optional[InstrClass], load: bool) -> List[str]:
        timings = self.cpu.config.timings
        has_opb = self.cpu.opb is not None
        rd = instr.rd
        width = instr.spec.width
        extra = timings.opb_access_extra
        klass = InstrClass.LOAD if load else InstrClass.STORE
        ci = CLASS_INDEX[klass]
        port_counter = CNT_OPB_READS if load else CNT_OPB_WRITES
        # Loaded words are zero-extended and at most 32 bits wide, so they
        # land in the register unmasked; a load into r0 still accesses
        # memory (faults and port counters) into a scratch local.
        value = (f"regs[{rd}]" if rd else "_v") if load else self._src(rd)
        access = inline_access_source(
            load, width, "_a", value, "dmem", "dwords", "dhalves",
            "bram_load" if load else "bram_store",
            str(self.cpu.data_bram.size - width), _PORT_A)

        offset = self._src(instr.rb) if instr.spec.fmt.value == "A" \
            else str(fuse_imm(pending_imm, instr.imm) & _M)
        lines = ["_a = " + _operator(OpKind.ADD,
                                     [self._src(instr.ra), offset])]
        if not has_opb:
            # No peripheral bus attached: the OPB arm can never be taken,
            # so the access specializes to the data BRAM alone.
            return lines + access

        # The dynamic OPB penalty; a delay slot's is charged to the branch
        # too.
        if branch is None:
            penalty = [f"cnt[{CNT_CYCLES}] += {extra}",
                       f"cnt[{CNT_CLASS_CYCLES + ci}] += {extra}"]
        else:
            penalty = [f"cnt[{CNT_CYCLES}] += {2 * extra}",
                       f"cnt[{CNT_CLASS_CYCLES + ci}] += {extra}",
                       f"cnt[{CNT_CLASS_CYCLES + CLASS_INDEX[branch]}] "
                       f"+= {extra}"]
        penalty.append(f"cnt[{port_counter}] += 1")
        # One bus call decodes the address and accesses the peripheral.
        if not load:
            access_opb = f"opb_write(_a, {value})"
        elif rd:
            access_opb = "(_o := opb_read(_a)) is not None"
        else:
            access_opb = "opb_read(_a) is not None"
        lines.append(f"if _a >= {OPB_BASE_ADDRESS} and {access_opb}:")
        if load and rd:
            lines.append(f"    {value} = _o")
        lines += ["    " + line for line in penalty]
        lines.append("else:")
        lines += ["    " + line for line in access]

        address = self._static_address(instr, pending_imm)
        if address is not None and address >= OPB_BASE_ADDRESS:
            lines = self._bound_access(address, load, value, penalty, lines)
        return lines

    def _bound_access(self, address: int, load: bool, value: str,
                      penalty: List[str], generic: List[str]) -> List[str]:
        """A static OPB access: the owner's bound ``read``/``write`` at the
        offset the factory resolved (``_b<k>``, ``_f<k>``), with
        :meth:`~repro.microblaze.opb.OnChipPeripheralBus.try_read` /
        ``try_write``'s counter and mask, or the ``generic`` lines when
        no peripheral owned the address at bind time."""
        key = (address, not load)
        index = self._bound.setdefault(key, len(self._bound))
        call, offset = f"_b{index}", f"_f{index}"
        if load:
            counter = "opb.reads += 1"
            access = f"{value} = {call}({offset}) & {_M}"
        else:
            counter = "opb.writes += 1"
            access = f"{call}({offset}, {value} & {_M})"
        return ([f"if {call} is not None:", f"    {counter}",
                 f"    {access}"]
                + ["    " + line for line in penalty] + ["else:"]
                + ["    " + line for line in generic])

    # ------------------------------------------------------------ terminators
    def _terminator(self, pc: int, instr: Instruction,
                    pending_imm: Optional[int], loop: bool):
        """Source for the branch ending a block (plus its delay slot), in
        its self-loop form (:meth:`_loop_branch`) when ``loop`` is set and
        the slot can run.

        Returns ``(terminator, extra_instructions, end_address,
        fault_pc)``, where ``fault_pc`` is the pc a fault in the
        terminator's lines leaves (``None`` when a raiser sets it).
        """
        end = pc
        slot: Optional[List[str]] = None
        stats: Dict[int, int] = {}
        extra = 0
        # The static halt idiom (an unconditional branch to itself) skips
        # its slot, so the slot is not even fetched (as in the interpreter).
        # A register-held unconditional branch halts or not at run time:
        # the translation reads its slot without a trace and the generated
        # code fetches the slot only when the branch does not halt.
        uncond = instr.klass is InstrClass.BRANCH_UNCOND
        target = self._static_target(pc, instr, pending_imm)
        dynamic_halt = uncond and target is None
        if instr.klass is InstrClass.CALL:
            # The link register is written before the slot runs.
            self._known.pop(instr.rd, None)
        if instr.has_delay_slot and not (uncond and target == pc):
            end = pc + 4
            try:
                slot_instr = self._peek(pc + 4) if dynamic_halt \
                    else self._fetch(pc + 4)
            except (EncodingError, MemoryError_):
                slot_instr = None
            raiser = self._slot_raiser(pc, instr, slot_instr)
            if raiser is not None:
                # A register-held branch reaches the fault only when it
                # does not halt.
                term = self._uncond_branch(pc, instr, pending_imm, raiser) \
                    if dynamic_halt else _Terminator(raiser, None, [])
                return term, 0, end, None
            # The imm latch is cleared only after the whole branch — slot
            # included — so a pending prefix fuses into the slot too.
            slot = self._straightline(slot_instr, pending_imm, instr.klass)
            stats = self._slot_stats(slot_instr, instr.klass)
            if dynamic_halt:
                slot.insert(0, f"cpu.fetch({pc + 4})")
            extra = 1

        if loop:
            term = self._loop_branch(pc, instr, target, slot, stats)
        elif instr.klass is InstrClass.BRANCH_COND:
            term = self._cond_branch(pc, instr, pending_imm, slot, stats)
        else:
            term = self._uncond_branch(pc, instr, pending_imm, slot, stats)
        return term, extra, end, end

    def _slot_raiser(self, pc: int, instr: Instruction,
                     slot_instr: Optional[Instruction]
                     ) -> Optional[List[str]]:
        """Raiser lines for a delay slot the interpreter faults on — its
        fetch (``slot_instr`` is ``None``), a branch or ``imm`` in it, or
        a unit it needs — or ``None`` for a slot that runs.  A call
        writes its link register first, as the interpreter does."""
        if slot_instr is None:
            statement = f"cpu.fetch({pc + 4})"
            unreachable = "slot refetch did not raise"
        elif slot_instr.is_branch \
                or slot_instr.klass is InstrClass.IMM_PREFIX:
            statement = f"cpu._execute_delay_slot({pc})"
            unreachable = "delay slot check did not raise"
        elif slot_instr.requires is not None \
                and not self.cpu.config.has_unit(slot_instr.requires):
            # The interpreter charges neither the branch nor the slot
            # (the fault fires inside the slot's unit check, before the
            # branch's stats.record); defer to its own execution.
            statement = f"cpu._execute_delay_slot({pc})"
            unreachable = "slot unit check did not raise"
        else:
            return None
        link = [f"regs[{instr.rd}] = {pc & _M}"] \
            if instr.klass is InstrClass.CALL and instr.rd else []
        return link + self._raiser(pc, statement, unreachable)[0]

    @staticmethod
    def _static_target(pc: int, instr: Instruction,
                       pending_imm: Optional[int]) -> Optional[int]:
        """The target of a branch with an immediate target, ``None`` for
        a register-held or return target."""
        if instr.klass is InstrClass.RETURN or instr.spec.fmt.value == "A":
            return None
        imm = fuse_imm(pending_imm, instr.imm)
        return imm & _M if instr.spec.absolute \
            else (pc + to_signed(imm)) & _M

    def _cond_branch(self, pc: int, instr: Instruction,
                     pending_imm: Optional[int],
                     slot: Optional[List[str]], stats: Dict[int, int]):
        """A conditional branch, counted as taken in the block's
        statistics (``stats``: its delay slot's); a not-taken branch adds
        its correction once, after the slot ran."""
        timings = self.cpu.config.timings
        klass = InstrClass.BRANCH_COND
        fallthrough = pc + 8 if slot is not None else pc + 4

        cond = relation_source(instr.spec.condition.name.lower(), "_x")

        # Observers hear only taken backward branches: a register-held
        # target is tested at run time, a static one at translation.
        static_target = self._static_target(pc, instr, pending_imm)
        lines = [f"_x = {_r(instr.ra)}", f"if {cond}:", "    _taken = True"]
        if static_target is None:
            lines.append(f"    _target = ({pc} + to_signed({_r(instr.rb)}))"
                         f" & {_M}")
            target = "_target"
            backward: Optional[str] = f"_taken and _target < {pc}"
        else:
            target = str(static_target)
            backward = "_taken" if static_target < pc else None
        lines += ["else:", "    _taken = False"]
        correction = self._not_taken(
            klass, timings.branch_taken - timings.branch_not_taken)
        correct = ["    " + line for line in self._correct(correction)]
        if slot is None:
            lines += correct
        else:
            # The slot executes before the branch completes (interpreter
            # order: a faulting slot leaves the branch unrecorded).
            lines += slot + ["if not _taken:"] + correct
        hook = [] if backward is None \
            else _backward_hook(backward, pc, target)
        return _Terminator(
            lines, f"{target} if _taken else {fallthrough}", hook,
            _plus(self._branch_stats(klass, timings.branch_taken), stats),
            correction)

    def _uncond_branch(self, pc: int, instr: Instruction,
                       pending_imm: Optional[int],
                       slot: Optional[List[str]],
                       stats: Optional[Dict[int, int]] = None):
        """BRANCH_UNCOND, CALL and RETURN terminators (always taken);
        ``stats`` are the delay slot's statistics, which a register-held
        branch that halts (and so skips the slot) takes back."""
        timings = self.cpu.config.timings
        klass = instr.klass
        is_uncond = klass is InstrClass.BRANCH_UNCOND
        is_call = klass is InstrClass.CALL
        rd = instr.rd
        static_target = self._static_target(pc, instr, pending_imm)
        if klass is InstrClass.RETURN:
            base = timings.ret
        else:
            base = timings.call if is_call else timings.branch_taken
        deltas = _plus(self._branch_stats(klass, base), stats or {})

        if static_target is None:
            hook = _backward_hook(f"_target < {pc}", pc, "_target")
        elif static_target < pc:
            hook = _backward_hook("", pc, str(static_target))
        else:
            hook = []

        call_write = [f"regs[{rd}] = {pc & _M}"] if is_call and rd else []

        if static_target is not None and is_uncond and static_target == pc:
            # An unconditional branch to itself is the halt idiom; its
            # slot was never fetched (as in the interpreter).
            return _Terminator(["cpu.halted = True"], str(static_target),
                               hook, deltas)

        if static_target is not None:
            return _Terminator(call_write + list(slot or ()),
                               str(static_target), hook, deltas)

        # Dynamic target: the halt check (unconditional branches only)
        # happens at run time, and a halting branch skips its slot.
        if klass is InstrClass.RETURN:
            target_expr = (f"({_r(instr.ra)} + "
                           f"{fuse_imm(pending_imm, instr.imm)}) & {_M}")
        elif instr.spec.absolute:
            target_expr = f"{_r(instr.rb)} & {_M}"
        else:
            target_expr = f"({pc} + to_signed({_r(instr.rb)})) & {_M}"
        lines = [f"_target = {target_expr}"] + call_write
        correction: Dict[int, int] = {}
        if is_uncond:
            lines.append(f"if _target == {pc}:")
            lines.append("    cpu.halted = True")
            if slot is not None:
                if stats:
                    correction = {index: -delta
                                  for index, delta in stats.items()}
                    lines += ["    " + line
                              for line in self._correct(correction)]
                lines.append("else:")
                lines += ["    " + line for line in slot]
        elif slot is not None:
            lines += slot
        return _Terminator(lines, "_target", hook, deltas, correction)

    def _loop_branch(self, pc: int, instr: Instruction, entry: int,
                     slot: Optional[List[str]],
                     stats: Dict[int, int]) -> _Terminator:
        """The branch of a self-loop back to its ``entry`` (plus its delay
        ``slot``, whose statistics and double charge are ``stats``).

        Per iteration it only computes ``_taken`` and tests it: the
        branch's statistics are block constants, counted as taken, and a
        not-taken exit adds its correction once.  A slot's OPB penalty
        stays dynamic (:meth:`_memory`).  Observers hear the taken
        backward branch per iteration only while one of them lacks the
        bulk method (``_each``); otherwise the loop's exit delivers the
        count.
        """
        timings = self.cpu.config.timings
        klass = instr.klass
        lines = list(slot or ())
        deltas = _plus(self._branch_stats(klass, timings.branch_taken),
                       stats)
        if entry < pc:
            bulk = (pc, entry)
            hooks = ["if _each:", "    for _h in hooks:",
                     f"        _h.on_backward_branch({pc}, {entry})"]
        else:
            bulk, hooks = None, []
        if klass is InstrClass.BRANCH_UNCOND:
            return _Terminator(lines, str(entry), hooks, deltas, loop=True,
                               bulk=bulk)
        relation = relation_source(instr.spec.condition.name.lower(),
                                   _r(instr.ra))
        fallthrough = pc + 8 if slot is not None else pc + 4
        correction = self._not_taken(
            klass, timings.branch_taken - timings.branch_not_taken)
        # The condition reads the register before the slot runs.
        lines = [f"_taken = {relation}"] + lines \
            + ["if not _taken:", "    break"]
        return _Terminator(lines, f"{entry} if _taken else {fallthrough}",
                           hooks, deltas, correction, True, bulk)

    # ------------------------------------------------------------------ emit
    def _finish(self, entry: int, end: int, n: int, deltas: List[int],
                body: List[str], term: _Terminator, static_cycles: int = 0
                ) -> Tuple[int, int, int, str, int, tuple]:
        """Assemble the block's source: ``(n, end, static_cycles, source,
        first, slots)``, where ``first`` is the source line of ``body[0]``
        (the fault-point line map) and ``slots`` the sparse deltas of the
        block's execution-count slots: its statistics, then its
        correction's when it has one (:meth:`JitEngine.add_slots`).

        A block that is not a self-loop adds its statistics wholesale on
        entry: the :data:`EAGER` counters to ``cnt``, the rest as one
        count in ``bc[slot]``."""
        slots = (_sparse(enumerate(deltas)),)
        if term.correction:
            slots += (_sparse(term.correction.items()),)
        lines = body + term.lines + term.hooks
        if not term.loop:
            header = ["bc[slot] += 1"] if slots[0] else []
            header += [f"cnt[{index}] += {deltas[index]}"
                       for index in EAGER if deltas[index]]
            footer = [] if term.next is None else [f"return {term.next}"]
        else:
            header, lines, footer = self._self_loop(deltas, lines, term)
        indented = "\n".join("        " + line
                             for line in header + lines + footer)
        # The factory resolves the static OPB addresses once per bind.
        prologue = "".join(
            f"    _b{index}, _f{index} = opb.resolve({address}, {write})\n"
            for (address, write), index in self._bound.items())
        source = (
            f"def _make({FACTORY_PARAMS}):\n"
            f"{prologue}"
            "    def _block(_limit):\n"
            f"{indented}\n"
            "    return _block\n"
        )
        # Line 1 defines the factory, then its prologue, then the block.
        return (n, end, static_cycles, source,
                3 + len(self._bound) + len(header), slots)

    @staticmethod
    def _self_loop(deltas: List[int], lines: List[str], term: _Terminator):
        """``(header, loop, footer)`` of a block that branches back to its
        own entry: it iterates until the branch falls through or
        ``_limit`` (at least 1) iterations have run.  The registers it
        touches, the counters it updates and its data-BRAM port-A count
        live in locals.  Its exit adds its iterations ``_i`` to its slot
        ``bc[slot]`` (and ``_nt``, whether the branch fell through, to
        the correction slot ``bc[slot + 1]``), and ``delta * _i`` only to
        the :data:`EAGER` counters.  A fault flushes the same before it
        propagates, so the fault point takes back only the unearned part
        of the current iteration.  With bulk observers the exit also
        delivers the taken backward branches: all of them, or on a fault
        all but the current iteration's."""
        text = "\n".join(lines)
        touched = sorted(set(map(int, _REG.findall(text))))
        written = sorted(set(map(int, _REG_WRITE.findall(text))))
        dynamic = set(map(int, _CNT.findall(text)))
        ports = _PORT_A in text
        header = [f"r{index} = regs[{index}]" for index in touched]
        if dynamic:
            header.append(" = ".join(f"c{index}" for index in sorted(dynamic))
                          + " = 0")
        if ports:
            header.append("_pa = 0")
        if term.bulk is not None:
            # The flag is read once per call.
            header.append("_each = hooks and not cpu._bulk_observers")
        header += ["_i = 0", "try:", "    for _i in range(1, _limit + 1):"]
        body = ["        " + _CNT.sub(r"c\1", _REG.sub(r"r\1", line))
                .replace(_PORT_A, "_pa += 1") for line in lines]

        def flush(fell_through: bool, branches: str) -> List[str]:
            out = [f"regs[{index}] = r{index}" for index in written]
            for index in sorted(dynamic.union(EAGER)):
                eager = index in EAGER
                expr = _scaled(f"c{index}" if index in dynamic else "",
                               deltas[index] if eager else 0, "_i")
                if fell_through and eager:
                    expr = _scaled(expr, term.correction.get(index, 0),
                                   "_nt")
                if expr:
                    out.append(f"cnt[{index}] += {expr}")
            out.append("bc[slot] += _i")
            if fell_through:
                out.append("bc[slot + 1] += _nt")
            if ports:
                out.append("dbram.port_a_accesses += _pa")
            if term.bulk is not None:
                out += ["if hooks and not _each:", "    for _h in hooks:",
                        f"        _h.on_backward_branches("
                        f"{term.bulk[0]}, {term.bulk[1]}, {branches})"]
            return out

        footer = ["except BaseException:"]
        footer += ["    " + line for line in flush(False, "_i - 1")]
        footer.append("    raise")
        if term.correction:
            footer += ["_nt = not _taken"] + flush(True, "_i - _nt")
        else:
            footer += flush(False, "_i")
        return header, body, footer + [f"return {term.next}"]


class JitEngine(ExecutionEngine):
    """Block-at-a-time dispatch over generated-source superblocks."""

    supports_max_cycles = False
    supports_halt_address = False

    def __init__(self, cpu) -> None:
        super().__init__(cpu)
        #: Execution counts of the bound blocks' slots, and each slot's
        #: sparse ``(counter index, delta)`` pairs (:func:`bind`).  A
        #: slot lives as long as the engine: an invalidated translation's
        #: slots stay behind, folded to zero.
        self.bc: List[int] = []
        self.slot_deltas: List[tuple] = []
        self.compiler = SourceBlockCompiler(self)

    def add_slots(self, slots: tuple) -> int:
        """Append execution-count slots with these sparse deltas and
        return the index of the first."""
        first = len(self.bc)
        self.bc += [0] * len(slots)
        self.slot_deltas += slots
        return first

    def fold_block_counts(self, counters: List[int]) -> None:
        """Add Σ ``bc[slot] × deltas[slot]`` into ``counters`` and zero
        the counts."""
        bc = self.bc
        deltas = self.slot_deltas
        for slot, count in enumerate(bc):
            if count:
                for index, delta in deltas[slot]:
                    counters[index] += count * delta
                bc[slot] = 0

    @staticmethod
    def _block_range(block: tuple) -> Tuple[int, int]:
        return block[2], block[3]

    def _fault_point(self, block: JitBlock, exc: BaseException,
                     pc: int) -> int:
        """Rewind the counters and the ``imm`` latch to the interpreter's
        state where ``block`` raised ``exc``, and return the fault pc
        (``pc`` when the exception did not come from the block).

        The block's frame in the traceback names the faulting line; the
        compiler re-derives which instruction it belongs to and which
        block statistics, added wholesale on entry, were not earned.
        """
        code = block[1].__code__
        tb = exc.__traceback__
        while tb is not None and tb.tb_frame.f_code is not code:
            tb = tb.tb_next
        point = None if tb is None \
            else self.compiler.fault_point(block[2], tb.tb_lineno)
        if point is None:
            return pc
        fault_pc, latch, unearned = point
        counters = self.cpu._counters
        for index, count in enumerate(unearned):
            counters[index] -= count
        self.cpu._imm_latch = latch
        if isinstance(fault_pc, str):
            return tb.tb_frame.f_locals[fault_pc]
        return self.cpu.pc if fault_pc is None else fault_pc

    # ------------------------------------------------------------- dispatch
    def run(self, max_instructions: int,
            max_cycles: Optional[int] = None) -> None:
        cpu = self.cpu
        # A pending imm latch (left by manual step() calls) is consumed by
        # the interpreter so that block entry always starts latch-free,
        # which is what the statically fused translations assume.
        cpu._drain_imm_latch(max_instructions)
        counters = cpu._counters
        blocks = self.blocks
        compile_block = self.compiler.compile_block
        opb = cpu.opb
        ticking = opb is not None and opb.ticking
        # The counters are folded into stats between runs, so the
        # instructions executed are ``base`` plus the counter.
        base = executed = cpu.stats.instructions
        near_budget = False
        pc = cpu.pc
        block = None
        try:
            while not cpu.halted:
                block = blocks.get(pc)
                if block is None:
                    block = compile_block(pc)
                n = block[0]
                if executed + n > max_instructions:
                    near_budget = True
                    break
                if ticking:
                    deadline = opb.next_deadline()
                    if deadline is not None and deadline < block[4]:
                        # A peripheral boundary falls inside this block:
                        # interpreter granularity until it has passed.
                        # The counters fold into stats first (exact
                        # budget checks; the block counts wait for the
                        # end of the run) and any imm latch the step leaves is
                        # drained — fused translations assume latch-free
                        # entry.  The interpreter keeps cpu.pc, also at
                        # a fault.
                        cpu._sync_counters(fold=False)
                        cpu.pc = pc
                        try:
                            cpu.step()
                            cpu._drain_imm_latch(max_instructions)
                        finally:
                            pc = cpu.pc
                        base = executed = cpu.stats.instructions
                        continue
                    cycles_before = counters[CNT_CYCLES]
                    try:
                        # One iteration: the deadline check above stays
                        # per iteration of a self-loop.
                        pc = block[1](1)
                    except BaseException as exc:
                        pc = self._fault_point(block, exc, pc)
                        block = None  # rewound: not again below
                        raise
                    finally:
                        # Deliver the accrued cycles even when the block
                        # faults mid-way: ticked time is the statistics
                        # recorded up to the fault point.
                        opb.tick_bounded(counters[CNT_CYCLES]
                                         - cycles_before)
                    executed += n
                    continue
                # A self-loop runs at most this many iterations, so it
                # never crosses the instruction budget (n is 0 only for
                # a raiser at its entry).
                pc = block[1]((max_instructions - executed) // (n or 1))
                executed = base + counters[CNT_INSTRUCTIONS]
        except BaseException as exc:
            if block is not None:
                pc = self._fault_point(block, exc, pc)
            raise
        finally:
            cpu.pc = pc
            cpu._sync_counters()
        if near_budget:
            # Within one block of the budget: finish (or fault) on the
            # interpreter, whose per-instruction checks raise at exactly
            # the same point the reference engine does.
            cpu._run_interpreted(max_instructions, None)


register_engine("jit", JitEngine)
