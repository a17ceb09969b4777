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
* the block's static statistics are folded into a handful of
  pre-aggregated constant counter additions at the top,
* only genuinely dynamic contributions (OPB access penalties, branch
  taken/not-taken cycles, delay-slot costs) remain as runtime code,
* the terminating branch sits at the end and returns the next program
  counter (backward-branch observer calls included),

``exec``\\ s it once into a cached closure — CPU state (register file,
counter array, memories, peripheral bus, observer list) is bound via
an outer factory function, so the hot path runs on fast closure lookups —
and then dispatches block-at-a-time: one Python call per superblock.

Each program is translated once per process: a per-program translation
table (``_CODE_CACHE.translations``) maps the instruction-BRAM digest, the
configuration and the entry pc to the finished translation, so a fresh
system running an already-seen program only replays the recorded fetches
and binds closures.  Data-BRAM loads and stores index the BRAM storage
directly when the address is valid and fall back to the checked
:class:`~repro.microblaze.memory.BlockRAM` methods otherwise, which
raise the interpreter's exact fault.

A data instruction's body is its opcode-table operator
(:attr:`~repro.isa.instructions.OpSpec.op`) rendered by
:func:`repro.isa.semantics.source`, and branch conditions by
:func:`~repro.isa.semantics.relation_source`: unsigned-word templates the
WCLA kernels share, written apart from the reference callables the
interpreter applies.

Semantics are defined by the ``interp`` reference interpreter: the
generated code reproduces it bit-exactly on fault-free runs (statistics,
cycles, branch-event streams, memory-port counters, the seed's delay-slot
double charge), compiles compile-time faults into raiser blocks that
fire at the same execution point with the same exception and message,
and supports ``precise_fault_stats`` by emitting per-instruction
statistics/pc/imm-latch maintenance instead of the wholesale block
constants — a mid-block runtime fault then leaves exactly the
interpreter's fault-point state.  One divergence is known and
intentional in default mode: a *runtime* fault (misaligned access,
unmapped OPB address) landing mid-block can leave statistics ahead by up
to one block, because block statistics are applied wholesale.
Architectural state is identical either way.

OPB peripheral time is batched: one ``tick(n)`` per block for opted-in
peripherals, dropping to interpreter granularity when a declared tick
deadline falls inside the block, so timed device models never observe a
batch crossing their deadline.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from ... import obs
from ...caching import BoundedLRU
from ...isa.encoding import EncodingError
from ...isa.instructions import Instruction, InstrClass
from ...isa.registers import WORD_MASK, to_signed
from ...isa.semantics import fuse_imm, relation_source, source
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
#: end_address, static_cycles)``.  ``fn()`` executes the whole block —
#: statistics constants, inlined bodies, terminator — and returns the next
#: program counter.  ``static_cycles`` is the statically known cycle count
#: (the deadline pre-check of the tick-batching dispatch loop).
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

    The translation table maps ``(compiler class, precise_fault_stats,
    OPB present, cpu.config, data BRAM size, instruction BRAM digest,
    entry pc)`` to ``(n, end, static_cycles, code, fetched)``, where
    ``fetched`` holds the instructions the translation fetched.
    Everything block emission reads is in the key, so a fresh system
    running a program this process has already run — a service job, a
    sweep pass, the evaluation harness — only replays those fetches and
    binds a closure: no fetch, decode or source emission.  Its own,
    smaller bound keeps a stream of distinct programs from holding every
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


def _codegen_bucket(label: str) -> Dict[str, float]:
    bucket = _CODEGEN.get(label)
    if bucket is None:
        bucket = _CODEGEN[label] = dict.fromkeys(_CODEGEN_KEYS, 0)
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


def _r(index: int) -> str:
    """Source expression for a register read (r0 reads as the literal 0)."""
    return "0" if index == 0 else f"regs[{index}]"


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
#: translation binds, see :func:`bind`.
FACTORY_PARAMS = ("cpu, regs, cnt, bram_load, bram_store, opb_owns, "
                  "opb_read, opb_write, hooks, to_signed, signed_division, "
                  "IllegalInstruction, dmem, dbram")


def compile_source(source: str, filename: str):
    """The code object of generated ``source`` and whether it came from
    :data:`_CODE_CACHE`."""
    hits_before = _CODE_CACHE.hits
    code = _CODE_CACHE.get_or_create(
        source, lambda: compile(source, filename, "exec"))
    return code, _CODE_CACHE.hits > hits_before


def bind(code, cpu):
    """Run a generated module's code object and call its ``_make``
    factory with ``cpu``'s state.

    Register file, counter array, observer list and BRAM storage keep
    their identity for the CPU's lifetime, so one bind lasts until the
    engine invalidates the translation.
    """
    from ..cpu import IllegalInstruction
    namespace: Dict[str, object] = {}
    exec(code, namespace)
    opb = cpu.opb
    dbram = cpu.data_bram
    return namespace["_make"](
        cpu, cpu.registers, cpu._counters, dbram.load, dbram.store,
        opb.owns if opb is not None else None,
        opb.read if opb is not None else None,
        opb.write if opb is not None else None,
        cpu._observers, to_signed, signed_division, IllegalInstruction,
        dbram.storage, dbram,
    )


class SourceBlockCompiler:
    """Generates, compiles and caches jit superblocks for one engine."""

    def __init__(self, engine: ExecutionEngine) -> None:
        self.engine = engine
        self.cpu = cpu = engine.cpu
        self.blocks = engine.blocks
        self.precise = bool(getattr(cpu, "precise_fault_stats", False))
        #: Instructions fetched by the translation in progress; ``None``
        #: once a fetch faulted (raiser blocks are never shared through the
        #: translation table).
        self._fetched: Optional[List[Instruction]] = None

    # ------------------------------------------------------------------ entry
    def compile_block(self, entry: int) -> JitBlock:
        """The superblock at ``entry``: from the translation table when
        this process has translated the same program image under the same
        configuration before, freshly translated otherwise."""
        start = time.perf_counter()
        cpu = self.cpu
        key = (type(self), self.precise, cpu.opb is not None, cpu.config,
               cpu.data_bram.size, self.engine.image_digest(), entry)
        table = _CODE_CACHE.translations
        translation = table.get(key)
        if translation is not None:
            cached = True
            n, end, static_cycles, code, fetched = translation
            # Replay the fetch side effects the translation would have
            # had: the decode cache and the instruction-port counter end
            # up exactly as after a fresh translation.
            decoded = cpu._decoded
            for instr in fetched:
                if instr.address not in decoded:
                    decoded[instr.address] = instr
                    cpu.instr_bram.port_a_accesses += 1
        else:
            self._fetched = []
            n, end, static_cycles, source = self._translate(entry)
            code, cached = compile_source(source, f"<jit block {entry:#x}>")
            if self._fetched is not None:
                table.put(key, (n, end, static_cycles, code,
                                tuple(self._fetched)))
        block: JitBlock = (n, bind(code, cpu), entry, end,
                           static_cycles)
        self.blocks[entry] = block
        _record_translation("jit", "block", cached,
                            time.perf_counter() - start)
        return block

    def _fetch(self, pc: int) -> Instruction:
        """:meth:`MicroBlazeCPU.fetch` for translation, recording the
        fetch for replay on later translation-table hits."""
        try:
            instr = self.cpu.fetch(pc)
        except (EncodingError, MemoryError_):
            self._fetched = None
            raise
        if self._fetched is not None:
            self._fetched.append(instr)
        return instr

    def _translate(self, entry: int) -> Tuple[int, int, int, str]:
        """Fetch, decode and emit the superblock at ``entry``: ``(n, end,
        static_cycles, source)``."""
        cpu = self.cpu
        precise = self.precise
        timings = cpu.config.timings
        lines: List[str] = []
        deltas = [0] * (CNT_CLASS_CYCLES + len(CLASS_INDEX))
        # Statically known straight-line cycles, tracked in both modes
        # (precise blocks fold nothing into constants, but the dispatch
        # loop's tick-deadline pre-check still needs the bound).
        static_cycles = 0
        n = 0
        pc = entry
        pending_imm: Optional[int] = None

        while True:
            try:
                instr = self._fetch(pc)
            except (EncodingError, MemoryError_):
                # Undecodable word or fetch past the BRAM end: generate a
                # raiser so the fault fires at run time, at the same point
                # and with the same exception as the interpreter's fetch.
                term = self._raiser(pc, f"cpu.fetch({pc})",
                                    "refetch did not raise")
                return self._finish(entry, pc, n, deltas, lines, *term,
                                    static_cycles=static_cycles)

            unit = instr.requires
            if unit is not None and not cpu.config.has_unit(unit):
                message = (f"{instr.mnemonic} at {instr.address:#x} requires "
                           f"the {unit.value} which is not configured")
                term = self._raiser(pc,
                                    f"raise IllegalInstruction({message!r})",
                                    None)
                return self._finish(entry, pc, n, deltas, lines, *term,
                                    static_cycles=static_cycles)

            klass = instr.klass
            if klass is InstrClass.IMM_PREFIX:
                pending_imm = instr.imm & 0xFFFF
                static_cycles += timings.imm_prefix
                if precise:
                    lines += [
                        f"cpu.pc = {pc}",
                        f"cpu._imm_latch = {pending_imm}",
                    ]
                    lines += self._count(InstrClass.IMM_PREFIX,
                                         timings.imm_prefix)
                else:
                    self._delta(deltas, klass, timings.imm_prefix)
                n += 1
                pc += 4
                continue

            if instr.is_branch:
                term, extra, end = self._terminator(pc, instr, pending_imm)
                n += 1 + extra
                return self._finish(entry, end, n, deltas, lines, *term,
                                    static_cycles=static_cycles)

            if klass is InstrClass.LOAD:
                cycles = timings.load
            elif klass is InstrClass.STORE:
                cycles = timings.store
            else:
                cycles = timings.for_class(klass)
            static_cycles += cycles
            body = self._straightline(instr, pending_imm,
                                      dynamic_stats=precise)
            if precise:
                lines.append(f"cpu.pc = {pc}")
                lines += body
                if pending_imm is not None:
                    lines.append("cpu._imm_latch = None")
            else:
                lines += body
                self._delta(deltas, klass, cycles)
                if klass is InstrClass.LOAD:
                    deltas[CNT_LOADS] += 1
                elif klass is InstrClass.STORE:
                    deltas[CNT_STORES] += 1
            pending_imm = None
            n += 1
            pc += 4

            if n >= MAX_BLOCK_INSTRUCTIONS and pending_imm is None:
                return self._finish(entry, pc - 4, n, deltas, lines,
                                    [], str(pc),
                                    static_cycles=static_cycles)

    # ------------------------------------------------------------------ pieces
    @staticmethod
    def _delta(deltas: List[int], klass: InstrClass, cycles: int) -> None:
        """Fold one instruction's static statistics into the block deltas."""
        deltas[CNT_CYCLES] += cycles
        deltas[CNT_INSTRUCTIONS] += 1
        ci = CLASS_INDEX[klass]
        deltas[CNT_CLASS_COUNT + ci] += 1
        deltas[CNT_CLASS_CYCLES + ci] += cycles

    @staticmethod
    def _count(klass: InstrClass, cycles, extra: str = "") -> List[str]:
        """Source lines recording one instruction's own statistics.

        ``cycles`` is an int literal or the name of a local holding the
        dynamic cycle count; ``extra`` optionally names one more scalar
        counter (loads/stores) to bump.
        """
        ci = CLASS_INDEX[klass]
        lines = [f"cnt[{CNT_CYCLES}] += {cycles}",
                 f"cnt[{CNT_INSTRUCTIONS}] += 1"]
        if extra:
            lines.append(extra)
        lines += [f"cnt[{CNT_CLASS_COUNT + ci}] += 1",
                  f"cnt[{CNT_CLASS_CYCLES + ci}] += {cycles}"]
        return lines

    def _raiser(self, pc: int, statement: str,
                unreachable: Optional[str]):
        """A terminator that reproduces an interpreter fault."""
        lines = [f"cpu.pc = {pc}"] if self.precise else []
        lines.append(statement)
        if unreachable is not None:
            lines.append(f"raise AssertionError('unreachable: "
                         f"{unreachable}')")
        return lines, None

    # --------------------------------------------------------- straight line
    def _straightline(self, instr: Instruction, pending_imm: Optional[int],
                      dynamic_stats: bool, accumulate: bool = False) -> List[str]:
        """Source for one non-branch instruction.

        With ``dynamic_stats`` the emitted code records its own statistics
        (delay slots, and every instruction in precise mode); otherwise
        statistics live in the enclosing block's constants and only
        dynamic OPB penalties are recorded inline.  ``accumulate``
        additionally adds the instruction's cycle cost to the enclosing
        terminator's ``_cycles`` (the delay-slot double charge).
        """
        klass = instr.klass
        if klass is InstrClass.LOAD:
            return self._memory(instr, pending_imm, dynamic_stats,
                                accumulate, load=True)
        if klass is InstrClass.STORE:
            return self._memory(instr, pending_imm, dynamic_stats,
                                accumulate, load=False)
        cycles = self.cpu.config.timings.for_class(klass)
        lines = self._compute(instr, pending_imm)
        if dynamic_stats:
            lines += self._count(klass, cycles)
        if accumulate:
            lines.append(f"_cycles += {cycles}")
        return lines

    def _compute(self, instr: Instruction,
                 pending_imm: Optional[int]) -> List[str]:
        """ALU / logical / shift / multiply / divide / compare / sext: the
        opcode table's operator rendered over the operand sources."""
        rd = instr.rd
        A, B = _r(instr.ra), _r(instr.rb)
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
                + source(kind, *(operands[name] for name in sources))]

    def _memory(self, instr: Instruction, pending_imm: Optional[int],
                dynamic_stats: bool, accumulate: bool,
                load: bool) -> List[str]:
        timings = self.cpu.config.timings
        has_opb = self.cpu.opb is not None
        rd = instr.rd
        width = instr.spec.width
        base = timings.load if load else timings.store
        extra = timings.opb_access_extra
        klass = InstrClass.LOAD if load else InstrClass.STORE
        ci = CLASS_INDEX[klass]
        port_counter = CNT_OPB_READS if load else CNT_OPB_WRITES
        scalar = CNT_LOADS if load else CNT_STORES
        # Loaded words are zero-extended and at most 32 bits wide, so they
        # land in the register unmasked; a load into r0 still accesses
        # memory (faults and port counters) into a scratch local.
        value = (f"regs[{rd}]" if rd else "_v") if load else _r(rd)
        access = inline_access_source(
            load, width, "_a", value, "dmem",
            "bram_load" if load else "bram_store",
            str(self.cpu.data_bram.size - width),
            "dbram.port_a_accesses += 1")

        offset = _r(instr.rb) if instr.spec.fmt.value == "A" \
            else fuse_imm(pending_imm, instr.imm)
        lines = [f"_a = ({_r(instr.ra)} + {offset}) & {_M}"]
        if not has_opb:
            # No peripheral bus attached: the OPB arm can never be taken,
            # so the access specializes to the data BRAM alone.
            lines += access
            if dynamic_stats:
                lines += self._count(klass, base,
                                     extra=f"cnt[{scalar}] += 1")
            if accumulate:
                lines.append(f"_cycles += {base}")
            return lines

        if dynamic_stats:
            lines.append(f"_c = {base}")
        lines.append(f"if _a >= {OPB_BASE_ADDRESS} and opb_owns(_a):")
        if not load:
            lines.append(f"    opb_write(_a, {value})")
        elif rd:
            lines.append(f"    {value} = opb_read(_a) & {_M}")
        else:
            lines.append("    opb_read(_a)")
        if dynamic_stats:
            lines += [f"    _c += {extra}",
                      f"    cnt[{port_counter}] += 1",
                      "else:"]
            lines += ["    " + line for line in access]
            lines += self._count(klass, "_c", extra=f"cnt[{scalar}] += 1")
            if accumulate:
                lines.append("_cycles += _c")
            return lines

        # Block-constant statistics: only the dynamic OPB penalty is
        # recorded inline.
        lines += [f"    cnt[{CNT_CYCLES}] += {extra}",
                  f"    cnt[{CNT_CLASS_CYCLES + ci}] += {extra}",
                  f"    cnt[{port_counter}] += 1",
                  "else:"]
        lines += ["    " + line for line in access]
        return lines

    # ------------------------------------------------------------ terminators
    def _terminator(self, pc: int, instr: Instruction,
                    pending_imm: Optional[int]):
        """Source for the branch ending a block (plus its delay slot).

        Returns ``((lines, return_expr), extra_instructions, end_address)``.
        """
        cpu = self.cpu
        end = pc
        slot: Optional[List[str]] = None
        extra = 0
        if instr.has_delay_slot:
            end = pc + 4
            try:
                slot_instr = self._fetch(pc + 4)
            except (EncodingError, MemoryError_):
                return self._raiser(pc, f"cpu.fetch({pc + 4})",
                                    "slot refetch did not raise"), 0, end
            if slot_instr.is_branch \
                    or slot_instr.klass is InstrClass.IMM_PREFIX:
                return self._raiser(
                    pc, f"cpu._execute_delay_slot({pc})",
                    "delay slot check did not raise"), 0, end
            unit = slot_instr.requires
            if unit is not None and not cpu.config.has_unit(unit):
                # The interpreter charges neither the branch nor the slot
                # (the fault fires inside the slot's unit check, before
                # the branch's stats.record); defer to its own execution.
                return self._raiser(
                    pc, f"cpu._execute_delay_slot({pc})",
                    "slot unit check did not raise"), 0, end
            # The imm latch is cleared only after the whole branch — slot
            # included — so a pending prefix fuses into the slot too.
            slot = self._straightline(slot_instr, pending_imm,
                                      dynamic_stats=True, accumulate=True)
            if self.precise:
                slot = [f"cpu.pc = {pc + 4}"] + slot
            extra = 1

        if instr.klass is InstrClass.BRANCH_COND:
            lines, ret = self._cond_branch(pc, instr, pending_imm, slot)
        else:
            lines, ret = self._uncond_branch(pc, instr, pending_imm, slot)
        if self.precise:
            # The interpreter executes the branch with pc pointing at it
            # (and at the slot while the slot runs — the slot lines above
            # carry their own pc maintenance).
            lines = [f"cpu.pc = {pc}"] + lines
        return (lines, ret), extra, end

    def _cond_branch(self, pc: int, instr: Instruction,
                     pending_imm: Optional[int],
                     slot: Optional[List[str]]):
        timings = self.cpu.config.timings
        klass = InstrClass.BRANCH_COND
        ci = CLASS_INDEX[klass]
        fallthrough = pc + 8 if slot is not None else pc + 4

        cond = relation_source(instr.spec.condition.name.lower(), "_x")

        # Observers hear only taken backward branches: a register-held
        # target is tested at run time, a static one at translation.
        if instr.spec.fmt.value == "A":
            target = f"({pc} + to_signed({_r(instr.rb)})) & {_M}"
            backward: Optional[str] = f"_taken and _target < {pc}"
        else:
            offset = fuse_imm(pending_imm, instr.imm)
            static_target = (pc + to_signed(offset)) & _M
            target = str(static_target)
            backward = "_taken" if static_target < pc else None

        lines = [
            f"_x = {_r(instr.ra)}",
            f"if {cond}:",
            f"    _taken = True",
            f"    _target = {target}",
            f"    _cycles = {timings.branch_taken}",
            f"    _next = _target",
            f"else:",
            f"    _taken = False",
            f"    _cycles = {timings.branch_not_taken}",
            f"    _next = {fallthrough}",
        ]
        # The slot executes before any of the branch's own statistics are
        # recorded (interpreter order — a faulting slot must leave the
        # branch unrecorded).
        if slot is not None:
            lines += slot
        lines += [
            f"if _taken:",
            f"    cnt[{CNT_BRANCHES_TAKEN}] += 1",
            f"else:",
            f"    cnt[{CNT_BRANCHES_NOT_TAKEN}] += 1",
            f"cnt[{CNT_CYCLES}] += _cycles",
            f"cnt[{CNT_INSTRUCTIONS}] += 1",
            f"cnt[{CNT_CLASS_COUNT + ci}] += 1",
            f"cnt[{CNT_CLASS_CYCLES + ci}] += _cycles",
        ]
        if backward is not None:
            lines += _backward_hook(backward, pc, "_target")
        return lines, "_next"

    def _uncond_branch(self, pc: int, instr: Instruction,
                       pending_imm: Optional[int],
                       slot: Optional[List[str]]):
        """BRANCH_UNCOND, CALL and RETURN terminators (always taken)."""
        timings = self.cpu.config.timings
        klass = instr.klass
        ci = CLASS_INDEX[klass]
        is_uncond = klass is InstrClass.BRANCH_UNCOND
        is_call = klass is InstrClass.CALL
        rd = instr.rd
        imm = fuse_imm(pending_imm, instr.imm)

        static_target: Optional[int] = None
        if klass is InstrClass.RETURN:
            base = timings.ret
            target_expr = f"({_r(instr.ra)} + {imm}) & {_M}"
        else:
            base = timings.call if is_call else timings.branch_taken
            absolute = instr.spec.absolute
            if instr.spec.fmt.value == "A":
                if absolute:
                    target_expr = f"{_r(instr.rb)} & {_M}"
                else:
                    target_expr = f"({pc} + to_signed({_r(instr.rb)})) & {_M}"
            else:
                static_target = imm & _M if absolute \
                    else (pc + to_signed(imm)) & _M
                target_expr = str(static_target)

        def footer(cycles: str, target: str) -> List[str]:
            lines = [
                f"cnt[{CNT_CYCLES}] += {cycles}",
                f"cnt[{CNT_INSTRUCTIONS}] += 1",
                f"cnt[{CNT_CLASS_COUNT + ci}] += 1",
                f"cnt[{CNT_CLASS_CYCLES + ci}] += {cycles}",
                f"cnt[{CNT_BRANCHES_TAKEN}] += 1",
            ]
            if static_target is None:
                return lines + _backward_hook(f"_target < {pc}", pc, target)
            if static_target < pc:
                return lines + _backward_hook("", pc, target)
            return lines

        call_write = [f"regs[{rd}] = {pc & _M}"] if is_call and rd else []

        if static_target is not None and is_uncond and static_target == pc:
            # A PC-relative unconditional branch to itself is the halt
            # idiom; the slot is skipped (as in the interpreter).
            lines = ["cpu.halted = True"] + footer(str(base),
                                                   str(static_target))
            return lines, str(static_target)

        if static_target is not None and (not is_uncond
                                          or static_target != pc):
            lines = list(call_write)
            if slot is not None:
                lines.append(f"_cycles = {base}")
                lines += slot
                lines += footer("_cycles", str(static_target))
            else:
                lines += footer(str(base), str(static_target))
            return lines, str(static_target)

        # Dynamic target: the halt check (unconditional branches only)
        # happens at run time, and a halting branch skips its slot.
        lines = [f"_target = {target_expr}"] + call_write
        lines.append(f"_cycles = {base}")
        if is_uncond:
            lines.append(f"if _target == {pc}:")
            lines.append("    cpu.halted = True")
            if slot is not None:
                lines.append("else:")
                lines += ["    " + line for line in slot]
        elif slot is not None:
            lines += slot
        lines += footer("_cycles", "_target")
        return lines, "_target"

    # ------------------------------------------------------------------ emit
    def _finish(self, entry: int, end: int, n: int, deltas: List[int],
                body: List[str], term_lines: List[str],
                return_expr: Optional[str],
                static_cycles: int = 0) -> Tuple[int, int, int, str]:
        lines: List[str] = []
        if not self.precise:
            lines += [f"cnt[{index}] += {delta}"
                      for index, delta in enumerate(deltas) if delta]
        lines += body
        lines += term_lines
        if return_expr is not None:
            if self.precise:
                # The interpreter clears the latch once the whole branch
                # (slot included) has executed; raiser blocks (no return
                # expression) must leave it set, like a faulting branch.
                lines.append("cpu._imm_latch = None")
            lines.append(f"return {return_expr}")

        indented = "\n".join("        " + line for line in lines)
        source = (
            f"def _make({FACTORY_PARAMS}):\n"
            "    def _block():\n"
            f"{indented}\n"
            "    return _block\n"
        )
        return n, end, static_cycles, source


class JitEngine(ExecutionEngine):
    """Block-at-a-time dispatch over generated-source superblocks."""

    supports_max_cycles = False
    supports_halt_address = False

    def __init__(self, cpu) -> None:
        super().__init__(cpu)
        self.compiler = SourceBlockCompiler(self)

    @staticmethod
    def _block_range(block: tuple) -> Tuple[int, int]:
        return block[2], block[3]

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
        executed = cpu.stats.instructions
        near_budget = False
        pc = cpu.pc
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
                        # Counters fold into stats first (exact budget
                        # checks) and any imm latch the step leaves is
                        # drained — fused translations assume latch-free
                        # entry.
                        cpu._sync_counters()
                        cpu.pc = pc
                        cpu.step()
                        cpu._drain_imm_latch(max_instructions)
                        pc = cpu.pc
                        executed = cpu.stats.instructions
                        continue
                    cycles_before = counters[CNT_CYCLES]
                    try:
                        pc = block[1]()
                    finally:
                        # Deliver the accrued cycles even when the block
                        # faults mid-way: ticked time tracks the recorded
                        # statistics exactly (interpreter-identical in
                        # precise mode).
                        opb.tick_bounded(counters[CNT_CYCLES]
                                         - cycles_before)
                    executed += n
                    continue
                pc = block[1]()
                executed += n
        except BaseException:
            if cpu.precise_fault_stats:
                # Precise-mode blocks maintain cpu.pc per instruction.
                pc = cpu.pc
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
