"""Region JIT: edge-profile-guided trace compilation with superblock chaining.

The jit engine eliminated per-instruction calls but still pays, for every
superblock executed, one dict lookup, one Python call into the block
closure, a budget add/compare in the dispatch loop, and half a dozen
counter-array writes for the block's pre-aggregated statistics.  On a hot
loop those per-block costs dominate — the loop body itself is a handful
of specialized statements.

This engine removes them the way whole-function dynamic binary
translators do: once a block entry has been dispatched past a tunable
threshold (:attr:`RegionEngine.hot_threshold`, seeded from any attached
:class:`~repro.profiler.profiler.OnChipProfiler`'s ``edge_counts`` so
prior profiling shortens warm-up), the engine walks the *static* control
flow out from the hot root — fall-throughs, direct branches, both arms of
conditional branches — and fuses up to :attr:`RegionEngine.max_region_blocks`
superblocks into a single generated code object: an internal
``while``-loop over a pc-to-label dispatch chain in which every static
terminator *chains* directly to its successor's label.  Hot paths then
run without leaving one Python frame.

Statistics are deferred: each fused block keeps one local execution
counter (plus taken/not-taken counters for conditional terminators) and
the pre-aggregated per-block deltas are multiplied out into the CPU
counter array in a ``finally`` at every region exit — halt, budget
expiry, a branch leaving the region, or a fault.  Branch hooks (the
on-chip profiler) still fire inline with exact per-event arguments.

Invariants inherited from the jit engine:

* bit-exact architectural state and statistics vs the interpreter on
  fault-free runs (the generated bodies come from the same
  :class:`~repro.microblaze.engines.jit.SourceBlockCompiler` pieces, and
  the deferred counters multiply out the exact same deltas);
* ``invalidate(address)`` tears down any region whose fused span covers
  the patched address (members then re-profile and re-form);
* cross-engine checkpoints: ``on_restore`` drops all generated state and
  regions re-form lazily against the restored memories;
* tick-deadline splitting: while a peripheral is ticking the engine runs
  the jit's block-at-a-time path (regions are neither formed nor
  entered), so deadline handling is identical;
* ``precise_fault_stats`` disables region formation entirely — the
  engine then behaves exactly like the jit engine, whose precise blocks
  maintain interpreter-exact per-instruction state;
* capability flags match the jit engine, so a full-trace listener still
  falls back to the interpreter in the CPU driver.

In default (imprecise) mode the same known divergence as the jit
engine applies, with the same bound: a *runtime* fault landing
mid-block can leave statistics ahead by up to one block, because block
deltas are counted at block entry and flushed on the fault path.
"""

from __future__ import annotations

import re
import time
from typing import Dict, List, Optional, Tuple

from ... import obs
from ...isa.encoding import EncodingError, decode
from ...isa.instructions import InstrClass
from ...isa.registers import WORD_MASK, to_signed
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
    _ABSOLUTE_BRANCHES,
    signed_division,
)
from ..memory import MemoryError_
from . import ExecutionEngine, register_engine
from .jit import (
    SourceBlockCompiler,
    _CODE_CACHE,
    _LOAD_WIDTHS,
    _STORE_WIDTHS,
    _codegen_bucket,
    _record_translation,
)
from ..opb import OPB_BASE_ADDRESS

_M = WORD_MASK
_SIGN = 0x8000_0000

#: Default dispatch count past which a block entry is promoted to a
#: region root.  Low enough that a loop promotes within its first few
#: thousand instructions, high enough that straight-line start-up code
#: never pays region formation.
DEFAULT_HOT_THRESHOLD = 64

#: Default cap on superblocks fused per region.  Bounds both the emitted
#: source size and the worst-case pc-to-label scan inside the region.
DEFAULT_MAX_REGION_BLOCKS = 32

#: Entry-count value marking "never promote" (already fused, or scanned
#: and found unregionable).  Far enough from zero that continued
#: counting can never crawl back to a positive threshold.
_SENTINEL = -(1 << 60)

_N_COUNTERS = CNT_CLASS_CYCLES + len(CLASS_INDEX)

_COND_EXPR = {
    "EQ": "_x == 0",
    "NE": "_x != 0",
    "LT": f"_x >= {_SIGN}",
    "LE": f"_x >= {_SIGN} or _x == 0",
    "GT": f"0 < _x < {_SIGN}",
    "GE": f"_x < {_SIGN}",
}


class _BlockIR:
    """One scanned superblock, ready to be fused into a region.

    ``deltas`` carries every statically known statistic of the block —
    straight-line instructions, imm prefixes, delay-slot self-stats and,
    for unconditionally-taken static terminators, the branch footer —
    multiplied out per execution at region exit.  ``kind`` selects the
    terminator emission:

    * ``"fall"`` — block-size split; ``term`` is the next pc.
    * ``"jump"`` — static unconditional branch/call; ``term`` is
      ``(effect_lines, branch_pc, target)`` (stats in ``deltas``).
    * ``"halt"`` — the static self-branch halt idiom; ``term`` is
      ``(branch_pc, target)``.
    * ``"cond"`` — static conditional branch; ``term`` is
      ``(branch_pc, ra_expr, cond_expr, taken_target, fallthrough,
      slot_lines, taken_deltas, nottaken_deltas)`` with the per-arm
      deltas deferred through taken/not-taken counters.
    * ``"inline"`` — dynamic-target or OPB-dynamic-slot terminator;
      ``term`` is ``(lines, return_expr, is_uncond)`` reusing the jit
      terminator verbatim (stats recorded inline).
    """

    __slots__ = ("entry", "end", "n", "body", "deltas", "kind", "term",
                 "succs")

    def __init__(self, entry: int, end: int, n: int, body: List[str],
                 deltas: List[int], kind: str, term, succs: List[int]):
        self.entry = entry
        self.end = end
        self.n = n
        self.body = body
        self.deltas = deltas
        self.kind = kind
        self.term = term
        self.succs = succs


_REG_RE = re.compile(r"regs\[(\d+)\]")
_REG_ONLY_RE = re.compile(r"^regs\[(\d+)\]$")


def _stmt_reads(lines: List[str], write: Optional[int]) -> frozenset:
    """Register indices read by the emitted lines of one instruction.

    Every generated form assigns ``regs[write]`` on a line whose prefix
    is exactly that subscript; occurrences elsewhere (including the
    right-hand side of the write itself) are reads.
    """
    reads = set()
    prefix = None if write is None else f"regs[{write}] = "
    for line in lines:
        text = line
        if prefix is not None and line.startswith(prefix):
            text = line[len(prefix):]
        for match in _REG_RE.finditer(text):
            reads.add(int(match.group(1)))
    return frozenset(reads)


_REG_WRITE_RE = re.compile(r"^regs\[(\d+)\] = (.*)$")


def _live_lines(records: List[tuple]) -> List[str]:
    """Dead-write elimination plus register localization.

    *Dead writes* — a pure compute result overwritten later in the
    block with no intervening read of the register and no intervening
    fault point — are dropped entirely (deferred statistics still count
    the instruction).

    *Localization* — within each stretch of pure records between fault
    points, registers touched three or more times are held in ``_r<N>``
    Python locals (a ``STORE_FAST`` instead of a list-subscript store
    per write, likewise for reads) and flushed back to ``regs`` at the
    end of the stretch.  Loads and stores are the only straight-line
    fault points, and hooks/terminators/exits only appear after block
    bodies, so the architectural register file is current everywhere it
    can be observed."""
    candidates: Dict[int, int] = {}
    dead = set()
    for index, (lines, write, reads, fault, pure) in enumerate(records):
        for reg in reads:
            candidates.pop(reg, None)
        if fault:
            candidates.clear()
        if write is not None:
            previous = candidates.pop(write, None)
            if previous is not None:
                dead.add(previous)
            if pure:
                candidates[write] = index

    live = [record for index, record in enumerate(records)
            if index not in dead]

    # Split into stretches of pure records delimited by fault records,
    # and pick the localization set per stretch: registers with >= 3
    # accesses amortize the local's flush-back write.
    out: List[str] = []
    dirty: set = set()
    local_set: set = set()

    def _sub(match) -> str:
        reg = int(match.group(1))
        return f"_r{reg}" if reg in dirty else match.group(0)

    def _flush() -> None:
        for reg in sorted(dirty):
            out.append(f"regs[{reg}] = _r{reg}")
        dirty.clear()

    stretch_start = 0
    index = 0
    total = len(live)
    while index <= total:
        at_fault = index == total or live[index][3]
        if at_fault:
            stretch = live[stretch_start:index]
            accesses: Dict[int, int] = {}
            for lines, write, reads, fault, pure in stretch:
                if write is not None:
                    accesses[write] = accesses.get(write, 0) + 1
                for reg in reads:
                    accesses[reg] = accesses.get(reg, 0) + 1
            local_set = {reg for reg, n in accesses.items() if n >= 3}
            for lines, write, reads, fault, pure in stretch:
                for line in lines:
                    match = _REG_WRITE_RE.match(line)
                    if match is not None and int(match.group(1)) \
                            in local_set:
                        reg = int(match.group(1))
                        rhs = _REG_RE.sub(_sub, match.group(2)) \
                            if dirty else match.group(2)
                        out.append(f"_r{reg} = {rhs}")
                        dirty.add(reg)
                    elif dirty:
                        out.append(_REG_RE.sub(_sub, line))
                    else:
                        out.append(line)
            _flush()
            if index < total:
                out += live[index][0]
            stretch_start = index + 1
        index += 1
    return out


class _RegionScanner(SourceBlockCompiler):
    """Scans superblocks into :class:`_BlockIR` for region fusion,
    applying superblock-scope optimization the per-block baseline jit
    deliberately skips.

    The scan tracks, per block, which registers hold *known constants*
    or *copies* of other registers, and generation then

    * folds constant expressions at scan time and substitutes known
      operands as literals,
    * simplifies the compiler's move/zero idioms (``add rd, rx, r0``
      becomes a plain copy, ``addi rd, r0, imm`` a literal),
    * inlines ``to_signed`` at its hot uses — signed compares run on
      bias-flipped unsigned values, arithmetic shifts and sign
      extensions as branch-free xor/sub identities — removing a Python
      call per use,
    * eliminates dead register writes: a pure compute result overwritten
      later in the same block with no intervening read *and no
      intervening fault point* (loads and stores are the only faulting
      straight-line instructions) can never be observed.  The deferred
      statistics still count the instruction — only its body vanishes —
      and at every fault point the architectural register file is
      bit-exact because elimination never crosses one.

    Returns ``None`` for blocks that cannot join a region: compile-time
    faults (undecodable words, fetch past the BRAM end, missing
    functional units, illegal delay slots) stay on the jit/raiser path
    where their exact fault semantics are already proven.
    """

    def __init__(self, cpu) -> None:
        super().__init__(cpu, {}, stats_label="region")
        #: Register → known constant value at the current scan point.
        self._known: Dict[int, int] = {}
        #: Register → register it currently mirrors (move coalescing).
        self._copies: Dict[int, int] = {}

    # ----------------------------------------------------- value tracking
    def _val(self, idx: int) -> Tuple[Optional[int], str]:
        """``(constant, source_expression)`` for a register read."""
        if idx == 0:
            return 0, "0"
        const = self._known.get(idx)
        if const is not None:
            return const, str(const)
        src = self._copies.get(idx)
        if src is not None:
            return None, f"regs[{src}]"
        return None, f"regs[{idx}]"

    def _wrote(self, rd: int) -> None:
        """Invalidate tracking after a dynamic write to ``rd``."""
        self._known.pop(rd, None)
        self._copies.pop(rd, None)
        for reg in [reg for reg, src in self._copies.items() if src == rd]:
            del self._copies[reg]

    def _reset_tracking(self) -> None:
        self._known.clear()
        self._copies.clear()

    # ------------------------------------------------------------ scanning
    def _scan_fetch(self, pc: int):
        """Side-effect-free fetch for speculative region scanning.

        The BFS scan walks static successors that may never execute;
        going through :meth:`MicroBlazeCPU.fetch` would charge their
        fetches to instruction-BRAM port A and pre-populate the decode
        cache, making the access counters diverge from the reference
        interpreter (which only fetches what it runs).  Decode-cache
        hits are reused; misses decode straight from storage without
        recording the access or the decode."""
        cpu = self.cpu
        cached = cpu._decoded.get(pc)
        if cached is not None:
            return cached
        storage = cpu.instr_bram.storage
        if pc < 0 or pc + 4 > len(storage) or pc % 4:
            raise MemoryError_(f"scan fetch outside BRAM at {pc:#x}")
        word = int.from_bytes(storage[pc:pc + 4], "little")
        return decode(word, address=pc)

    def scan_block(self, entry: int) -> Optional[_BlockIR]:
        cpu = self.cpu
        timings = cpu.config.timings
        self._reset_tracking()
        #: ``(lines, write_reg, reads, faultpoint, pure)`` per emitted
        #: straight-line instruction, for the dead-write pass.
        records: List[tuple] = []
        deltas = [0] * _N_COUNTERS
        n = 0
        pc = entry
        pending_imm: Optional[int] = None

        while True:
            try:
                instr = self._scan_fetch(pc)
            except (EncodingError, MemoryError_):
                return None
            unit = instr.requires
            if unit is not None and not cpu.config.has_unit(unit):
                return None

            klass = instr.klass
            if klass is InstrClass.IMM_PREFIX:
                pending_imm = instr.imm & 0xFFFF
                self._delta(deltas, klass, timings.imm_prefix)
                n += 1
                pc += 4
                continue

            if instr.is_branch:
                return self._scan_terminator(entry, pc, instr, pending_imm,
                                             n, deltas, records)

            memory = klass in (InstrClass.LOAD, InstrClass.STORE)
            if klass is InstrClass.LOAD:
                cycles = timings.load
                deltas[CNT_LOADS] += 1
            elif klass is InstrClass.STORE:
                cycles = timings.store
                deltas[CNT_STORES] += 1
            else:
                cycles = timings.for_class(klass)
            from ..cpu import IllegalInstruction
            try:
                lines = self._straightline(instr, pending_imm,
                                           dynamic_stats=False)
            except IllegalInstruction:
                # Unhandled/illegal data instruction: the jit path turns
                # it into a raiser block firing at the exact execution
                # point; keep such blocks out of regions.
                return None
            if lines:
                write = instr.rd if klass is not InstrClass.STORE else None
                records.append((lines, write, _stmt_reads(lines, write),
                                memory, not memory))
            self._delta(deltas, klass, cycles)
            pending_imm = None
            n += 1
            pc += 4

            if n >= MAX_BLOCK_INSTRUCTIONS and pending_imm is None:
                return _BlockIR(entry, pc - 4, n, _live_lines(records),
                                deltas, "fall", pc, [pc])

    # -------------------------------------------------- optimized pieces
    def _address(self, instr, pending_imm: Optional[int]) -> str:
        ca, ea = self._val(instr.ra)
        if instr.spec.fmt.value == "A":
            cb, eb = self._val(instr.rb)
            if ca is not None and cb is not None:
                return str((ca + cb) & _M)
            if ca == 0:
                return eb
            if cb == 0:
                return ea
            return f"({ea} + {eb}) & {_M}"
        imm = self._imm(instr, pending_imm)
        if ca is not None:
            return str((ca + imm) & _M)
        if imm == 0:
            return ea
        return f"({ea} + {imm}) & {_M}"

    def _memory(self, instr, pending_imm: Optional[int],
                dynamic_stats: bool, accumulate: bool,
                load: bool) -> List[str]:
        if dynamic_stats or accumulate:
            lines = super()._memory(instr, pending_imm, dynamic_stats,
                                    accumulate, load)
            if load:
                self._wrote(instr.rd)
            return lines

        # Block-constant statistics (the only mode the scanner uses):
        # same shape as the jit emission, with the BRAM arm inlined to a
        # direct little-endian ``dmem`` access.  The bounds/alignment
        # guard routes bad addresses into ``bram_load``/``bram_store``
        # so the exact :class:`MemoryError_` fires at the exact point;
        # the ``_pa`` deferred counter replaces the per-access
        # ``port_a_accesses`` increment (flushed at region exit).
        cpu = self.cpu
        timings = cpu.config.timings
        rd = instr.rd
        width = (_LOAD_WIDTHS if load else _STORE_WIDTHS)[instr.mnemonic]
        extra = timings.opb_access_extra
        ci = CLASS_INDEX[InstrClass.LOAD if load else InstrClass.STORE]
        port_counter = CNT_OPB_READS if load else CNT_OPB_WRITES
        size = cpu.data_bram.size
        guard = f"_a > {size - width}" if width == 1 else \
            f"_a & {width - 1} or _a > {size - width}"
        src = self._val(rd)[1] if not load else None

        lines = [f"_a = {self._address(instr, pending_imm)}"]
        has_opb = cpu.opb is not None
        indent = ""
        if has_opb:
            lines.append(f"if _a >= {OPB_BASE_ADDRESS} and opb_owns(_a):")
            if load:
                lines.append("    _v = opb_read(_a)")
                if rd:
                    lines.append(f"    regs[{rd}] = _v & {_M}")
            else:
                lines.append(f"    opb_write(_a, {src})")
            lines += [f"    cnt[{CNT_CYCLES}] += {extra}",
                      f"    cnt[{CNT_CLASS_CYCLES + ci}] += {extra}",
                      f"    cnt[{port_counter}] += 1",
                      "else:"]
            indent = "    "
        lines.append(f"{indent}if {guard}:")
        if load:
            lines.append(f"{indent}    bram_load(_a, {width})")
            if width == 1:
                value = "dmem[_a]"
            else:
                value = f'int.from_bytes(dmem[_a:_a + {width}], "little")'
            target = f"regs[{rd}]" if rd else "_v"
            lines.append(f"{indent}{target} = {value}")
        else:
            lines.append(f"{indent}    bram_store(_a, {src}, {width})")
            if width == 1:
                lines.append(f"{indent}dmem[_a] = ({src}) & 255")
            elif width == 4:
                # Register values are already masked to 32 bits.
                lines.append(f"{indent}dmem[_a:_a + 4] = "
                             f'({src}).to_bytes(4, "little")')
            else:
                lines.append(f"{indent}dmem[_a:_a + 2] = "
                             f'(({src}) & 65535).to_bytes(2, "little")')
        lines.append(f"{indent}_pa += 1")
        if load:
            # The loaded value is dynamic (tracking uses the pre-load
            # state for the address, so invalidate only afterwards).
            self._wrote(rd)
        return lines

    def _compute(self, instr, pending_imm: Optional[int]) -> List[str]:
        """Optimizing variant of the jit ``_compute``: identical results
        for every instruction, with known-constant operands substituted
        and folded, move/zero idioms coalesced, and ``to_signed`` calls
        replaced by branch-free xor/sub identities."""
        m = instr.mnemonic
        rd, ra, rb = instr.rd, instr.ra, instr.rb
        imm = self._imm(instr, pending_imm)
        ca, ea = self._val(ra)
        cb, eb = self._val(rb)
        if rd == 0:
            # Discarded writes have no side effect (jit emits nothing).
            return []

        const: Optional[int] = None
        expr: Optional[str] = None
        lines: Optional[List[str]] = None

        if m in ("add", "addk"):
            if ca is not None and cb is not None:
                const = (ca + cb) & _M
            elif ca == 0:
                expr = eb
            elif cb == 0:
                expr = ea
            else:
                expr = f"({ea} + {eb}) & {_M}"
        elif m in ("addi", "addik"):
            if ca is not None:
                const = (ca + imm) & _M
            elif imm == 0:
                expr = ea
            else:
                expr = f"({ea} + {imm}) & {_M}"
        elif m in ("rsub", "rsubk"):
            if ca is not None and cb is not None:
                const = (cb - ca) & _M
            elif ca == 0:
                expr = eb
            else:
                expr = f"({eb} - {ea}) & {_M}"
        elif m in ("rsubi", "rsubik"):
            if ca is not None:
                const = (imm - ca) & _M
            else:
                expr = f"({imm} - {ea}) & {_M}"
        elif m == "mul":
            if ca is not None and cb is not None:
                const = (ca * cb) & _M
            elif ca == 0 or cb == 0:
                const = 0
            else:
                expr = f"({ea} * {eb}) & {_M}"
        elif m == "muli":
            if ca is not None:
                const = (ca * imm) & _M
            elif imm == 0:
                const = 0
            else:
                expr = f"({ea} * {imm}) & {_M}"
        elif m == "idiv":
            if ca is not None and cb is not None:
                const = signed_division(to_signed(cb), to_signed(ca))
            else:
                sa = str(to_signed(ca)) if ca is not None \
                    else f"to_signed({ea})"
                sb = str(to_signed(cb)) if cb is not None \
                    else f"to_signed({eb})"
                expr = f"signed_division({sb}, {sa})"
        elif m == "idivu":
            if ca is not None:
                if ca == 0:
                    const = 0
                elif cb is not None:
                    const = (cb // ca) & _M
                else:
                    expr = f"({eb} // {ca}) & {_M}"
            else:
                lines = [f"_d = {ea}",
                         f"regs[{rd}] = ({eb} // _d) & {_M} if _d else 0"]
        elif m == "cmp":
            if ca is not None and cb is not None:
                x, y = to_signed(ca), to_signed(cb)
                const = (1 if y > x else 0 if y == x else -1) & _M
            else:
                # Signed compare on bias-flipped unsigned patterns:
                # to_signed(y) > to_signed(x)  ⟺  (y ^ 2**31) > (x ^ 2**31).
                bx = str(ca ^ _SIGN) if ca is not None \
                    else f"{ea} ^ {_SIGN}"
                by = str(cb ^ _SIGN) if cb is not None \
                    else f"{eb} ^ {_SIGN}"
                lines = [f"_x = {bx}",
                         f"_y = {by}",
                         f"regs[{rd}] = (1 if _y > _x else 0 if _y == _x "
                         f"else -1) & {_M}"]
        elif m == "cmpu":
            if ca is not None and cb is not None:
                const = (1 if cb > ca else 0 if cb == ca else -1) & _M
            else:
                lines = [f"_x = {ea}",
                         f"_y = {eb}",
                         f"regs[{rd}] = (1 if _y > _x else 0 if _y == _x "
                         f"else -1) & {_M}"]
        elif m == "and":
            if ca is not None and cb is not None:
                const = ca & cb
            elif ca == 0 or cb == 0:
                const = 0
            else:
                expr = f"{ea} & {eb}"
        elif m == "andi":
            if ca is not None:
                const = ca & imm & _M
            elif imm & _M == 0:
                const = 0
            else:
                expr = f"{ea} & {imm & _M}"
        elif m == "or":
            if ca is not None and cb is not None:
                const = ca | cb
            elif ca == 0:
                expr = eb
            elif cb == 0:
                expr = ea
            else:
                expr = f"{ea} | {eb}"
        elif m == "ori":
            if ca is not None:
                const = ca | (imm & _M)
            elif imm & _M == 0:
                expr = ea
            else:
                expr = f"{ea} | {imm & _M}"
        elif m == "xor":
            if ra == rb:
                const = 0
            elif ca is not None and cb is not None:
                const = ca ^ cb
            elif ca == 0:
                expr = eb
            elif cb == 0:
                expr = ea
            else:
                expr = f"{ea} ^ {eb}"
        elif m == "xori":
            if ca is not None:
                const = ca ^ (imm & _M)
            elif imm & _M == 0:
                expr = ea
            else:
                expr = f"{ea} ^ {imm & _M}"
        elif m == "andn":
            if ca is not None and cb is not None:
                const = ca & ~cb & _M
            elif ca == 0:
                const = 0
            elif cb == 0:
                expr = ea
            else:
                expr = f"{ea} & ~{eb} & {_M}"
        elif m == "andni":
            if ca is not None:
                const = ca & ~(imm & _M) & _M
            else:
                expr = f"{ea} & {~(imm & _M) & _M}"
        elif m == "sra":
            if ca is not None:
                const = (to_signed(ca) >> 1) & _M
            else:
                # Branch-free arithmetic shift: ((A ^ S) >> n) - (S >> n)
                # equals to_signed(A) >> n for any 32-bit pattern A.
                expr = f"((({ea} ^ {_SIGN}) >> 1) - {_SIGN >> 1}) & {_M}"
        elif m in ("srl", "src"):
            if ca is not None:
                const = ca >> 1
            else:
                expr = f"{ea} >> 1"
        elif m == "sext8":
            if ca is not None:
                const = to_signed(ca & 0xFF, 8) & _M
            else:
                expr = f"((({ea} & 255) ^ 128) - 128) & {_M}"
        elif m == "sext16":
            if ca is not None:
                const = to_signed(ca & 0xFFFF, 16) & _M
            else:
                expr = f"((({ea} & 65535) ^ 32768) - 32768) & {_M}"
        elif m == "bsll":
            if ca is not None and cb is not None:
                const = (ca << (cb & 31)) & _M
            elif cb is not None:
                expr = f"({ea} << {cb & 31}) & {_M}"
            else:
                expr = f"({ea} << ({eb} & 31)) & {_M}"
        elif m == "bslli":
            shift = instr.imm & 31
            if ca is not None:
                const = (ca << shift) & _M
            else:
                expr = f"({ea} << {shift}) & {_M}"
        elif m == "bsrl":
            if ca is not None and cb is not None:
                const = ca >> (cb & 31)
            elif cb is not None:
                expr = f"{ea} >> {cb & 31}"
            else:
                expr = f"{ea} >> ({eb} & 31)"
        elif m == "bsrli":
            shift = instr.imm & 31
            if ca is not None:
                const = ca >> shift
            else:
                expr = f"{ea} >> {shift}"
        elif m == "bsra":
            if ca is not None and cb is not None:
                const = (to_signed(ca) >> (cb & 31)) & _M
            elif cb is not None:
                shift = cb & 31
                expr = f"((({ea} ^ {_SIGN}) >> {shift}) " \
                       f"- {_SIGN >> shift}) & {_M}"
            else:
                expr = f"(to_signed({ea}) >> ({eb} & 31)) & {_M}"
        elif m == "bsrai":
            shift = instr.imm & 31
            if ca is not None:
                const = (to_signed(ca) >> shift) & _M
            else:
                expr = f"((({ea} ^ {_SIGN}) >> {shift}) " \
                       f"- {_SIGN >> shift}) & {_M}"
        else:
            return super()._compute(instr, pending_imm)

        if const is not None:
            self._wrote(rd)
            self._known[rd] = const
            return [f"regs[{rd}] = {const}"]
        self._wrote(rd)
        if lines is not None:
            return lines
        match = _REG_ONLY_RE.match(expr)
        if match is not None:
            src = int(match.group(1))
            if src != rd:
                self._copies[rd] = src
        return [f"regs[{rd}] = {expr}"]

    # ------------------------------------------------------------ terminator
    def _fold_slot(self, instr, pending_imm: Optional[int],
                   deltas: List[int]) -> Tuple[List[str], int]:
        """Fold a delay slot's self-statistics into the block deltas and
        return its effect-only source plus its static cycle cost."""
        klass = instr.klass
        timings = self.cpu.config.timings
        if klass is InstrClass.LOAD:
            cycles = timings.load
            deltas[CNT_LOADS] += 1
        elif klass is InstrClass.STORE:
            cycles = timings.store
            deltas[CNT_STORES] += 1
        else:
            cycles = timings.for_class(klass)
        self._delta(deltas, klass, cycles)
        body = self._straightline(instr, pending_imm, dynamic_stats=False)
        return body, cycles

    def _scan_terminator(self, entry: int, pc: int, instr,
                         pending_imm: Optional[int], n: int,
                         deltas: List[int],
                         records: List[tuple]) -> Optional[_BlockIR]:
        cpu = self.cpu
        timings = cpu.config.timings
        lines = _live_lines(records)
        end = pc
        slot_instr = None
        if instr.has_delay_slot:
            end = pc + 4
            try:
                slot_instr = self._scan_fetch(pc + 4)
            except (EncodingError, MemoryError_):
                return None
            if slot_instr.is_branch \
                    or slot_instr.klass is InstrClass.IMM_PREFIX:
                return None
            unit = slot_instr.requires
            if unit is not None and not cpu.config.has_unit(unit):
                return None

        klass = instr.klass
        static_fmt = instr.spec.fmt.value != "A"
        # A delay slot touching memory with a peripheral bus attached has
        # a dynamic cycle cost (the OPB access penalty), so its stats
        # cannot be deferred; the jit terminator records them inline.
        slot_static = slot_instr is None or cpu.opb is None or \
            slot_instr.klass not in (InstrClass.LOAD, InstrClass.STORE)
        n_total = n + 1 + (1 if slot_instr is not None else 0)

        if klass is InstrClass.BRANCH_COND and static_fmt and slot_static:
            ci = CLASS_INDEX[klass]
            # The branch reads ra before the slot runs (the slot may
            # overwrite it) — capture the substituted source first.
            ra_expr = self._val(instr.ra)[1]
            slot_lines: List[str] = []
            sc = 0
            if slot_instr is not None:
                slot_lines, sc = self._fold_slot(slot_instr, pending_imm,
                                                 deltas)
            fallthrough = pc + 8 if slot_instr is not None else pc + 4
            taken_target = (pc + to_signed(self._imm(instr,
                                                     pending_imm))) & _M
            taken = [0] * _N_COUNTERS
            taken[CNT_CYCLES] = timings.branch_taken + sc
            taken[CNT_INSTRUCTIONS] = 1
            taken[CNT_CLASS_COUNT + ci] = 1
            taken[CNT_CLASS_CYCLES + ci] = timings.branch_taken + sc
            taken[CNT_BRANCHES_TAKEN] = 1
            nottaken = [0] * _N_COUNTERS
            nottaken[CNT_CYCLES] = timings.branch_not_taken + sc
            nottaken[CNT_INSTRUCTIONS] = 1
            nottaken[CNT_CLASS_COUNT + ci] = 1
            nottaken[CNT_CLASS_CYCLES + ci] = timings.branch_not_taken + sc
            nottaken[CNT_BRANCHES_NOT_TAKEN] = 1
            cond = _COND_EXPR[instr.spec.condition.name]
            term = (pc, ra_expr, cond, taken_target, fallthrough,
                    slot_lines, taken, nottaken)
            return _BlockIR(entry, end, n_total, lines, deltas, "cond",
                            term, [taken_target, fallthrough])

        if klass in (InstrClass.BRANCH_UNCOND, InstrClass.CALL) \
                and static_fmt and slot_static:
            ci = CLASS_INDEX[klass]
            is_uncond = klass is InstrClass.BRANCH_UNCOND
            is_call = klass is InstrClass.CALL
            base = timings.call if is_call else timings.branch_taken
            imm = self._imm(instr, pending_imm)
            target = imm & _M if instr.mnemonic in _ABSOLUTE_BRANCHES \
                else (pc + to_signed(imm)) & _M

            if is_uncond and target == pc:
                # The self-branch halt idiom: the slot is skipped (as in
                # the interpreter) but still counted in the block size.
                deltas[CNT_CYCLES] += base
                deltas[CNT_INSTRUCTIONS] += 1
                deltas[CNT_CLASS_COUNT + ci] += 1
                deltas[CNT_CLASS_CYCLES + ci] += base
                deltas[CNT_BRANCHES_TAKEN] += 1
                return _BlockIR(entry, end, n_total, lines, deltas,
                                "halt", (pc, target), [])

            effects: List[str] = []
            if is_call and instr.rd:
                effects.append(f"regs[{instr.rd}] = {pc & _M}")
                # The link register write precedes the slot, which may
                # read it; it is a known constant from here on.
                self._wrote(instr.rd)
                self._known[instr.rd] = pc & _M
            sc = 0
            if slot_instr is not None:
                slot_lines, sc = self._fold_slot(slot_instr, pending_imm,
                                                 deltas)
                effects += slot_lines
            # Branch footer plus the seed's delay-slot double charge
            # (slot cycles ride in the branch's recorded cycle count on
            # top of the slot's own record, folded above).
            deltas[CNT_CYCLES] += base + sc
            deltas[CNT_INSTRUCTIONS] += 1
            deltas[CNT_CLASS_COUNT + ci] += 1
            deltas[CNT_CLASS_CYCLES + ci] += base + sc
            deltas[CNT_BRANCHES_TAKEN] += 1
            return _BlockIR(entry, end, n_total, lines, deltas, "jump",
                            (effects, pc, target), [target])

        # Dynamic target (fmt A, returns) or dynamic-cost slot: reuse the
        # jit terminator unchanged — it records its own statistics and
        # yields the next pc in a local.
        term, _extra, t_end = self._terminator(pc, instr, pending_imm)
        t_lines, ret = term
        if ret is None:
            # A raiser terminator (faulting slot): leave the block on the
            # jit path where the fault point is exactly reproduced.
            return None
        is_uncond = klass is InstrClass.BRANCH_UNCOND
        return _BlockIR(entry, t_end, n_total, lines, deltas, "inline",
                        (t_lines, ret, is_uncond), [])


def _hook_lines(pc: int, target: str, taken: str) -> List[str]:
    return ["if hooks:",
            "    for _h in hooks:",
            f"        _h.on_branch({pc}, {target}, {taken})"]


def _cond_test(ra_expr: str, cond: str) -> str:
    """The conditional-branch test, with the ``_x`` temporary elided
    when the condition reads it only once (chained comparisons bind the
    operand once, so only ``LE`` genuinely needs the temporary)."""
    if "or" in cond:
        return ""
    return cond.replace("_x", f"({ra_expr})")


#: Cap on superblocks tail-duplicated into one dispatch arm.  Linear
#: ``jump``/``fall`` chains are inlined up to this depth so hot traces
#: run without returning to the pc-to-label scan; past it (or at a
#: cycle) the arm falls back to a dispatch transfer.
_MAX_TRACE_BLOCKS = 12


def _emit_region(root: int, members: Dict[int, _BlockIR],
                 order: List[int]) -> str:
    """Assemble the region source: a ``while``-loop over a pc-to-label
    chain with deferred per-block/per-arm statistics counters flushed in
    a ``finally`` at every exit (branch out, halt, budget, fault).

    Every member gets a labelled arm (any of them can become ``pc``
    through a conditional or dynamic transfer), but within an arm,
    statically-known successor chains are *inlined* — tail-duplicated
    with their own execution counters — so a linear hot trace crosses
    zero dispatch scans.  Budget checks are fused per *unconditional
    run* (a maximal stretch of the trace with no conditional exit): the
    arm's head block keeps its individual check (matching the outer
    dispatch's entry check, so a budget break at the head re-dispatches
    identically), and each following run gets one combined check that
    breaks out *before* executing any of the run — the outer block-level
    dispatch then finishes the tail block-by-block, preserving exact
    jit budget semantics.  Arms are emitted hottest first (cold dispatch
    counts gathered before promotion), keeping the scan short for the
    entries that take it.
    """
    arm_of = {entry: k for k, entry in enumerate(order)}
    init: List[str] = []
    chain: List[str] = []
    for k, entry in enumerate(order):
        if members[entry].kind == "cond":
            init.append(f"_c{k} = _t{k} = _f{k} = 0")
        else:
            init.append(f"_c{k} = 0")

    for arm_index, arm_entry in enumerate(order):
        chain.append(f"{'if' if arm_index == 0 else 'elif'} "
                     f"pc == {arm_entry}:")

        # Pass 1 — walk the inline trace: follow static jump/fall
        # targets and conditional fall-throughs while they stay in the
        # region and the tail-duplication cap allows.
        trace: List[Tuple[int, _BlockIR]] = []
        inlined = set()
        current = arm_entry
        while True:
            ir = members[current]
            trace.append((current, ir))
            inlined.add(current)
            if ir.kind == "fall":
                target = ir.term
            elif ir.kind == "jump":
                target = ir.term[2]
            elif ir.kind == "cond":
                target = ir.term[4]
            else:  # halt / inline end the trace
                break
            if target in members and target not in inlined \
                    and len(inlined) < _MAX_TRACE_BLOCKS:
                current = target
            else:
                break

        # Run heads: the arm head (individual check), the block right
        # after it, and every block following a conditional exit.
        run_heads = {0, 1}
        for i in range(1, len(trace)):
            if trace[i - 1][1].kind == "cond":
                run_heads.add(i)

        arm: List[str] = []
        for i, (entry, ir) in enumerate(trace):
            k = arm_of[entry]
            continues = i + 1 < len(trace)
            if i in run_heads:
                if i == 0:
                    n_run = ir.n
                    arm += [f"if _e + {n_run} > _b:", "    break"]
                else:
                    n_run = ir.n
                    for j in range(i + 1, len(trace)):
                        if j in run_heads:
                            break
                        n_run += trace[j][1].n
                    arm += [f"if _e + {n_run} > _b:",
                            f"    pc = {entry}",
                            "    break"]
                arm.append(f"_e += {n_run}")
            arm.append(f"_c{k} += 1")
            arm += ir.body
            if ir.kind in ("fall", "jump"):
                if ir.kind == "jump":
                    effects, bpc, target = ir.term
                    arm += effects
                    arm += _hook_lines(bpc, str(target), "True")
                else:
                    target = ir.term
                if not continues:
                    arm += [f"pc = {target}", "continue"]
            elif ir.kind == "halt":
                bpc, target = ir.term
                arm.append("cpu.halted = True")
                arm += _hook_lines(bpc, str(target), "True")
                arm += [f"pc = {target}", "break"]
            elif ir.kind == "cond":
                bpc, ra, cond, taken_t, fall_t, slot_lines, _td, _fd \
                    = ir.term
                # ra is read before the slot runs (the slot may
                # overwrite it) — interpreter and jit order.  With a
                # delay slot the test cannot be inlined after the slot
                # lines: capture the pre-slot value in ``_x`` first.
                test = "" if slot_lines else _cond_test(ra, cond)
                if not test:
                    arm.append(f"_x = {ra}")
                    test = cond
                arm += slot_lines
                arm.append(f"if {test}:")
                taken_arm = [f"_t{k} += 1"]
                taken_arm += _hook_lines(bpc, str(taken_t), "True")
                taken_arm += [f"pc = {taken_t}", "continue"]
                arm += ["    " + line for line in taken_arm]
                arm.append(f"_f{k} += 1")
                arm += _hook_lines(bpc, "None", "False")
                if not continues:
                    arm += [f"pc = {fall_t}", "continue"]
            else:  # inline
                t_lines, ret, is_uncond = ir.term
                arm += t_lines
                arm.append(f"pc = {ret}")
                if is_uncond:
                    # A dynamic unconditional branch may hit the halt
                    # idiom at run time.
                    arm += ["if cpu.halted:", "    break"]
                arm.append("continue")
        chain += ["    " + line for line in arm]
    chain += ["else:", "    break"]

    flush: List[str] = []
    for ci in range(_N_COUNTERS):
        terms: List[str] = []
        for k, entry in enumerate(order):
            ir = members[entry]
            if ir.deltas[ci]:
                terms.append(f"{ir.deltas[ci]} * _c{k}")
            if ir.kind == "cond":
                taken, nottaken = ir.term[6], ir.term[7]
                if taken[ci]:
                    terms.append(f"{taken[ci]} * _t{k}")
                if nottaken[ci]:
                    terms.append(f"{nottaken[ci]} * _f{k}")
        if terms:
            flush.append(f"cnt[{ci}] += " + " + ".join(terms))

    body = "\n".join("                " + line for line in chain)
    init_src = "\n".join("        " + line for line in init)
    flush_src = "\n".join("            " + line for line in flush) \
        or "            pass"
    return (
        "def _make(cpu, regs, cnt, bram_load, bram_store, opb_owns, "
        "opb_read, opb_write, hooks, to_signed, signed_division, "
        "IllegalInstruction, dmem, dbram):\n"
        f"    def _region(_e, _b):\n"
        f"        pc = {root}\n"
        "        _pa = 0\n"
        f"{init_src}\n"
        "        try:\n"
        "            while True:\n"
        f"{body}\n"
        "        finally:\n"
        "            dbram.port_a_accesses += _pa\n"
        f"{flush_src}\n"
        "        return pc, _e\n"
        "    return _region\n"
    )


class RegionEngine(ExecutionEngine):
    """Hot-region dispatch over fused multi-superblock code objects."""

    full_trace = False
    branch_hooks = True
    supports_max_cycles = False
    supports_halt_address = False

    #: Dispatch count at which a block entry becomes a region root.
    hot_threshold = DEFAULT_HOT_THRESHOLD
    #: Maximum superblocks fused into one region.
    max_region_blocks = DEFAULT_MAX_REGION_BLOCKS

    def __init__(self, cpu) -> None:
        super().__init__(cpu)
        self.compiler = SourceBlockCompiler(cpu, self.blocks,
                                            stats_label="region")
        self._scanner = _RegionScanner(cpu)
        #: Region root pc → region function ``fn(executed, budget) ->
        #: (next_pc, executed)``.
        self.regions: Dict[int, object] = {}
        #: Region root pc → ``(low, high, member_entries)`` for
        #: invalidation by patched address.
        self._region_meta: Dict[int, Tuple[int, int, Tuple[int, ...]]] = {}
        #: Block entry pc → cold-dispatch count (or :data:`_SENTINEL`).
        self._entry_counts: Dict[int, int] = {}

    @staticmethod
    def _block_range(block: tuple) -> Tuple[int, int]:
        return block[2], block[3]

    # ---------------------------------------------------------- invalidation
    def invalidate(self, address: Optional[int] = None) -> None:
        if address is None:
            self.blocks.clear()
            self.regions.clear()
            self._region_meta.clear()
            self._entry_counts.clear()
            return
        super().invalidate(address)
        dead = [root for root, (low, high, _members)
                in self._region_meta.items() if low <= address <= high]
        for root in dead:
            self.regions.pop(root, None)
            _low, _high, fused = self._region_meta.pop(root)
            # Members drop their never-promote sentinel so the patched
            # code re-profiles and re-forms regions against the new text.
            for entry in fused:
                self._entry_counts.pop(entry, None)

    # ------------------------------------------------------------- promotion
    def _seed_from_hooks(self) -> None:
        """Pre-warm entry counts from an attached profiler's edge counts
        so already-proven-hot branch targets promote on next dispatch."""
        threshold = self.hot_threshold
        counts = self._entry_counts
        for hook in self.cpu._branch_hooks:
            edges = getattr(hook, "edge_counts", None)
            if not edges:
                continue
            for (_src, dst), count in edges.items():
                if count >= threshold \
                        and 0 <= counts.get(dst, 0) < threshold - 1:
                    counts[dst] = threshold - 1

    def _promote(self, root: int):
        """Scan out from ``root`` along static successors and fuse the
        reachable superblocks into one region function (or mark the root
        unregionable)."""
        counts = self._entry_counts
        members: Dict[int, _BlockIR] = {}
        order: List[int] = []
        queue: List[int] = [root]
        while queue and len(order) < self.max_region_blocks:
            entry = queue.pop(0)
            if entry in members:
                continue
            ir = self._scanner.scan_block(entry)
            if ir is None:
                if entry == root:
                    counts[root] = _SENTINEL
                    return None
                continue
            members[entry] = ir
            order.append(entry)
            for succ in ir.succs:
                # Only blocks that the cold dispatch loop has already
                # executed (and therefore fetched and charged against the
                # instruction BRAM port) may join a region: this keeps
                # fetch-port accounting identical to the interpreter and
                # keeps never-executed error paths out of the region body.
                if succ not in members and succ not in queue \
                        and succ in self.blocks:
                    queue.append(succ)

        # Hottest arms first: cold dispatch counts accumulated before
        # promotion approximate per-entry frequency, so the entries that
        # do take the pc-to-label scan find their arm early.
        order.sort(key=lambda e: (e != root, -max(counts.get(e, 0), 0)))
        source = _emit_region(root, members, order)
        start = time.perf_counter()
        hits_before = _CODE_CACHE.hits
        code = _CODE_CACHE.get_or_create(
            source,
            lambda: compile(source, f"<region {root:#x}>", "exec"))
        cached = _CODE_CACHE.hits > hits_before
        namespace: Dict[str, object] = {}
        exec(code, namespace)
        cpu = self.cpu
        opb = cpu.opb
        from ..cpu import IllegalInstruction
        fn = namespace["_make"](
            cpu, cpu.registers, cpu._counters,
            cpu.data_bram.load, cpu.data_bram.store,
            opb.owns if opb is not None else None,
            opb.read if opb is not None else None,
            opb.write if opb is not None else None,
            cpu._branch_hooks, to_signed, signed_division,
            IllegalInstruction, cpu.data_bram.storage, cpu.data_bram,
        )
        _record_translation("region", "region", cached,
                            time.perf_counter() - start)
        bucket = _codegen_bucket("region")
        bucket["regions"] += 1
        bucket["region_blocks"] += len(order)
        if obs.ACTIVE is not None:
            obs.inc("warp_codegen_regions",
                    help_text="Hot regions formed (superblocks fused "
                              "into one code object)",
                    engine="region")
            obs.ACTIVE.registry.histogram(
                "warp_codegen_region_blocks",
                "Superblocks fused per compiled region",
                buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0),
            ).observe(float(len(order)), engine="region")

        self.regions[root] = fn
        self._region_meta[root] = (
            min(ir.entry for ir in members.values()),
            max(ir.end for ir in members.values()),
            tuple(order),
        )
        for entry in order:
            counts[entry] = _SENTINEL
        return fn

    # ------------------------------------------------------------- dispatch
    def run(self, max_instructions: int,
            max_cycles: Optional[int] = None) -> None:
        # NOTE: mirrors JitEngine.run line for line; the additions are the
        # region lookup and the hot counting, both strictly after the
        # budget check — a region that breaks immediately on budget must
        # land on the outer near-budget path, never re-enter itself.
        cpu = self.cpu
        cpu._drain_imm_latch(max_instructions)
        counters = cpu._counters
        blocks = self.blocks
        regions = self.regions
        counts = self._entry_counts
        compile_block = self.compiler.compile_block
        opb = cpu.opb
        ticking = opb is not None and opb.ticking
        # Regions neither form nor run while a peripheral tick deadline
        # may split blocks, or when precise fault statistics are on: both
        # paths need the jit's block-at-a-time granularity.
        profiled = not ticking and not cpu.precise_fault_stats
        if profiled:
            self._seed_from_hooks()
        threshold = self.hot_threshold
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
                        opb.tick_bounded(counters[CNT_CYCLES]
                                         - cycles_before)
                    executed += n
                    continue
                if profiled:
                    region = regions.get(pc)
                    if region is not None:
                        pc, executed = region(executed, max_instructions)
                        continue
                    hot = counts.get(pc, 0) + 1
                    counts[pc] = hot
                    if hot == threshold:
                        region = self._promote(pc)
                        if region is not None:
                            pc, executed = region(executed,
                                                  max_instructions)
                            continue
                pc = block[1]()
                executed += n
        except BaseException:
            if cpu.precise_fault_stats:
                pc = cpu.pc
            raise
        finally:
            cpu.pc = pc
            cpu._sync_counters()
        if near_budget:
            cpu._run_interpreted(max_instructions, None)


register_engine("region", RegionEngine)
