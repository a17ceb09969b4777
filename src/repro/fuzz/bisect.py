"""Checkpoint-driven bisection of engine divergences.

Given a program on which an engine's final state disagrees with the
reference interpreter, :func:`bisect_divergence` binary-searches the
*first divergent instruction* without ever re-simulating the common
prefix from scratch: each side keeps a cache of engine-independent
``WARPCKPT`` checkpoints, a probe at instruction count *k* spawns a fresh
system from the nearest cached count ≤ *k* (:func:`spawn_from_checkpoint`)
and covers the remainder with one :func:`run_slice` budget split, and the
newly reached boundary joins the cache for the next probe.  Probe counts
snap to instruction boundaries exactly like the engines themselves do —
``cpu.step()`` retires a branch and its delay slot atomically, so the
search recognises a divergence landing *inside* a delay pair and reports
the pair's branch pc.

The result is a :class:`ReproBundle`: seed, profile, full source text and
disassembly listing, the first-divergence location (instructions retired
before it, the pc about to execute, the decoded instruction) and a
per-engine state diff at that boundary.  The bundle replays from
``(seed, profile)`` alone — regenerate with
:func:`repro.fuzz.generator.generate_program` and re-run.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .. import obs
from ..isa import decode, format_instruction, listing
from ..isa.program import Program
from ..microblaze import PAPER_CONFIG
from ..microblaze.checkpoint import run_slice, spawn_from_checkpoint
from ..microblaze.config import MicroBlazeConfig
from .harness import (
    DEFAULT_MAX_INSTRUCTIONS,
    REFERENCE_ENGINE,
    _build_system,
    fuzz_peripherals,
)

#: How many differing data-BRAM words a state diff lists (the digests
#: always cover the full image).
MAX_DATA_DIFF_WORDS = 16


# ----------------------------------------------------------------------- states
@dataclass
class _BoundaryState:
    """One side's observable state at an instruction boundary."""

    instructions: int
    pc: int
    halted: bool
    registers: Tuple[int, ...]
    stats: Tuple
    data: bytes
    opb: Tuple
    #: ``None`` while running/halted; the fault message once the side has
    #: terminated with a raised fault.
    fault: Optional[str]

    def comparable(self) -> Tuple:
        return (self.instructions, self.pc, self.halted, self.registers,
                self.stats, hashlib.sha256(self.data).hexdigest(),
                self.opb, self.fault)


class _Replayer:
    """One engine's deterministic replay line with a checkpoint cache."""

    def __init__(self, program: Program, engine: str, *,
                 precise_fault_stats: bool, config: MicroBlazeConfig,
                 with_opb: bool):
        self.engine = engine
        self.precise_fault_stats = precise_fault_stats
        self.config = config
        self.with_opb = with_opb
        system = _build_system(engine, precise_fault_stats, config,
                               with_opb)
        system.start(program)
        #: instruction count -> WARPCKPT blob at that boundary.
        self.checkpoints: Dict[int, bytes] = {0: system.checkpoint()}

    def _spawn(self, blob: bytes):
        peripherals = fuzz_peripherals() if self.with_opb else ()
        return spawn_from_checkpoint(
            blob, peripherals=peripherals, engine=self.engine,
            precise_fault_stats=self.precise_fault_stats)

    def state_at(self, count: int) -> _BoundaryState:
        """The state at instruction boundary ``count`` (snapped forward to
        the end of an atomic delay pair, or to the run's own end when it
        halts/faults earlier)."""
        base = max(c for c in self.checkpoints if c <= count)
        system = self._spawn(self.checkpoints[base])
        fault = None
        if count > base:
            try:
                run_slice(system, count - base)
            except Exception as error:  # noqa: BLE001 - fault is data here
                fault = f"{type(error).__name__}: {error}"
        actual = system.cpu.stats.instructions
        if fault is None and actual not in self.checkpoints:
            self.checkpoints[actual] = system.checkpoint()
        opb = [system.opb.reads, system.opb.writes]
        for peripheral in system.opb.peripherals:
            snapshot = getattr(peripheral, "snapshot_state", None)
            if callable(snapshot):
                opb.append((peripheral.name, repr(snapshot())))
        stats = system.cpu.stats.to_plain()
        return _BoundaryState(
            instructions=actual,
            pc=system.cpu.pc,
            halted=system.cpu.halted,
            registers=tuple(system.cpu.registers),
            stats=tuple(sorted(stats.items(),
                               key=lambda item: repr(item[0]))),
            data=bytes(system.data_bram.storage),
            opb=tuple(opb),
            fault=fault,
        )


# ----------------------------------------------------------------------- bundle
@dataclass
class ReproBundle:
    """A minimized, re-runnable record of one engine divergence."""

    seed: int
    profile: str
    engine: str
    reference: str
    precise_fault_stats: bool
    program_name: str
    source: str
    listing: str
    #: Instructions both engines retire identically before diverging.
    instructions_before_divergence: int
    #: pc of the next instruction at that boundary — the first divergent
    #: instruction (a delay pair's branch pc when the divergence lands in
    #: the pair's slot).
    first_divergent_pc: int
    first_divergent_instruction: str
    state_diff: Dict[str, object]
    bisect_steps: int
    reference_end: int
    engine_end: int
    replay: Dict[str, object] = field(default_factory=dict)

    def to_plain(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "profile": self.profile,
            "engine": self.engine,
            "reference": self.reference,
            "precise_fault_stats": self.precise_fault_stats,
            "program_name": self.program_name,
            "source": self.source,
            "listing": self.listing,
            "instructions_before_divergence":
                self.instructions_before_divergence,
            "first_divergent_pc": self.first_divergent_pc,
            "first_divergent_instruction": self.first_divergent_instruction,
            "state_diff": self.state_diff,
            "bisect_steps": self.bisect_steps,
            "reference_end": self.reference_end,
            "engine_end": self.engine_end,
            "replay": dict(self.replay),
        }


def _state_diff(reference: _BoundaryState,
                engine: _BoundaryState) -> Dict[str, object]:
    diff: Dict[str, object] = {}
    if reference.instructions != engine.instructions:
        diff["instructions"] = [reference.instructions, engine.instructions]
    if reference.pc != engine.pc:
        diff["pc"] = [reference.pc, engine.pc]
    if reference.halted != engine.halted:
        diff["halted"] = [reference.halted, engine.halted]
    if reference.fault != engine.fault:
        diff["fault"] = [reference.fault, engine.fault]
    registers = {
        index: [ref_value, eng_value]
        for index, (ref_value, eng_value)
        in enumerate(zip(reference.registers, engine.registers))
        if ref_value != eng_value
    }
    if registers:
        diff["registers"] = {f"r{index}": values
                             for index, values in registers.items()}
    if reference.stats != engine.stats:
        left, right = dict(reference.stats), dict(engine.stats)
        diff["stats"] = {key: [left[key], right.get(key)]
                         for key in left if left[key] != right.get(key)}
    if reference.data != engine.data:
        words = []
        for offset in range(0, min(len(reference.data), len(engine.data)), 4):
            ref_word = struct.unpack_from("<I", reference.data, offset)[0]
            eng_word = struct.unpack_from("<I", engine.data, offset)[0]
            if ref_word != eng_word:
                words.append({"address": offset, "reference": ref_word,
                              "engine": eng_word})
                if len(words) >= MAX_DATA_DIFF_WORDS:
                    break
        diff["data_words"] = words
    if reference.opb != engine.opb:
        diff["opb"] = [repr(reference.opb), repr(engine.opb)]
    return diff


def _decode_at(program: Program, pc: int) -> str:
    index = pc // 4
    if pc % 4 == 0 and 0 <= index < len(program.text):
        try:
            return format_instruction(decode(program.text[index],
                                             address=pc))
        except Exception:  # noqa: BLE001 - undecodable word, report raw
            pass
    return f"{pc:#010x}:  <outside program text>"


# ----------------------------------------------------------------------- search
def bisect_divergence(program: Program, engine: str, *,
                      reference: str = REFERENCE_ENGINE,
                      seed: int = -1, profile: str = "?",
                      precise_fault_stats: bool = False,
                      config: MicroBlazeConfig = PAPER_CONFIG,
                      with_opb: bool = False,
                      max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
                      ) -> Optional[ReproBundle]:
    """Locate the first divergent instruction of ``engine`` vs the
    reference on ``program``; ``None`` when the final states agree.

    Each probe costs one checkpoint spawn plus at most half the remaining
    window of instructions (``run_slice`` budget splitting), so the whole
    search is O(end · log end) instructions with a warm prefix cache —
    never a from-scratch replay per probe.
    """
    ref_side = _Replayer(program, reference,
                         precise_fault_stats=precise_fault_stats,
                         config=config, with_opb=with_opb)
    eng_side = _Replayer(program, engine,
                         precise_fault_stats=precise_fault_stats,
                         config=config, with_opb=with_opb)
    steps = 0

    def probe(count: int) -> Tuple[int, bool, _BoundaryState,
                                   _BoundaryState]:
        nonlocal steps
        steps += 1
        if obs.ACTIVE is not None:
            obs.inc("warp_fuzz_bisect_steps_total", engine=engine)
        ref_state = ref_side.state_at(count)
        eng_state = eng_side.state_at(count)
        equal = ref_state.comparable() == eng_state.comparable()
        return ref_state.instructions, equal, ref_state, eng_state

    end_count, end_equal, ref_final, eng_final = probe(max_instructions)
    if end_equal:
        return None

    lo = 0
    if ref_final.instructions == eng_final.instructions:
        hi = ref_final.instructions
    else:
        # One side ran further; the common comparable prefix ends at or
        # before the shorter side's end.
        hi = min(ref_final.instructions, eng_final.instructions)
        actual, equal, ref_final, eng_final = probe(hi)
        if equal:
            # Identical up to the shorter end: the divergence is the very
            # next step (halt/fault vs keep running).
            lo = actual
            hi = actual + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        actual, equal, ref_state, eng_state = probe(mid)
        if equal:
            # Snapping keeps actual < hi (a state equal at hi would
            # contradict hi's established inequality).
            lo = actual
        elif actual < hi:
            hi = max(actual, lo + 1)
            ref_final, eng_final = ref_state, eng_state
        else:
            # mid sits inside an atomic branch/delay-slot pair spanning
            # (lo, hi): there is no boundary between them to probe.
            break

    boundary_ref = ref_side.state_at(lo)
    bundle = ReproBundle(
        seed=seed,
        profile=profile,
        engine=engine,
        reference=reference,
        precise_fault_stats=precise_fault_stats,
        program_name=program.name,
        source=program.source or "",
        listing=listing(program),
        instructions_before_divergence=lo,
        first_divergent_pc=boundary_ref.pc,
        first_divergent_instruction=_decode_at(program, boundary_ref.pc),
        state_diff=_state_diff(ref_final, eng_final),
        bisect_steps=steps,
        reference_end=ref_side.state_at(max_instructions).instructions,
        engine_end=eng_side.state_at(max_instructions).instructions,
        replay={
            "how": "repro.fuzz.generator.generate_program(seed, profile)",
            "seed": seed,
            "profile": profile,
            "engine": engine,
            "reference": reference,
            "precise_fault_stats": precise_fault_stats,
        },
    )
    return bundle
