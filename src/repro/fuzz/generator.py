"""Seeded random MicroBlaze program generator for the differential fuzzer.

Every program is produced deterministically from ``(seed, profile)``: the
generator seeds one :class:`random.Random` from that pair, builds a list of
self-contained *body blocks* (straight-line arithmetic, nested bounded
loops, data-dependent forward branches, delay-slot branch variants,
``imm``-prefixed 32-bit constants, masked BRAM loads/stores, OPB peripheral
traffic, and — in the ``faulty`` profile — deliberately near-fault
addressing and unconditional branches and calls whose delay slot cannot
execute; the ``loops`` profile instead builds single-block counted
loops, some faulting on a later iteration), and assembles prologue +
blocks + a checksum epilogue through the ordinary
:func:`repro.isa.assemble` path.  The same ``(seed, profile)``
therefore always yields bit-identical text and data images, which is what
makes a divergence report replayable from two integers and a name.

Programs are *shrinkable*: body blocks are independent by construction
(every block re-establishes the loop counters and address registers it
uses), so :func:`shrink` can greedily drop blocks while a caller-supplied
predicate (e.g. "the engines still diverge") keeps holding, yielding a
minimal reproducer.

Register conventions (chosen so blocks stay droppable):

========  ==========================================================
``r3``    checksum accumulator (folded in the epilogue, returned)
``r5-r12``  work pool — every generated ALU/memory op targets these
``r15``   link register of generated ``brlid``/``rtsd`` call blocks
``r16``   constant 0, base register of immediate-form loads/stores
``r17``   address scratch (masked effective addresses, branch targets)
``r18/r19``  outer/inner loop down-counters (``r19`` is the
          faulting address walk of a ``loops``-profile block)
========  ==========================================================
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..isa import assemble
from ..isa.program import Program

#: Byte size of the data window generated programs read and write.  Small
#: enough that the whole window sits inside every configuration's data
#: BRAM, large enough that store patterns actually collide and interleave.
DATA_WINDOW_BYTES = 512

#: Address masks confining generated effective addresses to the data
#: window, per access width.  The aligned masks guarantee fault-free
#: accesses; the ``faulty`` profile uses the byte mask for a few accesses
#: of every width, so some word/half accesses hit misaligned addresses and
#: raise real faults.
ALIGNED_MASKS = {"word": 0x1FC, "half": 0x1FE, "byte": 0x1FF}

#: OPB register window exposed to generated programs (fits the default
#: 4-register :class:`~repro.microblaze.opb.SimplePeripheral`).
OPB_WINDOW_OFFSETS = (0, 4, 8, 12)
#: Offsets just past that window: no peripheral owns them, so an access
#: falls through to the data BRAM and faults.
OPB_UNMAPPED_OFFSETS = (16, 20, 24, 28)

_WORK_REGS = tuple(range(5, 13))
_CHECKSUM_REG = 3
_LINK_REG = 15
_ZERO_BASE_REG = 16
_ADDR_REG = 17
_OUTER_COUNTER = 18
_INNER_COUNTER = 19
_WALK_REG = 19
#: Chance that a ``loops``-profile block faults on a later iteration.
_LATE_FAULT_PROBABILITY = 0.1
#: Chance that a ``faulty``-profile block starts with a branch or call
#: whose delay slot cannot execute.
_SLOT_FAULT_PROBABILITY = 0.2
#: Chance that a ``faulty``-profile access uses the byte mask instead of
#: its width's aligned one.  Rare enough that most programs run past
#: their first block before a misaligned access faults.
_MISALIGNED_ACCESS_PROBABILITY = 1 / 8
#: Chance that an OPB access goes to a static address past the
#: peripheral window (:data:`OPB_UNMAPPED_OFFSETS`).  Rare enough that
#: most programs end without that fault.
_UNMAPPED_OPB_PROBABILITY = 1 / 64

_COND_STEMS = ("beq", "bne", "blt", "ble", "bgt", "bge")


@dataclass(frozen=True)
class GeneratorProfile:
    """One weighted recipe for random program generation.

    ``weights`` maps op-category names to relative frequencies; categories
    with zero weight are never emitted.  All bounds are inclusive.
    """

    name: str
    description: str
    blocks: Tuple[int, int] = (3, 7)
    ops_per_block: Tuple[int, int] = (4, 12)
    loop_probability: float = 0.6
    nested_loop_probability: float = 0.35
    outer_iterations: Tuple[int, int] = (3, 17)
    inner_iterations: Tuple[int, int] = (2, 6)
    branch_probability: float = 0.5
    delay_slot_probability: float = 0.5
    call_probability: float = 0.2
    weights: Tuple[Tuple[str, int], ...] = (
        ("alu", 6), ("logical", 4), ("mul", 2), ("barrel", 2),
        ("shift", 2), ("imm32", 1), ("load", 3), ("store", 3),
    )
    #: Use the byte-aligned mask for some accesses of every width
    #: (``_MISALIGNED_ACCESS_PROBABILITY``), producing misaligned
    #: word/half addresses — real, comparable faults — and start some
    #: blocks with a delay slot that cannot execute
    #: (``_SLOT_FAULT_PROBABILITY``).
    near_fault: bool = False
    #: Emit OPB peripheral reads/writes (the harness attaches a
    #: :class:`~repro.microblaze.opb.SimplePeripheral` at the OPB base).
    opb_traffic: bool = False
    #: Send a few OPB accesses (``_UNMAPPED_OPB_PROBABILITY``) to a static
    #: address past the peripheral window, where they fault.
    opb_faults: bool = False
    #: Every body block is one counted loop without internal branches,
    #: so its body is a single superblock that branches back to its own
    #: entry (a self-loop).
    self_loops: bool = False


#: The built-in generation profiles, selectable by name everywhere a
#: campaign is configured (CLI, WarpJob, wire codec).
PROFILES: Dict[str, GeneratorProfile] = {
    profile.name: profile
    for profile in (
        GeneratorProfile(
            name="mixed",
            description="balanced mix of ALU, memory, loops and branches",
        ),
        GeneratorProfile(
            name="alu",
            description="arithmetic/logic heavy, long straight-line blocks",
            ops_per_block=(8, 20),
            loop_probability=0.4,
            weights=(("alu", 8), ("logical", 6), ("mul", 3), ("barrel", 3),
                     ("shift", 3), ("imm32", 2)),
        ),
        GeneratorProfile(
            name="memory",
            description="BRAM load/store heavy with colliding addresses",
            weights=(("alu", 3), ("logical", 2), ("imm32", 1),
                     ("load", 7), ("store", 7)),
        ),
        GeneratorProfile(
            name="branchy",
            description="dense nested loops and data-dependent branches",
            blocks=(4, 8),
            ops_per_block=(3, 7),
            loop_probability=0.9,
            nested_loop_probability=0.6,
            branch_probability=0.9,
            delay_slot_probability=0.7,
            weights=(("alu", 6), ("logical", 3), ("shift", 2), ("load", 2),
                     ("store", 2)),
        ),
        GeneratorProfile(
            name="faulty",
            description="near-fault addressing: some misaligned word/half "
                        "accesses raise real memory faults; unconditional "
                        "branches and calls with an illegal delay slot",
            near_fault=True,
            weights=(("alu", 4), ("logical", 2), ("load", 6), ("store", 6)),
        ),
        GeneratorProfile(
            name="loops",
            description="single-block counted loops: delay slots, imm "
                        "prefixes, OPB traffic, faults on a later iteration",
            ops_per_block=(2, 10),
            outer_iterations=(3, 40),
            delay_slot_probability=0.4,
            opb_traffic=True,
            self_loops=True,
            weights=(("alu", 5), ("logical", 3), ("mul", 1), ("barrel", 1),
                     ("shift", 2), ("imm32", 2), ("load", 3), ("store", 3),
                     ("opb_load", 1), ("opb_store", 1)),
        ),
        GeneratorProfile(
            name="opb",
            description="peripheral-bus traffic interleaved with BRAM "
                        "work: decoded, static and register-computed "
                        "addresses, a few unmapped",
            opb_traffic=True,
            opb_faults=True,
            weights=(("alu", 4), ("logical", 2), ("load", 3), ("store", 3),
                     ("opb_load", 3), ("opb_store", 3)),
        ),
    )
}


def profile_names() -> List[str]:
    return sorted(PROFILES)


def resolve_profile(profile) -> GeneratorProfile:
    """Accept a profile object or name; unknown names raise ``KeyError``
    listing the available profiles."""
    if isinstance(profile, GeneratorProfile):
        return profile
    try:
        return PROFILES[profile]
    except KeyError:
        raise KeyError(f"unknown fuzz profile {profile!r}; choose from "
                       f"{profile_names()}") from None


# --------------------------------------------------------------------------- blocks
@dataclass
class _Block:
    """One droppable body block: its main lines plus any subroutine it
    calls (emitted after the epilogue so fallthrough never reaches it)."""

    lines: List[str] = field(default_factory=list)
    subroutine: List[str] = field(default_factory=list)


class _BlockBuilder:
    """Emits one block's assembly from the shared deterministic stream."""

    def __init__(self, rng: random.Random, profile: GeneratorProfile,
                 index: int):
        self.rng = rng
        self.profile = profile
        self.index = index
        self.block = _Block()
        self._labels = 0
        categories = [name for name, weight in profile.weights
                      for _ in range(weight)]
        self._categories = categories

    # ------------------------------------------------------------- helpers
    def _label(self, kind: str) -> str:
        self._labels += 1
        return f"Lb{self.index}_{kind}{self._labels}"

    def _work(self) -> int:
        return self.rng.choice(_WORK_REGS)

    def _reg(self, number: int) -> str:
        return f"r{number}"

    def emit(self, line: str) -> None:
        self.block.lines.append(f"    {line}")

    # ----------------------------------------------------------------- ops
    def _op_alu(self) -> None:
        if self.rng.random() < 0.5:
            mnemonic = self.rng.choice(("add", "rsub", "addk", "rsubk",
                                        "cmp", "cmpu"))
            self.emit(f"{mnemonic} {self._reg(self._work())}, "
                      f"{self._reg(self._work())}, {self._reg(self._work())}")
        else:
            mnemonic = self.rng.choice(("addi", "rsubi", "addik", "rsubik"))
            imm = self.rng.randint(-32768, 32767)
            self.emit(f"{mnemonic} {self._reg(self._work())}, "
                      f"{self._reg(self._work())}, {imm}")

    def _op_logical(self) -> None:
        if self.rng.random() < 0.5:
            mnemonic = self.rng.choice(("or", "and", "xor", "andn"))
            self.emit(f"{mnemonic} {self._reg(self._work())}, "
                      f"{self._reg(self._work())}, {self._reg(self._work())}")
        else:
            mnemonic = self.rng.choice(("ori", "andi", "xori", "andni"))
            imm = self.rng.randint(-32768, 32767)
            self.emit(f"{mnemonic} {self._reg(self._work())}, "
                      f"{self._reg(self._work())}, {imm}")

    def _op_mul(self) -> None:
        if self.rng.random() < 0.5:
            self.emit(f"mul {self._reg(self._work())}, "
                      f"{self._reg(self._work())}, {self._reg(self._work())}")
        else:
            self.emit(f"muli {self._reg(self._work())}, "
                      f"{self._reg(self._work())}, "
                      f"{self.rng.randint(-32768, 32767)}")

    def _op_barrel(self) -> None:
        if self.rng.random() < 0.5:
            mnemonic = self.rng.choice(("bsrl", "bsra", "bsll"))
            self.emit(f"{mnemonic} {self._reg(self._work())}, "
                      f"{self._reg(self._work())}, {self._reg(self._work())}")
        else:
            mnemonic = self.rng.choice(("bsrli", "bsrai", "bslli"))
            self.emit(f"{mnemonic} {self._reg(self._work())}, "
                      f"{self._reg(self._work())}, {self.rng.randint(0, 31)}")

    def _op_shift(self) -> None:
        mnemonic = self.rng.choice(("sra", "src", "srl", "sext8", "sext16"))
        self.emit(f"{mnemonic} {self._reg(self._work())}, "
                  f"{self._reg(self._work())}")

    def _op_imm32(self) -> None:
        # ``li`` expands to an imm-prefixed pair for 32-bit constants; mix
        # in small constants so both expansions appear.
        if self.rng.random() < 0.7:
            value = self.rng.getrandbits(32) - (1 << 31)
        else:
            value = self.rng.randint(-32768, 32767)
        self.emit(f"li {self._reg(self._work())}, {value}")

    def _mask_for(self, width: str) -> int:
        # Only near-fault profiles draw here, so every other profile's
        # random stream (and thus its programs) is unaffected.
        if self.profile.near_fault \
                and self.rng.random() < _MISALIGNED_ACCESS_PROBABILITY:
            return ALIGNED_MASKS["byte"]
        return ALIGNED_MASKS[width]

    def _op_load(self) -> None:
        width = self.rng.choice(("word", "half", "byte"))
        mnemonic = {"word": "lw", "half": "lhu", "byte": "lbu"}[width]
        if self.rng.random() < 0.5:
            self.emit(f"andi {self._reg(_ADDR_REG)}, "
                      f"{self._reg(self._work())}, {self._mask_for(width)}")
            self.emit(f"{mnemonic} {self._reg(self._work())}, "
                      f"{self._reg(_ZERO_BASE_REG)}, {self._reg(_ADDR_REG)}")
        else:
            offset = self.rng.randrange(0, DATA_WINDOW_BYTES)
            offset &= self._mask_for(width)
            self.emit(f"{mnemonic}i {self._reg(self._work())}, "
                      f"{self._reg(_ZERO_BASE_REG)}, {offset}")

    def _op_store(self) -> None:
        width = self.rng.choice(("word", "half", "byte"))
        mnemonic = {"word": "sw", "half": "sh", "byte": "sb"}[width]
        if self.rng.random() < 0.5:
            self.emit(f"andi {self._reg(_ADDR_REG)}, "
                      f"{self._reg(self._work())}, {self._mask_for(width)}")
            self.emit(f"{mnemonic} {self._reg(self._work())}, "
                      f"{self._reg(_ZERO_BASE_REG)}, {self._reg(_ADDR_REG)}")
        else:
            offset = self.rng.randrange(0, DATA_WINDOW_BYTES)
            offset &= self._mask_for(width)
            self.emit(f"{mnemonic}i {self._reg(self._work())}, "
                      f"{self._reg(_ZERO_BASE_REG)}, {offset}")

    def _op_opb(self, store: bool) -> None:
        """One peripheral access, in one of four address shapes: the
        address register plus the zero base register (an address the jit
        decodes per access, ``r16`` being set outside the block), a
        static address (base and immediate offset set in the block, which
        the jit binds to the owning peripheral), a register-computed
        offset, and — in ``opb_faults`` profiles — rarely a static
        address no peripheral owns."""
        from ..microblaze.opb import OPB_BASE_ADDRESS
        mnemonic = "sw" if store else "lw"
        value = self._reg(self._work())
        base = self._reg(_ADDR_REG)
        shape = self.rng.random()
        if self.profile.opb_faults and shape < _UNMAPPED_OPB_PROBABILITY:
            self.emit(f"li {base}, {OPB_BASE_ADDRESS}")
            self.emit(f"{mnemonic}i {value}, {base}, "
                      f"{self.rng.choice(OPB_UNMAPPED_OFFSETS)}")
            return
        offset = self.rng.choice(OPB_WINDOW_OFFSETS)
        if shape < 0.4:
            self.emit(f"li {base}, {OPB_BASE_ADDRESS + offset}")
            self.emit(f"{mnemonic} {value}, {base}, "
                      f"{self._reg(_ZERO_BASE_REG)}")
        elif shape < 0.7:
            self.emit(f"li {base}, {OPB_BASE_ADDRESS}")
            self.emit(f"{mnemonic}i {value}, {base}, {offset}")
        else:
            index = self._reg(self._work())
            self.emit(f"andi {index}, {self._reg(self._work())}, 12")
            self.emit(f"li {base}, {OPB_BASE_ADDRESS}")
            self.emit(f"{mnemonic} {value}, {base}, {index}")

    def _delay_op(self) -> None:
        """Exactly one single-word instruction, safe in a delay slot (a
        multi-word expansion there would split an ``imm`` prefix or an
        address-mask pair across the branch)."""
        mnemonic = self.rng.choice(("add", "rsub", "xor", "or", "and",
                                    "addk"))
        self.emit(f"{mnemonic} {self._reg(self._work())}, "
                  f"{self._reg(self._work())}, {self._reg(self._work())}")

    def _one_op(self) -> None:
        category = self.rng.choice(self._categories)
        handler = {
            "alu": self._op_alu,
            "logical": self._op_logical,
            "mul": self._op_mul,
            "barrel": self._op_barrel,
            "shift": self._op_shift,
            "imm32": self._op_imm32,
            "load": self._op_load,
            "store": self._op_store,
            "opb_load": lambda: self._op_opb(store=False),
            "opb_store": lambda: self._op_opb(store=True),
        }[category]
        handler()

    # ------------------------------------------------------------ structure
    def _straight_ops(self, count: int) -> None:
        """``count`` ops, some guarded by data-dependent forward skips."""
        emitted = 0
        while emitted < count:
            if self.rng.random() < self.profile.branch_probability \
                    and count - emitted >= 2:
                stem = self.rng.choice(_COND_STEMS)
                label = self._label("skip")
                guarded = self.rng.randint(1, min(3, count - emitted - 1))
                if self.rng.random() < self.profile.delay_slot_probability:
                    # Delay-slot form: the slot op executes on both paths.
                    self.emit(f"{stem}id {self._reg(self._work())}, {label}")
                    self._delay_op()
                else:
                    self.emit(f"{stem}i {self._reg(self._work())}, {label}")
                for _ in range(guarded):
                    self._one_op()
                self.block.lines.append(f"{label}:")
                emitted += guarded + 1
            else:
                self._one_op()
                emitted += 1

    def _loop_tail(self, counter: int, label: str) -> None:
        self.emit(f"addi {self._reg(counter)}, {self._reg(counter)}, -1")
        if self.rng.random() < self.profile.delay_slot_probability:
            self.emit(f"bneid {self._reg(counter)}, {label}")
            self._delay_op()
        else:
            self.emit(f"bnei {self._reg(counter)}, {label}")

    def _call_block(self) -> None:
        name = f"Fb{self.index}_sub"
        self.emit(f"brlid {self._reg(_LINK_REG)}, {name}")
        self.emit("nop")
        sub = [f"{name}:"]
        saved, self.block.lines = self.block.lines, sub
        for _ in range(self.rng.randint(2, 4)):
            self._one_op()
        self.block.lines = saved
        sub.append(f"    rtsd {self._reg(_LINK_REG)}, 8")
        sub.append("    nop")
        self.block.subroutine = sub

    def _self_loop(self) -> None:
        """A counted loop whose body has no branch of its own.  With
        probability ``_LATE_FAULT_PROBABILITY`` the body also walks
        ``r19`` down one word per iteration and loads or stores through
        it: iteration ``fault_at`` (3 or later) reaches address -4,
        outside the data BRAM and every peripheral, and faults."""
        iterations = self.rng.randint(*self.profile.outer_iterations)
        ops = self.rng.randint(*self.profile.ops_per_block)
        walk = None
        if self.rng.random() < _LATE_FAULT_PROBABILITY:
            fault_at = self.rng.randint(3, iterations)
            walk = self.rng.randint(0, ops)
            self.emit(f"addi {self._reg(_WALK_REG)}, r0, {4 * (fault_at - 2)}")
        loop = self._label("self")
        self.emit(f"addi {self._reg(_OUTER_COUNTER)}, r0, {iterations}")
        self.block.lines.append(f"{loop}:")
        for position in range(ops + 1):
            if position == walk:
                mnemonic = self.rng.choice(("lw", "sw"))
                walker = self._reg(_WALK_REG)
                self.emit(f"{mnemonic} {self._reg(self._work())}, {walker}, "
                          f"{self._reg(_ZERO_BASE_REG)}")
                self.emit(f"addi {walker}, {walker}, -4")
            if position < ops:
                self._one_op()
        self._loop_tail(_OUTER_COUNTER, loop)

    def _slot_fault(self) -> None:
        """An unconditional delay-slot branch or call whose slot cannot
        execute on the default configuration: a branch, an ``imm`` prefix
        or ``idiv`` (no divider).  A register-held target is, depending on
        a work register, the word past the slot or the branch itself;
        ``brlid`` always calls past the slot.  A branch to itself halts
        without running its slot; every other form raises in the slot, a
        call after writing its link register."""
        mnemonic = self.rng.choice(("brd", "brad", "brld", "brald", "brlid"))
        slot = self.rng.choice(("bri 8", f"imm {self.rng.randint(0, 65535)}",
                                "idiv r5, r6, r7"))
        branch, after = self._label("slotbr"), self._label("slotok")
        target = self._reg(_ADDR_REG)
        link = f"{self._reg(_LINK_REG)}, " if "l" in mnemonic else ""
        if mnemonic == "brlid":
            operand = after
        else:
            # 0 targets the branch itself; 8 lands past the slot.
            self.emit(f"andi {target}, {self._reg(self._work())}, 8")
            if mnemonic in ("brad", "brald"):
                self.emit(f"addi {target}, {target}, {branch}")
            operand = target
        self.block.lines.append(f"{branch}:")
        self.emit(f"{mnemonic} {link}{operand}")
        self.emit(slot)
        self.block.lines.append(f"{after}:")

    def build(self) -> _Block:
        profile = self.profile
        # Emitted first, so that the first block's runs before any
        # near-fault access can fault.
        if profile.near_fault and self.rng.random() < _SLOT_FAULT_PROBABILITY:
            self._slot_fault()
        if profile.self_loops:
            self._self_loop()
            return self.block
        ops = self.rng.randint(*profile.ops_per_block)
        if self.rng.random() < profile.loop_probability:
            outer = self.rng.randint(*profile.outer_iterations)
            loop = self._label("loop")
            self.emit(f"addi {self._reg(_OUTER_COUNTER)}, r0, {outer}")
            self.block.lines.append(f"{loop}:")
            if self.rng.random() < profile.nested_loop_probability:
                head = max(1, ops // 3)
                self._straight_ops(head)
                inner_count = self.rng.randint(*profile.inner_iterations)
                inner = self._label("inner")
                self.emit(f"addi {self._reg(_INNER_COUNTER)}, r0, "
                          f"{inner_count}")
                self.block.lines.append(f"{inner}:")
                self._straight_ops(max(1, ops - head))
                self._loop_tail(_INNER_COUNTER, inner)
            else:
                self._straight_ops(ops)
            self._loop_tail(_OUTER_COUNTER, loop)
        else:
            self._straight_ops(ops)
        if self.rng.random() < profile.call_probability:
            self._call_block()
        return self.block


# ------------------------------------------------------------------- generation
def _rng_for(seed: int, profile: GeneratorProfile) -> random.Random:
    # str seeding hashes via SHA-512 (seed version 2): deterministic
    # across processes and platforms, unlike hash()-based seeding.
    return random.Random(f"warp-fuzz/{profile.name}/{seed}")


def _generate_parts(seed: int, profile: GeneratorProfile
                    ) -> Tuple[List[str], List[_Block], List[str], List[str]]:
    """The fully deterministic build: prologue, all body blocks, epilogue,
    data section.  Block filtering happens *after* this, so a shrunk
    program's kept blocks are bit-identical to the original's."""
    rng = _rng_for(seed, profile)
    prologue = [
        "    .entry main",
        "    .text",
        "main:",
        f"    addi r{_CHECKSUM_REG}, r0, 0",
        f"    addi r{_ZERO_BASE_REG}, r0, 0",
    ]
    for reg in _WORK_REGS:
        if rng.random() < 0.4:
            prologue.append(f"    li r{reg}, {rng.getrandbits(32) - (1 << 31)}")
        else:
            prologue.append(f"    li r{reg}, {rng.randint(-32768, 32767)}")

    count = rng.randint(*profile.blocks)
    blocks = [_BlockBuilder(rng, profile, index).build()
              for index in range(count)]

    epilogue = []
    fold = ("add", "xor", "add", "rsub")
    for position, reg in enumerate(_WORK_REGS):
        mnemonic = fold[position % len(fold)]
        epilogue.append(f"    {mnemonic} r{_CHECKSUM_REG}, "
                        f"r{_CHECKSUM_REG}, r{reg}")
    epilogue.append("    bri 0")

    data = ["    .data", "fuzzdata:"]
    for _ in range(DATA_WINDOW_BYTES // 4):
        data.append(f"    .word {rng.getrandbits(32)}")
    return prologue, blocks, epilogue, data


def num_blocks(seed: int, profile) -> int:
    """How many body blocks ``(seed, profile)`` generates (shrink domain)."""
    profile = resolve_profile(profile)
    return len(_generate_parts(seed, profile)[1])


def generate_source(seed: int, profile,
                    include_blocks: Optional[Sequence[int]] = None) -> str:
    """The program text for ``(seed, profile)``.

    ``include_blocks`` optionally keeps only the named body-block indices
    (shrinking); prologue, epilogue and the data image are always kept.
    """
    profile = resolve_profile(profile)
    prologue, blocks, epilogue, data = _generate_parts(seed, profile)
    if include_blocks is not None:
        keep = set(include_blocks)
        unknown = keep - set(range(len(blocks)))
        if unknown:
            raise ValueError(f"no such body blocks: {sorted(unknown)} "
                             f"(program has {len(blocks)})")
        selected = [block for index, block in enumerate(blocks)
                    if index in keep]
    else:
        selected = blocks
    lines = list(prologue)
    for block in selected:
        lines.extend(block.lines)
    lines.extend(epilogue)
    for block in selected:
        lines.extend(block.subroutine)
    lines.extend(data)
    return "\n".join(lines) + "\n"


def generate_program(seed: int, profile,
                     include_blocks: Optional[Sequence[int]] = None
                     ) -> Program:
    """Assemble the generated source into a loadable :class:`Program`."""
    profile = resolve_profile(profile)
    source = generate_source(seed, profile, include_blocks=include_blocks)
    return assemble(source, name=f"fuzz-{profile.name}-{seed}")


# --------------------------------------------------------------------- shrinking
def shrink(seed: int, profile,
           predicate: Callable[[Program], bool]
           ) -> Tuple[List[int], Program]:
    """Greedily drop body blocks while ``predicate(program)`` stays true.

    ``predicate`` must hold for the full program (typically "the engines
    diverge on it"); the return value is the minimal kept block index list
    and the corresponding shrunk program.  Deterministic: the kept blocks
    are bit-identical to their counterparts in the full program.
    """
    profile = resolve_profile(profile)
    kept = list(range(num_blocks(seed, profile)))
    if not predicate(generate_program(seed, profile)):
        raise ValueError("predicate does not hold for the full program; "
                         "nothing to shrink")
    changed = True
    while changed:
        changed = False
        for block in list(kept):
            trial = [index for index in kept if index != block]
            if predicate(generate_program(seed, profile,
                                          include_blocks=trial)):
                kept = trial
                changed = True
    return kept, generate_program(seed, profile, include_blocks=kept)
