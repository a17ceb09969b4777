"""The jit's per-program translation table and its inline BRAM accesses.

* **Translate once per program** — a second fresh system on an
  already-translated program emits no source, yet its statistics,
  registers, data BRAM, decode cache and memory-port counters are
  bit-identical to the reference interpreter (the table replays the
  fetches a fresh translation would have made).
* **Keys** — translations are never shared across configurations,
  fault-statistics modes or compiler classes, and a live patch or a
  checkpoint restore re-keys the next translations to the new image.
* **Inline BRAM accesses** — every load/store width at the last valid
  address, just past the end, misaligned and at a wrapped negative
  address, on two data-BRAM sizes, on every block engine in both
  statistics modes, against the interpreter's exception, message,
  statistics and port counters; the emitted access itself, in both its
  word-view and its big-endian slice rendering, against ``BlockRAM``'s
  checked methods; and jit code reading contents that a checkpoint
  restore or a second load wrote through the same views.

No test depends on what earlier tests left in the table: each either
warms it with a *different* program that shares entry pcs first or runs
an image no other test runs.
"""

from __future__ import annotations

import itertools
import sys

import pytest

from repro.isa import assemble
from repro.microblaze import (
    ExecutionLimitExceeded,
    MINIMAL_CONFIG,
    PAPER_CONFIG,
    BlockRAM,
    MemoryError_,
    MicroBlazeConfig,
    MicroBlazeSystem,
    capture_checkpoint,
    engine_names,
    restore_checkpoint,
    run_slice,
    spawn_from_checkpoint,
)
from repro.microblaze.engines import _REGISTRY, register_engine
from repro.microblaze import memory
from repro.microblaze.memory import inline_access_source
from repro.microblaze.engines.jit import (
    _CODE_CACHE,
    JitEngine,
    SourceBlockCompiler,
)
from repro.fabric.hw_exec import WclaPeripheral
from repro.partition.binary_patch import apply_patch
from repro.warp import WarpProcessor

BLOCK_ENGINES = tuple(name for name in engine_names() if name != "interp")


@pytest.fixture
def translations(monkeypatch):
    """Entry pcs of every fresh translation (source emission) made while
    the test runs.  A fault-point re-derivation re-emits a block without
    translating it, so it does not count."""
    made = []
    translate = SourceBlockCompiler._translate

    def counting(self, entry):
        if self._points is None:
            made.append(entry)
        return translate(self, entry)

    monkeypatch.setattr(SourceBlockCompiler, "_translate", counting)
    return made


def _observe(system, result=None) -> tuple:
    cpu = system.cpu
    cpu._sync_counters()
    return (
        result.stats if result is not None else cpu.stats,
        list(cpu.registers),
        cpu.pc,
        bytes(system.data_bram.storage),
        dict(cpu._decoded),
        system.instr_bram.port_a_accesses,
        system.instr_bram.port_b_accesses,
        system.data_bram.port_a_accesses,
        system.data_bram.port_b_accesses,
    )


def _run(program, engine="jit", **kwargs):
    kwargs.setdefault("config", PAPER_CONFIG)
    system = MicroBlazeSystem(engine=engine, **kwargs)
    return system, _observe(system, system.run(program))


# ------------------------------------------------------- translate once
@pytest.mark.parametrize("name,other", [("brev", "canrdr"),
                                        ("matmul", "idct")])
def test_fresh_system_rebinds_without_translating(
        name, other, compiled_small_programs, translations):
    program = compiled_small_programs[name]
    # Same crt0, so the same entry pcs: only the image digest tells the
    # two programs apart.
    _run(compiled_small_programs[other])
    _, reference = _run(program, engine="interp")
    _, first = _run(program)
    assert first == reference
    del translations[:]
    system, second = _run(program)
    assert translations == []
    assert second == reference
    assert system.cpu._blocks


def test_clear_drops_the_table(compiled_small_programs, translations):
    program = compiled_small_programs["g3fax"]
    _run(program)
    _CODE_CACHE.clear()
    del translations[:]
    _, observed = _run(program)
    assert translations
    assert observed == _run(program, engine="interp")[1]


class _MarkingCompiler(SourceBlockCompiler):
    """An emission override: every block also records its entry pc."""

    def _finish(self, entry, *args, **kwargs):
        n, end, static_cycles, source, first = super()._finish(
            entry, *args, **kwargs)
        source = source.replace(
            "    def _block(_limit):\n",
            f"    def _block(_limit):\n        cpu.marks.add({entry})\n", 1)
        return n, end, static_cycles, source, first + 1


class _MarkingJit(JitEngine):
    def __init__(self, cpu):
        super().__init__(cpu)
        cpu.marks = set()
        self.compiler = _MarkingCompiler(self)


@pytest.fixture
def marking_engine():
    register_engine("test-marking-jit", _MarkingJit)
    yield "test-marking-jit"
    _REGISTRY.pop("test-marking-jit", None)


#: Distinct constants that make every assembled image unique.
_IMAGE_SEEDS = itertools.count(1000)

#: System keyword variants that must never share translations.
VARIANTS = {
    "paper": dict(config=PAPER_CONFIG),
    "minimal": dict(config=MINIMAL_CONFIG),
    "marking": dict(config=PAPER_CONFIG, engine="test-marking-jit"),
}


@pytest.mark.parametrize("first,second", [
    ("paper", "minimal"), ("minimal", "paper"),
    ("paper", "marking"), ("marking", "paper"),
])
def test_no_sharing_across_keys(first, second, marking_engine,
                                translations):
    # An image no other test runs (the seed constant), without multiplier
    # or barrel shifter so that it runs under both configurations.
    program = assemble(f"""
        addi r5, r0, 5
        addi r3, r0, {next(_IMAGE_SEEDS)}
    loop:
        addi r3, r3, 7
        swi  r3, r0, 64
        lwi  r6, r0, 64
        addi r5, r5, -1
        bnei r5, loop
        bri  0
    """)
    _run(program, **VARIANTS[first])
    del translations[:]
    variant = dict(VARIANTS[second])
    engine = variant.pop("engine", "jit")
    system, observed = _run(program, engine=engine, **variant)
    assert translations, f"{second} reused {first}'s translations"
    _, reference = _run(program, engine="interp", **variant)
    assert observed == reference
    if second == "marking":
        assert system.cpu.marks
    else:
        assert not hasattr(system.cpu, "marks")


def test_raiser_blocks_are_never_shared(translations):
    """A block whose translation hit a fetch fault (here: fetch past the
    BRAM end) is translated afresh by every system."""
    program = assemble("""
        addi r5, r0, 7
        swi r5, r0, 0
    """)
    config = MicroBlazeConfig(instr_bram_kb=1, data_bram_kb=1)
    outcomes = []
    for engine in ("jit", "jit", "interp"):
        system = MicroBlazeSystem(config=config, engine=engine)
        base = system.instr_bram.size - 4 * len(program.text)
        system.instr_bram.store_words(base, program.text)
        system.cpu.reset(entry_point=base)
        del translations[:]
        with pytest.raises(MemoryError_) as info:
            system.cpu.run()
        outcomes.append((str(info.value), system.cpu.stats,
                         bytes(system.data_bram.storage),
                         system.data_bram.port_a_accesses))
        if engine == "jit":
            assert translations == [base]
    assert outcomes[0] == outcomes[1] == outcomes[2]


# ------------------------------------------------ new images, new keys
def _partitioned(engine, program):
    warp = WarpProcessor(config=PAPER_CONFIG, engine=engine)
    software, profiler = warp.profile(program)
    outcome = warp.dpm.partition(program.copy(),
                                 profiler.most_critical_region())
    assert outcome.success
    live = program.copy()
    system = MicroBlazeSystem(config=PAPER_CONFIG, engine=engine)
    system.load(live)
    system.attach_peripheral(WclaPeripheral(
        warp.wcla_base_address, outcome.implementation, system.data_bram))
    system.cpu.reset(entry_point=live.entry_point)
    return warp, software, outcome, live, system


def _patched_mid_run(engine, program):
    warp, software, outcome, live, system = _partitioned(engine, program)
    with pytest.raises(ExecutionLimitExceeded):
        system.cpu.run(max_instructions=software.instructions // 2)
    apply_patch(live, outcome.kernel, wcla_base=warp.wcla_base_address,
                system=system)
    result = system.cpu.run()
    assert system.cpu.read_register(3) == software.return_value
    return _observe(system), result.instructions, software.instructions


@pytest.mark.parametrize("engine", BLOCK_ENGINES)
def test_live_patch_rekeys_translations(engine, compiled_small_programs):
    program = compiled_small_programs["canrdr"]
    _run(compiled_small_programs["bitmnp"], engine=engine)
    _run(program, engine=engine)  # the unpatched image is in the table
    observed, instructions, software = _patched_mid_run(engine, program)
    assert observed == _patched_mid_run("interp", program)[0]
    assert instructions < software  # the patched loop ran on the WCLA
    # The patched image's translations never serve the unpatched program.
    assert _run(program, engine=engine)[1] \
        == _run(program, engine="interp")[1]


@pytest.mark.parametrize("engine", BLOCK_ENGINES)
def test_checkpoint_restore_rekeys_translations(engine,
                                                compiled_small_programs):
    program = compiled_small_programs["matmul"]
    other = compiled_small_programs["brev"]
    source = MicroBlazeSystem(config=PAPER_CONFIG, engine=engine)
    source.start(program)
    assert not run_slice(source, 400)
    blob = capture_checkpoint(source)

    target, _ = _run(other, engine=engine)  # warm on another image
    restore_checkpoint(target, blob)
    observed = _observe(target, target.resume())
    reference_system = spawn_from_checkpoint(blob, engine="interp")
    assert observed == _observe(reference_system, reference_system.resume())
    # And the other program still runs on its own translations.
    assert _run(other, engine=engine)[1] == _run(other, engine="interp")[1]


# ------------------------------------------------------ inline accesses
#: Data-BRAM sizes the boundary cases run on: the jit bakes ``size -
#: width`` into each emitted guard, so the end of the BRAM must follow
#: the configuration.
DATA_BRAM_KB = (1, 8)
WIDTHS = {"lbu": 1, "lhu": 2, "lw": 4, "lbui": 1, "lhui": 2, "lwi": 4,
          "sb": 1, "sh": 2, "sw": 4, "sbi": 1, "shi": 2, "swi": 4}
STORES = {"sb", "sh", "sw", "sbi", "shi", "swi"}
#: -1234 as a word: every byte differs, so width truncation shows.
PATTERN = -1234


def _config(data_kb: int) -> MicroBlazeConfig:
    return MicroBlazeConfig(use_barrel_shifter=True, use_multiplier=True,
                            data_bram_kb=data_kb)


def _addresses(width: int, size: int):
    """Last valid, straddling the end, first aligned past the end,
    misaligned in range, and a wrapped negative address."""
    addresses = [size - width, size - width + 1, size, -width]
    if width > 1:
        addresses.append(size - 2 * width + 1)
    return addresses


def _access(op: str) -> str:
    register = "r6" if op in STORES else "r7"
    operand = "0" if op.endswith("i") else "r0"
    return f"{op} {register}, r5, {operand}"


def _straight_line(op: str, address: int, size: int) -> str:
    return f"""
        addi r6, r0, {PATTERN}
        swi  r6, r0, {size - 4}
        addi r5, r0, {address}
        {_access(op)}
        addi r8, r0, 1
        bri  0
    """


#: Byte address of :func:`_hot_loop`'s loop header, and the instructions
#: it retires before its last iteration (5 set-up instructions, then 11
#: iterations of the 9-instruction body).
LOOP_ENTRY = 20
BEFORE_LAST_ITERATION = 5 + 11 * 9


def _hot_loop(op: str, address: int, size: int) -> str:
    """Twelve accesses at a valid address, the last one at ``address``.

    The address is selected without a branch, so the loop body is one
    superblock: the jit translates it on the second iteration and runs
    the boundary access from that cached translation."""
    return f"""
        addi r6, r0, {PATTERN}
        swi  r6, r0, {size - 4}
        addi r10, r0, {address}
        addi r13, r0, 16
        addi r9, r0, 12
    loop:
        addi r9, r9, -1
        addi r11, r9, -1
        bsrai r11, r11, 31     # -1 on the last iteration, else 0
        xor  r5, r10, r13
        and  r5, r5, r11
        xor  r5, r5, r13       # address on the last iteration, else 16
        {_access(op)}
        addi r6, r6, 3
        bnei r9, loop
        bri  0
    """


def _delay_slot(op: str, address: int, size: int) -> str:
    """The access in the delay slot of a taken branch."""
    return f"""
        addi r6, r0, {PATTERN}
        swi  r6, r0, {size - 4}
        addi r5, r0, {address}
        brid 8
        {_access(op)}
        addi r8, r0, 1
        bri  0
    """


def _after_imm(op: str, address: int, size: int) -> str:
    """The access behind an ``imm 0`` prefix: a fault leaves the latch
    set (register forms consume it without using it)."""
    return f"""
        addi r6, r0, {PATTERN}
        swi  r6, r0, {size - 4}
        addi r5, r0, {address}
        imm  0
        {_access(op)}
        addi r8, r0, 1
        bri  0
    """


def _outcome(source: str, engine: str, hot_loop: bool,
             config: MicroBlazeConfig) -> tuple:
    system = MicroBlazeSystem(config=config, engine=engine)
    try:
        if hot_loop:
            system.start(assemble(source))
            assert not run_slice(system, BEFORE_LAST_ITERATION)
            if engine != "interp":
                # The last iteration dispatches a cached superblock.
                assert LOOP_ENTRY in system.cpu._engine_impl.blocks
            system.resume()
        else:
            system.run(assemble(source))
        fault = None
    except MemoryError_ as error:
        fault = str(error)
    cpu = system.cpu
    cpu._sync_counters()
    state = (fault, list(cpu.registers), bytes(system.data_bram.storage),
             system.data_bram.port_a_accesses,
             system.data_bram.port_b_accesses, cpu.stats, cpu.pc,
             cpu._imm_latch)
    # A translation fetches its whole superblock, so a fault in a block
    # that never ran before leaves the instruction-port count ahead.
    if fault is None or hot_loop:
        return state + (system.instr_bram.port_a_accesses,)
    return state


@pytest.mark.parametrize("engine", BLOCK_ENGINES)
@pytest.mark.parametrize("op", sorted(WIDTHS))
@pytest.mark.parametrize("shape",
                         [_straight_line, _hot_loop, _delay_slot, _after_imm],
                         ids=["straight-line", "hot-loop", "delay-slot",
                              "after-imm"])
@pytest.mark.parametrize("data_kb", DATA_BRAM_KB,
                         ids=[f"{kb}KiB" for kb in DATA_BRAM_KB])
def test_bram_boundaries_match_the_interpreter(data_kb, shape, op, engine):
    config = _config(data_kb)
    addresses = _addresses(WIDTHS[op], data_kb * 1024)
    faults = 0
    hot_loop = shape is _hot_loop
    for address in addresses:
        source = shape(op, address, data_kb * 1024)
        expected = _outcome(source, "interp", hot_loop, config)
        assert _outcome(source, engine, hot_loop, config) \
            == expected, (op, address)
        faults += expected[0] is not None
    # Only the last valid address is accessible.
    assert faults == len(addresses) - 1


@pytest.mark.parametrize("little", [True, False], ids=["views", "slices"])
@pytest.mark.parametrize("size", [14, 15, 16])
@pytest.mark.parametrize("width", [1, 2, 4])
@pytest.mark.parametrize("load", [True, False], ids=["load", "store"])
def test_inline_access_source_mirrors_the_checked_methods(
        load, width, size, little, monkeypatch):
    """The emitted guard is exactly ``BlockRAM._check``, negative
    addresses included (no generated caller can produce one today).
    Both renderings of the fast path, the word and halfword views of a
    little-endian host and the converted storage slices of a big-endian
    one (forced here through the same switch), read and write what the
    checked methods do, also at the last valid address of a BRAM whose
    views leave its trailing bytes out."""
    if little and sys.byteorder != "little":
        pytest.skip("the views hold byte-swapped words on this host")
    monkeypatch.setattr(memory, "LITTLE_ENDIAN_HOST", little)
    value = 0xA5C3_E1F7
    lines = inline_access_source(load, width, "a", "v" if load else "value",
                                 "mem", "words", "halves", "checked", "top",
                                 "bram.port_a_accesses += 1")
    views = {1: "mem[a]", 2: "halves[a >> 1]", 4: "words[a >> 2]"}
    assert (views[width] in "\n".join(lines)) == (little or width == 1)
    for address in list(range(-2 * width, size + width)) + [0xFFFF_FFFC]:
        results = []
        for inline in (True, False):
            bram = BlockRAM(size)
            bram.load_image(bytes(range(0x80, 0x80 + size)))
            checked = bram.load if load else bram.store
            try:
                if inline:
                    namespace = dict(a=address, value=value, v=None,
                                     mem=bram.storage, words=bram.word_view,
                                     halves=bram.half_view, checked=checked,
                                     top=size - width, bram=bram)
                    exec("\n".join(lines), namespace)
                    outcome = namespace["v"]
                elif load:
                    outcome = checked(address, width)
                else:
                    outcome = checked(address, value, width)
            except MemoryError_ as error:
                outcome = str(error)
            results.append((outcome, bram.port_a_accesses,
                            bytes(bram.storage)))
        assert results[0] == results[1], address


def _view_reader(word: int, half: int, byte: int):
    """Loads a word, a halfword and a byte, returns their sum and stores
    it back as a word and as a halfword."""
    return assemble(f"""
        .text
        lwi  r5, r0, 0
        lhui r6, r0, 4
        lbui r7, r0, 6
        add  r3, r5, r6
        add  r3, r3, r7
        swi  r3, r0, 8
        shi  r3, r0, 12
        bri  0
        .data
        .word {word}
        .half {half}
        .byte {byte}
    """)


def test_views_read_restored_and_reloaded_contents():
    """A checkpoint restore and a second load rewrite the data BRAM in
    place: jit code indexes the same word and halfword views and reads
    the new contents, as the interpreter does."""
    system = MicroBlazeSystem(config=PAPER_CONFIG, engine="jit")
    bram = system.data_bram
    words, halves = bram.word_view, bram.half_view

    def check(result, reference, word, half, byte):
        total = ((word + half + byte) & 0xFFFF_FFFF).to_bytes(4, "little")
        assert result.return_value == int.from_bytes(total, "little")
        assert result.data_image[8:14] == total + total[:2]
        assert (result.stats, result.data_image) \
            == (reference.stats, reference.data_image)
        assert bram.word_view is words and bram.half_view is halves

    def interp(program):
        return MicroBlazeSystem(config=PAPER_CONFIG,
                                engine="interp").run(program)

    first = (0x0102_0304, 0x0506, 0x07)
    check(system.run(_view_reader(*first)), interp(_view_reader(*first)),
          *first)

    restored = (0x8899_AABB, 0xCCDD, 0xEE)
    source = MicroBlazeSystem(config=PAPER_CONFIG, engine="jit")
    source.start(_view_reader(*restored))
    assert not run_slice(source, 2)
    blob = capture_checkpoint(source)
    restore_checkpoint(system, blob)
    check(system.resume(),
          spawn_from_checkpoint(blob, engine="interp").resume(), *restored)

    reloaded = (0xFFFF_FFFF, 0xFFFF, 0xFF)
    system.load(_view_reader(*reloaded))
    check(system.run(), interp(_view_reader(*reloaded)), *reloaded)
