"""Self-loop superblocks stay bit-exact with the interpreter.

A block whose terminator statically branches back to its own entry runs
all its iterations in one generated call: registers and counters live in
locals, the static statistics are added once per call, and a fault
flushes them before the fault point is re-derived.  Each case below runs
one such loop on every block engine and on ``interp`` and compares
registers, pc, imm latch, statistics, memory-port and OPB counters, the
data image and the profiler's cache, and checks that the loop really ran
as a self-loop translation.
"""

from __future__ import annotations

import itertools

import pytest

from repro.fuzz import generate_program, observe
from repro.isa.assembler import assemble
from repro.microblaze import (
    MicroBlazeSystem,
    PAPER_CONFIG,
    engine_names,
    run_slice,
)
from repro.microblaze.engines import jit
from repro.microblaze.opb import OPB_BASE_ADDRESS, SimplePeripheral
from repro.profiler.profiler import OnChipProfiler

BLOCK_ENGINES = tuple(name for name in engine_names() if name != "interp")

#: 50 iterations of a 5-instruction loop that stores a running sum.
#: The loop label is at byte 8.
STORE_LOOP = """
    addi r5, r0, 50
    addi r6, r0, 0
loop:
    addi r3, r3, 7
    sw   r3, r6, r0
    addi r6, r6, 4
    addi r5, r5, -1
    bnei r5, loop
    bri  0
"""

#: The word load's address is ``r6 + r11``: ``r11`` turns 2 once ``r6``
#: reaches 16, so iteration 5 loads from 18 and faults misaligned.
MISALIGNED_LATE = """
    addi r5, r0, 9
    addi r6, r0, 0
loop:
    andi r11, r6, 16
    bsrli r11, r11, 3
    lw   r8, r6, r11
    add  r3, r3, r8
    addi r6, r6, 4
    addi r5, r5, -1
    bnei r5, loop
    bri  0
"""

#: ``r6`` walks down one word per iteration: iteration 5 stores to
#: 0xFFFFFFFC, which no peripheral owns and the data BRAM does not
#: hold.
UNMAPPED_LATE = """
    addi r5, r0, 9
    addi r6, r0, 12
loop:
    addi r3, r3, 1
    sw   r3, r6, r0
    addi r6, r6, -4
    addi r5, r5, -1
    bnei r5, loop
    bri  0
"""

#: A delay-slot self-loop whose slot is a load that faults on iteration
#: 5 (same address trick as MISALIGNED_LATE).
DELAY_SLOT_LOOP = """
    addi r5, r0, 9
    addi r6, r0, 0
loop:
    andi r11, r6, 16
    bsrli r11, r11, 3
    addi r6, r6, 4
    addi r5, r5, -1
    bneid r5, loop
    lw   r8, r6, r11
    bri  0
"""

#: ``imm`` prefixes fused into an ALU immediate, a load offset and the
#: loop branch itself (0xFFFF extends the branch's negative offset).
IMM_LOOP = """
    addi r5, r0, 12
    addi r6, r0, 0
loop:
    imm  0x1234
    addi r3, r3, 0x5678
    imm  0
    lwi  r8, r6, 8
    add  r3, r3, r8
    addi r6, r6, 4
    addi r5, r5, -1
    imm  0xFFFF
    bnei r5, loop
    bri  0
"""

#: Polls a status register until the device reports ready, writing the
#: poll count to the device's data register each time round.
STATUS_POLL = f"""
    li   r17, {OPB_BASE_ADDRESS}
loop:
    addi r3, r3, 1
    sw   r3, r17, r16
    lwi  r5, r17, 8
    beqi r5, loop
    bri  0
"""

#: Reads a timer's expired-period count on every iteration.
TIMER_LOOP = f"""
    li   r17, {OPB_BASE_ADDRESS}
    addi r5, r0, 40
loop:
    lw   r6, r17, r0
    add  r3, r3, r6
    addi r5, r5, -1
    bnei r5, loop
    bri  0
"""

#: The raising-observer repro: the first taken backward branch comes
#: from the block at entry 0, every later one from the self-loop at 4.
COUNTDOWN = """
    addi r5, r0, 5
loop:
    addi r5, r5, -1
    bnei r5, loop
    bri  0
"""

#: The same with a delay slot.
COUNTDOWN_DELAY = """
    addi r5, r0, 5
loop:
    addi r5, r5, -1
    bneid r5, loop
    addi r3, r3, 1
    bri  0
"""

#: A register-held backward target (``r7`` = -4): never a self-loop, and
#: the fault pc comes from the block frame's ``_target``.
COUNTDOWN_REGISTER = """
    addi r5, r0, 5
    addi r7, r0, -4
loop:
    addi r5, r5, -1
    bne  r5, r7
    bri  0
"""

BIG = 1_000_000


class StatusDevice:
    """Status at offset 8 reads 0 until the ``ready_after``-th read;
    offset 4 is a plain data register."""

    base_address = OPB_BASE_ADDRESS
    window_size = 16
    name = "status"

    def __init__(self, ready_after: int):
        self.ready_after = ready_after
        self.status_reads = 0
        self.data = 0

    def read(self, offset):
        if offset == 8:
            self.status_reads += 1
            return int(self.status_reads >= self.ready_after)
        return self.data

    def write(self, offset, value):
        self.data = value

    def tick(self, cycles):
        return None

    def snapshot_state(self):
        return {"status_reads": self.status_reads, "data": self.data}


class Timer:
    """Engine-driven timer: reads the number of expired ``period``-cycle
    periods and declares each period end as a tick deadline."""

    base_address = OPB_BASE_ADDRESS
    window_size = 4
    name = "timer"
    wants_ticks = True

    def __init__(self, period: int):
        self.period = period
        self.total = 0

    def read(self, offset):
        return self.total // self.period

    def write(self, offset, value):
        return None

    def tick(self, cycles):
        self.total += cycles

    def tick_deadline(self):
        return self.period - self.total % self.period

    def snapshot_state(self):
        return {"total": self.total}


class RaiseOnCall:
    """Observer that raises on its ``n``-th taken backward branch."""

    def __init__(self, n: int):
        self.n = n
        self.calls = 0

    def on_backward_branch(self, pc, target):
        self.calls += 1
        if self.calls == self.n:
            raise RuntimeError(f"observer stop at {pc:#x} -> {target:#x}")


def _observe(source, engine, *, peripherals=(), listeners=(), ahead=(),
             max_instructions=BIG, slices=None):
    """Run ``source`` on ``engine``: ``(observation, system)``.  A
    profiler is attached after the ``ahead`` listeners and before the
    other ``listeners``."""
    program = assemble(source, name="self-loop")
    system = MicroBlazeSystem(config=PAPER_CONFIG, engine=engine,
                              peripherals=peripherals)
    profiler = OnChipProfiler()
    for listener in (*ahead, profiler, *listeners):
        system.cpu.add_listener(listener)
    outcome = "halted"
    try:
        if slices is None:
            system.run(program, max_instructions=max_instructions)
        else:
            system.start(program)
            for budget in itertools.cycle(slices):
                if run_slice(system, budget):
                    break
    except Exception as error:  # noqa: BLE001 - the outcome is compared
        outcome = f"{type(error).__name__}: {error}"
    cpu = system.cpu
    cache = profiler.cache
    observation = {
        "outcome": outcome,
        "registers": list(cpu.registers),
        "pc": cpu.pc,
        "imm_latch": cpu._imm_latch,
        "stats": cpu.stats.to_plain(),
        "ports": (system.data_bram.port_a_accesses,
                  system.data_bram.port_b_accesses,
                  system.instr_bram.port_a_accesses,
                  system.instr_bram.port_b_accesses),
        "opb": (system.opb.reads, system.opb.writes,
                [getattr(device, "snapshot_state", dict)()
                 for device in system.opb.peripherals]),
        "data": bytes(system.data_bram.storage),
        "profiler": ([(entry.target_address, entry.branch_address,
                       entry.count) for entry in cache.entries()],
                     cache.evictions, cache.updates,
                     profiler.instructions_observed),
    }
    return observation, system


def _self_loop_translated(system, entry: int) -> bool:
    """Whether the block at ``entry`` is a self-loop translation."""
    block = system.cpu._blocks.get(entry)
    return block is not None and "_i" in block[1].__code__.co_varnames


def _assert_matches_interp(source, engine, entry=8, make_peripherals=tuple,
                           **kwargs):
    reference, _ = _observe(source, "interp",
                            peripherals=make_peripherals(), **kwargs)
    observed, system = _observe(source, engine,
                                peripherals=make_peripherals(), **kwargs)
    assert observed == reference
    assert _self_loop_translated(system, entry)
    return reference


@pytest.mark.parametrize("engine", BLOCK_ENGINES)
class TestSelfLoopBitExact:
    # 2 setup instructions, then 5 per iteration: every offset within an
    # iteration, at the loop's start, middle and last iterations.
    @pytest.mark.parametrize("budget", [8, 9, 10, 11, 12, 13, 14, 127, 131,
                                        248, 251])
    def test_budget_ends_mid_loop(self, engine, budget):
        reference = _assert_matches_interp(STORE_LOOP, engine,
                                           max_instructions=budget)
        assert reference["outcome"].startswith("ExecutionLimitExceeded")
        assert reference["stats"]["instructions"] == budget

    @pytest.mark.parametrize("slices", [(7,), (13, 3), (5,), (1, 50)])
    def test_run_slice_splits(self, engine, slices):
        reference = _assert_matches_interp(STORE_LOOP, engine, slices=slices)
        assert reference["outcome"] == "halted"
        assert reference["stats"]["instructions"] == 2 + 5 * 50 + 1

    def test_misaligned_fault_on_a_later_iteration(self, engine):
        reference = _assert_matches_interp(MISALIGNED_LATE, engine)
        assert "misaligned" in reference["outcome"]
        # Four whole iterations ran before the fifth faulted.
        assert reference["stats"]["branches_taken"] == 4

    def test_unmapped_fault_on_a_later_iteration(self, engine):
        reference = _assert_matches_interp(
            UNMAPPED_LATE, engine,
            make_peripherals=lambda: (SimplePeripheral(OPB_BASE_ADDRESS),))
        assert reference["outcome"].startswith("MemoryError_")
        assert reference["stats"]["branches_taken"] == 4

    def test_delay_slot_loop_faults_in_a_later_slot(self, engine):
        reference = _assert_matches_interp(DELAY_SLOT_LOOP, engine)
        assert "misaligned" in reference["outcome"]
        # The slot of iteration 5 faults: neither it nor its branch is
        # recorded, and the pc is the slot's.
        assert reference["stats"]["branches_taken"] == 4
        assert reference["pc"] == 28

    def test_delay_slot_loop_to_completion(self, engine):
        source = DELAY_SLOT_LOOP.replace("lw   r8, r6, r11",
                                         "add  r3, r3, r6")
        reference = _assert_matches_interp(source, engine)
        assert reference["outcome"] == "halted"

    def test_imm_prefixed_loop(self, engine):
        reference = _assert_matches_interp(IMM_LOOP, engine)
        assert reference["outcome"] == "halted"
        # 11 loop branches and the halting ``bri 0``.
        assert reference["stats"]["branches_taken"] == 12

    def test_imm_prefixed_loop_budget_after_a_prefix(self, engine):
        # 2 setup instructions, 9 per iteration; 2 + 9 + 1 stops with the
        # first prefix of the second iteration latched.
        reference = _assert_matches_interp(IMM_LOOP, engine,
                                           max_instructions=12)
        assert reference["imm_latch"] == 0x1234

    def test_opb_status_poll(self, engine):
        reference = _assert_matches_interp(
            STATUS_POLL, engine, entry=8,
            make_peripherals=lambda: (StatusDevice(ready_after=30),))
        assert reference["stats"]["opb_reads"] == 30
        assert reference["stats"]["opb_writes"] == 30

    @pytest.mark.parametrize("period", [7, 16, 50])
    def test_ticking_deadline_inside_the_loop(self, engine, period):
        reference = _assert_matches_interp(
            TIMER_LOOP, engine, entry=12,
            make_peripherals=lambda: (Timer(period),))
        timer_total = reference["opb"][2][0]["total"]
        assert timer_total == reference["stats"]["cycles"]


class TestRaisingObserver:
    """An observer that raises stops the run with the branch completed:
    pc at the taken target, imm latch clear, the branch recorded."""

    @pytest.mark.parametrize("engine", BLOCK_ENGINES)
    @pytest.mark.parametrize("source,raise_on,loop_block", [
        pytest.param(COUNTDOWN, 1, False, id="block"),
        pytest.param(COUNTDOWN, 2, True, id="self-loop"),
        pytest.param(COUNTDOWN, 4, True, id="self-loop-3rd"),
        pytest.param(COUNTDOWN_DELAY, 1, False, id="delay-block"),
        pytest.param(COUNTDOWN_DELAY, 3, True, id="delay-self-loop"),
        pytest.param(COUNTDOWN_REGISTER, 2, False, id="register-target"),
    ])
    def test_fault_point_is_the_taken_target(self, engine, source, raise_on,
                                             loop_block):
        entry = 8 if source is COUNTDOWN_REGISTER else 4
        reference, _ = _observe(source, "interp",
                                listeners=[RaiseOnCall(raise_on)])
        observed, system = _observe(source, engine,
                                    listeners=[RaiseOnCall(raise_on)])
        assert observed == reference
        assert reference["outcome"].startswith("RuntimeError")
        assert reference["pc"] == entry
        assert reference["stats"]["branches_taken"] == raise_on
        assert _self_loop_translated(system, entry) == loop_block


class TestProfilerBesideARaisingObserver:
    """A listener without ``on_backward_branches`` puts every self-loop
    on the per-branch path: ahead of the profiler or behind it, the run
    stops where ``interp`` stops, with the same profiler state."""

    @pytest.mark.parametrize("engine", BLOCK_ENGINES)
    @pytest.mark.parametrize("ahead", [True, False],
                             ids=["before", "after"])
    @pytest.mark.parametrize("source,raise_on", [
        pytest.param(COUNTDOWN, 3, id="countdown"),
        pytest.param(COUNTDOWN_DELAY, 3, id="delay"),
        pytest.param(STORE_LOOP, 30, id="store-loop"),
        pytest.param(IMM_LOOP, 7, id="imm-loop"),
    ])
    def test_stops_where_interp_stops(self, engine, ahead, source,
                                      raise_on):
        def run(engine_name):
            raiser = [RaiseOnCall(raise_on)]
            placed = {"ahead": raiser} if ahead else {"listeners": raiser}
            return _observe(source, engine_name, **placed)

        reference, _ = run("interp")
        observed, system = run(engine)
        assert observed == reference
        assert reference["outcome"].startswith("RuntimeError")
        # The profiler heard the raising branch only if it came first.
        assert reference["profiler"][2] == raise_on - ahead
        assert not system.cpu._bulk_observers


class BulkRecorder:
    """Records what it hears as ``(pc, target, count)``."""

    def __init__(self):
        self.calls = []

    def on_backward_branch(self, pc, target):
        self.calls.append((pc, target, 1))

    def on_backward_branches(self, pc, target, count):
        self.calls.append((pc, target, count))


def test_the_bulk_flag_follows_the_listeners():
    cpu = MicroBlazeSystem(config=PAPER_CONFIG).cpu
    profiler, raiser = OnChipProfiler(), RaiseOnCall(1)
    assert cpu._bulk_observers
    cpu.add_listener(profiler)
    assert cpu._bulk_observers
    cpu.add_listener(raiser)
    assert not cpu._bulk_observers
    cpu.remove_listener(profiler)
    assert not cpu._bulk_observers
    cpu.remove_listener(raiser)
    assert cpu._bulk_observers


@pytest.mark.parametrize("engine", BLOCK_ENGINES)
def test_bulk_observers_hear_a_self_loop_once_per_call(engine):
    """STORE_LOOP's branch at 24 is taken 49 times: ``interp`` reports
    each branch.  The block at entry 0 runs the first iteration and
    reports its branch alone; the self-loop at 8 runs the other 48 and
    reports one count at its exit."""
    program = assemble(STORE_LOOP, name="self-loop")
    heard = {}
    for name in ("interp", engine):
        recorder = BulkRecorder()
        MicroBlazeSystem(config=PAPER_CONFIG, engine=name).run(
            program, listeners=[recorder])
        heard[name] = recorder.calls
    assert heard["interp"] == [(24, 8, 1)] * 49
    assert heard[engine] == [(24, 8, 1), (24, 8, 48)]


def test_loops_profile_yields_multi_iteration_self_loops(monkeypatch):
    """The ``loops`` fuzz profile's programs translate self-loops that
    run several iterations per call, and some fault inside one after
    iterating in the same call."""
    calls = []
    bind = jit.bind

    def recording(make, cpu, slots):
        # The loop's slot counts its iterations, its correction slot
        # whether the branch fell through.
        bc = cpu._engine_impl.bc
        first = len(bc)
        block = bind(make, cpu, slots)
        if "_i" not in block.__code__.co_varnames:
            return block

        def taken():
            return bc[first] - (bc[first + 1] if len(slots) > 1 else 0)

        def counted(limit):
            before = taken()
            raised = True
            try:
                pc = block(limit)
                raised = False
                return pc
            finally:
                calls.append((taken() - before, raised))
        return counted

    monkeypatch.setattr(jit, "bind", recording)
    for seed in range(8):
        observe(generate_program(seed, "loops"), "jit", with_opb=True)
    taken = [count for count, _ in calls]
    assert len(calls) >= 8
    assert max(taken) >= 10
    assert sum(count >= 2 for count in taken) >= 8
    assert any(raised and count >= 1 for count, raised in calls)


# -------------------------------------------------------------- block counts
#: A straight-line block writes the OPB, then faults on a misaligned
#: load (``r5`` = 9) before its branch.
OPB_THEN_MISALIGNED = f"""
    li   r17, {OPB_BASE_ADDRESS}
    addi r5, r0, 9
    sw   r5, r17, r0
    addi r3, r3, 1
    lw   r6, r5, r0
    bri  0
"""

#: MISALIGNED_LATE with an OPB read at the top of every iteration.
OPB_LOOP_MISALIGNED_LATE = f"""
    li   r17, {OPB_BASE_ADDRESS}
    addi r5, r0, 9
    addi r6, r0, 0
loop:
    lw   r7, r17, r0
    andi r11, r6, 16
    bsrli r11, r11, 3
    lw   r8, r6, r11
    add  r3, r3, r8
    addi r6, r6, 4
    addi r5, r5, -1
    bnei r5, loop
    bri  0
"""


def _device():
    return (SimplePeripheral(OPB_BASE_ADDRESS),)


@pytest.mark.parametrize("engine", BLOCK_ENGINES)
class TestBlockCounts:
    """Blocks count their executions in the engine's slots, which fold
    into the statistics once per run: every statistic, per-class cycles
    included, equals ``interp``'s, and no count is left unfolded."""

    @staticmethod
    def _check(source, engine, make_peripherals=tuple, **kwargs):
        reference, _ = _observe(source, "interp",
                                peripherals=make_peripherals(), **kwargs)
        observed, system = _observe(source, engine,
                                    peripherals=make_peripherals(), **kwargs)
        assert observed["stats"]["class_cycles"] \
            == reference["stats"]["class_cycles"]
        if reference["outcome"] != "halted":
            # A translation fetched its block's words past the fault or
            # budget stop, which the interpreter never fetches.
            for run in (observed, reference):
                run["ports"] = run["ports"][:2] + run["ports"][3:]
        assert observed == reference
        assert not any(system.cpu._engine_impl.bc)
        return reference, system

    @pytest.mark.parametrize("source,make_peripherals", [
        (MISALIGNED_LATE, tuple),
        (OPB_LOOP_MISALIGNED_LATE, _device),
        (DELAY_SLOT_LOOP, tuple),
    ])
    def test_fault_on_a_later_iteration_of_a_self_loop(
            self, engine, source, make_peripherals):
        reference, system = self._check(source, engine, make_peripherals)
        assert "misaligned" in reference["outcome"]
        assert reference["stats"]["branches_taken"] == 4
        entry = assemble(source).symbols["loop"].address
        assert _self_loop_translated(system, entry)

    def test_fault_mid_block_after_an_opb_access(self, engine):
        reference, _ = self._check(OPB_THEN_MISALIGNED, engine, _device)
        assert "misaligned" in reference["outcome"]
        assert reference["stats"]["opb_writes"] == 1
        assert reference["stats"]["instructions"] == 5

    # STORE_LOOP runs 2 + 5 * 50 + 1 = 253 instructions: stops before
    # the loop, inside it, before the halting branch (the near-budget
    # hand-off to the interpreter) and exactly at the end.
    @pytest.mark.parametrize("budget", [1, 2, 3, 12, 250, 252, 253])
    def test_budget_stop_and_the_near_budget_hand_off(self, engine,
                                                      budget):
        reference, _ = self._check(STORE_LOOP, engine,
                                   max_instructions=budget)
        assert reference["stats"]["instructions"] == min(budget, 253)

    @pytest.mark.parametrize("period", [3, 7, 50])
    def test_ticking_deadline_inside_a_block(self, engine, period):
        reference, _ = self._check(TIMER_LOOP, engine,
                                   make_peripherals=lambda: (Timer(period),))
        assert reference["opb"][2][0]["total"] \
            == reference["stats"]["cycles"]

    @pytest.mark.parametrize("slices", [(7,), (13, 3), (1, 50)])
    def test_run_slice_split(self, engine, slices):
        reference, _ = self._check(STORE_LOOP, engine, slices=slices)
        assert reference["outcome"] == "halted"

    def test_one_translation_bound_into_two_systems(self, engine):
        """Two systems bind the same translations from the table, each
        with its own slots: a run of the second nested inside a run of
        the first (from an observer) folds only its own counts."""
        program = assemble(STORE_LOOP, name="self-loop")
        first = MicroBlazeSystem(config=PAPER_CONFIG, engine=engine)
        second = MicroBlazeSystem(config=PAPER_CONFIG, engine=engine)
        first.start(program)
        second.start(program)

        class RunSecond:
            ran = False

            def on_backward_branch(self, pc, target):
                if not self.ran:
                    self.ran = True
                    second.resume()

        first.cpu.add_listener(RunSecond())
        first.resume()
        reference = MicroBlazeSystem(config=PAPER_CONFIG,
                                     engine="interp").run(program)
        for system in (first, second):
            assert system.cpu.stats.to_plain() \
                == reference.stats.to_plain()
            assert not any(system.cpu._engine_impl.bc)
        if engine == "jit":
            loops = [system.cpu._blocks[8][1] for system in (first, second)]
            assert loops[0].__code__ is loops[1].__code__
            assert first.cpu._engine_impl.bc \
                is not second.cpu._engine_impl.bc


@pytest.mark.parametrize("ticking", [False, True])
def test_the_counts_fold_once_per_run(monkeypatch, ticking):
    program = assemble(TIMER_LOOP, name="timer-loop")
    device = Timer(7) if ticking else SimplePeripheral(OPB_BASE_ADDRESS)
    system = MicroBlazeSystem(config=PAPER_CONFIG, peripherals=(device,))
    system.start(program)
    assert bool(system.opb.ticking) == ticking
    folds = []
    fold = jit.JitEngine.fold_block_counts

    def counting(self, counters):
        folds.append(list(self.bc))
        return fold(self, counters)

    monkeypatch.setattr(jit.JitEngine, "fold_block_counts", counting)
    system.resume()
    assert len(folds) == 1
    if not ticking:
        # The self-loop's iterations (all 40 but the first, which the
        # entry block runs) wait in its slot until the fold.
        assert 39 in folds[0]
    assert not any(system.cpu._engine_impl.bc)
