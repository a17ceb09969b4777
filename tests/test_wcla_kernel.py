"""The generated WCLA kernel function against the reference semantics.

:class:`~repro.fabric.hw_exec.WclaExecutionEngine` lowers each decompiled
loop body to one generated Python function.  These tests hold it to a
small reference loop written here on top of
:func:`repro.decompile.expr.evaluate`:

* **Differential over the suite** — every paper benchmark, small and full
  size, runs its patched binary once with the generated kernel and once
  with the reference loop; the WCLA register file after every invocation
  (the live-outs the kernel wrote back into it), iterations, WCLA cycles,
  port-B accesses and the data-BRAM image must be identical.
* **Property test** — random bodies built through
  :class:`~repro.decompile.expr.ExpressionBuilder`, covering loads in both
  arms of a mux and reused after it, guarded stores, loads first read after
  a store to the same address, and every operator and condition relation
  on negative words.
* **Budget** — a kernel that does not terminate raises
  :class:`~repro.fabric.hw_exec.HardwareExecutionError` with the budget
  message, after the same memory traffic as the reference.
* **Port-B boundaries** — loads and stores of every width at the last
  valid address, past the end and misaligned raise the reference's
  exception after the same counted traffic.
* **Telemetry** — kernel translations show up in the code-generation
  accounting and the live metrics under ``engine="wcla"``.
"""

from __future__ import annotations

import gc
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.apps import build_suite
from repro.compiler import compile_source
from repro.decompile.expr import ExpressionBuilder, OpKind, StoreOp, evaluate
from repro.decompile.symexec import SymbolicLoopBody
from repro.fabric import hw_exec
from repro.fabric.hw_exec import (
    HardwareExecutionError,
    KernelInvocation,
    WclaExecutionEngine,
    WclaPeripheral,
)
from repro.microblaze import (
    PAPER_CONFIG,
    BlockRAM,
    MemoryError_,
    MicroBlazeSystem,
)
from repro.microblaze.engines.jit import codegen_stats, reset_codegen_stats
from repro.warp import WarpProcessor

BENCHMARKS = ("brev", "g3fax", "canrdr", "bitmnp", "idct", "matmul")


def reference_execute(body, live_in, memory_read, memory_write,
                      max_iterations):
    """The WCLA loop written directly on :func:`evaluate`: per iteration the
    register updates, then the stores in order, then the continue
    condition, all against the registers at iteration start; registers
    commit last."""
    state = dict(live_in)
    iterations = 0
    while True:
        iterations += 1
        if iterations > max_iterations:
            raise HardwareExecutionError("budget")
        loads = {}
        updates = {register: evaluate(expr, state, memory_read, loads)
                   for register, expr in body.register_updates.items()}
        for store in body.stores:
            if store.guard is not None and \
                    not evaluate(store.guard, state, memory_read, loads):
                continue
            address = evaluate(store.address, state, memory_read, loads)
            value = evaluate(store.value, state, memory_read, loads)
            memory_write(address, value, store.width)
        keep = evaluate(body.continue_condition, state, memory_read, loads)
        state.update(updates)
        if not keep:
            return {register: state[register]
                    for register in body.register_updates}, iterations


def _implementation(body, start_address=0x40):
    """The slice of a ``HardwareImplementation`` the engine reads: the
    cycle model of :meth:`HardwareImplementation.cycles_for_iterations`
    with a pipeline fill of 3 and an initiation interval of 2."""
    return SimpleNamespace(
        kernel=SimpleNamespace(body=body, region=SimpleNamespace(
            start_address=start_address)),
        pipeline_fill_cycles=3, initiation_interval=2,
        cycles_for_iterations=lambda iterations: 2 * iterations + 3)


def _invoke(engine, live_in, bram):
    """One invocation of ``engine`` with ``live_in`` in an otherwise zero
    register file: ``(registers the loop updates as of exit,
    invocation)``.  The kernel returns the register file it was given and
    changes no register the loop does not update."""
    register_file = [0] * 32
    for register, value in live_in.items():
        register_file[register] = value
    before = list(register_file)
    returned, invocation = engine.execute(register_file, bram)
    assert returned is register_file
    updated = engine.body.register_updates
    assert [value for register, value in enumerate(register_file)
            if register not in updated] \
        == [value for register, value in enumerate(before)
            if register not in updated]
    return {register: register_file[register] for register in updated}, \
        invocation


# ------------------------------------------------------- differential, suite
def _warp_run(warp, patched, implementation, reference):
    """Run the patched binary with the WCLA attached; return everything the
    kernel model can influence."""
    system = MicroBlazeSystem(config=PAPER_CONFIG)
    system.load(patched)
    peripheral = WclaPeripheral(warp.wcla_base_address, implementation,
                                system.data_bram)
    engine = peripheral.engine
    live_outs = []

    def execute(register_file, bram):
        if reference:
            live_in = {register: register_file[register]
                       for register in engine.kernel.live_in_registers}
            live_out, iterations = reference_execute(
                engine.body, live_in, bram.load_port_b, bram.store_port_b,
                engine.max_iterations)
            for register, value in live_out.items():
                register_file[register] = value & 0xFFFFFFFF
            result = register_file, KernelInvocation(
                iterations, implementation.cycles_for_iterations(iterations))
        else:
            result = type(engine).execute(engine, register_file, bram)
        assert result[0] is peripheral.register_file
        # The whole register file after each invocation: the live-outs,
        # and every other register unchanged.
        live_outs.append(list(register_file))
        return result

    engine.execute = execute
    system.attach_peripheral(peripheral)
    result = system.run()
    return {
        "return_value": result.return_value,
        "live_outs": live_outs,
        "iterations": peripheral.total_iterations,
        "hw_cycles": peripheral.total_hw_cycles,
        "invocations": peripheral.invocations,
        "port_b_accesses": system.data_bram.port_b_accesses,
        "data_bram": bytes(system.data_bram.storage),
    }


@pytest.mark.parametrize("small", [True, False], ids=["small", "full"])
def test_generated_kernels_match_the_reference_over_the_suite(small):
    warp = WarpProcessor(config=PAPER_CONFIG)
    benchmarks = {bench.name: bench for bench in build_suite(small=small)}
    assert sorted(benchmarks) == sorted(BENCHMARKS)
    for name in BENCHMARKS:
        program = compile_source(benchmarks[name].source, name=name,
                                 config=PAPER_CONFIG).program
        software, profiler = warp.profile(program)
        patched = program.copy()
        outcome = warp.dpm.partition(patched,
                                     profiler.most_critical_region())
        assert outcome.success, name
        generated = _warp_run(warp, patched, outcome.implementation, False)
        reference = _warp_run(warp, patched, outcome.implementation, True)
        assert generated["invocations"] >= 1, name
        assert generated == reference, name
        assert generated["return_value"] == software.return_value, name


# ---------------------------------------------------------- property test
MEMORY_BYTES = 64
#: Address masks keep every access aligned and inside the test BRAM.
ADDRESS_MASKS = {1: MEMORY_BYTES - 1, 2: MEMORY_BYTES - 2, 4: MEMORY_BYTES - 4}
BINARY_OPS = [op for op in OpKind
              if op not in (OpKind.NEG, OpKind.NOT, OpKind.SEXT8,
                            OpKind.SEXT16)]
UNARY_OPS = [OpKind.NEG, OpKind.NOT, OpKind.SEXT8, OpKind.SEXT16]
RELATIONS = ["eq", "ne", "lt", "le", "gt", "ge"]
#: Live-in registers; register 5 counts iterations.
REGISTERS = (1, 2, 3, 4)
COUNTER = 5

words = st.integers(min_value=0, max_value=0xFFFFFFFF)
negative_words = st.integers(min_value=0x8000_0000, max_value=0xFFFFFFFF)
widths = st.sampled_from(sorted(ADDRESS_MASKS))
index = st.integers(min_value=0, max_value=1 << 16)
steps = st.one_of(
    st.tuples(st.just("binary"), st.sampled_from(BINARY_OPS), index, index),
    st.tuples(st.just("unary"), st.sampled_from(UNARY_OPS), index),
    st.tuples(st.just("condition"), st.sampled_from(RELATIONS), index),
    st.tuples(st.just("load"), index, widths),
    st.tuples(st.just("mux"), index, index, index),
    # Loads in both arms of one mux, one of them reused after the mux.
    st.tuples(st.just("mux-loads"), index, index, index, widths),
    # A load first used by a later store or the continue condition.
    st.tuples(st.just("late-load"), index, widths),
    st.tuples(st.just("store"), index, index, widths,
              st.one_of(st.none(), index)),
)


class _BodyBuilder:
    """Interprets drawn steps into a loop body."""

    def __init__(self, constants):
        self.builder = ExpressionBuilder()
        b = self.builder
        self.pool = [b.live_in(register) for register in REGISTERS]
        self.pool += [b.const(value) for value in constants]
        self.late = []
        self.stores = []
        self.sequence = 0

    def pick(self, choice, pool=None):
        pool = self.pool if pool is None else pool
        return pool[choice % len(pool)]

    def load(self, choice, width):
        b = self.builder
        address = b.binary(OpKind.AND, self.pick(choice),
                           b.const(ADDRESS_MASKS[width]))
        self.sequence += 1
        return b.load(address, width, self.sequence)

    def step(self, kind, *args):
        b = self.builder
        if kind == "binary":
            op, left, right = args
            self.pool.append(b.binary(op, self.pick(left), self.pick(right)))
        elif kind == "unary":
            op, operand = args
            self.pool.append(b.unary(op, self.pick(operand)))
        elif kind == "condition":
            relation, value = args
            self.pool.append(b.condition(self.pick(value), relation))
        elif kind == "load":
            choice, width = args
            self.pool.append(self.load(choice, width))
        elif kind == "mux":
            condition, if_true, if_false = args
            self.pool.append(b.mux(self.pick(condition), self.pick(if_true),
                                   self.pick(if_false)))
        elif kind == "mux-loads":
            condition, first, second, width = args
            left = self.load(first, width)
            right = self.load(second, width)
            mux = b.mux(self.pick(condition),
                        b.binary(OpKind.ADD, left, self.pick(second)), right)
            self.pool.append(b.binary(OpKind.XOR, mux, left))
        elif kind == "late-load":
            choice, width = args
            self.late.append(self.load(choice, width))
        elif kind == "store":
            address, value, width, guard = args
            everything = self.pool + self.late
            self.sequence += 1
            self.stores.append(StoreOp(
                address=b.binary(OpKind.AND, self.pick(address),
                                 b.const(ADDRESS_MASKS[width])),
                value=self.pick(value, everything), width=width,
                guard=None if guard is None else self.pick(guard, everything),
                sequence=self.sequence))

    def body(self, updates, trips, stop, keep_going=False):
        b = self.builder
        counter = b.binary(OpKind.ADD, b.live_in(COUNTER), b.const(1))
        running = b.condition(b.binary(OpKind.SUB, counter, b.const(trips)),
                              "lt")
        if keep_going:
            running = b.condition(b.const(1), "ne")
        elif stop is not None:
            # An early exit on a data-dependent (possibly late) value.
            running = b.mux(self.pick(stop, self.pool + self.late), running,
                            b.const(0))
        register_updates = {COUNTER: counter}
        for register, choice in zip(REGISTERS, updates):
            register_updates[register] = self.pick(choice)
        return SymbolicLoopBody(builder=b, region=None,
                                register_updates=register_updates,
                                stores=self.stores,
                                continue_condition=running,
                                live_in_registers={*REGISTERS, COUNTER})


def _run_both(body, live_in, image, max_iterations):
    """Run the generated engine and the reference on identical memories;
    return each side's (outcome, port-B accesses, memory image)."""
    results = []
    for reference in (False, True):
        bram = BlockRAM(MEMORY_BYTES, name="data")
        bram.load_image(image)
        try:
            if reference:
                live_out, iterations = reference_execute(
                    body, live_in, bram.load_port_b, bram.store_port_b,
                    max_iterations)
                outcome = live_out, iterations, 2 * iterations + 3
            else:
                engine = WclaExecutionEngine(
                    _implementation(body), max_iterations_per_invocation=
                    max_iterations)
                live_out, invocation = _invoke(engine, live_in, bram)
                outcome = live_out, invocation.iterations, \
                    invocation.hw_cycles
        except HardwareExecutionError:
            outcome = "budget"
        results.append((outcome, bram.port_b_accesses, bytes(bram.storage)))
    return results


@settings(max_examples=200, deadline=None)
@given(program=st.lists(steps, min_size=1, max_size=24),
       constants=st.lists(st.one_of(words, negative_words), min_size=1,
                          max_size=3),
       live_values=st.lists(st.one_of(words, negative_words),
                            min_size=len(REGISTERS),
                            max_size=len(REGISTERS)),
       updates=st.lists(index, min_size=len(REGISTERS),
                        max_size=len(REGISTERS)),
       trips=st.integers(min_value=1, max_value=6),
       stop=st.one_of(st.none(), index),
       image=st.binary(min_size=MEMORY_BYTES, max_size=MEMORY_BYTES))
def test_random_bodies_match_the_reference(program, constants, live_values,
                                           updates, trips, stop, image):
    shape = _BodyBuilder(constants)
    for step in program:
        shape.step(*step)
    body = shape.body(updates, trips, stop)
    live_in = dict(zip(REGISTERS, live_values))
    live_in[COUNTER] = 0
    generated, reference = _run_both(body, live_in, image, 100)
    assert generated == reference


def test_every_operator_and_relation_on_negative_words():
    shape = _BodyBuilder([0x8000_0000, 0xFFFF_FFF0, 0x7FFF_FFFF, 5])
    pool_size = len(shape.pool)
    for op in BINARY_OPS:
        for left in range(pool_size):
            shape.step("binary", op, left, (3 * left + 1) % pool_size)
    for op in UNARY_OPS:
        for operand in range(pool_size):
            shape.step("unary", op, operand)
    for relation in RELATIONS:
        for value in range(0, len(shape.pool), 7):
            shape.step("condition", relation, value)
    # Fold every computed node into the four live-outs.
    b = shape.builder
    folds = [b.const(0)] * len(REGISTERS)
    for position, node in enumerate(shape.pool[pool_size:]):
        slot = position % len(REGISTERS)
        folds[slot] = b.binary(OpKind.ADD, b.binary(
            OpKind.MUL, folds[slot], b.const(3)), node)
    shape.pool[:0] = folds
    body = shape.body(range(len(REGISTERS)), 1, None)
    live_in = {1: 0xFFFF_FF80, 2: 3, 3: 0x8000_0001, 4: 31, COUNTER: 0}
    generated, reference = _run_both(body, live_in, bytes(MEMORY_BYTES), 10)
    assert generated == reference
    assert generated[0] != "budget"


def test_budget_exhaustion_raises_after_the_same_traffic():
    shape = _BodyBuilder([4])
    shape.step("load", 1, 4)
    shape.step("store", 0, len(shape.pool) - 1, 4, None)
    body = shape.body([0] * len(REGISTERS), 1, None, keep_going=True)
    live_in = {1: 8, 2: 0, 3: 0, 4: 0, COUNTER: 0}
    generated, reference = _run_both(body, live_in, bytes(range(64)), 7)
    assert generated[0] == reference[0] == "budget"
    assert generated == reference
    engine = WclaExecutionEngine(_implementation(body, 0x1230),
                                 max_iterations_per_invocation=7)
    bram = BlockRAM(MEMORY_BYTES)
    register_file = [0] * 32
    for register, value in live_in.items():
        register_file[register] = value
    before = list(register_file)
    with pytest.raises(HardwareExecutionError,
                       match=r"kernel at 0x1230 exceeded 7 iterations"):
        engine.execute(register_file, bram)
    # No live-out is committed by an invocation that did not finish.
    assert register_file == before


@pytest.mark.parametrize("width", [1, 2, 4])
@pytest.mark.parametrize("kind", ["load", "store"])
def test_port_b_boundaries_match_the_reference(kind, width):
    """The inline port-B accesses against ``load_port_b``/``store_port_b``:
    the first iteration accesses address 0, the second the boundary
    address.  Only the last valid address is accessible; everything else
    raises the reference's ``MemoryError_`` after the same counted
    traffic."""
    b = ExpressionBuilder()
    counter = b.binary(OpKind.ADD, b.live_in(COUNTER), b.const(1))
    address = b.binary(OpKind.MUL, b.live_in(COUNTER), b.live_in(1))
    updates = {COUNTER: counter}
    stores = []
    if kind == "load":
        updates[2] = b.load(address, width, 1)
    else:
        stores.append(StoreOp(address=address, value=b.live_in(2),
                              width=width, sequence=1))
    body = SymbolicLoopBody(
        builder=b, region=None, register_updates=updates, stores=stores,
        continue_condition=b.condition(
            b.binary(OpKind.SUB, counter, b.const(2)), "lt"),
        live_in_registers={1, 2, COUNTER})
    boundaries = [MEMORY_BYTES - width, MEMORY_BYTES - width + 1,
                  MEMORY_BYTES, 0x1_0000_0000 - width]
    if width > 1:
        boundaries.append(MEMORY_BYTES - 2 * width + 1)
    faults = 0
    for boundary in boundaries:
        live_in = {1: boundary, 2: 0xA5C3_E1F7, COUNTER: 0}
        results = []
        for reference in (False, True):
            bram = BlockRAM(MEMORY_BYTES, name="data")
            bram.load_image(bytes(range(MEMORY_BYTES)))
            try:
                if reference:
                    outcome = reference_execute(
                        body, live_in, bram.load_port_b, bram.store_port_b,
                        10)
                else:
                    live_out, invocation = _invoke(
                        WclaExecutionEngine(_implementation(body)), live_in,
                        bram)
                    outcome = live_out, invocation.iterations
            except MemoryError_ as error:
                outcome = str(error)
            results.append((outcome, bram.port_b_accesses,
                            bytes(bram.storage)))
        assert results[0] == results[1], boundary
        faults += isinstance(results[1][0], str)
        assert results[1][1] == (1 if isinstance(results[1][0], str) else 2)
    assert faults == len(boundaries) - 1


def test_an_undeclared_live_in_reads_zero():
    """A register the body reads without declaring it live-in reads 0,
    as in the reference (the invocation stub never writes it), whatever
    the WCLA register file holds."""
    b = ExpressionBuilder()
    counter = b.binary(OpKind.ADD, b.live_in(COUNTER), b.const(1))
    body = SymbolicLoopBody(
        builder=b, region=None,
        register_updates={COUNTER: counter,
                          2: b.binary(OpKind.ADD, b.live_in(1),
                                      b.live_in(7))},
        continue_condition=b.condition(
            b.binary(OpKind.SUB, counter, b.const(3)), "lt"),
        live_in_registers={1, COUNTER})
    register_file = [0] * 32
    register_file[1], register_file[7] = 40, 5
    _, invocation = WclaExecutionEngine(_implementation(body)).execute(
        register_file, BlockRAM(MEMORY_BYTES))
    reference = reference_execute(body, {1: 40, COUNTER: 0}, None, None, 10)
    assert reference == ({COUNTER: 3, 2: 40}, 3)
    assert (register_file[COUNTER], register_file[2], register_file[7]) \
        == (3, 40, 5)
    assert (invocation.iterations, invocation.hw_cycles) == (3, 9)


def test_if_converted_chains_generate_linear_source():
    """A node both arms of a mux compute is computed once before the
    branch, so a chain of if-converted updates does not double the
    source per link."""
    b = ExpressionBuilder()
    value = b.load(b.live_in(1), 4, 0)
    for bit in range(40):
        flag = b.condition(b.binary(OpKind.AND, b.live_in(2),
                                    b.const(1 << (bit % 32))), "ne")
        value = b.mux(flag, b.binary(OpKind.XOR, value, b.const(bit + 1)),
                      value)
    body = SymbolicLoopBody(builder=b, region=None,
                            register_updates={3: value},
                            continue_condition=b.condition(b.const(0), "ne"),
                            live_in_registers={1, 2})
    source = hw_exec.kernel_source(body)
    assert source.count("\n") < 40 * 12
    assert source.count("load(") == 1
    generated, reference = _run_both(body, {1: 4, 2: 0x5A5A_5A5A},
                                     bytes(range(64)), 5)
    assert generated == reference


# ---------------------------------------------------------------- telemetry
def test_kernel_translations_are_accounted_and_scraped():
    """The first warm warp run of a benchmark compiles its kernel, the
    second reuses the code object; both land in ``codegen_stats()`` and in
    the live metrics snapshot under ``engine="wcla"``."""
    bench = next(bench for bench in build_suite(small=True)
                 if bench.name == "canrdr")
    program = compile_source(bench.source, name=bench.name,
                             config=PAPER_CONFIG).program
    warp = WarpProcessor(config=PAPER_CONFIG)
    hw_exec._KERNEL_CODE_CACHE.clear()
    reset_codegen_stats()
    with obs.active_telemetry() as telemetry:
        first = warp.run(program.copy())
        after_first = codegen_stats()["wcla"]
        second = warp.run(program.copy())
        after_second = codegen_stats()["wcla"]
        snapshot = telemetry.snapshot()
    assert first.checksums_match and second.checksums_match
    assert (after_first["compiles"], after_first["cache_hits"]) == (1, 0)
    assert (after_second["compiles"], after_second["cache_hits"]) == (1, 1)
    assert after_second["compile_seconds"] > 0

    def wcla_samples(family):
        return [sample for sample in snapshot[family]["samples"]
                if sample["labels"].get("engine") == "wcla"]

    labels = {"engine": "wcla", "kind": "kernel"}
    assert [sample["value"]
            for sample in wcla_samples("warp_codegen_compiles")] == [1]
    assert [sample["labels"]
            for sample in wcla_samples("warp_codegen_compiles")] == [labels]
    assert [sample["value"]
            for sample in wcla_samples("warp_codegen_cache_hits")] == [1]
    assert [sample["count"]
            for sample in wcla_samples("warp_codegen_compile_ms")] == [2]
    events = {sample["labels"]["kind"]: sample["value"]
              for sample in wcla_samples("warp_codegen_events")}
    assert events["compiles"] == 1 and events["cache_hits"] == 1


def test_kernel_function_is_built_once_per_live_body(monkeypatch):
    """A second engine on the same body reuses the body's built
    ``_kernel`` without walking the body again, counted as a ``wcla``
    cache hit; the entry goes when the body is collected."""
    b = ExpressionBuilder()
    counter = b.binary(OpKind.ADD, b.live_in(COUNTER), b.const(1))
    body = SymbolicLoopBody(
        builder=b, region=None, register_updates={COUNTER: counter},
        continue_condition=b.condition(
            b.binary(OpKind.SUB, counter, b.const(4)), "lt"),
        live_in_registers={COUNTER})
    reset_codegen_stats()
    first = WclaExecutionEngine(_implementation(body))
    before = codegen_stats()["wcla"]
    walks = []
    monkeypatch.setattr(hw_exec, "kernel_source", walks.append)
    second = WclaExecutionEngine(_implementation(body))
    after = codegen_stats()["wcla"]
    assert second._kernel is first._kernel and not walks
    assert after["compiles"] == before["compiles"]
    assert after["cache_hits"] == before["cache_hits"] + 1
    bram = BlockRAM(MEMORY_BYTES, name="data")
    assert _invoke(second, {COUNTER: 0}, bram)[1].iterations == 4
    key = id(body)
    kernels = hw_exec._KERNEL_CODE_CACHE.kernels
    assert key in kernels
    del first, second, body
    gc.collect()
    assert key not in kernels
