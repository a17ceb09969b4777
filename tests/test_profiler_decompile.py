"""Tests for the on-chip profiler and the binary decompiler."""

from __future__ import annotations

import pytest

from repro.decompile import (
    BinExpr,
    ControlFlowGraph,
    DecompilationError,
    ExpressionBuilder,
    LiveIn,
    Mux,
    OpKind,
    affine_decompose,
    decompile_and_extract,
    decompile_region,
    evaluate,
    extract_kernel,
)
from repro.isa import assemble
from repro.microblaze import PAPER_CONFIG, run_program
from repro.profiler import BranchFrequencyCache, CriticalRegion, OnChipProfiler

LOOP_SOURCE = """
    .entry main
main:
    addi r5, r0, 20        # n
    addi r6, r0, 0         # acc
    addi r7, r0, 0         # i
loop:
    add  r6, r6, r7
    addi r7, r7, 1
    cmp  r18, r7, r5
    bgti r18, loop
    add  r3, r6, r0
    bri 0
"""


class TestBranchCache:
    def test_counts_accumulate(self):
        cache = BranchFrequencyCache(num_entries=8, associativity=2)
        for _ in range(5):
            cache.record(0x40, 0x10)
        cache.record(0x80, 0x20)
        hottest = cache.hottest()
        assert hottest.target_address == 0x10
        assert hottest.count == 5
        assert cache.total_count() == 6

    def test_eviction_with_small_cache(self):
        cache = BranchFrequencyCache(num_entries=2, associativity=1)
        for target in range(0, 64, 4):
            cache.record(0x100 + target, target)
        assert cache.evictions > 0
        assert len(cache.entries()) <= 2

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            BranchFrequencyCache(num_entries=6, associativity=4)


class TestProfiler:
    def test_finds_the_loop(self):
        program = assemble(LOOP_SOURCE)
        profiler = OnChipProfiler()
        run_program(program, PAPER_CONFIG, listeners=[profiler])
        region = profiler.most_critical_region()
        assert region is not None
        assert region.start_address == program.symbol_address("loop")
        assert region.frequency == 19  # 20 iterations, last branch not taken
        assert region.num_instructions == 4
        assert "loop" in profiler.summary() or "0x" in profiler.summary()

    def test_hottest_region_of_benchmark(self, compiled_small_programs):
        profiler = OnChipProfiler()
        run_program(compiled_small_programs["matmul"], PAPER_CONFIG,
                    listeners=[profiler])
        regions = profiler.critical_regions()
        assert regions and regions[0].frequency >= regions[-1].frequency
        assert regions[0].relative_weight <= 1.0


class TestControlFlowGraph:
    def test_blocks_and_back_edge(self):
        program = assemble(LOOP_SOURCE)
        cfg = ControlFlowGraph(program.text)
        assert cfg.num_blocks() >= 3
        assert cfg.back_edges()
        header = program.symbol_address("loop")
        latch_block = cfg.block_containing(header + 12)
        assert latch_block is not None
        loop_blocks = cfg.natural_loop(latch_block.start_address, latch_block.start_address)
        assert loop_blocks


class TestExpressionDag:
    def test_structural_sharing_and_folding(self):
        builder = ExpressionBuilder()
        a = builder.live_in(5)
        expr1 = builder.binary(OpKind.ADD, a, builder.const(4))
        expr2 = builder.binary(OpKind.ADD, a, builder.const(4))
        assert expr1 is expr2
        folded = builder.binary(OpKind.MUL, builder.const(6), builder.const(7))
        assert folded.value == 42

    def test_identity_simplifications(self):
        builder = ExpressionBuilder()
        a = builder.live_in(5)
        assert builder.binary(OpKind.ADD, a, builder.const(0)) is a
        assert builder.binary(OpKind.MUL, a, builder.const(0)).value == 0

    def test_evaluate_matches_python(self):
        builder = ExpressionBuilder()
        a, b = builder.live_in(5), builder.live_in(6)
        expr = builder.binary(OpKind.XOR,
                              builder.binary(OpKind.SHL, a, builder.const(3)),
                              builder.binary(OpKind.AND, b, builder.const(0xFF)))
        value = evaluate(expr, {5: 0x1234, 6: 0xABCD}, lambda addr, w: 0, {})
        assert value == ((0x1234 << 3) ^ (0xABCD & 0xFF)) & 0xFFFFFFFF

    def test_affine_decomposition(self):
        builder = ExpressionBuilder()
        i = builder.live_in(20)
        base = builder.const(0x100)
        addr = builder.binary(OpKind.ADD, base,
                              builder.binary(OpKind.SHL, i, builder.const(2)))
        form = affine_decompose(addr)
        assert form is not None
        assert form.constant == 0x100
        assert form.coefficients == {20: 4}

    def test_non_affine_returns_none(self):
        builder = ExpressionBuilder()
        i = builder.live_in(20)
        addr = builder.binary(OpKind.MUL, i, i)
        assert affine_decompose(addr) is None


class TestDecompilation:
    def _region(self, program):
        profiler = OnChipProfiler()
        run_program(program, PAPER_CONFIG, listeners=[profiler])
        return profiler.most_critical_region()

    def test_simple_loop_kernel(self):
        program = assemble(LOOP_SOURCE)
        region = self._region(program)
        kernel = decompile_and_extract(program.text, region)
        assert kernel.partitionable
        assert [v.register for v in kernel.induction_variables] == [7]
        assert kernel.operations.loads == 0 and kernel.operations.stores == 0
        assert 6 in kernel.live_out_registers

    def test_benchmark_kernels_partitionable(self, compiled_small_programs):
        for name in ("brev", "matmul", "g3fax", "canrdr"):
            program = compiled_small_programs[name]
            region = self._region(program)
            kernel = decompile_and_extract(program.text, region)
            assert kernel.partitionable, f"{name}: {kernel.rejection_reason}"
            assert kernel.induction_variables
            assert all(access.is_regular for access in kernel.memory_accesses)

    def test_canrdr_kernel_has_guarded_behaviour(self, compiled_small_programs):
        program = compiled_small_programs["canrdr"]
        region = self._region(program)
        kernel = decompile_and_extract(program.text, region)
        assert kernel.operations.mux > 0

    def test_region_with_call_rejected(self):
        source = """
            .entry main
        f:
            rtsd r15, 8
            nop
        main:
            addi r5, r0, 5
        loop:
            brlid r15, f
            nop
            addi r5, r5, -1
            bnei r5, loop
            bri 0
        """
        program = assemble(source)
        region = self._region(program)
        with pytest.raises(DecompilationError):
            decompile_region(program.text, region)

    def test_bad_region_rejected(self):
        program = assemble(LOOP_SOURCE)
        bogus = CriticalRegion(start_address=0, end_address=4, frequency=1)
        with pytest.raises(DecompilationError):
            decompile_region(program.text, bogus)
