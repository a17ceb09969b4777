"""Tests for the MicroBlaze system simulator."""

from __future__ import annotations

import pytest

from repro.decompile.expr import evaluate
from repro.decompile.symexec import DecompilationError, SymbolicExecutor
from repro.isa import OPCODES, HwUnit, InstrFormat, assemble, to_signed
from repro.microblaze import (
    BlockRAM,
    IllegalInstruction,
    MemoryError_,
    MicroBlazeSystem,
    MicroBlazeConfig,
    MINIMAL_CONFIG,
    OnChipPeripheralBus,
    PAPER_CONFIG,
    SimplePeripheral,
    run_program,
)
from repro.microblaze.opb import OPB_BASE_ADDRESS, BusError
from repro.profiler.profiler import CriticalRegion


def run_asm(source: str, config=PAPER_CONFIG, listeners=()):
    return run_program(assemble(source), config, listeners=listeners)


# --------------------------------------------------------------------------- oracle
#: Every data mnemonic on edge operands, with results written out by hand
#: (never computed by the code under test).  Operands are ``(ra, rb)``
#: for register forms, ``(ra, imm)`` for immediate forms and ``(ra,)``
#: for the one-operand forms; a 32-bit immediate that does not fit the
#: 16-bit field is emitted behind an ``imm`` prefix (barrel-shift
#: immediates then still use only their own 5-bit field).
ORACLE = {
    "add": [((0x7FFFFFFF, 1), 0x80000000), ((0xFFFFFFFF, 1), 0),
            ((0x80000000, 0x80000000), 0)],
    "addk": [((0x7FFFFFFF, 1), 0x80000000), ((0xFFFFFFFF, 0xFFFFFFFF), 0xFFFFFFFE)],
    "addi": [((0xFFFFFFFF, 1), 0), ((0, -1), 0xFFFFFFFF),
             ((1, 0x7FFFFFFF), 0x80000000), ((0, 0x80000000), 0x80000000)],
    "addik": [((0x7FFFFFFF, 1), 0x80000000), ((1, 0x12345678), 0x12345679)],
    "rsub": [((1, 0), 0xFFFFFFFF), ((1, 0x80000000), 0x7FFFFFFF),
             ((0xFFFFFFFF, 0), 1)],
    "rsubk": [((1, 0), 0xFFFFFFFF), ((0x80000000, 0x7FFFFFFF), 0xFFFFFFFF)],
    "rsubi": [((1, 0), 0xFFFFFFFF), ((1, 0x80000000), 0x7FFFFFFF),
              ((0xFFFFFFFF, -1), 0)],
    "rsubik": [((0, 5), 5), ((0x7FFFFFFF, 0x7FFFFFFF), 0)],
    "cmp": [((0x80000000, 0x7FFFFFFF), 1), ((0x7FFFFFFF, 0x80000000), 0xFFFFFFFF),
            ((0xFFFFFFFF, 0xFFFFFFFF), 0), ((0, 0xFFFFFFFF), 0xFFFFFFFF),
            ((0xFFFFFFFF, 1), 1)],
    "cmpu": [((0x80000000, 0x7FFFFFFF), 0xFFFFFFFF), ((0x7FFFFFFF, 0x80000000), 1),
             ((0xFFFFFFFF, 0xFFFFFFFF), 0), ((0, 0xFFFFFFFF), 1),
             ((0xFFFFFFFF, 1), 0xFFFFFFFF)],
    "mul": [((0xFFFFFFFF, 0xFFFFFFFF), 1), ((0x80000000, 2), 0),
            ((0x10001, 0x10001), 0x20001)],
    "muli": [((0xFFFFFFFF, -1), 1), ((3, 0x7FFFFFFF), 0x7FFFFFFD)],
    "idiv": [((2, 7), 3), ((2, 0xFFFFFFF9), 0xFFFFFFFD),
             ((0xFFFFFFFF, 0x80000000), 0x80000000), ((0, 5), 0)],
    "idivu": [((2, 0xFFFFFFFF), 0x7FFFFFFF), ((0, 5), 0),
              ((0x80000000, 0xFFFFFFFF), 1)],
    "and": [((0xFFFFFFFF, 0x80000001), 0x80000001), ((0x7FFFFFFF, 0x80000000), 0)],
    "andi": [((0x12345678, 0xFF), 0x78), ((0x7FFFFFFF, -16), 0x7FFFFFF0),
             ((0xFFFFFFFF, 0x80000000), 0x80000000)],
    "or": [((0x80000000, 1), 0x80000001), ((0, 0), 0)],
    "ori": [((0, -1), 0xFFFFFFFF), ((0, 0x12340000), 0x12340000),
            ((0x80000000, 1), 0x80000001)],
    "xor": [((0xFFFFFFFF, 0x7FFFFFFF), 0x80000000), ((1, 1), 0)],
    "xori": [((0x80000000, -1), 0x7FFFFFFF), ((0xFFFFFFFF, 0x7FFFFFFF), 0x80000000)],
    "andn": [((0xFFFFFFFF, 0x80000000), 0x7FFFFFFF), ((0x80000000, 0), 0x80000000)],
    "andni": [((0xFFFFFFFF, 0xFF), 0xFFFFFF00), ((0x80000001, -1), 0),
              ((0xFFFFFFFF, 0x7FFFFFFF), 0x80000000)],
    "sra": [((0x80000000,), 0xC0000000), ((1,), 0), ((0xFFFFFFFF,), 0xFFFFFFFF),
            ((0x7FFFFFFF,), 0x3FFFFFFF)],
    "src": [((0x80000000,), 0x40000000), ((0xFFFFFFFF,), 0x7FFFFFFF), ((1,), 0)],
    "srl": [((0x80000000,), 0x40000000), ((0xFFFFFFFF,), 0x7FFFFFFF), ((1,), 0)],
    "sext8": [((0x80,), 0xFFFFFF80), ((0x7F,), 0x7F), ((0xFFFFFF7F,), 0x7F),
              ((0x12345680,), 0xFFFFFF80), ((0,), 0)],
    "sext16": [((0x8000,), 0xFFFF8000), ((0x7FFF,), 0x7FFF), ((0xFFFF7FFF,), 0x7FFF),
               ((0x80,), 0x80), ((0xFFFFFFFF,), 0xFFFFFFFF)],
    "bsll": [((1, 31), 0x80000000), ((1, 33), 2), ((0xFFFFFFFF, 0), 0xFFFFFFFF)],
    "bsrl": [((0x80000000, 31), 1), ((0x80000000, 33), 0x40000000),
             ((0x80000000, 0), 0x80000000)],
    "bsra": [((0x80000000, 31), 0xFFFFFFFF), ((0x80000000, 33), 0xC0000000),
             ((0x7FFFFFFF, 31), 0), ((0x80000000, 0), 0x80000000)],
    "bslli": [((1, 31), 0x80000000), ((0xFFFFFFFF, 0), 0xFFFFFFFF),
              ((3, 0xFFFF0004), 0x30)],
    "bsrli": [((0x80000000, 31), 1), ((0x80000000, 0), 0x80000000),
              ((0x80000000, 0x12340001), 0x40000000)],
    "bsrai": [((0x80000000, 31), 0xFFFFFFFF), ((0x7FFFFFFF, 31), 0),
              ((0x80000000, 0xFFFF0001), 0xC0000000)],
}

#: Every optional unit, so the divider is legal too.
ORACLE_CONFIG = MicroBlazeConfig(use_barrel_shifter=True, use_multiplier=True,
                                 use_divider=True)


def _oracle_lines(mnemonic, operands):
    """Assembly computing ``mnemonic`` into r3 from r5 (and r6)."""
    if len(operands) == 1:
        return [f"{mnemonic} r3, r5"]
    if OPCODES[mnemonic].fmt is InstrFormat.TYPE_A:
        return [f"{mnemonic} r3, r5, r6"]
    value = operands[1]
    if -0x8000 <= value < 0x8000:
        return [f"{mnemonic} r3, r5, {value}"]
    return [f"imm {(value >> 16) & 0xFFFF}",
            f"{mnemonic} r3, r5, {to_signed(value & 0xFFFF, 16)}"]


def _oracle_cases(mnemonics):
    return [pytest.param(m, operands, expected, id=f"{m}-{i}")
            for m in mnemonics
            for i, (operands, expected) in enumerate(ORACLE[m])]


# --------------------------------------------------------------------------- block RAM
class TestBlockRAM:
    def test_word_roundtrip(self):
        bram = BlockRAM(1024)
        bram.store(16, 0xDEADBEEF, 4)
        assert bram.load(16, 4) == 0xDEADBEEF

    def test_byte_and_half_access(self):
        bram = BlockRAM(64)
        bram.store(0, 0x1234, 2)
        assert bram.load(0, 2) == 0x1234
        assert bram.load(0, 1) == 0x34  # little endian

    def test_misaligned_access_rejected(self):
        bram = BlockRAM(64)
        with pytest.raises(MemoryError_):
            bram.load(2, 4)

    def test_out_of_range_rejected(self):
        bram = BlockRAM(64)
        with pytest.raises(MemoryError_):
            bram.store(64, 1, 4)

    def test_port_b_independent_counters(self):
        bram = BlockRAM(64)
        bram.store(0, 5, 4)
        bram.load_port_b(0, 4)
        assert bram.port_a_accesses == 1
        assert bram.port_b_accesses == 1


# --------------------------------------------------------------------------- OPB
class TestOpb:
    def test_decode_and_access(self):
        bus = OnChipPeripheralBus()
        periph = SimplePeripheral(base_address=OPB_BASE_ADDRESS, num_registers=4)
        bus.attach(periph)
        bus.write(OPB_BASE_ADDRESS + 4, 99)
        assert bus.read(OPB_BASE_ADDRESS + 4) == 99
        assert bus.owns(OPB_BASE_ADDRESS)
        assert not bus.owns(OPB_BASE_ADDRESS + 0x1000)

    def test_unmapped_access_raises(self):
        bus = OnChipPeripheralBus()
        with pytest.raises(BusError):
            bus.read(OPB_BASE_ADDRESS)

    def test_overlapping_windows_rejected(self):
        bus = OnChipPeripheralBus()
        bus.attach(SimplePeripheral(base_address=OPB_BASE_ADDRESS,
                                    name="first"))
        with pytest.raises(BusError) as info:
            bus.attach(SimplePeripheral(base_address=OPB_BASE_ADDRESS + 4,
                                        name="second"))
        # The error names both peripherals and their address windows.
        message = str(info.value)
        assert "'first'" in message and "'second'" in message
        assert f"{OPB_BASE_ADDRESS:#010x}" in message
        # The rejected peripheral was not attached.
        assert len(bus.peripherals) == 1

    def test_partial_and_containing_overlaps_rejected(self):
        bus = OnChipPeripheralBus()
        bus.attach(SimplePeripheral(base_address=OPB_BASE_ADDRESS + 8,
                                    num_registers=4, name="mid"))
        # Overlap from below, exact duplicate, and a containing window.
        for base, registers in ((OPB_BASE_ADDRESS, 4),
                                (OPB_BASE_ADDRESS + 8, 4),
                                (OPB_BASE_ADDRESS, 16)):
            with pytest.raises(BusError):
                bus.attach(SimplePeripheral(base_address=base,
                                            num_registers=registers))
        # Adjacent (non-overlapping) windows attach fine.
        bus.attach(SimplePeripheral(base_address=OPB_BASE_ADDRESS + 24,
                                    num_registers=2, name="above"))
        assert len(bus.peripherals) == 2


# --------------------------------------------------------------------------- CPU semantics
class TestCpuSemantics:
    def test_arithmetic_and_logic(self):
        result = run_asm("""
            addi r5, r0, 21
            addi r6, r0, 2
            mul  r3, r5, r6        # 42
            xori r3, r3, 0xF       # 42 ^ 15 = 37
            bri 0
        """)
        assert result.return_value == (42 ^ 0xF)

    def test_rsub_order(self):
        result = run_asm("""
            addi r5, r0, 10
            addi r6, r0, 3
            rsub r3, r6, r5        # r5 - r6 = 7
            bri 0
        """)
        assert result.return_value == 7

    def test_barrel_shifts(self):
        result = run_asm("""
            addi r5, r0, 1
            bslli r5, r5, 12
            bsrli r3, r5, 4
            bri 0
        """)
        assert result.return_value == 1 << 8

    def test_arithmetic_shift_sign(self):
        result = run_asm("""
            addi r5, r0, -64
            bsrai r3, r5, 3
            bri 0
        """)
        assert result.return_value == (-8) & 0xFFFFFFFF

    def test_imm_prefix_builds_32bit_constant(self):
        result = run_asm("""
            li r3, 0xAAAAAAAA
            bri 0
        """)
        assert result.return_value == 0xAAAAAAAA

    def test_memory_store_load(self):
        result = run_asm("""
            addi r5, r0, 1234
            swi r5, r0, 64
            lwi r3, r0, 64
            bri 0
        """)
        assert result.return_value == 1234

    def test_byte_and_half_memory_ops(self):
        result = run_asm("""
            addi r5, r0, 0x1FF
            shi r5, r0, 32
            lhui r6, r0, 32
            sbi r6, r0, 40
            lbui r3, r0, 40
            bri 0
        """)
        assert result.return_value == 0xFF

    def test_conditional_branch_loop(self):
        result = run_asm("""
            addi r5, r0, 5
            addi r3, r0, 0
        loop:
            add r3, r3, r5
            addi r5, r5, -1
            bnei r5, loop
            bri 0
        """)
        assert result.return_value == 15

    def test_call_and_return(self):
        result = run_asm("""
            .entry main
        double:
            add r3, r5, r5
            rtsd r15, 8
            nop
        main:
            addi r5, r0, 17
            brlid r15, double
            nop
            bri 0
        """)
        assert result.return_value == 34

    def test_cmp_sign_semantics(self):
        result = run_asm("""
            addi r5, r0, 3
            addi r6, r0, 9
            cmp r3, r5, r6     # sign(r6 - r5) = +1
            bri 0
        """)
        assert result.return_value == 1

    def test_requires_multiplier(self):
        with pytest.raises(IllegalInstruction):
            run_asm("mul r3, r4, r5\nbri 0", config=MINIMAL_CONFIG)

    def test_requires_barrel_shifter(self):
        with pytest.raises(IllegalInstruction):
            run_asm("bslli r3, r4, 2\nbri 0", config=MINIMAL_CONFIG)

    def test_oracle_covers_every_data_mnemonic(self):
        computed = {m for m, spec in OPCODES.items()
                    if spec.op is not None}
        assert computed | {"idiv", "idivu"} == set(ORACLE)

    @pytest.mark.parametrize("engine", ["interp", "jit"])
    @pytest.mark.parametrize("mnemonic,operands,expected",
                             _oracle_cases(sorted(ORACLE)))
    def test_oracle_on_engine(self, engine, mnemonic, operands, expected):
        ra = operands[0]
        rb = operands[1] if len(operands) > 1 else 0
        source = "\n".join([f"li r5, {ra}", f"li r6, {rb & 0xFFFFFFFF}",
                            *_oracle_lines(mnemonic, operands), "bri 0"])
        result = run_program(assemble(source), ORACLE_CONFIG, engine=engine)
        assert result.return_value == expected

    @pytest.mark.parametrize(
        "mnemonic,operands,expected",
        _oracle_cases(sorted(m for m in ORACLE if OPCODES[m].op)))
    def test_oracle_through_decompiler(self, mnemonic, operands, expected):
        """The decompiled expression, evaluated on the same operands."""
        lines = _oracle_lines(mnemonic, operands)
        program = assemble("\n".join(["loop:", *lines, "bnei r0, loop"]))
        region = CriticalRegion(start_address=0,
                                end_address=4 * len(lines), frequency=1)
        body = SymbolicExecutor(program.text, region).run()
        live = {5: operands[0]}
        if len(operands) > 1:
            live[6] = operands[1]
        assert evaluate(body.register_updates[3], live, None, {}) == expected

    @pytest.mark.parametrize("mnemonic", ["idiv", "idivu"])
    def test_divides_stay_in_software(self, mnemonic):
        program = assemble(f"loop:\n{mnemonic} r3, r5, r6\nbnei r0, loop")
        region = CriticalRegion(start_address=0, end_address=4, frequency=1)
        with pytest.raises(DecompilationError) as error:
            SymbolicExecutor(program.text, region).run()
        assert str(error.value) == (f"instruction {mnemonic} at 0x0 cannot "
                                    "be mapped to hardware")


# --------------------------------------------------------------------------- timing
class TestTiming:
    def test_multiply_costs_three_cycles(self):
        base = run_asm("addi r3, r0, 1\nbri 0")
        with_mul = run_asm("addi r4, r0, 1\nmul r3, r4, r4\nbri 0")
        assert with_mul.cycles - base.cycles == PAPER_CONFIG.timings.multiply

    def test_taken_branch_costs_more_than_not_taken(self):
        taken = run_asm("addi r5, r0, 1\nbnei r5, skip\nnop\nskip:\nbri 0")
        not_taken = run_asm("addi r5, r0, 0\nbnei r5, skip\nnop\nskip:\nbri 0")
        assert taken.cycles == not_taken.cycles  # same path length here
        assert taken.stats.branches_taken == 2   # bnei + halt bri
        assert not_taken.stats.branches_taken == 1

    def test_opb_access_slower_than_bram(self):
        config = PAPER_CONFIG
        periph = SimplePeripheral(base_address=OPB_BASE_ADDRESS)
        opb_prog = assemble(f"""
            li r6, {OPB_BASE_ADDRESS}
            lwi r3, r6, 0
            bri 0
        """)
        bram_prog = assemble("""
            li r6, 128
            lwi r3, r6, 0
            bri 0
        """)
        opb = run_program(opb_prog, config, peripherals=[periph])
        bram = run_program(bram_prog, config)
        assert opb.cycles > bram.cycles

    def test_cpi_reasonable(self):
        result = run_asm("""
            addi r5, r0, 50
            addi r3, r0, 0
        loop:
            add r3, r3, r5
            addi r5, r5, -1
            bnei r5, loop
            bri 0
        """)
        assert 1.0 <= result.cpi <= 2.0


# --------------------------------------------------------------------------- observers
class TestObservers:
    SOURCE = """
        addi r5, r0, 8
        addi r3, r0, 0
    loop:
        add r3, r3, r5
        addi r5, r5, -1
        bnei r5, loop
        bri 0
    """

    class BackwardBranches:
        def __init__(self):
            self.branches = []
            self.run_ends = []

        def on_backward_branch(self, pc, target):
            self.branches.append((pc, target))

        def on_run_end(self, instructions):
            self.run_ends.append(instructions)

    @pytest.mark.parametrize("engine", ["interp", "jit"])
    def test_observer_hears_only_taken_backward_branches(self, engine):
        program = assemble(self.SOURCE)
        observer = self.BackwardBranches()
        result = run_program(program, PAPER_CONFIG, listeners=[observer],
                             engine=engine)
        loop = program.symbol_address("loop")
        # The loop iterates 8 times; the last branch falls through and
        # the final ``bri 0`` (a branch to itself) is not backward.
        assert observer.branches == [(loop + 8, loop)] * 7
        assert observer.run_ends == [result.instructions]

    @pytest.mark.parametrize("listener", [
        type("OldBranchHook", (), {
            "on_branch": lambda self, pc, target, taken: None}),
        type("FullTraceListener", (), {
            "on_instruction": lambda self, event: None}),
    ], ids=["on_branch", "on_instruction"])
    def test_add_listener_rejects_the_deleted_protocols(self, listener):
        """An old branch hook or full-trace listener fails loudly instead
        of silently hearing nothing."""
        system = MicroBlazeSystem(config=PAPER_CONFIG)
        with pytest.raises(TypeError, match="on_backward_branch"):
            system.cpu.add_listener(listener())
        with pytest.raises(TypeError, match="on_backward_branch"):
            system.run(assemble(self.SOURCE),
                       listeners=[self.BackwardBranches(), listener()])
        assert not system.cpu._observers  # nothing left attached

    def test_config_describe_and_without(self):
        config = MicroBlazeConfig()
        reduced = config.without(HwUnit.BARREL_SHIFTER)
        assert config.use_barrel_shifter and not reduced.use_barrel_shifter
        assert "MicroBlaze" in reduced.describe()
