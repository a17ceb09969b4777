"""The pluggable execution-engine registry and its end-to-end threading.

Covers the engine contract itself (registration, lookup, capability-based
fallback), the one-clear-error validation promise at every layer an
engine name travels through (CPU, ``WarpJob``, the ``repro-warp`` CLI,
the WARPNET job codec), and the batched OPB peripheral ticks of the block
engines' dispatch loops.
"""

from __future__ import annotations

import pytest

from repro.isa import assemble
from repro.microblaze import (
    DEFAULT_ENGINE,
    MicroBlazeSystem,
    PAPER_CONFIG,
    UnknownEngineError,
    engine_names,
    register_engine,
    run_program,
    validate_engine_name,
)
from repro.microblaze.engines import _REGISTRY, create_engine
from repro.microblaze.engines.jit import JitEngine
from repro.microblaze.opb import OnChipPeripheralBus
from repro.service.cli import main as cli_main
from repro.service.jobs import JobSpecError, WarpJob, suite_sweep_jobs

#: Every engine that translates blocks (everything but the reference).
BLOCK_ENGINES = tuple(name for name in engine_names() if name != "interp")

LOOP = """
    addi r5, r0, 10
    addi r3, r0, 0
loop:
    addi r3, r3, 1
    addi r5, r5, -1
    bnei r5, loop
    bri 0
"""


# ------------------------------------------------------------------ registry
class TestRegistry:
    def test_builtin_engines_registered(self):
        assert engine_names() == ("interp", "jit")
        assert DEFAULT_ENGINE == "jit"

    def test_validate_none_resolves_default(self):
        assert validate_engine_name(None) == DEFAULT_ENGINE

    def test_unknown_engine_error_lists_registered(self):
        with pytest.raises(UnknownEngineError) as info:
            validate_engine_name("tracing-jit")
        message = str(info.value)
        assert "tracing-jit" in message
        for name in engine_names():
            assert name in message

    def test_cpu_rejects_unknown_engine(self):
        with pytest.raises(UnknownEngineError):
            MicroBlazeSystem(config=PAPER_CONFIG, engine="bogus")

    def test_register_engine_end_to_end(self):
        """A registered third-party engine is selectable everywhere a name
        is: system construction, run_program, WarpJob."""

        class CountingEngine(JitEngine):
            runs = 0

            def run(self, max_instructions, max_cycles=None):
                CountingEngine.runs += 1
                super().run(max_instructions, max_cycles)

        register_engine("unit-test-counting", CountingEngine)
        try:
            program = assemble(LOOP)
            reference = run_program(program, PAPER_CONFIG, engine="interp")
            observed = run_program(program, PAPER_CONFIG,
                                   engine="unit-test-counting")
            assert CountingEngine.runs == 1
            assert observed.stats == reference.stats
            job = WarpJob(name="custom", benchmark="brev",
                          engine="unit-test-counting")
            assert job.engine == "unit-test-counting"
        finally:
            _REGISTRY.pop("unit-test-counting", None)

    def test_engine_instance_capabilities(self):
        system = MicroBlazeSystem(config=PAPER_CONFIG, engine="interp")
        impl = system.cpu._engine_impl
        assert impl.supports_max_cycles and impl.supports_halt_address
        for engine in BLOCK_ENGINES:
            impl = MicroBlazeSystem(config=PAPER_CONFIG,
                                    engine=engine).cpu._engine_impl
            assert not impl.supports_max_cycles
            assert not impl.supports_halt_address

    def test_create_engine_binds_name(self):
        cpu = MicroBlazeSystem(config=PAPER_CONFIG).cpu
        assert create_engine("jit", cpu).name == "jit"


# --------------------------------------------------------------- service layer
class TestServiceValidation:
    def test_warpjob_rejects_unknown_engine(self):
        with pytest.raises(JobSpecError) as info:
            WarpJob(name="bad", benchmark="brev", engine="turbo")
        message = str(info.value)
        assert "bad" in message and "turbo" in message
        assert "registered engines" in message
        for name in engine_names():
            assert name in message

    def test_warpjob_rejects_non_string_engine(self):
        """Unhashable junk from a JSON job file (e.g. a list) stays on
        the clean-error path, not a TypeError from the registry dict."""
        with pytest.raises(JobSpecError) as info:
            WarpJob(name="bad", benchmark="brev", engine=["jit"])
        assert "registered engines" in str(info.value)

    def test_unknown_engine_error_survives_pickling(self):
        """Pool workers pickle exceptions back to the caller; the
        one-arg constructor must round-trip without double-wrapping."""
        import pickle

        error = pickle.loads(pickle.dumps(UnknownEngineError("turbo")))
        assert str(error).count("unknown engine") == 1
        assert error.name == "turbo"

    def test_sweep_rejects_unknown_engine(self):
        with pytest.raises(JobSpecError):
            suite_sweep_jobs(engines=("jit", "turbo"))

    def test_sweep_defaults_to_the_default_engine(self):
        jobs = suite_sweep_jobs(benchmarks=("brev",))
        assert [job.engine for job in jobs] == [DEFAULT_ENGINE]

    def test_sweep_accepts_every_engine(self):
        jobs = suite_sweep_jobs(engines=("jit", "interp"),
                                benchmarks=("brev",))
        assert [job.engine for job in jobs] == ["jit", "interp"]
        # Distinct engines are distinct content (no accidental dedup).
        assert len({job.dedup_key() for job in jobs}) == 2

    def test_cli_suite_rejects_unknown_engine(self, capsys):
        exit_code = cli_main(["suite", "--engines", "turbo", "--quiet"])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert "turbo" in err and "registered engines" in err

    def test_cli_defaults_to_the_default_engine(self):
        from repro.service.cli import _build_parser

        args = _build_parser().parse_args(["suite"])
        assert args.engines == DEFAULT_ENGINE

    def test_wire_codec_round_trips_engine(self):
        from repro.server.protocol import job_from_plain, job_to_plain

        job = WarpJob(name="wired", benchmark="brev", engine="jit")
        twin = job_from_plain(job_to_plain(job))
        assert twin.engine == "jit"
        assert twin.dedup_key() == job.dedup_key()

    def test_wire_codec_rejects_unknown_engine(self):
        from repro.server.protocol import job_from_plain, job_to_plain

        plain = job_to_plain(WarpJob(name="wired", benchmark="brev"))
        plain["engine"] = "turbo"
        with pytest.raises(JobSpecError):
            job_from_plain(plain)


#: Engines deleted without an alias; each name must fail at the registry.
DELETED_ENGINES = ("threaded", "region")


@pytest.mark.parametrize("deleted", DELETED_ENGINES)
class TestDeletedEngines:
    """The closure-based ``threaded`` engine and the region-fusing
    ``region`` engine are gone with no alias: every entry point that
    takes an engine name — simulator, job, job file, sweep, wire message,
    CLI verb — fails loudly at the registry check (the checkpoint path
    is pinned in ``test_checkpoint.py``)."""

    @staticmethod
    def _assert_rejected(info, deleted):
        cause = info.value.__cause__
        assert isinstance(cause, UnknownEngineError)
        assert cause.name == deleted
        assert "registered engines: interp, jit" in str(info.value)

    def test_warpjob_rejects_deleted(self, deleted):
        with pytest.raises(JobSpecError) as info:
            WarpJob(name="old", benchmark="brev", engine=deleted)
        self._assert_rejected(info, deleted)

    def test_fuzz_job_rejects_deleted(self, deleted, tmp_path):
        import json

        from repro.service.cli import load_job_file

        jobfile = tmp_path / "jobs.json"
        jobfile.write_text(json.dumps({"jobs": [
            {"name": "old", "fuzz_profile": "alu",
             "fuzz_engines": ["jit", deleted]}]}))
        with pytest.raises(JobSpecError) as info:
            load_job_file(jobfile)
        self._assert_rejected(info, deleted)

    def test_wire_codec_rejects_deleted(self, deleted):
        from repro.server.protocol import job_from_plain, job_to_plain

        plain = job_to_plain(WarpJob(name="wired", benchmark="brev"))
        plain["engine"] = deleted
        with pytest.raises(JobSpecError) as info:
            job_from_plain(plain)
        self._assert_rejected(info, deleted)

    @pytest.mark.parametrize("argv", [
        ["suite", "--engines", "{}"],
        ["fuzz", "--seeds", "1", "--engines", "interp,{}"],
    ], ids=["suite", "fuzz"])
    def test_cli_rejects_deleted(self, deleted, argv, capsys):
        argv = [arg.format(deleted) for arg in argv]
        assert cli_main(argv + ["--quiet"]) == 2
        err = capsys.readouterr().err
        assert repr(deleted) in err
        assert "registered engines: interp, jit" in err

    def test_sweep_rejects_deleted(self, deleted):
        with pytest.raises(JobSpecError) as info:
            suite_sweep_jobs(engines=(deleted,), benchmarks=("brev",))
        self._assert_rejected(info, deleted)

    @pytest.mark.parametrize("entry", [
        lambda name: validate_engine_name(name),
        lambda name: MicroBlazeSystem(config=PAPER_CONFIG, engine=name),
        lambda name: run_program(assemble(LOOP), PAPER_CONFIG, engine=name),
    ], ids=["validate_engine_name", "MicroBlazeSystem", "run_program"])
    def test_simulator_entry_points_reject_deleted(self, deleted, entry):
        with pytest.raises(UnknownEngineError) as info:
            entry(deleted)
        assert info.value.name == deleted
        assert "registered engines: interp, jit" in str(info.value)

    def test_deleted_module_is_gone(self, deleted):
        import importlib

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(f"repro.microblaze.engines.{deleted}")


def test_deleted_engines_left_no_seams():
    """Nothing the deleted engines subclassed or counted survives: no
    closure ``BlockCompiler``, no overridable operand/address emitters on
    the jit compiler, no region rows in the translation accounting."""
    from repro.microblaze import engine
    from repro.microblaze.engines import jit

    assert not hasattr(engine, "BlockCompiler")
    assert not hasattr(jit.SourceBlockCompiler, "_operand")
    assert not hasattr(jit.SourceBlockCompiler, "_address")
    assert jit._CODEGEN_KEYS == ("compiles", "cache_hits", "compile_seconds")


# ------------------------------------------------------------- OPB tick batching
class TickCounter:
    """Opt-in ticking peripheral counting delivered time and tick calls."""

    base_address = 0x9000_0000
    window_size = 4
    name = "ticks"
    wants_ticks = True

    def __init__(self):
        self.total = 0
        self.calls = 0

    def read(self, offset):
        return 0

    def write(self, offset, value):
        return None

    def tick(self, cycles):
        self.total += cycles
        self.calls += 1


class PeriodicTicker(TickCounter):
    """Ticking peripheral with a periodic deadline every ``period`` cycles."""

    name = "timer"

    def __init__(self, period):
        super().__init__()
        self.period = period

    def tick_deadline(self):
        return self.period - (self.total % self.period)

    @property
    def events(self):
        return self.total // self.period


class TestTickBatching:
    @pytest.mark.parametrize("engine", engine_names())
    def test_ticked_time_equals_stats_cycles(self, engine):
        peripheral = TickCounter()
        result = run_program(assemble(LOOP), PAPER_CONFIG, engine=engine,
                             peripherals=[peripheral])
        assert peripheral.total == result.stats.cycles

    @pytest.mark.parametrize("engine", BLOCK_ENGINES)
    def test_block_engines_batch_ticks(self, engine):
        batched = TickCounter()
        result = run_program(assemble(LOOP), PAPER_CONFIG, engine=engine,
                             peripherals=[batched])
        reference = TickCounter()
        run_program(assemble(LOOP), PAPER_CONFIG, engine="interp",
                    peripherals=[reference])
        assert batched.total == reference.total == result.stats.cycles
        # One tick per superblock, not one per instruction.
        assert batched.calls < reference.calls

    @pytest.mark.parametrize("engine", engine_names())
    def test_deadline_peripheral_time_is_exact(self, engine):
        peripheral = PeriodicTicker(period=16)
        result = run_program(assemble(LOOP), PAPER_CONFIG, engine=engine,
                             peripherals=[peripheral])
        assert peripheral.total == result.stats.cycles
        assert peripheral.events == result.stats.cycles // 16

    @pytest.mark.parametrize("engine", BLOCK_ENGINES)
    def test_deadline_refines_batching(self, engine):
        """A declared deadline inside a block drops delivery to finer
        granularity than deadline-free batching."""
        free = TickCounter()
        run_program(assemble(LOOP), PAPER_CONFIG, engine=engine,
                    peripherals=[free])
        timed = PeriodicTicker(period=4)
        run_program(assemble(LOOP), PAPER_CONFIG, engine=engine,
                    peripherals=[timed])
        assert timed.total == free.total
        assert timed.calls > free.calls

    def test_non_ticking_peripherals_cost_nothing(self):
        system = MicroBlazeSystem(config=PAPER_CONFIG)
        assert system.opb.ticking == []
        assert system.opb.next_deadline() is None

    @pytest.mark.parametrize("engine", engine_names())
    def test_engine_time_skips_non_opted_peripherals(self, engine):
        """Engine-driven ticks go only to opted-in peripherals; a plain
        peripheral attached alongside a ticking one receives none."""
        bystander = TickCounter()
        bystander.wants_ticks = False
        bystander.base_address = 0x9100_0000
        opted = TickCounter()
        result = run_program(assemble(LOOP), PAPER_CONFIG, engine=engine,
                             peripherals=[bystander, opted])
        assert opted.total == result.stats.cycles
        assert bystander.total == 0 and bystander.calls == 0

    @pytest.mark.parametrize("engine", BLOCK_ENGINES)
    def test_deadline_respected_in_precise_mode(self, engine):
        """Precise-fault-stats blocks carry no wholesale deltas, but the
        deadline pre-check still needs their static cycle count: a
        deadline peripheral must see finer delivery than free batching in
        precise mode too."""
        free = TickCounter()
        free_result = run_program(assemble(LOOP), PAPER_CONFIG,
                                  engine=engine, precise_fault_stats=True,
                                  peripherals=[free])
        timed = PeriodicTicker(period=2)
        timed_result = run_program(assemble(LOOP), PAPER_CONFIG,
                                   engine=engine, precise_fault_stats=True,
                                   peripherals=[timed])
        assert timed_result.stats == free_result.stats
        assert timed.total == free.total == free_result.stats.cycles
        assert timed.calls > free.calls

    def test_tick_bounded_chunks_at_deadlines(self):
        bus = OnChipPeripheralBus()
        peripheral = PeriodicTicker(period=7)
        peripheral.total = 2  # 5 cycles to the first boundary
        chunks = []
        original = peripheral.tick

        def recording(cycles):
            chunks.append(cycles)
            original(cycles)

        peripheral.tick = recording
        bus.attach(peripheral)
        bus.tick_bounded(12)
        assert sum(chunks) == 12
        assert chunks == [5, 7]

    @pytest.mark.parametrize("engine", BLOCK_ENGINES)
    @pytest.mark.parametrize("period", [2, 3, 5, 7])
    def test_deadline_step_preserves_imm_fusion(self, engine, period):
        """Deadline stepping must never leave an imm latch behind and
        then dispatch a block compiled without the fusion: a fused
        32-bit immediate inside the loop stays fused whatever the tick
        period."""
        source = """
            addi r5, r0, 20
            addi r3, r0, 0
        loop:
            imm 1
            addi r3, r3, 0      # fused: r3 += 0x10000 per iteration
            addi r5, r5, -1
            bnei r5, loop
            bri 0
        """
        reference = run_program(assemble(source), PAPER_CONFIG,
                                engine="interp")
        assert reference.return_value == 20 * 0x10000
        peripheral = PeriodicTicker(period=period)
        observed = run_program(assemble(source), PAPER_CONFIG,
                               engine=engine, peripherals=[peripheral])
        assert observed.return_value == reference.return_value
        assert observed.stats == reference.stats
        assert peripheral.total == observed.stats.cycles

    @pytest.mark.parametrize("engine", engine_names())
    @pytest.mark.parametrize("precise", [False, True])
    def test_mid_block_fault_still_delivers_ticks(self, engine, precise):
        """A block faulting mid-way must still deliver the cycles it
        accrued: ticked time tracks the recorded statistics exactly,
        interpreter-identical in precise mode."""
        from repro.microblaze import MemoryError_, MicroBlazeSystem

        source = """
            addi r5, r0, 8
            addi r6, r0, 1
            add  r7, r5, r6
            lw   r9, r7, r0     # misaligned load at 9: faults mid-block
            bri  0
        """
        peripheral = TickCounter()
        system = MicroBlazeSystem(config=PAPER_CONFIG, engine=engine,
                                  precise_fault_stats=precise,
                                  peripherals=[peripheral])
        with pytest.raises(MemoryError_):
            system.run(assemble(source, name="faulty"))
        assert peripheral.total == system.cpu.stats.cycles

    @pytest.mark.parametrize("engine", engine_names())
    def test_suite_benchmark_with_ticking_peripheral(self, engine,
                                                     compiled_small_programs):
        """Ticking changes nothing about execution itself."""
        program = compiled_small_programs["brev"]
        plain = run_program(program, PAPER_CONFIG, engine=engine)
        peripheral = PeriodicTicker(period=32)
        ticked = run_program(program, PAPER_CONFIG, engine=engine,
                             peripherals=[peripheral])
        assert ticked.stats == plain.stats
        assert ticked.return_value == plain.return_value
        assert peripheral.total == plain.stats.cycles
