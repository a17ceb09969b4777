"""CPU checkpoint/restore: bit-exact round trips, migration, fan-out.

The acceptance bar (ISSUE 2): snapshot → restore → run-to-completion must
yield identical architectural state, statistics and output checksums
versus an uninterrupted run, under every execution engine — including
restoring onto a *different* engine than the one that took the snapshot,
and restoring in a *different process* (worker migration).
"""

from __future__ import annotations

import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.isa.assembler import assemble
from repro.microblaze import (
    CHECKPOINT_MAGIC,
    PAPER_CONFIG,
    CheckpointError,
    MicroBlazeConfig,
    MicroBlazeSystem,
    SimplePeripheral,
    capture_checkpoint,
    describe_checkpoint,
    fan_out,
    restore_checkpoint,
    run_slice,
    spawn_from_checkpoint,
)
from repro.microblaze import UnknownEngineError, engine_names
from repro.microblaze.opb import OPB_BASE_ADDRESS

#: Every registered engine: a new registration is pulled into the
#: same-engine round trips and all ordered cross-engine pairs below.
ENGINES = engine_names()

#: Engines deleted without an alias; blobs may still record their names.
DELETED_ENGINES = ("threaded", "region")


def _reference_run(program, engine):
    system = MicroBlazeSystem(config=PAPER_CONFIG, engine=engine)
    return system.run(program)


def _checkpoint_mid_run(program, engine, slice_instructions=400):
    """Start ``program``, preempt it mid-run, return (system, blob)."""
    system = MicroBlazeSystem(config=PAPER_CONFIG, engine=engine)
    system.start(program)
    finished = run_slice(system, slice_instructions)
    assert not finished, "program too small to be preempted"
    return system, capture_checkpoint(system)


# Module-level so the cross-process test can pickle it by reference.
def _resume_in_worker(blob, engine):
    system = spawn_from_checkpoint(blob, engine=engine)
    result = system.resume()
    return (result.stats, result.return_value, result.data_image,
            list(system.cpu.registers))


class TestRoundTrip:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_bit_exact_resume_same_engine(self, engine,
                                          compiled_small_programs):
        program = compiled_small_programs["matmul"]
        reference = _reference_run(program, engine)

        _, blob = _checkpoint_mid_run(program, engine)
        restored = spawn_from_checkpoint(blob, engine=engine)
        result = restored.resume()

        assert result.stats == reference.stats
        assert result.return_value == reference.return_value
        assert result.data_image == reference.data_image

    @pytest.mark.parametrize("capture_engine,resume_engine",
                             [(capture, resume)
                              for capture in ENGINES for resume in ENGINES
                              if capture != resume])
    def test_cross_engine_resume(self, capture_engine, resume_engine,
                                 compiled_small_programs):
        """A snapshot is engine-independent: capture on one engine, resume
        on another, still bit-exact against an uninterrupted run."""
        program = compiled_small_programs["brev"]
        reference = _reference_run(program, "interp")

        _, blob = _checkpoint_mid_run(program, capture_engine)
        result = spawn_from_checkpoint(blob, engine=resume_engine).resume()

        assert result.stats == reference.stats
        assert result.return_value == reference.return_value
        assert result.data_image == reference.data_image

    def test_many_slices_equal_one_run(self, compiled_small_programs):
        """Preempting every few hundred instructions (with a checkpoint/
        restore cycle at every preemption) changes nothing."""
        program = compiled_small_programs["canrdr"]
        reference = _reference_run(program, "jit")

        system = MicroBlazeSystem(config=PAPER_CONFIG, engine="jit")
        system.start(program)
        hops = 0
        while not run_slice(system, 300):
            blob = capture_checkpoint(system)
            system = spawn_from_checkpoint(blob)
            hops += 1
        assert hops >= 2
        final = system.resume()
        assert final.stats == reference.stats
        assert final.return_value == reference.return_value
        assert final.data_image == reference.data_image

    def test_checkpoint_captures_registers_exactly(self,
                                                   compiled_small_programs):
        program = compiled_small_programs["bitmnp"]
        source, blob = _checkpoint_mid_run(program, "jit")
        restored = spawn_from_checkpoint(blob)
        assert list(restored.cpu.registers) == list(source.cpu.registers)
        assert restored.cpu.pc == source.cpu.pc
        assert restored.cpu.stats == source.cpu.stats


class TestMigration:
    def test_resume_in_another_process(self, compiled_small_programs):
        """Worker migration: the blob crosses a process boundary and the
        resumed run still matches the uninterrupted reference."""
        program = compiled_small_programs["matmul"]
        reference = _reference_run(program, "jit")
        _, blob = _checkpoint_mid_run(program, "jit")

        with ProcessPoolExecutor(max_workers=1) as pool:
            stats, return_value, data_image, _ = pool.submit(
                _resume_in_worker, blob, "jit").result()

        assert stats == reference.stats
        assert return_value == reference.return_value
        assert data_image == reference.data_image

    def test_blob_is_plain_bytes(self, compiled_small_programs):
        _, blob = _checkpoint_mid_run(compiled_small_programs["brev"],
                                      "jit")
        assert isinstance(blob, bytes)
        assert blob.startswith(CHECKPOINT_MAGIC)
        # Round-trips through pickle untouched (what the pool would do).
        assert pickle.loads(pickle.dumps(blob)) == blob
        meta = describe_checkpoint(blob)
        assert meta["program"]["name"] == "brev"
        assert not meta["halted"]
        assert meta["instructions"] > 0


class TestFanOut:
    def test_fan_out_matches_divergent_full_runs(self):
        """One warmed-up prefix fans into N scenario runs; each must equal
        a from-scratch run whose input was patched the same way."""
        source = """
            addi r5, r0, 64        # base address of the summed array
            addi r6, r0, 8         # element count
            addi r3, r0, 0
        loop:
            lw   r7, r5, r0
            add  r3, r3, r7
            addi r5, r5, 4
            addi r6, r6, -1
            bnei r6, loop
            bri  0
        """
        program = assemble(source, name="sum8")

        def poke(value):
            def scenario(system):
                system.data_bram.store_port_b(64, value, 4)
            return scenario

        # Checkpoint after the 3-instruction setup, before the loop reads
        # the array.
        system = MicroBlazeSystem(config=PAPER_CONFIG, engine="jit")
        system.start(program)
        assert not run_slice(system, 3)
        blob = capture_checkpoint(system)

        values = (0, 7, 1000)
        fanned = fan_out(blob, [poke(value) for value in values])

        for value, result in zip(values, fanned):
            scratch = MicroBlazeSystem(config=PAPER_CONFIG, engine="jit")
            scratch.start(program)
            scratch.data_bram.store_port_b(64, value, 4)
            reference = scratch.resume()
            assert result.return_value == reference.return_value == value
            assert result.stats == reference.stats

    def test_fan_out_with_peripherals(self):
        """Checkpoints of systems with peripherals fan out through a
        peripherals factory (one fresh set per scenario)."""
        source = f"""
            addi r5, r0, 5
            imm  {OPB_BASE_ADDRESS >> 16}
            swi  r5, r0, 0
            imm  {OPB_BASE_ADDRESS >> 16}
            lwi  r3, r0, 0
            bri  0
        """
        program = assemble(source, name="opb-fan")
        periph = SimplePeripheral(base_address=OPB_BASE_ADDRESS, name="periph")
        system = MicroBlazeSystem(config=PAPER_CONFIG, peripherals=[periph])
        system.start(program)
        assert not run_slice(system, 3)  # peripheral register already holds 5
        blob = capture_checkpoint(system)

        def fresh_peripherals():
            return [SimplePeripheral(base_address=OPB_BASE_ADDRESS,
                                     name="periph")]

        def overwrite(value):
            def scenario(sys_):
                sys_.opb.peripherals[0].registers[0] = value
            return scenario

        results = fan_out(blob, [None, overwrite(42)],
                          peripherals_factory=fresh_peripherals)
        assert results[0].return_value == 5   # checkpointed device state
        assert results[1].return_value == 42  # scenario-divergent state

        # Without a factory the restore correctly refuses (topology).
        with pytest.raises(CheckpointError, match="topology"):
            fan_out(blob, [None])

    def test_failed_restore_leaves_target_untouched(self):
        """A restore that cannot complete (peripheral without a
        restore_state hook) must not half-mutate the target system."""
        program = assemble("addi r3, r0, 1\nbri 0", name="tiny")
        periph = SimplePeripheral(base_address=OPB_BASE_ADDRESS, name="p")
        system = MicroBlazeSystem(config=PAPER_CONFIG, peripherals=[periph])
        system.start(program)
        blob = capture_checkpoint(system)

        class Stateless:
            """Same identity, snapshot-capable at capture, but no
            restore_state."""
            base_address = OPB_BASE_ADDRESS
            window_size = periph.window_size
            name = "p"
            def read(self, offset): return 0
            def write(self, offset, value): return None
            def tick(self, cycles): return None
            def snapshot_state(self): return {}

        target = MicroBlazeSystem(config=PAPER_CONFIG,
                                  peripherals=[Stateless()])
        before = bytes(target.instr_bram.storage)
        with pytest.raises(CheckpointError, match="restore_state"):
            restore_checkpoint(target, blob)
        # Nothing was mutated by the failed restore.
        assert bytes(target.instr_bram.storage) == before
        assert target.cpu.pc == 0 and target.cpu.stats.instructions == 0

    def test_fan_out_engine_override(self, compiled_small_programs):
        program = compiled_small_programs["brev"]
        reference = _reference_run(program, "jit")
        _, blob = _checkpoint_mid_run(program, "jit")
        results = fan_out(blob, [None, None], engine="interp")
        for result in results:
            assert result.stats == reference.stats
            assert result.return_value == reference.return_value


class TestPeripheralState:
    def test_simple_peripheral_round_trip(self):
        source = f"""
            addi r5, r0, 1
            imm  {OPB_BASE_ADDRESS >> 16}
            swi  r5, r0, 0          # OPB write to the peripheral
            imm  {OPB_BASE_ADDRESS >> 16}
            lwi  r3, r0, 0          # OPB read back
            bri  0
        """
        program = assemble(source, name="opb-io")
        periph = SimplePeripheral(base_address=OPB_BASE_ADDRESS, name="periph")
        system = MicroBlazeSystem(config=PAPER_CONFIG, peripherals=[periph])
        system.start(program)
        assert not run_slice(system, 3)  # past the store, before the load
        assert periph.writes == 1
        blob = capture_checkpoint(system)

        fresh = SimplePeripheral(base_address=OPB_BASE_ADDRESS, name="periph")
        target = MicroBlazeSystem(config=PAPER_CONFIG, peripherals=[fresh])
        restore_checkpoint(target, blob)
        assert fresh.registers == periph.registers
        assert fresh.writes == 1
        result = target.resume()
        assert result.return_value == 1
        assert result.stats.opb_reads == 1
        assert result.stats.opb_writes == 1

    def test_topology_mismatch_rejected(self, compiled_small_programs):
        _, blob = _checkpoint_mid_run(compiled_small_programs["brev"],
                                      "jit")
        periph = SimplePeripheral(base_address=OPB_BASE_ADDRESS)
        target = MicroBlazeSystem(config=PAPER_CONFIG, peripherals=[periph])
        with pytest.raises(CheckpointError, match="topology"):
            restore_checkpoint(target, blob)


class TestValidation:
    def test_bad_magic_rejected(self):
        system = MicroBlazeSystem(config=PAPER_CONFIG)
        with pytest.raises(CheckpointError, match="magic"):
            restore_checkpoint(system, b"not a checkpoint")

    def test_future_version_rejected(self, compiled_small_programs):
        """An unknown CHECKPOINT_VERSION is rejected *loudly*: the error
        names both the blob's version and the version this build reads."""
        from repro.microblaze.checkpoint import CHECKPOINT_VERSION

        _, blob = _checkpoint_mid_run(compiled_small_programs["brev"],
                                      "jit")
        tampered = CHECKPOINT_MAGIC + (999).to_bytes(2, "big") \
            + blob[len(CHECKPOINT_MAGIC) + 2:]
        system = MicroBlazeSystem(config=PAPER_CONFIG)
        with pytest.raises(CheckpointError) as excinfo:
            restore_checkpoint(system, tampered)
        message = str(excinfo.value)
        assert "999" in message
        assert str(CHECKPOINT_VERSION) in message
        # describe_checkpoint (diagnostics) must refuse the same blob, not
        # return half-decoded metadata.
        from repro.microblaze.checkpoint import describe_checkpoint
        with pytest.raises(CheckpointError):
            describe_checkpoint(tampered)

    def test_config_mismatch_rejected(self, compiled_small_programs):
        _, blob = _checkpoint_mid_run(compiled_small_programs["brev"],
                                      "jit")
        other = MicroBlazeSystem(config=MicroBlazeConfig(clock_mhz=100.0))
        with pytest.raises(CheckpointError, match="configuration"):
            restore_checkpoint(other, blob)

    @pytest.mark.parametrize("bram", ["instr_bram", "data_bram"])
    @pytest.mark.parametrize("delta", [-4, 1], ids=["short", "long"])
    def test_bram_data_length_mismatch_rejected_untouched(
            self, bram, delta, compiled_small_programs):
        """A BRAM image shorter or longer than its recorded size is
        rejected, naming both lengths, before anything is written: the
        target keeps its contents, and its storage keeps its size."""
        import zlib

        _, blob = _checkpoint_mid_run(compiled_small_programs["brev"],
                                      "jit")
        header = len(CHECKPOINT_MAGIC) + 2
        payload = pickle.loads(zlib.decompress(blob[header:]))
        plain = payload[bram]
        plain["data"] = plain["data"][:delta] if delta < 0 \
            else plain["data"] + bytes(delta)
        tampered = blob[:header] + zlib.compress(pickle.dumps(payload))

        target = MicroBlazeSystem(config=PAPER_CONFIG, engine="jit")
        target.run(compiled_small_programs["matmul"])
        before = (bytes(target.instr_bram.storage),
                  bytes(target.data_bram.storage))
        with pytest.raises(CheckpointError) as info:
            restore_checkpoint(target, tampered)
        message = str(info.value)
        assert message.startswith(bram)
        assert f"{plain['size'] + delta} bytes" in message
        assert f"recorded size is {plain['size']}" in message
        assert (bytes(target.instr_bram.storage),
                bytes(target.data_bram.storage)) == before
        for memory in (target.instr_bram, target.data_bram):
            assert len(memory.storage) == memory.size

    @staticmethod
    def _blob_recording(program, deleted):
        """A mid-run checkpoint whose payload names the deleted engine
        ``deleted``, as a blob written before its deletion does."""
        import zlib

        _, blob = _checkpoint_mid_run(program, "jit")
        header = len(CHECKPOINT_MAGIC) + 2
        payload = pickle.loads(zlib.decompress(blob[header:]))
        payload["engine"] = deleted
        return blob[:header] + zlib.compress(pickle.dumps(payload))

    @pytest.mark.parametrize("deleted", DELETED_ENGINES)
    @pytest.mark.parametrize("spawn", [
        spawn_from_checkpoint,
        lambda blob: fan_out(blob, [None]),
    ], ids=["spawn_from_checkpoint", "fan_out"])
    def test_deleted_engine_name_rejected_unless_overridden(
            self, spawn, deleted, compiled_small_programs):
        """A blob recording a deleted engine fails loudly through the
        registry when it names the engine to resume on."""
        old_blob = self._blob_recording(compiled_small_programs["brev"],
                                        deleted)
        with pytest.raises(UnknownEngineError) as info:
            spawn(old_blob)
        assert repr(deleted) in str(info.value)
        assert "registered engines: interp, jit" in str(info.value)

    @pytest.mark.parametrize("deleted", DELETED_ENGINES)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_deleted_engine_name_resumes_with_override(
            self, engine, deleted, compiled_small_programs):
        """The same blob resumes bit-exactly once the caller picks a
        registered engine."""
        program = compiled_small_programs["brev"]
        reference = _reference_run(program, "interp")
        old_blob = self._blob_recording(program, deleted)
        result = spawn_from_checkpoint(old_blob, engine=engine).resume()
        assert result.stats == reference.stats
        assert result.return_value == reference.return_value
        assert result.data_image == reference.data_image

    def test_unstarted_system_cannot_checkpoint(self):
        system = MicroBlazeSystem(config=PAPER_CONFIG)
        with pytest.raises(CheckpointError):
            capture_checkpoint(system)

    def test_malicious_pickle_payload_cannot_execute(self, tmp_path):
        """The decoder refuses global lookups, so a crafted blob carrying a
        __reduce__ payload raises CheckpointError instead of running code."""
        import zlib

        canary = tmp_path / "pwned"

        class Exploit:
            def __reduce__(self):
                return (canary.write_text, ("owned",))

        blob = CHECKPOINT_MAGIC + (1).to_bytes(2, "big") \
            + zlib.compress(pickle.dumps({"version": 1, "evil": Exploit()}))
        system = MicroBlazeSystem(config=PAPER_CONFIG)
        with pytest.raises(CheckpointError, match="corrupt"):
            restore_checkpoint(system, blob)
        with pytest.raises(CheckpointError, match="corrupt"):
            describe_checkpoint(blob)
        assert not canary.exists()

    def test_non_mapping_payload_rejected(self):
        import zlib
        blob = CHECKPOINT_MAGIC + (1).to_bytes(2, "big") \
            + zlib.compress(pickle.dumps([1, 2, 3]))
        system = MicroBlazeSystem(config=PAPER_CONFIG)
        with pytest.raises(CheckpointError, match="mapping"):
            restore_checkpoint(system, blob)
