"""CPU checkpoint/restore: snapshot a running MicroBlaze system to bytes.

The warp service preempts long-running jobs, migrates them between worker
processes, and fans a single warmed-up system out into many divergent
scenario runs without re-simulating the common prefix.  All three need the
same primitive: a *bit-exact*, engine-independent snapshot of a
:class:`~repro.microblaze.system.MicroBlazeSystem` —

* the CPU's architectural state (register file, pc, halt state, ``imm``
  latch, cumulative :class:`~repro.microblaze.cpu.ExecutionStats`),
* both block RAMs (contents and port access counters),
* local-memory-bus traffic counters,
* the on-chip peripheral bus and every attached peripheral's device state
  (peripherals expose ``snapshot_state()`` / ``restore_state()``; see
  :class:`~repro.microblaze.opb.SimplePeripheral` and
  :class:`~repro.fabric.hw_exec.WclaPeripheral`).

Decode caches and superblock translations are deliberately *not* captured:
they are derived state and are rebuilt lazily after a restore (the
restoring CPU may even use a different execution engine — a checkpoint
taken on the jit engine resumes bit-exactly on the interpreter and
vice versa, which the differential tests assert).

Blob format (:data:`CHECKPOINT_VERSION`): an 8-byte magic, a 2-byte
big-endian format version, then a zlib-compressed pickle of a
plain-builtins payload dictionary.  Enum-valued statistics are stored by
name and the processor configuration as a field dictionary, so the blob
does not depend on pickle's treatment of repo classes and can be validated
against the restoring system's configuration.  The decoder enforces the
plain-builtins contract: it refuses to resolve *any* global during
unpickling, so a crafted blob cannot execute code — it fails with
:class:`CheckpointError`.
"""

from __future__ import annotations

import io
import pickle
import zlib
from dataclasses import asdict
from typing import Callable, Dict, List, Optional, Sequence

from .config import MicroBlazeConfig, PipelineTimings
from .cpu import ExecutionLimitExceeded
from .memory import BlockRAM
from .system import ExecutionResult, MicroBlazeSystem

#: Magic prefix of every checkpoint blob.
CHECKPOINT_MAGIC = b"WARPCKPT"
#: Current checkpoint format version (bump on any payload layout change).
CHECKPOINT_VERSION = 1


class CheckpointError(Exception):
    """Raised when a blob cannot be decoded or does not fit the target."""


# --------------------------------------------------------------------------- config codec
def _config_to_plain(config: MicroBlazeConfig) -> Dict:
    return asdict(config)


def _config_from_plain(plain: Dict) -> MicroBlazeConfig:
    fields = dict(plain)
    fields["timings"] = PipelineTimings(**fields["timings"])
    return MicroBlazeConfig(**fields)


# --------------------------------------------------------------------------- capture
def _bram_to_plain(bram: BlockRAM) -> Dict:
    return {
        "size": bram.size,
        "data": bytes(bram.storage),
        "port_a_accesses": bram.port_a_accesses,
        "port_b_accesses": bram.port_b_accesses,
    }


def _check_bram(bram: BlockRAM, plain: Dict, label: str) -> None:
    if bram.size != plain["size"]:
        raise CheckpointError(
            f"{label}: checkpoint holds {plain['size']} bytes but the target "
            f"BRAM has {bram.size}"
        )
    if len(plain["data"]) != bram.size:
        # The storage is rewritten in place and never resized (its word
        # views pin it), so a short or long image cannot be restored.
        raise CheckpointError(
            f"{label}: checkpoint data holds {len(plain['data'])} bytes but "
            f"its recorded size is {plain['size']}"
        )


def _restore_bram(bram: BlockRAM, plain: Dict) -> None:
    bram.storage[:] = plain["data"]
    bram.port_a_accesses = plain["port_a_accesses"]
    bram.port_b_accesses = plain["port_b_accesses"]


def capture_checkpoint(system: MicroBlazeSystem) -> bytes:
    """Snapshot ``system`` into a compact, versioned bytes blob.

    The system must be at an instruction boundary — i.e. between
    :meth:`~repro.microblaze.system.MicroBlazeSystem.run` /
    :func:`run_slice` calls — which is the only time callers can observe
    it anyway.
    """
    program = system._loaded_program
    if program is not None:
        program_meta = {
            "name": program.name,
            "entry_point": program.entry_point,
            "data_size": program.data_size,
        }
    elif system._checkpoint_meta is not None:
        program_meta = dict(system._checkpoint_meta)
    else:
        raise CheckpointError("cannot checkpoint a system that never loaded "
                              "a program")

    peripherals = []
    for peripheral in system.opb.peripherals:
        snapshot = getattr(peripheral, "snapshot_state", None)
        peripherals.append({
            "name": peripheral.name,
            "base_address": peripheral.base_address,
            "state": snapshot() if callable(snapshot) else None,
        })

    payload = {
        "version": CHECKPOINT_VERSION,
        "config": _config_to_plain(system.config),
        "engine": system.cpu.engine,
        "program": program_meta,
        "cpu": system.cpu.snapshot_state(),
        "instr_bram": _bram_to_plain(system.instr_bram),
        "data_bram": _bram_to_plain(system.data_bram),
        "lmb": {
            "i": (system.i_lmb.reads, system.i_lmb.writes),
            "d": (system.d_lmb.reads, system.d_lmb.writes),
        },
        "opb": {
            "reads": system.opb.reads,
            "writes": system.opb.writes,
            "peripherals": peripherals,
        },
    }
    body = zlib.compress(pickle.dumps(payload, protocol=4), level=6)
    return (CHECKPOINT_MAGIC
            + CHECKPOINT_VERSION.to_bytes(2, "big")
            + body)


class _PlainBuiltinsUnpickler(pickle.Unpickler):
    """Unpickler that refuses every global lookup.

    The checkpoint payload is plain builtins by construction (ints,
    strings, bytes, lists, dicts, tuples, bools, None), which pickle
    deserializes without ever resolving a class or function.  Refusing
    ``find_class`` outright means a crafted blob cannot smuggle a
    ``__reduce__`` payload into the decoder — untrusted blobs fail with
    :class:`CheckpointError` instead of executing code.
    """

    def find_class(self, module, name):  # noqa: D401 - pickle API
        raise pickle.UnpicklingError(
            f"checkpoint payloads contain only plain builtins; refusing to "
            f"resolve {module}.{name}"
        )


def _decode_blob(blob: bytes) -> Dict:
    if not blob.startswith(CHECKPOINT_MAGIC):
        raise CheckpointError("not a warp checkpoint (bad magic)")
    version = int.from_bytes(blob[len(CHECKPOINT_MAGIC):len(CHECKPOINT_MAGIC) + 2],
                             "big")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint format version {version} is not supported "
            f"(this build reads version {CHECKPOINT_VERSION})"
        )
    try:
        body = zlib.decompress(blob[len(CHECKPOINT_MAGIC) + 2:])
        payload = _PlainBuiltinsUnpickler(io.BytesIO(body)).load()
    except Exception as error:
        raise CheckpointError(f"corrupt checkpoint payload: {error}") from error
    if not isinstance(payload, dict):
        raise CheckpointError("corrupt checkpoint payload: not a mapping")
    return payload


# --------------------------------------------------------------------------- restore
def restore_checkpoint(system: MicroBlazeSystem, blob: bytes) -> None:
    """Restore ``blob`` bit-exactly into ``system``.

    The target must structurally match the checkpointed system: same
    processor configuration, same BRAM sizes, and the same set of attached
    peripherals (matched by ``(name, base_address)``).  Peripheral device
    state is restored through the peripheral's ``restore_state`` hook.
    """
    payload = _decode_blob(blob)

    config = _config_from_plain(payload["config"])
    if config != system.config:
        raise CheckpointError(
            "checkpoint was taken on a different processor configuration "
            f"({config.describe()} vs {system.config.describe()})"
        )

    _check_bram(system.instr_bram, payload["instr_bram"], "instr_bram")
    _check_bram(system.data_bram, payload["data_bram"], "data_bram")
    recorded = {(entry["name"], entry["base_address"]): entry
                for entry in payload["opb"]["peripherals"]}
    attached = {(p.name, p.base_address): p for p in system.opb.peripherals}
    if set(recorded) != set(attached):
        raise CheckpointError(
            f"peripheral topology mismatch: checkpoint has "
            f"{sorted(recorded)}, target has {sorted(attached)}"
        )
    for key, entry in recorded.items():
        # Validate every restore hook up front: nothing is mutated until
        # the whole restore is known to be possible, so a failed restore
        # leaves the target system untouched.
        if entry["state"] is not None \
                and not callable(getattr(attached[key], "restore_state", None)):
            raise CheckpointError(
                f"peripheral {key[0]!r} has recorded state but the attached "
                f"instance does not implement restore_state()"
            )

    _restore_bram(system.instr_bram, payload["instr_bram"])
    _restore_bram(system.data_bram, payload["data_bram"])
    system.i_lmb.reads, system.i_lmb.writes = payload["lmb"]["i"]
    system.d_lmb.reads, system.d_lmb.writes = payload["lmb"]["d"]
    system.opb.reads = payload["opb"]["reads"]
    system.opb.writes = payload["opb"]["writes"]
    for key, entry in recorded.items():
        if entry["state"] is not None:
            attached[key].restore_state(entry["state"])

    # CPU last: restore_state also drops the decode/superblock caches that
    # the freshly written instruction BRAM invalidates.
    system.cpu.restore_state(payload["cpu"])
    system._loaded_program = None
    system._checkpoint_meta = dict(payload["program"])


def describe_checkpoint(blob: bytes) -> Dict:
    """Decode a blob's metadata without touching any system (diagnostics)."""
    payload = _decode_blob(blob)
    return {
        "version": payload["version"],
        "program": dict(payload["program"]),
        "engine": payload["engine"],
        "pc": payload["cpu"]["pc"],
        "halted": payload["cpu"]["halted"],
        "instructions": payload["cpu"]["stats"]["instructions"],
        "cycles": payload["cpu"]["stats"]["cycles"],
        "blob_bytes": len(blob),
    }


def spawn_from_checkpoint(blob: bytes, peripherals: Sequence = (),
                          engine: Optional[str] = None) -> MicroBlazeSystem:
    """Build a fresh system from a blob alone (worker-migration entry point).

    The processor configuration is reconstructed from the blob; the caller
    supplies freshly built peripherals matching the checkpointed topology
    (peripherals hold live object references — kernels, BRAM ports — that
    a blob cannot carry).  ``engine`` may differ from the engine the
    checkpoint was taken on: the snapshot is engine-independent, and so
    is the state a later fault leaves (statistics, pc, ``imm`` latch).
    """
    payload = _decode_blob(blob)
    system = MicroBlazeSystem(config=_config_from_plain(payload["config"]),
                              peripherals=peripherals,
                              engine=engine if engine is not None
                              else payload["engine"])
    restore_checkpoint(system, blob)
    return system


# --------------------------------------------------------------------------- preemption
def run_slice(system: MicroBlazeSystem, slice_instructions: int) -> bool:
    """Execute at most ``slice_instructions`` further instructions.

    Returns ``True`` when the program ran to completion within the slice
    and ``False`` when it was preempted at an instruction boundary — at
    which point the system is checkpointable and the job can be resumed
    (here or in another process) with :meth:`MicroBlazeSystem.resume` or
    another ``run_slice``.  Statistics are cumulative across slices, so a
    sliced run finishes with *identical* stats to an uninterrupted one.
    """
    if slice_instructions <= 0:
        raise ValueError("slice_instructions must be positive")
    budget = system.cpu.stats.instructions + slice_instructions
    try:
        system.cpu.run(max_instructions=budget)
    except ExecutionLimitExceeded:
        return False
    return True


# --------------------------------------------------------------------------- fan-out
def fan_out(blob: bytes,
            scenarios: Sequence[Callable[[MicroBlazeSystem], None]],
            engine: Optional[str] = None,
            max_instructions: int = 50_000_000,
            peripherals_factory: Optional[Callable[[], Sequence]] = None,
            ) -> List[ExecutionResult]:
    """Fan one warmed-up checkpoint out into ``len(scenarios)`` runs.

    Each scenario gets its own fresh system restored from ``blob``, is
    applied as a mutation (typically poking data-BRAM words through
    ``system.data_bram`` to set up a divergent input), and is then resumed
    to completion.  The shared prefix — everything up to the checkpoint —
    is simulated exactly once, by whoever produced the blob.

    If the checkpointed system had peripherals attached, supply
    ``peripherals_factory``: it is called once *per scenario* and must
    return freshly built peripherals matching the checkpointed topology
    (scenario runs must not share live peripheral objects).
    """
    results: List[ExecutionResult] = []
    for scenario in scenarios:
        peripherals = peripherals_factory() if peripherals_factory else ()
        system = spawn_from_checkpoint(blob, peripherals=peripherals,
                                       engine=engine)
        if scenario is not None:
            scenario(system)
        results.append(system.resume(max_instructions=max_instructions))
    return results
