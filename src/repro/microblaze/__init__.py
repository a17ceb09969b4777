"""MicroBlaze soft-core system simulator.

Implements the "simple MicroBlaze processor system" of Figure 1: the
configurable three-stage-pipeline core (:mod:`~repro.microblaze.cpu`), the
instruction/data block RAMs and local memory busses
(:mod:`~repro.microblaze.memory`), the on-chip peripheral bus
(:mod:`~repro.microblaze.opb`), and the system wrapper that loads and runs
assembled programs (:mod:`~repro.microblaze.system`).  A run is observed
through its taken backward branches (:mod:`~repro.microblaze.trace`), which
is how the warp processor's profiler is driven.
"""

from .config import MINIMAL_CONFIG, PAPER_CONFIG, MicroBlazeConfig, PipelineTimings
from .cpu import (
    CPUError,
    ExecutionLimitExceeded,
    ExecutionStats,
    IllegalInstruction,
    MicroBlazeCPU,
)
from .engines import (
    DEFAULT_ENGINE,
    ExecutionEngine,
    UnknownEngineError,
    engine_names,
    register_engine,
    validate_engine_name,
)
from .memory import BlockRAM, LocalMemoryBus, MemoryError_
from .opb import OPB_BASE_ADDRESS, BusError, OnChipPeripheralBus, SimplePeripheral
from .system import ExecutionResult, MicroBlazeSystem, run_program, run_slice
from .trace import BranchObserver

__all__ = [
    "DEFAULT_ENGINE",
    "ExecutionEngine",
    "UnknownEngineError",
    "engine_names",
    "register_engine",
    "validate_engine_name",
    "BranchObserver",
    "MINIMAL_CONFIG",
    "PAPER_CONFIG",
    "MicroBlazeConfig",
    "PipelineTimings",
    "CPUError",
    "ExecutionLimitExceeded",
    "ExecutionStats",
    "IllegalInstruction",
    "MicroBlazeCPU",
    "BlockRAM",
    "LocalMemoryBus",
    "MemoryError_",
    "OPB_BASE_ADDRESS",
    "BusError",
    "OnChipPeripheralBus",
    "SimplePeripheral",
    "ExecutionResult",
    "MicroBlazeSystem",
    "run_program",
    "run_slice",
]
