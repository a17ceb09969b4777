"""The MicroBlaze-based warp processor (Figure 2 of the paper).

A warp processor is a normal MicroBlaze system plus the on-chip profiler,
the dynamic partitioning module and the warp configurable logic
architecture.  Execution proceeds exactly as the paper describes:

1. the application runs on the MicroBlaze alone while the profiler watches
   backward branches;
2. the DPM picks the single most critical region, decompiles it from the
   binary, synthesises/places/routes it onto the WCLA, and patches the
   binary;
3. the application keeps running — now the patched binary ships the kernel
   to hardware each time it reaches the loop.

:class:`WarpProcessor` performs those phases and reports both functional
results (checksums must match the software-only run) and the performance
breakdown (MicroBlaze cycles, WCLA cycles at the WCLA's own clock,
per-invocation communication overhead), from which the experiment harness
derives Figure 6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..fabric.architecture import DEFAULT_WCLA, WclaParameters
from ..fabric.hw_exec import WclaPeripheral
from ..isa.program import Program
from ..microblaze.config import MicroBlazeConfig, PAPER_CONFIG
from ..microblaze.opb import OPB_BASE_ADDRESS
from ..microblaze.system import ExecutionResult, MicroBlazeSystem
from ..partition.dpm import DynamicPartitioningModule, PartitioningOutcome
from ..profiler.profiler import OnChipProfiler


@dataclass
class WarpRunResult:
    """Outcome of running one program on a warp processor."""

    program_name: str
    config: MicroBlazeConfig
    software_result: ExecutionResult
    partitioning: PartitioningOutcome
    warp_mb_result: Optional[ExecutionResult] = None
    hw_cycles: int = 0
    hw_clock_mhz: float = 0.0
    hw_invocations: int = 0
    hw_iterations: int = 0

    # ------------------------------------------------------------------- times
    @property
    def software_seconds(self) -> float:
        return self.software_result.time_seconds

    @property
    def hw_seconds(self) -> float:
        if self.hw_clock_mhz <= 0:
            return 0.0
        return self.hw_cycles / (self.hw_clock_mhz * 1e6)

    @property
    def microblaze_seconds(self) -> float:
        """Time the MicroBlaze itself is busy in the warp-processed run."""
        if self.warp_mb_result is None:
            return self.software_seconds
        return self.warp_mb_result.time_seconds

    @property
    def warp_seconds(self) -> float:
        """Total warp-processed execution time (MicroBlaze + WCLA)."""
        if not self.partitioning.success or self.warp_mb_result is None:
            return self.software_seconds
        return self.microblaze_seconds + self.hw_seconds

    @property
    def speedup(self) -> float:
        warp = self.warp_seconds
        return self.software_seconds / warp if warp > 0 else 1.0

    @property
    def kernel_time_fraction(self) -> float:
        """Fraction of the software run eliminated by hardware execution."""
        if not self.partitioning.success or self.warp_mb_result is None:
            return 0.0
        removed = self.software_result.cycles - self.warp_mb_result.cycles
        return max(0.0, removed / self.software_result.cycles)

    @property
    def checksums_match(self) -> bool:
        if self.warp_mb_result is None:
            return True
        return self.software_result.return_value == self.warp_mb_result.return_value

    def summary(self) -> str:
        lines = [
            f"{self.program_name}: software {self.software_seconds * 1e3:.3f} ms, "
            f"warp {self.warp_seconds * 1e3:.3f} ms, speedup {self.speedup:.2f}x",
        ]
        if self.partitioning.success:
            lines.append(
                f"  kernel on WCLA @ {self.hw_clock_mhz:.0f} MHz: "
                f"{self.hw_invocations} invocations, {self.hw_iterations} iterations, "
                f"{self.hw_cycles} HW cycles"
            )
            lines.append(f"  checksums match: {self.checksums_match}")
        else:
            lines.append(f"  ran in software only ({self.partitioning.reason})")
        return "\n".join(lines)


class WarpProcessor:
    """Single-processor MicroBlaze-based warp processing system."""

    def __init__(
        self,
        config: MicroBlazeConfig = PAPER_CONFIG,
        wcla: WclaParameters = DEFAULT_WCLA,
        wcla_base_address: int = OPB_BASE_ADDRESS,
        engine: Optional[str] = None,
        artifact_cache=None,
        dpm: Optional[DynamicPartitioningModule] = None,
    ):
        self.config = config
        self.engine = engine
        if dpm is not None:
            if wcla is not DEFAULT_WCLA or wcla_base_address != OPB_BASE_ADDRESS \
                    or artifact_cache is not None:
                raise ValueError(
                    "pass either a prebuilt dpm or the wcla/"
                    "wcla_base_address/artifact_cache it would be built "
                    "from, not both")
            # A shared DPM (e.g. the one a MultiProcessorWarpSystem serves
            # all its cores with): the processor adopts its WCLA and cache
            # wholesale.
            self.dpm = dpm
            self.wcla = dpm.wcla
            self.wcla_base_address = dpm.wcla_base_address
        else:
            self.wcla = wcla
            self.wcla_base_address = wcla_base_address
            # The optional content-addressed CAD cache (see repro.cad) lets
            # repeated partitionings of the same kernel skip
            # synthesis/place/route stage by stage; the warp service's
            # workers pass their per-process instance here.
            self.dpm = DynamicPartitioningModule(wcla=wcla,
                                                 wcla_base_address=wcla_base_address,
                                                 artifact_cache=artifact_cache)

    # ----------------------------------------------------------------- phases
    def profile(self, program: Program,
                max_instructions: int = 50_000_000) -> tuple[ExecutionResult, OnChipProfiler]:
        """Phase 1: run the program on the MicroBlaze alone while profiling.

        The profiler hears only taken backward branches, straight from the
        engine's branch code, so this run stays on the selected engine.
        """
        profiler = OnChipProfiler()
        system = MicroBlazeSystem(config=self.config, engine=self.engine)
        result = system.run(program, listeners=[profiler],
                            max_instructions=max_instructions)
        return result, profiler

    def run(self, program: Program,
            max_instructions: int = 50_000_000) -> WarpRunResult:
        """Run the full warp-processing flow on ``program``."""
        software_result, profiler = self.profile(program, max_instructions)
        region = profiler.most_critical_region()

        patched = program.copy()
        outcome = self.dpm.partition(patched, region)
        result = WarpRunResult(
            program_name=program.name,
            config=self.config,
            software_result=software_result,
            partitioning=outcome,
        )
        if not outcome.success:
            return result

        system = MicroBlazeSystem(config=self.config, engine=self.engine)
        system.load(patched)
        peripheral = WclaPeripheral(self.wcla_base_address, outcome.implementation,
                                    system.data_bram)
        system.attach_peripheral(peripheral)
        warp_mb_result = system.run(max_instructions=max_instructions)

        result.warp_mb_result = warp_mb_result
        result.hw_cycles = peripheral.total_hw_cycles
        result.hw_clock_mhz = outcome.implementation.clock_mhz
        result.hw_invocations = peripheral.invocations
        result.hw_iterations = peripheral.total_iterations
        return result
