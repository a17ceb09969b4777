"""Multi-processor warp processing (Figure 4 of the paper).

The paper argues that a multi-MicroBlaze warp system should not replicate
the expensive parts: each core gets its own lightweight profiler, but a
*single* dynamic partitioning module serves all cores "in a round robin or
similar fashion", and the WCLA is extended with per-processor DADGs,
registers and MACs while the configurable logic itself is shared.

:class:`MultiProcessorWarpSystem` models exactly that arrangement on top of
the single-core flow: each core runs its own application through the full
warp pipeline; the shared DPM partitions the cores one after another (so a
core keeps running in software until the DPM gets to it); and the shared
fabric's capacity is checked against the sum of the per-kernel CLB usage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..fabric.architecture import DEFAULT_WCLA, WclaParameters
from ..isa.program import Program
from ..microblaze.config import MicroBlazeConfig, PAPER_CONFIG
from ..partition.dpm import DynamicPartitioningModule
from .processor import WarpProcessor, WarpRunResult


@dataclass
class CorePartitioningSchedule:
    """When the shared DPM gets around to each core (round-robin order)."""

    core_index: int
    program_name: str
    dpm_start_seconds: float
    dpm_finish_seconds: float

    @property
    def dpm_service_seconds(self) -> float:
        return self.dpm_finish_seconds - self.dpm_start_seconds


@dataclass
class MultiProcessorResult:
    """Results of a multi-core warp run."""

    per_core: List[WarpRunResult]
    schedule: List[CorePartitioningSchedule]
    total_clbs_used: int
    fabric_clbs_available: int
    num_dpm_modules: int = 1

    @property
    def num_cores(self) -> int:
        return len(self.per_core)

    @property
    def fabric_fits_all_kernels(self) -> bool:
        return self.total_clbs_used <= self.fabric_clbs_available

    @property
    def average_speedup(self) -> float:
        if not self.per_core:
            return 1.0
        return sum(result.speedup for result in self.per_core) / len(self.per_core)

    @property
    def geometric_mean_speedup(self) -> float:
        if not self.per_core:
            return 1.0
        product = 1.0
        for result in self.per_core:
            product *= max(result.speedup, 1e-12)
        return product ** (1.0 / len(self.per_core))

    @property
    def total_dpm_service_seconds(self) -> float:
        return sum(item.dpm_service_seconds for item in self.schedule)

    @property
    def last_core_served_seconds(self) -> float:
        """How long the last core waits before its kernel moves to hardware."""
        if not self.schedule:
            return 0.0
        return max(item.dpm_finish_seconds for item in self.schedule)

    def software_phase_seconds(self, core_index: int) -> float:
        """How long core ``core_index`` keeps software-only timing.

        A core executes its original binary until the shared DPM has
        finished partitioning *its* kernel (``dpm_finish_seconds`` of its
        schedule entry); only then does the patched binary start shipping
        the kernel to hardware.  A core whose region was never partitioned
        runs in software for its whole execution.
        """
        for item in self.schedule:
            if item.core_index == core_index:
                return item.dpm_finish_seconds
        return self.per_core[core_index].software_seconds

    def summary(self) -> str:
        lines = [
            f"{self.num_cores}-core warp system "
            f"({self.num_dpm_modules} DPM, shared WCLA fabric)",
            f"  average speedup   : {self.average_speedup:.2f}x",
            f"  fabric usage      : {self.total_clbs_used}/{self.fabric_clbs_available} CLBs "
            f"({'fits' if self.fabric_fits_all_kernels else 'OVERSUBSCRIBED'})",
            f"  DPM busy for      : {self.total_dpm_service_seconds * 1e3:.1f} ms "
            f"(last core served after {self.last_core_served_seconds * 1e3:.1f} ms)",
        ]
        return "\n".join(lines)


class MultiProcessorWarpSystem:
    """Several MicroBlaze warp cores sharing one DPM and one fabric."""

    def __init__(self, num_cores: int,
                 config: MicroBlazeConfig = PAPER_CONFIG,
                 wcla: WclaParameters = DEFAULT_WCLA,
                 num_dpm_modules: int = 1,
                 engine: Optional[str] = None,
                 artifact_cache=None):
        if num_cores <= 0:
            raise ValueError("a warp system needs at least one core")
        if num_dpm_modules <= 0:
            raise ValueError("at least one DPM (or a software DPM task) is required")
        self.num_cores = num_cores
        self.config = config
        self.wcla = wcla
        self.num_dpm_modules = num_dpm_modules
        self.engine = engine
        #: Shared content-addressed CAD cache: the paper's single DPM
        #: serves every core, so cores running the same application reuse
        #: one set of CAD artifacts instead of re-synthesizing per core.
        self.artifact_cache = artifact_cache
        #: One shared DPM — and therefore one shared CAD cache — serving
        #: every core, exactly as the paper's single partitioning module
        #: does.
        self.dpm = DynamicPartitioningModule(wcla=wcla,
                                             artifact_cache=artifact_cache)

    def run(self, programs: Sequence[Program]) -> MultiProcessorResult:
        """Run one program per core through the warp flow.

        Programs are assigned to cores in order; if fewer programs than
        cores are supplied the extra cores stay idle.
        """
        if len(programs) > self.num_cores:
            raise ValueError("more programs than cores")
        per_core: List[WarpRunResult] = []
        schedule: List[CorePartitioningSchedule] = []
        total_clbs = 0
        dpm_free_at = [0.0] * self.num_dpm_modules

        for index, program in enumerate(programs):
            processor = WarpProcessor(config=self.config, engine=self.engine,
                                      dpm=self.dpm)
            result = processor.run(program)
            per_core.append(result)
            if result.partitioning.success:
                total_clbs += result.partitioning.placement.area.clbs_used
                # Round-robin service by the shared DPM(s): the next free DPM
                # takes this core's kernel.
                dpm_index = min(range(self.num_dpm_modules), key=lambda i: dpm_free_at[i])
                start = dpm_free_at[dpm_index]
                finish = start + result.partitioning.dpm_seconds
                dpm_free_at[dpm_index] = finish
                schedule.append(CorePartitioningSchedule(
                    core_index=index,
                    program_name=program.name,
                    dpm_start_seconds=start,
                    dpm_finish_seconds=finish,
                ))

        fabric_clbs = (self.wcla.fabric.rows - 1) * self.wcla.fabric.columns
        return MultiProcessorResult(
            per_core=per_core,
            schedule=schedule,
            total_clbs_used=total_clbs,
            fabric_clbs_available=fabric_clbs,
            num_dpm_modules=self.num_dpm_modules,
        )
