"""Reproduction of Figure 6 (speedups) and Figure 7 (normalized energy).

For every benchmark the harness:

1. compiles it for the paper's MicroBlaze configuration and runs it through
   the full warp-processing flow (software baseline, profiling, on-chip
   partitioning, patched co-execution with the WCLA),
2. estimates the four ARM hard cores' execution times from the same dynamic
   instruction mix (the SimpleScalar stand-in),
3. evaluates the Figure-5 energy equation for the plain MicroBlaze, the
   warp processor, and the ARMs.

The per-benchmark speedups relative to the plain MicroBlaze reproduce
Figure 6; the per-benchmark energies normalized to the plain MicroBlaze
reproduce Figure 7; the aggregate claims of Section 4 (average speedup,
average energy reduction, ARM10/ARM11 comparisons) are derived from the
same data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..apps import Benchmark, build_suite
from ..arm.models import ArmExecutionEstimate, estimate_all_arm_cores
from ..compiler import compile_source_cached
from ..microblaze.config import MicroBlazeConfig, PAPER_CONFIG
from ..power.constants import ARM_POWER
from ..power.energy import EnergyBreakdown, arm_energy, microblaze_energy, warp_energy
from ..warp.processor import WarpProcessor, WarpRunResult
from .reporting import arithmetic_mean, format_table

#: Platform labels in the order the paper's figure legends use them.
PLATFORM_ORDER = ("MicroBlaze", "ARM7", "ARM9", "ARM10", "ARM11", "MicroBlaze (Warp)")


def metric_rows(entries: Sequence[tuple],
                order: Sequence[str],
                average_label: str = "Average:") -> List[List[object]]:
    """Build figure-style table rows from per-item metric dictionaries.

    ``entries`` is a sequence of ``(name, {column: value})`` pairs and
    ``order`` the column sequence; the returned rows are one per entry
    plus a trailing arithmetic-mean row — the row shape of Figures 6
    and 7.  Shared by :class:`EvaluationSuite` and by the warp service's
    suite-level reports (:mod:`repro.service.jobs`).
    """
    rows: List[List[object]] = [[name] + [values[key] for key in order]
                                for name, values in entries]
    averages: List[object] = [average_label]
    for key in order:
        averages.append(arithmetic_mean([values[key] for _, values in entries]))
    rows.append(averages)
    return rows


@dataclass
class BenchmarkEvaluation:
    """All Figure 6 / Figure 7 data points for one benchmark."""

    benchmark: Benchmark
    warp: WarpRunResult
    arm_estimates: Dict[str, ArmExecutionEstimate]
    energies: Dict[str, EnergyBreakdown]

    # ------------------------------------------------------------------ times
    def execution_seconds(self) -> Dict[str, float]:
        seconds = {
            "MicroBlaze": self.warp.software_seconds,
            "MicroBlaze (Warp)": self.warp.warp_seconds,
        }
        for name, estimate in self.arm_estimates.items():
            seconds[name] = estimate.seconds
        return seconds

    def speedups(self) -> Dict[str, float]:
        """Speedup of every platform relative to the plain MicroBlaze."""
        baseline = self.warp.software_seconds
        return {name: baseline / seconds if seconds > 0 else 0.0
                for name, seconds in self.execution_seconds().items()}

    def normalized_energy(self) -> Dict[str, float]:
        """Energy of every platform normalized to the plain MicroBlaze."""
        baseline = self.energies["MicroBlaze"]
        return {name: energy.normalized_to(baseline)
                for name, energy in self.energies.items()}

    @property
    def checksums_match(self) -> bool:
        return self.warp.checksums_match


@dataclass
class EvaluationSuite:
    """The full six-benchmark evaluation of Section 4."""

    evaluations: List[BenchmarkEvaluation] = field(default_factory=list)

    # ---------------------------------------------------------------- figure 6
    def figure6_rows(self) -> List[List[object]]:
        return metric_rows([(item.benchmark.name, item.speedups())
                            for item in self.evaluations], PLATFORM_ORDER)

    def figure6_table(self) -> str:
        headers = ["Benchmark"] + [f"{name} ({_clock_label(name)})"
                                   for name in PLATFORM_ORDER]
        return format_table(headers, self.figure6_rows())

    # ---------------------------------------------------------------- figure 7
    def figure7_rows(self) -> List[List[object]]:
        return metric_rows([(item.benchmark.name, item.normalized_energy())
                            for item in self.evaluations], PLATFORM_ORDER)

    def figure7_table(self) -> str:
        headers = ["Benchmark"] + [f"{name} ({_clock_label(name)})"
                                   for name in PLATFORM_ORDER]
        return format_table(headers, self.figure7_rows(), float_format="{:.3f}")

    # ------------------------------------------------------------- CAD stages
    def cad_stage_order(self) -> List[str]:
        """CAD flow stage names in flow order (union across benchmarks)."""
        order: List[str] = []
        for item in self.evaluations:
            for record in item.warp.partitioning.stage_records:
                if record.stage not in order:
                    order.append(record.stage)
        return order

    def cad_stage_rows(self) -> List[List[object]]:
        """Per-benchmark modelled on-chip time (ms) of each CAD flow stage.

        The per-stage breakdown of the ~1 s on-chip tool time the paper
        reports: each cell is the stage's :class:`~repro.cad.DpmCostModel`
        contribution for that benchmark's kernel (host-side cache hits do
        not change it).  Row shape follows :func:`metric_rows`, like the
        Figure 6/7 tables.
        """
        order = self.cad_stage_order()
        entries = []
        for item in self.evaluations:
            per_stage = {stage: 0.0 for stage in order}
            for record in item.warp.partitioning.stage_records:
                per_stage[record.stage] += record.modelled_seconds * 1e3
            entries.append((item.benchmark.name, per_stage))
        return metric_rows(entries, order)

    def cad_stage_table(self) -> str:
        headers = ["Benchmark"] + [f"{name} (ms)"
                                   for name in self.cad_stage_order()]
        return format_table(headers, self.cad_stage_rows())

    # ----------------------------------------------------------- aggregate claims
    def _mean_over(self, metric, names: Optional[Sequence[str]] = None) -> float:
        selected = [item for item in self.evaluations
                    if names is None or item.benchmark.name in names]
        return arithmetic_mean([metric(item) for item in selected])

    def average_warp_speedup(self, exclude: Sequence[str] = ()) -> float:
        names = [item.benchmark.name for item in self.evaluations
                 if item.benchmark.name not in exclude]
        return self._mean_over(lambda item: item.speedups()["MicroBlaze (Warp)"], names)

    def average_warp_energy_reduction(self, exclude: Sequence[str] = ()) -> float:
        names = [item.benchmark.name for item in self.evaluations
                 if item.benchmark.name not in exclude]
        return 1.0 - self._mean_over(
            lambda item: item.normalized_energy()["MicroBlaze (Warp)"], names)

    def microblaze_vs_arm11_energy(self) -> float:
        """How much more energy the plain MicroBlaze uses than the ARM11."""
        ratio = self._mean_over(
            lambda item: 1.0 / max(item.normalized_energy()["ARM11"], 1e-12))
        return ratio - 1.0

    def arm11_speed_advantage_over_warp(self) -> float:
        """Average factor by which the ARM11 outruns the warp processor."""
        return self._mean_over(
            lambda item: item.execution_seconds()["MicroBlaze (Warp)"]
            / item.execution_seconds()["ARM11"])

    def arm11_energy_overhead_vs_warp(self) -> float:
        """How much more energy the ARM11 uses than the warp processor."""
        return self._mean_over(
            lambda item: item.normalized_energy()["ARM11"]
            / max(item.normalized_energy()["MicroBlaze (Warp)"], 1e-12)) - 1.0

    def warp_speed_advantage_over_arm10(self) -> float:
        return self._mean_over(
            lambda item: item.execution_seconds()["ARM10"]
            / item.execution_seconds()["MicroBlaze (Warp)"])

    def warp_energy_saving_vs_arm10(self) -> float:
        return 1.0 - self._mean_over(
            lambda item: item.normalized_energy()["MicroBlaze (Warp)"]
            / max(item.normalized_energy()["ARM10"], 1e-12))

    def claims_summary(self) -> str:
        lines = [
            f"average warp speedup              : {self.average_warp_speedup():.2f}x "
            f"(paper: 5.8x)",
            f"average warp speedup (excl. brev) : {self.average_warp_speedup(exclude=('brev',)):.2f}x "
            f"(paper: 3.6x)",
            f"average warp energy reduction     : {100 * self.average_warp_energy_reduction():.0f}% "
            f"(paper: 57%)",
            f"energy reduction (excl. brev)     : {100 * self.average_warp_energy_reduction(exclude=('brev',)):.0f}% "
            f"(paper: 49%)",
            f"MicroBlaze vs ARM11 energy        : +{100 * self.microblaze_vs_arm11_energy():.0f}% "
            f"(paper: +48%)",
            f"ARM11 speed advantage over warp   : {self.arm11_speed_advantage_over_warp():.2f}x "
            f"(paper: 2.6x)",
            f"ARM11 energy overhead vs warp     : +{100 * self.arm11_energy_overhead_vs_warp():.0f}% "
            f"(paper: +80%)",
            f"warp speed advantage over ARM10   : {self.warp_speed_advantage_over_arm10():.2f}x "
            f"(paper: 1.3x)",
            f"warp energy saving vs ARM10       : {100 * self.warp_energy_saving_vs_arm10():.0f}% "
            f"(paper: 26%)",
        ]
        return "\n".join(lines)

    @property
    def all_checksums_match(self) -> bool:
        return all(item.checksums_match for item in self.evaluations)


def _clock_label(name: str) -> str:
    if name.startswith("MicroBlaze"):
        return "85"
    return f"{ARM_POWER[name].clock_mhz:.0f}"


def evaluate_benchmark(benchmark: Benchmark,
                       config: MicroBlazeConfig = PAPER_CONFIG,
                       processor: Optional[WarpProcessor] = None,
                       engine: Optional[str] = None) -> BenchmarkEvaluation:
    """Run one benchmark through the full Figure 6 / Figure 7 pipeline."""
    if processor is not None and engine is not None:
        raise ValueError("pass either an explicit processor or an engine, "
                         "not both; the processor's own engine would win")
    # Compilation is memoized across the evaluation, the Section 2 study
    # and repeated suite runs; the warp flow patches a copy, never this
    # shared image.
    program = compile_source_cached(benchmark.source, name=benchmark.name,
                                    config=config).program
    warp_processor = processor if processor is not None \
        else WarpProcessor(config=config, engine=engine)
    warp = warp_processor.run(program)

    arm_estimates = estimate_all_arm_cores(warp.software_result)

    energies: Dict[str, EnergyBreakdown] = {
        "MicroBlaze": microblaze_energy(warp.software_seconds, config.clock_mhz),
    }
    if warp.partitioning.success:
        synthesis = warp.partitioning.synthesis
        energies["MicroBlaze (Warp)"] = warp_energy(
            mb_active_seconds=warp.microblaze_seconds,
            hw_seconds=warp.hw_seconds,
            clock_mhz=config.clock_mhz,
            wcla_luts=synthesis.total_luts,
            uses_mac=synthesis.mac_operations > 0,
        )
    else:
        energies["MicroBlaze (Warp)"] = microblaze_energy(
            warp.software_seconds, config.clock_mhz, label="MicroBlaze (Warp)")
    for name, estimate in arm_estimates.items():
        energies[name] = arm_energy(estimate.seconds, ARM_POWER[name])

    return BenchmarkEvaluation(benchmark=benchmark, warp=warp,
                               arm_estimates=arm_estimates, energies=energies)


def run_evaluation(names: Optional[Sequence[str]] = None, small: bool = False,
                   config: MicroBlazeConfig = PAPER_CONFIG,
                   engine: Optional[str] = None) -> EvaluationSuite:
    """Run the whole evaluation suite (Figures 6 and 7).

    ``engine`` selects the simulator execution engine by registry name
    (:func:`repro.microblaze.engine_names`; ``"jit"`` by default);
    the benchmark harness uses ``engine="interp"`` to measure the seed
    interpreter against the default engine.  Unknown names fail with the
    registry's :class:`~repro.microblaze.engines.UnknownEngineError`.
    """
    benchmarks = build_suite(small=small, names=list(names) if names else None)
    suite = EvaluationSuite()
    for benchmark in benchmarks:
        suite.evaluations.append(evaluate_benchmark(benchmark, config=config,
                                                    engine=engine))
    return suite
