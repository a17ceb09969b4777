"""The dynamic partitioning module (DPM).

The DPM is the embedded processor that runs the Riverside on-chip
partitioning tools (ROCPART): it reads the profiler's results, selects the
most critical region, decompiles it from the application binary, runs
synthesis / technology mapping / placement / routing for the WCLA, and
finally updates the application binary to invoke the new hardware
(Section 3 of the paper).  In the paper's system the DPM is itself another
MicroBlaze with its own memories; we model the tool *flow* exactly and the
DPM's own execution time analytically (so studies of how long on-chip CAD
takes, and whether one DPM can serve several processors round-robin, remain
possible).

The flow itself lives in :mod:`repro.cad`: an explicit pass pipeline
(decompile → synthesis → place → route → implement → binary update) with
per-stage content-addressed caching, per-stage host wall time and modelled
DPM cycles.  This module is the thin driver that runs
:data:`~repro.cad.PAPER_FLOW` once per critical region and translates
stage failures into :class:`PartitioningOutcome` records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..cad import (
    PAPER_FLOW,
    DpmCostModel,
    FlowContext,
    FlowError,
    KernelDoesNotFitError,
    KernelRejectedError,
    StageRecord,
    served_from_cache,
)
from ..decompile.kernel import HardwareKernel
from ..decompile.symexec import DecompilationError
from ..fabric.architecture import DEFAULT_WCLA, WclaParameters
from ..fabric.implementation import HardwareImplementation
from ..fabric.place import FabricCapacityError, PlacementResult
from ..fabric.route import RoutingResult
from ..isa.program import Program
from ..microblaze.opb import OPB_BASE_ADDRESS
from ..profiler.profiler import CriticalRegion
from ..synthesis.datapath import SynthesisResult
from .binary_patch import BinaryPatch, PatchError

__all__ = ["DpmCostModel", "DynamicPartitioningModule", "PartitioningOutcome"]


@dataclass
class PartitioningOutcome:
    """Everything the DPM produced for one critical region."""

    success: bool
    region: CriticalRegion
    reason: Optional[str] = None
    kernel: Optional[HardwareKernel] = None
    synthesis: Optional[SynthesisResult] = None
    placement: Optional[PlacementResult] = None
    routing: Optional[RoutingResult] = None
    implementation: Optional[HardwareImplementation] = None
    patch: Optional[BinaryPatch] = None
    dpm_seconds: float = 0.0
    #: Per-stage accounting of the flow run that produced this outcome:
    #: host wall time, modelled DPM cycles, and how each stage was
    #: satisfied (executed, cache hit by tier, memoized capacity
    #: rejection).
    stage_records: List[StageRecord] = field(default_factory=list)

    @property
    def cad_cache_hit(self) -> bool:
        """Whether every keyed CAD stage was served from the cache
        (host-side memoization; the *modelled* DPM CAD time
        ``dpm_seconds`` is unaffected, it is a property of the simulated
        system, not of how fast this process produced the artifacts)."""
        return served_from_cache(self.stage_records)

    def summary(self) -> str:
        if not self.success:
            return f"partitioning rejected: {self.reason}"
        lines = [
            self.kernel.summary(),
            self.synthesis.summary(),
            self.implementation.summary(),
            f"on-chip tool time: {self.dpm_seconds * 1e3:.1f} ms (modelled)",
        ]
        return "\n".join(lines)


class DynamicPartitioningModule:
    """Runs the ROCPART flow for one program and one critical region.

    ``artifact_cache`` (a :class:`~repro.cad.CadArtifactCache`) memoizes
    the CAD stage outputs under content addresses of the kernel's dataflow
    graph and the WCLA parameters: repeated partitioning of the same loop
    body — across service jobs, across the cores of a multiprocessor
    system, across sweep repetitions — skips the CAD work stage by stage.
    Without a cache the flow always runs, exactly as before.  Every
    outcome's ``stage_records`` hold one :class:`~repro.cad.StageRecord`
    per stage attempted.
    """

    def __init__(self, wcla: WclaParameters = DEFAULT_WCLA,
                 wcla_base_address: int = OPB_BASE_ADDRESS,
                 cost_model: Optional[DpmCostModel] = None,
                 artifact_cache=None):
        self.wcla = wcla
        self.wcla_base_address = wcla_base_address
        self.cost_model = cost_model if cost_model is not None else DpmCostModel()
        self.artifact_cache = artifact_cache

    def partition(self, program: Program,
                  region: Optional[CriticalRegion]) -> PartitioningOutcome:
        """Run the full flow and patch ``program`` in place on success.

        On any failure the program is left untouched and the outcome records
        the reason, mirroring a warp processor that silently keeps executing
        the software-only binary.
        """
        if region is None:
            return PartitioningOutcome(success=False, region=None,
                                       reason="profiler found no critical region")
        context = FlowContext(
            wcla=self.wcla,
            wcla_base_address=self.wcla_base_address,
            cost_model=self.cost_model,
            cache=self.artifact_cache,
            program=program,
            region=region,
        )
        try:
            PAPER_FLOW.run(context)
        except FlowError as error:
            return self._failure_outcome(context, error)
        return PartitioningOutcome(
            success=True,
            region=region,
            kernel=context.kernel,
            synthesis=context.synthesis,
            placement=context.placement,
            routing=context.routing,
            implementation=context.implementation,
            patch=context.patch,
            dpm_seconds=context.modelled_seconds(),
            stage_records=list(context.records),
        )

    # ------------------------------------------------------------- failures
    def _failure_outcome(self, context: FlowContext,
                         error: FlowError) -> PartitioningOutcome:
        """Translate a stage failure into the outcome shape the rest of the
        system expects (the same fields the monolithic flow reported)."""
        cause = error.cause
        region = context.region
        records = list(context.records)
        if isinstance(cause, DecompilationError):
            return PartitioningOutcome(
                success=False, region=region,
                reason=f"decompilation failed: {cause}",
                stage_records=records)
        if isinstance(cause, KernelRejectedError):
            return PartitioningOutcome(
                success=False, region=region,
                reason=context.kernel.rejection_reason,
                kernel=context.kernel, stage_records=records)
        if isinstance(cause, FabricCapacityError):
            return PartitioningOutcome(
                success=False, region=region, reason=str(cause),
                kernel=context.kernel, synthesis=context.synthesis,
                stage_records=records)
        if isinstance(cause, KernelDoesNotFitError):
            return PartitioningOutcome(
                success=False, region=region,
                reason="kernel does not fit the fabric",
                kernel=context.kernel, synthesis=context.synthesis,
                placement=context.placement, routing=context.routing,
                stage_records=records)
        if isinstance(cause, PatchError):
            return PartitioningOutcome(
                success=False, region=region,
                reason=f"binary update failed: {cause}",
                kernel=context.kernel, synthesis=context.synthesis,
                placement=context.placement, routing=context.routing,
                implementation=context.implementation,
                stage_records=records)
        return PartitioningOutcome(
            success=False, region=region,
            reason=f"CAD stage {error.stage!r} failed: {cause}",
            kernel=context.kernel, synthesis=context.synthesis,
            placement=context.placement, routing=context.routing,
            implementation=context.implementation,
            stage_records=records)
