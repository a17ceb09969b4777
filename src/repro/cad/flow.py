"""The pass-pipeline driver of the on-chip CAD flow.

A :class:`CadFlow` is an ordered sequence of :class:`FlowStage` passes —
decompile, synthesis/tech-map, placement, routing, implementation, binary
update — threaded through one :class:`FlowContext` that carries
the typed artifacts from stage to stage.  The driver owns everything the
stages have in common:

* **per-stage caching** — a stage that contributes a content key is served
  from the :class:`~repro.cad.artifacts.CadArtifactCache`, with capacity
  rejections memoized as negatives;
* **accounting** — every stage leaves a :class:`StageRecord` with its host
  wall time, its modelled on-chip cycles (the
  :class:`DpmCostModel` contribution that used to be summed centrally),
  and how it was satisfied (a ``SOURCE_*`` value: ``miss``/``hit``/
  ``negative-hit``/``disk-hit``/``uncached``).  Every cache
  count a job reports derives from these records (:func:`served_from_cache`);
* **failure mapping** — domain errors are wrapped in :class:`FlowError`
  (keeping the failing stage's name and the original cause) so the DPM can
  translate them into the exact legacy outcome shapes.

The flow is fixed: :data:`repro.cad.stages.PAPER_FLOW` runs the paper's
six stages in order, and every DPM runs it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .. import chaos, obs
from ..decompile.kernel import HardwareKernel
from ..decompile.symexec import SymbolicLoopBody
from ..fabric.architecture import WclaParameters
from ..fabric.implementation import HardwareImplementation
from ..fabric.place import PlacementResult
from ..fabric.route import RoutingResult
from ..synthesis.datapath import SynthesisResult
from .artifacts import (
    CACHE_SERVED_SOURCES,
    SOURCE_MISS,
    SOURCE_UNCACHED,
    CadArtifactCache,
    CapacityRejection,
)


# --------------------------------------------------------------------------- cost model
@dataclass
class DpmCostModel:
    """Analytical execution-time model of the on-chip tools themselves.

    The companion papers report that the lean tools run in about a second on
    a modest embedded processor; the per-phase constants below reproduce
    that order of magnitude as a function of problem size so the
    multi-processor round-robin study has something meaningful to add up.
    Each :class:`FlowStage` reads its own constant and reports its modelled
    cycles; :meth:`partitioning_cycles` remains as the closed-form sum over
    the stages.
    """

    clock_mhz: float = 85.0
    cycles_per_decompiled_instruction: int = 40_000
    cycles_per_synthesized_lut: int = 6_000
    cycles_per_placed_component: int = 25_000
    cycles_per_routed_segment: int = 3_000
    fixed_overhead_cycles: int = 2_000_000

    def partitioning_cycles(self, kernel: HardwareKernel,
                            synthesis: SynthesisResult,
                            placement: PlacementResult,
                            routing: RoutingResult) -> int:
        cycles = self.fixed_overhead_cycles
        cycles += kernel.region.num_instructions * self.cycles_per_decompiled_instruction
        cycles += synthesis.total_luts * self.cycles_per_synthesized_lut
        cycles += len(placement.components) * self.cycles_per_placed_component
        cycles += routing.total_segments_used * self.cycles_per_routed_segment
        return cycles

    def partitioning_seconds(self, kernel: HardwareKernel,
                             synthesis: SynthesisResult,
                             placement: PlacementResult,
                             routing: RoutingResult) -> float:
        return self.partitioning_cycles(kernel, synthesis, placement, routing) \
            / (self.clock_mhz * 1e6)


# --------------------------------------------------------------------------- errors
class FlowError(Exception):
    """A stage failed; carries the stage name and the domain-level cause."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"CAD flow stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


class KernelRejectedError(Exception):
    """The decompiled kernel is not partitionable (no induction variable,
    irregular memory access pattern, ...)."""


class KernelDoesNotFitError(Exception):
    """The placed kernel exceeds the configurable fabric's capacity."""


# --------------------------------------------------------------------------- records
@dataclass
class StageRecord:
    """Accounting left behind by one stage of one flow run."""

    stage: str
    source: str = SOURCE_UNCACHED
    wall_seconds: float = 0.0
    modelled_cycles: int = 0
    modelled_seconds: float = 0.0
    key: Optional[str] = None
    failed: bool = False
    #: Transient faults absorbed while computing this stage.
    retries: int = 0


def served_from_cache(records: Iterable[StageRecord]) -> bool:
    """Whether every keyed stage of a flow run was served from the cache
    (``False`` when no stage was keyed, e.g. without a cache)."""
    keyed = [record for record in records if record.key is not None]
    return bool(keyed) and all(record.source in CACHE_SERVED_SOURCES
                               for record in keyed)


# --------------------------------------------------------------------------- context
@dataclass
class FlowContext:
    """Mutable state threaded through one flow run.

    Stages read their inputs from — and install their outputs into — this
    context; the driver adds the cache bookkeeping (``digests`` chains the
    per-stage content addresses) and the :class:`StageRecord` trail.
    """

    wcla: WclaParameters
    wcla_base_address: int
    cost_model: DpmCostModel
    cache: Optional[CadArtifactCache] = None
    program: Optional[object] = None
    region: Optional[object] = None
    # ------------------------------------------------------- typed artifacts
    body: Optional[SymbolicLoopBody] = None
    kernel: Optional[HardwareKernel] = None
    synthesis: Optional[SynthesisResult] = None
    placement: Optional[PlacementResult] = None
    routing: Optional[RoutingResult] = None
    implementation: Optional[HardwareImplementation] = None
    patch: Optional[object] = None
    # ---------------------------------------------------------- bookkeeping
    digests: Dict[str, str] = field(default_factory=dict)
    records: List[StageRecord] = field(default_factory=list)

    # ------------------------------------------------------------ accounting
    def modelled_cycles(self) -> int:
        """Total modelled DPM cycles: fixed overhead + per-stage sums."""
        return self.cost_model.fixed_overhead_cycles \
            + sum(record.modelled_cycles for record in self.records)

    def modelled_seconds(self) -> float:
        return self.modelled_cycles() / (self.cost_model.clock_mhz * 1e6)


# --------------------------------------------------------------------------- stages
class FlowStage:
    """One pass of the CAD flow.

    Subclasses define the five aspects the driver composes:

    * ``name`` — the stage's name in records, spans and cache counters;
    * :meth:`content_key` — the stage's content-address contribution, or
      ``None`` for uncacheable stages (decompile, binary update).  Keys
      chain the upstream digest from ``context.digests``;
    * :meth:`compute` / :meth:`install` — produce the stage's value (may
      raise a domain error) and write it into the context.  They are split
      so a cached value installs without recomputing;
    * :meth:`validate` — post-install checks (may raise a domain error);
    * :meth:`modelled_cycles` — the stage's :class:`DpmCostModel`
      contribution.

    ``key_version`` participates in the content key: bump it when the
    stage's algorithm or key encoding changes.  ``negative_exceptions``
    lists domain errors worth memoizing as :class:`CapacityRejection`
    markers under the same content address.
    """

    name: str = "stage"
    key_version: int = 1
    negative_exceptions: Tuple[type, ...] = ()

    def cache_token(self) -> str:
        """Stage identity prefix of the content key.  The fixed
        ``default`` tag keeps keys byte-identical to the entries already
        in disk stores."""
        return f"{self.name}/default:v{self.key_version}"

    def content_key(self, context: FlowContext) -> Optional[str]:
        return None

    def compute(self, context: FlowContext):
        raise NotImplementedError

    def install(self, context: FlowContext, value) -> None:
        raise NotImplementedError

    def validate(self, context: FlowContext) -> None:
        return None

    def modelled_cycles(self, context: FlowContext) -> int:
        return 0

    def negative_marker(self, error: BaseException) -> CapacityRejection:
        return CapacityRejection(message=str(error))

    def revive_negative(self, marker: CapacityRejection) -> BaseException:
        raise NotImplementedError(
            f"stage {self.name!r} memoizes no negative results")


# --------------------------------------------------------------------------- driver
#: Transient-fault (``ChaosError``) retries per stage compute before the
#: fault escapes to the job level.
STAGE_TRANSIENT_RETRIES = 3


class CadFlow:
    """Runs an ordered sequence of stages over one :class:`FlowContext`."""

    def __init__(self, stages: Sequence[FlowStage]):
        self.stages = tuple(stages)

    # --------------------------------------------------------------------- run
    def run(self, context: FlowContext) -> FlowContext:
        """Execute every stage in order; raises :class:`FlowError` on the
        first failure (the context keeps the partial artifacts and the
        records of every stage attempted)."""
        for stage in self.stages:
            self._run_stage(stage, context)
        return context

    def _run_stage(self, stage: FlowStage, context: FlowContext) -> None:
        start = time.perf_counter()
        record = StageRecord(stage=stage.name)
        # The stage span nests under whatever the calling thread has open
        # (the worker's execute span), so a job's per-stage timeline joins
        # its trace without the flow knowing about jobs at all.
        with obs.span("cad-stage", stage=stage.name) as stage_span:
            self._run_stage_body(stage, context, record, start, stage_span)

    def _run_stage_body(self, stage: FlowStage, context: FlowContext,
                        record: StageRecord, start: float,
                        stage_span) -> None:
        try:
            cache = context.cache
            key = stage.content_key(context) if cache is not None else None
            record.key = key
            if key is not None:
                context.digests[stage.name] = key
                cached, record.source = cache.stage_lookup(stage.name, key)
                if isinstance(cached, CapacityRejection):
                    raise stage.revive_negative(cached)
                if record.source == SOURCE_MISS:
                    cached = self._compute(stage, context, key, record)
                    cache.stage_store(stage.name, key, cached)
                stage.install(context, cached)
            else:
                record.source = SOURCE_UNCACHED
                stage.install(context,
                              self._compute(stage, context, None, record))
            stage.validate(context)
        except FlowError:
            record.failed = True
            raise
        except chaos.ChaosError:
            # Deliberately NOT wrapped in FlowError: a transient injected
            # fault is an environment failure, not a domain failure of
            # this stage.  Wrapping it would let the DPM translate it
            # into a partitioning-failure outcome (software fallback —
            # silent divergence); unwrapped, it escapes to the job-level
            # transient retry in the service pool.
            record.failed = True
            raise
        except Exception as error:
            record.failed = True
            raise FlowError(stage.name, error) from error
        finally:
            record.wall_seconds = time.perf_counter() - start
            if not record.failed:
                record.modelled_cycles = stage.modelled_cycles(context)
                record.modelled_seconds = record.modelled_cycles \
                    / (context.cost_model.clock_mhz * 1e6)
            if obs.ACTIVE is not None:
                if stage_span is not None:
                    stage_span.set(source=record.source,
                                   retries=record.retries,
                                   failed=record.failed)
                if not record.failed:
                    obs.inc("warp_stage_lookups_total", stage=record.stage,
                            source=record.source)
            context.records.append(record)

    def _compute(self, stage: FlowStage, context: FlowContext,
                 key: Optional[str], record: StageRecord):
        attempts_left = STAGE_TRANSIENT_RETRIES
        while True:
            try:
                if chaos.ACTIVE_PLAN is not None:
                    chaos.fire(chaos.SITE_CAD_STAGE, label=stage.name)
                return stage.compute(context)
            except chaos.ChaosError:
                # Bounded in-place retry of transient faults: the stage
                # is pure (it reads the context, returns a value), so
                # rerunning it is safe and cheaper than failing the job.
                if attempts_left <= 0:
                    raise
                attempts_left -= 1
                record.retries += 1
                if obs.ACTIVE is not None:
                    obs.inc("warp_retries_total", site="cad-stage")
            except stage.negative_exceptions as error:
                if key is not None:
                    context.cache.stage_store(stage.name, key,
                                              stage.negative_marker(error))
                raise
