"""The staged on-chip CAD flow (decompile → synthesis → place → route →
implement → binary update).

The paper's core contribution is the lean CAD flow the dynamic
partitioning module runs on chip.  This package makes that flow an
explicit pipeline of six fixed stages instead of a hardcoded call
sequence:

* :mod:`~repro.cad.flow` — the :class:`FlowStage` contract (name,
  content-key contribution, compute/install, modelled on-chip cycles), the
  :class:`FlowContext` threading typed artifacts between stages, the
  :class:`CadFlow` driver (per-stage host wall time, modelled DPM cycles,
  caching, failure mapping), and the :class:`DpmCostModel` whose
  per-phase constants the stages consult.
* :mod:`~repro.cad.stages` — the six stages and :data:`PAPER_FLOW`, the
  one flow that runs them in the paper's order.
* :mod:`~repro.cad.keys` — deterministic canonical forms and the SHA-256
  content digests the stages build their cache keys from.
* :mod:`~repro.cad.artifacts` — the :class:`CadArtifactCache` of per-stage
  content-addressed entries (memoized capacity rejections included), the
  ``SOURCE_*`` vocabulary of how a stage was satisfied, and
  :data:`CACHE_SERVED_SOURCES`, the one rule for what counts as a hit.

Stage-key versioning: bump :data:`~repro.cad.keys.CANONICAL_FORM_VERSION`
when the DADG serialization changes shape (it invalidates every stage);
bump an individual stage's ``key_version`` when only that stage's
algorithm or parameter encoding changes (downstream stages are invalidated
automatically through digest chaining).
"""

from .keys import (
    CANONICAL_FORM_VERSION,
    canonical_body_form,
    canonical_wcla_form,
    content_digest,
)
from .artifacts import (
    CACHE_SERVED_SOURCES,
    SOURCE_DISK,
    SOURCE_HIT,
    SOURCE_MISS,
    SOURCE_NEGATIVE,
    SOURCE_UNCACHED,
    CadArtifactCache,
    CapacityRejection,
    is_negative_artifact,
)
from .flow import (
    CadFlow,
    DpmCostModel,
    FlowContext,
    FlowError,
    FlowStage,
    KernelDoesNotFitError,
    KernelRejectedError,
    StageRecord,
    served_from_cache,
)
from .stages import (
    DEFAULT_STAGE_NAMES,
    PAPER_FLOW,
    BinaryUpdateStage,
    DecompileStage,
    ImplementationStage,
    PlacementStage,
    RouteStage,
    SynthesisStage,
)

__all__ = [
    "CANONICAL_FORM_VERSION",
    "canonical_body_form",
    "canonical_wcla_form",
    "content_digest",
    "CACHE_SERVED_SOURCES",
    "CadArtifactCache",
    "CapacityRejection",
    "is_negative_artifact",
    "DEFAULT_STAGE_NAMES",
    "SOURCE_DISK",
    "SOURCE_HIT",
    "SOURCE_MISS",
    "SOURCE_NEGATIVE",
    "SOURCE_UNCACHED",
    "CadFlow",
    "DpmCostModel",
    "FlowContext",
    "FlowError",
    "FlowStage",
    "KernelDoesNotFitError",
    "KernelRejectedError",
    "StageRecord",
    "served_from_cache",
    "PAPER_FLOW",
    "BinaryUpdateStage",
    "DecompileStage",
    "ImplementationStage",
    "PlacementStage",
    "RouteStage",
    "SynthesisStage",
]
