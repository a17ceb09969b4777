"""Warp-as-a-service: batch orchestration for the warp pipeline.

The paper frames dynamic hw/sw partitioning as a *service* the platform
performs transparently on running binaries.  This package scales that
framing from one simulation to batches:

* :mod:`~repro.service.jobs` — declarative :class:`WarpJob` specs
  (benchmark or source × processor configuration × WCLA × engine),
  flat :class:`ServiceResult` outcomes, suite-level :class:`ServiceReport`
  tables reusing the Figure-6/7 row builders.
* :mod:`~repro.service.scheduler` — content deduplication plus
  priority/FIFO ordering.
* :mod:`~repro.service.pool` — a process worker pool with a serial
  in-process fallback, per-worker warm caches and worker-fault isolation;
  :class:`WarpService` ties scheduler, pool and the per-stage CAD
  artifact cache of :mod:`repro.cad` together.
* :mod:`~repro.service.cli` — the ``repro-warp`` command-line front end.

CPU checkpoint/restore — the primitive behind job preemption, migration
and scenario fan-out — lives at the simulator layer in
:mod:`repro.microblaze.checkpoint`.
"""

from ..cad import (
    CadArtifactCache,
    CapacityRejection,
    canonical_body_form,
)
from .jobs import (
    SERVICE_PLATFORM_ORDER,
    JobSpecError,
    ServiceReport,
    ServiceResult,
    WarpJob,
    suite_sweep_jobs,
)
from .pool import (
    STORE_ENV_VAR,
    WarpService,
    configure_process_store,
    execute_job,
    process_artifact_cache,
)
from .scheduler import JobScheduler, ScheduledJob

__all__ = [
    "CadArtifactCache",
    "CapacityRejection",
    "canonical_body_form",
    "SERVICE_PLATFORM_ORDER",
    "JobSpecError",
    "ServiceReport",
    "ServiceResult",
    "WarpJob",
    "suite_sweep_jobs",
    "WarpService",
    "execute_job",
    "process_artifact_cache",
    "configure_process_store",
    "STORE_ENV_VAR",
    "JobScheduler",
    "ScheduledJob",
]
