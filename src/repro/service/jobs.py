"""Declarative warp jobs and service-level results.

A :class:`WarpJob` describes one unit of warp-as-a-service work: *what* to
run (a built-in suite benchmark by name, or arbitrary kernel-language
source), *on what* (a :class:`~repro.microblaze.config.MicroBlazeConfig`
and :class:`~repro.fabric.architecture.WclaParameters`), and *how*
(execution engine, instruction budget, priority).  Jobs are frozen,
hashable and picklable, so the scheduler can deduplicate them by content
and the worker pool can ship them to other processes unchanged.

A :class:`ServiceResult` is the flat, picklable outcome of one job —
speedup, energy, wall time, CAD-cache accounting — and a
:class:`ServiceReport` aggregates results into the suite-level tables,
reusing the row builders of :mod:`repro.eval.figures`.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from dataclasses import fields as dataclasses_fields
from typing import Dict, List, Optional, Sequence, Tuple

from ..cad import (
    CACHE_SERVED_SOURCES,
    SOURCE_DISK,
    SOURCE_MISS,
    validate_job_stage_names,
)
from ..eval.figures import metric_rows
from ..eval.reporting import format_table
from ..fabric.architecture import DEFAULT_WCLA, WclaParameters
from ..microblaze.config import MicroBlazeConfig, PAPER_CONFIG
from ..microblaze.engines import (
    DEFAULT_ENGINE,
    UnknownEngineError,
    validate_engine_name,
)

#: Column order of the service's suite-level tables (the service compares
#: software-only MicroBlaze against the warp-processed MicroBlaze; the ARM
#: comparison points of Figure 6/7 belong to the evaluation harness).
SERVICE_PLATFORM_ORDER = ("MicroBlaze", "MicroBlaze (Warp)")

#: Column order of the per-stage CAD flow table.
STAGE_METRIC_ORDER = ("wall ms", "hits", "misses", "hit rate")

#: The single mapping from report metric names (``"<block>.<key>"``) to the
#: :class:`ServiceResult` field carrying the per-job count.  Report
#: aggregation, the ``cache``/``resilience`` blocks of
#: :meth:`ServiceReport.to_plain` and :meth:`ServiceReport.summary` all
#: derive from this dict — adding a counter here is the *only* edit needed
#: for it to appear everywhere (and the live ``metrics`` snapshot must
#: carry it too; see ROADMAP invariants).
RESULT_METRIC_FIELDS: Dict[str, str] = {
    "cache.hits": "cache_hits",
    "cache.misses": "cache_misses",
    "cache.negative_hits": "cache_negative_hits",
    "cache.disk_hits": "cache_disk_hits",
    "resilience.retries": "retries",
    "resilience.timeouts": "timeouts",
    "fuzz.programs": "fuzz_programs",
    "fuzz.instructions": "fuzz_instructions",
    "fuzz.divergences": "fuzz_divergences",
    "fuzz.known_divergences": "fuzz_known_divergences",
    "fuzz.bisect_steps": "fuzz_bisect_steps",
}


class JobSpecError(ValueError):
    """Raised for malformed job specifications (CLI job files included)."""


@dataclass(frozen=True)
class WarpJob:
    """One declarative warp-service job.

    Exactly one of ``benchmark`` (a suite benchmark name, built with
    ``small``-sized parameters when requested), ``source`` (raw
    kernel-language text) or ``fuzz_profile`` (a differential fuzzing
    campaign over generated programs — see :mod:`repro.fuzz`) must be
    given.  ``name`` and ``priority`` are scheduling metadata and do not
    participate in content deduplication.
    ``stages`` optionally swaps registered CAD flow passes for this job
    (e.g. ``("decompile", "synthesis", "place", "route-greedy",
    "implement", "binary-update")``); it changes the computed result, so
    it is part of the dedup key.
    """

    name: str
    benchmark: Optional[str] = None
    source: Optional[str] = None
    small: bool = False
    config: MicroBlazeConfig = PAPER_CONFIG
    config_label: str = "paper"
    wcla: WclaParameters = DEFAULT_WCLA
    engine: Optional[str] = None
    max_instructions: int = 50_000_000
    priority: int = 0
    stages: Optional[Tuple[str, ...]] = None
    #: Wall-clock budget for this job's execution (``None`` = unbounded).
    #: Enforced by the pool watchdog: a pooled job still running past its
    #: budget has its shard killed and is reported as a timeout, while
    #: innocent jobs queued behind it are retried in a fresh pool.  Like
    #: ``name``/``priority`` this is scheduling metadata, not content —
    #: it does not participate in :meth:`dedup_key`.
    timeout_s: Optional[float] = None
    #: Telemetry identity: assigned by the service when a telemetry sink
    #: is active (see :mod:`repro.obs`), carried through the wire codec
    #: and into the worker process so every span of this job's execution
    #: joins one trace.  Observability metadata, not content — it does not
    #: participate in :meth:`dedup_key`.
    trace_id: Optional[str] = None
    #: Differential fuzzing campaign (third workload kind): generator
    #: profile name, start seed, number of consecutive seeds, the engines
    #: cross-checked against the reference (``None`` = every registered
    #: engine).  ``max_instructions`` bounds each generated run.
    fuzz_profile: Optional[str] = None
    fuzz_seed: int = 0
    fuzz_count: int = 25
    fuzz_engines: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        kinds = sum(1 for workload in (self.benchmark, self.source,
                                       self.fuzz_profile)
                    if workload is not None)
        if kinds != 1:
            raise JobSpecError(
                f"job {self.name!r}: specify exactly one of 'benchmark', "
                f"'source' or 'fuzz_profile'"
            )
        if self.fuzz_profile is not None:
            self._validate_fuzz()
        if self.timeout_s is not None:
            if not isinstance(self.timeout_s, (int, float)) \
                    or isinstance(self.timeout_s, bool) \
                    or self.timeout_s <= 0:
                raise JobSpecError(
                    f"job {self.name!r}: 'timeout_s' must be a positive "
                    f"number of seconds, not {self.timeout_s!r}"
                )
        if self.trace_id is not None and not isinstance(self.trace_id, str):
            raise JobSpecError(
                f"job {self.name!r}: 'trace_id' must be a string, not "
                f"{self.trace_id!r}"
            )
        if self.engine is not None:
            # Validate against the engine registry at submission time, so
            # a typo fails with one clear error naming the registered
            # engines instead of a ValueError deep inside a pool worker.
            try:
                validate_engine_name(self.engine)
            except UnknownEngineError as error:
                raise JobSpecError(f"job {self.name!r}: {error}") from error
        if self.stages is not None:
            if isinstance(self.stages, str):
                raise JobSpecError(
                    f"job {self.name!r}: 'stages' must be a sequence of "
                    f"stage names, not a single string"
                )
            if not isinstance(self.stages, tuple):
                try:
                    object.__setattr__(self, "stages", tuple(self.stages))
                except TypeError as error:
                    raise JobSpecError(
                        f"job {self.name!r}: 'stages' must be a sequence "
                        f"of stage names"
                    ) from error
            if not self.stages or not all(isinstance(stage, str)
                                          for stage in self.stages):
                raise JobSpecError(
                    f"job {self.name!r}: 'stages' must be a non-empty "
                    f"sequence of stage names"
                )
            try:
                validate_job_stage_names(self.stages)
            except ValueError as error:
                raise JobSpecError(f"job {self.name!r}: {error}") from error

    def _validate_fuzz(self) -> None:
        from ..fuzz.generator import profile_names
        if self.fuzz_profile not in profile_names():
            raise JobSpecError(
                f"job {self.name!r}: unknown fuzz profile "
                f"{self.fuzz_profile!r} (profiles: "
                f"{', '.join(profile_names())})"
            )
        if not isinstance(self.fuzz_count, int) \
                or isinstance(self.fuzz_count, bool) or self.fuzz_count <= 0:
            raise JobSpecError(
                f"job {self.name!r}: 'fuzz_count' must be a positive "
                f"integer, not {self.fuzz_count!r}"
            )
        if not isinstance(self.fuzz_seed, int) \
                or isinstance(self.fuzz_seed, bool) or self.fuzz_seed < 0:
            raise JobSpecError(
                f"job {self.name!r}: 'fuzz_seed' must be a non-negative "
                f"integer, not {self.fuzz_seed!r}"
            )
        if self.fuzz_engines is not None:
            if isinstance(self.fuzz_engines, str):
                raise JobSpecError(
                    f"job {self.name!r}: 'fuzz_engines' must be a sequence "
                    f"of engine names, not a single string"
                )
            if not isinstance(self.fuzz_engines, tuple):
                object.__setattr__(self, "fuzz_engines",
                                   tuple(self.fuzz_engines))
            for engine in self.fuzz_engines:
                try:
                    validate_engine_name(engine)
                except UnknownEngineError as error:
                    raise JobSpecError(
                        f"job {self.name!r}: {error}") from error

    def dedup_key(self) -> Tuple:
        """Content identity: two jobs with equal keys compute the same
        result, whatever they are named or prioritized."""
        return (self.benchmark, self.source, self.small, self.config,
                self.wcla, self.engine, self.max_instructions, self.stages,
                self.fuzz_profile, self.fuzz_seed, self.fuzz_count,
                self.fuzz_engines)

    def describe(self) -> str:
        if self.fuzz_profile is not None:
            workload = (f"fuzz:{self.fuzz_profile}"
                        f"[{self.fuzz_seed}.."
                        f"{self.fuzz_seed + self.fuzz_count})")
        else:
            workload = self.benchmark if self.benchmark \
                else "<inline source>"
        engine = self.engine if self.engine else "default"
        return (f"{self.name}: {workload}"
                f"{' (small)' if self.small else ''} on "
                f"{self.config_label}/{engine}")


@dataclass
class ServiceResult:
    """Flat, picklable outcome of one executed job."""

    job_name: str
    workload: str
    config_label: str
    engine: str
    ok: bool = True
    error: Optional[str] = None
    #: Warp-pipeline outcome.
    partitioned: bool = False
    partition_reason: Optional[str] = None
    checksum_ok: bool = True
    speedup: float = 1.0
    software_ms: float = 0.0
    warp_ms: float = 0.0
    dpm_ms: float = 0.0
    #: Figure-5 energies (millijoules) and the warp energy normalized to
    #: the software-only MicroBlaze run.
    mb_energy_mj: float = 0.0
    warp_energy_mj: float = 0.0
    normalized_warp_energy: float = 1.0
    #: CAD artifact cache accounting for this job, derived from its own
    #: stage records: ``cad_cache_hit`` when every keyed stage was
    #: cache-served, and one hit or one miss per partitioning.
    cad_cache_hit: bool = False
    cache_hits: int = 0
    cache_misses: int = 0
    #: Stage lookups served by the persistent disk store tier (counted
    #: separately from in-memory stage hits).
    cache_disk_hits: int = 0
    #: Per-stage CAD flow accounting: host wall milliseconds per stage and
    #: how each stage was satisfied ("miss"/"hit"/"negative-hit"/
    #: "disk-hit"/"uncached"); memoized capacity rejections
    #: served to this job.
    stage_wall_ms: Dict[str, float] = field(default_factory=dict)
    stage_cache: Dict[str, str] = field(default_factory=dict)
    cache_negative_hits: int = 0
    #: Host-side execution accounting.
    wall_seconds: float = 0.0
    worker_pid: int = 0
    #: Set on results fanned out from a deduplicated job: the name of the
    #: job whose execution produced these numbers.
    deduped_from: Optional[str] = None
    #: Resilience accounting: transient-fault / crash retries
    #: absorbed while producing this result, and watchdog timeouts
    #: (``timeouts > 0`` with ``ok=True`` means this innocent job was
    #: re-run after a neighbour hung its shard).
    retries: int = 0
    timeouts: int = 0
    #: The trace id of the execution that produced this result (``None``
    #: when no telemetry sink was active).  Random per run — excluded
    #: from :attr:`CANONICAL_FIELDS` so differential comparisons hold.
    trace_id: Optional[str] = None
    #: Differential fuzzing accounting (fuzz jobs only): campaign size,
    #: instructions executed across the fleet, divergence tallies split
    #: into documented-known and unexplained, bisection probes spent and
    #: the replayable repro bundles for every unexplained divergence.
    fuzz_programs: int = 0
    fuzz_instructions: int = 0
    fuzz_divergences: int = 0
    fuzz_known_divergences: int = 0
    fuzz_bisect_steps: int = 0
    fuzz_bundles: List[Dict] = field(default_factory=list)
    #: Transport only: a pool worker's telemetry payload
    #: (:func:`repro.obs.flush_worker_telemetry`), taken off by the
    #: primary as the result arrives.  Never serialized.
    telemetry: Optional[Dict] = field(default=None, repr=False,
                                      compare=False)

    # ----------------------------------------------------------------- metrics
    def metrics_snapshot(self) -> Dict[str, int]:
        """This result's counters keyed by report metric name — the one
        projection everything downstream aggregates (see
        :data:`RESULT_METRIC_FIELDS`)."""
        return {metric: getattr(self, field_name)
                for metric, field_name in RESULT_METRIC_FIELDS.items()}

    def speedups(self) -> Dict[str, float]:
        return {"MicroBlaze": 1.0, "MicroBlaze (Warp)": self.speedup}

    def normalized_energies(self) -> Dict[str, float]:
        return {"MicroBlaze": 1.0,
                "MicroBlaze (Warp)": self.normalized_warp_energy}

    def to_plain(self) -> Dict:
        plain = asdict(self)
        del plain["telemetry"]
        return plain

    #: The deterministic projection of a result: the fields that must be
    #: bit-identical between a fault-free run and a run under a recovered
    #: fault plan.  Cache counters, wall times, pids and the resilience
    #: counters are *execution* accounting — they legitimately differ
    #: when a fault forces a retry or a recompute.  (The same field list
    #: the CI gateway smoke test compares.)
    CANONICAL_FIELDS = (
        "job_name", "workload", "config_label", "engine", "ok", "error",
        "partitioned", "partition_reason", "checksum_ok", "speedup",
        "software_ms", "warp_ms", "dpm_ms", "mb_energy_mj",
        "warp_energy_mj", "normalized_warp_energy", "deduped_from",
    )

    def canonical(self) -> Dict:
        """Deterministic fields only — the chaos-differential identity."""
        return {name: getattr(self, name) for name in self.CANONICAL_FIELDS}

    @classmethod
    def from_plain(cls, plain: Dict) -> "ServiceResult":
        """Rebuild a result from :meth:`to_plain` output (wire transport).

        Unknown keys are ignored so a newer gateway can talk to an older
        client; missing keys fall back to the dataclass defaults.  The
        transport-only ``telemetry`` field is never read from the wire.
        """
        names = {f.name for f in dataclasses_fields(cls)} - {"telemetry"}
        return cls(**{key: value for key, value in plain.items()
                      if key in names})


@dataclass
class ServiceReport:
    """Aggregate of one service run (one batch of jobs)."""

    results: List[ServiceResult] = field(default_factory=list)
    wall_seconds: float = 0.0
    mode: str = "serial"
    workers: int = 0

    # ------------------------------------------------------------- accounting
    @property
    def num_jobs(self) -> int:
        return len(self.results)

    @property
    def num_failed(self) -> int:
        return sum(1 for result in self.results if not result.ok)

    def metrics_totals(self) -> Dict[str, int]:
        """Batch-wide counter totals keyed by report metric name.

        The one aggregation over :data:`RESULT_METRIC_FIELDS` that the
        cache/resilience properties, :meth:`summary` and the
        ``cache``/``resilience`` blocks of :meth:`to_plain` all read —
        a new counter lands everywhere by extending the mapping.
        """
        totals = dict.fromkeys(RESULT_METRIC_FIELDS, 0)
        for result in self.results:
            for metric, value in result.metrics_snapshot().items():
                totals[metric] += value
        return totals

    def metrics_block(self, prefix: str) -> Dict[str, int]:
        """One report block (``"cache"``/``"resilience"``) of
        :meth:`metrics_totals`, keys stripped of the prefix."""
        marker = prefix + "."
        return {metric[len(marker):]: value
                for metric, value in self.metrics_totals().items()
                if metric.startswith(marker)}

    @property
    def cache_hits(self) -> int:
        return self.metrics_totals()["cache.hits"]

    @property
    def cache_misses(self) -> int:
        return self.metrics_totals()["cache.misses"]

    @property
    def cache_hit_rate(self) -> float:
        totals = self.metrics_totals()
        lookups = totals["cache.hits"] + totals["cache.misses"]
        return totals["cache.hits"] / lookups if lookups else 0.0

    @property
    def cache_negative_hits(self) -> int:
        """Memoized capacity rejections served across the batch."""
        return self.metrics_totals()["cache.negative_hits"]

    @property
    def cache_disk_hits(self) -> int:
        """Stage lookups served by the persistent disk store tier."""
        return self.metrics_totals()["cache.disk_hits"]

    @property
    def total_retries(self) -> int:
        """Retries absorbed across the batch (transient faults, crashed
        or hung neighbours)."""
        return self.metrics_totals()["resilience.retries"]

    @property
    def total_timeouts(self) -> int:
        """Watchdog timeouts across the batch."""
        return self.metrics_totals()["resilience.timeouts"]

    @property
    def fuzz_programs(self) -> int:
        """Generated programs differentially executed across the batch."""
        return self.metrics_totals()["fuzz.programs"]

    @property
    def fuzz_unexplained_divergences(self) -> int:
        """Engine divergences not matching a documented known shape."""
        totals = self.metrics_totals()
        return totals["fuzz.divergences"] - totals["fuzz.known_divergences"]

    def succeeded(self) -> List[ServiceResult]:
        return [result for result in self.results if result.ok]

    def warp_results(self) -> List[ServiceResult]:
        """Successful warp-pipeline results — fuzz campaign shards carry
        no speedup/energy numbers and stay out of the suite tables."""
        return [result for result in self.succeeded()
                if not result.workload.startswith("fuzz:")]

    def canonical(self) -> List[Dict]:
        """The report's deterministic identity, in job order — what the
        chaos differential harness compares bit-for-bit."""
        return [result.canonical() for result in self.results]

    # ---------------------------------------------------------------- stages
    def stage_order(self) -> List[str]:
        """Stage names in flow order (first occurrence across results)."""
        order: List[str] = []
        for result in self.results:
            for stage in result.stage_wall_ms:
                if stage not in order:
                    order.append(stage)
        return order

    def stage_summary(self) -> List[Tuple[str, Dict[str, float]]]:
        """Per-stage aggregate: total host wall ms, cache hits/misses and
        the stage-level hit rate across every executed job.

        ``hits`` counts every cache-served stage (memory, negative and
        disk); ``disk hits`` additionally breaks out the subset served by
        the persistent store tier.
        """
        entries: List[Tuple[str, Dict[str, float]]] = []
        for stage in self.stage_order():
            wall_ms = 0.0
            hits = misses = disk = 0
            for result in self.results:
                wall_ms += result.stage_wall_ms.get(stage, 0.0)
                source = result.stage_cache.get(stage)
                if source in CACHE_SERVED_SOURCES:
                    hits += 1
                    if source == SOURCE_DISK:
                        disk += 1
                elif source == SOURCE_MISS:
                    misses += 1
            lookups = hits + misses
            entries.append((stage, {
                "wall ms": wall_ms,
                "hits": hits,
                "misses": misses,
                "disk hits": disk,
                "hit rate": hits / lookups if lookups else 0.0,
            }))
        return entries

    def stage_rows(self) -> List[List[object]]:
        """Per-stage timing/hit-rate rows (metric_rows conventions)."""
        return metric_rows(self.stage_summary(), STAGE_METRIC_ORDER)

    def stage_table(self) -> str:
        return format_table(["Stage"] + list(STAGE_METRIC_ORDER),
                            self.stage_rows())

    # ----------------------------------------------------------------- tables
    def speedup_rows(self) -> List[List[object]]:
        """Suite-level speedup rows via the Figure-6 row builder."""
        return metric_rows([(result.job_name, result.speedups())
                            for result in self.warp_results()],
                           SERVICE_PLATFORM_ORDER)

    def energy_rows(self) -> List[List[object]]:
        """Suite-level normalized-energy rows via the Figure-7 row builder."""
        return metric_rows([(result.job_name, result.normalized_energies())
                            for result in self.warp_results()],
                           SERVICE_PLATFORM_ORDER)

    def speedup_table(self) -> str:
        return format_table(["Job"] + list(SERVICE_PLATFORM_ORDER),
                            self.speedup_rows())

    def energy_table(self) -> str:
        return format_table(["Job"] + list(SERVICE_PLATFORM_ORDER),
                            self.energy_rows(), float_format="{:.3f}")

    def summary(self) -> str:
        lines = [
            f"{self.num_jobs} jobs ({self.num_failed} failed) in "
            f"{self.wall_seconds:.2f}s wall "
            f"[{self.mode}, workers={self.workers}]",
            f"CAD artifact cache: {self.cache_hits} hits / "
            f"{self.cache_misses} misses "
            f"({100 * self.cache_hit_rate:.0f}% hit rate, "
            f"{self.cache_negative_hits} memoized capacity rejections)",
        ]
        if self.total_retries or self.total_timeouts:
            lines.append(f"Resilience: {self.total_retries} retries, "
                         f"{self.total_timeouts} watchdog timeouts")
        if self.fuzz_programs:
            totals = self.metrics_totals()
            lines.append(
                f"Fuzzing: {totals['fuzz.programs']} programs, "
                f"{totals['fuzz.instructions']} fuzzed instructions, "
                f"{totals['fuzz.known_divergences']} known / "
                f"{self.fuzz_unexplained_divergences} unexplained "
                f"divergences ({totals['fuzz.bisect_steps']} bisect steps)")
        if self.warp_results():
            lines.append("")
            lines.append(self.speedup_table())
        if self.stage_order():
            lines.append("")
            lines.append(self.stage_table())
        return "\n".join(lines)

    # ------------------------------------------------------------------- JSON
    def to_plain(self) -> Dict:
        cache = dict(self.metrics_block("cache"))
        cache["hit_rate"] = round(self.cache_hit_rate, 4)
        return {
            "mode": self.mode,
            "workers": self.workers,
            "wall_seconds": round(self.wall_seconds, 4),
            "num_jobs": self.num_jobs,
            "num_failed": self.num_failed,
            "cache": cache,
            "resilience": self.metrics_block("resilience"),
            "fuzz": self.metrics_block("fuzz"),
            "stages": {
                stage: {
                    "wall_ms": round(metrics["wall ms"], 4),
                    "hits": metrics["hits"],
                    "misses": metrics["misses"],
                    "disk_hits": metrics["disk hits"],
                    "hit_rate": round(metrics["hit rate"], 4),
                }
                for stage, metrics in self.stage_summary()
            },
            "jobs": [result.to_plain() for result in self.results],
            "tables": {
                "speedup": self.speedup_table()
                if self.warp_results() else "",
                "energy": self.energy_table() if self.warp_results() else "",
                "stages": self.stage_table() if self.stage_order() else "",
            },
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_plain(), indent=indent)

    @classmethod
    def from_plain(cls, plain: Dict) -> "ServiceReport":
        """Rebuild a report from :meth:`to_plain` output (wire transport).

        Only the results and run metadata are carried; tables and
        aggregate counters are derived properties and recompute
        identically on the receiving side.
        """
        return cls(
            results=[ServiceResult.from_plain(entry)
                     for entry in plain.get("jobs", [])],
            wall_seconds=plain.get("wall_seconds", 0.0),
            mode=plain.get("mode", "serial"),
            workers=plain.get("workers", 0),
        )


# --------------------------------------------------------------------------- sweeps
def suite_sweep_jobs(
    configs: Optional[Sequence[Tuple[str, MicroBlazeConfig]]] = None,
    engines: Sequence[str] = (DEFAULT_ENGINE,),
    benchmarks: Optional[Sequence[str]] = None,
    small: bool = False,
    wcla: WclaParameters = DEFAULT_WCLA,
    max_instructions: int = 50_000_000,
    stages: Optional[Sequence[str]] = None,
) -> List[WarpJob]:
    """The built-in suite sweep: benchmarks × configurations × engines.

    ``configs`` is a sequence of ``(label, config)`` pairs, defaulting to
    the paper configuration alone.  ``stages`` optionally swaps registered
    CAD flow passes for every job of the sweep (validated by
    :class:`WarpJob`, and part of each job's dedup key exactly like
    ``WarpJob(stages=...)``).
    """
    from ..apps import benchmark_names

    if configs is None:
        configs = [("paper", PAPER_CONFIG)]
    names = list(benchmarks) if benchmarks else benchmark_names()
    stages = tuple(stages) if stages is not None else None
    jobs: List[WarpJob] = []
    for name in names:
        for label, config in configs:
            for engine in engines:
                jobs.append(WarpJob(
                    name=f"{name}/{label}/{engine}",
                    benchmark=name,
                    small=small,
                    config=config,
                    config_label=label,
                    wcla=wcla,
                    engine=engine,
                    max_instructions=max_instructions,
                    stages=stages,
                ))
    return jobs


def expand_duplicate(result: ServiceResult, job: WarpJob) -> ServiceResult:
    """Clone the primary job's result for a deduplicated twin job.

    Scheduling metadata that is *not* part of the dedup key — the name and
    the configuration label — comes from the twin itself, so reports label
    every submitted job correctly.
    """
    return replace(result, job_name=job.name, config_label=job.config_label,
                   deduped_from=result.job_name,
                   cache_hits=0, cache_misses=0, cache_negative_hits=0,
                   cache_disk_hits=0, retries=0, timeouts=0,
                   stage_wall_ms={}, stage_cache={}, wall_seconds=0.0,
                   fuzz_programs=0, fuzz_instructions=0, fuzz_divergences=0,
                   fuzz_known_divergences=0, fuzz_bisect_steps=0,
                   fuzz_bundles=[])
