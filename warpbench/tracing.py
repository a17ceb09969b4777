"""Outside-in per-layer tracing of a warp job.

:class:`Tracer` wraps the public entry points of the repo's layers (see
:data:`ENTRY_POINTS`) with timing shims, installed from the benchmark's own
files and only for a traced run.  Every wrapped call becomes a span with a
name, start, end, parent and the trace id of the job it ran under; spans
stay in memory and are written out at the end (or, inside a gateway
subprocess and its pool worker, appended to ``spans-<pid>.jsonl`` in a
flush directory after each job and each batch).  :func:`layer_table` turns
the spans into per-job layer self times.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from .stats import self_times

#: Stage-record sources that mean the stage was not computed.
_STAGE_COMPUTED = ("miss", "uncached")


# ----------------------------------------------------------------- annotators
def _note_service(attrs, args, result, _before) -> None:
    attrs["jobs"] = len(result.results)
    attrs["job_wall_s"] = sum(item.wall_seconds for item in result.results)


def _note_job(attrs, args, result, _before) -> None:
    attrs["ok"] = bool(result.ok and result.checksum_ok)


def _compile_hits() -> int:
    from repro.compiler import compile_cache_stats
    return compile_cache_stats().get("hits", 0)


def _note_compile(attrs, args, result, before) -> None:
    attrs["memo_hit"] = _compile_hits() > before


def _note_run(attrs, args, result, _before) -> None:
    attrs["instructions"] = result.instructions


def _note_kernel(attrs, args, result, _before) -> None:
    attrs["iterations"] = result[1].iterations


def _note_partition(attrs, args, result, _before) -> None:
    attrs["stages"] = {record.stage: [record.source, record.wall_seconds]
                       for record in result.stage_records}


#: (module, attribute path, span name, annotator, hits-before probe, root).
#: A root span starts a new trace: one trace per job.
ENTRY_POINTS = (
    ("repro.service.pool", "WarpService.run", "service.run",
     _note_service, None, False),
    ("repro.service.pool", "execute_job", "job", _note_job, None, True),
    ("repro.service.pool", "compile_source_cached", "compiler.compile",
     _note_compile, _compile_hits, False),
    ("repro.apps", "build_benchmark", "apps.build", None, None, False),
    ("repro.warp.processor", "WarpProcessor.profile", "warp.profile",
     None, None, False),
    ("repro.warp.processor", "WarpProcessor.run", "warp.run",
     None, None, False),
    ("repro.microblaze.system", "MicroBlazeSystem.__init__",
     "microblaze.setup", None, None, False),
    ("repro.microblaze.system", "MicroBlazeSystem.load", "microblaze.setup",
     None, None, False),
    ("repro.microblaze.system", "MicroBlazeSystem.run", "microblaze.run",
     _note_run, None, False),
    ("repro.fabric.hw_exec", "WclaPeripheral.__init__", "fabric.setup",
     None, None, False),
    ("repro.fabric.hw_exec", "WclaExecutionEngine.execute", "fabric.kernel",
     _note_kernel, None, False),
    ("repro.partition.dpm", "DynamicPartitioningModule.partition",
     "cad.partition", _note_partition, None, False),
    ("repro.service.pool", "microblaze_energy", "power.energy",
     None, None, False),
    ("repro.service.pool", "warp_energy", "power.energy", None, None, False),
    ("repro.obs", "flush_worker_telemetry", "obs.flush", None, None, False),
)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self, flush_dir: Optional[Path] = None):
        self.spans: List[Dict] = []
        self.flush_dir = Path(flush_dir) if flush_dir is not None else None
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._flushed = 0
        self._flush_lock = threading.Lock()
        self._installed: List = []
        if self.flush_dir is not None:
            # A forked pool worker inherits the parent's spans; it must
            # report only its own.
            os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.spans = []
        self._flushed = 0
        self._flush_lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[Dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -------------------------------------------------------------- wrapping
    def _shim(self, original: Callable, name: str, annotate, before_probe,
              root: bool) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span_id = f"{os.getpid():x}.{next(tracer._ids)}"
            span = {"name": name,
                    "trace_id": span_id if root or parent is None
                    else parent["trace_id"],
                    "span_id": span_id,
                    "parent_id": parent["span_id"] if parent else None,
                    "attrs": {}}
            before = before_probe() if before_probe is not None else None
            stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException as error:
                span["attrs"]["error"] = type(error).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if annotate is not None:
                annotate(span["attrs"], args, result, before)
            if not stack and tracer.flush_dir is not None:
                tracer.flush()
            return result

        traced.__wrapped__ = original
        return traced

    def install(self) -> List[str]:
        """Wrap every entry point; returns the ones that could not be
        found (their layers then read zero)."""
        missing = []
        for module_name, path, name, annotate, probe, root in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            owner = module
            try:
                for part in owners:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except AttributeError:
                missing.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self._shim(original, name, annotate, probe,
                                            root))
            self._installed.append((owner, attr, original))
        for entry in missing:
            print(f"warpbench: entry point {entry} not found; its layer "
                  f"reads zero", file=sys.stderr)
        return missing

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # ---------------------------------------------------------------- output
    def flush(self) -> None:
        """Append spans recorded since the last flush to this process's
        span file in the flush directory."""
        with self._flush_lock:
            fresh = self.spans[self._flushed:]
            if not fresh:
                return
            self._flushed += len(fresh)
            path = self.flush_dir / f"spans-{os.getpid()}.jsonl"
            with open(path, "a") as handle:
                handle.write("".join(json.dumps(span) + "\n"
                                     for span in fresh))


def write_spans(spans: Iterable[Dict], path: Path) -> None:
    with open(path, "w") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")


def span_file_offsets(directory: Path) -> Dict[str, int]:
    """Current size of every span file in ``directory``."""
    return {path.name: path.stat().st_size
            for path in Path(directory).glob("spans-*.jsonl")}


def read_span_files(directory: Path,
                    offsets: Optional[Dict[str, int]] = None) -> List[Dict]:
    """Spans appended to ``directory``'s span files after ``offsets``."""
    spans: List[Dict] = []
    offsets = offsets or {}
    for path in sorted(Path(directory).glob("spans-*.jsonl")):
        with open(path, "rb") as handle:
            handle.seek(offsets.get(path.name, 0))
            blob = handle.read().decode("utf-8")
        spans.extend(json.loads(line) for line in blob.splitlines()
                     if line.strip())
    return spans


# ------------------------------------------------------------------ analysis
#: Layer rows of the "where the time went" table: (row, span names).
LAYER_ROWS = (
    ("compiler", ("compiler.compile",)),
    ("apps (job source build)", ("apps.build",)),
    ("warp (processor glue)", ("warp.profile", "warp.run")),
    ("microblaze setup", ("microblaze.setup",)),
    ("microblaze profiling run", ("microblaze.run:profile",)),
    ("microblaze warp run", ("microblaze.run:warp",)),
    ("fabric setup", ("fabric.setup",)),
    ("fabric kernel model", ("fabric.kernel",)),
    ("cad (DPM flow)", ("cad.partition",)),
    ("power", ("power.energy",)),
    ("obs (worker telemetry flush)", ("obs.flush",)),
    ("unattributed (execute_job)", ("job",)),
)

CAD_STAGES = ("decompile", "synthesis", "place", "route", "implement",
              "binary-update")


def layer_table(spans: Sequence[Dict],
                speed_factor: float = 1.0) -> Dict[str, float]:
    """Per-job layer metrics from a flat span list (one or more processes),
    host times scaled to the reference host by ``speed_factor`` (see
    :mod:`warpbench.calibration`).

    Only spans inside a job trace count toward the layers; a
    ``microblaze.run`` span is a profiling run when its parent is
    ``warp.profile`` and a warp run otherwise.
    """
    by_id = {span["span_id"]: span for span in spans}
    selfs = {span_id: value * speed_factor
             for span_id, value in self_times(spans).items()}
    jobs = [span for span in spans if span["name"] == "job"]
    job_traces = {span["trace_id"] for span in jobs}
    totals: Dict[str, float] = {}

    def add(key: str, value: float) -> None:
        totals[key] = totals.get(key, 0.0) + value

    for span in spans:
        if span["trace_id"] not in job_traces:
            continue
        name = span["name"]
        attrs = span.get("attrs", {})
        if name == "microblaze.run":
            parent = by_id.get(span.get("parent_id"))
            phase = "profile" if parent is not None \
                and parent["name"] == "warp.profile" else "warp"
            name = f"microblaze.run:{phase}"
            add("instructions", attrs.get("instructions", 0))
        elif name == "fabric.kernel":
            add("iterations", attrs.get("iterations", 0))
        elif name == "compiler.compile":
            add("compiles", 1)
            add("memo_hits", 1 if attrs.get("memo_hit") else 0)
        elif name == "cad.partition":
            for stage, (source, wall_s) in attrs.get("stages", {}).items():
                add(f"stage:{stage}", wall_s * speed_factor)
                add("stage_lookups", 1)
                add("stage_hits", 0 if source in _STAGE_COMPUTED else 1)
        add(f"self:{name}", selfs[span["span_id"]])

    job_count = len(jobs)
    job_wall = speed_factor * sum(span["end"] - span["start"]
                                  for span in jobs)
    services = [span for span in spans if span["name"] == "service.run"]
    service_jobs = sum(span["attrs"].get("jobs", 0) for span in services)
    dispatch = speed_factor * sum((span["end"] - span["start"])
                                  - span["attrs"].get("job_wall_s", 0.0)
                                  for span in services)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def per_job_ms(*keys: str) -> float:
        return ratio(sum(totals.get(key, 0.0) for key in keys) * 1e3,
                     job_count)

    mb_run_s = totals.get("self:microblaze.run:profile", 0.0) \
        + totals.get("self:microblaze.run:warp", 0.0)
    kernel_s = totals.get("self:fabric.kernel", 0.0)
    table = {
        "jobs": job_count,
        "host.speed_factor": speed_factor,
        "job_wall_ms": ratio(job_wall * 1e3, job_count),
        "fabric.kernel_ms": per_job_ms("self:fabric.kernel"),
        "fabric.kernel_iterations": ratio(totals.get("iterations", 0.0),
                                          job_count),
        "fabric.host_ns_per_iteration": ratio(
            kernel_s * 1e9, totals.get("iterations", 0.0)),
        "fabric.setup_ms": per_job_ms("self:fabric.setup"),
        "microblaze.profile_run_ms":
            per_job_ms("self:microblaze.run:profile"),
        "microblaze.warp_run_ms": per_job_ms("self:microblaze.run:warp"),
        "microblaze.host_ns_per_instr": ratio(
            mb_run_s * 1e9, totals.get("instructions", 0.0)),
        "microblaze.setup_ms": per_job_ms("self:microblaze.setup"),
        "cad.self_ms": per_job_ms("self:cad.partition"),
    }
    for stage in CAD_STAGES:
        table[f"cad.{stage}_ms"] = per_job_ms(f"stage:{stage}")
    table.update({
        "cad.stage_hit_ratio": ratio(totals.get("stage_hits", 0.0),
                                     totals.get("stage_lookups", 0.0)),
        "compiler.self_ms": per_job_ms("self:compiler.compile"),
        "compiler.memo_hit_ratio": ratio(totals.get("memo_hits", 0.0),
                                         totals.get("compiles", 0.0)),
        "power.energy_ms": per_job_ms("self:power.energy"),
        "obs.flush_ms": per_job_ms("self:obs.flush"),
        "warp.self_ms": per_job_ms("self:warp.profile", "self:warp.run"),
        "apps.build_ms": per_job_ms("self:apps.build"),
        "job.unattributed_ms": per_job_ms("self:job"),
        "service.dispatch_ms": ratio(dispatch * 1e3, service_jobs),
        "job.coverage_ratio": ratio(job_wall - totals.get("self:job", 0.0),
                                    job_wall),
    })
    table["rows"] = [(label, per_job_ms(*(f"self:{name}" for name in names)))
                     for label, names in LAYER_ROWS]
    return table


def render_table(workload: str, table: Dict) -> str:
    """The "where the time went" table of one workload."""
    job_ms = table["job_wall_ms"]
    lines = [f"where the time went: {workload} "
             f"({table['jobs']} traced jobs, {job_ms:.2f} ms/job "
             f"execute_job wall)",
             f"  {'layer':<30} {'ms/job':>9} {'share':>7}"]
    for label, ms in table["rows"]:
        share = ms / job_ms if job_ms else 0.0
        lines.append(f"  {label:<30} {ms:9.3f} {100 * share:6.1f}%")
    lines.append(f"  job.coverage_ratio = {table['job.coverage_ratio']:.4f} "
                 f"(layer self time / execute_job wall)")
    return "\n".join(lines)
