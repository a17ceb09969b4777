"""The in-process workloads: ``paper-suite-warm`` and ``fresh-programs``.

Both drive ``WarpService(workers=0)`` from one closed-loop caller.  The
clock that ``jobs_per_s`` and ``sim_mips`` divide by covers only the
``WarpService.run`` calls, in ~1 s chunks whose median is reported, scaled
to the reference host (:mod:`warpbench.calibration`, sampled between
batches); generating the next epoch of programs is the benchmark's own
work and is left out.
"""

from __future__ import annotations

import resource
import time
from typing import Dict, List

from . import workloads
from .calibration import HostSpeed
from .checks import ProgramChecker, paper_suite_results, suite_model_errors
from .stats import end_to_end_metrics, latency_summary


class InProcessWorkload:
    """Set-up state and the timed loop of one in-process workload."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.reference: Dict[str, Dict] = {}
        self.expected: Dict[str, int] = {}
        self.executed: List = []
        self.warm_results: List = []

    # ------------------------------------------------------------------ set-up
    def setup(self) -> float:
        """Imports, service construction and warm-up; returns seconds
        (unscaled: calibrations back to back after it catch a moment of
        the host, not the set-up)."""
        start = time.perf_counter()
        from repro.service.pool import WarpService
        if self.name == workloads.PAPER_SUITE_WARM:
            self.service = WarpService(workers=0)
            self.passes = workloads.paper_suite_passes(self.seed)
            warm = self.service.run(next(self.passes))
            self.warm_results = warm.results
            self.reference = {result.job_name: result.canonical()
                              for result in warm.results}
        else:
            from repro.cad import CadArtifactCache
            from repro.service.jobs import WarpJob
            # Warm lazy imports and first-call paths on a suite job that
            # shares no content with the fresh stream.
            WarpService(workers=0, artifact_cache=CadArtifactCache()).run(
                [WarpJob(name="warm-up", benchmark="brev", small=True)])
        return time.perf_counter() - start

    # -------------------------------------------------------------- timed loop
    def _batches(self):
        """Endless batches: one suite pass, or one fresh program."""
        if self.name == workloads.PAPER_SUITE_WARM:
            for jobs in self.passes:
                yield self.service, jobs
        from repro.cad import CadArtifactCache
        from repro.service.pool import WarpService
        for entries in workloads.fresh_epochs(self.seed):
            service = WarpService(workers=0,
                                  artifact_cache=CadArtifactCache())
            for job, expected in entries:
                self.expected[job.name] = expected
                yield service, [job]

    def run_for(self, seconds: float, batches=None) -> Dict:
        """Run batches until ``seconds`` of service time have elapsed,
        calibrating the host speed in between."""
        batches = batches if batches is not None else self._batches()
        host = HostSpeed()
        measured = 0.0
        log: List = []
        latencies: List[float] = []
        failed = 0
        while measured < seconds:
            host.maybe_sample()
            service, batch = next(batches)
            start = time.perf_counter()
            report = service.run(batch)
            duration = time.perf_counter() - start
            measured += duration
            log.append((duration, batch))
            for job, result in zip(batch, report.results):
                latencies.append(result.wall_seconds)
                self.executed.append(job)
                if not self._result_ok(result):
                    failed += 1
        host.sample()
        jobs = len(latencies)
        return {"jobs": jobs, "measured_s": measured, "log": log,
                "latencies": latencies, "failed": failed,
                "batches": batches, "host": host,
                "rate": jobs / host.seconds(measured)}

    def _result_ok(self, result) -> bool:
        if not (result.ok and result.checksum_ok):
            return False
        reference = self.reference.get(result.job_name)
        return reference is None or reference == result.canonical()


def _inprocess_metrics(state: InProcessWorkload, window: Dict,
                       setup_s: List[float]) -> Dict:
    checker = ProgramChecker()
    bad_jobs = checker.check_jobs(state.executed, state.expected)
    suite = state.warm_results if state.name == workloads.PAPER_SUITE_WARM \
        else paper_suite_results()
    speed_err, energy_err, suite_failed = suite_model_errors(suite)
    failed = window["failed"] + bad_jobs + suite_failed
    host = window["host"]
    latency = latency_summary([host.seconds(value)
                               for value in window["latencies"]])
    log = [(host.seconds(duration), batch)
           for duration, batch in window["log"]]
    metrics = end_to_end_metrics(
        jobs=[(duration, len(batch)) for duration, batch in log],
        instructions=[(duration, sum(checker.instructions(job)
                                     for job in batch))
                      for duration, batch in log],
        latency=latency, setup_s=setup_s,
        peak_rss_mb=window["peak_rss_mb"], failed=failed,
        attempted=window["jobs"], model_errs=(speed_err, energy_err))
    return {
        "attempted": window["jobs"],
        "failed": failed,
        "latency": latency,
        "metrics": metrics,
        "notes": [f"host speed factor {host.factor:.4f} (median of "
                  f"{len(host.samples)} calibrations); unscaled: "
                  f"{window['jobs'] / window['measured_s']:.4g} jobs/s, "
                  f"p50 {latency['p50'] * 1e3 / host.factor:.4g} ms",
                  f"setup samples (s): "
                  + ", ".join(f"{value:.3f}" for value in setup_s),
                  f"programs checked against repro.apps references: "
                  f"{checker.programs_checked} ({checker.programs_failed} "
                  f"failed)"],
    }


def run_untraced(workload: str, seed: int, seconds: float,
                 extra_setups) -> Dict:
    """The end-to-end run: set-up, the timed window, then the checks."""
    state = InProcessWorkload(workload, seed)
    setup_s = [state.setup()]
    window = state.run_for(seconds)
    window["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s.extend(extra_setups())
    return _inprocess_metrics(state, window, setup_s)


def run_traced(workload: str, seed: int, seconds: float) -> Dict:
    """The per-layer run: a traced half between two untraced quarters, so
    a drift of the host over the run does not bias the tracing overhead."""
    from .tracing import Tracer, layer_table
    state = InProcessWorkload(workload, seed)
    state.setup()
    before = state.run_for(seconds / 4)
    tracer = Tracer()
    tracer.install()
    try:
        traced = state.run_for(seconds / 2, before["batches"])
    finally:
        tracer.uninstall()
    after = state.run_for(seconds / 4, before["batches"])
    plain_rate = (before["jobs"] + after["jobs"]) \
        / (before["host"].seconds(before["measured_s"])
           + after["host"].seconds(after["measured_s"]))
    table = layer_table(tracer.spans, traced["host"].factor)
    table["tracing.overhead_ratio"] = plain_rate / traced["rate"] - 1.0
    # No server in the loop: the gateway's layers read zero here.
    table.update({"server.overhead_p50_ms": 0.0,
                  "server.overhead_p90_ms": 0.0,
                  "server.queue_wait_ms": 0.0})
    windows = (before, traced, after)
    failed = sum(window["failed"] for window in windows) + \
        ProgramChecker().check_jobs(state.executed, state.expected)
    return {"attempted": sum(window["jobs"] for window in windows),
            "failed": failed, "table": table, "spans": tracer.spans}
