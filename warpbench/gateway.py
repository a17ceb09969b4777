"""The ``gateway-small`` workload: a ``repro-warp serve`` subprocess
(``--port 0 --workers 1``, a fresh ``--store``) and one closed-loop client
on one connection, sending 1-job batches.

One client, because with two the gateway, its pool worker and both clients
were runnable at once on a 2-CPU host, and the run measured the scheduler
(``jobs_per_s`` spread by up to 46% of its median over ten seeds).  With
one, the gateway and its worker are idle between a reply and the next
request, so the client calibrates the host speed there
(:mod:`warpbench.calibration`) without competing with them, and the
window's round trips are scaled like the in-process workloads' host times.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from . import workloads
from .calibration import HostSpeed
from .checks import ProgramChecker, suite_model_errors
from .stats import end_to_end_metrics, latency_summary, percentile

SERVE = Path(__file__).with_name("serve.py")
#: Seconds a gateway may take to print its listening line.
START_TIMEOUT_S = 60.0
#: Seconds a gateway may take to exit after the shutdown verb.
STOP_TIMEOUT_S = 60.0
#: Socket timeout of every client request (a hung gateway fails the run
#: instead of outliving the benchmark's time limit).
REQUEST_TIMEOUT_S = 60.0


class Gateway:
    """One gateway subprocess, from spawn to its peak-RSS report."""

    def __init__(self, workdir: Path, trace_dir: Optional[Path] = None):
        workdir.mkdir(parents=True, exist_ok=True)
        self.stdout_path = workdir / "serve.out"
        self.stderr_path = workdir / "serve.err"
        command = [sys.executable, str(SERVE)]
        if trace_dir is not None:
            trace_dir.mkdir(parents=True, exist_ok=True)
            command += ["--trace-dir", str(trace_dir)]
        command += ["--port", "0", "--workers", "1",
                    "--store", str(workdir / "store")]
        self.spawned = time.perf_counter()
        with open(self.stdout_path, "w") as out, \
                open(self.stderr_path, "w") as err:
            self.process = subprocess.Popen(command, stdout=out, stderr=err)
        self.address = self._wait_listening()

    def _wait_listening(self) -> str:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            text = self.stdout_path.read_text()
            if "listening on " in text:
                return text.split("listening on ", 1)[1].split()[0]
            if self.process.poll() is not None:
                break
            time.sleep(0.01)
        self.kill()
        raise RuntimeError(f"gateway did not start: "
                           f"{self.stderr_path.read_text()[-2000:]}")

    def client(self):
        from repro.server.client import GatewayClient
        return GatewayClient(self.address, timeout=REQUEST_TIMEOUT_S)

    def stop(self) -> float:
        """Shut down through the wire verb; returns peak RSS in MiB of the
        gateway plus its pool worker."""
        try:
            with self.client() as client:
                client.shutdown()
            self.process.wait(timeout=STOP_TIMEOUT_S)
        finally:
            self.kill()
        usage = json.loads(self.stdout_path.read_text().splitlines()[-1])
        return (usage["maxrss_self_kb"] + usage["maxrss_children_kb"]) \
            / 1024.0

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()


def _warm_up(gateway: Gateway) -> Dict[str, Dict]:
    """The warm-up batch (every distinct job once); returns the reference
    canonical result per job name."""
    with gateway.client() as client:
        report = client.submit(workloads.gateway_job_pool())
    return {result.job_name: result.canonical() for result in report.results}


def _timed_window(gateway: Gateway, seed: int, seconds: float) -> Dict:
    """Requests until ``seconds`` of round trips have elapsed, calibrating
    the host speed in between."""
    from repro.server.protocol import GatewayBusyError
    stream = workloads.gateway_stream(seed)
    host = HostSpeed()
    samples: List = []
    measured = 0.0
    with gateway.client() as client:
        while measured < seconds:
            host.maybe_sample()
            job = next(stream)
            start = time.perf_counter()
            try:
                result = client.submit([job]).results[0]
            except GatewayBusyError as error:
                result = error
            round_trip = time.perf_counter() - start
            measured += round_trip
            samples.append((job, round_trip, result))
    host.sample()
    return {"samples": samples, "host": host, "measured_s": measured}


def _judge(samples: List, reference: Dict[str, Dict]) -> int:
    failed = 0
    for job, _, result in samples:
        if isinstance(result, Exception) or not (
                result.ok and result.checksum_ok) \
                or result.canonical() != reference.get(job.name):
            failed += 1
    return failed


def _session(workdir: Path, seed: int, seconds: float,
             trace_dir: Optional[Path] = None) -> Dict:
    """Spawn, warm up, run the window, collect, stop."""
    from .tracing import read_span_files, span_file_offsets
    gateway = Gateway(workdir, trace_dir)
    suite: List = []
    spans: List = []
    layer_spans: List = []
    try:
        reference = _warm_up(gateway)
        setup_s = time.perf_counter() - gateway.spawned
        if trace_dir is not None:
            # Only what the timed window adds: the warm-up batch's spans
            # are already flushed and its scheduler waits already served.
            offsets = span_file_offsets(trace_dir)
            with gateway.client() as client:
                cursor = client.metrics(include_spans=False)["cursor"]
        window = _timed_window(gateway, seed, seconds)
        with gateway.client() as client:
            if trace_dir is None:
                suite = client.submit(workloads.paper_suite_jobs()).results
            else:
                spans = client.metrics(since=cursor).get("spans", [])
                layer_spans = read_span_files(trace_dir, offsets)
        peak_rss_mb = gateway.stop()
    finally:
        gateway.kill()
        shutil.rmtree(workdir / "store", ignore_errors=True)
    served = len(_served(window["samples"]))
    window.update(setup_s=setup_s, reference=reference, suite=suite,
                  rate=served / window["host"].seconds(window["measured_s"]),
                  gateway_spans=spans, layer_spans=layer_spans,
                  peak_rss_mb=peak_rss_mb)
    return window


def _setup_only(workdir: Path) -> float:
    gateway = Gateway(workdir)
    try:
        _warm_up(gateway)
        setup_s = time.perf_counter() - gateway.spawned
        gateway.stop()
    finally:
        gateway.kill()
        shutil.rmtree(workdir / "store", ignore_errors=True)
    return setup_s


def _served(samples: List) -> List:
    """The samples whose request was served (not refused as busy)."""
    return [sample for sample in samples
            if not isinstance(sample[2], Exception)]


def run_untraced(seed: int, seconds: float, outdir: Path,
                 setup_repeats: int) -> Dict:
    window = _session(outdir / "gateway", seed, seconds)
    setup_s = [window["setup_s"]] + [
        _setup_only(outdir / f"gateway-setup-{index}")
        for index in range(setup_repeats)]
    samples = window["samples"]
    host = window["host"]
    checker = ProgramChecker()
    speed_err, energy_err, suite_failed = suite_model_errors(window["suite"])
    failed = _judge(samples, window["reference"]) + suite_failed \
        + checker.check_jobs([job for job, *_ in samples], {})
    latency = latency_summary([host.seconds(round_trip)
                               for _, round_trip, _ in samples])
    # The events of stats.median_rate: (scaled round trip, job) per served
    # request, in order.
    served = [(host.seconds(round_trip), job)
              for job, round_trip, _ in _served(samples)]
    metrics = end_to_end_metrics(
        jobs=[(duration, 1) for duration, _ in served],
        instructions=[(duration, checker.instructions(job))
                      for duration, job in served],
        latency=latency, setup_s=setup_s,
        peak_rss_mb=window["peak_rss_mb"], failed=failed,
        attempted=len(samples), model_errs=(speed_err, energy_err))
    return {
        "attempted": len(samples),
        "failed": failed,
        "latency": latency,
        "metrics": metrics,
        "notes": [f"host speed factor {host.factor:.4f} (median of "
                  f"{len(host.samples)} calibrations); unscaled: "
                  f"{len(served) / window['measured_s']:.4g} req/s, "
                  f"p50 {latency['p50'] * 1e3 / host.factor:.4g} ms",
                  "setup samples (s): "
                  + ", ".join(f"{value:.3f}" for value in setup_s),
                  f"programs checked against repro.apps references: "
                  f"{checker.programs_checked} ({checker.programs_failed} "
                  f"failed)"],
    }


def run_traced(seed: int, seconds: float, outdir: Path) -> Dict:
    """Half the window on an untraced gateway, half on a traced one."""
    from .tracing import layer_table
    plain = _session(outdir / "gateway-plain", seed, seconds / 2)
    trace_dir = outdir / "gateway-spans"
    traced = _session(outdir / "gateway-traced", seed, seconds / 2,
                      trace_dir)
    factor = traced["host"].factor
    spans = traced["layer_spans"]
    table = layer_table(spans, factor)
    overheads = [factor * (round_trip - result.wall_seconds)
                 for _, round_trip, result in _served(traced["samples"])]
    waits = [span["duration_s"] for span in traced["gateway_spans"]
             if span.get("name") == "scheduler-wait"]
    table["server.overhead_p50_ms"] = percentile(overheads, 50.0) * 1e3
    table["server.overhead_p90_ms"] = percentile(overheads, 90.0) * 1e3
    table["server.queue_wait_ms"] = factor * statistics.mean(waits) * 1e3 \
        if waits else 0.0
    table["tracing.overhead_ratio"] = plain["rate"] / traced["rate"] - 1.0
    failed = _judge(plain["samples"], plain["reference"]) \
        + _judge(traced["samples"], traced["reference"]) \
        + ProgramChecker().check_jobs(
            [job for session in (plain, traced)
             for job, *_ in session["samples"]], {})
    return {"attempted": len(plain["samples"]) + len(traced["samples"]),
            "failed": failed, "table": table, "spans": spans}
