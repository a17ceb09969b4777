"""``repro-warp`` — command-line front end of the warp service.

Local subcommands::

    repro-warp suite [--benchmarks brev,matmul] [--configs paper,minimal]
                     [--engines jit,interp] [--small] [--workers N]
                     [--store DIR] [--repeat N] [--out report.json]

runs the built-in suite sweep (benchmarks × configurations × engines), and ::

    repro-warp jobs examples/service_jobs.json [--workers N] [--out ...]

runs a declarative job file.  Networked subcommands::

    repro-warp serve [--host H] [--port P] [--workers N]
                     [--queue-limit N] [--store DIR]
                     [--max-batches N] [--client-quota N]

starts a WARPNET gateway fronting a warp service (``--store`` persists
CAD artifacts across restarts, ``--max-batches`` bounds concurrent
batch execution and ``--client-quota`` caps per-client admission), ::

    repro-warp submit examples/service_jobs.json --gateway HOST:PORT
                      [--no-wait] [--out report.json]

submits a job file to a running gateway, and the observability verbs ::

    repro-warp metrics --gateway HOST:PORT [--prom] [--spans] [--out F]
    repro-warp top     --gateway HOST:PORT [--interval S] [--iterations N]

scrape a running gateway's live telemetry (``--prom`` renders the
Prometheus text exposition) and poll it into a terminal dashboard of
queue depth, shard occupancy, per-stage hit rates and retry/timeout
counters.  Local runs accept ``--trace-out spans.jsonl`` to record and
export the run's trace spans.  Finally ::

    repro-warp fuzz [--seeds N] [--seed-start S] [--profile mixed]
                    [--engines interp,jit,...] [--jobs N]
                    [--workers N] [--out ...]

runs a differential fuzzing campaign (see :mod:`repro.fuzz`): N generated
programs cross-checked across the engine registry, the seed range
sharded into jobs across the worker pool, and every unexplained
divergence automatically bisected to a replayable repro bundle in the
JSON report.

Job files are JSON::

    {"jobs": [
        {"name": "brev-fast", "benchmark": "brev", "engine": "jit"},
        {"name": "brev-nobs", "benchmark": "brev", "small": true,
         "priority": 5, "config": {"use_barrel_shifter": false},
         "config_label": "no-bs"},
        {"name": "inline", "source": "int main() { ... }"}
    ]}

where ``config`` holds :class:`~repro.microblaze.config.MicroBlazeConfig`
field overrides applied to the paper configuration.  Every job runs the
paper's one CAD flow.  Both subcommands print the
suite-level speedup/energy tables and write the full JSON report (per-job
metrics, CAD-cache and per-stage hit/miss counters, per-stage wall times)
to ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..cad import CACHE_SERVED_SOURCES
from ..microblaze.config import MINIMAL_CONFIG, PAPER_CONFIG, MicroBlazeConfig
from .jobs import JobSpecError, ServiceReport, WarpJob, suite_sweep_jobs
from .pool import WarpService

#: Named processor configurations selectable from the command line.
NAMED_CONFIGS: Dict[str, MicroBlazeConfig] = {
    "paper": PAPER_CONFIG,
    "minimal": MINIMAL_CONFIG,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-warp",
        description="Batch warp-processing service: run warp jobs over a "
                    "worker pool with a content-addressed CAD cache.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def output(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--out", type=Path, default=None,
                         help="write the JSON report here")
        sub.add_argument("--quiet", action="store_true",
                         help="suppress the table output")

    def common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--workers", type=int, default=0,
                         help="pool worker processes (0 = serial in-process, "
                              "the default)")
        sub.add_argument("--policy", choices=("priority", "fifo"),
                         default="priority", help="job ordering policy")
        sub.add_argument("--store", type=Path, default=None,
                         help="persistent on-disk CAD artifact store "
                              "directory (created if missing; shared by "
                              "pool workers)")
        sub.add_argument("--chaos-seed", type=int, default=None,
                         help="install the standard deterministic fault "
                              "plan with this seed (exported to pool "
                              "workers): injected wire/store/CAD faults "
                              "exercise the recovery policies — the report "
                              "stays identical to a fault-free run, only "
                              "slower")
        sub.add_argument("--trace-out", type=Path, default=None,
                         help="record telemetry during the run and export "
                              "its trace spans (scheduler→shard→stage→"
                              "store timelines) as JSONL here")
        output(sub)

    def sweep_flags(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--benchmarks", default=None,
                         help="comma-separated benchmark names "
                              "(default: the full six-benchmark suite)")
        sub.add_argument("--configs", default="paper",
                         help=f"comma-separated configuration names from "
                              f"{sorted(NAMED_CONFIGS)} (default: paper)")
        from ..microblaze.engines import DEFAULT_ENGINE, engine_names
        sub.add_argument("--engines", default=DEFAULT_ENGINE,
                         help="comma-separated execution engines from the "
                              f"registry ({', '.join(engine_names())})")
        sub.add_argument("--small", action="store_true",
                         help="use the reduced-size benchmark parameters")

    suite = subparsers.add_parser(
        "suite", help="run the built-in suite sweep (benchmarks × configs "
                      "× engines)")
    sweep_flags(suite)
    suite.add_argument("--repeat", type=int, default=1,
                       help="run the sweep N times through one service "
                            "(later repeats are served by the CAD cache)")
    common(suite)

    jobs = subparsers.add_parser("jobs", help="run a JSON job file")
    jobs.add_argument("jobfile", type=Path)
    common(jobs)

    serve = subparsers.add_parser(
        "serve", help="start a WARPNET gateway fronting a warp service")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7877,
                       help="listening port (0 = ephemeral; default 7877)")
    serve.add_argument("--workers", type=int, default=0,
                       help="pool worker processes behind the gateway")
    serve.add_argument("--policy", choices=("priority", "fifo"),
                       default="priority")
    serve.add_argument("--queue-limit", type=int, default=64,
                       help="admission limit: queued+running jobs beyond "
                            "this are rejected with a typed busy reply")
    serve.add_argument("--store", type=Path, default=None,
                       help="persistent CAD artifact store directory (the "
                            "gateway starts warm after a restart)")
    serve.add_argument("--no-telemetry", action="store_true",
                       help="disable the telemetry plane (the metrics verb "
                            "answers with enabled=false; zero per-job "
                            "overhead)")
    serve.add_argument("--max-batches", type=int, default=None,
                       help="batches executed concurrently against the "
                            "shared worker pool (default 4)")
    serve.add_argument("--client-quota", type=int, default=None,
                       help="per-client admission cap: a client whose "
                            "pending jobs would exceed this gets a typed "
                            "busy reply (default: no per-client cap)")

    submit = subparsers.add_parser(
        "submit", help="submit a JSON job file to a running gateway")
    submit.add_argument("jobfile", type=Path)
    submit.add_argument("--gateway", default="127.0.0.1:7877",
                        help="gateway address host:port")
    submit.add_argument("--no-wait", action="store_true",
                        help="enqueue and print the batch id instead of "
                             "waiting for the report")
    submit.add_argument("--no-retry", action="store_true",
                        help="fail on the first transient gateway error "
                             "instead of retrying with backoff")
    output(submit)

    metrics_cmd = subparsers.add_parser(
        "metrics", help="scrape a running gateway's live telemetry "
                        "snapshot (metric families + trace spans)")
    metrics_cmd.add_argument("--gateway", default="127.0.0.1:7877",
                             help="gateway address host:port")
    metrics_cmd.add_argument("--prom", action="store_true",
                             help="render the Prometheus text exposition "
                                  "instead of JSON")
    metrics_cmd.add_argument("--spans", action="store_true",
                             help="include the trace spans in the JSON "
                                  "output")
    metrics_cmd.add_argument("--out", type=Path, default=None,
                             help="write the output here instead of stdout")

    top = subparsers.add_parser(
        "top", help="poll a gateway's telemetry into a live terminal view "
                    "(queue depth, shard occupancy, stage hit rates, "
                    "retries/timeouts)")
    top.add_argument("--gateway", default="127.0.0.1:7877",
                     help="gateway address host:port")
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between polls (default 2)")
    top.add_argument("--iterations", type=int, default=0,
                     help="stop after N polls (0 = run until Ctrl-C)")

    fuzz = subparsers.add_parser(
        "fuzz", help="run a differential fuzzing campaign: generated "
                     "programs cross-checked across every registered "
                     "engine, unexplained divergences auto-bisected to "
                     "replayable repro bundles")
    fuzz.add_argument("--seeds", type=int, default=200,
                      help="number of consecutive generator seeds "
                           "(default 200)")
    fuzz.add_argument("--seed-start", type=int, default=0,
                      help="first seed of the campaign (default 0)")
    from ..fuzz.generator import profile_names as _profile_names
    fuzz.add_argument("--profile", default="mixed",
                      help="generator profile "
                           f"({', '.join(_profile_names())})")
    from ..microblaze.engines import engine_names as _fuzz_engine_names
    fuzz.add_argument("--engines", default=None,
                      help="comma-separated engines to cross-check "
                           f"({', '.join(_fuzz_engine_names())}; "
                           "default: all registered)")
    fuzz.add_argument("--jobs", type=int, default=0,
                      help="split the seed range into N campaign shards "
                           "(0 = one shard per worker, or a single shard "
                           "when serial)")
    fuzz.add_argument("--max-instructions", type=int, default=2_000_000,
                      help="per-run instruction budget (default 2M)")
    common(fuzz)
    return parser


# --------------------------------------------------------------------------- job files
def _config_from_spec(spec: Dict, job_name: str) -> MicroBlazeConfig:
    if not isinstance(spec, dict):
        raise JobSpecError(f"job {job_name!r}: 'config' must be an object of "
                           f"MicroBlazeConfig field overrides")
    valid = {field.name for field in dataclasses.fields(MicroBlazeConfig)}
    unknown = set(spec) - valid
    if unknown:
        raise JobSpecError(f"job {job_name!r}: unknown config fields "
                           f"{sorted(unknown)}")
    # Only scalar fields are overridable from a job file; structured fields
    # (the pipeline timing table) would also break the frozen config's
    # hashability, which the scheduler's dedup key relies on.
    for key, value in spec.items():
        if not isinstance(value, (bool, int, float)) or value is None:
            raise JobSpecError(
                f"job {job_name!r}: config field {key!r} must be a scalar "
                f"(bool/int/float), got {type(value).__name__}"
            )
    try:
        return dataclasses.replace(PAPER_CONFIG, **spec)
    except (TypeError, ValueError) as error:
        raise JobSpecError(f"job {job_name!r}: invalid config overrides: "
                           f"{error}") from error


def _int_field(entry: Dict, key: str, default: int, path: Path) -> int:
    value = entry.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise JobSpecError(f"{path}: job {entry['name']!r}: {key!r} must be "
                           f"an integer, got {type(value).__name__}")
    return value


def load_job_file(path: Path) -> List[WarpJob]:
    """Parse a JSON job file into :class:`WarpJob` specs."""
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as error:
        raise JobSpecError(f"{path}: not valid JSON: {error}") from error
    entries = payload.get("jobs") if isinstance(payload, dict) else None
    if not isinstance(entries, list) or not entries:
        raise JobSpecError(f"{path}: expected an object with a non-empty "
                           f"'jobs' array")
    jobs: List[WarpJob] = []
    allowed = {"name", "benchmark", "source", "small", "engine", "priority",
               "max_instructions", "config", "config_label",
               "timeout_s", "fuzz_profile", "fuzz_seed", "fuzz_count",
               "fuzz_engines"}
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict) or "name" not in entry:
            raise JobSpecError(f"{path}: job #{index} must be an object with "
                               f"a 'name'")
        unknown = set(entry) - allowed
        if unknown:
            raise JobSpecError(f"{path}: job {entry['name']!r} has unknown "
                               f"fields {sorted(unknown)}")
        config_spec = entry.get("config", {})
        config = _config_from_spec(config_spec, entry["name"]) if config_spec \
            else PAPER_CONFIG
        jobs.append(WarpJob(
            name=entry["name"],
            benchmark=entry.get("benchmark"),
            source=entry.get("source"),
            small=bool(entry.get("small", False)),
            config=config,
            config_label=entry.get("config_label",
                                   "custom" if config_spec else "paper"),
            engine=entry.get("engine"),
            priority=_int_field(entry, "priority", 0, path),
            max_instructions=_int_field(entry, "max_instructions",
                                        50_000_000, path),
            timeout_s=entry.get("timeout_s"),
            fuzz_profile=entry.get("fuzz_profile"),
            fuzz_seed=_int_field(entry, "fuzz_seed", 0, path),
            fuzz_count=_int_field(entry, "fuzz_count", 25, path),
            fuzz_engines=entry.get("fuzz_engines"),
        ))
    return jobs


def _split(text: str) -> List[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


# --------------------------------------------------------------------------- helpers
def _sweep_jobs_from_args(args) -> List[WarpJob]:
    configs = []
    for label in _split(args.configs):
        if label not in NAMED_CONFIGS:
            raise JobSpecError(f"unknown config {label!r}; choose "
                               f"from {sorted(NAMED_CONFIGS)}")
        configs.append((label, NAMED_CONFIGS[label]))
    engines = _split(args.engines)
    benchmarks = _split(args.benchmarks) if args.benchmarks else None
    return suite_sweep_jobs(configs=configs, engines=engines,
                            benchmarks=benchmarks, small=args.small)


def _fuzz_jobs_from_args(args) -> List[WarpJob]:
    """Shard one differential fuzzing campaign into :class:`WarpJob`\\ s.

    The seed range splits into contiguous shards (``--jobs``, defaulting
    to one per pool worker) so ``--workers N`` fans the campaign across
    the pool — or onto a gateway's pool via ``submit`` with a fuzz job
    file.  Unknown engine names fail with exit code 2, matching
    ``suite --engines``.
    """
    from ..microblaze.engines import UnknownEngineError, validate_engine_name

    if args.seeds <= 0:
        raise JobSpecError("--seeds must be positive")
    engines = None
    if args.engines:
        try:
            engines = tuple(validate_engine_name(name)
                            for name in _split(args.engines))
        except UnknownEngineError as error:
            raise JobSpecError(str(error)) from error
    shards = args.jobs if args.jobs > 0 else max(1, args.workers)
    shards = min(shards, args.seeds)
    base, extra = divmod(args.seeds, shards)
    jobs: List[WarpJob] = []
    start = args.seed_start
    for index in range(shards):
        count = base + (1 if index < extra else 0)
        jobs.append(WarpJob(
            name=f"fuzz-{args.profile}-{start}..{start + count}",
            fuzz_profile=args.profile,
            fuzz_seed=start,
            fuzz_count=count,
            fuzz_engines=engines,
            max_instructions=args.max_instructions,
        ))
        start += count
    return jobs


def _emit_reports(reports: List[ServiceReport], args) -> int:
    """Print and/or write the reports; exit code reflects job failures in
    *any* sweep (a warm repeat can mask a cold-sweep worker death)."""
    report = reports[-1]
    repeats = len(reports)
    if not args.quiet:
        for index, item in enumerate(reports):
            if repeats > 1:
                print(f"--- sweep {index + 1}/{repeats} ---")
            print(item.summary())
            print()
    if args.out is not None:
        plain = report.to_plain()
        if repeats > 1:
            # The top level IS the final sweep; earlier sweeps are listed
            # separately (no duplicate serialization of the last one).
            plain["repeat_count"] = repeats
            plain["earlier_sweeps"] = [item.to_plain()
                                       for item in reports[:-1]]
        args.out.write_text(json.dumps(plain, indent=2) + "\n")
        if not args.quiet:
            print(f"report written to {args.out}")
    return 1 if any(item.num_failed for item in reports) else 0


# ---------------------------------------------------------------- networked verbs
def _cmd_serve(args) -> int:
    from ..server.gateway import DEFAULT_MAX_CONCURRENT_BATCHES, \
        WarpGateway, start_gateway_thread

    max_batches = (args.max_batches if args.max_batches is not None
                   else DEFAULT_MAX_CONCURRENT_BATCHES)
    gateway = WarpGateway(host=args.host, port=args.port,
                          workers=args.workers, policy=args.policy,
                          queue_limit=args.queue_limit,
                          store_path=args.store,
                          telemetry=not args.no_telemetry,
                          max_concurrent_batches=max_batches,
                          client_quota=args.client_quota)
    thread = start_gateway_thread(gateway)
    print(f"repro-warp gateway listening on {gateway.address} "
          f"[{gateway.service.mode}, workers={gateway.service.workers}, "
          f"queue limit {gateway.queue_limit} jobs, "
          f"{max_batches} concurrent batches"
          + (f", store {args.store}" if args.store else "")
          + (", telemetry off" if args.no_telemetry else "")
          + "]; stop with the shutdown verb or Ctrl-C", flush=True)
    try:
        thread.join()
    except KeyboardInterrupt:
        gateway.request_stop()
        thread.join(timeout=30)
    return 0


def _cmd_submit(args) -> int:
    from ..retry import DEFAULT_REMOTE_POLICY
    from ..server import client as server_client
    from ..server.protocol import GatewayBusyError, GatewayDrainingError, \
        HandshakeError, ProtocolError, RemoteError

    jobs = load_job_file(args.jobfile)
    try:
        server_client.parse_address(args.gateway)
    except ValueError as error:
        raise JobSpecError(str(error)) from error
    retry = None if args.no_retry else DEFAULT_REMOTE_POLICY
    try:
        with server_client.GatewayClient(args.gateway, retry=retry) as client:
            if args.no_wait:
                batch_id = client.submit(jobs, wait=False)
                print(batch_id)
                return 0
            report = client.submit(jobs, wait=True)
    except GatewayDrainingError as error:
        print(f"repro-warp: gateway draining: {error}", file=sys.stderr)
        return 3
    except GatewayBusyError as error:
        print(f"repro-warp: gateway busy (429): {error}", file=sys.stderr)
        return 3
    except (HandshakeError, ProtocolError, RemoteError,
            ConnectionError, OSError) as error:
        print(f"repro-warp: gateway {args.gateway}: {error}",
              file=sys.stderr)
        return 3
    return _emit_reports([report], args)


def _cmd_metrics(args) -> int:
    from .. import obs
    from ..server import client as server_client
    from ..server.protocol import HandshakeError, ProtocolError, RemoteError

    try:
        with server_client.GatewayClient(args.gateway) as client:
            reply = client.metrics(include_spans=args.spans or not args.prom)
    except (HandshakeError, ProtocolError, RemoteError,
            ConnectionError, OSError) as error:
        print(f"repro-warp: gateway {args.gateway}: {error}",
              file=sys.stderr)
        return 3
    if args.prom:
        text = obs.prometheus_text(reply.get("metrics") or {})
    else:
        payload = {key: reply.get(key)
                   for key in ("enabled", "queue_depth", "queue_limit",
                               "draining", "mode", "workers", "cursor",
                               "metrics")}
        if args.spans:
            payload["spans"] = reply.get("spans", [])
        text = json.dumps(payload, indent=2) + "\n"
    if args.out is not None:
        args.out.write_text(text)
        print(f"metrics written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


# ----------------------------------------------------------------- repro-warp top
def _samples(metrics: Dict, family: str) -> List[Dict]:
    return (metrics.get(family) or {}).get("samples", [])


def _render_top(reply: Dict, new_spans: int) -> str:
    """One ``repro-warp top`` frame from a ``metrics`` reply."""
    metrics = reply.get("metrics") or {}
    lines = [
        f"repro-warp top — mode={reply.get('mode')} "
        f"workers={reply.get('workers')}"
        + (" [DRAINING]" if reply.get("draining") else ""),
        f"queue: {reply.get('queue_depth')}/{reply.get('queue_limit')} jobs",
    ]
    for sample in _samples(metrics, "warp_queue_oldest_age_seconds"):
        if sample["value"] > 0:
            lines[-1] += f"  (oldest batch {sample['value']:.1f}s)"
    jobs: Dict[str, int] = {}
    for sample in _samples(metrics, "warp_jobs_total"):
        status = sample["labels"].get("status", "?")
        jobs[status] = jobs.get(status, 0) + int(sample["value"])
    if jobs:
        lines.append("jobs: " + "  ".join(f"{status}={count}" for
                                          status, count in sorted(jobs.items())))
    shards = _samples(metrics, "warp_shard_jobs_total")
    if shards:
        occupancy = "  ".join(
            f"shard {sample['labels'].get('shard')}:"
            f"{int(sample['value'])}" for sample in shards)
        lines.append(f"shard jobs: {occupancy}")
    stages: Dict[str, Dict[str, int]] = {}
    for sample in _samples(metrics, "warp_stage_lookups_total"):
        stage = sample["labels"].get("stage", "?")
        source = sample["labels"].get("source", "?")
        if source not in CACHE_SERVED_SOURCES and source != "miss":
            continue  # uncached stages have no hit rate to show
        bucket = stages.setdefault(stage, {"hits": 0, "misses": 0})
        if source in CACHE_SERVED_SOURCES:
            bucket["hits"] += int(sample["value"])
        else:
            bucket["misses"] += int(sample["value"])
    if stages:
        lines.append("stage hit rates:")
        for stage, bucket in stages.items():
            lookups = bucket["hits"] + bucket["misses"]
            rate = bucket["hits"] / lookups if lookups else 0.0
            lines.append(f"  {stage:<16s} {bucket['hits']:>5d} hits "
                         f"{bucket['misses']:>5d} misses  "
                         f"{100 * rate:5.1f}%")
    retries = {sample["labels"].get("site", "?"): int(sample["value"])
               for sample in _samples(metrics, "warp_retries_total")}
    timeouts = sum(int(sample["value"])
                   for sample in _samples(metrics, "warp_timeouts_total"))
    if retries or timeouts:
        parts = [f"{site}={count}" for site, count in sorted(retries.items())]
        lines.append(f"retries: {'  '.join(parts) if parts else 'none'}"
                     f"  timeouts: {timeouts}")
    lines.append(f"trace spans since last poll: {new_spans}")
    return "\n".join(lines) + "\n"


def _cmd_top(args) -> int:
    import time as _time

    from ..server import client as server_client
    from ..server.protocol import HandshakeError, ProtocolError, RemoteError

    cursor = 0
    polls = 0
    try:
        with server_client.GatewayClient(args.gateway) as client:
            while True:
                reply = client.metrics(since=cursor)
                new_spans = len(reply.get("spans", []))
                cursor = reply.get("cursor", cursor)
                if not reply.get("enabled", False):
                    print("gateway telemetry is disabled "
                          "(started with --no-telemetry)")
                    return 0
                if sys.stdout.isatty():  # pragma: no cover - interactive
                    sys.stdout.write("\x1b[2J\x1b[H")
                sys.stdout.write(_render_top(reply, new_spans))
                sys.stdout.flush()
                polls += 1
                if args.iterations and polls >= args.iterations:
                    return 0
                _time.sleep(max(0.1, args.interval))
    except KeyboardInterrupt:  # pragma: no cover - interactive
        return 0
    except (HandshakeError, ProtocolError, RemoteError,
            ConnectionError, OSError) as error:
        print(f"repro-warp: gateway {args.gateway}: {error}",
              file=sys.stderr)
        return 3


# --------------------------------------------------------------------------- entry point
def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    try:
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "submit":
            return _cmd_submit(args)
        if args.command == "metrics":
            return _cmd_metrics(args)
        if args.command == "top":
            return _cmd_top(args)
        if args.command == "suite":
            jobs = _sweep_jobs_from_args(args)
            repeats = max(1, args.repeat)
        elif args.command == "fuzz":
            jobs = _fuzz_jobs_from_args(args)
            repeats = 1
        else:
            jobs = load_job_file(args.jobfile)
            repeats = 1
    except JobSpecError as error:
        print(f"repro-warp: {error}", file=sys.stderr)
        return 2

    artifact_cache = None
    if args.store is not None:
        from .pool import configure_process_store
        artifact_cache = configure_process_store(args.store)

    with contextlib.ExitStack() as stack:
        if getattr(args, "chaos_seed", None) is not None:
            from .. import chaos
            # export=True ships the plan to pool workers through the
            # environment; recovery keeps the report identical to a
            # fault-free run, so this is a live drill, not a demo mode.
            stack.enter_context(chaos.active_plan(
                chaos.standard_plan(args.chaos_seed), export=True))
        telemetry = None
        if getattr(args, "trace_out", None) is not None:
            from .. import obs
            telemetry = stack.enter_context(obs.active_telemetry())
        service = stack.enter_context(
            WarpService(workers=args.workers, policy=args.policy,
                        artifact_cache=artifact_cache))
        reports: List[ServiceReport] = []
        for _ in range(repeats):
            reports.append(service.run(jobs))
        if telemetry is not None:
            telemetry.spans.export_jsonl(args.trace_out)
            print(f"trace spans written to {args.trace_out}",
                  file=sys.stderr)
    return _emit_reports(reports, args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
