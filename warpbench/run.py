"""Benchmark command: one workload, every metric, one JSON line.

Usage (from the root of a checkout)::

    python3 warpbench/run.py --workload paper-suite-warm --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs half the window untraced and half with the layer
wrappers of :mod:`warpbench.tracing` installed, prints the "where the time
went" table and the per-layer metrics, and writes ``spans.jsonl``,
``layers.json`` and ``where_the_time_went.txt`` to
``.warpbench_out/<workload>-seed<n>-trace1/``.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; the exit code
is non-zero when any correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".warpbench_out"
#: Extra set-ups (fresh processes) per untraced run; ``setup_s`` is the
#: median of these and the run's own set-up.
SETUP_REPEATS = 4
PROBE_TIMEOUT_S = 120


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once in this process, print setup_s "
                             "and exit (the extra set-up samples)")
    return parser.parse_args(argv)


def _probe_setups(args):
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "0", "--setup-only"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            check=True)
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"warpbench: no src/repro under {ROOT}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from warpbench import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"warpbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    in_process = args.workload != workloads.GATEWAY_SMALL

    if args.setup_only:
        from warpbench.inprocess import InProcessWorkload
        setup_s = InProcessWorkload(args.workload, args.seed).setup()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    outdir = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)

    if args.trace:
        from warpbench.tracing import render_table, write_spans
        if in_process:
            from warpbench import inprocess
            result = inprocess.run_traced(args.workload, args.seed,
                                          args.seconds)
        else:
            from warpbench import gateway
            result = gateway.run_traced(args.seed, args.seconds, outdir)
        table = values = result["table"]
        write_spans(result["spans"], outdir / "spans.jsonl")
        (outdir / "layers.json").write_text(json.dumps(
            {key: value for key, value in table.items() if key != "rows"},
            indent=2))
        report = render_table(args.workload, table)
        (outdir / "where_the_time_went.txt").write_text(report + "\n")
        print(report)
        print(f"tracing overhead: untraced jobs_per_s is "
              f"{100 * table['tracing.overhead_ratio']:+.1f}% vs traced")
    else:
        if in_process:
            from warpbench import inprocess
            result = inprocess.run_untraced(
                args.workload, args.seed, args.seconds,
                lambda: _probe_setups(args))
        else:
            from warpbench import gateway
            result = gateway.run_untraced(args.seed, args.seconds, outdir,
                                          SETUP_REPEATS)
        values = result["metrics"]
        latency = result["latency"]
        print(f"latency samples: {latency['samples']} (highest percentile "
              f"with >= 10 samples beyond it: p{latency['top_pct']:g} = "
              f"{latency['top'] * 1e3:.2f} ms)")
        for note in result["notes"]:
            print(note)

    metrics = {}
    for metric in wanted:
        value = float(values[metric["name"]])
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{args.workload} {metric['name']} = {value:.6g} "
              f"{metric['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"failed_ratio = {failed / attempted:.6g} "
          f"({failed} of {attempted} jobs failed a check)")
    line = {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}
    (outdir / "result.json").write_text(json.dumps(line, indent=2))
    print(json.dumps(line))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
