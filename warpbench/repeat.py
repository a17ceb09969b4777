"""Repeatability check: run one workload on several seeds and report, per
metric, the median and the inter-quartile spread as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound.

    python3 warpbench/repeat.py --workload gateway-small --seeds 1-10 \\
        [--seconds 15] [--trace 0]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from warpbench.stats import relative_spread  # noqa: E402


def _seeds(text: str):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None \
        else spec["run_seconds"]
    values = {}
    for seed in _seeds(args.seeds):
        done = subprocess.run(
            [sys.executable, str(ROOT / "warpbench" / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT)
        if done.returncode != 0:
            print(done.stdout[-2000:], done.stderr[-2000:], file=sys.stderr)
            return done.returncode
        line = json.loads(done.stdout.splitlines()[-1])
        for name, metric in line["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{name}={metric['value']:.4g}"
            for name, metric in line["metrics"].items()), flush=True)
    bounds = {metric["name"]: metric.get("bound")
              for metric in spec["end_to_end"]}
    for name, series in values.items():
        spread = relative_spread(series) if len(series) >= 2 else 0.0
        bound = bounds.get(name)
        verdict = "" if bound is None else (
            f"bound {bound:g} -> {'ok' if spread < bound / 3 else 'WIDE'}")
        print(f"{name:32s} median {statistics.median(series):12.6g} "
              f"spread {spread:7.4f} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
