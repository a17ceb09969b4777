"""Pure helpers: percentiles, median-of-chunks rates, the end-to-end
metric set, the model-error arithmetic and span self time."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: The paper's suite-mean warp speedup over the software-only MicroBlaze.
PAPER_MEAN_SPEEDUP = 5.8
#: The paper's suite-mean warp energy reduction (1 - normalized energy).
PAPER_MEAN_ENERGY_REDUCTION = 0.57

#: Percentiles a latency may be reported at, lowest first.
CANDIDATE_PERCENTILES = (50.0, 90.0, 99.0, 99.9)
#: A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10
#: Seconds of measured time per chunk of a median-of-chunks rate.
RATE_CHUNK_S = 1.0


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``pct``
    percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < pct <= 100.0:
        raise ValueError(f"percentile {pct} outside (0, 100]")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), pct) - 1]


def _rank(count: int, pct: float) -> int:
    # Rounded first, so 99.9% of 10000 is rank 9990 and not 9991.
    return max(1, math.ceil(round(pct * count / 100.0, 9)))


def samples_beyond(count: int, pct: float) -> int:
    """Samples strictly above the nearest-rank ``pct`` percentile of
    ``count`` samples."""
    return count - _rank(count, pct)


def highest_percentile(count: int) -> Optional[float]:
    """The highest candidate percentile with at least
    :data:`MIN_SAMPLES_BEYOND` samples beyond it, or ``None``."""
    best = None
    for pct in CANDIDATE_PERCENTILES:
        if samples_beyond(count, pct) >= MIN_SAMPLES_BEYOND:
            best = pct
    return best


def latency_summary(values: Sequence[float]) -> Dict[str, float]:
    """p50 and p90 with the sample count and the highest percentile the
    sample supports; refuses a sample too small to report p90."""
    count = len(values)
    top = highest_percentile(count)
    if top is None or top < 90.0:
        raise ValueError(
            f"{count} latency samples: p90 needs at least "
            f"{MIN_SAMPLES_BEYOND} samples beyond it")
    return {"p50": percentile(values, 50.0), "p90": percentile(values, 90.0),
            "samples": count, "top_pct": top,
            "top": percentile(values, top)}


def median_rate(events: Iterable[Tuple[float, float]],
                chunk_s: float = RATE_CHUNK_S) -> float:
    """Median over consecutive chunks of at least ``chunk_s`` seconds of
    each chunk's amount per second.

    ``events`` are ``(seconds, amount)`` pairs in time order.  The host
    slows in bursts of a few seconds; the median of ~1 s chunks keeps a
    burst from moving a run's rate as much as it moves the mean.  A
    trailing chunk shorter than ``chunk_s`` is dropped.
    """
    rates = []
    seconds = amount = 0.0
    for duration, value in events:
        seconds += duration
        amount += value
        if seconds >= chunk_s:
            rates.append(amount / seconds)
            seconds = amount = 0.0
    if not rates:
        raise ValueError(f"a rate needs at least {chunk_s} s of events")
    return statistics.median(rates)


def end_to_end_metrics(*, jobs: Sequence[Tuple[float, float]],
                       instructions: Sequence[Tuple[float, float]],
                       latency: Dict[str, float],
                       setup_s: Sequence[float], peak_rss_mb: float,
                       failed: int, attempted: int,
                       model_errs: Tuple[float, float]) -> Dict[str, float]:
    """The end-to-end metrics of one run, as ``BENCHMARK.json`` names
    them.  ``jobs`` and ``instructions`` are the ``(seconds, amount)``
    events of :func:`median_rate`; ``setup_s`` is the median of the
    set-up samples."""
    return {
        "jobs_per_s": median_rate(jobs),
        "latency_p50_ms": latency["p50"] * 1e3,
        "latency_p90_ms": latency["p90"] * 1e3,
        "sim_mips": median_rate(instructions) / 1e6,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb,
        "success_ratio": 1.0 - failed / attempted,
        "model_speedup_err": model_errs[0],
        "model_energy_err": model_errs[1],
    }


def model_errors(speedups: Sequence[float],
                 normalized_energies: Sequence[float]) -> Tuple[float, float]:
    """Relative error of the modelled suite-mean speedup and energy
    reduction against the paper's 5.8x and 57%."""
    if not speedups or len(speedups) != len(normalized_energies):
        raise ValueError("need one speedup and one energy per benchmark")
    mean_speedup = sum(speedups) / len(speedups)
    reduction = 1.0 - sum(normalized_energies) / len(normalized_energies)
    return (abs(mean_speedup - PAPER_MEAN_SPEEDUP) / PAPER_MEAN_SPEEDUP,
            abs(reduction - PAPER_MEAN_ENERGY_REDUCTION)
            / PAPER_MEAN_ENERGY_REDUCTION)


def covered_length(intervals: Iterable[Tuple[float, float]],
                   start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals
                     if min(b, end) > max(a, start))
    total = 0.0
    cursor = start
    for a, b in clipped:
        if b <= cursor:
            continue
        total += b - max(a, cursor)
        cursor = b
    return total


def self_times(spans: Sequence[Dict]) -> Dict[str, float]:
    """Span id -> self time: the span's duration minus the part of its
    interval that its child spans cover.

    Each span is a mapping with ``span_id``, ``parent_id``, ``start`` and
    ``end`` (seconds on one clock).
    """
    children: Dict[str, List[Tuple[float, float]]] = {}
    for span in spans:
        parent = span.get("parent_id")
        if parent is not None:
            children.setdefault(parent, []).append((span["start"],
                                                    span["end"]))
    return {span["span_id"]: (span["end"] - span["start"])
            - covered_length(children.get(span["span_id"], ()),
                             span["start"], span["end"])
            for span in spans}


def relative_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the repeatability
    rule the benchmark's bounds are checked against)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0
