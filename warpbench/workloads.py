"""Workload generation: a pure function of the workload name and the seed.

Three workloads, each stressing different layers of a warp job:

* ``paper-suite-warm`` — the paper's six full-size benchmarks through an
  in-process ``WarpService(workers=0)``, pass after pass, with the compile
  memo and CAD cache warm.  The seed only permutes the job order of each
  pass.  Time goes to the WCLA kernel model and the MicroBlaze simulation.
* ``fresh-programs`` — a stream of distinct user programs (``WarpJob(source=
  ...)``), so every job misses the compile memo and the engines translate
  from scratch.  The stream comes in epochs of :data:`EPOCH_JOBS` jobs, each
  epoch run through a fresh service with a fresh CAD cache: per kernel five
  programs at three sizes (two for ``idct``, whose size range is 1..2), so
  about 57% of jobs run the CAD flow and the rest share a kernel with an
  earlier job of the epoch (same size, other data) and hit the CAD cache.
  Every epoch has the same structure, so the mix does not drift with the
  length of a run.
* ``gateway-small`` — the small suite under the paper and minimal
  configurations, in a seeded order, sent as 1-job batches by one
  closed-loop client to a ``repro-warp serve`` subprocess; per-job work is
  small, so wire framing, admission, scheduling and pool dispatch are a
  large share of a request.

Only the generated jobs reach the program under test; expected checksums
come from the independent Python references in ``repro.apps``.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Iterator, List, Tuple

PAPER_SUITE_WARM = "paper-suite-warm"
FRESH_PROGRAMS = "fresh-programs"
GATEWAY_SMALL = "gateway-small"
WORKLOADS = (PAPER_SUITE_WARM, FRESH_PROGRAMS, GATEWAY_SMALL)

#: Kernel -> (size parameter, small size, size step, largest size).  Sizes
#: run from the small end to about twice the small end; ``bitmnp`` packs
#: four words per iteration, so its count steps by 4.
FRESH_SIZES: Dict[str, Tuple[str, int, int, int]] = {
    "brev": ("count", 32, 1, 64),
    "g3fax": ("num_runs", 16, 1, 32),
    "canrdr": ("count", 64, 1, 128),
    "bitmnp": ("count", 32, 4, 64),
    "idct": ("num_blocks", 1, 1, 2),
    "matmul": ("n", 6, 1, 12),
}
#: Programs per kernel in one epoch, and the distinct sizes among them.
PROGRAMS_PER_KERNEL = 5
SIZES_PER_KERNEL = 3
EPOCH_JOBS = PROGRAMS_PER_KERNEL * len(FRESH_SIZES)


def _rng(*parts) -> random.Random:
    # A str seed is hashed with SHA-512, so the stream is the same in every
    # interpreter, whatever PYTHONHASHSEED is.
    return random.Random(":".join(str(part) for part in parts))


def paper_suite_jobs():
    """The six full-size benchmarks on the registry's default engine."""
    from repro.service.jobs import suite_sweep_jobs
    return suite_sweep_jobs(engines=(None,))


def paper_suite_passes(seed: int) -> Iterator[List]:
    """The passes of ``paper-suite-warm`` (the first is the warm-up): the
    suite in a fresh seeded order each pass."""
    rng = _rng(PAPER_SUITE_WARM, seed)
    while True:
        jobs = paper_suite_jobs()
        rng.shuffle(jobs)
        yield jobs


def fresh_epochs(seed: int) -> Iterator[List[Tuple[object, int]]]:
    """The epochs of ``fresh-programs``: lists of ``(WarpJob, expected
    checksum)`` pairs, every program distinct content."""
    from repro.apps.suite import build_benchmark
    from repro.service.jobs import WarpJob

    rng = _rng(FRESH_PROGRAMS, seed)
    for epoch in itertools.count():
        entries = []
        for kernel, (parameter, low, step, high) in FRESH_SIZES.items():
            choices = list(range(low, high + 1, step))
            # One size from each third of the range, so every epoch (and
            # every seed) spans small to large alike.
            bins = min(SIZES_PER_KERNEL, len(choices))
            sizes = [rng.choice(choices[len(choices) * part // bins:
                                        len(choices) * (part + 1) // bins])
                     for part in range(bins)]
            for index in range(PROGRAMS_PER_KERNEL):
                entries.append((kernel, parameter, sizes[index % len(sizes)],
                                rng.getrandbits(31)))
        rng.shuffle(entries)
        out = []
        for index, (kernel, parameter, size, data_seed) in enumerate(entries):
            bench = build_benchmark(kernel, **{parameter: size,
                                               "seed": data_seed})
            job = WarpJob(name=f"e{epoch}.{index}.{kernel}{size}",
                          source=bench.source)
            out.append((job, bench.expected_checksum))
        yield out


def gateway_job_pool():
    """The 12 distinct ``gateway-small`` jobs: small suite x {paper,
    minimal}."""
    from repro.microblaze.config import MINIMAL_CONFIG, PAPER_CONFIG
    from repro.service.jobs import suite_sweep_jobs
    return suite_sweep_jobs(configs=[("paper", PAPER_CONFIG),
                                     ("minimal", MINIMAL_CONFIG)],
                            engines=(None,), small=True)


def gateway_stream(seed: int) -> Iterator:
    """The client's endless stream: the job pool in a fresh seeded order
    each round, so every seed sends the same mix."""
    pool = gateway_job_pool()
    rng = _rng(GATEWAY_SMALL, seed)
    while True:
        rng.shuffle(pool)
        yield from pool


def describe(workload: str, seed: int, count: int) -> List:
    """The first ``count`` jobs a workload would submit for ``seed`` — the
    job list the reproducibility check compares."""
    if workload == PAPER_SUITE_WARM:
        jobs = itertools.chain.from_iterable(paper_suite_passes(seed))
    elif workload == FRESH_PROGRAMS:
        jobs = (job for epoch in fresh_epochs(seed) for job, _ in epoch)
    elif workload == GATEWAY_SMALL:
        jobs = gateway_stream(seed)
    else:
        raise ValueError(f"unknown workload {workload!r}; known: "
                         f"{', '.join(WORKLOADS)}")
    return list(itertools.islice(jobs, count))
