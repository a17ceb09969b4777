"""Shared fixtures for the test suite.

Heavy artifacts (compiled benchmark programs, warp runs) are cached at
session scope so the many tests that need "a compiled benchmark" do not
each pay for compilation and simulation again.
"""

from __future__ import annotations

import random

import pytest

from repro.apps import build_benchmark
from repro.compiler import compile_source
from repro.microblaze import PAPER_CONFIG


@pytest.fixture(scope="session")
def small_benchmarks():
    """Small instances of all six benchmarks, keyed by name."""
    from repro.apps import build_suite

    return {bench.name: bench for bench in build_suite(small=True)}


@pytest.fixture(scope="session")
def compiled_small_programs(small_benchmarks):
    """Compiled (paper configuration) program images of the small suite."""
    programs = {}
    for name, bench in small_benchmarks.items():
        programs[name] = compile_source(bench.source, name=name,
                                        config=PAPER_CONFIG).program
    return programs


@pytest.fixture(scope="session")
def warp_small_results(compiled_small_programs):
    """Warp-processing results for the small suite (computed once)."""
    from repro.warp import WarpProcessor

    processor = WarpProcessor(config=PAPER_CONFIG)
    return {name: processor.run(program.copy())
            for name, program in compiled_small_programs.items()}


#: Kernel -> (size parameter, smallest size, size step, largest size) of
#: the fresh-program epochs: each kernel at sizes from its small end to
#: about twice that, as in the ``fresh-programs`` benchmark workload.
FRESH_SIZES = {
    "brev": ("count", 32, 1, 64),
    "g3fax": ("num_runs", 16, 1, 32),
    "canrdr": ("count", 64, 1, 128),
    "bitmnp": ("count", 32, 4, 64),
    "idct": ("num_blocks", 1, 1, 2),
    "matmul": ("n", 6, 1, 12),
}


def fresh_epoch(seed: int):
    """One epoch of distinct user programs: per kernel, five programs at
    one size from each third of its size range, each with its own data
    seed.  A pure function of ``seed``."""
    rng = random.Random(f"fresh-epoch:{seed}")
    epoch = []
    for kernel, (parameter, low, step, high) in FRESH_SIZES.items():
        choices = list(range(low, high + 1, step))
        bins = min(3, len(choices))
        sizes = [rng.choice(choices[len(choices) * part // bins:
                                    len(choices) * (part + 1) // bins])
                 for part in range(bins)]
        for index in range(5):
            epoch.append(build_benchmark(kernel, **{
                parameter: sizes[index % bins],
                "seed": rng.getrandbits(31)}))
    return epoch


@pytest.fixture(scope="session")
def fresh_epochs():
    """Two fresh-program epochs (seeds 1 and 2), 30 programs each."""
    return [fresh_epoch(seed) for seed in (1, 2)]
