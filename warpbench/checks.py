"""Correctness checks that run outside the timed window.

Every distinct program a workload submitted is run once more, here, on a
:class:`~repro.warp.processor.WarpProcessor`: its software-only (profiling)
run must return the checksum of the independent Python reference in
``repro.apps``, and the instruction counts of its profiling and warp runs
give ``sim_mips``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from .stats import model_errors

#: ``Benchmark.expected_checksum`` is signed and ``return_value`` unsigned
#: (``bitmnp`` differs only in sign), so both are compared as 32-bit words.
WORD_MASK = 0xFFFFFFFF


def checksum_matches(return_value: int, expected: int) -> bool:
    return (return_value & WORD_MASK) == (expected & WORD_MASK)


class ProgramChecker:
    """Runs each distinct program once; remembers verdict and counts."""

    def __init__(self):
        from repro.cad import CadArtifactCache
        self.cache = CadArtifactCache()
        self._verdicts: Dict[Tuple, Tuple[bool, int]] = {}
        self.programs_checked = 0
        self.programs_failed = 0

    def _check(self, job, expected: Dict[str, int]) -> Tuple[bool, int]:
        key = job.dedup_key()
        verdict = self._verdicts.get(key)
        if verdict is not None:
            return verdict
        from repro.apps.suite import build_benchmark
        from repro.compiler import compile_source_cached
        from repro.warp.processor import WarpProcessor
        if job.benchmark is not None:
            bench = build_benchmark(job.benchmark, small=job.small)
            source, name, want = bench.source, bench.name, \
                bench.expected_checksum
        else:
            source, name, want = job.source, job.name, expected[job.name]
        program = compile_source_cached(source, name=name,
                                        config=job.config).program
        run = WarpProcessor(config=job.config, wcla=job.wcla,
                            engine=job.engine,
                            artifact_cache=self.cache).run(
            program, max_instructions=job.max_instructions)
        instructions = run.software_result.instructions
        if run.warp_mb_result is not None:
            instructions += run.warp_mb_result.instructions
        ok = checksum_matches(run.software_result.return_value, want)
        self.programs_checked += 1
        self.programs_failed += 0 if ok else 1
        verdict = self._verdicts[key] = (ok, instructions)
        return verdict

    def check_jobs(self, jobs: Iterable, expected: Dict[str, int]) -> int:
        """Number of ``jobs`` whose program fails its reference check."""
        return sum(0 if self._check(job, expected)[0] else 1
                   for job in jobs)

    def instructions(self, job) -> int:
        """Profiling-run plus warp-run instructions of a checked job."""
        return self._verdicts[job.dedup_key()][1]


def suite_model_errors(results: Sequence) -> Tuple[float, float, int]:
    """``(model_speedup_err, model_energy_err, failed)`` over the paper
    suite's results (``ServiceResult`` objects, summed in name order so
    the figures do not depend on submission order)."""
    results = sorted(results, key=lambda result: result.job_name)
    failed = sum(0 if result.ok and result.checksum_ok else 1
                 for result in results)
    speedup_err, energy_err = model_errors(
        [result.speedup for result in results],
        [result.normalized_warp_energy for result in results])
    return speedup_err, energy_err, failed


def paper_suite_results() -> List:
    """One pass of the six full-size benchmarks through a fresh in-process
    service."""
    from repro.service.pool import WarpService
    from .workloads import paper_suite_jobs
    return WarpService(workers=0).run(paper_suite_jobs()).results
