"""The backward-branch hook against a step-driven reference.

The reference single-steps the ``interp`` engine with ``cpu.step()`` and
records ``(pc, new_pc)`` whenever the instruction at ``pc`` is a branch
and control went backwards (``new_pc < pc``): a taken backward branch,
read off the architectural state alone, without any observer.  The hook
path — an observer attached to an ordinary run on every registered
engine — must deliver exactly that stream, and an on-chip profiler fed
either way must end with identical cache state, critical regions and
``instructions_observed``.  The corpus is the six benchmarks at small and
full size plus generated programs (most of the ``faulty`` profile's runs
fault part-way), over the paper's 16-entry/4-way cache and a 4-entry/2-way
one that evicts constantly.
"""

from __future__ import annotations

import functools

import pytest

from repro.apps import build_suite
from repro.compiler import compile_source_cached
from repro.fuzz import generate_program
from repro.microblaze import (
    ExecutionLimitExceeded,
    MicroBlazeSystem,
    PAPER_CONFIG,
    engine_names,
)
from repro.profiler import BranchFrequencyCache, OnChipProfiler

#: Per-run instruction budget.  Generated programs are bounded by
#: construction; the budget only keeps a broken engine from hanging.
BUDGET = 2_000_000

GEOMETRIES = [(16, 4), (4, 2)]

#: Corpus keys: ``bench:<name>:<small|full>`` and ``gen:<profile>:<seed>``.
CORPUS = [f"bench:{bench.name}:{size}" for size in ("small", "full")
          for bench in build_suite(small=size == "small")]
CORPUS += [f"gen:{profile}:{seed}"
           for profile in ("alu", "branchy", "memory", "mixed", "faulty")
           for seed in range(6)]


@functools.lru_cache(maxsize=None)
def _program(key: str):
    kind, name, variant = key.split(":")
    if kind == "gen":
        return generate_program(int(variant), name)
    (bench,) = build_suite(small=variant == "small", names=[name])
    return compile_source_cached(bench.source, name=name,
                                 config=PAPER_CONFIG).program


@functools.lru_cache(maxsize=None)
def _reference(key: str):
    """``(backward branches, instructions, outcome)`` of a step-driven
    ``interp`` run of the corpus program ``key``."""
    system = MicroBlazeSystem(config=PAPER_CONFIG, engine="interp")
    system.start(_program(key))
    cpu = system.cpu
    branches = []
    outcome = "halted"
    try:
        while not cpu.halted:
            if cpu.stats.instructions >= BUDGET:
                raise ExecutionLimitExceeded(f"exceeded {BUDGET}")
            pc = cpu.pc
            cpu.step()
            if cpu.fetch(pc).is_branch and cpu.pc < pc:
                branches.append((pc, cpu.pc))
    except Exception as error:  # noqa: BLE001 - the fault is compared
        outcome = f"{type(error).__name__}: {error}"
    return tuple(branches), cpu.stats.instructions, outcome


class _Recorder:
    def __init__(self):
        self.branches = []

    def on_backward_branch(self, pc, target):
        self.branches.append((pc, target))


def _hook_run(key: str, engine: str):
    """Run corpus program ``key`` on ``engine`` with a recorder and one
    profiler per cache geometry attached."""
    recorder = _Recorder()
    profilers = [OnChipProfiler(BranchFrequencyCache(*geometry))
                 for geometry in GEOMETRIES]
    system = MicroBlazeSystem(config=PAPER_CONFIG, engine=engine)
    outcome = "halted"
    try:
        system.run(_program(key), listeners=[recorder, *profilers],
                   max_instructions=BUDGET)
    except Exception as error:  # noqa: BLE001 - the fault is compared
        outcome = f"{type(error).__name__}: {error}"
    return tuple(recorder.branches), profilers, outcome


def _cache_state(profiler):
    cache = profiler.cache
    return ([[(e.target_address, e.branch_address, e.count)
              for e in bucket] for bucket in cache.sets],
            cache.evictions, cache.updates, profiler.critical_regions())


@pytest.mark.parametrize("engine", engine_names())
@pytest.mark.parametrize("key", CORPUS)
def test_hook_matches_step_reference(engine, key):
    branches, instructions, outcome = _reference(key)
    if key.startswith("bench:"):
        assert outcome == "halted" and branches  # every kernel loops
    # Faulted runs too: the instruction count a profiler observes at a
    # fault is the interpreter's.
    observed, profilers, observed_outcome = _hook_run(key, engine)
    assert observed_outcome == outcome
    assert observed == branches
    for geometry, profiler in zip(GEOMETRIES, profilers):
        reference = OnChipProfiler(BranchFrequencyCache(*geometry))
        for pc, target in branches:
            reference.on_backward_branch(pc, target)
        assert _cache_state(profiler) == _cache_state(reference)
        assert profiler.instructions_observed == instructions


def test_faulty_corpus_exercises_faults():
    """Most of the ``faulty`` slice of the corpus really faults part-way,
    both on a misaligned access and in an unexecutable delay slot after
    loop iterations were observed."""
    faulty = [_reference(key) for key in CORPUS
              if key.startswith("gen:faulty:")]
    faulted = [(branches, outcome) for branches, _, outcome in faulty
               if outcome != "halted"]
    assert len(faulted) > len(faulty) // 2
    assert any(branches and "misaligned" in outcome
               for branches, outcome in faulted)
    assert any(branches and "delay slot" in outcome
               for branches, outcome in faulted)
