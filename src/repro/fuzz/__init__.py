"""Differential fuzzing fleet for the warp simulator engine registry.

Three layers, each usable on its own:

- :mod:`repro.fuzz.generator` — seeded random MicroBlaze program
  generation (weighted profiles, nested loops, delay slots, imm prefixes,
  near-fault addressing, OPB traffic), reproducible from
  ``(seed, profile)`` and shrinkable.
- :mod:`repro.fuzz.harness` — run one program (or a whole campaign)
  across every registered engine and compare checksums, registers, BRAM
  images, statistics, memory-port counters and profiler rankings against
  the reference interpreter.
- :mod:`repro.fuzz.bisect` — on divergence, binary-search the first
  divergent instruction, replaying each probe from reset with one
  :func:`repro.microblaze.run_slice` budget, and emit a re-runnable
  :class:`~repro.fuzz.bisect.ReproBundle`.
"""

from .bisect import ReproBundle, bisect_divergence
from .generator import (
    GeneratorProfile,
    PROFILES,
    generate_program,
    generate_source,
    num_blocks,
    profile_names,
    resolve_profile,
    shrink,
)
from .harness import (
    CampaignReport,
    Divergence,
    EngineObservation,
    ProgramVerdict,
    REFERENCE_ENGINE,
    check_program,
    classify_divergence,
    fuzz_peripherals,
    observe,
    run_campaign,
)

__all__ = [
    "CampaignReport",
    "Divergence",
    "EngineObservation",
    "GeneratorProfile",
    "PROFILES",
    "ProgramVerdict",
    "REFERENCE_ENGINE",
    "ReproBundle",
    "bisect_divergence",
    "check_program",
    "classify_divergence",
    "fuzz_peripherals",
    "generate_program",
    "generate_source",
    "num_blocks",
    "observe",
    "profile_names",
    "resolve_profile",
    "run_campaign",
    "shrink",
]
