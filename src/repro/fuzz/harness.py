"""Registry-wide differential execution of generated programs.

For one generated kernel the harness runs the reference interpreter and
every other registered engine (optionally also in ``precise_fault_stats``
mode), captures a full :class:`EngineObservation` from each run — outcome,
checksum, register file, program counter, data image, execution
statistics, memory-port counters, OPB traffic and the on-chip profiler's
state (resident cache entries per set, evictions and updates, critical
regions and ``instructions_observed``) — and reports every component in
which an engine disagrees with the reference.

The ROADMAP carries one *documented* divergence: default-mode
(non-``precise_fault_stats``) block engines may skew statistics when a
runtime fault lands mid-block, with identical register file and data
memory (the tier-1 guarantee tested by
``test_default_mode_keeps_architectural_state``).  The harness classifies
exactly that shape — default mode, both runs faulted with the same error,
differences confined to the statistics-derived components (``stats``,
port counters, ``profiler``) and the fault-time ``pc`` — as a **known**
divergence (its own counter and report field) so a campaign surfaces it
without drowning real bugs in it.  A second, narrower known shape exists
in precise mode: block scanners fetch ahead of execution, so a faulted
run may over-count the *instruction* fetch port by the lookahead words
(``instr_ports`` only).  Everything else is *unexplained* and fails the
campaign.

:func:`run_campaign` is the fleet entry point: a seed range through one
profile, every engine, counters published to the live telemetry plane
(``warp_fuzz_*`` families) and divergences automatically bisected to a
replayable repro bundle (see :mod:`repro.fuzz.bisect`).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..isa.program import Program
from ..microblaze import (
    ExecutionLimitExceeded,
    MicroBlazeSystem,
    PAPER_CONFIG,
)
from ..microblaze.config import MicroBlazeConfig
from ..microblaze.engines import engine_names, validate_engine_name
from ..microblaze.opb import OPB_BASE_ADDRESS, SimplePeripheral
from ..profiler.profiler import OnChipProfiler
from .generator import generate_program, resolve_profile

#: Reference engine every other engine is compared against.
REFERENCE_ENGINE = "interp"

#: Default per-run instruction budget.  Generated programs are bounded by
#: construction (all loops are down-counters); an engine that fails to
#: terminate within this budget shows up as an ``outcome`` divergence.
DEFAULT_MAX_INSTRUCTIONS = 2_000_000


def fuzz_peripherals() -> Tuple[SimplePeripheral, ...]:
    """Fresh peripherals for one run of an OPB-traffic program (one
    4-register device at the OPB base, matching the generator's window)."""
    return (SimplePeripheral(OPB_BASE_ADDRESS, num_registers=4,
                             name="fuzz-opb"),)


# ------------------------------------------------------------------ observation
@dataclass
class EngineObservation:
    """Everything one engine's run of one program exposes for comparison."""

    engine: str
    precise_fault_stats: bool
    #: ``"halted"`` | ``"fault"`` | ``"limit"``
    outcome: str
    error: Optional[str]
    checksum: int
    pc: int
    registers: List[int]
    stats: Dict
    ports: Dict[str, int]
    opb: Dict[str, object]
    profiler: Dict[str, object]
    #: Full data BRAM image (kept for state diffs; compared via digest).
    data: bytes = b""

    def comparable(self) -> Dict[str, object]:
        """The named components a differential comparison runs over."""
        return {
            "outcome": (self.outcome, self.error),
            "checksum": self.checksum,
            "registers": tuple(self.registers),
            "pc": self.pc,
            "data": hashlib.sha256(self.data).hexdigest(),
            "stats": tuple(sorted(self.stats.items(),
                                  key=lambda item: repr(item[0]))),
            # Instruction- and data-side port counters are separate
            # components: translation lookahead legitimately skews the
            # instruction side on faulted runs, never the data side.
            "instr_ports": tuple(sorted(
                (key, count) for key, count in self.ports.items()
                if key.startswith("instr"))),
            "data_ports": tuple(sorted(
                (key, count) for key, count in self.ports.items()
                if not key.startswith("instr"))),
            "opb": tuple(sorted((key, repr(value))
                                for key, value in self.opb.items())),
            "profiler": tuple(sorted((key, repr(value))
                                     for key, value in
                                     self.profiler.items())),
        }


def _build_system(engine: str, precise_fault_stats: bool,
                  config: MicroBlazeConfig,
                  with_opb: bool) -> MicroBlazeSystem:
    peripherals = fuzz_peripherals() if with_opb else ()
    return MicroBlazeSystem(config=config, peripherals=peripherals,
                            engine=engine,
                            precise_fault_stats=precise_fault_stats)


def observe(program: Program, engine: str, *,
            precise_fault_stats: bool = False,
            config: MicroBlazeConfig = PAPER_CONFIG,
            with_opb: bool = False,
            max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
            ) -> EngineObservation:
    """Run ``program`` once on ``engine`` and capture the full observation.

    Faults and budget exhaustion are observations, not errors: the
    *outcome* (including the fault type and message) is itself a compared
    component, so an engine that faults differently — or fails to
    terminate when the reference halts — diverges loudly.
    """
    system = _build_system(engine, precise_fault_stats, config, with_opb)
    profiler = OnChipProfiler()
    system.cpu.add_listener(profiler)
    outcome, error = "halted", None
    try:
        try:
            system.run(program, max_instructions=max_instructions)
        finally:
            system.cpu.remove_listener(profiler)
    except ExecutionLimitExceeded as limit:
        outcome, error = "limit", f"{type(limit).__name__}: {limit}"
    except Exception as fault:  # noqa: BLE001 - fault type is compared
        outcome, error = "fault", f"{type(fault).__name__}: {fault}"
    opb_state: Dict[str, object] = {
        "reads": system.opb.reads,
        "writes": system.opb.writes,
    }
    for peripheral in system.opb.peripherals:
        snapshot = getattr(peripheral, "snapshot_state", None)
        if callable(snapshot):
            opb_state[peripheral.name] = snapshot()
    return EngineObservation(
        engine=engine,
        precise_fault_stats=precise_fault_stats,
        outcome=outcome,
        error=error,
        checksum=system.cpu.read_register(3),
        pc=system.cpu.pc,
        registers=list(system.cpu.registers),
        stats=system.cpu.stats.to_plain(),
        ports={
            "data_a": system.data_bram.port_a_accesses,
            "data_b": system.data_bram.port_b_accesses,
            "instr_a": system.instr_bram.port_a_accesses,
            "instr_b": system.instr_bram.port_b_accesses,
        },
        opb=opb_state,
        profiler={
            "cache_sets": [[(entry.target_address, entry.branch_address,
                             entry.count) for entry in bucket]
                           for bucket in profiler.cache.sets],
            "cache_counters": (profiler.cache.evictions,
                               profiler.cache.updates),
            "critical_regions": profiler.critical_regions(),
            "instructions_observed": profiler.instructions_observed,
        },
        data=bytes(system.data_bram.storage),
    )


# ------------------------------------------------------------------- divergence
@dataclass
class Divergence:
    """One engine disagreeing with the reference on one program."""

    seed: int
    profile: str
    engine: str
    reference: str
    precise_fault_stats: bool
    #: Names of the differing observation components.
    fields: Tuple[str, ...]
    #: True when this is the ROADMAP's documented default-mode
    #: mid-block-fault statistics skew (two identically-faulted runs with
    #: ``precise_fault_stats=False`` differing only in statistics-derived
    #: components and the fault-time pc).
    known: bool

    def to_plain(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "profile": self.profile,
            "engine": self.engine,
            "reference": self.reference,
            "precise_fault_stats": self.precise_fault_stats,
            "fields": list(self.fields),
            "known": self.known,
        }


#: Components default-mode block engines may legitimately skew when a
#: fault lands mid-block: the deferred statistics themselves, anything
#: derived from the instruction stream (port counters, profiler
#: rankings) and the fault-time pc.  Registers, checksum, data image,
#: OPB state and the outcome (fault type + message) must still match —
#: the tier-1 architectural guarantee.
KNOWN_FAULT_SKEW_FIELDS = frozenset({"stats", "instr_ports", "data_ports",
                                     "profiler", "pc"})

#: In ``precise_fault_stats`` mode the execution statistics, fault pc and
#: data side are interpreter-exact; only the instruction-fetch port may
#: still over-count on a faulted run, by the words the block scanner
#: fetched past the fault point (translation lookahead).
KNOWN_PRECISE_FAULT_SKEW_FIELDS = frozenset({"instr_ports"})


def classify_divergence(fields: Sequence[str], *, precise_fault_stats: bool,
                        reference_outcome: str, engine_outcome: str) -> bool:
    """True when a divergence matches a documented known shape."""
    if reference_outcome != "fault" or engine_outcome != "fault":
        return False
    allowed = KNOWN_PRECISE_FAULT_SKEW_FIELDS if precise_fault_stats \
        else KNOWN_FAULT_SKEW_FIELDS
    return set(fields) <= allowed


def compare_observations(reference: EngineObservation,
                         observed: EngineObservation) -> Tuple[str, ...]:
    """Names of the components in which ``observed`` differs."""
    left, right = reference.comparable(), observed.comparable()
    return tuple(name for name in left if left[name] != right[name])


@dataclass
class ProgramVerdict:
    """Differential outcome of one generated program across the fleet."""

    seed: int
    profile: str
    engines: Tuple[str, ...]
    #: Reference-run instruction count (per precise mode).
    instructions: int
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def unexplained(self) -> List[Divergence]:
        return [d for d in self.divergences if not d.known]

    @property
    def known(self) -> List[Divergence]:
        return [d for d in self.divergences if d.known]


def check_program(program: Program, *, seed: int = -1, profile: str = "?",
                  engines: Optional[Sequence[str]] = None,
                  precise_modes: Sequence[bool] = (False,),
                  config: MicroBlazeConfig = PAPER_CONFIG,
                  with_opb: bool = False,
                  max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
                  ) -> ProgramVerdict:
    """Run ``program`` across every engine (× precise modes) and compare
    each against the reference interpreter."""
    if engines is None:
        engines = engine_names()
    engines = tuple(validate_engine_name(name) for name in engines)
    verdict = ProgramVerdict(seed=seed, profile=profile, engines=engines,
                             instructions=0)
    for precise in precise_modes:
        reference = observe(program, REFERENCE_ENGINE,
                            precise_fault_stats=precise, config=config,
                            with_opb=with_opb,
                            max_instructions=max_instructions)
        verdict.instructions = max(verdict.instructions,
                                   reference.stats["instructions"])
        for engine in engines:
            if engine == REFERENCE_ENGINE:
                continue
            observed = observe(program, engine, precise_fault_stats=precise,
                               config=config, with_opb=with_opb,
                               max_instructions=max_instructions)
            fields = compare_observations(reference, observed)
            if fields:
                verdict.divergences.append(Divergence(
                    seed=seed, profile=profile, engine=engine,
                    reference=REFERENCE_ENGINE, precise_fault_stats=precise,
                    fields=fields,
                    known=classify_divergence(
                        fields, precise_fault_stats=precise,
                        reference_outcome=reference.outcome,
                        engine_outcome=observed.outcome),
                ))
    return verdict


# --------------------------------------------------------------------- campaign
@dataclass
class CampaignReport:
    """Aggregate of one fuzzing campaign (one seed range, one profile)."""

    profile: str
    engines: Tuple[str, ...]
    precise_modes: Tuple[bool, ...]
    start_seed: int
    programs: int = 0
    #: Instructions executed across every engine run of the campaign.
    instructions: int = 0
    divergences: List[Dict] = field(default_factory=list)
    known_divergences: int = 0
    unexplained_divergences: int = 0
    bisect_steps: int = 0
    bundles: List[Dict] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def programs_per_second(self) -> float:
        return self.programs / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def instructions_per_second(self) -> float:
        return self.instructions / self.wall_seconds \
            if self.wall_seconds else 0.0

    def to_plain(self) -> Dict[str, object]:
        return {
            "profile": self.profile,
            "engines": list(self.engines),
            "precise_modes": list(self.precise_modes),
            "start_seed": self.start_seed,
            "programs": self.programs,
            "instructions": self.instructions,
            "divergences": list(self.divergences),
            "known_divergences": self.known_divergences,
            "unexplained_divergences": self.unexplained_divergences,
            "bisect_steps": self.bisect_steps,
            "bundles": list(self.bundles),
            "wall_seconds": round(self.wall_seconds, 4),
            "programs_per_second": round(self.programs_per_second, 2),
            "instructions_per_second": round(self.instructions_per_second, 1),
        }


def run_campaign(count: int, *, start_seed: int = 0, profile="mixed",
                 engines: Optional[Sequence[str]] = None,
                 precise_modes: Sequence[bool] = (False,),
                 config: MicroBlazeConfig = PAPER_CONFIG,
                 max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
                 bisect_divergences: bool = True,
                 time_budget_s: Optional[float] = None) -> CampaignReport:
    """Fuzz ``count`` consecutive seeds of ``profile`` across the fleet.

    Divergent programs are bisected to their first divergent instruction
    and packaged as replayable repro bundles (unless
    ``bisect_divergences=False``).  ``time_budget_s`` stops the campaign
    early at a program boundary — the report says how many programs
    actually ran.  Counters land in the live telemetry plane when one is
    installed (``warp_fuzz_programs_total``, ``warp_fuzz_instructions_-
    total``, ``warp_fuzz_divergences_total``, ``warp_fuzz_bisect_steps_-
    total``).
    """
    if count <= 0:
        raise ValueError("count must be positive")
    resolved = resolve_profile(profile)
    if engines is None:
        engines = engine_names()
    engines = tuple(validate_engine_name(name) for name in engines)
    precise_modes = tuple(precise_modes)
    report = CampaignReport(profile=resolved.name, engines=engines,
                            precise_modes=precise_modes,
                            start_seed=start_seed)
    runs_per_program = len(precise_modes) * len(engines)
    start = time.perf_counter()
    for seed in range(start_seed, start_seed + count):
        if time_budget_s is not None \
                and time.perf_counter() - start >= time_budget_s:
            break
        program = generate_program(seed, resolved)
        verdict = check_program(
            program, seed=seed, profile=resolved.name, engines=engines,
            precise_modes=precise_modes, config=config,
            with_opb=resolved.opb_traffic,
            max_instructions=max_instructions)
        report.programs += 1
        # Every engine (reference included) executes the whole program, so
        # the fuzzed-instruction tally scales with the fleet width.
        executed = verdict.instructions * max(1, runs_per_program)
        report.instructions += executed
        if obs.ACTIVE is not None:
            obs.inc("warp_fuzz_programs_total", profile=resolved.name)
            obs.inc("warp_fuzz_instructions_total", float(executed),
                    profile=resolved.name)
        for divergence in verdict.divergences:
            report.divergences.append(divergence.to_plain())
            if divergence.known:
                report.known_divergences += 1
            else:
                report.unexplained_divergences += 1
            if obs.ACTIVE is not None:
                obs.inc("warp_fuzz_divergences_total",
                        engine=divergence.engine,
                        kind="known" if divergence.known else "unexplained")
        if verdict.unexplained and bisect_divergences:
            from .bisect import bisect_divergence
            for divergence in verdict.unexplained:
                bundle = bisect_divergence(
                    program, divergence.engine, seed=seed,
                    profile=resolved.name,
                    precise_fault_stats=divergence.precise_fault_stats,
                    with_opb=resolved.opb_traffic,
                    max_instructions=max_instructions)
                if bundle is not None:
                    report.bisect_steps += bundle.bisect_steps
                    report.bundles.append(bundle.to_plain())
    report.wall_seconds = time.perf_counter() - start
    return report
