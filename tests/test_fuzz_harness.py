"""Registry-wide differential harness: observations, known-divergence
classification, campaign aggregation and the ``warp_fuzz_*`` telemetry."""

from __future__ import annotations

import pytest

import repro.obs as obs
from repro.fuzz import (
    check_program,
    classify_divergence,
    generate_program,
    observe,
    run_campaign,
)
from repro.fuzz.harness import KNOWN_FAULT_SKEW_FIELDS, compare_observations
from repro.isa import assemble
from repro.microblaze import engine_names

#: A fault landing mid-block after a hot loop: the translation fetched the
#: block's words past the fault point, the one documented skew (mirrors
#: ``test_engine_differential.MISALIGNED_IN_HOT_LOOP``).
FAULT_AFTER_HOT_LOOP = """
    addi r5, r0, 64
    addi r3, r0, 0
loop:
    addi r3, r3, 1
    addi r5, r5, -1
    bnei r5, loop
    addi r3, r3, 3
    lw   r9, r3, r0        # 67: misaligned -> MemoryError_
    bri  0
"""


class TestObserve:
    def test_halting_program_produces_full_observation(self):
        program = generate_program(0, "mixed")
        observation = observe(program, "interp")
        assert observation.outcome == "halted"
        assert observation.error is None
        assert observation.stats["instructions"] > 0
        comparable = observation.comparable()
        assert set(comparable) == {
            "outcome", "checksum", "registers", "pc", "data", "stats",
            "instr_ports", "data_ports", "opb", "profiler"}

    def test_fault_is_an_observation_not_an_error(self):
        program = assemble(FAULT_AFTER_HOT_LOOP, name="faulty")
        observation = observe(program, "interp")
        assert observation.outcome == "fault"
        assert "MemoryError_" in observation.error

    def test_identical_engines_have_no_differing_fields(self):
        program = generate_program(1, "mixed")
        assert compare_observations(observe(program, "interp"),
                                    observe(program, "interp")) == ()


class TestKnownDivergenceClassification:
    def test_only_instruction_port_lookahead_is_known(self):
        assert KNOWN_FAULT_SKEW_FIELDS == {"instr_ports"}
        assert classify_divergence(
            ("instr_ports",),
            reference_outcome="fault", engine_outcome="fault")

    def test_fault_point_skew_is_never_known(self):
        """Statistics, fault pc and profiler state are interpreter-exact at
        a fault: any skew in them is unexplained."""
        for skewed in ("stats", "pc", "profiler", "data_ports"):
            assert not classify_divergence(
                ("instr_ports", skewed),
                reference_outcome="fault", engine_outcome="fault")

    def test_architectural_fields_are_never_known(self):
        for poisoned in ("registers", "checksum", "data", "outcome", "opb"):
            assert not classify_divergence(
                ("instr_ports", poisoned),
                reference_outcome="fault", engine_outcome="fault")

    def test_non_fault_runs_are_never_known(self):
        assert not classify_divergence(
            ("instr_ports",),
            reference_outcome="halted", engine_outcome="halted")
        assert not classify_divergence(
            ("instr_ports",),
            reference_outcome="fault", engine_outcome="halted")

    def test_mid_block_fault_divergences_classify_as_known(self):
        """The real thing end to end: a fault after a hot loop on every
        registered engine — whatever skew appears is the fetch
        lookahead, never statistics or architectural state."""
        program = assemble(FAULT_AFTER_HOT_LOOP, name="faulty")
        verdict = check_program(program, seed=0, profile="handwritten")
        assert verdict.unexplained == []
        for divergence in verdict.divergences:
            assert divergence.fields == ("instr_ports",)


class TestCampaign:
    def test_small_campaign_is_divergence_free(self):
        report = run_campaign(3, profile="mixed")
        assert report.programs == 3
        assert report.unexplained_divergences == 0
        assert report.instructions > 0
        assert report.engines == engine_names()

    def test_faulty_campaign_counts_known_divergences(self):
        report = run_campaign(2, profile="faulty")
        assert report.unexplained_divergences == 0
        assert report.known_divergences > 0
        assert report.bundles == []  # known shapes are not bisected

    def test_time_budget_stops_at_a_program_boundary(self):
        report = run_campaign(10_000, profile="alu", time_budget_s=0.0)
        assert report.programs == 0

    def test_rejects_empty_campaign(self):
        with pytest.raises(ValueError, match="count must be positive"):
            run_campaign(0)

    def test_to_plain_carries_throughput(self):
        report = run_campaign(2, profile="alu")
        plain = report.to_plain()
        assert plain["programs"] == 2
        assert plain["programs_per_second"] > 0
        assert plain["instructions_per_second"] > 0


class TestTelemetry:
    def test_campaign_publishes_warp_fuzz_families(self):
        with obs.active_telemetry() as telemetry:
            run_campaign(2, profile="faulty", bisect_divergences=False)
            snapshot = telemetry.collect()
        assert snapshot["warp_fuzz_programs_total"]["samples"][0]["value"] \
            == 2.0
        assert "warp_fuzz_instructions_total" in snapshot
        divergences = snapshot["warp_fuzz_divergences_total"]["samples"]
        assert divergences, "faulty profile must record known divergences"
        assert {sample["labels"]["kind"] for sample in divergences} \
            == {"known"}

    def test_campaign_without_telemetry_records_nothing(self):
        assert obs.ACTIVE is None
        report = run_campaign(1, profile="alu")
        assert report.programs == 1
