"""Deleted knobs are rejected loudly at every entry point.

Block engines have one mode, interpreter-exact at a fault, so the
``precise_fault_stats`` opt-in is gone from the CPU, the system, the
``repro-warp fuzz`` verb, job files and the wire codec.  The CAD flow is
the paper's six stages, so the per-job ``stages`` list is gone from
:class:`WarpJob`, the flow's constructors, ``repro-warp suite``, job
files and the wire codec.  A caller still passing either fails instead
of silently getting a different contract; a version-1 wire sender's
defaults (``false``, ``null``) still decode unchanged.
"""

from __future__ import annotations

import functools
import json

import pytest

from repro.isa import assemble
from repro.microblaze import (
    MicroBlazeCPU,
    MicroBlazeSystem,
    PAPER_CONFIG,
    run_program,
)
from repro.microblaze.memory import BlockRAM
from repro.partition import DynamicPartitioningModule
from repro.server import protocol
from repro.service.cli import load_job_file, main
from repro.service.jobs import JobSpecError, WarpJob, suite_sweep_jobs
from repro.warp import MultiProcessorWarpSystem, WarpProcessor

#: The stage list that used to pick the single-pass router.
GREEDY_STAGES = ["decompile", "synthesis", "place", "route-greedy",
                 "implement", "binary-update"]

PROGRAM = "addi r3, r0, 1\n bri 0\n"


def _cpu(**kwargs):
    return MicroBlazeCPU(PAPER_CONFIG, BlockRAM(1024), BlockRAM(1024),
                         **kwargs)


def _system(**kwargs):
    return MicroBlazeSystem(config=PAPER_CONFIG, **kwargs)


def _run_program(**kwargs):
    return run_program(assemble(PROGRAM), PAPER_CONFIG, **kwargs)


@pytest.mark.parametrize("build", [_cpu, _system, _run_program],
                         ids=["cpu", "system", "run_program"])
@pytest.mark.parametrize("value", [True, False])
def test_keyword_raises_type_error(build, value):
    build()  # the same call without the keyword works
    with pytest.raises(TypeError, match="precise_fault_stats"):
        build(precise_fault_stats=value)


@pytest.mark.parametrize("build, keyword", [
    (functools.partial(WarpJob, name="j", benchmark="brev"), "stages"),
    (functools.partial(suite_sweep_jobs, benchmarks=["brev"]), "stages"),
    (DynamicPartitioningModule, "stage_names"),
    (DynamicPartitioningModule, "flow"),
    (DynamicPartitioningModule, "trace_hooks"),
    (WarpProcessor, "stage_names"),
    (functools.partial(MultiProcessorWarpSystem, num_cores=1),
     "stage_names"),
], ids=["job", "sweep", "dpm-stage-names", "dpm-flow", "dpm-trace-hooks",
        "processor", "multiprocessor"])
def test_cad_flow_keyword_raises_type_error(build, keyword):
    build()  # the same call without the keyword works
    with pytest.raises(TypeError, match=keyword):
        build(**{keyword: GREEDY_STAGES})


def test_fuzz_verb_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["fuzz", "--seeds", "1", "--precise-fault-stats", "--quiet"])
    assert info.value.code == 2
    assert "--precise-fault-stats" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("fuzz_precise", True),
    ("stages", GREEDY_STAGES),
], ids=["fuzz_precise", "stages"])
def test_job_file_field_is_unknown(tmp_path, field, value):
    jobfile = tmp_path / "jobs.json"
    jobfile.write_text(json.dumps({"jobs": [
        {"name": "x", "fuzz_profile": "alu", field: value}]}))
    with pytest.raises(JobSpecError, match=f"unknown fields.*{field}"):
        load_job_file(jobfile)


def _wire(job: WarpJob, **extra) -> dict:
    plain = protocol.job_to_plain(job)
    assert "fuzz_precise" not in plain and "stages" not in plain
    plain.update(extra)
    return plain


@pytest.mark.parametrize("field, value", [
    ("fuzz_precise", True),
    ("stages", GREEDY_STAGES),
], ids=["fuzz_precise", "stages"])
def test_wire_codec_rejects_a_truthy_flag(field, value):
    job = WarpJob(name="fuzz", fuzz_profile="alu", fuzz_count=2)
    with pytest.raises(JobSpecError, match=f"{field} was removed"):
        protocol.job_from_plain(_wire(job, **{field: value}))


@pytest.mark.parametrize("field, value", [
    ("fuzz_precise", False),
    ("stages", None),
], ids=["fuzz_precise", "stages"])
def test_wire_codec_accepts_a_version_1_senders_default(field, value):
    """A sender from before the deletion always writes
    ``fuzz_precise: false`` and ``stages: null``: it still decodes to the
    same job, so the protocol version stays."""
    job = WarpJob(name="fuzz", fuzz_profile="alu", fuzz_count=2)
    decoded = protocol.job_from_plain(_wire(job, **{field: value}))
    assert decoded == job
    assert decoded.dedup_key() == job.dedup_key()
    assert protocol.PROTOCOL_VERSION == 1
