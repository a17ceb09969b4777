"""The deleted ``precise_fault_stats`` mode is rejected loudly at every
entry point.

Block engines have one mode, interpreter-exact at a fault, so the opt-in
flag is gone from the CPU, the system, the ``repro-warp fuzz`` verb, job
files and the wire codec.  A caller still passing it fails instead of
silently getting a different contract; a version-1 wire sender's default
``false`` still decodes unchanged.
"""

from __future__ import annotations

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
from repro.server import protocol
from repro.service.cli import load_job_file, main
from repro.service.jobs import JobSpecError, WarpJob

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


def test_fuzz_verb_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["fuzz", "--seeds", "1", "--precise-fault-stats", "--quiet"])
    assert info.value.code == 2
    assert "--precise-fault-stats" in capsys.readouterr().err


def test_job_file_field_is_unknown(tmp_path):
    jobfile = tmp_path / "jobs.json"
    jobfile.write_text(json.dumps({"jobs": [
        {"name": "x", "fuzz_profile": "alu", "fuzz_precise": True}]}))
    with pytest.raises(JobSpecError, match="unknown fields.*fuzz_precise"):
        load_job_file(jobfile)


def _wire(job: WarpJob, **extra) -> dict:
    plain = protocol.job_to_plain(job)
    assert "fuzz_precise" not in plain
    plain.update(extra)
    return plain


def test_wire_codec_rejects_a_truthy_flag():
    job = WarpJob(name="fuzz", fuzz_profile="alu", fuzz_count=2)
    with pytest.raises(JobSpecError, match="fuzz_precise"):
        protocol.job_from_plain(_wire(job, fuzz_precise=True))


def test_wire_codec_accepts_a_version_1_senders_default():
    """A sender from before the deletion always writes
    ``fuzz_precise: false``: it still decodes to the same job, so the
    protocol version stays."""
    job = WarpJob(name="fuzz", fuzz_profile="alu", fuzz_count=2)
    decoded = protocol.job_from_plain(_wire(job, fuzz_precise=False))
    assert decoded == job
    assert decoded.dedup_key() == job.dedup_key()
    assert protocol.PROTOCOL_VERSION == 1
