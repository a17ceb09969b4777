"""The ``repro-warp fuzz`` verb, engine-name validation exit codes and
the deleted ``hot-edges`` verb."""

from __future__ import annotations

import json

import pytest

from repro.service.cli import load_job_file, main
from repro.service.jobs import JobSpecError


class TestEngineNameValidation:
    """Unknown engine names exit with code 2 and a clean one-line error,
    on every verb that takes one — never a traceback."""

    def test_fuzz_unknown_engine_exits_2(self, capsys):
        assert main(["fuzz", "--seeds", "1", "--engines",
                     "interp,warp9000", "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "warp9000" in err
        assert "registered engines" in err

    def test_fuzz_unknown_profile_exits_2(self, capsys):
        assert main(["fuzz", "--seeds", "1", "--profile", "nosuch",
                     "--quiet"]) == 2
        assert "unknown fuzz profile" in capsys.readouterr().err

    def test_fuzz_rejects_non_positive_seed_count(self):
        assert main(["fuzz", "--seeds", "0", "--quiet"]) == 2


class TestHotEdgesVerbIsGone:
    """The edge-profile dump went with the profiler's edge counts: the
    verb is an unknown command, exit code 2."""

    @pytest.mark.parametrize("argv", [
        ["hot-edges"],
        ["hot-edges", "--benchmarks", "brev", "--small", "--quiet"],
    ], ids=["bare", "with-flags"])
    def test_hot_edges_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "invalid choice: 'hot-edges'" in capsys.readouterr().err


class TestFuzzVerb:
    def test_small_campaign_writes_report(self, tmp_path):
        out = tmp_path / "fuzz.json"
        code = main(["fuzz", "--seeds", "2", "--profile", "alu",
                     "--workers", "0", "--quiet", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["fuzz"]["programs"] == 2
        assert payload["fuzz"]["instructions"] > 0
        assert payload["fuzz"]["divergences"] == 0
        job = payload["jobs"][0]
        assert job["workload"].startswith("fuzz:alu[")
        # Fuzz campaigns never pollute the warp speedup/energy tables.
        assert payload["tables"]["speedup"] == ""
        assert payload["tables"]["energy"] == ""

    def test_seed_range_shards_across_jobs(self, tmp_path):
        out = tmp_path / "fuzz.json"
        code = main(["fuzz", "--seeds", "5", "--jobs", "2", "--profile",
                     "alu", "--workers", "0", "--quiet", "--out",
                     str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        workloads = sorted(job["workload"] for job in payload["jobs"])
        assert workloads == ["fuzz:alu[0..3)", "fuzz:alu[3..5)"]
        assert payload["fuzz"]["programs"] == 5

    def test_engine_subset_is_honoured(self, tmp_path):
        out = tmp_path / "fuzz.json"
        code = main(["fuzz", "--seeds", "1", "--engines", "jit",
                     "--workers", "0", "--quiet", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["fuzz"]["programs"] == 1


class TestFuzzJobFiles:
    def test_job_file_round_trip(self, tmp_path):
        jobfile = tmp_path / "jobs.json"
        jobfile.write_text(json.dumps({"jobs": [
            {"name": "night-shift", "fuzz_profile": "alu",
             "fuzz_seed": 3, "fuzz_count": 2,
             "fuzz_engines": ["interp", "jit"]},
        ]}))
        jobs = load_job_file(jobfile)
        assert jobs[0].fuzz_profile == "alu"
        assert jobs[0].fuzz_seed == 3
        assert jobs[0].fuzz_count == 2
        assert jobs[0].fuzz_engines == ("interp", "jit")
        assert jobs[0].describe() == "night-shift: fuzz:alu[3..5) " \
            "on paper/default"

    def test_job_file_runs_through_the_jobs_verb(self, tmp_path):
        jobfile = tmp_path / "jobs.json"
        jobfile.write_text(json.dumps({"jobs": [
            {"name": "mini", "fuzz_profile": "alu", "fuzz_count": 1},
        ]}))
        out = tmp_path / "report.json"
        assert main(["jobs", str(jobfile), "--workers", "0", "--quiet",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["fuzz"]["programs"] == 1

    def test_job_file_rejects_bad_fuzz_fields(self, tmp_path):
        jobfile = tmp_path / "jobs.json"
        jobfile.write_text(json.dumps({"jobs": [
            {"name": "x", "fuzz_profile": "nosuch"}]}))
        with pytest.raises(JobSpecError, match="unknown fuzz profile"):
            load_job_file(jobfile)
        jobfile.write_text(json.dumps({"jobs": [
            {"name": "x", "fuzz_profile": "alu",
             "fuzz_engines": ["warp9000"]}]}))
        with pytest.raises(JobSpecError, match="warp9000"):
            load_job_file(jobfile)
        jobfile.write_text(json.dumps({"jobs": [
            {"name": "x", "benchmark": "brev", "fuzz_profile": "alu"}]}))
        with pytest.raises(JobSpecError, match="exactly one"):
            load_job_file(jobfile)
