"""The networked warp service: wire protocol, disk store, gateway, gateway
client, and the server-side CLI verbs."""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import socket
import threading
import time

import pytest

from repro.cad import (
    CadArtifactCache,
    CapacityRejection,
    SOURCE_DISK,
    SOURCE_MISS,
    is_negative_artifact,
)
from repro import obs
from repro.cad.keys import content_digest
from repro.digest import digest_int, sha256_hex, shard_index
from repro.fabric.architecture import FabricParameters, WclaParameters
from repro.microblaze import PAPER_CONFIG
from repro.retry import RetryPolicy, RetrySchedule
from repro.server import (
    DiskArtifactStore,
    DiskStoreError,
    DiskStoreSchemaError,
    GatewayBusyError,
    GatewayClient,
    GatewayDrainingError,
    HandshakeError,
    ProtocolError,
    RemoteError,
    STORE_MAGIC,
    STORE_SCHEMA_VERSION,
    WarpGateway,
    start_gateway_thread,
)
from repro.server import protocol
from repro.service import ServiceReport, WarpJob, WarpService, execute_job
from repro.service.cli import load_job_file, main
from repro.service.jobs import ServiceResult
from repro.service.scheduler import JobScheduler, aged_priority

from pathlib import Path

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

#: Result fields that must be byte-identical between a remote and an
#: in-process execution of the same job (host wall times excluded).
DETERMINISTIC_FIELDS = (
    "job_name", "workload", "config_label", "ok", "error", "partitioned",
    "partition_reason", "checksum_ok", "speedup", "software_ms", "warp_ms",
    "dpm_ms", "mb_energy_mj", "warp_energy_mj", "normalized_warp_energy",
    "cad_cache_hit", "cache_hits", "cache_misses", "stage_cache",
    "deduped_from",
)


def _small_jobs():
    return [
        WarpJob(name="brev-s", benchmark="brev", small=True, priority=2),
        WarpJob(name="brev-s-twin", benchmark="brev", small=True),
        WarpJob(name="idct-no-mul", benchmark="idct", small=True,
                config=dataclasses.replace(PAPER_CONFIG,
                                           use_multiplier=False),
                config_label="no-mul"),
    ]


def _assert_results_identical(remote, local):
    assert [r.job_name for r in remote] == [r.job_name for r in local]
    for a, b in zip(remote, local):
        for field in DETERMINISTIC_FIELDS:
            assert getattr(a, field) == getattr(b, field), \
                f"{a.job_name}: {field}"
        assert set(a.stage_wall_ms) == set(b.stage_wall_ms), a.job_name


def _slow_worker(job):
    """Backend that holds the admission queue occupied long enough for a
    deterministic busy-rejection window."""
    time.sleep(0.4)
    return execute_job(job)


@contextlib.contextmanager
def running_gateway(**kwargs):
    """A gateway on a daemon thread, bound to an ephemeral port, torn down
    on exit."""
    kwargs.setdefault("port", 0)
    gateway = WarpGateway(**kwargs)
    thread = start_gateway_thread(gateway)
    try:
        yield gateway
    finally:
        gateway.request_stop()
        thread.join(timeout=30)


# --------------------------------------------------------------------------- digests
class TestDigestHelpers:
    def test_sha256_hex_is_the_cad_content_digest(self):
        """Satellite: one digest implementation everywhere — the CAD key
        helper is an alias, byte-for-byte (existing digests stay valid)."""
        import hashlib

        parts = ("bundle", "v1\nupdate r3 0", "WclaParameters(...)")
        reference = hashlib.sha256()
        for part in parts:
            reference.update(part.encode())
            reference.update(b"\x00")
        assert sha256_hex(*parts) == reference.hexdigest()
        assert content_digest(*parts) == sha256_hex(*parts)

    def test_shard_index_matches_the_seed_routing_formula(self):
        """Pool shard routing must not change across the refactor: same
        digest (first 8 bytes, big-endian) mod shard count."""
        import hashlib

        job = WarpJob(name="j", benchmark="brev", small=True)
        text = repr(job.dedup_key())
        expected = int.from_bytes(
            hashlib.sha256(text.encode()).digest()[:8], "big")
        assert digest_int(text) == expected
        for shards in (1, 2, 3, 7):
            assert shard_index(text, shards) == expected % shards
        service = WarpService(workers=4)
        assert service._shard_index(job) == expected % 4

    def test_shard_index_rejects_nonpositive_counts(self):
        with pytest.raises(ValueError):
            shard_index("x", 0)


# --------------------------------------------------------------------------- protocol
class TestWireProtocol:
    def test_frame_roundtrip_over_a_socketpair(self):
        a, b = socket.socketpair()
        try:
            payload = {"verb": "status", "batch_id": "batch-1",
                       "nested": {"x": [1, 2, 3]}}
            protocol.send_frame(a, payload)
            assert protocol.recv_frame(b) == payload
            a.close()
            assert protocol.recv_frame(b) is None  # clean EOF
        finally:
            b.close()

    def test_oversized_frame_length_is_rejected_not_allocated(self):
        a, b = socket.socketpair()
        try:
            a.sendall((protocol.MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
            a.close()
            with pytest.raises(ProtocolError, match="exceeds"):
                protocol.recv_frame(b)
        finally:
            b.close()

    def test_mid_frame_eof_is_an_error_not_none(self):
        a, b = socket.socketpair()
        try:
            frame = protocol.encode_frame({"verb": "status"})
            a.sendall(frame[:-3])
            a.close()
            with pytest.raises(ProtocolError, match="mid-frame"):
                protocol.recv_frame(b)
        finally:
            b.close()

    def test_non_object_body_is_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            protocol.decode_body(b"[1, 2, 3]")

    def test_handshake_version_mismatch_is_a_typed_error(self):
        with pytest.raises(HandshakeError, match="version"):
            protocol.check_hello({"magic": protocol.PROTOCOL_MAGIC,
                                  "version": protocol.PROTOCOL_VERSION + 1})
        with pytest.raises(HandshakeError, match="WARPNET"):
            protocol.check_hello({"magic": "HTTP/1.1", "version": 1})
        with pytest.raises(HandshakeError, match="closed"):
            protocol.check_hello(None)

    def test_job_codec_preserves_content_identity(self):
        """A job survives the wire with its dedup key (and therefore its
        CAD cache addresses) intact — config and WCLA included."""
        job = WarpJob(
            name="wire", benchmark="idct", small=True,
            config=dataclasses.replace(PAPER_CONFIG, use_multiplier=False),
            config_label="no-mul",
            wcla=WclaParameters(fabric=FabricParameters(channel_width=6),
                                num_registers=4),
            engine="interp", max_instructions=123_456, priority=7,
        )
        clone = protocol.job_from_plain(
            json.loads(json.dumps(protocol.job_to_plain(job))))
        assert clone.dedup_key() == job.dedup_key()
        assert clone.name == job.name and clone.priority == job.priority
        assert clone.config == job.config and clone.wcla == job.wcla

    def test_result_and_report_roundtrip(self):
        result = ServiceResult(job_name="j", workload="brev",
                               config_label="paper", engine="jit",
                               speedup=2.5, cache_disk_hits=3,
                               stage_cache={"synthesis": "disk-hit"})
        report = ServiceReport(results=[result], wall_seconds=1.25,
                               mode="serial", workers=0)
        clone = ServiceReport.from_plain(
            json.loads(json.dumps(report.to_plain())))
        assert clone.results[0] == result
        assert clone.mode == "serial" and clone.wall_seconds == 1.25
        assert clone.cache_disk_hits == 3
        # A sender from before the gateway mesh was deleted still writes
        # ``cache_peer_hits``; the key is ignored, the result decodes.
        old_sender = dict(result.to_plain(), cache_peer_hits=2)
        assert ServiceResult.from_plain(old_sender) == result


# --------------------------------------------------------------------------- disk store
class TestDiskArtifactStore:
    def test_roundtrip_and_counters(self, tmp_path):
        store = DiskArtifactStore(tmp_path / "store")
        assert store.stage_get("synthesis", "a" * 8) is None
        store.stage_put("synthesis", "a" * 8, {"luts": 12})
        assert store.stage_get("synthesis", "a" * 8) == {"luts": 12}
        stats = store.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["writes"] == 1 and stats["entries"] == 1
        assert stats["schema"] == STORE_SCHEMA_VERSION

    def test_entries_survive_a_new_instance(self, tmp_path):
        DiskArtifactStore(tmp_path).stage_put("place", "k1", (1, 2, 3))
        assert DiskArtifactStore(tmp_path).stage_get("place", "k1") == \
            (1, 2, 3)

    def test_capacity_rejections_persist(self, tmp_path):
        DiskArtifactStore(tmp_path).stage_put(
            "place", "k", CapacityRejection(message="too big"))
        value = DiskArtifactStore(tmp_path).stage_get("place", "k")
        assert isinstance(value, CapacityRejection)
        assert is_negative_artifact(value)

    def test_mtime_lru_eviction_is_size_bounded(self, tmp_path):
        store = DiskArtifactStore(tmp_path, max_bytes=None)
        for index in range(4):
            store.stage_put("route", f"key{index}", b"x" * 64)
        # Age the first two entries explicitly (mtime is the LRU clock).
        now = time.time()
        for index, age in ((0, 1000), (1, 500)):
            path = store._entry_path("route", f"key{index}")
            os.utime(path, (now - age, now - age))
        store.max_bytes = store.size_bytes() - 1  # force eviction of >= 1
        store.stage_put("route", "key4", b"x" * 64)
        assert store.stage_get("route", "key0") is None  # oldest went first
        assert store.stage_get("route", "key4") == b"x" * 64
        assert store.evictions >= 1
        assert store.size_bytes() <= store.max_bytes

    def test_unknown_entry_schema_version_is_rejected_loudly(self, tmp_path):
        """Satellite: a stale on-disk format must raise a clear error that
        names both versions — never decode garbage, never silently miss."""
        store = DiskArtifactStore(tmp_path)
        store.stage_put("synthesis", "k", {"x": 1})
        path = store._entry_path("synthesis", "k")
        blob = path.read_bytes()
        path.write_bytes(STORE_MAGIC + (999).to_bytes(2, "big")
                         + blob[len(STORE_MAGIC) + 2:])
        with pytest.raises(DiskStoreSchemaError) as excinfo:
            store.stage_get("synthesis", "k")
        assert "999" in str(excinfo.value)
        assert str(STORE_SCHEMA_VERSION) in str(excinfo.value)

    def test_bad_magic_and_corrupt_payload_are_loud(self, tmp_path):
        """With quarantine disabled, corruption is a loud typed error —
        the pre-quarantine contract is still available for debugging."""
        store = DiskArtifactStore(tmp_path, quarantine_corrupt=False)
        path = store._entry_path("route", "bad")
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 8)
        with pytest.raises(DiskStoreError, match="magic"):
            store.stage_get("route", "bad")
        path.write_bytes(STORE_MAGIC
                         + STORE_SCHEMA_VERSION.to_bytes(2, "big")
                         + b"truncated-not-zlib")
        with pytest.raises(DiskStoreError, match="corrupt"):
            store.stage_get("route", "bad")

    def test_corrupt_entry_is_quarantined_by_default(self, tmp_path):
        """Default stores treat corruption as a cache miss: the entry is
        moved aside (never deleted — it is evidence), counted, and the
        caller recomputes.  Schema mismatches stay loud either way."""
        store = DiskArtifactStore(tmp_path)
        store.stage_put("route", "bad", {"x": 1})
        path = store._entry_path("route", "bad")
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])  # torn write
        assert store.stage_get("route", "bad") is None
        assert store.corrupt_entries == 1
        assert not path.exists()
        assert path.with_name(path.name + ".quarantine").exists()
        # The slot is reusable after recompute.
        store.stage_put("route", "bad", {"x": 1})
        assert store.stage_get("route", "bad") == {"x": 1}

    def test_zero_length_entry_is_tolerated(self, tmp_path):
        """Satellite: a crash between open and write leaves a zero-length
        file; it must read as a miss, not an exception."""
        store = DiskArtifactStore(tmp_path)
        store._entry_path("route", "empty").write_bytes(b"")
        assert store.stage_get("route", "empty") is None
        assert store.corrupt_entries == 1

    def test_concurrent_misses_and_disk_hits_keep_their_labels(
            self, tmp_path, monkeypatch):
        """A miss on one thread and disk hits on another, through one
        store, each get their own value, so the cache never swaps the
        ``miss``/``disk-hit`` labels."""
        store = DiskArtifactStore(tmp_path)
        count = 20
        for index in range(count):
            store.stage_put("route", f"d{index}", {"index": index})
        # Force the worst interleaving.  A lookup's store-load span is
        # recorded after the store has answered and before the cache has
        # read the answer, so each disk hit parks there until the other
        # thread has completed one whole miss.
        turn, missed = threading.Semaphore(0), threading.Semaphore(0)
        record_span = obs.record_span

        def parked(name, duration_s, **attrs):
            if attrs.get("outcome") == "hit":
                turn.release()
                missed.acquire(timeout=10)
            return record_span(name, duration_s, **attrs)

        monkeypatch.setattr(obs, "record_span", parked)
        lookups = {SOURCE_MISS: [], SOURCE_DISK: []}

        def miss():
            cache = CadArtifactCache(store=store)
            for index in range(count):
                turn.acquire(timeout=10)
                lookups[SOURCE_MISS].append(
                    cache.stage_lookup("route", f"m{index}"))
                missed.release()

        def hit_disk():
            cache = CadArtifactCache(store=store)
            for index in range(count):
                lookups[SOURCE_DISK].append(
                    cache.stage_lookup("route", f"d{index}"))

        with obs.active_telemetry():
            threads = [threading.Thread(target=miss),
                       threading.Thread(target=hit_disk)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert lookups[SOURCE_MISS] == [(None, SOURCE_MISS)] * count
        assert lookups[SOURCE_DISK] == [({"index": index}, SOURCE_DISK)
                                        for index in range(count)]
        assert store.misses == count and store.hits == count

    def test_orphan_tmp_files_are_collected_at_open(self, tmp_path):
        """Satellite: ``*.tmp`` droppings from a crashed publisher are
        swept at open once old enough; fresh ones are left alone (their
        writer may still be mid-publish)."""
        import os
        store = DiskArtifactStore(tmp_path)
        stale = tmp_path / ".stale-entry.tmp"
        stale.write_bytes(b"partial")
        old_time = time.time() - 7200
        os.utime(stale, (old_time, old_time))
        fresh = tmp_path / ".fresh-entry.tmp"
        fresh.write_bytes(b"partial")
        reopened = DiskArtifactStore(tmp_path)
        assert not stale.exists()
        assert fresh.exists()
        assert reopened.orphan_tmp_removed == 1

    def test_store_level_schema_marker_is_checked_at_open(self, tmp_path):
        DiskArtifactStore(tmp_path)  # writes the marker
        (tmp_path / "WARPDISK.schema").write_text("999\n")
        with pytest.raises(DiskStoreSchemaError, match="999"):
            DiskArtifactStore(tmp_path)

    def test_clear_drops_entries_but_keeps_the_marker(self, tmp_path):
        store = DiskArtifactStore(tmp_path)
        store.stage_put("route", "k", 1)
        store.clear()
        assert len(store) == 0
        assert (tmp_path / "WARPDISK.schema").exists()
        DiskArtifactStore(tmp_path)  # still opens cleanly


# ----------------------------------------------------------------- cache disk tier
class TestCacheDiskTier:
    def test_fresh_process_cache_warms_from_disk(self, tmp_path):
        """A second *run* (fresh in-memory cache, same store directory) is
        served by the disk tier, counted separately from memory hits."""
        job = WarpJob(name="j", benchmark="brev", small=True)
        cold = execute_job(job, CadArtifactCache(
            store=DiskArtifactStore(tmp_path)))
        assert cold.partitioned and cold.cache_disk_hits == 0

        warm_cache = CadArtifactCache(store=DiskArtifactStore(tmp_path))
        warm = execute_job(job, warm_cache)
        assert warm.partitioned
        assert warm.speedup == cold.speedup
        assert warm.cad_cache_hit
        keyed = [stage for stage, source in warm.stage_cache.items()
                 if source != "uncached"]
        assert keyed and all(warm.stage_cache[s] == SOURCE_DISK
                             for s in keyed)
        assert warm.cache_disk_hits == len(keyed)
        # Counted separately: no *memory* stage hits happened at all.
        assert warm_cache.disk_hits == len(keyed)
        assert all(hits == 0 for hits, _ in
                   warm_cache.stage_counters().values())
        assert warm_cache.stats()["disk_hits"] == len(keyed)
        assert warm_cache.stats()["store"]["hits"] == len(keyed)

    def test_report_aggregates_disk_hits(self, tmp_path):
        job = WarpJob(name="j", benchmark="brev", small=True)
        execute_job(job, CadArtifactCache(store=DiskArtifactStore(tmp_path)))
        warm = execute_job(job, CadArtifactCache(
            store=DiskArtifactStore(tmp_path)))
        report = ServiceReport(results=[warm])
        assert report.cache_disk_hits == warm.cache_disk_hits > 0
        plain = report.to_plain()
        assert plain["cache"]["disk_hits"] == warm.cache_disk_hits
        assert plain["stages"]["synthesis"]["disk_hits"] == 1
        assert plain["stages"]["synthesis"]["hits"] == 1  # disk is a hit too

    def test_memory_tier_still_wins_when_warm(self, tmp_path):
        cache = CadArtifactCache(store=DiskArtifactStore(tmp_path))
        job = WarpJob(name="j", benchmark="brev", small=True)
        execute_job(job, cache)
        second = execute_job(job, cache)
        assert second.cache_disk_hits == 0  # served from memory
        assert all(source in ("hit", "uncached")
                   for source in second.stage_cache.values())


# --------------------------------------------------------------------------- gateway
class TestGateway:
    def test_remote_submission_equals_in_process_execution(self):
        """Acceptance: a suite run over localhost produces ServiceResults
        identical to the serial in-process path (deterministic fields:
        speedup/energy/modelled times/stage tables)."""
        jobs = _small_jobs()
        with running_gateway(service=WarpService(
                workers=0, artifact_cache=CadArtifactCache())) as gateway:
            with GatewayClient(gateway.address) as client:
                remote = client.submit(jobs)
        local = WarpService(workers=0,
                            artifact_cache=CadArtifactCache()).run(jobs)
        assert remote.num_failed == 0
        _assert_results_identical(remote.results, local.results)
        # Dedup happened on the gateway exactly as it does locally.
        twin = {r.job_name: r for r in remote.results}["brev-s-twin"]
        assert twin.deduped_from == "brev-s"

    def test_status_stream_and_cache_stats(self):
        jobs = [WarpJob(name="brev-s", benchmark="brev", small=True)]
        with running_gateway() as gateway:
            with GatewayClient(gateway.address) as client:
                batch_id = client.submit(jobs, wait=False)
                deadline = time.time() + 120
                while True:
                    status = client.status(batch_id)
                    if status["state"] == "done":
                        break
                    assert time.time() < deadline, status
                    time.sleep(0.05)
                assert isinstance(status["report"], ServiceReport)
                streamed = list(client.stream_results(batch_id))
                assert [r.job_name for r in streamed] == ["brev-s"]
                assert streamed[0] == status["report"].results[0]
                stats = client.cache_stats()
                assert stats["queue_limit"] > 0
                assert stats["batches"][batch_id] == "done"
                assert "hits" in stats["cache"]

    def test_admission_limit_yields_typed_rejection(self):
        """Acceptance: submitting past the admission limit yields a typed
        429-style rejection on the client — not a hang or a crash."""
        slow_service = WarpService(workers=0, worker_fn=_slow_worker)
        with running_gateway(queue_limit=2, service=slow_service) as gateway:
            with GatewayClient(gateway.address) as client:
                # Fill the queue, then submit into the full queue while
                # the first batch is still pending.
                batch_id = client.submit(
                    [WarpJob(name=f"q{i}", benchmark="brev", small=True)
                     for i in range(2)], wait=False)
                with pytest.raises(GatewayBusyError) as excinfo:
                    client.submit([WarpJob(name="late", benchmark="brev",
                                           small=True)])
                assert excinfo.value.queue_limit == 2
                assert excinfo.value.pending_jobs == 2
                # The busy reply carries the live queue shape so clients
                # can scale their backoff by occupancy.
                assert excinfo.value.queue_depth == 2
                assert excinfo.value.occupancy() == 1.0
                # Once the queue drains, the same submission is admitted:
                # busy is transient, and the gateway survived it.
                while client.status(batch_id)["state"] != "done":
                    time.sleep(0.05)
                report = client.submit([WarpJob(name="late", benchmark="brev",
                                                small=True)])
                assert report.num_failed == 0

    def test_graceful_drain_finishes_admitted_work(self):
        """The shutdown verb drains: in-flight batches run to completion
        and stay observable, while new submissions get the typed (and
        unlike busy, non-retryable) draining rejection."""
        slow_service = WarpService(workers=0, worker_fn=_slow_worker)
        with running_gateway(service=slow_service) as gateway:
            with GatewayClient(gateway.address) as client:
                batch_id = client.submit(
                    [WarpJob(name="inflight", benchmark="brev", small=True)],
                    wait=False)
                client.shutdown()  # acknowledged while work is pending;
                #                    the shutdown verb ends its connection
            with GatewayClient(gateway.address) as client:
                with pytest.raises(GatewayDrainingError, match="draining"):
                    client.submit([WarpJob(name="late", benchmark="brev",
                                           small=True)])
                # The admitted batch still completes and streams out.
                results = list(client.stream_results(batch_id))
                assert [r.job_name for r in results] == ["inflight"]
                assert results[0].ok

    def test_oversized_batches_are_rejected_as_unretryable(self):
        """A batch that can never fit is not `busy` (retrying would loop
        forever) but a distinct batch-too-large error."""
        with running_gateway(queue_limit=2) as gateway:
            with GatewayClient(gateway.address) as client:
                with pytest.raises(RemoteError, match="batch-too-large"):
                    client.submit([WarpJob(name=f"j{i}", benchmark="brev",
                                           small=True) for i in range(3)])

    def test_finished_batches_are_pruned_beyond_retention(self):
        """A long-running gateway must not retain batch history without
        bound: the oldest finished batches fall off."""
        with running_gateway(retained_batches=2) as gateway:
            with GatewayClient(gateway.address) as client:
                for index in range(4):
                    client.submit([WarpJob(name=f"j{index}",
                                           benchmark="brev", small=True)])
                stats = client.cache_stats()
                assert len(stats["batches"]) <= 2
                # The newest batch is still queryable, the oldest is gone.
                assert client.status("batch-4")["state"] == "done"
                with pytest.raises(RemoteError, match="unknown-batch"):
                    client.status("batch-1")

    def test_unknown_verb_and_unknown_batch_are_remote_errors(self):
        with running_gateway() as gateway:
            with GatewayClient(gateway.address) as client:
                with pytest.raises(RemoteError, match="unknown-verb"):
                    client._round_trip({"verb": "frobnicate"})
                with pytest.raises(RemoteError, match="unknown-batch"):
                    client.status("batch-999")

    @pytest.mark.parametrize("verb", ["mesh-join", "mesh-peers",
                                      "mesh-fetch"])
    def test_deleted_mesh_verbs_are_unknown_verbs(self, verb):
        with running_gateway() as gateway:
            with GatewayClient(gateway.address) as client:
                with pytest.raises(RemoteError, match="unknown-verb"):
                    client._round_trip({"verb": verb,
                                        "address": "127.0.0.1:1",
                                        "stage": "synthesis", "key": "k"})
                assert client.cache_stats()["ok"]  # the connection lives

    @pytest.mark.parametrize("extra", [{"route": "ring"},
                                       {"route": "ring", "forwarded": True}])
    def test_routed_submit_is_rejected_and_runs_nothing(self, extra):
        with running_gateway(service=WarpService(
                workers=0, artifact_cache=CadArtifactCache())) as gateway:
            with GatewayClient(gateway.address) as client:
                with pytest.raises(RemoteError, match="bad-request"):
                    client._round_trip({
                        "verb": "submit", "wait": True, **extra,
                        "jobs": protocol.jobs_to_plain(
                            [WarpJob(name="j", benchmark="brev",
                                     small=True)])})
                stats = client.cache_stats()
        assert stats["batches"] == {} and stats["pending_jobs"] == 0
        assert stats["cache"]["hits"] == stats["cache"]["misses"] == 0

    def test_gateway_rejects_foreign_protocol_versions(self):
        with running_gateway() as gateway:
            with socket.create_connection(("127.0.0.1", gateway.port),
                                          timeout=30) as sock:
                protocol.send_frame(sock, {"magic": protocol.PROTOCOL_MAGIC,
                                           "version": 999})
                reply = protocol.recv_frame(sock)
                assert reply["ok"] is False
                assert reply["error"] == "version-mismatch"
            # A well-versioned client still connects afterwards.
            with GatewayClient(gateway.address) as client:
                assert client.cache_stats()["ok"]

    def test_malformed_jobs_are_a_bad_jobs_error(self):
        with running_gateway() as gateway:
            with GatewayClient(gateway.address) as client:
                with pytest.raises(RemoteError, match="bad-jobs"):
                    client._round_trip({"verb": "submit", "jobs": []})

    def test_abandoned_stream_leaves_the_connection_usable(self):
        """Breaking out of stream_results mid-iteration must not leave
        unread frames that desynchronize later verbs."""
        jobs = [WarpJob(name=f"j{i}", benchmark="brev", small=True)
                for i in range(3)]
        with running_gateway() as gateway:
            with GatewayClient(gateway.address) as client:
                client.submit(jobs)  # warm: the streamed batch is instant
                batch_id = client.submit([WarpJob(name="s0",
                                                  benchmark="brev",
                                                  small=True),
                                          WarpJob(name="s1",
                                                  benchmark="idct",
                                                  small=True)],
                                         wait=False)
                while client.status(batch_id)["state"] != "done":
                    time.sleep(0.05)
                for result in client.stream_results(batch_id):
                    break  # abandon after the first frame
                # The connection is still frame-aligned.
                stats = client.cache_stats()
                assert stats["ok"] and "cache" in stats


# ------------------------------------------------------------------ client retry
@pytest.fixture
def round_trips(monkeypatch):
    """Every request/reply attempt a :class:`GatewayClient` makes, as the
    name of the error it raised (``None`` for a good reply)."""
    log = []
    once = GatewayClient._round_trip_once

    def counted(client, request):
        try:
            reply = once(client, request)
        except Exception as error:
            log.append(type(error).__name__)
            raise
        log.append(None)
        return reply

    monkeypatch.setattr(GatewayClient, "_round_trip_once", counted)
    return log


def _fill_slow_queue(client):
    """Occupy a ``queue_limit=2`` slow gateway with two pending jobs."""
    client.submit([WarpJob(name=f"q{i}", benchmark="brev", small=True)
                   for i in range(2)], wait=False)


class TestClientRetry:
    def test_busy_is_absorbed_until_the_queue_drains(self, round_trips):
        retry = RetryPolicy(max_attempts=20, base_delay_s=0.05,
                            max_delay_s=0.2)
        slow_service = WarpService(workers=0, worker_fn=_slow_worker)
        with running_gateway(queue_limit=2, service=slow_service) as gateway:
            with GatewayClient(gateway.address, retry=retry) as client:
                _fill_slow_queue(client)
                round_trips.clear()
                report = client.submit([WarpJob(name="late",
                                                benchmark="brev",
                                                small=True)])
        assert report.num_failed == 0
        assert [r.job_name for r in report.results] == ["late"]
        *rejected, admitted = round_trips
        assert rejected and set(rejected) == {"GatewayBusyError"}
        assert admitted is None

    def test_busy_beyond_the_budget_is_reraised_typed(self, round_trips,
                                                      monkeypatch):
        backoffs = []
        backoff = RetrySchedule.backoff

        def recorded(schedule, occupancy=0.0):
            backoffs.append(occupancy)
            backoff(schedule, occupancy)

        monkeypatch.setattr(RetrySchedule, "backoff", recorded)
        retry = RetryPolicy(max_attempts=2, base_delay_s=0.01,
                            max_delay_s=0.01, jitter=0.0)
        slow_service = WarpService(workers=0, worker_fn=_slow_worker)
        with running_gateway(queue_limit=2, service=slow_service) as gateway:
            with GatewayClient(gateway.address, retry=retry) as client:
                _fill_slow_queue(client)
                round_trips.clear()
                with pytest.raises(GatewayBusyError) as excinfo:
                    client.submit([WarpJob(name="late", benchmark="brev",
                                           small=True)])
        assert round_trips == ["GatewayBusyError"] * 3
        # Each backoff is scaled by the occupancy the busy reply reported.
        assert backoffs == [1.0, 1.0]
        assert excinfo.value.queue_limit == 2
        assert excinfo.value.occupancy() == 1.0

    def test_draining_is_never_retried(self, round_trips):
        retry = RetryPolicy(max_attempts=5, base_delay_s=0.01,
                            max_delay_s=0.01)
        slow_service = WarpService(workers=0, worker_fn=_slow_worker)
        with running_gateway(service=slow_service) as gateway:
            with GatewayClient(gateway.address) as client:
                client.submit([WarpJob(name="inflight", benchmark="brev",
                                       small=True)], wait=False)
                client.shutdown()
            with GatewayClient(gateway.address, retry=retry) as client:
                round_trips.clear()
                with pytest.raises(GatewayDrainingError):
                    client.submit([WarpJob(name="late", benchmark="brev",
                                           small=True)])
        assert round_trips == ["GatewayDrainingError"]


# ------------------------------------------------------------------ backend seam
class TestBackendSeam:
    def test_backend_busy_rejection_is_reported_as_itself(self):
        """A typed busy rejection surfacing through the backend seam must
        not be mislabeled as a worker death."""
        def busy_backend(job):
            raise GatewayBusyError("admission queue is full",
                                   pending_jobs=9, queue_limit=9)

        report = WarpService(workers=0, worker_fn=busy_backend).run(
            [WarpJob(name="j", benchmark="brev", small=True)])
        result = report.results[0]
        assert not result.ok
        assert "GatewayBusyError" in result.error
        assert "admission queue is full" in result.error
        assert "died" not in result.error


# ------------------------------------------------------------- priority aging
class TestSchedulerAging:
    def test_aged_priority_levels(self):
        assert aged_priority(0, 0.0, 30.0) == 0
        assert aged_priority(0, 29.9, 30.0) == 0
        assert aged_priority(0, 30.0, 30.0) == 1
        assert aged_priority(2, 95.0, 30.0) == 5
        assert aged_priority(3, 1000.0, None) == 3   # aging off
        assert aged_priority(3, 1000.0, 0.0) == 3    # non-positive interval
        assert aged_priority(3, -5.0, 30.0) == 3     # clock skew tolerated

    def test_waiting_low_priority_overtakes_fresh_high_priority(self):
        """Satellite: the starvation case — a low-priority slot that has
        waited long enough outranks younger high-priority traffic."""
        scheduler = JobScheduler(aging_interval_s=10.0)
        old = scheduler.add(WarpJob(name="old-low", benchmark="brev",
                                    small=True, priority=0),
                            enqueued_monotonic=0.0)
        scheduler.add(WarpJob(name="new-high", benchmark="idct",
                              small=True, priority=2),
                      enqueued_monotonic=100.0)
        # At t=100 the low-priority slot has waited 100s: +10 levels.
        assert scheduler.effective_priority(old, now=100.0) == 10
        assert [slot.job.name for slot in scheduler.plan(now=100.0)] \
            == ["old-low", "new-high"]
        # At submission time no age has accrued: strict priority holds.
        assert [slot.job.name for slot in scheduler.plan(now=0.0)] \
            == ["new-high", "old-low"]

    def test_without_aging_the_plan_is_the_classic_sort(self):
        aged = JobScheduler(aging_interval_s=None)
        classic = JobScheduler()
        for name, priority, stamp in (("a", 0, 0.0), ("b", 5, 900.0),
                                      ("c", 2, 400.0)):
            for scheduler in (aged, classic):
                scheduler.add(WarpJob(name=name, benchmark="brev",
                                      small=True, priority=priority,
                                      max_instructions=100_000
                                      + priority),
                              enqueued_monotonic=stamp)
        plan = [slot.job.name for slot in aged.plan(now=1e9)]
        assert plan == [slot.job.name for slot in classic.plan()]
        assert plan == ["b", "c", "a"]

    def test_dedup_twin_keeps_the_earliest_aging_stamp(self):
        scheduler = JobScheduler(aging_interval_s=10.0)
        slot = scheduler.add(WarpJob(name="first", benchmark="brev",
                                     small=True),
                             enqueued_monotonic=50.0)
        twin = scheduler.add(WarpJob(name="twin", benchmark="brev",
                                     small=True),
                             enqueued_monotonic=5.0)
        assert twin is slot
        assert slot.enqueued_monotonic == 5.0  # age never resets


# ------------------------------------------------------ concurrent batch pool
def _fake_slow_worker(job):
    """Worker that holds a batch runner busy for a deterministic window
    without paying for a real CAD flow."""
    time.sleep(0.3)
    return ServiceResult(job_name=job.name, workload=job.benchmark,
                         config_label=job.config_label or "paper",
                         engine=job.engine, ok=True)


class TestGatewayConcurrency:
    def test_per_client_quota_yields_typed_rejection(self):
        """Satellite: one tenant filling its quota gets a 429-style busy
        reply carrying its own occupancy; other tenants stay admitted."""
        slow = WarpService(workers=0, worker_fn=_fake_slow_worker)
        with running_gateway(queue_limit=64, client_quota=2,
                             service=slow) as gateway:
            with GatewayClient(gateway.address) as client:
                client.submit(
                    [WarpJob(name=f"q{i}", benchmark="brev", small=True)
                     for i in range(2)],
                    wait=False, client_id="tenant-a")
                with pytest.raises(GatewayBusyError, match="quota"):
                    client.submit([WarpJob(name="late", benchmark="brev",
                                           small=True)],
                                  client_id="tenant-a")
                # The raw reply carries the client's own occupancy (all
                # additive keys; the error/code shape is the classic busy).
                with socket.create_connection(("127.0.0.1", gateway.port),
                                              timeout=30) as sock:
                    protocol.send_frame(sock, {
                        "magic": protocol.PROTOCOL_MAGIC,
                        "version": protocol.PROTOCOL_VERSION})
                    assert protocol.recv_frame(sock)["ok"]
                    protocol.send_frame(sock, {
                        "verb": "submit", "wait": True,
                        "client": "tenant-a",
                        "jobs": protocol.jobs_to_plain(
                            [WarpJob(name="raw", benchmark="brev",
                                     small=True)])})
                    reply = protocol.recv_frame(sock)
                assert reply["error"] == "busy" and reply["code"] == 429
                assert reply["client"] == "tenant-a"
                assert reply["client_pending"] == 2
                assert reply["client_quota"] == 2
                # An anonymous (or other-tenant) submission is only held
                # to the global limit.
                batch_id = client.submit(
                    [WarpJob(name="other", benchmark="brev", small=True)],
                    wait=False, client_id="tenant-b")
                assert batch_id.startswith("batch-")
                metrics = client.metrics(include_spans=False)
                assert metrics["client_quota"] == 2
                assert metrics["quota_rejections"] >= 2

    def test_quota_larger_batches_are_batch_too_large(self):
        with running_gateway(queue_limit=64, client_quota=2) as gateway:
            with GatewayClient(gateway.address) as client:
                with pytest.raises(RemoteError, match="batch-too-large"):
                    client.submit([WarpJob(name=f"j{i}", benchmark="brev",
                                           small=True) for i in range(3)],
                                  client_id="tenant-a")

    def test_concurrent_batches_match_sequential_canonical(self):
        """Satellite: two batches with overlapping CAD content executed
        concurrently (shared service, shared caches) are bit-identical —
        on the canonical fields — to sequential fresh-cache runs."""
        jobs_a = [WarpJob(name="a-brev", benchmark="brev", small=True),
                  WarpJob(name="a-idct", benchmark="idct", small=True)]
        jobs_b = [WarpJob(name="b-brev", benchmark="brev", small=True),
                  WarpJob(name="b-matmul", benchmark="matmul", small=True)]
        with running_gateway(service=WarpService(
                workers=0, artifact_cache=CadArtifactCache()),
                max_concurrent_batches=2) as gateway:
            with GatewayClient(gateway.address) as submit_a, \
                    GatewayClient(gateway.address) as submit_b:
                id_a = submit_a.submit(jobs_a, wait=False)
                id_b = submit_b.submit(jobs_b, wait=False)
                deadline = time.time() + 300
                while True:
                    status_a = submit_a.status(id_a)
                    status_b = submit_b.status(id_b)
                    if status_a["state"] == "done" \
                            and status_b["state"] == "done":
                        break
                    assert time.time() < deadline, (status_a, status_b)
                    time.sleep(0.05)
        serial_a = WarpService(workers=0,
                               artifact_cache=CadArtifactCache()).run(jobs_a)
        serial_b = WarpService(workers=0,
                               artifact_cache=CadArtifactCache()).run(jobs_b)
        assert status_a["report"].canonical() == serial_a.canonical()
        assert status_b["report"].canonical() == serial_b.canonical()

    def test_aging_prevents_batch_starvation(self):
        """Satellite: under sustained high-priority traffic on a single
        runner, an aged low-priority batch is scheduled ahead of younger
        high-priority batches (and last without aging)."""
        def run_drill(aging_interval_s):
            slow = WarpService(workers=0, worker_fn=_fake_slow_worker)
            with running_gateway(service=slow, max_concurrent_batches=1,
                                 aging_interval_s=aging_interval_s) \
                    as gateway:
                with GatewayClient(gateway.address) as client:
                    client.submit([WarpJob(name="blocker", benchmark="brev",
                                           small=True, priority=9)],
                                  wait=False)
                    low = client.submit([WarpJob(name="low", benchmark="brev",
                                                 small=True, priority=0)],
                                        wait=False)
                    # Let the low-priority batch accumulate age worth more
                    # than the priority gap before the high traffic lands.
                    time.sleep(0.15)
                    highs = [client.submit(
                        [WarpJob(name=f"high-{index}", benchmark="brev",
                                 small=True, priority=5)], wait=False)
                        for index in range(2)]
                    order = []
                    deadline = time.time() + 120
                    pending = {low: "low", highs[-1]: "high-last"}
                    while pending:
                        assert time.time() < deadline
                        for batch_id in list(pending):
                            if client.status(batch_id)["state"] == "done":
                                order.append(pending.pop(batch_id))
                        time.sleep(0.02)
            return order
        # Aging on (one level per 20ms): "low" ages past priority 5
        # while the blocker runs, so it beats the younger high batches.
        assert run_drill(0.02) == ["low", "high-last"]
        # Aging off: classic strict priority starves it to the back.
        assert run_drill(None) == ["high-last", "low"]


# ----------------------------------------------------------------------- CLI verbs
class TestServerCli:
    def test_submit_cli_round_trip(self, tmp_path):
        jobfile = EXAMPLES / "remote_jobs.json"
        out = tmp_path / "remote.json"
        with running_gateway(service=WarpService(
                workers=0, artifact_cache=CadArtifactCache())) as gateway:
            code = main(["submit", str(jobfile), "--gateway", gateway.address,
                         "--out", str(out), "--quiet"])
        assert code == 0
        plain = json.loads(out.read_text())
        assert plain["num_failed"] == 0
        assert {job["job_name"] for job in plain["jobs"]} \
            == {job.name for job in load_job_file(jobfile)}

    def test_malformed_gateway_addresses_are_clean_cli_errors(self, capsys):
        jobfile = EXAMPLES / "remote_jobs.json"
        assert main(["submit", str(jobfile), "--gateway", "localhost",
                     "--quiet"]) == 2
        assert "host:port" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, named", [
        (["serve", "--port", "0", "--peer", "127.0.0.1:7878"], "--peer"),
        (["mesh", "--gateway", "127.0.0.1:7877"], "'mesh'"),
        (["remote-suite", "--gateways", "127.0.0.1:7877"], "'remote-suite'"),
        (["suite", "--benchmarks", "brev", "--small",
          "--stages", "decompile,synthesis,place,route-greedy,implement,"
                      "binary-update"], "--stages"),
    ])
    def test_deleted_cli_entry_points_exit_2(self, argv, named, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert named in capsys.readouterr().err

    def test_submit_cli_reports_unreachable_gateway(self, capsys):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
        jobfile = EXAMPLES / "remote_jobs.json"
        code = main(["submit", str(jobfile),
                     "--gateway", f"127.0.0.1:{dead_port}", "--quiet"])
        assert code == 3
        assert "gateway" in capsys.readouterr().err


# ------------------------------------------------------------------ gateway smoke
def test_gateway_smoke_example_jobs():
    """CI smoke: start a gateway, submit the example job file over
    localhost, and assert report parity with the in-process results."""
    jobs = load_job_file(EXAMPLES / "remote_jobs.json")
    with running_gateway(service=WarpService(
            workers=0, artifact_cache=CadArtifactCache())) as gateway:
        with GatewayClient(gateway.address) as client:
            remote = client.submit(jobs)
    local = WarpService(workers=0,
                        artifact_cache=CadArtifactCache()).run(jobs)
    assert remote.num_failed == 0
    _assert_results_identical(remote.results, local.results)
    assert remote.speedup_table() == local.speedup_table()
    assert remote.energy_table() == local.energy_table()
