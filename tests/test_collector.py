import hashlib
import json
import os
from pathlib import Path

import pytest

from holo import collector
from holo.collector import (
    HourlyWriter,
    LakeUnreachable,
    LocalLake,
    SyncPolicy,
    TraceFileMeta,
    bucket_start_us,
    hour_bucket,
    list_sealed,
    read_meta,
    sync,
    trace_filename,
)
from holo.net import ip_to_int
from holo.packets import LINK_RAW_IPV4, PROTO_TCP, TCP_SYN, PacketRecord
from holo.pcapio import read_pcap

H10 = bucket_start_us("2025-08-01-10")


def record(ts, dport=22):
    return PacketRecord(ts=ts, src_ip=ip_to_int("198.51.100.7"), dst_ip=ip_to_int("10.9.0.5"), proto=PROTO_TCP,
                        src_port=40000, dst_port=dport, tcp_flags=TCP_SYN)


class TestRotation:
    def test_floor_to_hour(self, tmp_path):
        w = HourlyWriter(tmp_path, "s1")
        w.append(record(H10 + 3599_999_999))  # 10:59:59.999999
        w.seal()
        assert (tmp_path / "s1_2025-08-01-10.pcap").exists()

    def test_boundary_packet_rotates(self, tmp_path):
        w = HourlyWriter(tmp_path, "s1")
        w.append(record(H10 + 3599_999_999))
        w.append(record(H10 + 3_600_000_000))  # 11:00:00.000000
        assert w.sealed[0].hour_bucket == "2025-08-01-10"
        assert (tmp_path / "s1_2025-08-01-10.pcap.meta.json").exists()
        w.seal()
        assert (tmp_path / "s1_2025-08-01-11.pcap").exists()

    def test_silent_hours_still_sealed(self, tmp_path):
        w = HourlyWriter(tmp_path, "s1")
        w.append(record(H10))
        w.append(record(H10 + 3 * 3_600_000_000))  # skips hours 11 and 12
        w.seal()
        buckets = [m.hour_bucket for m in w.sealed]
        assert buckets == ["2025-08-01-10", "2025-08-01-11", "2025-08-01-12", "2025-08-01-13"]
        assert [m.packet_count for m in w.sealed] == [1, 0, 0, 1]

    def test_timestamp_going_backwards_rejected(self, tmp_path):
        w = HourlyWriter(tmp_path, "s1")
        w.append(record(H10 + 3_600_000_000))
        with pytest.raises(collector.CollectorError):
            w.append(record(H10))

    def test_three_hour_partition_counts(self, tmp_path):
        w = HourlyWriter(tmp_path, "s1")
        n = 9_000
        span = 3 * 3_600_000_000
        for i in range(n):
            w.append(record(H10 + i * span // n))
        w.seal()
        assert len(w.sealed) == 3
        assert sum(m.packet_count for m in w.sealed) == n
        # read-back conservation per file
        for meta in w.sealed:
            path = tmp_path / trace_filename("s1", meta.hour_bucket)
            assert sum(1 for _ in read_pcap(path)) == meta.packet_count


class TestSeal:
    def test_empty_hour_seals_zero_packets(self, tmp_path):
        w = HourlyWriter(tmp_path, "s1")
        w.append(record(H10))
        w.append(record(H10 + 3_600_000_000))
        empty_like = w.sealed[0]
        assert empty_like.packet_count == 1
        w2 = HourlyWriter(tmp_path / "b", "s1")
        w2._open("2025-08-01-10")
        meta = w2.seal()
        assert meta.packet_count == 0 and meta.sealed

    def test_reseal_idempotent(self, tmp_path):
        w = HourlyWriter(tmp_path, "s1")
        w.append(record(H10))
        first = w.seal()
        again = w.seal()
        assert again == first

    def test_manifest_lists_running_modules(self, tmp_path):
        manifest = [["darknet-main", "1.2", "darknet-main-0"], ["hp", "0.9", "hp-0"]]
        w = HourlyWriter(tmp_path, "s1", manifest=lambda: manifest)
        w.append(record(H10))
        meta = w.seal()
        assert meta.module_manifest == manifest
        sidecar = read_meta(tmp_path / "s1_2025-08-01-10.pcap.meta.json")
        assert sidecar.module_manifest == manifest

    def test_content_hash_matches_file(self, tmp_path):
        w = HourlyWriter(tmp_path, "s1")
        w.append(record(H10))
        meta = w.seal()
        digest = hashlib.sha256((tmp_path / "s1_2025-08-01-10.pcap").read_bytes()).hexdigest()
        assert meta.content_hash == digest


class TestDiskFull:
    def test_pause_drop_counter_event(self, tmp_path):
        events = []
        w = HourlyWriter(tmp_path, "s1", disk_budget=200, on_event=events.append)
        for i in range(20):
            w.append(record(H10 + i))
        assert w.dropped > 0
        assert events and events[0]["event"] == "disk-full"
        meta = w.seal()
        assert meta.packet_count + w.dropped == 20


def make_sealed_dir(tmp_path, n_files=4, start="2025-08-01-10", packets_per=3):
    local = tmp_path / "local"
    w = HourlyWriter(local, "s1")
    base = bucket_start_us(start)
    for h in range(n_files):
        for p in range(packets_per):
            w.append(record(base + h * 3_600_000_000 + p * 1000))
    w.seal()
    return local, w.sealed


class TestSync:
    def test_disabled_noop(self, tmp_path):
        local, _ = make_sealed_dir(tmp_path)
        lake = LocalLake(tmp_path / "lake")
        report = sync(SyncPolicy(enabled=False), local, lake)
        assert report.uploaded == 0 and report.deleted == 0
        assert lake.holdings() == []

    def test_upload_then_retention_arithmetic(self, tmp_path):
        # 30 hourly files, retention 24h measured from the newest file's end
        local, sealed = make_sealed_dir(tmp_path, n_files=30)
        lake = LocalLake(tmp_path / "lake")
        now = bucket_start_us(sealed[-1].hour_bucket) / 1e6 + 3600.0
        report = sync(SyncPolicy(retention_hours=24), local, lake, now=now)
        assert report.uploaded == 30
        assert report.deleted == 6
        assert len(lake.holdings()) == 30
        assert len(list_sealed(local)) == 24

    def test_nothing_deleted_without_lake_copy(self, tmp_path):
        local, sealed = make_sealed_dir(tmp_path, n_files=3)

        class RefusingLake:
            def part_size(self, *a):
                raise LakeUnreachable("down")

            def put_chunk(self, *a):
                raise LakeUnreachable("down")

            def finalize(self, *a):
                raise LakeUnreachable("down")

            def verified_hash(self, *a):
                return None

        sleeps = []
        with pytest.raises(LakeUnreachable):
            sync(SyncPolicy(retention_hours=1), local, RefusingLake(),
                 now=bucket_start_us(sealed[-1].hour_bucket) / 1e6 + 7 * 24 * 3600,
                 sleep=sleeps.append, max_attempts=4)
        assert len(list_sealed(local)) == 3  # nothing deleted
        assert sleeps == [1.0, 2.0, 4.0]  # exponential backoff

    def test_backoff_capped_at_fifteen_minutes(self, tmp_path):
        local, _ = make_sealed_dir(tmp_path, n_files=1)

        class Refusing:
            def part_size(self, *a):
                raise LakeUnreachable("down")
            put_chunk = finalize = part_size

            def verified_hash(self, *a):
                return None

        sleeps = []
        with pytest.raises(LakeUnreachable):
            sync(SyncPolicy(), local, Refusing(), sleep=sleeps.append, max_attempts=14)
        assert max(sleeps) == collector.BACKOFF_CAP
        assert sleeps.count(collector.BACKOFF_CAP) >= 2

    def test_interrupted_upload_resumes(self, tmp_path):
        local, sealed = make_sealed_dir(tmp_path, n_files=1)
        lake = LocalLake(tmp_path / "lake")
        meta = sealed[0]
        data = (local / trace_filename("s1", meta.hour_bucket)).read_bytes()
        # half the bytes already arrived in an earlier, interrupted run
        lake.put_chunk("s1", meta.hour_bucket, 0, data[: len(data) // 2])
        report = sync(SyncPolicy(), local, lake, now=0.0)
        assert report.uploaded == 1
        assert lake.verified_hash("s1", meta.hour_bucket) == meta.content_hash

    def test_orphan_sidecar_cleanup(self, tmp_path):
        local, sealed = make_sealed_dir(tmp_path, n_files=2)
        pcap = local / trace_filename("s1", sealed[0].hour_bucket)
        pcap.chmod(0o644)
        pcap.unlink()  # crash happened between the two deletes
        remaining = list_sealed(local)
        assert len(remaining) == 1
        assert not (local / (trace_filename("s1", sealed[0].hour_bucket) + ".meta.json")).exists()

    def test_bandwidth_cap_paces_upload(self, tmp_path):
        local, sealed = make_sealed_dir(tmp_path, n_files=1, packets_per=200)
        lake = LocalLake(tmp_path / "lake")
        size = (local / trace_filename("s1", sealed[0].hour_bucket)).stat().st_size
        clock = [0.0]

        def fake_clock():
            return clock[0]

        def fake_sleep(seconds):
            clock[0] += seconds

        cap = 1000
        report = sync(SyncPolicy(bandwidth_cap=cap), local, lake,
                      now=0.0, clock=fake_clock, sleep=fake_sleep)
        assert report.uploaded == 1
        assert clock[0] >= (size - cap) / cap  # cap bounds the throughput
        assert lake.verified_hash("s1", sealed[0].hour_bucket) == sealed[0].content_hash

    def test_redaction_truncates_payloads(self, tmp_path):
        local = tmp_path / "local"
        w = HourlyWriter(local, "s1")
        big = PacketRecord(ts=H10, src_ip=ip_to_int("1.1.1.1"), dst_ip=ip_to_int("10.9.0.5"), proto=PROTO_TCP,
                           src_port=1, dst_port=2, payload_len=200, payload_prefix=b"z" * 200)
        w.append(big)
        sealed = w.seal()
        lake = LocalLake(tmp_path / "lake")
        sync(SyncPolicy(redact=collector.REDACT_TRUNCATE), local, lake, now=0.0)
        pcap_path, _ = collector.lake_paths(lake.root, "s1", sealed.hour_bucket)
        packets = list(read_pcap(pcap_path))
        assert len(packets) == 1
        assert len(packets[0][1]) == collector.REDACT_SNAP

    def test_second_sync_skips_uploaded(self, tmp_path):
        local, _ = make_sealed_dir(tmp_path, n_files=2)
        lake = LocalLake(tmp_path / "lake")
        first = sync(SyncPolicy(retention_hours=9999), local, lake, now=0.0)
        second = sync(SyncPolicy(retention_hours=9999), local, lake, now=0.0)
        assert first.uploaded == 2
        assert second.uploaded == 0 and second.skipped == 2


class SimCrash(Exception):
    pass


class CrashingLake:
    """Raises SimCrash on the n-th lake operation (process-death model)."""

    def __init__(self, inner, fail_at):
        self.inner = inner
        self.fail_at = fail_at
        self.ops = 0

    def _tick(self):
        self.ops += 1
        if self.ops == self.fail_at:
            raise SimCrash(f"crash at op {self.ops}")

    def part_size(self, *a):
        self._tick()
        return self.inner.part_size(*a)

    def put_chunk(self, *a):
        self._tick()
        return self.inner.put_chunk(*a)

    def finalize(self, *a):
        self._tick()
        return self.inner.finalize(*a)

    def verified_hash(self, *a):
        self._tick()
        return self.inner.verified_hash(*a)


def assert_no_loss(local, lake, all_metas):
    """Every sealed file is either still local or hash-verified in the lake."""
    local_buckets = {m.hour_bucket for _, m in list_sealed(local)}
    for meta in all_metas:
        if meta.hour_bucket not in local_buckets:
            assert lake.verified_hash(meta.sensor_id, meta.hour_bucket) == meta.content_hash


def test_crash_at_every_sync_step_never_loses_data(tmp_path):
    local, sealed = make_sealed_dir(tmp_path, n_files=3)
    now = bucket_start_us(sealed[-1].hour_bucket) / 1e6 + 7 * 24 * 3600.0
    policy = SyncPolicy(retention_hours=1)  # everything beyond retention

    # measure how many lake ops a clean run needs
    probe_lake = LocalLake(tmp_path / "probe")
    probe = CrashingLake(probe_lake, fail_at=10**9)
    sync(policy, local, probe, now=now)
    total_ops = probe.ops
    assert total_ops > 0

    for fail_at in range(1, total_ops + 1):
        base = tmp_path / f"run{fail_at}"
        local_k, metas = make_sealed_dir(base, n_files=3)
        lake = LocalLake(base / "lake")
        crashing = CrashingLake(lake, fail_at)
        try:
            sync(policy, local_k, crashing, now=now)
        except SimCrash:
            pass
        assert_no_loss(local_k, lake, metas)
        # recovery: a clean re-run converges the lake to the sealed set
        sync(policy, local_k, lake, now=now)
        assert_no_loss(local_k, lake, metas)
        assert {(m.sensor_id, m.hour_bucket) for m in metas} == set(lake.holdings())


def test_interrupted_sidecar_write_leaves_no_partial_meta(tmp_path, monkeypatch):
    """A crash before the rename leaves no .meta.json, so listing never sees a torn one."""
    real_replace = os.replace

    def crash_on_meta(src, dst):
        if str(dst).endswith(".meta.json"):
            raise OSError("simulated crash before rename")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", crash_on_meta)
    local = tmp_path / "local"
    w = HourlyWriter(local, "s1")
    w.append(record(H10))
    with pytest.raises(OSError):
        w.seal()
    assert list(local.glob("*.meta.json")) == []
    assert list_sealed(local) == []
    assert collector.sealed_traces(local) == []

    lake = LocalLake(tmp_path / "lake")
    bucket = "2025-08-01-10"
    data = (local / trace_filename("s1", bucket)).read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    meta = TraceFileMeta("s1", bucket, 1, len(data), [], True, digest)
    lake.put_chunk("s1", bucket, 0, data)
    with pytest.raises(OSError):
        lake.finalize("s1", bucket, meta, digest)
    assert list((tmp_path / "lake").rglob("*.meta.json")) == []
    assert lake.holdings() == []
    assert lake.verified_hash("s1", bucket) is None

    monkeypatch.undo()  # the retried upload completes
    lake.put_chunk("s1", bucket, 0, data)
    lake.finalize("s1", bucket, meta, digest)
    assert lake.holdings() == [("s1", bucket)]
    assert lake.verified_hash("s1", bucket) == digest
