import hashlib
import json
import os
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holo import analysis, collector
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
from holo.analysis import FLOW_ROW_SIZE, encode_flow_block
from holo.net import ip_to_int
from holo import pcapio
from holo.packets import (
    LINK_ETHERNET,
    LINK_RAW_IPV4,
    PROTO_TCP,
    TCP_ACK,
    TCP_SYN,
    PacketRecord,
    build_tcp,
    wrap_ethernet,
)
from holo.pcapio import GLOBAL_HEADER, PACKET_HEADER, read_pcap

H10 = bucket_start_us("2025-08-01-10")
HOUR_US = collector.HOUR_US


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
        w.close()

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
        w.close()

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


    def test_running_hash_matches_file_bytes(self, tmp_path):
        """The hash kept while writing equals the file's sha256 across
        rotation, gap hours, a disk-budget pause and a repeated seal()."""
        w = HourlyWriter(tmp_path / "a", "s1")
        w.append(record(H10))
        w.append(record(H10 + 5, dport=23))
        w.append(record(H10 + 3 * 3_600_000_000))  # hours 11 and 12 sealed empty
        first = w.seal()
        assert w.seal() == first
        # three 56-byte frames of one flow and the flow's row fit the budget
        paused = HourlyWriter(tmp_path / "b", "s1", disk_budget=3 * 56 + FLOW_ROW_SIZE)
        for i in range(5):
            paused.append(record(H10 + i))
        assert paused.dropped == 2
        paused.close()
        sealed = [(tmp_path / "a", m) for m in w.sealed] + [(tmp_path / "b", m) for m in paused.sealed]
        assert [m.packet_count for _, m in sealed] == [2, 0, 0, 1, 3]
        for directory, meta in sealed:
            data = (directory / trace_filename("s1", meta.hour_bucket)).read_bytes()
            assert meta.content_hash == hashlib.sha256(data).hexdigest()


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

    def test_budget_counts_flow_log_rows(self, tmp_path):
        """Frames and flow-log rows together stay within the budget when
        every packet starts a flow, across hours; fixed headers aside."""
        budget = 5000
        w = HourlyWriter(tmp_path, "s1", disk_budget=budget)
        for i in range(200):
            w.append(record(H10 + i * 900_000_000, dport=i))  # four packets an hour
        w.close()
        assert w.dropped > 0
        pcaps = sorted(tmp_path.glob("*.pcap"))
        blocks = len(w.sealed)
        stored = sum(p.stat().st_size - 24 for p in pcaps)
        stored += sum(p.stat().st_size for p in tmp_path.glob("*.flows"))
        stored -= blocks * len(encode_flow_block([], "00" * 32))
        frames = sum(p.stat().st_size - 24 for p in pcaps)
        assert frames + FLOW_ROW_SIZE * sum(m.packet_count for m in w.sealed) == stored
        assert budget - (56 + FLOW_ROW_SIZE) < stored <= budget


def _files(directory) -> dict:
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}


def _analyze_flows(directory, out) -> bytes:
    from holo import cli

    assert cli.main(["analyze", "flows", "--in", str(directory), "--out", str(out)]) == 0
    return Path(out).read_bytes()


class TestRestart:
    def test_restarted_writer_never_rewrites_a_sealed_hour(self, tmp_path):
        traces = tmp_path / "traces"
        first = HourlyWriter(traces, "s1")
        first.append(record(H10))
        first.append(record(H10 + 1))
        first.close()
        sealed = _files(traces)
        assert sorted(sealed) == ["s1_2025-08-01-10.flows", "s1_2025-08-01-10.pcap",
                                  "s1_2025-08-01-10.pcap.meta.json"]
        want = _analyze_flows(traces, tmp_path / "first.csv")

        events = []
        second = HourlyWriter(traces, "s1", on_event=events.append)
        for i in range(3):
            second.append(record(H10 + 10 + i, dport=23))
        assert second.close() == []
        assert second.dropped == 3
        assert events == [{"event": "hour-sealed", "sensor": "s1", "bucket": "2025-08-01-10"}]
        assert _files(traces) == sealed  # pcap, meta and flow log byte-identical
        assert _analyze_flows(traces, tmp_path / "second.csv") == want

    def test_restarted_writer_resumes_with_the_next_hour(self, tmp_path):
        traces = tmp_path / "traces"
        first = HourlyWriter(traces, "s1")
        first.append(record(H10))
        first.close()
        sealed = _files(traces)
        second = HourlyWriter(traces, "s1")
        second.append(record(H10 + 5))  # refused: 10:00 is sealed
        second.append(record(H10 + HOUR_US))  # gap-free next hour
        second.append(record(H10 + 3 * HOUR_US))  # 12:00 sealed empty on the way
        second.close()
        assert second.dropped == 1
        assert [m.hour_bucket for m in second.sealed] == ["2025-08-01-11", "2025-08-01-12", "2025-08-01-13"]
        assert {name: _files(traces)[name] for name in sealed} == sealed
        walked = tmp_path / "walked"  # the same traces without flow logs
        walked.mkdir()
        for name, data in _files(traces).items():
            if not name.endswith(".flows"):
                (walked / name).write_bytes(data)
        assert _analyze_flows(traces, tmp_path / "a.csv") == _analyze_flows(walked, tmp_path / "b.csv")
        header, row = _analyze_flows(traces, tmp_path / "a.csv").splitlines()
        assert row.split(b",")[6] == b"3"  # one flow: the first writer's packet, two of the second's

    def test_flow_log_left_by_a_crashed_writer_is_kept(self, tmp_path):
        """A writer that died after logging an hour's block but before its
        meta leaves a log named as the next writer would name its own; that
        log is neither truncated nor appended to."""
        traces = tmp_path / "traces"
        traces.mkdir()
        torn = encode_flow_block([((1, 2, 6, 3, 4), [1, 0, H10, H10, 2])], "00" * 32)[:-5]
        (traces / "s1_2025-08-01-10.flows").write_bytes(torn)
        w = HourlyWriter(traces, "s1")
        w.append(record(H10))
        w.close()
        assert (traces / "s1_2025-08-01-10.flows").read_bytes() == torn
        (log,) = set(traces.glob("*.flows")) - {traces / "s1_2025-08-01-10.flows"}
        assert log.name == "s1_2025-08-01-10.1.flows"
        blocks = analysis.index_flow_logs([log])
        assert list(blocks) == [(traces, w.sealed[0].content_hash)]
        out = _analyze_flows(traces, tmp_path / "flows.csv")
        assert out.splitlines()[1].startswith(b"2025-08-01,198.51.100.7,10.9.0.5,6,40000,22,1,")


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

    def test_retention_leaves_no_flow_log_behind(self, tmp_path):
        local, sealed = make_sealed_dir(tmp_path, n_files=6, start="2025-08-01-21")
        logs = sorted(p.name for p in local.glob("*.flows"))
        assert logs == ["s1_2025-08-01-21.flows", "s1_2025-08-02-00.flows"]  # one per UTC day
        lake = LocalLake(tmp_path / "lake")
        # the first day's three hours go, so does their log; the second day's stays
        report = sync(SyncPolicy(retention_hours=1), local, lake, now=bucket_start_us("2025-08-02-01") / 1e6)
        assert report.deleted == 3
        assert sorted(p.name for p in local.glob("*.flows")) == ["s1_2025-08-02-00.flows"]
        # a log outlives its traces until the retention cutoff passes its day's end
        report = sync(SyncPolicy(retention_hours=1), local, lake, now=bucket_start_us("2025-08-03-00") / 1e6)
        assert report.deleted == 3
        assert sorted(p.name for p in local.glob("*.flows")) == ["s1_2025-08-02-00.flows"]
        report = sync(SyncPolicy(retention_hours=1), local, lake, now=bucket_start_us("2025-08-03-01") / 1e6)
        assert report.deleted == 0
        assert list(local.iterdir()) == []
        assert len(list(lake.root.rglob("*.flows"))) == len(sealed)

    def test_retention_drops_the_log_of_a_day_with_gap_hours(self, tmp_path):
        """Every zero-packet hour has the same bytes, hence the same hash; a
        later day's empty hour must not keep an expired day's log alive."""
        local = tmp_path / "local"
        w = HourlyWriter(local, "s1")
        for bucket in ("2025-08-01-21", "2025-08-01-23", "2025-08-02-00", "2025-08-02-02"):
            w.append(record(bucket_start_us(bucket)))  # hours 22 and 01 sealed empty
        w.close()
        gap = [m.content_hash for m in w.sealed if m.packet_count == 0]
        assert len(gap) == 2 and gap[0] == gap[1]
        lake = LocalLake(tmp_path / "lake")
        report = sync(SyncPolicy(retention_hours=1), local, lake, now=bucket_start_us("2025-08-02-01") / 1e6)
        assert report.deleted == 3
        assert sorted(p.name for p in local.glob("*.flows")) == ["s1_2025-08-02-00.flows"]

    def test_retention_keeps_the_log_of_a_day_being_sealed(self, tmp_path):
        """A block is logged before its hour's meta is written; a sync in
        between, early in the day, must not take the log for an orphan."""
        local = tmp_path / "local"
        w = HourlyWriter(local, "s1")
        w.append(record(H10))
        w.close()
        (local / "s1_2025-08-01-10.pcap.meta.json").unlink()  # as if the seal were still writing it
        sync(SyncPolicy(retention_hours=1), local, LocalLake(tmp_path / "lake"), now=H10 / 1e6 + 7200)
        assert (local / "s1_2025-08-01-10.flows").exists()

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


def test_lake_writes_no_flow_log_it_cannot_vouch_for(tmp_path):
    """An upload that is no pcap, or holds a packet outside its bucket's UTC
    day, gets no flow log, and a stale one from an earlier upload goes."""
    from holo import cli, pcapio
    from holo.packets import encode_record

    lake = LocalLake(tmp_path / "lake")
    bucket = "2025-08-01-10"
    pcap_path, _ = collector.lake_paths(lake.root, "s1", bucket)
    log = pcap_path.with_suffix(".flows")

    def upload(data: bytes) -> None:
        digest = hashlib.sha256(data).hexdigest()
        lake.put_chunk("s1", bucket, 0, data)
        lake.finalize("s1", bucket, TraceFileMeta("s1", bucket, 1, len(data), [], True, digest), digest)

    good = tmp_path / "good.pcap"
    pcapio.write_pcap(good, [(H10, encode_record(record(H10)))])
    upload(good.read_bytes())
    assert log.exists()
    upload(b"not a pcap at all")
    assert not log.exists()
    upload(good.read_bytes())
    upload(b"no pcap magic, and more bytes than a pcap header holds" * 4000)  # the walk stops early
    assert not log.exists()
    assert lake.verified_hash("s1", bucket)
    upload(good.read_bytes())
    assert log.exists()
    next_day = tmp_path / "next_day.pcap"
    pcapio.write_pcap(next_day, [(H10 + 86_400_000_000, encode_record(record(H10)))])
    upload(next_day.read_bytes())
    assert not log.exists()
    # the walk reads the packet's own day
    (flow,) = analysis.render_flows(cli._sensor_flows(lake.root)["s1"])
    assert flow.day == "2025-08-02"


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


# --- streamed reads, redaction and upload ------------------------------------


def _truncate_payloads(data: bytes) -> bytes:
    """Reference redaction, as sync did it with the whole trace in memory:
    every packet cut to its first REDACT_SNAP bytes."""
    out = bytearray(data[: GLOBAL_HEADER.size])
    pos = GLOBAL_HEADER.size
    while pos + PACKET_HEADER.size <= len(data):
        sec, usec, incl, orig = PACKET_HEADER.unpack_from(data, pos)
        pos += PACKET_HEADER.size
        raw = data[pos : pos + incl]
        pos += incl
        snapped = raw[: collector.REDACT_SNAP]
        out += PACKET_HEADER.pack(sec, usec, len(snapped), orig)
        out += snapped
    return bytes(out)


def _tcp_hours(directory, stamped_sizes, ethernet=False) -> list[TraceFileMeta]:
    """Seal one TCP packet per (ts, payload size), raw IPv4 or Ethernet framed."""
    w = HourlyWriter(directory, "s1", link_type=LINK_ETHERNET if ethernet else LINK_RAW_IPV4)
    src, dst = ip_to_int("198.51.100.7"), ip_to_int("10.9.0.5")
    for ts, size in stamped_sizes:
        ip = build_tcp(src, dst, 40000, 22, 1, 0, TCP_ACK, b"p" * size)
        w.append(PacketRecord(ts=ts, src_ip=0, dst_ip=0, proto=0), wrap_ethernet(ip) if ethernet else ip)
    return w.close()


@settings(max_examples=60, deadline=None)
@given(
    ethernet=st.booleans(),
    sizes=st.lists(st.integers(0, 1400), max_size=40),
    chunk=st.integers(100, 4000),
    resume=st.integers(0, 1 << 16),
)
def test_streamed_redaction_matches_the_reference(ethernet, sizes, chunk, resume):
    """The redacted stream, and the lake copy uploaded from it in chunks
    after an interrupted upload, equal the whole-trace reference, on
    hours with packets and on the empty hour between them."""
    stamped = [(H10 + n, size) for n, size in enumerate([0] + sizes)] + [(H10 + 2 * HOUR_US, 0)]
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(collector, "CHUNK_SIZE", chunk):
        local, lake = Path(tmp) / "local", LocalLake(Path(tmp) / "lake")
        sealed = _tcp_hours(local, stamped, ethernet)
        assert [m.packet_count for m in sealed] == [len(sizes) + 1, 0, 1]
        first = _truncate_payloads((local / trace_filename("s1", sealed[0].hour_bucket)).read_bytes())
        lake.put_chunk("s1", sealed[0].hour_bucket, 0, first[: resume % (len(first) + 1)])
        report = sync(SyncPolicy(redact=collector.REDACT_TRUNCATE), local, lake, now=0.0)
        assert report.uploaded == 3 and report.retried == 0
        for meta in sealed:
            path = local / trace_filename("s1", meta.hour_bucket)
            want = _truncate_payloads(path.read_bytes())
            pieces = list(collector._trace_chunks(path, truncate=True))
            assert b"".join(pieces) == want
            assert all(len(piece) <= chunk for piece in pieces)
            assert collector.lake_paths(lake.root, "s1", meta.hour_bucket)[0].read_bytes() == want


@pytest.mark.parametrize("redact", [collector.REDACT_NONE, collector.REDACT_TRUNCATE])
def test_sync_holds_a_chunk_not_the_hour(tmp_path, redact):
    """Upload, lake verification and the retention check stream the hour."""
    local = tmp_path / "local"
    (meta,) = _tcp_hours(local, [(H10 + n, 1400) for n in range(12_000)])
    assert (local / trace_filename("s1", meta.hour_bucket)).stat().st_size >= 16 << 20
    lake = LocalLake(tmp_path / "lake")
    tracemalloc.start()
    try:
        report = sync(SyncPolicy(retention_hours=1, redact=redact), local, lake, now=H10 / 1e6 + 2 * 3600)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.uploaded == 1 and report.deleted == 1
    assert lake.verified_hash("s1", meta.hour_bucket)
    assert peak < 4 << 20


def test_redacted_sync_restarts_a_longer_plain_part(tmp_path):
    """An interrupted plain upload left a part longer than the redacted
    hour: the upload starts a fresh part instead of failing its hash."""
    local = tmp_path / "local"
    (meta,) = _tcp_hours(local, [(H10 + n, 1400) for n in range(50)])
    plain = (local / trace_filename("s1", meta.hour_bucket)).read_bytes()
    lake = LocalLake(tmp_path / "lake")
    lake.put_chunk("s1", meta.hour_bucket, 0, plain[: len(plain) // 2])
    report = sync(SyncPolicy(retention_hours=9999, redact=collector.REDACT_TRUNCATE), local, lake, now=0.0)
    assert report.uploaded == 1 and report.retried == 0
    redacted = _truncate_payloads(plain)
    assert len(redacted) < len(plain) // 2
    assert lake.verified_hash("s1", meta.hour_bucket) == hashlib.sha256(redacted).hexdigest()


def test_redacted_sync_resends_an_hour_whose_part_fails_its_hash(tmp_path):
    """An interrupted plain upload left 1,000 bytes of hour 00, shorter than
    the redacted hour: the upload resumes on them and fails its hash, is
    sent once more from offset 0, and the sync goes on to every other hour
    and to retention."""
    local = tmp_path / "local"
    h00 = bucket_start_us("2025-08-01-00")
    metas = _tcp_hours(local, [(h00 + h * HOUR_US + n, 1400) for h in range(3) for n in range(20)])
    plain = [(local / trace_filename("s1", m.hour_bucket)).read_bytes() for m in metas]
    want = [hashlib.sha256(_truncate_payloads(data)).hexdigest() for data in plain]
    assert len(_truncate_payloads(plain[0])) > 1000
    lake = LocalLake(tmp_path / "lake")
    lake.put_chunk("s1", metas[0].hour_bucket, 0, plain[0][:1000])
    policy = SyncPolicy(retention_hours=1, redact=collector.REDACT_TRUNCATE)
    report = sync(policy, local, lake, now=h00 / 1e6 + 10 * 3600)
    assert report.uploaded == 3 and report.deleted == 3
    assert [lake.verified_hash("s1", m.hour_bucket) for m in metas] == want


def test_sync_raises_when_a_resent_hour_fails_its_hash_again(tmp_path):
    local, _ = make_sealed_dir(tmp_path, n_files=2)

    class GarblingLake(LocalLake):
        """Stores zeros for every byte sent, so each finalize mismatches."""

        finalized = 0

        def put_chunk(self, sensor_id, bucket, offset, data):
            super().put_chunk(sensor_id, bucket, offset, bytes(len(data)))

        def finalize(self, *args):
            self.finalized += 1
            super().finalize(*args)

    lake = GarblingLake(tmp_path / "lake")
    with pytest.raises(collector.HashMismatch, match="hash mismatch for s1/2025-08-01-10"):
        sync(SyncPolicy(retention_hours=1), local, lake, now=H10 / 1e6 + 10 * 3600)
    assert lake.finalized == 2
    assert lake.holdings() == [] and len(list_sealed(local)) == 2


def test_read_pcap_closes_a_path_it_stops_reading(tmp_path, monkeypatch):
    _tcp_hours(tmp_path, [(H10 + n, 10) for n in range(3)])
    path = tmp_path / trace_filename("s1", "2025-08-01-10")
    opened = []

    def spy_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(pcapio, "open", spy_open, raising=False)
    packets = read_pcap(path)
    next(packets)
    assert not opened[0].closed
    packets.close()
    assert opened[0].closed
    abandoned = read_pcap(path)
    next(abandoned)
    del abandoned
    assert opened[1].closed
    with open(path, "rb") as fh:  # a file handed in stays open
        assert len(list(read_pcap(fh))) == 3
        assert not fh.closed
