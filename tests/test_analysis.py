import random
import struct
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holo import analysis, cli, collector
from holo.analysis import (
    AnalysisError,
    FlowRecord,
    WindowEmpty,
    aggregate_flows,
    backscatter_label,
    bucket_by_day,
    classify_backscatter,
    common_sender_ratio,
    day_bounds_us,
    day_of,
    day_range,
    flows_per_ip_series,
    port_cdf,
    qualifying_senders,
    unique_senders,
)
from holo.net import AddressRange, ip_to_int
from holo.packets import (
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    TCP_ACK,
    TCP_RST,
    TCP_SYN,
    ETHERTYPE_ARP,
    LINK_ETHERNET,
    LINK_RAW_IPV4,
    DecodeError,
    FlowKey,
    PacketRecord,
    build_icmp,
    build_ipv4,
    build_tcp,
    build_udp,
    decode,
    wrap_ethernet,
)
from holo.collector import REDACT_TRUNCATE, HourlyWriter, LocalLake, SyncPolicy, sync
from holo.pcapio import read_pcap

import flow_reference
from flow_reference import packet_table, rendered, table_of, tables_of

DAY = "2025-08-01"
DAY_US = day_bounds_us(DAY)[0]


def pkt(src="1.1.1.1", dst="10.9.0.1", proto=PROTO_TCP, sport=1000, dport=22,
        flags=TCP_SYN, ts_off=0, payload_len=0):
    return PacketRecord(ts=DAY_US + ts_off, src_ip=ip_to_int(src), dst_ip=ip_to_int(dst), proto=proto,
                        src_port=sport, dst_port=dport, tcp_flags=flags,
                        payload_len=payload_len)


def flow(src, day=DAY, packets=1, dst="10.9.0.1", proto=PROTO_TCP, sport=1000, dport=22):
    key = FlowKey(src, dst, proto, sport, dport)
    return FlowRecord(key=key, day=day, packets=packets, bytes=0,
                      first_ts=day_bounds_us(day)[0], last_ts=day_bounds_us(day)[0],
                      flags_seen=0)


class TestAggregateFlows:
    def test_single_packet_single_flow(self):
        flows = aggregate_flows([pkt()], DAY)
        assert len(flows) == 1
        assert flows[0].packets == 1

    def test_key_definition_splits_on_src_port(self):
        packets = [pkt(), pkt(ts_off=1), pkt(ts_off=2), pkt(sport=1001, ts_off=3)]
        flows = aggregate_flows(packets, DAY)
        assert sorted(f.packets for f in flows) == [1, 3]

    def test_outside_day_rejected(self):
        with pytest.raises(AnalysisError):
            aggregate_flows([pkt(ts_off=86_400_000_000)], DAY)

    def test_flags_first_last_and_bytes(self):
        packets = [
            pkt(flags=TCP_SYN, ts_off=10, payload_len=5),
            pkt(flags=TCP_ACK, ts_off=30, payload_len=7),
        ]
        rec = aggregate_flows(packets, DAY)[0]
        assert rec.flags_seen == TCP_SYN | TCP_ACK
        assert (rec.first_ts, rec.last_ts) == (DAY_US + 10, DAY_US + 30)
        assert rec.bytes == 12

    def test_nested_loop_oracle(self):
        """Hash-free nested-loop oracle over a seeded random stream."""
        rng = random.Random(42)
        packets = [
            pkt(src=f"198.51.{rng.randrange(4)}.{rng.randrange(8)}",
                dst=f"10.9.0.{rng.randrange(4)}",
                sport=rng.randrange(1000, 1004),
                dport=rng.choice([22, 23]),
                ts_off=i)
            for i in range(5_000)
        ]
        flows = aggregate_flows(packets, DAY)

        oracle_keys: list[FlowKey] = []
        oracle_counts: list[int] = []
        for p in packets:
            key = p.flow_key()
            for i, seen in enumerate(oracle_keys):
                if seen == key:
                    oracle_counts[i] += 1
                    break
            else:
                oracle_keys.append(key)
                oracle_counts.append(1)
        assert len(flows) == len(oracle_keys)
        oracle = dict(zip(oracle_keys, oracle_counts))
        for rec in flows:
            assert oracle[rec.key] == rec.packets

    def test_sort_group_oracle_100k(self):
        """Sort-and-group oracle (no hashing) over 10^5 seeded packets."""
        rng = random.Random(7)
        packets = [
            pkt(src=f"198.51.{rng.randrange(16)}.{rng.randrange(64)}",
                dst=f"10.9.{rng.randrange(2)}.{rng.randrange(256)}",
                sport=rng.randrange(1024, 2048),
                dport=rng.choice([22, 23, 2000, 9200]),
                ts_off=i)
            for i in range(100_000)
        ]
        flows = aggregate_flows(packets, DAY)
        keys = sorted(p.flow_key() for p in packets)
        oracle = []
        run_key, run_n = keys[0], 1
        for key in keys[1:]:
            if key == run_key:
                run_n += 1
            else:
                oracle.append((run_key, run_n))
                run_key, run_n = key, 1
        oracle.append((run_key, run_n))
        assert Counter({k: n for k, n in oracle}) == Counter({f.key: f.packets for f in flows})

    def test_output_sorted_and_deterministic(self):
        rng = random.Random(3)
        packets = [pkt(src=f"9.8.{rng.randrange(9)}.{rng.randrange(9)}", ts_off=i) for i in range(500)]
        a = aggregate_flows(packets, DAY)
        b = aggregate_flows(list(reversed(packets)), DAY)
        assert [f.key for f in a] == [f.key for f in b]
        assert [f.key.sort_key() for f in a] == sorted(f.key.sort_key() for f in a)


SUBNET = AddressRange.parse("10.9.0.0/24")


class TestFlowsPerIp:
    def test_zero_day_present_not_missing(self):
        days = day_range(DAY, 3)
        flows = [flow("1.1.1.1", day=DAY)]
        series = flows_per_ip_series(table_of(flows), SUBNET, days)
        assert [s.day for s in series] == days
        assert series[1].total == 0 and series[1].mean == 0.0

    def test_uniform_rate_exact_mean(self):
        # one flow per address -> mean exactly 1.0
        flows = [flow("1.1.1.1", dst=f"10.9.0.{i}", sport=2000 + i) for i in range(256)]
        series = flows_per_ip_series(table_of(flows), SUBNET, [DAY])
        assert series[0].mean == 1.0
        assert series[0].min == 1 and series[0].max == 1

    def test_single_hot_address(self):
        flows = [flow("1.1.1.1", dst="10.9.0.7", sport=3000 + i) for i in range(512)]
        series = flows_per_ip_series(table_of(flows), SUBNET, [DAY])
        assert series[0].max == 512
        assert series[0].mean == 512 / 256
        assert series[0].min == 0

    def test_requires_slash24(self):
        with pytest.raises(AnalysisError):
            flows_per_ip_series({}, AddressRange.parse("10.9.0.0/23"), [DAY])


class TestOverlap:
    def test_identical_sender_sets_all_ones(self):
        flows_a = [flow(f"1.1.1.{i}", packets=600) for i in range(5)]
        flows_b = [flow(f"1.1.1.{i}", packets=700, dst="10.9.1.1") for i in range(5)]
        m = common_sender_ratio(tables_of({"a": flows_a, "b": flows_b}), min_packets=500)
        assert m.ratio == [[1.0, 1.0], [1.0, 1.0]]

    def test_set_enumeration_oracle(self):
        # S_a = {a,b,c}, S_b = {b,c,d} -> both directed ratios 2/3
        flows_a = [flow(ip, packets=500) for ip in ("9.0.0.1", "9.0.0.2", "9.0.0.3")]
        flows_b = [flow(ip, packets=500) for ip in ("9.0.0.2", "9.0.0.3", "9.0.0.4")]
        m = common_sender_ratio(tables_of({"a": flows_a, "b": flows_b}), min_packets=500)
        assert m.ratio[0][1] == pytest.approx(2 / 3)
        assert m.ratio[1][0] == pytest.approx(2 / 3)
        assert m.ratio[0][0] == 1.0 and m.ratio[1][1] == 1.0

    def test_threshold_boundary_499_out_500_in(self):
        flows_a = [flow("9.0.0.1", packets=499), flow("9.0.0.2", packets=500)]
        flows_b = [flow("9.0.0.2", packets=500)]
        m = common_sender_ratio(tables_of({"a": flows_a, "b": flows_b}), min_packets=500)
        assert m.sender_sets["a"] == {"9.0.0.2"}
        assert m.ratio[0][1] == 1.0

    def test_packets_summed_across_flows_in_window(self):
        # 250 + 250 packets from the same sender clear the 500 threshold
        flows_a = [flow("9.0.0.1", packets=250, dport=22), flow("9.0.0.1", packets=250, dport=23)]
        assert qualifying_senders(table_of(flows_a), [DAY], 500) == {"9.0.0.1"}

    def test_empty_qualifying_row_is_zero_including_diagonal(self):
        flows_a = [flow("9.0.0.1", packets=1)]
        flows_b = [flow("9.0.0.2", packets=999)]
        m = common_sender_ratio(tables_of({"a": flows_a, "b": flows_b}), min_packets=500)
        assert m.ratio[0] == [0.0, 0.0]
        assert m.ratio[1][1] == 1.0

    def test_window_excludes_out_of_range_days(self):
        far = "2025-09-15"
        flows_a = [flow("9.0.0.1", packets=999), flow("9.0.0.9", packets=999, day=far)]
        flows_b = [flow("9.0.0.1", packets=999)]
        m = common_sender_ratio(tables_of({"a": flows_a, "b": flows_b}), window_days=15, min_packets=500)
        assert m.sender_sets["a"] == {"9.0.0.1"}

    def test_window_empty(self):
        with pytest.raises(WindowEmpty):
            common_sender_ratio({"a": {}, "b": {}})

    def test_needs_two_sensors(self):
        with pytest.raises(AnalysisError):
            common_sender_ratio(tables_of({"a": [flow("9.0.0.1")]}))

    def test_top_fraction_keeps_heaviest(self):
        flows_a = [flow(f"9.0.0.{i}", packets=500 + i) for i in range(10)]
        keep = qualifying_senders(table_of(flows_a), [DAY], 500, top_fraction=0.5)
        assert keep == {f"9.0.0.{i}" for i in range(5, 10)}

    def test_monotonic_in_min_packets(self):
        flows_a = [flow(f"9.0.0.{i}", packets=100 * i) for i in range(10)]
        sizes = [len(qualifying_senders(table_of(flows_a), [DAY], mp)) for mp in (0, 100, 300, 700, 1200)]
        assert sizes == sorted(sizes, reverse=True)

    def test_jaccard_mode(self):
        flows_a = [flow(ip, packets=500) for ip in ("9.0.0.1", "9.0.0.2", "9.0.0.3")]
        flows_b = [flow(ip, packets=500) for ip in ("9.0.0.2", "9.0.0.3", "9.0.0.4")]
        m = common_sender_ratio(tables_of({"a": flows_a, "b": flows_b}), min_packets=500, mode="jaccard")
        assert m.ratio[0][1] == pytest.approx(2 / 4)
        assert m.ratio[1][0] == pytest.approx(2 / 4)


class TestPortCdf:
    def test_point_mass_at_22(self):
        packets = [pkt(dport=22, sport=1000 + i, ts_off=i) for i in range(10)]
        dist = port_cdf([packet_table(packets)])
        assert dist.fraction_at(21) == 0.0
        assert dist.fraction_at(22) == 1.0
        assert dist.fraction_at(65535) == 1.0

    def test_forty_percent_jump_at_9200(self):
        packets = [pkt(dport=9200, sport=i, ts_off=i) for i in range(40)]
        packets += [pkt(dport=22, sport=i, ts_off=100 + i) for i in range(60)]
        dist = port_cdf([packet_table(packets)])
        assert dist.fraction_at(9200) - dist.fraction_at(9199) == pytest.approx(0.40)

    def test_empty_flagged(self):
        dist = port_cdf([])
        assert dist.empty
        assert dist.cumulative() == []

    def test_non_tcp_ignored(self):
        packets = [pkt(proto=PROTO_UDP, dport=53, flags=0), pkt(dport=22)]
        dist = port_cdf([packet_table(packets)])
        assert set(dist.counts) == {22}

    def test_flow_weighting(self):
        flows = [flow("1.1.1.1", packets=100, dport=22), flow("1.1.1.2", packets=1, dport=23)]
        by_packets = port_cdf([table_of(flows)], weight="packets")
        by_flows = port_cdf([table_of(flows)], weight="flows")
        assert by_packets.counts == {22: 100, 23: 1}
        assert by_flows.counts == {22: 1, 23: 1}

    def test_monotone_reaching_one(self):
        rng = random.Random(5)
        packets = [pkt(dport=rng.randrange(1, 65536), sport=i % 60000, ts_off=i) for i in range(2000)]
        cum = port_cdf([packet_table(packets)]).cumulative()
        fractions = [c for _, _, c in cum]
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0


class TestBackscatter:
    def test_synack_true(self):
        assert classify_backscatter(pkt(flags=TCP_SYN | TCP_ACK))

    def test_pure_syn_false(self):
        assert not classify_backscatter(pkt(flags=TCP_SYN))

    def test_udp_false(self):
        assert not classify_backscatter(pkt(proto=PROTO_UDP, flags=0))

    def test_extended_label_includes_rst(self):
        assert backscatter_label(pkt(flags=TCP_RST)) == "rst"
        assert backscatter_label(pkt(flags=TCP_RST | TCP_ACK)) == "rst"
        assert backscatter_label(pkt(flags=TCP_SYN | TCP_ACK)) == "synack"
        assert backscatter_label(pkt(flags=TCP_SYN)) is None
        assert backscatter_label(pkt(proto=PROTO_ICMP, flags=0)) is None
        # the boolean op stays strictly SYN/ACK
        assert not classify_backscatter(pkt(flags=TCP_RST))


class TestUniqueSenders:
    def test_disjoint_union(self):
        counts = unique_senders(tables_of({"a": [flow("9.0.0.1")], "b": [flow("9.0.0.2")]}))
        assert counts.per_sensor == {"a": 1, "b": 1}
        assert counts.global_count == 2

    def test_identical_sets(self):
        counts = unique_senders(tables_of({"a": [flow("9.0.0.1")], "b": [flow("9.0.0.1")]}))
        assert counts.global_count == 1

    def test_day_filter(self):
        flows_a = [flow("9.0.0.1"), flow("9.0.0.2", day="2025-08-02")]
        counts = unique_senders(tables_of({"a": flows_a}), day=DAY)
        assert counts.per_sensor["a"] == 1


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30), st.integers(0, 86399)),
                min_size=1, max_size=300))
def test_conservation_property(triples):
    """Sum of per-flow packet counts equals packets ingested."""
    packets = [
        pkt(src=f"9.0.0.{a}", dst=f"10.9.0.{b}", sport=1000 + a, ts_off=off * 1_000_000)
        for a, b, off in triples
    ]
    flows = aggregate_flows(packets, DAY)
    assert sum(f.packets for f in flows) == len(packets)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.sampled_from(["s1", "s2", "s3"]),
                       st.lists(st.integers(0, 40), max_size=40), min_size=2))
def test_union_bound_property(sensor_srcs):
    """max per-sensor <= global unique <= sum of per-sensor counts."""
    sensor_flows = {
        sensor: [flow(f"9.0.0.{i}", packets=1) for i in srcs]
        for sensor, srcs in sensor_srcs.items()
    }
    counts = unique_senders(tables_of(sensor_flows))
    per = counts.per_sensor.values()
    assert max(per) <= counts.global_count <= sum(per)


def test_overlap_entries_within_unit_interval():
    rng = random.Random(11)
    sensor_flows = {
        s: [flow(f"9.0.{rng.randrange(3)}.{rng.randrange(20)}", packets=rng.randrange(1, 1000))
            for _ in range(50)]
        for s in ("s1", "s2", "s3")
    }
    m = common_sender_ratio(tables_of(sensor_flows), min_packets=300)
    for row in m.ratio:
        for v in row:
            assert 0.0 <= v <= 1.0


def test_csv_outputs_byte_identical(tmp_path):
    rng = random.Random(13)
    packets = [
        pkt(src=f"9.0.{rng.randrange(4)}.{rng.randrange(30)}", dport=rng.choice([22, 23]),
            sport=rng.randrange(1024, 3000), ts_off=i)
        for i in range(2000)
    ]
    flows = aggregate_flows(packets, DAY)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    analysis.write_flows_csv(out1, [table_of(flows)])
    analysis.write_flows_csv(out2, [table_of(aggregate_flows(list(reversed(packets)), DAY))])
    assert out1.read_bytes() == out2.read_bytes()

    dist = port_cdf([packet_table(packets)])
    p1, p2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
    analysis.write_portcdf_csv(p1, dist)
    analysis.write_portcdf_csv(p2, port_cdf([packet_table(list(reversed(packets)))]))
    assert p1.read_bytes() == p2.read_bytes()


# --- streaming trace path against decode + bucket_by_day + aggregate_flows --

ADDRS = ["198.51.100.1", "198.51.100.2", "10.9.0.1", "0.0.0.0", "255.255.255.255"]

# frame kinds the sensor's capture keeps, and kinds every decoder must skip
VALID_KINDS = ["tcp", "udp", "icmp", "gre", "fragment", "padded"]
INVALID_KINDS = [
    "not_ipv4", "truncated_ipv4", "truncated_tcp", "truncated_udp",
    "bad_ihl", "bad_total_length", "bad_udp_length",
]


def _frame(kind, src, dst, sport, dport, flags, payload, ethernet):
    """An IPv4 packet (framed for the link type) shaped as kind describes."""
    if kind in ("tcp", "padded", "truncated_tcp"):
        ip = bytearray(build_tcp(ip_to_int(src), ip_to_int(dst), sport, dport, 1, 0, flags, payload))
    elif kind in ("udp", "bad_udp_length", "truncated_udp"):
        ip = bytearray(build_udp(ip_to_int(src), ip_to_int(dst), sport, dport, payload))
    elif kind == "icmp":
        ip = bytearray(build_icmp(ip_to_int(src), ip_to_int(dst), 8, 0, payload))
    else:
        ip = bytearray(build_ipv4(47, ip_to_int(src), ip_to_int(dst), payload))  # GRE: no ports
    if kind == "padded":
        ip += b"\x00" * 6  # link-layer padding past the IPv4 total length
    elif kind == "fragment":
        # a non-first fragment of a TCP segment: no transport header to read
        ip = bytearray(build_ipv4(PROTO_TCP, ip_to_int(src), ip_to_int(dst), payload[:7]))
        ip[6:8] = struct.pack(">H", 0x2000 | 185)
    elif kind == "truncated_ipv4":
        ip = ip[:19]
    elif kind in ("truncated_tcp", "truncated_udp"):
        cut = 20 + (19 if kind == "truncated_tcp" else 7)
        ip = ip[:cut]
        ip[2:4] = struct.pack(">H", cut)
    elif kind == "bad_ihl":
        ip[0] = 0x44
    elif kind == "bad_total_length":
        ip[2:4] = struct.pack(">H", len(ip) + 1)
    elif kind == "bad_udp_length":
        ip[24:26] = struct.pack(">H", len(ip) - 20 + 1)
    if kind == "not_ipv4":
        if ethernet:
            return b"\x02" * 12 + struct.pack(">H", ETHERTYPE_ARP) + bytes(ip)
        ip[0] = 0x60
    return wrap_ethernet(bytes(ip)) if ethernet else bytes(ip)


frame_specs = st.tuples(
    st.sampled_from(VALID_KINDS + INVALID_KINDS),
    st.sampled_from(ADDRS),
    st.sampled_from(ADDRS),
    st.sampled_from([0, 22, 445]),
    st.sampled_from([23, 80]),
    st.integers(0, 255),
    st.binary(max_size=40),
    st.integers(1, 90 * 60 * 1_000_000),  # gap to the previous frame
)


def _write_trace(path, frames, ethernet, swapped):
    """A pcap of (ts, raw) frames, in big- or little-endian byte order."""
    order = "<" if swapped else ">"
    link = LINK_ETHERNET if ethernet else LINK_RAW_IPV4
    with open(path, "wb") as fh:
        fh.write(struct.pack(order + "IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, link))
        for ts, raw in frames:
            fh.write(struct.pack(order + "IIII", ts // 1_000_000, ts % 1_000_000, len(raw), len(raw)))
            fh.write(raw)


@settings(max_examples=80, deadline=None)
@given(
    files=st.lists(
        st.tuples(st.booleans(), st.booleans(), st.lists(frame_specs, min_size=1, max_size=25)),
        min_size=1, max_size=3,
    ),
    start=st.integers(0, 30 * 60 * 1_000_000),
)
def test_streaming_flows_match_record_oracle(files, start):
    """trace_packets + build_flows equals decode + bucket_by_day + aggregate_flows,
    and both skip exactly the frames built to be invalid."""
    ts = DAY_US + 86_400_000_000 - start  # up to 30 minutes before a UTC midnight
    paths, stamps, invalid = [], [], set()
    with tempfile.TemporaryDirectory() as tmp:
        for n, (ethernet, swapped, specs) in enumerate(files):
            frames = []
            for kind, src, dst, sport, dport, flags, payload, gap in specs:
                ts += gap  # unique stamps identify frames
                frames.append((ts, _frame(kind, src, dst, sport, dport, flags, payload, ethernet)))
                stamps.append(ts)
                if kind in INVALID_KINDS:
                    invalid.add(ts)
            paths.append(Path(tmp) / f"{n}.pcap")
            _write_trace(paths[-1], frames, ethernet, swapped)

        records, skipped = [], set()
        for path in paths:
            for frame_ts, raw, link_type in read_pcap(path):
                try:
                    records.append(decode(raw, link_type, ts=frame_ts))
                except DecodeError:
                    skipped.add(frame_ts)
        oracle = []
        for day, day_packets in sorted(bucket_by_day(records).items()):
            oracle.extend(aggregate_flows(day_packets, day))

        streamed = list(analysis.trace_packets(paths))
        assert analysis.build_flows(streamed) == oracle
        assert set(stamps) - {row[0] for row in streamed} == skipped == invalid


# --- flow logs sealed with each hour --------------------------------------------

HOUR_US = 3_600_000_000


def _walked_flows(root) -> dict:
    """Per-sensor flows of the sealed traces under root, every pcap walked."""
    paths: dict = {}
    for pcap_path, meta in collector.sealed_traces(root):
        paths.setdefault(meta.sensor_id, []).append(pcap_path)
    return {s: analysis.build_flows(analysis.trace_packets(p)) for s, p in paths.items()}


def _merged_flow_logs(root, rnd=None) -> dict:
    """Per-sensor flows merged from the flow logs alone, in path order or
    shuffled by rnd; every trace must have a block."""
    blocks = analysis.index_flow_logs(Path(root).rglob("*.flows"))
    traces = collector.sealed_traces(root)
    if rnd is not None:
        rnd.shuffle(traces)
    tables: dict = {}
    for pcap_path, meta in traces:
        day = collector.bucket_start_us(meta.hour_bucket) // analysis.DAY_US
        rows = blocks[pcap_path.parent, meta.content_hash]
        analysis.merge_flow_rows(tables.setdefault(meta.sensor_id, {}), rows, day)
    return {s: analysis.render_flows(t) for s, t in tables.items()}


def _flows_csv(path, sensor_flows) -> bytes:
    analysis.write_flows_csv(path, [table_of(sensor_flows[s]) for s in sorted(sensor_flows)])
    return Path(path).read_bytes()


# few flows, several packets an hour: flows recur within and across hours
recurring_specs = st.tuples(
    st.sampled_from(["tcp", "tcp", "udp", "truncated_tcp"]),
    st.sampled_from(ADDRS[:2]),
    st.sampled_from(ADDRS[2:3]),
    st.sampled_from([22]),
    st.sampled_from([23, 80]),
    st.integers(0, 255),
    st.binary(max_size=40),
    st.integers(1, 10 * 60 * 1_000_000),
)


@settings(max_examples=80, deadline=None)
@given(
    ethernet=st.booleans(),
    specs=st.lists(st.one_of(frame_specs, recurring_specs), min_size=1, max_size=40),
    start=st.integers(0, 30 * 60 * 1_000_000),
    rnd=st.randoms(use_true_random=False),
)
def test_hourly_flow_blocks_merge_to_build_flows(ethernet, specs, start, rnd):
    """However a stream falls into hours, in whatever order within each hour,
    the sealed hours' flow-log blocks merge, in any order, to build_flows
    over the whole stream; frames parse_headers rejects are left out of
    both."""
    ts = DAY_US + 86_400_000_000 - start  # up to 30 minutes before a UTC midnight
    frames = []
    for kind, src, dst, sport, dport, flags, payload, gap in specs:
        ts += gap
        frames.append((ts, _frame(kind, src, dst, sport, dport, flags, payload, ethernet)))
    rnd.shuffle(frames)
    frames.sort(key=lambda frame: frame[0] // HOUR_US)  # the writer only rotates forward
    link = LINK_ETHERNET if ethernet else LINK_RAW_IPV4
    with tempfile.TemporaryDirectory() as tmp:
        whole = Path(tmp) / "whole.pcap"
        _write_trace(whole, frames, ethernet, swapped=False)
        expected = analysis.build_flows(analysis.trace_packets([whole]))
        traces = Path(tmp) / "traces"
        writer = HourlyWriter(traces, "s1", link_type=link)
        for frame_ts, raw in frames:
            writer.append(PacketRecord(ts=frame_ts, src_ip=0, dst_ip=0, proto=0), raw)
        writer.close()
        days = {m.hour_bucket[:10] for _, m in collector.list_sealed(traces)}
        assert len(list(traces.glob("*.flows"))) == len(days)  # one log per UTC day
        assert _merged_flow_logs(traces, rnd) == {"s1": expected}
        assert rendered(cli._sensor_flows(traces)) == {"s1": expected}


def test_damaged_or_missing_flow_log_gives_the_walks_csv(tmp_path):
    traces = tmp_path / "traces"
    writer = HourlyWriter(traces, "s1")
    for i in range(24):  # three hours, four flows of two packets each
        writer.append(pkt(src=f"9.0.0.{i % 4}", dport=(22, 23)[i % 2], ts_off=i * 450_000_000, payload_len=i))
    writer.close()
    walk_csv = _flows_csv(tmp_path / "walk.csv", _walked_flows(traces))
    assert _merged_flow_logs(traces) == _walked_flows(traces)

    def analyze() -> bytes:
        out = tmp_path / "out.csv"
        assert cli.main(["analyze", "flows", "--in", str(traces), "--out", str(out)]) == 0
        return out.read_bytes()

    assert analyze() == walk_csv
    (log,) = traces.glob("*.flows")
    whole = log.read_bytes()
    for cut in range(len(whole)):
        log.write_bytes(whole[:cut])
        assert analyze() == walk_csv, cut
    # blocks built for other content: the first hour's, three times over
    block = whole[: len(whole) // 3]
    log.write_bytes(block * 3)
    assert analyze() == walk_csv
    log.write_bytes(block.replace(b"HFLO", b"HFLX") + whole[len(block) :])
    assert analyze() == walk_csv
    log.unlink()
    assert analyze() == walk_csv


def _mixed_hours(directory, link_type) -> None:
    """Three hours of TCP, UDP, ICMP and GRE frames, most with payloads past
    the redaction snap length."""
    src, dst = ip_to_int("198.51.100.1"), ip_to_int("10.9.0.1")
    builds = [
        lambda n: build_tcp(src, dst, 40000, 22, 1, 0, TCP_SYN, b""),
        lambda n: build_tcp(src, dst, 40000, 22, 2, 0, TCP_ACK, b"d" * (150 + n)),
        lambda n: build_udp(src, dst, 5353, 53, b"u" * (300 + n)),
        lambda n: build_icmp(src, dst, 8, 0, b"i" * (100 + n)),
        lambda n: build_ipv4(47, src, dst, b"g" * (90 + n)),
    ]
    writer = HourlyWriter(directory, "s1", link_type=link_type)
    for n in range(20):
        ip = builds[n % len(builds)](n)
        raw = wrap_ethernet(ip) if link_type == LINK_ETHERNET else ip
        writer.append(PacketRecord(ts=DAY_US + n * 400_000_000, src_ip=0, dst_ip=0, proto=0), raw)
    writer.close()


@pytest.mark.parametrize("link_type", [LINK_RAW_IPV4, LINK_ETHERNET])
def test_redacted_lake_analyzes_like_the_unredacted_one(tmp_path, link_type):
    local = tmp_path / "local"
    _mixed_hours(local, link_type)
    plain, redacted = LocalLake(tmp_path / "plain"), LocalLake(tmp_path / "redacted")
    sync(SyncPolicy(retention_hours=99999), local, plain, now=0.0)
    sync(SyncPolicy(retention_hours=99999, redact=REDACT_TRUNCATE), local, redacted, now=0.0)
    short = [
        orig > len(raw)
        for pcap_path in redacted.root.rglob("*.pcap")
        for _, raw, _, orig in read_pcap(pcap_path, orig_len=True)
    ]
    assert sum(short) == 16  # every frame but the bare SYNs was cut

    want = _flows_csv(tmp_path / "local.csv", _walked_flows(local))
    assert sum(r.packets for r in _walked_flows(local)["s1"]) == 20
    for lake in (plain, redacted):
        assert len(list(lake.root.rglob("*.flows"))) == 3  # one per hour
        assert _merged_flow_logs(lake.root) == _walked_flows(local)
        assert _flows_csv(tmp_path / "lake.csv", rendered(cli._sensor_flows(lake.root))) == want
        for log in lake.root.rglob("*.flows"):
            log.unlink()
        assert _flows_csv(tmp_path / "lake.csv", rendered(cli._sensor_flows(lake.root))) == want


# --- table metrics against their FlowRecord references ----------------------------

# addresses whose dotted and integer orders differ ("9.0.0.10" < "9.0.0.2")
SENDERS = ["9.0.0.2", "9.0.0.10", "9.0.0.100", "9.0.0.9", "10.0.0.1", "198.51.100.7"]
# both ends of the /24 and the addresses just outside it
TARGETS = ["10.9.0.0", "10.9.0.255", "10.8.255.255", "10.9.1.0", "10.9.0.7"]
FIRST_DAY = analysis.day_number(DAY)

table_rows = st.tuples(
    st.integers(0, 20),  # day offset: past the end of a 15-day window
    st.sampled_from(SENDERS),
    st.sampled_from(TARGETS),
    st.sampled_from([PROTO_TCP, PROTO_TCP, PROTO_UDP, PROTO_ICMP]),
    st.integers(1000, 1002),
    st.sampled_from([22, 23, 445]),
    st.sampled_from([1, 2, 499, 500]),  # packets: sums tie often
)
sensor_rows = st.dictionaries(st.sampled_from(["s1", "s2", "s3"]), st.lists(table_rows, max_size=30),
                              min_size=2)


def _tables(sensor_rows) -> dict:
    tables = {}
    for sensor, rows in sensor_rows.items():
        table = tables[sensor] = {}
        for off, src, dst, proto, sport, dport, packets in rows:
            first = (FIRST_DAY + off) * analysis.DAY_US + sport
            key = (FIRST_DAY + off, ip_to_int(src), ip_to_int(dst), proto, sport, dport)
            table[key] = [packets, 40 * packets, first, first + packets, TCP_SYN]
    return tables


def _outcome(metric, *args, **kwargs):
    """metric's result, or the type and text of the AnalysisError it raised."""
    try:
        return metric(*args, **kwargs)
    except AnalysisError as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(
    sensor_rows=sensor_rows,
    window_days=st.sampled_from([1, 2, 15]),
    start=st.none() | st.integers(-2, 22),
    min_packets=st.sampled_from([1, 2, 500, 501, 1000]),
    # past [0, 1] too: the CLI takes any float, and a slice [:k] of the ranking decides
    top_fraction=st.none() | st.sampled_from([-0.4, 0.0, 0.05, 0.3, 0.5, 0.99, 1.0, 1.5]),
    mode=st.sampled_from(["row", "jaccard"]),
)
def test_overlap_of_tables_equals_the_flowrecord_reference(sensor_rows, window_days, start, min_packets,
                                                           top_fraction, mode):
    tables = _tables(sensor_rows)
    flows = rendered(tables)
    window_start = None if start is None else day_of((FIRST_DAY + start) * analysis.DAY_US)
    kwargs = dict(window_days=window_days, min_packets=min_packets, top_fraction=top_fraction,
                  window_start=window_start, mode=mode)
    got = _outcome(common_sender_ratio, tables, **kwargs)
    assert got == _outcome(flow_reference.ref_common_sender_ratio, flows, **kwargs)
    window = day_range(window_start or day_of(FIRST_DAY * analysis.DAY_US), window_days)
    for sensor in tables:
        assert qualifying_senders(tables[sensor], window, min_packets, top_fraction) == \
            flow_reference.ref_qualifying_senders(flows[sensor], window, min_packets, top_fraction)


@settings(max_examples=200, deadline=None)
@given(
    packets=st.dictionaries(st.sampled_from(SENDERS[:4]), st.lists(st.sampled_from([1, 2]), min_size=1, max_size=3),
                            min_size=2),
    top_fraction=st.sampled_from([0.25, 0.34, 0.5, 0.67, 0.75]),
)
def test_top_fraction_cut_among_tied_senders_equals_the_flowrecord_reference(packets, top_fraction):
    table = {
        (FIRST_DAY, ip_to_int(src), ip_to_int("10.9.0.1"), PROTO_TCP, 1000 + i, 22): [n, 0, 0, 0, 0]
        for src, counts in packets.items() for i, n in enumerate(counts)
    }
    assert qualifying_senders(table, [DAY], 1, top_fraction) == \
        flow_reference.ref_qualifying_senders(analysis.render_flows(table), [DAY], 1, top_fraction)


def test_top_fraction_ties_break_on_the_dotted_address():
    # equal packet counts: "9.0.0.10" < "9.0.0.2" as strings, not as integers
    table = table_of([flow("9.0.0.2", packets=600), flow("9.0.0.10", packets=600), flow("9.0.0.1", packets=700)])
    assert qualifying_senders(table, [DAY], 500, top_fraction=0.67) == {"9.0.0.1", "9.0.0.10"}
    assert qualifying_senders(table, [DAY], 500, top_fraction=0.34) == {"9.0.0.1"}
    assert qualifying_senders(table, [DAY], 600, top_fraction=0.5) == {"9.0.0.1"}
    assert qualifying_senders(table, [DAY], 600, top_fraction=0.3) == set()


@settings(max_examples=100, deadline=None)
@given(sensor_rows=sensor_rows, weight=st.sampled_from(["packets", "flows"]))
def test_port_cdf_of_tables_equals_the_flowrecord_reference(sensor_rows, weight):
    tables = _tables(sensor_rows)
    flows = rendered(tables)
    for chosen in (sorted(tables), sorted(tables)[:1]):
        got = port_cdf([tables[s] for s in chosen], weight=weight)
        want = flow_reference.ref_port_cdf([f for s in chosen for f in flows[s]], weight=weight)
        assert (got.counts, got.weight, got.cumulative()) == (want.counts, want.weight, want.cumulative())


@settings(max_examples=100, deadline=None)
@given(sensor_rows=sensor_rows, start=st.integers(-2, 20), n_days=st.integers(1, 4))
def test_flow_series_of_tables_equal_the_flowrecord_reference(sensor_rows, start, n_days):
    tables = _tables(sensor_rows)
    flows = rendered(tables)
    days = day_range(day_of((FIRST_DAY + start) * analysis.DAY_US), n_days)
    for sensor, table in tables.items():
        assert flows_per_ip_series(table, SUBNET, days) == \
            flow_reference.ref_flows_per_ip_series(flows[sensor], SUBNET, days)


@settings(max_examples=100, deadline=None)
@given(sensor_rows=sensor_rows, day=st.none() | st.integers(0, 20))
def test_unique_senders_and_flows_csv_of_tables_equal_the_flowrecord_reference(sensor_rows, day):
    tables = _tables(sensor_rows)
    flows = rendered(tables)
    day = None if day is None else day_of((FIRST_DAY + day) * analysis.DAY_US)
    assert unique_senders(tables, day) == flow_reference.ref_unique_senders(flows, day)
    assert analysis.flow_days(tables.values()) == sorted({f.day for s in flows for f in flows[s]})
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        assert analysis.write_flows_csv(got, [tables[s] for s in sorted(tables)]) == \
            sum(len(t) for t in tables.values())
        flow_reference.ref_write_flows_csv(want, [f for s in sorted(flows) for f in flows[s]])
        assert got.read_bytes() == want.read_bytes()
