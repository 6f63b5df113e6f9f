import random
import struct
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holo import analysis
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
from holo.pcapio import read_pcap

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
        series = flows_per_ip_series(flows, SUBNET, days)
        assert [s.day for s in series] == days
        assert series[1].total == 0 and series[1].mean == 0.0

    def test_uniform_rate_exact_mean(self):
        # one flow per address -> mean exactly 1.0
        flows = [flow("1.1.1.1", dst=f"10.9.0.{i}", sport=2000 + i) for i in range(256)]
        series = flows_per_ip_series(flows, SUBNET, [DAY])
        assert series[0].mean == 1.0
        assert series[0].min == 1 and series[0].max == 1

    def test_single_hot_address(self):
        flows = [flow("1.1.1.1", dst="10.9.0.7", sport=3000 + i) for i in range(512)]
        series = flows_per_ip_series(flows, SUBNET, [DAY])
        assert series[0].max == 512
        assert series[0].mean == 512 / 256
        assert series[0].min == 0

    def test_requires_slash24(self):
        with pytest.raises(AnalysisError):
            flows_per_ip_series([], AddressRange.parse("10.9.0.0/23"), [DAY])


class TestOverlap:
    def test_identical_sender_sets_all_ones(self):
        flows_a = [flow(f"1.1.1.{i}", packets=600) for i in range(5)]
        flows_b = [flow(f"1.1.1.{i}", packets=700, dst="10.9.1.1") for i in range(5)]
        m = common_sender_ratio({"a": flows_a, "b": flows_b}, min_packets=500)
        assert m.ratio == [[1.0, 1.0], [1.0, 1.0]]

    def test_set_enumeration_oracle(self):
        # S_a = {a,b,c}, S_b = {b,c,d} -> both directed ratios 2/3
        flows_a = [flow(ip, packets=500) for ip in ("9.0.0.1", "9.0.0.2", "9.0.0.3")]
        flows_b = [flow(ip, packets=500) for ip in ("9.0.0.2", "9.0.0.3", "9.0.0.4")]
        m = common_sender_ratio({"a": flows_a, "b": flows_b}, min_packets=500)
        assert m.ratio[0][1] == pytest.approx(2 / 3)
        assert m.ratio[1][0] == pytest.approx(2 / 3)
        assert m.ratio[0][0] == 1.0 and m.ratio[1][1] == 1.0

    def test_threshold_boundary_499_out_500_in(self):
        flows_a = [flow("9.0.0.1", packets=499), flow("9.0.0.2", packets=500)]
        flows_b = [flow("9.0.0.2", packets=500)]
        m = common_sender_ratio({"a": flows_a, "b": flows_b}, min_packets=500)
        assert m.sender_sets["a"] == {"9.0.0.2"}
        assert m.ratio[0][1] == 1.0

    def test_packets_summed_across_flows_in_window(self):
        # 250 + 250 packets from the same sender clear the 500 threshold
        flows_a = [flow("9.0.0.1", packets=250, dport=22), flow("9.0.0.1", packets=250, dport=23)]
        assert qualifying_senders(flows_a, [DAY], 500) == {"9.0.0.1"}

    def test_empty_qualifying_row_is_zero_including_diagonal(self):
        flows_a = [flow("9.0.0.1", packets=1)]
        flows_b = [flow("9.0.0.2", packets=999)]
        m = common_sender_ratio({"a": flows_a, "b": flows_b}, min_packets=500)
        assert m.ratio[0] == [0.0, 0.0]
        assert m.ratio[1][1] == 1.0

    def test_window_excludes_out_of_range_days(self):
        far = "2025-09-15"
        flows_a = [flow("9.0.0.1", packets=999), flow("9.0.0.9", packets=999, day=far)]
        flows_b = [flow("9.0.0.1", packets=999)]
        m = common_sender_ratio({"a": flows_a, "b": flows_b}, window_days=15, min_packets=500)
        assert m.sender_sets["a"] == {"9.0.0.1"}

    def test_window_empty(self):
        with pytest.raises(WindowEmpty):
            common_sender_ratio({"a": [], "b": []})

    def test_needs_two_sensors(self):
        with pytest.raises(AnalysisError):
            common_sender_ratio({"a": [flow("9.0.0.1")]})

    def test_top_fraction_keeps_heaviest(self):
        flows_a = [flow(f"9.0.0.{i}", packets=500 + i) for i in range(10)]
        keep = qualifying_senders(flows_a, [DAY], 500, top_fraction=0.5)
        assert keep == {f"9.0.0.{i}" for i in range(5, 10)}

    def test_monotonic_in_min_packets(self):
        flows_a = [flow(f"9.0.0.{i}", packets=100 * i) for i in range(10)]
        sizes = [len(qualifying_senders(flows_a, [DAY], mp)) for mp in (0, 100, 300, 700, 1200)]
        assert sizes == sorted(sizes, reverse=True)

    def test_jaccard_mode(self):
        flows_a = [flow(ip, packets=500) for ip in ("9.0.0.1", "9.0.0.2", "9.0.0.3")]
        flows_b = [flow(ip, packets=500) for ip in ("9.0.0.2", "9.0.0.3", "9.0.0.4")]
        m = common_sender_ratio({"a": flows_a, "b": flows_b}, min_packets=500, mode="jaccard")
        assert m.ratio[0][1] == pytest.approx(2 / 4)
        assert m.ratio[1][0] == pytest.approx(2 / 4)


class TestPortCdf:
    def test_point_mass_at_22(self):
        packets = [pkt(dport=22, sport=1000 + i, ts_off=i) for i in range(10)]
        dist = port_cdf(packets)
        assert dist.fraction_at(21) == 0.0
        assert dist.fraction_at(22) == 1.0
        assert dist.fraction_at(65535) == 1.0

    def test_forty_percent_jump_at_9200(self):
        packets = [pkt(dport=9200, sport=i, ts_off=i) for i in range(40)]
        packets += [pkt(dport=22, sport=i, ts_off=100 + i) for i in range(60)]
        dist = port_cdf(packets)
        assert dist.fraction_at(9200) - dist.fraction_at(9199) == pytest.approx(0.40)

    def test_empty_flagged(self):
        dist = port_cdf([])
        assert dist.empty
        assert dist.cumulative() == []

    def test_non_tcp_ignored(self):
        packets = [pkt(proto=PROTO_UDP, dport=53, flags=0), pkt(dport=22)]
        dist = port_cdf(packets)
        assert set(dist.counts) == {22}

    def test_flow_weighting(self):
        flows = [flow("1.1.1.1", packets=100, dport=22), flow("1.1.1.2", packets=1, dport=23)]
        by_packets = port_cdf(flows, weight="packets")
        by_flows = port_cdf(flows, weight="flows")
        assert by_packets.counts == {22: 100, 23: 1}
        assert by_flows.counts == {22: 1, 23: 1}

    def test_monotone_reaching_one(self):
        rng = random.Random(5)
        packets = [pkt(dport=rng.randrange(1, 65536), sport=i % 60000, ts_off=i) for i in range(2000)]
        cum = port_cdf(packets).cumulative()
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
        counts = unique_senders({"a": [flow("9.0.0.1")], "b": [flow("9.0.0.2")]})
        assert counts.per_sensor == {"a": 1, "b": 1}
        assert counts.global_count == 2

    def test_identical_sets(self):
        counts = unique_senders({"a": [flow("9.0.0.1")], "b": [flow("9.0.0.1")]})
        assert counts.global_count == 1

    def test_day_filter(self):
        flows_a = [flow("9.0.0.1"), flow("9.0.0.2", day="2025-08-02")]
        counts = unique_senders({"a": flows_a}, day=DAY)
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
    counts = unique_senders(sensor_flows)
    per = counts.per_sensor.values()
    assert max(per) <= counts.global_count <= sum(per)


def test_overlap_entries_within_unit_interval():
    rng = random.Random(11)
    sensor_flows = {
        s: [flow(f"9.0.{rng.randrange(3)}.{rng.randrange(20)}", packets=rng.randrange(1, 1000))
            for _ in range(50)]
        for s in ("s1", "s2", "s3")
    }
    m = common_sender_ratio(sensor_flows, min_packets=300)
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
    analysis.write_flows_csv(out1, flows)
    analysis.write_flows_csv(out2, aggregate_flows(list(reversed(packets)), DAY))
    assert out1.read_bytes() == out2.read_bytes()

    dist = port_cdf(packets)
    p1, p2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
    analysis.write_portcdf_csv(p1, dist)
    analysis.write_portcdf_csv(p2, port_cdf(list(reversed(packets))))
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
