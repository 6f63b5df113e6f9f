import tracemalloc

import pytest

from holo import darknet, toolbox
from holo.darknet import (
    ArpQuery,
    ArpState,
    CaptureHandle,
    DarknetConfig,
    InvalidConfig,
    SourceUnavailable,
    arp_respond,
    attach,
    darknet_rules,
)
from holo.net import AddressRange, int_to_ip, ip_to_int
from holo.packets import LINK_RAW_IPV4, PROTO_TCP, TCP_SYN, PacketRecord, build_tcp
from holo.pcapio import write_pcap


def record(dst, src="198.51.100.7", ts=0, dport=22):
    return PacketRecord(ts=ts, src_ip=ip_to_int(src), dst_ip=ip_to_int(dst), proto=PROTO_TCP,
                        src_port=40000, dst_port=dport, tcp_flags=TCP_SYN)


RANGE24 = AddressRange.parse("10.9.0.0/24")


def collecting(config, **kwargs):
    """A handle attached with a sink, and the list of records it captured."""
    records = []
    return attach(config, sink=lambda record, raw: records.append(record), **kwargs), records


class TestConfig:
    def test_routed_requires_sensor_ip(self):
        with pytest.raises(InvalidConfig):
            DarknetConfig(ranges=(RANGE24,), mode=darknet.MODE_ROUTED)

    def test_routed_sensor_ip_outside_ranges(self):
        with pytest.raises(InvalidConfig):
            DarknetConfig(ranges=(RANGE24,), mode=darknet.MODE_ROUTED, sensor_ip="10.9.0.1")
        DarknetConfig(ranges=(RANGE24,), mode=darknet.MODE_ROUTED, sensor_ip="10.8.0.1")

    def test_unknown_mode(self):
        with pytest.raises(InvalidConfig):
            DarknetConfig(ranges=(RANGE24,), mode="bridge")

    def test_attach_rejects_foreign_ranges(self):
        config = DarknetConfig(ranges=(RANGE24,))
        with pytest.raises(InvalidConfig):
            attach(config, descriptor_ranges=[AddressRange.parse("10.8.0.0/24")])

    def test_attach_missing_pcap_source(self):
        with pytest.raises(SourceUnavailable):
            attach(DarknetConfig(ranges=(RANGE24,)), source="/no/such/file.pcap")


def test_address_range_identity_is_base_and_prefix():
    a, b = AddressRange("10.9.0.0", 24), AddressRange.parse("10.9.0.0/24")
    assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
    assert repr(a) == "AddressRange(base='10.9.0.0', prefix_len=24)"
    ranges = [AddressRange("9.0.0.0", 8), AddressRange("10.9.0.0", 16), AddressRange("10.10.0.0", 16), a]
    # ordering stays lexicographic on (base, prefix_len), not numeric
    assert sorted(ranges) == sorted(ranges, key=lambda r: (r.base, r.prefix_len))
    assert (a.base_int, a.mask, a.last_int) == (0x0A090000, 0xFFFFFF00, 0x0A0900FF)
    assert a.contains("10.9.0.255") and not a.contains("10.9.1.0")


class TestModes:
    def test_direct_captures_in_range(self):
        handle, records = collecting(DarknetConfig(ranges=(RANGE24,)))
        assert handle.offer(record("10.9.0.77"))
        assert not handle.offer(record("10.8.0.1"))
        assert [int_to_ip(r.dst_ip) for r in records] == ["10.9.0.77"]

    def test_arp_mode_requires_prior_claim(self):
        config = DarknetConfig(ranges=(RANGE24,), mode=darknet.MODE_ARP)
        handle = attach(config)
        assert not handle.offer(record("10.9.0.5", ts=1))
        reply = arp_respond(ArpQuery(2, "10.9.0.254", ip_to_int("10.9.0.5")), config, handle.arp, 0.0)
        assert reply is not None and reply.mac == config.sensor_mac
        assert handle.offer(record("10.9.0.5", ts=3))

    def test_mode_equivalence_direct_vs_routed(self):
        """Identical inbound multisets capture identical record multisets."""
        packets = [record(f"10.9.0.{i % 256}", ts=i) for i in range(500)]
        direct, direct_records = collecting(DarknetConfig(ranges=(RANGE24,)))
        routed, routed_records = collecting(
            DarknetConfig(ranges=(RANGE24,), mode=darknet.MODE_ROUTED, sensor_ip="10.8.0.1")
        )
        for pkt in packets:
            direct.offer(pkt)
            routed.offer(pkt)
        assert direct_records == routed_records

    def test_pcap_replay_source(self, tmp_path):
        rows = []
        for i in range(20):
            dst = f"10.9.0.{i}" if i % 2 == 0 else f"10.8.0.{i}"
            rows.append((1000 + i, build_tcp(ip_to_int("198.51.100.7"), ip_to_int(dst), 40000, 22, 5, 0, TCP_SYN)))
        path = tmp_path / "replay.pcap"
        write_pcap(path, rows, link_type=LINK_RAW_IPV4)
        handle, records = collecting(DarknetConfig(ranges=(RANGE24,)), source=str(path))
        assert handle.stats.captured == 10
        assert all(int_to_ip(r.dst_ip).startswith("10.9.0.") for r in records)

    def test_handle_without_sink_only_counts(self):
        """50k captured frames through a handle with no sink: memory stays flat."""
        src, base = ip_to_int("198.51.100.7"), ip_to_int("10.9.0.0")
        frames = ((i, build_tcp(src, base + i % 256, 40000, 22, 5, 0, TCP_SYN), LINK_RAW_IPV4) for i in range(50_000))
        handle = CaptureHandle(DarknetConfig(ranges=(RANGE24,)))
        tracemalloc.start()
        try:
            assert handle.drain(frames) == 50_000
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert handle.stats.captured == 50_000
        assert peak < 2 << 20


class TestArpResponder:
    def test_out_of_range_query_ignored(self):
        config = DarknetConfig(ranges=(RANGE24,), mode=darknet.MODE_ARP)
        state = ArpState()
        assert arp_respond(ArpQuery(0, "r", ip_to_int("192.0.2.1")), config, state, 0.0) is None

    def test_reply_claims_address(self):
        config = DarknetConfig(ranges=(RANGE24,), mode=darknet.MODE_ARP)
        state = ArpState()
        reply = arp_respond(ArpQuery(0, "r", ip_to_int("10.9.0.200")), config, state, 0.0)
        assert reply.target_ip == ip_to_int("10.9.0.200")
        assert ip_to_int("10.9.0.200") in state.claimed

    def test_rate_limited_to_ten_per_second_per_source(self):
        config = DarknetConfig(ranges=(RANGE24,), mode=darknet.MODE_ARP)
        state = ArpState()
        replies = 0
        for i in range(100):
            now = i / 100.0  # all within one second
            if arp_respond(ArpQuery(0, "router-1", ip_to_int("10.9.0.9")), config, state, now) is not None:
                replies += 1
        assert replies <= 10

    def test_rate_limit_is_per_source(self):
        config = DarknetConfig(ranges=(RANGE24,), mode=darknet.MODE_ARP)
        state = ArpState()
        got = sum(
            1
            for i in range(40)
            if arp_respond(ArpQuery(0, f"router-{i % 4}", ip_to_int("10.9.0.9")), config, state, 0.0)
            is not None
        )
        assert got == 40  # 4 sources, 10 each

    def test_wrong_mode_raises(self):
        config = DarknetConfig(ranges=(RANGE24,))
        with pytest.raises(InvalidConfig):
            arp_respond(ArpQuery(0, "r", ip_to_int("10.9.0.1")), config, ArpState(), 0.0)


class TestRules:
    def test_single_range_drop_rule(self):
        rules = darknet_rules(DarknetConfig(ranges=(RANGE24,)))
        drops = [r for r in rules if r.action.kind == toolbox.ACT_DROP]
        assert len(drops) == 1
        assert drops[0].direction == toolbox.OUT
        assert drops[0].match.src_range == RANGE24

    def test_empty_ranges_empty_rules(self):
        assert darknet_rules(DarknetConfig(ranges=())) == []

    def test_two_ranges_priority_ordered_by_base(self):
        hi = AddressRange.parse("10.9.0.8/30")
        lo = AddressRange.parse("10.9.0.0/30")
        rules = darknet_rules(DarknetConfig(ranges=(hi, lo)))
        drops = [r for r in rules if r.action.kind == toolbox.ACT_DROP]
        assert [r.match.src_range for r in drops] == [lo, hi]

    def test_drop_oracle_per_address_on_slash30s(self):
        """Brute-force oracle: per-address membership decides the drop."""
        ranges = (AddressRange.parse("10.9.0.0/30"), AddressRange.parse("10.9.0.8/30"))
        program = toolbox.compile(darknet_rules(DarknetConfig(ranges=ranges)))
        for last in range(16):
            addr = f"10.9.0.{last}"
            outbound = PacketRecord(ts=0, src_ip=ip_to_int(addr), dst_ip=ip_to_int("198.51.100.7"),
                                    proto=PROTO_TCP, src_port=22, dst_port=40000)
            oracle_drop = any(r.contains(addr) for r in ranges)
            action = toolbox.evaluate(program, outbound, toolbox.OUT)
            assert (action.kind == toolbox.ACT_DROP) == oracle_drop

    def test_inbound_admit_rules_cover_ranges(self):
        rules = darknet_rules(DarknetConfig(ranges=(RANGE24,)))
        admits = [r for r in rules if r.direction == toolbox.IN]
        assert len(admits) == 1
        assert admits[0].action.kind == toolbox.ACT_ACCEPT
        assert admits[0].match.dst_range == RANGE24


def test_capture_stats_and_decode_errors():
    handle = CaptureHandle(DarknetConfig(ranges=(RANGE24,)))
    assert handle.offer_raw(1, b"junk", LINK_RAW_IPV4) is None
    assert handle.stats.decode_errors == 1
    raw = build_tcp(ip_to_int("198.51.100.7"), ip_to_int("10.9.0.3"), 40000, 22, 5, 0, TCP_SYN)
    rec = handle.offer_raw(2, raw, LINK_RAW_IPV4)
    assert rec is not None and rec.ts == 2
    assert handle.stats.captured == 1
