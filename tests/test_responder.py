import pytest

from holo.net import AddressRange, PortRange, int_to_ip, ip_to_int
from holo.packets import (
    PROTO_TCP,
    TCP_ACK,
    TCP_FIN,
    TCP_RST,
    TCP_SYN,
    FlowKey,
    PacketRecord,
)
from holo.responder import (
    CAPTURED,
    CLOSED,
    ESTABLISHED,
    SYN_RECEIVED,
    BackendMatch,
    Responder,
    ResponderConfig,
    ResponderError,
    TcpSegment,
    keyed_isn,
    select_backend,
)

CFG = ResponderConfig(
    ip_ranges=(AddressRange.parse("10.9.0.0/28"),),
    port_set=(PortRange(1, 1023),),
    isn_seed=bytes(range(32)),
)


def seg(flags, seq=1000, ack=0, payload=b"", src="203.0.113.9", sport=41000, dst="10.9.0.1", dport=80, ts=0):
    record = PacketRecord(
        ts=ts, src_ip=ip_to_int(src), dst_ip=ip_to_int(dst), proto=PROTO_TCP,
        src_port=sport, dst_port=dport, tcp_flags=flags,
        payload_len=len(payload), payload_prefix=payload[:256],
    )
    return TcpSegment(record, seq=seq, ack=ack, payload=payload)


def handshake(responder, now=0.0, **kw):
    out, _ = responder.on_segment(seg(TCP_SYN, seq=1000, **kw), now)
    synack = out[0]
    out, _ = responder.on_segment(
        seg(TCP_ACK, seq=1001, ack=(synack.seq + 1) & 0xFFFFFFFF, **kw), now
    )
    assert out == []
    return synack


class TestHandshake:
    def test_syn_gets_synack_with_ack_seq_plus_one(self):
        responder = Responder(CFG)
        out, events = responder.on_segment(seg(TCP_SYN, seq=1000), 0.0)
        assert len(out) == 1 and events == []
        synack = out[0]
        assert synack.record.tcp_flags == TCP_SYN | TCP_ACK
        assert synack.ack == 1001
        assert int_to_ip(synack.record.src_ip) == "10.9.0.1" and synack.record.dst_port == 41000

    def test_ack_completes_handshake(self):
        responder = Responder(CFG)
        handshake(responder)
        conn = next(iter(responder.table.values()))
        assert conn.state == ESTABLISHED

    def test_syn_outside_exposed_ports_ignored(self):
        responder = Responder(CFG)
        out, _ = responder.on_segment(seg(TCP_SYN, dport=4444), 0.0)
        assert out == []
        assert responder.table == {}

    def test_syn_outside_ip_ranges_ignored(self):
        responder = Responder(CFG)
        out, _ = responder.on_segment(seg(TCP_SYN, dst="10.9.0.200"), 0.0)
        assert out == []

    def test_stray_ack_unknown_key_dropped(self):
        responder = Responder(CFG)
        out, events = responder.on_segment(seg(TCP_ACK, seq=5, ack=77), 0.0)
        assert out == [] and events == []
        assert responder.table == {}

    def test_retransmitted_syn_same_synack(self):
        responder = Responder(CFG)
        a, _ = responder.on_segment(seg(TCP_SYN, seq=1000), 0.0)
        b, _ = responder.on_segment(seg(TCP_SYN, seq=1000), 1.0)
        assert a[0].seq == b[0].seq and a[0].ack == b[0].ack

    def test_every_syn_exactly_one_synack(self):
        responder = Responder(CFG)
        for i in range(200):
            out, _ = responder.on_segment(
                seg(TCP_SYN, seq=17, sport=30000 + i, dst=f"10.9.0.{i % 16}"), 0.0
            )
            assert len(out) == 1
            assert out[0].record.tcp_flags == TCP_SYN | TCP_ACK


class TestCapture:
    def test_data_captured_and_acked(self):
        responder = Responder(CFG)
        synack = handshake(responder)
        payload = b"GET / HTTP/1.1\r\n"
        out, _ = responder.on_segment(
            seg(TCP_ACK, seq=1001, ack=synack.seq + 1, payload=payload), 0.0
        )
        assert len(out) == 1
        ack = out[0]
        assert ack.record.tcp_flags == TCP_ACK
        assert ack.ack == 1001 + len(payload)  # advances by payload length
        conn = next(iter(responder.table.values()))
        assert bytes(conn.captured) == payload
        assert conn.state == CAPTURED

    def test_capture_cap_respected(self):
        cfg = ResponderConfig(
            ip_ranges=CFG.ip_ranges, port_set=CFG.port_set, max_capture_bytes=10
        )
        responder = Responder(cfg)
        synack = handshake(responder)
        out, _ = responder.on_segment(
            seg(TCP_ACK, seq=1001, ack=synack.seq + 1, payload=b"0123456789abcdef"), 0.0
        )
        conn = next(iter(responder.table.values()))
        assert bytes(conn.captured) == b"0123456789"
        # the ACK still advances past everything received
        assert out[0].ack == 1001 + 16

    def test_capture_is_prefix_across_segments(self):
        responder = Responder(CFG)
        synack = handshake(responder)
        sent = b""
        next_seq = 1001
        for piece in (b"abc", b"defg", b"hij"):
            out, _ = responder.on_segment(
                seg(TCP_ACK, seq=next_seq, ack=synack.seq + 1, payload=piece), 0.0
            )
            sent += piece
            next_seq += len(piece)
            assert out[0].ack == next_seq
        conn = next(iter(responder.table.values()))
        assert bytes(conn.captured) == sent

    def test_out_of_order_data_dropped_silently(self):
        responder = Responder(CFG)
        synack = handshake(responder)
        out, _ = responder.on_segment(
            seg(TCP_ACK, seq=9999, ack=synack.seq + 1, payload=b"zzz"), 0.0
        )
        assert out == []
        conn = next(iter(responder.table.values()))
        assert bytes(conn.captured) == b""


class TestClose:
    def test_fin_closes_with_record(self):
        responder = Responder(CFG)
        synack = handshake(responder)
        out, events = responder.on_segment(
            seg(TCP_FIN | TCP_ACK, seq=1001, ack=synack.seq + 1), 0.0
        )
        assert len(out) == 1 and out[0].record.tcp_flags == TCP_ACK
        assert len(events) == 1
        assert events[0]["state"] == ESTABLISHED
        assert responder.table == {}

    def test_rst_closes_silently(self):
        responder = Responder(CFG)
        handshake(responder)
        out, events = responder.on_segment(seg(TCP_RST, seq=1001), 0.0)
        assert out == []
        assert len(events) == 1
        assert responder.table == {}

    def test_never_emits_rst_and_at_most_one_segment(self):
        responder = Responder(CFG)
        import random

        rng = random.Random(99)
        for _ in range(2000):
            flags = rng.randrange(256)
            out, _ = responder.on_segment(
                seg(flags, seq=rng.randrange(1 << 20), ack=rng.randrange(1 << 20),
                    sport=rng.randrange(1024, 65536), dport=rng.choice([22, 80, 443, 4444])),
                0.0,
            )
            assert len(out) <= 1
            for s in out:
                assert not s.record.tcp_flags & TCP_RST


class TestBackends:
    MAP = ResponderConfig(
        ip_ranges=(AddressRange.parse("10.9.0.0/24"),),
        port_set=(PortRange(1, 1023),),
        backend_map=(
            BackendMatch(AddressRange.parse("10.9.0.0/25"), PortRange(1, 1023), "bgp-sim"),
        ),
    )

    def test_first_match(self):
        assert select_backend(self.MAP, ip_to_int("10.9.0.3"), 179) == "bgp-sim"

    def test_default_when_empty(self):
        assert select_backend(CFG, ip_to_int("10.9.0.3"), 179) == "l4"

    def test_exhaustive_slash25_membership(self):
        # oracle: addresses .0-.127 match the /25, .128-.255 fall through
        for last in range(256):
            ip = f"10.9.0.{last}"
            expect = "bgp-sim" if last < 128 else "l4"
            assert select_backend(self.MAP, ip_to_int(ip), 179) == expect

    def test_overlapping_backend_matches_rejected(self):
        with pytest.raises(ResponderError):
            ResponderConfig(
                ip_ranges=(AddressRange.parse("10.9.0.0/24"),),
                port_set=(PortRange(1, 1023),),
                backend_map=(
                    BackendMatch(AddressRange.parse("10.9.0.0/25"), PortRange(1, 200), "a"),
                    BackendMatch(AddressRange.parse("10.9.0.0/26"), PortRange(100, 300), "b"),
                ),
            )


class TestExpire:
    def test_idle_timeout(self):
        responder = Responder(CFG)
        handshake(responder, now=0.0)
        assert responder.expire(60.0) == []  # not yet past the timeout
        records = responder.expire(61.0)
        assert len(records) == 1
        assert responder.table == {}

    def test_oldest_first_eviction_at_capacity(self):
        cfg = ResponderConfig(
            ip_ranges=CFG.ip_ranges, port_set=CFG.port_set, max_connections=3
        )
        responder = Responder(cfg)
        for i in range(3):
            responder.on_segment(seg(TCP_SYN, sport=50000 + i), float(i))
        out, events = responder.on_segment(seg(TCP_SYN, sport=50099), 10.0)
        assert len(out) == 1
        assert len(events) == 1  # oldest evicted, record emitted
        assert events[0]["src_port"] == 50000
        assert len(responder.table) == 3

    def test_10k_handshakes_then_silence(self):
        responder = Responder(CFG)
        for i in range(10_000):
            sport = 1024 + (i % 60000)
            src = f"203.0.{(i // 60000) % 256}.{(i % 254) + 1}"
            responder.on_segment(seg(TCP_SYN, sport=sport, src=f"203.{i % 200}.{(i >> 8) % 256}.{i % 251 + 1}"), 0.0)
        assert len(responder.table) == 10_000
        records = responder.expire(61.0)
        assert len(records) == 10_000
        assert responder.table == {}


class TestIsn:
    def test_deterministic(self):
        key = FlowKey(ip_to_int("1.2.3.4"), ip_to_int("10.9.0.1"), PROTO_TCP, 41000, 80)
        seed = bytes(range(32))
        assert keyed_isn(seed, key) == keyed_isn(seed, key)
        assert keyed_isn(seed, key) != keyed_isn(b"\x01" * 32, key)

    def test_uniformity_sanity(self):
        # 10k ISNs over 2^32: expect ~0.01 birthday collisions and a mean
        # near 2^31 (tolerance 2% of the range)
        seed = bytes(range(32))
        values = [
            keyed_isn(seed, FlowKey(ip_to_int(f"1.2.{i >> 8}.{i & 255}"), ip_to_int("10.9.0.1"), PROTO_TCP, 41000, 80))
            for i in range(10_000)
        ]
        assert len(set(values)) >= 9_998
        mean = sum(values) / len(values)
        assert abs(mean - 2**31) < 0.02 * 2**32
