import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holo import packets
from holo.net import int_to_ip, ip_to_int
from holo.packets import (
    LINK_ETHERNET,
    LINK_RAW_IPV4,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    TCP_SYN,
    DecodeError,
    PacketRecord,
    build_icmp,
    build_ipv4,
    build_tcp,
    build_udp,
    decode,
    encode_record,
    wrap_ethernet,
)


def test_minimal_tcp_syn_frame():
    raw = build_tcp(ip_to_int("1.2.3.4"), ip_to_int("10.9.0.5"), 40000, 22, 1000, 0, TCP_SYN)
    assert len(raw) == 40  # 20 IP + 20 TCP, no payload
    rec = decode(raw, LINK_RAW_IPV4, ts=123)
    assert rec.ts == 123
    assert (int_to_ip(rec.src_ip), int_to_ip(rec.dst_ip)) == ("1.2.3.4", "10.9.0.5")
    assert (rec.src_port, rec.dst_port) == (40000, 22)
    assert rec.tcp_flags == TCP_SYN
    assert rec.payload_len == 0
    assert rec.payload_prefix == b""


def test_bad_ihl_rejected():
    raw = bytearray(build_tcp(ip_to_int("1.2.3.4"), ip_to_int("10.9.0.5"), 1, 2, 0, 0, TCP_SYN))
    raw[0] = 0x4F  # ihl = 60 bytes > frame
    with pytest.raises(DecodeError):
        decode(bytes(raw[:30]), LINK_RAW_IPV4)


def test_udp_300_byte_payload_against_offset_oracle():
    payload = bytes(i % 251 for i in range(300))
    raw = build_udp(ip_to_int("192.0.2.1"), ip_to_int("10.9.0.9"), 5353, 9999, payload)
    rec = decode(raw, LINK_RAW_IPV4)

    # independent header-offset calculator
    ihl = (raw[0] & 0x0F) * 4
    sport, dport, udp_len, _ = struct.unpack_from(">HHHH", raw, ihl)
    expect_payload = raw[ihl + 8 : ihl + udp_len]
    assert (rec.src_port, rec.dst_port) == (sport, dport)
    assert rec.payload_len == len(expect_payload) == 300
    assert rec.payload_prefix == expect_payload[:256]
    assert len(rec.payload_prefix) == 256


def test_ethernet_wrapping():
    ip_packet = build_tcp(ip_to_int("1.2.3.4"), ip_to_int("10.9.0.5"), 40000, 23, 7, 0, TCP_SYN)
    frame = wrap_ethernet(ip_packet)
    rec = decode(frame, LINK_ETHERNET)
    assert rec.dst_port == 23


def test_non_ipv4_ethertype_rejected():
    frame = b"\xff" * 12 + b"\x08\x06" + b"\x00" * 28  # ARP
    with pytest.raises(DecodeError):
        decode(frame, LINK_ETHERNET)


def test_garbage_and_truncation_rejected():
    with pytest.raises(DecodeError):
        decode(b"", LINK_RAW_IPV4)
    with pytest.raises(DecodeError):
        decode(b"\x60" + b"\x00" * 30, LINK_RAW_IPV4)  # IPv6 version nibble
    good = build_udp(ip_to_int("1.1.1.1"), ip_to_int("2.2.2.2"), 1, 2, b"hi")
    for cut in (5, 19, 21, 25):
        with pytest.raises(DecodeError):
            decode(good[:cut], LINK_RAW_IPV4)
    with pytest.raises(DecodeError):
        decode(good, 147)  # unknown link type


def test_fragment_recorded_portless():
    # non-first fragment: offset 100, no transport header to parse
    raw = bytearray(build_ipv4(PROTO_TCP, ip_to_int("1.2.3.4"), ip_to_int("10.9.0.5"), b"\xaa" * 32))
    struct.pack_into(">H", raw, 6, 100)
    rec = decode(bytes(raw), LINK_RAW_IPV4)
    assert rec.proto == PROTO_TCP
    assert (rec.src_port, rec.dst_port) == (0, 0)
    assert rec.payload_len == 32


def test_icmp_payload_after_header():
    raw = build_icmp(ip_to_int("1.2.3.4"), ip_to_int("10.9.0.5"), 8, 0, b"ping-data")
    rec = decode(raw, LINK_RAW_IPV4)
    assert rec.proto == PROTO_ICMP
    assert rec.payload_len == len(b"ping-data")
    assert (rec.src_port, rec.dst_port) == (0, 0)


def test_ip_checksum_valid():
    raw = build_tcp(ip_to_int("1.2.3.4"), ip_to_int("10.9.0.5"), 1, 2, 3, 4, TCP_SYN)
    header = raw[:20]
    total = sum(struct.unpack(">10H", header))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    assert total == 0xFFFF  # ones-complement sum over a valid header


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.binary(max_size=1500), st.lists(st.sampled_from([b"\x00", b"\xff"]), max_size=64).map(b"".join)))
def test_checksum_matches_word_folding(data):
    """The checksum equals the RFC 1071 loop: sum 16-bit words, fold carries, invert."""
    padded = data + b"\x00" * (len(data) % 2)
    total = sum(struct.unpack(f">{len(padded) // 2}H", padded))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    assert packets._checksum(data) == ~total & 0xFFFF


ip_octet = st.integers(0, 255)
ips = st.builds(lambda a, b, c, d: f"{a}.{b}.{c}.{d}", ip_octet, ip_octet, ip_octet, ip_octet)


@settings(max_examples=200, deadline=None)
@given(
    src=ips,
    dst=ips,
    proto=st.sampled_from([PROTO_TCP, PROTO_UDP, PROTO_ICMP, 47, 132]),
    sport=st.integers(0, 65535),
    dport=st.integers(0, 65535),
    flags=st.integers(0, 255),
    payload=st.binary(max_size=256),
    ts=st.integers(0, 2**53),
)
def test_decode_encode_identity(src, dst, proto, sport, dport, flags, payload, ts):
    """decode(encode(record)) == record for records the generators emit."""
    record = PacketRecord(
        ts=ts,
        src_ip=ip_to_int(src),
        dst_ip=ip_to_int(dst),
        proto=proto,
        src_port=sport if proto in (PROTO_TCP, PROTO_UDP) else 0,
        dst_port=dport if proto in (PROTO_TCP, PROTO_UDP) else 0,
        tcp_flags=flags if proto == PROTO_TCP else 0,
        payload_len=len(payload),
        payload_prefix=payload,
    )
    back = decode(encode_record(record), LINK_RAW_IPV4, ts=ts)
    assert back.src_ip == record.src_ip
    assert back.dst_ip == record.dst_ip
    assert back.proto == record.proto
    assert back.src_port == record.src_port
    assert back.dst_port == record.dst_port
    assert back.tcp_flags == record.tcp_flags
    assert back.payload_len == record.payload_len
    assert back.payload_prefix == record.payload_prefix
    assert back.ts == record.ts
