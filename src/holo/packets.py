"""Packet records, IPv4 encode/decode and flow keys.

Records carry at most PAYLOAD_PREFIX_MAX payload bytes; full payloads
only ever live in trace files.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .net import int_to_ip, ip_to_int

PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17

TCP_FIN = 0x01
TCP_SYN = 0x02
TCP_RST = 0x04
TCP_PSH = 0x08
TCP_ACK = 0x10
TCP_URG = 0x20
TCP_ECE = 0x40
TCP_CWR = 0x80

FLAG_NAMES = [
    (TCP_FIN, "FIN"),
    (TCP_SYN, "SYN"),
    (TCP_RST, "RST"),
    (TCP_PSH, "PSH"),
    (TCP_ACK, "ACK"),
    (TCP_URG, "URG"),
    (TCP_ECE, "ECE"),
    (TCP_CWR, "CWR"),
]

LINK_ETHERNET = 1
LINK_RAW_IPV4 = 101

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_ARP = 0x0806

PAYLOAD_PREFIX_MAX = 256

ORIGIN_DARKNET = "darknet"
ORIGIN_RESPONDER = "responder"


class DecodeError(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class FlowKey(NamedTuple):
    """Standard 5-tuple; NamedTuple ordering gives the deterministic sort."""

    src_ip: str
    dst_ip: str
    proto: int
    src_port: int
    dst_port: int

    def sort_key(self):
        return (
            ip_to_int(self.src_ip),
            ip_to_int(self.dst_ip),
            self.proto,
            self.src_port,
            self.dst_port,
        )


@dataclass(slots=True)
class PacketRecord:
    """One observed packet; addresses are host-order ints."""

    ts: int  # microseconds since the Unix epoch
    src_ip: int
    dst_ip: int
    proto: int
    src_port: int = 0
    dst_port: int = 0
    tcp_flags: int = 0
    payload_len: int = 0
    payload_prefix: bytes = b""
    capture_origin: str = ORIGIN_DARKNET

    def flow_key(self) -> FlowKey:
        """The 5-tuple with dotted quads, as flow tables key it."""
        return FlowKey(
            int_to_ip(self.src_ip), int_to_ip(self.dst_ip), self.proto, self.src_port, self.dst_port
        )


def _checksum(data: bytes) -> int:
    """RFC 1071 Internet checksum.

    Since 2**16 == 1 (mod 0xFFFF), the folded ones'-complement sum of the
    16-bit words is the data read as one big-endian integer, mod 0xFFFF;
    the fold never yields 0 for nonzero data, so a 0 residue there is 0xFFFF.
    """
    if len(data) % 2:
        data += b"\x00"
    total = int.from_bytes(data, "big") % 0xFFFF or (0xFFFF if any(data) else 0)
    return ~total & 0xFFFF


_IPV4_HEADER = struct.Struct(">BBHHHBBHII")
_PSEUDO_HEADER = struct.Struct(">IIxBH")


def build_ipv4(proto: int, src_ip: int, dst_ip: int, payload: bytes, ttl: int = 64) -> bytes:
    total_len = 20 + len(payload)
    header = _IPV4_HEADER.pack(0x45, 0, total_len, 0, 0, ttl, proto, 0, src_ip, dst_ip)
    checksum = _checksum(header)
    return _IPV4_HEADER.pack(0x45, 0, total_len, 0, 0, ttl, proto, checksum, src_ip, dst_ip) + payload


def _transport_checksum(src_ip: int, dst_ip: int, proto: int, segment: bytes) -> int:
    return _checksum(_PSEUDO_HEADER.pack(src_ip, dst_ip, proto, len(segment)) + segment)


_TCP_HEADER = struct.Struct(">HHIIBBHHH")


def build_tcp(
    src_ip: int,
    dst_ip: int,
    src_port: int,
    dst_port: int,
    seq: int,
    ack: int,
    flags: int,
    payload: bytes = b"",
) -> bytes:
    """A TCP/IPv4 packet with no options and a 65535-byte window."""
    fields = (src_port, dst_port, seq & 0xFFFFFFFF, ack & 0xFFFFFFFF, 5 << 4, flags, 65535)
    segment = _TCP_HEADER.pack(*fields, 0, 0) + payload
    csum = _transport_checksum(src_ip, dst_ip, PROTO_TCP, segment)
    return build_ipv4(PROTO_TCP, src_ip, dst_ip, _TCP_HEADER.pack(*fields, csum, 0) + payload)


def build_udp(src_ip: int, dst_ip: int, src_port: int, dst_port: int, payload: bytes = b"") -> bytes:
    length = 8 + len(payload)
    header = struct.pack(">HHHH", src_port, dst_port, length, 0)
    csum = _transport_checksum(src_ip, dst_ip, PROTO_UDP, header + payload)
    header = header[:6] + struct.pack(">H", csum or 0xFFFF)
    return build_ipv4(PROTO_UDP, src_ip, dst_ip, header + payload)


def build_icmp(src_ip: int, dst_ip: int, icmp_type: int, code: int = 0, payload: bytes = b"") -> bytes:
    header = struct.pack(">BBHI", icmp_type, code, 0, 0)
    csum = _checksum(header + payload)
    header = struct.pack(">BBHI", icmp_type, code, csum, 0)
    return build_ipv4(PROTO_ICMP, src_ip, dst_ip, header + payload)


def wrap_ethernet(ip_packet: bytes, src_mac: bytes = b"\x02\x00\x00\x00\x00\x01", dst_mac: bytes = b"\x02\x00\x00\x00\x00\x02") -> bytes:
    return dst_mac + src_mac + struct.pack(">H", ETHERTYPE_IPV4) + ip_packet


_ETHERTYPE = struct.Struct(">H")
# version/IHL, total length, flags/fragment offset, protocol, source, destination
_IPV4 = struct.Struct(">BxHxxHxBxxII")
_PORTS = struct.Struct(">HH")
_UDP = struct.Struct(">HHH")


def parse_headers(
    raw, link_type: int, wire_len: Optional[int] = None
) -> tuple[int, int, int, int, int, int, int, int]:
    """Validate one captured frame and locate its fields.

    Returns (src, dst, proto, src_port, dst_port, tcp_flags, payload_start,
    payload_end) with integer addresses; the payload is
    raw[payload_start:payload_end]. Truncated or garbage input raises
    DecodeError. These are the only frame validity rules in holo.

    wire_len is the frame's length on the wire when it was captured short
    (a pcap record's orig_len): the IPv4 total length is then checked
    against it and payload_end may lie past the captured bytes, while
    every header read is still checked against the captured bytes.
    """
    if link_type == LINK_ETHERNET:
        if len(raw) < 14:
            raise DecodeError("ethernet frame shorter than header")
        (ethertype,) = _ETHERTYPE.unpack_from(raw, 12)
        if ethertype != ETHERTYPE_IPV4:
            raise DecodeError(f"unsupported ethertype 0x{ethertype:04x}")
        off = 14
    elif link_type == LINK_RAW_IPV4:
        off = 0
    else:
        raise DecodeError(f"unsupported link type {link_type}")

    avail = len(raw) - off
    if avail < 20:
        raise DecodeError("short IPv4 header")
    vihl, total_len, frag, proto, src, dst = _IPV4.unpack_from(raw, off)
    if vihl >> 4 != 4:
        raise DecodeError(f"not IPv4 (version {vihl >> 4})")
    ihl = (vihl & 0x0F) * 4
    if ihl < 20 or ihl > avail:
        raise DecodeError("IPv4 header length exceeds frame")
    if total_len < ihl:
        raise DecodeError("IPv4 total length inconsistent with frame")
    start = off + ihl
    end = off + total_len
    body_len = total_len - ihl
    room = body_len  # transport header bytes captured
    if total_len > avail:
        if wire_len is None or total_len > wire_len - off:
            raise DecodeError("IPv4 total length inconsistent with frame")
        room = avail - ihl

    # Non-first fragments carry no transport header: record as-is, portless.
    if frag & 0x1FFF:
        return src, dst, proto, 0, 0, 0, start, end
    if proto == PROTO_TCP:
        if room < 20:
            raise DecodeError("short TCP header")
        src_port, dst_port = _PORTS.unpack_from(raw, start)
        doff = (raw[start + 12] >> 4) * 4
        if doff < 20 or doff > body_len:
            raise DecodeError("TCP data offset exceeds segment")
        return src, dst, proto, src_port, dst_port, raw[start + 13], start + doff, end
    if proto == PROTO_UDP:
        if room < 8:
            raise DecodeError("short UDP header")
        src_port, dst_port, udp_len = _UDP.unpack_from(raw, start)
        if udp_len < 8 or udp_len > body_len:
            raise DecodeError("UDP length inconsistent with segment")
        return src, dst, proto, src_port, dst_port, 0, start + 8, start + udp_len
    if proto == PROTO_ICMP:
        if room < 8:
            raise DecodeError("short ICMP header")
        return src, dst, proto, 0, 0, 0, start + 8, end
    return src, dst, proto, 0, 0, 0, start, end


def decode(raw_bytes: bytes, link_type: int, ts: int = 0, capture_origin: str = ORIGIN_DARKNET) -> PacketRecord:
    """Parse one captured frame into a PacketRecord.

    Truncated or garbage input raises DecodeError; a record is only ever
    returned fully populated.
    """
    src, dst, proto, src_port, dst_port, tcp_flags, start, end = parse_headers(raw_bytes, link_type)
    return PacketRecord(
        ts=ts,
        src_ip=src,
        dst_ip=dst,
        proto=proto,
        src_port=src_port,
        dst_port=dst_port,
        tcp_flags=tcp_flags,
        payload_len=end - start,
        payload_prefix=bytes(raw_bytes[start : min(end, start + PAYLOAD_PREFIX_MAX)]),
        capture_origin=capture_origin,
    )


def encode_record(record: PacketRecord) -> bytes:
    """Rebuild a raw IPv4 packet from a record (payload truncated at the prefix)."""
    payload = record.payload_prefix
    if record.proto == PROTO_TCP:
        return build_tcp(
            record.src_ip,
            record.dst_ip,
            record.src_port,
            record.dst_port,
            0,
            0,
            record.tcp_flags,
            payload,
        )
    if record.proto == PROTO_UDP:
        return build_udp(record.src_ip, record.dst_ip, record.src_port, record.dst_port, payload)
    if record.proto == PROTO_ICMP:
        return build_icmp(record.src_ip, record.dst_ip, 8, 0, payload)
    return build_ipv4(record.proto, record.src_ip, record.dst_ip, payload)


def encoded_headers(record: PacketRecord) -> tuple[int, int, int, int, int, int, int, int]:
    """parse_headers(encode_record(record), LINK_RAW_IPV4), read off the record.

    encode_record builds headers without options, so where each field lands
    follows from the record alone; this saves the parse for a frame holo
    built itself. Tests pin it to parse_headers.
    """
    n = len(record.payload_prefix)
    src, dst, proto = record.src_ip, record.dst_ip, record.proto
    if proto == PROTO_TCP:
        return src, dst, proto, record.src_port, record.dst_port, record.tcp_flags, 40, 40 + n
    if proto == PROTO_UDP:
        return src, dst, proto, record.src_port, record.dst_port, 0, 28, 28 + n
    if proto == PROTO_ICMP:
        return src, dst, proto, 0, 0, 0, 28, 28 + n
    return src, dst, proto, 0, 0, 0, 20, 20 + n
