"""Packet, pcap and lake helpers that only the tests use.

holo writes its traces with `collector.HourlyWriter` and reads them with
`pcapio.read_pcap`; these build test inputs and read back what a run left.
The packet builders checksum the bytes they have built, the plain way, and
are the oracle for `packets.encode_record`, which sums the fields instead.
"""

import json
import struct
from typing import Optional

from holo import simnet
from holo.net import ip_to_int
from holo.packets import (
    ETHERTYPE_IPV4,
    LINK_RAW_IPV4,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    TCP_ACK,
    TCP_RST,
    TCP_SYN,
    PacketRecord,
    encode_record,
)
from holo.pcapio import global_header, packet_header


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


def encode_reference(record: PacketRecord) -> bytes:
    """The frame `packets.encode_record` must build, from the builders above."""
    payload = record.payload_prefix
    if record.proto == PROTO_TCP:
        return build_tcp(record.src_ip, record.dst_ip, record.src_port, record.dst_port, 0, 0, record.tcp_flags, payload)
    if record.proto == PROTO_UDP:
        return build_udp(record.src_ip, record.dst_ip, record.src_port, record.dst_port, payload)
    if record.proto == PROTO_ICMP:
        return build_icmp(record.src_ip, record.dst_ip, 8, 0, payload)
    return build_ipv4(record.proto, record.src_ip, record.dst_ip, payload)


def wrap_ethernet(ip_packet: bytes, src_mac: bytes = b"\x02\x00\x00\x00\x00\x01", dst_mac: bytes = b"\x02\x00\x00\x00\x00\x02") -> bytes:
    return dst_mac + src_mac + struct.pack(">H", ETHERTYPE_IPV4) + ip_packet


def write_pcap(path, packets, link_type: int = LINK_RAW_IPV4) -> int:
    """Write (ts_us, raw_bytes) pairs; returns the packet count."""
    count = 0
    with open(path, "wb") as fh:
        fh.write(global_header(link_type))
        for ts_us, raw in packets:
            fh.write(packet_header(ts_us, len(raw)))
            fh.write(raw)
            count += 1
    return count


def dump_pcap(report: simnet.SimReport, path, sensor: Optional[str] = None) -> int:
    """Write generated traffic as pcap for cross-checking the decode path."""
    rows = []
    for gt in report.ground_truth:
        if sensor is not None and gt.sensor != sensor:
            continue
        record = PacketRecord(
            ts=gt.ts,
            src_ip=ip_to_int(gt.src_ip),
            dst_ip=ip_to_int(gt.dst_ip),
            proto=gt.proto,
            src_port=gt.src_port,
            dst_port=gt.dst_port,
            tcp_flags=gt.tcp_flags,
            payload_len=gt.payload_len,
            payload_prefix=b"\x00" * min(gt.payload_len, 256),
        )
        rows.append((gt.ts, encode_record(record)))
    return write_pcap(path, rows)


def lake_holdings(lake) -> list[tuple[str, str]]:
    """(sensor, hour bucket) of every committed trace in a LocalLake."""
    out = []
    for meta_path in sorted(lake.root.rglob("*.meta.json")):
        doc = json.loads(meta_path.read_text())
        out.append((doc["sensor_id"], doc["hour_bucket"]))
    return out


def classify_backscatter(pkt: PacketRecord) -> bool:
    """True for TCP SYN/ACK: the signature of replies to spoofed attacks."""
    return pkt.proto == PROTO_TCP and (pkt.tcp_flags & (TCP_SYN | TCP_ACK)) == (
        TCP_SYN | TCP_ACK
    )


def backscatter_label(pkt: PacketRecord) -> Optional[str]:
    """Extended backscatter-class label; RST replies count here, not in the bool."""
    if pkt.proto != PROTO_TCP:
        return None
    if (pkt.tcp_flags & (TCP_SYN | TCP_ACK)) == (TCP_SYN | TCP_ACK):
        return "synack"
    if pkt.tcp_flags & TCP_RST:
        return "rst"
    return None
