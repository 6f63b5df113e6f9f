"""Packet, pcap and lake helpers that only the tests use.

holo writes its traces with `collector.HourlyWriter` and reads them with
`pcapio.read_pcap`; these build test inputs and read back what a run left.
"""

import json
import struct
from typing import Optional

from holo import simnet
from holo.net import ip_to_int
from holo.packets import (
    ETHERTYPE_IPV4,
    LINK_RAW_IPV4,
    PROTO_TCP,
    TCP_ACK,
    TCP_RST,
    TCP_SYN,
    PacketRecord,
    encode_record,
)
from holo.pcapio import global_header, packet_header


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
