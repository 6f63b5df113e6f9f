"""Minimal classic-pcap reading and writing (magic 0xa1b2c3d4, microsecond stamps)."""

from __future__ import annotations

import struct
from contextlib import nullcontext

PCAP_MAGIC = 0xA1B2C3D4
GLOBAL_HEADER = struct.Struct(">IHHiIII")
PACKET_HEADER = struct.Struct(">IIII")

from .packets import LINK_ETHERNET, LINK_RAW_IPV4  # noqa: E402


def global_header(link_type: int = LINK_RAW_IPV4, snaplen: int = 65535) -> bytes:
    return GLOBAL_HEADER.pack(PCAP_MAGIC, 2, 4, 0, 0, snaplen, link_type)


def packet_header(ts_us: int, length: int, orig_len: int | None = None) -> bytes:
    return PACKET_HEADER.pack(ts_us // 1_000_000, ts_us % 1_000_000, length, orig_len or length)


def read_pcap(source, orig_len: bool = False):
    """Yield (ts_us, raw_bytes, link_type) for every packet of a pcap.

    source is a path or a binary file, read one record at a time. A path's
    file is opened on the first record asked for and closed when the
    generator ends or is closed; a binary file is left open. With
    orig_len, each tuple also carries the record's original (wire) length,
    which exceeds len(raw) for a frame captured short.
    """
    if hasattr(source, "read"):
        opened, name = nullcontext(source), getattr(source, "name", "pcap stream")
    else:
        # a 64 KiB buffer: with the default 8 KiB, streaming 8,000 records
        # of 0-1,400 B took 15 % longer than reading the file whole
        opened, name = open(source, "rb", buffering=1 << 16), source
    with opened as fh:
        read = fh.read
        head = read(GLOBAL_HEADER.size)
        if len(head) < GLOBAL_HEADER.size:
            raise ValueError(f"{name}: not a pcap file")
        magic, _, _, _, _, _, link_type = GLOBAL_HEADER.unpack(head)
        swapped = False
        if magic != PCAP_MAGIC:
            magic_le = struct.unpack_from("<I", head)[0]
            if magic_le != PCAP_MAGIC:
                raise ValueError(f"{name}: bad pcap magic 0x{magic:08x}")
            swapped = True
            _, _, _, _, _, link_type = struct.unpack_from("<HHiIII", head, 4)
        pos = GLOBAL_HEADER.size
        hdr = struct.Struct("<IIII") if swapped else PACKET_HEADER
        unpack, size = hdr.unpack, hdr.size
        while len(rec := read(size)) == size:
            sec, usec, incl, orig = unpack(rec)
            pos += size
            raw = read(incl)
            if len(raw) != incl:
                raise ValueError(f"{name}: truncated packet at offset {pos}")
            pos += incl
            if orig_len:
                yield sec * 1_000_000 + usec, raw, link_type, orig
            else:
                yield sec * 1_000_000 + usec, raw, link_type


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
