"""Low-interaction L4 honeypot.

Completes TCP three-way handshakes on exposed address/port ranges and
captures the first payload bytes. No retransmission, no reassembly, and
never a RST: segments that do not fit the state machine are dropped in
silence so the responder looks no different from the darknet around it.
"""

from __future__ import annotations

import base64
import hashlib
import struct
from dataclasses import dataclass, field
from typing import Optional

from . import HoloError, toolbox
from .net import AddressRange, PortRange, any_contains, int_to_ip, ports_contain
from .packets import (
    ORIGIN_RESPONDER,
    PROTO_TCP,
    TCP_ACK,
    TCP_FIN,
    TCP_RST,
    TCP_SYN,
    PacketRecord,
)

DEFAULT_BACKEND = "l4"
EGRESS_LIMITER = "egress"  # the token bucket that bounds what the responder sends

SYN_RECEIVED = "syn-received"
ESTABLISHED = "established"
CAPTURED = "captured"
CLOSED = "closed"


class ResponderError(HoloError):
    pass


@dataclass(frozen=True)
class BackendMatch:
    ip_range: AddressRange
    ports: PortRange
    backend_id: str


@dataclass(frozen=True)
class ResponderConfig:
    ip_ranges: tuple[AddressRange, ...]
    port_set: tuple[PortRange, ...]
    backend_map: tuple[BackendMatch, ...] = ()
    max_capture_bytes: int = 4096
    isn_seed: bytes = b"\x00" * 32
    max_connections: int = 65536
    idle_timeout: float = 60.0

    def __post_init__(self):
        if not self.ip_ranges:
            raise ResponderError("ip_ranges must not be empty")
        if not self.port_set:
            raise ResponderError("port_set must not be empty")
        matches = list(self.backend_map)
        for i, a in enumerate(matches):
            for b in matches[i + 1 :]:
                if a.ip_range.overlaps(b.ip_range) and not (
                    a.ports.hi < b.ports.lo or b.ports.hi < a.ports.lo
                ):
                    raise ResponderError(
                        f"backend matches overlap: {a.backend_id} vs {b.backend_id}"
                    )

    def exposes(self, dst_ip: int, dst_port: int) -> bool:
        return any_contains(self.ip_ranges, dst_ip) and ports_contain(self.port_set, dst_port)


def select_backend(cfg: ResponderConfig, dst_ip: int, dst_port: int) -> str:
    """First-match lookup over the backend map; default backend otherwise."""
    for m in cfg.backend_map:
        if m.ip_range.contains_int(dst_ip) and m.ports.contains(dst_port):
            return m.backend_id
    return DEFAULT_BACKEND


def config_from_doc(doc: dict) -> ResponderConfig:
    """Build a ResponderConfig from deploy-document parameters."""
    backends = tuple(
        BackendMatch(
            AddressRange.parse(b["ip_range"]),
            PortRange.parse(b["ports"]),
            b["backend_id"],
        )
        for b in doc.get("backends", [])
    )
    return ResponderConfig(
        ip_ranges=tuple(AddressRange.parse(r) for r in doc["ip_ranges"]),
        port_set=tuple(PortRange.parse(p) for p in doc["ports"]),
        backend_map=backends,
        max_capture_bytes=int(doc.get("max_capture_bytes", 4096)),
        isn_seed=bytes.fromhex(doc["isn_seed"]) if doc.get("isn_seed") else b"\x00" * 32,
    )


def steering_rules(cfg: ResponderConfig) -> list[toolbox.SteeringRule]:
    """Steer exposed traffic to the responder; guard and rate-limit its egress.

    The guard drops any TCP RST sourced from responder space (the kernel
    would otherwise answer for ports the responder leaves silent); the
    EGRESS_LIMITER covers everything else the responder sends. The steers
    come first, then the guards, then the limits.
    """
    ranges = sorted(cfg.ip_ranges)
    steers = [
        toolbox.SteeringRule(
            toolbox.IN,
            toolbox.Match(dst_range=rng, proto=PROTO_TCP, dst_ports=(ports,)),
            toolbox.SteerToBackend(DEFAULT_BACKEND),
        )
        for rng in ranges
        for ports in sorted(cfg.port_set)
    ]
    guards = [
        toolbox.SteeringRule(
            toolbox.OUT, toolbox.Match(src_range=rng, proto=PROTO_TCP, tcp_flag_mask=TCP_RST), toolbox.Drop()
        )
        for rng in ranges
    ]
    limits = [
        toolbox.SteeringRule(toolbox.OUT, toolbox.Match(src_range=rng), toolbox.RateLimit(EGRESS_LIMITER))
        for rng in ranges
    ]
    return steers + guards + limits


def keyed_isn(seed: bytes, key: tuple) -> int:
    """Deterministic per-flow initial sequence number (keyed 32-bit hash).

    key is the (src, dst, proto, src_port, dst_port) 5-tuple, integer
    addresses.
    """
    material = struct.pack(">IIBHH", *key)
    digest = hashlib.blake2s(material, key=seed[:32], digest_size=4).digest()
    return struct.unpack(">I", digest)[0]


@dataclass
class TcpSegment:
    """A TCP packet as the responder sees it: record plus sequence numbers.

    payload holds the full transport payload; the record keeps only the
    bounded prefix.
    """

    record: PacketRecord
    seq: int
    ack: int
    payload: bytes = b""


@dataclass
class TcpConnState:
    key: tuple  # (src, dst, proto, src_port, dst_port), integer addresses
    state: str
    our_isn: int
    peer_next_seq: int
    backend_id: str
    created_at: float
    last_activity: float
    captured: bytearray = field(default_factory=bytearray)


def _connection_record(conn: TcpConnState, closed_at: float, final_state: str) -> dict:
    src_ip, dst_ip, _, src_port, dst_port = conn.key
    return {
        "src_ip": int_to_ip(src_ip),
        "src_port": src_port,
        "dst_ip": int_to_ip(dst_ip),
        "dst_port": dst_port,
        "opened_at": conn.created_at,
        "closed_at": closed_at,
        "state": final_state,
        "backend": conn.backend_id,
        "captured_b64": base64.b64encode(bytes(conn.captured)).decode(),
        "captured_len": len(conn.captured),
    }


class Responder:
    """Connection table plus the segment state machine for one instance."""

    def __init__(self, cfg: ResponderConfig):
        self.cfg = cfg
        self.table: dict[tuple, TcpConnState] = {}

    def _reply(self, seg: TcpSegment, seq: int, ack: int, flags: int) -> TcpSegment:
        r = seg.record
        record = PacketRecord(
            ts=r.ts,
            src_ip=r.dst_ip,
            dst_ip=r.src_ip,
            proto=PROTO_TCP,
            src_port=r.dst_port,
            dst_port=r.src_port,
            tcp_flags=flags,
            capture_origin=ORIGIN_RESPONDER,
        )
        return TcpSegment(record, seq, ack)

    def _close(self, conn: TcpConnState, now: float, events: list) -> None:
        final = conn.state
        conn.state = CLOSED
        self.table.pop(conn.key, None)
        events.append(_connection_record(conn, now, final))

    def _evict_oldest(self, now: float, events: list) -> None:
        oldest_key = next(iter(self.table))
        self._close(self.table[oldest_key], now, events)

    def on_segment(self, seg: TcpSegment, now: float) -> tuple[list[TcpSegment], list[dict]]:
        """Advance the state machine for one inbound segment.

        Total over matching segments: anything that does not fit is
        silently dropped, and at most one segment ever goes out per
        segment received.
        """
        r = seg.record
        outbound: list[TcpSegment] = []
        events: list[dict] = []
        if r.proto != PROTO_TCP or not self.cfg.exposes(r.dst_ip, r.dst_port):
            return outbound, events

        key = (r.src_ip, r.dst_ip, PROTO_TCP, r.src_port, r.dst_port)
        conn = self.table.get(key)
        flags = r.tcp_flags

        if flags & TCP_RST:
            if conn is not None:
                self._close(conn, now, events)
            return outbound, events

        if flags & TCP_SYN and not flags & TCP_ACK:
            if conn is not None:
                if conn.state == SYN_RECEIVED:
                    # retransmitted SYN: same deterministic SYN/ACK
                    outbound.append(self._reply(seg, conn.our_isn, conn.peer_next_seq, TCP_SYN | TCP_ACK))
                return outbound, events
            if len(self.table) >= self.cfg.max_connections:
                self._evict_oldest(now, events)
            isn = keyed_isn(self.cfg.isn_seed, key)
            conn = TcpConnState(
                key=key,
                state=SYN_RECEIVED,
                our_isn=isn,
                peer_next_seq=(seg.seq + 1) & 0xFFFFFFFF,
                backend_id=select_backend(self.cfg, r.dst_ip, r.dst_port),
                created_at=now,
                last_activity=now,
            )
            self.table[key] = conn
            outbound.append(self._reply(seg, isn, conn.peer_next_seq, TCP_SYN | TCP_ACK))
            return outbound, events

        if conn is None:
            return outbound, events  # stray segment for an unknown key

        conn.last_activity = now

        if flags & TCP_FIN:
            if seg.seq == conn.peer_next_seq:
                conn.peer_next_seq = (seg.seq + r.payload_len + 1) & 0xFFFFFFFF
                outbound.append(
                    self._reply(seg, (conn.our_isn + 1) & 0xFFFFFFFF, conn.peer_next_seq, TCP_ACK)
                )
            self._close(conn, now, events)
            return outbound, events

        if conn.state == SYN_RECEIVED:
            if flags & TCP_ACK and seg.ack == (conn.our_isn + 1) & 0xFFFFFFFF:
                conn.state = ESTABLISHED
            else:
                return outbound, events

        if r.payload_len and seg.seq == conn.peer_next_seq and conn.state in (ESTABLISHED, CAPTURED):
            data = seg.payload or r.payload_prefix
            room = self.cfg.max_capture_bytes - len(conn.captured)
            if room > 0:
                conn.captured += data[:room]
            conn.peer_next_seq = (conn.peer_next_seq + r.payload_len) & 0xFFFFFFFF
            conn.state = CAPTURED
            outbound.append(
                self._reply(seg, (conn.our_isn + 1) & 0xFFFFFFFF, conn.peer_next_seq, TCP_ACK)
            )
        return outbound, events

    def expire(self, now: float, idle_timeout: Optional[float] = None) -> list[dict]:
        """Close and report connections idle past the timeout."""
        timeout = self.cfg.idle_timeout if idle_timeout is None else idle_timeout
        events: list[dict] = []
        for key in [k for k, c in self.table.items() if now - c.last_activity > timeout]:
            conn = self.table.get(key)
            if conn is not None:
                self._close(conn, now, events)
        return events
