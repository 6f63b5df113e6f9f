"""Deterministic simulated Internet for desk-scale verification.

Seeded scanner populations emit packets into simulated sensor address
space; every packet runs through the real sensor path (toolbox program,
darknet capture or responder, collector) on a logical clock. The run
returns a ground-truth registry so analytics can be checked exactly.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import yaml

from . import HoloError
from . import collector as collector_mod
from . import darknet as darknet_mod
from . import responder as responder_mod
from . import toolbox
from .net import AddressRange, any_contains, int_to_ip, ip_to_int
from .packets import (
    ORIGIN_RESPONDER,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    TCP_ACK,
    TCP_FIN,
    TCP_RST,
    TCP_SYN,
    FlowKey,
    PacketRecord,
    encode_record,
)

DEFAULT_START_US = 1_754_006_400_000_000  # 2025-08-01T00:00:00Z

KIND_UNIFORM = "uniform"
KIND_PREFIX = "prefix"
KIND_BACKSCATTER = "backscatter"

# Port-model presets for the scanner archetypes exercised in tests; the
# weights are artifact configuration, not measured ground truth.
PORT_PRESETS = {
    "ssh-telnet-iot": {22: 0.4, 23: 0.4, 2000: 0.2},
    "bgp-prober": {179: 1.0},
    "es-ddos": {9200: 1.0},
}



class ConfigInvalid(HoloError):
    pass


class Timeout(Exception):
    pass


@dataclass
class ScannerProfile:
    name: str
    kind: str
    src_ip: str = "198.51.100.1"
    rate: float = 1.0
    port_model: dict = field(default_factory=lambda: {22: 1.0})
    payload_model: dict = field(default_factory=dict)
    prefixes: list = field(default_factory=list)
    victims: list = field(default_factory=list)
    proto: str = "tcp"
    total_packets: Optional[int] = None  # exact count override
    sequential: bool = False  # cycle destinations instead of sampling

    def __post_init__(self):
        if self.kind not in (KIND_UNIFORM, KIND_PREFIX, KIND_BACKSCATTER):
            raise ConfigInvalid(f"unknown scanner kind {self.kind!r}")
        if self.rate <= 0:
            raise ConfigInvalid("scanner rate must be positive")
        if isinstance(self.port_model, str):
            self.port_model = dict(PORT_PRESETS[self.port_model])
        total = sum(self.port_model.values())
        if abs(total - 1.0) > 1e-9:
            raise ConfigInvalid(f"{self.name}: port weights sum to {total}, not 1")
        self.prefixes = [
            p if isinstance(p, AddressRange) else AddressRange.parse(p) for p in self.prefixes
        ]
        if self.kind == KIND_PREFIX and not self.prefixes:
            raise ConfigInvalid(f"{self.name}: prefix scanner needs prefixes")
        if self.kind == KIND_BACKSCATTER and not self.victims:
            raise ConfigInvalid(f"{self.name}: backscatter scanner needs victims")


@dataclass
class SimSensor:
    sensor_id: str
    ranges: list
    mode: str = darknet_mod.MODE_DIRECT
    sensor_ip: Optional[str] = None
    router_ip: str = "10.255.255.1"
    responder: Optional[dict] = None  # ip_ranges/ports/backends doc
    egress_rate: float = 100.0
    egress_burst: float = 100.0

    def __post_init__(self):
        self.ranges = [
            r if isinstance(r, AddressRange) else AddressRange.parse(r) for r in self.ranges
        ]


@dataclass
class SimConfig:
    seed: int
    duration: float  # simulated seconds
    sensors: list
    scanners: list
    clock_step: int = 1000  # microseconds
    start_ts: int = DEFAULT_START_US

    def __post_init__(self):
        all_ranges = [r for s in self.sensors for r in s.ranges]
        for i, a in enumerate(all_ranges):
            for b in all_ranges[i + 1 :]:
                if a.overlaps(b):
                    raise ConfigInvalid(f"sensor ranges overlap: {a} vs {b}")


def load_sim_config(path) -> SimConfig:
    with open(path) as fh:
        doc = yaml.safe_load(fh)
    try:
        sensors = [SimSensor(**s) for s in doc["sensors"]]
        scanners = [ScannerProfile(**s) for s in doc["scanners"]]
        return SimConfig(
            seed=int(doc["seed"]),
            duration=float(doc["duration"]),
            sensors=sensors,
            scanners=scanners,
            clock_step=int(doc.get("clock_step", 1000)),
            start_ts=int(doc.get("start_ts", DEFAULT_START_US)),
        )
    except (KeyError, TypeError) as exc:
        raise ConfigInvalid(f"bad sim config: {exc}") from None


class GroundTruth(NamedTuple):
    ts: int
    sensor: str
    src_ip: str
    dst_ip: str
    proto: int
    src_port: int
    dst_port: int
    tcp_flags: int
    payload_len: int
    scanner: str
    expect_capture: bool


@dataclass
class PathCounters:
    delivered: int = 0
    captured: int = 0
    dropped_in: int = 0
    arp_pending: int = 0
    steered: int = 0
    outbound_emitted: int = 0
    outbound_suppressed: int = 0
    outbound_ratelimited: int = 0
    darknet_src_leaks: int = 0
    rst_emitted: int = 0


class SensorPath:
    """The real packet path of one sensor, driven by the simulator."""

    def __init__(self, sim_sensor: SimSensor, writer=None):
        self.sensor = sim_sensor
        self.writer = writer
        self.counters = PathCounters()
        self.captured: list[PacketRecord] = []
        self.responder_events: list[dict] = []

        # the darknet keeps to passive space: the responder's ranges are carved out
        self.darknet_config = darknet_mod.carve_out_responders(
            darknet_mod.DarknetConfig(
                ranges=tuple(sim_sensor.ranges), mode=sim_sensor.mode, sensor_ip=sim_sensor.sensor_ip
            ),
            () if sim_sensor.responder is None else sim_sensor.responder["ip_ranges"],
        )
        rules = darknet_mod.darknet_rules(self.darknet_config)
        self.responder = None
        self.limiter = toolbox.TokenBucket(rate=sim_sensor.egress_rate, burst=sim_sensor.egress_burst)
        if sim_sensor.responder is not None:
            cfg = responder_mod.config_from_doc(sim_sensor.responder)
            self.responder = responder_mod.Responder(cfg)
            rules += responder_mod.steering_rules(cfg, "egress")
        self.program = toolbox.compile(rules)
        self.handle = darknet_mod.attach(
            self.darknet_config,
            descriptor_ranges=sim_sensor.ranges,
            sink=self._capture_sink,
        )

    def _capture_sink(self, record: PacketRecord, raw) -> None:
        self.captured.append(record)
        self.counters.captured += 1
        if self.writer is not None:
            self.writer.append(record, raw)

    def _send(self, record: PacketRecord, now: float) -> bool:
        """Outbound leg: steering program, then the egress limiter."""
        action = toolbox.evaluate(self.program, record, toolbox.OUT)
        if action.kind == toolbox.ACT_DROP:
            self.counters.outbound_suppressed += 1
            return False
        if action.kind == toolbox.ACT_RATELIMIT:
            if toolbox.allow(self.limiter, now, 1) != 1:
                self.counters.outbound_ratelimited += 1
                return False
        self.counters.outbound_emitted += 1
        if any_contains(self.darknet_config.ranges, record.src_ip):
            self.counters.darknet_src_leaks += 1
        if record.proto == PROTO_TCP and record.tcp_flags & TCP_RST:
            self.counters.rst_emitted += 1
        if self.writer is not None:
            self.writer.append(record)
        return True

    def _reflex(self, record: PacketRecord) -> Optional[PacketRecord]:
        """What a host stack would answer on a passively monitored address."""
        if record.proto == PROTO_TCP and not record.tcp_flags & TCP_RST:
            return PacketRecord(
                ts=record.ts,
                src_ip=record.dst_ip,
                dst_ip=record.src_ip,
                proto=PROTO_TCP,
                src_port=record.dst_port,
                dst_port=record.src_port,
                tcp_flags=TCP_RST | TCP_ACK,
                capture_origin=record.capture_origin,
            )
        if record.proto == PROTO_UDP:
            return PacketRecord(
                ts=record.ts,
                src_ip=record.dst_ip,
                dst_ip=record.src_ip,
                proto=PROTO_ICMP,
                capture_origin=record.capture_origin,
            )
        return None

    def inject(self, seg: responder_mod.TcpSegment | PacketRecord) -> list[responder_mod.TcpSegment]:
        """Run one inbound packet through the path; returns responder output."""
        record = seg.record if isinstance(seg, responder_mod.TcpSegment) else seg
        now = record.ts / 1e6
        self.counters.delivered += 1
        responses: list[responder_mod.TcpSegment] = []

        action = toolbox.evaluate(self.program, record, toolbox.IN)
        if action.kind == toolbox.ACT_DROP:
            self.counters.dropped_in += 1
            return responses

        if action.kind == toolbox.ACT_STEER and self.responder is not None:
            self.counters.steered += 1
            record.capture_origin = ORIGIN_RESPONDER
            if self.writer is not None:
                self.writer.append(record)
            if isinstance(seg, responder_mod.TcpSegment):
                outbound, events = self.responder.on_segment(seg, now)
                self.responder_events.extend(events)
                for out_seg in outbound:
                    if self._send(out_seg.record, now):
                        responses.append(out_seg)
            return responses

        # darknet leg
        if self.sensor.mode == darknet_mod.MODE_ARP and not self.handle.accepts(record):
            if any_contains(self.darknet_config.ranges, record.dst_ip):
                # border router ARPs for the unknown address; the packet
                # itself is lost until the claim lands
                query = darknet_mod.ArpQuery(record.ts, self.sensor.router_ip, record.dst_ip)
                darknet_mod.arp_respond(query, self.darknet_config, self.handle.arp, now)
                self.counters.arp_pending += 1
            return responses
        if self.handle.offer(record):
            reflex = self._reflex(record)
            if reflex is not None:
                self._send(reflex, now)
        elif self.responder is not None and any_contains(self.responder.cfg.ip_ranges, record.dst_ip):
            # responder space, port not exposed: the kernel would answer;
            # the RST guard has to keep that silent
            reflex = self._reflex(record)
            if reflex is not None:
                self._send(reflex, now)
        return responses

    def tick(self, now: float) -> None:
        if self.responder is not None:
            self.responder_events.extend(self.responder.expire(now))

    def finish(self, now: float) -> None:
        self.tick(now + 10 * 3600)
        if self.writer is not None:
            self.writer.seal()


@dataclass
class SimReport:
    config_seed: int
    ground_truth: list
    counters: dict
    sender_registry: dict
    paths: dict = field(default_factory=dict)

    def expected_flows(self, sensor: str) -> dict[FlowKey, int]:
        out: dict[FlowKey, int] = {}
        for gt in self.ground_truth:
            if gt.sensor == sensor and gt.expect_capture:
                key = FlowKey(gt.src_ip, gt.dst_ip, gt.proto, gt.src_port, gt.dst_port)
                out[key] = out.get(key, 0) + 1
        return out

    def expected_flows_by_day(self, sensor: str) -> dict[tuple, int]:
        from .analysis import day_of

        out: dict[tuple, int] = {}
        for gt in self.ground_truth:
            if gt.sensor == sensor and gt.expect_capture:
                key = (day_of(gt.ts), FlowKey(gt.src_ip, gt.dst_ip, gt.proto, gt.src_port, gt.dst_port))
                out[key] = out.get(key, 0) + 1
        return out

    def dump_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for gt in self.ground_truth:
                fh.write(json.dumps(gt._asdict(), sort_keys=True) + "\n")

    def digest(self) -> str:
        h = hashlib.sha256()
        for gt in self.ground_truth:
            h.update(repr(gt).encode())
        h.update(json.dumps(self.counters, sort_keys=True).encode())
        return h.hexdigest()


class _ScannerState:
    def __init__(self, profile: ScannerProfile, config: SimConfig, seq: int):
        self.profile = profile
        self.emitted = 0
        self.seq = seq
        # (dotted, int) per source address: ground truth keeps the dotted form
        self.source = (profile.src_ip, ip_to_int(profile.src_ip))
        self.victims = [(v, ip_to_int(v)) for v in profile.victims]
        if profile.total_packets:
            self.interval_us = config.duration * 1e6 / profile.total_packets
            self.limit = profile.total_packets
        else:
            self.interval_us = 1e6 / profile.rate
            self.limit = int(config.duration * profile.rate)

    def next_ts(self, config: SimConfig) -> Optional[int]:
        if self.emitted >= self.limit:
            return None
        ts = config.start_ts + int(self.emitted * self.interval_us)
        step = config.clock_step
        return (ts // step) * step


class _TargetSpace:
    """Monitored addresses a scanner can hit, indexable for uniform picks."""

    def __init__(self, config: SimConfig, profile: ScannerProfile):
        self.blocks: list[tuple[str, int, int]] = []  # (sensor, lo, hi)
        for sensor in config.sensors:
            for rng in sensor.ranges:
                if profile.kind == KIND_PREFIX:
                    for pfx in profile.prefixes:
                        if pfx.overlaps(rng):
                            lo = max(pfx.base_int, rng.base_int)
                            hi = min(pfx.last_int, rng.last_int)
                            self.blocks.append((sensor.sensor_id, lo, hi))
                else:
                    self.blocks.append((sensor.sensor_id, rng.base_int, rng.last_int))
        self.total = sum(hi - lo + 1 for _, lo, hi in self.blocks)

    def address_at(self, index: int) -> tuple[str, int]:
        index %= self.total
        for sensor_id, lo, hi in self.blocks:
            size = hi - lo + 1
            if index < size:
                return sensor_id, lo + index
            index -= size
        raise AssertionError("index out of space")


def _weighted_choice(rng: random.Random, table: list[tuple[int, float]]) -> int:
    x = rng.random()
    acc = 0.0
    for value, weight in table:
        acc += weight
        if x < acc:
            return value
    return table[-1][0]


def run(config: SimConfig, writers: Optional[dict] = None) -> SimReport:
    """Drive the full event stream through every sensor's packet path."""
    rng = random.Random(config.seed)
    writers = writers or {}
    paths = {s.sensor_id: SensorPath(s, writer=writers.get(s.sensor_id)) for s in config.sensors}

    scanners = [_ScannerState(p, config, i) for i, p in enumerate(config.scanners)]
    spaces = {}
    port_tables = {}
    for state in scanners:
        space = _TargetSpace(config, state.profile)
        if space.total == 0:
            raise ConfigInvalid(f"{state.profile.name}: no monitored space to target")
        spaces[state.profile.name] = space
        port_tables[state.profile.name] = sorted(state.profile.port_model.items())

    ground_truth: list[GroundTruth] = []
    sender_registry: dict[str, set] = {}

    import heapq

    heap = []
    for state in scanners:
        ts = state.next_ts(config)
        if ts is not None:
            heapq.heappush(heap, (ts, state.seq, state))

    end_ts = config.start_ts + int(config.duration * 1e6)
    while heap:
        ts, seq, state = heapq.heappop(heap)
        if ts >= end_ts:
            break
        profile = state.profile
        space = spaces[profile.name]
        ports = port_tables[profile.name]

        if profile.sequential:
            sensor_id, dst_ip = space.address_at(state.emitted)
        else:
            sensor_id, dst_ip = space.address_at(rng.randrange(space.total))

        if profile.kind == KIND_BACKSCATTER:
            src_dotted, src_ip = state.victims[rng.randrange(len(state.victims))]
            src_port = _weighted_choice(rng, ports)
            dst_port = rng.randint(1024, 65535)
            flags = TCP_SYN | TCP_ACK
            proto = PROTO_TCP
            payload = b""
        else:
            src_dotted, src_ip = state.source
            dst_port = _weighted_choice(rng, ports)
            src_port = rng.randint(1024, 65535)
            if profile.proto == "udp":
                proto = PROTO_UDP
                flags = 0
                payload = bytes(profile.payload_model.get(dst_port, b""))
            else:
                proto = PROTO_TCP
                flags = TCP_SYN
                payload = b""

        record = PacketRecord(
            ts=ts,
            src_ip=src_ip,
            dst_ip=dst_ip,
            proto=proto,
            src_port=src_port,
            dst_port=dst_port,
            tcp_flags=flags,
            payload_len=len(payload),
            payload_prefix=payload[:256],
        )
        path = paths[sensor_id]
        expect = _expected_capture(path, record)
        if proto == PROTO_TCP:
            seg = responder_mod.TcpSegment(record, seq=rng.getrandbits(32), ack=0, payload=payload)
            path.inject(seg)
        else:
            path.inject(record)

        ground_truth.append(
            GroundTruth(
                ts, sensor_id, src_dotted, int_to_ip(dst_ip), proto, src_port, dst_port,
                flags, len(payload), profile.name, expect,
            )
        )
        sender_registry.setdefault(profile.name, set()).add(src_dotted)

        state.emitted += 1
        nxt = state.next_ts(config)
        if nxt is not None:
            heapq.heappush(heap, (nxt, state.seq, state))

    final_now = end_ts / 1e6
    for path in paths.values():
        path.finish(final_now)

    counters = {sid: vars(p.counters).copy() for sid, p in paths.items()}
    return SimReport(
        config_seed=config.seed,
        ground_truth=ground_truth,
        counters=counters,
        sender_registry={k: sorted(v) for k, v in sorted(sender_registry.items())},
        paths=paths,
    )


def _expected_capture(path: SensorPath, record: PacketRecord) -> bool:
    """Generator-side prediction of whether the darknet captures this packet.

    Evaluated before injection. Direct and routed attachment capture
    everything inside the darknet ranges; ARP attachment additionally
    requires the address to have been claimed by an earlier query, so the
    first packet toward a fresh address predicts False.
    """
    if not any_contains(path.darknet_config.ranges, record.dst_ip):
        return False
    if path.sensor.mode == darknet_mod.MODE_ARP:
        return record.dst_ip in path.handle.arp.claimed
    return True


def scripted_client(
    path: SensorPath,
    dst_ip: str,
    dst_port: int,
    dialog: list,
    src_ip: str = "203.0.113.10",
    src_port: int = 40000,
    start_ts: int = DEFAULT_START_US,
    client_isn: int = 1000,
) -> list[responder_mod.TcpSegment]:
    """Play a TCP dialog against a sensor through the real path.

    Dialog steps: ("syn",), ("ack",), ("data", bytes), ("fin",), ("rst",).
    Returns the transcript (both directions, in order). Raises Timeout if
    a step needs server state that never arrived.
    """
    src, dst = ip_to_int(src_ip), ip_to_int(dst_ip)
    transcript: list[responder_mod.TcpSegment] = []
    seq = client_isn
    server_seq = None
    ts = start_ts

    def send(flags: int, payload: bytes = b"", ack: int = 0) -> None:
        nonlocal ts
        record = PacketRecord(
            ts=ts,
            src_ip=src,
            dst_ip=dst,
            proto=PROTO_TCP,
            src_port=src_port,
            dst_port=dst_port,
            tcp_flags=flags,
            payload_len=len(payload),
            payload_prefix=payload[:256],
        )
        seg = responder_mod.TcpSegment(record, seq=seq, ack=ack, payload=payload)
        transcript.append(seg)
        for response in path.inject(seg):
            transcript.append(response)
        ts += 1000

    for step in dialog:
        op = step[0]
        if op == "syn":
            send(TCP_SYN)
            replies = [t for t in transcript if t.record.tcp_flags & TCP_SYN and t.record.tcp_flags & TCP_ACK]
            if replies:
                server_seq = replies[-1].seq
            seq += 1
        elif op == "ack":
            if server_seq is None:
                raise Timeout("no SYN/ACK to acknowledge")
            send(TCP_ACK, ack=(server_seq + 1) & 0xFFFFFFFF)
        elif op == "data":
            if server_seq is None:
                raise Timeout("connection never established")
            payload = step[1]
            send(TCP_ACK, payload=payload, ack=(server_seq + 1) & 0xFFFFFFFF)
            seq = (seq + len(payload)) & 0xFFFFFFFF
        elif op == "fin":
            ack = 0 if server_seq is None else (server_seq + 1) & 0xFFFFFFFF
            send(TCP_FIN | TCP_ACK if server_seq is not None else TCP_FIN, ack=ack)
            seq += 1
        elif op == "rst":
            send(TCP_RST)
        else:
            raise ValueError(f"unknown dialog op {op!r}")
    return transcript


def dump_pcap(report: SimReport, path, sensor: Optional[str] = None) -> int:
    """Write generated traffic as pcap for cross-checking the decode path."""
    from .pcapio import write_pcap

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
