"""Passive darknet capture over configured address ranges.

Three attachment modes: addresses assigned directly to the sensor NIC,
router-forwarded traffic, or ARP-reply claiming. Captured packets become
PacketRecords; darknet_rules gives the steering rules that keep darknet
space silent.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Optional

from . import HoloError, toolbox
from .net import AddressRange, any_contains, exclude_ranges, ip_to_int
from .packets import ORIGIN_DARKNET, DecodeError, PacketRecord, decode
from .pcapio import read_pcap

MODE_DIRECT = "direct"
MODE_ROUTED = "routed"
MODE_ARP = "arp"
ATTACHMENT_MODES = (MODE_DIRECT, MODE_ROUTED, MODE_ARP)

ARP_REPLY_RATE = 10.0  # replies per second per querying source


class DarknetError(HoloError):
    pass


class InvalidConfig(DarknetError):
    pass


class SourceUnavailable(DarknetError):
    pass


@dataclass(frozen=True)
class DarknetConfig:
    ranges: tuple[AddressRange, ...]
    mode: str = MODE_DIRECT
    sensor_mac: bytes = b"\x02\x00\x00\x00\x00\x01"
    sensor_ip: Optional[str] = None

    def __post_init__(self):
        if self.mode not in ATTACHMENT_MODES:
            raise InvalidConfig(f"unknown attachment mode {self.mode!r}")
        if len(self.sensor_mac) != 6:
            raise InvalidConfig("sensor_mac must be 6 bytes")
        if self.mode == MODE_ROUTED:
            if self.sensor_ip is None:
                raise InvalidConfig("routed mode requires sensor_ip")
            if any_contains(self.ranges, ip_to_int(self.sensor_ip)):
                raise InvalidConfig("sensor_ip must sit outside the darknet ranges")


def config_from_doc(params: dict) -> DarknetConfig:
    """Build a DarknetConfig from deploy-document parameters."""
    return DarknetConfig(
        ranges=tuple(AddressRange.parse(r) for r in params["ranges"]),
        mode=params.get("mode", MODE_DIRECT),
        sensor_ip=params.get("sensor_ip"),
    )


def carve_out_responders(config: DarknetConfig, holes: list[AddressRange]) -> DarknetConfig:
    """config with the responder ranges `holes` carved out of its ranges.

    Responder space must answer, so it can never sit under the darknet's
    outbound drop rules.
    """
    if not holes:
        return config
    carved = [part for rng in config.ranges for part in exclude_ranges(rng, holes)]
    return replace(config, ranges=tuple(carved))


@dataclass(frozen=True)
class ArpQuery:
    ts: int
    src_ip: str  # the querying host; only keys the per-source reply limit
    target_ip: int


@dataclass(frozen=True)
class ArpReply:
    target_ip: int
    mac: bytes


@dataclass
class ArpState:
    claimed: set = field(default_factory=set)  # int addresses
    windows: dict = field(default_factory=dict)  # src -> [window_start, count]


def arp_respond(query: ArpQuery, config: DarknetConfig, state: ArpState, now: float) -> Optional[ArpReply]:
    """Answer who-has queries for darknet addresses with the sensor MAC.

    Replies are capped at ARP_REPLY_RATE per querying source per second
    (fixed window) so the responder cannot amplify ARP storms.
    """
    if config.mode != MODE_ARP:
        raise InvalidConfig("arp_respond requires ArpResponder mode")
    if not any_contains(config.ranges, query.target_ip):
        return None
    window = state.windows.setdefault(query.src_ip, [now, 0])
    if now - window[0] >= 1.0:
        window[0], window[1] = now, 0
    if window[1] >= ARP_REPLY_RATE:
        return None
    window[1] += 1
    state.claimed.add(query.target_ip)
    return ArpReply(query.target_ip, config.sensor_mac)


def darknet_rules(config: DarknetConfig) -> list[toolbox.SteeringRule]:
    """Steering rules keeping darknet space silent and admitted to capture.

    Outbound packets sourced from any darknet range are dropped; inbound
    packets to the ranges are accepted. The drops come first, then the
    admits, each ordered by range base address.
    """
    ordered = sorted(config.ranges, key=lambda r: (r.base_int, r.prefix_len))
    drops = [toolbox.SteeringRule(toolbox.OUT, toolbox.Match(src_range=r), toolbox.Drop()) for r in ordered]
    admits = [toolbox.SteeringRule(toolbox.IN, toolbox.Match(dst_range=r), toolbox.Accept()) for r in ordered]
    return drops + admits


@dataclass
class CaptureStats:
    seen: int = 0
    captured: int = 0
    decode_errors: int = 0


class CaptureHandle:
    """One open capture stream; single consumer. Without a sink it only counts."""

    def __init__(self, config: DarknetConfig, sink: Optional[Callable] = None):
        self.config = config
        self.arp = ArpState()
        self.sink = sink
        self.stats = CaptureStats()

    def accepts(self, record: PacketRecord) -> bool:
        if not any_contains(self.config.ranges, record.dst_ip):
            return False
        if self.config.mode == MODE_ARP and record.dst_ip not in self.arp.claimed:
            return False
        return True

    def offer(self, record: PacketRecord, raw: Optional[bytes] = None) -> bool:
        self.stats.seen += 1
        if not self.accepts(record):
            return False
        record.capture_origin = ORIGIN_DARKNET
        self.stats.captured += 1
        if self.sink is not None:
            self.sink(record, raw)
        return True

    def offer_raw(self, ts: int, raw: bytes, link_type: int) -> Optional[PacketRecord]:
        try:
            record = decode(raw, link_type, ts=ts, capture_origin=ORIGIN_DARKNET)
        except DecodeError:
            self.stats.seen += 1
            self.stats.decode_errors += 1
            return None
        return record if self.offer(record, raw) else None

    def drain(self, source: Iterable) -> int:
        """Consume a (ts, raw, link_type) source; returns captured count."""
        n = 0
        for ts, raw, link_type in source:
            if self.offer_raw(ts, raw, link_type) is not None:
                n += 1
        return n


def attach(
    config: DarknetConfig,
    source=None,
    descriptor_ranges: Optional[Iterable[AddressRange]] = None,
    sink: Optional[Callable] = None,
) -> CaptureHandle:
    """Open a capture stream for the configured ranges.

    descriptor_ranges, when given, must cover config.ranges (a darknet may
    not claim address space its sensor does not own).
    """
    if descriptor_ranges is not None:
        owned = list(descriptor_ranges)
        for rng in config.ranges:
            if not any(
                o.base_int <= rng.base_int and rng.last_int <= o.last_int for o in owned
            ):
                raise InvalidConfig(f"range {rng} outside the sensor's address space")
    handle = CaptureHandle(config, sink=sink)
    if source is not None:
        if isinstance(source, (str, Path)):
            if not Path(source).exists():
                raise SourceUnavailable(f"no such capture source: {source}")
            handle.drain(read_pcap(source))
        else:
            handle.drain(source)
    return handle
