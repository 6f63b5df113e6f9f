"""A sensor's modules assembled into one program, and the runtime built from it.

The simulator's SensorPath and the agent both run a `Pipeline` built from
`assemble`, and the hub's `rules_emit` and `holo rules emit -f` emit its
program, so none of them can disagree about a sensor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from . import HoloError
from . import darknet as darknet_mod
from . import responder as responder_mod
from . import toolbox
from .net import any_contains
from .packets import ORIGIN_RESPONDER, PROTO_TCP, TCP_RST, PacketRecord

KIND_DARKNET = "darknet"
KIND_RESPONDER = "responder"
KIND_TOOLBOX = "toolbox"
KIND_COLLECTOR = "collector"
KIND_WORKLOAD = "workload"
MODULE_KINDS = (KIND_DARKNET, KIND_RESPONDER, KIND_TOOLBOX, KIND_COLLECTOR, KIND_WORKLOAD)


class Assembly(NamedTuple):
    program: toolbox.RuleProgram
    limiters: dict  # limiter id -> (rate, burst)
    darknets: tuple  # one DarknetConfig per darknet module, responder space cut out
    responders: tuple  # one ResponderConfig per responder module


def assemble(modules, generation: int = 1) -> Assembly:
    """Merge every module of a sensor, given as (kind, params) pairs.

    The rules follow one fixed order, whatever the order of the modules:
    darknet egress drops, responder steers, RST guards, egress limits,
    darknet admits. Every responder range is cut out of every darknet,
    so no drop rule covers an address that must answer. The last toolbox
    module sets the egress limiter. An unknown kind raises HoloError.
    """
    for kind, _ in modules:
        if kind not in MODULE_KINDS:
            raise HoloError(f"unknown module kind {kind!r}")
    responders = tuple(responder_mod.config_from_doc(p) for kind, p in modules if kind == KIND_RESPONDER)
    holes = [rng for cfg in responders for rng in cfg.ip_ranges]
    darknets = tuple(
        darknet_mod.carve_out_responders(darknet_mod.config_from_doc(p), holes)
        for kind, p in modules
        if kind == KIND_DARKNET
    )
    rate, burst = 100.0, 100.0
    for kind, params in modules:
        if kind == KIND_TOOLBOX:
            rate = float(params.get("egress_rate", rate))
            burst = float(params.get("egress_burst", burst))

    dark = [r for cfg in darknets for r in darknet_mod.darknet_rules(cfg)]
    resp = [r for cfg in responders for r in responder_mod.steering_rules(cfg)]
    rules = [
        rule
        for group, direction, action in (
            (dark, toolbox.OUT, toolbox.ACT_DROP),
            (resp, toolbox.IN, toolbox.ACT_STEER),
            (resp, toolbox.OUT, toolbox.ACT_DROP),
            (resp, toolbox.OUT, toolbox.ACT_RATELIMIT),
            (dark, toolbox.IN, toolbox.ACT_ACCEPT),
        )
        for rule in group
        if rule.direction == direction and rule.action.kind == action
    ]
    program = toolbox.compile(rules, generation=generation)
    return Assembly(program, {responder_mod.EGRESS_LIMITER: (rate, burst)}, darknets, responders)


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


# what the inbound leg did with a packet the program neither dropped nor steered
CAPTURED, PASSED = "captured", "passed"


class Pipeline:
    """One sensor's packet path, built from an Assembly.

    Inbound: the program, then a drop, the responders, or the darknet
    handles, whose sink is the writer. Outbound: the program, then the
    egress limiter. Each leg reads `program` once, so a reconfigure takes
    effect between packets.
    """

    def __init__(self, assembly: Assembly, writer=None):
        self.writer = writer
        self.counters = PathCounters()
        self.responder_events: list[dict] = []
        self.program = self.limiter = None
        self.handles = self.responders = ()
        self.reconfigure(assembly)

    def reconfigure(self, assembly: Assembly) -> None:
        """Switch to assembly, whose generation must be higher. A darknet,
        responder or limiter whose config did not change keeps its state."""
        program = assembly.program
        if self.program is not None and program.generation <= self.program.generation:
            raise toolbox.ToolboxError(f"generation must increase ({program.generation} <= {self.program.generation})")
        old = {h.config: h for h in self.handles}
        handles = tuple(
            old.pop(cfg, None)
            or darknet_mod.attach(cfg, sink=self._capture_sink)
            for cfg in assembly.darknets
        )
        old = {r.cfg: r for r in self.responders}
        self.responders = tuple(old.pop(cfg, None) or responder_mod.Responder(cfg) for cfg in assembly.responders)
        self.handles = handles
        self.dark_ranges = tuple(rng for h in handles for rng in h.config.ranges)
        rate, burst = assembly.limiters[responder_mod.EGRESS_LIMITER]
        if self.limiter is None or (self.limiter.rate, self.limiter.burst) != (rate, burst):
            self.limiter = toolbox.TokenBucket(rate=rate, burst=burst)
        self.program = program

    def _capture_sink(self, record: PacketRecord, raw, wire_len) -> None:
        self.counters.captured += 1
        if self.writer is not None:
            self.writer.append(record, raw, wire_len)

    def inbound(self, seg, replies: list) -> Optional[str]:
        """Inbound leg of a TcpSegment or PacketRecord: CAPTURED, PASSED, or None if the
        program dropped or steered it. Responder answers that pass outbound go to replies."""
        record = seg.record if isinstance(seg, responder_mod.TcpSegment) else seg
        counters = self.counters
        counters.delivered += 1
        kind = toolbox.evaluate(self.program, record, toolbox.IN).kind
        if kind == toolbox.ACT_DROP:
            counters.dropped_in += 1
            return None
        if kind == toolbox.ACT_STEER and self.responders:
            counters.steered += 1
            record.capture_origin = ORIGIN_RESPONDER
            if self.writer is not None:
                self.writer.append(record)
            if record is not seg:
                now = record.ts / 1e6
                for responder in self.responders:
                    outbound, events = responder.on_segment(seg, now)
                    self.responder_events.extend(events)
                    for out_seg in outbound:
                        if self.outbound(out_seg.record, now):
                            replies.append(out_seg)
            return None
        for handle in self.handles:
            if handle.offer(record):
                return CAPTURED
        return PASSED

    def outbound(self, record: PacketRecord, now: float) -> bool:
        """Outbound leg: the program, then the egress limiter; True if sent."""
        counters = self.counters
        kind = toolbox.evaluate(self.program, record, toolbox.OUT).kind
        if kind == toolbox.ACT_DROP:
            counters.outbound_suppressed += 1
            return False
        if kind == toolbox.ACT_RATELIMIT:
            if toolbox.allow(self.limiter, now, 1) != 1:
                counters.outbound_ratelimited += 1
                return False
        counters.outbound_emitted += 1
        if any_contains(self.dark_ranges, record.src_ip):
            counters.darknet_src_leaks += 1
        if record.proto == PROTO_TCP and record.tcp_flags & TCP_RST:
            counters.rst_emitted += 1
        if self.writer is not None:
            self.writer.append(record)
        return True

    def tick(self, now: float) -> None:  # close the responders' idle connections
        for responder in self.responders:
            self.responder_events.extend(responder.expire(now))

    def finish(self, now: float) -> None:
        self.tick(now + 10 * 3600)
        if self.writer is not None:
            self.writer.seal()
