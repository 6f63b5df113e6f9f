"""Traffic steering and egress control.

An ordered first-match rule program evaluated in the sensor packet path,
a token-bucket egress limiter, and an emitter producing iptables-legacy
text in custom chains so native chains are never touched.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from . import HoloError
from .net import AddressRange, PortRange
from .packets import FLAG_NAMES, PROTO_ICMP, PROTO_TCP, PROTO_UDP, PacketRecord


class ToolboxError(HoloError):
    pass


class EmptyMatch(ToolboxError):
    pass


class UnrepresentableRule(ToolboxError):
    pass


IN = "in"
OUT = "out"

ACT_DROP = "drop"
ACT_ACCEPT = "accept"
ACT_STEER = "steer"
ACT_RATELIMIT = "ratelimit"


@dataclass(frozen=True)
class Action:
    kind: str
    arg: Optional[str] = None


def Drop() -> Action:
    return Action(ACT_DROP)


def Accept() -> Action:
    return Action(ACT_ACCEPT)


def SteerToBackend(backend_id: str) -> Action:
    return Action(ACT_STEER, backend_id)


def RateLimit(limiter_id: str) -> Action:
    return Action(ACT_RATELIMIT, limiter_id)


@dataclass(frozen=True)
class Match:
    src_range: Optional[AddressRange] = None
    dst_range: Optional[AddressRange] = None
    proto: Optional[int] = None
    src_ports: tuple[PortRange, ...] = ()
    dst_ports: tuple[PortRange, ...] = ()
    tcp_flag_mask: Optional[int] = None

    def is_empty(self) -> bool:
        return (
            self.src_range is None
            and self.dst_range is None
            and self.proto is None
            and not self.src_ports
            and not self.dst_ports
            and self.tcp_flag_mask is None
        )


@dataclass(frozen=True)
class SteeringRule:
    direction: str
    match: Match
    action: Action


def _lower(rule: SteeringRule) -> tuple:
    """One rule as (src mask, src value, dst mask, dst value, proto, src port
    ranges, dst port ranges, flag mask, action); None and () match anything."""
    m = rule.match
    src, dst = m.src_range, m.dst_range
    return (
        0 if src is None else src.mask,
        0 if src is None else src.base_int,
        0 if dst is None else dst.mask,
        0 if dst is None else dst.base_int,
        m.proto,
        tuple((r.lo, r.hi) for r in m.src_ports),
        tuple((r.lo, r.hi) for r in m.dst_ports),
        m.tcp_flag_mask,
        rule.action,
    )


@dataclass(frozen=True)
class RuleProgram:
    """Ordered rules plus, per direction, their lowered tuples.

    `rules` is what emit_iptables renders; evaluate walks only `lowered`.
    """

    rules: tuple[SteeringRule, ...]
    default_action: Action = field(default_factory=Accept)
    generation: int = 1
    lowered: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(
            self,
            "lowered",
            {d: tuple(_lower(r) for r in self.rules if r.direction == d) for d in (IN, OUT)},
        )


def compile(rules, generation: int = 1) -> RuleProgram:
    """Validate a rule list into an immutable program; list order is match order."""
    for i, rule in enumerate(rules):
        if rule.match.is_empty():
            raise EmptyMatch(f"rule {i} matches nothing")
        if rule.direction not in (IN, OUT):
            raise ToolboxError(f"bad direction {rule.direction!r}")
    return RuleProgram(rules=tuple(rules), generation=generation)


def _in_ports(ranges: tuple, port: int) -> bool:
    for lo, hi in ranges:
        if lo <= port <= hi:
            return True
    return False


def evaluate(program: RuleProgram, pkt: PacketRecord, direction: str) -> Action:
    """Action of the first matching rule in program order; pure."""
    src, dst, proto = pkt.src_ip, pkt.dst_ip, pkt.proto
    rules = program.lowered.get(direction, ())
    for smask, sval, dmask, dval, rproto, sports, dports, flag_mask, action in rules:
        if src & smask != sval or dst & dmask != dval:
            continue
        if rproto is not None and proto != rproto:
            continue
        if sports or dports:
            if proto != PROTO_TCP and proto != PROTO_UDP:
                continue
            if sports and not _in_ports(sports, pkt.src_port):
                continue
            if dports and not _in_ports(dports, pkt.dst_port):
                continue
        if flag_mask is not None and (proto != PROTO_TCP or pkt.tcp_flags & flag_mask != flag_mask):
            continue
        return action
    return program.default_action


class ProgramHolder:
    """Atomic publication point for compiled programs.

    Consumers observe either generation g or g+1, never a mixture: the
    whole immutable program is swapped under a lock.
    """

    def __init__(self, program: RuleProgram):
        self._program = program
        self._lock = threading.Lock()

    def current(self) -> RuleProgram:
        return self._program

    def swap(self, program: RuleProgram) -> None:
        with self._lock:
            if program.generation <= self._program.generation:
                raise ToolboxError(
                    f"generation must increase ({program.generation} <= "
                    f"{self._program.generation})"
                )
            self._program = program


@dataclass
class TokenBucket:
    """Token-bucket limiter; a unit is whatever the caller counts (packets, bytes)."""

    rate: float
    burst: float
    tokens: float = -1.0
    last_refill: float = 0.0

    def __post_init__(self):
        if self.tokens < 0:
            self.tokens = self.burst


def allow(bucket: TokenBucket, now: float, n: int) -> int:
    """Grant up to n units; deterministic given timestamps."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if now > bucket.last_refill:
        bucket.tokens = min(bucket.burst, bucket.tokens + (now - bucket.last_refill) * bucket.rate)
        bucket.last_refill = now
    granted = min(n, int(bucket.tokens))
    bucket.tokens -= granted
    return granted


# --- iptables emission -------------------------------------------------

_PROTO_WORD = {PROTO_TCP: "tcp", PROTO_UDP: "udp", PROTO_ICMP: "icmp"}


def _flags_to_names(mask: int) -> str:
    names = [name for bit, name in FLAG_NAMES if mask & bit]
    return ",".join(names) if names else "NONE"


def _ports_text(ranges: tuple[PortRange, ...]) -> str:
    return ",".join(f"{r.lo}:{r.hi}" if r.lo != r.hi else str(r.lo) for r in ranges)


def _render_match(m: Match) -> list[str]:
    parts = []
    if m.src_range is not None:
        parts += ["-s", str(m.src_range)]
    if m.dst_range is not None:
        parts += ["-d", str(m.dst_range)]
    if m.proto is not None:
        parts += ["-p", _PROTO_WORD.get(m.proto, str(m.proto))]
    if m.src_ports or m.dst_ports:
        if m.proto not in (PROTO_TCP, PROTO_UDP):
            raise UnrepresentableRule("port match requires -p tcp or -p udp")
        if len(m.src_ports) > 1 or len(m.dst_ports) > 1:
            parts += ["-m", "multiport"]
            if m.src_ports:
                parts += ["--sports", _ports_text(m.src_ports)]
            if m.dst_ports:
                parts += ["--dports", _ports_text(m.dst_ports)]
        else:
            if m.src_ports:
                parts += ["--sport", _ports_text(m.src_ports)]
            if m.dst_ports:
                parts += ["--dport", _ports_text(m.dst_ports)]
    if m.tcp_flag_mask is not None:
        names = _flags_to_names(m.tcp_flag_mask)
        parts += ["--tcp-flags", names, names]
    return parts


def emit_iptables(
    program: RuleProgram,
    chain_prefix: str = "HOLO",
    limiters: Optional[dict] = None,
    backend_ports: Optional[dict] = None,
) -> str:
    """Render the program as an iptables-save fragment.

    Deterministic: identical programs produce byte-identical text. Rules
    that cannot be represented (steer targets with no port mapping) emit
    a comment plus a REDIRECT placeholder instead of failing the whole
    program.
    """
    limiters = limiters or {}
    backend_ports = backend_ports or {}
    chain_in = f"{chain_prefix}-IN"
    chain_out = f"{chain_prefix}-OUT"
    lines = [
        "*filter",
        f":{chain_in} - [0:0]",
        f":{chain_out} - [0:0]",
        f"-A INPUT -j {chain_in}",
        f"-A OUTPUT -j {chain_out}",
    ]
    for rule in program.rules:
        chain = chain_in if rule.direction == IN else chain_out
        parts = [f"-A {chain}"] + _render_match(rule.match)
        act = rule.action
        if act.kind == ACT_DROP:
            parts += ["-j", "DROP"]
        elif act.kind == ACT_ACCEPT:
            parts += ["-j", "ACCEPT"]
        elif act.kind == ACT_RATELIMIT:
            rate, burst = limiters.get(act.arg, (100, 100))
            parts += [
                "-m",
                "limit",
                "--limit",
                f"{int(rate)}/second",
                "--limit-burst",
                str(int(burst)),
                "-j",
                "ACCEPT",
            ]
        elif act.kind == ACT_STEER:
            port = backend_ports.get(act.arg)
            if port is None:
                lines.append(f"# holo:steer backend={act.arg} (no port mapping)")
                parts += ["-j", "REDIRECT"]
            else:
                parts += ["-j", "REDIRECT", "--to-ports", str(port)]
        else:
            raise UnrepresentableRule(f"unknown action {act.kind!r}")
        lines.append(" ".join(parts))
    lines.append("COMMIT")
    return "\n".join(lines) + "\n"


def write_rules(directory, sensor_id: str, program: RuleProgram, **emit_kwargs) -> Path:
    """Write the emitted ruleset to <sensor>/holo-rules-<generation>.v4."""
    sensor_dir = Path(directory) / sensor_id
    sensor_dir.mkdir(parents=True, exist_ok=True)
    path = sensor_dir / f"holo-rules-{program.generation}.v4"
    path.write_text(emit_iptables(program, **emit_kwargs))
    return path
