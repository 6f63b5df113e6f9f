"""Traffic metrics over captured packets.

5-tuple flow aggregation per UTC day, per-address daily flow series,
sender-overlap matrices between sensors, destination-port CDFs, unique
sender counts, and backscatter classification. Everything here is pure
and deterministic: identical inputs give byte-identical CSV/JSON output.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from functools import cache
from pathlib import Path
from typing import Iterable, Iterator, Optional

from . import pcapio
from .net import AddressRange, int_to_ip
from .packets import (
    PROTO_TCP,
    TCP_ACK,
    TCP_RST,
    TCP_SYN,
    DecodeError,
    FlowKey,
    PacketRecord,
    parse_headers,
)


class AnalysisError(Exception):
    pass


class WindowEmpty(AnalysisError):
    pass


DAY_US = 86_400_000_000


def day_of(ts_us: int) -> str:
    return datetime.fromtimestamp(ts_us // 1_000_000, tz=timezone.utc).strftime("%Y-%m-%d")


def day_bounds_us(day: str) -> tuple[int, int]:
    start = datetime.strptime(day, "%Y-%m-%d").replace(tzinfo=timezone.utc)
    start_us = int(start.timestamp()) * 1_000_000
    return start_us, start_us + DAY_US


def day_range(start_day: str, n_days: int) -> list[str]:
    start = datetime.strptime(start_day, "%Y-%m-%d")
    return [(start + timedelta(days=i)).strftime("%Y-%m-%d") for i in range(n_days)]


@dataclass(slots=True)
class FlowRecord:
    key: FlowKey
    day: str
    packets: int
    bytes: int
    first_ts: int
    last_ts: int
    flags_seen: int


def trace_packets(paths) -> Iterator[tuple]:
    """Stream (ts, src, dst, proto, src_port, dst_port, tcp_flags, payload_len)
    for every decodable frame of the given pcap files, addresses as ints.

    Frames that fail packets.parse_headers are skipped, as the sensor's
    capture skips them.
    """
    for path in paths:
        for ts, raw, link_type in pcapio.read_pcap(path):
            try:
                src, dst, proto, sport, dport, flags, start, end = parse_headers(raw, link_type)
            except DecodeError:
                continue
            yield ts, src, dst, proto, sport, dport, flags, end - start


def build_flows(packets: Iterable[tuple]) -> list[FlowRecord]:
    """One FlowRecord per (UTC day, 5-tuple) over a trace_packets-shaped stream.

    A single pass into one table keyed by (day number, integer 5-tuple), so
    memory grows with the number of flows, not packets. Sorting the keys
    orders the output by day, then by FlowKey.sort_key; addresses and days
    are rendered once each.
    """
    table: dict[tuple, list] = {}
    get = table.get
    for ts, src, dst, proto, sport, dport, flags, nbytes in packets:
        key = (ts // DAY_US, src, dst, proto, sport, dport)
        rec = get(key)
        if rec is None:
            table[key] = [1, nbytes, ts, ts, flags]
        else:
            rec[0] += 1
            rec[1] += nbytes
            if ts < rec[2]:
                rec[2] = ts
            elif ts > rec[3]:
                rec[3] = ts
            rec[4] |= flags
    quad = cache(int_to_ip)
    day_name = cache(lambda day: day_of(day * DAY_US))
    flows = []
    for key in sorted(table):
        day, src, dst, proto, sport, dport = key
        flow_key = FlowKey(quad(src), quad(dst), proto, sport, dport)
        flows.append(FlowRecord(flow_key, day_name(day), *table[key]))
    return flows


def aggregate_flows(packets: Iterable[PacketRecord], day: str) -> list[FlowRecord]:
    """One FlowRecord per distinct 5-tuple seen on the given UTC day.

    Counts are exact and the output is sorted by flow key, so two runs
    over the same stream serialize identically.
    """
    lo, hi = day_bounds_us(day)

    def rows():
        for pkt in packets:
            if not lo <= pkt.ts < hi:
                raise AnalysisError(f"packet at {pkt.ts} outside day {day}")
            yield (pkt.ts, pkt.src_ip, pkt.dst_ip, pkt.proto, pkt.src_port,
                   pkt.dst_port, pkt.tcp_flags, pkt.payload_len)

    return build_flows(rows())


def bucket_by_day(packets: Iterable[PacketRecord]) -> dict[str, list[PacketRecord]]:
    days: dict[str, list[PacketRecord]] = {}
    for pkt in packets:
        days.setdefault(day_of(pkt.ts), []).append(pkt)
    return days


@dataclass
class DayStat:
    day: str
    min: int
    mean: float
    max: int
    total: int


def flows_per_ip_series(
    flows: Iterable[FlowRecord], subnet: AddressRange, days: list[str]
) -> list[DayStat]:
    """Per-day flow counts over every address of a /24, zero days included."""
    if subnet.prefix_len != 24:
        raise AnalysisError("flow series are compared per /24 sensor unit")
    per_day: dict[str, dict[str, int]] = {day: {} for day in days}
    members = set(subnet.addresses())  # dotted, as flow keys carry them
    for rec in flows:
        if rec.day in per_day and rec.key.dst_ip in members:
            counts = per_day[rec.day]
            counts[rec.key.dst_ip] = counts.get(rec.key.dst_ip, 0) + 1
    out = []
    n_addrs = subnet.num_addresses()
    for day in days:
        counts = per_day[day]
        values = list(counts.values())
        total = sum(values)
        out.append(
            DayStat(
                day=day,
                min=min(values) if len(values) == n_addrs else 0,
                mean=total / n_addrs,
                max=max(values, default=0),
                total=total,
            )
        )
    return out


@dataclass
class OverlapMatrix:
    sensors: list[str]
    ratio: list[list[float]]
    window: tuple[str, str]
    min_packets: int
    top_fraction: Optional[float]
    mode: str = "row"  # row-normalized |Si ∩ Sj| / |Si|; "jaccard" available
    sender_sets: dict = field(default_factory=dict)


def qualifying_senders(
    flows: Iterable[FlowRecord],
    window_days: list[str],
    min_packets: int,
    top_fraction: Optional[float] = None,
) -> set[str]:
    """Senders with at least min_packets packets inside the window.

    With top_fraction set, additionally keep only the top fraction of the
    qualifying set ranked by packet count (ties broken by address).
    """
    window = set(window_days)
    per_sender: dict[str, int] = {}
    for rec in flows:
        if rec.day in window:
            per_sender[rec.key.src_ip] = per_sender.get(rec.key.src_ip, 0) + rec.packets
    keep = {ip for ip, n in per_sender.items() if n >= min_packets}
    if top_fraction is not None and keep:
        k = math.floor(top_fraction * len(keep))
        ranked = sorted(keep, key=lambda ip: (-per_sender[ip], ip))
        keep = set(ranked[:k])
    return keep


def common_sender_ratio(
    sensor_flows: dict[str, list[FlowRecord]],
    window_days: int = 15,
    min_packets: int = 500,
    top_fraction: Optional[float] = None,
    window_start: Optional[str] = None,
    mode: str = "row",
) -> OverlapMatrix:
    """Sender-set overlap between sensors over the window.

    ratio[i][j] = |S_i ∩ S_j| / |S_i| (row-normalized); rows with an
    empty qualifying set are all zero including the diagonal.
    """
    if len(sensor_flows) < 2:
        raise AnalysisError("need at least two sensors to compare")
    all_days = sorted({rec.day for flows in sensor_flows.values() for rec in flows})
    if not all_days:
        raise WindowEmpty("no flows in any sensor")
    start = window_start or all_days[0]
    days = day_range(start, window_days)
    if not any(d in set(days) for d in all_days):
        raise WindowEmpty(f"no flows within {days[0]}..{days[-1]}")

    sensors = sorted(sensor_flows)
    sets = {
        s: qualifying_senders(sensor_flows[s], days, min_packets, top_fraction)
        for s in sensors
    }
    ratio = []
    for si in sensors:
        row = []
        for sj in sensors:
            inter = len(sets[si] & sets[sj])
            if mode == "jaccard":
                union = len(sets[si] | sets[sj])
                row.append(inter / union if union else 0.0)
            else:
                row.append(inter / len(sets[si]) if sets[si] else 0.0)
        ratio.append(row)
    return OverlapMatrix(
        sensors=sensors,
        ratio=ratio,
        window=(days[0], days[-1]),
        min_packets=min_packets,
        top_fraction=top_fraction,
        mode=mode,
        sender_sets=sets,
    )


WEIGHT_PACKETS = "packets"
WEIGHT_FLOWS = "flows"


@dataclass
class PortDistribution:
    counts: dict[int, int]
    weight: str = WEIGHT_PACKETS

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def empty(self) -> bool:
        return not self.counts

    def cumulative(self) -> list[tuple[int, int, float]]:
        """(port, count, cumulative fraction) by ascending port number."""
        total = self.total
        out = []
        acc = 0
        for port in sorted(self.counts):
            acc += self.counts[port]
            out.append((port, self.counts[port], acc / total))
        return out

    def fraction_at(self, port: int) -> float:
        total = self.total
        if not total:
            return 0.0
        return sum(n for p, n in self.counts.items() if p <= port) / total


def port_cdf(items: Iterable, weight: str = WEIGHT_PACKETS) -> PortDistribution:
    """Cumulative traffic share by TCP destination port.

    Accepts FlowRecords or PacketRecords; the default weighting counts
    packets, "flows" counts each flow once.
    """
    counts: dict[int, int] = {}
    for item in items:
        if isinstance(item, FlowRecord):
            if item.key.proto != PROTO_TCP:
                continue
            port = item.key.dst_port
            w = item.packets if weight == WEIGHT_PACKETS else 1
        else:
            if item.proto != PROTO_TCP:
                continue
            port = item.dst_port
            w = 1
        counts[port] = counts.get(port, 0) + w
    return PortDistribution(counts=counts, weight=weight)


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


@dataclass
class SenderCounts:
    per_sensor: dict[str, int]
    global_count: int


def unique_senders(
    sensor_flows: dict[str, list[FlowRecord]], day: Optional[str] = None
) -> SenderCounts:
    """Distinct source addresses per sensor and across the deployment (union)."""
    per_sensor = {}
    union: set[str] = set()
    for sensor, flows in sorted(sensor_flows.items()):
        senders = {rec.key.src_ip for rec in flows if day is None or rec.day == day}
        per_sensor[sensor] = len(senders)
        union |= senders
    return SenderCounts(per_sensor=per_sensor, global_count=len(union))


# --- CSV / JSON output ---------------------------------------------------

FLOWS_HEADER = [
    "day", "src_ip", "dst_ip", "proto", "src_port", "dst_port",
    "packets", "bytes", "first_ts", "last_ts", "flags",
]


def write_flows_csv(path, flows: Iterable[FlowRecord]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(FLOWS_HEADER)
        for rec in flows:
            k = rec.key
            w.writerow(
                [rec.day, k.src_ip, k.dst_ip, k.proto, k.src_port, k.dst_port,
                 rec.packets, rec.bytes, rec.first_ts, rec.last_ts, rec.flags_seen]
            )


def write_overlap_csv(path, matrix: OverlapMatrix) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["sensor"] + matrix.sensors)
        for sensor, row in zip(matrix.sensors, matrix.ratio):
            w.writerow([sensor] + [f"{v:.6f}" for v in row])
    summary = {
        "sensors": matrix.sensors,
        "window": list(matrix.window),
        "min_packets": matrix.min_packets,
        "top_fraction": matrix.top_fraction,
        "mode": matrix.mode,
    }
    Path(str(path) + ".json").write_text(json.dumps(summary, sort_keys=True, indent=2))


def write_portcdf_csv(path, dist: PortDistribution) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["port", "count", "cumulative_fraction"])
        for port, count, cum in dist.cumulative():
            w.writerow([port, count, f"{cum:.6f}"])


def write_timeline_csv(path, series: dict[str, list[DayStat]]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["sensor", "day", "min", "mean", "max", "total"])
        for sensor in sorted(series):
            for stat in series[sensor]:
                w.writerow([sensor, stat.day, stat.min, f"{stat.mean:.4f}", stat.max, stat.total])
