"""Traffic metrics over captured packets.

5-tuple flow aggregation per UTC day, per-address daily flow series,
sender-overlap matrices between sensors, destination-port CDFs, unique
sender counts, and backscatter classification. The metrics reduce flow
tables (see flow_table) keyed by integers; dotted quads and day names are
rendered once per output row, not per flow. Everything here is pure and
deterministic: identical inputs give byte-identical CSV/JSON output.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from functools import cache
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Optional

from . import HoloError, pcapio
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


class AnalysisError(HoloError):
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

    Each item of paths is a pcap path or a binary pcap file. Frames that
    fail packets.parse_headers are skipped, as the sensor's capture skips
    them; a frame captured short (as payload redaction leaves it) counts
    its payload at its wire length.
    """
    for path in paths:
        for ts, raw, link_type, wire_len in pcapio.read_pcap(path, orig_len=True):
            try:
                src, dst, proto, sport, dport, flags, start, end = parse_headers(raw, link_type, wire_len)
            except DecodeError:
                continue
            yield ts, src, dst, proto, sport, dport, flags, end - start


def flow_table(packets: Iterable[tuple], table: Optional[dict] = None) -> dict:
    """Add a trace_packets-shaped stream to a flow table and return it.

    The table maps (day number, integer 5-tuple) to [packets, bytes,
    first_ts, last_ts, flags], so memory grows with the number of flows,
    not packets. A new table is made when none is given.
    """
    if table is None:
        table = {}
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
    return table


def render_flows(table: dict) -> list[FlowRecord]:
    """The FlowRecords of a flow table, by day, then by FlowKey.sort_key.

    Sorting the integer keys gives that order; addresses and days are
    rendered once each.
    """
    quad = cache(int_to_ip)
    day_name = cache(lambda day: day_of(day * DAY_US))
    flows = []
    for key in sorted(table):
        day, src, dst, proto, sport, dport = key
        flow_key = FlowKey(quad(src), quad(dst), proto, sport, dport)
        flows.append(FlowRecord(flow_key, day_name(day), *table[key]))
    return flows


def build_flows(packets: Iterable[tuple]) -> list[FlowRecord]:
    """One FlowRecord per (UTC day, 5-tuple) over a trace_packets-shaped stream."""
    return render_flows(flow_table(packets))


# --- flow logs -----------------------------------------------------------------
#
# A flow log is a sequence of blocks, each the flow table of one sealed
# hour: a header holding the row count and the sha256 of the pcap the rows
# were built from, then the rows. Every packet of an hour file lies within
# one UTC day, so rows carry no day; the reader takes it from the hour
# bucket. The row count tells a block cut at a row boundary from a
# complete one.

FLOWS_MAGIC = b"HFLO"
FLOWS_VERSION = 1
_FLOWS_HEADER = struct.Struct(">4sHQ32s")  # magic, version, rows, pcap sha256
# src, dst, proto, src_port, dst_port, packets, bytes, first_ts, last_ts, flags
_FLOW_ROW = struct.Struct(">IIBHHQQQQB")
FLOW_ROW_SIZE = _FLOW_ROW.size


def encode_flow_block(rows: Iterable[tuple[tuple, list]], content_hash: str) -> bytes:
    """One flow-log block for (integer 5-tuple, [packets, bytes, first_ts,
    last_ts, flags]) rows of one hour, built from the pcap whose sha256 hex
    digest is content_hash."""
    pack = _FLOW_ROW.pack
    body = [pack(*key, *rec) for key, rec in rows]
    header = _FLOWS_HEADER.pack(FLOWS_MAGIC, FLOWS_VERSION, len(body), bytes.fromhex(content_hash))
    return header + b"".join(body)


def index_flow_logs(paths) -> dict[tuple[Path, str], memoryview]:
    """The rows of every complete block of the given flow logs, keyed by
    (the log's directory, hex sha256 of the pcap the block was built from).

    A log is read up to its first block that is cut short or not a block;
    one that cannot be read adds nothing.
    """
    index = {}
    for path in paths:
        path = Path(path)
        try:
            data = memoryview(path.read_bytes())
        except OSError:
            continue
        pos = 0
        while pos + _FLOWS_HEADER.size <= len(data):
            magic, version, n_rows, digest = _FLOWS_HEADER.unpack_from(data, pos)
            start = pos + _FLOWS_HEADER.size
            pos = start + n_rows * _FLOW_ROW.size
            if magic != FLOWS_MAGIC or version != FLOWS_VERSION or pos > len(data):
                break
            index[path.parent, digest.hex()] = data[start:pos]
    return index


def merge_flow_rows(table: dict, rows, day: int) -> None:
    """Merge one flow-log block's rows into a flow table under day number day.

    Merging is exact: packets and bytes add, first_ts takes the minimum,
    last_ts the maximum, and flags are ORed.
    """
    get = table.get
    for src, dst, proto, sport, dport, n, nbytes, first, last, flags in _FLOW_ROW.iter_unpack(rows):
        key = (day, src, dst, proto, sport, dport)
        rec = get(key)
        if rec is None:
            table[key] = [n, nbytes, first, last, flags]
        else:
            rec[0] += n
            rec[1] += nbytes
            if first < rec[2]:
                rec[2] = first
            if last > rec[3]:
                rec[3] = last
            rec[4] |= flags


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


def day_number(day: str) -> int:
    """The number flow tables key a UTC day by: days since the epoch."""
    return day_bounds_us(day)[0] // DAY_US


def flow_days(tables: Iterable[dict]) -> list[str]:
    """The UTC days the flows of the given flow tables fall on, in order."""
    numbers: set[int] = set()
    for table in tables:
        numbers.update(map(itemgetter(0), table))
    return [day_of(n * DAY_US) for n in sorted(numbers)]


def flows_per_ip_series(table: dict, subnet: AddressRange, days: list[str]) -> list[DayStat]:
    """Per-day flow counts over every address of a /24, zero days included."""
    if subnet.prefix_len != 24:
        raise AnalysisError("flow series are compared per /24 sensor unit")
    per_day: dict[int, dict[int, int]] = {day_number(day): {} for day in days}
    lo, hi = subnet.base_int, subnet.last_int
    for day, _, dst, _, _, _ in table:
        counts = per_day.get(day)
        if counts is not None and lo <= dst <= hi:
            counts[dst] = counts.get(dst, 0) + 1
    out = []
    n_addrs = subnet.num_addresses()
    for day in days:
        counts = per_day[day_number(day)]
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
    table: dict,
    window_days: list[str],
    min_packets: int,
    top_fraction: Optional[float] = None,
) -> set[str]:
    """Dotted addresses of the senders with at least min_packets packets
    inside the window.

    With top_fraction set, additionally keep only the top fraction of the
    qualifying set ranked by packet count (ties broken by dotted address,
    so "9.0.0.10" ranks before "9.0.0.2"). Only the senders kept, and
    those tied at the cut, are rendered.
    """
    window = {day_number(day) for day in window_days}
    per_sender: dict[int, int] = {}
    get = per_sender.get
    for key, rec in table.items():
        if key[0] in window:
            src = key[1]
            per_sender[src] = get(src, 0) + rec[0]
    keep = [src for src, n in per_sender.items() if n >= min_packets]
    if top_fraction is None or not keep:
        return {int_to_ip(src) for src in keep}
    k = math.floor(top_fraction * len(keep))
    k = len(range(len(keep))[:k])  # as many as a slice [:k] of the ranking holds
    if not k:
        return set()
    cut = sorted((per_sender[src] for src in keep), reverse=True)[k - 1]
    above = {int_to_ip(src) for src in keep if per_sender[src] > cut}
    tied = sorted(int_to_ip(src) for src in keep if per_sender[src] == cut)
    return above | set(tied[: k - len(above)])


def common_sender_ratio(
    sensor_tables: dict[str, dict],
    window_days: int = 15,
    min_packets: int = 500,
    top_fraction: Optional[float] = None,
    window_start: Optional[str] = None,
    mode: str = "row",
) -> OverlapMatrix:
    """Sender-set overlap between sensors' flow tables over the window.

    ratio[i][j] = |S_i ∩ S_j| / |S_i| (row-normalized); rows with an
    empty qualifying set are all zero including the diagonal.
    """
    if len(sensor_tables) < 2:
        raise AnalysisError("need at least two sensors to compare")
    all_days = flow_days(sensor_tables.values())
    if not all_days:
        raise WindowEmpty("no flows in any sensor")
    start = window_start or all_days[0]
    days = day_range(start, window_days)
    if not any(d in set(days) for d in all_days):
        raise WindowEmpty(f"no flows within {days[0]}..{days[-1]}")

    sensors = sorted(sensor_tables)
    sets = {
        s: qualifying_senders(sensor_tables[s], days, min_packets, top_fraction)
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


def port_cdf(tables: Iterable[dict], weight: str = WEIGHT_PACKETS) -> PortDistribution:
    """Cumulative traffic share by TCP destination port over flow tables.

    The default weighting counts packets, "flows" counts each flow once.
    """
    by_packets = weight == WEIGHT_PACKETS
    counts: dict[int, int] = {}
    get = counts.get
    for table in tables:
        for key, rec in table.items():
            if key[3] == PROTO_TCP:
                port = key[5]
                counts[port] = get(port, 0) + (rec[0] if by_packets else 1)
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


def unique_senders(sensor_tables: dict[str, dict], day: Optional[str] = None) -> SenderCounts:
    """Distinct source addresses per sensor and across the deployment (union)."""
    number = None if day is None else day_number(day)
    per_sensor = {}
    union: set[int] = set()
    for sensor, table in sorted(sensor_tables.items()):
        senders = {key[1] for key in table if number is None or key[0] == number}
        per_sensor[sensor] = len(senders)
        union |= senders
    return SenderCounts(per_sensor=per_sensor, global_count=len(union))


# --- CSV / JSON output ---------------------------------------------------

FLOWS_HEADER = [
    "day", "src_ip", "dst_ip", "proto", "src_port", "dst_port",
    "packets", "bytes", "first_ts", "last_ts", "flags",
]


def write_flows_csv(path, tables: Iterable[dict]) -> int:
    """Write the flows of each flow table in turn, each sorted by day, then
    by FlowKey.sort_key, and return the number of rows.

    Rows are formatted as they are written, each address and day rendered
    once; csv.writer took twice as long, and no field (ints, dotted quads,
    ISO days) needs quoting.
    """
    quad = cache(int_to_ip)
    day_name = cache(lambda day: day_of(day * DAY_US))
    rows = 0
    with open(path, "w", newline="") as fh:
        write = fh.write
        write(",".join(FLOWS_HEADER) + "\r\n")
        for table in tables:
            for key in sorted(table):
                day, src, dst, proto, sport, dport = key
                packets, nbytes, first_ts, last_ts, flags = table[key]
                write(f"{day_name(day)},{quad(src)},{quad(dst)},{proto},{sport},{dport},"
                      f"{packets},{nbytes},{first_ts},{last_ts},{flags}\r\n")
            rows += len(table)
    return rows


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
