"""Reference metrics over rendered FlowRecords, flow-table builders, and
simulated runs read back from the traces their sensors wrote.

holo.analysis reduces integer flow tables keyed (day number, src, dst,
proto, src_port, dst_port) to [packets, bytes, first_ts, last_ts, flags].
The functions prefixed ref_ are the same metrics written over FlowRecords
(dotted quads, day names), as holo computed them before; tests hold the
table metrics to them.
"""

import csv
import math
from typing import Optional

from holo import analysis, collector, simnet
from holo.analysis import (
    FLOWS_HEADER,
    WEIGHT_PACKETS,
    AnalysisError,
    DayStat,
    OverlapMatrix,
    PortDistribution,
    SenderCounts,
    WindowEmpty,
    day_number,
    day_range,
)
from holo.net import ip_to_int
from holo.packets import PROTO_TCP

# --- building flow tables -------------------------------------------------------


def table_of(flows) -> dict:
    """The flow table of FlowRecords; records with one key merge as the
    writer merges packets of one flow."""
    table: dict = {}
    for rec in flows:
        k = rec.key
        key = (day_number(rec.day), ip_to_int(k.src_ip), ip_to_int(k.dst_ip), k.proto, k.src_port, k.dst_port)
        row = table.get(key)
        if row is None:
            table[key] = [rec.packets, rec.bytes, rec.first_ts, rec.last_ts, rec.flags_seen]
        else:
            row[0] += rec.packets
            row[1] += rec.bytes
            row[2] = min(row[2], rec.first_ts)
            row[3] = max(row[3], rec.last_ts)
            row[4] |= rec.flags_seen
    return table


def tables_of(sensor_flows: dict) -> dict:
    """{sensor: flow table} of {sensor: FlowRecords}."""
    return {sensor: table_of(flows) for sensor, flows in sensor_flows.items()}


def packet_table(packets) -> dict:
    """The flow table of PacketRecords."""
    return analysis.flow_table(
        (p.ts, p.src_ip, p.dst_ip, p.proto, p.src_port, p.dst_port, p.tcp_flags, p.payload_len)
        for p in packets
    )


def rendered(sensor_tables: dict) -> dict:
    """{sensor: FlowRecords} of {sensor: flow table}."""
    return {sensor: analysis.render_flows(table) for sensor, table in sensor_tables.items()}


# --- simulated runs, read back from their traces --------------------------------


def run_to_traces(config, traces) -> simnet.SimReport:
    """Run config with one HourlyWriter per sensor, writing under traces."""
    writers = {s.sensor_id: collector.HourlyWriter(traces, s.sensor_id) for s in config.sensors}
    return simnet.run(config, writers)


def sensor_packets(traces, sensor: str):
    """analysis.trace_packets over the traces one sensor sealed under traces."""
    return analysis.trace_packets(
        path for path, meta in collector.sealed_traces(traces) if meta.sensor_id == sensor
    )


# --- reference metrics over FlowRecords -------------------------------------------


def ref_flows_per_ip_series(flows, subnet, days: list[str]) -> list[DayStat]:
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
        values = list(per_day[day].values())
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


def ref_qualifying_senders(flows, window_days, min_packets, top_fraction=None) -> set[str]:
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


def ref_common_sender_ratio(
    sensor_flows: dict,
    window_days: int = 15,
    min_packets: int = 500,
    top_fraction: Optional[float] = None,
    window_start: Optional[str] = None,
    mode: str = "row",
) -> OverlapMatrix:
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
        s: ref_qualifying_senders(sensor_flows[s], days, min_packets, top_fraction)
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


def ref_port_cdf(flows, weight: str = WEIGHT_PACKETS) -> PortDistribution:
    counts: dict[int, int] = {}
    for rec in flows:
        if rec.key.proto != PROTO_TCP:
            continue
        w = rec.packets if weight == WEIGHT_PACKETS else 1
        counts[rec.key.dst_port] = counts.get(rec.key.dst_port, 0) + w
    return PortDistribution(counts=counts, weight=weight)


def ref_unique_senders(sensor_flows: dict, day: Optional[str] = None) -> SenderCounts:
    per_sensor = {}
    union: set[str] = set()
    for sensor, flows in sorted(sensor_flows.items()):
        senders = {rec.key.src_ip for rec in flows if day is None or rec.day == day}
        per_sensor[sensor] = len(senders)
        union |= senders
    return SenderCounts(per_sensor=per_sensor, global_count=len(union))


def ref_write_flows_csv(path, flows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(FLOWS_HEADER)
        for rec in flows:
            k = rec.key
            w.writerow(
                [rec.day, k.src_ip, k.dst_ip, k.proto, k.src_port, k.dst_port,
                 rec.packets, rec.bytes, rec.first_ts, rec.last_ts, rec.flags_seen]
            )
