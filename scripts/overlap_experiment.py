#!/usr/bin/env python3
"""Sender-overlap experiment on a seeded simulated deployment.

Runs N /24 darknet sensors against a mixed scanner population for a few
simulated days, then prints the common-sender matrix, per-sensor unique
sender counts and the global union, and writes the full CSV set.

Usage:
    python scripts/overlap_experiment.py [--days 2] [--sensors 4] [--seed 7] [--out out/]
"""

import argparse
import json
import time
from pathlib import Path

from holo import analysis, simnet


def build_config(seed: int, days: float, n_sensors: int) -> simnet.SimConfig:
    sensors = [
        simnet.SimSensor(f"s{i + 1}", [f"10.9.{i + 1}.0/24"]) for i in range(n_sensors)
    ]
    scanners = [
        # broad sweepers seen by everyone
        simnet.ScannerProfile("sweep-1", "uniform", src_ip="203.0.113.10", rate=0.5,
                              port_model="ssh-telnet-iot"),
        simnet.ScannerProfile("sweep-2", "uniform", src_ip="203.0.113.11", rate=0.3,
                              port_model="ssh-telnet-iot"),
        # a regional scanner that only knows about half the sensors
        simnet.ScannerProfile(
            "regional", "prefix", src_ip="198.51.100.40", rate=0.4,
            port_model="bgp-prober",
            prefixes=[f"10.9.{i + 1}.0/24" for i in range(max(1, n_sensors // 2))],
        ),
        # DDoS victims answering spoofed floods
        simnet.ScannerProfile("victims", "backscatter", rate=0.2, port_model="es-ddos",
                              victims=[f"198.18.0.{i}" for i in range(1, 7)]),
    ]
    return simnet.SimConfig(seed=seed, duration=days * 86_400,
                            sensors=sensors, scanners=scanners)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--days", type=float, default=2.0)
    parser.add_argument("--sensors", type=int, default=4)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--min-packets", type=int, default=200)
    parser.add_argument("--out", default="overlap-out")
    args = parser.parse_args()

    config = build_config(args.seed, args.days, args.sensors)
    started = time.monotonic()
    report = simnet.run(config)
    print(f"simulated {len(report.ground_truth)} packets in {time.monotonic() - started:.1f}s")

    # one flow table per sensor, keyed (day number, integer 5-tuple)
    sensor_tables = {
        sensor_id: analysis.flow_table(
            (p.ts, p.src_ip, p.dst_ip, p.proto, p.src_port, p.dst_port, p.tcp_flags, p.payload_len)
            for p in path.captured
        )
        for sensor_id, path in report.paths.items()
    }

    matrix = analysis.common_sender_ratio(sensor_tables, window_days=15,
                                          min_packets=args.min_packets)
    print(f"\ncommon-sender ratio (min_packets={args.min_packets}):")
    header = "        " + "  ".join(f"{s:>6s}" for s in matrix.sensors)
    print(header)
    for sensor, row in zip(matrix.sensors, matrix.ratio):
        print(f"{sensor:>6s}  " + "  ".join(f"{v:6.3f}" for v in row))

    counts = analysis.unique_senders(sensor_tables)
    print("\nunique senders per sensor:", counts.per_sensor)
    print("global union:", counts.global_count,
          f"(sum of per-sensor: {sum(counts.per_sensor.values())})")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    analysis.write_overlap_csv(out / "overlap.csv", matrix)
    analysis.write_flows_csv(out / "flows.csv", sensor_tables.values())
    analysis.write_portcdf_csv(out / "portcdf.csv", analysis.port_cdf(sensor_tables.values()))
    days = analysis.flow_days(sensor_tables.values())
    series = {
        sensor_id: analysis.flows_per_ip_series(
            sensor_tables[sensor_id], sim_sensor.ranges[0], days
        )
        for sensor_id, sim_sensor in zip(sorted(sensor_tables), config.sensors)
    }
    analysis.write_timeline_csv(out / "timeline.csv", series)
    (out / "counters.json").write_text(json.dumps(report.counters, indent=2, sort_keys=True))
    print(f"\nCSV outputs in {out}/")


if __name__ == "__main__":
    main()
