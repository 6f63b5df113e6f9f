"""Seeded input generation for the four workloads.

Everything here depends only on the seed and the size table; it does not
import holo, so a change to the program cannot change the inputs. The
stage workers (stages.py) hand these inputs to the program.
"""

from __future__ import annotations

import json
import random
import struct
from pathlib import Path

import yaml

from checks import row_key

SCAN_TOPOLOGY = Path("configs/sim-two-day.yaml")
START_US = 1_754_006_400_000_000  # 2025-08-01T00:00:00Z, the simulator's default start
HOUR_US = 3_600_000_000

# Sizes of one repetition of each stage. "smoke" keeps the test of the benchmark itself quick.
SIZES = {
    "full": {
        "scan_hours": 1.5,
        "bulk_flows": 80,
        "bulk_pkts": 100,
        "dialogs": 800,
        "fleet": 60,
        "fleet_scan_hours": 0.5,
        "small_fleet_hb": 600,
    },
    "smoke": {
        "scan_hours": 0.25,
        "bulk_flows": 12,
        "bulk_pkts": 20,
        "dialogs": 40,
        "fleet": 4,
        "fleet_scan_hours": 0.25,
        "small_fleet_hb": 10,
    },
}

WORKLOADS = ("scan-sim", "capture-bulk", "honeypot-dialogs", "control-fleet")

# Share of the measuring time each stage gets: most goes to the stages a
# workload exists for, enough to the rest for a steady median. Sync has no
# bounded metric, and its untimed copying costs twice its timed work, so it
# gets little.
SHARES = {
    "scan-sim": {"ingest": 0.4, "analyze": 0.4, "sync": 0.05, "control": 0.15},
    "capture-bulk": {"ingest": 0.35, "analyze": 0.45, "sync": 0.05, "control": 0.15},
    "honeypot-dialogs": {"ingest": 0.5, "analyze": 0.3, "sync": 0.05, "control": 0.15},
    "control-fleet": {"ingest": 0.15, "analyze": 0.2, "sync": 0.05, "control": 0.6},
}

# -- scan traffic ------------------------------------------------------------


def scan_config(seed: int, hours: float) -> dict:
    """The committed three-sensor topology and scanner mix, at `seed`, for `hours`."""
    doc = yaml.safe_load(SCAN_TOPOLOGY.read_text())
    doc["seed"] = seed
    doc["duration"] = int(hours * 3600)
    return doc


# -- raw Ethernet frames for capture-bulk -------------------------------------


def _checksum(header: bytes) -> int:
    total = sum(struct.unpack(f">{len(header) // 2}H", header))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def ethernet_tcp_frame(src: int, dst: int, sport: int, dport: int, seq: int, flags: int, payload: bytes) -> bytes:
    tcp = struct.pack(">HHIIBBHHH", sport, dport, seq, 0, 5 << 4, flags, 65535, 0, 0) + payload
    ip = struct.pack(">BBHHHBBHII", 0x45, 0, 20 + len(tcp), 0, 0, 64, 6, 0, src, dst)
    ip = ip[:10] + struct.pack(">H", _checksum(ip)) + ip[12:]
    eth = b"\x02\x00\x00\x00\x00\x02" + b"\x02\x00\x00\x00\x00\x01" + b"\x08\x00"
    return eth + ip + tcp


def _ip(text: str) -> int:
    return struct.unpack(">I", bytes(int(x) for x in text.split(".")))[0]


def _dotted(value: int) -> str:
    return ".".join(str(b) for b in struct.pack(">I", value))


BULK_SENSORS = (("b1", "10.40.0.0/24"), ("b2", "10.41.0.0/24"))
BULK_OUTSIDE = "10.42.0.0"  # addressed but unmonitored: offered, not captured


def capture_bulk(seed: int, size: dict, work: Path) -> dict:
    """Long-lived flows with 0-1400 B payloads over 24 h, one Ethernet pcap per sensor.

    Senders are shared between the two sensors, so the overlap metric has
    work to do. Returns the sources and the expected (day, 5-tuple) ->
    packets table of the monitored flows, keyed like the rows of
    `holo analyze flows`.
    """
    rng = random.Random(seed)
    per_sensor = {sid: [] for sid, _ in BULK_SENSORS}
    expected: dict[str, int] = {}
    for i in range(size["bulk_flows"]):
        sid, cidr = BULK_SENSORS[i % len(BULK_SENSORS)]
        monitored = rng.random() < 0.9
        src = _ip("198.51.100.0") + rng.randrange(1, 255) + (rng.randrange(0, 16) << 8)
        dst = _ip(cidr.split("/")[0] if monitored else BULK_OUTSIDE) + rng.randrange(1, 255)
        sport, dport = rng.randrange(1024, 65536), rng.choice((22, 80, 443, 445, 8080, 5060))
        n = rng.randint(size["bulk_pkts"] * 4 // 5, size["bulk_pkts"] * 6 // 5)
        start = START_US + rng.randrange(0, 20 * HOUR_US)
        span = rng.randrange(HOUR_US // 2, 4 * HOUR_US)
        seq = rng.getrandbits(32)
        for k in range(n):
            ts = start + k * span // n
            payload = rng.randbytes(rng.randint(0, 1400))
            flags = 0x02 if k == 0 else 0x18
            per_sensor[sid].append((ts, i, k, ethernet_tcp_frame(src, dst, sport, dport, seq, flags, payload)))
            seq = (seq + len(payload)) & 0xFFFFFFFF
            if monitored:
                key = row_key(_day(ts), _dotted(src), _dotted(dst), 6, sport, dport)
                expected[key] = expected.get(key, 0) + 1
    sources = []
    for sid, cidr in BULK_SENSORS:
        frames = sorted(per_sensor[sid])
        pcap = work / f"source-{sid}.pcap"
        with open(pcap, "wb") as fh:
            fh.write(struct.pack(">IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1))
            for ts, _, _, raw in frames:
                fh.write(struct.pack(">IIII", ts // 1_000_000, ts % 1_000_000, len(raw), len(raw)))
                fh.write(raw)
        sources.append({"sensor_id": sid, "darknet": cidr, "pcap": str(pcap), "frames": len(frames)})
    return {"sources": sources, "expected_flows": expected}


def _day(ts_us: int) -> str:
    import datetime

    return datetime.datetime.fromtimestamp(ts_us // 1_000_000, datetime.timezone.utc).strftime("%Y-%m-%d")


# -- scripted responder dialogs -------------------------------------------------

DIALOG_SENSORS = [
    {
        "sensor_id": f"h{i + 1}",
        "ranges": [f"10.{30 + i}.0.0/24"],
        "responder": {"ip_ranges": [f"10.{30 + i}.0.64/26"], "ports": ["1-1023"]},
    }
    for i in range(2)
]


def dialogs(seed: int, size: dict) -> list[dict]:
    """SYN, ACK, 0-1400 B of data, FIN; about a quarter abandoned before FIN."""
    rng = random.Random(seed)
    out = []
    for i in range(size["dialogs"]):
        sensor = i % len(DIALOG_SENSORS)
        base = _ip(DIALOG_SENSORS[sensor]["responder"]["ip_ranges"][0].split("/")[0])
        out.append(
            {
                "sensor": sensor,
                "src_ip": _dotted(_ip("203.0.113.0") + rng.randrange(1, 255)),
                "src_port": rng.randrange(1024, 65536),
                "dst_ip": _dotted(base + rng.randrange(0, 64)),
                "dst_port": rng.choice((21, 22, 23, 25, 80, 110, 143, 443, 445, 993)),
                "payload": rng.randbytes(rng.randint(0, 1400)).hex(),
                "abandon": rng.random() < 0.25,
                "isn": rng.getrandbits(32),
                # 3 s apart per sensor: several hourly files, no egress rate limiting
                "start_ts": START_US + (i // len(DIALOG_SENSORS)) * 3_000_000,
            }
        )
    return out


# -- sensor fleet for the control plane ------------------------------------------


def fleet(seed: int, n: int) -> dict:
    """n sensors, each with its own /24, a darknet spec and a responder spec."""
    rng = random.Random(seed)
    sensors, specs = [], []
    for i in range(n):
        sid = f"f{i:04d}"
        net = f"10.{100 + i // 256}.{i % 256}"
        sensors.append(
            {
                "sensor_id": sid,
                "org": f"org{rng.randrange(0, 8)}",
                "country": rng.choice(("ITA", "DEU", "BRA", "JPN", "USA")),
                "address_ranges": [f"{net}.0/24"],
                "honeypot_allowed": True,
            }
        )
        specs.append(
            {
                "module_kind": "darknet",
                "name": f"dk-{sid}",
                "params": {"ranges": [f"{net}.0/24"]},
                "target_ids": [sid],
            }
        )
        low = rng.randrange(0, 15) * 16
        specs.append(
            {
                "module_kind": "responder",
                "name": f"hp-{sid}",
                "params": {"ip_ranges": [f"{net}.{low}/28"], "ports": ["22", "23", "80", "443"]},
                "target_ids": [sid],
            }
        )
    return {"sensors": sensors, "specs": specs}


def sensors_fleet(sim_sensors: list[dict]) -> dict:
    """The control-plane view of a packet workload's own sensors."""
    sensors, specs = [], []
    for s in sim_sensors:
        sid = s["sensor_id"]
        sensors.append(
            {
                "sensor_id": sid,
                "org": "org0",
                "country": "ITA",
                "address_ranges": list(s["ranges"]),
                "honeypot_allowed": "responder" in s,
            }
        )
        specs.append(
            {"module_kind": "darknet", "name": f"dk-{sid}", "params": {"ranges": list(s["ranges"])}, "target_ids": [sid]}
        )
        if "responder" in s:
            specs.append(
                {"module_kind": "responder", "name": f"hp-{sid}", "params": dict(s["responder"]), "target_ids": [sid]}
            )
    return {"sensors": sensors, "specs": specs}


# -- per-workload plan -------------------------------------------------------------


def generate(workload: str, seed: int, size_name: str, work: Path) -> dict:
    """Write a workload's inputs under `work`; return the plan the stages read."""
    size = SIZES[size_name]
    work.mkdir(parents=True, exist_ok=True)
    plan = {"workload": workload, "seed": seed, "size": size, "share": SHARES[workload]}
    if workload in ("scan-sim", "control-fleet"):
        hours = size["scan_hours"] if workload == "scan-sim" else size["fleet_scan_hours"]
        doc = scan_config(seed, hours)
        (work / "sim.json").write_text(json.dumps(doc))
        plan["ingest"] = {"kind": "sim", "config": str(work / "sim.json")}
        plan["sync"] = "local"
        sim_fleet = sensors_fleet(doc["sensors"])
    elif workload == "capture-bulk":
        info = capture_bulk(seed, size, work)
        (work / "expected_flows.json").write_text(json.dumps(info["expected_flows"]))
        plan["ingest"] = {
            "kind": "capture",
            "sources": info["sources"],
            "expected_flows": str(work / "expected_flows.json"),
        }
        plan["sync"] = "overlay"
        sim_fleet = sensors_fleet([{"sensor_id": sid, "ranges": [cidr]} for sid, cidr in BULK_SENSORS])
    elif workload == "honeypot-dialogs":
        (work / "dialogs.json").write_text(json.dumps(dialogs(seed, size)))
        plan["ingest"] = {"kind": "dialogs", "dialogs": str(work / "dialogs.json"), "sensors": DIALOG_SENSORS}
        plan["sync"] = "local"
        sim_fleet = sensors_fleet(DIALOG_SENSORS)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    plan["sensor_ids"] = [s["sensor_id"] for s in sim_fleet["sensors"]]
    if workload == "control-fleet":
        plan["fleet"] = fleet(seed, size["fleet"])
        plan["steady_heartbeats"] = 3
    else:
        plan["fleet"] = sim_fleet
        # a small fleet still gives the latency percentiles enough samples
        plan["steady_heartbeats"] = max(3, -(-size["small_fleet_hb"] // len(sim_fleet["sensors"])))
    return plan
