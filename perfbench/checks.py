"""Correctness checks on the program's outputs.

These read the files the program wrote and compare them with what the
generator put in, using only the standard library, so a defect in holo
cannot also hide itself here. Any mismatch raises CheckFailed, and the
benchmark then reports no numbers.
"""

from __future__ import annotations

import csv
import hashlib
import ipaddress
import json
from collections import Counter
from pathlib import Path


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def row_key(day, src, dst, proto, sport, dport) -> str:
    return f"{day},{src},{dst},{proto},{sport},{dport}"


def check_flows(flows_csv: Path, ingest_dir: Path, trace_packets: int) -> None:
    """`holo analyze flows` against the traces and, where known, the generator.

    Every trace packet must land in exactly one flow. Where the generator
    knows the flows the darknet should capture (expected_flows.json), the
    per-(day, 5-tuple) packet counts must equal it exactly once flows of
    responder space (steered inbound) and sensor-sourced replies are set
    aside, since the simulator's ground truth does not predict them.
    """
    with open(flows_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    total = sum(int(r["packets"]) for r in rows)
    require(total == trace_packets, f"flows hold {total} packets, traces hold {trace_packets}")
    expected_path = ingest_dir / "expected_flows.json"
    if not expected_path.exists():
        return
    expected = Counter(json.loads(expected_path.read_text()))
    excluded = json.loads((ingest_dir / "excluded.json").read_text())
    dst_out = [ipaddress.ip_network(r) for r in excluded.get("dst", [])]
    src_out = [ipaddress.ip_network(r) for r in excluded.get("src", [])]
    got: Counter = Counter()
    for r in rows:
        src, dst = ipaddress.ip_address(r["src_ip"]), ipaddress.ip_address(r["dst_ip"])
        if any(dst in n for n in dst_out) or any(src in n for n in src_out):
            continue
        key = row_key(r["day"], r["src_ip"], r["dst_ip"], r["proto"], r["src_port"], r["dst_port"])
        got[key] += int(r["packets"])
    if got != expected:
        missing = len(set(expected) - set(got))
        extra = len(set(got) - set(expected))
        raise CheckFailed(
            f"flow counts differ from the generator: {missing} flows missing, {extra} unexpected, "
            f"{sum(1 for k in got if k in expected and got[k] != expected[k])} with other counts"
        )


def verify_lake(lake_root: Path, want: dict) -> None:
    """Every sealed file has exactly one lake copy whose bytes hash as sealed.

    want maps (sensor_id, hour_bucket) to the content hash recorded at seal
    time. The hash is recomputed here from the lake file's bytes.
    """
    seen = {}
    for meta_path in Path(lake_root).rglob("*.meta.json"):
        meta = json.loads(meta_path.read_text())
        pcap = meta_path.with_name(meta_path.name[: -len(".meta.json")] + ".pcap")
        key = (meta["sensor_id"], meta["hour_bucket"])
        require(pcap.exists(), f"lake copy of {key} has no data file")
        seen[key] = hashlib.sha256(pcap.read_bytes()).hexdigest()
    require(set(seen) == set(want), f"lake holds {len(seen)} files, {len(want)} were sealed")
    for key, digest in want.items():
        require(seen[key] == digest, f"lake copy of {key} does not match its sealed hash")


def check_converged(status: dict, desired: dict) -> None:
    """Every desired instance is reported running, and nothing else is."""
    by_sensor = {s["sensor_id"]: s["instances"] for s in status["sensors"]}
    for sid, want in desired.items():
        insts = by_sensor.get(sid, [])
        running = [i for i in insts if i["status"] == "running"]
        require(len(running) == want == len(insts), f"{sid}: {len(running)}/{want} desired instances running")


def _desired_doc(controller) -> dict:
    return {
        sid: sorted(json.dumps(spec.to_doc(), sort_keys=True) for spec in specs)
        for sid, specs in controller.desired_state().items()
    }


def check_replay(data_dir: Path, controller) -> None:
    """A fresh controller on the same data dir replays the same desired state."""
    from holo import controlplane as cp

    fresh = cp.Controller(data_dir=data_dir)
    try:
        require(_desired_doc(fresh) == _desired_doc(controller), "replayed desired state differs")
        require(set(fresh.sensor_keys) == set(controller.sensor_keys), "replayed sensor registry differs")
    finally:
        fresh.close()
