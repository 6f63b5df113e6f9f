"""Determinism guard: a short cut of the committed two-day simulation.

Runs `holo sim run` on configs/sim-two-day.yaml with the duration cut to
two simulated hours, then `holo analyze flows`, and pins the sha256
prefixes of the four outputs the full-length goldens cover: the sim
digest, ground_truth.jsonl, the sealed traces' *.meta.json concatenated
in sorted order, and the flows CSV. A change to how addresses, packets or
flows are represented inside holo must leave all four byte-identical.
"""

import hashlib
import json
from pathlib import Path

import yaml

from holo import cli

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "sim-two-day.yaml"

PINNED = {
    "sim_digest": "d87f549ae98a8bfc",
    "ground_truth": "72a96f9b5cbe5fe9",
    "trace_metas": "aa5bb96664639754",
    "analyze_flows": "cac79b254008553e",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def test_two_hour_cut_of_the_committed_sim_is_byte_identical(tmp_path, capsys):
    doc = yaml.safe_load(CONFIG.read_text())
    doc["duration"] = 2 * 3600
    config = tmp_path / "sim-two-hours.yaml"
    config.write_text(yaml.safe_dump(doc))
    out = tmp_path / "sim"

    assert cli.main(["sim", "run", "-f", str(config), "--out", str(out), "--json"]) == 0
    sim_doc = json.loads(capsys.readouterr().out)
    flows_csv = tmp_path / "flows.csv"
    assert cli.main(["analyze", "flows", "--in", str(out), "--out", str(flows_csv)]) == 0

    metas = sorted((out / "traces").glob("*.meta.json"))
    assert len(metas) == 3 * 2  # three sensors, two hourly files each
    got = {
        "sim_digest": sim_doc["digest"][:16],
        "ground_truth": _sha((out / "ground_truth.jsonl").read_bytes()),
        "trace_metas": _sha(b"".join(p.read_bytes() for p in metas)),
        "analyze_flows": _sha(flows_csv.read_bytes()),
    }
    assert got == PINNED
