"""Determinism guard: a short cut of the committed two-day simulation.

Runs `holo sim run` on configs/sim-two-day.yaml with the duration cut to
two simulated hours, then `holo analyze`, and pins sha256 prefixes of the
outputs. The first test covers what the full-length goldens cover: the
sim digest, ground_truth.jsonl, the sealed traces' *.meta.json
concatenated in sorted order, and the flows CSV. The second covers the
other metrics, each CSV with its .json summary. A change to how
addresses, packets or flows are represented inside holo must leave all
of them byte-identical.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest
import yaml

from holo import cli

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "sim-two-day.yaml"

PINNED = {
    "sim_digest": "d87f549ae98a8bfc",
    "ground_truth": "72a96f9b5cbe5fe9",
    "trace_metas": "aa5bb96664639754",
    "analyze_flows": "cac79b254008553e",
}

# (CSV, .json) per analyze run; default overlap is all zeros on two hours,
# so a run that qualifies every sender is pinned too
PINNED_METRICS = {
    ("overlap",): ("d773128ae34a8e78", "6315797f5e202d3a"),
    ("overlap", "--min-packets", "1", "--top-fraction", "0.3", "--jaccard"):
        ("44d53da90cca460d", "29f5d5b129971a4b"),
    ("portcdf",): ("1f9318d3ddc2dce3", "5f133d62e288636a"),
    ("portcdf", "--weight", "flows", "--sensor", "s2"): ("fbcc9541bd147a61", "8f59a605a23a0b80"),
    ("timeline",): ("cd55d6aefb51dba5", "97c4e37e7e8a59c6"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.fixture(scope="module")
def two_hour_sim(tmp_path_factory):
    """(sim output directory, `holo sim run --json` document)."""
    tmp = tmp_path_factory.mktemp("determinism")
    doc = yaml.safe_load(CONFIG.read_text())
    doc["duration"] = 2 * 3600
    config = tmp / "sim-two-hours.yaml"
    config.write_text(yaml.safe_dump(doc))
    out = tmp / "sim"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(["sim", "run", "-f", str(config), "--out", str(out), "--json"]) == 0
    return out, json.loads(stdout.getvalue())


def test_two_hour_cut_of_the_committed_sim_is_byte_identical(two_hour_sim, tmp_path):
    out, sim_doc = two_hour_sim
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


def test_overlap_portcdf_and_timeline_of_the_two_hour_cut_are_byte_identical(two_hour_sim, tmp_path):
    out, _ = two_hour_sim
    got = {}
    for run in PINNED_METRICS:
        csv_path = tmp_path / f"{'_'.join(run)}.csv"
        assert cli.main(["analyze", run[0], "--in", str(out), "--out", str(csv_path), *run[1:]]) == 0
        got[run] = (_sha(csv_path.read_bytes()), _sha(Path(str(csv_path) + ".json").read_bytes()))
    assert got == PINNED_METRICS
