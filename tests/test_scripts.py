"""Smoke tests of the scripts under scripts/, with their outputs pinned."""

import hashlib
import runpy
import sys
import tempfile
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# sha256 prefixes of `overlap_experiment.py --days 0.05 --sensors 2` (seed 7)
OVERLAP_EXPERIMENT = {
    "flows.csv": "9988ffdab620254a",
    "overlap.csv": "ca71981205ffcb11",
    "overlap.csv.json": "808286d0b93a8b03",
    "portcdf.csv": "854b13d3ebf1dfa5",
    "timeline.csv": "e909f60fdc408cce",
}


def test_overlap_experiment_outputs_are_pinned(tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    argv = ["overlap_experiment.py", "--days", "0.05", "--sensors", "2", "--seed", "7", "--out", str(out)]
    monkeypatch.setattr(sys, "argv", argv)
    runpy.run_path(str(SCRIPTS / "overlap_experiment.py"), run_name="__main__")
    assert "global union: 9" in capsys.readouterr().out
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()[:16] for name in OVERLAP_EXPERIMENT}
    assert got == OVERLAP_EXPERIMENT


def test_e2e_demo_carves_responder_space_and_restarts(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))  # the demo's data directory
    monkeypatch.setattr(sys, "argv", ["e2e_demo.py"])
    runpy.run_path(str(SCRIPTS / "e2e_demo.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "responder on B1 -> CapabilityDenied:" in out
    assert "instance is running again" in out
    admitted = [line for line in out.splitlines() if line.startswith("-A HOLO-IN") and line.endswith("-j ACCEPT")]
    # the responder's 10.9.1.240/28 carved out of the darknet's 10.9.1.0/24
    assert admitted == [
        f"-A HOLO-IN -d 10.9.1.{block} -j ACCEPT" for block in ("0/25", "128/26", "192/27", "224/28")
    ]
    assert list(tmp_path.iterdir()) == []  # the demo's directory is gone
