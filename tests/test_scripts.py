"""Smoke tests of the scripts under scripts/, with their outputs pinned."""

import hashlib
import runpy
import sys
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
