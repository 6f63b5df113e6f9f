"""Smoke-sized test of the benchmark itself (not of holo's speed).

Runs every workload at the "smoke" size and checks the output contract:
every end-to-end metric is printed with its unit, the traced run prints
the per-layer names, a second seed gives other inputs but the same names,
and the correctness checks trip on corrupted output.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, seed: int = 1, trace: int = 0) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_declared_metrics_match_the_harness():
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metrics_emitted_with_units(workload):
    env, result = bench(workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {k: u for k, (u, _) in run.END_TO_END.items()}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert env["environment"]["seed"] == 1 and env["environment"]["nproc"] >= 1


def test_traced_run_emits_per_layer_names():
    _, result = bench("scan-sim", trace=1)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.PER_LAYER
    assert result["metrics"]["toolbox.evaluate.calls"]["value"] > 0
    assert result["metrics"]["net.ip_to_int.calls"]["value"] > 0


def _input_digest(workload: str, seed: int, tmp: Path) -> str:
    work = tmp / f"{workload}-{seed}"
    plan = workloads.generate(workload, seed, "smoke", work)
    h = hashlib.sha256(json.dumps(plan["fleet"], sort_keys=True).encode())
    for path in sorted(work.iterdir()):
        h.update(path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_inputs_not_metric_names(workload, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert _input_digest(workload, 1, tmp_path) == _input_digest(workload, 1, tmp_path / "again")
    assert _input_digest(workload, 1, tmp_path) != _input_digest(workload, 2, tmp_path)


def test_second_seed_passes_with_same_names():
    env, result = bench("honeypot-dialogs", seed=2)
    assert result["correct"] is True and env["environment"]["seed"] == 2
    assert result["metrics"].keys() == run.END_TO_END.keys()


def test_flipped_byte_in_lake_copy_trips_the_check(tmp_path):
    lake = tmp_path / "lake" / "s1" / "2025" / "08" / "01"
    lake.mkdir(parents=True)
    data = bytes(range(256)) * 8
    (lake / "00.pcap").write_bytes(data)
    (lake / "00.meta.json").write_text(json.dumps({"sensor_id": "s1", "hour_bucket": "2025-08-01-00"}))
    want = {("s1", "2025-08-01-00"): hashlib.sha256(data).hexdigest()}
    checks.verify_lake(tmp_path / "lake", want)

    flipped = bytearray(data)
    flipped[100] ^= 0x01
    (lake / "00.pcap").write_bytes(bytes(flipped))
    with pytest.raises(checks.CheckFailed):
        checks.verify_lake(tmp_path / "lake", want)


def test_flow_count_mismatch_trips_the_check(tmp_path):
    (tmp_path / "expected_flows.json").write_text(json.dumps({"2025-08-01,1.2.3.4,10.9.1.1,6,1000,22": 2}))
    (tmp_path / "excluded.json").write_text("{}")
    header = "day,src_ip,dst_ip,proto,src_port,dst_port,packets,bytes,first_ts,last_ts,flags\n"
    good = tmp_path / "good.csv"
    good.write_text(header + "2025-08-01,1.2.3.4,10.9.1.1,6,1000,22,2,0,0,0,2\n")
    checks.check_flows(good, tmp_path, 2)
    bad = tmp_path / "bad.csv"
    bad.write_text(header + "2025-08-01,1.2.3.4,10.9.1.1,6,1000,22,1,0,0,0,2\n"
                   + "2025-08-01,1.2.3.4,10.9.1.1,6,1001,22,1,0,0,0,2\n")
    with pytest.raises(checks.CheckFailed):
        checks.check_flows(bad, tmp_path, 2)
