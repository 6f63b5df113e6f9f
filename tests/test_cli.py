import hashlib
import importlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
import yaml

HOLO = [sys.executable, "-m", "holo.cli"]


def run_cli(*args, env=None, check=True, timeout=60):
    proc = subprocess.run(
        HOLO + list(args), capture_output=True, text=True, timeout=timeout,
        env={**os.environ, **(env or {})},
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"holo {' '.join(args)} failed:\n{proc.stdout}\n{proc.stderr}")
    return proc


def start_controller(data_dir):
    """A `holo controller` subprocess and the address from its banner."""
    proc = subprocess.Popen(
        HOLO + ["controller", "--data-dir", str(data_dir), "--listen", "127.0.0.1:0",
                "--heartbeat", "0.3"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    line = proc.stdout.readline()
    match = re.search(r"listening on (\S+)", line)
    if not match:
        terminate(proc)
        raise AssertionError(f"controller did not start: {line}")
    return proc, match.group(1)


def terminate(proc, timeout=5):
    """SIGTERM, then kill after timeout; reaps the process and closes its pipe.
    Returns the exit code, or None if the process had to be killed."""
    proc.send_signal(signal.SIGTERM)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return None
    finally:
        proc.stdout.close()


@pytest.fixture(scope="module")
def controller(tmp_path_factory):
    data_dir = tmp_path_factory.mktemp("controller")
    proc, address = start_controller(data_dir)
    yield address, data_dir
    terminate(proc)


def test_controller_exits_0_on_sigterm(tmp_path):
    proc, _ = start_controller(tmp_path)
    assert terminate(proc) == 0


def test_controller_interrupted_at_its_banner_exits_0_and_closes(tmp_path, monkeypatch, capsys):
    """A SIGTERM sent as soon as the banner is read (test_controller_exits_0_on_sigterm
    sends one then) arrives as a KeyboardInterrupt before serve_forever runs;
    the controller must still stop its listener, close, and return 0."""
    import socket

    from holo import cli, controlplane

    closed = []
    close = controlplane.Controller.close
    monkeypatch.setattr(controlplane.Controller, "close", lambda self: (closed.append(self), close(self)))

    def print_then_interrupt(*args, **kwargs):
        print(*args, **kwargs)
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "print", print_then_interrupt, raising=False)

    def hung(signum, frame):
        raise TimeoutError("cmd_controller did not return")

    previous = signal.signal(signal.SIGALRM, hung), signal.getsignal(signal.SIGTERM)
    signal.setitimer(signal.ITIMER_REAL, 10)
    try:
        code = cli.main(["controller", "--data-dir", str(tmp_path), "--listen", "127.0.0.1:0"])
    except KeyboardInterrupt:  # escaping, it would end the whole test session
        pytest.fail("the interrupt escaped cmd_controller")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous[0])
        signal.signal(signal.SIGTERM, previous[1])
    assert code == 0
    assert len(closed) == 1 and closed[0]._log_fh is None
    host, port = re.search(r"listening on (\S+):(\d+)", capsys.readouterr().out).groups()
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection((host, int(port)), timeout=5).close()


def test_sim_run_into_sealed_traces_refuses_and_writes_nothing(tmp_path):
    doc = yaml.safe_load((Path(__file__).resolve().parent.parent / "configs" / "sim-two-day.yaml").read_text())
    doc["duration"] = 600
    config = tmp_path / "sim.yaml"
    config.write_text(yaml.safe_dump(doc))
    out = tmp_path / "sim"
    run_cli("sim", "run", "-f", str(config), "--out", str(out))
    before = {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    doc["duration"] = 900  # a changed config must not rewrite the ground truth beside the traces
    config.write_text(yaml.safe_dump(doc))
    proc = run_cli("sim", "run", "-f", str(config), "--out", str(out), check=False)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1
    assert proc.stdout == ""
    assert {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()} == before


@pytest.mark.parametrize("policy, flags", [
    ("retention: 5\n", []),  # an unknown key
    ("retention_hours: 0\n", []),
    (None, ["--retention-hours", "0"]),
])
def test_sync_run_with_a_bad_policy_is_a_usage_error(tmp_path, policy, flags):
    if policy is not None:
        (tmp_path / "policy.yaml").write_text(policy)
        flags = ["--policy", str(tmp_path / "policy.yaml")]
    proc = run_cli("sync", "run", "--local", str(tmp_path / "local"), "--lake", str(tmp_path / "lake"),
                   *flags, check=False)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1
    assert not (tmp_path / "lake").exists()


def write_descriptor(path, sensor_id, org="org-a", honeypot=True, ranges=("10.9.1.0/24",)):
    doc = {
        "sensor_id": sensor_id,
        "org": org,
        "country": "ITA",
        "address_ranges": list(ranges),
        "honeypot_allowed": honeypot,
        "workload_allowed": True,
        "nic_name": "eth0",
        "labels": {},
    }
    path.write_text(yaml.safe_dump(doc))
    return path


def test_token_then_agent_joins_and_shows_in_status(controller, tmp_path):
    address, _ = controller
    out = run_cli("token", "new", "--sensor", "A1", "--ttl", "1h", "--hub", address, "--json")
    token_doc = json.loads(out.stdout)
    assert token_doc["ok"] and "bootstrap" in token_doc

    desc = write_descriptor(tmp_path / "a1.yaml", "A1")
    agent_dir = tmp_path / "agent-a1"
    agent = subprocess.Popen(
        HOLO + ["agent", "--bootstrap", token_doc["token"], "--hub", address,
                "--descriptor", str(desc), "--data-dir", str(agent_dir),
                "--heartbeat", "0.2"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        deadline = time.time() + 15
        joined = False
        while time.time() < deadline:
            status = json.loads(run_cli("status", "--hub", address, "--json").stdout)
            sensors = {s["sensor_id"]: s for s in status["sensors"]}
            if "A1" in sensors and sensors["A1"]["reachable"]:
                joined = True
                break
            time.sleep(0.2)
        assert joined, "sensor A1 never became reachable"
        assert (agent_dir / "agent.json").exists()

        # deploy a darknet module; the running agent applies it
        spec = {
            "module_kind": "darknet",
            "name": "dk-a1",
            "params": {"ranges": ["10.9.1.0/24"]},
            "target": {"ids": ["A1"]},
        }
        spec_path = tmp_path / "dk.yaml"
        spec_path.write_text(yaml.safe_dump(spec))
        run_cli("deploy", "-f", str(spec_path), "--hub", address)

        deadline = time.time() + 15
        running = False
        while time.time() < deadline:
            status = json.loads(run_cli("status", "--hub", address, "--json").stdout)
            sensors = {s["sensor_id"]: s for s in status["sensors"]}
            instances = sensors["A1"]["instances"]
            if any(i["status"] == "running" and i["spec_name"] == "dk-a1" for i in instances):
                running = True
                break
            time.sleep(0.2)
        assert running, "deployed instance never reported running"

        # the agent wrote its compiled ruleset
        rules = list((agent_dir / "A1").glob("holo-rules-*.v4"))
        assert rules, "agent did not write a ruleset"
    finally:
        code = terminate(agent)
    assert code == 0  # SIGTERM stops the agent cleanly


def test_deploy_capability_denied_exit_1(controller, tmp_path):
    address, _ = controller
    token = json.loads(
        run_cli("token", "new", "--sensor", "D9", "--ttl", "1h", "--hub", address, "--json").stdout
    )["token"]
    desc = write_descriptor(tmp_path / "d9.yaml", "D9", honeypot=False, ranges=("10.9.4.0/24",))
    run_cli("agent", "--bootstrap", token, "--hub", address, "--descriptor", str(desc),
            "--data-dir", str(tmp_path / "agent-d9"), "--oneshot")

    spec_path = tmp_path / "hp.yaml"
    spec_path.write_text(yaml.safe_dump({
        "module_kind": "responder",
        "name": "hp-d9",
        "params": {"ip_ranges": ["10.9.4.0/28"], "ports": ["22"]},
        "target": {"ids": ["D9"]},
    }))
    proc = run_cli("deploy", "-f", str(spec_path), "--hub", address, check=False)
    assert proc.returncode == 1
    assert "CapabilityDenied" in proc.stderr


def test_usage_error_exit_2():
    proc = run_cli("analyze", check=False)
    assert proc.returncode == 2


def test_rules_emit_from_controller(controller):
    address, _ = controller
    proc = run_cli("rules", "emit", "--sensor", "A1", "--hub", address)
    assert "-A HOLO-OUT -s 10.9.1.0/24 -j DROP" in proc.stdout
    assert proc.stdout.startswith("*filter")


def test_rules_emit_offline(tmp_path):
    spec_path = tmp_path / "specs.yaml"
    spec_path.write_text(yaml.safe_dump([{
        "module_kind": "darknet",
        "name": "dk",
        "params": {"ranges": ["10.9.7.0/24"]},
        "target": {"ids": ["whatever"]},
    }]))
    proc = run_cli("rules", "emit", "-f", str(spec_path))
    assert "-A HOLO-OUT -s 10.9.7.0/24 -j DROP" in proc.stdout


@pytest.mark.parametrize("params, message", [
    ({"ip_ranges": ["10.9.7.0/28"], "ports": []}, "port_set must not be empty"),
    ({"ip_ranges": ["10.9.7.0/28"]}, "responder params need 'ports'"),
])
def test_rules_emit_offline_refuses_what_deploy_refuses(tmp_path, params, message):
    spec_path = tmp_path / "hp.yaml"
    spec_path.write_text(yaml.safe_dump({
        "module_kind": "responder", "name": "hp", "params": params, "target": {"ids": ["A1"]},
    }))
    proc = run_cli("rules", "emit", "-f", str(spec_path), check=False)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: SchemaError: ") and message in proc.stderr
    assert "Traceback" not in proc.stderr


DEPLOY_PAIR_RULES = """\
*nat
:HOLO-PRE - [0:0]
-A PREROUTING -j HOLO-PRE
# holo:steer backend=l4 (no port mapping)
-A HOLO-PRE -d 10.9.1.240/28 -p tcp --dport 1:1023 -j REDIRECT
COMMIT
*filter
:HOLO-IN - [0:0]
:HOLO-OUT - [0:0]
-A INPUT -j HOLO-IN
-A OUTPUT -j HOLO-OUT
-A HOLO-OUT -s 10.9.1.0/25 -j DROP
-A HOLO-OUT -s 10.9.1.128/26 -j DROP
-A HOLO-OUT -s 10.9.1.192/27 -j DROP
-A HOLO-OUT -s 10.9.1.224/28 -j DROP
-A HOLO-OUT -s 10.9.1.240/28 -p tcp --tcp-flags RST RST -j DROP
-A HOLO-OUT -s 10.9.1.240/28 -m limit --limit 100/second --limit-burst 100 -j ACCEPT
-A HOLO-IN -d 10.9.1.0/25 -j ACCEPT
-A HOLO-IN -d 10.9.1.128/26 -j ACCEPT
-A HOLO-IN -d 10.9.1.192/27 -j ACCEPT
-A HOLO-IN -d 10.9.1.224/28 -j ACCEPT
COMMIT
"""


def test_rules_emit_offline_pins_the_committed_deploy_pair(tmp_path):
    """The committed darknet and responder deploy files, emitted together."""
    configs = Path(__file__).resolve().parent.parent / "configs"
    docs = [yaml.safe_load((configs / name).read_text())
            for name in ("deploy-darknet.yaml", "deploy-responder.yaml")]
    spec_path = tmp_path / "pair.yaml"
    spec_path.write_text(yaml.safe_dump(docs))
    text = run_cli("rules", "emit", "-f", str(spec_path)).stdout
    assert text == DEPLOY_PAIR_RULES
    assert sum(line.startswith("-A HOLO-") for line in text.splitlines()) == 11
    assert hashlib.sha256(text.encode()).hexdigest().startswith("378fa73cd4576a6e")


def test_env_var_hub_address(controller):
    address, _ = controller
    proc = run_cli("status", env={"HOLO_HUB": address})
    assert "hub" in proc.stdout


def test_no_hub_is_operational_error():
    env = {k: v for k, v in os.environ.items() if k != "HOLO_HUB"}
    proc = subprocess.run(HOLO + ["status"], capture_output=True, text=True, env=env)
    assert proc.returncode == 1


SIM_YAML = {
    "seed": 42,
    "duration": 1800,
    "sensors": [
        {"sensor_id": "s1", "ranges": ["10.9.1.0/24"]},
        {"sensor_id": "s2", "ranges": ["10.9.2.0/24"]},
    ],
    "scanners": [
        {"name": "sweep", "kind": "uniform", "src_ip": "203.0.113.10", "rate": 3.0,
         "port_model": "ssh-telnet-iot"},
        {"name": "es", "kind": "prefix", "src_ip": "203.0.113.20", "rate": 2.0,
         "port_model": "es-ddos", "prefixes": ["10.9.2.0/24"]},
    ],
}


@pytest.fixture(scope="module")
def sim_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    config = tmp_path_factory.mktemp("cfg") / "sim.yaml"
    config.write_text(yaml.safe_dump(SIM_YAML))
    run_cli("sim", "run", "-f", str(config), "--out", str(out))
    return out


def test_sim_run_outputs(sim_out):
    assert (sim_out / "ground_truth.jsonl").exists()
    assert (sim_out / "counters.json").exists()
    assert (sim_out / "sensors.json").exists()
    traces = list((sim_out / "traces").glob("*.pcap"))
    assert len(traces) == 2  # one sealed hour per sensor
    assert all(Path(str(t) + ".meta.json").exists() for t in traces)


def test_analyze_flows_csv(sim_out, tmp_path):
    out_csv = tmp_path / "flows.csv"
    run_cli("analyze", "flows", "--in", str(sim_out / "traces"), "--out", str(out_csv))
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "day,src_ip,dst_ip,proto,src_port,dst_port,packets,bytes,first_ts,last_ts,flags"
    # conservation: csv packet counts match the simulated total
    total = sum(int(line.split(",")[6]) for line in lines[1:])
    counters = json.loads((sim_out / "counters.json").read_text())
    assert total == sum(c["captured"] for c in counters.values())


def test_analyze_flows_deterministic(sim_out, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli("analyze", "flows", "--in", str(sim_out / "traces"), "--out", str(a))
    run_cli("analyze", "flows", "--in", str(sim_out / "traces"), "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_analyze_overlap_with_spec_defaults(sim_out, tmp_path):
    out_csv = tmp_path / "overlap.csv"
    proc = run_cli("analyze", "overlap", "--in", str(sim_out / "traces"),
                   "--out", str(out_csv), "--min-packets", "5", "--no-top-fraction", "--json")
    doc = json.loads(proc.stdout)
    assert doc["sensors"] == ["s1", "s2"]
    rows = out_csv.read_text().splitlines()
    assert rows[0] == "sensor,s1,s2"
    summary = json.loads((tmp_path / "overlap.csv.json").read_text())
    assert summary["min_packets"] == 5
    assert summary["window"][0] <= summary["window"][1]


def test_analyze_portcdf(sim_out, tmp_path):
    out_csv = tmp_path / "portcdf.csv"
    run_cli("analyze", "portcdf", "--in", str(sim_out / "traces"), "--out", str(out_csv))
    rows = out_csv.read_text().splitlines()
    assert rows[0] == "port,count,cumulative_fraction"
    assert rows[-1].split(",")[2] == "1.000000"
    ports = [int(r.split(",")[0]) for r in rows[1:]]
    assert ports == sorted(ports)
    assert 9200 in ports and 22 in ports


def test_analyze_timeline(sim_out, tmp_path):
    out_csv = tmp_path / "timeline.csv"
    run_cli("analyze", "timeline", "--in", str(sim_out), "--out", str(out_csv))
    rows = out_csv.read_text().splitlines()
    assert rows[0] == "sensor,day,min,mean,max,total"
    assert len(rows) >= 3  # two sensors, one day each at least


def test_sync_cli_roundtrip(sim_out, tmp_path):
    lake = tmp_path / "lake"
    local = tmp_path / "local"
    local.mkdir()
    import shutil

    for f in (sim_out / "traces").iterdir():
        shutil.copy(f, local / f.name)
    for f in local.glob("*.pcap"):
        f.chmod(0o644)
    proc = run_cli("sync", "run", "--local", str(local), "--lake", str(lake),
                   "--retention-hours", "99999", "--json")
    doc = json.loads(proc.stdout)
    assert doc["uploaded"] == 2 and doc["deleted"] == 0
    status = json.loads(run_cli("sync", "status", "--local", str(local), "--json").stdout)
    assert len(status["sealed_files"]) == 2
    again = json.loads(
        run_cli("sync", "run", "--local", str(local), "--lake", str(lake),
                "--retention-hours", "99999", "--json").stdout
    )
    assert again["uploaded"] == 0 and again["skipped"] == 2


def test_analyze_reads_a_lake(sim_out, tmp_path):
    local, lake = tmp_path / "local", tmp_path / "lake"
    shutil.copytree(sim_out / "traces", local)
    run_cli("sync", "run", "--local", str(local), "--lake", str(lake), "--retention-hours", "99999")
    assert not list(lake.rglob("*.pcap.meta.json"))  # lake layout: HH.pcap, HH.meta.json
    from_lake, from_local = tmp_path / "lake.csv", tmp_path / "local.csv"
    run_cli("analyze", "flows", "--in", str(lake), "--out", str(from_lake))
    run_cli("analyze", "flows", "--in", str(sim_out / "traces"), "--out", str(from_local))
    assert len(from_local.read_text().splitlines()) > 1
    assert from_lake.read_bytes() == from_local.read_bytes()


# what only the controller, agent and operator commands may load
CONTROL_PLANE_MODULES = ("cryptography", "holo.overlay", "holo.hub", "holo.controlplane", "holo.agent")

PROBE = (
    "import json, sys\n"
    "from holo import cli\n"
    "code = cli.main(sys.argv[1:])\n"
    f"print(json.dumps([code, sorted(m for m in {CONTROL_PLANE_MODULES!r} if m in sys.modules)]))\n"
)


@pytest.mark.parametrize("command", [
    "analyze flows", "analyze overlap", "analyze portcdf", "analyze timeline",
    "sync run", "sync status", "sim run",
])
def test_analysis_sync_and_sim_load_no_control_plane(command, sim_out, tmp_path):
    local = tmp_path / "local"
    shutil.copytree(sim_out / "traces", local)
    config = tmp_path / "sim.yaml"
    config.write_text(yaml.safe_dump({**SIM_YAML, "duration": 60}))
    analyze = ["--in", str(sim_out), "--out", str(tmp_path / "out.csv")]
    args = {
        "analyze flows": analyze,
        "analyze overlap": analyze + ["--min-packets", "5"],
        "analyze portcdf": analyze,
        "analyze timeline": analyze,
        "sync run": ["--local", str(local), "--lake", str(tmp_path / "lake")],
        "sync status": ["--local", str(local)],
        "sim run": ["-f", str(config), "--out", str(tmp_path / "sim")],
    }
    argv = command.split() + args[command]
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], capture_output=True, text=True, timeout=60)
    code, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    assert loaded == []


ERROR_ROOTS = [
    ("controlplane", "ControlPlaneError"),
    ("collector", "CollectorError"),
    ("simnet", "ConfigInvalid"),
    ("overlay", "OverlayError"),
    ("darknet", "DarknetError"),
    ("analysis", "AnalysisError"),
    ("toolbox", "ToolboxError"),
    ("responder", "ResponderError"),
]


def test_the_eight_error_roots_are_exactly_the_holo_errors():
    import holo

    roots = {getattr(importlib.import_module(f"holo.{module}"), name) for module, name in ERROR_ROOTS}
    assert set(holo.HoloError.__subclasses__()) == roots


@pytest.mark.parametrize("module, name", ERROR_ROOTS)
def test_an_error_root_raised_by_a_subcommand_exits_1(module, name, tmp_path, monkeypatch, capsys):
    from holo import cli, collector

    error = getattr(importlib.import_module(f"holo.{module}"), name)

    def fail(directory):
        raise error("the lake is on fire")

    monkeypatch.setattr(collector, "list_sealed", fail)
    assert cli.main(["sync", "status", "--local", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {name}: the lake is on fire\n"
