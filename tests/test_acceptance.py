"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion. Criteria 1-3 share one seeded two-day simulation.
"""

import base64
import random
import time
from collections import Counter

import pytest

from holo import analysis, collector, controlplane as cp, overlay, simnet, toolbox
from holo.collector import HourlyWriter, LocalLake, SyncPolicy, bucket_start_us, list_sealed, sync
from holo.net import int_to_ip, ip_to_int
from holo.controlplane import (
    Action,
    Controller,
    ModuleSpec,
    Principal,
    SensorDescriptor,
    apply_actions,
)
from holo.packets import PROTO_TCP, TCP_RST, TCP_SYN, TCP_ACK, FlowKey, PacketRecord
from holo.simnet import ScannerProfile, SimConfig, SimSensor, scripted_client

from flow_reference import tables_of

ADMIN = Principal("admin", cp.ROLE_ADMIN)


def report(criterion: int, text: str) -> None:
    print(f"\n[ACCEPTANCE {criterion}] PASS -- {text}")


# ---------------------------------------------------------------------------
# shared two-day seeded run for criteria 1-3


@pytest.fixture(scope="module")
def two_day_run():
    config = SimConfig(
        seed=20250801,
        duration=2 * 86_400,
        sensors=[
            SimSensor("s1", ["10.9.1.0/24"]),
            SimSensor("s2", ["10.9.2.0/24"]),
            SimSensor("s3", ["10.9.3.0/24"]),
        ],
        scanners=[
            ScannerProfile("sweep", "uniform", src_ip="203.0.113.10", rate=0.6,
                           port_model="ssh-telnet-iot"),
            ScannerProfile("targeted", "prefix", src_ip="203.0.113.20", rate=0.4,
                           port_model="bgp-prober", prefixes=["10.9.2.0/24"]),
            ScannerProfile("backscatter", "backscatter", rate=0.25, port_model="es-ddos",
                           victims=[f"198.18.0.{i}" for i in range(1, 9)]),
            # threshold-boundary senders for criterion 2: exactly 499 and
            # exactly 500 packets into sensor s1 over the whole run
            ScannerProfile("edge499", "prefix", src_ip="203.0.113.99", rate=1.0,
                           port_model={22: 1.0}, prefixes=["10.9.1.0/24"], total_packets=499),
            ScannerProfile("edge500", "prefix", src_ip="203.0.113.98", rate=1.0,
                           port_model={23: 1.0}, prefixes=["10.9.1.0/24"], total_packets=500),
        ],
    )
    started = time.monotonic()
    run_report = simnet.run(config)
    elapsed = time.monotonic() - started
    flows = {}
    for sensor in ("s1", "s2", "s3"):
        per_sensor = []
        for day, pkts in sorted(analysis.bucket_by_day(run_report.paths[sensor].captured).items()):
            per_sensor.extend(analysis.aggregate_flows(pkts, day))
        flows[sensor] = per_sensor
    return config, run_report, flows, elapsed


def test_criterion_01_end_to_end_flow_equality(two_day_run):
    """3 /24 sensors, mixed scanners, 2 simulated days: flows == ground truth."""
    config, run_report, flows, elapsed = two_day_run
    total_packets = len(run_report.ground_truth)
    assert total_packets > 100_000
    for sensor in ("s1", "s2", "s3"):
        aggregated = {
            (rec.day, rec.key): rec.packets for rec in flows[sensor]
        }
        expected = run_report.expected_flows_by_day(sensor)
        assert aggregated == expected, f"{sensor}: flow multiset differs from ground truth"
    assert elapsed < 60.0, f"two-day run took {elapsed:.1f}s"
    report(1, f"{total_packets} packets, flow multisets exact on 3 sensors, {elapsed:.1f}s runtime")


def test_criterion_02_overlap_oracle_and_threshold(two_day_run):
    """Overlap matrix equals set enumeration; 499-packet sender excluded."""
    _, run_report, flows, _ = two_day_run
    min_packets = 500
    matrix = analysis.common_sender_ratio(tables_of(flows), window_days=15, min_packets=min_packets)

    # set-enumeration oracle straight from the ground-truth registry
    per_sensor_counts: dict[str, Counter] = {s: Counter() for s in ("s1", "s2", "s3")}
    for gt in run_report.ground_truth:
        if gt.expect_capture:
            per_sensor_counts[gt.sensor][gt.src_ip] += 1
    oracle_sets = {
        sensor: {ip for ip, n in counts.items() if n >= min_packets}
        for sensor, counts in per_sensor_counts.items()
    }
    sensors = matrix.sensors
    for i, si in enumerate(sensors):
        for j, sj in enumerate(sensors):
            inter = oracle_sets[si] & oracle_sets[sj]
            expect = len(inter) / len(oracle_sets[si]) if oracle_sets[si] else 0.0
            assert matrix.ratio[i][j] == expect, f"ratio[{si}][{sj}]"
        assert matrix.ratio[i][i] == 1.0

    # threshold boundary inside the same run
    assert "203.0.113.99" not in oracle_sets["s1"]  # 499 packets: excluded
    assert "203.0.113.98" in oracle_sets["s1"]  # 500 packets: included
    assert "203.0.113.99" not in matrix.sender_sets["s1"]
    assert "203.0.113.98" in matrix.sender_sets["s1"]
    report(2, "overlap matrix equals set-enumeration oracle; 499 excluded / 500 included")


def test_criterion_03_darknet_silence(two_day_run):
    """Zero outbound packets with darknet source addresses over the run."""
    _, run_report, _, _ = two_day_run
    suppressed = 0
    for sensor, counters in run_report.counters.items():
        assert counters["darknet_src_leaks"] == 0, f"{sensor} leaked darknet-sourced packets"
        assert counters["outbound_emitted"] == 0  # darknet-only sensors stay mute
        suppressed += counters["outbound_suppressed"]
    assert suppressed > 100_000  # the drop rules did real work
    report(3, f"0 darknet-sourced packets emitted; {suppressed} host responses suppressed")


def test_criterion_04_responder_fidelity():
    """1,000 scripted dialogs: all handshakes complete, captures byte-equal, no RST."""
    sensor = SimSensor(
        "hp", ["10.9.9.0/24"],
        responder={"ip_ranges": ["10.9.9.0/26"], "ports": ["1-1023"], "max_capture_bytes": 4096},
        egress_rate=1e6, egress_burst=1e6,
    )
    path = simnet.SensorPath(sensor)
    cap = 4096
    sent: dict[tuple, bytes] = {}
    synacks = 0
    start = simnet.DEFAULT_START_US
    for i in range(1000):
        payload = (f"dialog-{i}:".encode() + bytes((i + k) % 256 for k in range(i % 600))) * (
            8 if i % 97 == 0 else 1
        )
        src_ip = f"203.0.{(i >> 8) & 255}.{(i & 255) or 1}"
        src_port = 40_000 + (i % 20_000)
        dst_ip = f"10.9.9.{i % 64}"
        dst_port = 1 + (i % 1023)
        transcript = scripted_client(
            path, dst_ip, dst_port,
            [("syn",), ("ack",), ("data", payload), ("fin",)],
            src_ip=src_ip, src_port=src_port,
            start_ts=start + i * 2_000_000,
        )
        server_segments = [t for t in transcript if int_to_ip(t.record.src_ip) == dst_ip]
        synacks += sum(
            1 for t in server_segments
            if t.record.tcp_flags == (TCP_SYN | TCP_ACK)
        )
        sent[(src_ip, src_port, dst_ip, dst_port)] = payload

    assert synacks == 1000, f"{synacks} handshakes completed"
    events = path.responder_events
    assert len(events) == 1000
    for event in events:
        key = (event["src_ip"], event["src_port"], event["dst_ip"], event["dst_port"])
        captured = base64.b64decode(event["captured_b64"])
        expected = sent[key][:cap]
        assert captured == expected, f"capture mismatch for {key}"
    assert path.counters.rst_emitted == 0
    # every outbound segment went through the egress limiter path
    assert path.counters.outbound_emitted == sum(
        1 for _ in range(1000) for _ in range(3)
    ) == 3000  # SYN/ACK + data ACK + FIN ACK per dialog
    report(4, "1000/1000 handshakes, captures byte-equal (cap respected), 0 RSTs emitted")


def test_criterion_05_rate_bound_under_overload():
    """10x overload: grants over every sliding 1s window <= burst + rate."""
    rate, burst = 100.0, 100.0
    bucket = toolbox.TokenBucket(rate=rate, burst=burst)
    grants = []
    # 64 requests per second of 16 packets each: ~1024 pkt/s demand, 10x the
    # rate; timestamps on a 1/64s grid keep every refill float-exact
    for tick in range(4 * 64):
        now = tick / 64.0
        granted = toolbox.allow(bucket, now, 16)
        if granted:
            grants.append((now, granted))
    demand = 4 * 64 * 16
    total = sum(g for _, g in grants)
    assert total < demand
    for start, _ in grants:
        window = sum(g for t, g in grants if start <= t <= start + 1.0)
        assert window <= burst + rate * 1.0, f"window at {start}: {window}"
    # exact long-run bound over the whole schedule
    assert total <= burst + rate * 4.0
    report(5, f"overload granted {total}/{demand}; every 1s window <= {int(burst + rate)}")


def test_criterion_06_rotation_partition(tmp_path):
    """10^6 packets over 3 simulated hours: exactly 3 sealed files, counts sum."""
    writer = HourlyWriter(tmp_path, "s1")
    start = bucket_start_us("2025-08-01-10")
    hour_us = 3_600_000_000
    span = 3 * hour_us
    n = 1_000_000
    raw = b"\x45" + b"\x00" * 39
    rec = PacketRecord(ts=0, src_ip=ip_to_int("198.51.100.7"), dst_ip=ip_to_int("10.9.0.5"), proto=PROTO_TCP,
                       src_port=40000, dst_port=22, tcp_flags=TCP_SYN)
    # pin the first packet of each later hour to the exact boundary
    # timestamp so the floor rule is exercised at 11:00:00.000000 etc.
    boundary_at = {-(-(edge * hour_us * n) // span): edge * hour_us for edge in (1, 2)}
    for i in range(n):
        rec.ts = start + boundary_at.get(i, i * span // n)
        writer.append(rec, raw)
    writer.seal()
    metas = writer.sealed
    assert len(metas) == 3
    assert sum(m.packet_count for m in metas) == n
    assert [m.hour_bucket for m in metas] == ["2025-08-01-10", "2025-08-01-11", "2025-08-01-12"]
    # floor-to-hour oracle: i belongs to hour h iff i*span//n in [h, h+1) hours
    expect = [0, 0, 0]
    for edge in range(3):
        lo = -(-(edge * hour_us * n) // span)  # ceil division
        hi = -(-((edge + 1) * hour_us * n) // span)
        expect[edge] = min(hi, n) - lo
    assert [m.packet_count for m in metas] == expect
    report(6, f"3 sealed files {[m.packet_count for m in metas]}, sum {n}, floor rule exact")


def test_criterion_07_reconciliation_restart_and_capability():
    """A killed responder instance is Running again within 3 heartbeats."""
    clock_value = [1000.0]
    controller = Controller(clock=lambda: clock_value[0], heartbeat_interval=10.0)
    from holo.agent import AgentCore

    desc = SensorDescriptor("A1", "org-a", "ITA", ["10.9.1.0/24"],
                            honeypot_allowed=True, workload_allowed=True)
    token = controller.issue_token(ADMIN, "A1", 3600.0)
    _, pub = overlay.generate_keypair()
    controller.onboard(token.token, pub, desc)
    agent = AgentCore("A1", clock=lambda: clock_value[0], descriptor=desc)

    def heartbeat_cycle():
        controller.heartbeat("A1", agent.heartbeat_fragment())
        for action in controller.actions_for("A1"):
            agent.apply_action(action)

    spec = ModuleSpec("responder", "hp", {"ip_ranges": ["10.9.1.0/28"], "ports": ["22"]},
                      target_ids=["A1"])
    controller.set_desired(ADMIN, spec)
    heartbeat_cycle()
    assert agent.instances["hp-0"].status == cp.ST_RUNNING

    # kill it mid-run; count heartbeat intervals until Running again
    agent.kill_instance("hp-0")
    intervals = 0
    restart_seen = False
    while intervals < 3:
        clock_value[0] += 10.0
        intervals += 1
        controller.heartbeat("A1", agent.heartbeat_fragment())
        actions = controller.actions_for("A1")
        if any(a.kind == "restart" and a.instance_id == "hp-0" for a in actions):
            restart_seen = True
        for action in actions:
            agent.apply_action(action)
        if agent.instances["hp-0"].status == cp.ST_RUNNING:
            break
    assert restart_seen, "no Restart action was issued"
    assert agent.instances["hp-0"].status == cp.ST_RUNNING
    assert intervals <= 3

    # capability: responder deploys to a non-honeypot sensor always fail
    desc_d = SensorDescriptor("D1", "org-d", "ITA", ["10.9.4.0/24"], honeypot_allowed=False)
    token = controller.issue_token(ADMIN, "D1", 3600.0)
    _, pub = overlay.generate_keypair()
    controller.onboard(token.token, pub, desc_d)
    rejected = 0
    for k in range(20):
        attempt = ModuleSpec("responder", f"bad{k}",
                             {"ip_ranges": ["10.9.4.0/28"], "ports": [str(22 + k)]},
                             target_ids=["D1"], replicas=1 + k % 3)
        with pytest.raises(cp.CapabilityDenied):
            controller.set_desired(ADMIN, attempt)
        rejected += 1
    assert rejected == 20
    report(7, f"restart within {intervals} heartbeat intervals; 20/20 responder deploys rejected")


def test_criterion_08_overlay_policy_fuzz_and_replay():
    """Sensor-to-sensor frames and replays are rejected 100% of the time."""
    hub_priv, hub_pub = overlay.generate_keypair()
    hub_id = overlay.PeerIdentity("hub", hub_pub, overlay.Role.HUB)
    registry = {}
    sessions = {}
    for name in ("A1", "B1"):
        priv, pub = overlay.generate_keypair()
        peer = overlay.PeerIdentity(name, pub, overlay.Role.SENSOR)
        registry[name] = peer
        half, init = overlay.handshake_initiate(peer, priv, hub_id)
        hub_session, resp = overlay.handshake_respond(hub_id, hub_priv, registry, init)
        sessions[name] = (overlay.handshake_finalize(half, resp), hub_session)

    rng = random.Random(88)
    rejected = 0
    trials = 400
    for i in range(trials):
        src = rng.choice(["A1", "B1"])
        dst = "B1" if src == "A1" else "A1"
        sensor_session, _ = sessions[src]
        if rng.random() < 0.5:
            frame = sensor_session.seal(bytes(rng.randrange(256) for _ in range(rng.randrange(128))))
            frame = overlay.Frame(frame.msg_type, src, dst, frame.ciphertext)
        else:
            frame = overlay.Frame(
                overlay.MsgType(rng.randrange(1, 6)), src, dst,
                bytes(rng.randrange(256) for _ in range(rng.randrange(128))),
            )
        decision = overlay.hub_route("hub", registry, frame)
        assert decision.decision is overlay.Decision.REJECT_POLICY
        rejected += 1
    assert rejected == trials

    replays = 200
    replay_rejected = 0
    sensor_session, hub_session = sessions["A1"]
    for i in range(replays):
        frame = sensor_session.seal(b"\x00" + bytes([i % 256]))
        assert overlay.hub_route("hub", registry, frame).deliver
        hub_session.open(frame)
        with pytest.raises(overlay.ReplayDetected):
            hub_session.open(frame)
        replay_rejected += 1
    assert replay_rejected == replays
    report(8, f"{trials}/{trials} sensor-to-sensor frames rejected; {replays}/{replays} replays rejected")


class _SimCrash(Exception):
    pass


class _CrashingLake:
    def __init__(self, inner, fail_at):
        self.inner, self.fail_at, self.ops = inner, fail_at, 0

    def _tick(self):
        self.ops += 1
        if self.ops == self.fail_at:
            raise _SimCrash(f"op {self.ops}")

    def part_size(self, *a):
        self._tick()
        return self.inner.part_size(*a)

    def put_chunk(self, *a):
        self._tick()
        return self.inner.put_chunk(*a)

    def finalize(self, *a):
        self._tick()
        return self.inner.finalize(*a)

    def verified_hash(self, *a):
        self._tick()
        return self.inner.verified_hash(*a)


def test_criterion_09_sync_safety_under_crashes(tmp_path):
    """Crash at every sync step: deletion only ever follows a verified copy."""

    def make_local(base):
        writer = HourlyWriter(base / "local", "s1")
        start = bucket_start_us("2025-08-01-00")
        rec = PacketRecord(ts=0, src_ip=ip_to_int("1.1.1.1"), dst_ip=ip_to_int("10.9.0.5"), proto=PROTO_TCP,
                           src_port=1, dst_port=22, tcp_flags=TCP_SYN)
        for h in range(3):
            for p in range(4):
                rec.ts = start + h * 3_600_000_000 + p * 1000
                writer.append(rec)
        writer.seal()
        return base / "local", writer.sealed

    now = bucket_start_us("2025-08-01-02") / 1e6 + 30 * 24 * 3600.0
    policy = SyncPolicy(retention_hours=1)

    probe_dir = tmp_path / "probe"
    local, _ = make_local(probe_dir)
    probe = _CrashingLake(LocalLake(probe_dir / "lake"), fail_at=10**9)
    sync(policy, local, probe, now=now)
    total_ops = probe.ops
    assert total_ops >= 9  # 3 files x (query, upload, finalize) at minimum

    checked = 0
    for fail_at in range(1, total_ops + 1):
        base = tmp_path / f"crash{fail_at}"
        local, metas = make_local(base)
        lake = LocalLake(base / "lake")
        try:
            sync(policy, local, _CrashingLake(lake, fail_at), now=now)
        except _SimCrash:
            pass
        # invariant: anything gone locally is hash-verified in the lake
        local_buckets = {m.hour_bucket for _, m in list_sealed(local)}
        for meta in metas:
            if meta.hour_bucket not in local_buckets:
                assert lake.verified_hash("s1", meta.hour_bucket) == meta.content_hash
        # recovery converges the lake to the sealed set
        sync(policy, local, lake, now=now)
        assert {("s1", m.hour_bucket) for m in metas} == set(lake.holdings())
        for meta in metas:
            assert lake.verified_hash("s1", meta.hour_bucket) == meta.content_hash
        checked += 1
    report(9, f"crash injected at each of {checked} steps; no unverified deletion, lake converged")


def test_criterion_10_footprint_informational():
    """Idle sensor agent resident memory < 200 MB (informational)."""
    import subprocess
    import sys

    code = (
        "from holo.agent import AgentCore\n"
        "from holo.controlplane import ModuleSpec, Action\n"
        "core = AgentCore('probe')\n"
        "spec = ModuleSpec('darknet', 'dk', {'ranges': ['10.9.1.0/24']}, target_ids=['probe'])\n"
        "core.apply_action(Action('start', 'probe', 'dk-0', spec))\n"
        "rss = 0\n"
        "for line in open('/proc/self/status'):\n"
        "    if line.startswith('VmRSS'):\n"
        "        rss = int(line.split()[1])\n"
        "print(rss)\n"
    )
    try:
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
        rss_kb = int(out.stdout.strip())
    except (OSError, ValueError):
        pytest.skip("resident-memory probe unavailable on this platform")
    rss_mb = rss_kb / 1024
    assert rss_mb < 200, f"idle agent resident memory {rss_mb:.0f} MB"
    report(10, f"idle agent resident memory {rss_mb:.0f} MB (< 200 MB)")
