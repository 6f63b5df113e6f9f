"""Hub server and agent over real sockets, in one process."""

import io
import json
import os
import socket
import sys
import threading
import time

import pytest

from holo import cli, collector, controlplane as cp, overlay
from holo.analysis import index_flow_logs
from holo.agent import AgentCore, AgentProcess, OverlayLakeClient, onboard
from holo.collector import HourlyWriter, SyncPolicy, bucket_start_us, sync
from holo.hub import HubServer, admin_request, read_frame
from holo.net import ip_to_int
from holo.packets import PROTO_TCP, TCP_SYN, PacketRecord

ADMIN = "admin"


@pytest.fixture
def hub(tmp_path):
    controller = cp.Controller(data_dir=tmp_path / "controller", heartbeat_interval=0.5)
    server = HubServer(controller)
    controller.hub_address = server.address
    server.start()
    yield server
    server.stop()
    controller.close()


def join(hub, tmp_path, sensor_id="A1", honeypot=True):
    reply = admin_request(
        hub.address,
        {"op": "token_new", "principal": ADMIN, "sensor_id": sensor_id, "ttl": 600},
    )
    desc = cp.SensorDescriptor(sensor_id, "org-a", "ITA", ["10.9.1.0/24"],
                               honeypot_allowed=honeypot, workload_allowed=True)
    identity = onboard(hub.address, reply["token"], desc)
    core = AgentCore(sensor_id, data_dir=tmp_path / f"agent-{sensor_id}", descriptor=desc)
    proc = AgentProcess(identity, core, hub_address=hub.address)
    proc.connect()
    return proc, core


def test_heartbeat_applies_actions_over_sockets(hub, tmp_path):
    proc, core = join(hub, tmp_path)
    try:
        spec = cp.ModuleSpec("darknet", "dk", {"ranges": ["10.9.1.0/25"]}, target_ids=["A1"])
        admin_request(hub.address, {"op": "deploy", "principal": ADMIN, "spec": spec.to_doc()})
        proc.heartbeat_once()  # receives the start action
        assert "dk-0" in core.instances
        proc.heartbeat_once()  # reports running; converged
        status = hub.controller.status()
        instances = status["sensors"][0]["instances"]
        assert [i["status"] for i in instances] == ["running"]
    finally:
        proc.stop()


def test_keepalive_refreshes_session(hub, tmp_path):
    proc, _ = join(hub, tmp_path)
    try:
        proc.heartbeat_once()
        session = hub.sessions["A1"]
        before = session.last_recv_at
        time.sleep(0.05)
        proc.send_keepalive()
        proc.heartbeat_once()  # forces the server loop past the keepalive
        assert hub.sessions["A1"].last_recv_at >= before
    finally:
        proc.stop()


def test_session_expiry_arithmetic(session_pair):
    sensor_session, _ = session_pair
    sensor_session.last_recv_at = 100.0
    assert not sensor_session.expired(100.0 + 74.9)
    assert sensor_session.expired(100.0 + 75.1)  # 3 keepalives of 25s missed


def test_log_channel_lands_in_hub_logs(hub, tmp_path):
    proc, _ = join(hub, tmp_path)
    try:
        proc.send_log({"level": "info", "msg": "responder started"})
        log_path = hub.controller.data_dir / "logs" / "A1.jsonl"
        assert json.loads(log_path.read_text())["msg"] == "responder started"
    finally:
        proc.stop()


def test_trace_sync_over_overlay_channel(hub, tmp_path):
    proc, _ = join(hub, tmp_path)
    try:
        local = tmp_path / "traces"
        writer = HourlyWriter(local, "A1")
        base = bucket_start_us("2025-08-01-00")
        for h in range(2):
            for p in range(5):
                writer.append(PacketRecord(
                    ts=base + h * 3_600_000_000 + p, src_ip=ip_to_int("1.1.1.1"), dst_ip=ip_to_int("10.9.1.5"),
                    proto=PROTO_TCP, src_port=1, dst_port=22, tcp_flags=TCP_SYN,
                ))
        writer.seal()
        metas = [meta for _, meta in collector.list_sealed(local)]
        lake_client = OverlayLakeClient(proc)
        report = sync(SyncPolicy(retention_hours=99999), local, lake_client, now=0.0)
        assert report.uploaded == 2
        # the hub's lake now holds hash-verified copies
        for meta in metas:
            assert hub.lake.verified_hash("A1", meta.hour_bucket) == meta.content_hash
        again = sync(SyncPolicy(retention_hours=99999), local, lake_client, now=0.0)
        assert again.uploaded == 0 and again.skipped == 2
    finally:
        proc.stop()


def test_overlay_lake_analyzes_like_the_local_traces(hub, tmp_path):
    """The hub's lake builds a flow log for every upload, and `holo analyze`
    on it gives the local traces' flows, with and without them."""
    proc, _ = join(hub, tmp_path)
    try:
        local = tmp_path / "traces"
        writer = HourlyWriter(local, "A1")
        base = bucket_start_us("2025-08-01-00")
        for h in range(3):
            for p in range(6):
                writer.append(PacketRecord(
                    ts=base + h * 3_600_000_000 + p, src_ip=ip_to_int(f"1.1.1.{p % 2}"),
                    dst_ip=ip_to_int("10.9.1.5"), proto=PROTO_TCP, src_port=1, dst_port=22 + h,
                    tcp_flags=TCP_SYN, payload_len=p, payload_prefix=b"x" * p,
                ))
        writer.close()
        want = cli._sensor_flows(local)
        sync(SyncPolicy(retention_hours=99999), local, OverlayLakeClient(proc), now=0.0)
        logs = sorted(hub.lake.root.rglob("*.flows"))
        assert [f.name for f in logs] == ["00.flows", "01.flows", "02.flows"]
        blocks = index_flow_logs(logs)
        for pcap_path, meta in collector.sealed_traces(hub.lake.root):
            assert (pcap_path.parent, meta.content_hash) in blocks
        assert cli._sensor_flows(hub.lake.root) == want
        for log in logs:
            log.unlink()
        assert cli._sensor_flows(hub.lake.root) == want
    finally:
        proc.stop()


def test_overlay_sync_resends_a_mismatched_hour_once_then_raises(hub, tmp_path, monkeypatch):
    """The hub's lake stores zeros, so each finalize fails its hash: the
    client reports HashMismatch, not an outage to back off from."""
    put_chunk = hub.lake.put_chunk
    finalized = []
    monkeypatch.setattr(hub.lake, "put_chunk", lambda s, b, offset, data: put_chunk(s, b, offset, bytes(len(data))))
    finalize = hub.lake.finalize
    monkeypatch.setattr(hub.lake, "finalize", lambda *a: (finalized.append(a[1]), finalize(*a)))
    proc, _ = join(hub, tmp_path)
    try:
        local = tmp_path / "traces"
        writer = HourlyWriter(local, "A1")
        writer.append(PacketRecord(
            ts=bucket_start_us("2025-08-01-00"), src_ip=ip_to_int("1.1.1.1"), dst_ip=ip_to_int("10.9.1.5"),
            proto=PROTO_TCP, src_port=1, dst_port=22, tcp_flags=TCP_SYN,
        ))
        writer.close()
        sleeps = []
        with pytest.raises(collector.HashMismatch):
            sync(SyncPolicy(retention_hours=99999), local, OverlayLakeClient(proc), now=0.0, sleep=sleeps.append)
        assert finalized == ["2025-08-01-00"] * 2 and sleeps == []
    finally:
        proc.stop()


def test_trace_channel_rejects_foreign_sensor_id(hub, tmp_path):
    proc, _ = join(hub, tmp_path)
    try:
        lake_client = OverlayLakeClient(proc)
        with pytest.raises(collector.LakeUnreachable):
            lake_client._call({"op": "chunk", "sensor": "B9", "bucket": "2025-08-01-00",
                               "offset": 0}, b"data")
    finally:
        proc.stop()


def test_hub_logs_policy_violation_event(hub, tmp_path):
    proc, _ = join(hub, tmp_path)
    try:
        proc.heartbeat_once()
        # hand-craft a sensor-to-sensor frame on the live connection
        with proc._io_lock:
            frame = proc.session.seal(b"\x00attack")
            forged = overlay.Frame(frame.msg_type, "A1", "B7", frame.ciphertext)
            proc._sock.sendall(overlay.encode_frame(forged))
        proc.heartbeat_once()  # forces the server loop to process the frame
        kinds = [e["event"] for e in hub.events]
        assert "frame-rejected" in kinds
        rejected = [e for e in hub.events if e["event"] == "frame-rejected"][0]
        assert rejected["dst"] == "B7"
    finally:
        proc.stop()


def test_handshake_with_unknown_sensor_rejected(hub):
    priv, pub = overlay.generate_keypair()
    ghost = overlay.PeerIdentity("ghost", pub, overlay.Role.SENSOR)
    hub_peer = overlay.PeerIdentity(
        hub.controller.hub_id, hub.controller.hub_public, overlay.Role.HUB
    )
    _, init = overlay.handshake_initiate(ghost, priv, hub_peer)
    import socket as socket_mod

    host, _, port = hub.address.rpartition(":")
    with socket_mod.create_connection((host, int(port)), timeout=5) as sock:
        sock.sendall(overlay.encode_frame(init))
        data = sock.recv(1024)
    assert data == b""  # connection closed without a handshake response
    assert any(e["event"] == "handshake-rejected" for e in hub.events)


def test_admin_unknown_op_and_bad_principal(hub):
    reply = admin_request(hub.address, {"op": "frobnicate"})
    assert reply["error"] == "UnknownOp"
    reply = admin_request(hub.address, {"op": "status", "principal": "nobody"})
    assert reply["error"] == "Unauthorized"


def test_merged_program_carves_responder_space_out_of_darknet():
    """A responder inside a darknet /24 must not fall under the drop rules."""
    from holo import toolbox
    from holo.assembly import assemble
    from holo.packets import TCP_ACK

    specs = [
        cp.ModuleSpec("darknet", "dk", {"ranges": ["10.9.1.0/24"]}, target_ids=["A1"]),
        cp.ModuleSpec("responder", "hp", {"ip_ranges": ["10.9.1.240/28"], "ports": ["1-1023"]},
                      target_ids=["A1"]),
    ]
    program, limiters, _ = assemble([(s.module_kind, s.params) for s in specs])
    synack = PacketRecord(ts=0, src_ip=ip_to_int("10.9.1.241"), dst_ip=ip_to_int("203.0.113.5"), proto=PROTO_TCP,
                          src_port=80, dst_port=41000, tcp_flags=TCP_SYN | TCP_ACK)
    action = toolbox.evaluate(program, synack, toolbox.OUT)
    assert action.kind == toolbox.ACT_RATELIMIT  # not dropped
    dark = PacketRecord(ts=0, src_ip=ip_to_int("10.9.1.7"), dst_ip=ip_to_int("203.0.113.5"), proto=PROTO_TCP,
                        src_port=22, dst_port=41000, tcp_flags=TCP_SYN | TCP_ACK)
    assert toolbox.evaluate(program, dark, toolbox.OUT).kind == toolbox.ACT_DROP
    assert limiters["egress"] == (100.0, 100.0)


def test_agent_identity_restart_reconnects(hub, tmp_path):
    proc, _ = join(hub, tmp_path, sensor_id="R1")
    ident_path = tmp_path / "ident.json"
    proc.identity.save(ident_path)
    proc.stop()

    from holo.agent import AgentIdentity

    identity = AgentIdentity.load(ident_path)
    core = AgentCore("R1")
    proc2 = AgentProcess(identity, core, hub_address=hub.address)
    proc2.connect()
    try:
        assert proc2.heartbeat_once()["ack"] is True
    finally:
        proc2.stop()


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.01)


class GarblingHub:
    """Listens on a stopped hub's port and answers handshakes with garbage:
    first a response whose ciphertext fails to verify, then a frame of an
    unknown message type."""

    def __init__(self, host, port):
        self.listener = socket.create_server((host, port))
        self.listener.settimeout(0.05)
        self.answered = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while not self._stop.is_set():
            try:
                conn, _ = self.listener.accept()
            except socket.timeout:
                continue
            with conn, conn.makefile("rb") as reader:
                conn.settimeout(5)
                init = read_frame(reader)
                if self.answered % 2 == 0:
                    bad = overlay.encode_frame(overlay.Frame(
                        overlay.MsgType.HANDSHAKE_RESP, "hub", init.src_id, os.urandom(48)))
                else:
                    bad = bytes([overlay.PROTOCOL_VERSION, 99, 0, 0]) + b"\x00" * 4
                conn.sendall(bad)
                self.answered += 1

    def close(self):
        self._stop.set()
        self._thread.join()
        self.listener.close()


def test_agent_survives_hub_restart_and_bad_handshake(tmp_path):
    controller = cp.Controller(data_dir=tmp_path / "controller", heartbeat_interval=0.5)
    server = HubServer(controller)
    controller.hub_address = server.address
    host, _, port = server.address.rpartition(":")
    port = int(port)
    server.start()
    proc, _ = join(server, tmp_path)
    runner = threading.Thread(target=proc.run, kwargs={"interval": 0.05}, daemon=True)
    runner.start()
    try:
        first = controller.reported["A1"].last_heartbeat
        wait_until(lambda: controller.reported["A1"].last_heartbeat > first)

        server.stop()
        garbling = GarblingHub(host, port)
        proc._sock.shutdown(socket.SHUT_RDWR)  # the hub's end of the session is gone
        wait_until(lambda: garbling.answered >= 2)
        garbling.close()
        assert runner.is_alive()

        server = HubServer(controller, host=host, port=port)
        server.start()
        since = controller.reported["A1"].last_heartbeat
        wait_until(lambda: controller.reported["A1"].last_heartbeat > since)
        assert runner.is_alive()
    finally:
        proc.stop()
        runner.join(timeout=10)
        server.stop()
        controller.close()
    assert not runner.is_alive()


def test_read_frame_rejects_unknown_message_type():
    raw = bytes([overlay.PROTOCOL_VERSION, 99, 1]) + b"A" + bytes([1]) + b"B" + b"\x00" * 4
    with pytest.raises(overlay.FrameError):
        read_frame(io.BytesIO(raw))
    bad_id = bytes([overlay.PROTOCOL_VERSION, 3, 1]) + b"\xff" + bytes([1]) + b"B" + b"\x00" * 4
    with pytest.raises(overlay.FrameError):
        read_frame(io.BytesIO(bad_id))


def test_stop_ends_accepted_sessions(tmp_path):
    controller = cp.Controller(data_dir=tmp_path / "controller", heartbeat_interval=0.5)
    server = HubServer(controller)
    controller.hub_address = server.address
    server.start()
    proc, _ = join(server, tmp_path)
    try:
        assert proc.heartbeat_once()["ack"] is True
        server.stop()
        with pytest.raises((ConnectionError, OSError)):
            proc.heartbeat_once()
    finally:
        proc.stop()
        controller.close()


def test_stop_ends_every_connection_under_churn(hub):
    """Connections that come and go while others stay open: stop() ends
    every open one, and no closed one stays registered."""

    def status(sock_file):
        sock_file.write(b'{"op": "status", "principal": "admin"}\n')
        sock_file.flush()
        return sock_file.readline()

    answered = []

    def churn():
        for _ in range(20):
            answered.append(admin_request(hub.address, {"op": "status", "principal": ADMIN})["ok"])

    host, _, port = hub.address.rpartition(":")
    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    held = []
    try:
        workers = [threading.Thread(target=churn) for _ in range(4)]
        for w in workers:
            w.start()
        for _ in range(8):
            sock = socket.create_connection((host, int(port)), timeout=10)
            held.append((sock, sock.makefile("rwb")))
            assert status(held[-1][1])  # answered, so its handler is registered
        for w in workers:
            w.join(timeout=30)
            assert not w.is_alive()
        assert answered == [True] * 80
        hub.stop()
        for _, fh in held:
            assert fh.readline() == b""  # the hub ended the session
        wait_until(lambda: not hub._conns)
    finally:
        sys.setswitchinterval(saved)
        for sock, fh in held:
            fh.close()
            sock.close()


class RecordingReader:
    """A reader over fixed bytes that records the size of every read it is
    asked for (-1 for an unbounded one)."""

    def __init__(self, data: bytes):
        self._data = io.BytesIO(data)
        self.sizes = []

    def read(self, n=-1):
        self.sizes.append(n)
        return self._data.read(n)

    def readline(self, limit=-1):
        self.sizes.append(limit)
        return self._data.readline(limit)


class RecordingSock:
    def __init__(self):
        self.sent = io.BytesIO()

    def sendall(self, data):
        self.sent.write(data)

    def makefile(self, mode):
        return self.sent


def test_read_frame_refuses_a_length_over_its_cap_before_reading_the_body():
    header = bytes([overlay.PROTOCOL_VERSION, overlay.MsgType.HANDSHAKE_INIT, 1]) + b"A" + bytes([1]) + b"B"
    reader = RecordingReader(header + b"\xff" * 4 + b"x" * 100)
    with pytest.raises(overlay.FrameError, match="over the cap"):
        read_frame(reader, max_len=overlay.HANDSHAKE_INIT_LEN)
    assert all(0 <= n <= 4 for n in reader.sizes)


def test_first_overlay_frame_is_read_within_a_handshake_size(hub, tmp_path):
    header = bytes([overlay.PROTOCOL_VERSION, overlay.MsgType.HANDSHAKE_INIT, 2]) + b"A1" + bytes([3]) + b"hub"
    huge = RecordingReader(header + (overlay.HANDSHAKE_INIT_LEN + 1).to_bytes(4, "big"))
    with pytest.raises(overlay.FrameError):
        hub._overlay_session(RecordingSock(), huge)
    assert all(0 <= n <= overlay.HANDSHAKE_INIT_LEN for n in huge.sizes)

    # a real HandshakeInit fits the cap and is answered
    proc, _ = join(hub, tmp_path)
    try:
        ident = proc.identity
        local = overlay.PeerIdentity(ident.sensor_id, ident.static_public, overlay.Role.SENSOR)
        hub_peer = overlay.PeerIdentity(
            ident.tunnel.hub_id, bytes.fromhex(ident.tunnel.hub_public_key), overlay.Role.HUB
        )
        half, init = overlay.handshake_initiate(local, ident.static_private, hub_peer)
        assert len(init.ciphertext) == overlay.HANDSHAKE_INIT_LEN
        reader, sock = RecordingReader(overlay.encode_frame(init)), RecordingSock()
        with pytest.raises(ConnectionError):  # the stream ends after the handshake
            hub._overlay_session(sock, reader)
        assert all(0 <= n <= overlay.HANDSHAKE_INIT_LEN for n in reader.sizes)
        resp = read_frame(io.BytesIO(sock.sent.getvalue()))
        assert overlay.handshake_finalize(half, resp).peer.node_id == hub_peer.node_id
    finally:
        proc.stop()


def test_admin_line_read_is_bounded_and_an_over_long_line_is_refused(hub, monkeypatch):
    from holo import hub as hub_mod

    monkeypatch.setattr(hub_mod, "CONTROL_DOC_MAX", 64)
    status = json.dumps({"op": "status", "principal": ADMIN}).encode() + b"\n"
    reader = RecordingReader(status + b" " * 100 + b"\n" + status)
    sock = RecordingSock()
    hub._admin_session(sock, reader)
    replies = [json.loads(line) for line in sock.sent.getvalue().splitlines()]
    assert replies[0]["ok"] and replies[0]["status"]["hub_id"] == hub.controller.hub_id
    assert replies[1]["error"] == "BadRequest"
    assert len(replies) == 2  # closed after the over-long line
    assert all(0 <= n <= 65 for n in reader.sizes)
