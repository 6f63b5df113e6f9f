"""Controller network front: overlay listener plus operator admin channel.

One TCP port serves both: overlay connections open with a version-1
handshake frame, anything else is treated as a JSON-lines admin client.
The hub never forwards frames between sensors; policy rejections land in
the event log.
"""

from __future__ import annotations

import json
import logging
import socket
import socketserver
import struct
import threading
from pathlib import Path

from . import HoloError
from . import collector as collector_mod
from . import controlplane as cp
from . import overlay
from .assembly import assemble
from .toolbox import emit_iptables

log = logging.getLogger("holo.hub")

CONTROL_DOC_MAX = 16 << 20


def canonical_json(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def pack_control(doc) -> bytes:
    """Channel-0 payload: length-prefixed canonical JSON."""
    body = canonical_json(doc)
    return struct.pack(">I", len(body)) + body


def unpack_control(payload: bytes) -> dict:
    if len(payload) < 4:
        raise overlay.FrameError("short control payload")
    (length,) = struct.unpack_from(">I", payload)
    if length > CONTROL_DOC_MAX or 4 + length > len(payload):
        raise overlay.FrameError("control payload length mismatch")
    return json.loads(payload[4 : 4 + length])


def read_exact(reader, n: int) -> bytes:
    data = reader.read(n)
    if data is None or len(data) != n:
        raise ConnectionError("peer closed mid-frame")
    return data


def read_frame(reader, max_len: int = 0xFFFFFFFF) -> overlay.Frame:
    """Read one length-delimited frame from a buffered binary stream.

    A ciphertext length over max_len is refused before its body is read.
    """
    version = read_exact(reader, 1)[0]
    if version != overlay.PROTOCOL_VERSION:
        raise overlay.FrameError(f"unsupported version {version}")
    msg_type, src_len = read_exact(reader, 2)
    src = read_exact(reader, src_len)
    dst_len = read_exact(reader, 1)[0]
    dst = read_exact(reader, dst_len)
    (length,) = struct.unpack(">I", read_exact(reader, 4))
    if length > max_len:
        raise overlay.FrameError(f"frame of {length} bytes over the cap of {max_len}")
    ciphertext = read_exact(reader, length) if length else b""
    try:
        frame = overlay.Frame(
            overlay.MsgType(msg_type), src.decode(), dst.decode(), ciphertext, version=version
        )
    except ValueError as exc:  # unknown message type or a node id that is not UTF-8
        raise overlay.FrameError(f"malformed frame: {exc}") from None
    return frame


class HubServer:
    """Threaded TCP server hosting the controller."""

    def __init__(self, controller: cp.Controller, host: str = "127.0.0.1", port: int = 0):
        self.controller = controller
        self.events: list[dict] = []
        self._events_lock = threading.Lock()
        self.sessions: dict[str, overlay.Session] = {}
        self._conns: set[socket.socket] = set()  # accepted and still open
        self._conns_lock = threading.Lock()
        self._stopped = False
        self.lake = None
        if controller.data_dir is not None:
            self.lake = collector_mod.LocalLake(controller.data_dir / "lake")
            self._log_dir = controller.data_dir / "logs"
            self._log_dir.mkdir(exist_ok=True)
        else:
            self._log_dir = None

        hub = self

        class Handler(socketserver.BaseRequestHandler):
            def handle(self):
                hub._handle_conn(self.request)

        class Server(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

        self._server = Server((host, port), Handler)
        self.address = "%s:%d" % self._server.server_address
        self._thread = None

    def start(self) -> None:
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """Stop serve_forever running in another thread, then close."""
        self._server.shutdown()
        self.close()

    def close(self) -> None:
        """Close the listener and end every accepted connection.

        Unlike stop, this does not wait for serve_forever, so it is safe
        where serve_forever never ran or has returned; stop would wait
        forever there.
        """
        self._server.server_close()
        with self._conns_lock:
            self._stopped = True
            for sock in self._conns:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass  # the peer is already gone

    def serve_forever(self) -> None:
        self._server.serve_forever()

    def _event(self, kind: str, **fields) -> None:
        doc = {"event": kind, **fields}
        with self._events_lock:
            self.events.append(doc)
        if self.controller.data_dir is not None:
            with open(self.controller.data_dir / "events.jsonl", "a") as fh:
                fh.write(json.dumps(doc, sort_keys=True) + "\n")

    # --- connection dispatch ---------------------------------------------

    def _handle_conn(self, sock: socket.socket) -> None:
        with self._conns_lock:
            if self._stopped:
                return
            self._conns.add(sock)
        reader = sock.makefile("rb")
        try:
            first = reader.peek(1)[:1]
            if first == bytes([overlay.PROTOCOL_VERSION]):
                self._overlay_session(sock, reader)
            else:
                self._admin_session(sock, reader)
        except (ConnectionError, OSError, overlay.OverlayError) as exc:
            log.debug("connection ended: %s", exc)
        finally:
            reader.close()
            with self._conns_lock:
                self._conns.discard(sock)

    # --- overlay side ------------------------------------------------------

    def _overlay_session(self, sock: socket.socket, reader) -> None:
        # the peer is not yet authenticated: read no more than a HandshakeInit
        frame = read_frame(reader, max_len=overlay.HANDSHAKE_INIT_LEN)
        registry = self.controller.peer_registry()
        try:
            session, resp = overlay.handshake_respond(
                self.controller.hub_identity(),
                self.controller.hub_private,
                registry,
                frame,
                now=self.controller.clock(),
            )
        except overlay.AuthFailure as exc:
            self._event("handshake-rejected", peer=frame.src_id, reason=str(exc))
            return
        sock.sendall(overlay.encode_frame(resp))
        self.sessions[session.peer.node_id] = session
        self._event("session-established", peer=session.peer.node_id)

        while True:
            frame = read_frame(reader)
            registry = self.controller.peer_registry()
            decision = overlay.hub_route(self.controller.hub_id, registry, frame)
            if not decision.deliver:
                self._event(
                    "frame-rejected",
                    peer=frame.src_id,
                    dst=frame.dst_id,
                    decision=decision.decision.value,
                    reason=decision.reason,
                )
                continue
            try:
                plaintext = session.open(frame)
            except overlay.ReplayDetected:
                self._event("replay-rejected", peer=frame.src_id)
                continue
            except overlay.AuthFailure:
                self._event("auth-failure", peer=frame.src_id)
                continue
            session.last_recv_at = self.controller.clock()
            if frame.msg_type is overlay.MsgType.CLOSE:
                session.close()
                self._event("session-closed", peer=frame.src_id)
                return
            if frame.msg_type is overlay.MsgType.KEEPALIVE:
                continue
            channel, payload = overlay.split_plaintext(plaintext)
            reply = self._dispatch_channel(session, channel, payload)
            if reply is not None:
                sock.sendall(overlay.encode_frame(session.seal(reply)))

    def _dispatch_channel(self, session, channel: int, payload: bytes) -> bytes | None:
        sensor_id = session.peer.node_id
        if channel == overlay.CH_CONTROL:
            doc = unpack_control(payload)
            reply = self._control_op(sensor_id, doc)
            return overlay.data_plaintext(overlay.CH_CONTROL, pack_control(reply))
        if channel == overlay.CH_LOGS:
            if self._log_dir is not None:
                with open(self._log_dir / f"{sensor_id}.jsonl", "ab") as fh:
                    fh.write(payload.rstrip(b"\n") + b"\n")
            return overlay.data_plaintext(overlay.CH_CONTROL, pack_control({"ack": True}))
        if channel == overlay.CH_TRACE:
            reply = self._trace_op(sensor_id, payload)
            return overlay.data_plaintext(overlay.CH_TRACE, pack_control(reply))
        return None

    def _control_op(self, sensor_id: str, doc: dict) -> dict:
        try:
            op = doc.get("op")
            if op == "heartbeat":
                self.controller.heartbeat(sensor_id, doc.get("instances", []))
                actions = self.controller.actions_for(sensor_id)
                return {"ack": True, "actions": [a.to_doc() for a in actions]}
            return {"error": "UnknownOp", "message": f"no such op {op!r}"}
        except cp.ControlPlaneError as exc:
            return {"error": type(exc).__name__, "message": str(exc)}

    def _trace_op(self, sensor_id: str, payload: bytes) -> dict:
        """Lake upload over channel 2: JSON header, then raw chunk bytes."""
        if self.lake is None:
            return {"error": "NoLake", "message": "controller has no data dir"}
        try:
            (hlen,) = struct.unpack_from(">I", payload)
            header = json.loads(payload[4 : 4 + hlen])
            chunk = payload[4 + hlen :]
            op = header["op"]
            bucket = header["bucket"]
            if header.get("sensor", sensor_id) != sensor_id:
                return {"error": "PolicyViolation", "message": "foreign sensor id"}
            if op == "part_size":
                return {"ok": True, "size": self.lake.part_size(sensor_id, bucket)}
            if op == "verify":
                return {"ok": True, "hash": self.lake.verified_hash(sensor_id, bucket)}
            if op == "chunk":
                self.lake.put_chunk(sensor_id, bucket, int(header["offset"]), chunk)
                return {"ok": True}
            if op == "finalize":
                meta = collector_mod.TraceFileMeta(**header["meta"])
                self.lake.finalize(sensor_id, bucket, meta, header["hash"])
                return {"ok": True}
            return {"error": "UnknownOp", "message": op}
        except (KeyError, ValueError, struct.error) as exc:
            return {"error": "BadRequest", "message": str(exc)}
        except collector_mod.CollectorError as exc:
            return {"error": type(exc).__name__, "message": str(exc)}

    # --- admin side ---------------------------------------------------------

    def _admin_session(self, sock: socket.socket, reader) -> None:
        writer = sock.makefile("wb")
        while True:
            # bounded, as the JSON-lines peer has not authenticated
            line = reader.readline(CONTROL_DOC_MAX + 1)
            if not line:
                return
            over_long = len(line) > CONTROL_DOC_MAX
            if over_long:
                reply = {"error": "BadRequest", "message": f"line over {CONTROL_DOC_MAX} bytes"}
            else:
                try:
                    reply = self.handle_admin(json.loads(line))
                except json.JSONDecodeError as exc:
                    reply = {"error": "BadRequest", "message": str(exc)}
            writer.write(canonical_json(reply) + b"\n")
            writer.flush()
            if over_long:
                return  # the rest of the line is not read

    def _principal(self, doc: dict) -> cp.Principal:
        name = doc.get("principal", "")
        principal = self.controller.principals.get(name)
        if principal is None:
            raise cp.Unauthorized(f"unknown principal {name!r}")
        return principal

    def handle_admin(self, doc: dict) -> dict:
        if not isinstance(doc, dict):
            return {"error": "BadRequest", "message": "a request must be a JSON object"}
        op = doc.get("op")
        try:
            if op == "onboard":
                descriptor = cp.SensorDescriptor.from_doc(doc["descriptor"])
                tunnel = self.controller.onboard(
                    doc["token"], bytes.fromhex(doc["static_public_key"]), descriptor
                )
                out = tunnel.to_doc()
                out["hub_address"] = out["hub_address"] or self.address
                return {"ok": True, "tunnel": out}
            if op == "token_new":
                token = self.controller.issue_token(
                    self._principal(doc), doc["sensor_id"], float(doc["ttl"]), doc.get("org")
                )
                return {
                    "ok": True,
                    "token": token.token,
                    "expires_at": token.expires_at,
                    "bootstrap": f"holo agent --bootstrap {token.token} --hub {self.address}",
                }
            if op == "deploy":
                spec = cp.ModuleSpec.from_doc(doc["spec"])
                delta = self.controller.set_desired(self._principal(doc), spec)
                return {"ok": True, "delta": delta}
            if op == "undeploy":
                self.controller.remove_desired(self._principal(doc), doc["name"])
                return {"ok": True}
            if op == "status":
                self._principal(doc)  # any registered principal may read
                return {"ok": True, "status": self.controller.status()}
            if op == "catalog_put":
                version = self.controller.catalog_put(
                    self._principal(doc), doc["name"], bytes.fromhex(doc["payload"])
                )
                return {"ok": True, "version": version}
            if op == "catalog_get":
                data = self.controller.catalog_get(doc["name"], doc["version"])
                return {"ok": True, "payload": data.hex()}
            if op == "add_principal":
                new = cp.Principal(doc["name"], doc["role"], doc.get("org"))
                self.controller.add_principal(self._principal(doc), new)
                return {"ok": True}
            if op == "rules_emit":
                sensor_id = doc["sensor_id"]
                if sensor_id not in self.controller.sensors:
                    raise cp.UnknownSensor(f"no sensor {sensor_id!r}")
                specs = self.controller.desired_state().get(sensor_id, [])
                built = assemble([(s.module_kind, s.params) for s in specs])
                return {"ok": True, "text": emit_iptables(built.program, limiters=built.limiters)}
            if op == "events":
                self._principal(doc)
                with self._events_lock:
                    return {"ok": True, "events": list(self.events)}
            return {"error": "UnknownOp", "message": f"no such op {op!r}"}
        except KeyError as exc:
            return {"error": "BadRequest", "message": f"missing field {exc}"}
        except (HoloError, ValueError) as exc:
            return {"error": type(exc).__name__, "message": str(exc)}


def admin_request(address: str, doc: dict, timeout: float = 10.0) -> dict:
    """One-shot admin call against a running controller."""
    host, _, port = address.rpartition(":")
    with socket.create_connection((host or "127.0.0.1", int(port)), timeout=timeout) as sock:
        sock.sendall(canonical_json(doc) + b"\n")
        reader = sock.makefile("rb")
        line = reader.readline()
    if not line:
        raise ConnectionError("controller closed the admin connection")
    return json.loads(line)
