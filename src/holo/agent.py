"""Sensor agent: runs deployed module instances and reports back.

The core is socket-free (clock injectable) so reconciliation behavior is
testable in-process; AgentProcess adds the overlay client, onboarding
and the heartbeat loop for real deployments.
"""

from __future__ import annotations

import json
import logging
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from . import collector as collector_mod
from . import controlplane as cp
from . import darknet as darknet_mod
from . import overlay
from . import responder as responder_mod
from . import toolbox
from .assembly import assemble
from .hub import admin_request, pack_control, read_frame, unpack_control

log = logging.getLogger("holo.agent")


@dataclass
class ModuleInstance:
    instance_id: str
    spec: cp.ModuleSpec
    status: str = cp.ST_RUNNING
    runtime: object = None

    def status_doc(self, sensor_id: str) -> dict:
        return cp.InstanceStatus(
            instance_id=self.instance_id,
            sensor_id=sensor_id,
            spec_name=self.spec.name,
            module_kind=self.spec.module_kind,
            status=self.status,
            version=self.spec.version,
        ).to_doc()


class AgentCore:
    """Module lifecycle and reported state for one sensor."""

    def __init__(
        self,
        sensor_id: str,
        data_dir=None,
        clock: Callable[[], float] = time.time,
        descriptor: Optional[cp.SensorDescriptor] = None,
    ):
        self.sensor_id = sensor_id
        self.data_dir = Path(data_dir) if data_dir else None
        self.clock = clock
        self.descriptor = descriptor
        self.instances: dict[str, ModuleInstance] = {}
        self.generation = 0
        self.program_holder: Optional[toolbox.ProgramHolder] = None
        self.limiter = toolbox.TokenBucket(rate=100.0, burst=100.0)

    # -- runtimes -------------------------------------------------------

    def _build_runtime(self, spec: cp.ModuleSpec):
        kind = spec.module_kind
        if kind == cp.KIND_DARKNET:
            config = darknet_mod.config_from_doc(spec.params)
            owned = self.descriptor.address_ranges if self.descriptor else None
            return darknet_mod.attach(config, descriptor_ranges=owned)
        if kind == cp.KIND_RESPONDER:
            return responder_mod.Responder(responder_mod.config_from_doc(spec.params))
        if kind == cp.KIND_COLLECTOR:
            directory = (self.data_dir / "traces") if self.data_dir else Path("traces")
            return collector_mod.HourlyWriter(
                directory,
                self.sensor_id,
                manifest=self.module_manifest,
            )
        if kind == cp.KIND_TOOLBOX:
            self.limiter = toolbox.TokenBucket(
                rate=float(spec.params.get("egress_rate", 100.0)),
                burst=float(spec.params.get("egress_burst", 100.0)),
            )
            return self.limiter
        if kind == cp.KIND_WORKLOAD:
            return {"behavior": spec.params.get("behavior")}
        raise cp.SchemaError(f"unknown module kind {kind!r}")

    def module_manifest(self) -> list:
        return sorted(
            [inst.spec.name, inst.spec.version, inst.instance_id]
            for inst in self.instances.values()
            if inst.status == cp.ST_RUNNING
        )

    def _refresh_program(self) -> None:
        specs = [i.spec for i in self.instances.values() if i.status == cp.ST_RUNNING]
        self.generation += 1
        built = assemble([(s.module_kind, s.params) for s in specs], generation=self.generation)
        if self.program_holder is None:
            self.program_holder = toolbox.ProgramHolder(built.program)
        else:
            self.program_holder.swap(built.program)
        if self.data_dir is not None:
            toolbox.write_rules(self.data_dir, self.sensor_id, built.program, limiters=built.limiters)

    # -- actions ----------------------------------------------------------

    def apply_action(self, action: cp.Action | dict) -> None:
        if isinstance(action, dict):
            spec = cp.ModuleSpec.from_doc(action["spec"]) if action.get("spec") else None
            action = cp.Action(action["kind"], action["sensor_id"], action["instance_id"], spec)
        if action.sensor_id != self.sensor_id:
            return
        if action.kind == "stop":
            inst = self.instances.pop(action.instance_id, None)
            if inst is not None and hasattr(inst.runtime, "close"):
                inst.runtime.close()
        elif action.kind in ("start", "restart"):
            try:
                runtime = self._build_runtime(action.spec)
                status = cp.ST_RUNNING
            except Exception as exc:  # report, let the controller decide
                log.warning("instance %s failed to start: %s", action.instance_id, exc)
                runtime, status = None, cp.ST_CRASHED
            self.instances[action.instance_id] = ModuleInstance(
                instance_id=action.instance_id, spec=action.spec, status=status, runtime=runtime
            )
        self._refresh_program()

    def kill_instance(self, instance_id: str) -> None:
        """Simulate a module crash (testing and fault-injection hook)."""
        inst = self.instances[instance_id]
        inst.status = cp.ST_CRASHED
        inst.runtime = None

    def heartbeat_fragment(self) -> list[dict]:
        return [
            inst.status_doc(self.sensor_id)
            for inst in sorted(self.instances.values(), key=lambda i: i.instance_id)
        ]


@dataclass
class AgentIdentity:
    sensor_id: str
    static_private: bytes
    static_public: bytes
    tunnel: cp.TunnelConfig

    def save(self, path: Path) -> None:
        doc = {
            "sensor_id": self.sensor_id,
            "static_private": self.static_private.hex(),
            "static_public": self.static_public.hex(),
            "tunnel": self.tunnel.to_doc(),
        }
        cp.write_secret(path, json.dumps(doc, sort_keys=True, indent=2))

    @classmethod
    def load(cls, path: Path) -> "AgentIdentity":
        doc = json.loads(path.read_text())
        return cls(
            sensor_id=doc["sensor_id"],
            static_private=bytes.fromhex(doc["static_private"]),
            static_public=bytes.fromhex(doc["static_public"]),
            tunnel=cp.TunnelConfig(**doc["tunnel"]),
        )


def onboard(hub_address: str, token: str, descriptor: cp.SensorDescriptor) -> AgentIdentity:
    """Redeem a bootstrap token: register our fresh static key at the hub."""
    priv, pub = overlay.generate_keypair()
    reply = admin_request(
        hub_address,
        {
            "op": "onboard",
            "token": token,
            "static_public_key": pub.hex(),
            "descriptor": descriptor.to_doc(),
        },
    )
    if "error" in reply:
        raise cp.ControlPlaneError(f"{reply['error']}: {reply['message']}")
    tunnel = cp.TunnelConfig(**reply["tunnel"])
    return AgentIdentity(descriptor.sensor_id, priv, pub, tunnel)


class AgentProcess:
    """Overlay client plus heartbeat loop around an AgentCore."""

    def __init__(self, identity: AgentIdentity, core: AgentCore, hub_address: Optional[str] = None):
        self.identity = identity
        self.core = core
        self.hub_address = hub_address or identity.tunnel.hub_address
        self.session: Optional[overlay.Session] = None
        self._sock: Optional[socket.socket] = None
        self._reader = None
        self._io_lock = threading.Lock()
        self._stop = threading.Event()

    def connect(self) -> None:
        if self._sock is not None:  # a reconnect: drop the dead connection first
            self._reader.close()
            self._sock.close()
        host, _, port = self.hub_address.rpartition(":")
        self._sock = socket.create_connection((host or "127.0.0.1", int(port)), timeout=30)
        self._reader = self._sock.makefile("rb")
        local = overlay.PeerIdentity(
            self.identity.sensor_id, self.identity.static_public, overlay.Role.SENSOR
        )
        hub_peer = overlay.PeerIdentity(
            self.identity.tunnel.hub_id,
            bytes.fromhex(self.identity.tunnel.hub_public_key),
            overlay.Role.HUB,
        )
        half, init = overlay.handshake_initiate(local, self.identity.static_private, hub_peer)
        self._sock.sendall(overlay.encode_frame(init))
        resp = read_frame(self._reader)
        self.session = overlay.handshake_finalize(half, resp, now=time.time())

    def request(self, channel: int, payload: bytes) -> bytes:
        """Sealed request/response over the hub session (serialized)."""
        with self._io_lock:
            frame = self.session.seal(overlay.data_plaintext(channel, payload))
            self._sock.sendall(overlay.encode_frame(frame))
            reply = read_frame(self._reader)
            plaintext = self.session.open(reply)
        _, body = overlay.split_plaintext(plaintext)
        return body

    def heartbeat_once(self) -> dict:
        doc = {"op": "heartbeat", "instances": self.core.heartbeat_fragment()}
        body = self.request(overlay.CH_CONTROL, pack_control(doc))
        reply = unpack_control(body)
        for action in reply.get("actions", []):
            self.core.apply_action(action)
        return reply

    def send_log(self, doc: dict) -> None:
        self.request(overlay.CH_LOGS, json.dumps(doc, sort_keys=True).encode())

    def send_keepalive(self) -> None:
        """Fire-and-forget liveness frame; the hub never replies to these."""
        with self._io_lock:
            frame = self.session.seal(b"", overlay.MsgType.KEEPALIVE)
            self._sock.sendall(overlay.encode_frame(frame))

    def run(self, interval: Optional[float] = None) -> None:
        interval = interval or self.identity.tunnel.heartbeat_interval
        keepalive = self.identity.tunnel.keepalive_interval
        while not self._stop.is_set():
            try:
                self.heartbeat_once()
            except (ConnectionError, OSError, overlay.OverlayError) as exc:
                log.warning("hub connection lost (%s); reconnecting", exc)
                try:
                    self.connect()
                except (OSError, overlay.OverlayError) as exc:
                    log.warning("reconnect failed (%s)", exc)
            remaining = interval
            while remaining > 0 and not self._stop.is_set():
                step = min(remaining, keepalive)
                self._stop.wait(step)
                remaining -= step
                if remaining > 0:
                    try:
                        self.send_keepalive()
                    except (OSError, overlay.OverlayError):
                        break

    def stop(self) -> None:
        self._stop.set()
        if self._sock is not None:
            try:
                with self._io_lock:
                    frame = self.session.seal(b"", overlay.MsgType.CLOSE)
                    self._sock.sendall(overlay.encode_frame(frame))
            except (OSError, overlay.OverlayError):
                pass
            self._sock.close()


class OverlayLakeClient:
    """Lake interface tunneled over channel 2 of the agent session."""

    def __init__(self, agent: AgentProcess):
        self.agent = agent

    def _call(self, header: dict, chunk: bytes = b"") -> dict:
        body = pack_control(header) + chunk
        reply = unpack_control(self.agent.request(overlay.CH_TRACE, body))
        if "error" in reply:
            if reply["error"] == "HashMismatch":
                raise collector_mod.HashMismatch(reply["message"])
            if reply["error"] in ("NoLake", "BadRequest"):
                raise collector_mod.CollectorError(reply["message"])
            raise collector_mod.LakeUnreachable(reply["message"])
        return reply

    def part_size(self, sensor_id: str, bucket: str) -> int:
        return int(self._call({"op": "part_size", "sensor": sensor_id, "bucket": bucket})["size"])

    def put_chunk(self, sensor_id: str, bucket: str, offset: int, data: bytes) -> None:
        self._call({"op": "chunk", "sensor": sensor_id, "bucket": bucket, "offset": offset}, data)

    def finalize(self, sensor_id: str, bucket: str, meta, expect_hash: str) -> None:
        from dataclasses import asdict

        self._call(
            {
                "op": "finalize",
                "sensor": sensor_id,
                "bucket": bucket,
                "meta": asdict(meta),
                "hash": expect_hash,
            }
        )

    def verified_hash(self, sensor_id: str, bucket: str):
        reply = self._call({"op": "verify", "sensor": sensor_id, "bucket": bucket})
        return reply.get("hash")
