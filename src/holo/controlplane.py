"""Central controller: registry, onboarding, RBAC, catalog, reconciliation.

State mutations are serialized and appended to `state.log`, the
controller's only persistent state, so a restarted controller replays the
log to exactly where it was.
The reconciler is a pure function from (desired, reported, now) to a
deterministic action list.
"""

from __future__ import annotations

import hashlib
import json
import os
import secrets
import threading
import time
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Callable, Optional

from . import HoloError, darknet, overlay
from .assembly import KIND_COLLECTOR, KIND_DARKNET, KIND_RESPONDER, KIND_TOOLBOX, KIND_WORKLOAD, MODULE_KINDS, assemble
from .net import AddressRange, ranges_overlap

HEARTBEAT_INTERVAL = 10.0
MISSED_HEARTBEATS_LIMIT = 3

ROLE_ADMIN = "admin"
ROLE_ORG = "org-operator"
ROLE_READER = "reader"

ST_PENDING = "pending"
ST_RUNNING = "running"
ST_CRASHED = "crashed"
ST_STOPPED = "stopped"


class ControlPlaneError(HoloError):
    pass


class Unauthorized(ControlPlaneError):
    pass


class DuplicateSensorId(ControlPlaneError):
    pass


class TokenExpired(ControlPlaneError):
    pass


class TokenReused(ControlPlaneError):
    pass


class TokenUnknown(ControlPlaneError):
    pass


class DescriptorMismatch(ControlPlaneError):
    pass


class ValidationError(ControlPlaneError):
    pass


class CapabilityDenied(ControlPlaneError):
    pass


class UnknownSensor(ControlPlaneError):
    pass


class SchemaError(ControlPlaneError):
    pass


class NotFound(ControlPlaneError):
    pass


@dataclass(frozen=True)
class Principal:
    name: str
    role: str
    org: Optional[str] = None

    def __post_init__(self):
        if self.role not in (ROLE_ADMIN, ROLE_ORG, ROLE_READER):
            raise ValueError(f"unknown role {self.role!r}")
        if self.role == ROLE_ORG and not self.org:
            raise ValueError("org-operator principals need an org")


@dataclass
class SensorDescriptor:
    sensor_id: str
    org: str
    country: str = ""
    address_ranges: list = field(default_factory=list)
    honeypot_allowed: bool = False
    workload_allowed: bool = False
    nic_name: str = "eth0"
    labels: dict = field(default_factory=dict)

    def __post_init__(self):
        self.address_ranges = [
            r if isinstance(r, AddressRange) else AddressRange.parse(r)
            for r in self.address_ranges
        ]
        if ranges_overlap(self.address_ranges):
            raise ValidationError(f"{self.sensor_id}: address ranges overlap")

    def to_doc(self) -> dict:
        doc = asdict(self)
        doc["address_ranges"] = [str(r) for r in self.address_ranges]
        return doc

    @classmethod
    def from_doc(cls, doc: dict) -> "SensorDescriptor":
        try:
            return cls(**doc)
        except (TypeError, ValueError) as exc:  # an unknown or missing key, a bad range
            raise ValidationError(f"bad sensor descriptor: {exc}") from None


@dataclass
class OnboardToken:
    token: str  # hex encoding of 32 random bytes
    sensor_id: str
    expires_at: float
    used: bool = False
    org: Optional[str] = None

    def to_doc(self) -> dict:
        return asdict(self)


# a spec document's keys: ModuleSpec's fields, and a deploy file's `target`
SPEC_KEYS = {"module_kind", "name", "params", "target", "target_ids", "target_labels", "replicas", "version"}


@dataclass
class ModuleSpec:
    module_kind: str
    name: str
    params: dict = field(default_factory=dict)
    target_ids: list = field(default_factory=list)
    target_labels: dict = field(default_factory=dict)
    replicas: int = 1
    version: str = "1"

    def to_doc(self) -> dict:
        return asdict(self)

    @classmethod
    def from_doc(cls, doc: dict) -> "ModuleSpec":
        """Parse a spec document: the form to_doc writes, or a deploy file's,
        whose `target: {ids, labels}` stands for target_ids and target_labels."""
        if not isinstance(doc, dict):
            raise SchemaError("a module spec must be a mapping")
        target, params = doc.get("target", {}), doc.get("params", {})
        if not isinstance(target, dict) or not isinstance(params, dict):
            raise SchemaError("module spec 'target' and 'params' must be mappings")
        unknown = sorted(set(doc) - SPEC_KEYS) + sorted(f"target.{k}" for k in set(target) - {"ids", "labels"})
        if unknown:
            raise SchemaError(f"unknown module spec keys {unknown}")
        try:
            return cls(
                module_kind=doc["module_kind"],
                name=doc["name"],
                params=params,
                target_ids=target.get("ids", doc.get("target_ids", [])),
                target_labels=target.get("labels", doc.get("target_labels", {})),
                replicas=int(doc.get("replicas", 1)),
                version=str(doc.get("version", "1")),
            )
        except KeyError as exc:
            raise SchemaError(f"module spec needs {exc}") from None
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"bad module spec: {exc}") from None


# what the sensor's builder raises for params it cannot build
BUILD_ERRORS = (HoloError, KeyError, TypeError, ValueError)


def validate_spec(spec: ModuleSpec) -> None:
    """Check a spec's schema, then that the sensor's own builder, `assemble`,
    can build its params."""
    if spec.module_kind not in MODULE_KINDS:
        raise SchemaError(f"unknown module kind {spec.module_kind!r}")
    if not spec.name:
        raise SchemaError("module spec needs a name")
    if spec.replicas < 1:
        raise SchemaError("replicas must be >= 1")
    if not spec.target_ids and not spec.target_labels:
        raise SchemaError("spec targets no sensors")
    params = spec.params
    if spec.module_kind == KIND_WORKLOAD and not params.get("behavior"):
        raise SchemaError("workload params need a 'behavior' identifier")
    if spec.module_kind == KIND_COLLECTOR:
        retention = params.get("retention_hours", 24)
        if not isinstance(retention, int) or retention < 1:
            raise SchemaError("collector retention_hours must be a positive integer")
    try:
        assemble([(spec.module_kind, params)])
    except KeyError as exc:
        raise SchemaError(f"{spec.module_kind} params need {exc}") from None
    except BUILD_ERRORS as exc:
        raise SchemaError(f"bad {spec.module_kind} params: {exc}") from None


@dataclass
class InstanceStatus:
    instance_id: str
    sensor_id: str
    spec_name: str
    module_kind: str
    status: str
    version: str = "1"

    def to_doc(self) -> dict:
        # every field is a string, so asdict's deep copy is wasted
        return {
            "instance_id": self.instance_id,
            "sensor_id": self.sensor_id,
            "spec_name": self.spec_name,
            "module_kind": self.module_kind,
            "status": self.status,
            "version": self.version,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "InstanceStatus":
        return cls(**doc)


@dataclass
class SensorReport:
    instances: list = field(default_factory=list)
    last_heartbeat: float = 0.0
    # instance id -> when the controller first saw it pending (runtime only)
    pending_since: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Action:
    kind: str  # start | restart | stop
    sensor_id: str
    instance_id: str
    spec: Optional[ModuleSpec] = None

    def to_doc(self) -> dict:
        doc = {"kind": self.kind, "sensor_id": self.sensor_id, "instance_id": self.instance_id}
        if self.spec is not None:
            doc["spec"] = self.spec.to_doc()
        return doc


def _fresh_instance_id(spec_name: str, taken: set[str]) -> str:
    n = 0
    while f"{spec_name}-{n}" in taken:
        n += 1
    return f"{spec_name}-{n}"


def reconcile(
    desired: dict[str, list[ModuleSpec]],
    reported: dict[str, SensorReport],
    now: float,
    heartbeat_interval: float = HEARTBEAT_INTERVAL,
) -> list[Action]:
    """Pure diff of reported state against desired state.

    Missing or crashed instances become Start/Restart, surplus instances
    become Stop (lowest instance id first). An instance pending for more
    than MISSED_HEARTBEATS_LIMIT intervals counts as crashed. Sensors
    silent for more than MISSED_HEARTBEATS_LIMIT intervals are excluded
    entirely so a flapping link cannot cause thrashing.
    """
    deadline = heartbeat_interval * MISSED_HEARTBEATS_LIMIT
    actions: list[Action] = []
    for sensor_id in sorted(desired):
        report = reported.get(sensor_id)
        if report is None:
            continue
        if now - report.last_heartbeat > deadline:
            continue  # unreachable
        specs = {spec.name: spec for spec in desired[sensor_id]}
        by_spec: dict[str, list[InstanceStatus]] = {}
        for inst in report.instances:
            if inst.status == ST_STOPPED:
                continue  # draining; the agent prunes these
            by_spec.setdefault(inst.spec_name, []).append(inst)
        stuck = {
            iid for iid, since in report.pending_since.items() if now - since > deadline
        }

        for name in sorted(set(specs) | set(by_spec)):
            insts = sorted(by_spec.get(name, []), key=lambda i: i.instance_id)
            spec = specs.get(name)
            if spec is None:
                for inst in insts:
                    actions.append(Action("stop", sensor_id, inst.instance_id))
                continue
            alive = [
                i for i in insts
                if i.status in (ST_PENDING, ST_RUNNING) and i.instance_id not in stuck
            ]
            crashed = [i for i in insts if i.status == ST_CRASHED or i.instance_id in stuck]
            replicas = spec.replicas
            if len(alive) > replicas:
                for inst in alive[: len(alive) - replicas]:
                    actions.append(Action("stop", sensor_id, inst.instance_id))
                alive = alive[len(alive) - replicas :]
            deficit = replicas - len(alive)
            for inst in crashed[:deficit]:
                actions.append(Action("restart", sensor_id, inst.instance_id, spec))
            for inst in crashed[deficit:]:
                actions.append(Action("stop", sensor_id, inst.instance_id))
            deficit -= min(deficit, len(crashed))
            taken = {i.instance_id for i in insts}
            for _ in range(deficit):
                new_id = _fresh_instance_id(name, taken)
                taken.add(new_id)
                actions.append(Action("start", sensor_id, new_id, spec))
    return actions


@dataclass
class TunnelConfig:
    hub_id: str
    hub_address: str
    hub_public_key: str  # hex
    keepalive_interval: float = overlay.KEEPALIVE_INTERVAL
    heartbeat_interval: float = HEARTBEAT_INTERVAL

    def to_doc(self) -> dict:
        return asdict(self)


def write_secret(path: Path, text: str) -> None:
    """Write a private file that is mode 0600 from its first byte on."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    with os.fdopen(fd, "w") as fh:
        os.fchmod(fd, 0o600)  # an existing file keeps its mode through O_CREAT
        fh.write(text)


class Controller:
    """All control-plane state behind one lock; clock injectable.

    `desired_state()` and `peer_registry()` are cached; every mutation goes
    through `_apply`, which drops the caches, so the next read rebuilds
    them from the specs and sensors of that moment.
    """

    def __init__(
        self,
        data_dir=None,
        clock: Callable[[], float] = time.time,
        heartbeat_interval: float = HEARTBEAT_INTERVAL,
        hub_id: str = "hub",
        hub_address: str = "",
    ):
        self.clock = clock
        self.heartbeat_interval = heartbeat_interval
        self.hub_id = hub_id
        self.hub_address = hub_address
        self.data_dir = Path(data_dir) if data_dir else None
        self._lock = threading.RLock()

        # the logged state, which replaying state.log rebuilds, and its caches
        self.principals: dict[str, Principal] = {"admin": Principal("admin", ROLE_ADMIN)}
        self.tokens: dict[str, OnboardToken] = {}
        self.sensors: dict[str, SensorDescriptor] = {}
        self.sensor_keys: dict[str, bytes] = {}
        self.desired_specs: dict[str, ModuleSpec] = {}
        self.catalog: dict[tuple[str, str], bytes] = {}
        self._desired: Optional[dict[str, list[ModuleSpec]]] = None
        self._peers: Optional[dict[str, overlay.PeerIdentity]] = None
        self.reported: dict[str, SensorReport] = {}
        self._seq = 0
        self._log_fh = None  # unbuffered: a failed append leaves no bytes behind
        self._log_end = 0  # the length of state.log's complete lines

        self.hub_private, self.hub_public = self._load_or_create_hub_key()
        if self.data_dir is not None:
            self._replay()
            self._log_fh = open(self.data_dir / "state.log", "ab", buffering=0)
            self._log_end = self._log_fh.seek(0, os.SEEK_END)

    # -- persistence -----------------------------------------------------

    def _load_or_create_hub_key(self) -> tuple[bytes, bytes]:
        if self.data_dir is None:
            return overlay.generate_keypair()
        self.data_dir.mkdir(parents=True, exist_ok=True)
        key_path = self.data_dir / "hub.key"
        if key_path.exists():
            priv = bytes.fromhex(key_path.read_text().strip())
            pub = overlay.X25519PrivateKey.from_private_bytes(priv).public_key()
            from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat

            return priv, pub.public_bytes(Encoding.Raw, PublicFormat.Raw)
        priv, pub = overlay.generate_keypair()
        write_secret(key_path, priv.hex())
        return priv, pub

    def _record(self, event: dict) -> None:
        """Append an event to the log (single source of truth), then apply it.

        A failed append cuts state.log back to its last complete line and
        raises before memory changes.
        """
        if self.data_dir is not None:
            line = (json.dumps({"seq": self._seq + 1, "event": event}, sort_keys=True) + "\n").encode()
            try:
                written = self._log_fh.write(line)
                if written != len(line):
                    raise OSError(f"short write to state.log: {written} of {len(line)} bytes")
            except BaseException:
                self._log_fh.truncate(self._log_end)
                raise
            self._log_end += len(line)
            self._seq += 1
        self._apply(event)

    def _apply(self, event: dict) -> None:
        op = event["op"]
        self._desired = None
        if op == "principal_added":
            p = event["principal"]
            self.principals[p["name"]] = Principal(p["name"], p["role"], p.get("org"))
        elif op == "token_issued":
            tok = OnboardToken(**event["token"])
            self.tokens[tok.token] = tok
        elif op == "sensor_onboarded":
            descriptor = SensorDescriptor.from_doc(event["descriptor"])
            self.sensors[descriptor.sensor_id] = descriptor
            self.sensor_keys[descriptor.sensor_id] = bytes.fromhex(event["static_public_key"])
            self._peers = None
            token = self.tokens.get(event["token"])
            if token is not None:
                token.used = True
        elif op == "desired_set":
            spec = ModuleSpec.from_doc(event["spec"])
            self.desired_specs[spec.name] = spec
        elif op == "desired_removed":
            self.desired_specs.pop(event["name"], None)
        elif op == "catalog_put":
            self.catalog[(event["name"], event["version"])] = bytes.fromhex(event["payload"])
        else:
            raise ControlPlaneError(f"unknown event op {op!r}")

    def _replay(self) -> None:
        log_path = self.data_dir / "state.log"
        if log_path.exists():
            data = log_path.read_bytes()
            # a crash mid-append leaves a torn last line: replay up to the
            # last newline and cut the rest, so the next append starts clean
            complete = data.rfind(b"\n") + 1
            for line in data[:complete].splitlines():
                if not line.strip():
                    continue
                doc = json.loads(line)
                self._apply(doc["event"])
                self._seq = doc["seq"]
            if complete < len(data):
                with open(log_path, "r+b") as fh:
                    fh.truncate(complete)
        now = self.clock()
        for sensor_id in self.sensors:
            self.reported.setdefault(sensor_id, SensorReport(last_heartbeat=now))

    # -- RBAC --------------------------------------------------------------

    def _require(self, principal: Principal, orgs=None, admin_only: bool = False) -> None:
        known = self.principals.get(principal.name)
        if known is None or known.role != principal.role or known.org != principal.org:
            raise Unauthorized(f"unknown principal {principal.name!r}")
        if principal.role == ROLE_ADMIN:
            return
        if admin_only:
            raise Unauthorized(f"{principal.name}: admin required")
        if principal.role == ROLE_READER:
            raise Unauthorized(f"{principal.name}: read-only principal")
        if orgs is not None:
            bad = [o for o in orgs if o != principal.org]
            if bad:
                raise Unauthorized(f"{principal.name} cannot act on org {bad[0]!r}")

    def add_principal(self, principal: Principal, new: Principal) -> None:
        with self._lock:
            self._require(principal, admin_only=True)
            self._record({"op": "principal_added", "principal": asdict(new)})

    # -- onboarding --------------------------------------------------------

    def issue_token(self, principal: Principal, sensor_id: str, ttl: float, org: Optional[str] = None) -> OnboardToken:
        """Single-use onboarding token valid for ttl seconds."""
        with self._lock:
            if principal.role == ROLE_ORG:
                org = principal.org
            self._require(principal, orgs=[org] if org else None)
            if principal.role == ROLE_ORG and org is None:
                raise Unauthorized("org operators must issue tokens for their org")
            if sensor_id in self.sensors:
                raise DuplicateSensorId(f"sensor {sensor_id!r} already registered")
            token = OnboardToken(
                token=secrets.token_bytes(32).hex(),
                sensor_id=sensor_id,
                expires_at=self.clock() + ttl,
                org=org,
            )
            self._record({"op": "token_issued", "token": token.to_doc()})
            return token

    def onboard(self, token_hex: str, static_public_key: bytes, descriptor: SensorDescriptor) -> TunnelConfig:
        """Register a sensor: pin its key and hand back the tunnel parameters."""
        with self._lock:
            token = self.tokens.get(token_hex)
            if token is None:
                raise TokenUnknown("no such onboarding token")
            if token.used:
                raise TokenReused(f"token for {token.sensor_id!r} already consumed")
            if self.clock() > token.expires_at:
                raise TokenExpired(f"token for {token.sensor_id!r} expired")
            if descriptor.sensor_id != token.sensor_id:
                raise DescriptorMismatch(
                    f"token is for {token.sensor_id!r}, descriptor says {descriptor.sensor_id!r}"
                )
            if token.org and descriptor.org != token.org:
                raise DescriptorMismatch(
                    f"token restricted to org {token.org!r}, descriptor says {descriptor.org!r}"
                )
            if descriptor.sensor_id in self.sensors:
                raise DuplicateSensorId(f"sensor {descriptor.sensor_id!r} already registered")
            if len(static_public_key) != 32:
                raise ValidationError("static public key must be 32 bytes")
            self._record(
                {
                    "op": "sensor_onboarded",
                    "descriptor": descriptor.to_doc(),
                    "static_public_key": static_public_key.hex(),
                    "token": token_hex,
                }
            )
            self.reported[descriptor.sensor_id] = SensorReport(last_heartbeat=self.clock())
            return TunnelConfig(
                hub_id=self.hub_id,
                hub_address=self.hub_address,
                hub_public_key=self.hub_public.hex(),
                heartbeat_interval=self.heartbeat_interval,
            )

    def peer_registry(self) -> dict[str, overlay.PeerIdentity]:
        """Overlay identities for every registered sensor.

        The dict is shared and never mutated: onboarding builds a new one.
        """
        with self._lock:
            if self._peers is None:
                self._peers = {
                    sid: overlay.PeerIdentity(sid, key, overlay.Role.SENSOR)
                    for sid, key in self.sensor_keys.items()
                }
            return self._peers

    def hub_identity(self) -> overlay.PeerIdentity:
        return overlay.PeerIdentity(self.hub_id, self.hub_public, overlay.Role.HUB)

    # -- module deployment ---------------------------------------------------

    def resolve_target(self, spec: ModuleSpec) -> list[str]:
        out = set()
        for sid in spec.target_ids:
            if sid not in self.sensors:
                raise UnknownSensor(f"no sensor {sid!r}")
            out.add(sid)
        if spec.target_labels:
            for sid, desc in self.sensors.items():
                if all(desc.labels.get(k) == v for k, v in spec.target_labels.items()):
                    out.add(sid)
        return sorted(out)

    def set_desired(self, principal: Principal, spec: ModuleSpec) -> dict:
        """Validate, authorize and store a module spec; returns the delta."""
        with self._lock:
            validate_spec(spec)
            targets = self.resolve_target(spec)
            self._require(principal, orgs=[self.sensors[s].org for s in targets])
            config = darknet.config_from_doc(spec.params) if spec.module_kind == KIND_DARKNET else None
            for sid in targets:
                # a label selector puts a darknet on the matching sensors that own its ranges
                refusal = self._refusal(spec, sid, config if sid in spec.target_ids else None)
                if refusal:
                    raise CapabilityDenied(refusal)
            self._record({"op": "desired_set", "spec": spec.to_doc()})
            return {"spec": spec.name, "sensors": targets}

    def remove_desired(self, principal: Principal, name: str) -> None:
        with self._lock:
            spec = self.desired_specs.get(name)
            if spec is None:
                raise NotFound(f"no module spec {name!r}")
            targets = self.resolve_target(spec)
            self._require(principal, orgs=[self.sensors[s].org for s in targets])
            self._record({"op": "desired_removed", "name": name})

    def _refusal(
        self, spec: ModuleSpec, sensor_id: str, darknet_config: Optional[darknet.DarknetConfig] = None
    ) -> Optional[str]:
        """Why spec cannot run on sensor_id, or None if it can: the sensor
        lacks the capability, or does not own the ranges of darknet_config
        (spec's params, which the caller parses once per spec), the check
        its agent makes when the darknet starts. None skips that check."""
        desc = self.sensors[sensor_id]
        if spec.module_kind == KIND_RESPONDER and not desc.honeypot_allowed:
            return f"sensor {sensor_id!r} does not allow responders"
        if spec.module_kind == KIND_WORKLOAD and not desc.workload_allowed:
            return f"sensor {sensor_id!r} does not allow workloads"
        if darknet_config is not None:
            try:
                darknet.check_owned(darknet_config, desc.address_ranges)
            except darknet.InvalidConfig as exc:
                return f"sensor {sensor_id!r}: {exc}"
        return None

    def _desired_index(self) -> dict[str, list[ModuleSpec]]:
        """The cached per-sensor spec lists; callers must not mutate them."""
        if self._desired is None:
            desired: dict[str, list[ModuleSpec]] = {sid: [] for sid in self.sensors}
            for name in sorted(self.desired_specs):
                spec = self.desired_specs[name]
                config = None
                if spec.module_kind == KIND_DARKNET:
                    try:
                        config = darknet.config_from_doc(spec.params)
                    except BUILD_ERRORS:  # validate_spec builds it, but an older log may hold any spec
                        continue
                for sid in self.resolve_target(spec):
                    if self._refusal(spec, sid, config) is None:
                        desired[sid].append(spec)
            self._desired = desired
        return self._desired

    def desired_state(self) -> dict[str, list[ModuleSpec]]:
        """Per-sensor spec lists, sorted by spec name; capability and
        ownership checks re-applied at resolution time so label selectors can
        never reach a sensor that joined later without the capability or the
        darknet's ranges."""
        with self._lock:
            return {sid: list(specs) for sid, specs in self._desired_index().items()}

    # -- runtime state ---------------------------------------------------------

    def heartbeat(self, sensor_id: str, fragment: list[dict]) -> dict:
        with self._lock:
            if sensor_id not in self.sensors:
                raise UnknownSensor(f"no sensor {sensor_id!r}")
            instances = [InstanceStatus.from_doc(doc) for doc in fragment]
            for inst in instances:
                if inst.sensor_id != sensor_id:
                    raise ValidationError("heartbeat names a foreign sensor instance")
            now = self.clock()
            previous = self.reported.get(sensor_id)
            seen = previous.pending_since if previous is not None else {}
            pending_since = {
                inst.instance_id: seen.get(inst.instance_id, now)
                for inst in instances
                if inst.status == ST_PENDING
            }
            self.reported[sensor_id] = SensorReport(
                instances=instances, last_heartbeat=now, pending_since=pending_since
            )
            return {"ack": True}

    def actions_for(self, sensor_id: str) -> list[Action]:
        """One sensor's actions: reconciles that sensor alone, which gives
        the whole fleet's reconcile filtered to that sensor.

        A restart drops the instance's pending record, so a restarted
        instance that reports pending again gets a fresh deadline.
        """
        with self._lock:
            desired = {sensor_id: self._desired_index().get(sensor_id, [])}
            actions = reconcile(desired, self.reported, self.clock(), self.heartbeat_interval)
            report = self.reported.get(sensor_id)
            if report is not None:
                for action in actions:
                    if action.kind == "restart":
                        report.pending_since.pop(action.instance_id, None)
            return actions

    def unreachable(self, sensor_id: str) -> bool:
        report = self.reported.get(sensor_id)
        if report is None:
            return True
        return (
            self.clock() - report.last_heartbeat
            > self.heartbeat_interval * MISSED_HEARTBEATS_LIMIT
        )

    def status(self) -> dict:
        """Status document; schema documented in docs/controlplane.md."""
        with self._lock:
            sensors = []
            for sid in sorted(self.sensors):
                desc = self.sensors[sid]
                report = self.reported.get(sid, SensorReport())
                sensors.append(
                    {
                        "sensor_id": sid,
                        "org": desc.org,
                        "country": desc.country,
                        "address_ranges": [str(r) for r in desc.address_ranges],
                        "honeypot_allowed": desc.honeypot_allowed,
                        "workload_allowed": desc.workload_allowed,
                        "labels": desc.labels,
                        "reachable": not self.unreachable(sid),
                        "last_heartbeat": report.last_heartbeat,
                        "instances": sorted(
                            (i.to_doc() for i in report.instances),
                            key=lambda d: d["instance_id"],
                        ),
                    }
                )
            return {
                "hub_id": self.hub_id,
                "now": self.clock(),
                "sensors": sensors,
                "desired": sorted(
                    (s.to_doc() for s in self.desired_specs.values()),
                    key=lambda d: d["name"],
                ),
            }

    # -- catalog -----------------------------------------------------------------

    def catalog_put(self, principal: Principal, name: str, payload: bytes) -> str:
        """Content-addressed storage; identical bytes yield the same version id."""
        with self._lock:
            self._require(principal, admin_only=True)
            version = hashlib.sha256(payload).hexdigest()
            if (name, version) not in self.catalog:
                self._record(
                    {"op": "catalog_put", "name": name, "version": version, "payload": payload.hex()}
                )
            return version

    def catalog_get(self, name: str, version: str) -> bytes:
        with self._lock:
            data = self.catalog.get((name, version))
            if data is None:
                raise NotFound(f"no catalog entry {name!r}@{version}")
            return data

    def close(self) -> None:
        if self._log_fh is not None:
            self._log_fh.close()
            self._log_fh = None
