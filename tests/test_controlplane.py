import copy
import errno
import itertools
import json
import os
import random
import shutil
import stat
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holo import controlplane as cp
from holo import overlay
from holo.controlplane import (
    Action,
    CapabilityDenied,
    Controller,
    DescriptorMismatch,
    DuplicateSensorId,
    InstanceStatus,
    ModuleSpec,
    NotFound,
    Principal,
    SchemaError,
    SensorDescriptor,
    SensorReport,
    TokenExpired,
    TokenReused,
    TokenUnknown,
    Unauthorized,
    UnknownSensor,
    ValidationError,
    apply_actions,
    reconcile,
)

ADMIN = Principal("admin", cp.ROLE_ADMIN)


class FakeClock:
    def __init__(self, t=1000.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def make_controller(clock=None, data_dir=None, interval=10.0):
    return Controller(data_dir=data_dir, clock=clock or FakeClock(), heartbeat_interval=interval)


def descriptor(sensor_id="A1", org="org-a", honeypot=True, workload=True, ranges=("10.9.1.0/24",), labels=None):
    return SensorDescriptor(
        sensor_id=sensor_id, org=org, country="ITA",
        address_ranges=list(ranges), honeypot_allowed=honeypot,
        workload_allowed=workload, labels=labels or {},
    )


def onboard(controller, desc, principal=ADMIN, ttl=3600.0):
    token = controller.issue_token(principal, desc.sensor_id, ttl)
    _, pub = overlay.generate_keypair()
    return controller.onboard(token.token, pub, desc)


def darknet_spec(name="dk", targets=("A1",), replicas=1):
    return ModuleSpec("darknet", name, {"ranges": ["10.9.1.0/24"]},
                      target_ids=list(targets), replicas=replicas)


def responder_spec(name="hp", targets=("A1",)):
    return ModuleSpec("responder", name, {"ip_ranges": ["10.9.1.0/28"], "ports": ["22"]},
                      target_ids=list(targets))


class TestTokens:
    def test_admin_issues_with_ttl(self):
        clock = FakeClock()
        c = make_controller(clock)
        token = c.issue_token(ADMIN, "A1", 3600.0)
        assert token.expires_at == clock.t + 3600.0
        assert not token.used

    def test_reader_unauthorized(self):
        c = make_controller()
        c.add_principal(ADMIN, Principal("bob", cp.ROLE_READER))
        with pytest.raises(Unauthorized):
            c.issue_token(Principal("bob", cp.ROLE_READER), "A1", 60.0)

    def test_duplicate_sensor_id(self):
        c = make_controller()
        onboard(c, descriptor())
        with pytest.raises(DuplicateSensorId):
            c.issue_token(ADMIN, "A1", 60.0)

    def test_org_operator_token_pins_org(self):
        c = make_controller()
        c.add_principal(ADMIN, Principal("op-a", cp.ROLE_ORG, "org-a"))
        op = Principal("op-a", cp.ROLE_ORG, "org-a")
        token = c.issue_token(op, "A1", 60.0)
        assert token.org == "org-a"
        _, pub = overlay.generate_keypair()
        with pytest.raises(DescriptorMismatch):
            c.onboard(token.token, pub, descriptor(org="org-evil"))

    def test_unknown_principal_rejected(self):
        c = make_controller()
        with pytest.raises(Unauthorized):
            c.issue_token(Principal("ghost", cp.ROLE_ADMIN), "A1", 60.0)


class TestOnboard:
    def test_valid_flow_returns_tunnel(self):
        c = make_controller()
        tunnel = onboard(c, descriptor())
        assert tunnel.hub_public_key == c.hub_public.hex()
        assert "A1" in c.sensors
        assert "A1" in c.peer_registry()

    def test_token_single_use(self):
        c = make_controller()
        token = c.issue_token(ADMIN, "A1", 3600.0)
        _, pub = overlay.generate_keypair()
        c.onboard(token.token, pub, descriptor())
        with pytest.raises((TokenReused, DuplicateSensorId)):
            c.onboard(token.token, pub, descriptor())

    def test_token_reuse_distinct_sensor(self):
        c = make_controller()
        token = c.issue_token(ADMIN, "A1", 3600.0)
        _, pub = overlay.generate_keypair()
        c.onboard(token.token, pub, descriptor())
        with pytest.raises(TokenReused):
            c.onboard(token.token, pub, descriptor(sensor_id="A1"))

    def test_expired_token(self):
        clock = FakeClock()
        c = make_controller(clock)
        token = c.issue_token(ADMIN, "A1", 60.0)
        clock.advance(61.0)
        _, pub = overlay.generate_keypair()
        with pytest.raises(TokenExpired):
            c.onboard(token.token, pub, descriptor())

    def test_descriptor_mismatch(self):
        c = make_controller()
        token = c.issue_token(ADMIN, "A1", 3600.0)
        _, pub = overlay.generate_keypair()
        with pytest.raises(DescriptorMismatch):
            c.onboard(token.token, pub, descriptor(sensor_id="B9"))

    def test_unknown_token(self):
        c = make_controller()
        _, pub = overlay.generate_keypair()
        with pytest.raises(TokenUnknown):
            c.onboard("ff" * 32, pub, descriptor())

    def test_overlapping_ranges_rejected(self):
        with pytest.raises(ValidationError):
            descriptor(ranges=("10.9.0.0/23", "10.9.1.0/24"))

    def test_non_canonical_range_rejected(self):
        with pytest.raises(ValueError):
            descriptor(ranges=("10.9.1.77/24",))


class TestSetDesired:
    def test_responder_needs_honeypot_capability(self):
        c = make_controller()
        onboard(c, descriptor(sensor_id="D", honeypot=False, ranges=("10.9.4.0/24",)))
        with pytest.raises(CapabilityDenied):
            c.set_desired(ADMIN, responder_spec(targets=("D",)))

    def test_workload_needs_workload_capability(self):
        c = make_controller()
        onboard(c, descriptor(sensor_id="D", workload=False, ranges=("10.9.4.0/24",)))
        spec = ModuleSpec("workload", "fl", {"behavior": "noop"}, target_ids=["D"])
        with pytest.raises(CapabilityDenied):
            c.set_desired(ADMIN, spec)

    def test_darknet_accepted(self):
        c = make_controller()
        onboard(c, descriptor())
        delta = c.set_desired(ADMIN, darknet_spec())
        assert delta["sensors"] == ["A1"]

    def test_zero_replicas_schema_error(self):
        c = make_controller()
        onboard(c, descriptor())
        with pytest.raises(SchemaError):
            c.set_desired(ADMIN, darknet_spec(replicas=0))

    def test_unknown_sensor(self):
        c = make_controller()
        with pytest.raises(UnknownSensor):
            c.set_desired(ADMIN, darknet_spec(targets=("nope",)))

    def test_bad_params_schema(self):
        c = make_controller()
        onboard(c, descriptor())
        with pytest.raises(SchemaError):
            c.set_desired(ADMIN, ModuleSpec("darknet", "dk", {}, target_ids=["A1"]))
        with pytest.raises(SchemaError):
            c.set_desired(ADMIN, ModuleSpec("responder", "hp", {"ip_ranges": ["10.9.1.0/28"]},
                                            target_ids=["A1"]))

    def test_org_operator_scoped(self):
        c = make_controller()
        onboard(c, descriptor())
        onboard(c, descriptor(sensor_id="B1", org="org-b", ranges=("10.9.2.0/24",)))
        c.add_principal(ADMIN, Principal("op-b", cp.ROLE_ORG, "org-b"))
        op_b = Principal("op-b", cp.ROLE_ORG, "org-b")
        with pytest.raises(Unauthorized):
            c.set_desired(op_b, darknet_spec(targets=("A1",)))
        spec = ModuleSpec("darknet", "dk-b", {"ranges": ["10.9.2.0/24"]}, target_ids=["B1"])
        assert c.set_desired(op_b, spec)["sensors"] == ["B1"]

    def test_label_selector_excludes_incapable_sensor_joined_later(self):
        c = make_controller()
        onboard(c, descriptor(labels={"tier": "hp"}))
        c.set_desired(ADMIN, ModuleSpec(
            "responder", "hp", {"ip_ranges": ["10.9.1.0/28"], "ports": ["22"]},
            target_labels={"tier": "hp"},
        ))
        onboard(c, descriptor(sensor_id="D", honeypot=False, ranges=("10.9.4.0/24",),
                              labels={"tier": "hp"}))
        desired = c.desired_state()
        assert [s.name for s in desired["A1"]] == ["hp"]
        assert desired["D"] == []


def inst(instance_id, spec_name="dk", status=cp.ST_RUNNING, sensor="A1", kind="darknet"):
    return InstanceStatus(instance_id, sensor, spec_name, kind, status)


class TestReconcile:
    def test_crashed_becomes_restart(self):
        spec = darknet_spec()
        desired = {"A1": [spec]}
        reported = {"A1": SensorReport([inst("dk-0", status=cp.ST_CRASHED)], last_heartbeat=100.0)}
        actions = reconcile(desired, reported, now=105.0)
        assert [a.kind for a in actions] == ["restart"]
        assert actions[0].instance_id == "dk-0"

    def test_fixed_point_empty(self):
        spec = darknet_spec()
        desired = {"A1": [spec]}
        reported = {"A1": SensorReport([inst("dk-0")], last_heartbeat=100.0)}
        assert reconcile(desired, reported, now=105.0) == []

    def test_missing_becomes_start(self):
        desired = {"A1": [darknet_spec(replicas=2)]}
        reported = {"A1": SensorReport([inst("dk-0")], last_heartbeat=100.0)}
        actions = reconcile(desired, reported, now=105.0)
        assert [(a.kind, a.instance_id) for a in actions] == [("start", "dk-1")]

    def test_surplus_stops_lowest_id_all_permutations(self):
        desired = {"A1": [darknet_spec(replicas=2)]}
        instances = [inst("dk-0"), inst("dk-1"), inst("dk-2")]
        expected = None
        for perm in itertools.permutations(instances):
            reported = {"A1": SensorReport(list(perm), last_heartbeat=100.0)}
            actions = reconcile(desired, reported, now=105.0)
            assert [a.kind for a in actions] == ["stop"]
            if expected is None:
                expected = actions[0].instance_id
            assert actions[0].instance_id == expected == "dk-0"

    def test_unreachable_sensor_excluded(self):
        desired = {"A1": [darknet_spec()]}
        reported = {"A1": SensorReport([], last_heartbeat=100.0)}
        assert reconcile(desired, reported, now=131.0, heartbeat_interval=10.0) == []
        assert len(reconcile(desired, reported, now=129.0, heartbeat_interval=10.0)) == 1

    def test_unknown_spec_instances_stopped(self):
        desired = {"A1": []}
        reported = {"A1": SensorReport([inst("zombie-0", spec_name="zombie")], last_heartbeat=100.0)}
        actions = reconcile(desired, reported, now=105.0)
        assert [(a.kind, a.instance_id) for a in actions] == [("stop", "zombie-0")]

    def test_crashed_beyond_replicas_stopped(self):
        desired = {"A1": [darknet_spec(replicas=1)]}
        reported = {"A1": SensorReport(
            [inst("dk-0"), inst("dk-1", status=cp.ST_CRASHED)], last_heartbeat=100.0
        )}
        actions = reconcile(desired, reported, now=105.0)
        assert [(a.kind, a.instance_id) for a in actions] == [("stop", "dk-1")]

    def _converged(self, desired, reported):
        for sensor_id, specs in desired.items():
            report = reported[sensor_id]
            by_spec = {}
            for i in report.instances:
                by_spec.setdefault(i.spec_name, []).append(i)
            for spec in specs:
                running = [i for i in by_spec.get(spec.name, []) if i.status == cp.ST_RUNNING]
                if len(running) != spec.replicas:
                    return False
            known = {s.name for s in specs}
            if any(i.spec_name not in known for i in report.instances):
                return False
        return True

    @settings(max_examples=80, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_convergence_and_idempotence(self, rnd):
        specs = [darknet_spec(name=f"m{i}", replicas=rnd.randrange(1, 4)) for i in range(rnd.randrange(1, 4))]
        desired = {"A1": specs}
        instances = []
        for spec in specs + [darknet_spec(name="ghost")]:
            for k in range(rnd.randrange(0, 5)):
                status = rnd.choice([cp.ST_RUNNING, cp.ST_CRASHED, cp.ST_PENDING, cp.ST_STOPPED])
                instances.append(inst(f"{spec.name}-{k}", spec_name=spec.name, status=status))
        reported = {"A1": SensorReport(instances, last_heartbeat=100.0)}

        def agent_step():
            # pending instances come up, stopped ones drain
            for i in reported["A1"].instances:
                if i.status == cp.ST_PENDING:
                    i.status = cp.ST_RUNNING
            reported["A1"].instances = [i for i in reported["A1"].instances if i.status != cp.ST_STOPPED]

        actions = reconcile(desired, reported, now=105.0)
        delta = len(actions)
        rounds = 0
        while actions:
            assert rounds <= max(delta, 1), "did not converge within the delta bound"
            agent_step()
            apply_actions(reported["A1"], actions, "A1")
            rounds += 1
            actions = reconcile(desired, reported, now=105.0)
        # reconcile counts pending as alive, so the agent brings those up once more
        agent_step()
        assert self._converged(desired, reported)

        # idempotence: the same action list twice leaves the same state
        snapshot = [(i.instance_id, i.status) for i in reported["A1"].instances]
        final_actions = reconcile(desired, reported, now=105.0)
        apply_actions(reported["A1"], final_actions, "A1")
        apply_actions(reported["A1"], final_actions, "A1")
        assert [(i.instance_id, i.status) for i in reported["A1"].instances] == snapshot


class TestHeartbeat:
    def test_stores_fragment(self):
        c = make_controller()
        onboard(c, descriptor())
        ack = c.heartbeat("A1", [inst("dk-0").to_doc(), inst("dk-1").to_doc()])
        assert ack == {"ack": True}
        assert len(c.reported["A1"].instances) == 2

    def test_unknown_sensor(self):
        c = make_controller()
        with pytest.raises(UnknownSensor):
            c.heartbeat("ghost", [])

    def test_silence_marks_unreachable(self):
        clock = FakeClock()
        c = make_controller(clock)
        onboard(c, descriptor())
        c.heartbeat("A1", [])
        assert not c.unreachable("A1")
        clock.advance(29.0)
        assert not c.unreachable("A1")  # 2.9 intervals
        clock.advance(2.0)
        assert c.unreachable("A1")  # > 3 intervals
        status = c.status()
        assert status["sensors"][0]["reachable"] is False


class TestCatalog:
    def test_content_addressed(self):
        c = make_controller()
        v1 = c.catalog_put(ADMIN, "darknet", b"schema-v1")
        v2 = c.catalog_put(ADMIN, "darknet", b"schema-v1")
        assert v1 == v2
        assert c.catalog_get("darknet", v1) == b"schema-v1"

    def test_get_unknown(self):
        c = make_controller()
        with pytest.raises(NotFound):
            c.catalog_get("nope", "00")

    def test_reader_cannot_put(self):
        c = make_controller()
        c.add_principal(ADMIN, Principal("r", cp.ROLE_READER))
        with pytest.raises(Unauthorized):
            c.catalog_put(Principal("r", cp.ROLE_READER), "darknet", b"x")


class TestRbacMatrix:
    def test_every_mutating_op_rejects_disallowed_principals(self):
        c = make_controller()
        onboard(c, descriptor())
        c.add_principal(ADMIN, Principal("rdr", cp.ROLE_READER))
        c.add_principal(ADMIN, Principal("op-z", cp.ROLE_ORG, "org-z"))
        reader = Principal("rdr", cp.ROLE_READER)
        foreign_op = Principal("op-z", cp.ROLE_ORG, "org-z")
        mutators = [
            lambda p: c.issue_token(p, "NEW", 60.0),
            lambda p: c.set_desired(p, darknet_spec()),
            lambda p: c.catalog_put(p, "m", b"x"),
            lambda p: c.add_principal(p, Principal("x", cp.ROLE_READER)),
            lambda p: c.remove_desired(p, "dk"),
        ]
        c.set_desired(ADMIN, darknet_spec())
        for fn in mutators:
            with pytest.raises(Unauthorized):
                fn(reader)
        for fn in (mutators[1], mutators[2], mutators[3], mutators[4]):
            with pytest.raises(Unauthorized):
                fn(foreign_op)


class TestPersistence:
    def test_restart_replays_state(self, tmp_path):
        clock = FakeClock()
        c = Controller(data_dir=tmp_path, clock=clock)
        onboard(c, descriptor())
        c.set_desired(ADMIN, darknet_spec())
        version = c.catalog_put(ADMIN, "darknet", b"schema")
        used_token = c.issue_token(ADMIN, "B1", 3600.0)
        hub_pub = c.hub_public
        c.close()

        c2 = Controller(data_dir=tmp_path, clock=clock)
        assert set(c2.sensors) == {"A1"}
        assert set(c2.desired_specs) == {"dk"}
        assert c2.catalog_get("darknet", version) == b"schema"
        assert c2.hub_public == hub_pub  # sensors keep their pinned hub key
        assert not c2.tokens[used_token.token].used
        _, pub = overlay.generate_keypair()
        c2.onboard(used_token.token, pub, descriptor(sensor_id="B1", ranges=("10.9.2.0/24",)))
        assert "B1" in c2.sensors
        c2.close()

    def test_torn_log_tail_at_every_byte_offset(self, tmp_path):
        """A crash at any byte of the last append: restart keeps the complete lines."""
        clock = FakeClock()
        src = tmp_path / "src"
        c = Controller(data_dir=src, clock=clock)
        for i in range(3):
            c.catalog_put(ADMIN, f"mod{i}", f"payload{i}".encode())
            c.add_principal(ADMIN, Principal(f"op{i}", cp.ROLE_ORG, f"org{i}"))
        c.close()
        log = (src / "state.log").read_bytes()
        key = (src / "hub.key").read_bytes()
        assert not (src / "state.snapshot").exists() and log.count(b"\n") == 6

        d = tmp_path / "restart"
        for cut in range(len(log) + 1):
            shutil.rmtree(d, ignore_errors=True)
            d.mkdir()
            (d / "hub.key").write_bytes(key)
            (d / "state.log").write_bytes(log[:cut])
            complete = log[: log.rfind(b"\n", 0, cut) + 1]
            events = [json.loads(line)["event"] for line in complete.splitlines()]
            want_catalog = {(e["name"], e["version"]) for e in events if e["op"] == "catalog_put"}
            want_principals = {"admin"} | {
                e["principal"]["name"] for e in events if e["op"] == "principal_added"
            }

            c = Controller(data_dir=d, clock=clock)
            assert set(c.catalog) == want_catalog
            assert set(c.principals) == want_principals
            assert (d / "state.log").read_bytes() == complete
            after = ("after", c.catalog_put(ADMIN, "after", b"restart"))
            c.close()

            c = Controller(data_dir=d, clock=clock)
            assert set(c.catalog) == want_catalog | {after}
            assert set(c.principals) == want_principals
            c.close()

    @pytest.mark.parametrize("torn", [0.0, 0.5], ids=["raises-before-writing", "writes-half-the-line"])
    def test_failed_append_leaves_no_trace(self, tmp_path, torn):
        """A log write that fails (ENOSPC) changes neither memory nor state.log."""
        clock = FakeClock()
        c = Controller(data_dir=tmp_path, clock=clock)
        onboard(c, descriptor())
        token = c.issue_token(ADMIN, "B1", 3600.0)
        _, pub = overlay.generate_keypair()
        desc_b1 = descriptor(sensor_id="B1", ranges=("10.9.2.0/24",))
        log = (tmp_path / "state.log").read_bytes()
        before = copy.deepcopy(logged_state(c))

        real = c._log_fh
        for attempt in (
            lambda: c.issue_token(ADMIN, "C1", 3600.0),
            lambda: c.onboard(token.token, pub, desc_b1),
            lambda: c.set_desired(ADMIN, darknet_spec()),
        ):
            c._log_fh = FailingLog(real, torn)
            with pytest.raises(OSError):
                attempt()
            c._log_fh = real
            assert logged_state(c) == before
            assert (tmp_path / "state.log").read_bytes() == log

        c.onboard(token.token, pub, desc_b1)  # the next event goes through
        assert "B1" in c.sensors and c.tokens[token.token].used
        restarted = Controller(data_dir=tmp_path, clock=clock)
        assert logged_state(restarted) == logged_state(c)
        restarted.close()
        c.close()

    def test_stale_snapshot_is_ignored(self, tmp_path):
        """A state.snapshot left by an earlier version, valid in its format but
        missing a sensor the log has, neither hides that sensor nor is touched."""
        clock = FakeClock()
        src = tmp_path / "src"
        c = Controller(data_dir=src, clock=clock)
        onboard(c, descriptor(labels={"zone": "a"}))
        c.set_desired(ADMIN, ModuleSpec("darknet", "dk", {"ranges": ["10.9.1.0/24"]},
                                        target_labels={"zone": "a"}))
        stale = {
            "principals": [{"name": "admin", "role": cp.ROLE_ADMIN, "org": None}],
            "tokens": [t.to_doc() for t in c.tokens.values()],
            "sensors": [{"descriptor": c.sensors["A1"].to_doc(),
                         "static_public_key": c.sensor_keys["A1"].hex()}],
            "desired": [s.to_doc() for s in c.desired_specs.values()],
            "catalog": [],
        }
        onboard(c, descriptor(sensor_id="B1", ranges=("10.9.2.0/24",), labels={"zone": "a"}))
        c.close()
        log = (src / "state.log").read_bytes()
        snapshot = json.dumps({"seq": log.count(b"\n"), "state": stale}).encode()

        ref = Controller(data_dir=src, clock=clock)  # the log alone
        want, want_desired = logged_state(ref), ref.desired_state()
        ref.close()
        assert set(want_desired) == {"A1", "B1"}

        (src / "state.snapshot").write_bytes(snapshot)
        c = Controller(data_dir=src, clock=clock)
        assert logged_state(c) == want
        assert c.desired_state() == want_desired
        assert set(c.peer_registry()) == {"A1", "B1"}
        c.catalog_put(ADMIN, "m", b"x")
        c.close()
        assert (src / "state.snapshot").read_bytes() == snapshot
        assert (src / "state.log").read_bytes().startswith(log)


def test_secret_files_are_0600_from_creation(tmp_path, monkeypatch):
    """The hub key and the agent identity never exist with a wider mode."""
    from holo.agent import AgentIdentity

    # with chmod disabled, only the mode given at creation counts
    monkeypatch.setattr(Path, "chmod", lambda self, mode: None)
    monkeypatch.setattr(os, "chmod", lambda path, mode: None)
    umask = os.umask(0o022)
    try:
        c = Controller(data_dir=tmp_path / "ctl", clock=FakeClock())
        c.close()
        assert stat.S_IMODE((tmp_path / "ctl" / "hub.key").stat().st_mode) == 0o600

        identity = AgentIdentity("A1", b"\x01" * 32, b"\x02" * 32, cp.TunnelConfig("hub", "127.0.0.1:1", "00"))
        fresh = tmp_path / "ident.json"
        identity.save(fresh)
        assert stat.S_IMODE(fresh.stat().st_mode) == 0o600
        assert AgentIdentity.load(fresh) == identity

        # a file left world-readable by an older version is narrowed, too
        old = tmp_path / "old-ident.json"
        old.write_text("{}")
        assert stat.S_IMODE(old.stat().st_mode) == 0o644
        identity.save(old)
        assert stat.S_IMODE(old.stat().st_mode) == 0o600
    finally:
        os.umask(umask)


def test_capability_safety_randomized_sequences():
    """No call sequence yields a running responder on a non-honeypot sensor."""
    rng = random.Random(2025)
    for trial in range(15):
        clock = FakeClock()
        c = make_controller(clock)
        reports = {}
        sensors = []
        for i in range(rng.randrange(2, 5)):
            sid = f"s{i}"
            desc = descriptor(sensor_id=sid, honeypot=rng.random() < 0.5,
                              ranges=(f"10.{i}.0.0/24",), labels={"zone": "edge"})
            onboard(c, desc)
            sensors.append(sid)
            reports[sid] = SensorReport([], last_heartbeat=clock.t)
        for _ in range(40):
            op = rng.randrange(4)
            if op == 0:
                target = rng.choice(sensors)
                spec = ModuleSpec("responder", f"hp{rng.randrange(6)}",
                                  {"ip_ranges": [f"10.{sensors.index(target)}.0.0/28"], "ports": ["22"]},
                                  target_ids=[target] if rng.random() < 0.7 else [],
                                  target_labels={} if rng.random() < 0.7 else {"zone": "edge"})
                if not spec.target_ids and not spec.target_labels:
                    spec.target_ids = [target]
                try:
                    c.set_desired(ADMIN, spec)
                except CapabilityDenied:
                    pass
            elif op == 1:
                clock.advance(rng.random() * 5)
                for sid in sensors:
                    c.heartbeat(sid, [i.to_doc() for i in reports[sid].instances])
            elif op == 2:
                actions = c.reconcile_now()
                for sid in sensors:
                    apply_actions(reports[sid], actions, sid)
            else:
                clock.advance(rng.random() * 20)
            for sid in sensors:
                if not c.sensors[sid].honeypot_allowed:
                    for instance in reports[sid].instances:
                        assert not (
                            instance.module_kind == "responder"
                            and instance.status == cp.ST_RUNNING
                        ), f"responder running on non-honeypot sensor {sid}"


class TestPendingDeadline:
    def test_pending_past_deadline_is_restarted(self):
        clock = FakeClock()
        c = make_controller(clock, interval=10.0)
        onboard(c, descriptor())
        c.set_desired(ADMIN, darknet_spec())
        c.heartbeat("A1", [])
        assert [(a.kind, a.instance_id) for a in c.actions_for("A1")] == [("start", "dk-0")]

        pending = [inst("dk-0", status=cp.ST_PENDING).to_doc()]
        c.heartbeat("A1", pending)
        first_seen = clock.t
        assert c.reported["A1"].pending_since == {"dk-0": first_seen}
        for _ in range(3):  # 30 s: exactly MISSED_HEARTBEATS_LIMIT intervals
            clock.advance(10.0)
            c.heartbeat("A1", pending)
            assert c.actions_for("A1") == []
            assert c.reported["A1"].pending_since == {"dk-0": first_seen}
        clock.advance(1.0)
        c.heartbeat("A1", pending)
        fleet = c.reconcile_now()
        actions = c.actions_for("A1")
        assert [(a.kind, a.instance_id) for a in actions] == [("restart", "dk-0")]
        assert actions == fleet

        # pending -> running clears the record; a later pending starts anew
        c.heartbeat("A1", [inst("dk-0").to_doc()])
        assert c.reported["A1"].pending_since == {}
        assert c.actions_for("A1") == []
        clock.advance(5.0)
        c.heartbeat("A1", pending)
        assert c.reported["A1"].pending_since == {"dk-0": clock.t}
        assert c.actions_for("A1") == []

    def test_restart_of_stuck_instance_gets_a_fresh_deadline(self):
        clock = FakeClock()
        c = make_controller(clock, interval=10.0)
        onboard(c, descriptor())
        c.set_desired(ADMIN, darknet_spec())
        pending = [inst("dk-0", status=cp.ST_PENDING).to_doc()]
        c.heartbeat("A1", pending)
        clock.advance(31.0)
        c.heartbeat("A1", pending)
        assert [(a.kind, a.instance_id) for a in c.actions_for("A1")] == [("restart", "dk-0")]
        assert c.reported["A1"].pending_since == {}

        # the restarted instance reports pending again: a new deadline starts
        clock.advance(10.0)
        c.heartbeat("A1", pending)
        restarted_at = clock.t
        assert c.reported["A1"].pending_since == {"dk-0": restarted_at}
        assert c.actions_for("A1") == []
        for _ in range(3):
            clock.advance(10.0)
            c.heartbeat("A1", pending)
            assert c.actions_for("A1") == []
        clock.advance(1.0)
        c.heartbeat("A1", pending)
        assert [(a.kind, a.instance_id) for a in c.actions_for("A1")] == [("restart", "dk-0")]


LABEL_SETS = ({}, {"zone": "a"}, {"zone": "b"}, {"zone": "a", "tier": "x"})
SELECTORS = ({"zone": "a"}, {"zone": "b"}, {"tier": "x"}, {"zone": "a", "tier": "x"})
SPEC_PARAMS = {
    "darknet": {"ranges": ["10.200.0.0/24"]},
    "responder": {"ip_ranges": ["10.200.0.0/28"], "ports": ["22"]},
    "workload": {"behavior": "noop"},
    "collector": {},
}
STATUSES = (cp.ST_PENDING, cp.ST_RUNNING, cp.ST_CRASHED, cp.ST_STOPPED)

fleet_ops = st.lists(
    st.one_of(
        st.tuples(st.just("onboard"), st.integers(0, len(LABEL_SETS) - 1), st.booleans(), st.booleans()),
        st.tuples(
            st.just("deploy"), st.sampled_from(sorted(SPEC_PARAMS)), st.integers(0, 3),
            st.lists(st.integers(0, 7), max_size=3), st.integers(-1, len(SELECTORS) - 1),
            st.integers(1, 3),
        ),
        st.tuples(st.just("remove"), st.integers(0, 3)),
        st.tuples(
            st.just("heartbeat"), st.integers(0, 7),
            st.lists(st.tuples(st.integers(0, 4), st.sampled_from(STATUSES)), max_size=5),
        ),
        st.tuples(st.just("advance"), st.floats(0.0, 25.0)),
        st.tuples(st.just("restart")),
    ),
    max_size=30,
)


def desired_from_scratch(c):
    """Resolve every spec against every sensor, independently of the controller."""
    out = {sid: [] for sid in c.sensors}
    for name in sorted(c.desired_specs):
        spec = c.desired_specs[name]
        for sid, desc in c.sensors.items():
            by_label = bool(spec.target_labels) and all(
                desc.labels.get(k) == v for k, v in spec.target_labels.items()
            )
            if sid not in spec.target_ids and not by_label:
                continue
            if spec.module_kind == "responder" and not desc.honeypot_allowed:
                continue
            if spec.module_kind == "workload" and not desc.workload_allowed:
                continue
            out[sid].append(spec)
    return out


def check_fleet(c):
    fleet = c.reconcile_now()
    for sid in c.sensors:
        assert c.actions_for(sid) == [a for a in fleet if a.sensor_id == sid]
    desired = c.desired_state()
    assert desired == desired_from_scratch(c)
    for specs in desired.values():
        specs.clear()  # a caller's copy: the controller's cache must not change
    assert c.desired_state() == desired_from_scratch(c)
    assert set(c.peer_registry()) == set(c.sensors)


@settings(max_examples=60, deadline=None)
@given(ops=fleet_ops)
def test_per_sensor_reconcile_matches_fleet_reconcile(ops):
    """actions_for(sid) is the fleet's reconcile filtered to sid, and the cached
    desired state equals a from-scratch resolution, at every step and across
    restarts that replay state.log."""
    import tempfile

    clock = FakeClock()
    with tempfile.TemporaryDirectory() as d:
        c = Controller(data_dir=d, clock=clock, heartbeat_interval=10.0)
        try:
            for op in ops:
                sensors = sorted(c.sensors)
                if op[0] == "onboard":
                    _, labels, honeypot, workload = op
                    n = len(sensors)
                    onboard(c, descriptor(sensor_id=f"s{n}", ranges=(f"10.{n}.0.0/24",),
                                          honeypot=honeypot, workload=workload,
                                          labels=dict(LABEL_SETS[labels])))
                elif op[0] == "deploy":
                    _, kind, name, ids, selector, replicas = op
                    spec = ModuleSpec(
                        kind, f"m{name}", dict(SPEC_PARAMS[kind]),
                        target_ids=sorted({sensors[i % len(sensors)] for i in ids} if sensors else set()),
                        target_labels=dict(SELECTORS[selector]) if selector >= 0 else {},
                        replicas=replicas,
                    )
                    try:
                        c.set_desired(ADMIN, spec)
                    except (CapabilityDenied, SchemaError, UnknownSensor):
                        pass
                elif op[0] == "remove":
                    try:
                        c.remove_desired(ADMIN, f"m{op[1]}")
                    except NotFound:
                        pass
                elif op[0] == "heartbeat" and sensors:
                    sid = sensors[op[1] % len(sensors)]
                    c.heartbeat(sid, [
                        inst(f"m{name}-{k}", f"m{name}", status, sensor=sid).to_doc()
                        for k, (name, status) in enumerate(op[2])
                    ])
                elif op[0] == "advance":
                    clock.advance(op[1])
                elif op[0] == "restart":
                    before = desired_from_scratch(c)
                    c.close()
                    c = Controller(data_dir=d, clock=clock, heartbeat_interval=10.0)
                    assert desired_from_scratch(c) == before
                check_fleet(c)
            c.close()
            c = Controller(data_dir=d, clock=clock, heartbeat_interval=10.0)
            check_fleet(c)
        finally:
            c.close()


def test_peer_registry_picks_up_later_sensor():
    c = make_controller()
    onboard(c, descriptor())
    first = c.peer_registry()
    assert set(first) == {"A1"}
    onboard(c, descriptor(sensor_id="B1", ranges=("10.9.2.0/24",)))
    assert set(c.peer_registry()) == {"A1", "B1"}
    assert set(first) == {"A1"}  # a holder of the old registry keeps a stable dict


class FailingLog:
    """A state.log double whose write puts the first `torn` share of the line
    on disk and then raises ENOSPC."""

    def __init__(self, fh, torn):
        self.fh, self.torn = fh, torn

    def write(self, data):
        self.fh.write(data[: int(len(data) * self.torn)])
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def truncate(self, size):
        return self.fh.truncate(size)


def logged_state(c):
    return (c.principals, c.tokens, c.sensors, c.sensor_keys, c.desired_specs, c.catalog)
