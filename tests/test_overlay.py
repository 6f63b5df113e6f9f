import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holo import overlay
from holo.hub import read_frame
from holo.overlay import (
    AuthFailure,
    Decision,
    Frame,
    MsgType,
    PeerIdentity,
    PolicyViolation,
    ReplayDetected,
    Role,
    SessionClosed,
    UnknownHub,
    encode_frame,
    handshake_finalize,
    handshake_initiate,
    handshake_respond,
    hub_route,
)


def test_wire_format_bit_exact():
    frame = Frame(MsgType.DATA, "A1", "hub", b"\x01\x02\x03\x04\x05")
    wire = encode_frame(frame)
    expected = bytes([1, 3, 2]) + b"A1" + bytes([3]) + b"hub" + b"\x00\x00\x00\x05" + b"\x01\x02\x03\x04\x05"
    assert wire == expected
    stream = io.BytesIO(wire)
    assert read_frame(stream) == frame
    assert stream.tell() == len(wire)


def test_read_frame_truncated():
    frame = Frame(MsgType.DATA, "A1", "hub", b"payload")
    wire = encode_frame(frame)
    for cut in (0, 1, 3, len(wire) - 1):
        with pytest.raises(ConnectionError):
            read_frame(io.BytesIO(wire[:cut]))


def test_read_frame_checks_version_first():
    """A frame of another version is refused before the rest is read."""
    stream = io.BytesIO(bytes([overlay.PROTOCOL_VERSION + 1]) + b"\xff" * 8)
    with pytest.raises(overlay.FrameError):
        read_frame(stream)
    assert stream.tell() == 1


def test_handshake_establishes_and_roundtrips(session_pair):
    sensor_session, hub_session = session_pair
    frame = sensor_session.seal(b"\x00hello hub")
    assert hub_session.open(frame) == b"\x00hello hub"
    reply = hub_session.seal(b"\x00hello sensor")
    assert sensor_session.open(reply) == b"\x00hello sensor"


def test_empty_payload_roundtrips(session_pair):
    sensor_session, hub_session = session_pair
    assert hub_session.open(sensor_session.seal(b"")) == b""


def test_fresh_ephemerals_per_initiate(identities, sensor_keys):
    hub, sensor = identities
    half1, init1 = handshake_initiate(sensor, sensor_keys[0], hub)
    half2, init2 = handshake_initiate(sensor, sensor_keys[0], hub)
    assert half1.ephemeral_public != half2.ephemeral_public
    assert init1.ciphertext != init2.ciphertext


def test_initiate_requires_hub_role(identities, sensor_keys):
    _, sensor = identities
    not_hub = PeerIdentity("other", sensor.static_public_key, Role.SENSOR)
    with pytest.raises(UnknownHub):
        handshake_initiate(sensor, sensor_keys[0], not_hub)


def test_empty_registry_rejects_handshake(identities, hub_keys, sensor_keys):
    hub, sensor = identities
    _, init = handshake_initiate(sensor, sensor_keys[0], hub)
    with pytest.raises(AuthFailure):
        handshake_respond(hub, hub_keys[0], {}, init)


def test_unregistered_static_key_rejected(identities, hub_keys):
    hub, sensor = identities
    rogue_priv, rogue_pub = overlay.generate_keypair()
    rogue = PeerIdentity("A1", rogue_pub, Role.SENSOR)
    _, init = handshake_initiate(rogue, rogue_priv, hub)
    # registry still pins the real A1 key
    with pytest.raises(AuthFailure):
        handshake_respond(hub, hub_keys[0], {"A1": sensor}, init)


def test_fake_hub_cannot_complete(identities, sensor_keys):
    # a responder lacking the real hub private key cannot even open the init
    hub, sensor = identities
    fake_priv, _ = overlay.generate_keypair()
    _, init = handshake_initiate(sensor, sensor_keys[0], hub)
    with pytest.raises(AuthFailure):
        handshake_respond(hub, fake_priv, {"A1": sensor}, init)


def test_replay_rejected(session_pair):
    sensor_session, hub_session = session_pair
    frame = sensor_session.seal(b"\x00once")
    assert hub_session.open(frame) == b"\x00once"
    with pytest.raises(ReplayDetected):
        hub_session.open(frame)


def test_replay_window_tolerates_reorder(session_pair):
    sensor_session, hub_session = session_pair
    frames = [sensor_session.seal(bytes([0, i])) for i in range(10)]
    order = [3, 1, 4, 0, 9, 2, 7, 5, 8, 6]
    for i in order:
        assert hub_session.open(frames[i]) == bytes([0, i])
    for frame in frames:
        with pytest.raises(ReplayDetected):
            hub_session.open(frame)


def test_nonce_too_old_rejected(session_pair):
    sensor_session, hub_session = session_pair
    old = sensor_session.seal(b"\x00old")
    for i in range(overlay.REPLAY_WINDOW + 2):
        hub_session.open(sensor_session.seal(b"\x00x"))
    with pytest.raises(ReplayDetected):
        hub_session.open(old)


def test_bit_flip_fuzz_100_all_rejected(identities, hub_keys, sensor_keys):
    hub, sensor = identities
    rng = random.Random(20250801)
    for trial in range(100):
        half, init = handshake_initiate(sensor, sensor_keys[0], hub)
        hub_session, resp = handshake_respond(hub, hub_keys[0], {"A1": sensor}, init)
        sensor_session = handshake_finalize(half, resp)
        frame = sensor_session.seal(b"\x00" + bytes(rng.randrange(256) for _ in range(32)))
        flipped = bytearray(frame.ciphertext)
        bit = rng.randrange(len(flipped) * 8)
        flipped[bit // 8] ^= 1 << (bit % 8)
        tampered = Frame(frame.msg_type, frame.src_id, frame.dst_id, bytes(flipped))
        with pytest.raises(AuthFailure):
            hub_session.open(tampered)


def test_header_tamper_rejected(session_pair):
    sensor_session, hub_session = session_pair
    frame = sensor_session.seal(b"\x00payload")
    forged = Frame(frame.msg_type, "B1", frame.dst_id, frame.ciphertext)
    with pytest.raises(AuthFailure):
        hub_session.open(forged)


def test_session_closed(session_pair):
    sensor_session, hub_session = session_pair
    frame = sensor_session.seal(b"\x00bye")
    hub_session.close()
    with pytest.raises(SessionClosed):
        hub_session.open(frame)
    with pytest.raises(SessionClosed):
        hub_session.seal(b"\x00nope")


@settings(max_examples=40, deadline=None)
@given(st.binary(min_size=0, max_size=4096))
def test_seal_open_identity_property(payload):
    priv_h, pub_h = overlay.generate_keypair()
    priv_s, pub_s = overlay.generate_keypair()
    hub = PeerIdentity("hub", pub_h, Role.HUB)
    sensor = PeerIdentity("A1", pub_s, Role.SENSOR)
    half, init = handshake_initiate(sensor, priv_s, hub)
    hub_session, resp = handshake_respond(hub, priv_h, {"A1": sensor}, init)
    sensor_session = handshake_finalize(half, resp)
    assert hub_session.open(sensor_session.seal(payload)) == payload


def test_seal_open_one_mebibyte(session_pair):
    sensor_session, hub_session = session_pair
    payload = bytes(range(256)) * 4096  # 1 MiB
    assert len(payload) == 1 << 20
    assert hub_session.open(sensor_session.seal(payload)) == payload


def test_nonce_uniqueness_over_run(session_pair):
    sensor_session, hub_session = session_pair
    seen = set()
    for _ in range(300):
        frame = sensor_session.seal(b"\x00t")
        counter = int.from_bytes(frame.ciphertext[:8], "big")
        assert counter not in seen
        seen.add(counter)
        hub_session.open(frame)


# --- routing policy ---------------------------------------------------------


def _registry(*ids):
    reg = {}
    for node_id in ids:
        _, pub = overlay.generate_keypair()
        reg[node_id] = PeerIdentity(node_id, pub, Role.SENSOR)
    return reg


def test_route_to_hub_delivered():
    reg = _registry("A1", "B1")
    frame = Frame(MsgType.DATA, "B1", "hub", b"x")
    assert hub_route("hub", reg, frame).decision is Decision.DELIVER_LOCAL


def test_route_sensor_to_sensor_policy_violation():
    reg = _registry("A1", "B1")
    frame = Frame(MsgType.DATA, "B1", "A1", b"x")
    decision = hub_route("hub", reg, frame)
    assert decision.decision is Decision.REJECT_POLICY
    assert not decision.deliver


def test_route_unknown_peer():
    reg = _registry("A1", "B1")
    frame = Frame(MsgType.DATA, "B1", "nope", b"x")
    assert hub_route("hub", reg, frame).decision is Decision.REJECT_UNKNOWN


def test_route_self_loop_dropped_silently():
    reg = _registry("A1")
    frame = Frame(MsgType.DATA, "A1", "A1", b"x")
    assert hub_route("hub", reg, frame).decision is Decision.DROP_SELF


def test_no_fuzzed_frame_ever_forwarded():
    """No sensor-injected frame may make the hub emit toward another sensor."""
    reg = _registry("A1", "B1", "C1")
    rng = random.Random(7)
    ids = ["A1", "B1", "C1", "hub", "zz"]
    for _ in range(500):
        frame = Frame(
            MsgType(rng.randrange(1, 6)),
            rng.choice(["A1", "B1", "C1"]),
            rng.choice(ids),
            bytes(rng.randrange(256) for _ in range(rng.randrange(64))),
        )
        decision = hub_route("hub", reg, frame)
        if frame.dst_id == "hub":
            assert decision.decision is Decision.DELIVER_LOCAL
        else:
            assert decision.decision is not Decision.DELIVER_LOCAL
