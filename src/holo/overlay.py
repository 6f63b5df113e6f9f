"""Hub-and-spoke encrypted overlay.

Every sensor keeps a single mutually authenticated session with the hub;
the hub never forwards frames between sensors. The handshake is a
one-round-trip key agreement over pre-registered X25519 static keys plus
per-session ephemerals; traffic protection is ChaCha20-Poly1305 with a
64-bit counter nonce and a sliding replay window.

Wire format (bit-exact):
    version(1) | msg_type(1) | src_id_len(1) | src_id | dst_id_len(1)
    | dst_id | length(4, big-endian) | ciphertext
Data plaintext begins with a one-byte channel tag: 0=control, 1=logs,
2=trace-chunks.
"""

from __future__ import annotations

import enum
import hashlib
import hmac
import os
import struct
from dataclasses import dataclass, field

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305
from cryptography.hazmat.primitives.serialization import (
    Encoding,
    NoEncryption,
    PrivateFormat,
    PublicFormat,
)

PROTOCOL_VERSION = 1
PROLOGUE = b"holo-overlay-v1"

KEEPALIVE_INTERVAL = 25.0
MISSED_KEEPALIVES_LIMIT = 3
REPLAY_WINDOW = 1024

CH_CONTROL = 0
CH_LOGS = 1
CH_TRACE = 2

MAX_NODE_ID = 64


class OverlayError(Exception):
    pass


class UnknownHub(OverlayError):
    pass


class AuthFailure(OverlayError):
    pass


class ReplayDetected(OverlayError):
    pass


class SessionClosed(OverlayError):
    pass


class PolicyViolation(OverlayError):
    pass


class FrameError(OverlayError):
    pass


class Role(enum.Enum):
    HUB = "hub"
    SENSOR = "sensor"


class MsgType(enum.IntEnum):
    HANDSHAKE_INIT = 1
    HANDSHAKE_RESP = 2
    DATA = 3
    KEEPALIVE = 4
    CLOSE = 5


@dataclass(frozen=True)
class PeerIdentity:
    node_id: str
    static_public_key: bytes
    role: Role

    def __post_init__(self):
        if not self.node_id or len(self.node_id.encode()) > MAX_NODE_ID:
            raise ValueError("node_id must be 1..64 bytes")
        if len(self.static_public_key) != 32:
            raise ValueError("static_public_key must be 32 bytes")


def _ephemeral() -> tuple[X25519PrivateKey, bytes]:
    """A fresh key object and its raw public key."""
    priv = X25519PrivateKey.generate()
    return priv, priv.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)


def generate_keypair() -> tuple[bytes, bytes]:
    """Return (private, public) raw 32-byte X25519 key material."""
    priv, raw_pub = _ephemeral()
    return priv.private_bytes(Encoding.Raw, PrivateFormat.Raw, NoEncryption()), raw_pub


def _dh(private: X25519PrivateKey, public: bytes) -> bytes:
    return private.exchange(X25519PublicKey.from_public_bytes(public))


def _mix(chain: bytes, material: bytes) -> bytes:
    return hmac.new(chain, material, hashlib.sha256).digest()


def _derive(chain: bytes, label: bytes) -> bytes:
    return hmac.new(chain, label + b"\x01", hashlib.sha256).digest()


@dataclass
class Frame:
    msg_type: MsgType
    src_id: str
    dst_id: str
    ciphertext: bytes
    version: int = PROTOCOL_VERSION


def encode_frame(frame: Frame) -> bytes:
    src = frame.src_id.encode()
    dst = frame.dst_id.encode()
    if len(src) > MAX_NODE_ID or len(dst) > MAX_NODE_ID:
        raise FrameError("node id exceeds 64 bytes")
    return b"".join(
        [
            bytes([frame.version, int(frame.msg_type), len(src)]),
            src,
            bytes([len(dst)]),
            dst,
            struct.pack(">I", len(frame.ciphertext)),
            frame.ciphertext,
        ]
    )


@dataclass
class Session:
    """Symmetric state shared between one sensor and the hub."""

    local_id: str
    peer: PeerIdentity
    send_key: bytes
    recv_key: bytes
    established_at: float
    send_counter: int = 0
    recv_max: int = -1
    recv_window: int = 0
    last_recv_at: float = 0.0
    closed: bool = False

    def _aad(self, msg_type: MsgType, src: str, dst: str) -> bytes:
        return bytes([PROTOCOL_VERSION, int(msg_type)]) + src.encode() + b"|" + dst.encode()

    def seal(self, plaintext: bytes, msg_type: MsgType = MsgType.DATA) -> Frame:
        if self.closed:
            raise SessionClosed(f"session with {self.peer.node_id} is closed")
        counter = self.send_counter
        self.send_counter += 1
        nonce = b"\x00\x00\x00\x00" + struct.pack(">Q", counter)
        aad = self._aad(msg_type, self.local_id, self.peer.node_id)
        ct = ChaCha20Poly1305(self.send_key).encrypt(nonce, plaintext, aad)
        return Frame(msg_type, self.local_id, self.peer.node_id, struct.pack(">Q", counter) + ct)

    def open(self, frame: Frame) -> bytes:
        if self.closed:
            raise SessionClosed(f"session with {self.peer.node_id} is closed")
        if len(frame.ciphertext) < 8 + 16:
            raise AuthFailure("ciphertext too short")
        (counter,) = struct.unpack_from(">Q", frame.ciphertext)
        self._check_replay(counter)
        nonce = b"\x00\x00\x00\x00" + struct.pack(">Q", counter)
        aad = self._aad(frame.msg_type, frame.src_id, frame.dst_id)
        try:
            plaintext = ChaCha20Poly1305(self.recv_key).decrypt(
                nonce, frame.ciphertext[8:], aad
            )
        except InvalidTag:
            raise AuthFailure("authentication tag mismatch") from None
        self._mark_seen(counter)
        return plaintext

    # Sliding-window anti-replay over the 64-bit counter. The window is
    # only advanced after successful authentication so unauthenticated
    # frames cannot poison it.
    def _check_replay(self, counter: int) -> None:
        if counter > self.recv_max:
            return
        behind = self.recv_max - counter
        if behind >= REPLAY_WINDOW:
            raise ReplayDetected(f"nonce {counter} too old")
        if self.recv_window & (1 << behind):
            raise ReplayDetected(f"nonce {counter} already accepted")

    def _mark_seen(self, counter: int) -> None:
        if counter > self.recv_max:
            shift = counter - self.recv_max
            if shift >= REPLAY_WINDOW:
                self.recv_window = 1
            else:
                self.recv_window = ((self.recv_window << shift) | 1) & (
                    (1 << REPLAY_WINDOW) - 1
                )
            self.recv_max = counter
        else:
            self.recv_window |= 1 << (self.recv_max - counter)

    def close(self) -> None:
        self.closed = True

    def expired(self, now: float, keepalive: float = KEEPALIVE_INTERVAL) -> bool:
        """True once MISSED_KEEPALIVES_LIMIT keepalive intervals pass silently."""
        last = self.last_recv_at or self.established_at
        return (now - last) > keepalive * MISSED_KEEPALIVES_LIMIT


@dataclass
class HalfOpenSession:
    local: PeerIdentity
    hub: PeerIdentity
    ephemeral_private: X25519PrivateKey
    ephemeral_public: bytes
    static_private: bytes
    chain: bytes


def handshake_initiate(
    local: PeerIdentity,
    static_private: bytes,
    hub: PeerIdentity,
) -> tuple[HalfOpenSession, Frame]:
    """Sensor side: build the HandshakeInit frame toward the hub.

    Fresh ephemeral material is drawn per call; the hub authenticates us
    through the DH over our registered static key.
    """
    if hub.role is not Role.HUB:
        raise UnknownHub(f"{hub.node_id} is not a hub identity")
    if hub.static_public_key == b"\x00" * 32:
        raise UnknownHub("hub static key not configured")
    e_priv, e_pub = _ephemeral()
    chain = hashlib.sha256(PROLOGUE).digest()
    chain = _mix(chain, e_pub)
    chain = _mix(chain, _dh(e_priv, hub.static_public_key))
    static = X25519PrivateKey.from_private_bytes(static_private)
    chain = _mix(chain, _dh(static, hub.static_public_key))
    k_init = _derive(chain, b"init")
    aad = b"init|" + local.node_id.encode() + b"|" + hub.node_id.encode()
    payload = local.static_public_key + os.urandom(8)
    ct = ChaCha20Poly1305(k_init).encrypt(b"\x00" * 12, payload, aad)
    frame = Frame(MsgType.HANDSHAKE_INIT, local.node_id, hub.node_id, e_pub + ct)
    half = HalfOpenSession(local, hub, e_priv, e_pub, static_private, chain)
    return half, frame


def handshake_respond(
    hub: PeerIdentity,
    hub_static_private: bytes,
    registry: dict[str, PeerIdentity],
    frame: Frame,
    now: float = 0.0,
) -> tuple[Session, Frame]:
    """Hub side: authenticate the initiator and emit HandshakeResp."""
    if frame.msg_type is not MsgType.HANDSHAKE_INIT:
        raise FrameError("expected HandshakeInit")
    if len(frame.ciphertext) < 32 + 16:
        raise AuthFailure("handshake frame too short")
    peer = registry.get(frame.src_id)
    if peer is None:
        raise AuthFailure(f"no registered key for {frame.src_id!r}")
    e_i_pub = frame.ciphertext[:32]
    hub_static = X25519PrivateKey.from_private_bytes(hub_static_private)
    chain = hashlib.sha256(PROLOGUE).digest()
    chain = _mix(chain, e_i_pub)
    chain = _mix(chain, _dh(hub_static, e_i_pub))
    chain = _mix(chain, _dh(hub_static, peer.static_public_key))
    k_init = _derive(chain, b"init")
    aad = b"init|" + frame.src_id.encode() + b"|" + frame.dst_id.encode()
    try:
        payload = ChaCha20Poly1305(k_init).decrypt(b"\x00" * 12, frame.ciphertext[32:], aad)
    except InvalidTag:
        raise AuthFailure(f"handshake from {frame.src_id!r} failed to verify") from None
    if payload[:32] != peer.static_public_key:
        raise AuthFailure(f"{frame.src_id!r} presented an unregistered static key")

    e_r_priv, e_r_pub = _ephemeral()
    chain = _mix(chain, e_r_pub)
    chain = _mix(chain, _dh(e_r_priv, e_i_pub))
    chain = _mix(chain, _dh(e_r_priv, peer.static_public_key))
    k_resp = _derive(chain, b"resp")
    resp_aad = b"resp|" + hub.node_id.encode() + b"|" + frame.src_id.encode()
    resp_ct = ChaCha20Poly1305(k_resp).encrypt(b"\x00" * 12, b"", resp_aad)
    resp = Frame(MsgType.HANDSHAKE_RESP, hub.node_id, frame.src_id, e_r_pub + resp_ct)
    session = Session(
        local_id=hub.node_id,
        peer=peer,
        send_key=_derive(chain, b"hub->sensor"),
        recv_key=_derive(chain, b"sensor->hub"),
        established_at=now,
        last_recv_at=now,
    )
    return session, resp


def handshake_finalize(half: HalfOpenSession, frame: Frame, now: float = 0.0) -> Session:
    """Sensor side: verify HandshakeResp and derive the session keys."""
    if frame.msg_type is not MsgType.HANDSHAKE_RESP:
        raise FrameError("expected HandshakeResp")
    if len(frame.ciphertext) < 32 + 16:
        raise AuthFailure("handshake response too short")
    e_r_pub = frame.ciphertext[:32]
    chain = _mix(half.chain, e_r_pub)
    chain = _mix(chain, _dh(half.ephemeral_private, e_r_pub))
    static = X25519PrivateKey.from_private_bytes(half.static_private)
    chain = _mix(chain, _dh(static, e_r_pub))
    k_resp = _derive(chain, b"resp")
    aad = b"resp|" + half.hub.node_id.encode() + b"|" + half.local.node_id.encode()
    try:
        ChaCha20Poly1305(k_resp).decrypt(b"\x00" * 12, frame.ciphertext[32:], aad)
    except InvalidTag:
        raise AuthFailure("hub failed to authenticate") from None
    return Session(
        local_id=half.local.node_id,
        peer=half.hub,
        send_key=_derive(chain, b"sensor->hub"),
        recv_key=_derive(chain, b"hub->sensor"),
        established_at=now,
        last_recv_at=now,
    )


class Decision(enum.Enum):
    DELIVER_LOCAL = "deliver"
    REJECT_POLICY = "policy-violation"
    REJECT_UNKNOWN = "unknown-peer"
    DROP_SELF = "drop-self"


@dataclass(frozen=True)
class ForwardDecision:
    decision: Decision
    reason: str = ""

    @property
    def deliver(self) -> bool:
        return self.decision is Decision.DELIVER_LOCAL


def hub_route(hub_id: str, registry: dict[str, PeerIdentity], frame: Frame) -> ForwardDecision:
    """Routing policy at the hub: local delivery only, never sensor-to-sensor.

    Pure given the registry snapshot. Frames a sensor addresses to itself
    are dropped silently (nothing to forward in a hub-and-spoke overlay).
    """
    if frame.dst_id == hub_id:
        return ForwardDecision(Decision.DELIVER_LOCAL)
    if frame.dst_id == frame.src_id:
        return ForwardDecision(Decision.DROP_SELF, "loopback destination")
    if frame.dst_id in registry:
        return ForwardDecision(
            Decision.REJECT_POLICY,
            f"sensor-to-sensor frame {frame.src_id!r} -> {frame.dst_id!r}",
        )
    return ForwardDecision(Decision.REJECT_UNKNOWN, f"unknown destination {frame.dst_id!r}")


def data_plaintext(channel: int, payload: bytes) -> bytes:
    """Channel-tagged Data plaintext (tag 0=control, 1=logs, 2=trace-chunks)."""
    if channel not in (CH_CONTROL, CH_LOGS, CH_TRACE):
        raise ValueError(f"bad channel tag {channel}")
    return bytes([channel]) + payload


def split_plaintext(plaintext: bytes) -> tuple[int, bytes]:
    if not plaintext:
        raise FrameError("empty data plaintext")
    return plaintext[0], plaintext[1:]
