"""On-sensor trace capture with hourly rotation plus lake synchronization.

Traces are standard pcap files, one per UTC hour, each sealed with a
sidecar manifest recording packet counts, the modules active during the
capture and a content hash. Sync uploads sealed files oldest-first to a
content-addressed lake and only ever deletes a local copy after the lake
copy verifies.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field, asdict
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Optional

from .packets import LINK_RAW_IPV4, PacketRecord, encode_record
from .pcapio import global_header, packet_header
from .toolbox import TokenBucket, allow

HOUR_US = 3_600_000_000
CHUNK_SIZE = 1 << 20  # trace chunks travel in 1 MiB pieces
BACKOFF_CAP = 15 * 60.0

REDACT_NONE = "none"
REDACT_TRUNCATE = "truncate"
REDACT_SNAP = 64  # bytes kept per packet when truncating payloads


class CollectorError(Exception):
    pass


class LakeUnreachable(CollectorError):
    pass


def hour_bucket(ts_us: int) -> str:
    dt = datetime.fromtimestamp(ts_us // 1_000_000, tz=timezone.utc)
    return dt.strftime("%Y-%m-%d-%H")


def bucket_start_us(bucket: str) -> int:
    dt = datetime.strptime(bucket, "%Y-%m-%d-%H").replace(tzinfo=timezone.utc)
    return int(dt.timestamp()) * 1_000_000


@dataclass
class TraceFileMeta:
    sensor_id: str
    hour_bucket: str
    packet_count: int
    byte_count: int
    module_manifest: list
    sealed: bool
    content_hash: str

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def write_atomic(path, text: str, fsync: bool = True) -> None:
    """Replace path with text so that a crash leaves the old or the new file.

    The text goes to a temp file beside path, which is renamed over it.
    With fsync, the temp file reaches the disk before the rename and the
    directory after it, so the new file also survives a power cut; without,
    only a crash of the process is covered.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as fh:
        fh.write(text)
        if fsync:
            fh.flush()
            os.fsync(fh.fileno())
    os.replace(tmp, path)
    if fsync:
        fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def trace_filename(sensor_id: str, bucket: str) -> str:
    return f"{sensor_id}_{bucket}.pcap"


def read_meta(path) -> TraceFileMeta:
    doc = json.loads(Path(path).read_text())
    return TraceFileMeta(**doc)


def sealed_traces(root) -> list[tuple[Path, TraceFileMeta]]:
    """Sealed trace files under root with their sidecars, in path order.

    Accepts the local layout (<sensor>_<bucket>.pcap beside
    <sensor>_<bucket>.pcap.meta.json) and the lake layout (HH.pcap beside
    HH.meta.json).
    """
    out = []
    for meta_path in sorted(Path(root).rglob("*.meta.json")):
        stem = meta_path.name[: -len(".meta.json")]
        pcap_path = meta_path.with_name(stem if stem.endswith(".pcap") else stem + ".pcap")
        out.append((pcap_path, read_meta(meta_path)))
    return out


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


class HourlyWriter:
    """Writes PacketRecords into per-hour pcap files, sealing on rotation.

    Packets land in the file for floor(ts) by UTC hour; silent hours in
    between still produce sealed zero-packet files so gaps are
    distinguishable from missing data.
    """

    def __init__(
        self,
        directory,
        sensor_id: str,
        link_type: int = LINK_RAW_IPV4,
        manifest: Optional[Callable] = None,
        disk_budget: Optional[int] = None,
        on_event: Optional[Callable] = None,
    ):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.sensor_id = sensor_id
        self.link_type = link_type
        self.manifest = manifest or (lambda: [])
        self.disk_budget = disk_budget
        self.on_event = on_event or (lambda event: None)
        self.sealed: list[TraceFileMeta] = []
        self.dropped = 0
        self._paused = False
        self._bucket: Optional[str] = None
        self._hour: Optional[int] = None  # ts // HOUR_US of the open file
        self._fh = None
        self._count = 0
        self._bytes = 0
        self._written = 0
        self._last_meta: Optional[TraceFileMeta] = None

    def _open(self, bucket: str) -> None:
        path = self.directory / trace_filename(self.sensor_id, bucket)
        self._fh = open(path, "wb")
        self._fh.write(global_header(self.link_type))
        self._bucket = bucket
        self._count = 0
        self._bytes = 0
        self._last_meta = None

    def _seal_open_file(self) -> TraceFileMeta:
        self._fh.close()
        path = self.directory / trace_filename(self.sensor_id, self._bucket)
        meta = TraceFileMeta(
            sensor_id=self.sensor_id,
            hour_bucket=self._bucket,
            packet_count=self._count,
            byte_count=self._bytes,
            module_manifest=list(self.manifest()),
            sealed=True,
            content_hash=_sha256_file(path),
        )
        # no fsync: on ext4 it also forces out the hour's pcap, which the
        # writer never fsyncs, and cut ingest of large-payload captures by
        # about 40 % on a 2-vCPU host
        write_atomic(str(path) + ".meta.json", meta.to_json(), fsync=False)
        os.chmod(path, 0o444)
        self.sealed.append(meta)
        self._fh = None
        self._last_meta = meta
        return meta

    def append(self, pkt: PacketRecord, raw: Optional[bytes] = None) -> None:
        """Write one packet; rotation is driven purely by pkt.ts."""
        if self._paused:
            self.dropped += 1
            return
        hour = pkt.ts // HOUR_US
        if hour != self._hour:
            bucket = hour_bucket(pkt.ts)
            if self._bucket is None:
                self._open(bucket)
            else:
                if hour < self._hour:
                    raise CollectorError(
                        f"timestamp went backwards across files ({bucket} < {self._bucket})"
                    )
                self._seal_open_file()
                for gap in range(self._hour + 1, hour):
                    self._open(hour_bucket(gap * HOUR_US))
                    self._seal_open_file()
                self._open(bucket)
            self._hour = hour
        data = raw if raw is not None else encode_record(pkt)
        frame = packet_header(pkt.ts, len(data)) + data
        if self.disk_budget is not None and self._written + len(frame) > self.disk_budget:
            self._paused = True
            self.dropped += 1
            self.on_event({"event": "disk-full", "sensor": self.sensor_id, "bucket": self._bucket})
            return
        self._fh.write(frame)
        self._written += len(frame)
        self._count += 1
        self._bytes += len(data)

    def seal(self) -> Optional[TraceFileMeta]:
        """Seal the open file; idempotent (re-sealing returns the same meta)."""
        if self._fh is None:
            return self._last_meta
        return self._seal_open_file()

    def close(self) -> list[TraceFileMeta]:
        self.seal()
        return self.sealed


# --- data lake ----------------------------------------------------------


def lake_paths(root, sensor_id: str, bucket: str) -> tuple[Path, Path]:
    y, m, d, h = bucket.split("-")
    base = Path(root) / sensor_id / y / m / d
    return base / f"{h}.pcap", base / f"{h}.meta.json"


class LocalLake:
    """Content-addressed directory tree holding sealed trace files."""

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _part(self, sensor_id: str, bucket: str) -> Path:
        pcap, _ = lake_paths(self.root, sensor_id, bucket)
        return Path(str(pcap) + ".part")

    def part_size(self, sensor_id: str, bucket: str) -> int:
        part = self._part(sensor_id, bucket)
        return part.stat().st_size if part.exists() else 0

    def put_chunk(self, sensor_id: str, bucket: str, offset: int, data: bytes) -> None:
        part = self._part(sensor_id, bucket)
        part.parent.mkdir(parents=True, exist_ok=True)
        mode = "r+b" if part.exists() else "wb"
        with open(part, mode) as fh:
            fh.seek(offset)
            fh.write(data)

    def finalize(self, sensor_id: str, bucket: str, meta: TraceFileMeta, expect_hash: str) -> None:
        part = self._part(sensor_id, bucket)
        if not part.exists():
            raise LakeUnreachable(f"no upload in progress for {sensor_id}/{bucket}")
        got = _sha256_file(part)
        if got != expect_hash:
            part.unlink()
            raise CollectorError(f"hash mismatch for {sensor_id}/{bucket}: {got}")
        pcap, meta_path = lake_paths(self.root, sensor_id, bucket)
        os.replace(part, pcap)
        write_atomic(meta_path, meta.to_json())

    def verified_hash(self, sensor_id: str, bucket: str) -> Optional[str]:
        """Hash of the committed copy, recomputed from bytes; None if absent."""
        pcap, meta_path = lake_paths(self.root, sensor_id, bucket)
        if not pcap.exists() or not meta_path.exists():
            return None
        recorded = json.loads(meta_path.read_text())["content_hash"]
        actual = _sha256_file(pcap)
        return actual if actual == recorded else None

    def holdings(self) -> list[tuple[str, str]]:
        out = []
        for meta_path in sorted(self.root.rglob("*.meta.json")):
            doc = json.loads(meta_path.read_text())
            out.append((doc["sensor_id"], doc["hour_bucket"]))
        return out


@dataclass
class SyncPolicy:
    enabled: bool = True
    retention_hours: int = 24
    bandwidth_cap: Optional[int] = None  # bytes per second
    redact: str = REDACT_NONE

    def __post_init__(self):
        if self.enabled and self.retention_hours < 1:
            raise ValueError("retention_hours must be >= 1 when sync is enabled")


@dataclass
class SyncReport:
    uploaded: int = 0
    deleted: int = 0
    skipped: int = 0
    retried: int = 0
    bytes_sent: int = 0
    cleaned: int = 0


def _truncate_payloads(data: bytes) -> bytes:
    """Redaction: keep only the first REDACT_SNAP bytes of every packet."""
    from .pcapio import GLOBAL_HEADER, PACKET_HEADER

    out = bytearray(data[: GLOBAL_HEADER.size])
    pos = GLOBAL_HEADER.size
    while pos + PACKET_HEADER.size <= len(data):
        sec, usec, incl, orig = PACKET_HEADER.unpack_from(data, pos)
        pos += PACKET_HEADER.size
        raw = data[pos : pos + incl]
        pos += incl
        snapped = raw[:REDACT_SNAP]
        out += PACKET_HEADER.pack(sec, usec, len(snapped), orig)
        out += snapped
    return bytes(out)


def list_sealed(directory) -> list[tuple[Path, TraceFileMeta]]:
    """Sealed local trace files, oldest bucket first; drops orphan sidecars."""
    out = []
    for meta_path in sorted(Path(directory).glob("*.pcap.meta.json")):
        pcap_path = Path(str(meta_path)[: -len(".meta.json")])
        meta = read_meta(meta_path)
        if not meta.sealed:
            continue
        if not pcap_path.exists():
            meta_path.unlink()  # deletion interrupted mid-way; finish it
            continue
        out.append((pcap_path, meta))
    out.sort(key=lambda pair: pair[1].hour_bucket)
    return out


def sync(
    policy: SyncPolicy,
    local_dir,
    lake,
    now: Optional[float] = None,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
    max_attempts: int = 8,
) -> SyncReport:
    """Upload sealed files oldest-first, then apply retention.

    A local file is deleted only after the lake copy re-verifies by
    content hash. LakeUnreachable is retried with exponential backoff
    capped at 15 minutes; local files are kept on persistent failure.
    """
    report = SyncReport()
    if not policy.enabled:
        return report
    now = time.time() if now is None else now

    bucket_limiter = None
    if policy.bandwidth_cap:
        bucket_limiter = TokenBucket(rate=float(policy.bandwidth_cap), burst=float(policy.bandwidth_cap), unit="bytes")
        bucket_limiter.last_refill = clock()

    sealed = list_sealed(local_dir)
    report.cleaned = 0

    for pcap_path, meta in sealed:
        if lake.verified_hash(meta.sensor_id, meta.hour_bucket):
            report.skipped += 1
            continue
        data = pcap_path.read_bytes()
        upload_meta = meta
        if policy.redact == REDACT_TRUNCATE:
            data = _truncate_payloads(data)
            upload_meta = TraceFileMeta(
                sensor_id=meta.sensor_id,
                hour_bucket=meta.hour_bucket,
                packet_count=meta.packet_count,
                byte_count=meta.byte_count,
                module_manifest=list(meta.module_manifest) + [["redacted", REDACT_TRUNCATE, ""]],
                sealed=True,
                content_hash=hashlib.sha256(data).hexdigest(),
            )
        _upload_with_retry(
            lake, upload_meta, data, bucket_limiter, clock, sleep, max_attempts, report
        )
        report.uploaded += 1

    cutoff = now - policy.retention_hours * 3600.0
    for pcap_path, meta in sealed:
        bucket_end = bucket_start_us(meta.hour_bucket) / 1e6 + 3600.0
        if bucket_end > cutoff:
            continue
        want = meta.content_hash
        if policy.redact == REDACT_TRUNCATE:
            want = hashlib.sha256(_truncate_payloads(pcap_path.read_bytes())).hexdigest()
        if lake.verified_hash(meta.sensor_id, meta.hour_bucket) != want:
            continue  # never delete without a verified lake copy
        pcap_path.chmod(0o644)
        pcap_path.unlink()
        Path(str(pcap_path) + ".meta.json").unlink()
        report.deleted += 1
    return report


def _upload_with_retry(lake, meta, data, limiter, clock, sleep, max_attempts, report) -> None:
    delay = 1.0
    for attempt in range(max_attempts):
        try:
            offset = lake.part_size(meta.sensor_id, meta.hour_bucket)
            if offset > len(data):
                offset = 0
            while offset < len(data):
                piece = data[offset : offset + CHUNK_SIZE]
                if limiter is not None:
                    sent = 0
                    while sent < len(piece):
                        granted = allow(limiter, clock(), len(piece) - sent)
                        if granted == 0:
                            sleep(min(1.0, max(len(piece) - sent, 1) / limiter.rate))
                            continue
                        lake.put_chunk(meta.sensor_id, meta.hour_bucket, offset + sent, piece[sent : sent + granted])
                        sent += granted
                else:
                    lake.put_chunk(meta.sensor_id, meta.hour_bucket, offset, piece)
                offset += len(piece)
                report.bytes_sent += len(piece)
            lake.finalize(meta.sensor_id, meta.hour_bucket, meta, meta.content_hash)
            return
        except LakeUnreachable:
            report.retried += 1
            if attempt == max_attempts - 1:
                raise
            sleep(delay)
            delay = min(delay * 2, BACKOFF_CAP)
