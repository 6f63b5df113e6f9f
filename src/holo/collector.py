"""On-sensor trace capture with hourly rotation plus lake synchronization.

Traces are standard pcap files, one per UTC hour, each sealed with a
sidecar manifest recording packet counts, the modules active during the
capture and a content hash. Each sealed hour's flow table goes to a flow
log (see analysis.encode_flow_block): on a sensor one per writer and UTC
day, in the lake one per hour. Sync uploads sealed files oldest-first to
a content-addressed lake and only ever deletes a local copy after the
lake copy verifies.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from typing import Callable, Optional

from . import HoloError, analysis
from .packets import (
    LINK_RAW_IPV4,
    DecodeError,
    PacketRecord,
    encode_record,
    encoded_headers,
    parse_headers,
)
from .pcapio import GLOBAL_HEADER, PACKET_HEADER, global_header, packet_header, read_pcap
from .toolbox import TokenBucket, allow

HOUR_US = 3_600_000_000
CHUNK_SIZE = 1 << 20  # trace chunks travel in 1 MiB pieces
BACKOFF_CAP = 15 * 60.0

REDACT_NONE = "none"
REDACT_TRUNCATE = "truncate"
REDACT_SNAP = 64  # bytes kept per packet when truncating payloads


class CollectorError(HoloError):
    pass


class LakeUnreachable(CollectorError):
    pass


class HashMismatch(CollectorError):
    """An upload's bytes do not hash to what finalize expected; the lake
    has dropped them."""


def hour_bucket(ts_us: int) -> str:
    dt = datetime.fromtimestamp(ts_us // 1_000_000, tz=timezone.utc)
    return dt.strftime("%Y-%m-%d-%H")


# the pattern datetime.strptime compiles for "%Y-%m-%d-%H"
_BUCKET = re.compile(r"(\d\d\d\d)-(1[0-2]|0[1-9]|[1-9])-(3[01]|[12]\d|0[1-9]|[1-9]| [1-9])-(2[0-3]|[01]\d|\d)")


def bucket_start_us(bucket: str) -> int:
    """The first microsecond of an hour bucket, read as UTC.

    Accepts and rejects what datetime.strptime(bucket, "%Y-%m-%d-%H") does,
    with the same ValueError, without strptime's per-call format lookup.
    """
    found = _BUCKET.match(bucket)
    if found is None:
        raise ValueError(f"time data {bucket!r} does not match format '%Y-%m-%d-%H'")
    if found.end() != len(bucket):
        raise ValueError(f"unconverted data remains: {bucket[found.end():]}")
    y, m, d, h = map(int, found.groups())
    return int(datetime(y, m, d, h, tzinfo=timezone.utc).timestamp()) * 1_000_000


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


def write_atomic(path, text, fsync: bool = True) -> None:
    """Replace path with text (str or bytes) so that a crash leaves the old
    or the new file.

    The text goes to a temp file beside path, which is renamed over it.
    With fsync, the temp file reaches the disk before the rename and the
    directory after it, so the new file also survives a power cut; without,
    only a crash of the process is covered.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb" if isinstance(text, bytes) else "w") as fh:
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


class HourlyWriter:
    """Writes PacketRecords into per-hour pcap files, sealing on rotation.

    Packets land in the file for floor(ts) by UTC hour; silent hours in
    between still produce sealed zero-packet files so gaps are
    distinguishable from missing data. The content hash and the hour's
    flow table are kept up to date as frames are written, so sealing
    reads nothing back. disk_budget bounds the bytes of the frames and of
    the flow-log rows the writer stores; the fixed headers of each hour's
    files are not counted. Once a frame would exceed it, capture pauses.

    An hour whose trace is sealed already, by an earlier writer for the
    same sensor and directory, is never reopened: its packets are dropped
    and counted in dropped, and on_event hears of it once.
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
        self.dropped = 0
        self._paused = False  # drop packets: the disk is full or the hour refused
        self._disk_full = False
        self._bucket: Optional[str] = None
        self._hour: Optional[int] = None  # ts // HOUR_US of the open file
        self._fh = None
        self._count = 0
        self._bytes = 0
        self._written = 0
        self._last_meta: Optional[TraceFileMeta] = None
        self._sha = None  # sha256 of the open file's bytes so far
        self._flows: dict = {}  # the open hour's flow rows, by integer 5-tuple
        self._flow_log: Optional[tuple[str, Path]] = None  # (UTC day, this writer's log for it)

    def _open(self, bucket: str) -> bool:
        """Open bucket's trace; False, with no file open, if it is sealed."""
        path = self.directory / trace_filename(self.sensor_id, bucket)
        self._bucket = bucket
        self._last_meta = None
        if os.path.exists(str(path) + ".meta.json"):
            self._fh = None
            self.on_event({"event": "hour-sealed", "sensor": self.sensor_id, "bucket": bucket})
            return False
        self._fh = open(path, "wb")
        header = global_header(self.link_type)
        self._fh.write(header)
        self._sha = hashlib.sha256(header)
        self._flows = {}
        self._count = 0
        self._bytes = 0
        return True

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
            content_hash=self._sha.hexdigest(),
        )
        self._log_flows(meta)
        # no fsync: on ext4 it also forces out the hour's pcap, which the
        # writer never fsyncs, and cut ingest of large-payload captures by
        # about 40 % on a 2-vCPU host
        write_atomic(str(path) + ".meta.json", meta.to_json(), fsync=False)
        os.chmod(path, 0o444)
        self._fh = None
        self._last_meta = meta
        return meta

    def _log_flows(self, meta: TraceFileMeta) -> None:
        """Append the open hour's flow table to this writer's flow log for its
        UTC day, before the hour's meta is written, so a sealed meta implies
        a complete block.

        One log per day rather than one file per hour: creating a file cost
        0.4-1 ms while a 2-vCPU host wrote captures, as much as the rest of
        a seal. The block is derived data, checked against the content hash
        when read, so it is not fsynced.
        """
        day = self._bucket[:10]
        if self._flow_log is None or self._flow_log[0] != day:
            # a log left by an earlier writer is never truncated or appended
            # to (it may end in a torn block): this writer starts its own
            path = self.directory / f"{self.sensor_id}_{self._bucket}.flows"
            n = 0
            while path.exists():
                n += 1
                path = self.directory / f"{self.sensor_id}_{self._bucket}.{n}.flows"
            self._flow_log = (day, path)
        with open(self._flow_log[1], "ab") as fh:
            fh.write(analysis.encode_flow_block(self._flows.items(), meta.content_hash))

    def append(self, pkt: PacketRecord, raw: Optional[bytes] = None, wire_len: Optional[int] = None) -> None:
        """Write one packet; rotation is driven purely by pkt.ts.

        wire_len is raw's length on the wire when it was captured short: the
        pcap record keeps it as its original length, and the flow table
        counts the payload at that length.
        """
        if self._paused and (self._disk_full or pkt.ts // HOUR_US == self._hour):
            self.dropped += 1
            return
        hour = pkt.ts // HOUR_US
        if hour != self._hour:
            bucket = hour_bucket(pkt.ts)
            if self._bucket is not None:
                if hour < self._hour:
                    raise CollectorError(
                        f"timestamp went backwards across files ({bucket} < {self._bucket})"
                    )
                if self._fh is not None:
                    self._seal_open_file()
                for gap in range(self._hour + 1, hour):
                    if self._open(hour_bucket(gap * HOUR_US)):
                        self._seal_open_file()
            self._hour = hour
            self._paused = not self._open(bucket)
            if self._paused:
                self.dropped += 1
                return
        ts = pkt.ts
        data = raw if raw is not None else encode_record(pkt)
        n = len(data)
        frame = PACKET_HEADER.pack(ts // 1_000_000, ts % 1_000_000, n, wire_len or n) + data
        if raw is None and self.link_type == LINK_RAW_IPV4:
            fields = encoded_headers(pkt)
        else:
            try:
                fields = parse_headers(data, self.link_type, wire_len)
            except DecodeError:
                fields = None  # written, but analysis skips the frame too
        size = len(frame)
        if fields is not None:
            src, dst, proto, sport, dport, flags, start, end = fields
            key = (src, dst, proto, sport, dport)
            rec = self._flows.get(key)
            if rec is None:
                size += analysis.FLOW_ROW_SIZE  # the row the hour's block gains
        if self.disk_budget is not None and self._written + size > self.disk_budget:
            self._paused = self._disk_full = True
            self.dropped += 1
            self.on_event({"event": "disk-full", "sensor": self.sensor_id, "bucket": self._bucket})
            return
        self._fh.write(frame)
        self._sha.update(frame)
        self._written += size
        self._count += 1
        self._bytes += n
        if fields is None:
            return
        if rec is None:
            self._flows[key] = [1, end - start, ts, ts, flags]
        else:
            rec[0] += 1
            rec[1] += end - start
            if ts < rec[2]:
                rec[2] = ts
            elif ts > rec[3]:
                rec[3] = ts
            rec[4] |= flags

    def seal(self) -> Optional[TraceFileMeta]:
        """Seal the open file; idempotent (re-sealing returns the same meta)."""
        if self._fh is None:
            return self._last_meta
        return self._seal_open_file()

    def close(self) -> Optional[TraceFileMeta]:
        return self.seal()


# --- data lake ----------------------------------------------------------


def lake_paths(root, sensor_id: str, bucket: str) -> tuple[Path, Path]:
    y, m, d, h = bucket.split("-")
    base = Path(root) / sensor_id / y / m / d
    return base / f"{h}.pcap", base / f"{h}.meta.json"


class _HashingReader:
    """A binary file that feeds every byte read from it to a hash."""

    def __init__(self, fh, sha):
        self.name, self._read, self._update = fh.name, fh.read, sha.update

    def read(self, n: int = -1) -> bytes:
        data = self._read(n)
        self._update(data)
        return data


def _hour_flow_rows(fh, bucket: str) -> Optional[list]:
    """Flow rows of a binary pcap file, walked as analysis walks a trace.

    None when the file is no pcap or holds a packet outside the bucket's
    UTC day, which flow-log rows cannot express.
    """
    day = bucket_start_us(bucket) // analysis.DAY_US
    try:
        table = analysis.flow_table(analysis.trace_packets([fh]))
    except ValueError:
        return None
    if any(key[0] != day for key in table):
        return None
    return [(key[1:], rec) for key, rec in table.items()]


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
        # at offset 0 a fresh part: a longer one left by another upload of
        # this hour would otherwise keep its tail past the new bytes
        mode = "r+b" if offset and part.exists() else "wb"
        with open(part, mode) as fh:
            fh.seek(offset)
            fh.write(data)

    def finalize(self, sensor_id: str, bucket: str, meta: TraceFileMeta, expect_hash: str) -> None:
        part = self._part(sensor_id, bucket)
        if not part.exists():
            raise LakeUnreachable(f"no upload in progress for {sensor_id}/{bucket}")
        # one streaming pass hashes the upload and walks it for the lake's
        # flow rows, so memory holds a record and the hour's flows, not the hour
        sha = hashlib.sha256()
        with open(part, "rb") as fh:
            reader = _HashingReader(fh, sha)
            rows = _hour_flow_rows(reader, bucket)
            for _ in iter(lambda: reader.read(1 << 16), b""):
                pass  # hash what the walk left unread
        got = sha.hexdigest()
        if got != expect_hash:
            part.unlink()
            raise HashMismatch(f"hash mismatch for {sensor_id}/{bucket}: {got}")
        pcap, meta_path = lake_paths(self.root, sensor_id, bucket)
        # built from the verified bytes, so it always matches this copy,
        # redacted or not; derived data, so no fsync
        flows_path = pcap.with_suffix(".flows")
        if rows is None:
            flows_path.unlink(missing_ok=True)
        else:
            write_atomic(flows_path, analysis.encode_flow_block(rows, got), fsync=False)
        os.replace(part, pcap)
        write_atomic(meta_path, meta.to_json())

    def verified_hash(self, sensor_id: str, bucket: str) -> Optional[str]:
        """Hash of the committed copy, recomputed from bytes; None if absent."""
        pcap, meta_path = lake_paths(self.root, sensor_id, bucket)
        if not pcap.exists() or not meta_path.exists():
            return None
        recorded = json.loads(meta_path.read_text())["content_hash"]
        actual, _ = _digest(_trace_chunks(pcap))
        return actual if actual == recorded else None

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


def _trace_chunks(path, truncate: bool = False):
    """Stream the trace at path, as sync uploads it, in pieces of up to
    CHUNK_SIZE bytes, so memory holds a piece and not the hour.

    With truncate, the stream is the redacted trace: every packet cut to
    its first REDACT_SNAP bytes, each record keeping its original (wire)
    length, and pieces end on record boundaries. The global header is
    copied as is, so the trace must be in the writer's byte order.
    """
    with open(path, "rb") as fh:
        if not truncate:
            yield from iter(partial(fh.read, CHUNK_SIZE), b"")
            return
        buf = bytearray(fh.read(GLOBAL_HEADER.size))
        fh.seek(0)
        for ts, raw, _, orig in read_pcap(fh):
            snapped = raw[:REDACT_SNAP]
            record = packet_header(ts, len(snapped), orig) + snapped
            if len(buf) + len(record) > CHUNK_SIZE:
                yield bytes(buf)
                buf.clear()
            buf += record
        yield bytes(buf)


def _digest(chunks) -> tuple[str, int]:
    """sha256 hex digest and byte count of a stream of chunks."""
    sha, size = hashlib.sha256(), 0
    for chunk in chunks:
        sha.update(chunk)
        size += len(chunk)
    return sha.hexdigest(), size


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
        bucket_limiter = TokenBucket(rate=float(policy.bandwidth_cap), burst=float(policy.bandwidth_cap))
        bucket_limiter.last_refill = clock()

    sealed = list_sealed(local_dir)
    truncate = policy.redact == REDACT_TRUNCATE

    for pcap_path, meta in sealed:
        if lake.verified_hash(meta.sensor_id, meta.hour_bucket):
            report.skipped += 1
            continue
        upload_meta, size = meta, pcap_path.stat().st_size
        if truncate:
            digest, size = _digest(_trace_chunks(pcap_path, truncate=True))
            upload_meta = replace(
                meta,
                module_manifest=list(meta.module_manifest) + [["redacted", REDACT_TRUNCATE, ""]],
                content_hash=digest,
            )
        _upload_with_retry(
            lake, upload_meta, pcap_path, truncate, size, bucket_limiter, clock, sleep, max_attempts, report
        )
        report.uploaded += 1

    cutoff = now - policy.retention_hours * 3600.0
    for pcap_path, meta in sealed:
        bucket_end = bucket_start_us(meta.hour_bucket) / 1e6 + 3600.0
        if bucket_end > cutoff:
            continue
        want = _digest(_trace_chunks(pcap_path, truncate=True))[0] if truncate else meta.content_hash
        if lake.verified_hash(meta.sensor_id, meta.hour_bucket) != want:
            continue  # never delete without a verified lake copy
        pcap_path.chmod(0o644)
        pcap_path.unlink()
        Path(str(pcap_path) + ".meta.json").unlink()
        report.deleted += 1
    _drop_dead_flow_logs(local_dir, cutoff)
    return report


def _drop_dead_flow_logs(directory, cutoff: float) -> None:
    """Delete each flow log whose UTC day ended by cutoff and of whose
    sensor and day no sealed trace is left here; this also finishes the
    work of an interrupted sync.

    A writer names a log <sensor>_<first bucket it sealed>.flows and starts
    a new one each UTC day, so the name says which traces it serves. The
    cutoff spares a log whose first block is written while its hour's
    meta is not yet, as during a seal.
    """
    directory = Path(directory)
    live = {(meta.sensor_id, meta.hour_bucket[:10]) for _, meta in list_sealed(directory)}
    for log in directory.glob("*.flows"):
        sensor, _, bucket = log.stem.rpartition("_")
        day = bucket[:10]
        if (sensor, day) in live:
            continue
        try:
            day_end = bucket_start_us(day + "-00") / 1e6 + 86400.0
        except ValueError:
            continue  # not a name the writer gives
        if day_end <= cutoff:
            log.unlink()


def _upload_with_retry(lake, meta, path, truncate, size, limiter, clock, sleep, max_attempts, report) -> None:
    """Upload the trace at path as _trace_chunks streams it, resuming at the
    lake's part; a part longer than the upload's size restarts at 0.

    A part that other bytes began (say, a plain upload interrupted before a
    redacted one) fails finalize's hash check; the hour is then uploaded
    once more from offset 0, and only a second mismatch raises.
    """
    delay = 1.0
    attempt = 0
    mismatched = False
    while True:
        try:
            resume = lake.part_size(meta.sensor_id, meta.hour_bucket)
            if resume > size or mismatched:
                resume = 0
            at = 0  # upload offset of the chunk
            for chunk in _trace_chunks(path, truncate):
                done = max(resume - at, 0)  # bytes of the chunk the lake holds
                while done < len(chunk):
                    want = len(chunk) - done
                    granted = want if limiter is None else allow(limiter, clock(), want)
                    if granted == 0:
                        sleep(min(1.0, want / limiter.rate))
                        continue
                    lake.put_chunk(meta.sensor_id, meta.hour_bucket, at + done, chunk[done : done + granted])
                    report.bytes_sent += granted
                    done += granted
                at += len(chunk)
            lake.finalize(meta.sensor_id, meta.hour_bucket, meta, meta.content_hash)
            return
        except HashMismatch:
            if mismatched:
                raise
            mismatched = True
        except LakeUnreachable:
            report.retried += 1
            attempt += 1
            if attempt == max_attempts:
                raise
            sleep(delay)
            delay = min(delay * 2, BACKOFF_CAP)
