"""Segmented write-ahead log of coalesced tenant update batches.

One :class:`WriteAheadLog` owns a directory of append-only segment
files (``wal-00000001.log``, …).  Every record is one *batch*: either a
tenant registration (so recovery can rebuild monitors created after the
last snapshot) or the coalesced event batch a tenant's monitor consumed
at one flush — written **before** the batch is dispatched to its shard,
so the durable order is exactly the order the monitors applied
(write-ahead).  Batches carry a global, strictly increasing sequence
number.  A snapshot covers every batch through its ``wal_seq``:
recovery replays only the batches past it, and the sealed segments it
covers are deleted.

Durability knobs
----------------
``fsync="always"``
    fsync after every append — maximum durability, pays a disk flush
    per batch.
``fsync="flush"`` (default)
    fsync once per drain cycle (:meth:`sync`, called by the ingestion
    path after it appended every tenant's batch for the window) —
    bounded loss: at most one flush window on power failure, nothing on
    process crash (the OS holds the bytes).
``fsync="never"``
    OS page cache only; still crash-safe against process death.

Crash tolerance
---------------
Opening a log *repairs* it: each segment's records are walked in order
and the file is truncated at the first torn or corrupt record (short
header, short payload, CRC mismatch); any later segments are discarded
entirely.  Everything before the first bad checksum is recovered —
nothing after it is guessed at.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Callable, Hashable

from repro.persistence.codec import (
    BATCH_KIND_EPOCH,
    BATCH_KIND_EVENTS,
    BATCH_KIND_REGISTER,
    SUPPORTED_WAL_VERSIONS,
    CorruptRecordError,
    PersistenceError,
    WAL_MAGIC,
    WAL_MAGIC_PREFIX,
    decode_batch_payload,
    decode_event,
    decode_record_stream,
    encode_batch_payload,
    encode_event,
    encode_record,
)
from repro.streaming.events import UpdateEvent

__all__ = [
    "WriteAheadLog",
    "WalBatch",
    "WalChunk",
    "SegmentWriter",
    "FSYNC_POLICIES",
    "decode_batch",
    "remove_segments_below",
    "scan_batches",
    "segment_header_ok",
]

TenantId = Hashable
FSYNC_POLICIES = ("always", "flush", "never")

_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".log"


@dataclass(frozen=True)
class WalBatch:
    """One durable record: a registration, event batch, or epoch stamp."""

    seq: int
    tenant_id: TenantId
    kind: str  # "events" | "register" | "epoch"
    events: tuple[UpdateEvent, ...] = ()
    register: dict | None = None
    #: For ``kind == "epoch"``: the fencing epoch this primary claimed
    #: and the node id that claimed it.  Every later batch in the log
    #: belongs to this epoch until the next stamp.
    epoch: int | None = None
    node: str | None = None


@dataclass(frozen=True)
class WalChunk:
    """Raw segment bytes handed to a replication fetch.

    ``data`` starts at ``(segment, offset)`` in the primary's byte
    order; a replica that mirrors chunks verbatim reproduces the
    primary's segment files bit for bit, so sequence numbers, CRC
    framing, and :func:`count_durable_batches` all carry over unchanged.
    """

    segment: int
    offset: int
    data: bytes
    #: True when this read exhausted a *sealed* segment — the next
    #: cursor is ``(segment + 1, 0)``.  The active segment is never
    #: exhausted; an empty chunk there means "caught up, poll again".
    exhausted: bool
    #: True when the requested segment was already truncated away; the
    #: caller must restart from ``oldest_segment`` (or bootstrap from a
    #: snapshot if it has a gap).
    gone: bool
    oldest_segment: int
    #: Set alongside ``gone``: a reader whose applied sequence reaches
    #: this floor holds every record the truncated segments contained,
    #: so ``(oldest_segment, 0)`` is a complete resume point for it.
    #: Below the floor the reader has a real gap and must re-bootstrap.
    resume_floor: int | None = None


@dataclass
class _Segment:
    path: Path
    first_seq: int | None = None
    last_seq: int | None = None


def _segment_index(path: Path) -> int:
    return int(path.name[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)])


def _segment_path(directory: Path, index: int) -> Path:
    return directory / f"{_SEGMENT_PREFIX}{index:08d}{_SEGMENT_SUFFIX}"


def _segment_files(directory: Path) -> list[Path]:
    """*directory*'s segment files, oldest first."""
    paths = [
        path
        for path in directory.glob(f"{_SEGMENT_PREFIX}*{_SEGMENT_SUFFIX}")
        if path.name[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)].isdigit()
    ]
    return sorted(paths, key=_segment_index)


def remove_segments_below(directory: str | os.PathLike, index: int) -> None:
    """Delete *directory*'s segment files numbered below *index*.

    For a replica mirror that a cold bootstrap positioned at *index*:
    the segments below it hold no records.
    """
    directory = Path(directory)
    stale = [
        path for path in _segment_files(directory)
        if _segment_index(path) < index
    ]
    for path in stale:
        path.unlink()
    if stale:
        _fsync_dir(directory)


def segment_header_ok(data: bytes) -> bool:
    """Whether *data* opens with a segment header this build reads."""
    return (
        len(data) >= len(WAL_MAGIC)
        and data[:8] == WAL_MAGIC_PREFIX
        and data[8] in SUPPORTED_WAL_VERSIONS
    )


def scan_batches(directory: str | os.PathLike) -> list[WalBatch]:
    """Every intact batch in *directory*'s segments, in sequence order.

    A pure read: unlike opening a :class:`WriteAheadLog`, which repairs
    torn tails in place, this walks the segment bytes as they are, so
    it is safe next to a live writer in another process.  It stops at
    the first segment whose header it cannot read and at the first torn
    or corrupt record.  A segment deleted between listing and reading
    is skipped: truncation deletes only segments a published snapshot
    covers.
    """
    batches: list[WalBatch] = []
    for path in _segment_files(Path(directory)):
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            continue
        if not segment_header_ok(data):
            break
        for payload, _ in decode_record_stream(data, start=len(WAL_MAGIC)):
            try:
                batches.append(decode_batch(payload))
            except CorruptRecordError:
                return batches
    return batches


def _fsync_dir(directory: Path) -> None:
    """Best-effort directory fsync so renames/creates are durable."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - e.g. network filesystems
        pass
    finally:
        os.close(fd)


class SegmentWriter:
    """Appends whole records to a directory's numbered segment files.

    The one owner of the fsync policy (see the module docstring) and of
    torn-append repair, shared by :class:`WriteAheadLog` and a replica's
    byte-for-byte mirror.  An append that fails part-way (ENOSPC, EIO,
    a partial write) is cut back to the last good byte before the error
    propagates: the handle keeps appending, and readers stop at the
    first bad record, so a tear left in place would silently discard
    every later good batch.
    """

    def __init__(
        self,
        directory: Path,
        *,
        fsync: str,
        io_wrapper: Callable[[BinaryIO], BinaryIO] | None = None,
    ) -> None:
        self._directory = Path(directory)
        self._fsync = fsync
        self._io_wrapper = io_wrapper
        self._handle: BinaryIO | None = None
        #: Index of the segment being appended to (see begin_segment).
        self.index = 0
        #: Verified bytes in that segment: where the next append lands.
        self.offset = 0

    def begin_segment(self, index: int, *, header: bytes | None = None) -> None:
        """Seal the current segment, if any, and append to *index*.

        ``header`` first replaces the target file's bytes: a new WAL
        segment's magic, or ``b""`` to empty a mirror segment that the
        shipped stream will fill from its first byte.
        """
        if self._handle is not None:
            self.sync()
            self._handle.close()
        path = _segment_path(self._directory, index)
        if header is not None:
            path.write_bytes(header)
        raw: BinaryIO = open(path, "ab")
        if self._io_wrapper is not None:
            raw = self._io_wrapper(raw)
        self._handle = raw
        self.index = int(index)
        self.offset = raw.tell()

    def append(self, data: bytes) -> None:
        """Write and flush *data*; fsync it under ``fsync="always"``."""
        assert self._handle is not None
        try:
            self._handle.write(data)
            self._handle.flush()
            if self._fsync == "always":
                os.fsync(self._handle.fileno())
        except OSError:
            self._cut_back()
            raise
        self.offset += len(data)

    def _cut_back(self) -> None:
        """Truncate the segment to :attr:`offset` and reopen it."""
        assert self._handle is not None
        try:
            self._handle.close()
        except OSError:  # pragma: no cover - close on a faulted handle
            pass
        self._handle = None
        with open(_segment_path(self._directory, self.index), "r+b") as handle:
            handle.truncate(self.offset)
            handle.flush()
            os.fsync(handle.fileno())
        self.begin_segment(self.index)

    def sync(self) -> None:
        """Flush, then fsync unless the policy is ``"never"``."""
        assert self._handle is not None
        self._handle.flush()
        if self._fsync != "never":
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        """Sync (errors ignored) and close; idempotent."""
        if self._handle is None:
            return
        try:
            self.sync()
        except (OSError, ValueError):  # pragma: no cover - defensive
            pass
        self._handle.close()
        self._handle = None


class WriteAheadLog:
    """Append-only, checksummed, segment-rotated batch log.

    Parameters
    ----------
    directory:
        Where segments live; created if missing.  Opening scans and
        repairs existing segments (see the module docstring), so the
        instance is immediately ready both to replay and to append.
    fsync:
        One of :data:`FSYNC_POLICIES`; see the module docstring.
    segment_max_bytes:
        Appends past this size rotate to a fresh segment first, keeping
        snapshot-driven truncation (:meth:`truncate_upto`) effective —
        only whole dead segments are ever deleted.
    io_wrapper:
        Optional wrapper applied to the active segment's append handle;
        the fault-injection tests use it to inject write errors and
        partial writes without touching production code paths.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        *,
        fsync: str = "flush",
        segment_max_bytes: int = 64 * 1024 * 1024,
        io_wrapper: Callable[[BinaryIO], BinaryIO] | None = None,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise PersistenceError(
                f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        if segment_max_bytes < 1024:
            raise PersistenceError(
                f"segment_max_bytes must be >= 1024, got {segment_max_bytes}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._segment_max = int(segment_max_bytes)
        self._writer = SegmentWriter(
            self.directory, fsync=fsync, io_wrapper=io_wrapper
        )
        self._segments: list[_Segment] = []
        self._next_seq = 1
        #: Replication retain floor: when set, truncation keeps every
        #: batch newer than this seq even if snapshots no longer need
        #: it — segments a lagging replica has not acked stay on disk.
        self._retain_seq: int | None = None
        self._closed = False
        self._recover_segments()

    # ------------------------------------------------------------------
    # Open-time scan and repair
    # ------------------------------------------------------------------
    def _recover_segments(self) -> None:
        paths = _segment_files(self.directory)
        truncated_at: Path | None = None
        for position, path in enumerate(paths):
            segment, clean = self._scan_segment(path)
            self._segments.append(segment)
            if segment.last_seq is not None:
                self._next_seq = max(self._next_seq, segment.last_seq + 1)
            if not clean:
                # Everything after the first bad checksum is discarded:
                # later segments were written after the corruption point
                # in the append order, so they cannot be trusted either.
                truncated_at = path
                for orphan in paths[position + 1:]:
                    orphan.unlink()
                break
        if truncated_at is not None:
            _fsync_dir(self.directory)
        if not self._segments:
            self._start_segment(1)
        elif self._segments[-1].path.read_bytes()[8] != WAL_MAGIC[8]:
            # Never append current-version records into a segment that
            # declares an older format: old segments stay exactly the
            # bytes their writer produced, new batches open a new file.
            self._start_segment(
                _segment_index(self._segments[-1].path) + 1
            )
        else:
            self._writer.begin_segment(_segment_index(self._segments[-1].path))

    def _scan_segment(self, path: Path) -> tuple[_Segment, bool]:
        """Walk one segment; truncate it at the first bad record."""
        data = path.read_bytes()
        segment = _Segment(path=path)
        if len(data) < len(WAL_MAGIC) or data[:8] != WAL_MAGIC_PREFIX:
            # Torn during creation (or not a WAL file): recover to empty.
            path.write_bytes(WAL_MAGIC)
            return segment, False
        if data[8] not in SUPPORTED_WAL_VERSIONS:
            raise PersistenceError(
                f"{path} was written by WAL format version "
                f"{data[8]}, this build reads versions "
                f"{SUPPORTED_WAL_VERSIONS}"
            )
        good_end = len(WAL_MAGIC)
        clean = True
        for payload, end in decode_record_stream(data, start=len(WAL_MAGIC)):
            try:
                _, seq, _, _ = decode_batch_payload(payload)
            except CorruptRecordError:
                clean = False
                break
            good_end = end
            if segment.first_seq is None:
                segment.first_seq = seq
            segment.last_seq = seq
        if good_end < len(data):
            clean = False
            with open(path, "r+b") as handle:
                handle.truncate(good_end)
        return segment, clean

    # ------------------------------------------------------------------
    # Append path
    # ------------------------------------------------------------------
    def _start_segment(self, index: int) -> None:
        self._writer.begin_segment(index, header=WAL_MAGIC)
        _fsync_dir(self.directory)
        self._segments.append(
            _Segment(path=_segment_path(self.directory, index))
        )

    @property
    def active_segment(self) -> Path:
        """Path of the segment currently being appended to."""
        return self._segments[-1].path

    @property
    def segment_paths(self) -> list[Path]:
        """All live segment paths, oldest first."""
        return [segment.path for segment in self._segments]

    @property
    def next_seq(self) -> int:
        """The sequence number the next appended batch will carry."""
        return self._next_seq

    def resume_after(self, seq: int) -> None:
        """Number every later batch above *seq*.

        Opening takes the next seq from the records on disk, but a
        snapshot at *seq* may have truncated all of them; batches
        numbered at or below it would be skipped by every replay.
        """
        self._next_seq = max(self._next_seq, int(seq) + 1)

    def _append_payload(self, payload: bytes) -> None:
        record = encode_record(payload)
        if (
            self._writer.offset + len(record) > self._segment_max
            and self._segments[-1].first_seq is not None
        ):
            self.rotate()
        self._writer.append(record)

    def append_events(
        self, tenant_id: TenantId, events: list[UpdateEvent]
    ) -> int:
        """Append one coalesced event batch; returns its sequence number."""
        self._ensure_open()
        seq = self._next_seq
        payload = encode_batch_payload(
            BATCH_KIND_EVENTS,
            seq,
            tenant_id,
            [encode_event(event) for event in events],
        )
        self._append_payload(payload)
        self._note_seq(seq)
        return seq

    def append_register(
        self, tenant_id: TenantId, k: int, monitor_kwargs: dict
    ) -> int:
        """Append a tenant registration (k + monitor keyword arguments)."""
        self._ensure_open()
        seq = self._next_seq
        blob = json.dumps(
            {"k": int(k), "kwargs": monitor_kwargs}, ensure_ascii=False
        ).encode("utf-8")
        payload = encode_batch_payload(
            BATCH_KIND_REGISTER, seq, tenant_id, [blob]
        )
        self._append_payload(payload)
        self._note_seq(seq)
        return seq

    def append_epoch(self, epoch: int, node: str) -> int:
        """Stamp a fencing epoch claim into the log (promotion point).

        Every batch appended after this record belongs to *epoch*;
        replicas that have fenced a lower epoch reject anything stamped
        below their fence, which is what makes a deposed primary's late
        appends provably dead.
        """
        self._ensure_open()
        seq = self._next_seq
        blob = json.dumps(
            {"epoch": int(epoch), "node": str(node)}, ensure_ascii=False
        ).encode("utf-8")
        payload = encode_batch_payload(BATCH_KIND_EPOCH, seq, None, [blob])
        self._append_payload(payload)
        self._note_seq(seq)
        return seq

    def _note_seq(self, seq: int) -> None:
        self._next_seq = seq + 1
        active = self._segments[-1]
        if active.first_seq is None:
            active.first_seq = seq
        active.last_seq = seq

    def sync(self) -> None:
        """fsync the active segment (the ``fsync="flush"`` commit point)."""
        self._ensure_open()
        self._writer.sync()

    def rotate(self) -> None:
        """Seal the active segment and append to a fresh one."""
        self._ensure_open()
        self._start_segment(_segment_index(self._segments[-1].path) + 1)

    # ------------------------------------------------------------------
    # Read and truncate
    # ------------------------------------------------------------------
    def read_batches(self) -> list[WalBatch]:
        """Every durable batch across all segments, in sequence order.

        Reads from disk (:func:`scan_batches`; every append is flushed
        before it returns) so it sees exactly what a recovering process
        would; a torn tail in the active segment is skipped, not raised.
        """
        self._ensure_open()
        return scan_batches(self.directory)

    def tail_cursor(self) -> tuple[int, int]:
        """``(segment_index, byte_offset)`` of the durable append tail."""
        self._ensure_open()
        return self._writer.index, self._writer.offset

    def read_from(
        self, segment: int, offset: int, max_bytes: int = 1 << 20
    ) -> WalChunk:
        """Read up to *max_bytes* raw segment bytes for WAL shipping.

        The returned chunk may end mid-record (the replica buffers
        until the framing completes) and, on the active segment, may
        race an in-flight append — both are safe because the replica
        only persists whole CRC-verified records.
        """
        self._ensure_open()
        oldest = _segment_index(self._segments[0].path)
        active_index = _segment_index(self._segments[-1].path)
        if segment < oldest:
            # The retain floor only protects replicas that have acked;
            # report the resume floor so a caught-up reader (whose
            # cursor merely lingered at the end of the sealed segment)
            # can skip ahead instead of re-bootstrapping.
            first = self._segments[0].first_seq
            floor = (first - 1) if first is not None else self._next_seq - 1
            return WalChunk(
                segment=segment, offset=offset, data=b"",
                exhausted=False, gone=True, oldest_segment=oldest,
                resume_floor=floor,
            )
        if segment > active_index:
            # The cursor points past the tail (e.g. the replica saw a
            # sealed segment end before the primary rotated): nothing
            # yet, poll again.
            return WalChunk(
                segment=segment, offset=offset, data=b"",
                exhausted=False, gone=False, oldest_segment=oldest,
            )
        by_index = {
            _segment_index(entry.path): entry for entry in self._segments
        }
        data = by_index[segment].path.read_bytes()
        chunk = data[offset:offset + max_bytes]
        sealed = segment != active_index
        exhausted = sealed and offset + len(chunk) >= len(data)
        return WalChunk(
            segment=segment, offset=offset, data=chunk,
            exhausted=exhausted, gone=False, oldest_segment=oldest,
        )

    def set_retain_seq(self, seq: int | None) -> None:
        """Keep batches newer than *seq* truncation-safe (replication).

        The replication hub lowers this to the minimum replica-acked
        sequence so a lagging replica can always resume from its
        cursor; ``None`` removes the floor.
        """
        self._retain_seq = None if seq is None else int(seq)

    def truncate_upto(self, seq: int) -> int:
        """Delete sealed segments wholly covered by a snapshot at *seq*.

        Returns the number of segments removed.  Sealed segments go
        oldest first, record-less ones too, until one holds a batch
        newer than *seq* or than the replication retain floor
        (:meth:`set_retain_seq`).  The active segment is never deleted
        (rotate first — the snapshot path does).
        """
        self._ensure_open()
        if self._retain_seq is not None:
            seq = min(seq, self._retain_seq)
        removed = 0
        while len(self._segments) > 1:
            last_seq = self._segments[0].last_seq
            if last_seq is not None and last_seq > seq:
                break
            self._segments.pop(0).path.unlink()
            removed += 1
        if removed:
            _fsync_dir(self.directory)
        return removed

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Flush, fsync (unless ``never``) and close the append handle."""
        if self._closed:
            return
        self._closed = True
        self._writer.close()

    def _ensure_open(self) -> None:
        if self._closed:
            raise PersistenceError("write-ahead log is closed")

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def decode_batch(payload: bytes) -> WalBatch:
    """Decode one record payload into a :class:`WalBatch`.

    Raises :class:`~repro.persistence.codec.CorruptRecordError` on a
    malformed payload, event body, registration or epoch stamp.
    """
    kind, seq, tenant_id, parts = decode_batch_payload(payload)
    if kind == BATCH_KIND_EVENTS:
        return WalBatch(
            seq=seq,
            tenant_id=tenant_id,
            kind="events",
            events=tuple(decode_event(part) for part in parts),
        )
    if kind == BATCH_KIND_EPOCH:
        try:
            stamp = json.loads(parts[0].decode("utf-8"))
            return WalBatch(
                seq=seq,
                tenant_id=None,
                kind="epoch",
                epoch=int(stamp["epoch"]),
                node=str(stamp["node"]),
            )
        except (IndexError, KeyError, ValueError, UnicodeDecodeError) as error:
            raise CorruptRecordError(
                f"malformed epoch record: {error}"
            ) from None
    try:
        register = json.loads(parts[0].decode("utf-8"))
    except (IndexError, ValueError, UnicodeDecodeError) as error:
        raise CorruptRecordError(
            f"malformed registration record: {error}"
        ) from None
    return WalBatch(
        seq=seq, tenant_id=tenant_id, kind="register", register=register
    )
