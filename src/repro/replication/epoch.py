"""File-backed fencing epochs — who may write the cluster's WAL lineage.

One :class:`EpochStore` file is the cluster's single source of truth
for "which writer generation is current".  A starting or promoted
primary :meth:`claims <EpochStore.claim>` the next epoch under an
advisory file lock, stamps it into its WAL
(:meth:`~repro.persistence.wal.WriteAheadLog.append_epoch`), and checks
the store before every append window; a deposed primary's next flush
sees the newer epoch and raises
:class:`~repro.core.errors.FencedError` — its buffered events are never
made durable by the dead lineage.  Replicas additionally reject shipped
batches stamped below their fence epoch, which closes the small
check-then-append race a file-based fence alone cannot.

The file holds two fixed-width slots, each one space-padded JSON line
carrying ``epoch``, ``owner`` and a CRC-32 of the two.  Claiming epoch
*e* + 1 overwrites slot (*e* + 1) mod 2 in place and fsyncs the file;
the slot holding *e* is never touched, so a write torn by a crash
leaves *e* readable, and the next claim rewrites the torn slot.  The
file is created once, through a temp file, fsync, rename and directory
fsync; a register from older builds (one JSON object) still reads, and
its first claim converts it that way.  An in-place write costs one
small fsync, where renaming over a fsynced file costs tens of
milliseconds on some filesystems (ext4 mounted with ``discard``).

The store is deliberately a plain file, not a consensus service: the
chaos matrix runs primary and replicas on one host (or one shared
filesystem), which is exactly the regime where an fsynced write under
``flock`` gives linearisable claims.  Swapping in an external
coordinator later only has to reimplement two methods.
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path

try:  # pragma: no cover - exercised implicitly on POSIX
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

from repro.core.errors import ReplicationError

__all__ = ["EpochStore", "EpochRecord"]

#: Bytes per register slot: one JSON line, space-padded, ``\n``-ended.
SLOT_BYTES = 128
_BLANK_SLOT = b" " * (SLOT_BYTES - 1) + b"\n"


@dataclass(frozen=True)
class EpochRecord:
    """The current fencing epoch and the node that claimed it."""

    epoch: int
    owner: str | None


def _checksum(epoch: int, owner: str | None) -> int:
    return zlib.crc32(json.dumps([epoch, owner]).encode("utf-8"))


def _encode_slot(record: EpochRecord) -> bytes:
    line = json.dumps({
        "epoch": record.epoch,
        "owner": record.owner,
        "crc": _checksum(record.epoch, record.owner),
    }).encode("utf-8")
    if len(line) >= SLOT_BYTES:
        raise ReplicationError(
            f"owner {record.owner!r} is too long for an epoch register slot"
        )
    return line.ljust(SLOT_BYTES - 1) + b"\n"


def _decode_slot(raw: bytes) -> EpochRecord | None:
    """The record in one slot, or ``None`` if its checksum does not hold."""
    try:
        data = json.loads(raw)
        record = EpochRecord(epoch=data["epoch"], owner=data["owner"])
        valid = data["crc"] == _checksum(record.epoch, record.owner)
    except (KeyError, TypeError, ValueError):
        return None
    return record if valid else None


class EpochStore:
    """Atomic, monotonic epoch register backed by one two-slot file.

    Parameters
    ----------
    path:
        The register file (parent directories are created).  Every
        node of one logical cluster must point at the same path.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock_path = self.path.with_suffix(self.path.suffix + ".lock")
        # Same-process claims (tests promote in-process) also serialise
        # through a thread lock; flock alone is per-file-descriptor.
        self._thread_lock = threading.Lock()

    # ------------------------------------------------------------------
    def current(self) -> EpochRecord:
        """The latest claimed epoch (``epoch=0`` when never claimed).

        Reads take no lock.  A reader that meets a slot half-written by
        a concurrent claim sees the older epoch: the same
        check-then-append window the service's fence check documents,
        with the replica-side epoch check as its backstop.
        """
        return self._read()[0]

    def claim(self, node_id: str) -> int:
        """Atomically claim the next epoch for *node_id*; returns it.

        Read-increment-write runs under an advisory lock, so two
        concurrent claimants can never obtain the same epoch.  The new
        epoch goes into the slot the current one does not occupy and is
        fsynced before the call returns, so a crash mid-claim leaves the
        previous epoch readable.
        """
        with self._thread_lock, self._file_lock():
            record, slotted = self._read()
            claimed = EpochRecord(epoch=record.epoch + 1, owner=str(node_id))
            if slotted:
                fd = os.open(self.path, os.O_WRONLY)
                try:
                    offset = (claimed.epoch % 2) * SLOT_BYTES
                    os.pwrite(fd, _encode_slot(claimed), offset)
                    os.fsync(fd)
                finally:
                    os.close(fd)
            else:
                self._create(record, claimed)
            return claimed.epoch

    # ------------------------------------------------------------------
    def _read(self) -> tuple[EpochRecord, bool]:
        """The current record, and whether the file has the slot layout."""
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            return EpochRecord(epoch=0, owner=None), False
        if len(raw) == 2 * SLOT_BYTES:
            records = [
                record
                for record in (
                    _decode_slot(raw[:SLOT_BYTES]),
                    _decode_slot(raw[SLOT_BYTES:]),
                )
                if record is not None
            ]
            if records:
                return max(records, key=lambda record: record.epoch), True
        try:  # a one-object register from an older build
            data = json.loads(raw)
            return EpochRecord(
                epoch=int(data["epoch"]), owner=data.get("owner")
            ), False
        except (AttributeError, KeyError, TypeError, ValueError) as error:
            raise ReplicationError(
                f"unreadable epoch register {self.path}: {error}"
            ) from None

    def _create(self, previous: EpochRecord, claimed: EpochRecord) -> None:
        """Publish a fresh two-slot file holding *previous* and *claimed*."""
        slots = [_BLANK_SLOT, _BLANK_SLOT]
        if previous.epoch > 0:
            slots[previous.epoch % 2] = _encode_slot(previous)
        slots[claimed.epoch % 2] = _encode_slot(claimed)
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        with open(tmp, "wb") as handle:
            handle.write(b"".join(slots))
            handle.flush()
            os.fsync(handle.fileno())
        os.rename(tmp, self.path)
        fd = os.open(self.path.parent, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def _file_lock(self):
        return _FlockGuard(self._lock_path)


class _FlockGuard:
    """Context manager holding an exclusive ``flock`` on a lock file."""

    def __init__(self, path: Path) -> None:
        self._path = path
        self._handle = None

    def __enter__(self) -> "_FlockGuard":
        self._handle = open(self._path, "a+")
        if fcntl is not None:
            fcntl.flock(self._handle.fileno(), fcntl.LOCK_EX)
        return self

    def __exit__(self, *exc_info) -> None:
        assert self._handle is not None
        try:
            if fcntl is not None:
                fcntl.flock(self._handle.fileno(), fcntl.LOCK_UN)
        finally:
            self._handle.close()
            self._handle = None
