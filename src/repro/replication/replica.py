"""ReplicaService — a warm standby fed by shipped WAL bytes.

A replica owns a *mirror directory* holding byte-for-byte copies of the
primary's segment files (same names, same bytes).  Chunks arrive from a
:class:`~repro.replication.shipper.WalShipper`; :meth:`ingest` buffers
them, verifies whole CRC-framed records, persists each verified record
to the mirror, and applies its batch to a local
:class:`~repro.serving.pool.ServingPool` — durable order equals applied
order, exactly the primary's WAL contract.  Because the mirror is
bit-identical and monitors are deterministic, a replica that has
applied through seq *s* holds the bit-identical state the primary held
at *s*; promotion (:meth:`promote`) therefore only replays the durable
suffix past the apply cursor before the new primary accepts writes.

Corruption and fencing are handled at the frame boundary:

* a chunk whose record fails its CRC (bit-flipped in flight) raises
  :class:`CorruptShippedError` *before* anything is persisted — the
  shipper re-requests from the last durable cursor;
* an incomplete frame tail is simply buffered until the next chunk
  completes it, so a mid-record fetch can never tear the mirror;
* a batch stamped with an epoch below the replica's fence
  (:meth:`fence_below`) raises :class:`~repro.core.errors.FencedError`
  and is not persisted — a deposed primary's late appends die here
  even if they slipped past the primary-side store check.

One lock makes the replica single-writer: shipped ingest (persist plus
apply), segment moves, bootstrap, fencing and promotion never
interleave, so promotion never replays a record the shipper is still
applying.

Crash recovery is inherited from the WAL itself: restarting a replica
opens the mirror with :class:`~repro.persistence.wal.WriteAheadLog`
(repairing any torn tail), replays it through a fresh pool (one refresh
per tenant), and resumes shipping from the verified byte cursor.  Every
batch reaches the pool through :mod:`repro.serving.replay`, like the
primary's own recovery; a shipped record replays on its own.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import threading
from pathlib import Path
from typing import BinaryIO, Callable, Hashable

from repro.core.errors import FencedError, ReplicationError, ReproError
from repro.persistence.codec import WAL_MAGIC, CorruptRecordError, next_record
from repro.persistence.snapshots import SnapshotStore
from repro.persistence.wal import (
    SegmentWriter,
    WalBatch,
    WriteAheadLog,
    decode_batch,
    remove_segments_below,
    segment_header_ok,
)
from repro.replication.hub import BootstrapResult
from repro.serving.pool import ServingPool
from repro.serving.replay import replay_log, restore_snapshot
from repro.serving.service import PromotionState, RiskService

__all__ = ["ReplicaService", "CorruptShippedError"]

TenantId = Hashable

#: Upper bound on a single record's declared payload length; a shipped
#: header declaring more than this is corruption, not a huge batch
#: (the primary's segments cap out at 64 MiB total).
_MAX_RECORD_BYTES = 64 * 1024 * 1024


class CorruptShippedError(ReplicationError):
    """A shipped record failed CRC/framing checks before persistence."""


def _single_writer(method):
    """Run *method* under the replica's lock (see the module docstring)."""

    @functools.wraps(method)
    def locked(self, *args, **kwargs):
        with self._lock:
            return method(self, *args, **kwargs)

    return locked


class ReplicaService:
    """A read-serving standby applying the primary's shipped WAL.

    Parameters
    ----------
    graph:
        The same base network snapshot the primary serves.
    mirror_dir:
        Where the mirrored segments (and bootstrap snapshots) live.
        Opening an existing mirror recovers it: torn tail repaired,
        snapshot restored, WAL suffix replayed.
    node_id, mode, shards, monitor_defaults, fsync:
        As for :class:`~repro.serving.service.RiskService`.
    io_wrapper:
        Fault-injection hook on the mirror's append handle (the
        replica-side ENOSPC chaos case).
    """

    def __init__(
        self,
        graph,
        mirror_dir: str | os.PathLike,
        *,
        node_id: str = "replica",
        mode: str | None = None,
        shards: int | None = None,
        monitor_defaults: dict | None = None,
        fsync: str = "flush",
        io_wrapper: Callable[[BinaryIO], BinaryIO] | None = None,
    ) -> None:
        self._graph = graph
        self._directory = Path(mirror_dir)
        self._directory.mkdir(parents=True, exist_ok=True)
        self.node_id = str(node_id)
        self._monitor_defaults = dict(monitor_defaults or {})
        self._fsync = fsync
        self._io_wrapper = io_wrapper
        self._pool = ServingPool(
            graph, mode=mode, shards=shards,
            monitor_defaults=monitor_defaults,
        )
        self._registered: dict[TenantId, tuple[int, dict]] = {}
        #: Last WAL batch seq persisted AND applied (or covered by the
        #: restored snapshot): the floor replay starts past.
        self._applied_seq = 0
        #: Epoch of the last epoch stamp seen in the stream.
        self._epoch = 0
        #: Minimum acceptable stream epoch (see :meth:`fence_below`).
        self._fence_epoch = 0
        #: Primary's durable seq as of the last fetch (lag reference).
        self._primary_seq = 0
        self._buffer = b""
        self._promoted = False
        self._closed = False
        self._lock = threading.Lock()
        self.stats = {
            "records_applied": 0,
            "batches_applied": 0,
            "segments_opened": 0,
            "corrupt_chunks": 0,
        }
        self._recover_local()

    # ------------------------------------------------------------------
    # Local recovery (restart of a replica that already mirrored bytes)
    # ------------------------------------------------------------------
    def _recover_local(self) -> None:
        self._restore_snapshot()
        # Opening the WAL repairs any torn mirror tail (a crash mid-
        # append), so the segment it appends to ends at the verified
        # byte cursor.
        wal = WriteAheadLog(self._directory, fsync="never")
        try:
            batches = wal.read_batches()
            for batch in batches:
                if batch.kind == "epoch":
                    self._epoch = max(self._epoch, batch.epoch)
            self._replay_batches(batches)
            segment, _ = wal.tail_cursor()
        finally:
            wal.close()
        self._writer = SegmentWriter(
            self._directory, fsync=self._fsync, io_wrapper=self._io_wrapper
        )
        self._writer.begin_segment(segment)

    def _restore_snapshot(self) -> None:
        """Install the mirror directory's latest snapshot, if any.

        The snapshot may cover (and truncation delete) the primary's
        epoch stamp, so the epoch its manifest records counts as seen.
        """
        with SnapshotStore(self._directory).pin_latest() as snapshot:
            restore_snapshot(self._pool, snapshot)
        if snapshot is not None:
            self._applied_seq = max(self._applied_seq, snapshot.wal_seq)
            self._epoch = max(self._epoch, snapshot.epoch)

    def _replay(self, batch: WalBatch) -> None:
        """Apply one shipped batch to the pool; advance the cursor."""
        self._replay_batches([batch])

    def _replay_batches(self, batches: list[WalBatch]) -> None:
        """Replay batches (one refresh per tenant); advance the cursor."""
        futures = replay_log(
            self._pool, batches, self._applied_seq, self._registered
        )
        self.stats["batches_applied"] += sum(
            future.result() for future in futures.values()
        )
        self._applied_seq = max(
            [self._applied_seq, *(batch.seq for batch in batches)]
        )

    # ------------------------------------------------------------------
    # Shipping surface (driven by WalShipper)
    # ------------------------------------------------------------------
    @property
    def durable_cursor(self) -> tuple[int, int]:
        """``(segment, offset)`` of the last verified, persisted byte."""
        return self._writer.index, self._writer.offset

    @property
    def applied_seq(self) -> int:
        return self._applied_seq

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def lag(self) -> int:
        """Batches the primary has made durable that we have not applied."""
        return max(0, self._primary_seq - self._applied_seq)

    @property
    def is_cold(self) -> bool:
        """True when the mirror holds no durable batches at all."""
        return self._applied_seq == 0

    @property
    def is_promoted(self) -> bool:
        """True once :meth:`promote` handed this node to a service."""
        return self._promoted

    def note_primary_seq(self, seq: int) -> None:
        self._primary_seq = max(self._primary_seq, int(seq))

    @_single_writer
    def fence_below(self, epoch: int) -> None:
        """Reject future stream batches stamped below *epoch*.

        Called by the failover coordinator on every non-promoted node
        the moment a new primary claims its epoch: anything the deposed
        primary manages to emit afterwards carries the old stamp and
        dies at ingest, before touching the mirror.
        """
        self._fence_epoch = max(self._fence_epoch, int(epoch))

    def reset_buffer(self) -> None:
        """Drop unverified buffered bytes (corruption retry path)."""
        self._buffer = b""

    @_single_writer
    def begin_segment(self, index: int) -> None:
        """Advance the mirror to segment *index* (shipper rotation)."""
        self._ensure_live()
        if self._buffer:
            raise ReplicationError(
                "segment advanced with an incomplete record buffered"
            )
        self._writer.begin_segment(int(index))
        self.stats["segments_opened"] += 1

    @_single_writer
    def ingest(self, data: bytes) -> int:
        """Verify, persist, and apply shipped bytes; returns records applied.

        Bytes accumulate in an in-memory buffer; only complete records
        that pass CRC (and the segment header, at offset 0) move to the
        mirror file, so the durable mirror never contains unverified
        bytes.  Raises :class:`CorruptShippedError` on a framing/CRC
        failure with the mirror untouched by the bad record.
        """
        self._ensure_live()
        self._buffer += data
        applied = 0
        try:
            if self._writer.offset == 0 and not self._take_header():
                return 0
            while True:
                record = next_record(
                    self._buffer, max_length=_MAX_RECORD_BYTES
                )
                if record is None:
                    break  # incomplete frame: wait for the next chunk
                payload, end = record
                self._apply_shipped(payload, self._buffer[:end])
                self._buffer = self._buffer[end:]
                applied += 1
        except CorruptRecordError as error:
            self.stats["corrupt_chunks"] += 1
            self.reset_buffer()
            raise CorruptShippedError(f"shipped {error}") from None
        return applied

    def _take_header(self) -> bool:
        """Persist the magic bytes that open every segment file."""
        header = len(WAL_MAGIC)
        if len(self._buffer) < header:
            return False
        if not segment_header_ok(self._buffer[:header]):
            raise CorruptRecordError("segment header is invalid")
        self._writer.append(self._buffer[:header])
        self._buffer = self._buffer[header:]
        return True

    def _apply_shipped(self, payload: bytes, record: bytes) -> None:
        batch = decode_batch(payload)
        # Batches between epoch stamps inherit the last stamp; a
        # deposed primary's stream is still at the old epoch.
        epoch = batch.epoch if batch.kind == "epoch" else self._epoch
        if epoch < self._fence_epoch:
            raise FencedError(epoch, self._fence_epoch)
        # A failed append cuts the mirror back to the verified offset,
        # so the shipper's rewind-and-retry lands on clean bytes.
        self._writer.append(record)
        self._epoch = epoch
        self._replay(batch)
        self.stats["records_applied"] += 1

    def sync(self) -> None:
        """fsync the mirror's active segment."""
        self._writer.sync()

    # ------------------------------------------------------------------
    # Cold bootstrap
    # ------------------------------------------------------------------
    @_single_writer
    def bootstrap(self, payload: BootstrapResult) -> None:
        """Install a snapshot payload and position the mirror cursor.

        Only valid on a cold replica (nothing mirrored yet); the payload
        comes from :meth:`~repro.replication.hub.ReplicationHub.bootstrap`
        and its files land relative to the mirror directory.  Its epoch
        stands in for the epoch stamp the snapshot covers.
        """
        self._ensure_live()
        if not self.is_cold:
            raise ReplicationError(
                "bootstrap is only valid on a cold replica"
            )
        for relative, data in payload.files.items():
            target = self._directory / relative
            if not target.resolve().is_relative_to(self._directory.resolve()):
                raise ReplicationError(
                    f"bootstrap path escapes the mirror dir: {relative!r}"
                )
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(data)
        if payload.files:
            self._restore_snapshot()
        if int(payload.offset) != 0:
            raise ReplicationError("bootstrap cursors start at offset 0")
        self._epoch = int(payload.epoch)
        # Local recovery may have pre-created this segment; its header
        # bytes arrive again in the shipped stream.
        self._writer.begin_segment(payload.segment, header=b"")
        # The segments it created below the cursor hold no records.  A
        # promoted mirror that kept them would never truncate its WAL
        # again, and a replica of it would walk into the missing ones.
        remove_segments_below(self._directory, payload.segment)

    # ------------------------------------------------------------------
    # Read serving
    # ------------------------------------------------------------------
    def tenants(self) -> list[TenantId]:
        return self._pool.tenants()

    def query_topk(self, tenant_id: TenantId):
        """The tenant's answer from the replica's applied state.

        Flagged ``stale=True`` whenever the replica knows the primary
        is ahead (``lag > 0``).
        """
        self._ensure_live()
        if not self._pool.has_tenant(tenant_id):
            raise ReproError(f"unknown tenant {tenant_id!r}")
        result = self._pool.query(tenant_id).result()
        if self.lag > 0:
            result = dataclasses.replace(result, stale=True)
        return result

    # ------------------------------------------------------------------
    # Promotion
    # ------------------------------------------------------------------
    @_single_writer
    def promote(
        self,
        *,
        epoch_store=None,
        node_id: str | None = None,
        fsync: str = "flush",
        **service_kwargs,
    ) -> RiskService:
        """Become the primary: adopt the warm pool into a RiskService.

        Closes the mirror writer, then constructs a durable
        :class:`~repro.serving.service.RiskService` over the mirror
        directory with this replica's pool adopted — construction
        replays only the durable batches past ``applied_seq`` and, with
        an ``epoch_store``, claims and stamps the next fencing epoch
        before the first write.  The replica object is spent afterwards
        (``ingest`` raises); reads continue through the returned
        service.
        """
        self._ensure_live()
        self._writer.close()
        self._promoted = True
        service = RiskService(
            self._graph,
            wal_dir=self._directory,
            fsync=fsync,
            monitor_defaults=self._monitor_defaults or None,
            adopt=PromotionState(
                pool=self._pool,
                registered=dict(self._registered),
                applied_upto=self._applied_seq,
            ),
            epoch_store=epoch_store,
            node_id=node_id or self.node_id,
            **service_kwargs,
        )
        return service

    # ------------------------------------------------------------------
    @_single_writer
    def close(self) -> None:
        """Stop serving (idempotent).  A promoted replica's pool lives
        on inside the service that adopted it."""
        if self._closed:
            return
        self._closed = True
        if not self._promoted:
            self._writer.close()
            self._pool.shutdown()

    def _ensure_live(self) -> None:
        if self._closed:
            raise ReplicationError("replica is closed")
        if self._promoted:
            raise ReplicationError(
                "replica was promoted; use the adopting service"
            )

    def __enter__(self) -> "ReplicaService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
