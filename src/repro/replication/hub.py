"""Primary-side replication endpoint: chunk reads, acks, retain floor.

One :class:`ReplicationHub` sits next to a durable
:class:`~repro.serving.service.RiskService` and answers replica pulls:

* :meth:`fetch` — raw segment bytes from a ``(segment, offset)``
  cursor (via :meth:`~repro.persistence.wal.WriteAheadLog.read_from`),
  plus the primary's current durable seq and epoch so the replica can
  track lag and fencing.  Every fetch carries the replica's applied
  seq as an implicit ack.
* :meth:`bootstrap` — the latest snapshot's files (read under a
  rotation pin) plus the cursor of the oldest live segment, so a cold
  replica joining after truncation still reaches a complete state.
* :meth:`wait_replicated` — block until at least N replicas have acked
  a seq; the ``ack=replicated`` write path on the front end.

Acks also drive the WAL's *retain floor*: truncation never deletes a
segment holding batches past the minimum replica-acked seq, so a live
replica's cursor always stays resumable.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.core.errors import ReplicationError
from repro.persistence.wal import WalChunk

__all__ = ["ReplicationHub", "FetchResult", "BootstrapResult"]


@dataclass(frozen=True)
class FetchResult:
    """One replication pull's response."""

    chunk: WalChunk
    #: Primary's last durable batch seq at fetch time (lag reference).
    primary_seq: int
    #: Primary's fencing epoch (0 when fencing is disabled).
    epoch: int


@dataclass(frozen=True)
class BootstrapResult:
    """Cold-start payload: snapshot files plus the resume cursor."""

    #: Relative path under the replica's mirror dir -> file bytes.
    files: dict = field(default_factory=dict)
    segment: int = 1
    offset: int = 0
    primary_seq: int = 0
    epoch: int = 0


class ReplicationHub:
    def __init__(self, service, *, max_fetch_bytes: int = 1 << 20) -> None:
        if service.wal is None:
            raise ReplicationError(
                "replication needs a durable primary (wal_dir=...)"
            )
        self._service = service
        self._max_fetch = int(max_fetch_bytes)
        self._acked: dict[str, int] = {}
        self._cond = threading.Condition()

    @property
    def service(self):
        return self._service

    # ------------------------------------------------------------------
    def fetch(
        self,
        replica_id: str,
        segment: int,
        offset: int,
        *,
        max_bytes: int | None = None,
        acked_seq: int | None = None,
    ) -> FetchResult:
        """Serve one pull; records *acked_seq* as the replica's ack."""
        if acked_seq is not None:
            self.note_ack(replica_id, acked_seq)
        limit = self._max_fetch if max_bytes is None else int(max_bytes)
        chunk = self._service.wal.read_from(
            int(segment), int(offset), min(limit, self._max_fetch)
        )
        return FetchResult(
            chunk=chunk,
            primary_seq=self._service.durable_seq,
            epoch=self._service.epoch,
        )

    def bootstrap(self, replica_id: str) -> BootstrapResult:
        """Snapshot files + oldest-live-segment cursor for a cold join."""
        wal = self._service.wal
        files: dict[str, bytes] = {}
        store = self._service.snapshot_store
        if store is not None:
            with store.pin_latest() as snapshot:
                if snapshot is not None:
                    for path in sorted(snapshot.path.iterdir()):
                        if path.is_file():
                            relative = (
                                f"snapshots/{snapshot.path.name}/{path.name}"
                            )
                            files[relative] = path.read_bytes()
        oldest = wal.read_from(0, 0, 0).oldest_segment
        return BootstrapResult(
            files=files,
            segment=oldest,
            offset=0,
            primary_seq=self._service.durable_seq,
            epoch=self._service.epoch,
        )

    # ------------------------------------------------------------------
    def note_ack(self, replica_id: str, seq: int) -> None:
        """Record a replica's applied seq; advances the retain floor."""
        with self._cond:
            previous = self._acked.get(replica_id, 0)
            self._acked[replica_id] = max(previous, int(seq))
            floor = min(self._acked.values())
            self._service.wal.set_retain_seq(floor)
            self._cond.notify_all()

    def acked(self) -> dict[str, int]:
        """Per-replica last acked seq (copy)."""
        with self._cond:
            return dict(self._acked)

    def wait_replicated(
        self, seq: int, *, replicas: int = 1, timeout: float = 5.0
    ) -> bool:
        """Block until *replicas* replicas acked *seq* (or timeout).

        Returns whether the replication ack level was reached — a
        ``False`` is an honest non-ack, not a loss: the batch is
        durable on the primary either way.
        """
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                reached = sum(
                    1 for acked in self._acked.values() if acked >= seq
                )
                if reached >= replicas:
                    return True
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(remaining)
