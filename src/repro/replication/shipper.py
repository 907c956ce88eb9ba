"""WalShipper — pulls WAL bytes from a source and feeds one replica.

The shipper owns the replication control loop for a single replica:
fetch a chunk at the cursor, hand the bytes to
:meth:`~repro.replication.replica.ReplicaService.ingest`, advance.  Its
failure handling is the tentpole's contract:

* **corruption** (a chunk whose record fails CRC on the replica):
  drop the unverified buffer, rewind the fetch cursor to the replica's
  *durable* cursor — the last verified byte on the mirror — and
  re-request.  Catch-up completes bit-identically because nothing
  unverified was ever persisted.
* **disconnects** (transport errors from the source): bounded
  exponential backoff, then resume from the durable cursor.  Counted
  in ``stats["reconnects"]``.
* **cold replicas**: before the first fetch, a replica with no
  mirrored state bootstraps from the source's latest snapshot, then
  tails from the oldest live segment.

Two sources ship with the package: :class:`LocalSource` (in-process,
wrapping a :class:`~repro.replication.hub.ReplicationHub` directly —
unit tests, benchmarks) and :class:`HttpSource` (the frontend wire
protocol's ``/v1/replication/*`` routes — real multi-process
topologies).  Both speak :class:`~repro.replication.hub.FetchResult`.
"""

from __future__ import annotations

import base64
import threading
import time
from typing import Callable, Protocol

from repro.core.errors import FencedError, FrontendError, ReplicationError
from repro.persistence.wal import WalChunk
from repro.replication.hub import BootstrapResult, FetchResult, ReplicationHub
from repro.replication.replica import CorruptShippedError, ReplicaService

__all__ = [
    "ReplicationSource",
    "LocalSource",
    "HttpSource",
    "WalShipper",
]

#: Transport-level failures the shipper treats as "reconnect and retry".
TRANSPORT_ERRORS = (ConnectionError, OSError, FrontendError, TimeoutError)


class ReplicationSource(Protocol):
    """What a shipper needs from the primary's side of the wire."""

    def fetch(
        self,
        replica_id: str,
        segment: int,
        offset: int,
        *,
        max_bytes: int | None = None,
        acked_seq: int | None = None,
    ) -> FetchResult: ...

    def bootstrap(self, replica_id: str) -> BootstrapResult: ...


class LocalSource:
    """In-process source: calls the primary's hub directly."""

    def __init__(self, hub: ReplicationHub) -> None:
        self._hub = hub

    def fetch(self, replica_id, segment, offset, *, max_bytes=None,
              acked_seq=None) -> FetchResult:
        return self._hub.fetch(
            replica_id, segment, offset,
            max_bytes=max_bytes, acked_seq=acked_seq,
        )

    def bootstrap(self, replica_id) -> BootstrapResult:
        return self._hub.bootstrap(replica_id)


class HttpSource:
    """Source speaking the front end's ``/v1/replication/*`` routes.

    Uses a :class:`~repro.frontend.client.FrontendClient` with retries
    disabled — the shipper owns backoff policy, the client is just the
    wire.
    """

    def __init__(self, host: str, port: int, token: str, *,
                 timeout: float = 10.0) -> None:
        from repro.frontend.client import FrontendClient

        # One attempt per call: the shipper's run loop owns retries.
        self._client = FrontendClient(
            host, port, token, retries=1, timeout=timeout,
        )

    def _call(self, path: str, body: dict) -> dict:
        response = self._client.request("POST", path, body)
        if response.status in (401, 403):
            raise ReplicationError(
                f"replication call rejected ({response.status}): "
                "check the cluster token"
            )
        if response.status != 200:
            # Treated as a transient disconnect by the shipper loop.
            raise ConnectionError(
                f"{path} refused: {response.status} {response.payload}"
            )
        return response.payload

    def fetch(self, replica_id, segment, offset, *, max_bytes=None,
              acked_seq=None) -> FetchResult:
        payload = self._call(
            "/v1/replication/fetch",
            {
                "replica": str(replica_id),
                "segment": int(segment),
                "offset": int(offset),
                "max_bytes": max_bytes,
                "acked_seq": acked_seq,
            },
        )
        return FetchResult(
            chunk=WalChunk(
                segment=int(payload["segment"]),
                offset=int(payload["offset"]),
                data=base64.b64decode(payload["data"]),
                exhausted=bool(payload["exhausted"]),
                gone=bool(payload["gone"]),
                oldest_segment=int(payload["oldest_segment"]),
                resume_floor=(
                    None
                    if payload.get("resume_floor") is None
                    else int(payload["resume_floor"])
                ),
            ),
            primary_seq=int(payload["primary_seq"]),
            epoch=int(payload["epoch"]),
        )

    def bootstrap(self, replica_id) -> BootstrapResult:
        payload = self._call(
            "/v1/replication/bootstrap", {"replica": str(replica_id)}
        )
        return BootstrapResult(
            files={
                relative: base64.b64decode(blob)
                for relative, blob in payload["files"].items()
            },
            segment=int(payload["segment"]),
            offset=int(payload["offset"]),
            primary_seq=int(payload["primary_seq"]),
            epoch=int(payload["epoch"]),
        )


class WalShipper:
    """Streams one primary's WAL into one replica, resumably.

    Parameters
    ----------
    source:
        Where bytes come from (:class:`LocalSource` /
        :class:`HttpSource` / any :class:`ReplicationSource`).
    replica:
        The :class:`~repro.replication.replica.ReplicaService` fed by
        this shipper.
    poll_interval:
        Sleep when fully caught up (no bytes available).
    backoff / backoff_cap:
        Exponential reconnect backoff bounds for transport errors.
    """

    def __init__(
        self,
        source: ReplicationSource,
        replica: ReplicaService,
        *,
        max_bytes: int = 1 << 20,
        poll_interval: float = 0.01,
        backoff: float = 0.02,
        backoff_cap: float = 1.0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self._source = source
        self._replica = replica
        self._max_bytes = int(max_bytes)
        self._poll = float(poll_interval)
        self._backoff = float(backoff)
        self._backoff_cap = float(backoff_cap)
        self._sleep = sleep
        self._cursor = replica.durable_cursor
        self._bootstrapped = False
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self.stats = {
            "fetches": 0,
            "bytes_shipped": 0,
            "records_applied": 0,
            "reconnects": 0,
            "corruption_retries": 0,
        }

    @property
    def cursor(self) -> tuple[int, int]:
        return self._cursor

    @property
    def replica(self) -> ReplicaService:
        return self._replica

    # ------------------------------------------------------------------
    def step(self) -> bool:
        """One fetch-verify-apply round; returns whether progress was made.

        Raises transport errors through (the :meth:`run` loop turns
        them into backoff+reconnect); handles corruption internally by
        rewinding to the replica's durable cursor.
        """
        self._ensure_bootstrapped()
        segment, offset = self._cursor
        result = self._source.fetch(
            self._replica.node_id, segment, offset,
            max_bytes=self._max_bytes, acked_seq=self._replica.applied_seq,
        )
        self.stats["fetches"] += 1
        self._replica.note_primary_seq(result.primary_seq)
        chunk = result.chunk
        if chunk.gone:
            if (
                chunk.resume_floor is not None
                and self._replica.applied_seq >= chunk.resume_floor
            ):
                # The cursor lingered in a truncated segment whose
                # every record this replica already applied (the usual
                # case: caught up at the sealed tail when the primary
                # snapshotted) — skip straight to the oldest live
                # segment, no data was missed.
                self._replica.begin_segment(chunk.oldest_segment)
                self._cursor = (chunk.oldest_segment, 0)
                return True
            raise ReplicationError(
                f"cursor ({segment}, {offset}) was truncated on the "
                f"primary (oldest live segment {chunk.oldest_segment}, "
                f"resume floor {chunk.resume_floor}, replica applied "
                f"{self._replica.applied_seq}): the replica has a real "
                "gap — re-bootstrap required"
            )
        progressed = False
        if chunk.data:
            try:
                self.stats["records_applied"] += self._replica.ingest(
                    chunk.data
                )
            except CorruptShippedError:
                # Bit damage in flight: nothing unverified was
                # persisted, so rewinding to the durable cursor and
                # re-requesting recovers exactly the missing records.
                self.stats["corruption_retries"] += 1
                self._replica.reset_buffer()
                self._cursor = self._replica.durable_cursor
                return True
            self.stats["bytes_shipped"] += len(chunk.data)
            offset += len(chunk.data)
            self._cursor = (segment, offset)
            progressed = True
        if chunk.exhausted:
            self._replica.begin_segment(segment + 1)
            self._cursor = (segment + 1, 0)
            progressed = True
        return progressed

    def _ensure_bootstrapped(self) -> None:
        if self._bootstrapped:
            return
        self._bootstrapped = True
        if not self._replica.is_cold:
            self._cursor = self._replica.durable_cursor
            return
        payload = self._source.bootstrap(self._replica.node_id)
        self._replica.note_primary_seq(payload.primary_seq)
        if payload.files or payload.segment != self._cursor[0]:
            self._replica.bootstrap(payload)
            self._cursor = self._replica.durable_cursor

    # ------------------------------------------------------------------
    def catch_up(self, *, timeout: float = 30.0) -> None:
        """Step synchronously until the replica has applied everything
        the primary reports durable (lag 0 and no bytes in flight)."""
        deadline = time.monotonic() + timeout
        while True:
            progressed = self.step()
            if not progressed and self._replica.lag == 0:
                return
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"replica {self._replica.node_id} did not catch up "
                    f"within {timeout}s (lag {self._replica.lag})"
                )

    def run(self, stop: threading.Event | None = None) -> None:
        """Pump until *stop*: poll when idle, back off on disconnects."""
        stop = stop or self._stop
        failures = 0
        while not stop.is_set():
            if self._replica.is_promoted:
                return  # the replica became a primary: nothing to ship
            try:
                progressed = self.step()
            except FencedError:
                raise
            except ReplicationError:
                if self._replica.is_promoted:
                    return  # promotion raced a step already in flight
                raise
            except TRANSPORT_ERRORS:
                failures += 1
                if failures == 1:
                    self.stats["reconnects"] += 1
                delay = min(
                    self._backoff * (2 ** (failures - 1)),
                    self._backoff_cap,
                )
                self._replica.reset_buffer()
                self._cursor = self._replica.durable_cursor
                stop.wait(delay)
                continue
            failures = 0
            if not progressed:
                stop.wait(self._poll)

    def start(self) -> "WalShipper":
        """Run the pump on a daemon thread."""
        if self._thread is not None:
            raise ReplicationError("shipper already started")
        self._stop.clear()
        self._thread = threading.Thread(target=self.run, daemon=True)
        self._thread.start()
        return self

    def stop(self, *, timeout: float = 5.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None
