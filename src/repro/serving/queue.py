"""Async ingestion queue — per-tenant buffering with windowed coalescing.

Update traffic arrives as a stream of small per-tenant events; refreshing
a monitor per event wastes the batch efficiency the incremental pipeline
already has.  The :class:`IngestionQueue` buffers events per tenant and
flushes them in *windows*: everything a tenant accumulated inside one
window is coalesced (:func:`~repro.serving.coalesce.coalesce_events`,
last write wins — provably state-equivalent to serial application) and
dispatched as one batch.

The buffering core is synchronous and loop-agnostic (``submit`` /
``drain`` / ``drain_tenant``), guarded by one lock so request threads
can submit while an event-loop thread drains — no event is ever lost to
a swap race.  The :meth:`IngestionQueue.pump` coroutine adds the timed
flush loop for the live service: one ``asyncio`` task running a flush
cycle every ``flush_interval`` seconds, plus an early cycle whenever
any tenant's backlog reaches ``max_pending`` (signalled thread-safely
into the pump's loop).

``max_pending`` is also the queue's memory bound: the ``overflow``
policy decides whether a tenant's full backlog keeps growing until the
pump catches up (``"wake"``, the legacy behaviour), rejects the new
event with an explicit :class:`~repro.core.errors.BackpressureError`
(``"error"``), or sheds it with a counter (``"shed"``).

With a :class:`~repro.persistence.wal.WriteAheadLog` attached
(``wal=``), every drained batch is appended to the log *in coalesced
form, in dispatch order, before it is dispatched* — the write-ahead
property crash recovery replays against.  A WAL append failure puts the
raw events back at the front of the tenant's backlog and re-raises, so
a disk fault never silently drops accepted traffic.
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Awaitable, Callable, Hashable

from repro.core.errors import BackpressureError, ReproError
from repro.serving.coalesce import coalesce_events
from repro.streaming.events import UpdateEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.persistence.wal import WriteAheadLog

__all__ = ["IngestionQueue", "QueueStats", "OVERFLOW_POLICIES"]

OVERFLOW_POLICIES = ("wake", "error", "shed")

TenantId = Hashable


@dataclass
class QueueStats:
    """Running totals of the queue's traffic.

    ``coalesced_away`` counts events that never reached a monitor
    because a later same-entity write inside the window absorbed them —
    the measure of what windowed ingestion saves.  ``shed`` counts
    events rejected by a full backlog under ``overflow="shed"`` (the
    explicit record that load-shedding, not a bug, dropped them).
    """

    submitted: int = 0
    flushed: int = 0
    coalesced_away: int = 0
    flushes: int = 0
    batches: int = 0
    shed: int = 0

    def as_dict(self) -> dict[str, int]:
        """Plain-dict form for JSON telemetry."""
        return {
            "submitted": self.submitted,
            "flushed": self.flushed,
            "coalesced_away": self.coalesced_away,
            "flushes": self.flushes,
            "batches": self.batches,
            "shed": self.shed,
        }


@dataclass
class IngestionQueue:
    """Per-tenant event buffer with last-write-wins window coalescing.

    Parameters
    ----------
    max_pending:
        Per-tenant backlog bound.  ``submit`` signals the pump (or, with
        no pump running, the next explicit ``drain``) once a tenant
        holds this many raw events.
    overflow:
        What a *full* backlog does with the next event.  ``"wake"``
        (default, the legacy behaviour) accepts it and keeps signalling
        the pump — memory is unbounded but nothing is ever refused.
        ``"error"`` raises :class:`~repro.core.errors.BackpressureError`
        so the caller can retry after the pump catches up; ``"shed"``
        drops the event and counts it in ``stats.shed``.  Both hard
        policies bound the queue at ``max_pending`` raw events per
        tenant.
    wal:
        Optional :class:`~repro.persistence.wal.WriteAheadLog`; every
        drained batch is appended (coalesced, dispatch order) before
        :meth:`drain` returns it, and :meth:`drain` commits the log once
        per cycle (the ``fsync="flush"`` policy's durability point).
    """

    max_pending: int = 4096
    stats: QueueStats = field(default_factory=QueueStats)
    overflow: str = "wake"
    wal: "WriteAheadLog | None" = None

    def __post_init__(self) -> None:
        if self.max_pending < 1:
            raise ReproError(
                f"max_pending must be >= 1, got {self.max_pending}"
            )
        if self.overflow not in OVERFLOW_POLICIES:
            raise ReproError(
                f"overflow must be one of {OVERFLOW_POLICIES}, "
                f"got {self.overflow!r}"
            )
        self._pending: dict[TenantId, list[UpdateEvent]] = {}
        self._lock = threading.Lock()
        self._wakeup: asyncio.Event | None = None
        self._pump_loop: asyncio.AbstractEventLoop | None = None

    # ------------------------------------------------------------------
    # Synchronous core (thread-safe against a concurrent pump)
    # ------------------------------------------------------------------
    def submit(self, tenant_id: TenantId, event: UpdateEvent) -> bool:
        """Buffer one event for *tenant_id* (applied at the next flush).

        Returns ``True`` if the event was accepted — always, except
        under ``overflow="shed"`` with a full backlog, where the event
        is dropped, counted, and ``False`` comes back.
        """
        with self._lock:
            backlog = self._pending.setdefault(tenant_id, [])
            if (
                len(backlog) >= self.max_pending
                and self.overflow != "wake"
            ):
                if self.overflow == "shed":
                    self.stats.shed += 1
                    shed = True
                else:
                    raise BackpressureError(
                        f"tenant {tenant_id!r} backlog is at its "
                        f"max_pending cap of {self.max_pending} events; "
                        f"flush (or slow down) before submitting more"
                    )
            else:
                backlog.append(event)
                self.stats.submitted += 1
                shed = False
            full = len(backlog) >= self.max_pending
        if full:
            self._wake_pump()
        return not shed

    def _wake_pump(self) -> None:
        """Signal the pump's loop (thread-safely) that a backlog is full."""
        loop, wakeup = self._pump_loop, self._wakeup
        if loop is None or wakeup is None:
            return
        try:
            loop.call_soon_threadsafe(wakeup.set)
        except RuntimeError:
            pass  # pump's loop already closed; the final drain covers it

    def pending(self, tenant_id: TenantId | None = None) -> int:
        """Raw buffered events — one tenant's, or everyone's."""
        with self._lock:
            if tenant_id is not None:
                return len(self._pending.get(tenant_id, ()))
            return sum(len(backlog) for backlog in self._pending.values())

    def drain(self) -> dict[TenantId, list[UpdateEvent]]:
        """Take and coalesce every tenant's backlog (may be empty).

        Tenants come back in first-submission order; each batch is the
        coalesced, serial-equivalent form of that tenant's raw events,
        WAL-appended (when a log is attached) in exactly this order.  A
        WAL failure re-queues the failing tenant's and every not-yet-
        drained tenant's raw events at the front of their backlogs and
        re-raises — accepted events are never lost to a disk fault.
        """
        with self._lock:
            taken, self._pending = self._pending, {}
        batches: dict[TenantId, list[UpdateEvent]] = {}
        pending_restore = list(taken.items())
        try:
            for tenant_id, events in taken.items():
                batches[tenant_id] = self._coalesce_counted(
                    tenant_id, events
                )
                pending_restore.pop(0)
        except BaseException:
            # The failing tenant's events were restored by
            # _coalesce_counted; restore the untouched remainder too.
            self._restore(pending_restore[1:])
            raise
        self._wal_commit()
        if batches:
            with self._lock:
                self.stats.flushes += 1
        return batches

    def drain_tenant(self, tenant_id: TenantId) -> list[UpdateEvent]:
        """Take and coalesce one tenant's backlog only (may be empty).

        Lets a read of one tenant satisfy read-your-writes without
        paying for every other tenant's pending refreshes.  Counted as a
        batch, not as a window flush — ``stats.flushes`` keeps meaning
        "drain cycles over the whole queue".
        """
        with self._lock:
            events = self._pending.pop(tenant_id, None)
        if not events:
            return []
        coalesced = self._coalesce_counted(tenant_id, events)
        self._wal_commit()
        return coalesced

    def _coalesce_counted(
        self, tenant_id: TenantId, events: list[UpdateEvent]
    ) -> list[UpdateEvent]:
        coalesced = coalesce_events(events)
        if self.wal is not None:
            try:
                self.wal.append_events(tenant_id, coalesced)
            except BaseException:
                self._restore([(tenant_id, events)])
                raise
        with self._lock:
            self.stats.flushed += len(coalesced)
            self.stats.coalesced_away += len(events) - len(coalesced)
            self.stats.batches += 1
        return coalesced

    def _restore(
        self, taken: list[tuple[TenantId, list[UpdateEvent]]]
    ) -> None:
        """Put un-dispatched raw events back at the head of their backlogs."""
        with self._lock:
            for tenant_id, events in taken:
                backlog = self._pending.setdefault(tenant_id, [])
                backlog[:0] = events

    def _wal_commit(self) -> None:
        """One durability point per drain cycle (``fsync="flush"``)."""
        if self.wal is not None:
            self.wal.sync()

    # ------------------------------------------------------------------
    # Async pump
    # ------------------------------------------------------------------
    async def pump(
        self,
        flush: Callable[[], Awaitable[None]],
        *,
        flush_interval: float = 0.05,
        stop: asyncio.Event | None = None,
    ) -> None:
        """Run *flush* every *flush_interval* seconds until *stop*.

        *flush* is a coroutine function performing one whole
        drain-and-dispatch cycle, so a caller whose drain must be atomic
        with downstream dispatch (a service keeping queue→worker enqueue
        order consistent with concurrent per-tenant drains) holds its
        own lock inside.  A backlog hitting ``max_pending`` wakes the
        pump early (safe to trigger from other threads).  On stop, one
        final cycle flushes whatever is still buffered.
        """
        if flush_interval <= 0:
            raise ReproError(
                f"flush_interval must be positive, got {flush_interval}"
            )
        stop = stop or asyncio.Event()
        self._wakeup = asyncio.Event()
        self._pump_loop = asyncio.get_running_loop()
        try:
            while not stop.is_set():
                waiters = [
                    asyncio.create_task(stop.wait()),
                    asyncio.create_task(self._wakeup.wait()),
                ]
                _, pending = await asyncio.wait(
                    waiters,
                    timeout=flush_interval,
                    return_when=asyncio.FIRST_COMPLETED,
                )
                for task in pending:
                    task.cancel()
                await asyncio.gather(*pending, return_exceptions=True)
                self._wakeup.clear()
                await flush()
            await flush()
        finally:
            self._wakeup = None
            self._pump_loop = None
