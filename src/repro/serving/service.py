"""RiskService — the serving layer's front door.

Ties the pieces together for callers like
:class:`~repro.system.pipeline.RiskControlCenter`:

* an :class:`~repro.serving.queue.IngestionQueue` absorbing per-tenant
  update traffic (windowed, last-write-wins coalescing, optional hard
  backpressure),
* a :class:`~repro.serving.pool.ServingPool` of per-tenant incremental
  monitors — each pool worker holds the base snapshot in a
  :class:`~repro.serving.store.GraphStore` and checks tenant views out
  of it copy-on-write, which is also where the per-worker memory
  telemetry in :meth:`RiskService.snapshot` comes from,
* and, with ``wal_dir=`` set, a durability layer: a
  :class:`~repro.persistence.wal.WriteAheadLog` of every coalesced
  batch (appended at flush time, *before* dispatch, so the durable
  order is exactly the order the monitors applied) plus rotated
  :class:`~repro.persistence.snapshots.SnapshotStore` snapshots of each
  monitor's full state.

The surface is synchronous-friendly — ``submit_update`` buffers, an
explicit :meth:`flush` applies, :meth:`query_topk` answers after all of
its tenant's submitted updates — while :meth:`serve` runs the timed
asyncio flush loop for a live deployment.  Every answer is the
incremental monitor's, hence bit-identical to a fresh BSR detection with
the tenant's parameters on the tenant's current graph state.

Durability and recovery
-----------------------
Constructing a :class:`RiskService` with a ``wal_dir`` that already
holds state *recovers* it: the latest snapshot's monitor blobs are
restored into the pool, tenants registered after that snapshot are
rebuilt from their durable registration records, and every WAL batch
past the snapshot's ``wal_seq`` is replayed in durable order.  A
promoted replica's warm pool takes the snapshot's place, with its
applied seq as the floor.  Either way construction returns only once
every replayed batch has applied, so the service never answers from
a half-replayed monitor, and new batches take sequence numbers above
the floor.  Monitors are deterministic functions of (base graph, seed,
ordered batch sequence), so the recovered process reaches the
*bit-identical* state — answers and work counters — the dead process
would have had; ``tests/test_persistence_faults.py`` SIGKILLs a
serving run mid-stream to pin exactly that.  A torn WAL tail (a record
cut short by the crash) is truncated at the first bad checksum;
everything before it recovers.

A shard worker that dies (e.g. OOM-killed) is respawned with bounded
retry/backoff and its tenants are restored from snapshot + WAL replay
transparently, on dispatch and on reads.  Recovery, promotion and
healing all read durable state through :mod:`repro.serving.replay`.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import pickle
import threading
import time
from collections import OrderedDict
from concurrent.futures import BrokenExecutor, Future
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Mapping

from repro.core.errors import FencedError, ReproError
from repro.core.graph import UncertainGraph
from repro.persistence.codec import PersistenceError, encode_event
from repro.persistence.snapshots import SnapshotStore
from repro.persistence.wal import WriteAheadLog
from repro.queries.base import param_key
from repro.serving.pool import ServingPool
from repro.serving.queue import IngestionQueue
from repro.serving.replay import (
    finish_replay,
    replay_batch,
    restore_snapshot,
)
from repro.serving.store import graph_fingerprint
from repro.streaming.events import (
    UpdateEvent,
    validate_event,
    validate_events,
)
from repro.streaming.monitor import RefreshReport, TopKMonitor

__all__ = ["RiskService", "ServiceSnapshot", "PromotionState"]

TenantId = Hashable

#: Capacity (entries) of the cross-tenant exact-answer cache.  Tenants
#: whose state tokens match share cached answers: a token chains the
#: base graph, the effective monitor parameters and the accepted event
#: history, monitors are deterministic functions of exactly those, so a
#: token hit is provably the bit-identical answer, and the frozen result
#: dataclasses make sharing safe.
RESULT_CACHE_SIZE = 128


def _seed_token(*parts) -> str:
    """The first link of a tenant's state-token chain."""
    return hashlib.sha256(repr(parts).encode()).hexdigest()


@dataclass
class PromotionState:
    """Warm state a promoted replica hands to its new :class:`RiskService`.

    A replica that mirrored and applied the primary's WAL already holds
    live monitors; promotion adopts them instead of re-restoring from
    snapshot + full replay.  ``applied_upto`` is the last WAL batch seq
    the pool has folded in — construction replays only the durable
    suffix past it (the un-acked tail a shipper landed but the apply
    loop never reached), exactly as crash recovery replays past a
    snapshot, before the service accepts writes.
    """

    pool: ServingPool
    registered: dict[TenantId, tuple[int, dict]]
    applied_upto: int


@dataclass(frozen=True)
class ServiceSnapshot:
    """One consistent telemetry cut of a running service.

    Attributes
    ----------
    tenants:
        Registered tenant ids in registration order.
    queue:
        Ingestion-queue counters (submitted / flushed / coalesced-away …).
    shards:
        Per-shard worker statistics from the pool (pid, tenant count,
        deduplicated graph bytes, per-monitor refresh counters).
    pending:
        Events buffered but not yet flushed, per tenant.
    top_k:
        Per-tenant current answers, present when the snapshot was taken
        with ``include_topk=True``.
    durability:
        WAL telemetry when the service is durable (``wal_dir``
        configured), else ``None``.
    """

    tenants: tuple[TenantId, ...]
    queue: Mapping[str, int]
    shards: tuple[Mapping, ...]
    pending: Mapping[TenantId, int]
    top_k: Mapping[TenantId, object] | None = None
    durability: Mapping[str, object] | None = None


class RiskService:
    """Multi-tenant incremental top-k detection over one shared network.

    Parameters
    ----------
    graph:
        The base network snapshot every tenant monitors; treated as
        immutable from construction onward.
    mode, shards, monitor_defaults:
        Forwarded to :class:`~repro.serving.pool.ServingPool`.
    max_pending:
        Per-tenant backlog bound of the ingestion queue.
    overflow:
        The queue's full-backlog policy (``"wake"`` / ``"error"`` /
        ``"shed"``); see :class:`~repro.serving.queue.IngestionQueue`.
    wal_dir:
        Durability directory.  ``None`` (default) keeps the PR-4
        in-memory behaviour; a path makes the service durable — and, if
        the directory already holds a WAL/snapshots, *recovers* it (see
        the module docstring).  Rotation keeps the latest 2 snapshots.
    fsync:
        WAL fsync policy (``"always"`` / ``"flush"`` / ``"never"``).
    snapshot_on_close:
        Write a final snapshot during a durable :meth:`close`, making
        the next recovery replay-free.
    """

    def __init__(
        self,
        graph: UncertainGraph,
        *,
        mode: str | None = None,
        shards: int | None = None,
        monitor_defaults: dict | None = None,
        max_pending: int = 4096,
        overflow: str = "wake",
        wal_dir=None,
        fsync: str = "flush",
        snapshot_on_close: bool = True,
        adopt: PromotionState | None = None,
        epoch_store=None,
        node_id: str = "primary",
    ) -> None:
        if adopt is not None:
            # Promotion path: take over a replica's already-warm pool.
            self._pool = adopt.pool
        else:
            self._pool = ServingPool(
                graph,
                mode=mode,
                shards=shards,
                monitor_defaults=monitor_defaults,
            )
        self._monitor_defaults = dict(monitor_defaults or {})
        self._wal = None
        self._snapshots = None
        self._fingerprint = graph_fingerprint(graph)
        self._snapshot_on_close = bool(snapshot_on_close)
        #: tenant -> (k, kwargs) for rebuild-from-scratch healing.
        self._registered: dict[TenantId, tuple[int, dict]] = {}
        #: tenant -> parent-side bounds mirror (see ``_begin_tracking``).
        self._mirrors: dict[TenantId, TopKMonitor] = {}
        #: tenant -> sha256 state token over the accepted event history,
        #: seeded at registration from the base graph and parameters, or
        #: from the tenant's id and the replay floor when its history
        #: starts in a snapshot or an adopted pool (``None`` = uncacheable
        #: after an unencodable event).
        self._tokens: dict[TenantId, str | None] = {}
        #: Serialises token advancement + mirror application with queue
        #: submission, so both track exactly the accepted event order.
        self._token_lock = threading.Lock()
        self._result_cache: OrderedDict = OrderedDict()
        self.cache_stats = {"hits": 0, "misses": 0}
        #: Fencing epoch this writer holds (0 = fencing disabled).
        self._epoch = 0
        self._epoch_store = epoch_store
        self._node_id = str(node_id)
        try:
            if adopt is not None and wal_dir is None:
                raise PersistenceError("promotion adoption needs wal_dir=...")
            if wal_dir is not None:
                self._wal = WriteAheadLog(wal_dir, fsync=fsync)
                self._snapshots = SnapshotStore(wal_dir)
                self._recover(adopt)
            if epoch_store is not None:
                # Claim a fresh epoch and stamp it into the WAL before the
                # first write: every batch this writer appends from here on
                # provably belongs to this epoch, and any older primary's
                # next fence check (at its next flush) will see it and
                # refuse to append.
                if self._wal is None:
                    raise PersistenceError(
                        "epoch fencing needs a durable service (wal_dir=...)"
                    )
                self._epoch = int(epoch_store.claim(self._node_id))
                self._wal.append_epoch(self._epoch, self._node_id)
                self._wal.sync()
            self._queue = IngestionQueue(
                max_pending=max_pending, overflow=overflow, wal=self._wal
            )
        except BaseException:
            # A refused start (another graph's snapshot, an inconsistent
            # log, a bad option) releases what it opened: the WAL
            # segment, and the pool built here, whose worker state holds
            # the base graph for as long as the pool is not shut down.
            # An adopted replica's pool stays with the caller.
            if self._wal is not None:
                self._wal.close()
            if adopt is None:
                self._pool.shutdown()
            raise
        # Makes [drain the queue -> enqueue to worker shards] atomic, so
        # concurrent flush paths (the serve() pump, explicit flush(),
        # per-tenant query_topk drains) cannot reorder a tenant's
        # batches between queue exit and shard entry — the per-tenant
        # FIFO the monitors' serial-equivalence rests on.  WAL appends
        # happen inside the same critical section (the queue appends
        # while draining), so the durable order is the dispatch order.
        self._dispatch_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def pool(self) -> ServingPool:
        """The monitor pool executing tenant work."""
        return self._pool

    @property
    def queue(self) -> IngestionQueue:
        """The ingestion queue buffering tenant updates."""
        return self._queue

    @property
    def durable(self) -> bool:
        """Whether a write-ahead log is configured."""
        return self._wal is not None

    @property
    def wal(self):
        """The write-ahead log, or ``None`` for an in-memory service."""
        return self._wal

    @property
    def snapshot_store(self):
        """The snapshot store, or ``None`` for an in-memory service."""
        return self._snapshots

    @property
    def epoch(self) -> int:
        """The fencing epoch this writer holds (0 = fencing disabled)."""
        return self._epoch

    @property
    def node_id(self) -> str:
        """This process's node identity (used in epoch stamps)."""
        return self._node_id

    @property
    def durable_seq(self) -> int:
        """Last WAL batch sequence made durable (0 for in-memory)."""
        return 0 if self._wal is None else self._wal.next_seq - 1

    def _check_fence(self) -> None:
        """Refuse to append if a newer primary has claimed the epoch.

        Called inside every WAL-appending critical section.  There is a
        small check-then-append window (a claim landing between this
        read and the append); the replica-side epoch-stamp rejection in
        :mod:`repro.replication.replica` is the backstop that keeps
        such a batch out of the surviving lineage.
        """
        if self._epoch_store is None:
            return
        current = int(self._epoch_store.current().epoch)
        if current != self._epoch:
            raise FencedError(self._epoch, current)

    def tenants(self) -> list[TenantId]:
        """Registered tenant ids."""
        return self._pool.tenants()

    # ------------------------------------------------------------------
    # Start-up (constructor path)
    # ------------------------------------------------------------------
    def _recover(self, adopt: PromotionState | None) -> None:
        """Establish pool state, replay the log past its floor, and wait.

        The state is the latest snapshot's (crash recovery; the floor is
        its ``wal_seq``) or the promoted replica's warm pool (the floor
        is ``adopt.applied_upto``).  Each tenant it holds gets a bounds
        mirror unpickled from its monitor blob and a state token of its
        own: its history before the floor is not known here.  Every
        batch past the floor is then replayed, and construction waits
        for all of them, so no answer comes from a half-replayed monitor.
        """
        assert self._wal is not None and self._snapshots is not None

        def mirror(tenant_id: TenantId, blob: bytes) -> None:
            # The blob is the pickled monitor itself: an exact bounds
            # mirror at the floor, which replay advances below.
            self._mirrors[tenant_id] = pickle.loads(blob)

        if adopt is None:
            # Read-pin while loading blobs: a concurrent rotation (another
            # thread's snapshot_to_disk, or an operator process sharing
            # the directory) cannot sweep this snapshot out from under us.
            with self._snapshots.pin_latest() as snapshot:
                if snapshot is not None and snapshot.base_fingerprint not in (
                    None, self._fingerprint
                ):
                    raise PersistenceError(
                        f"snapshot {snapshot.path} was taken against a "
                        "different base graph (fingerprint mismatch); "
                        "durable state cannot be replayed onto this network"
                    )
                restore_snapshot(self._pool, snapshot, on_restore=mirror)
            floor = 0 if snapshot is None else snapshot.wal_seq
        else:
            self._registered = dict(adopt.registered)
            for tenant_id in self._pool.tenants():
                mirror(tenant_id, self._pool.dump_tenant(tenant_id).result())
            floor = adopt.applied_upto
        established = set(self._pool.tenants())
        for tenant_id in established:
            self._tokens[tenant_id] = _seed_token("restored", tenant_id, floor)
        # The snapshot may have truncated every record through the
        # floor; a batch numbered at or below it would never replay.
        self._wal.resume_after(floor)
        last: dict[TenantId, Future] = {}
        # Batches replay whichever epoch wrote them: every one was
        # accepted by the then-legitimate primary.
        for batch in self._wal.read_batches():
            tenant_id = batch.tenant_id
            # A tenant without a mirror has neither a snapshot nor a
            # registration record: replay_batch refuses its batches.
            mirror = self._mirrors.get(tenant_id)
            if (
                batch.kind == "events"
                and batch.seq > floor
                and mirror is not None
            ):
                try:
                    validate_events(mirror.graph, batch.events)
                except ReproError:
                    # Logged before submits were validated: the live
                    # monitor refused this batch whole, so replay skips
                    # it as the no-op it was.
                    continue
            future = replay_batch(self._pool, batch, floor, self._registered)
            if batch.kind == "register" and tenant_id not in established:
                # Registered past the floor: the log holds its history.
                self._begin_tracking(tenant_id, *self._registered[tenant_id])
            if future is not None:
                last[tenant_id] = future
                for event in batch.events:
                    self._track_event(tenant_id, event)
        # Each shard runs its tenants' work in order, so a tenant's last
        # replay resolving means every earlier one has.
        for tenant_id, future in last.items():
            self._result_after_break(tenant_id, future)

    # ------------------------------------------------------------------
    # Bounds mirrors and state tokens (degraded path + result cache)
    # ------------------------------------------------------------------
    def _begin_tracking(
        self, tenant_id: TenantId, k: int, monitor_kwargs: dict
    ) -> None:
        """Give a new tenant its *bounds mirror* and first state token.

        The mirror is a :class:`~repro.streaming.monitor.TopKMonitor`
        over a copy-on-write view of the base snapshot that absorbs
        every accepted event at submit time, so :meth:`query_degraded`
        answers from its always-warm Eq-(1) iterates without queueing
        behind the tenant's shard backlog — the degraded path the SLO
        front end falls back to.  The token is seeded from the base
        graph and the effective parameters, so equal tenants with equal
        histories share cached answers.
        """
        merged = {**self._monitor_defaults, **monitor_kwargs}
        self._mirrors[tenant_id] = TopKMonitor(
            self._pool.checkout_base(), k, **merged
        )
        params = sorted((str(key), repr(value)) for key, value in merged.items())
        self._tokens[tenant_id] = _seed_token(
            "registered", self._fingerprint, int(k), params
        )

    def _track_event(self, tenant_id: TenantId, event: UpdateEvent) -> None:
        """Fold one accepted event into the mirror and the state token.

        Called with the accepted-order already fixed (under
        ``_token_lock`` on the live path; single-threaded during
        recovery), and only with events already validated against the
        mirror, so the mirror applies each one.
        """
        self._mirrors[tenant_id].apply([event])
        token = self._tokens.get(tenant_id)
        if token is not None:
            try:
                payload = encode_event(event)
            except (PersistenceError, ReproError, TypeError, ValueError):
                # Unencodable event: the history can no longer be
                # fingerprinted, so the tenant leaves the result cache.
                self._tokens[tenant_id] = None
            else:
                self._tokens[tenant_id] = hashlib.sha256(
                    token.encode("ascii") + payload
                ).hexdigest()

    def query_degraded(self, tenant_id: TenantId):
        """A *degraded* bounds-only answer from the tenant's mirror.

        Never waits on the tenant's shard: the mirror lives in this
        process and already holds every accepted event, so the answer
        costs one Eq-(1) bound evaluation (cached between updates) no
        matter how deep the shard backlog is.  Flagged
        ``degraded=True``.
        """
        self._ensure_open()
        with self._token_lock:
            return self._mirror(tenant_id).bounds_topk()

    def _mirror(self, tenant_id: TenantId) -> TopKMonitor:
        """The tenant's bounds mirror (caller holds ``_token_lock``).

        Every registered, restored, replayed or adopted tenant gets one,
        and nothing removes it.  Registration installs it once the pool
        holds the tenant and the registration record is durable, so a
        request racing a registration finds an unknown tenant rather
        than a tenant without a mirror.
        """
        try:
            return self._mirrors[tenant_id]
        except KeyError:
            raise ReproError(f"unknown tenant {tenant_id!r}") from None

    # ------------------------------------------------------------------
    # Tenant lifecycle and traffic
    # ------------------------------------------------------------------
    def register_tenant(
        self, tenant_id: TenantId, k: int, **monitor_kwargs
    ) -> None:
        """Attach a tenant: a COW view of the snapshot plus a monitor.

        On a durable service the registration itself is WAL-logged (and
        its arguments must be JSON-serialisable), so a tenant created
        after the last snapshot still recovers.  The record is durable
        before the bounds mirror that admits writes exists, so no write
        can be logged ahead of its tenant's registration; one racing
        the registration is refused as an unknown tenant.
        """
        self._ensure_open()
        if self._wal is not None:
            try:
                json.dumps(monitor_kwargs)
            except (TypeError, ValueError) as error:
                raise PersistenceError(
                    "durable tenants need JSON-serialisable monitor "
                    f"kwargs: {error}"
                ) from None
        self._check_fence()
        # The pool refuses a duplicate before anything is logged.
        self._pool.register(tenant_id, k, **monitor_kwargs)
        if self._wal is not None:
            self._wal.append_register(tenant_id, int(k), monitor_kwargs)
            self._wal.sync()
        self._registered[tenant_id] = (int(k), dict(monitor_kwargs))
        self._begin_tracking(tenant_id, int(k), dict(monitor_kwargs))

    def submit_update(self, tenant_id: TenantId, event: UpdateEvent) -> bool:
        """Buffer one update for *tenant_id* (applied at the next flush).

        Returns whether the event was accepted — only ever ``False``
        under the queue's ``overflow="shed"`` policy with a full
        backlog; the ``"error"`` policy raises
        :class:`~repro.core.errors.BackpressureError` instead.

        An event the tenant's monitor would reject (unknown entity,
        duplicate node or edge, probability outside [0, 1], wrong bulk
        shape) raises that monitor's error and queues nothing.  It is
        checked against the tenant's bounds mirror, which holds every
        accepted event, so the flush that would have applied it, and
        the valid events coalesced into the same batch, are unaffected.
        """
        self._ensure_open()
        # One critical section covers validation, queue admission,
        # mirror application and token advancement, so all of them
        # agree on the accepted event order (refused and shed events
        # touch none of them).
        with self._token_lock:
            validate_event(self._mirror(tenant_id).graph, event)
            accepted = self._queue.submit(tenant_id, event)
            if accepted:
                self._track_event(tenant_id, event)
        return accepted

    def submit_updates(
        self, tenant_id: TenantId, events: Iterable[UpdateEvent]
    ) -> int:
        """Buffer a batch of updates; returns how many were accepted.

        An event :meth:`submit_update` refuses raises here too; the
        events before it stay accepted.
        """
        count = 0
        for event in events:
            if self.submit_update(tenant_id, event):
                count += 1
        return count

    def submit_and_sync(self, tenant_id: TenantId, event: UpdateEvent) -> int:
        """Accept one update and make it durable before returning.

        The write path behind durable acks: the event is admitted,
        drained into a coalesced batch, WAL-appended and fsynced (per
        the service's fsync policy) inside the dispatch critical
        section, then applied.  Returns the :attr:`durable_seq` read in
        that section — the event's batch seq, or a later one if a pump
        raced the call; replication acks are phrased in it — or ``-1``
        if the queue shed it.

        Raises :class:`~repro.core.errors.FencedError` on a deposed
        primary: the event stays buffered but is provably never made
        durable by this writer.
        """
        self._ensure_open()
        if self._wal is None:
            raise PersistenceError(
                "submit_and_sync needs a durable service (wal_dir=...)"
            )
        if not self.submit_update(tenant_id, event):
            return -1
        return self._drain_tenant(tenant_id)

    def _drain_tenant(self, tenant_id: TenantId) -> int:
        """Apply the tenant's own backlog; return the durable seq.

        Draining, the WAL append and the shard dispatch share the
        dispatch critical section (see ``__init__``); waiting for the
        apply does not.  The seq is 0 on an in-memory service.
        """
        with self._dispatch_lock:
            self._check_fence()
            events = self._queue.drain_tenant(tenant_id)
            future = (
                self._apply_after_break(tenant_id, events) if events else None
            )
            seq = self.durable_seq
        if events:
            self._result_after_break(tenant_id, future)
        return seq

    def flush(self) -> dict[TenantId, RefreshReport]:
        """Apply every buffered update batch; returns per-tenant reports.

        Batches are coalesced (last write per entity wins — provably
        state-equivalent to serial application), WAL-appended when the
        service is durable, and dispatched to the tenants' shards
        concurrently; the call returns once every monitor has folded
        its batch in.  A shard whose worker died is healed (respawn +
        restore from durable state, which includes the just-logged
        batches) before the call returns.
        """
        self._ensure_open()
        futures = self._dispatch_all()
        return {
            tenant_id: self._result_after_break(tenant_id, future)
            for tenant_id, future in futures.items()
        }

    def _dispatch_all(self) -> dict[TenantId, "Future | None"]:
        """Atomically drain every backlog and enqueue it shard-side.

        A ``None`` future marks a tenant whose shard was broken at
        dispatch time and healed in place (the heal's WAL replay covers
        the drained batch — it was appended before dispatch).
        """
        with self._dispatch_lock:
            self._check_fence()
            batches = self._queue.drain()
            return {
                tenant_id: self._apply_after_break(tenant_id, events)
                for tenant_id, events in batches.items()
                if events
            }

    def _apply_after_break(
        self, tenant_id: TenantId, events: list
    ) -> "Future | None":
        try:
            return self._pool.apply(tenant_id, events)
        except BrokenExecutor:
            if self._wal is None:
                raise
            # The batch is already durable (drained -> WAL-appended),
            # so healing replays it; nothing is re-dispatched.
            self._heal_shard(self._pool.shard_index(tenant_id))
            return None

    def _result_after_break(self, tenant_id: TenantId, future: "Future | None"):
        """Resolve one shard future, healing a dead worker if durable."""
        if future is not None:
            try:
                return future.result()
            except BrokenExecutor:
                if self._wal is None:
                    raise
                index = self._pool.shard_index(tenant_id)
                if not self._pool.shard_alive(index):
                    self._heal_shard(index)
        # Healed work either applied before the crash (then the heal's
        # snapshot/replay state includes it) or it never ran (then it
        # was durable and the replay applied it).  Either way the
        # monitor is current; serve its last report.
        return self._pool.last_report(tenant_id).result()

    def _heal_shard(self, index: int) -> None:
        """Respawn a dead shard and restore its tenants from durable state.

        A tenant without a snapshot blob is rebuilt from its
        registration; every tenant replays the log past ``wal_seq``.
        """
        assert self._wal is not None and self._snapshots is not None
        self._pool.respawn_shard(index)
        tenants = self._pool.tenants_on_shard(index)
        batches = self._wal.read_batches()
        with self._snapshots.pin_latest() as snapshot:
            snapshotted = restore_snapshot(
                self._pool, snapshot, tenants=tenants
            )
        floor = 0 if snapshot is None else snapshot.wal_seq
        for tenant_id in tenants:
            if tenant_id not in snapshotted:
                k, kwargs = self._registered[tenant_id]
                self._pool.rebuild_tenant(tenant_id, k, **kwargs)
        for batch in batches:
            if batch.tenant_id in tenants:
                future = replay_batch(
                    self._pool, batch, floor, self._registered
                )
                finish_replay(future)

    def query_topk(self, tenant_id: TenantId, *, flush: bool = True):
        """The tenant's current top-k :class:`DetectionResult`.

        With ``flush=True`` (default) the tenant's own pending updates
        are applied first, so the answer reflects everything submitted
        for it before the call — read-your-writes without paying for
        other tenants' backlogs (their windows flush on their own
        schedule).
        """
        self._ensure_open()
        if flush:
            self._drain_tenant(tenant_id)
        # The "topk" tag keeps these cache entries disjoint from
        # query_family entries sharing the same state token.
        return self._answer(
            tenant_id, ("topk",), lambda: self._pool.query(tenant_id)
        )

    def query_family(
        self,
        tenant_id: TenantId,
        family: str,
        *,
        params: Mapping | None = None,
        flush: bool = True,
    ):
        """Answer one registered query *family* over the tenant's worlds.

        Same read-your-writes contract as :meth:`query_topk` (the
        tenant's own backlog is flushed first by default), same
        cross-tenant result cache — keyed additionally by ``(family,
        params)``, so a ``kcore`` answer can never be served for a
        ``reliability`` request even when the state tokens match.  The
        shard-side monitor runs every family against **one** shared
        repaired world set, so a burst of family queries between
        updates costs one sampling pass, not one per query.

        Returns the family's :class:`~repro.queries.base.QueryResult`.
        """
        self._ensure_open()
        params = dict(params or {})
        family = str(family)
        if flush:
            self._drain_tenant(tenant_id)
        return self._answer(
            tenant_id,
            (family, param_key(params)),
            lambda: self._pool.query_family(tenant_id, family, params),
        )

    def _answer(
        self, tenant_id: TenantId, query: tuple, run: Callable[[], Future]
    ):
        """Run *query* on the tenant's shard through the result cache.

        Token-equal tenants (same parameters, same accepted history)
        provably hold bit-identical answers (monitors are
        deterministic), so the second one is a dictionary lookup.
        Eligible only when nothing is pending for the tenant — with
        ``flush=False`` and a backlog, the exact answer deliberately
        lags the token.  A dead shard is healed and *run* retried once.
        """
        with self._token_lock:
            token = self._tokens.get(tenant_id)
            pending = self._queue.pending(tenant_id)
        cache_key = None
        if token is not None and not pending:
            cache_key = (token, query)
            cached = self._result_cache.get(cache_key)
            if cached is not None:
                self.cache_stats["hits"] += 1
                self._result_cache.move_to_end(cache_key)
                return cached
            self.cache_stats["misses"] += 1
        try:
            result = run().result()
        except BrokenExecutor:
            if self._wal is None:
                raise
            self._heal_shard(self._pool.shard_index(tenant_id))
            result = run().result()
        if cache_key is not None:
            with self._token_lock:
                unchanged = self._tokens.get(tenant_id) == token
            # A submit that raced the query would make the token newer
            # than the answer; only a quiescent tenant populates the
            # cache.
            if unchanged:
                self._result_cache[cache_key] = result
                self._result_cache.move_to_end(cache_key)
                while len(self._result_cache) > RESULT_CACHE_SIZE:
                    self._result_cache.popitem(last=False)
        return result

    # ------------------------------------------------------------------
    # Durable snapshots
    # ------------------------------------------------------------------
    def snapshot_to_disk(self):
        """Write one rotated snapshot of every tenant; truncate the WAL.

        Never blocks or drops live tenant streams: submissions keep
        landing in the ingestion queue throughout, and each tenant's
        state dump is just one more task on its shard's FIFO — ordered
        after the applies already dispatched, before those that follow.
        Dumps are enqueued and the WAL rotated in the dispatch critical
        section that reads ``wal_seq``, so each blob folds in exactly
        the batches through it.  The manifest records this writer's
        epoch, which outlives the epoch stamp the snapshot covers.
        Once the snapshot is atomically published (temp + rename), every
        sealed segment it covers goes unless the replication retain
        floor holds it.  A dead shard worker is healed and the snapshot
        retaken.

        Returns the published
        :class:`~repro.persistence.snapshots.Snapshot`.
        """
        self._ensure_open()
        if self._wal is None or self._snapshots is None:
            raise PersistenceError(
                "snapshot_to_disk needs a durable service (wal_dir=...)"
            )
        try:
            with self._dispatch_lock:
                wal_seq = self.durable_seq
                futures = {}
                for tenant_id in self._pool.tenants():
                    futures[tenant_id] = self._pool.dump_tenant(tenant_id)
                self._wal.rotate()
            tenants = {}
            for tenant_id, future in futures.items():
                tenants[tenant_id] = future.result()
        except BrokenExecutor:
            # tenant_id's worker is dead.  Healing replays every durable
            # batch, including any past wal_seq, so dump everyone again.
            with self._dispatch_lock:
                self._heal_shard(self._pool.shard_index(tenant_id))
            return self.snapshot_to_disk()
        published = self._snapshots.write(
            tenants,
            wal_seq=wal_seq,
            base_fingerprint=self._fingerprint,
            epoch=self._epoch,
        )
        self._wal.truncate_upto(wal_seq)
        return published

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def snapshot(self, *, include_topk: bool = False) -> ServiceSnapshot:
        """Telemetry snapshot; optionally includes per-tenant answers."""
        self._ensure_open()
        tenants = tuple(self._pool.tenants())
        top_k = None
        if include_topk:
            if self._queue.pending():
                self.flush()
            top_k = self._pool.query_all()
        durability = None
        if self._wal is not None:
            durability = {
                "wal_dir": str(self._wal.directory),
                "wal_segments": len(self._wal.segment_paths),
                "next_seq": self._wal.next_seq,
            }
        return ServiceSnapshot(
            tenants=tenants,
            queue=self._queue.stats.as_dict(),
            shards=tuple(self._pool.stats()),
            pending={
                tenant_id: self._queue.pending(tenant_id)
                for tenant_id in tenants
            },
            top_k=top_k,
            durability=durability,
        )

    # ------------------------------------------------------------------
    # Async serving loop
    # ------------------------------------------------------------------
    async def serve(
        self,
        *,
        flush_interval: float = 0.05,
        stop: asyncio.Event | None = None,
        snapshot_interval: float | None = None,
    ) -> None:
        """Drain the ingestion queue on a timer until *stop* is set.

        Runs :meth:`IngestionQueue.pump`, each of whose cycles
        performs the whole drain-and-dispatch under the service's
        dispatch lock (shared with :meth:`flush` and
        :meth:`query_topk`), so a request thread draining one tenant
        mid-cycle can never enqueue ahead of an already-drained earlier
        batch — per-tenant order is submission order, always.

        With ``snapshot_interval`` set (durable services only), the
        pump also rotates a disk snapshot every that-many seconds.
        """
        if snapshot_interval is not None and self._wal is None:
            raise ReproError(
                "snapshot_interval needs a durable service (wal_dir=...)"
            )
        last_snapshot = time.monotonic()

        async def flush_cycle() -> None:
            nonlocal last_snapshot
            futures = self._dispatch_all()
            for tenant_id, future in futures.items():
                if future is None:
                    continue
                try:
                    await asyncio.wrap_future(future)
                except BrokenExecutor:
                    if self._wal is None:
                        raise
                    index = self._pool.shard_index(tenant_id)
                    if not self._pool.shard_alive(index):
                        self._heal_shard(index)
            if (
                snapshot_interval is not None
                and time.monotonic() - last_snapshot >= snapshot_interval
            ):
                self.snapshot_to_disk()
                last_snapshot = time.monotonic()

        await self._queue.pump(
            flush=flush_cycle, flush_interval=flush_interval, stop=stop
        )

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the service down (idempotent).

        An in-memory service keeps the PR-4 contract: buffered events
        are dropped.  A durable service must not drop accepted traffic:
        pending events are drained, WAL-appended, and applied, then (by
        default) a final snapshot is rotated out so the next recovery
        is replay-free; only then do the workers stop.
        """
        if self._closed:
            return
        if self._wal is not None:
            try:
                self.flush()
                if self._snapshot_on_close and self._pool.tenants():
                    self.snapshot_to_disk()
            except FencedError:
                # A deposed primary closing down: its buffered events
                # were never acked by the new lineage and must NOT be
                # made durable — dropping them here is the fence doing
                # its job, not data loss.
                pass
            finally:
                self._closed = True
                self._wal.close()
                self._pool.shutdown()
            return
        self._closed = True
        self._pool.shutdown()

    def _ensure_open(self) -> None:
        if self._closed:
            raise ReproError("service is closed")

    def __enter__(self) -> "RiskService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
