"""Turning durable state back into serving-pool state.

Every path that rebuilds monitors from disk reads through this module:
:class:`~repro.serving.service.RiskService` crash recovery, promotion
and dead-shard healing, and
:class:`~repro.replication.replica.ReplicaService` local recovery,
bootstrap and shipped-WAL ingest.  Callers pass their differences in
(which batches, which floor — a snapshot's ``wal_seq`` or a replica's
applied seq — what to do with each restored blob, registration and
event batch) and keep their own bookkeeping: the service's bounds
mirrors and state tokens, the replica's epoch fence and applied-seq
cursor.

Replay folds each tenant's logged suffix into one
:meth:`~repro.serving.pool.ServingPool.replay`: its batches apply in
log order and the monitor refreshes once.  A monitor keys its pending
work by entity (first old value wins, the graph holds the last write),
so that refresh is the one a single flush window carrying the whole
suffix would run, and the answer is the one per-batch replay reaches.
Only the monitor's history counters tell the two apart: a replayed
suffix counts as one refresh.
"""

from __future__ import annotations

from concurrent.futures import Future
from typing import Callable, Collection, Hashable, Iterable, Sequence

from repro.persistence.codec import PersistenceError
from repro.persistence.snapshots import Snapshot
from repro.persistence.wal import WalBatch
from repro.serving.pool import ServingPool
from repro.streaming.events import UpdateEvent

__all__ = ["restore_snapshot", "replay_log"]

TenantId = Hashable


def restore_snapshot(
    pool: ServingPool,
    snapshot: Snapshot | None,
    *,
    tenants: Collection[TenantId] | None = None,
    on_restore: Callable[[TenantId, bytes], None] | None = None,
) -> set[TenantId]:
    """Install *snapshot*'s monitor blobs into *pool*; return their tenants.

    ``tenants`` limits the restore to those tenants (a healed shard's);
    ``on_restore`` sees each installed blob, so a caller that also wants
    the monitor parent-side unpickles the bytes already read.
    """
    restored: set[TenantId] = set()
    if snapshot is None:
        return restored
    for tenant_snapshot in snapshot.tenants.values():
        tenant_id = tenant_snapshot.tenant_id
        if tenants is not None and tenant_id not in tenants:
            continue
        blob = tenant_snapshot.load_state_blob()
        pool.restore_tenant(tenant_id, blob)
        restored.add(tenant_id)
        if on_restore is not None:
            on_restore(tenant_id, blob)
    return restored


def replay_log(
    pool: ServingPool,
    batches: Iterable[WalBatch],
    floor: int,
    registered: dict[TenantId, tuple[int, dict]],
    *,
    on_register: Callable[[TenantId], None] | None = None,
    admit: Callable[[TenantId, Sequence[UpdateEvent]], bool] | None = None,
) -> dict[TenantId, Future]:
    """Walk *batches* once, then dispatch one replay per tenant.

    A registration is recorded in *registered* (tenant -> ``(k,
    kwargs)``), registers its tenant unless the pool already holds it,
    and is then handed to ``on_register``.  An event batch past *floor*
    joins its tenant's suffix unless ``admit`` refuses it; one whose
    tenant the pool does not hold at that point of the log (neither a
    snapshot nor an earlier registration record) raises
    :class:`~repro.persistence.codec.PersistenceError` before anything
    is dispatched.  Epoch stamps and batches at or below the floor are
    skipped.

    Returns each replayed tenant's future, resolving to how many of its
    batches applied.
    """
    suffixes: dict[TenantId, list[Sequence[UpdateEvent]]] = {}
    for batch in batches:
        tenant_id = batch.tenant_id
        if batch.kind == "register":
            register = batch.register or {}
            k = int(register.get("k", 1))
            kwargs = dict(register.get("kwargs", {}))
            registered[tenant_id] = (k, kwargs)
            if not pool.has_tenant(tenant_id):
                pool.register(tenant_id, k, **kwargs)
            if on_register is not None:
                on_register(tenant_id)
            continue
        if batch.kind != "events" or batch.seq <= floor:
            continue
        if not pool.has_tenant(tenant_id):
            raise PersistenceError(
                f"WAL batch {batch.seq} addresses tenant {tenant_id!r} with "
                "neither a snapshot nor a registration record — the log is "
                "inconsistent"
            )
        if admit is None or admit(tenant_id, batch.events):
            suffixes.setdefault(tenant_id, []).append(batch.events)
    return {
        tenant_id: pool.replay(tenant_id, suffix)
        for tenant_id, suffix in suffixes.items()
    }
