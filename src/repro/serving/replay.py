"""Turning durable state back into serving-pool state.

Every path that rebuilds monitors from disk reads through this module:
:class:`~repro.serving.service.RiskService` crash recovery, promotion
and dead-shard healing, and
:class:`~repro.replication.replica.ReplicaService` local recovery,
bootstrap and shipped-WAL ingest.  Callers pass their differences in
(which tenants, which floor — a snapshot's ``wal_seq`` or a replica's
applied seq — what to do with each restored blob) and keep their own
bookkeeping: the service's bounds mirrors and state tokens, the
replica's epoch fence and applied-seq cursor.
"""

from __future__ import annotations

from concurrent.futures import Future
from typing import Callable, Collection, Hashable

from repro.core.errors import GraphError, ProbabilityError
from repro.persistence.codec import PersistenceError
from repro.persistence.snapshots import Snapshot
from repro.persistence.wal import WalBatch
from repro.serving.pool import ServingPool

__all__ = ["restore_snapshot", "replay_batch", "finish_replay"]

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


def replay_batch(
    pool: ServingPool,
    batch: WalBatch,
    floor: int,
    registered: dict[TenantId, tuple[int, dict]],
) -> Future | None:
    """Turn one durable batch into pool work.

    A registration is recorded in *registered* (tenant -> ``(k,
    kwargs)``) and registers its tenant unless the pool already holds
    it.  An event batch past *floor* is dispatched; the returned future
    resolves to its refresh report.  Anything else (an epoch stamp, a
    batch at or below the floor) returns ``None``.
    """
    tenant_id = batch.tenant_id
    if batch.kind == "register":
        register = batch.register or {}
        k = int(register.get("k", 1))
        kwargs = dict(register.get("kwargs", {}))
        registered[tenant_id] = (k, kwargs)
        if not pool.has_tenant(tenant_id):
            pool.register(tenant_id, k, **kwargs)
        return None
    if batch.kind != "events" or batch.seq <= floor:
        return None
    if not pool.has_tenant(tenant_id):
        raise PersistenceError(
            f"WAL batch {batch.seq} addresses tenant {tenant_id!r} with "
            "neither a snapshot nor a registration record — the log is "
            "inconsistent"
        )
    return pool.apply(tenant_id, list(batch.events))


def finish_replay(future: Future | None) -> bool:
    """Wait for one :func:`replay_batch` future; return whether it applied.

    A log written before submits were validated can hold a batch with an
    event its monitor refuses.  The live apply rejected that batch whole,
    leaving the monitor as it was, so its replay is the same no-op.
    """
    if future is None:
        return False
    try:
        future.result()
    except (GraphError, ProbabilityError):
        return False
    return True
