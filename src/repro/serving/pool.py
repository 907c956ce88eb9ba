"""Sharded monitor pool — per-tenant ordering over shared base graphs.

One :class:`ServingPool` multiplexes many :class:`~repro.streaming.
monitor.TopKMonitor` tenants over a single frozen base graph.  Tenants
are pinned round-robin to *shards*; each shard is a single-worker
executor, so everything submitted for a tenant — registrations, update
batches, queries — executes FIFO in submission order (the per-tenant
ordering guarantee), while different shards run concurrently.

Execution modes
---------------
``"fork"``
    Each shard is a one-worker :class:`~concurrent.futures.
    ProcessPoolExecutor` using the ``fork`` start method: workers
    inherit the base graph through the forked address space — no
    pickling, and the OS shares the physical pages copy-on-write, the
    process-level twin of :meth:`~repro.core.graph.UncertainGraph.
    share_view`'s in-process buffer sharing.  Events and results cross
    the pipe (small, picklable dataclasses).
``"thread"``
    One-worker :class:`~concurrent.futures.ThreadPoolExecutor` shards in
    this process; buffer sharing via ``share_view`` alone.  The numpy
    kernels release the GIL for their heavy ops, so shards overlap.
``"serial"``
    No executors: operations run inline on the caller's thread, one at
    a time per shard (a lock stands in for the single worker), and come
    back as resolved futures.  Deterministic reference, used by tests
    and as the fallback where ``fork`` is unavailable.

All three modes produce bit-identical per-tenant answers (the monitors
are deterministic given seed and event order, which the shard FIFO
fixes); the mode only chooses where the work runs.
"""

from __future__ import annotations

import itertools
import logging
import multiprocessing
import os
import pickle
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Hashable, Sequence

from repro.core.errors import GraphError, ProbabilityError, ReproError
from repro.core.graph import UncertainGraph
from repro.serving.store import GraphStore
from repro.streaming.events import UpdateEvent
from repro.streaming.monitor import RefreshReport, TopKMonitor

__all__ = ["ServingPool", "available_modes", "default_mode"]

TenantId = Hashable

#: Worker-side state, keyed by pool id.  In ``fork`` mode every worker
#: process holds exactly its own shard's slice of this dict; in
#: ``thread``/``serial`` mode all shards of a pool share one entry.
_POOL_STATE: dict[str, dict] = {}
_REGISTER_LOCK = threading.Lock()
_POOL_IDS = itertools.count()
_LOG = logging.getLogger(__name__)


def available_modes() -> tuple[str, ...]:
    """Execution modes usable on this platform."""
    modes: list[str] = []
    if "fork" in multiprocessing.get_all_start_methods():
        modes.append("fork")
    modes.extend(["thread", "serial"])
    return tuple(modes)


def default_mode() -> str:
    """Preferred mode: ``fork`` where supported, else ``thread``."""
    return "fork" if "fork" in available_modes() else "thread"


def _pool_init(pool_id: str, base_graph: UncertainGraph, defaults: dict) -> None:
    """Install one pool's worker-side state (idempotent per process)."""
    if pool_id in _POOL_STATE:
        return
    store = GraphStore()
    store.put("base", base_graph)
    _POOL_STATE[pool_id] = {
        "store": store, "defaults": defaults, "tenants": {}
    }


def _worker_warmup(pool_id: str) -> int:
    """No-op used to force worker startup eagerly; returns the pid."""
    return os.getpid()


def _worker_register(
    pool_id: str,
    tenant_id: TenantId,
    k: int,
    kwargs: dict,
    replace: bool = False,
) -> TenantId:
    """Build a fresh monitor for *tenant_id*.

    ``replace=True`` is the heal path's rebuild: after a worker respawn
    there is no state to collide with (fork mode) or the surviving
    state is being deliberately replaced from durable records
    (thread/serial), so there is no duplicate check.
    """
    state = _POOL_STATE[pool_id]
    if not replace and tenant_id in state["tenants"]:
        raise ReproError(f"tenant {tenant_id!r} already registered")
    # checkout -> share_view mutates the base graph's column wrappers;
    # serialize it across thread-mode shards (fork/serial never race).
    with _REGISTER_LOCK:
        graph = state["store"].checkout("base")
    merged = {**state["defaults"], **kwargs}
    state["tenants"][tenant_id] = TopKMonitor(graph, k, **merged)
    return tenant_id


def _worker_monitor(pool_id: str, tenant_id: TenantId) -> TopKMonitor:
    try:
        return _POOL_STATE[pool_id]["tenants"][tenant_id]
    except KeyError:
        raise ReproError(f"unknown tenant {tenant_id!r}") from None


def _worker_apply(
    pool_id: str, tenant_id: TenantId, events: Sequence[UpdateEvent]
) -> RefreshReport:
    monitor = _worker_monitor(pool_id, tenant_id)
    monitor.apply(events)
    return monitor.refresh()


def _worker_replay(
    pool_id: str,
    tenant_id: TenantId,
    batches: Sequence[Sequence[UpdateEvent]],
) -> int:
    """Apply a tenant's logged batches in order, refresh once; count them.

    A log written before submits were validated can hold a batch its
    monitor refuses.  The live apply rejected that batch whole, leaving
    the monitor as it was, so replay skips it as the same no-op.  The
    monitor keys its pending work by entity, so one refresh over the
    applied batches equals one flush window carrying all of them.
    """
    monitor = _worker_monitor(pool_id, tenant_id)
    applied = 0
    for events in batches:
        try:
            monitor.apply(events)
        except (GraphError, ProbabilityError):
            continue
        applied += 1
    if applied:
        monitor.refresh()
    return applied


def _worker_query(pool_id: str, tenant_id: TenantId):
    return _worker_monitor(pool_id, tenant_id).top_k()


def _worker_query_family(
    pool_id: str, tenant_id: TenantId, family: str, params: dict
):
    """Run one registered query family on the tenant's shared worlds.

    Executes on the tenant's shard FIFO, so the answer is ordered after
    every apply dispatched before it — the same read-your-writes
    guarantee ``_worker_query`` gives the top-k path.
    """
    return _worker_monitor(pool_id, tenant_id).query(family, **params)


def _worker_dump(pool_id: str, tenant_id: TenantId) -> bytes:
    """Pickle one monitor's full state, its answer computed first.

    Runs on the tenant's shard FIFO, so the blob reflects exactly the
    batches dispatched before the dump was enqueued — the property a
    snapshot's ``wal_seq`` relies on.  Answering before pickling means
    a restored monitor holds its answer, never pending work.
    """
    monitor = _worker_monitor(pool_id, tenant_id)
    monitor.top_k()
    return pickle.dumps(monitor, protocol=pickle.HIGHEST_PROTOCOL)


def _worker_restore(pool_id: str, tenant_id: TenantId, blob: bytes) -> TenantId:
    """Install a previously dumped monitor state (overwrites any)."""
    monitor = pickle.loads(blob)
    _POOL_STATE[pool_id]["tenants"][tenant_id] = monitor
    return tenant_id


def _worker_last_report(pool_id: str, tenant_id: TenantId):
    """The monitor's most recent refresh report (``None`` if pristine)."""
    return _worker_monitor(pool_id, tenant_id).last_report


def _worker_stats(pool_id: str) -> dict:
    state = _POOL_STATE[pool_id]
    memory = state["store"].memory_report("base")
    return {
        "pid": os.getpid(),
        "tenants": len(state["tenants"]),
        # Deduplicated resident bytes of this worker's base + checkouts.
        # Fork-mode workers each hold (a COW copy of) the base, so
        # summing across workers double-counts it — physically the OS
        # shares those pages; compare per worker, not summed.
        "graph_bytes": memory.shared_bytes,
        "graph_bytes_unshared": memory.naive_bytes,
        "monitor_stats": {
            tenant_id: dict(monitor.stats)
            for tenant_id, monitor in state["tenants"].items()
        },
    }


class _Shard:
    """One FIFO execution lane (a single-worker executor, or inline)."""

    def __init__(
        self,
        mode: str,
        pool_id: str,
        base_graph: UncertainGraph,
        defaults: dict,
    ) -> None:
        self._mode = mode
        self._pool_id = pool_id
        if mode == "serial":
            self._executor = None
            # One inline call at a time, like a single worker; worker
            # functions never call back into the pool, so no deadlock.
            self._inline = threading.Lock()
            _pool_init(pool_id, base_graph, defaults)
        elif mode == "thread":
            self._executor = ThreadPoolExecutor(
                max_workers=1,
                initializer=_pool_init,
                initargs=(pool_id, base_graph, defaults),
            )
        elif mode == "fork":
            self._executor = ProcessPoolExecutor(
                max_workers=1,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_pool_init,
                initargs=(pool_id, base_graph, defaults),
            )
        else:
            raise ReproError(
                f"unknown pool mode {mode!r}; choose from "
                f"{available_modes()}"
            )

    def submit(self, fn, *args) -> Future:
        if self._executor is not None:
            return self._executor.submit(fn, *args)
        future: Future = Future()
        with self._inline:
            try:
                future.set_result(fn(*args))
            except BaseException as error:  # noqa: BLE001 - mirror executor
                future.set_exception(error)
        return future

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)


class ServingPool:
    """Many monitors, one shared base graph, per-tenant FIFO dispatch.

    Parameters
    ----------
    base_graph:
        The frozen network all tenants monitor.  Treated as immutable
        from registration onward.
    shards:
        Number of execution lanes (default: CPU count, at most 8; always
        1 in ``serial`` mode).  Tenants are pinned round-robin.
    mode:
        ``"fork"`` / ``"thread"`` / ``"serial"`` — see the module
        docstring.  Default: :func:`default_mode`.
    monitor_defaults:
        Keyword defaults applied to every tenant's
        :class:`~repro.streaming.monitor.TopKMonitor` (seed, epsilon,
        algorithm, …); per-tenant kwargs override.
    """

    def __init__(
        self,
        base_graph: UncertainGraph,
        *,
        shards: int | None = None,
        mode: str | None = None,
        monitor_defaults: dict | None = None,
    ) -> None:
        self._mode = mode or default_mode()
        if self._mode not in available_modes():
            if self._mode == "fork":
                # Spawn-only platforms (macOS default, Windows) cannot
                # fork; the thread mode keeps the same per-tenant FIFO
                # and bit-identical answers, so degrade instead of dying.
                _LOG.warning(
                    "pool mode 'fork' unavailable on this platform "
                    "(start methods: %s); falling back to 'thread'",
                    multiprocessing.get_all_start_methods(),
                )
                self._mode = "thread"
            else:
                raise ReproError(
                    f"pool mode {self._mode!r} unavailable here; choose "
                    f"from {available_modes()}"
                )
        if shards is None:
            shards = 1 if self._mode == "serial" else min(
                os.cpu_count() or 1, 8
            )
        if shards < 1:
            raise ReproError(f"shards must be >= 1, got {shards}")
        if self._mode == "serial":
            shards = 1
        self._pool_id = f"pool-{os.getpid()}-{next(_POOL_IDS)}"
        self._base_graph = base_graph
        defaults = self._defaults = dict(monitor_defaults or {})
        # Build the CSR views before any fork/share: workers inherit
        # them instead of each rebuilding the argsort.
        base_graph.out_csr()
        base_graph.in_csr()
        self._shards = [
            _Shard(self._mode, self._pool_id, base_graph, defaults)
            for _ in range(shards)
        ]
        # Start every worker eagerly, at construction time: fork-mode
        # children should be forked now — before the caller starts an
        # asyncio pump or other threads whose locks a later lazy fork
        # could snapshot mid-acquisition.
        self._pids = [
            shard.submit(_worker_warmup, self._pool_id).result()
            for shard in self._shards
        ]
        self._shard_of: dict[TenantId, _Shard] = {}
        self._next_shard = 0
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def mode(self) -> str:
        """The execution mode this pool runs under."""
        return self._mode

    @property
    def base_graph(self) -> UncertainGraph:
        """The frozen base snapshot every tenant monitors (do not mutate).

        In fork mode the workers hold their own inherited copies; this
        is the parent-side original, kept for identity/consistency
        checks by callers attaching pre-existing pipelines.
        """
        return self._base_graph

    def tenants(self) -> list[TenantId]:
        """Registered tenant ids, registration-ordered."""
        return list(self._shard_of)

    def checkout_base(self) -> UncertainGraph:
        """A parent-side copy-on-write view of the base snapshot.

        What the serving layer's *bounds mirrors* are built over: the
        view shares the frozen base buffers until first mutation, like
        the worker-side checkouts.  ``share_view`` mutates the base
        graph's column wrappers, so the call is serialised against
        worker-side registrations (thread mode shares the object).
        """
        with _REGISTER_LOCK:
            return self._base_graph.share_view()

    def has_tenant(self, tenant_id: TenantId) -> bool:
        """O(1) membership test (the ingestion hot path's validity check)."""
        return tenant_id in self._shard_of

    def _shard(self, tenant_id: TenantId) -> _Shard:
        try:
            return self._shard_of[tenant_id]
        except KeyError:
            raise ReproError(f"unknown tenant {tenant_id!r}") from None

    # ------------------------------------------------------------------
    def register(
        self, tenant_id: TenantId, k: int, **monitor_kwargs
    ) -> None:
        """Attach a tenant monitor (blocks until the worker holds it)."""
        if self._closed:
            raise ReproError("pool is shut down")
        if tenant_id in self._shard_of:
            raise ReproError(f"tenant {tenant_id!r} already registered")
        shard = self._shards[self._next_shard % len(self._shards)]
        shard.submit(
            _worker_register, self._pool_id, tenant_id, k, monitor_kwargs
        ).result()
        self._shard_of[tenant_id] = shard
        self._next_shard += 1

    def apply(
        self, tenant_id: TenantId, events: Sequence[UpdateEvent]
    ) -> "Future[RefreshReport]":
        """Apply one event batch and refresh; resolves to the report."""
        return self._shard(tenant_id).submit(
            _worker_apply, self._pool_id, tenant_id, list(events)
        )

    def replay(
        self,
        tenant_id: TenantId,
        batches: Sequence[Sequence[UpdateEvent]],
    ) -> "Future[int]":
        """Apply logged event batches in order, then refresh once.

        A batch the monitor refuses is skipped (it was a no-op when it
        was live); the refresh runs only if some batch applied.
        Resolves to the number of batches applied.
        """
        return self._shard(tenant_id).submit(
            _worker_replay,
            self._pool_id,
            tenant_id,
            [list(events) for events in batches],
        )

    def query(self, tenant_id: TenantId) -> Future:
        """Current top-k; ordered after every prior apply of the tenant."""
        return self._shard(tenant_id).submit(
            _worker_query, self._pool_id, tenant_id
        )

    def query_family(
        self, tenant_id: TenantId, family: str, params: dict | None = None
    ) -> Future:
        """Run *family* on the tenant's shared worlds (shard-ordered).

        Resolves to a :class:`~repro.queries.base.QueryResult`.  The
        monitor reuses one repaired world set across every family, so
        consecutive family queries between updates amortise the
        sampling cost instead of re-drawing worlds per query.
        """
        return self._shard(tenant_id).submit(
            _worker_query_family,
            self._pool_id,
            tenant_id,
            str(family),
            dict(params or {}),
        )

    # ------------------------------------------------------------------
    # Durability hooks (used by RiskService's snapshot/recovery paths)
    # ------------------------------------------------------------------
    def dump_tenant(self, tenant_id: TenantId) -> "Future[bytes]":
        """Pickled monitor state (answer computed first), shard-FIFO-ordered.

        Because the dump runs on the tenant's own execution lane, it
        reflects every apply enqueued before it and none after — the
        cheap way to take a consistent per-tenant snapshot without
        pausing ingestion for anyone else.
        """
        return self._shard(tenant_id).submit(
            _worker_dump, self._pool_id, tenant_id
        )

    def restore_tenant(self, tenant_id: TenantId, blob: bytes) -> None:
        """Install a dumped monitor blob for *tenant_id* (blocking).

        A tenant already pinned to a shard is restored in place (the
        worker-side heal path after a respawn); an unknown tenant is
        pinned round-robin first, exactly like :meth:`register`.
        """
        if self._closed:
            raise ReproError("pool is shut down")
        shard = self._shard_of.get(tenant_id)
        if shard is None:
            shard = self._shards[self._next_shard % len(self._shards)]
            self._shard_of[tenant_id] = shard
            self._next_shard += 1
        shard.submit(
            _worker_restore, self._pool_id, tenant_id, blob
        ).result()

    def rebuild_tenant(self, tenant_id: TenantId, k: int, **monitor_kwargs) -> None:
        """Recreate *tenant_id*'s monitor from scratch on its shard.

        Used by the heal path for tenants with a durable registration
        record but no snapshot blob — the WAL replay that follows
        brings the fresh monitor back to the exact pre-crash state.
        """
        self._shard(tenant_id).submit(
            _worker_register, self._pool_id, tenant_id, k, monitor_kwargs,
            True,  # replace the monitor the dead worker held
        ).result()

    def last_report(self, tenant_id: TenantId) -> Future:
        """The tenant monitor's most recent refresh report."""
        return self._shard(tenant_id).submit(
            _worker_last_report, self._pool_id, tenant_id
        )

    def shard_alive(self, index: int) -> bool:
        """Whether lane *index* currently accepts and completes work."""
        try:
            self._shards[index].submit(
                _worker_warmup, self._pool_id
            ).result()
        except BaseException:
            return False
        return True

    def shard_index(self, tenant_id: TenantId) -> int:
        """Which execution lane *tenant_id* is pinned to."""
        return self._shards.index(self._shard(tenant_id))

    def tenants_on_shard(self, index: int) -> list[TenantId]:
        """Registration-ordered tenants pinned to lane *index*."""
        shard = self._shards[index]
        return [
            tenant_id
            for tenant_id, owner in self._shard_of.items()
            if owner is shard
        ]

    def worker_pids(self) -> list[int]:
        """Per-shard worker pids (this process's pid in thread/serial)."""
        return list(self._pids)

    def respawn_shard(
        self,
        index: int,
        *,
        max_attempts: int = 3,
        backoff: float = 0.05,
    ) -> None:
        """Replace lane *index*'s executor after its worker died.

        Bounded retry with exponential backoff: each attempt builds a
        fresh single-worker executor and warms it up; persistent
        failure re-raises the last error.  Tenants pinned to the lane
        keep their pinning but their worker-side monitors are gone —
        the caller (the durable service's heal path) restores them from
        snapshot + WAL replay.  In ``thread``/``serial`` mode the
        worker-side state lives in this process and survives, so a
        respawn is just a fresh executor.
        """
        old = self._shards[index]
        try:
            old.shutdown()
        except Exception:  # pragma: no cover - broken pools may misbehave
            pass
        last_error: BaseException | None = None
        for attempt in range(max_attempts):
            if attempt:
                time.sleep(backoff * (2 ** (attempt - 1)))
            try:
                shard = _Shard(
                    self._mode, self._pool_id, self._base_graph,
                    self._defaults,
                )
                pid = shard.submit(_worker_warmup, self._pool_id).result()
            except Exception as error:  # pragma: no cover - spawn failure
                last_error = error
                continue
            self._shards[index] = shard
            self._pids[index] = pid
            for tenant_id, owner in self._shard_of.items():
                if owner is old:
                    self._shard_of[tenant_id] = shard
            return
        raise ReproError(
            f"could not respawn shard {index} after {max_attempts} attempts"
        ) from last_error

    def query_all(self) -> dict:
        """Every tenant's current top-k (waits for all)."""
        futures = {
            tenant_id: self.query(tenant_id) for tenant_id in self._shard_of
        }
        return {
            tenant_id: future.result()
            for tenant_id, future in futures.items()
        }

    def stats(self) -> list[dict]:
        """Per-worker statistics (pid, tenants, graph bytes, …).

        One row per distinct worker process: fork mode yields a row per
        shard, while thread/serial shards share this process's state and
        collapse to a single row.
        """
        futures = [
            shard.submit(_worker_stats, self._pool_id)
            for shard in self._shards
        ]
        rows: dict[int, dict] = {}
        for future in futures:
            row = future.result()
            rows.setdefault(row["pid"], row)
        return list(rows.values())

    def shutdown(self) -> None:
        """Stop all shards (idempotent); pending work completes first."""
        if self._closed:
            return
        self._closed = True
        for shard in self._shards:
            shard.shutdown()
        _POOL_STATE.pop(self._pool_id, None)

    def __enter__(self) -> "ServingPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
