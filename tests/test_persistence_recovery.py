"""Service-level durability: snapshots, recovery, staleness, shutdown."""

from __future__ import annotations

import contextlib
import json
import pickle
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.algorithms.bsr import BoundedSampleReverseDetector
from repro.core.errors import ProbabilityError, ReproError
from repro.core.graph import UncertainGraph
from repro.persistence.codec import PersistenceError
from repro.persistence.snapshots import SnapshotStore
from repro.persistence.wal import WriteAheadLog
from repro.serving import pool as serving_pool
from repro.serving.service import RiskService
from repro.streaming.events import SelfRiskUpdate, apply_events
from repro.streaming.monitor import TopKMonitor

DEFAULTS = {"seed": 42, "epsilon": 0.5}


def make_graph(n=24, seed=7, density=0.14):
    rng = np.random.default_rng(seed)
    graph = UncertainGraph()
    for i in range(n):
        graph.add_node(i, float(rng.uniform(0.05, 0.6)))
    for src in range(n):
        for dst in range(n):
            if src != dst and rng.random() < density:
                graph.add_edge(src, dst, float(rng.uniform(0.1, 0.9)))
    return graph


def patch_stream(graph, count, seed):
    rng = np.random.default_rng(seed)
    return [
        SelfRiskUpdate(
            int(rng.integers(0, graph.num_nodes)), float(rng.uniform(0, 1))
        )
        for _ in range(count)
    ]


def drive(service, tenants, events, *, flush_every=5, snapshot_at=None):
    for position, event in enumerate(events):
        for tenant_id in tenants:
            service.submit_update(tenant_id, event)
        if (position + 1) % flush_every == 0:
            service.flush()
        if snapshot_at is not None and position == snapshot_at:
            service.snapshot_to_disk()
    service.flush()


def abandon(service):
    """Simulate a crash: release resources without the durable close."""
    service._wal.close()
    service._pool.shutdown()
    service._closed = True


def wal_segments(directory):
    """Indices of the segment files in *directory*, oldest first."""
    return sorted(int(path.stem[4:]) for path in directory.glob("wal-*.log"))


@pytest.fixture
def graph():
    return make_graph()


@pytest.fixture
def events(graph):
    return patch_stream(graph, 30, seed=1)


def reference_answers(graph, events, tenants):
    """Uninterrupted, non-durable run — the bit-identity baseline."""
    service = RiskService(graph, mode="serial", monitor_defaults=DEFAULTS)
    for tenant_id, k in tenants.items():
        service.register_tenant(tenant_id, k)
    drive(service, list(tenants), events)
    answers = {t: service.query_topk(t) for t in tenants}
    service.close()
    return answers


def one_window_stats(graph, events, tenants, snapshot_at):
    """Work counters of the run that recovery past a snapshot reproduces.

    Replay folds each tenant's logged suffix into one refresh, so the
    recovered monitors count what a run counts that takes the stream up
    to the snapshot as :func:`drive` does (the snapshot follows a
    flush), then the rest of it in one flush window.
    """
    service = RiskService(graph, mode="serial", monitor_defaults=DEFAULTS)
    for tenant_id, k in tenants.items():
        service.register_tenant(tenant_id, k)
    drive(service, list(tenants), events[: snapshot_at + 1])
    for event in events[snapshot_at + 1:]:
        for tenant_id in tenants:
            service.submit_update(tenant_id, event)
    service.flush()
    stats = service.snapshot().shards[0]["monitor_stats"]
    service.close()
    return stats


class TestRecovery:
    def test_snapshot_plus_replay_is_bit_identical(
        self, graph, events, tmp_path
    ):
        tenants = {"t1": 3, "t2": 5}
        service = RiskService(
            graph, mode="serial", wal_dir=tmp_path, monitor_defaults=DEFAULTS
        )
        for tenant_id, k in tenants.items():
            service.register_tenant(tenant_id, k)
        # Snapshot mid-stream: recovery restores it, then replays the
        # WAL suffix past each tenant's watermark.
        drive(service, list(tenants), events, snapshot_at=14)
        abandon(service)

        recovered = RiskService(
            graph, mode="serial", wal_dir=tmp_path, monitor_defaults=DEFAULTS
        )
        assert set(recovered.tenants()) == set(tenants)
        baseline = reference_answers(graph, events, tenants)
        replayed = one_window_stats(graph, events, tenants, snapshot_at=14)
        stats = recovered.snapshot().shards[0]["monitor_stats"]
        for tenant_id in tenants:
            answer = recovered.query_topk(tenant_id)
            assert answer.same_answer(baseline[tenant_id])
            assert not answer.stale
            # Work counters match too: the recovered monitor is the
            # state one flush window over the suffix leaves, not merely
            # the same ranking.
            assert stats[tenant_id] == replayed[tenant_id]
        recovered.close()

    def test_wal_only_recovery_without_any_snapshot(
        self, graph, events, tmp_path
    ):
        tenants = {"solo": 4}
        service = RiskService(
            graph, mode="serial", wal_dir=tmp_path, monitor_defaults=DEFAULTS
        )
        service.register_tenant("solo", 4)
        drive(service, ["solo"], events)
        abandon(service)

        recovered = RiskService(
            graph, mode="serial", wal_dir=tmp_path, monitor_defaults=DEFAULTS
        )
        # The tenant came back from its durable registration record.
        assert recovered.tenants() == ["solo"]
        baseline = reference_answers(graph, events, tenants)
        assert recovered.query_topk("solo").same_answer(baseline["solo"])
        recovered.close()

    def test_registration_kwargs_survive(self, graph, tmp_path):
        service = RiskService(
            graph, mode="serial", wal_dir=tmp_path, monitor_defaults=DEFAULTS
        )
        service.register_tenant("picky", 2, epsilon=0.4, bk=8)
        abandon(service)
        recovered = RiskService(
            graph, mode="serial", wal_dir=tmp_path, monitor_defaults=DEFAULTS
        )
        answer = recovered.query_topk("picky")
        fresh = TopKMonitor(
            graph.share_view(), 2, seed=42, epsilon=0.4, bk=8
        ).top_k()
        assert answer.same_answer(fresh)
        recovered.close()

    def test_non_json_monitor_kwargs_refused_up_front(self, graph, tmp_path):
        service = RiskService(graph, mode="serial", wal_dir=tmp_path)
        with pytest.raises(PersistenceError, match="JSON"):
            service.register_tenant("t", 2, seed=np.int64(3))
        assert service.tenants() == []  # nothing half-registered
        service.close()

    def test_fingerprint_mismatch_refused(self, graph, events, tmp_path):
        service = RiskService(
            graph, mode="serial", wal_dir=tmp_path, monitor_defaults=DEFAULTS
        )
        service.register_tenant("t1", 3)
        drive(service, ["t1"], events[:10])
        service.snapshot_to_disk()
        abandon(service)
        other = make_graph(seed=99)
        with pytest.raises(PersistenceError, match="fingerprint"):
            RiskService(
                other, mode="serial", wal_dir=tmp_path,
                monitor_defaults=DEFAULTS,
            )

    def test_refused_start_releases_its_pool_and_wal(
        self, graph, tmp_path, monkeypatch
    ):
        """A directory that refuses to open leaves nothing open behind:
        the WAL segment is closed and the pool's worker state, which
        holds the base graph, is gone."""
        service = RiskService(
            graph, mode="serial", wal_dir=tmp_path, monitor_defaults=DEFAULTS
        )
        service.register_tenant("t1", 3)
        drive(service, ["t1"], patch_stream(graph, 10, seed=5))
        service.snapshot_to_disk()
        service.close()
        pools_before = set(serving_pool._POOL_STATE)
        closed = []
        real_close = WriteAheadLog.close

        def recording_close(wal):
            closed.append(wal)
            real_close(wal)

        monkeypatch.setattr(WriteAheadLog, "close", recording_close)
        with pytest.raises(PersistenceError, match="fingerprint"):
            RiskService(
                make_graph(seed=99), mode="serial", wal_dir=tmp_path,
                monitor_defaults=DEFAULTS,
            )
        assert set(serving_pool._POOL_STATE) == pools_before
        assert len(closed) == 1

    def test_events_for_an_unknown_tenant_refuse_to_open(
        self, graph, tmp_path
    ):
        """A batch whose tenant has neither a snapshot nor a registration
        record cannot be replayed: recovery reports an inconsistent log
        instead of failing on the missing tenant's state."""
        service = RiskService(
            graph, mode="serial", wal_dir=tmp_path, monitor_defaults=DEFAULTS
        )
        service.register_tenant("t1", 3)
        service.wal.append_events("ghost", [SelfRiskUpdate(0, 0.9)])
        abandon(service)
        with pytest.raises(PersistenceError, match="inconsistent"):
            RiskService(
                graph, mode="serial", wal_dir=tmp_path,
                monitor_defaults=DEFAULTS,
            )

    def test_a_later_registration_does_not_cover_an_earlier_batch(
        self, graph, tmp_path
    ):
        """Replay reads the whole log before dispatching, but checks each
        batch at its place in it: a registration logged after a batch
        does not make that batch replayable."""
        service = RiskService(
            graph, mode="serial", wal_dir=tmp_path, monitor_defaults=DEFAULTS
        )
        service.wal.append_events("ghost", [SelfRiskUpdate(0, 0.9)])
        service.wal.append_register("ghost", 3, {})
        abandon(service)
        with pytest.raises(PersistenceError, match="batch 1 .* inconsistent"):
            RiskService(
                graph, mode="serial", wal_dir=tmp_path,
                monitor_defaults=DEFAULTS,
            )

    def test_a_write_racing_registration_is_not_logged_first(
        self, graph, tmp_path
    ):
        """A durable write that lands while the tenant is registering is
        refused as an unknown tenant, never logged ahead of the
        registration record (which would leave a directory that no
        longer opens)."""
        service = RiskService(
            graph, mode="serial", wal_dir=tmp_path, monitor_defaults=DEFAULTS
        )
        append_register = service.wal.append_register
        refused = []

        def racing_append(tenant_id, k, monitor_kwargs):
            try:
                service.submit_and_sync(tenant_id, SelfRiskUpdate(0, 0.9))
            except ReproError as error:
                refused.append(str(error))
            return append_register(tenant_id, k, monitor_kwargs)

        service.wal.append_register = racing_append
        service.register_tenant("t1", 3)
        assert len(refused) == 1 and "unknown tenant" in refused[0]
        abandon(service)
        recovered = RiskService(
            graph, mode="serial", wal_dir=tmp_path, monitor_defaults=DEFAULTS
        )
        assert recovered.tenants() == ["t1"]
        fresh = TopKMonitor(graph.share_view(), 3, **DEFAULTS).top_k()
        assert recovered.query_topk("t1").same_answer(fresh)
        recovered.close()


class TestRestartAfterSnapshot:
    """A reopened directory whose snapshot truncated every WAL record."""

    def test_writes_after_a_graceful_restart_survive_a_crash(
        self, graph, events, tmp_path
    ):
        reference = RiskService(graph, mode="serial", monitor_defaults=DEFAULTS)
        reference.register_tenant("t1", 3)
        drive(reference, ["t1"], events)
        before = reference.query_topk("t1")
        # Certain defaulters outside the answer: each write moves it.
        writes = [
            SelfRiskUpdate(node, 1.0)
            for node in range(graph.num_nodes)
            if node not in before.nodes
        ][:4]
        for event in writes:
            reference.submit_update("t1", event)
            reference.flush()
        expected = reference.query_topk("t1")
        reference.close()
        assert not expected.same_answer(before)

        service = RiskService(
            graph, mode="serial", wal_dir=tmp_path, monitor_defaults=DEFAULTS
        )
        service.register_tenant("t1", 3)
        drive(service, ["t1"], events)
        service.close()  # the final snapshot covers and truncates it all
        floor = SnapshotStore(tmp_path).latest().wal_seq
        reopened = RiskService(
            graph, mode="serial", wal_dir=tmp_path, monitor_defaults=DEFAULTS
        )
        seqs = [reopened.submit_and_sync("t1", event) for event in writes]
        assert min(seqs) > floor
        abandon(reopened)
        recovered = RiskService(
            graph, mode="serial", wal_dir=tmp_path, monitor_defaults=DEFAULTS
        )
        try:
            assert recovered.query_topk("t1").same_answer(expected)
        finally:
            recovered.close()

    def test_restored_tenants_rejoin_the_result_cache(
        self, graph, events, tmp_path
    ):
        service = RiskService(
            graph, mode="serial", wal_dir=tmp_path, monitor_defaults=DEFAULTS
        )
        for tenant_id in ("t1", "t2"):
            service.register_tenant(tenant_id, 3)
        drive(service, ["t1", "t2"], events[:10])
        service.close()
        recovered = RiskService(
            graph, mode="serial", wal_dir=tmp_path, monitor_defaults=DEFAULTS
        )
        try:
            first = recovered.query_topk("t1")
            assert recovered.query_topk("t1") is first
            # Equal histories, but each restored tenant's token is its
            # own: what came before the snapshot is not known here.
            recovered.query_topk("t2")
            assert recovered.cache_stats == {"hits": 1, "misses": 2}
        finally:
            recovered.close()


class TestSnapshotRotation:
    def test_keep_bound_and_wal_truncation(self, graph, events, tmp_path):
        service = RiskService(
            graph, mode="serial", wal_dir=tmp_path,
            monitor_defaults=DEFAULTS, snapshot_on_close=False,
        )
        service.register_tenant("t1", 3)
        for start in range(0, 30, 10):
            drive(service, ["t1"], events[start:start + 10])
            service.snapshot_to_disk()
        store = SnapshotStore(tmp_path, keep=2)
        snapshot = store.latest()
        assert snapshot is not None and snapshot.index == 3
        snapshots_dir = tmp_path / "snapshots"
        assert len(list(snapshots_dir.glob("snap-*"))) == 2  # rotated
        # Sealed segments behind the watermark were deleted; what's left
        # on disk still recovers to the exact live state.
        baseline = reference_answers(graph, events, {"t1": 3})
        live = service.query_topk("t1")
        assert live.same_answer(baseline["t1"])
        abandon(service)
        recovered = RiskService(
            graph, mode="serial", wal_dir=tmp_path, monitor_defaults=DEFAULTS
        )
        assert recovered.query_topk("t1").same_answer(live)
        recovered.close()

    def test_idle_tenant_does_not_hold_the_wal(self, graph, tmp_path):
        """A tenant that never receives an event leaves every segment a
        snapshot covers free to go."""
        service = RiskService(
            graph, mode="serial", wal_dir=tmp_path, snapshot_on_close=False
        )
        service.register_tenant("t1", 3)
        service.register_tenant("idle", 3)
        for node in range(5):
            service.submit_update("t1", SelfRiskUpdate(node, 0.9))
            service.flush()
            service.snapshot_to_disk()
        assert wal_segments(tmp_path) == [6]
        service.close()

    def test_back_to_back_snapshots_keep_truncating(self, graph, tmp_path):
        """A snapshot with no write since the last one seals a segment
        without records; the next truncation deletes it too."""
        service = RiskService(
            graph, mode="serial", wal_dir=tmp_path, snapshot_on_close=False
        )
        service.register_tenant("t1", 3)
        service.submit_update("t1", SelfRiskUpdate(0, 0.9))
        service.flush()
        service.snapshot_to_disk()
        service.snapshot_to_disk()
        for node in range(1, 5):
            service.submit_update("t1", SelfRiskUpdate(node, 0.9))
            service.flush()
            service.snapshot_to_disk()
        assert wal_segments(tmp_path) == [7]
        service.close()

    def test_snapshot_is_a_manifest_and_one_blob_per_tenant(
        self, graph, tmp_path
    ):
        service = RiskService(graph, mode="serial", wal_dir=tmp_path)
        for tenant_id in ("t1", "t2"):
            service.register_tenant(tenant_id, 3)
        published = service.snapshot_to_disk()
        service.close()
        assert sorted(path.name for path in published.path.iterdir()) == [
            "manifest.json", "tenant-0000.state.pkl", "tenant-0001.state.pkl"
        ]
        manifest = json.loads((published.path / "manifest.json").read_text())
        assert [sorted(row) for row in manifest["tenants"]] == [
            ["state", "tenant_id"], ["state", "tenant_id"]
        ]

    def test_snapshot_requires_durable_service(self, graph):
        service = RiskService(graph, mode="serial")
        with pytest.raises(PersistenceError, match="wal_dir"):
            service.snapshot_to_disk()
        service.close()


class TestStaleServing:
    def test_stale_never_leaks_into_fresh_results(self, graph, tmp_path):
        service = RiskService(
            graph, mode="serial", wal_dir=tmp_path, monitor_defaults=DEFAULTS
        )
        service.register_tenant("t1", 3)
        assert service.query_topk("t1").stale is False
        service.close()


class TestGracefulShutdown:
    def test_durable_close_keeps_unflushed_events(
        self, graph, events, tmp_path
    ):
        tenants = {"t1": 3}
        service = RiskService(
            graph, mode="serial", wal_dir=tmp_path, monitor_defaults=DEFAULTS
        )
        service.register_tenant("t1", 3)
        drive(service, ["t1"], events[:25])
        for event in events[25:]:
            service.submit_update("t1", event)
        assert service.queue.pending("t1") == 5
        service.close()  # must flush + apply, not drop

        recovered = RiskService(
            graph, mode="serial", wal_dir=tmp_path, monitor_defaults=DEFAULTS
        )
        baseline = reference_answers(graph, events, tenants)
        assert recovered.query_topk("t1").same_answer(baseline["t1"])
        recovered.close()

    def test_close_is_idempotent_and_final(self, graph, tmp_path):
        service = RiskService(graph, mode="serial", wal_dir=tmp_path)
        service.register_tenant("t1", 2)
        service.close()
        service.close()
        from repro.core.errors import ReproError

        with pytest.raises(ReproError, match="closed"):
            service.query_topk("t1")

    def test_snapshot_on_close_makes_recovery_replay_free(
        self, graph, events, tmp_path
    ):
        service = RiskService(
            graph, mode="serial", wal_dir=tmp_path, monitor_defaults=DEFAULTS
        )
        service.register_tenant("t1", 3)
        drive(service, ["t1"], events)
        service.close()
        latest = SnapshotStore(tmp_path).latest()
        assert latest is not None
        recovered = RiskService(
            graph, mode="serial", wal_dir=tmp_path, monitor_defaults=DEFAULTS
        )
        # Everything was folded into the final snapshot: no suffix left.
        assert not [
            batch
            for batch in recovered.wal.read_batches()
            if batch.kind == "events" and batch.seq > latest.wal_seq
        ]
        baseline = reference_answers(graph, events, {"t1": 3})
        assert recovered.query_topk("t1").same_answer(baseline["t1"])
        recovered.close()


class TestTransactionalBatches:
    """Satellite regression: a mid-batch invalid event applies nothing."""

    def test_apply_events_is_all_or_nothing(self, graph):
        before = graph.self_risk_array.copy()
        batch = [
            SelfRiskUpdate(0, 0.9),
            SelfRiskUpdate(1, 1.7),  # invalid: > 1
            SelfRiskUpdate(2, 0.1),
        ]
        with pytest.raises(ProbabilityError):
            apply_events(graph, batch)
        assert np.array_equal(graph.self_risk_array, before)

    def test_monitor_apply_is_all_or_nothing(self, graph):
        monitor = TopKMonitor(graph.share_view(), 3, **DEFAULTS)
        untouched = TopKMonitor(graph.share_view(), 3, **DEFAULTS)
        with pytest.raises(ProbabilityError):
            monitor.apply([
                SelfRiskUpdate(0, 0.9),
                SelfRiskUpdate(1, float("nan")),
            ])
        # The failed batch left no partial state: answers and work
        # counters match a monitor that never saw it.
        assert monitor.top_k().same_answer(untouched.top_k())
        assert monitor.stats == untouched.stats
        # And the monitor still works for good batches afterwards.
        monitor.apply([SelfRiskUpdate(0, 0.9)])
        untouched.apply([SelfRiskUpdate(0, 0.9)])
        assert monitor.top_k().same_answer(untouched.top_k())


class TestRefusedUpdatesStayOutOfTheLog:
    """An invalid update is refused at submit, so no batch holding it is
    ever logged; a log written before that still opens."""

    def open_service(self, graph, directory):
        return RiskService(
            graph, mode="serial", wal_dir=directory, monitor_defaults=DEFAULTS
        )

    def test_refused_update_never_reaches_the_wal(
        self, graph, events, tmp_path
    ):
        service = self.open_service(graph, tmp_path)
        service.register_tenant("t1", 3)
        service.submit_update("t1", events[0])
        with contextlib.suppress(ProbabilityError):
            service.submit_update("t1", SelfRiskUpdate(1, 1.7))
        service.flush()
        logged = [
            event
            for batch in service.wal.read_batches()
            if batch.kind == "events"
            for event in batch.events
        ]
        abandon(service)
        assert logged == [events[0]]
        recovered = self.open_service(graph, tmp_path)
        baseline = reference_answers(graph, events[:1], {"t1": 3})
        assert recovered.query_topk("t1").same_answer(baseline["t1"])
        recovered.close()

    @pytest.mark.parametrize("then_valid", [False, True])
    def test_a_log_holding_a_rejected_batch_still_opens(
        self, graph, events, tmp_path, then_valid
    ):
        accepted = events[:10] + (events[10:15] if then_valid else [])
        service = self.open_service(graph, tmp_path)
        service.register_tenant("t1", 3)
        drive(service, ["t1"], events[:10])
        # What a flush logged before submits were validated: a coalesced
        # batch the monitor rejected whole, valid event and all.
        service.wal.append_events(
            "t1", [SelfRiskUpdate(0, 0.9), SelfRiskUpdate(1, 1.7)]
        )
        if then_valid:
            drive(service, ["t1"], events[10:15])
        abandon(service)

        recovered = self.open_service(graph, tmp_path)
        baseline = reference_answers(graph, accepted, {"t1": 3})
        assert recovered.query_topk("t1").same_answer(baseline["t1"])
        shadow = graph.copy()
        apply_events(shadow, accepted)
        expected = TopKMonitor(shadow, 3, **DEFAULTS).bounds_topk()
        assert recovered.query_degraded("t1").same_answer(expected)
        # Healing a shard replays the same suffix onto the same state.
        recovered._heal_shard(recovered.pool.shard_index("t1"))
        assert recovered.query_topk("t1").same_answer(baseline["t1"])
        recovered.close()


class TestSnapshotRotationRace:
    """Rotation sweeping must never delete a pinned recovery read."""

    @staticmethod
    def write_snapshot(store, stamp):
        return store.write({"t1": f"blob-{stamp}".encode()}, wal_seq=stamp)

    def test_pinned_snapshot_survives_rotation_past_keep(self, tmp_path):
        store = SnapshotStore(tmp_path, keep=1)
        self.write_snapshot(store, 1)
        with store.pin_latest() as pinned:
            assert pinned is not None and pinned.index == 1
            # Two rotations put the pinned snapshot well outside the
            # keep window; the sweep must skip it while we hold the pin.
            self.write_snapshot(store, 2)
            self.write_snapshot(store, 3)
            state = pinned.tenants["t1"]
            assert state.state_path.read_bytes() == b"blob-1"
        # Unpinned now: the next rotation reclaims it.
        self.write_snapshot(store, 4)
        assert not pinned.path.exists()
        latest = store.latest()
        assert latest is not None and latest.index == 4

    def test_concurrent_rotate_and_recover_never_lose_a_read(
        self, tmp_path
    ):
        import threading

        store = SnapshotStore(tmp_path, keep=1)
        self.write_snapshot(store, 0)
        stop = threading.Event()
        failures = []

        def reader():
            while not stop.is_set():
                try:
                    with store.pin_latest() as snapshot:
                        assert snapshot is not None
                        blob = snapshot.tenants["t1"].state_path.read_bytes()
                        stamp = int(blob.decode().split("-")[1])
                        assert stamp == snapshot.wal_seq
                except Exception as error:  # noqa: BLE001
                    failures.append(error)
                    return

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            for stamp in range(1, 40):
                self.write_snapshot(store, stamp)
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not failures, failures


class TestLegacyMonitorBlob:
    """Snapshot blobs from before the engine options were retired.

    ``data/monitor_packed_layout.pkl`` is a ``TopKMonitor`` pickled the
    way snapshots pickle monitors, by the code that still offered
    engine, world-state and counter-layout options: k=4, seed=3, on a
    30-node power-law graph after four drift updates and one ``topk``
    query, so it holds packed-layout worlds, a sampler with the retired
    ``_layout`` slot and a realised query view.
    """

    BLOB = Path(__file__).parent / "data" / "monitor_packed_layout.pkl"

    def test_loads_and_recomputes_from_its_graph(self):
        monitor = pickle.loads(self.BLOB.read_bytes())
        fresh = BoundedSampleReverseDetector(seed=3).detect(
            monitor.graph.copy(), monitor.k
        )
        result = monitor.top_k()
        assert monitor.last_report.mode in ("initial", "full")
        assert result.same_answer(fresh)
        # The query layer realises the recomputed worlds, not the blob's.
        view = monitor.world_view()
        assert np.array_equal(
            view.defaulted()[:, monitor._sampling_candidates],
            monitor._world_outcomes,
        )


class TestWatermarkManifest:
    """A directory written when manifests carried per-tenant watermarks.

    ``data/durable_dir_watermarks`` was written by the code that still
    recorded, per tenant, its last event batch at or below ``wal_seq``:
    ``make_graph()`` and ``DEFAULTS``, tenant ``active`` (k=3) fed
    ``patch_stream(graph, 20, seed=1)`` five events per flush, tenant
    ``idle`` (k=4) registered after the first two flushes and never
    written to, a snapshot (``wal_seq`` 4, watermarks 3 and 0), two more
    flushes, then a crash.  Neither watermark leaves an event batch
    between itself and ``wal_seq``, so replaying past ``wal_seq``
    replays what the watermarks did.
    """

    DIRECTORY = Path(__file__).parent / "data" / "durable_dir_watermarks"

    @staticmethod
    def reference(graph, windows):
        """Answers and counters of a never-crashed run whose flush
        windows past the snapshot are *windows* (event slices)."""
        events = patch_stream(graph, 20, seed=1)
        reference = RiskService(graph, mode="serial", monitor_defaults=DEFAULTS)
        reference.register_tenant("active", 3)
        for start in (0, 5):
            reference.submit_updates("active", events[start:start + 5])
            reference.flush()
        reference.register_tenant("idle", 4)
        for start, stop in windows:
            reference.submit_updates("active", events[start:stop])
            reference.flush()
        answers = {t: reference.query_topk(t) for t in ("active", "idle")}
        stats = reference.snapshot().shards[0]["monitor_stats"]
        reference.close()
        return answers, stats

    def test_recovers_to_the_never_crashed_answers(self, graph, tmp_path):
        manifest = json.loads(
            (self.DIRECTORY / "snapshots" / "snap-00000001" / "manifest.json")
            .read_text("utf-8")
        )
        assert [row["watermark"] for row in manifest["tenants"]] == [3, 0]
        expected, _ = self.reference(graph, [(10, 15), (15, 20)])
        # Replay folds the two logged batches into one refresh.
        _, stats = self.reference(graph, [(10, 20)])

        directory = tmp_path / "durable"
        shutil.copytree(self.DIRECTORY, directory)
        recovered = RiskService(
            graph, mode="serial", wal_dir=directory, monitor_defaults=DEFAULTS
        )
        try:
            assert recovered.tenants() == ["active", "idle"]
            for tenant_id, answer in expected.items():
                assert recovered.query_topk(tenant_id).same_answer(answer)
            recovered_stats = recovered.snapshot().shards[0]["monitor_stats"]
            assert recovered_stats == stats
        finally:
            recovered.close()


class TestExtrasManifest:
    """Manifests once carried an ``extras`` block: the front end's cost
    model, as its ``state_dict`` wrote it.  Recovery ignores it."""

    EXTRAS = {
        "ewma_cost_model": {
            "alpha": 0.3,
            "base_seconds": 0.31,
            "per_world_seconds": None,
            "expected_worlds": {"t1": 0.0, "t2": 0.0},
        }
    }

    def test_recovers_to_the_never_crashed_answers(
        self, graph, events, tmp_path
    ):
        tenants = {"t1": 3, "t2": 5}
        service = RiskService(
            graph, mode="serial", wal_dir=tmp_path, monitor_defaults=DEFAULTS
        )
        for tenant_id, k in tenants.items():
            service.register_tenant(tenant_id, k)
        drive(service, list(tenants), events, snapshot_at=14)
        abandon(service)
        path = SnapshotStore(tmp_path).latest().path / "manifest.json"
        manifest = json.loads(path.read_text("utf-8"))
        manifest["extras"] = self.EXTRAS
        path.write_text(json.dumps(manifest, indent=1), encoding="utf-8")

        baseline = reference_answers(graph, events, tenants)
        replayed = one_window_stats(graph, events, tenants, snapshot_at=14)
        recovered = RiskService(
            graph, mode="serial", wal_dir=tmp_path, monitor_defaults=DEFAULTS
        )
        try:
            for tenant_id in tenants:
                assert recovered.query_topk(tenant_id).same_answer(
                    baseline[tenant_id]
                )
            stats = recovered.snapshot().shards[0]["monitor_stats"]
            assert stats == replayed
            published = recovered.snapshot_to_disk()
            rewritten = json.loads(
                (published.path / "manifest.json").read_text("utf-8")
            )
            assert "extras" not in rewritten
        finally:
            recovered.close()


class DurableServiceMachine(RuleBasedStateMachine):
    """One serial durable service against an in-memory reference.

    Both services see the same registrations, events and flushes; the
    durable one also snapshots, crashes and recovers.  Some tenants are
    registered idle and never receive an event.
    """

    graph = make_graph()

    def __init__(self):
        super().__init__()
        self.directory = Path(tempfile.mkdtemp(prefix="durable-machine-"))
        self.service = self.open_service()
        self.reference = RiskService(
            self.graph, mode="serial", monitor_defaults=DEFAULTS
        )
        self.tenants = []
        self.writable = []

    def open_service(self):
        return RiskService(
            self.graph, mode="serial", wal_dir=self.directory,
            monitor_defaults=DEFAULTS, snapshot_on_close=False,
        )

    @precondition(lambda self: len(self.tenants) < 4)
    @rule(k=st.integers(2, 4), idle=st.booleans())
    def register(self, k, idle):
        tenant_id = f"t{len(self.tenants)}"
        self.service.register_tenant(tenant_id, k)
        self.reference.register_tenant(tenant_id, k)
        self.tenants.append(tenant_id)
        if not idle:
            self.writable.append(tenant_id)

    @precondition(lambda self: self.writable)
    @rule(
        data=st.data(),
        node=st.integers(0, 23),  # make_graph()'s nodes
        value=st.floats(0.0, 1.0),
    )
    def submit(self, data, node, value):
        tenant_id = data.draw(st.sampled_from(self.writable))
        event = SelfRiskUpdate(node, value)
        self.service.submit_update(tenant_id, event)
        self.reference.submit_update(tenant_id, event)

    @rule()
    def flush(self):
        self.service.flush()
        self.reference.flush()

    @rule()
    def snapshot(self):
        self.service.snapshot_to_disk()
        assert len(wal_segments(self.directory)) == 1

    @precondition(lambda self: self.service.queue.pending() == 0)
    @rule()
    def crash_and_recover(self):
        abandon(self.service)
        self.service = self.open_service()
        assert self.service.tenants() == self.tenants

    @invariant()
    def answers_match_the_reference(self):
        for tenant_id in self.tenants:
            answer = self.service.query_topk(tenant_id, flush=False)
            assert answer.same_answer(
                self.reference.query_topk(tenant_id, flush=False)
            )

    def teardown(self):
        self.service.close()
        self.reference.close()
        shutil.rmtree(self.directory, ignore_errors=True)


TestDurableServiceMachine = DurableServiceMachine.TestCase
