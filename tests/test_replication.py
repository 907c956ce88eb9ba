"""Replication layer units: shipping, fencing, failover.

The chaos matrix (``test_replication_chaos.py``) proves the end-to-end
zero-loss claims under SIGKILL; this file pins the mechanisms those
runs compose — cursor arithmetic, mirror byte-identity, epoch claims,
corruption rewind and promotion — each in isolation,
deterministically.
"""

from __future__ import annotations

import json
import random
import shutil
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from types import SimpleNamespace

import pytest

from repro.core.errors import FencedError, ReplicationError
from repro.core.graph import UncertainGraph
from repro.persistence.faults import count_durable_batches
from repro.persistence.wal import WriteAheadLog
from repro.replication import (
    EpochRecord,
    EpochStore,
    FailoverCoordinator,
    LocalSource,
    ReplicaService,
    ReplicationHub,
    WalShipper,
)
from repro.replication.epoch import SLOT_BYTES
from repro.serving.pool import ServingPool
from repro.serving.service import PromotionState, RiskService
from repro.streaming.events import SelfRiskUpdate

DEFAULTS = {"seed": 42, "epsilon": 0.5}


def make_graph(n=14, seed=7, density=0.2):
    rng = random.Random(seed)
    graph = UncertainGraph()
    for i in range(n):
        graph.add_node(i, rng.uniform(0.05, 0.6))
    for src in range(n):
        for dst in range(n):
            if src != dst and rng.random() < density:
                graph.add_edge(src, dst, rng.uniform(0.1, 0.9))
    return graph


def make_primary(tmp_path, *, name="primary", store=None, subdir="p"):
    return RiskService(
        make_graph(),
        mode="serial",
        wal_dir=tmp_path / subdir,
        fsync="always",
        monitor_defaults=DEFAULTS,
        epoch_store=store,
        node_id=name,
    )


def make_replica(tmp_path, *, name="r1", subdir=None):
    return ReplicaService(
        make_graph(),
        tmp_path / (subdir or name),
        node_id=name,
        mode="serial",
        monitor_defaults=DEFAULTS,
    )


def drive(primary, tenant, count, *, seed=3, start=0):
    rng = random.Random(seed + start)
    for _ in range(count):
        primary.submit_and_sync(
            tenant,
            SelfRiskUpdate(rng.randrange(14), rng.uniform(0.0, 1.0)),
        )


def wal_segments(directory):
    """Indices of the segment files in *directory*, oldest first."""
    return sorted(int(path.stem[4:]) for path in directory.glob("wal-*.log"))


def mirror_bytes_match(primary_dir, mirror_dir):
    """Every primary segment exists on the mirror with identical bytes."""
    for path in sorted(primary_dir.glob("wal-*.log")):
        twin = mirror_dir / path.name
        assert twin.exists(), f"mirror is missing {path.name}"
        assert twin.read_bytes() == path.read_bytes(), (
            f"mirror bytes diverge in {path.name}"
        )


# ----------------------------------------------------------------------
# Epoch store
# ----------------------------------------------------------------------
class TestEpochStore:
    def test_missing_register_is_epoch_zero(self, tmp_path):
        store = EpochStore(tmp_path / "epoch.json")
        record = store.current()
        assert record.epoch == 0
        assert record.owner is None

    def test_claims_are_monotonic_and_owned(self, tmp_path):
        store = EpochStore(tmp_path / "epoch.json")
        assert store.claim("a") == 1
        assert store.claim("b") == 2
        record = store.current()
        assert record.epoch == 2
        assert record.owner == "b"

    def test_concurrent_claims_never_collide(self, tmp_path):
        store = EpochStore(tmp_path / "epoch.json")
        claimed: list[int] = []
        lock = threading.Lock()

        def worker(node):
            for _ in range(5):
                epoch = store.claim(node)
                with lock:
                    claimed.append(epoch)

        threads = [
            threading.Thread(target=worker, args=(f"n{i}",))
            for i in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(claimed) == list(range(1, 31))

    def test_unreadable_register_raises(self, tmp_path):
        path = tmp_path / "epoch.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ReplicationError, match="unreadable"):
            EpochStore(path).current()

    def test_a_torn_newer_slot_reads_as_the_older_epoch(self, tmp_path):
        path = tmp_path / "epoch.json"
        store = EpochStore(path)
        store.claim("a")
        store.claim("b")
        before = path.read_bytes()
        # What claiming epoch 3 writes into slot 1, over epoch 1.
        shutil.copy(path, tmp_path / "ahead.json")
        EpochStore(tmp_path / "ahead.json").claim("c")
        ahead = (tmp_path / "ahead.json").read_bytes()
        # Torn after the new epoch number: the slot still parses, as
        # epoch 3 owned by "a", but epoch 1's checksum refutes it.
        cut = ahead.index(b",", SLOT_BYTES)
        path.write_bytes(ahead[:cut] + before[cut:])
        assert json.loads(path.read_bytes()[SLOT_BYTES:])["epoch"] == 3
        assert store.current() == EpochRecord(epoch=2, owner="b")
        assert store.claim("d") == 3
        assert store.current() == EpochRecord(epoch=3, owner="d")
        after = path.read_bytes()
        assert after[:SLOT_BYTES] == before[:SLOT_BYTES]
        assert len(after) == 2 * SLOT_BYTES

    def test_a_legacy_register_reads_and_converts(self, tmp_path):
        path = tmp_path / "epoch.json"
        path.write_text(
            json.dumps({"epoch": 7, "owner": "old"}), encoding="utf-8"
        )
        store = EpochStore(path)
        assert store.current() == EpochRecord(epoch=7, owner="old")
        assert store.claim("new") == 8
        # The first claim rewrote the file in the two-slot layout.
        assert len(path.read_bytes()) == 2 * SLOT_BYTES
        assert store.current() == EpochRecord(epoch=8, owner="new")
        assert store.claim("next") == 9
        assert store.current() == EpochRecord(epoch=9, owner="next")


# ----------------------------------------------------------------------
# WAL cursor reads (the hub's raw material)
# ----------------------------------------------------------------------
class TestWalCursorReads:
    def test_read_from_round_trips_segment_bytes(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", fsync="flush")
        wal.append_register("t", 3, {})
        wal.append_events("t", [SelfRiskUpdate(1, 0.5)])
        raw = wal.active_segment.read_bytes()
        chunk = wal.read_from(1, 0)
        assert chunk.data == raw
        assert not chunk.exhausted  # active segment: more may come
        # Resuming from the returned cursor yields nothing new.
        again = wal.read_from(1, len(raw))
        assert again.data == b""
        wal.close()

    def test_sealed_segment_reports_exhausted(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", fsync="flush")
        wal.append_events("t", [SelfRiskUpdate(1, 0.5)])
        wal.rotate()
        chunk = wal.read_from(1, 0)
        assert chunk.exhausted
        # The cursor steps to the next segment at offset zero.
        nxt = wal.read_from(2, 0)
        assert not nxt.exhausted
        assert nxt.data  # magic header of the fresh active segment
        wal.close()

    def test_reading_ahead_of_active_is_an_empty_poll(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", fsync="flush")
        chunk = wal.read_from(5, 0)
        assert chunk.data == b""
        assert not chunk.exhausted and not chunk.gone
        wal.close()

    def test_truncated_segment_reports_gone(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", fsync="flush")
        wal.append_events("t", [SelfRiskUpdate(1, 0.5)])
        wal.rotate()
        assert wal.truncate_upto(10) == 1
        chunk = wal.read_from(1, 0)
        assert chunk.gone
        assert chunk.oldest_segment == 2
        wal.close()

    def test_retain_floor_blocks_truncation(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", fsync="flush")
        wal.append_events("t", [SelfRiskUpdate(1, 0.5)])  # seq 1
        wal.rotate()
        wal.set_retain_seq(0)  # a replica acked nothing yet
        assert wal.truncate_upto(10) == 0
        wal.set_retain_seq(1)  # replica caught up through seq 1
        assert wal.truncate_upto(10) == 1
        wal.close()


# ----------------------------------------------------------------------
# Shipping: mirrors, restarts, bootstrap, fencing
# ----------------------------------------------------------------------
class TestWalShipping:
    def test_catch_up_is_bit_identical_and_byte_identical(self, tmp_path):
        primary = make_primary(tmp_path)
        primary.register_tenant("t1", 5)
        hub = ReplicationHub(primary)
        replica = make_replica(tmp_path)
        shipper = WalShipper(LocalSource(hub), replica)
        drive(primary, "t1", 12)
        shipper.catch_up()
        assert replica.lag == 0
        assert replica.applied_seq == primary.durable_seq
        assert primary.query_topk("t1").same_answer(
            replica.query_topk("t1")
        )
        mirror_bytes_match(tmp_path / "p", tmp_path / "r1")
        assert hub.acked()["r1"] == primary.durable_seq
        primary.close()
        replica.close()

    def test_a_legacy_rejected_batch_replays_as_a_no_op(self, tmp_path):
        primary = make_primary(tmp_path)
        primary.register_tenant("t1", 5)
        hub = ReplicationHub(primary)
        replica = make_replica(tmp_path)
        shipper = WalShipper(LocalSource(hub), replica)
        drive(primary, "t1", 4)
        # What a flush logged before submits were validated: a batch the
        # primary's monitor refused whole, valid event and all.
        primary.wal.append_events(
            "t1", [SelfRiskUpdate(0, 0.9), SelfRiskUpdate(1, 1.7)]
        )
        primary.wal.sync()
        drive(primary, "t1", 4, start=1)
        shipper.catch_up()
        assert replica.applied_seq == primary.durable_seq
        expected = primary.query_topk("t1")
        assert replica.query_topk("t1").same_answer(expected)
        replica.close()
        # Local recovery replays the mirrored batch the same way.
        reopened = make_replica(tmp_path)
        assert reopened.query_topk("t1").same_answer(expected)
        reopened.close()
        primary.close()

    def test_live_tail_follows_new_writes(self, tmp_path):
        primary = make_primary(tmp_path)
        primary.register_tenant("t1", 5)
        hub = ReplicationHub(primary)
        replica = make_replica(tmp_path)
        shipper = WalShipper(LocalSource(hub), replica)
        drive(primary, "t1", 4)
        shipper.catch_up()
        before = replica.applied_seq
        drive(primary, "t1", 4, start=1)
        shipper.catch_up()
        assert replica.applied_seq > before
        assert primary.query_topk("t1").same_answer(
            replica.query_topk("t1")
        )
        primary.close()
        replica.close()

    def test_shipping_follows_segment_rotation(self, tmp_path):
        primary = make_primary(tmp_path)
        primary.register_tenant("t1", 5)
        hub = ReplicationHub(primary)
        replica = make_replica(tmp_path)
        shipper = WalShipper(LocalSource(hub), replica)
        drive(primary, "t1", 5)
        shipper.catch_up()
        # Snapshot rotates the WAL; the retain floor (replica acked
        # everything) lets truncation proceed on the primary, but the
        # replica has already mirrored those bytes.
        primary.snapshot_to_disk()
        drive(primary, "t1", 5, start=2)
        shipper.catch_up()
        assert replica.stats["segments_opened"] >= 1
        assert primary.query_topk("t1").same_answer(
            replica.query_topk("t1")
        )
        primary.close()
        replica.close()

    def test_replica_restart_resumes_from_durable_cursor(self, tmp_path):
        primary = make_primary(tmp_path)
        primary.register_tenant("t1", 5)
        hub = ReplicationHub(primary)
        replica = make_replica(tmp_path)
        shipper = WalShipper(LocalSource(hub), replica)
        drive(primary, "t1", 6)
        shipper.catch_up()
        cursor = replica.durable_cursor
        replica.close()
        drive(primary, "t1", 6, start=5)
        # A new process on the same mirror dir: local recovery rebuilds
        # the pool from the mirrored WAL, then shipping resumes from
        # the durable cursor — no re-shipping of verified bytes.
        restarted = make_replica(tmp_path)
        assert restarted.durable_cursor == cursor
        resumed = WalShipper(LocalSource(hub), restarted)
        resumed.catch_up()
        assert primary.query_topk("t1").same_answer(
            restarted.query_topk("t1")
        )
        mirror_bytes_match(tmp_path / "p", tmp_path / "r1")
        primary.close()
        restarted.close()

    def test_cold_bootstrap_after_primary_truncation(self, tmp_path):
        primary = make_primary(tmp_path)
        primary.register_tenant("t1", 5)
        drive(primary, "t1", 8)
        # Snapshot + truncate: segment 1 is gone; a cold replica can
        # only reach a complete state via the snapshot files.
        primary.snapshot_to_disk()
        drive(primary, "t1", 3, start=4)
        hub = ReplicationHub(primary)
        replica = make_replica(tmp_path)
        shipper = WalShipper(LocalSource(hub), replica)
        shipper.catch_up()
        assert not replica.is_cold
        assert primary.query_topk("t1").same_answer(
            replica.query_topk("t1")
        )
        primary.close()
        replica.close()

    def test_bootstrapped_replica_reports_the_primary_epoch(self, tmp_path):
        """The snapshot covers the primary's epoch stamp and truncation
        deletes it, so the replica reads the epoch from the bootstrap."""
        store = EpochStore(tmp_path / "epoch.json")
        primary = make_primary(tmp_path, store=store)  # claims epoch 1
        primary.register_tenant("t1", 5)
        primary.register_tenant("idle", 3)
        drive(primary, "t1", 4)
        primary.snapshot_to_disk()
        assert wal_segments(tmp_path / "p") == [2]
        replica = make_replica(tmp_path)
        shipper = WalShipper(LocalSource(ReplicationHub(primary)), replica)
        drive(primary, "t1", 2, start=4)
        shipper.catch_up()
        try:
            assert primary.epoch == 1
            assert replica.epoch == primary.epoch
            for tenant_id in ("t1", "idle"):
                assert primary.query_topk(tenant_id).same_answer(
                    replica.query_topk(tenant_id)
                )
        finally:
            primary.close()
            replica.close()

    def test_restarted_replica_keeps_the_primary_epoch(self, tmp_path):
        """The manifest records the epoch whose stamp its snapshot
        covers, so a replica reopened on its mirror still reports it."""
        store = EpochStore(tmp_path / "epoch.json")
        primary = make_primary(tmp_path, store=store)  # claims epoch 1
        primary.register_tenant("t1", 5)
        drive(primary, "t1", 4)
        primary.snapshot_to_disk()
        replica = make_replica(tmp_path)
        WalShipper(LocalSource(ReplicationHub(primary)), replica).catch_up()
        assert replica.epoch == primary.epoch == 1
        replica.close()
        reopened = make_replica(tmp_path)
        try:
            assert reopened.epoch == primary.epoch
            assert reopened.applied_seq == primary.durable_seq
            assert primary.query_topk("t1").same_answer(
                reopened.query_topk("t1")
            )
        finally:
            primary.close()
            reopened.close()

    def test_bootstrap_applies_through_the_snapshot_wal_seq(self, tmp_path):
        """A snapshot whose last covered records are registrations still
        counts them applied: applied_seq starts at its wal_seq."""
        primary = make_primary(tmp_path)
        primary.register_tenant("t1", 5)
        drive(primary, "t1", 3)
        primary.register_tenant("t2", 4)
        primary.register_tenant("t3", 4)
        snapshot = primary.snapshot_to_disk()
        assert snapshot.wal_seq == primary.durable_seq == 6
        hub = ReplicationHub(primary)
        replica = make_replica(tmp_path)
        assert replica.is_cold
        replica.bootstrap(hub.bootstrap("r1"))
        try:
            assert not replica.is_cold
            assert replica.applied_seq == snapshot.wal_seq
            drive(primary, "t2", 2)
            WalShipper(LocalSource(hub), replica).catch_up()
            assert replica.applied_seq == primary.durable_seq
            for tenant_id in ("t1", "t2", "t3"):
                assert primary.query_topk(tenant_id).same_answer(
                    replica.query_topk(tenant_id)
                )
        finally:
            primary.close()
            replica.close()

    def test_replica_follows_a_gracefully_restarted_primary(self, tmp_path):
        """The primary's close-time snapshot truncates every record the
        replica acked; the restarted primary's batches still come after
        them."""
        primary = make_primary(tmp_path)
        primary.register_tenant("t1", 5)
        replica = make_replica(tmp_path)
        drive(primary, "t1", 5)
        WalShipper(LocalSource(ReplicationHub(primary)), replica).catch_up()
        assert replica.applied_seq == primary.durable_seq
        primary.close()
        restarted = make_primary(tmp_path)
        try:
            drive(restarted, "t1", 3, start=5)
            WalShipper(
                LocalSource(ReplicationHub(restarted)), replica
            ).catch_up()
            assert replica.applied_seq == restarted.durable_seq
            assert restarted.query_topk("t1").same_answer(
                replica.query_topk("t1")
            )
        finally:
            restarted.close()
            replica.close()

    def test_fenced_replica_rejects_old_epoch_stream(self, tmp_path):
        store = EpochStore(tmp_path / "epoch.json")
        primary = make_primary(tmp_path, store=store)  # claims epoch 1
        primary.register_tenant("t1", 5)
        hub = ReplicationHub(primary)
        replica = make_replica(tmp_path)
        shipper = WalShipper(LocalSource(hub), replica)
        drive(primary, "t1", 3)
        shipper.catch_up()
        applied = replica.applied_seq
        cursor = replica.durable_cursor
        # A promotion elsewhere fences this replica above the deposed
        # primary's epoch; its stream must now be rejected wholesale.
        replica.fence_below(2)
        drive(primary, "t1", 2, start=9)
        with pytest.raises(FencedError):
            shipper.catch_up()
        assert replica.applied_seq == applied
        assert replica.durable_cursor == cursor  # nothing persisted
        primary.close()
        replica.close()


# ----------------------------------------------------------------------
# Satellite 4: bit damage in a shipped chunk
# ----------------------------------------------------------------------
class CorruptingSource:
    """Wraps a source; flips one bit in the Nth non-empty fetch."""

    def __init__(self, inner, *, corrupt_fetch=2):
        self._inner = inner
        self._corrupt_fetch = corrupt_fetch
        self._nonempty = 0
        self.corrupted = 0

    def fetch(self, replica_id, segment, offset, **kwargs):
        result = self._inner.fetch(replica_id, segment, offset, **kwargs)
        chunk = result.chunk
        if chunk.data:
            self._nonempty += 1
            if self._nonempty == self._corrupt_fetch:
                damaged = bytearray(chunk.data)
                damaged[len(damaged) // 2] ^= 0x10
                self.corrupted += 1
                import dataclasses

                return dataclasses.replace(
                    result,
                    chunk=dataclasses.replace(chunk, data=bytes(damaged)),
                )
        return result

    def bootstrap(self, replica_id):
        return self._inner.bootstrap(replica_id)


class TestShippedCorruption:
    def test_bit_flip_detected_rewound_and_recovered(self, tmp_path):
        primary = make_primary(tmp_path)
        primary.register_tenant("t1", 5)
        hub = ReplicationHub(primary)
        replica = make_replica(tmp_path)
        source = CorruptingSource(LocalSource(hub), corrupt_fetch=2)
        # Small fetches so the damaged chunk is mid-stream, with clean
        # records before and after it.
        shipper = WalShipper(source, replica, max_bytes=96)
        drive(primary, "t1", 10)
        shipper.catch_up()
        assert source.corrupted == 1
        assert shipper.stats["corruption_retries"] == 1
        assert replica.stats["corrupt_chunks"] == 1
        # Catch-up completed bit-identically despite the damage.
        assert replica.lag == 0
        assert primary.query_topk("t1").same_answer(
            replica.query_topk("t1")
        )
        mirror_bytes_match(tmp_path / "p", tmp_path / "r1")
        primary.close()
        replica.close()


# ----------------------------------------------------------------------
# Failover choice
# ----------------------------------------------------------------------
class TestFailoverChoice:
    @staticmethod
    def fake(applied, cursor):
        return SimpleNamespace(applied_seq=applied, durable_cursor=cursor)

    def test_most_caught_up_wins(self):
        replicas = {
            "a": self.fake(5, (1, 100)),
            "b": self.fake(9, (1, 200)),
            "c": self.fake(7, (1, 150)),
        }
        assert FailoverCoordinator.choose(replicas) == "b"

    def test_cursor_breaks_applied_ties(self):
        replicas = {
            "a": self.fake(9, (2, 50)),
            "b": self.fake(9, (1, 900)),
        }
        assert FailoverCoordinator.choose(replicas) == "a"

    def test_full_tie_prefers_smallest_id(self):
        replicas = {
            "r2": self.fake(9, (1, 100)),
            "r1": self.fake(9, (1, 100)),
            "r10": self.fake(9, (1, 100)),
        }
        assert FailoverCoordinator.choose(replicas) == "r1"

    def test_no_candidates_raises(self):
        with pytest.raises(ReplicationError):
            FailoverCoordinator.choose({})


# ----------------------------------------------------------------------
# In-process promotion end to end
# ----------------------------------------------------------------------
class TestPromotion:
    def test_promote_fences_deposed_primary_and_keeps_answers(
        self, tmp_path
    ):
        store = EpochStore(tmp_path / "epoch.json")
        primary = make_primary(tmp_path, name="p1", store=store)
        primary.register_tenant("t1", 5)
        hub = ReplicationHub(primary)
        replica = make_replica(tmp_path)
        shipper = WalShipper(LocalSource(hub), replica)
        drive(primary, "t1", 8)
        shipper.catch_up()
        reference = primary.query_topk("t1")

        coordinator = FailoverCoordinator(store)
        winner, promoted = coordinator.promote(
            {"r1": replica}, fsync="always"
        )
        try:
            assert winner == "r1"
            assert promoted.epoch == 2
            assert reference.same_answer(promoted.query_topk("t1"))
            # The deposed primary's late append is provably dead.
            with pytest.raises(FencedError):
                primary.submit_and_sync(
                    "t1", SelfRiskUpdate(0, 0.123)
                )
            # The promoted node accepts writes immediately.
            assert promoted.submit_and_sync(
                "t1", SelfRiskUpdate(0, 0.9)
            ) > 0
            event = coordinator.events[-1]
            assert event.winner == "r1" and event.epoch == 2
        finally:
            promoted.close()
            primary.close()

    def test_adoption_replays_the_durable_tail(self, tmp_path):
        """A pool fed only through seq ``s`` takes the rest from the WAL:
        the tail's events for a known tenant, and a tenant registered
        after ``s`` together with its batches."""
        primary = RiskService(
            make_graph(), mode="serial", wal_dir=tmp_path / "p",
            fsync="always", monitor_defaults=DEFAULTS,
            snapshot_on_close=False,
        )
        primary.register_tenant("t1", 5)
        drive(primary, "t1", 4)
        primary.register_tenant("t2", 4)
        drive(primary, "t2", 4, start=10)
        drive(primary, "t1", 2, start=20)
        answers = {t: primary.query_topk(t) for t in ("t1", "t2")}
        primary.close()

        with WriteAheadLog(tmp_path / "p") as wal:
            batches = wal.read_batches()
        upto = batches[3].seq  # registration + t1's first three batches
        pool = ServingPool(
            make_graph(), mode="serial", monitor_defaults=DEFAULTS
        )
        registered = {}
        for batch in batches:
            if batch.seq > upto:
                break
            if batch.kind == "register":
                k, kwargs = batch.register["k"], batch.register["kwargs"]
                registered[batch.tenant_id] = (k, kwargs)
                pool.register(batch.tenant_id, k, **kwargs)
            elif batch.kind == "events":
                pool.apply(batch.tenant_id, list(batch.events)).result()
        assert registered.keys() == {"t1"} and not pool.has_tenant("t2")

        adopted = RiskService(
            make_graph(), mode="serial", wal_dir=tmp_path / "p",
            fsync="always", monitor_defaults=DEFAULTS,
            adopt=PromotionState(
                pool=pool, registered=registered, applied_upto=upto
            ),
        )
        try:
            for tenant_id, answer in answers.items():
                assert answer.same_answer(adopted.query_topk(tenant_id))
        finally:
            adopted.close()

    def test_promoted_mirror_restarts_as_plain_durable_service(
        self, tmp_path
    ):
        store = EpochStore(tmp_path / "epoch.json")
        primary = make_primary(tmp_path, name="p1", store=store)
        primary.register_tenant("t1", 5)
        hub = ReplicationHub(primary)
        replica = make_replica(tmp_path)
        WalShipper(LocalSource(hub), replica).catch_up()
        drive(primary, "t1", 6)
        WalShipper(LocalSource(hub), replica).catch_up()
        _, promoted = FailoverCoordinator(store).promote(
            {"r1": replica}, fsync="always"
        )
        promoted.submit_and_sync("t1", SelfRiskUpdate(1, 0.42))
        expected = promoted.query_topk("t1")
        promoted.close()
        primary.close()
        # The promoted lineage's WAL dir is a normal durable service
        # dir: a cold restart recovers the same answers.
        restarted = RiskService(
            make_graph(), mode="serial", wal_dir=tmp_path / "r1",
            fsync="always", monitor_defaults=DEFAULTS,
        )
        try:
            assert expected.same_answer(restarted.query_topk("t1"))
        finally:
            restarted.close()

    def test_promoted_bootstrapped_replica_keeps_its_writes(self, tmp_path):
        """A replica bootstrapped from a snapshot holds no record at or
        below its wal_seq; once promoted, its epoch stamp and writes
        must still be numbered past it, or recovery skips them."""
        store = EpochStore(tmp_path / "epoch.json")
        primary = make_primary(tmp_path, name="p1", store=store)
        primary.register_tenant("t1", 5)
        drive(primary, "t1", 6)
        snapshot = primary.snapshot_to_disk()
        replica = make_replica(tmp_path)
        WalShipper(LocalSource(ReplicationHub(primary)), replica).catch_up()
        assert replica.applied_seq == snapshot.wal_seq
        _, promoted = FailoverCoordinator(store).promote(
            {"r1": replica}, fsync="always"
        )
        seqs = [
            promoted.submit_and_sync("t1", SelfRiskUpdate(node, 0.9))
            for node in range(3)
        ]
        assert min(seqs) > snapshot.wal_seq
        expected = promoted.query_topk("t1")
        promoted.wal.close()  # crash: no final flush or snapshot
        promoted.pool.shutdown()
        primary.close()
        recovered = RiskService(
            make_graph(), mode="serial", wal_dir=tmp_path / "r1",
            fsync="always", monitor_defaults=DEFAULTS,
        )
        try:
            assert expected.same_answer(recovered.query_topk("t1"))
        finally:
            recovered.close()

    def test_promoted_tenants_rejoin_the_result_cache(self, tmp_path):
        primary = make_primary(tmp_path)
        primary.register_tenant("t1", 5)
        replica = make_replica(tmp_path)
        drive(primary, "t1", 4)
        WalShipper(LocalSource(ReplicationHub(primary)), replica).catch_up()
        promoted = replica.promote(fsync="always")
        try:
            first = promoted.query_topk("t1")
            assert promoted.query_topk("t1") is first
            assert promoted.cache_stats == {"hits": 1, "misses": 1}
        finally:
            promoted.close()
            primary.close()

    def test_promotion_waits_for_an_in_flight_ingest(self, tmp_path):
        """A promotion that lands while the shipper has mirrored a
        record but not yet applied it must not apply the record twice."""
        primary = make_primary(tmp_path)
        primary.register_tenant("t1", 5)
        replica = make_replica(tmp_path)
        shipper = WalShipper(LocalSource(ReplicationHub(primary)), replica)
        drive(primary, "t1", 4)
        shipper.catch_up()
        drive(primary, "t1", 1, start=4)

        parked, release = threading.Event(), threading.Event()
        replay = replica._replay

        def parked_replay(batch):
            # Runs after the record reached the mirror, before its apply.
            parked.set()
            assert release.wait(30)
            replay(batch)

        replica._replay = parked_replay
        with ThreadPoolExecutor(max_workers=2) as threads:
            shipping = threads.submit(shipper.step)
            assert parked.wait(30)
            promotion = threads.submit(replica.promote, fsync="always")
            # Unserialised, the promotion finishes here, before the apply.
            wait([promotion], timeout=1.0)
            release.set()
            shipping.result(timeout=30)
            service = promotion.result(timeout=30)
        try:
            stats = service.snapshot().shards[0]["monitor_stats"]
            assert stats["t1"]["refreshes"] == count_durable_batches(
                tmp_path / "p"
            )
            assert primary.query_topk("t1").same_answer(
                service.query_topk("t1")
            )
        finally:
            service.close()
            primary.close()

    def test_replica_of_a_bootstrapped_promoted_node_catches_up(
        self, tmp_path
    ):
        """A cold replica bootstraps from the primary's oldest live
        segment, not segment 1; once promoted, its WAL must truncate
        like any primary's and serve a cold replica of its own."""
        primary = make_primary(tmp_path)
        primary.register_tenant("t1", 5)
        for start in range(3):
            drive(primary, "t1", 2, start=2 * start)
            primary.snapshot_to_disk()
        assert wal_segments(tmp_path / "p") == [4]
        replica = make_replica(tmp_path)
        WalShipper(LocalSource(ReplicationHub(primary)), replica).catch_up()
        promoted = replica.promote(fsync="always")
        second = make_replica(tmp_path, name="r2")
        try:
            for start in range(3):
                drive(promoted, "t1", 2, start=10 + 2 * start)
                promoted.snapshot_to_disk()
            assert len(wal_segments(tmp_path / "r1")) == 1
            WalShipper(LocalSource(ReplicationHub(promoted)), second).catch_up()
            assert promoted.query_topk("t1").same_answer(
                second.query_topk("t1")
            )
        finally:
            second.close()
            promoted.close()
            primary.close()
