"""Crash tests: SIGKILL mid-stream, dead shard workers, CLI shutdown.

The central claim of the durability layer, pinned here end to end: a
process SIGKILLed at an *arbitrary* point of its update stream recovers
from snapshot + WAL replay to the bit-identical answers an
uninterrupted run reaches.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from repro.core.graph import UncertainGraph
from repro.datasets.registry import load_dataset
from repro.persistence.faults import (
    CrashHarness,
    count_durable_batches,
    stream_durably,
)
from repro.persistence.snapshots import SnapshotStore
from repro.persistence.wal import scan_batches
from repro.serving.service import RiskService
from repro.streaming.events import SelfRiskUpdate

DEFAULTS = {"seed": 42, "epsilon": 0.5}
pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="crash harness needs the fork start method",
)


def make_graph(n=20, seed=7, density=0.15):
    rng = np.random.default_rng(seed)
    graph = UncertainGraph()
    for i in range(n):
        graph.add_node(i, float(rng.uniform(0.05, 0.6)))
    for src in range(n):
        for dst in range(n):
            if src != dst and rng.random() < density:
                graph.add_edge(src, dst, float(rng.uniform(0.1, 0.9)))
    return graph


def make_workload(graph, tenants, rounds, events_per_batch=2, seed=3):
    rng = np.random.default_rng(seed)
    return {
        tenant_id: [
            [
                SelfRiskUpdate(
                    int(rng.integers(0, graph.num_nodes)),
                    float(rng.uniform(0, 1)),
                )
                for _ in range(events_per_batch)
            ]
            for _ in range(rounds)
        ]
        for tenant_id in tenants
    }


def durable_batches(wal_dir, tenant_id):
    """Event batches *tenant_id* made durable under *wal_dir*.

    The newest snapshot's monitor counts the batches it folds in: the
    killed run that wrote it never recovered, so each of its batches was
    one refresh.  The log adds the tenant's event batches past the
    snapshot's ``wal_seq``.
    """
    snapshot = SnapshotStore(wal_dir).latest()
    floor = done = 0
    if snapshot is not None:
        floor = snapshot.wal_seq
        blob = snapshot.tenants[tenant_id].load_state_blob()
        done = pickle.loads(blob).stats["refreshes"]
    return done + sum(
        batch.kind == "events"
        and batch.tenant_id == tenant_id
        and batch.seq > floor
        for batch in scan_batches(wal_dir)
    )


def resume_and_answer(graph, workload, k, wal_dir):
    """Recover a killed run, finish its remaining workload, answer.

    Each tenant's remaining workload is its batch-list suffix past the
    batches it made durable before the kill.
    """
    done = {
        tenant_id: durable_batches(wal_dir, tenant_id)
        for tenant_id in workload
    }
    service = RiskService(
        graph, mode="serial", wal_dir=wal_dir, monitor_defaults=DEFAULTS
    )
    try:
        assert set(service.tenants()) == set(workload)
        for tenant_id, batches in workload.items():
            assert done[tenant_id] <= len(batches)
            for batch in batches[done[tenant_id]:]:
                for event in batch:
                    service.submit_update(tenant_id, event)
                service.flush()
        return {
            tenant_id: service.query_topk(tenant_id)
            for tenant_id in workload
        }
    finally:
        service.close()


class TestSigkillRecovery:
    @pytest.mark.parametrize("kill_after_batches", [2, 5, 9])
    def test_recovered_run_is_bit_identical(self, tmp_path, kill_after_batches):
        graph = make_graph()
        workload = make_workload(graph, ["t1", "t2"], rounds=6)
        wal_dir = tmp_path / "wal"

        harness = CrashHarness(
            lambda: stream_durably(
                graph, workload, 3, wal_dir,
                monitor_defaults=DEFAULTS, pause=0.01,
            )
        ).start()
        killed = harness.kill_when(
            lambda: count_durable_batches(wal_dir) >= kill_after_batches
        )
        assert killed, "workload finished before the kill landed"
        durable = count_durable_batches(wal_dir)
        assert durable >= kill_after_batches

        recovered = resume_and_answer(graph, workload, 3, wal_dir)
        reference = stream_durably(
            graph, workload, 3, tmp_path / "reference",
            monitor_defaults=DEFAULTS,
        )
        for tenant_id in workload:
            assert recovered[tenant_id].same_answer(reference[tenant_id])

    def test_kill_between_snapshot_and_more_batches(self, tmp_path):
        graph = make_graph()
        workload = make_workload(graph, ["t1", "t2"], rounds=8)
        wal_dir = tmp_path / "wal"

        harness = CrashHarness(
            lambda: stream_durably(
                graph, workload, 3, wal_dir,
                monitor_defaults=DEFAULTS, pause=0.01, snapshot_every=2,
            )
        ).start()

        def snapshot_then_two_batches():
            # Each snapshot deletes the segments it covers, so count the
            # event batches past the newest one's wal_seq.
            snapshot = SnapshotStore(wal_dir).latest()
            return snapshot is not None and sum(
                batch.kind == "events" and batch.seq > snapshot.wal_seq
                for batch in scan_batches(wal_dir)
            ) >= 2

        killed = harness.kill_when(snapshot_then_two_batches)
        assert killed, "workload finished before the kill landed"

        recovered = resume_and_answer(graph, workload, 3, wal_dir)
        reference = stream_durably(
            graph, workload, 3, tmp_path / "reference",
            monitor_defaults=DEFAULTS,
        )
        for tenant_id in workload:
            assert recovered[tenant_id].same_answer(reference[tenant_id])


def never_crashed_answers(graph, events_before, events_after):
    """t1/t2 answers of a serial service fed both event lists, one flush
    each, that never loses a worker."""
    reference = RiskService(graph, mode="serial", monitor_defaults=DEFAULTS)
    try:
        reference.register_tenant("t1", 3)
        reference.register_tenant("t2", 4)
        for events in (events_before, events_after):
            for event in events:
                reference.submit_update("t1", event)
                reference.submit_update("t2", event)
            reference.flush()
        return {t: reference.query_topk(t) for t in ("t1", "t2")}
    finally:
        reference.close()


def submit_to_both(service, events):
    for event in events:
        service.submit_update("t1", event)
        service.submit_update("t2", event)


def recovered_answers(graph, wal_dir):
    """t1/t2 answers of a serial service recovering *wal_dir*."""
    recovered = RiskService(
        graph, mode="serial", wal_dir=wal_dir, monitor_defaults=DEFAULTS
    )
    try:
        return {t: recovered.query_topk(t) for t in ("t1", "t2")}
    finally:
        recovered.close()


class TestDeadShardWorker:
    def test_sigkilled_fork_worker_heals_bit_identically(self, tmp_path):
        graph = make_graph()
        events = [
            SelfRiskUpdate(int(i % graph.num_nodes), float((i % 7) / 7.0))
            for i in range(24)
        ]
        service = RiskService(
            graph, mode="fork", shards=2,
            wal_dir=tmp_path / "wal", monitor_defaults=DEFAULTS,
        )
        try:
            service.register_tenant("t1", 3)
            service.register_tenant("t2", 4)
            for event in events[:12]:
                service.submit_update("t1", event)
                service.submit_update("t2", event)
            service.flush()
            service.snapshot_to_disk()

            victim = service.pool.shard_index("t1")
            os.kill(service.pool.worker_pids()[victim], signal.SIGKILL)
            time.sleep(0.2)

            for event in events[12:]:
                service.submit_update("t1", event)
                service.submit_update("t2", event)
            service.flush()  # heals transparently: respawn + restore
            answers = {t: service.query_topk(t) for t in ("t1", "t2")}
            assert service.pool.shard_alive(victim)
        finally:
            service.close()

        reference = never_crashed_answers(graph, events[:12], events[12:])
        for tenant_id in ("t1", "t2"):
            assert answers[tenant_id].same_answer(reference[tenant_id])

    def test_shard_without_snapshot_heals_on_read(self, tmp_path):
        """With no snapshot on disk, the first read of a dead shard's
        tenant rebuilds it from its registration and replays the whole
        log."""
        graph = make_graph()
        events = [
            SelfRiskUpdate(int(i % graph.num_nodes), float((i % 5) / 5.0))
            for i in range(24)
        ]
        service = RiskService(
            graph, mode="fork", shards=2,
            wal_dir=tmp_path / "wal", monitor_defaults=DEFAULTS,
        )
        try:
            service.register_tenant("t1", 3)
            service.register_tenant("t2", 4)
            for event in events[:12]:
                service.submit_update("t1", event)
                service.submit_update("t2", event)
            service.flush()
            assert service.snapshot_store.latest() is None

            victim = service.pool.shard_index("t1")
            os.kill(service.pool.worker_pids()[victim], signal.SIGKILL)
            time.sleep(0.2)
            assert service.queue.pending() == 0
            service.query_topk("t1")  # only the read meets the dead worker
            assert service.pool.shard_alive(victim)

            for event in events[12:]:
                service.submit_update("t1", event)
                service.submit_update("t2", event)
            service.flush()
            answers = {t: service.query_topk(t) for t in ("t1", "t2")}
        finally:
            service.close()

        reference = never_crashed_answers(graph, events[:12], events[12:])
        for tenant_id in ("t1", "t2"):
            assert answers[tenant_id].same_answer(reference[tenant_id])

    def test_snapshot_heals_a_dead_shard(self, tmp_path):
        """snapshot_to_disk meets the dead worker first: it heals the
        shard and snapshots, and close() still takes its final one."""
        graph = make_graph()
        events = [SelfRiskUpdate(i % 20, (i % 3) / 3.0) for i in range(24)]
        wal_dir = tmp_path / "wal"
        service = RiskService(
            graph, mode="fork", shards=2,
            wal_dir=wal_dir, monitor_defaults=DEFAULTS,
        )
        try:
            service.register_tenant("t1", 3)
            service.register_tenant("t2", 4)
            submit_to_both(service, events[:12])
            service.flush()
            victim = service.pool.shard_index("t1")
            os.kill(service.pool.worker_pids()[victim], signal.SIGKILL)
            time.sleep(0.2)
            assert set(service.snapshot_to_disk().tenants) == {"t1", "t2"}
            assert service.pool.shard_alive(victim)
            submit_to_both(service, events[12:])
        finally:
            service.close()
        assert SnapshotStore(wal_dir).latest().index == 2

        answers = recovered_answers(graph, wal_dir)
        reference = never_crashed_answers(graph, events[:12], events[12:])
        for tenant_id in ("t1", "t2"):
            assert answers[tenant_id].same_answer(reference[tenant_id])

    def test_worker_dying_mid_dump_restarts_the_snapshot(self, tmp_path):
        """A dump whose worker dies is not a monitor blob: the shard is
        healed and every tenant dumped again."""
        graph = make_graph()
        events = [SelfRiskUpdate(i % 20, (i % 3) / 3.0) for i in range(24)]
        wal_dir = tmp_path / "wal"
        service = RiskService(
            graph, mode="serial", wal_dir=wal_dir, monitor_defaults=DEFAULTS
        )
        service.register_tenant("t1", 3)
        service.register_tenant("t2", 4)
        submit_to_both(service, events[:12])
        service.flush()
        dump, dumps = service.pool.dump_tenant, []

        def dump_once_broken(tenant_id):
            dumps.append(tenant_id)
            if len(dumps) > 1:
                return dump(tenant_id)
            broken = Future()
            broken.set_exception(BrokenProcessPool("worker died mid-dump"))
            return broken

        service.pool.dump_tenant = dump_once_broken
        service.snapshot_to_disk()
        assert dumps == ["t1", "t2", "t1", "t2"]
        submit_to_both(service, events[12:])
        service.flush()
        # Crash: recovery reads the retaken snapshot plus the suffix.
        service._wal.close()
        service._pool.shutdown()
        service._closed = True

        answers = recovered_answers(graph, wal_dir)
        reference = never_crashed_answers(graph, events[:12], events[12:])
        for tenant_id in ("t1", "t2"):
            assert answers[tenant_id].same_answer(reference[tenant_id])

    def test_respawn_without_wal_propagates(self):
        graph = make_graph()
        service = RiskService(graph, mode="fork", shards=1)
        try:
            service.register_tenant("t1", 3)
            os.kill(service.pool.worker_pids()[0], signal.SIGKILL)
            time.sleep(0.2)
            service.submit_update("t1", SelfRiskUpdate(0, 0.5))
            from concurrent.futures import BrokenExecutor

            with pytest.raises(BrokenExecutor):
                service.flush()
        finally:
            service._pool.shutdown()
            service._closed = True


class TestCliGracefulShutdown:
    def test_sigterm_drains_and_exits_cleanly(self, tmp_path):
        wal_dir = tmp_path / "wal"
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--dataset", "guarantee", "--scale", "0.02",
                "--tenants", "2", "--k", "3", "--events", "1000000",
                "--mode", "serial", "--flush-interval", "0.01",
                "--wal-dir", str(wal_dir), "--fsync", "never",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=Path(__file__).parent.parent,
        )
        # Let it register tenants and start streaming, then interrupt.
        deadline = time.monotonic() + 30
        while count_durable_batches(wal_dir) < 2:
            assert process.poll() is None, process.communicate()[1]
            assert time.monotonic() < deadline, "serve never made progress"
            time.sleep(0.05)
        process.send_signal(signal.SIGTERM)
        stdout, stderr = process.communicate(timeout=60)
        assert process.returncode == 0, stderr
        assert "serving top-3" in stdout  # reporting path still ran
        # The durable state it left behind is recoverable.
        recovered = RiskService(
            load_dataset("guarantee", scale=0.02, seed=0).graph,
            mode="serial", wal_dir=wal_dir,
            monitor_defaults={"seed": 0, "epsilon": 0.3, "delta": 0.1},
        )
        try:
            assert sorted(recovered.tenants()) == [
                "portfolio-00", "portfolio-01"
            ]
            for tenant_id in recovered.tenants():
                assert len(recovered.query_topk(tenant_id).nodes) == 3
        finally:
            recovered.close()


class TestDiskFullAppend:
    """ENOSPC on ``WriteAheadLog.append``: shed, stay clean, resume."""

    def make_wal(self, tmp_path, plan):
        from repro.persistence.faults import FaultyFile
        from repro.persistence.wal import WriteAheadLog

        return WriteAheadLog(
            tmp_path / "wal",
            fsync="always",
            io_wrapper=lambda raw: FaultyFile(raw, plan),
        )

    def test_enospc_keeps_segment_clean_and_resumes(self, tmp_path):
        import errno

        from repro.persistence.faults import WriteFaultPlan
        from repro.persistence.wal import WriteAheadLog

        plan = WriteFaultPlan(
            fail_after_bytes=300,
            partial=True,
            error_errno=errno.ENOSPC,
            message="No space left on device",
        )
        wal = self.make_wal(tmp_path, plan)
        events = [SelfRiskUpdate(1, 0.25), SelfRiskUpdate(2, 0.75)]
        durable = 0
        with pytest.raises(OSError) as failure:
            for _ in range(40):
                wal.append_events("t1", events)
                durable += 1
        assert failure.value.errno == errno.ENOSPC
        assert durable > 0  # the fault landed mid-stream, not at open
        # The torn tail was repaired in place: on-disk bytes hold
        # exactly the batches that were acked, nothing half-written.
        assert count_durable_batches(tmp_path / "wal") == durable

        # The disk is still full: further appends shed with ENOSPC,
        # and each failure leaves the segment no worse.
        for _ in range(3):
            with pytest.raises(OSError):
                wal.append_events("t1", events)
        assert count_durable_batches(tmp_path / "wal") == durable

        # Space frees: the very next append on the same handle lands.
        plan.clear()
        wal.append_events("t1", events)
        wal.append_events("t1", events)
        assert count_durable_batches(tmp_path / "wal") == durable + 2
        wal.close()

        # And a restart sees one continuous, gap-free batch sequence.
        reopened = WriteAheadLog(tmp_path / "wal", fsync="always")
        batches = [
            batch for batch in reopened.read_batches()
            if batch.tenant_id == "t1"
        ]
        assert len(batches) == durable + 2
        seqs = [batch.seq for batch in batches]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)
        reopened.close()

    def test_whole_write_failure_is_also_clean(self, tmp_path):
        import errno

        from repro.persistence.faults import WriteFaultPlan

        plan = WriteFaultPlan(
            fail_after_bytes=250,
            partial=False,  # the kernel rejected the write outright
            error_errno=errno.ENOSPC,
            sticky=False,
        )
        wal = self.make_wal(tmp_path, plan)
        events = [SelfRiskUpdate(3, 0.5)]
        durable = 0
        with pytest.raises(OSError):
            for _ in range(40):
                wal.append_events("t1", events)
                durable += 1
        assert count_durable_batches(tmp_path / "wal") == durable
        plan.clear()
        wal.append_events("t1", events)
        assert count_durable_batches(tmp_path / "wal") == durable + 1
        wal.close()
