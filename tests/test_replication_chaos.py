"""Chaos matrix for replicated serving.

Five fault cases, each asserting the replication stack's central
claim: after the fault, the surviving lineage's answers are
bit-identical to a never-crashed reference fed the same accepted
events, and a deposed primary's late writes are provably fenced.

"Accepted" is measured at the replication-ack boundary: an event is in
the promoted lineage once its batch was shipped and applied by the
replica.  Events acked durable by a primary that dies before shipping
them must be re-driven by the client against the promoted primary —
here the deterministic workload's suffix replay plays that client
role, exactly as the local crash-recovery tests do.
"""

from __future__ import annotations

import errno
import multiprocessing
import random
import threading
import time

import pytest

from repro.core.errors import FencedError
from repro.core.graph import UncertainGraph
from repro.frontend.server import FrontendServer
from repro.persistence.faults import (
    CrashHarness,
    FaultyFile,
    WriteFaultPlan,
    count_durable_batches,
)
from repro.persistence.snapshots import SnapshotStore
from repro.persistence.wal import scan_batches
from repro.replication import (
    EpochStore,
    FailoverCoordinator,
    HttpSource,
    LocalSource,
    ReplicaService,
    ReplicationHub,
    WalShipper,
)
from repro.serving.service import RiskService
from repro.streaming.events import SelfRiskUpdate

DEFAULTS = {"seed": 42, "epsilon": 0.5}
TOKENS = {"t1": "t1-secret"}
CLUSTER_TOKEN = "cluster-secret"
K = 5

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="chaos matrix needs the fork start method",
)


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


def make_workload(graph, rounds, events_per_batch=2, seed=3):
    rng = random.Random(seed)
    return [
        [
            SelfRiskUpdate(
                rng.randrange(graph.num_nodes), rng.uniform(0.0, 1.0)
            )
            for _ in range(events_per_batch)
        ]
        for _ in range(rounds)
    ]


def drive_batches(service, workload, *, pause=0.0):
    for batch in workload:
        for event in batch:
            service.submit_update("t1", event)
        service.flush()
        if pause:
            time.sleep(pause)


def reference_answer(graph, workload):
    """Uninterrupted, non-durable run — the bit-identity baseline."""
    service = RiskService(graph, mode="serial", monitor_defaults=DEFAULTS)
    service.register_tenant("t1", K)
    drive_batches(service, workload)
    answer = service.query_topk("t1")
    service.close()
    return answer


def batches_applied(service):
    """t1's event batches in the service's log, every one of them applied.

    These cases take no snapshot, so the log holds the whole lineage.
    """
    directory = service.wal.directory
    assert SnapshotStore(directory).latest() is None
    return sum(
        batch.kind == "events" and batch.tenant_id == "t1"
        for batch in scan_batches(directory)
    )


def finish_on(service, workload):
    """Replay the workload suffix the lineage is missing, then answer."""
    done = batches_applied(service)
    drive_batches(service, workload[done:])
    return service.query_topk("t1")


def wait_for(condition, *, timeout=30.0, poll=0.005, message="condition"):
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            raise TimeoutError(f"timed out waiting for {message}")
        time.sleep(poll)


class ServerThread:
    """A FrontendServer with replication routes on its own loop thread."""

    def __init__(self, service, hub):
        import asyncio

        self.server = FrontendServer(
            service,
            TOKENS,
            flush_interval=0.01,
            replication=hub,
            cluster_token=CLUSTER_TOKEN,
        )
        self._asyncio = asyncio
        self._loop = None
        self._stop = None
        self._started = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        async def main():
            self._loop = self._asyncio.get_running_loop()
            self._stop = self._asyncio.Event()
            await self.server.start()
            self._started.set()
            await self._stop.wait()
            await self.server.stop()

        self._asyncio.run(main())

    def __enter__(self):
        self._thread.start()
        assert self._started.wait(30), "server failed to start"
        return self.server

    def __exit__(self, *exc_info):
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(30)


# ----------------------------------------------------------------------
# Case 1: SIGKILL the primary mid-drain; promote; prove bit-identity.
# ----------------------------------------------------------------------
class TestKillPrimaryMidDrain:
    def test_promotion_after_primary_sigkill_is_bit_identical(
        self, tmp_path
    ):
        graph = make_graph()
        workload = make_workload(graph, rounds=10)
        primary_dir = tmp_path / "p1"
        epoch_path = tmp_path / "epoch.json"
        port_file = tmp_path / "port.txt"

        def child():
            import asyncio

            service = RiskService(
                graph,
                mode="serial",
                wal_dir=primary_dir,
                fsync="always",
                monitor_defaults=DEFAULTS,
                epoch_store=EpochStore(epoch_path),
                node_id="p1",
            )
            hub = ReplicationHub(service)
            server = FrontendServer(
                service,
                TOKENS,
                flush_interval=0.01,
                replication=hub,
                cluster_token=CLUSTER_TOKEN,
            )

            async def main():
                await server.start()
                # Write, then rename: the parent polls for the file and
                # must never read it half-written.
                staged = port_file.with_suffix(".tmp")
                staged.write_text(str(server.port))
                staged.replace(port_file)
                loop = asyncio.get_running_loop()

                def stream():
                    service.register_tenant("t1", K)
                    drive_batches(service, workload, pause=0.05)

                await loop.run_in_executor(None, stream)
                await asyncio.sleep(600)  # idle until the parent kills

            asyncio.run(main())

        harness = CrashHarness(child).start()
        replica = ReplicaService(
            graph,
            tmp_path / "r1",
            node_id="r1",
            mode="serial",
            monitor_defaults=DEFAULTS,
        )
        shipper = None
        try:
            wait_for(port_file.exists, message="server port")
            port = int(port_file.read_text())
            shipper = WalShipper(
                HttpSource("127.0.0.1", port, CLUSTER_TOKEN),
                replica,
                poll_interval=0.005,
                backoff=0.01,
            )
            shipper.start()
            # The kill lands mid-drain: some batches replicated, the
            # workload still streaming on the other side.
            assert harness.kill_when(lambda: replica.applied_seq >= 4)
        finally:
            if shipper is not None:
                shipper.stop()
            harness.kill()

        coordinator = FailoverCoordinator(EpochStore(epoch_path))
        winner, promoted = coordinator.promote(
            {"r1": replica}, fsync="always"
        )
        try:
            assert winner == "r1"
            assert coordinator.events[-1].epoch == 2
            survived = batches_applied(promoted)
            assert survived >= 1  # the lineage carried real progress
            answer = finish_on(promoted, workload)
            assert reference_answer(graph, workload).same_answer(answer)
        finally:
            promoted.close()


# ----------------------------------------------------------------------
# Case 2: SIGKILL a replica mid-catch-up; restart; resume; complete.
# ----------------------------------------------------------------------
class TestKillReplicaMidCatchUp:
    def test_restart_resumes_from_cursor_and_catches_up(self, tmp_path):
        graph = make_graph()
        workload = make_workload(graph, rounds=14)
        mirror = tmp_path / "r1"
        primary = RiskService(
            graph,
            mode="serial",
            wal_dir=tmp_path / "p1",
            fsync="always",
            monitor_defaults=DEFAULTS,
        )
        primary.register_tenant("t1", K)
        drive_batches(primary, workload)
        hub = ReplicationHub(primary)
        with ServerThread(primary, hub) as server:
            port = server.port

            def child():
                replica = ReplicaService(
                    graph,
                    mirror,
                    node_id="r1",
                    mode="serial",
                    monitor_defaults=DEFAULTS,
                )
                shipper = WalShipper(
                    HttpSource("127.0.0.1", port, CLUSTER_TOKEN),
                    replica,
                    max_bytes=200,  # small chunks: a long kill window
                )
                while True:
                    shipper.step()
                    time.sleep(0.01)

            harness = CrashHarness(child).start()
            try:
                killed = harness.kill_when(
                    lambda: count_durable_batches(mirror) >= 3
                )
                assert killed, "replica caught up before the kill landed"
            finally:
                harness.kill()

            # Local recovery repairs any torn mirror tail and resumes
            # shipping from the verified cursor — no re-bootstrap.
            restarted = ReplicaService(
                graph,
                mirror,
                node_id="r1",
                mode="serial",
                monitor_defaults=DEFAULTS,
            )
            try:
                assert not restarted.is_cold
                assert restarted.applied_seq >= 3
                WalShipper(LocalSource(hub), restarted).catch_up()
                assert restarted.lag == 0
                assert primary.query_topk("t1").same_answer(
                    restarted.query_topk("t1")
                )
            finally:
                restarted.close()
        primary.close()


# ----------------------------------------------------------------------
# Case 3: the shipping link drops and reconnects, repeatedly.
# ----------------------------------------------------------------------
class FlakySource:
    """Wraps a source; drops the connection every *fail_every* fetches."""

    def __init__(self, inner, *, fail_every=4):
        self._inner = inner
        self._fail_every = fail_every
        self._calls = 0
        self.failures = 0

    def fetch(self, *args, **kwargs):
        self._calls += 1
        if self._calls % self._fail_every == 0:
            self.failures += 1
            raise ConnectionError("link dropped")
        return self._inner.fetch(*args, **kwargs)

    def bootstrap(self, replica_id):
        return self._inner.bootstrap(replica_id)


class TestShipperDisconnectReconnect:
    def test_reconnects_and_stays_bit_identical(self, tmp_path):
        graph = make_graph()
        workload = make_workload(graph, rounds=12)
        primary = RiskService(
            graph,
            mode="serial",
            wal_dir=tmp_path / "p1",
            fsync="always",
            monitor_defaults=DEFAULTS,
        )
        primary.register_tenant("t1", K)
        hub = ReplicationHub(primary)
        replica = ReplicaService(
            graph,
            tmp_path / "r1",
            node_id="r1",
            mode="serial",
            monitor_defaults=DEFAULTS,
        )
        source = FlakySource(LocalSource(hub), fail_every=4)
        shipper = WalShipper(
            source, replica,
            max_bytes=160, poll_interval=0.001, backoff=0.001,
        )
        shipper.start()
        try:
            drive_batches(primary, workload, pause=0.002)
            wait_for(
                lambda: replica.lag == 0
                and replica.applied_seq == primary.durable_seq,
                message="replica catch-up across disconnects",
            )
        finally:
            shipper.stop()
        assert source.failures >= 2  # the link really did keep dropping
        assert shipper.stats["reconnects"] >= 2
        assert primary.query_topk("t1").same_answer(
            replica.query_topk("t1")
        )
        primary.close()
        replica.close()


# ----------------------------------------------------------------------
# Case 4: ENOSPC on the replica's mirror WAL.
# ----------------------------------------------------------------------
class TestReplicaDiskFull:
    def test_enospc_stalls_then_resumes_bit_identically(self, tmp_path):
        graph = make_graph()
        workload = make_workload(graph, rounds=12)
        primary = RiskService(
            graph,
            mode="serial",
            wal_dir=tmp_path / "p1",
            fsync="always",
            monitor_defaults=DEFAULTS,
        )
        primary.register_tenant("t1", K)
        hub = ReplicationHub(primary)
        plan = WriteFaultPlan(
            fail_after_bytes=700,
            partial=True,  # the torn-mirror case repair_to exists for
            error_errno=errno.ENOSPC,
            message="No space left on device",
        )
        mirror = tmp_path / "r1"
        replica = ReplicaService(
            graph,
            mirror,
            node_id="r1",
            mode="serial",
            monitor_defaults=DEFAULTS,
            io_wrapper=lambda raw: FaultyFile(raw, plan),
        )
        shipper = WalShipper(
            LocalSource(hub), replica,
            max_bytes=160, poll_interval=0.001, backoff=0.001,
            backoff_cap=0.01,
        )
        shipper.start()
        try:
            drive_batches(primary, workload)
            # The disk fills: shipping stalls in its retry loop.
            wait_for(
                lambda: plan.tripped and shipper.stats["reconnects"] >= 1,
                message="ENOSPC to trip the mirror",
            )
            stalled_at = replica.applied_seq
            assert stalled_at < primary.durable_seq
            # Space frees: shipping resumes where it stopped.
            plan.clear()
            wait_for(
                lambda: replica.lag == 0
                and replica.applied_seq == primary.durable_seq,
                message="catch-up after space freed",
            )
        finally:
            shipper.stop()
        assert primary.query_topk("t1").same_answer(
            replica.query_topk("t1")
        )
        replica.close()

        # The mirror is clean on disk: a cold restart of the replica
        # recovers every applied batch with no corruption.
        reopened = ReplicaService(
            graph,
            mirror,
            node_id="r1",
            mode="serial",
            monitor_defaults=DEFAULTS,
        )
        try:
            assert primary.query_topk("t1").same_answer(
                reopened.query_topk("t1")
            )
        finally:
            reopened.close()
            primary.close()


# ----------------------------------------------------------------------
# Case 5: promotion races a slow deposed primary still taking writes.
# ----------------------------------------------------------------------
class TestPromotionRace:
    def test_deposed_primary_is_fenced_and_lineage_stays_clean(
        self, tmp_path
    ):
        graph = make_graph()
        events = [event for batch in make_workload(graph, 100, 1)
                  for event in batch]
        store = EpochStore(tmp_path / "epoch.json")
        primary = RiskService(
            graph,
            mode="serial",
            wal_dir=tmp_path / "p1",
            fsync="always",
            monitor_defaults=DEFAULTS,
            epoch_store=store,
            node_id="p1",
        )
        primary.register_tenant("t1", K)
        hub = ReplicationHub(primary)

        def spawn_replica(name):
            return ReplicaService(
                graph,
                tmp_path / name,
                node_id=name,
                mode="serial",
                monitor_defaults=DEFAULTS,
            )

        replica = spawn_replica("r1")
        laggard = spawn_replica("r2")
        shipper = WalShipper(
            LocalSource(hub), replica,
            poll_interval=0.001, backoff=0.001,
        )
        shipper.start()

        accepted = []
        fenced = threading.Event()

        def writer():
            # The slow deposed primary: keeps accepting writes right
            # through the promotion until the fence stops it.
            for event in events:
                try:
                    primary.submit_and_sync("t1", event)
                except FencedError:
                    fenced.set()
                    return
                accepted.append(event)
                time.sleep(0.002)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            wait_for(lambda: len(accepted) >= 10, message="mid-stream")
            # The laggard replicates only a prefix, then its link dies.
            WalShipper(LocalSource(hub), laggard, max_bytes=300).step()
            coordinator = FailoverCoordinator(store)
            winner, promoted = coordinator.promote(
                {"r1": replica, "r2": laggard}, fsync="always"
            )
        finally:
            thread.join(30)
            shipper.stop()
        assert not thread.is_alive()
        try:
            assert winner == "r1"  # most caught up wins
            assert promoted.epoch == 2
            # The writer was provably fenced mid-stream, not drained.
            assert fenced.is_set()
            assert len(accepted) < len(events)
            # Late flush from the deposed primary dies too.
            with pytest.raises(FencedError):
                primary.submit_and_sync("t1", events[-1])

            # The promoted lineage holds a clean prefix of the accepted
            # stream: replaying the remainder reproduces the reference
            # bit for bit.  (The registration batch is not counted:
            # batches_applied counts event batches only.)
            survived = batches_applied(promoted)
            assert survived <= len(accepted)
            reference = reference_answer(
                graph, [[event] for event in events[:survived]]
            )
            assert reference.same_answer(promoted.query_topk("t1"))

            # The laggard was fenced below the new epoch: the deposed
            # primary's remaining epoch-1 bytes are rejected wholesale.
            late = WalShipper(LocalSource(hub), laggard)
            with pytest.raises(FencedError):
                late.catch_up(timeout=5.0)
        finally:
            promoted.close()
            primary.close()
            laggard.close()
