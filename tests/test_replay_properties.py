"""Replay folds each tenant's logged suffix into one refresh.

Hypothesis draws logs on a small graph: probability patches, bulk
rewrites, node and edge adds, a batch from before submits were
validated that the monitor refuses, a tenant registered past the
snapshot, and a snapshot at a drawn position, then a crash.  Crash
recovery, healing the shard and a replica's local recovery must each
leave every monitor where the *one-window model* leaves it, in answers
and in ``stats``: the stream up to the snapshot one refresh per batch,
then the logged suffix applied and refreshed once.  Their answers must
also equal those of a per-batch run that never crashed.
"""

from __future__ import annotations

import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ReproError
from repro.core.graph import UncertainGraph
from repro.replication import ReplicaService
from repro.serving.service import RiskService
from repro.streaming.events import (
    BulkSelfRiskUpdate,
    EdgeAdd,
    EdgeProbabilityUpdate,
    NodeAdd,
    SelfRiskUpdate,
)
from repro.streaming.monitor import TopKMonitor

DEFAULTS = {"seed": 42, "epsilon": 0.5}
#: Registered at start; ``late`` registers right after the snapshot.
EARLY = {"a": 3, "b": 4}
LATE = ("late", 2)


def make_graph(n=16, seed=7, density=0.15):
    rng = np.random.default_rng(seed)
    graph = UncertainGraph()
    for i in range(n):
        graph.add_node(i, float(rng.uniform(0.05, 0.6)))
    for src in range(n):
        for dst in range(n):
            if src != dst and rng.random() < density:
                graph.add_edge(src, dst, float(rng.uniform(0.1, 0.9)))
    return graph


GRAPH = make_graph()
tenants = st.sampled_from(["a", "b", LATE[0]])
picks = st.integers(0, 1_000)
values = st.floats(0.0, 1.0)
steps = st.one_of(
    st.tuples(
        st.just("patch"), tenants, st.lists(st.tuples(picks, values), min_size=1, max_size=3)
    ),
    st.tuples(st.just("edge"), tenants, picks, values),
    st.tuples(st.just("bulk"), tenants, st.integers(0, 2**32 - 1)),
    st.tuples(st.just("grow"), tenants, picks, values),
    st.tuples(st.just("refused"), tenants, picks),
)


class Tenant:
    """One tenant's models: one-window and per-batch never-crashed."""

    def __init__(self, k: int) -> None:
        self.one_window = TopKMonitor(GRAPH.share_view(), k, **DEFAULTS)
        self.per_batch = TopKMonitor(GRAPH.share_view(), k, **DEFAULTS)
        self.suffix_applied = False
        self.grown = 0

    @property
    def graph(self) -> UncertainGraph:
        return self.per_batch.graph

    def batch(self, step) -> list:
        """The events *step* writes into this tenant's graph."""
        kind = step[0]
        labels = list(self.graph.nodes())
        if kind == "patch":
            return [
                SelfRiskUpdate(labels[pick % len(labels)], value)
                for pick, value in step[2]
            ]
        if kind == "edge":
            src, dst, _ = list(self.graph.edges())[
                step[2] % self.graph.num_edges
            ]
            return [EdgeProbabilityUpdate(src, dst, step[3])]
        if kind == "bulk":
            rng = np.random.default_rng(step[2])
            return [BulkSelfRiskUpdate(rng.uniform(size=len(labels)))]
        if kind == "grow":
            self.grown += 1
            new = f"grown-{self.grown}"
            anchor = labels[step[2] % len(labels)]
            return [
                NodeAdd(new, step[3]),
                EdgeAdd(anchor, new, step[3]),
                EdgeAdd(new, anchor, 1.0 - step[3]),
            ]
        # A valid write coalesced with one the monitor refuses.
        return [
            SelfRiskUpdate(labels[step[2] % len(labels)], 0.9),
            SelfRiskUpdate(labels[0], 1.7),
        ]

    def apply(self, events, *, past_snapshot: bool) -> None:
        try:
            self.per_batch.apply(events)
        except ReproError:
            return  # refused whole, as the live monitor refused it
        self.per_batch.refresh()
        self.one_window.apply(events)
        if past_snapshot:
            self.suffix_applied = True
        else:
            self.one_window.refresh()

    def finish(self) -> dict:
        """The one-window model's counters once the suffix is replayed."""
        if self.suffix_applied:
            self.one_window.refresh()
        return dict(self.one_window.stats)


@settings(max_examples=12)
@given(
    log=st.lists(steps, min_size=1, max_size=8),
    snapshot_at=st.integers(0, 8),
)
def test_replay_matches_the_one_window_model(log, snapshot_at):
    snapshot_at = min(snapshot_at, len(log))
    with tempfile.TemporaryDirectory() as directory:
        service = RiskService(
            GRAPH, mode="serial", wal_dir=directory, fsync="never",
            monitor_defaults=DEFAULTS, snapshot_on_close=False,
        )
        models = {}
        for tenant_id, k in EARLY.items():
            service.register_tenant(tenant_id, k)
            models[tenant_id] = Tenant(k)
        for position, step in enumerate([*log, None]):
            if position == snapshot_at:
                service.snapshot_to_disk()
                for model in models.values():
                    model.one_window.top_k()  # what the snapshot dumps
                service.register_tenant(*LATE)
                models[LATE[0]] = Tenant(LATE[1])
            if step is None or step[1] not in models:
                continue
            model = models[step[1]]
            events = model.batch(step)
            if step[0] == "refused":
                # Logged before submits were validated.
                service.wal.append_events(step[1], events)
            else:
                service.submit_updates(step[1], events)
                service.flush()
            model.apply(events, past_snapshot=position >= snapshot_at)

        stats = {t: model.finish() for t, model in models.items()}
        answers = {
            t: (model.one_window.top_k(), model.per_batch.top_k())
            for t, model in models.items()
        }

        def verify(monitor_stats, answer):
            assert monitor_stats == stats
            for tenant_id, (one_window, per_batch) in answers.items():
                result = answer(tenant_id)
                assert result.same_answer(one_window)
                assert result.same_answer(per_batch)

        # Healing the (only) shard rebuilds every monitor from disk.
        service._heal_shard(0)
        verify(
            service.snapshot().shards[0]["monitor_stats"],
            lambda t: service.pool.query(t).result(),
        )
        # Crash, then recover.
        service.wal.close()
        service.pool.shutdown()
        recovered = RiskService(
            GRAPH, mode="serial", wal_dir=directory, fsync="never",
            monitor_defaults=DEFAULTS, snapshot_on_close=False,
        )
        try:
            verify(
                recovered.snapshot().shards[0]["monitor_stats"],
                lambda t: recovered.pool.query(t).result(),
            )
        finally:
            recovered.close()
        # A replica restarted on the same directory.
        replica = ReplicaService(
            GRAPH, directory, mode="serial", monitor_defaults=DEFAULTS
        )
        try:
            verify(
                replica._pool.stats()[0]["monitor_stats"],
                replica.query_topk,
            )
        finally:
            replica.close()
