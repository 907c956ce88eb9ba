"""Topology events in the streaming stack: transactional batches,
interleaved coalesced-vs-serial lockstep, and WAL'd crawl replay."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.bsr import BoundedSampleReverseDetector
from repro.algorithms.bsrbk import BottomKDetector
from repro.algorithms.sr import SampleReverseDetector
from repro.core.errors import DuplicateEdgeError, GraphError
from repro.core.graph import UncertainGraph
from repro.crawling import ObservedGraphSession
from repro.datasets.powerlaw import directed_powerlaw_edges
from repro.sampling.indexed import IndexedReverseSampler
from repro.sampling.worldstate import WorldView
from repro.streaming.events import (
    EdgeAdd,
    EdgeProbabilityUpdate,
    NodeAdd,
    SelfRiskUpdate,
    apply_events,
    validate_events,
)
from repro.streaming.monitor import TopKMonitor


def powerlaw_graph(n: int, seed: int) -> UncertainGraph:
    rng = np.random.default_rng(seed)
    src, dst = directed_powerlaw_edges(n, 3 * n, seed=rng)
    return UncertainGraph.from_arrays(
        rng.random(n) * 0.3,
        src,
        dst,
        np.clip(rng.beta(2.0, 4.0, src.size), 0.01, 0.95),
    )


def two_node_graph() -> UncertainGraph:
    graph = UncertainGraph()
    graph.add_node("a", 0.1)
    graph.add_node("b", 0.2)
    graph.add_edge("a", "b", 0.5)
    return graph


def snapshot(graph: UncertainGraph):
    src, dst, probs = graph.edge_array
    return (
        graph.labels(),
        graph.self_risk_array.copy(),
        src.copy(),
        dst.copy(),
        probs.copy(),
    )


def assert_unchanged(graph: UncertainGraph, before) -> None:
    labels, risks, src, dst, probs = before
    assert graph.labels() == labels
    assert np.array_equal(graph.self_risk_array, risks)
    now_src, now_dst, now_probs = graph.edge_array
    assert np.array_equal(now_src, src)
    assert np.array_equal(now_dst, dst)
    assert np.array_equal(now_probs, probs)


class TestTransactionalTopologyBatches:
    """``apply_events`` is all-or-nothing: a mid-batch invalid event
    must leave the graph exactly as it was."""

    def test_batch_referencing_its_own_additions_validates(self):
        graph = two_node_graph()
        batch = [
            NodeAdd("c", 0.3),
            EdgeAdd("c", "a", 0.4),  # c exists only within the batch
            EdgeAdd("b", "c", 0.6),
            SelfRiskUpdate("c", 0.9),  # patching the in-batch node works
        ]
        assert validate_events(graph, batch) == batch
        assert apply_events(graph, batch) == 4
        assert graph.num_nodes == 3 and graph.num_edges == 3
        assert graph.self_risk_array[graph.index("c")] == pytest.approx(0.9)

    def test_mid_batch_duplicate_node_applies_nothing(self):
        graph = two_node_graph()
        before = snapshot(graph)
        with pytest.raises(GraphError):
            apply_events(
                graph,
                [
                    NodeAdd("c", 0.3),
                    EdgeAdd("c", "a", 0.4),
                    NodeAdd("a", 0.5),  # duplicate: poisons the batch
                ],
            )
        assert_unchanged(graph, before)

    def test_mid_batch_dangling_edge_applies_nothing(self):
        graph = two_node_graph()
        before = snapshot(graph)
        with pytest.raises(GraphError):
            apply_events(
                graph,
                [
                    NodeAdd("c", 0.3),
                    EdgeAdd("c", "missing", 0.4),  # unknown endpoint
                ],
            )
        assert_unchanged(graph, before)

    def test_mid_batch_duplicate_edge_applies_nothing(self):
        graph = two_node_graph()
        before = snapshot(graph)
        with pytest.raises(DuplicateEdgeError):
            apply_events(
                graph,
                [
                    NodeAdd("c", 0.3),
                    EdgeAdd("a", "b", 0.9),  # already exists
                ],
            )
        assert_unchanged(graph, before)

    def test_duplicate_edge_within_batch_applies_nothing(self):
        graph = two_node_graph()
        before = snapshot(graph)
        with pytest.raises(DuplicateEdgeError):
            apply_events(
                graph,
                [
                    NodeAdd("c", 0.3),
                    EdgeAdd("c", "a", 0.4),
                    EdgeAdd("c", "a", 0.5),  # repeats an in-batch edge
                ],
            )
        assert_unchanged(graph, before)

    def test_out_of_range_probability_applies_nothing(self):
        graph = two_node_graph()
        before = snapshot(graph)
        with pytest.raises(Exception):
            apply_events(
                graph,
                [NodeAdd("c", 0.3), EdgeAdd("c", "a", 1.5)],
            )
        assert_unchanged(graph, before)


def interleaved_stream(graph: UncertainGraph, seed: int):
    """Topology growth braided with probability and self-risk patches.

    Patches target pre-existing entities only, so the stream coalesces
    and re-orders freely; growth events always reference the pre-stream
    label set and stay valid in any interleaving that preserves their
    own relative order (which the coalescer guarantees).
    """
    rng = np.random.default_rng(seed)
    labels = graph.labels()
    src, dst, _ = graph.edge_array
    events = []
    for i in range(8):
        events.append(
            SelfRiskUpdate(
                labels[int(rng.integers(len(labels)))],
                float(rng.random() * 0.5),
            )
        )
        edge = int(rng.integers(src.size))
        events.append(
            EdgeProbabilityUpdate(
                labels[int(src[edge])],
                labels[int(dst[edge])],
                float(rng.random()),
            )
        )
        label = f"new-{i}"
        events.append(NodeAdd(label, float(rng.uniform(0.05, 0.4))))
        events.append(
            EdgeAdd(
                label,
                labels[int(rng.integers(len(labels)))],
                float(rng.uniform(0.1, 0.9)),
            )
        )
    # Re-patch some early entities so coalescing has real collisions.
    for event in events[:6]:
        if isinstance(event, SelfRiskUpdate):
            events.append(SelfRiskUpdate(event.label, 0.25))
        elif isinstance(event, EdgeProbabilityUpdate):
            events.append(EdgeProbabilityUpdate(event.src, event.dst, 0.5))
    return events


class TestInterleavedLockstep:
    """Coalesced-vs-serial bit-identity under mixed topology,
    probability, and self-risk streams (the serving queue's contract
    extended to growth)."""

    def test_coalesced_flush_matches_serial(self):
        from repro.serving.coalesce import coalesce_events

        base = powerlaw_graph(200, seed=51)
        events = interleaved_stream(base.copy(), seed=8)

        serial_graph = base.copy()
        serial = TopKMonitor(serial_graph, 5, seed=2)
        serial.top_k()
        for event in events:
            serial.apply([event])
            serial.refresh()
        serial_result = serial.top_k()

        coalesced_graph = base.copy()
        coalesced = TopKMonitor(coalesced_graph, 5, seed=2)
        coalesced.top_k()
        batch = coalesce_events(events)
        assert len(batch) < len(events)
        # Topology events must survive coalescing in order.
        adds = [e for e in batch if isinstance(e, (NodeAdd, EdgeAdd))]
        assert adds == [
            e for e in events if isinstance(e, (NodeAdd, EdgeAdd))
        ]
        coalesced.apply(batch)
        coalesced_result = coalesced.top_k()

        assert serial_graph.labels() == coalesced_graph.labels()
        assert np.array_equal(
            serial_graph.self_risk_array, coalesced_graph.self_risk_array
        )
        assert np.array_equal(
            serial_graph.edge_array[2], coalesced_graph.edge_array[2]
        )
        assert coalesced_result.same_answer(serial_result)
        # Both equal fresh detection on the final grown graph.
        fresh = BoundedSampleReverseDetector(seed=2).detect(coalesced_graph, 5)
        assert coalesced_result.same_answer(fresh)

    def test_stable_layout_takes_incremental_topology_path(self):
        """Growth under the counter lanes never forces the full
        fallback, and every step matches fresh detection."""
        for algorithm, detector in (
            ("bsr", BoundedSampleReverseDetector(seed=2)),
            ("bsrbk", BottomKDetector(seed=2)),
        ):
            base = powerlaw_graph(200, seed=52)
            events = interleaved_stream(base.copy(), seed=9)
            monitor = TopKMonitor(base, 5, seed=2, algorithm=algorithm)
            monitor.top_k()
            fulls_after_build = monitor.stats["full"]
            for event in events:
                monitor.apply([event])
                report = monitor.refresh()
                if isinstance(event, (NodeAdd, EdgeAdd)):
                    assert report.mode == "incremental", report
                assert monitor.top_k().same_answer(detector.detect(base, 5))
            # Every NodeAdd/EdgeAdd step must have refreshed through the
            # incremental topology path, never the full fallback.
            assert monitor.stats["topology"] == 16
            assert monitor.stats["full"] == fulls_after_build

    def test_engine_option_is_retired(self):
        """Growth needs no engine choice: neither the monitor nor the
        reverse-sampling detectors it is checked against take an engine
        option, since all of them run the one indexed engine."""
        with pytest.raises(TypeError):
            TopKMonitor(powerlaw_graph(30, seed=1), 3, engine="indexed")
        for detector in (
            SampleReverseDetector,
            BoundedSampleReverseDetector,
            BottomKDetector,
        ):
            for engine in ("indexed", "reference"):
                with pytest.raises(TypeError):
                    detector(engine=engine)

    def test_counter_layout_option_is_retired(self):
        """Every world sits on the growth-stable counter lanes, so no
        constructor takes a counter layout."""
        graph = powerlaw_graph(30, seed=1)
        with pytest.raises(TypeError):
            TopKMonitor(graph, 3, counter_layout="stable")
        with pytest.raises(TypeError):
            IndexedReverseSampler(graph, [0], seed=0, counter_layout="stable")
        with pytest.raises(TypeError):
            WorldView(graph, [0], seed=0, counter_layout="stable")


class TestWalCrawlReplay:
    """A WAL'd crawl session recovers to the same answers: durable
    partial observation."""

    def test_replayed_crawl_matches_live_monitor(self, tmp_path):
        from repro.persistence.wal import WriteAheadLog

        hidden = powerlaw_graph(100, seed=61)
        seeds = [hidden.label(i) for i in (0, 2, 5)]
        k = 3
        session = ObservedGraphSession(
            hidden, seeds, strategy="degree", budget=12, seed=7
        )

        def build(graph):
            return TopKMonitor(graph, k, seed=11)

        live = UncertainGraph()
        monitor = None
        with WriteAheadLog(tmp_path) as wal:
            for batch in session.run():
                wal.append_events("crawler", list(batch.events))
                if monitor is None:
                    apply_events(live, batch.events)
                    if live.num_nodes >= k:
                        monitor = build(live)
                else:
                    monitor.apply(batch.events)
            wal.sync()
            live_result = monitor.top_k()

        # Crash-and-recover: replay the durable log from scratch.
        with WriteAheadLog(tmp_path) as wal:
            batches = wal.read_batches()
        assert len(batches) == session.steps_taken + 1
        recovered_graph = UncertainGraph()
        for batch in batches:
            assert batch.tenant_id == "crawler"
            apply_events(recovered_graph, batch.events)
        # Provenance survives the round-trip.
        all_events = [e for b in batches for e in b.events]
        assert all(e.source.startswith("crawl:") for e in all_events)
        assert recovered_graph.labels() == live.labels()
        recovered_result = build(recovered_graph).top_k()
        assert recovered_result.same_answer(live_result)
