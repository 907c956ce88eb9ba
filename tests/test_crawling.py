"""Tests for the crawling subsystem: frontier semantics, strategy
determinism, session replay, and the crawl-while-monitoring oracle."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.bsr import BoundedSampleReverseDetector
from repro.algorithms.bsrbk import BottomKDetector
from repro.core.errors import GraphError
from repro.core.graph import UncertainGraph
from repro.crawling import (
    CRAWL_STRATEGIES,
    AvrachenkovStrategy,
    CrawlFrontier,
    ObservedGraphSession,
    resolve_strategy,
)
from repro.datasets.powerlaw import directed_powerlaw_edges
from repro.streaming.events import EdgeAdd, NodeAdd, apply_events
from repro.streaming.monitor import TopKMonitor


def hidden_graph(n: int = 100, seed: int = 11) -> UncertainGraph:
    rng = np.random.default_rng(seed)
    src, dst = directed_powerlaw_edges(n, 3 * n, seed=rng)
    return UncertainGraph.from_arrays(
        rng.random(n) * 0.3,
        src,
        dst,
        np.clip(rng.beta(2.0, 4.0, src.size), 0.01, 0.95),
    )


def tiny_graph() -> UncertainGraph:
    """a -> b -> c plus c -> a and an isolated d (hand-checkable)."""
    graph = UncertainGraph()
    for label, risk in [("a", 0.1), ("b", 0.2), ("c", 0.3), ("d", 0.4)]:
        graph.add_node(label, risk)
    graph.add_edge("a", "b", 0.5)
    graph.add_edge("b", "c", 0.6)
    graph.add_edge("c", "a", 0.7)
    return graph


class TestCrawlFrontier:
    def test_needs_seeds(self):
        with pytest.raises(GraphError, match="seed"):
            CrawlFrontier(tiny_graph(), [])

    def test_seed_observation_is_budget_free(self):
        frontier = CrawlFrontier(tiny_graph(), ["a", "b"])
        assert frontier.observed_labels() == ["a", "b"]
        assert frontier.num_crawled == 0
        assert frontier.num_observed_edges == 0
        assert frontier.self_risk("a") == pytest.approx(0.1)

    def test_crawl_reveals_all_incident_edges(self):
        frontier = CrawlFrontier(tiny_graph(), ["a"])
        step = frontier.crawl("a")
        # Both a -> b (out) and c -> a (in) surface, edge-id order.
        assert step.new_edges == (
            ("a", "b", pytest.approx(0.5)),
            ("c", "a", pytest.approx(0.7)),
        )
        assert step.new_nodes == (
            ("b", pytest.approx(0.2)),
            ("c", pytest.approx(0.3)),
        )
        assert frontier.observed_degree("a") == 2
        assert frontier.observed_degree("b") == 1

    def test_edge_revealed_once(self):
        frontier = CrawlFrontier(tiny_graph(), ["a"])
        frontier.crawl("a")
        step = frontier.crawl("b")
        # a -> b was already revealed by crawling a; only b -> c is new.
        assert step.new_edges == (("b", "c", pytest.approx(0.6)),)
        assert step.new_nodes == ()
        assert frontier.num_observed_edges == 3

    def test_crawl_requires_observed_uncrawled(self):
        frontier = CrawlFrontier(tiny_graph(), ["a"])
        with pytest.raises(GraphError, match="unobserved"):
            frontier.crawl("d")
        frontier.crawl("a")
        with pytest.raises(GraphError, match="already crawled"):
            frontier.crawl("a")

    def test_self_risk_requires_observation(self):
        frontier = CrawlFrontier(tiny_graph(), ["a"])
        with pytest.raises(GraphError, match="not observed"):
            frontier.self_risk("d")

    def test_exhaustion(self):
        frontier = CrawlFrontier(tiny_graph(), ["a"])
        assert not frontier.is_exhausted()
        for label in ["a", "b", "c"]:
            frontier.crawl(label)
        # d is unreachable from the crawled component, so no crawlable
        # target remains even though it was never observed.
        assert frontier.is_exhausted()
        assert frontier.uncrawled_observed() == []

    def test_deterministic_given_crawl_order(self):
        hidden = hidden_graph(60, seed=3)
        seeds = [hidden.label(0), hidden.label(1)]
        a, b = CrawlFrontier(hidden, seeds), CrawlFrontier(hidden, seeds)
        for _ in range(10):
            target = a.uncrawled_observed()[0]
            assert a.crawl(target) == b.crawl(target)
        assert a.observed_labels() == b.observed_labels()


class TestStrategies:
    def test_resolve_unknown_raises(self):
        with pytest.raises(GraphError, match="unknown crawl strategy"):
            resolve_strategy("no-such-strategy")

    def test_resolve_passes_instances_through(self):
        strategy = AvrachenkovStrategy(n1=2)
        assert resolve_strategy(strategy) is strategy

    def test_avrachenkov_rejects_negative_n1(self):
        with pytest.raises(GraphError, match="n1"):
            AvrachenkovStrategy(n1=-1)

    @pytest.mark.parametrize("name", sorted(CRAWL_STRATEGIES))
    def test_streams_are_seed_deterministic(self, name):
        hidden = hidden_graph(80, seed=5)
        seeds = [hidden.label(i) for i in (0, 4, 9)]

        def replay():
            session = ObservedGraphSession(
                hidden, seeds, strategy=name, budget=12, seed=17
            )
            return [batch.events for batch in session.run()]

        assert replay() == replay()

    def test_degree_strategy_crawls_highest_observed_degree(self):
        hidden = tiny_graph()
        session = ObservedGraphSession(
            hidden, ["a"], strategy="degree", budget=3, seed=0
        )
        session.step()  # crawls the only candidate: a
        # After crawling a: degrees a=2, b=1, c=1 -> next target is b
        # (earliest-observed among the tied uncrawled candidates).
        batch = session.step()
        assert batch.target == "b"

    def test_avrachenkov_switches_to_degree_after_n1(self):
        hidden = hidden_graph(80, seed=6)
        seeds = [hidden.label(i) for i in (0, 1)]
        session = ObservedGraphSession(
            hidden,
            seeds,
            strategy=AvrachenkovStrategy(n1=4),
            budget=10,
            seed=23,
        )
        targets = [batch.target for batch in session.run() if batch.step >= 4]
        # From step n1 on, the choice is greedy max observed degree: an
        # independent degree-only session started from the same state
        # must agree.  Cheap proxy: the crawled targets' observed
        # degrees at selection time are maxima; verify via a replayed
        # frontier.
        frontier = CrawlFrontier(hidden, seeds)
        replay_targets = []
        for batch in ObservedGraphSession(
            hidden,
            seeds,
            strategy=AvrachenkovStrategy(n1=4),
            budget=10,
            seed=23,
        ).run():
            if batch.step < 0:
                continue
            if batch.step >= 4:
                candidates = frontier.uncrawled_observed()
                degrees = [
                    frontier.observed_degree(label) for label in candidates
                ]
                best = candidates[int(np.argmax(degrees))]
                replay_targets.append(best)
            frontier.crawl(batch.target)
        assert targets == replay_targets


class TestObservedGraphSession:
    def test_bootstrap_carries_seed_provenance(self):
        session = ObservedGraphSession(tiny_graph(), ["a", "b"], budget=0)
        assert session.bootstrap.step == -1
        assert session.bootstrap.target is None
        for event in session.bootstrap.events:
            assert isinstance(event, NodeAdd)
            assert event.source == "crawl:seed"
            assert event.confidence == 1.0

    def test_step_events_carry_strategy_provenance(self):
        session = ObservedGraphSession(
            tiny_graph(), ["a"], strategy="degree", budget=2, seed=0
        )
        session.bootstrap  # already applied
        batch = session.step()
        for event in batch.events:
            assert event.source == "crawl:degree/0"
        node_events = [e for e in batch.events if isinstance(e, NodeAdd)]
        edge_events = [e for e in batch.events if isinstance(e, EdgeAdd)]
        # NodeAdds precede EdgeAdds so the batch applies transactionally.
        assert batch.events == tuple(node_events) + tuple(edge_events)

    def test_budget_is_respected(self):
        hidden = hidden_graph(60, seed=9)
        session = ObservedGraphSession(
            hidden, [hidden.label(0)], strategy="random", budget=5, seed=1
        )
        batches = list(session.run())
        assert session.steps_taken == 5
        assert len(batches) == 6  # bootstrap + 5 crawls
        assert not session.budget_left()
        assert session.step() is None

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            ObservedGraphSession(tiny_graph(), ["a"], budget=-1)

    def test_unbounded_run_stops_at_exhaustion(self):
        session = ObservedGraphSession(
            tiny_graph(), ["a"], strategy="degree", budget=None
        )
        batches = [batch for batch in session.run() if batch.step >= 0]
        assert len(batches) == 3  # a, b, c; d is unreachable
        assert session.frontier.is_exhausted()

    def test_replaying_events_rebuilds_observed_graph(self):
        hidden = hidden_graph(100, seed=13)
        seeds = [hidden.label(i) for i in (0, 2, 5)]
        session = ObservedGraphSession(
            hidden, seeds, strategy="avrachenkov", budget=15, seed=29
        )
        replay = UncertainGraph()
        for batch in session.run():
            apply_events(replay, batch.events)
        observed = session.observed_graph
        assert replay.labels() == observed.labels()
        assert np.array_equal(
            replay.self_risk_array, observed.self_risk_array
        )
        for mine, theirs in zip(replay.edge_array, observed.edge_array):
            assert np.array_equal(mine, theirs)
        # The observed subgraph's attributes are the hidden truth.
        for label in replay.labels():
            assert replay.self_risk_array[replay.index(label)] == (
                pytest.approx(
                    hidden.self_risk_array[hidden.index(label)]
                )
            )


class TestCrawlWhileMonitoring:
    """The tentpole oracle: a monitor ingesting crawl batches stays
    bit-identical to fresh detection on the observed subgraph after
    every crawl step, for every strategy."""

    @pytest.mark.parametrize("name", sorted(CRAWL_STRATEGIES))
    def test_every_step_matches_fresh_detection(self, name):
        hidden = hidden_graph(120, seed=21)
        seeds = [hidden.label(i) for i in (0, 3, 7)]
        k = 3
        session = ObservedGraphSession(
            hidden, seeds, strategy=name, budget=15, seed=37
        )

        detector = BoundedSampleReverseDetector(seed=5)
        live = UncertainGraph()
        replay = UncertainGraph()
        monitor = None
        checked = 0
        for batch in session.run():
            apply_events(replay, batch.events)
            if monitor is None:
                apply_events(live, batch.events)
                if live.num_nodes < k:
                    continue
                monitor = TopKMonitor(live, k, seed=5)
            else:
                monitor.apply(batch.events)
            result = monitor.top_k()
            fresh = detector.detect(replay, k)
            assert result.same_answer(fresh), (
                f"{name}: diverged after step {batch.step}"
            )
            checked += 1
        assert checked >= 10
        # The incremental topology path (not full fallback) must have
        # carried most steps, or the oracle proves nothing about it.
        assert monitor.stats["topology"] >= checked // 2

    def test_bsrbk_crawl_matches_fresh(self):
        hidden = hidden_graph(100, seed=41)
        seeds = [hidden.label(i) for i in (1, 4)]
        k = 3
        session = ObservedGraphSession(
            hidden, seeds, strategy="degree", budget=10, seed=3
        )

        detector = BottomKDetector(bk=8, seed=9)
        live = UncertainGraph()
        replay = UncertainGraph()
        monitor = None
        for batch in session.run():
            apply_events(replay, batch.events)
            if monitor is None:
                apply_events(live, batch.events)
                if live.num_nodes < k:
                    continue
                monitor = TopKMonitor(live, k, seed=9, algorithm="bsrbk", bk=8)
            else:
                monitor.apply(batch.events)
            assert monitor.top_k().same_answer(detector.detect(replay, k))
