"""Tests for the streaming subsystem: indexed engine, incremental
bounds, and the TopKMonitor equivalence oracle."""

from __future__ import annotations

import numpy as np
import pytest

from dense_worldstate import dense_state_for
from reference_sampler import ReverseSampler, WorldArena

import repro.algorithms.bsrbk as bsrbk_module
import repro.streaming.monitor as monitor_module
from repro.algorithms.bsr import BoundedSampleReverseDetector
from repro.algorithms.bsrbk import BottomKDetector
from repro.bounds.candidates import reduce_candidates
from repro.bounds.incremental import IncrementalBoundPair, eq1_values_at
from repro.bounds.iterative import bound_pair
from repro.core.eq1 import apply_eq1
from repro.core.errors import GraphError, SamplingError
from repro.core.exact import exact_default_probabilities
from repro.core.graph import UncertainGraph
from repro.datasets.powerlaw import directed_powerlaw_edges
from repro.datasets.registry import load_dataset
from repro.datasets.temporal import build_guarantee_panel
from repro.sampling.indexed import (
    IndexedReverseSampler,
    derive_stream_key,
    hashed_uniforms,
)
from repro.sampling.sample_size import reduced_sample_size
from repro.streaming.events import (
    BulkEdgeProbabilityUpdate,
    BulkSelfRiskUpdate,
    EdgeProbabilityUpdate,
    SelfRiskUpdate,
    apply_event,
)
from repro.streaming.monitor import TopKMonitor
from repro.streaming.replay import panel_update_stream, random_patch_stream


def powerlaw_graph(n: int, seed: int, beta_probs: bool = True) -> UncertainGraph:
    rng = np.random.default_rng(seed)
    src, dst = directed_powerlaw_edges(n, 3 * n, seed=rng)
    if beta_probs:
        probs = np.clip(rng.beta(2.0, 4.0, src.size), 0.01, 0.95)
    else:
        probs = rng.random(src.size)
    return UncertainGraph.from_arrays(rng.random(n) * 0.3, src, dst, probs)


class TestHashedUniforms:
    def test_range_and_determinism(self):
        key = derive_stream_key(3)
        u = hashed_uniforms(key, np.arange(10_000))
        assert float(u.min()) >= 0.0
        assert float(u.max()) < 1.0
        assert np.array_equal(u, hashed_uniforms(key, np.arange(10_000)))

    def test_roughly_uniform(self):
        u = hashed_uniforms(derive_stream_key(0), np.arange(50_000))
        histogram, _ = np.histogram(u, bins=10, range=(0.0, 1.0))
        assert histogram.min() > 4500 and histogram.max() < 5500

    def test_keys_decorrelate_streams(self):
        counters = np.arange(1000)
        a = hashed_uniforms(derive_stream_key(1), counters)
        b = hashed_uniforms(derive_stream_key(2), counters)
        assert not np.array_equal(a, b)

    def test_int_seed_key_is_stable(self):
        assert derive_stream_key(5) == derive_stream_key(5)
        assert derive_stream_key(5) != derive_stream_key(6)


class TestIndexedReverseSampler:
    def test_matches_reference_world_per_world(self):
        graph = powerlaw_graph(80, seed=4)
        # A spread of candidates, then duplicate and subset slots.
        for candidates in (np.arange(0, 80, 3), np.array([3, 0, 3, 5])):
            sampler = IndexedReverseSampler(graph, candidates, seed=11)
            arena = WorldArena(graph)
            for world in range(25):
                node_u = sampler.node_uniforms(
                    world, np.arange(graph.num_nodes)
                )
                edge_u = sampler.edge_uniforms(
                    world, np.arange(graph.num_edges)
                )
                reference = arena.new_world(
                    node_uniforms=node_u, edge_uniforms=edge_u
                )
                expected = np.fromiter(
                    (reference.candidate_defaults(int(v)) for v in candidates),
                    dtype=bool,
                    count=candidates.size,
                )
                got = sampler.outcomes_for_worlds([world]).outcomes[0]
                assert np.array_equal(got, expected)
        assert got[0] == got[2]  # duplicate candidate slots agree

    def test_duplicate_and_subset_candidates(self):
        """A candidate's outcome in a world is a property of the world:
        it does not depend on which other candidates share the sampler,
        nor on repeated slots."""
        graph = powerlaw_graph(80, seed=4)
        worlds = np.arange(25)
        every = IndexedReverseSampler(
            graph, np.arange(graph.num_nodes), seed=11
        ).outcomes_for_worlds(worlds)
        candidates = np.array([3, 0, 3, 5])
        subset = IndexedReverseSampler(
            graph, candidates, seed=11
        ).outcomes_for_worlds(worlds)
        assert subset.outcomes.shape == (worlds.size, candidates.size)
        assert np.array_equal(subset.outcomes, every.outcomes[:, candidates])

    @pytest.mark.parametrize("fixture", ["paper_graph", "small_random_graph"])
    def test_matches_exact_probabilities(self, fixture, request):
        graph = request.getfixturevalue(fixture)
        exact = exact_default_probabilities(graph)
        t = 6000
        estimate = IndexedReverseSampler(
            graph, np.arange(graph.num_nodes), seed=3
        ).estimate_probabilities(t)
        sigma = np.sqrt(exact * (1 - exact) / t)
        assert np.all(np.abs(estimate - exact) < 4 * sigma + 1e-9)

    def test_touch_counters_identical_on_edgeless_graph(self):
        """The indexed counters are in the reference sampler's unit."""
        graph = UncertainGraph()
        graph.add_node("a", 0.5)
        graph.add_node("b", 0.2)
        samples = 40
        indexed = IndexedReverseSampler(graph, [0, 1], seed=0)
        indexed.run(samples)
        reference = ReverseSampler(graph, [0, 1], seed=0)
        reference.run(samples)
        assert indexed.nodes_touched == reference.nodes_touched == samples * 2
        assert indexed.edges_touched == reference.edges_touched == 0

    def test_outcomes_independent_of_world_batch(self):
        graph = powerlaw_graph(120, seed=5)
        candidates = np.arange(30)
        small = IndexedReverseSampler(
            graph, candidates, seed=3, world_batch=2
        ).run(40)
        large = IndexedReverseSampler(
            graph, candidates, seed=3, world_batch=64
        ).run(40)
        assert np.array_equal(small.counts, large.counts)

    def test_random_access_equals_sequential(self):
        graph = powerlaw_graph(100, seed=6)
        candidates = np.arange(20)
        sampler = IndexedReverseSampler(graph, candidates, seed=9)
        sequential = sampler.run(30)
        fresh = IndexedReverseSampler(graph, candidates, seed=9)
        block = fresh.outcomes_for_worlds(np.arange(30))
        assert np.array_equal(block.outcomes.sum(axis=0), sequential.counts)
        # A shuffled world order evaluates to the same outcomes per world.
        shuffled = np.random.default_rng(0).permutation(30)
        again = fresh.outcomes_for_worlds(shuffled)
        assert np.array_equal(
            again.outcomes[np.argsort(shuffled)], block.outcomes
        )

    def test_sequential_runs_use_fresh_worlds(self):
        graph = powerlaw_graph(60, seed=8)
        sampler = IndexedReverseSampler(graph, np.arange(10), seed=1)
        first = sampler.run(10)
        second = sampler.run(10)
        reference = IndexedReverseSampler(graph, np.arange(10), seed=1)
        block = reference.outcomes_for_worlds(np.arange(20))
        assert np.array_equal(
            first.counts + second.counts, block.outcomes.sum(axis=0)
        )

    def test_touched_masks_cover_every_outcome_dependency(self):
        graph = powerlaw_graph(70, seed=9)
        sampler = IndexedReverseSampler(graph, np.arange(12), seed=4)
        block = sampler.outcomes_for_worlds(
            np.arange(15), collect_touched=True
        )
        # Candidates are always drawn, hence always touched.
        assert block.touched_nodes[:, :12].all()
        # Expanded nodes are the touched ones that did not self-default.
        assert not (block.expanded_nodes & ~block.touched_nodes).any()
        # Draw counters must agree with the touched masks: a world draws
        # every in-edge of each node it expands.
        assert np.array_equal(
            block.touched_nodes.sum(axis=1), block.node_draws
        )
        heads = graph.edge_array[1]
        assert np.array_equal(
            block.expanded_nodes[:, heads].sum(axis=1), block.edge_draws
        )

    def test_validation(self):
        graph = powerlaw_graph(30, seed=10)
        sampler = IndexedReverseSampler(graph, np.arange(5), seed=0)
        with pytest.raises(SamplingError):
            sampler.run(0)
        with pytest.raises(SamplingError):
            sampler.outcomes_for_worlds(np.empty(0, dtype=np.int64))
        with pytest.raises(SamplingError):
            sampler.outcomes_for_worlds([-1])
        for mode in ("dense", "compact", 1):
            with pytest.raises(SamplingError, match="must be a bool"):
                sampler.outcomes_for_worlds([0], collect_touched=mode)
        with pytest.raises(SamplingError):
            IndexedReverseSampler(graph, np.empty(0, dtype=np.int64))

    def test_validates_candidates(self, paper_graph):
        for bad in ([], [99], [-1]):
            with pytest.raises(SamplingError):
                IndexedReverseSampler(paper_graph, bad)
        with pytest.raises(SamplingError):
            IndexedReverseSampler(paper_graph, [0], world_batch=0)

    def test_samples_must_be_positive(self, paper_graph):
        sampler = IndexedReverseSampler(paper_graph, [0], seed=0)
        with pytest.raises(SamplingError):
            sampler.run(0)
        with pytest.raises(SamplingError):
            sampler.run(-1)

    def test_usable_by_bsr_detector(self):
        graph = powerlaw_graph(150, seed=11)
        result = BoundedSampleReverseDetector(seed=3).detect(graph, 5)
        assert len(result.nodes) == 5
        again = BoundedSampleReverseDetector(seed=3).detect(graph, 5)
        assert result.nodes == again.nodes and result.scores == again.scores



class TestEq1ValuesAt:
    def test_bit_identical_to_full_operator(self):
        graph = powerlaw_graph(200, seed=12)
        rng = np.random.default_rng(0)
        current = rng.random(graph.num_nodes)
        full = apply_eq1(graph, current)
        for _ in range(5):
            subset = np.unique(rng.integers(0, graph.num_nodes, size=37))
            assert np.array_equal(
                eq1_values_at(graph, current, subset), full[subset]
            )

    def test_isolated_nodes(self):
        graph = UncertainGraph([("a", 0.3), ("b", 0.7)], [])
        values = eq1_values_at(
            graph, np.zeros(2), np.arange(2, dtype=np.int64)
        )
        assert np.array_equal(values, apply_eq1(graph, np.zeros(2)))


class TestIncrementalBoundPair:
    @pytest.mark.parametrize("orders", [(2, 2), (1, 3), (3, 1), (4, 4)])
    def test_refresh_bit_identical_to_fresh(self, orders):
        lower_order, upper_order = orders
        graph = powerlaw_graph(150, seed=13)
        cache = IncrementalBoundPair(graph, lower_order, upper_order)
        rng = np.random.default_rng(1)
        for _ in range(15):
            if rng.random() < 0.5:
                index = int(rng.integers(graph.num_nodes))
                graph.set_self_risk(graph.label(index), float(rng.random()))
                delta = cache.refresh(
                    np.array([index]), np.empty(0, dtype=np.int64)
                )
            else:
                edge = int(rng.integers(graph.num_edges))
                src, dst, _ = graph.edge_array
                graph.set_edge_probability(
                    graph.label(int(src[edge])),
                    graph.label(int(dst[edge])),
                    float(rng.random()),
                )
                delta = cache.refresh(
                    np.empty(0, dtype=np.int64), np.array([int(dst[edge])])
                )
            assert delta is not None
            lower, upper = bound_pair(graph, lower_order, upper_order)
            assert np.array_equal(cache.lower, lower)
            assert np.array_equal(cache.upper, upper)

    def test_delta_reports_exact_changes(self):
        graph = powerlaw_graph(100, seed=14)
        cache = IncrementalBoundPair(graph, 2, 2)
        before_lower = cache.lower.copy()
        before_upper = cache.upper.copy()
        index = int(np.argmax(graph.out_csr().degrees))
        graph.set_self_risk(graph.label(index), 0.99)
        delta = cache.refresh(np.array([index]), np.empty(0, dtype=np.int64))
        changed_lower = np.flatnonzero(before_lower != cache.lower)
        changed_upper = np.flatnonzero(before_upper != cache.upper)
        assert np.array_equal(np.sort(delta.lower_changed), changed_lower)
        assert np.array_equal(np.sort(delta.upper_changed), changed_upper)
        assert delta.max_changed_value >= 0.99

    def test_no_op_refresh(self):
        graph = powerlaw_graph(50, seed=15)
        cache = IncrementalBoundPair(graph)
        delta = cache.refresh(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        assert delta is not None and delta.lower_changed.size == 0
        assert delta.max_changed_value == -np.inf

    def test_limit_aborts_then_rebuild_recovers(self):
        graph = powerlaw_graph(100, seed=16)
        cache = IncrementalBoundPair(graph)
        graph.set_all_self_risks(
            np.clip(graph.self_risk_array + 0.05, 0.0, 1.0)
        )
        assert (
            cache.refresh(
                np.arange(graph.num_nodes),
                np.empty(0, dtype=np.int64),
                limit=5,
            )
            is None
        )
        cache.rebuild()
        lower, upper = bound_pair(graph, 2, 2)
        assert np.array_equal(cache.lower, lower)
        assert np.array_equal(cache.upper, upper)

    def test_rejects_bad_orders(self):
        graph = powerlaw_graph(20, seed=17)
        with pytest.raises(SamplingError):
            IncrementalBoundPair(graph, lower_order=0)


def assert_equivalent(result, fresh):
    """The monitor's bit-identity contract against fresh detection.

    ``same_answer`` is the shared answer contract; the monitor
    additionally reproduces the engine's exact work telemetry.
    """
    assert result.same_answer(fresh)
    assert result.details["nodes_touched"] == fresh.details["nodes_touched"]
    assert result.details["edges_touched"] == fresh.details["edges_touched"]


class TestTopKMonitorOracle:
    def test_random_patches_match_fresh_detection(self):
        graph = powerlaw_graph(200, seed=18)
        monitor = TopKMonitor(graph, 6, seed=21)
        assert_equivalent(
            monitor.top_k(),
            BoundedSampleReverseDetector(seed=21).detect(graph, 6),
        )
        for event in random_patch_stream(graph, 25, seed=1, drift=0.1):
            monitor.apply([event])
            fresh = BoundedSampleReverseDetector(seed=21).detect(graph, 6)
            assert_equivalent(monitor.top_k(), fresh)

    def test_large_patches_match_fresh_detection(self):
        graph = powerlaw_graph(150, seed=19)
        monitor = TopKMonitor(graph, 5, seed=8)
        for event in random_patch_stream(graph, 20, seed=2, drift=None):
            monitor.apply([event])
            fresh = BoundedSampleReverseDetector(seed=8).detect(graph, 5)
            assert_equivalent(monitor.top_k(), fresh)

    @pytest.mark.slow
    def test_temporal_panel_replay_matches_fresh_detection(self):
        panel = build_guarantee_panel(num_nodes=250, num_edges=288, seed=6)
        graph = panel.graph
        monitor = TopKMonitor(graph, 8, seed=13)
        for year, events in panel.update_stream():
            monitor.apply(events)
            fresh = BoundedSampleReverseDetector(seed=13).detect(graph, 8)
            assert_equivalent(monitor.top_k(), fresh)

    def test_bulk_updates_route_through_full_fallback(self):
        graph = powerlaw_graph(120, seed=20)
        monitor = TopKMonitor(graph, 4, seed=3)
        monitor.top_k()
        rng = np.random.default_rng(4)
        monitor.apply([BulkSelfRiskUpdate(values=rng.random(120) * 0.4)])
        result = monitor.top_k()
        assert monitor.last_report.mode == "full"
        assert monitor.last_report.reason == "dirty region above threshold"
        assert_equivalent(
            result,
            BoundedSampleReverseDetector(seed=3).detect(graph, 4),
        )
        _, _, probs = graph.edge_array
        monitor.apply(
            [BulkEdgeProbabilityUpdate(values=np.clip(probs + 0.2, 0, 1))]
        )
        assert_equivalent(
            monitor.top_k(),
            BoundedSampleReverseDetector(seed=3).detect(graph, 4),
        )

    def test_direct_topology_mutation_without_events_is_detected(self):
        """Regression: top_k() after a *direct* graph mutation (no event
        routed through the monitor) must not serve the stale cache."""
        graph = powerlaw_graph(80, seed=31)
        monitor = TopKMonitor(graph, 4, seed=2)
        monitor.top_k()
        graph.add_node("whale", 0.95)
        graph.add_edge("whale", graph.label(0), 0.9)
        assert monitor.pending_updates == 0  # nothing routed through us
        result = monitor.top_k()
        assert monitor.last_report.reason == "graph topology changed"
        assert_equivalent(
            result,
            BoundedSampleReverseDetector(seed=2).detect(graph, 4),
        )

    def test_structural_mutation_falls_back_to_full(self):
        graph = powerlaw_graph(80, seed=21)
        monitor = TopKMonitor(graph, 4, seed=5)
        monitor.top_k()
        graph.add_node("fresh", 0.6)
        graph.add_edge("fresh", graph.label(0), 0.7)
        monitor.set_self_risk("fresh", 0.65)
        result = monitor.top_k()
        assert monitor.last_report.mode == "full"
        assert monitor.last_report.reason == "graph topology changed"
        assert_equivalent(
            result,
            BoundedSampleReverseDetector(seed=5).detect(graph, 4),
        )


class TestTopKMonitorBehaviour:
    def test_clean_refresh_reuses_everything(self):
        graph = powerlaw_graph(100, seed=22)
        monitor = TopKMonitor(graph, 5, seed=0)
        first = monitor.top_k()
        report = monitor.refresh()
        assert report.mode == "clean"
        assert monitor.top_k() is first

    def test_reverted_patch_is_clean(self):
        graph = powerlaw_graph(100, seed=23)
        monitor = TopKMonitor(graph, 5, seed=0)
        monitor.top_k()
        label = graph.label(0)
        original = graph.self_risk(label)
        monitor.set_self_risk(label, 0.9)
        monitor.set_self_risk(label, original)
        assert monitor.pending_updates == 1
        report = monitor.refresh()
        assert report.mode == "clean"
        assert monitor.pending_updates == 0

    def test_unchanged_writes_do_not_dirty(self):
        graph = powerlaw_graph(60, seed=24)
        monitor = TopKMonitor(graph, 3, seed=0)
        label = graph.label(1)
        monitor.set_self_risk(label, graph.self_risk(label))
        src, dst, _ = graph.edge_array
        s, d = graph.label(int(src[0])), graph.label(int(dst[0]))
        monitor.set_edge_probability(s, d, graph.edge_probability(s, d))
        assert monitor.pending_updates == 0

    def test_apply_dispatch_and_unknown_event(self):
        graph = powerlaw_graph(60, seed=25)
        monitor = TopKMonitor(graph, 3, seed=0)
        src, dst, _ = graph.edge_array
        events = [
            SelfRiskUpdate(label=graph.label(2), value=0.42),
            EdgeProbabilityUpdate(
                src=graph.label(int(src[0])),
                dst=graph.label(int(dst[0])),
                value=0.5,
            ),
        ]
        assert monitor.apply(events) == 2
        assert graph.self_risk(graph.label(2)) == 0.42
        with pytest.raises(GraphError):
            monitor.apply(["not-an-event"])

    def test_telemetry_counts_modes(self):
        graph = powerlaw_graph(150, seed=26)
        monitor = TopKMonitor(graph, 5, seed=7)
        monitor.top_k()
        for event in random_patch_stream(graph, 10, seed=3, drift=0.05):
            monitor.apply([event])
            monitor.top_k()
        stats = monitor.stats
        assert stats["refreshes"] == 11
        assert stats["full"] >= 1
        assert stats["full"] + stats["incremental"] + stats["clean"] == 11

    def test_validates_parameters(self):
        graph = powerlaw_graph(30, seed=27)
        with pytest.raises(GraphError):
            TopKMonitor(graph, 0)
        with pytest.raises(GraphError):
            TopKMonitor(graph, 3, algorithm="nope")
        with pytest.raises(SamplingError):
            TopKMonitor(graph, 3, algorithm="bsrbk", bk=1)
        # One engine, one world state, one counter layout: no options.
        for retired in (
            "engine",
            "world_state",
            "world_state_budget",
            "counter_layout",
            "full_rebuild_fraction",
        ):
            with pytest.raises(TypeError):
                TopKMonitor(graph, 3, **{retired: None})

    def test_world_state_budget_zero_still_exact(self, monkeypatch):
        monkeypatch.setattr(monitor_module, "WORLD_STATE_BUDGET", 0)
        graph = powerlaw_graph(120, seed=28)
        monitor = TopKMonitor(graph, 4, seed=9)
        for event in random_patch_stream(graph, 8, seed=5, drift=0.1):
            monitor.apply([event])
            fresh = BoundedSampleReverseDetector(seed=9).detect(graph, 4)
            assert_equivalent(monitor.top_k(), fresh)


    def test_touched_state_filters_most_crossings(self, monkeypatch):
        """Touched-entity state is what keeps repair cheap: a world is
        re-explored only if it drew the patched entity, not whenever the
        entity's uniform crosses.  Timing-free: repair counts are seeded."""
        base = load_dataset("guarantee", scale=0.05, seed=3).graph
        drifted = base.copy()
        events = []
        for event in random_patch_stream(drifted, 60, seed=4, drift=0.02):
            apply_event(drifted, event)
            events.append(event)

        def replay():
            monitor = TopKMonitor(base.copy(), 10, seed=6)
            monitor.top_k()
            answers, repaired = [], 0
            for start in range(0, len(events), 10):
                monitor.apply(events[start : start + 10])
                repaired += monitor.refresh().worlds_repaired
                answers.append(monitor.top_k())
            return answers, repaired

        with_state, repaired_with_state = replay()
        with monkeypatch.context() as patch:
            patch.setattr(monitor_module, "WORLD_STATE_BUDGET", 0)
            without_state, repaired_without_state = replay()
        for kept, dropped in zip(with_state, without_state):
            assert kept.same_answer(dropped)
        assert repaired_with_state > 0
        assert repaired_without_state >= 2 * repaired_with_state


class TestReplayStreams:
    def test_panel_update_stream_years(self):
        panel = build_guarantee_panel(num_nodes=120, num_edges=138, seed=1)
        batches = list(panel_update_stream(panel))
        assert [year for year, _ in batches] == [2012, 2014, 2015, 2016]
        for year, events in batches:
            assert len(events) == 1
            assert isinstance(events[0], BulkSelfRiskUpdate)
            assert np.array_equal(
                events[0].values, panel.snapshots[year].self_risks
            )

    def test_panel_method_delegates(self):
        panel = build_guarantee_panel(num_nodes=60, num_edges=69, seed=2)
        years = [year for year, _ in panel.update_stream()]
        assert years == [2012, 2014, 2015, 2016]

    def test_random_patch_stream_is_reproducible(self):
        graph = powerlaw_graph(50, seed=29)
        first = list(random_patch_stream(graph, 10, seed=3))
        second = list(random_patch_stream(graph, 10, seed=3))
        assert first == second
        assert len(first) == 10

    def test_random_patch_stream_drift_stays_in_range(self):
        graph = powerlaw_graph(50, seed=30)
        for event in random_patch_stream(graph, 30, seed=4, drift=0.5):
            assert 0.0 <= event.value <= 1.0

    def test_random_patch_stream_reaches_edges_added_mid_stream(self):
        """The stream is lazy, so edges appended while it is paused are
        drawn too, with their own endpoints."""
        graph = UncertainGraph([(0, 0.2), (1, 0.2)], [(0, 1, 0.5)])
        stream = random_patch_stream(graph, 60, seed=5, edge_fraction=1.0)
        first = next(stream)
        assert (first.src, first.dst) == (0, 1)
        for i in range(2, 40):
            graph.add_node(i, 0.1)
            graph.add_edge(i - 1, i, 0.5)
        seen = {(event.src, event.dst) for event in stream}
        assert seen <= {(i, i + 1) for i in range(39)}
        assert max(src for src, _ in seen) > 1

    def test_node_only_graph_never_yields_edge_events(self):
        graph = UncertainGraph([(i, 0.2) for i in range(5)], [])
        events = list(random_patch_stream(graph, 10, seed=0))
        assert all(isinstance(event, SelfRiskUpdate) for event in events)


class TestCoalescedIngestion:
    """The queue's last-write-wins contract against the monitor.

    A coalesced bulk flush must be bit-identical to serial application
    of the same events — the guarantee the serving layer's ingestion
    queue leans on — and the refresh must not depend on the order
    events were ingested in.
    """

    def _stream_with_repeats(self, graph, count, seed):
        events = []
        for event in random_patch_stream(graph, count, seed=seed, drift=0.2):
            events.append(event)
        # Re-patch a prefix of the touched entities so coalescing has
        # genuine same-entity collisions to collapse.
        rng = np.random.default_rng(seed + 1)
        for event in list(events[: count // 2]):
            if isinstance(event, SelfRiskUpdate):
                events.append(
                    SelfRiskUpdate(event.label, float(rng.random() * 0.5))
                )
            else:
                events.append(
                    EdgeProbabilityUpdate(
                        event.src, event.dst, float(rng.random())
                    )
                )
        return events

    def test_coalesced_flush_matches_serial_application(self):
        from repro.serving.coalesce import coalesce_events

        base = powerlaw_graph(300, seed=31)
        events = self._stream_with_repeats(base.copy(), 16, seed=8)

        serial_graph = base.copy()
        serial = TopKMonitor(serial_graph, 5, seed=2)
        serial.top_k()
        for event in events:
            serial.apply([event])
        serial_result = serial.top_k()

        coalesced_graph = base.copy()
        coalesced = TopKMonitor(coalesced_graph, 5, seed=2)
        coalesced.top_k()
        batch = coalesce_events(events)
        assert len(batch) < len(events)
        coalesced.apply(batch)
        report = coalesced.refresh()
        coalesced_result = coalesced.top_k()

        # Identical final graph state...
        assert np.array_equal(
            serial_graph.self_risk_array, coalesced_graph.self_risk_array
        )
        assert np.array_equal(
            serial_graph.edge_array[2], coalesced_graph.edge_array[2]
        )
        # ...identical answers, bit for bit...
        assert_equivalent(coalesced_result, serial_result)
        # ...and both equal to fresh detection on the patched graph.
        fresh = BoundedSampleReverseDetector(seed=2).detect(coalesced_graph, 5)
        assert_equivalent(coalesced_result, fresh)
        assert report.dirty_nodes + report.dirty_edges <= len(batch)

    def test_refresh_is_ingestion_order_deterministic(self):
        from repro.serving.coalesce import event_key

        base = powerlaw_graph(300, seed=32)
        # Keep only the first write per entity: absolute-value patches
        # to DISTINCT entities commute, so forward and reversed
        # ingestion provably leave the same graph — the refresh must
        # then be bit-identical, unconditionally.
        events, seen = [], set()
        for event in random_patch_stream(
            base.copy(), 20, seed=9, drift=None
        ):
            key = event_key(event)
            if key not in seen:
                seen.add(key)
                events.append(event)
        assert len(events) >= 10

        def run(ordered_events):
            graph = base.copy()
            monitor = TopKMonitor(graph, 5, seed=4)
            monitor.top_k()
            monitor.apply(ordered_events)
            report = monitor.refresh()
            return monitor.top_k(), report, graph

        forward_result, forward_report, forward_graph = run(events)
        reverse_result, reverse_report, reverse_graph = run(events[::-1])
        assert np.array_equal(
            forward_graph.self_risk_array, reverse_graph.self_risk_array
        )
        assert np.array_equal(
            forward_graph.edge_array[2], reverse_graph.edge_array[2]
        )
        assert_equivalent(reverse_result, forward_result)
        assert reverse_report.bounds_recomputed == (
            forward_report.bounds_recomputed
        )
        assert reverse_report.worlds_repaired == (
            forward_report.worlds_repaired
        )


def assert_bsrbk_equivalent(result, fresh):
    """BSRBK's monitor contract: the BSR contract plus the stop point."""
    assert result.method == fresh.method == "BSRBK"
    assert_equivalent(result, fresh)
    assert result.details["stopped_early"] == fresh.details["stopped_early"]
    assert result.details["bk"] == fresh.details["bk"]


class TestTopKMonitorBSRBK:
    """Incremental BSRBK: bit-identity to a fresh BottomKDetector at
    every step (the tentpole's acceptance criterion)."""

    @pytest.mark.parametrize("bk", [4, 8])
    def test_random_patches_match_fresh_bsrbk(self, bk):
        graph = powerlaw_graph(200, seed=18)
        monitor = TopKMonitor(graph, 6, seed=21, algorithm="bsrbk", bk=bk)
        fresh_args = dict(bk=bk, seed=21)
        assert_bsrbk_equivalent(
            monitor.top_k(),
            BottomKDetector(**fresh_args).detect(graph, 6),
        )
        repaired = 0
        for event in random_patch_stream(graph, 20, seed=1, drift=0.1):
            monitor.apply([event])
            fresh = BottomKDetector(**fresh_args).detect(graph, 6)
            result = monitor.top_k()
            assert_bsrbk_equivalent(result, fresh)
            # The stopping threshold must track k_remaining every
            # refresh, not just on resamples (it can move while the
            # candidate set and budget stay equal).
            assert monitor._stop_after == monitor.k - result.k_verified
            repaired += monitor.last_report.worlds_repaired
        assert monitor.stats["incremental"] > 0

    def test_large_patches_match_fresh_bsrbk(self):
        graph = powerlaw_graph(150, seed=19)
        monitor = TopKMonitor(graph, 5, seed=8, algorithm="bsrbk")
        for event in random_patch_stream(graph, 12, seed=2, drift=None):
            monitor.apply([event])
            fresh = BottomKDetector(bk=16, seed=8).detect(graph, 5)
            assert_bsrbk_equivalent(monitor.top_k(), fresh)

    def test_budget_zero_world_state_still_exact(self, monkeypatch):
        monkeypatch.setattr(monitor_module, "WORLD_STATE_BUDGET", 0)
        graph = powerlaw_graph(120, seed=23)
        monitor = TopKMonitor(graph, 4, seed=9, algorithm="bsrbk")
        for event in random_patch_stream(graph, 8, seed=5, drift=0.1):
            monitor.apply([event])
            fresh = BottomKDetector(bk=16, seed=9).detect(graph, 4)
            assert_bsrbk_equivalent(monitor.top_k(), fresh)

    def test_validates_algorithm_and_bk(self):
        """The monitor rejects the bk values BottomKDetector rejects and
        accepts the smallest one it accepts."""
        graph = powerlaw_graph(30, seed=24)
        with pytest.raises(GraphError):
            TopKMonitor(graph, 3, algorithm="nope")
        for bk in (0, 1):
            with pytest.raises(SamplingError):
                BottomKDetector(bk=bk)
            with pytest.raises(SamplingError):
                TopKMonitor(graph, 3, algorithm="bsrbk", bk=bk)
        TopKMonitor(graph, 3, algorithm="bsrbk", bk=2)

    def test_fresh_bsrbk_indexed_is_chunk_schedule_independent(
        self, monkeypatch
    ):
        """The one-shot indexed BSRBK result must not depend on the
        sampler's world_batch (and hence the chunk schedule the early
        stop evaluates in) — worlds and hashes are order-independent."""
        graph = powerlaw_graph(100, seed=25)

        def pinned_engine(world_batch):
            class PinnedBatchSampler(IndexedReverseSampler):
                def __init__(self, graph, candidates, seed=None, **kwargs):
                    kwargs["world_batch"] = world_batch
                    super().__init__(graph, candidates, seed, **kwargs)

            return PinnedBatchSampler

        results = []
        for world_batch in (None, 3, 70, 100_000):
            if world_batch is not None:
                # chunk = max(64, world_batch) and grows geometrically,
                # so these pins produce genuinely different evaluation
                # schedules (including all-at-once).
                monkeypatch.setattr(
                    bsrbk_module,
                    "IndexedReverseSampler",
                    pinned_engine(world_batch),
                )
            results.append(BottomKDetector(bk=8, seed=3).detect(graph, 4))
        for other in results[1:]:
            assert results[0].same_answer(other)
            assert results[0].details == other.details

    def test_fresh_bsrbk_charges_only_processed_worlds(self):
        """BSRBK evaluates worlds a chunk at a time, but its draw
        counters charge only the worlds the stopping rule consumed."""
        graph = powerlaw_graph(100, seed=25)
        result = BottomKDetector(bk=8, seed=3).detect(graph, 4)
        processed = result.samples_used
        # The first chunk holds at least 64 worlds, so stopping inside
        # it leaves evaluated worlds that must not be charged.
        assert result.details["stopped_early"] and processed < 64
        lower, upper = bound_pair(graph, 2, 2)
        reduction = reduce_candidates(graph, lower, upper, 4)
        budget = reduced_sample_size(
            reduction.candidate_size, 4, reduction.k_verified, 0.3, 0.1
        )
        sampler = IndexedReverseSampler(graph, reduction.candidates, seed=3)
        order = np.argsort(
            sampler.world_hashes(np.arange(budget)), kind="stable"
        )
        charged = sampler.outcomes_for_worlds(order[:processed])
        assert result.details["nodes_touched"] == charged.node_draws.sum()
        assert result.details["edges_touched"] == charged.edge_draws.sum()
        first_chunk = sampler.outcomes_for_worlds(order[:64])
        assert first_chunk.node_draws.sum() > charged.node_draws.sum()


class TestCandidateColumnRepair:
    """Satellite: candidate/budget changes absorbed without resampling,
    with draw-count bookkeeping exactly equal to fresh detection."""

    def _drive(self, world_state, monkeypatch):
        graph = powerlaw_graph(300, seed=18)
        if world_state == "dense":
            monkeypatch.setattr(
                monitor_module, "PackedWorldState", dense_state_for(graph)
            )
        monitor = TopKMonitor(graph, 6, seed=21)
        monitor.top_k()
        rng = np.random.default_rng(5)
        modes = {}
        for _ in range(25):
            node = graph.label(int(rng.integers(0, 300)))
            current = graph.self_risk(node)
            # Rising self-risks push bound values over Tl: the reduction
            # re-runs and the candidate set grows -> the columned path.
            monitor.set_self_risk(node, min(0.95, current + 0.15))
            result = monitor.top_k()
            fresh = BoundedSampleReverseDetector(seed=21).detect(graph, 6)
            assert_equivalent(result, fresh)
            report = monitor.last_report
            modes[report.sampling] = modes.get(report.sampling, 0) + 1
        return monitor, modes

    @pytest.mark.parametrize("world_state", ["packed", "dense"])
    def test_growing_candidates_column_in_exactly(
        self, world_state, monkeypatch
    ):
        monitor, modes = self._drive(world_state, monkeypatch)
        # The whole point: candidate growth must not resample.
        assert modes.get("columned", 0) > 0
        assert modes.get("resampled", 0) == 0
        assert monitor.stats["worlds_columned"] >= 0

    def test_columned_budget_growth_appends_worlds(self):
        """When the Theorem-5 budget grows with the candidate set, the
        appended worlds are explored fresh and the prefix is kept."""
        graph = powerlaw_graph(300, seed=18)
        monitor = TopKMonitor(graph, 6, seed=21)
        monitor.top_k()
        before = monitor.top_k().samples_used
        rng = np.random.default_rng(5)
        grew = False
        for _ in range(25):
            node = graph.label(int(rng.integers(0, 300)))
            current = graph.self_risk(node)
            monitor.set_self_risk(node, min(0.95, current + 0.15))
            result = monitor.top_k()
            if (
                monitor.last_report.sampling == "columned"
                and result.samples_used > before
            ):
                grew = True
            before = result.samples_used
        assert grew, "stream never grew the sample budget via columning"

    def test_removed_candidates_fall_back_to_resample(self):
        """Candidate removal shrinks every world's closure; only a
        re-exploration reproduces fresh work counters, so the monitor
        must resample — and stay exact."""
        graph = powerlaw_graph(250, seed=30)
        monitor = TopKMonitor(graph, 5, seed=11)
        monitor.top_k()
        rng = np.random.default_rng(7)
        saw_resample = False
        targets = [graph.label(int(i)) for i in rng.integers(0, 250, 12)]
        for node in targets:
            monitor.set_self_risk(node, 0.9)
        monitor.top_k()
        for node in targets:
            # Dropping risks back pulls candidates out of the set.
            monitor.set_self_risk(node, 0.01)
            result = monitor.top_k()
            fresh = BoundedSampleReverseDetector(seed=11).detect(graph, 5)
            assert_equivalent(result, fresh)
            if monitor.last_report.sampling == "resampled":
                saw_resample = True
        assert saw_resample


class TestBoundsOnlyAnswers:
    """The always-warm Eq-(1) degraded path behind ``bounds_topk()``."""

    def test_flagged_and_bounds_consistent(self):
        graph = powerlaw_graph(150, seed=33)
        monitor = TopKMonitor(graph, 5, seed=4)
        result = monitor.bounds_topk()
        assert result.degraded
        assert result.details["bounds_only"]
        assert result.samples_used == 0
        assert len(result.nodes) == 5
        # details carry the bound pair of each returned node, aligned
        # with ``result.nodes``.
        lower = np.asarray(result.details["bounds_lower"])
        upper = np.asarray(result.details["bounds_upper"])
        assert lower.shape == upper.shape == (5,)
        assert np.all(lower <= upper + 1e-12)
        # Every returned node's upper bound clears the k-th lower bound
        # (the bounds-consistency the degraded contract promises).
        threshold = result.details["threshold_lower"]
        assert np.all(upper >= threshold - 1e-12)
        assert result.scores == dict(zip(result.nodes, lower.tolist()))

    def test_contains_every_certain_winner(self):
        """Any node whose LOWER bound beats the k-th UPPER bound is in
        every consistent top-k, so the degraded answer must keep it."""
        graph = powerlaw_graph(200, seed=34)
        k = 6
        monitor = TopKMonitor(graph, k, seed=4)
        result = monitor.bounds_topk()
        lower, upper = bound_pair(
            graph,
            result.details["lower_order"],
            result.details["upper_order"],
        )
        kth_upper = np.partition(upper, -k)[-k]
        certain = {
            graph.label(int(i))
            for i in np.flatnonzero(lower > kth_upper + 1e-12)
        }
        assert certain <= set(result.nodes)

    def test_read_only_and_cached(self):
        """bounds_topk() never mutates the pipeline: the exact oracle
        still holds afterwards, and repeat calls hit the one-slot
        cache until a setter actually changes something."""
        graph = powerlaw_graph(150, seed=35)
        monitor = TopKMonitor(graph, 5, seed=6)
        first = monitor.bounds_topk()
        assert monitor.bounds_topk() is first  # cached, no recompute
        exact = monitor.top_k()
        assert_equivalent(
            exact,
            BoundedSampleReverseDetector(seed=6).detect(graph, 5),
        )
        # top_k() doesn't advance the mutation counter, so the one-slot
        # cache still serves the cold-path result.
        assert monitor.bounds_topk() is first
        # A real change invalidates the cache; with the dirt still
        # pending the recompute takes the throwaway cold path.
        node = graph.label(0)
        monitor.set_self_risk(node, 0.77)
        cold = monitor.bounds_topk()
        assert cold is not first and not cold.details["bounds_reused"]
        # Fold the dirt in, change again, fold again: now the cache key
        # has moved *and* the pipeline is clean, so the recompute reuses
        # the incremental Eq-(1) iterates.
        monitor.top_k()
        monitor.set_self_risk(node, 0.78)
        monitor.top_k()
        warm = monitor.bounds_topk()
        assert warm.details["bounds_reused"]
        # A no-op write keeps the cache warm.
        monitor.set_self_risk(node, 0.78)
        assert monitor.bounds_topk() is warm
        # And the exact path is still bit-identical after all of it.
        assert_equivalent(
            monitor.top_k(),
            BoundedSampleReverseDetector(seed=6).detect(graph, 5),
        )

    def test_interleaved_with_event_stream_stays_exact(self):
        graph = powerlaw_graph(120, seed=36)
        monitor = TopKMonitor(graph, 4, seed=9)
        for event in random_patch_stream(graph, 10, seed=3, drift=0.1):
            monitor.apply([event])
            degraded = monitor.bounds_topk()
            assert degraded.degraded and len(degraded.nodes) == 4
            assert_equivalent(
                monitor.top_k(),
                BoundedSampleReverseDetector(seed=9).detect(graph, 4),
            )
