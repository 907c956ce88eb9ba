"""Tests for the Algorithm-5 oracle in ``reference_sampler.py``."""

from __future__ import annotations

import numpy as np
import pytest
from reference_sampler import ReverseSampler, ReverseWorld, WorldArena

from repro.core.errors import SamplingError
from repro.core.exact import exact_default_probabilities
from repro.core.graph import UncertainGraph
from repro.sampling.forward import ForwardSampler
from repro.sampling.rng import make_rng


class TestReverseWorld:
    def test_source_node_depends_only_on_self(self):
        graph = UncertainGraph()
        graph.add_node("src", 1.0)
        graph.add_node("dst", 0.0)
        graph.add_edge("src", "dst", 0.0)
        world = ReverseWorld(graph, make_rng(0))
        assert world.candidate_defaults(graph.index("src"))

    def test_certain_contagion_chain(self):
        graph = UncertainGraph()
        graph.add_node("a", 1.0)
        graph.add_node("b", 0.0)
        graph.add_node("c", 0.0)
        graph.add_edge("a", "b", 1.0)
        graph.add_edge("b", "c", 1.0)
        world = ReverseWorld(graph, make_rng(0))
        assert world.candidate_defaults(graph.index("c"))

    def test_no_risk_no_default(self):
        graph = UncertainGraph()
        graph.add_node("a", 0.0)
        graph.add_node("b", 0.0)
        graph.add_edge("a", "b", 1.0)
        world = ReverseWorld(graph, make_rng(0))
        assert not world.candidate_defaults(graph.index("b"))

    def test_memoisation_is_consistent_within_world(self, paper_graph):
        """Asking the same candidate twice gives the same answer."""
        for seed in range(20):
            world = ReverseWorld(paper_graph, make_rng(seed))
            e = paper_graph.index("E")
            first = world.candidate_defaults(e)
            second = world.candidate_defaults(e)
            assert first == second

    def test_hv_memo_propagates_to_later_candidates(self):
        """Once a node is known to default, dependants see it immediately."""
        graph = UncertainGraph()
        graph.add_node("root", 1.0)
        graph.add_node("mid", 0.0)
        graph.add_node("leaf", 0.0)
        graph.add_edge("root", "mid", 1.0)
        graph.add_edge("mid", "leaf", 1.0)
        world = ReverseWorld(graph, make_rng(0))
        assert world.candidate_defaults(graph.index("mid"))
        nodes_before = world.nodes_touched
        assert world.candidate_defaults(graph.index("leaf"))
        # leaf's search draws for leaf itself, then must stop at mid
        # (hv=1) without re-drawing mid or root.
        assert world.nodes_touched == nodes_before + 1

    def test_world_draws_each_choice_once(self, paper_graph):
        world = ReverseWorld(paper_graph, make_rng(1))
        for label in "EDCBA":
            world.candidate_defaults(paper_graph.index(label))
        assert world.nodes_touched <= paper_graph.num_nodes
        assert world.edges_touched <= paper_graph.num_edges


class TestReverseSampler:
    def test_validates_candidates(self, paper_graph):
        with pytest.raises(SamplingError):
            ReverseSampler(paper_graph, [])
        with pytest.raises(SamplingError):
            ReverseSampler(paper_graph, [99])
        with pytest.raises(SamplingError):
            ReverseSampler(paper_graph, [-1])

    def test_run_shape(self, paper_graph):
        candidates = [paper_graph.index("E"), paper_graph.index("D")]
        estimate = ReverseSampler(paper_graph, candidates, seed=0).run(100)
        assert estimate.counts.shape == (2,)
        assert estimate.samples == 100

    def test_samples_must_be_positive(self, paper_graph):
        sampler = ReverseSampler(paper_graph, [0], seed=0)
        with pytest.raises(SamplingError):
            sampler.run(0)

    def test_matches_exact_probabilities(self, paper_graph):
        exact = exact_default_probabilities(paper_graph)
        candidates = np.arange(paper_graph.num_nodes)
        t = 6000
        estimate = ReverseSampler(
            paper_graph, candidates, seed=3
        ).estimate_probabilities(t)
        sigma = np.sqrt(exact * (1 - exact) / t)
        assert np.all(np.abs(estimate - exact) < 4 * sigma + 1e-9)

    def test_matches_exact_on_random_graph(self, small_random_graph):
        exact = exact_default_probabilities(small_random_graph)
        candidates = np.arange(small_random_graph.num_nodes)
        t = 6000
        estimate = ReverseSampler(
            small_random_graph, candidates, seed=5
        ).estimate_probabilities(t)
        sigma = np.sqrt(exact * (1 - exact) / t)
        assert np.all(np.abs(estimate - exact) < 4 * sigma + 1e-9)

    def test_agrees_with_forward_sampler(self, small_random_graph):
        """The two sampling frameworks estimate the same quantities."""
        t = 6000
        forward = ForwardSampler(
            small_random_graph, seed=21
        ).estimate_probabilities(t)
        reverse = ReverseSampler(
            small_random_graph, np.arange(small_random_graph.num_nodes), seed=22
        ).estimate_probabilities(t)
        sigma = np.sqrt(2 * 0.25 / t)
        assert np.all(np.abs(forward - reverse) < 5 * sigma)

    def test_iter_samples_streaming(self, paper_graph):
        sampler = ReverseSampler(paper_graph, [paper_graph.index("E")], seed=0)
        outcomes = list(sampler.iter_samples(50))
        assert len(outcomes) == 50
        assert all(o.shape == (1,) for o in outcomes)
        assert all(o.dtype == np.bool_ for o in outcomes)

    def test_deterministic_with_seed(self, paper_graph):
        candidates = [paper_graph.index("E")]
        a = ReverseSampler(paper_graph, candidates, seed=8).run(300)
        b = ReverseSampler(paper_graph, candidates, seed=8).run(300)
        assert np.array_equal(a.counts, b.counts)

    def test_touch_counters_accumulate(self, paper_graph):
        sampler = ReverseSampler(
            paper_graph, np.arange(paper_graph.num_nodes), seed=0
        )
        sampler.run(10)
        assert sampler.nodes_touched > 0


class TestWorldArena:
    def test_new_world_bumps_epoch(self, paper_graph):
        arena = WorldArena(paper_graph, 0)
        assert arena.epoch == 0
        arena.new_world()
        assert arena.epoch == 1
        arena.new_world()
        assert arena.epoch == 2

    def test_worlds_share_no_state_across_epochs(self):
        """The hv/checked memos must reset (by stamp) between worlds."""
        graph = UncertainGraph()
        graph.add_node("root", 0.5)
        graph.add_node("leaf", 0.0)
        graph.add_edge("root", "leaf", 1.0)
        arena = WorldArena(graph, 0)
        n, m = graph.num_nodes, graph.num_edges
        defaulting = arena.new_world(
            node_uniforms=np.zeros(n), edge_uniforms=np.zeros(m)
        )
        assert defaulting.candidate_defaults(graph.index("leaf"))
        surviving = arena.new_world(
            node_uniforms=np.ones(n), edge_uniforms=np.zeros(m)
        )
        assert not surviving.candidate_defaults(graph.index("leaf"))

    def test_buffers_not_reallocated_between_worlds(self, paper_graph):
        arena = WorldArena(paper_graph, 0)
        stamp_buffer = arena._node_stamp
        for _ in range(5):
            world = arena.new_world()
            world.candidate_defaults(0)
        assert arena._node_stamp is stamp_buffer

    def test_stale_world_raises_instead_of_corrupting(self, paper_graph):
        """A retired world must not silently overwrite the live world's
        memo stamps."""
        arena = WorldArena(paper_graph, 0)
        stale = arena.new_world()
        stale.candidate_defaults(0)
        live = arena.new_world()
        with pytest.raises(SamplingError, match="retired"):
            stale.candidate_defaults(1)
        live.candidate_defaults(0)  # the live world keeps working

    def test_self_risk_mutations_observed_between_worlds(self):
        graph = UncertainGraph()
        graph.add_node("a", 0.0)
        arena = WorldArena(graph, 0)
        assert not arena.new_world().candidate_defaults(0)
        graph.set_self_risk("a", 1.0)
        assert arena.new_world().candidate_defaults(0)

    def test_reverse_world_requires_graph_xor_arena(self, paper_graph):
        arena = WorldArena(paper_graph, 0)
        with pytest.raises(SamplingError):
            ReverseWorld(paper_graph, 0, arena=arena)
        with pytest.raises(SamplingError):
            ReverseWorld()
