"""Tests for repro.sampling.forward — Algorithm 1 and its scalar oracle."""

from __future__ import annotations

import numpy as np
import pytest
from reference_worlds import forward_sample_reference

from repro.core.exact import exact_default_probabilities
from repro.core.graph import UncertainGraph
from repro.sampling.forward import ForwardEstimate, ForwardSampler
from repro.core.errors import SamplingError
from repro.sampling.rng import make_rng


class TestReferenceSampler:
    def test_returns_boolean_vector(self, paper_graph):
        hv = forward_sample_reference(paper_graph, make_rng(0))
        assert hv.dtype == np.bool_
        assert hv.shape == (5,)

    def test_deterministic_graph(self):
        graph = UncertainGraph()
        graph.add_node("a", 1.0)
        graph.add_node("b", 0.0)
        graph.add_node("c", 0.0)
        graph.add_edge("a", "b", 1.0)
        graph.add_edge("b", "c", 1.0)
        hv = forward_sample_reference(graph, make_rng(0))
        assert hv.all()

    def test_zero_probability_graph(self):
        graph = UncertainGraph()
        graph.add_node("a", 0.0)
        graph.add_node("b", 0.0)
        graph.add_edge("a", "b", 1.0)
        hv = forward_sample_reference(graph, make_rng(0))
        assert not hv.any()

    def test_unbiased_against_exact(self, paper_graph):
        """Mean of reference samples ≈ exact probabilities (3-sigma)."""
        rng = make_rng(42)
        t = 4000
        counts = np.zeros(5)
        for _ in range(t):
            counts += forward_sample_reference(paper_graph, rng)
        estimate = counts / t
        exact = exact_default_probabilities(paper_graph)
        sigma = np.sqrt(exact * (1 - exact) / t)
        assert np.all(np.abs(estimate - exact) < 4 * sigma + 1e-9)


class TestVectorisedSampler:
    def test_counts_shape_and_range(self, paper_graph):
        estimate = ForwardSampler(paper_graph, seed=1).run(500)
        assert estimate.counts.shape == (5,)
        assert estimate.samples == 500
        assert np.all(estimate.counts >= 0)
        assert np.all(estimate.counts <= 500)

    def test_probabilities_property(self):
        estimate = ForwardEstimate(counts=np.array([50, 100]), samples=200)
        assert np.allclose(estimate.probabilities, [0.25, 0.5])

    def test_unbiased_against_exact(self, paper_graph):
        exact = exact_default_probabilities(paper_graph)
        t = 8000
        estimate = ForwardSampler(paper_graph, seed=7).estimate_probabilities(t)
        sigma = np.sqrt(exact * (1 - exact) / t)
        assert np.all(np.abs(estimate - exact) < 4 * sigma + 1e-9)

    def test_unbiased_on_random_graph(self, small_random_graph):
        exact = exact_default_probabilities(small_random_graph)
        t = 8000
        estimate = ForwardSampler(
            small_random_graph, seed=11
        ).estimate_probabilities(t)
        sigma = np.sqrt(exact * (1 - exact) / t)
        assert np.all(np.abs(estimate - exact) < 4 * sigma + 1e-9)

    def test_agrees_with_reference_engine(self, small_random_graph):
        """Both engines estimate the same distribution (2-sample check)."""
        t = 6000
        vectorised = ForwardSampler(
            small_random_graph, seed=3
        ).estimate_probabilities(t)
        rng = make_rng(4)
        counts = np.zeros(small_random_graph.num_nodes)
        for _ in range(t):
            counts += forward_sample_reference(small_random_graph, rng)
        reference = counts / t
        # Two-sample normal bound on the difference of means.
        sigma = np.sqrt(2 * 0.25 / t)
        assert np.all(np.abs(vectorised - reference) < 5 * sigma)

    def test_batching_does_not_change_distribution(self, paper_graph):
        small_batches = ForwardSampler(
            paper_graph, seed=5, batch_size=7
        ).run(1000)
        one_batch = ForwardSampler(
            paper_graph, seed=5, batch_size=1000
        ).run(1000)
        # Same seed but different batch split changes the draw layout, so
        # compare statistically rather than exactly.
        assert np.all(
            np.abs(small_batches.probabilities - one_batch.probabilities) < 0.08
        )

    def test_deterministic_with_same_seed(self, paper_graph):
        a = ForwardSampler(paper_graph, seed=9).run(200)
        b = ForwardSampler(paper_graph, seed=9).run(200)
        assert np.array_equal(a.counts, b.counts)

    def test_different_seeds_differ(self, paper_graph):
        a = ForwardSampler(paper_graph, seed=1).run(200)
        b = ForwardSampler(paper_graph, seed=2).run(200)
        assert not np.array_equal(a.counts, b.counts)

    def test_edgeless_graph(self):
        graph = UncertainGraph()
        graph.add_node("a", 0.5)
        graph.add_node("b", 0.25)
        estimate = ForwardSampler(graph, seed=0).run(4000)
        assert estimate.probabilities[0] == pytest.approx(0.5, abs=0.05)
        assert estimate.probabilities[1] == pytest.approx(0.25, abs=0.05)

    def test_invalid_parameters(self, paper_graph):
        with pytest.raises(SamplingError):
            ForwardSampler(paper_graph, batch_size=0)
        with pytest.raises(SamplingError):
            ForwardSampler(paper_graph).run(0)

    def test_sample_batch_rows_are_worlds(self, paper_graph):
        batch = ForwardSampler(paper_graph, seed=0).sample_batch(64)
        assert batch.shape == (64, 5)
        assert batch.dtype == np.bool_

    def test_certain_chain_propagates_in_batch(self):
        graph = UncertainGraph()
        graph.add_node("a", 1.0)
        graph.add_node("b", 0.0)
        graph.add_node("c", 0.0)
        graph.add_edge("a", "b", 1.0)
        graph.add_edge("b", "c", 1.0)
        batch = ForwardSampler(graph, seed=0).sample_batch(16)
        assert batch.all()

    def test_long_chain_depth(self):
        """Propagation must cross arbitrarily many hops within a batch."""
        graph = UncertainGraph()
        length = 40
        graph.add_node(0, 1.0)
        for i in range(1, length):
            graph.add_node(i, 0.0)
            graph.add_edge(i - 1, i, 1.0)
        batch = ForwardSampler(graph, seed=0).sample_batch(4)
        assert batch.all()
