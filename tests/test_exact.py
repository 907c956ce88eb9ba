"""Tests for repro.core.exact — the enumeration oracle."""

from __future__ import annotations

import numpy as np
import pytest
from reference_worlds import scalar_default_probabilities

from repro.core.errors import GraphError
from repro.core.exact import exact_default_probabilities, exact_top_k
from repro.core.graph import UncertainGraph
from repro.core.worlds import DEFAULT_BLOCK_WORLDS, enumerate_world_blocks


def seeded_random_graph(
    seed: int, max_nodes: int = 6, probability_pool=None
) -> UncertainGraph:
    """Small random graph; *probability_pool* restricts the value set."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_nodes + 1))
    pairs = [(s, d) for s in range(n) for d in range(n) if s != d]
    m = int(rng.integers(0, min(len(pairs), 12 - n) + 1))
    chosen = rng.choice(len(pairs), size=m, replace=False) if m else []
    if probability_pool is None:
        risks = rng.uniform(0.0, 1.0, n)
        probs = rng.uniform(0.0, 1.0, m)
    else:
        risks = rng.choice(probability_pool, size=n)
        probs = rng.choice(probability_pool, size=m)
    return UncertainGraph.from_arrays(
        risks,
        np.fromiter((pairs[i][0] for i in chosen), dtype=np.int64, count=m),
        np.fromiter((pairs[i][1] for i in chosen), dtype=np.int64, count=m),
        probs,
    )


class TestExactProbabilities:
    def test_paper_example_1(self, paper_graph):
        """The paper's Example 1: p(A) = 0.2 and p(B) = 0.232."""
        probabilities = exact_default_probabilities(paper_graph)
        assert probabilities[paper_graph.index("A")] == pytest.approx(0.2)
        assert probabilities[paper_graph.index("B")] == pytest.approx(0.232)

    def test_symmetry_b_and_c(self, paper_graph):
        """B and C are symmetric in Figure 3, so p(B) == p(C)."""
        probabilities = exact_default_probabilities(paper_graph)
        assert probabilities[paper_graph.index("B")] == pytest.approx(
            probabilities[paper_graph.index("C")]
        )

    def test_sink_is_most_vulnerable(self, paper_graph):
        """E receives risk from everyone, so it has the highest p(v)."""
        probabilities = exact_default_probabilities(paper_graph)
        assert np.argmax(probabilities) == paper_graph.index("E")

    def test_isolated_node_probability_is_self_risk(self, singleton_graph):
        probabilities = exact_default_probabilities(singleton_graph)
        assert probabilities[0] == pytest.approx(0.4)

    def test_two_node_chain_hand_computed(self):
        graph = UncertainGraph()
        graph.add_node("u", 0.3)
        graph.add_node("v", 0.1)
        graph.add_edge("u", "v", 0.5)
        probabilities = exact_default_probabilities(graph)
        # p(v) = 1 - (1 - 0.1)(1 - 0.5 * 0.3)
        assert probabilities[graph.index("v")] == pytest.approx(
            1 - 0.9 * (1 - 0.15)
        )

    def test_probability_bounds(self, small_random_graph):
        probabilities = exact_default_probabilities(small_random_graph)
        ps = small_random_graph.self_risk_array
        assert np.all(probabilities >= ps - 1e-12)
        assert np.all(probabilities <= 1.0 + 1e-12)

    def test_deterministic_graph(self):
        graph = UncertainGraph()
        graph.add_node("a", 1.0)
        graph.add_node("b", 0.0)
        graph.add_edge("a", "b", 1.0)
        probabilities = exact_default_probabilities(graph)
        assert probabilities[0] == pytest.approx(1.0)
        assert probabilities[1] == pytest.approx(1.0)

    def test_monotone_in_edge_probability(self):
        def p_of_v(edge_probability):
            graph = UncertainGraph()
            graph.add_node("u", 0.4)
            graph.add_node("v", 0.1)
            graph.add_edge("u", "v", edge_probability)
            return exact_default_probabilities(graph)[graph.index("v")]

        values = [p_of_v(p) for p in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert values == sorted(values)
        assert values[0] == pytest.approx(0.1)


class TestEngineEquivalence:
    """The bit-parallel engine against the scalar oracle."""

    def test_random_graphs_agree_to_ulps(self):
        for seed in range(12):
            graph = seeded_random_graph(seed)
            block = exact_default_probabilities(graph)
            reference = scalar_default_probabilities(graph)
            # Per-world masses and defaults are bit-identical; only the
            # reference's sequential accumulation order rounds differently.
            assert np.allclose(block, reference, rtol=0.0, atol=1e-12)

    def test_pinned_probability_graphs_agree(self):
        pool = np.array([0.0, 0.1, 0.5, 0.9, 1.0])
        for seed in range(12):
            graph = seeded_random_graph(seed + 100, probability_pool=pool)
            block = exact_default_probabilities(graph)
            reference = scalar_default_probabilities(graph)
            assert np.allclose(block, reference, rtol=0.0, atol=1e-12)

    def test_dyadic_probabilities_agree_exactly(self):
        """With probabilities in {0, 1/2, 1} every product and sum is
        exactly representable, so the engines must agree bit for bit."""
        pool = np.array([0.0, 0.5, 1.0])
        for seed in range(12):
            graph = seeded_random_graph(seed + 200, probability_pool=pool)
            block = exact_default_probabilities(graph)
            reference = scalar_default_probabilities(graph)
            assert np.array_equal(block, reference)

    def test_self_risk_only_graph(self):
        graph = UncertainGraph()
        for i, risk in enumerate([0.0, 0.25, 0.5, 1.0]):
            graph.add_node(i, risk)
        block = exact_default_probabilities(graph)
        reference = scalar_default_probabilities(graph)
        assert np.array_equal(block, reference)
        assert np.array_equal(block, graph.self_risk_array)

    def test_symmetric_nodes_tie_exactly(self, paper_graph):
        """B and C are mathematically symmetric; the compensated block
        accumulation must preserve the exact tie the scalar engine sees."""
        block = exact_default_probabilities(paper_graph)
        assert block[paper_graph.index("B")] == block[paper_graph.index("C")]

    def test_multi_block_graph_agrees_with_scalar_oracle(self):
        """Fourteen free choices span four default-sized blocks, so the
        compensated sum carries across block boundaries."""
        rng = np.random.default_rng(14)
        src = np.array([0, 1, 2, 3, 4, 0, 2, 1, 3], dtype=np.int64)
        dst = np.array([1, 2, 3, 4, 0, 2, 4, 3, 1], dtype=np.int64)
        graph = UncertainGraph.from_arrays(
            rng.uniform(0.05, 0.6, 5), src, dst, rng.uniform(0.05, 0.95, 9)
        )
        blocks = list(enumerate_world_blocks(graph))
        assert len(blocks) >= 4
        assert all(block.num_worlds == DEFAULT_BLOCK_WORLDS for block in blocks)
        assert np.allclose(
            exact_default_probabilities(graph),
            scalar_default_probabilities(graph),
            rtol=0.0,
            atol=1e-12,
        )

    def test_engine_keyword_rejected(self, paper_graph):
        with pytest.raises(TypeError, match="engine"):
            exact_default_probabilities(paper_graph, engine="block")
        with pytest.raises(TypeError, match="engine"):
            exact_top_k(paper_graph, 2, engine="block")

    def test_default_cap_is_raised_to_28(self):
        from repro.core.worlds import DEFAULT_MAX_CHOICES

        assert DEFAULT_MAX_CHOICES >= 28
        # 29 free choices must still trip the default cap.
        risks = np.full(29, 0.5)
        big = UncertainGraph.from_arrays(
            risks, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), []
        )
        with pytest.raises(GraphError, match="capped"):
            exact_default_probabilities(big)


class TestExactTopK:
    def test_top_1_is_e(self, paper_graph):
        assert exact_top_k(paper_graph, 1) == ["E"]

    def test_top_2(self, paper_graph):
        assert exact_top_k(paper_graph, 2) == ["E", "D"]

    def test_top_all_ordering(self, paper_graph):
        order = exact_top_k(paper_graph, 5)
        assert order[0] == "E"
        assert order[1] == "D"
        assert set(order[2:4]) == {"B", "C"}
        assert order[4] == "A"

    def test_ties_broken_by_insertion_order(self, paper_graph):
        # B and C tie exactly; B was inserted first.
        order = exact_top_k(paper_graph, 5)
        assert order.index("B") < order.index("C")
