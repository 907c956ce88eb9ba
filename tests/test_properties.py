"""Property-based tests (hypothesis) for cross-module invariants.

These generate random small uncertain graphs and assert the structural
relationships the paper's machinery depends on: Equation-(1) monotonicity,
bound bracketing, candidate-reduction completeness, sampler agreement
with the exact oracle, and top-k determinism.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_worlds import (
    block_indices,
    block_world,
    enumerate_worlds,
    scalar_default_probabilities,
)

from repro.bounds.candidates import reduce_candidates
from repro.bounds.iterative import bound_pair, lower_bounds, upper_bounds
from repro.core.eq1 import apply_eq1, dag_default_probabilities
from repro.core.exact import exact_default_probabilities, exact_top_k
from repro.core.graph import UncertainGraph
from repro.core.topk import top_k_indices
from repro.core.worlds import enumerate_world_blocks
from repro.sampling.forward import ForwardSampler

# Hypothesis example generation over exact world enumeration used to make
# this the heaviest module in the suite; the bit-parallel oracle collapsed
# it to a couple of seconds, so it runs in the smoke tier again.


@st.composite
def small_uncertain_graphs(draw, max_nodes=6, dag_only=False):
    """Random graphs small enough for exact enumeration."""
    n = draw(st.integers(2, max_nodes))
    risks = draw(
        st.lists(
            st.floats(0.0, 1.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    graph = UncertainGraph()
    for i, risk in enumerate(risks):
        graph.add_node(i, risk)
    possible_edges = [
        (s, d)
        for s in range(n)
        for d in range(n)
        if s != d and (not dag_only or s < d)
    ]
    budget = max(0, 12 - n)  # keep n + m small for enumeration
    count = draw(st.integers(0, min(len(possible_edges), budget)))
    chosen = draw(
        st.lists(
            st.sampled_from(possible_edges),
            min_size=count,
            max_size=count,
            unique=True,
        )
    ) if possible_edges else []
    for s, d in chosen:
        graph.add_edge(s, d, draw(st.floats(0.0, 1.0, allow_nan=False)))
    return graph


@st.composite
def tree_graphs(draw, max_nodes=8):
    """Random out-trees — the regime where Eq.(1) is exact."""
    n = draw(st.integers(2, max_nodes))
    graph = UncertainGraph()
    for i in range(n):
        graph.add_node(i, draw(st.floats(0.01, 0.9)))
    for child in range(1, n):
        parent = draw(st.integers(0, child - 1))
        graph.add_edge(parent, child, draw(st.floats(0.05, 0.95)))
    return graph


class TestWorldSemantics:
    @given(small_uncertain_graphs())
    def test_world_masses_sum_to_one(self, graph):
        total = sum(mass for _, mass in enumerate_worlds(graph))
        assert abs(total - 1.0) < 1e-9

    @given(small_uncertain_graphs())
    def test_exact_probabilities_dominate_self_risk(self, graph):
        exact = exact_default_probabilities(graph)
        assert np.all(exact >= graph.self_risk_array - 1e-12)
        assert np.all(exact <= 1.0 + 1e-12)

    @given(small_uncertain_graphs(), st.integers(0, 4))
    def test_block_enumeration_matches_scalar_bit_for_bit(self, graph, shift):
        """Property form of the engine equivalence: every Gray-code block
        row reproduces the scalar generator's realisation and mass exactly
        (not approximately), for arbitrary block sizes."""
        scalar = list(enumerate_worlds(graph))
        seen = []
        for block in enumerate_world_blocks(graph, block_worlds=1 << shift):
            indices = block_indices(graph, block)
            for j in range(block.num_worlds):
                index = int(indices[j])
                seen.append(index)
                world = block_world(block, j)
                reference_world, reference_mass = scalar[index]
                assert np.array_equal(
                    world.self_default, reference_world.self_default
                )
                assert np.array_equal(
                    world.edge_survives, reference_world.edge_survives
                )
                assert float(block.masses[j]) == reference_mass
        assert sorted(seen) == list(range(len(scalar)))

    @given(small_uncertain_graphs())
    def test_exact_engines_agree(self, graph):
        block = exact_default_probabilities(graph)
        reference = scalar_default_probabilities(graph)
        assert np.allclose(block, reference, rtol=0.0, atol=1e-12)


class TestEq1Properties:
    @given(small_uncertain_graphs())
    def test_operator_monotone(self, graph):
        n = graph.num_nodes
        low = apply_eq1(graph, np.zeros(n))
        high = apply_eq1(graph, np.ones(n))
        assert np.all(low <= high + 1e-12)

    @given(small_uncertain_graphs())
    def test_operator_bounded(self, graph):
        out = apply_eq1(graph, graph.self_risk_array)
        assert np.all(out >= -1e-12)
        assert np.all(out <= 1.0 + 1e-12)

    @given(tree_graphs())
    def test_eq1_exact_on_trees(self, graph):
        eq1 = dag_default_probabilities(graph)
        exact = exact_default_probabilities(graph)
        assert np.allclose(eq1, exact, atol=1e-9)


class TestBoundProperties:
    @given(small_uncertain_graphs(), st.integers(1, 4))
    def test_lower_below_upper(self, graph, order):
        lower, upper = bound_pair(graph, order, order)
        assert np.all(lower <= upper + 1e-12)

    @given(small_uncertain_graphs())
    def test_lower_monotone_in_order(self, graph):
        l1 = lower_bounds(graph, 1)
        l2 = lower_bounds(graph, 2)
        l3 = lower_bounds(graph, 3)
        assert np.all(l1 <= l2 + 1e-12)
        assert np.all(l2 <= l3 + 1e-12)

    @given(small_uncertain_graphs())
    def test_upper_monotone_in_order(self, graph):
        u1 = upper_bounds(graph, 1)
        u2 = upper_bounds(graph, 2)
        u3 = upper_bounds(graph, 3)
        assert np.all(u1 >= u2 - 1e-12)
        assert np.all(u2 >= u3 - 1e-12)

    @given(tree_graphs())
    def test_bounds_bracket_exact_on_trees(self, graph):
        exact = exact_default_probabilities(graph)
        for order in (1, 2, 3):
            assert np.all(lower_bounds(graph, order) <= exact + 1e-9)
            assert np.all(upper_bounds(graph, order) >= exact - 1e-9)


class TestCandidateProperties:
    @given(tree_graphs(), st.integers(1, 3))
    def test_reduction_never_loses_true_answers(self, graph, k):
        if k > graph.num_nodes:
            return
        lower, upper = bound_pair(graph, 2, 2)
        reduction = reduce_candidates(graph, lower, upper, k)
        survivors = set(reduction.verified) | set(reduction.candidates)
        exact = exact_default_probabilities(graph)
        # Every node strictly above the k-th value must survive; boundary
        # ties may legitimately be swapped for one another.
        kth_value = np.sort(exact)[-k]
        for node in np.flatnonzero(exact > kth_value + 1e-9):
            assert int(node) in survivors

    @given(tree_graphs(), st.integers(1, 3))
    def test_k_prime_le_k_and_candidates_suffice(self, graph, k):
        if k > graph.num_nodes:
            return
        lower, upper = bound_pair(graph, 2, 2)
        reduction = reduce_candidates(graph, lower, upper, k)
        assert reduction.k_verified <= k
        assert reduction.candidate_size >= reduction.k_remaining


class TestSamplerProperties:
    @given(small_uncertain_graphs(max_nodes=5), st.integers(0, 2**31 - 1))
    @settings(max_examples=10)
    def test_forward_sampler_tracks_exact(self, graph, seed):
        exact = exact_default_probabilities(graph)
        t = 3000
        estimate = ForwardSampler(graph, seed=seed).estimate_probabilities(t)
        sigma = np.sqrt(exact * (1 - exact) / t)
        # 5-sigma normal band plus a 5/t absolute term: near p ∈ {0, 1}
        # the binomial is Poisson-like and sigma underestimates the
        # discrete granularity of a t-sample frequency.
        assert np.all(np.abs(estimate - exact) <= 5 * sigma + 5.0 / t)


class TestTopKProperties:
    @given(
        st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=30),
        st.data(),
    )
    def test_topk_returns_maximal_values(self, scores, data):
        k = data.draw(st.integers(1, len(scores)))
        chosen = top_k_indices(scores, k)
        chosen_set = set(int(i) for i in chosen)
        threshold = min(scores[i] for i in chosen_set)
        for index, value in enumerate(scores):
            if index not in chosen_set:
                assert value <= threshold + 1e-12

    @given(
        st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=30),
        st.data(),
    )
    def test_topk_deterministic(self, scores, data):
        k = data.draw(st.integers(1, len(scores)))
        first = list(top_k_indices(scores, k))
        second = list(top_k_indices(list(scores), k))
        assert first == second

    @given(tree_graphs())
    def test_exact_topk_prefix_property(self, graph):
        """top-(k) is always a prefix of top-(k+1)."""
        n = graph.num_nodes
        previous: list = []
        for k in range(1, n + 1):
            current = exact_top_k(graph, k)
            assert current[: len(previous)] == previous
            previous = current
