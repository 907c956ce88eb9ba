"""Tests for repro.core.propagation — the shared multi-world engine."""

from __future__ import annotations

import numpy as np
import pytest
from reference_worlds import PossibleWorld, propagate_defaults

from repro.core.errors import GraphError
from repro.core.graph import UncertainGraph
from repro.core.propagation import (
    propagate_defaults_block,
    propagate_edge_list,
    ragged_positions,
    surviving_edge_keys,
)


def random_graph(n: int, m: int, seed: int, pinned: bool = False) -> UncertainGraph:
    """Random simple digraph; *pinned* mixes in 0.0/1.0 probabilities."""
    rng = np.random.default_rng(seed)
    pairs = [(s, d) for s in range(n) for d in range(n) if s != d]
    m = min(m, len(pairs))
    chosen = rng.choice(len(pairs), size=m, replace=False)
    src = np.fromiter((pairs[i][0] for i in chosen), dtype=np.int64, count=m)
    dst = np.fromiter((pairs[i][1] for i in chosen), dtype=np.int64, count=m)
    risks = rng.uniform(0.0, 1.0, n)
    probs = rng.uniform(0.0, 1.0, m)
    if pinned:
        risks[rng.random(n) < 0.3] = 0.0
        risks[rng.random(n) < 0.2] = 1.0
        probs[rng.random(m) < 0.3] = 0.0
        probs[rng.random(m) < 0.2] = 1.0
    return UncertainGraph.from_arrays(risks, src, dst, probs)


class TestRaggedPositions:
    def test_concatenates_segments_in_order(self):
        indptr = np.array([0, 2, 2, 5], dtype=np.int64)
        positions, counts = ragged_positions(indptr, np.array([2, 0, 1]))
        assert positions.tolist() == [2, 3, 4, 0, 1]
        assert counts.tolist() == [3, 2, 0]

    def test_repeats_allowed(self):
        indptr = np.array([0, 2, 3], dtype=np.int64)
        positions, _ = ragged_positions(indptr, np.array([0, 0]))
        assert positions.tolist() == [0, 1, 0, 1]

    def test_all_empty_segments(self):
        indptr = np.array([0, 0, 0], dtype=np.int64)
        positions, counts = ragged_positions(indptr, np.array([0, 1]))
        assert positions.size == 0
        assert counts.tolist() == [0, 0]


class TestSurvivingEdgeKeys:
    def test_row_major_flat_keys(self):
        survives = np.array([[True, False, True], [False, True, True]])
        src_keys, dst_keys = surviving_edge_keys(
            4, np.array([0, 1, 2]), np.array([1, 2, 3]), survives
        )
        assert src_keys.tolist() == [0, 2, 5, 6]
        assert dst_keys.tolist() == [1, 3, 6, 7]
        assert src_keys.dtype == dst_keys.dtype == np.int64

    def test_no_worlds_or_no_edges(self):
        for survives in (np.zeros((0, 2), bool), np.zeros((3, 2), bool)):
            src_keys, dst_keys = surviving_edge_keys(
                3, np.array([0, 1]), np.array([1, 2]), survives
            )
            assert src_keys.size == dst_keys.size == 0

    def test_shape_validation(self):
        with pytest.raises(GraphError):
            surviving_edge_keys(
                3, np.array([0, 1]), np.array([1, 2]), np.ones((2, 3), bool)
            )
        with pytest.raises(GraphError):
            surviving_edge_keys(
                3, np.array([0, 1]), np.array([1]), np.ones((2, 2), bool)
            )


class TestPropagateEdgeList:
    def test_chain_closure(self):
        defaulted = np.array([True, False, False, False])
        propagate_edge_list(
            defaulted, np.array([0, 1, 2]), np.array([1, 2, 3])
        )
        assert defaulted.all()

    def test_disconnected_stays_clear(self):
        defaulted = np.array([True, False, False])
        propagate_edge_list(defaulted, np.array([1]), np.array([2]))
        assert defaulted.tolist() == [True, False, False]

    def test_no_edges(self):
        defaulted = np.array([False, True])
        propagate_edge_list(
            defaulted, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        assert defaulted.tolist() == [False, True]


class TestPropagateDefaultsBlock:
    def test_matches_scalar_reference_exactly(self):
        """Every block row must equal the scalar BFS bit for bit."""
        rng = np.random.default_rng(11)
        for trial in range(15):
            graph = random_graph(
                int(rng.integers(2, 12)),
                int(rng.integers(0, 20)),
                int(rng.integers(0, 2**31)),
                pinned=trial % 2 == 0,
            )
            worlds = 32
            self_default = rng.random((worlds, graph.num_nodes)) < 0.3
            edge_survives = rng.random((worlds, graph.num_edges)) < 0.5
            block = propagate_defaults_block(graph, self_default, edge_survives)
            for w in range(worlds):
                scalar = propagate_defaults(
                    graph,
                    PossibleWorld(
                        self_default=self_default[w].copy(),
                        edge_survives=edge_survives[w].copy(),
                    ),
                )
                assert np.array_equal(block[w], scalar)

    def test_inputs_not_modified(self):
        graph = random_graph(5, 8, 1)
        self_default = np.zeros((4, 5), dtype=bool)
        self_default[:, 0] = True
        edge_survives = np.ones((4, 8), dtype=bool)
        before = self_default.copy()
        propagate_defaults_block(graph, self_default, edge_survives)
        assert np.array_equal(self_default, before)

    def test_empty_block(self):
        graph = random_graph(4, 5, 2)
        result = propagate_defaults_block(
            graph, np.zeros((0, 4), dtype=bool), np.zeros((0, 5), dtype=bool)
        )
        assert result.shape == (0, 4)

    def test_isolated_nodes_default_only_by_themselves(self):
        graph = UncertainGraph()
        for i in range(3):
            graph.add_node(i, 0.5)
        self_default = np.array([[True, False, False], [False, False, True]])
        result = propagate_defaults_block(
            graph, self_default, np.zeros((2, 0), dtype=bool)
        )
        assert np.array_equal(result, self_default)

    def test_shape_validation(self):
        graph = random_graph(4, 5, 3)
        with pytest.raises(GraphError):
            propagate_defaults_block(
                graph, np.zeros((2, 3), dtype=bool), np.zeros((2, 5), dtype=bool)
            )
        with pytest.raises(GraphError):
            propagate_defaults_block(
                graph, np.zeros((2, 4), dtype=bool), np.zeros((3, 5), dtype=bool)
            )

    def test_dtype_validation(self):
        graph = random_graph(4, 5, 4)
        with pytest.raises(GraphError):
            propagate_defaults_block(
                graph, np.zeros((2, 4), dtype=float), np.zeros((2, 5), dtype=bool)
            )
