"""Tests for repro.core.graph — the UncertainGraph container."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import (
    DuplicateEdgeError,
    GraphError,
    ProbabilityError,
    UnknownNodeError,
)
from repro.core.graph import GraphStats, UncertainGraph, graph_from_mapping


class TestConstruction:
    def test_empty_graph(self):
        graph = UncertainGraph()
        assert graph.num_nodes == 0
        assert graph.num_edges == 0
        assert len(graph) == 0

    def test_add_node_returns_sequential_indices(self):
        graph = UncertainGraph()
        assert graph.add_node("x", 0.1) == 0
        assert graph.add_node("y", 0.2) == 1
        assert graph.add_node("z") == 2

    def test_add_node_default_self_risk_is_zero(self):
        graph = UncertainGraph()
        graph.add_node("x")
        assert graph.self_risk("x") == 0.0

    def test_duplicate_node_rejected(self):
        graph = UncertainGraph()
        graph.add_node("x", 0.1)
        with pytest.raises(GraphError, match="already exists"):
            graph.add_node("x", 0.2)

    def test_self_risk_out_of_range_rejected(self):
        graph = UncertainGraph()
        with pytest.raises(ProbabilityError):
            graph.add_node("x", 1.5)
        with pytest.raises(ProbabilityError):
            graph.add_node("y", -0.01)

    def test_nan_self_risk_rejected(self):
        graph = UncertainGraph()
        with pytest.raises(ProbabilityError):
            graph.add_node("x", float("nan"))

    def test_add_edge_returns_sequential_ids(self):
        graph = UncertainGraph()
        graph.add_node("a")
        graph.add_node("b")
        graph.add_node("c")
        assert graph.add_edge("a", "b", 0.5) == 0
        assert graph.add_edge("b", "c", 0.5) == 1

    def test_edge_to_unknown_node_rejected(self):
        graph = UncertainGraph()
        graph.add_node("a")
        with pytest.raises(UnknownNodeError):
            graph.add_edge("a", "missing", 0.5)
        with pytest.raises(UnknownNodeError):
            graph.add_edge("missing", "a", 0.5)

    def test_self_loop_rejected(self):
        graph = UncertainGraph()
        graph.add_node("a")
        with pytest.raises(GraphError, match="self-loop"):
            graph.add_edge("a", "a", 0.5)

    def test_duplicate_edge_rejected(self):
        graph = UncertainGraph()
        graph.add_node("a")
        graph.add_node("b")
        graph.add_edge("a", "b", 0.5)
        with pytest.raises(DuplicateEdgeError):
            graph.add_edge("a", "b", 0.9)

    def test_reverse_edge_is_not_duplicate(self):
        graph = UncertainGraph()
        graph.add_node("a")
        graph.add_node("b")
        graph.add_edge("a", "b", 0.5)
        graph.add_edge("b", "a", 0.7)  # must not raise
        assert graph.num_edges == 2

    def test_edge_probability_out_of_range_rejected(self):
        graph = UncertainGraph()
        graph.add_node("a")
        graph.add_node("b")
        with pytest.raises(ProbabilityError):
            graph.add_edge("a", "b", 1.2)

    def test_constructor_with_iterables(self):
        graph = UncertainGraph(
            nodes=[("a", 0.1), ("b", 0.2)], edges=[("a", "b", 0.3)]
        )
        assert graph.num_nodes == 2
        assert graph.edge_probability("a", "b") == pytest.approx(0.3)

    def test_graph_from_mapping(self):
        graph = graph_from_mapping(
            {"a": 0.1, "b": 0.2}, {("a", "b"): 0.5}
        )
        assert graph.self_risk("b") == pytest.approx(0.2)
        assert graph.has_edge("a", "b")

    def test_from_arrays(self):
        graph = UncertainGraph.from_arrays(
            self_risks=[0.1, 0.2, 0.3],
            edge_src=[0, 1],
            edge_dst=[1, 2],
            edge_probs=[0.4, 0.5],
        )
        assert graph.num_nodes == 3
        assert graph.edge_probability(0, 1) == pytest.approx(0.4)

    def test_from_arrays_length_mismatch(self):
        with pytest.raises(GraphError):
            UncertainGraph.from_arrays([0.1], [0], [1], [0.5, 0.6])
        with pytest.raises(GraphError):
            UncertainGraph.from_arrays([0.1, 0.2], [0], [1], [0.5], labels=["a"])

    def test_from_arrays_rejects_bad_probabilities(self):
        with pytest.raises(ProbabilityError):
            UncertainGraph.from_arrays([0.1, 1.2], [0], [1], [0.5])
        with pytest.raises(ProbabilityError):
            UncertainGraph.from_arrays([0.1, 0.2], [0], [1], [1.5])
        with pytest.raises(ProbabilityError):
            UncertainGraph.from_arrays([0.1, 0.2], [0], [1], [float("nan")])

    def test_from_arrays_rejects_bad_topology(self):
        with pytest.raises(GraphError):
            UncertainGraph.from_arrays([0.1, 0.2], [0], [0], [0.5])  # self-loop
        with pytest.raises(GraphError):
            UncertainGraph.from_arrays([0.1, 0.2], [0], [2], [0.5])  # range
        with pytest.raises(GraphError):
            UncertainGraph.from_arrays([0.1, 0.2], [-1], [1], [0.5])
        with pytest.raises(DuplicateEdgeError):
            UncertainGraph.from_arrays(
                [0.1, 0.2], [0, 0], [1, 1], [0.5, 0.6]
            )
        with pytest.raises(GraphError):
            UncertainGraph.from_arrays([0.1, 0.2], [], [], [], labels=["a", "a"])

    def test_from_arrays_does_not_adopt_caller_arrays(self):
        probs = np.array([0.4, 0.5])
        graph = UncertainGraph.from_arrays([0.1, 0.2, 0.3], [0, 1], [1, 2], probs)
        probs[0] = 0.99  # caller mutation must not leak into the graph
        assert graph.edge_probability(0, 1) == pytest.approx(0.4)

    def test_from_arrays_matches_incremental_construction(self):
        rng = np.random.default_rng(17)
        n, m = 30, 80
        risks = rng.random(n)
        seen: set[tuple[int, int]] = set()
        while len(seen) < m:
            s, d = rng.integers(n), rng.integers(n)
            if s != d:
                seen.add((int(s), int(d)))
        src, dst = map(np.array, zip(*sorted(seen)))
        probs = rng.random(m)
        bulk = UncertainGraph.from_arrays(risks, src, dst, probs)
        incremental = UncertainGraph()
        for i in range(n):
            incremental.add_node(i, risks[i])
        for s, d, p in zip(src, dst, probs):
            incremental.add_edge(int(s), int(d), p)
        assert list(bulk.edges()) == list(incremental.edges())
        assert bulk.labels() == incremental.labels()
        assert np.array_equal(bulk.self_risk_array, incremental.self_risk_array)
        out_bulk, out_inc = bulk.out_csr(), incremental.out_csr()
        assert np.array_equal(out_bulk.indptr, out_inc.indptr)
        assert np.array_equal(out_bulk.indices, out_inc.indices)
        assert np.array_equal(out_bulk.edge_ids, out_inc.edge_ids)
        bulk.validate()


class TestLookups:
    def test_membership(self, paper_graph):
        assert "A" in paper_graph
        assert "Z" not in paper_graph

    def test_index_label_round_trip(self, paper_graph):
        for label in "ABCDE":
            assert paper_graph.label(paper_graph.index(label)) == label

    def test_index_unknown_raises(self, paper_graph):
        with pytest.raises(UnknownNodeError):
            paper_graph.index("Z")

    def test_label_out_of_range_raises(self, paper_graph):
        with pytest.raises(UnknownNodeError):
            paper_graph.label(99)
        with pytest.raises(UnknownNodeError):
            paper_graph.label(-1)

    def test_labels_returns_copy(self, paper_graph):
        labels = paper_graph.labels()
        labels.append("tampered")
        assert "tampered" not in paper_graph.labels()

    def test_edges_iteration(self, paper_graph):
        edges = list(paper_graph.edges())
        assert len(edges) == 6
        assert ("A", "B", 0.2) in edges

    def test_has_edge(self, paper_graph):
        assert paper_graph.has_edge("A", "B")
        assert not paper_graph.has_edge("B", "A")
        assert not paper_graph.has_edge("Z", "A")

    def test_edge_probability_unknown_edge(self, paper_graph):
        with pytest.raises(UnknownNodeError):
            paper_graph.edge_probability("A", "D")

    def test_neighbors(self, paper_graph):
        assert sorted(paper_graph.out_neighbors("A")) == ["B", "C"]
        assert sorted(paper_graph.in_neighbors("E")) == ["B", "C", "D"]
        assert paper_graph.in_neighbors("A") == []

    def test_degrees(self, paper_graph):
        assert paper_graph.out_degree("A") == 2
        assert paper_graph.in_degree("A") == 0
        assert paper_graph.in_degree("E") == 3
        assert paper_graph.out_degree("E") == 0

    def test_repr_mentions_sizes(self, paper_graph):
        assert "nodes=5" in repr(paper_graph)
        assert "edges=6" in repr(paper_graph)


class TestMutation:
    def test_set_self_risk(self, paper_graph):
        paper_graph.set_self_risk("A", 0.9)
        assert paper_graph.self_risk("A") == pytest.approx(0.9)

    def test_set_self_risk_validates(self, paper_graph):
        with pytest.raises(ProbabilityError):
            paper_graph.set_self_risk("A", 2.0)

    def test_set_edge_probability(self, paper_graph):
        paper_graph.set_edge_probability("A", "B", 0.75)
        assert paper_graph.edge_probability("A", "B") == pytest.approx(0.75)

    def test_set_edge_probability_unknown_edge(self, paper_graph):
        with pytest.raises(UnknownNodeError):
            paper_graph.set_edge_probability("E", "A", 0.5)

    def test_set_all_self_risks(self, paper_graph):
        paper_graph.set_all_self_risks(np.full(5, 0.4))
        assert paper_graph.self_risk("C") == pytest.approx(0.4)

    def test_set_all_self_risks_validates_shape(self, paper_graph):
        with pytest.raises(GraphError):
            paper_graph.set_all_self_risks(np.full(3, 0.4))

    def test_set_all_self_risks_validates_range(self, paper_graph):
        before = paper_graph.self_risk_array.copy()
        with pytest.raises(ProbabilityError):
            paper_graph.set_all_self_risks(np.full(5, 1.4))
        # failed call must leave the graph unchanged
        assert np.array_equal(paper_graph.self_risk_array, before)

    def test_set_all_edge_probabilities(self, paper_graph):
        paper_graph.set_all_edge_probabilities(np.full(6, 0.6))
        assert paper_graph.edge_probability("D", "E") == pytest.approx(0.6)

    def test_set_all_edge_probabilities_validates(self, paper_graph):
        with pytest.raises(GraphError):
            paper_graph.set_all_edge_probabilities(np.full(2, 0.6))
        with pytest.raises(ProbabilityError):
            paper_graph.set_all_edge_probabilities(np.full(6, -0.1))

    def test_bulk_probability_update_patches_csr_in_place(self, paper_graph):
        before = paper_graph.out_csr()
        paper_graph.set_all_edge_probabilities(np.full(6, 0.9))
        after = paper_graph.out_csr()
        # Probability-only updates must not rebuild the CSR views; the
        # cached objects survive and observe the new values.
        assert after is before
        assert np.allclose(after.probs, 0.9)

    def test_topology_mutation_invalidates_csr_cache(self, paper_graph):
        before = paper_graph.out_csr()
        paper_graph.add_node("F", 0.1)
        paper_graph.add_edge("E", "F", 0.5)
        after = paper_graph.out_csr()
        assert after is not before
        assert after.indptr.size == before.indptr.size + 1

    def test_set_edge_probability_does_not_rebuild_csr(self, paper_graph):
        """Regression: a one-float patch must not invalidate either view."""
        out_before = paper_graph.out_csr()
        in_before = paper_graph.in_csr()
        paper_graph.set_edge_probability("A", "B", 0.81)
        assert paper_graph.out_csr() is out_before
        assert paper_graph.in_csr() is in_before
        # Both views share canonical edge ids, so both see the patch.
        a, b = paper_graph.index("A"), paper_graph.index("B")
        out_pos = list(out_before.neighbors(a)).index(b)
        in_pos = list(in_before.neighbors(b)).index(a)
        assert out_before.edge_probs(a)[out_pos] == pytest.approx(0.81)
        assert in_before.edge_probs(b)[in_pos] == pytest.approx(0.81)
        assert paper_graph.edge_probability("A", "B") == pytest.approx(0.81)

    def test_in_place_patching_coherent_across_structural_mutation(
        self, paper_graph
    ):
        """Regression: patch → mutate topology → patch must stay coherent.

        ``add_edge`` after a cached CSR pair must invalidate both views
        (their inverse permutations are stale), and a subsequent
        ``set_edge_probability`` must patch the *rebuilt* views — never
        write through a stale permutation into a dead array.
        """
        stale_out = paper_graph.out_csr()
        stale_in = paper_graph.in_csr()
        paper_graph.set_edge_probability("A", "B", 0.33)
        paper_graph.add_edge("E", "A", 0.5)  # structural: invalidates CSR
        rebuilt_out = paper_graph.out_csr()
        rebuilt_in = paper_graph.in_csr()
        assert rebuilt_out is not stale_out
        assert rebuilt_in is not stale_in
        paper_graph.set_edge_probability("A", "B", 0.44)
        # The rebuilt views observe the post-mutation patch in place...
        assert paper_graph.out_csr() is rebuilt_out
        a, b = paper_graph.index("A"), paper_graph.index("B")
        out_pos = list(rebuilt_out.neighbors(a)).index(b)
        in_pos = list(rebuilt_in.neighbors(b)).index(a)
        assert rebuilt_out.edge_probs(a)[out_pos] == pytest.approx(0.44)
        assert rebuilt_in.edge_probs(b)[in_pos] == pytest.approx(0.44)
        # ...and every edge's probability agrees between canonical
        # storage and both CSR views (full coherence check).
        src, dst, probs = paper_graph.edge_array
        for eid in range(paper_graph.num_edges):
            expected = probs[eid]
            out_slot = np.flatnonzero(rebuilt_out.edge_ids == eid)[0]
            in_slot = np.flatnonzero(rebuilt_in.edge_ids == eid)[0]
            assert rebuilt_out.probs[out_slot] == expected
            assert rebuilt_in.probs[in_slot] == expected

    def test_bulk_patch_after_structural_mutation(self, paper_graph):
        paper_graph.out_csr(), paper_graph.in_csr()
        paper_graph.add_node("F", 0.1)
        paper_graph.add_edge("F", "A", 0.9)
        view = paper_graph.out_csr()
        values = np.linspace(0.1, 0.7, paper_graph.num_edges)
        paper_graph.set_all_edge_probabilities(values)
        assert paper_graph.out_csr() is view
        assert np.array_equal(np.sort(view.probs), np.sort(values))
        paper_graph.validate()

    def test_edge_id_is_canonical_and_stable_under_patches(self, paper_graph):
        eid = paper_graph.edge_id("A", "B")
        _, _, probs = paper_graph.edge_array
        assert probs[eid] == pytest.approx(0.2)
        paper_graph.set_edge_probability("A", "B", 0.66)
        assert paper_graph.edge_id("A", "B") == eid
        with pytest.raises(UnknownNodeError):
            paper_graph.edge_id("E", "A")


class TestCSR:
    def test_out_csr_consistent_with_edges(self, paper_graph):
        csr = paper_graph.out_csr()
        a = paper_graph.index("A")
        neighbors = {paper_graph.label(int(i)) for i in csr.neighbors(a)}
        assert neighbors == {"B", "C"}

    def test_in_csr_consistent_with_edges(self, paper_graph):
        csr = paper_graph.in_csr()
        e = paper_graph.index("E")
        neighbors = {paper_graph.label(int(i)) for i in csr.neighbors(e)}
        assert neighbors == {"B", "C", "D"}

    def test_csr_cached(self, paper_graph):
        assert paper_graph.out_csr() is paper_graph.out_csr()
        assert paper_graph.in_csr() is paper_graph.in_csr()

    def test_csr_edge_ids_shared_between_directions(self, paper_graph):
        src, dst, prob = paper_graph.edge_array
        out = paper_graph.out_csr()
        in_ = paper_graph.in_csr()
        # Each direction must map its slots back to canonical edge ids.
        for node in range(paper_graph.num_nodes):
            for pos in range(out.indptr[node], out.indptr[node + 1]):
                eid = out.edge_ids[pos]
                assert src[eid] == node
                assert dst[eid] == out.indices[pos]
            for pos in range(in_.indptr[node], in_.indptr[node + 1]):
                eid = in_.edge_ids[pos]
                assert dst[eid] == node
                assert src[eid] == in_.indices[pos]

    def test_degrees_vector(self, paper_graph):
        assert paper_graph.out_csr().degrees.sum() == paper_graph.num_edges
        assert paper_graph.in_csr().degrees.sum() == paper_graph.num_edges

    def test_csr_probs_aligned(self, paper_graph):
        paper_graph.set_edge_probability("A", "B", 0.77)
        out = paper_graph.out_csr()
        a = paper_graph.index("A")
        b = paper_graph.index("B")
        position = list(out.neighbors(a)).index(b)
        assert out.edge_probs(a)[position] == pytest.approx(0.77)


class TestDerivedGraphs:
    def test_reverse_flips_edges(self, paper_graph):
        rev = paper_graph.reverse()
        assert rev.has_edge("B", "A")
        assert not rev.has_edge("A", "B")
        assert rev.num_edges == paper_graph.num_edges

    def test_reverse_preserves_probabilities(self, paper_graph):
        rev = paper_graph.reverse()
        assert rev.edge_probability("E", "D") == pytest.approx(0.2)
        assert rev.self_risk("A") == pytest.approx(0.2)

    def test_double_reverse_is_identity(self, paper_graph):
        twice = paper_graph.reverse().reverse()
        assert sorted(twice.edges()) == sorted(paper_graph.edges())
        assert twice.labels() == paper_graph.labels()

    def test_subgraph(self, paper_graph):
        sub = paper_graph.subgraph(["A", "B", "D"])
        assert sub.num_nodes == 3
        assert sub.has_edge("A", "B")
        assert sub.has_edge("B", "D")
        assert sub.num_edges == 2

    def test_copy_is_independent(self, paper_graph):
        clone = paper_graph.copy()
        clone.set_self_risk("A", 0.99)
        assert paper_graph.self_risk("A") == pytest.approx(0.2)

    def test_networkx_round_trip(self, paper_graph):
        nx_graph = paper_graph.to_networkx()
        back = UncertainGraph.from_networkx(nx_graph)
        assert sorted(back.edges()) == sorted(paper_graph.edges())
        assert back.self_risk("E") == pytest.approx(0.2)

    def test_from_networkx_defaults(self):
        import networkx as nx

        g = nx.DiGraph()
        g.add_edge("u", "v")
        graph = UncertainGraph.from_networkx(
            g, default_self_risk=0.1, default_probability=0.9
        )
        assert graph.self_risk("u") == pytest.approx(0.1)
        assert graph.edge_probability("u", "v") == pytest.approx(0.9)


class TestStatsAndValidate:
    def test_stats_counts(self, paper_graph):
        stats = paper_graph.stats()
        assert stats.num_nodes == 5
        assert stats.num_edges == 6
        assert stats.avg_degree == pytest.approx(6 / 5)
        assert stats.max_degree == 3  # E has in-degree 3

    def test_stats_probabilities(self, paper_graph):
        stats = paper_graph.stats()
        assert stats.mean_self_risk == pytest.approx(0.2)
        assert stats.mean_diffusion == pytest.approx(0.2)

    def test_stats_empty(self):
        stats = UncertainGraph().stats()
        assert stats == GraphStats(0, 0, 0.0, 0, 0.0, 0.0)

    def test_stats_as_row(self, paper_graph):
        row = paper_graph.stats().as_row()
        assert row["nodes"] == 5
        assert row["edges"] == 6

    def test_validate_passes_on_good_graph(self, paper_graph):
        paper_graph.validate()  # must not raise

    def test_validate_detects_corruption(self, paper_graph):
        paper_graph._self_risk.append(0.5)  # corrupt deliberately
        with pytest.raises(GraphError):
            paper_graph.validate()

    def test_self_risk_array(self, paper_graph):
        array = paper_graph.self_risk_array
        assert array.shape == (5,)
        assert np.allclose(array, 0.2)

    def test_edge_array(self, paper_graph):
        src, dst, prob = paper_graph.edge_array
        assert src.shape == dst.shape == prob.shape == (6,)
        assert np.allclose(prob, 0.2)


@st.composite
def array_graph_inputs(draw, max_nodes=8):
    """Parallel-array graph descriptions for the bulk constructor."""
    n = draw(st.integers(1, max_nodes))
    risks = draw(
        st.lists(
            st.floats(0.0, 1.0, allow_nan=False), min_size=n, max_size=n
        )
    )
    possible = [(s, d) for s in range(n) for d in range(n) if s != d]
    pairs = draw(
        st.lists(st.sampled_from(possible), unique=True, max_size=min(12, len(possible)))
    ) if possible else []
    probs = draw(
        st.lists(
            st.floats(0.0, 1.0, allow_nan=False),
            min_size=len(pairs),
            max_size=len(pairs),
        )
    )
    src = [s for s, _ in pairs]
    dst = [d for _, d in pairs]
    return risks, src, dst, probs


class TestFromArraysProperties:
    @given(array_graph_inputs())
    def test_round_trips_edges(self, inputs):
        risks, src, dst, probs = inputs
        graph = UncertainGraph.from_arrays(risks, src, dst, probs)
        graph.validate()
        assert graph.num_nodes == len(risks)
        assert graph.num_edges == len(src)
        assert list(graph.edges()) == [
            (s, d, pytest.approx(p)) for s, d, p in zip(src, dst, probs)
        ]
        assert np.array_equal(graph.self_risk_array, np.asarray(risks))
        for s, d in zip(src, dst):
            assert graph.has_edge(s, d)

    @given(array_graph_inputs(), st.integers(0, 100))
    def test_rejects_bad_probabilities_atomically(self, inputs, seed):
        risks, src, dst, probs = inputs
        if not probs:
            return
        rng = np.random.default_rng(seed)
        bad = list(probs)
        bad[rng.integers(len(bad))] = 1.0 + float(rng.random()) + 1e-9
        with pytest.raises(ProbabilityError):
            UncertainGraph.from_arrays(risks, src, dst, bad)

    @given(array_graph_inputs())
    def test_reverse_round_trip(self, inputs):
        risks, src, dst, probs = inputs
        graph = UncertainGraph.from_arrays(risks, src, dst, probs)
        twice = graph.reverse().reverse()
        assert list(twice.edges()) == list(graph.edges())
        assert twice.labels() == graph.labels()
        graph.reverse().validate()


class TestShareView:
    """Copy-on-write buffer sharing (the serving layer's graph hook)."""

    def _graph(self):
        return UncertainGraph.from_arrays(
            self_risks=[0.1, 0.2, 0.3, 0.4],
            edge_src=[0, 1, 2],
            edge_dst=[1, 2, 3],
            edge_probs=[0.5, 0.6, 0.7],
            labels=["a", "b", "c", "d"],
        )

    def test_view_answers_identically(self):
        graph = self._graph()
        view = graph.share_view()
        assert view.labels() == graph.labels()
        assert list(view.edges()) == list(graph.edges())
        assert np.array_equal(view.self_risk_array, graph.self_risk_array)
        view.validate()

    def test_probability_patches_do_not_leak_either_way(self):
        graph = self._graph()
        view = graph.share_view()
        view.set_self_risk("a", 0.9)
        view.set_edge_probability("a", "b", 0.11)
        assert graph.self_risk("a") == 0.1
        assert graph.edge_probability("a", "b") == 0.5
        graph.set_self_risk("b", 0.8)
        graph.set_edge_probability("b", "c", 0.22)
        assert view.self_risk("b") == 0.2
        assert view.edge_probability("b", "c") == 0.6
        # Patches land in each holder's cached CSR views in place.
        in_csr = view.in_csr()
        eid = view.edge_id("a", "b")
        position = np.flatnonzero(in_csr.edge_ids == eid)[0]
        assert in_csr.probs[position] == 0.11

    def test_bulk_setters_fork(self):
        graph = self._graph()
        view = graph.share_view()
        view.set_all_self_risks([0.5, 0.5, 0.5, 0.5])
        view.set_all_edge_probabilities([0.9, 0.9, 0.9])
        assert graph.self_risk("a") == 0.1
        assert graph.edge_probability("a", "b") == 0.5

    def test_structural_mutations_fork_maps(self):
        graph = self._graph()
        view = graph.share_view()
        view.add_node("e", 0.5)
        view.add_edge("d", "e", 0.3)
        assert "e" not in graph
        assert graph.num_edges == 3
        graph.add_node("f", 0.6)
        assert "f" not in view
        view.validate()
        graph.validate()

    def test_share_view_of_forked_view(self):
        graph = self._graph()
        view = graph.share_view()
        view.set_self_risk("a", 0.7)  # forks the self-risk column
        second = view.share_view()
        assert second.self_risk("a") == 0.7
        second.set_self_risk("a", 0.2)
        assert view.self_risk("a") == 0.7

    def test_storage_arrays_shared_between_holders(self):
        graph = self._graph()
        view = graph.share_view()
        shared = {id(a) for a in graph.storage_arrays()} & {
            id(a) for a in view.storage_arrays()
        }
        # Attribute columns + CSR topology are shared objects; only the
        # two CSR probability columns are private per holder.
        assert len(shared) >= 8

    def test_detection_equivalent_on_view(self):
        from repro.algorithms.bsr import BoundedSampleReverseDetector

        rng = np.random.default_rng(5)
        n = 200
        src = rng.integers(0, n, 600)
        dst = rng.integers(0, n, 600)
        keep = src != dst
        pairs = {(int(s), int(d)) for s, d in zip(src[keep], dst[keep])}
        src = np.array([p[0] for p in pairs])
        dst = np.array([p[1] for p in pairs])
        graph = UncertainGraph.from_arrays(
            rng.random(n) * 0.3, src, dst, rng.random(src.size)
        )
        view = graph.share_view()
        detector = BoundedSampleReverseDetector(seed=3)
        a = detector.detect(graph, 5)
        b = detector.detect(view, 5)
        assert a.nodes == b.nodes
        assert a.scores == b.scores
        assert a.samples_used == b.samples_used
