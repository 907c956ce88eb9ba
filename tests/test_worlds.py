"""Tests for repro.core.worlds and its scalar oracle — possible-world semantics."""

from __future__ import annotations

import numpy as np
import pytest
from reference_worlds import (
    PossibleWorld,
    block_indices,
    block_world,
    enumerate_worlds,
    propagate_defaults,
    world_probability,
)

from repro.core.errors import GraphError
from repro.core.graph import UncertainGraph
from repro.core.worlds import (
    DEFAULT_MAX_CHOICES,
    enumerate_world_blocks,
    free_choices,
)
from repro.queries import enumerated_world_count


def make_world(graph, default_labels, surviving_edges):
    """Helper: build a PossibleWorld from label-level descriptions."""
    self_default = np.zeros(graph.num_nodes, dtype=bool)
    for label in default_labels:
        self_default[graph.index(label)] = True
    src, dst, _ = graph.edge_array
    edge_survives = np.zeros(graph.num_edges, dtype=bool)
    for s_label, d_label in surviving_edges:
        s, d = graph.index(s_label), graph.index(d_label)
        for eid in range(graph.num_edges):
            if src[eid] == s and dst[eid] == d:
                edge_survives[eid] = True
    return PossibleWorld(self_default=self_default, edge_survives=edge_survives)


class TestPossibleWorld:
    def test_requires_boolean_arrays(self):
        with pytest.raises(GraphError):
            PossibleWorld(
                self_default=np.zeros(2, dtype=float),
                edge_survives=np.zeros(1, dtype=bool),
            )


class TestPropagation:
    def test_no_defaults(self, paper_graph):
        world = make_world(paper_graph, [], [])
        assert not propagate_defaults(paper_graph, world).any()

    def test_isolated_self_default(self, paper_graph):
        world = make_world(paper_graph, ["E"], [])
        defaulted = propagate_defaults(paper_graph, world)
        assert defaulted[paper_graph.index("E")]
        assert defaulted.sum() == 1

    def test_contagion_follows_surviving_edges(self, paper_graph):
        world = make_world(paper_graph, ["A"], [("A", "B"), ("B", "E")])
        defaulted = propagate_defaults(paper_graph, world)
        expected = {"A", "B", "E"}
        actual = {
            paper_graph.label(i) for i in np.flatnonzero(defaulted)
        }
        assert actual == expected

    def test_contagion_blocked_by_dead_edges(self, paper_graph):
        world = make_world(paper_graph, ["A"], [("B", "E")])
        defaulted = propagate_defaults(paper_graph, world)
        assert defaulted.sum() == 1  # B never defaults, so B->E is moot

    def test_surviving_edge_from_healthy_node_is_inert(self, paper_graph):
        world = make_world(paper_graph, [], [("A", "B"), ("B", "E")])
        assert not propagate_defaults(paper_graph, world).any()

    def test_multiple_seeds_union(self, chain_graph):
        world = make_world(chain_graph, ["a", "c"], [("c", "d")])
        defaulted = propagate_defaults(chain_graph, world)
        labels = {chain_graph.label(i) for i in np.flatnonzero(defaulted)}
        assert labels == {"a", "c", "d"}

    def test_shape_validation(self, paper_graph):
        bad = PossibleWorld(
            self_default=np.zeros(3, dtype=bool),
            edge_survives=np.zeros(6, dtype=bool),
        )
        with pytest.raises(GraphError):
            propagate_defaults(paper_graph, bad)
        bad_edges = PossibleWorld(
            self_default=np.zeros(5, dtype=bool),
            edge_survives=np.zeros(2, dtype=bool),
        )
        with pytest.raises(GraphError):
            propagate_defaults(paper_graph, bad_edges)


class TestWorldProbability:
    def test_hand_computed(self, chain_graph):
        # a defaults; edges a->b survives, others die.
        world = make_world(chain_graph, ["a"], [("a", "b")])
        # p = ps(a) (1-ps(b)) (1-ps(c)) (1-ps(d)) * pe(ab) (1-pe(bc)) (1-pe(cd))
        expected = 0.5 * 0.9 * 1.0 * 0.8 * 0.8 * 0.4 * 0.6
        assert world_probability(chain_graph, world) == pytest.approx(expected)

    def test_all_worlds_sum_to_one(self, chain_graph):
        total = sum(p for _, p in enumerate_worlds(chain_graph))
        assert total == pytest.approx(1.0)

    def test_all_worlds_sum_to_one_paper_graph(self, paper_graph):
        total = sum(p for _, p in enumerate_worlds(paper_graph))
        assert total == pytest.approx(1.0)


class TestEnumeration:
    def test_enumeration_size(self, chain_graph):
        # ps(c) == 0 is pinned, so 3 free nodes + 3 free edges = 64 worlds.
        worlds = list(enumerate_worlds(chain_graph))
        assert len(worlds) == 2**6

    def test_deterministic_choices_are_pinned(self):
        graph = UncertainGraph()
        graph.add_node("sure", 1.0)
        graph.add_node("never", 0.0)
        graph.add_edge("sure", "never", 1.0)
        worlds = list(enumerate_worlds(graph))
        assert len(worlds) == 1
        world, mass = worlds[0]
        assert mass == pytest.approx(1.0)
        assert world.self_default[graph.index("sure")]
        assert not world.self_default[graph.index("never")]
        assert world.edge_survives.all()

    def test_cap_enforced(self, paper_graph):
        with pytest.raises(GraphError, match="capped"):
            list(enumerate_worlds(paper_graph, max_choices=5))

    def test_default_cap_is_at_least_28(self):
        assert DEFAULT_MAX_CHOICES >= 28


def pinned_mix_graph() -> UncertainGraph:
    """Free, pinned-0 and pinned-1 choices plus an isolated node."""
    graph = UncertainGraph()
    graph.add_node("free", 0.3)
    graph.add_node("sure", 1.0)
    graph.add_node("never", 0.0)
    graph.add_node("island", 0.7)  # isolated: no incident edges
    graph.add_edge("free", "sure", 0.4)
    graph.add_edge("sure", "never", 1.0)
    graph.add_edge("never", "free", 0.0)
    graph.add_edge("sure", "free", 0.6)
    return graph


def free_choice_count(graph: UncertainGraph) -> int:
    ps = graph.self_risk_array
    _, _, pe = graph.edge_array
    return int(((ps > 0) & (ps < 1)).sum() + ((pe > 0) & (pe < 1)).sum())


class TestBlockEnumeration:
    """The bit-parallel engine must match the scalar generator *exactly*."""

    def collect(self, graph, **kwargs):
        rows = []
        for block in enumerate_world_blocks(graph, **kwargs):
            assert block.self_default.shape[0] == block.num_worlds
            indices = block_indices(graph, block)
            for j in range(block.num_worlds):
                rows.append(
                    (int(indices[j]), block_world(block, j), float(block.masses[j]))
                )
        return rows

    @pytest.mark.parametrize("block_worlds", [1, 2, 8, 4096])
    def test_matches_scalar_enumeration_bit_for_bit(
        self, chain_graph, block_worlds
    ):
        scalar = list(enumerate_worlds(chain_graph))
        rows = self.collect(chain_graph, block_worlds=block_worlds)
        assert sorted(index for index, _, _ in rows) == list(range(len(scalar)))
        for index, world, mass in rows:
            reference_world, reference_mass = scalar[index]
            assert np.array_equal(
                world.self_default, reference_world.self_default
            )
            assert np.array_equal(
                world.edge_survives, reference_world.edge_survives
            )
            assert mass == reference_mass  # bit-identical, not approx

    def test_pinned_choices_and_isolated_nodes(self):
        graph = pinned_mix_graph()
        scalar = list(enumerate_worlds(graph))
        rows = self.collect(graph, block_worlds=4)
        assert len(rows) == len(scalar) == 2 ** free_choice_count(graph)
        for index, world, mass in rows:
            reference_world, reference_mass = scalar[index]
            assert np.array_equal(
                world.self_default, reference_world.self_default
            )
            assert np.array_equal(
                world.edge_survives, reference_world.edge_survives
            )
            assert mass == reference_mass

    def test_enumerated_world_count_is_the_rows_yielded(self):
        """The exact queries report ``worlds_used`` through the same
        free-choice rule the enumeration walks: pinned 0/1 choices
        count in neither."""
        graph = pinned_mix_graph()
        free_nodes, free_edges = free_choices(graph)
        assert free_nodes.tolist() == [0, 3]
        assert free_edges.tolist() == [0, 3]
        for block_worlds in (1, 4, 4096):
            rows = sum(
                block.num_worlds
                for block in enumerate_world_blocks(
                    graph, block_worlds=block_worlds
                )
            )
            assert enumerated_world_count(graph) == rows == 16

    def test_masses_bit_equal_world_probability(self, paper_graph):
        """Gray-code incremental masses == from-scratch recomputation."""
        for block in enumerate_world_blocks(paper_graph, block_worlds=256):
            recomputed = np.array(
                [
                    world_probability(paper_graph, block_world(block, j))
                    for j in range(block.num_worlds)
                ]
            )
            assert np.array_equal(block.masses, recomputed)

    def test_gray_code_one_flip_between_consecutive_worlds(self, chain_graph):
        """Successive worlds — across block boundaries too — differ in
        exactly one free choice."""
        rows = self.collect(chain_graph, block_worlds=8)
        ps = chain_graph.self_risk_array
        _, _, pe = chain_graph.edge_array
        free_nodes = (ps > 0) & (ps < 1)
        free_edges = (pe > 0) & (pe < 1)
        for (_, a, _), (_, b, _) in zip(rows, rows[1:]):
            flips = int(
                (a.self_default[free_nodes] != b.self_default[free_nodes]).sum()
                + (a.edge_survives[free_edges] != b.edge_survives[free_edges]).sum()
            )
            assert flips == 1

    def test_block_sizing(self, chain_graph):
        # 6 free choices = 64 worlds; block_worlds=20 rounds down to 16.
        blocks = list(enumerate_world_blocks(chain_graph, block_worlds=20))
        assert [block.num_worlds for block in blocks] == [16, 16, 16, 16]
        oversized = list(enumerate_world_blocks(chain_graph, block_worlds=10**6))
        assert [block.num_worlds for block in oversized] == [64]

    def test_masses_sum_to_one(self, paper_graph):
        total = sum(
            block.masses.sum()
            for block in enumerate_world_blocks(paper_graph, block_worlds=64)
        )
        assert total == pytest.approx(1.0)

    def test_deterministic_graph_single_world(self):
        graph = UncertainGraph()
        graph.add_node("sure", 1.0)
        graph.add_node("never", 0.0)
        graph.add_edge("sure", "never", 1.0)
        blocks = list(enumerate_world_blocks(graph))
        assert len(blocks) == 1 and blocks[0].num_worlds == 1
        assert blocks[0].masses[0] == 1.0
        world = block_world(blocks[0], 0)
        assert world.self_default.tolist() == [True, False]
        assert world.edge_survives.tolist() == [True]

    def test_cap_enforced(self, paper_graph):
        with pytest.raises(GraphError, match="capped"):
            list(enumerate_world_blocks(paper_graph, max_choices=5))

    def test_invalid_block_worlds(self, paper_graph):
        with pytest.raises(GraphError, match="block_worlds"):
            list(enumerate_world_blocks(paper_graph, block_worlds=0))
