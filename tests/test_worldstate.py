"""Bit-packed world state: packing primitives, state equivalence, and
packed-vs-dense bit-identity of the full streaming pipeline.

The contract under test is strict: the packed representation (two
``n``-bit masks per world, read by column bit-scans) must be
*indistinguishable* from the dense oracle layout
(``tests/dense_worldstate.py``) through every monitor behaviour — top-k
answers, per-world repair sets, and draw counters — on the Figure-6
workload datasets as well as synthetic streams.  The identity the packed
layout rests on — a world draws exactly its touched nodes and the
in-edges of its expanded nodes — is checked against the counters the
sampler actually hashes.
"""

from __future__ import annotations

import numpy as np
import pytest
from dense_worldstate import (
    DenseWorldState,
    dense_state_for,
    edge_draws,
    node_draws,
)

import repro.sampling.indexed as indexed_module
import repro.streaming.monitor as monitor_module
from repro.algorithms.bsr import BoundedSampleReverseDetector
from repro.algorithms.bsrbk import BottomKDetector
from repro.core.errors import SamplingError
from repro.core.graph import UncertainGraph
from repro.datasets.powerlaw import directed_powerlaw_edges
from repro.datasets.registry import load_dataset
from repro.sampling.bits import pack_bool_rows, popcount, unpack_bool_rows
from repro.sampling.indexed import IndexedReverseSampler
from repro.sampling.worldstate import PackedWorldState, WorldView
from repro.streaming.events import EdgeAdd, NodeAdd
from repro.streaming.monitor import TopKMonitor
from repro.streaming.replay import random_patch_stream


def powerlaw_graph(n: int, seed: int) -> UncertainGraph:
    rng = np.random.default_rng(seed)
    src, dst = directed_powerlaw_edges(n, 3 * n, seed=rng)
    return UncertainGraph.from_arrays(
        self_risks=rng.random(n) * 0.3,
        edge_src=src,
        edge_dst=dst,
        edge_probs=np.clip(rng.beta(2.0, 4.0, src.size), 0.01, 0.95),
    )


class TestPackingPrimitives:
    @pytest.mark.parametrize("cols", [1, 7, 63, 64, 65, 200])
    def test_pack_unpack_roundtrip(self, cols):
        rng = np.random.default_rng(cols)
        dense = rng.random((9, cols)) < 0.3
        words = pack_bool_rows(dense)
        assert words.shape == (9, (cols + 63) // 64)
        assert np.array_equal(unpack_bool_rows(words, cols), dense)

    def test_popcount_matches_dense_sums(self):
        rng = np.random.default_rng(5)
        dense = rng.random((11, 130)) < 0.4
        words = pack_bool_rows(dense)
        assert np.array_equal(
            popcount(words).sum(axis=1), dense.sum(axis=1)
        )

    def test_packed_is_eight_times_smaller(self):
        dense = np.zeros((64, 6400), dtype=bool)
        assert pack_bool_rows(dense).nbytes * 8 == dense.nbytes


def _random_block(rng, worlds, n, m, density=0.3):
    """An ExploredBlock-shaped namespace with consistent masks."""

    class Block:
        pass

    block = Block()
    block.touched_nodes = rng.random((worlds, n)) < density
    # Expanded ⊆ touched, as the sampler guarantees.
    block.expanded_nodes = block.touched_nodes & (
        rng.random((worlds, n)) < 0.7
    )
    return block


class TestStateEquivalence:
    """Dense and packed states answer every query identically."""

    def _states(self, worlds, n, heads, in_degrees, rng):
        dense = DenseWorldState(worlds, n, heads.size, heads=heads)
        packed = PackedWorldState(
            worlds, n, heads.size, in_degrees=in_degrees
        )
        return dense, packed

    def _store(self, dense, packed, rows, block):
        dense.store_block(rows, block)
        packed.store_block(rows, block)

    def _assert_agree(self, seed, n, worlds, m, density, all_entities):
        rng = np.random.default_rng(seed)
        heads = rng.integers(0, n, size=m).astype(np.int64)
        in_degrees = np.bincount(heads, minlength=n).astype(np.int64)
        dense, packed = self._states(worlds, n, heads, in_degrees, rng)
        block = _random_block(rng, worlds, n, m, density=density)
        self._store(dense, packed, np.arange(worlds), block)
        if all_entities:
            nodes, edges = np.arange(n), np.arange(m)
        else:
            nodes, edges = np.array([0, 3, 55, 89]), np.array([0, 17, 219])
        d_rows, d_pos = dense.node_pairs(nodes)
        p_rows, p_pos = packed.node_pairs(nodes)
        assert set(zip(d_rows, d_pos)) == set(zip(p_rows, p_pos))
        d_rows, d_pos = dense.edge_pairs(edges, heads[edges])
        p_rows, p_pos = packed.edge_pairs(edges, heads[edges])
        assert set(zip(d_rows, d_pos)) == set(zip(p_rows, p_pos))
        assert np.array_equal(dense.node_draws(), node_draws(packed))
        assert np.array_equal(
            dense.edge_draws(), edge_draws(packed, in_degrees)
        )

    def test_pairs_and_draws_agree(self):
        self._assert_agree(7, 90, 40, 220, density=0.3, all_entities=False)

    def test_dense_index_disabled_pairs_still_exact(self):
        """High touch density, queried at every node and every edge: the
        column bit-scan (the packed state's only lookup path, with no
        inverted index to fall back from) must stay exact."""
        self._assert_agree(19, 70, 30, 180, density=0.5, all_entities=True)

    def test_merge_block_deltas_are_exact(self):
        rng = np.random.default_rng(13)
        n, worlds = 60, 25
        heads = rng.integers(0, n, size=150).astype(np.int64)
        in_degrees = np.bincount(heads, minlength=n).astype(np.int64)
        dense, packed = self._states(worlds, n, heads, in_degrees, rng)
        base = _random_block(rng, worlds, n, heads.size)
        self._store(dense, packed, np.arange(worlds), base)
        before_nodes = node_draws(packed)
        before_edges = edge_draws(packed, in_degrees)
        extra = _random_block(rng, worlds, n, heads.size)
        d_node, d_edge = dense.merge_block(np.arange(worlds), extra)
        p_node, p_edge = packed.merge_block(np.arange(worlds), extra)
        assert np.array_equal(d_node, p_node)
        assert np.array_equal(d_edge, p_edge)
        assert np.array_equal(node_draws(packed), before_nodes + p_node)
        assert np.array_equal(
            edge_draws(packed, in_degrees), before_edges + p_edge
        )
        assert np.array_equal(dense.node_draws(), node_draws(packed))
        assert np.array_equal(
            dense.edge_draws(), edge_draws(packed, in_degrees)
        )

    def test_resize_grow_and_truncate(self):
        rng = np.random.default_rng(17)
        n = 40
        heads = rng.integers(0, n, size=90).astype(np.int64)
        in_degrees = np.bincount(heads, minlength=n).astype(np.int64)
        packed = PackedWorldState(10, n, heads.size, in_degrees=in_degrees)
        block = _random_block(rng, 10, n, heads.size)
        packed.store_block(np.arange(10), block)
        draws = node_draws(packed)
        packed.resize(16)
        assert packed.worlds == 16
        assert np.array_equal(node_draws(packed)[:10], draws)
        assert (node_draws(packed)[10:] == 0).all()
        packed.resize(4)
        assert np.array_equal(node_draws(packed), draws[:4])


def on_dense_state(monkeypatch, monitor):
    """``monitor.top_k()`` with the monitor building dense oracle state
    instead of packed state (state is built inside refreshes, not at
    construction)."""
    with monkeypatch.context() as patch:
        patch.setattr(
            monitor_module, "PackedWorldState", dense_state_for(monitor.graph)
        )
        return monitor.top_k()


class TestSamplerDrawCountIdentities:
    """The identities the packed representation is built on."""

    def test_draw_counts_equal_popcounts_of_masks(self):
        graph = powerlaw_graph(150, seed=4)
        candidates = np.arange(0, 150, 3)
        sampler = IndexedReverseSampler(graph, candidates, seed=9)
        block = sampler.outcomes_for_worlds(
            np.arange(25), collect_touched=True
        )
        # node draws == touched popcount
        assert np.array_equal(
            block.node_draws, block.touched_nodes.sum(axis=1)
        )
        # edge draws == in-degree mass of the expanded nodes
        in_degrees = np.diff(graph.in_csr().indptr)
        assert np.array_equal(
            block.edge_draws, block.expanded_nodes @ in_degrees
        )

    @pytest.mark.parametrize("cpus", [1, 4], ids=["inline", "pooled"])
    def test_hashed_draws_are_touched_nodes_and_expanded_in_edges(
        self, monkeypatch, cpus
    ):
        """Every counter the exploration hashes, decoded from its lane:
        per world, the nodes are exactly the touched mask and the edges
        exactly the in-edges of the expanded nodes, each hashed once."""
        monkeypatch.setattr(indexed_module, "_cpu_count", lambda: cpus)
        hashed: list[np.ndarray] = []
        lattice = indexed_module._hashed_lattice

        def recording(key, counters):
            hashed.append(counters.copy())  # the function hashes in place
            return lattice(key, counters)

        monkeypatch.setattr(indexed_module, "_hashed_lattice", recording)
        graph = powerlaw_graph(150, seed=4)
        worlds = np.arange(7, 7 + 5 * 64, 5)  # four blocks of 16
        sampler = IndexedReverseSampler(
            graph, np.arange(0, 150, 3), seed=9, world_batch=16
        )
        block = sampler.outcomes_for_worlds(worlds, collect_touched=True)
        counters = np.concatenate(hashed)
        world = (counters >> np.uint64(33)).astype(np.int64)
        lane = (counters & np.uint64(2**33 - 1)).astype(np.int64)
        is_edge = lane >= 2**32
        entity = np.where(is_edge, lane - 2**32, lane)
        edge_masks = block.expanded_nodes[:, graph.edge_array[1]]
        assert counters.size == block.touched_nodes.sum() + edge_masks.sum()
        for row, index in enumerate(worlds):
            mine = world == index
            assert np.array_equal(
                np.sort(entity[mine & ~is_edge]),
                np.flatnonzero(block.touched_nodes[row]),
            )
            assert np.array_equal(
                np.sort(entity[mine & is_edge]),
                np.flatnonzero(edge_masks[row]),
            )


#: One Figure-6 configuration per dataset family, small enough for CI.
FIG6_WORKLOAD = [("guarantee", 2.0), ("citation", 4.0), ("p2p", 2.0)]


class TestPackedVsDenseBitIdentity:
    """The satellite contract: both representations, driven in lockstep
    over the Figure-6 workload, agree on answers, per-world repair sets
    and draw counters — and on the final fresh-detection oracle."""

    @pytest.mark.parametrize("dataset,percent", FIG6_WORKLOAD)
    def test_fig6_stream_lockstep(self, dataset, percent, monkeypatch):
        loaded_a = load_dataset(dataset, scale=0.02, seed=11)
        loaded_b = load_dataset(dataset, scale=0.02, seed=11)
        k = loaded_a.k_for_percent(percent)
        packed = TopKMonitor(loaded_a.graph, k, seed=5)
        dense = TopKMonitor(loaded_b.graph, k, seed=5)
        assert packed.top_k().same_answer(
            on_dense_state(monkeypatch, dense)
        )
        assert isinstance(dense._world_state, DenseWorldState)
        events = list(
            random_patch_stream(loaded_a.graph, 12, seed=2, drift=0.15)
        )
        for event in events:
            packed.apply([event])
            dense.apply([event])
            result_packed = packed.top_k()
            result_dense = on_dense_state(monkeypatch, dense)
            # Answers and work telemetry.
            assert result_packed.same_answer(result_dense)
            for key in ("nodes_touched", "edges_touched"):
                assert (
                    result_packed.details[key] == result_dense.details[key]
                )
            # Per-world repair sets.
            assert np.array_equal(
                packed.last_repaired_rows, dense.last_repaired_rows
            )
            assert (
                packed.last_report.sampling == dense.last_report.sampling
            )
            assert (
                packed.last_report.worlds_repaired
                == dense.last_report.worlds_repaired
            )
        assert packed.stats == dense.stats
        # Both end bit-identical to fresh detection on the final graph.
        fresh = BoundedSampleReverseDetector(seed=5).detect(
            loaded_a.graph, k
        )
        assert result_packed.same_answer(fresh)
        assert (
            result_packed.details["nodes_touched"]
            == fresh.details["nodes_touched"]
        )

    def test_packed_state_is_at_least_four_times_smaller(self, monkeypatch):
        """On the sparse workload graphs the packed masks are ~8× (and
        with the m-bit collapse typically >8×) below the dense bytes."""
        graph = powerlaw_graph(800, seed=6)
        packed = TopKMonitor(graph, 8, seed=3)
        dense = TopKMonitor(graph, 8, seed=3)
        packed.top_k()
        on_dense_state(monkeypatch, dense)
        assert packed.world_state_nbytes > 0
        assert (
            dense.world_state_nbytes
            >= 4 * packed.world_state_nbytes
        )


class TestLargeWorldBudgets:
    """Monitor lookups over more than 4,096 world rows.

    At ε = 0.05 Theorem 5 asks for over 5,000 worlds on a 60-node graph,
    so every invalidation scan reads that many packed rows.  Both
    pipelines must stay bit-identical to fresh detection, work counters
    included, through drift patches, fresh-value patches and a growth
    batch.
    """

    EPSILON = 0.05

    def _batches(self, graph):
        """Drift patches, fresh-value patches, a growth batch, drift."""
        for event in random_patch_stream(graph, 4, seed=6, drift=0.15):
            yield [event]
        for event in random_patch_stream(graph, 3, seed=7):
            yield [event]
        labels = graph.labels()
        yield [
            NodeAdd("grown", 0.2),
            EdgeAdd("grown", labels[0], 0.6),
            EdgeAdd(labels[1], "grown", 0.4),
        ]
        for event in random_patch_stream(graph, 2, seed=8, drift=0.15):
            yield [event]

    @pytest.mark.parametrize(
        "algorithm,detector",
        [("bsr", BoundedSampleReverseDetector), ("bsrbk", BottomKDetector)],
        ids=["bsr", "bsrbk"],
    )
    def test_monitor_matches_fresh_detection(self, algorithm, detector):
        graph = powerlaw_graph(60, seed=3)
        fresh = detector(seed=2, epsilon=self.EPSILON)
        monitor = TopKMonitor(
            graph, 5, seed=2, epsilon=self.EPSILON, algorithm=algorithm
        )
        self._assert_fresh(monitor, fresh, graph, algorithm)
        repaired = 0
        for batch in self._batches(graph):
            monitor.apply(batch)
            self._assert_fresh(monitor, fresh, graph, algorithm)
            repaired += monitor.last_report.worlds_repaired
        assert graph.num_nodes == 61
        assert repaired > 0

    @staticmethod
    def _assert_fresh(monitor, fresh, graph, algorithm):
        result = monitor.top_k()
        expected = fresh.detect(graph, 5)
        assert result.same_answer(expected)
        for key in ("nodes_touched", "edges_touched"):
            assert result.details[key] == expected.details[key]
        if algorithm == "bsr":
            assert result.samples_used > 4096
            assert monitor._world_state.worlds == result.samples_used


class TestCounterLanes:
    """World indices past the counter lanes are rejected, never wrapped
    around 64 bits onto another world's draws."""

    def test_world_view_rejects_index_beyond_lanes(self):
        graph = powerlaw_graph(40, seed=2)
        with pytest.raises(SamplingError):
            WorldView(graph, [2**31], seed=4)
        WorldView(graph, [2**31 - 1], seed=4)  # the last lane is valid

    def test_sampler_rejects_index_beyond_lanes(self):
        graph = powerlaw_graph(40, seed=2)
        sampler = IndexedReverseSampler(graph, np.arange(5), seed=4)
        with pytest.raises(SamplingError):
            sampler.outcomes_for_worlds([2**31])
