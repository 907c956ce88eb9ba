"""The world-packed exploration, field for field against the flat oracle.

``IndexedReverseSampler`` explores a block's worlds 64 at a time, each
node carrying one ``uint64`` word of world bits;
``reference_sampler.flat_explore`` explores the same worlds as one flat
multi-world graph, one key per (world, node) pair.  Both hash the same
counters, so every ``ExploredBlock`` — outcomes, both draw counts and
both touched masks — must be identical, on random graphs and on the
calibrated and guarantee graphs the detectors run on.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_sampler import flat_explore

from repro.bounds.candidates import reduce_candidates
from repro.bounds.iterative import bound_pair
from repro.core.graph import UncertainGraph
from repro.datasets.powerlaw import directed_powerlaw_edges
from repro.datasets.registry import load_dataset
from repro.sampling.bits import popcount
from repro.sampling.indexed import IndexedReverseSampler
from repro.sampling.sample_size import reduced_sample_size
from repro.sampling.worldstate import PackedWorldState

FIELDS = (
    "outcomes",
    "node_draws",
    "edge_draws",
    "touched_nodes",
    "expanded_nodes",
)


def assert_matches_oracle(
    sampler: IndexedReverseSampler, world_indices, collect: bool
) -> int:
    """Compare every block of one call with the oracle; the block count."""
    world_indices = np.asarray(world_indices, dtype=np.int64)
    blocks = 0
    for positions, block in sampler.iter_world_blocks(world_indices, collect):
        oracle = flat_explore(sampler, world_indices[positions], collect)
        for field in FIELDS:
            mine, theirs = getattr(block, field), getattr(oracle, field)
            if theirs is None:
                assert mine is None, field
                continue
            assert mine.dtype == theirs.dtype, field
            assert mine.shape == theirs.shape, field
            assert np.array_equal(mine, theirs), field
        blocks += 1
    return blocks


#: Exactly 0 and 1 as often as anything in between.
probabilities = st.one_of(
    st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0, allow_nan=False)
)


@st.composite
def graphs(draw) -> UncertainGraph:
    """Random graphs with cycles, parallel edges and in-degree-0 nodes.

    ``UncertainGraph``'s public constructors refuse parallel edges, so
    the graph is adopted through the internal constructor: the engine
    must not rely on an in-CSR segment naming each source once.
    """
    n = draw(st.integers(1, 24))
    risks = draw(st.lists(probabilities, min_size=n, max_size=n))
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, max(n - 2, 0)))
    pairs = draw(st.lists(ends, max_size=4 * n)) if n > 1 else []
    src = np.array([s for s, _ in pairs], dtype=np.int64)
    # Skip the source, so no edge is a self-loop.
    dst = np.array([d + (d >= s) for s, d in pairs], dtype=np.int64)
    probs = draw(st.lists(probabilities, min_size=src.size, max_size=src.size))
    return UncertainGraph._from_validated_arrays(
        list(range(n)),
        np.array(risks, dtype=np.float64),
        src,
        dst,
        np.array(probs, dtype=np.float64),
    )


@st.composite
def explorations(draw):
    graph = draw(graphs())
    n = graph.num_nodes
    candidates = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
    count = draw(st.integers(1, 140))
    worlds = draw(
        st.lists(st.integers(0, 2**31 - 1), min_size=count, max_size=count)
    )
    world_batch = draw(st.sampled_from([1, 63, 64, 65, 130]))
    collect = draw(st.booleans())
    seed = draw(st.integers(0, 2**32 - 1))
    return graph, candidates, worlds, world_batch, collect, seed


class TestRandomGraphs:
    @given(explorations())
    @settings(max_examples=60)
    def test_every_block_equals_the_flat_oracle(self, case):
        graph, candidates, worlds, world_batch, collect, seed = case
        sampler = IndexedReverseSampler(
            graph, candidates, seed=seed, world_batch=world_batch
        )
        assert assert_matches_oracle(sampler, worlds, collect) == -(
            -len(worlds) // world_batch
        )

    def test_edge_worlds_and_multi_slice_blocks(self):
        """One 130-world block, explored as slices of 64, 64 and 2
        worlds, over the last lanes and on a graph with cycles."""
        rng = np.random.default_rng(3)
        src, dst = directed_powerlaw_edges(60, 180, seed=rng)
        graph = UncertainGraph.from_arrays(
            self_risks=rng.random(60) * 0.05,
            edge_src=src,
            edge_dst=dst,
            edge_probs=rng.random(src.size),
        )
        worlds = np.concatenate(
            (np.arange(2**31 - 70, 2**31), rng.integers(0, 2**31, 60))
        )
        sampler = IndexedReverseSampler(
            graph, [5, 3, 5, 59, 0], seed=11, world_batch=130
        )
        for collect in (False, True):
            assert assert_matches_oracle(sampler, worlds, collect) == 1


class TestPopcountFallback:
    """numpy < 2 has no ``np.bitwise_count``; the byte table stands in."""

    @pytest.fixture(autouse=True)
    def _hide_bitwise_count(self, monkeypatch):
        monkeypatch.delattr(np, "bitwise_count", raising=False)

    def test_counts_every_bit(self):
        rng = np.random.default_rng(2)
        words = rng.integers(0, 2**64, size=(5, 7), dtype=np.uint64)
        words[0, 0] = np.uint64(2**64 - 1)
        expected = [[bin(int(w)).count("1") for w in row] for row in words]
        assert np.array_equal(popcount(words), expected)

    def test_merged_masks_recount_the_engines_draws(self):
        """Merged into empty rows, an explored block's masks give back
        its draw counts through the fallback popcount."""
        graph = load_dataset("guarantee", scale=0.02, seed=7).graph
        sampler = IndexedReverseSampler(graph, np.arange(0, 600, 7), seed=2)
        block = sampler.outcomes_for_worlds(np.arange(90), collect_touched=True)
        state = PackedWorldState(
            90,
            graph.num_nodes,
            graph.num_edges,
            in_degrees=graph.in_csr().degrees,
        )
        node_delta, edge_delta = state.merge_block(np.arange(90), block)
        assert np.array_equal(node_delta, block.node_draws)
        assert np.array_equal(edge_delta, block.edge_draws)


def _bsr_case(graph: UncertainGraph, k: int) -> tuple[np.ndarray, int]:
    """BSR's candidate set and Theorem-5 world budget at orders 2."""
    lower, upper = bound_pair(graph, 2, 2)
    reduction = reduce_candidates(graph, lower, upper, k)
    samples = reduced_sample_size(
        reduction.candidate_size, k, reduction.k_verified, 0.3, 0.1
    )
    return reduction.candidates, samples


@pytest.mark.parametrize("collect", [False, True])
def test_calibrated_2000_node_blocks(collect):
    rng = np.random.default_rng(7)
    src, dst = directed_powerlaw_edges(2000, 4000, seed=rng)
    graph = UncertainGraph.from_arrays(
        self_risks=rng.random(2000) * 0.02,
        edge_src=src,
        edge_dst=dst,
        edge_probs=np.clip(rng.beta(2.0, 4.0, src.size), 0.01, 0.95),
    )
    candidates, samples = _bsr_case(graph, 10)
    sampler = IndexedReverseSampler(graph, candidates, seed=1)
    assert assert_matches_oracle(sampler, np.arange(samples), collect) > 1


@pytest.mark.parametrize("collect", [False, True])
def test_guarantee_network_blocks(collect):
    graph = load_dataset("guarantee", scale=0.02).graph
    candidates, samples = _bsr_case(graph, 6)
    sampler = IndexedReverseSampler(graph, candidates, seed=1)
    assert assert_matches_oracle(sampler, np.arange(samples), collect) > 1
    everyone = IndexedReverseSampler(graph, np.arange(graph.num_nodes), seed=4)
    assert assert_matches_oracle(everyone, np.arange(200), collect) > 1
