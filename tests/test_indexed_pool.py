"""The per-call block pool of :class:`IndexedReverseSampler`.

A call with more than one world block explores them on a thread pool
as wide as ``repro.sampling.indexed._cpu_count()``.  Forcing that count
to 1 (every block inline) and to 4 (pooled) must give identical blocks,
positions, counts and work counters, and leave no thread behind.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from test_calibrated_answers import calibrated_graph  # noqa: F401 (fixture)

import repro.sampling.indexed as indexed_module
from repro.core.errors import SamplingError
from repro.core.graph import UncertainGraph
from repro.sampling.indexed import IndexedReverseSampler

FIELDS = (
    "outcomes",
    "node_draws",
    "edge_draws",
    "touched_nodes",
    "expanded_nodes",
)
INLINE, POOLED = 1, 4
#: Five blocks of the default 32 worlds, in a shuffled order.
WORLDS = np.random.default_rng(0).permutation(150)


@pytest.fixture
def fast_switching():
    """Hand the GIL between threads as often as the interpreter allows."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def make_sampler(graph: UncertainGraph) -> IndexedReverseSampler:
    candidates = np.arange(0, graph.num_nodes, 7)
    return IndexedReverseSampler(graph, candidates, seed=3)


def force_cpus(monkeypatch, count: int) -> None:
    monkeypatch.setattr(indexed_module, "_cpu_count", lambda: count)


def blocks_with(monkeypatch, cpus, graph, worlds, collect):
    force_cpus(monkeypatch, cpus)
    return list(
        make_sampler(graph).iter_world_blocks(worlds, collect_touched=collect)
    )


def assert_same_blocks(inline, pooled) -> None:
    assert len(inline) == len(pooled)
    for (positions, block), (pooled_positions, pooled_block) in zip(
        inline, pooled
    ):
        assert np.array_equal(positions, pooled_positions)
        for field in FIELDS:
            expected, got = getattr(block, field), getattr(pooled_block, field)
            assert (expected is None) == (got is None), field
            if expected is not None:
                assert np.array_equal(expected, got), field


# "compact": blocks carry the touched and expanded node masks.
@pytest.mark.parametrize("collect", [False, True], ids=["False", "compact"])
@pytest.mark.parametrize(
    "worlds,blocks",
    [(WORLDS, 5), (WORLDS[:20], 1)],
    ids=["5-blocks", "1-block"],
)
def test_blocks_identical_inline_and_pooled(
    calibrated_graph, monkeypatch, fast_switching, collect, worlds, blocks
):
    """Four threads on however many cores, switching constantly."""
    graph = calibrated_graph
    inline = blocks_with(monkeypatch, INLINE, graph, worlds, collect)
    pooled = blocks_with(monkeypatch, POOLED, graph, worlds, collect)
    assert len(inline) == blocks
    assert_same_blocks(inline, pooled)
    assert np.array_equal(
        np.concatenate([positions for positions, _ in pooled]),
        np.arange(worlds.size),
    )


@pytest.mark.parametrize("samples", [150, 20], ids=["5-blocks", "1-block"])
def test_run_identical_inline_and_pooled(
    calibrated_graph, monkeypatch, samples
):
    results = []
    for cpus in (INLINE, POOLED):
        force_cpus(monkeypatch, cpus)
        sampler = make_sampler(calibrated_graph)
        first, second = sampler.run(samples), sampler.run(samples)
        results.append(
            (
                first.counts,
                second.counts,
                sampler.nodes_touched,
                sampler.edges_touched,
            )
        )
    inline, pooled = results
    for expected, got in zip(inline, pooled):
        assert np.array_equal(expected, got)
    # The counters are the per-world draws, summed in world order.
    block = make_sampler(calibrated_graph).outcomes_for_worlds(
        np.arange(2 * samples)
    )
    assert inline[2] == int(block.node_draws.sum())
    assert inline[3] == int(block.edge_draws.sum())


def new_threads(before: set) -> set:
    """Threads alive now that were not in *before* (a thread that some
    earlier test left behind may end meanwhile without counting)."""
    return set(threading.enumerate()) - before


def test_one_block_runs_inline(calibrated_graph, monkeypatch):
    force_cpus(monkeypatch, POOLED)
    before = set(threading.enumerate())
    for _ in make_sampler(calibrated_graph).iter_world_blocks(WORLDS[:20]):
        assert not new_threads(before)


@pytest.mark.parametrize("consume", ["every-block", "first-block"])
def test_no_thread_outlives_a_call(calibrated_graph, monkeypatch, consume):
    force_cpus(monkeypatch, POOLED)
    sampler = make_sampler(calibrated_graph)
    before = set(threading.enumerate())
    for _ in sampler.iter_world_blocks(WORLDS):
        assert new_threads(before)  # the pool is exploring
        if consume == "first-block":
            break
    assert not new_threads(before)
    sampler.run(WORLDS.size)
    assert not new_threads(before)


@pytest.mark.parametrize("cpus", [INLINE, POOLED], ids=["inline", "pooled"])
def test_world_past_the_lanes_in_a_later_block_raises(
    calibrated_graph, monkeypatch, cpus
):
    force_cpus(monkeypatch, cpus)
    sampler = make_sampler(calibrated_graph)
    worlds = WORLDS.copy()
    worlds[-1] = 2**31
    before = set(threading.enumerate())
    with pytest.raises(SamplingError, match="2\\^31"):
        sampler.outcomes_for_worlds(worlds)
    yielded = 0
    with pytest.raises(SamplingError, match="2\\^31"):
        for _ in sampler.iter_world_blocks(worlds):
            yielded += 1
    assert yielded == 4  # the four blocks before the bad one
    assert not new_threads(before)
