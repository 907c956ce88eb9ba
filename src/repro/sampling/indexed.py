"""Counter-based reverse sampling — the production engine.

A sampler that draws its uniforms from one *sequential* stream couples
all worlds together: the random choice made for an entity depends on
every draw that preceded it, so changing one edge probability shifts the
whole stream downstream of its first draw, and nothing short of a full
re-run reproduces what a fresh detection would return.

This module draws from a **counter-based PRF** instead: the uniform for
node ``v`` (edge ``e``) in world ``w`` is a pure hash of
``(stream key, w, entity)`` — the SplitMix64 output function evaluated at
a per-entity counter (:func:`repro.sampling.rng.hashed_uniforms`, which
mixes whole counter blocks in place, one numpy dispatch per hash stage).
Every world owns a fixed lane of counters (:func:`counter_lanes`), so
growing the graph never moves an existing ``(world, entity)`` counter.
Consequences:

* every world's outcome is a pure function of ``(seed, w, graph)`` —
  worlds can be evaluated in any order, in any batch size, and
  re-evaluated individually, always bit-identically;
* a probability patch ``p -> p'`` flips an entity's realisation in world
  ``w`` only when its fixed uniform lies in ``(min(p, p'), max(p, p')]``,
  so the *expected fraction of invalidated worlds equals |p' - p|* — the
  property the streaming :class:`~repro.streaming.monitor.TopKMonitor`
  builds its incremental re-estimation on;
* appending nodes or edges leaves every cached world's draws valid
  verbatim, which is what lets the monitor ingest topology growth
  incrementally, bit-identical to fresh detection on the grown graph;
* the engine needs no memo tables at all: re-hashing an entity is as
  cheap as memoising it, and two directions/passes agree by construction;
* every world also carries a fixed *sample hash*
  (:meth:`IndexedReverseSampler.world_hashes`, a second PRF key), so
  BSRBK's ascending-hash processing order is a pure function of the
  world index — the bottom-k early stop decouples from the stream.

The exploration has two passes — a flat multi-world backward closure
followed by forward labelling through
:func:`repro.core.propagation.propagate_edge_list` — and it reports
``nodes_touched`` / ``edges_touched`` as distinct per-world entity draws.
Its union closure explores past Algorithm 5's per-candidate early exits,
so it may draw more than the paper's per-candidate BFS on the same world,
but the outcomes agree: under entity-indexed uniforms every world equals
that BFS fed the same uniform arrays (the oracle in
``tests/reference_sampler.py``; ``tests/test_streaming.py`` checks it).

A call explores its worlds in blocks of ``world_batch``.  Since the
blocks are independent, a call with more than one explores them on a
thread pool created for that call, one thread per CPU the process may
run on; numpy releases the GIL in the hashing, gathering and sorting
the exploration spends its time in.  Blocks still come back in world
order and each is explored exactly as it would be alone, so outcomes,
draw counts and touched masks do not depend on the CPU count.  A call
with one block, or a process with one CPU, explores inline.  The pool
is shut down when the call ends (for ``iter_world_blocks``, when its
iteration ends or is abandoned), so no thread outlives a call and
forked workers inherit none.

With ``collect_touched=True`` an explored block also carries two
``(W, n)`` masks per world: the *touched* nodes (every node the world
drew) and the *expanded* nodes (the touched nodes that did not
self-default, whose in-edges the world then drew).  The compressed world
state (:mod:`repro.sampling.worldstate`) relies on two work-count
identities, both direct consequences of the closure drawing every entity
at most once per world:

* ``node_draws[w] == popcount(touched_nodes[w])``;
* ``edge_draws[w] == sum(in_degree[v] for v in expanded_nodes[w])`` —
  an edge is drawn iff its head was expanded, so a world's edge mask is
  ``expanded_nodes[w, heads]`` and is never materialised.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.core.errors import SamplingError
from repro.core.graph import UncertainGraph
from repro.core.propagation import propagate_edge_list, ragged_positions
from repro.sampling.forward import ForwardEstimate
from repro.sampling.rng import (
    SeedLike,
    derive_stream_key,
    hashed_mantissas_inplace as _hashed_lattice,
    hashed_uniforms,
    splitmix64_mix,
)

__all__ = [
    "hashed_uniforms",
    "derive_stream_key",
    "counter_lanes",
    "ExploredBlock",
    "IndexedReverseSampler",
]

_U64 = np.uint64
_TWO_53 = 2.0**53
#: Salt separating the per-world *sample hash* key from the draw key, so
#: BSRBK's processing order never correlates with world contents.
_HASH_SALT = _U64(0xD1B54A32D192ED03)

#: Counters reserved per world, and the first edge counter within a
#: world's lane: node ``v`` of world ``w`` draws at ``w * 2^33 + v``,
#: edge ``e`` at ``w * 2^33 + 2^32 + e``.  Lanes bound ``n`` and ``m`` by
#: ``2^32`` and world indices by ``2^31`` (so ``w * 2^33`` fits 64 bits).
_LANE = _U64(2**33)
_EDGE_OFFSET = _U64(2**32)
_MAX_WORLD = 2**31


def _cpu_count() -> int:
    """CPUs this process may run on: the widest a call's block pool gets."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _validate_candidates(
    graph: UncertainGraph, candidates: Sequence[int] | np.ndarray
) -> np.ndarray:
    """The candidate indices as ``int64``; raises if empty or out of range."""
    array = np.asarray(candidates, dtype=np.int64)
    if array.size == 0:
        raise SamplingError("candidate set must not be empty")
    if array.min() < 0 or array.max() >= graph.num_nodes:
        raise SamplingError("candidate index out of range")
    return array


def counter_lanes(
    world_indices: Sequence[int] | np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Counter of node 0 and of edge 0 in each world's lane (``uint64``).

    The one place the counter layout lives: the sampler's exploration,
    :class:`~repro.sampling.worldstate.WorldView` realisation and the
    monitor's invalidation scan all address draws through it.  Raises
    :class:`SamplingError` for world indices outside ``[0, 2^31)``,
    whose lanes would wrap around 64 bits onto other worlds.
    """
    worlds = np.asarray(world_indices, dtype=np.int64)
    if worlds.size and (worlds.min() < 0 or worlds.max() >= _MAX_WORLD):
        raise SamplingError("world indices must lie in [0, 2^31)")
    node_bases = worlds.astype(_U64) * _LANE
    return node_bases, node_bases + _EDGE_OFFSET


def _restore_slots(obj, state) -> None:
    """Unpickle a slotted object, dropping the slots its class retired.

    Samplers and views pickled before the counter layouts were merged
    carry a ``_layout`` slot, and the monitor restoring them recomputes
    its worlds (see ``TopKMonitor.__setstate__``).  Packed world states
    pickled while they kept an entity→worlds index carry its four slots,
    and those pickled while they kept the edge-head table carry
    ``_heads``.
    """
    _, slots = state
    current = type(obj).__slots__
    for name, value in slots.items():
        if name in current:
            setattr(obj, name, value)


@dataclass(frozen=True)
class ExploredBlock:
    """Outcomes of one explicitly-indexed block of explored worlds.

    Attributes
    ----------
    outcomes:
        Boolean ``(W, |B|)`` matrix; row ``i`` answers "does each
        candidate default in world ``world_indices[i]``".
    node_draws, edge_draws:
        Per-world counts of distinct node / edge draws (the work unit the
        detectors report as ``nodes_touched`` / ``edges_touched``).
    touched_nodes, expanded_nodes:
        Present when requested (``collect_touched=True``): boolean
        ``(W, n)`` masks of the nodes each world drew, and of those that
        did not self-default.  Edge ``e`` was drawn iff its head is
        expanded, so the two masks say every entity a world drew.  An
        entity a world did not draw cannot influence its outcome — the
        invalidation test the streaming monitor relies on.
    """

    outcomes: np.ndarray
    node_draws: np.ndarray
    edge_draws: np.ndarray
    touched_nodes: np.ndarray | None = None
    expanded_nodes: np.ndarray | None = None


class IndexedReverseSampler:
    """Reverse sampling with counter-based per-(world, entity) randomness.

    The one reverse-sampling engine: SR, BSR, BSRBK, the streaming
    monitor and the Table-3 scorer all run it.  :meth:`outcomes_for_worlds`
    evaluates an arbitrary set of world indices — including re-evaluating
    old ones — bit-identically to a sequential :meth:`run`.  Sequential
    consumption through :meth:`run` uses worlds ``0, 1, 2, …`` so
    repeated calls never reuse a world.

    Parameters
    ----------
    graph:
        The uncertain graph (the *original* direction; the sampler walks
        its in-edges, which is equivalent to walking ``Gt`` forward).
    candidates:
        Internal node indices whose default probability must be estimated
        (the candidate set ``B`` of Algorithm 4).
    seed:
        Seed, generator, or ``None``, folded into a 64-bit stream key
        (:func:`derive_stream_key`).
    world_batch:
        Worlds explored per flat batch (memory/speed trade-off only —
        outcomes are independent of it).  A call explores up to one
        batch per CPU at once, so its peak memory is up to that many
        batches' exploration state.
    """

    __slots__ = (
        "_graph",
        "_candidates",
        "_unique_candidates",
        "_key",
        "_hash_key",
        "_in_csr",
        "_n",
        "_world_batch",
        "_cursor",
        "nodes_touched",
        "edges_touched",
    )

    def __init__(
        self,
        graph: UncertainGraph,
        candidates: Sequence[int] | np.ndarray,
        seed: SeedLike = None,
        *,
        world_batch: int | None = None,
    ) -> None:
        self._graph = graph
        self._candidates = _validate_candidates(graph, candidates)
        self._unique_candidates = np.unique(self._candidates)
        self._key = derive_stream_key(seed)
        self._hash_key = _U64(
            splitmix64_mix(np.array([self._key ^ _HASH_SALT], dtype=_U64))[0]
        )
        self._in_csr = graph.in_csr()
        n = graph.num_nodes
        self._n = n
        if n > int(_EDGE_OFFSET) or graph.num_edges > int(_EDGE_OFFSET):
            raise SamplingError(
                "counter lanes hold at most 2^32 nodes and 2^32 edges"
            )
        if world_batch is None:
            world_batch = max(1, min(32, 2_000_000 // max(n, 1)))
        if world_batch <= 0:
            raise SamplingError(
                f"world_batch must be positive, got {world_batch}"
            )
        self._world_batch = int(world_batch)
        self._cursor = 0
        self.nodes_touched = 0
        self.edges_touched = 0

    def __setstate__(self, state) -> None:
        _restore_slots(self, state)

    @property
    def candidates(self) -> np.ndarray:
        """Candidate internal indices (copy not taken; treat as read-only)."""
        return self._candidates

    @property
    def world_batch(self) -> int:
        """Worlds explored per flat batch."""
        return self._world_batch

    @property
    def stream_key(self) -> np.uint64:
        """The 64-bit PRF key all of this sampler's uniforms hash from."""
        return self._key

    def node_uniforms(self, world: int, nodes: np.ndarray) -> np.ndarray:
        """The fixed self-default uniforms of *nodes* in one world."""
        node_base, _ = counter_lanes([world])
        return hashed_uniforms(
            self._key, node_base[0] + np.asarray(nodes).astype(_U64)
        )

    def edge_uniforms(self, world: int, edges: np.ndarray) -> np.ndarray:
        """The fixed survival uniforms of edge ids *edges* in one world."""
        _, edge_base = counter_lanes([world])
        return hashed_uniforms(
            self._key, edge_base[0] + np.asarray(edges).astype(_U64)
        )

    def world_hashes(
        self, world_indices: Sequence[int] | np.ndarray
    ) -> np.ndarray:
        """The fixed *sample hashes* of the given worlds, in ``[0, 1)``.

        A second counter PRF (salted key) independent of every draw the
        worlds themselves make.  BSRBK materialises worlds in ascending
        sample-hash order; because the hash is a pure function of the
        world index, that order — and therefore the bottom-k stopping
        point — is identical no matter how, or how incrementally, the
        worlds are evaluated.
        """
        return hashed_uniforms(
            self._hash_key, np.asarray(world_indices, dtype=np.int64)
        )

    def _explore(
        self, world_indices: np.ndarray, collect: bool
    ) -> ExploredBlock:
        """Backward closure + forward labelling for the given worlds."""
        n = self._n
        key = self._key
        csr = self._in_csr
        indptr, indices, probs = csr.indptr, csr.indices, csr.probs
        edge_id_table = csr.edge_ids
        # Self-risks are re-read per block so probability mutations between
        # calls are observed (edge probs are read live through the CSR).
        ps = self._graph.self_risk_array
        # Probabilities lifted to the 53-bit integer lattice the PRF
        # emits mantissas on: ``(z >> 11) * 2^-53 <= p`` iff
        # ``z >> 11 <= floor(p * 2^53)`` (the product is exact — a pure
        # exponent shift of a 53-bit mantissa), so realisations compare
        # in uint64 without ever materialising the float uniforms.
        node_thresholds = np.floor(ps * _TWO_53).astype(_U64)
        edge_thresholds = np.floor(probs * _TWO_53).astype(_U64)
        world_base, edge_base = counter_lanes(world_indices)
        worlds = world_indices.size
        closure = np.zeros(worlds * n, dtype=bool)
        defaulted = np.zeros(worlds * n, dtype=bool)
        touched_nodes = expanded_nodes = None
        if collect:
            touched_nodes = np.zeros(worlds * n, dtype=bool)
            expanded_nodes = np.zeros(worlds * n, dtype=bool)
        node_draw_counts = np.zeros(worlds, dtype=np.int64)
        edge_draw_counts = np.zeros(worlds, dtype=np.float64)
        offsets = np.arange(worlds, dtype=np.int64) * n
        frontier = (offsets[:, None] + self._unique_candidates[None, :]).ravel()
        closure[frontier] = True
        # Counter of flat key ``w_local*n + v`` is ``world_base[w_local]
        # + v`` = ``flat + (world_base[w_local] - w_local*n)``;
        # precomputing the per-world surplus folds the whole counter
        # computation into one gather + one add per frontier.
        # ``edge_base`` plays the same role for edge counters.
        node_extra = world_base - offsets.astype(_U64)
        seed_parts: list[np.ndarray] = []
        src_parts: list[np.ndarray] = []
        dst_parts: list[np.ndarray] = []
        while frontier.size:
            local_world = frontier // n
            nodes = frontier - local_world * n
            if collect:
                touched_nodes[frontier] = True
            counters = frontier.astype(_U64)
            counters += node_extra[local_world]
            draws = _hashed_lattice(key, counters)
            self_default = draws <= node_thresholds[nodes]
            node_draw_counts += np.bincount(local_world, minlength=worlds)
            if self_default.any():
                seed_parts.append(frontier[self_default])
            keep = ~self_default
            expand = frontier[keep]
            if not expand.size:
                break
            if collect:
                expanded_nodes[expand] = True
            expand_nodes = nodes[keep]
            expand_world = local_world[keep]
            pos, counts = ragged_positions(indptr, expand_nodes)
            if pos.size == 0:
                break
            edge_ids = edge_id_table[pos]
            rep_world = np.repeat(expand_world, counts)
            edge_counters = edge_ids.astype(_U64)
            edge_counters += edge_base[rep_world]
            edge_draws = _hashed_lattice(key, edge_counters)
            survived = edge_draws <= edge_thresholds[pos]
            edge_draw_counts += np.bincount(
                expand_world, weights=counts, minlength=worlds
            )
            if not survived.any():
                break
            src_keys = (rep_world * n + indices[pos])[survived]
            dst_keys = np.repeat(expand, counts)[survived]
            src_parts.append(src_keys)
            dst_parts.append(dst_keys)
            fresh = src_keys[~closure[src_keys]]
            if fresh.size:
                # Sorted and de-duplicated, as np.unique would return it.
                # numpy >= 2.3's np.unique hashes instead of sorting: on
                # one BSR detection's frontiers (20k nodes, 2-vCPU VM) it
                # took 13x as long for the same arrays.
                fresh.sort()
                first = np.concatenate(([True], fresh[1:] != fresh[:-1]))
                fresh = fresh[first]
                closure[fresh] = True
            frontier = fresh
        if seed_parts:
            defaulted[np.concatenate(seed_parts)] = True
            if src_parts:
                propagate_edge_list(
                    defaulted, np.concatenate(src_parts), np.concatenate(dst_parts)
                )
        keys = offsets[:, None] + self._candidates[None, :]
        return ExploredBlock(
            outcomes=defaulted[keys],
            node_draws=node_draw_counts,
            edge_draws=edge_draw_counts.astype(np.int64),
            touched_nodes=(
                touched_nodes.reshape(worlds, n) if collect else None
            ),
            expanded_nodes=(
                expanded_nodes.reshape(worlds, n) if collect else None
            ),
        )

    def _blocks(
        self, world_indices: np.ndarray, collect: bool
    ) -> Iterator[tuple[np.ndarray, ExploredBlock]]:
        """Explore *world_indices* ``world_batch`` at a time, in order.

        Yields ``(positions, ExploredBlock)`` per block, ``positions``
        indexing into *world_indices*.  Several blocks run on this
        call's own pool (see the module docstring), at most one per
        thread alive, counting the one the consumer holds; the pool is
        shut down when the generator ends or is closed.
        """
        batch = self._world_batch
        starts = range(0, world_indices.size, batch)

        def explore(start: int) -> tuple[np.ndarray, ExploredBlock]:
            stop = min(start + batch, world_indices.size)
            return (
                np.arange(start, stop, dtype=np.int64),
                self._explore(world_indices[start:stop], collect),
            )

        workers = min(_cpu_count(), len(starts))
        if workers <= 1:
            yield from map(explore, starts)
            return
        pool = ThreadPoolExecutor(max_workers=workers)
        try:
            pending = deque()
            for start in starts:
                pending.append(pool.submit(explore, start))
                if len(pending) == workers:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        finally:
            pool.shutdown(wait=True, cancel_futures=True)

    def iter_world_blocks(
        self,
        world_indices: Sequence[int] | np.ndarray,
        collect_touched: bool = False,
    ) -> Iterator[tuple[np.ndarray, ExploredBlock]]:
        """Yield ``(positions, ExploredBlock)`` per internal batch.

        ``positions`` indexes into *world_indices* for each yielded
        block, so consumers can stream arbitrarily many worlds without
        the dense concatenated masks ever existing at once (at most one
        block per CPU is alive) — the surface the compressed world state
        is built through.  With *collect_touched* each block carries its
        worlds' touched and expanded node masks.  Blocks come in world
        order however many threads explore them.  Does not advance the
        sequential cursor or the work counters.
        """
        if not isinstance(collect_touched, bool):
            raise SamplingError(
                f"collect_touched must be a bool, got {collect_touched!r}"
            )
        world_indices = np.asarray(world_indices, dtype=np.int64)
        if world_indices.ndim != 1 or world_indices.size == 0:
            raise SamplingError("world_indices must be a non-empty 1-d array")
        yield from self._blocks(world_indices, collect_touched)

    def outcomes_for_worlds(
        self,
        world_indices: Sequence[int] | np.ndarray,
        collect_touched: bool = False,
    ) -> ExploredBlock:
        """Evaluate exactly the given world indices (batched internally).

        Does not advance the sequential cursor or the work counters —
        this is the random-access surface the streaming monitor repairs
        invalidated worlds through; callers own the accounting.
        """
        blocks = [
            block
            for _, block in self.iter_world_blocks(
                world_indices, collect_touched
            )
        ]
        if len(blocks) == 1:
            return blocks[0]

        def _cat(field: str) -> np.ndarray | None:
            parts = [getattr(b, field) for b in blocks]
            if parts[0] is None:
                return None
            return np.concatenate(parts)

        return ExploredBlock(
            outcomes=np.concatenate([b.outcomes for b in blocks]),
            node_draws=np.concatenate([b.node_draws for b in blocks]),
            edge_draws=np.concatenate([b.edge_draws for b in blocks]),
            touched_nodes=_cat("touched_nodes"),
            expanded_nodes=_cat("expanded_nodes"),
        )

    def run(self, samples: int) -> ForwardEstimate:
        """Run *samples* sequential worlds; counts align with ``candidates``."""
        if samples <= 0:
            raise SamplingError(f"samples must be positive, got {samples}")
        start = self._cursor
        self._cursor += int(samples)
        counts = np.zeros(self._candidates.size, dtype=np.int64)
        worlds = np.arange(start, start + int(samples), dtype=np.int64)
        for _, block in self._blocks(worlds, False):
            counts += block.outcomes.sum(axis=0)
            self.nodes_touched += int(block.node_draws.sum())
            self.edges_touched += int(block.edge_draws.sum())
        return ForwardEstimate(counts=counts, samples=int(samples))

    def estimate_probabilities(self, samples: int) -> np.ndarray:
        """Estimated ``p(v)`` for each candidate, aligned with input order."""
        return self.run(samples).probabilities
