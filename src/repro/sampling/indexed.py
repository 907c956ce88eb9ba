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

The exploration is a multi-source traversal over world-packed words
(Then et al., "The More the Merrier", VLDB 2015): a block's worlds are
explored 64 at a time, and every node carries one ``uint64`` word whose
bit ``j`` stands for the slice's ``j``-th world.  It has two passes:

* a backward closure from the candidates, level by level.  Each level
  hashes every set (world, node) bit of its frontier once, gathers the
  in-CSR segment of each node that did not self-default in some world
  once, and hashes every set (world, edge) bit of those positions once.
  The surviving positions OR their words into their sources' words, and
  the worlds new to a source's closure word make the next frontier;
* forward labelling: each node's self-default word is ORed along the
  closure's surviving in-edges, level by level from the deepest, until
  a sweep changes nothing.

It reports ``nodes_touched`` / ``edges_touched`` as distinct per-world
entity draws, counted as it hashes them.  Its union closure explores
past Algorithm 5's per-candidate early exits, so it may draw more than
the paper's per-candidate BFS on the same world, but the outcomes
agree: under entity-indexed uniforms every world equals that BFS fed
the same uniform arrays (the oracle in ``tests/reference_sampler.py``;
``tests/test_streaming.py`` checks it).  The flat exploration this one
replaced, one key per (world, node) pair, is the oracle
``reference_sampler.flat_explore``; every explored block equals it
field for field (``tests/test_packed_exploration.py``).

A call explores its worlds in blocks of ``world_batch``.  Since the
blocks are independent, a call with more than one explores them on a
thread pool created for that call, one thread per CPU the process may
run on.  numpy releases the GIL inside a call on a large array, such as
the hashing of a level's set bits (up to 2^15 at once), but not between
calls: a level makes about a hundred numpy calls, so blocks whose
closures are small spend most of their time holding the GIL and gain
little from the pool.  Blocks still come back in world order and each
is explored exactly as it would be alone, so outcomes, draw counts and
touched masks do not depend on the CPU count.  A call with one block,
or a process with one CPU, explores inline.  The pool is shut down when
the call ends (for ``iter_world_blocks``, when its iteration ends or is
abandoned), so no thread outlives a call and forked workers inherit
none.

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
from repro.core.propagation import ragged_positions
from repro.sampling.bits import WORD, pack_bool_rows, unpack_bool_rows
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

#: Worlds one explored slice packs into a word per node.
_SLICE = 64
#: Set bits hashed per pass: 2^15 keeps the pass's few 256 KiB arrays in
#: cache.  Single-thread BSR on the 20k-node perfbench graph (2-vCPU VM,
#: median of 5) took 270 ms at 2^15, 281 ms at 2^14, 280 ms at 2^16,
#: 305 ms at 2^17 and 432 ms hashing each level's bits in one pass.
_CHUNK = 1 << 15


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
        invalidation test the streaming monitor relies on.  The sampler
        keeps these sets as one world word per node and unpacks them
        into the masks only for a block that asks for them.
    """

    outcomes: np.ndarray
    node_draws: np.ndarray
    edge_draws: np.ndarray
    touched_nodes: np.ndarray | None = None
    expanded_nodes: np.ndarray | None = None


def _lattice(probabilities: np.ndarray) -> np.ndarray:
    """Probabilities lifted to the 53-bit integer lattice the PRF emits
    mantissas on: ``(z >> 11) * 2^-53 <= p`` iff ``z >> 11 <= floor(p *
    2^53)`` (the product is exact — a pure exponent shift of a 53-bit
    mantissa), so realisations compare in ``uint64`` without ever
    materialising the float uniforms."""
    return np.floor(probabilities * _TWO_53).astype(_U64)


def _world_masks(words: np.ndarray, worlds: int) -> np.ndarray:
    """Boolean ``(worlds, n)`` mask of per-node world words."""
    masks = np.zeros((worlds, words.size), dtype=bool)
    nodes = np.flatnonzero(words != 0)
    masks[:, nodes] = unpack_bool_rows(words[nodes, None], worlds).T
    return masks


def _label_forward(
    defaulted: np.ndarray,
    levels: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> None:
    """Spread defaults forward over the closure's surviving in-edges.

    *defaulted* holds each node's self-default world word and is ORed in
    place, through the ``(heads, sources, alive)`` in-edges of every
    level, until a sweep over all levels changes nothing.  Sweeps run
    from the deepest level up, the direction defaults travel from the
    sources a level discovered to the heads it expanded.
    """
    changed = bool(levels)
    while changed:
        changed = False
        for heads, sources, alive in reversed(levels):
            fire = defaulted[sources] & alive
            fire &= ~defaulted[heads]
            hot = np.flatnonzero(fire != 0)
            if hot.size:
                np.bitwise_or.at(defaulted, heads[hot], fire[hot])
                changed = True


def _concat_blocks(blocks: list[ExploredBlock]) -> ExploredBlock:
    """The blocks of consecutive world runs as one block."""

    def cat(field: str) -> np.ndarray | None:
        parts = [getattr(block, field) for block in blocks]
        return None if parts[0] is None else np.concatenate(parts)

    return ExploredBlock(
        outcomes=cat("outcomes"),
        node_draws=cat("node_draws"),
        edge_draws=cat("edge_draws"),
        touched_nodes=cat("touched_nodes"),
        expanded_nodes=cat("expanded_nodes"),
    )


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
        Worlds per block, the unit a call hands to its thread pool
        (memory/speed trade-off only — outcomes are independent of it).
        A block explores its worlds in slices of 64, one ``uint64`` word
        per node each, so its exploration state is a few words per node
        plus its levels' surviving in-edges.  A call explores up to one
        block per CPU at once.
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
        """Worlds per explored block."""
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
        """Explore the given worlds, one slice of up to 64 at a time."""
        slices = [
            self._explore_slice(world_indices[start : start + _SLICE], collect)
            for start in range(0, world_indices.size, _SLICE)
        ]
        return slices[0] if len(slices) == 1 else _concat_blocks(slices)

    def _explore_slice(
        self, world_indices: np.ndarray, collect: bool
    ) -> ExploredBlock:
        """Backward closure + forward labelling of up to 64 worlds.

        Every node carries one word whose bit ``j`` stands for world
        ``world_indices[j]``: the worlds whose closure holds the node,
        whose frontier it is on, where it self-defaults.  Each level
        hashes the frontier's set (world, node) bits, gathers the in-CSR
        segment of every node that did not self-default in some world
        once, and hashes the set (world, edge) bits of its positions.
        Surviving positions OR their words into their sources' next
        frontier words, less the worlds already in the closure.
        """
        n = self._n
        csr = self._in_csr
        indptr, indices = csr.indptr, csr.indices
        # Self-risks are re-read per block so probability mutations between
        # calls are observed (edge probs are read live through the CSR).
        ps = self._graph.self_risk_array
        worlds = world_indices.size
        # Bits per word the slice unpacks: a power of two, so that a bit's
        # row and column are a shift and a mask of its flat index.
        width = 8 << max(0, (worlds - 1).bit_length() - 3)
        node_base = np.zeros(width, dtype=_U64)
        edge_base = np.zeros(width, dtype=_U64)
        node_base[:worlds], edge_base[:worlds] = counter_lanes(world_indices)
        node_draws = np.zeros(width, dtype=np.int64)
        edge_draws = np.zeros(width, dtype=np.int64)
        closure = np.zeros(n, dtype=WORD)
        defaulted = np.zeros(n, dtype=WORD)
        reach = np.zeros(n, dtype=WORD)
        owner = np.empty(n, dtype=np.int64)
        # (heads, sources, surviving worlds) of each level's live in-edges.
        levels: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        frontier = self._unique_candidates
        words = np.full(frontier.size, (1 << worlds) - 1, dtype=WORD)
        closure[frontier] = words
        while frontier.size:
            self_default = self._draw(
                words,
                width,
                frontier.astype(_U64),
                node_base,
                _lattice(ps[frontier]),
                node_draws,
            )
            defaulted[frontier] |= self_default
            words &= ~self_default
            live = np.flatnonzero(words != 0)
            heads = frontier[live]
            words = words[live]
            pos, counts = ragged_positions(indptr, heads)
            if not pos.size:
                break
            alive = self._draw(
                np.repeat(words, counts),
                width,
                csr.edge_ids[pos].astype(_U64),
                edge_base,
                _lattice(csr.probs[pos]),
                edge_draws,
            )
            live = np.flatnonzero(alive != 0)
            alive = alive[live]
            sources = indices[pos[live]]
            levels.append((np.repeat(heads, counts)[live], sources, alive))
            # Each source's worlds new to the closure.  A source reached
            # through several positions stays once, at the entry its owner
            # slot names.
            np.bitwise_or.at(reach, sources, alive)
            fresh = reach[sources] & ~closure[sources]
            reach[sources] = 0
            live = np.flatnonzero(fresh != 0)
            frontier = sources[live]
            words = fresh[live]
            rank = np.arange(frontier.size)
            owner[frontier] = rank
            first = owner[frontier] == rank
            frontier = frontier[first]
            words = words[first]
            closure[frontier] |= words
        touched_nodes = expanded_nodes = None
        if collect:
            touched_nodes = _world_masks(closure, worlds)
            expanded_nodes = _world_masks(closure & ~defaulted, worlds)
        _label_forward(defaulted, levels)
        outcomes = unpack_bool_rows(defaulted[self._candidates, None], worlds)
        return ExploredBlock(
            outcomes=outcomes.T.copy(),
            node_draws=node_draws[:worlds],
            edge_draws=edge_draws[:worlds],
            touched_nodes=touched_nodes,
            expanded_nodes=expanded_nodes,
        )

    def _draw(
        self,
        words: np.ndarray,
        width: int,
        counters: np.ndarray,
        bases: np.ndarray,
        thresholds: np.ndarray,
        draws: np.ndarray,
    ) -> np.ndarray:
        """Hash every set bit of *words* once; the bits that drew low.

        Bit ``j`` of row ``r`` hashes counter ``counters[r] + bases[j]``
        and stays set iff its draw is at most ``thresholds[r]``.
        ``draws[j]`` counts the bits world ``j`` hashed.  The set bits are
        hashed ``_CHUNK`` at a time, so that every pass over them stays
        in cache.
        """
        bits = unpack_bool_rows(words[:, None], width)
        flat = np.flatnonzero(bits)
        cells = bits.reshape(-1)
        shift = width.bit_length() - 1
        for start in range(0, flat.size, _CHUNK):
            part = flat[start : start + _CHUNK]
            rows = part >> shift
            cols = part & (width - 1)
            draws += np.bincount(cols, minlength=width)
            lattice = counters[rows]
            lattice += bases[cols]
            cells[part] = (
                _hashed_lattice(self._key, lattice) <= thresholds[rows]
            )
        return pack_bool_rows(bits)[:, 0]

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
        return blocks[0] if len(blocks) == 1 else _concat_blocks(blocks)

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
