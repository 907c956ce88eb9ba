"""Algorithm 5 of the paper and the flat exploration, kept as test oracles.

Instead of materialising a whole possible world and propagating forward,
reverse sampling answers, for each *candidate* node ``v``, the question
"does ``v`` default in this world?" by a lazy backward search over
in-edges: ``v`` defaults iff the search reaches a node that defaults by
itself through edges that survive.  Random choices (per-node self-default,
per-edge survival) are drawn lazily on first encounter and memoised for
the rest of the world, so multiple candidates within one world share
consistent randomness — the ``checked`` / ``survived`` / ``hv``
bookkeeping of Algorithm 5.

The module is organised around three pieces:

* :class:`WorldArena` — owns every per-world buffer (node/edge memo
  tables, the ``hv`` memo, the per-search visit stamps) exactly once for
  the lifetime of a sampling run.  Worlds are "reset" by bumping an epoch
  counter in O(1); a memo entry is valid only if its stamp matches the
  current epoch, so no buffer is ever reallocated or cleared between
  worlds.  Randomness comes from a shared :class:`RandomBlock`, which
  serves uniforms from a pre-drawn chunk instead of one ``rng.random()``
  round-trip per draw.
* :class:`ReverseWorld` — a line-by-line transcription of Algorithm 5's
  per-candidate BFS, running on arena state.  A world can also be driven
  by *entity-indexed* uniforms (``node_uniforms`` / ``edge_uniforms``),
  which makes its outcomes a pure function of those arrays — the draw
  policy the tests share with the production engine.
* :class:`ReverseSampler` — one :class:`ReverseWorld` per sample.

Detection runs :class:`~repro.sampling.indexed.IndexedReverseSampler`,
which explores each block's worlds 64 at a time as one word of world
bits per node, with counter-PRF randomness.  ``test_streaming.py``
checks it world by world against :class:`ReverseWorld` fed the same
entity-indexed uniforms, and ``test_reverse_sampling.py`` checks this
oracle against the exact enumeration and the forward sampler.

:func:`flat_explore` is the exploration the sampler ran before the
world-packed one: a flat multi-world closure, one key per (world, node)
pair, labelled forward over every surviving (world, edge) pair.  It
hashes the same counters, so ``test_packed_exploration.py`` holds every
explored block to it field for field.

The searches run directly on the in-CSR of the original graph, which is
the out-adjacency of the reversed graph ``Gt`` the paper feeds to
Algorithm 5.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, Sequence

import numpy as np

from repro.core.errors import SamplingError
from repro.core.graph import UncertainGraph
from repro.core.propagation import propagate_edge_list, ragged_positions
from repro.sampling.forward import ForwardEstimate
from repro.sampling.indexed import (
    ExploredBlock,
    IndexedReverseSampler,
    _validate_candidates,
    counter_lanes,
)
from repro.sampling.rng import SeedLike, hashed_mantissas_inplace, make_rng


class RandomBlock:
    """Uniform draws served from a pre-drawn block, refilled in chunks.

    Scalar ``Generator.random()`` calls cost a full Python round-trip into
    the bit generator per draw; the hot sampling loops instead pull their
    uniforms from this buffer, which is refilled ``chunk`` doubles at a
    time with one vectorised call.  Because numpy generators produce the
    same double stream whether consumed one at a time or in blocks,
    draining a :class:`RandomBlock` yields *bit-identical* values to the
    equivalent sequence of scalar ``rng.random()`` calls — seeded runs are
    unchanged by the optimisation.

    Parameters
    ----------
    rng:
        The generator that backs the block.
    chunk:
        Doubles drawn per refill.  Requests larger than *chunk* are served
        with a single dedicated draw, so any ``take`` size is legal.
    """

    __slots__ = ("_rng", "_chunk", "_buffer", "_pos")

    def __init__(self, rng: np.random.Generator, chunk: int = 1 << 14) -> None:
        if chunk <= 0:
            raise ValueError(f"chunk must be positive, got {chunk}")
        self._rng = rng
        self._chunk = int(chunk)
        self._buffer = np.empty(0, dtype=np.float64)
        self._pos = 0

    @property
    def remaining(self) -> int:
        """Uniforms currently buffered and not yet consumed."""
        return self._buffer.size - self._pos

    def next(self) -> float:
        """One uniform in ``[0, 1)`` (scalar fast path)."""
        if self._pos >= self._buffer.size:
            self._buffer = self._rng.random(self._chunk)
            self._pos = 0
        value = self._buffer[self._pos]
        self._pos += 1
        return float(value)

    def take(self, count: int) -> np.ndarray:
        """*count* uniforms in ``[0, 1)`` as a fresh array.

        Consumes buffered values first, then tops up with one vectorised
        draw, preserving the exact stream order of scalar consumption.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        available = self._buffer.size - self._pos
        if count <= available:
            out = self._buffer[self._pos : self._pos + count].copy()
            self._pos += count
            return out
        head = self._buffer[self._pos :]
        self._pos = self._buffer.size
        tail = self._rng.random(count - head.size)
        return np.concatenate((head, tail))


class WorldArena:
    """Reusable per-world state for reverse sampling.

    One arena serves every world of a sampling run.  The memo buffers
    (``checked`` / ``survived`` / ``hv``) are allocated once and validity
    is tracked with epoch stamps: entry ``u`` belongs to the current world
    iff ``stamp[u] == epoch``, so opening a new world is a single integer
    increment instead of five ``O(n + m)`` allocations.

    Parameters
    ----------
    graph:
        The uncertain graph being sampled.
    rng:
        Seed, generator, or ``None``; feeds the arena's
        :class:`RandomBlock`.
    chunk:
        Uniforms pre-drawn per block refill.
    """

    __slots__ = (
        "_graph",
        "_in_csr",
        "_ps",
        "_block",
        "_node_stamp",
        "_node_default",
        "_edge_stamp",
        "_edge_survived",
        "_hv_stamp",
        "_visit_stamp",
        "_epoch",
        "_search",
    )

    def __init__(
        self, graph: UncertainGraph, rng: SeedLike = None, chunk: int = 1 << 14
    ) -> None:
        self._graph = graph
        self._in_csr = graph.in_csr()
        self._ps = graph.self_risk_array
        self._block = RandomBlock(make_rng(rng), chunk)
        n, m = graph.num_nodes, graph.num_edges
        self._node_stamp = np.zeros(n, dtype=np.int64)
        self._node_default = np.zeros(n, dtype=bool)
        self._edge_stamp = np.zeros(m, dtype=np.int64)
        self._edge_survived = np.zeros(m, dtype=bool)
        self._hv_stamp = np.zeros(n, dtype=np.int64)
        self._visit_stamp = np.zeros(n, dtype=np.int64)
        self._epoch = 0
        self._search = 0

    @property
    def graph(self) -> UncertainGraph:
        """The graph whose worlds this arena materialises."""
        return self._graph

    @property
    def epoch(self) -> int:
        """Current world epoch (0 until the first world is opened)."""
        return self._epoch

    def new_world(
        self,
        node_uniforms: np.ndarray | None = None,
        edge_uniforms: np.ndarray | None = None,
    ) -> "ReverseWorld":
        """Open the next world: O(1) — bumps the epoch, reuses all buffers.

        When *node_uniforms* / *edge_uniforms* are given they replace the
        arena's random block for this world: the choice for node ``u``
        (edge ``e``) is ``uniform[u] <= ps(u)`` (``uniform[e] <= p(e)``),
        making outcomes a deterministic function of the arrays.

        Opening a world retires the previous one: querying a stale
        :class:`ReverseWorld` raises, because its memo stamps would
        corrupt the live world's state.
        """
        self._epoch += 1
        # Re-read self-risks so probability mutations between worlds are
        # observed (edge probabilities are already read live through the
        # in-place-patched CSR).
        self._ps = self._graph.self_risk_array
        return ReverseWorld(
            arena=self, node_uniforms=node_uniforms, edge_uniforms=edge_uniforms
        )


class ReverseWorld:
    """Lazy possible-world shared by all candidate queries of one sample.

    The executable reference for Algorithm 5.  Random choices are
    materialised on demand into the arena's epoch-stamped memo tables, so
    querying many candidates against one world costs each draw at most
    once (the paper's "avoid generating random numbers for the same
    node/edge multiple times").

    Construct either directly — ``ReverseWorld(graph, rng)`` builds a
    private single-world :class:`WorldArena` — or through
    :meth:`WorldArena.new_world`, which reuses one arena across worlds.
    """

    __slots__ = (
        "_arena",
        "_epoch",
        "_node_uniforms",
        "_edge_uniforms",
        "nodes_touched",
        "edges_touched",
    )

    def __init__(
        self,
        graph: UncertainGraph | None = None,
        rng: SeedLike = None,
        *,
        arena: WorldArena | None = None,
        node_uniforms: np.ndarray | None = None,
        edge_uniforms: np.ndarray | None = None,
    ) -> None:
        if (graph is None) == (arena is None):
            raise SamplingError("pass exactly one of graph or arena")
        if arena is None:
            arena = WorldArena(graph, rng)
            arena._epoch += 1
        self._arena = arena
        self._epoch = arena._epoch
        self._node_uniforms = node_uniforms
        self._edge_uniforms = edge_uniforms
        self.nodes_touched = 0
        self.edges_touched = 0

    def _node_defaults_by_self(self, u: int) -> bool:
        """Lazily decide (and memoise) whether *u* defaults by itself."""
        arena = self._arena
        if arena._node_stamp[u] != self._epoch:
            arena._node_stamp[u] = self._epoch
            if self._node_uniforms is not None:
                draw = float(self._node_uniforms[u])
            else:
                draw = arena._block.next()
            arena._node_default[u] = draw <= arena._ps[u]
            self.nodes_touched += 1
        return bool(arena._node_default[u])

    def _edge_survives(self, edge_id: int, probability: float) -> bool:
        """Lazily decide (and memoise) whether an edge carries contagion."""
        arena = self._arena
        if arena._edge_stamp[edge_id] != self._epoch:
            arena._edge_stamp[edge_id] = self._epoch
            if self._edge_uniforms is not None:
                draw = float(self._edge_uniforms[edge_id])
            else:
                draw = arena._block.next()
            arena._edge_survived[edge_id] = draw <= probability
            self.edges_touched += 1
        return bool(arena._edge_survived[edge_id])

    def candidate_defaults(self, v: int) -> bool:
        """Algorithm 5 body: does candidate *v* default in this world?"""
        arena = self._arena
        if self._epoch != arena._epoch:
            raise SamplingError(
                "this world was retired by WorldArena.new_world(); "
                "query worlds one at a time"
            )
        arena._search += 1
        stamp = arena._search
        in_csr = arena._in_csr
        visit = arena._visit_stamp
        visit[v] = stamp
        queue: deque[int] = deque((v,))
        result = False
        while queue:
            u = queue.popleft()
            if arena._hv_stamp[u] == self._epoch:  # lines 7-8: known default
                result = True
                break
            if self._node_defaults_by_self(u):  # lines 9-13
                arena._hv_stamp[u] = self._epoch
                result = True
                break
            start, stop = in_csr.indptr[u], in_csr.indptr[u + 1]
            for pos in range(start, stop):  # lines 14-20
                neighbor = int(in_csr.indices[pos])
                if visit[neighbor] == stamp:
                    continue
                edge_id = int(in_csr.edge_ids[pos])
                if self._edge_survives(edge_id, float(in_csr.probs[pos])):
                    visit[neighbor] = stamp
                    queue.append(neighbor)
        if result:
            arena._hv_stamp[v] = self._epoch
        return result


class ReverseSampler:
    """Estimate candidate default probabilities via the reference engine.

    Runs one :class:`ReverseWorld` per sample on a shared
    :class:`WorldArena` (no per-world allocations).  The per-candidate BFS
    is pure Python; it is the executable specification the indexed engine
    is checked against.

    Parameters
    ----------
    graph:
        The uncertain graph (the *original* direction; the sampler walks
        its in-edges, which is equivalent to walking ``Gt`` forward).
    candidates:
        Internal node indices whose default probability must be estimated
        (the candidate set ``B`` of Algorithm 4).
    seed:
        Seed, generator, or ``None``.
    """

    def __init__(
        self,
        graph: UncertainGraph,
        candidates: Sequence[int] | np.ndarray,
        seed: SeedLike = None,
    ) -> None:
        self._graph = graph
        self._candidates = _validate_candidates(graph, candidates)
        self._arena = WorldArena(graph, make_rng(seed))
        self.nodes_touched = 0
        self.edges_touched = 0

    @property
    def candidates(self) -> np.ndarray:
        """Candidate internal indices (copy not taken; treat as read-only)."""
        return self._candidates

    def iter_samples(self, samples: int) -> Iterator[np.ndarray]:
        """Yield, per world, the boolean default vector of the candidates.

        Element ``j`` of each yielded array answers "does candidate ``j``
        default in this world".
        """
        if samples <= 0:
            raise SamplingError(f"samples must be positive, got {samples}")
        for _ in range(samples):
            world = self._arena.new_world()
            outcome = np.fromiter(
                (world.candidate_defaults(int(v)) for v in self._candidates),
                dtype=bool,
                count=self._candidates.size,
            )
            self.nodes_touched += world.nodes_touched
            self.edges_touched += world.edges_touched
            yield outcome

    def run(self, samples: int) -> ForwardEstimate:
        """Run *samples* worlds; counts are aligned with ``candidates``."""
        counts = np.zeros(self._candidates.size, dtype=np.int64)
        for outcome in self.iter_samples(samples):
            counts += outcome
        return ForwardEstimate(counts=counts, samples=int(samples))

    def estimate_probabilities(self, samples: int) -> np.ndarray:
        """Estimated ``p(v)`` for each candidate, aligned with input order."""
        return self.run(samples).probabilities



def flat_explore(
    sampler: IndexedReverseSampler, world_indices: np.ndarray, collect: bool
) -> ExploredBlock:
    """The flat multi-world exploration the packed engine replaced.

    World ``w``, node ``v`` is the flat key ``w * n + v`` of one big
    graph whose regions never cross worlds.  A backward closure expands
    the keys level by level — hashing each frontier key, gathering the
    in-edges of every key that did not self-default once per world, and
    keeping the sources of the surviving edges that are new to the
    closure — and forward labelling then runs
    :func:`~repro.core.propagation.propagate_edge_list` over every
    surviving (world, edge) pair.  Returns what
    ``sampler._explore(world_indices, collect)`` returns, field for
    field.
    """
    n = sampler._n
    key = sampler.stream_key
    csr = sampler._in_csr
    indptr, indices, probs = csr.indptr, csr.indices, csr.probs
    edge_id_table = csr.edge_ids
    ps = sampler._graph.self_risk_array
    node_thresholds = np.floor(ps * 2.0**53).astype(np.uint64)
    edge_thresholds = np.floor(probs * 2.0**53).astype(np.uint64)
    world_indices = np.asarray(world_indices, dtype=np.int64)
    world_base, edge_base = counter_lanes(world_indices)
    worlds = world_indices.size
    closure = np.zeros(worlds * n, dtype=bool)
    defaulted = np.zeros(worlds * n, dtype=bool)
    touched_nodes = np.zeros(worlds * n, dtype=bool)
    expanded_nodes = np.zeros(worlds * n, dtype=bool)
    node_draw_counts = np.zeros(worlds, dtype=np.int64)
    edge_draw_counts = np.zeros(worlds, dtype=np.float64)
    offsets = np.arange(worlds, dtype=np.int64) * n
    frontier = (offsets[:, None] + np.unique(sampler.candidates)[None, :]).ravel()
    closure[frontier] = True
    # Counter of flat key ``w_local*n + v`` is ``world_base[w_local] + v``.
    node_extra = world_base - offsets.astype(np.uint64)
    seed_parts: list[np.ndarray] = []
    src_parts: list[np.ndarray] = []
    dst_parts: list[np.ndarray] = []
    while frontier.size:
        local_world = frontier // n
        nodes = frontier - local_world * n
        touched_nodes[frontier] = True
        counters = frontier.astype(np.uint64)
        counters += node_extra[local_world]
        draws = hashed_mantissas_inplace(key, counters)
        self_default = draws <= node_thresholds[nodes]
        node_draw_counts += np.bincount(local_world, minlength=worlds)
        if self_default.any():
            seed_parts.append(frontier[self_default])
        keep = ~self_default
        expand = frontier[keep]
        if not expand.size:
            break
        expanded_nodes[expand] = True
        expand_nodes = nodes[keep]
        expand_world = local_world[keep]
        pos, counts = ragged_positions(indptr, expand_nodes)
        if pos.size == 0:
            break
        edge_ids = edge_id_table[pos]
        rep_world = np.repeat(expand_world, counts)
        edge_counters = edge_ids.astype(np.uint64)
        edge_counters += edge_base[rep_world]
        edge_draws = hashed_mantissas_inplace(key, edge_counters)
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
        fresh = np.unique(src_keys[~closure[src_keys]])
        closure[fresh] = True
        frontier = fresh
    if seed_parts:
        defaulted[np.concatenate(seed_parts)] = True
        if src_parts:
            propagate_edge_list(
                defaulted, np.concatenate(src_parts), np.concatenate(dst_parts)
            )
    keys = offsets[:, None] + sampler.candidates[None, :]
    return ExploredBlock(
        outcomes=defaulted[keys],
        node_draws=node_draw_counts,
        edge_draws=edge_draw_counts.astype(np.int64),
        touched_nodes=touched_nodes.reshape(worlds, n) if collect else None,
        expanded_nodes=expanded_nodes.reshape(worlds, n) if collect else None,
    )
