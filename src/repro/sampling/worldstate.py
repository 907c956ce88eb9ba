"""Per-world touched-entity state, bit-packed, and realised world views.

The streaming :class:`~repro.streaming.monitor.TopKMonitor` keeps, for
every cached possible world, the set of entities that world actually
drew: a patched entity can only invalidate worlds that drew it, so these
masks are what turns the counter-PRF's crossing test from "expected
``|Δp|`` of all worlds" into "expected ``|Δp|`` of the worlds that even
looked at the entity".

:class:`PackedWorldState` stores them as two bit-packed ``uint64``
matrices of ``n`` bits per world (touched nodes, *expanded* nodes), and
nothing else.  Edge masks are never materialised: edge ``e`` was drawn
in a world iff its head node was expanded there (see
:mod:`repro.sampling.indexed`), so the ``m``-bit mask collapses onto the
``n``-bit expanded mask.  With ``m ≈ 3n`` this stores world state in
``2n/8`` bytes instead of the ``4n`` of dense boolean masks — a ~16×
reduction — and per-world draw counts are popcounts (nodes) and
in-degree sums over the expanded nodes (edges).  The dense layout
survives as the test oracle the packed state is pinned against.

The state answers the two queries the monitor's repair pipeline is built
from:

* ``node_pairs(entities)`` / ``edge_pairs(edge_ids, heads)`` — the
  ``(world row, entity position)`` pairs where the entity was drawn, the
  input to one bulk counter-PRF crossing test per refresh.  Both are one
  column bit-scan of the packed masks, which are all the state keeps;
* ``merge_block(rows, block)`` — OR a freshly-explored closure (an
  added candidate's worlds) into existing rows, returning the exact
  per-row draw-count deltas, which is what makes incremental
  candidate-set repair's work telemetry equal a from-scratch union run.

:class:`WorldView` realises a fixed set of worlds in full for the query
families.
"""

from __future__ import annotations

from typing import Callable, Hashable, Sequence, TypeVar

import numpy as np

from repro.core.errors import SamplingError
from repro.core.graph import UncertainGraph
from repro.core.propagation import propagate_edge_list, surviving_edge_keys
from repro.sampling.bits import (
    WORD,
    num_words,
    pack_bool_rows,
    popcount,
    unpack_bool_rows,
)
from repro.sampling.indexed import _lattice, _restore_slots, counter_lanes
from repro.sampling.rng import (
    SeedLike,
    derive_stream_key,
    hashed_mantissas_inplace,
)

__all__ = [
    "PackedWorldState",
    "WorldView",
]

_T = TypeVar("_T")

_ONE = np.uint64(1)
_SIX = np.uint64(6)
_MASK_63 = np.uint64(63)


def _set_bit_pairs(
    words: np.ndarray, cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(row, position)`` of every set bit among the columns *cols*."""
    cols = np.asarray(cols, dtype=np.uint64)
    gathered = words[:, (cols >> _SIX).astype(np.int64)]
    bits = (gathered >> (cols & _MASK_63)[None, :]) & _ONE
    return np.nonzero(bits)


class PackedWorldState:
    """Bit-packed per-world touched state.

    Two ``(worlds, ceil(n/64))`` little-endian ``uint64`` matrices —
    touched nodes and expanded nodes — carry the full dense information
    (edge ``e`` drawn iff ``heads[e]`` expanded).  An ``entity → worlds``
    lookup reads the entity's bit column from every row; the masks are
    the only state, so a repair that overwrites rows leaves nothing else
    to keep fresh.

    Parameters
    ----------
    worlds, num_nodes, num_edges:
        State dimensions.
    in_degrees:
        ``(n,)`` in-degree of every node; ``Σ in_degree over expanded``
        is a world's exact edge-draw count, which :meth:`merge_block`
        reports as a delta.
    """

    __slots__ = (
        "touched_words",
        "expanded_words",
        "_n",
        "_m",
        "_in_degrees",
    )

    def __init__(
        self,
        worlds: int,
        num_nodes: int,
        num_edges: int,
        *,
        in_degrees: np.ndarray,
    ) -> None:
        self._n = int(num_nodes)
        self._m = int(num_edges)
        in_degrees = np.asarray(in_degrees, dtype=np.int64)
        if in_degrees.shape != (self._n,):
            raise SamplingError(
                f"in_degrees must have shape ({self._n},), "
                f"got {in_degrees.shape}"
            )
        self._in_degrees = in_degrees
        words = num_words(self._n)
        self.touched_words = np.zeros((worlds, words), dtype=WORD)
        self.expanded_words = np.zeros((worlds, words), dtype=WORD)

    def __setstate__(self, state) -> None:
        _restore_slots(self, state)

    @staticmethod
    def bytes_needed(worlds: int, num_nodes: int, num_edges: int) -> int:
        """Storage needed for *worlds* worlds: the two packed masks, which
        are all the state holds."""
        return int(worlds) * 2 * num_words(num_nodes) * 8

    @property
    def worlds(self) -> int:
        """Number of world rows currently held."""
        return self.touched_words.shape[0]

    @property
    def nbytes(self) -> int:
        """Actual bytes held by the packed masks."""
        return self.touched_words.nbytes + self.expanded_words.nbytes

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def store_block(self, rows: np.ndarray, block) -> None:
        """Overwrite *rows* with a freshly explored
        :class:`~repro.sampling.indexed.ExploredBlock`."""
        self.touched_words[rows] = pack_bool_rows(block.touched_nodes)
        self.expanded_words[rows] = pack_bool_rows(block.expanded_nodes)

    def merge_block(
        self, rows: np.ndarray, block
    ) -> tuple[np.ndarray, np.ndarray]:
        """OR a block into *rows*; returns exact per-row draw deltas.

        Node deltas are popcounts of the newly-set touched bits; edge
        deltas are the in-degree sums of the newly-expanded nodes (every
        in-edge of a node is drawn exactly when the node is expanded).
        """
        touched_new = pack_bool_rows(block.touched_nodes)
        node_delta = popcount(
            touched_new & ~self.touched_words[rows]
        ).sum(axis=1, dtype=np.int64)
        self.touched_words[rows] |= touched_new
        old_expanded = unpack_bool_rows(self.expanded_words[rows], self._n)
        newly_expanded = block.expanded_nodes & ~old_expanded
        edge_delta = newly_expanded @ self._in_degrees
        self.expanded_words[rows] |= pack_bool_rows(block.expanded_nodes)
        return node_delta, edge_delta.astype(np.int64)

    def resize(self, worlds: int) -> None:
        """Grow (zero-filled) or truncate to *worlds* rows."""
        current = self.worlds
        if worlds == current:
            return
        if worlds < current:
            self.touched_words = self.touched_words[:worlds].copy()
            self.expanded_words = self.expanded_words[:worlds].copy()
            return
        words = self.touched_words.shape[1]
        touched = np.zeros((worlds, words), dtype=WORD)
        expanded = np.zeros((worlds, words), dtype=WORD)
        touched[:current] = self.touched_words
        expanded[:current] = self.expanded_words
        self.touched_words, self.expanded_words = touched, expanded

    def extend(
        self,
        num_nodes: int,
        num_edges: int,
        *,
        in_degrees: np.ndarray,
    ) -> None:
        """Append entity columns (bits) for appended nodes/edges.

        New node bits start clear in every cached world — a closure can
        only reach a new entity through a new edge, so an unaffected
        world's masks are already exactly what a fresh exploration would
        record.  *in_degrees* are the **grown** graph's node in-degrees:
        existing edges keep their ids (append-only growth), while
        in-degrees of existing nodes may grow — the edge-draw identity
        ``Σ in_degree over expanded`` stays exact for worlds whose
        expanded set contains no new edge's head, and every other world
        must be repaired by the caller anyway.
        """
        if num_nodes < self._n or num_edges < self._m:
            raise SamplingError("world state only extends, never shrinks")
        in_degrees = np.asarray(in_degrees, dtype=np.int64)
        if in_degrees.shape != (int(num_nodes),):
            raise SamplingError(
                f"in_degrees must have shape ({num_nodes},), "
                f"got {in_degrees.shape}"
            )
        old_words = self.touched_words.shape[1]
        new_words = num_words(int(num_nodes))
        if new_words > old_words:
            touched = np.zeros((self.worlds, new_words), dtype=WORD)
            expanded = np.zeros((self.worlds, new_words), dtype=WORD)
            touched[:, :old_words] = self.touched_words
            expanded[:, :old_words] = self.expanded_words
            self.touched_words, self.expanded_words = touched, expanded
        self._n = int(num_nodes)
        self._m = int(num_edges)
        self._in_degrees = in_degrees

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def node_pairs(
        self, entities: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(world row, position)`` pairs where each node was drawn."""
        return _set_bit_pairs(self.touched_words, entities)

    def edge_pairs(
        self, edge_ids: np.ndarray, heads: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(world row, position)`` pairs where each edge was drawn.

        An edge is drawn iff its head node is expanded; the caller
        passes the heads so the query needs no per-call gather.
        """
        return _set_bit_pairs(self.expanded_words, heads)


#: Counter values materialised at once while realising a view (bounds the
#: transient ``uint64`` buffers, not the boolean result matrices).
_REALISE_BUDGET = 1 << 22


class WorldView:
    """Read-only realised view of a fixed set of counter-PRF worlds.

    The query-engine surface over shared world state: given the graph, a
    vector of world indices and the 64-bit stream key, every per-world
    realisation is a pure hash at the world's counter lane
    (:func:`~repro.sampling.indexed.counter_lanes`) — so this view
    reproduces, **bit-identically**, the outcomes the indexed sampler
    computed for the same worlds.  In
    particular, for a :class:`~repro.streaming.monitor.TopKMonitor`'s
    cached world set, ``view.defaulted()[:, candidates]`` equals the
    monitor's repaired outcome matrix exactly — which is what lets many
    query families share one repaired world set instead of each paying
    for fresh sampling.

    Everything is **lazy and cached**: the realisation matrices, the
    flat keys of the surviving edges, the propagated default matrix, and
    any family-specific derived product registered through
    :meth:`cached`.  The view never mutates the graph and never draws
    new randomness; it is safe to hand to any number of estimators.

    Memory: realising all worlds costs ``O(W * (n + m))`` booleans, so
    views are meant for the sample counts the monitor keeps (thousands),
    not for exhaustive enumeration.  The edge keys (:meth:`edge_keys`)
    add 16 bytes per surviving (world, edge) pair — on a 5,000-node,
    10,000-edge power-law graph with 258 worlds, about 0.86 M pairs and
    14 MB, more than the realisation matrices themselves.  A monitor's
    view lives until its next accepted update.

    Parameters
    ----------
    graph:
        The uncertain graph the worlds realise.
    world_ids:
        The world indices to materialise (any order, repeats allowed),
        each in ``[0, 2^31)``.
    stream_key:
        The sampler's 64-bit PRF key (``IndexedReverseSampler
        .stream_key``).  Exactly one of *stream_key* / *seed* semantics:
        when *stream_key* is given it is used verbatim; otherwise a key
        is derived from *seed* exactly as the samplers derive theirs.
    seed:
        Seed to derive a stream key from when *stream_key* is ``None``.
    """

    __slots__ = (
        "_graph",
        "_world_ids",
        "_key",
        "_n",
        "_m",
        "_self_default",
        "_edge_survives",
        "_cache",
    )

    def __init__(
        self,
        graph: UncertainGraph,
        world_ids: Sequence[int] | np.ndarray,
        *,
        stream_key: np.uint64 | int | None = None,
        seed: SeedLike = None,
    ) -> None:
        self._graph = graph
        world_ids = np.asarray(world_ids, dtype=np.int64)
        if world_ids.ndim != 1 or world_ids.size == 0:
            raise SamplingError("world_ids must be a non-empty 1-d array")
        counter_lanes(world_ids)  # rejects indices outside the lanes
        self._world_ids = world_ids.copy()
        self._world_ids.setflags(write=False)
        if stream_key is not None:
            self._key = np.uint64(stream_key)
        else:
            self._key = derive_stream_key(seed)
        self._n = graph.num_nodes
        self._m = graph.num_edges
        self._self_default: np.ndarray | None = None
        self._edge_survives: np.ndarray | None = None
        self._cache: dict[Hashable, object] = {}

    def __setstate__(self, state) -> None:
        _restore_slots(self, state)

    # ------------------------------------------------------------------
    @property
    def graph(self) -> UncertainGraph:
        """The graph the worlds realise."""
        return self._graph

    @property
    def world_ids(self) -> np.ndarray:
        """The realised world indices (read-only)."""
        return self._world_ids

    @property
    def num_worlds(self) -> int:
        """Number of realised worlds (rows of every matrix)."""
        return int(self._world_ids.size)

    @property
    def num_nodes(self) -> int:
        return self._n

    @property
    def num_edges(self) -> int:
        return self._m

    @property
    def stream_key(self) -> np.uint64:
        """The 64-bit PRF key every realisation hashes from."""
        return self._key

    # ------------------------------------------------------------------
    def _realise(self) -> None:
        """Materialise the ``(W, n)`` / ``(W, m)`` realisation matrices.

        The integer-lattice comparison is the one the indexed sampler's
        exploration uses (``draw <= floor(p * 2^53)`` on ``uint64``,
        through the same ``_lattice``), so per-entity realisations agree
        bit for bit with any engine keyed the same way.
        """
        if self._self_default is not None:
            return
        graph = self._graph
        n, m = self._n, self._m
        ps = graph.self_risk_array
        _, _, pe = graph.edge_array
        node_thresholds = _lattice(ps)
        edge_thresholds = _lattice(pe)
        worlds = self.num_worlds
        self_default = np.empty((worlds, n), dtype=bool)
        edge_survives = np.empty((worlds, m), dtype=bool)
        node_ids = np.arange(n, dtype=np.uint64)
        edge_ids = np.arange(m, dtype=np.uint64)
        chunk = max(1, _REALISE_BUDGET // max(n + m, 1))
        key = self._key
        for start in range(0, worlds, chunk):
            stop = min(start + chunk, worlds)
            node_bases, edge_bases = counter_lanes(self._world_ids[start:stop])
            if n:
                counters = (node_bases[:, None] + node_ids[None, :]).ravel()
                draws = hashed_mantissas_inplace(key, counters)
                self_default[start:stop] = (
                    draws.reshape(stop - start, n)
                    <= node_thresholds[None, :]
                )
            if m:
                counters = (edge_bases[:, None] + edge_ids[None, :]).ravel()
                draws = hashed_mantissas_inplace(key, counters)
                edge_survives[start:stop] = (
                    draws.reshape(stop - start, m)
                    <= edge_thresholds[None, :]
                )
        self._self_default = self_default
        self._edge_survives = edge_survives

    def self_default(self) -> np.ndarray:
        """Boolean ``(W, n)``: which nodes self-default in each world."""
        self._realise()
        return self._self_default

    def edge_survives(self) -> np.ndarray:
        """Boolean ``(W, m)``: which edges survive in each world."""
        self._realise()
        return self._edge_survives

    def edge_keys(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat ``w * n + v`` keys of both endpoints of every surviving
        (world, edge) pair, read-only.

        Built once (:func:`~repro.core.propagation.surviving_edge_keys`)
        and shared by the propagation fixpoint and every graph kernel of
        :mod:`repro.queries.kernels`.
        """

        def build() -> tuple[np.ndarray, np.ndarray]:
            src, dst, _ = self._graph.edge_array
            keys = surviving_edge_keys(self._n, src, dst, self.edge_survives())
            for array in keys:
                array.setflags(write=False)
            return keys

        return self.cached(("edge_keys",), build)

    def defaulted(self) -> np.ndarray:
        """Boolean ``(W, n)``: which nodes default (self or contagion).

        Bit-identical to the reverse samplers' per-world outcomes for
        the same worlds and key: the contagion fixpoint here is
        :func:`~repro.core.propagation.propagate_edge_list` over
        :meth:`edge_keys`, and the sampler reaches the same fixpoint over
        its closure's world words.
        """

        def propagate() -> np.ndarray:
            defaulted = self.self_default().copy()
            propagate_edge_list(defaulted.reshape(-1), *self.edge_keys())
            return defaulted

        return self.cached(("defaulted",), propagate)

    def contagion(self) -> np.ndarray:
        """Boolean ``(W, n)``: defaulted through contagion, not self."""
        return self.cached(
            ("contagion",),
            lambda: self.defaulted() & ~self.self_default(),
        )

    # ------------------------------------------------------------------
    def cached(self, key: Hashable, compute: Callable[[], _T]) -> _T:
        """Memoise a derived per-world product on this view.

        Query families use this to share expensive intermediates (the
        propagated default matrix, per-world component labels, …) across
        families and repeated calls — the amortisation the query layer
        exists for.  The *key* namespace is cooperative; families prefix
        with their own name.
        """
        try:
            return self._cache[key]  # type: ignore[return-value]
        except KeyError:
            value = compute()
            self._cache[key] = value
            return value

    def peek(self, key: Hashable) -> object | None:
        """Return a cached derived product, or ``None`` if not computed.

        Lets a family opportunistically reuse a *related* product
        without forcing its computation — e.g. the k-core estimator
        seeds its peel from whichever lower-order membership matrix an
        earlier query already paid for.
        """
        return self._cache.get(key)
