"""The dense world-state layout, kept as the test oracle.

:class:`repro.sampling.worldstate.PackedWorldState` must answer every
query exactly as these uncompressed masks do; ``test_worldstate.py``
drives both side by side, down to a monitor running on either.  The
oracle keeps an explicit ``(worlds, m)`` edge mask, which it builds from
the explored blocks' expanded-node masks as ``expanded_nodes[:, heads]``
(an edge is drawn iff its head is expanded); the packed state never
materialises it.

:func:`node_draws` and :func:`edge_draws` read a packed state's
per-world draw counts, for comparison with the dense masks' row sums;
the library never needs them.
"""

from __future__ import annotations

import numpy as np

from repro.sampling.bits import popcount, unpack_bool_rows


class DenseWorldState:
    """Dense boolean touched masks: the oracle for ``PackedWorldState``.

    ``(worlds, n)`` touched-node and ``(worlds, m)`` touched-edge
    booleans, filled from the sampler's ``collect_touched=True`` blocks.
    It needs the edge *heads* the packed state does without, so a
    monitor runs on it through :func:`dense_state_for`.
    """

    __slots__ = ("touched_nodes", "touched_edges", "_n", "_m", "_heads")

    def __init__(
        self,
        worlds: int,
        num_nodes: int,
        num_edges: int,
        *,
        heads: np.ndarray,
    ) -> None:
        self._n = int(num_nodes)
        self._m = int(num_edges)
        self._heads = np.asarray(heads, dtype=np.int64)
        self.touched_nodes = np.zeros((worlds, self._n), dtype=bool)
        self.touched_edges = np.zeros((worlds, self._m), dtype=bool)

    @staticmethod
    def bytes_needed(worlds: int, num_nodes: int, num_edges: int) -> int:
        """Storage this representation needs for *worlds* worlds."""
        return int(worlds) * (int(num_nodes) + int(num_edges))

    @property
    def worlds(self) -> int:
        """Number of world rows currently held."""
        return self.touched_nodes.shape[0]

    @property
    def nbytes(self) -> int:
        """Actual bytes held by the state."""
        return self.touched_nodes.nbytes + self.touched_edges.nbytes

    def _edge_mask(self, block) -> np.ndarray:
        """The block's ``(W, m)`` drawn-edge mask."""
        return block.expanded_nodes[:, self._heads]

    def store_block(self, rows: np.ndarray, block) -> None:
        """Overwrite *rows* with a freshly explored ``ExploredBlock``."""
        self.touched_nodes[rows] = block.touched_nodes
        self.touched_edges[rows] = self._edge_mask(block)

    def merge_block(
        self, rows: np.ndarray, block
    ) -> tuple[np.ndarray, np.ndarray]:
        """OR a block into *rows*; returns exact per-row draw deltas.

        The closure explored from a union of candidate sets is the union
        of the per-set closures (realisations are entity-indexed), so
        OR-ing an added candidate's closure into the stored masks yields
        exactly the masks a from-scratch union exploration would, and
        the draw-count deltas are the newly-set bits.
        """
        edges = self._edge_mask(block)
        node_delta = (block.touched_nodes & ~self.touched_nodes[rows]).sum(
            axis=1
        )
        edge_delta = (edges & ~self.touched_edges[rows]).sum(axis=1)
        self.touched_nodes[rows] |= block.touched_nodes
        self.touched_edges[rows] |= edges
        return node_delta.astype(np.int64), edge_delta.astype(np.int64)

    def node_pairs(
        self, entities: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(world row, position)`` pairs where each node was drawn."""
        return np.nonzero(self.touched_nodes[:, entities])

    def edge_pairs(
        self, edge_ids: np.ndarray, heads: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(world row, position)`` pairs where each edge was drawn."""
        return np.nonzero(self.touched_edges[:, edge_ids])

    def node_draws(self) -> np.ndarray:
        """Per-row distinct node-draw counts (mask row sums)."""
        return self.touched_nodes.sum(axis=1, dtype=np.int64)

    def edge_draws(self) -> np.ndarray:
        """Per-row distinct edge-draw counts (mask row sums)."""
        return self.touched_edges.sum(axis=1, dtype=np.int64)

    def resize(self, worlds: int) -> None:
        """Grow (zero-filled) or truncate to *worlds* rows."""
        current = self.worlds
        if worlds == current:
            return
        if worlds < current:
            self.touched_nodes = self.touched_nodes[:worlds].copy()
            self.touched_edges = self.touched_edges[:worlds].copy()
            return
        nodes = np.zeros((worlds, self._n), dtype=bool)
        edges = np.zeros((worlds, self._m), dtype=bool)
        nodes[:current] = self.touched_nodes
        edges[:current] = self.touched_edges
        self.touched_nodes, self.touched_edges = nodes, edges


def node_draws(packed) -> np.ndarray:
    """Per-row distinct node-draw counts of a ``PackedWorldState``
    (touched popcounts)."""
    return popcount(packed.touched_words).sum(axis=1, dtype=np.int64)


def edge_draws(packed, in_degrees: np.ndarray) -> np.ndarray:
    """Per-row distinct edge-draw counts of a ``PackedWorldState``: the
    in-degree mass of each row's expanded nodes."""
    expanded = unpack_bool_rows(packed.expanded_words, in_degrees.size)
    return (expanded @ in_degrees).astype(np.int64)


def dense_state_for(graph):
    """A stand-in for the ``PackedWorldState`` class, for monitors over
    *graph*: the dense oracle bound to *graph*'s edge heads, which the
    packed state does without."""

    class GraphDenseWorldState(DenseWorldState):
        __slots__ = ()

        def __init__(self, worlds, num_nodes, num_edges, *, in_degrees):
            super().__init__(
                worlds, num_nodes, num_edges, heads=graph.edge_array[1]
            )

    return GraphDenseWorldState
