"""Shared multi-world contagion propagation engine.

Three different subsystems need the same primitive — "given which nodes
self-default and which edges survive, which nodes end up defaulting?" —
evaluated over *many* possible worlds at once:

* the query families' realised worlds
  (:meth:`repro.sampling.worldstate.WorldView.defaulted`),
* the bit-parallel exact oracle
  (:func:`repro.core.exact.exact_default_probabilities`), and
* the Monte-Carlo ground truth of the effectiveness experiments
  (:mod:`repro.experiments.ground_truth`).

This module is the single implementation all three share.  The central
idea is a **flat multi-world index space**: world ``w``, node ``v`` maps
to the key ``w * n + v``, so a whole block of worlds becomes one big
graph whose connected regions never cross world boundaries.  Contagion
over the block is then a single fixpoint loop over flat numpy arrays —
no per-world Python BFS, no ``deque``, no scalar casts.

Contract of the kernel (:func:`propagate_edge_list`)
----------------------------------------------------
The kernel receives a flat boolean *defaulted* array plus the endpoints
of every *surviving* edge (flat keys, as :func:`surviving_edge_keys`
builds them) and marks, in place, every key reachable from an
already-marked key.  Each fixpoint iteration drops
edges whose destination is already marked and crosses edges whose source
is marked, so the work per iteration shrinks monotonically and the loop
terminates after at most ``longest contagion chain`` iterations.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import GraphError
from repro.core.graph import UncertainGraph

__all__ = [
    "propagate_edge_list",
    "propagate_defaults_block",
    "ragged_positions",
    "surviving_edge_keys",
]


def ragged_positions(
    indptr: np.ndarray, nodes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Flat CSR slot positions of every adjacency segment of *nodes*.

    Given a CSR ``indptr`` and a vector of node indices, returns
    ``(positions, counts)`` where ``positions`` concatenates, segment by
    segment, the positions ``indptr[u] .. indptr[u + 1] - 1`` of each
    node ``u`` in *nodes* (repeats allowed), and ``counts`` holds each
    segment's length.  This is the vectorised replacement for the
    classic ``for u in frontier: for pos in range(indptr[u], ...)``
    double loop; both the indexed reverse sampler and the connectivity
    helpers gather neighbours through it.
    """
    counts = indptr[nodes + 1] - indptr[nodes]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), counts
    starts = indptr[nodes]
    exclusive = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.cumsum(counts[:-1]))
    )
    positions = np.arange(total, dtype=np.int64) + np.repeat(
        starts - exclusive, counts
    )
    return positions, counts


def surviving_edge_keys(
    num_nodes: int,
    edge_src: np.ndarray,
    edge_dst: np.ndarray,
    edge_survives: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Flat keys of both endpoints of every surviving (world, edge) pair.

    For each ``True`` cell ``(w, e)`` of the boolean ``(W, m)``
    *edge_survives* matrix, in row-major order, the two ``int64`` keys
    ``w * n + edge_src[e]`` and ``w * n + edge_dst[e]``: the edge list
    of the flat multi-world graph, which :func:`propagate_edge_list` and
    the query kernels of :mod:`repro.queries.kernels` read.  The keys
    take 16 bytes per surviving pair.
    """
    edge_src = np.asarray(edge_src, dtype=np.int64)
    edge_dst = np.asarray(edge_dst, dtype=np.int64)
    edge_survives = np.asarray(edge_survives)
    if edge_dst.shape != edge_src.shape or edge_src.ndim != 1:
        raise GraphError("edge_src and edge_dst must be aligned 1-d arrays")
    if edge_survives.ndim != 2 or edge_survives.shape[1] != edge_src.size:
        raise GraphError(
            f"edge_survives has shape {edge_survives.shape}, "
            f"expected (W, {edge_src.size})"
        )
    rows, eids = np.nonzero(edge_survives)
    base = rows * np.int64(num_nodes)
    return base + edge_src[eids], base + edge_dst[eids]


def propagate_edge_list(
    defaulted: np.ndarray, edge_src: np.ndarray, edge_dst: np.ndarray
) -> None:
    """Mark every key reachable from a marked key along the given edges.

    In-place fixpoint over a flat (multi-world) key space: wherever
    ``defaulted[edge_src[i]]`` is set, the kernel sets
    ``defaulted[edge_dst[i]]``, transitively, until no edge can fire any
    more.

    Parameters
    ----------
    defaulted:
        Flat boolean mark array.
    edge_src, edge_dst:
        Flat keys of the surviving edges.  Within one call the arrays
        are filtered down monotonically; the caller's arrays are never
        modified.
    """
    while edge_src.size:
        pending = ~defaulted[edge_dst]
        if not pending.all():
            edge_src = edge_src[pending]
            edge_dst = edge_dst[pending]
        reached = edge_dst[defaulted[edge_src]]
        if not reached.size:
            break
        defaulted[reached] = True


def propagate_defaults_block(
    graph: UncertainGraph,
    self_default: np.ndarray,
    edge_survives: np.ndarray,
) -> np.ndarray:
    """Forward contagion for a whole block of worlds at once.

    Row ``w`` of the result is exactly what a forward BFS from world
    ``w``'s self-defaulting nodes along its surviving edges reaches (the
    tests assert this bit for bit against the scalar BFS of
    ``tests/reference_worlds.py``).

    Parameters
    ----------
    graph:
        The uncertain graph the worlds realise.
    self_default:
        Boolean array of shape ``(W, n)``; ``True`` where the node
        defaults by itself in that world.
    edge_survives:
        Boolean array of shape ``(W, m)``; ``True`` where contagion can
        cross the edge in that world.

    Returns
    -------
    numpy.ndarray
        Boolean array of shape ``(W, n)``: which nodes default in each
        world.  Always a fresh array; the inputs are not modified.
    """
    n = graph.num_nodes
    m = graph.num_edges
    self_default = np.asarray(self_default)
    edge_survives = np.asarray(edge_survives)
    if self_default.ndim != 2 or self_default.shape[1] != n:
        raise GraphError(
            f"self_default has shape {self_default.shape}, expected (W, {n})"
        )
    worlds = self_default.shape[0]
    if edge_survives.shape != (worlds, m):
        raise GraphError(
            "edge_survives has shape "
            f"{edge_survives.shape}, expected ({worlds}, {m})"
        )
    if self_default.dtype != np.bool_ or edge_survives.dtype != np.bool_:
        raise GraphError("world block arrays must be boolean")
    defaulted = np.ascontiguousarray(self_default).copy()
    if defaulted.any():
        src, dst, _ = graph.edge_array
        propagate_edge_list(
            defaulted.reshape(-1),
            *surviving_edge_keys(n, src, dst, edge_survives),
        )
    return defaulted
