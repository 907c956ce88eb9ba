"""Multi-world graph-analytics kernels shared by estimate and oracle.

Each query family's fast estimator and its exact enumeration oracle run
the *same* per-world kernel — only the source of the world matrices
differs (PRF-realised sample worlds vs Gray-code enumerated blocks).
Sharing the kernel keeps the two sides of every parity test honest: a
disagreement can only come from sampling error, never from two
divergent definitions of the structure being measured.

Both kernels treat the directed uncertain graph as **undirected** for
structural purposes (a surviving edge connects both endpoints), the
standard convention for network reliability and core decomposition on
uncertain graphs; contagion direction continues to matter only for the
default-propagation kernel in :mod:`repro.core.propagation`.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import QueryError

__all__ = ["connected_component_labels", "kcore_membership"]


def _check_edges(
    num_nodes: int, edge_src: np.ndarray, edge_dst: np.ndarray,
    edge_survives: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    edge_src = np.asarray(edge_src, dtype=np.int64)
    edge_dst = np.asarray(edge_dst, dtype=np.int64)
    edge_survives = np.asarray(edge_survives, dtype=bool)
    if edge_survives.ndim != 2 or edge_survives.shape[1] != edge_src.size:
        raise QueryError(
            f"edge_survives must be (W, {edge_src.size}), "
            f"got {edge_survives.shape}"
        )
    if edge_dst.shape != edge_src.shape:
        raise QueryError("edge_src and edge_dst must align")
    return edge_src, edge_dst, edge_survives


def connected_component_labels(
    num_nodes: int,
    edge_src: np.ndarray,
    edge_dst: np.ndarray,
    edge_survives: np.ndarray,
) -> np.ndarray:
    """Per-world undirected connected-component labels.

    Returns an ``int64`` ``(W, n)`` matrix where every node's label is
    the **minimum node index of its component** in that world (so labels
    are canonical: two nodes are connected iff their labels are equal,
    and the labelling is independent of edge order).

    The fixpoint is min-label flooding over the surviving edges of all
    worlds at once, accelerated by pointer jumping (``label <-
    label[label]`` per row) between relaxation rounds; it terminates
    because labels are non-negative and strictly decrease somewhere on
    every round that is not already at the fixpoint.
    """
    n = int(num_nodes)
    edge_src, edge_dst, edge_survives = _check_edges(
        n, edge_src, edge_dst, edge_survives
    )
    worlds = edge_survives.shape[0]
    labels = np.broadcast_to(
        np.arange(n, dtype=np.int64), (worlds, n)
    ).copy()
    if n == 0 or worlds == 0 or not edge_survives.any():
        return labels
    rows, eids = np.nonzero(edge_survives)
    flat_src = rows * np.int64(n) + edge_src[eids]
    flat_dst = rows * np.int64(n) + edge_dst[eids]
    flat = labels.reshape(-1)
    while True:
        a = flat[flat_src]
        b = flat[flat_dst]
        if np.array_equal(a, b):
            return labels
        best = np.minimum(a, b)
        np.minimum.at(flat, flat_src, best)
        np.minimum.at(flat, flat_dst, best)
        # Pointer jumping: adopting the label's own label halves chain
        # lengths, turning O(diameter) rounds into O(log diameter).
        np.minimum(
            labels, np.take_along_axis(labels, labels, axis=1), out=labels
        )


def kcore_membership(
    num_nodes: int,
    edge_src: np.ndarray,
    edge_dst: np.ndarray,
    edge_survives: np.ndarray,
    core_k: int,
    *,
    alive_init: np.ndarray | None = None,
) -> np.ndarray:
    """Per-world ``k``-core membership of every node.

    Returns a boolean ``(W, n)`` matrix: whether each node survives the
    classical core peeling — repeatedly delete nodes with (undirected,
    surviving-subgraph) degree below *core_k* — in each world.  The
    k-core is unique, so the peeling order cannot matter; the kernel
    deletes all violating nodes of all worlds per round.

    Degrees are maintained incrementally: each surviving edge is
    counted once up front and decremented once when an endpoint is
    peeled, so total edge work is ``O(surviving edges)`` across all
    rounds rather than ``O(surviving edges x rounds)``.

    *alive_init* optionally seeds the peel with a known superset of the
    k-core (boolean ``(W, n)``).  Because the k-core is contained in
    every k'-core with ``k' <= k`` and peeling is confluent, passing a
    cached lower-order membership matrix yields the identical answer
    while skipping the nodes that peel already removed.
    """
    n = int(num_nodes)
    core_k = int(core_k)
    if core_k < 1:
        raise QueryError(f"core order k must be >= 1, got {core_k}")
    edge_src, edge_dst, edge_survives = _check_edges(
        n, edge_src, edge_dst, edge_survives
    )
    worlds = edge_survives.shape[0]
    if alive_init is None:
        alive = np.ones((worlds, n), dtype=bool)
    else:
        # C order, so ``alive.reshape(-1)`` below is a view the peel
        # updates in place, whatever the seed's layout.
        alive = np.array(alive_init, dtype=bool, order="C")
        if alive.shape != (worlds, n):
            raise QueryError(
                f"alive_init must be ({worlds}, {n}), got {alive.shape}"
            )
    if n == 0 or worlds == 0:
        return alive
    present = edge_survives & alive[:, edge_src] & alive[:, edge_dst]
    rows, eids = np.nonzero(present)
    flat_src = rows * np.int64(n) + edge_src[eids]
    flat_dst = rows * np.int64(n) + edge_dst[eids]
    del present, rows, eids
    size = worlds * n
    degrees = np.bincount(flat_src, minlength=size) + np.bincount(
        flat_dst, minlength=size
    )
    flat_alive = alive.reshape(-1)
    drop = flat_alive & (degrees < core_k)
    while drop.any():
        flat_alive &= ~drop
        dead = drop[flat_src] | drop[flat_dst]
        if dead.any():
            degrees -= np.bincount(flat_src[dead], minlength=size)
            degrees -= np.bincount(flat_dst[dead], minlength=size)
            keep = ~dead
            flat_src, flat_dst = flat_src[keep], flat_dst[keep]
        drop = flat_alive & (degrees < core_k)
    return alive
