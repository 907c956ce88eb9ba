"""Multi-world graph-analytics kernels shared by estimate and oracle.

Each query family's fast estimator and its exact enumeration oracle run
the *same* per-world kernel — only the source of the world matrices
differs (PRF-realised sample worlds vs Gray-code enumerated blocks).
Sharing the kernel keeps the two sides of every parity test honest: a
disagreement can only come from sampling error, never from two
divergent definitions of the structure being measured.

Both kernels read a block of worlds as one flat graph: world ``w``,
node ``v`` is the key ``w * n + v``, and the surviving edges are the
two endpoint key arrays that
:func:`repro.core.propagation.surviving_edge_keys` builds (a
:class:`~repro.sampling.worldstate.WorldView` builds them once and
shares them with its propagation fixpoint).  No flat edge crosses a
world boundary, so one pass over the flat arrays serves every world.

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


def _check_keys(
    edge_keys: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    src_keys, dst_keys = (np.asarray(k, dtype=np.int64) for k in edge_keys)
    if src_keys.ndim != 1 or src_keys.shape != dst_keys.shape:
        raise QueryError("edge keys must be two aligned 1-d arrays")
    return src_keys, dst_keys


def connected_component_labels(
    num_worlds: int,
    num_nodes: int,
    edge_keys: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """Per-world undirected connected-component labels.

    Returns an ``int64`` ``(W, n)`` matrix where every node's label is
    the **minimum node index of its component** in that world (so labels
    are canonical: two nodes are connected iff their labels are equal,
    and the labelling is independent of edge order).

    Hook and compress (Shiloach–Vishkin style) over the flat key space.
    Every key starts as its own root; each round

    * hooks the larger root of every remaining edge's two endpoint
      roots onto the smaller one (``np.minimum.at``, so a root with
      several smaller neighbours takes the smallest: a star whose
      centre has the largest index resolves in two rounds);
    * pointer-jumps every key to its root, to a fixpoint;
    * replaces each edge by its endpoints' new roots and drops the
      edges whose endpoints now share one.

    Every write hooks a root onto a smaller root, so no cycle can form,
    pointers only ever decrease, and each root is its tree's minimum
    key.  Trees merge only along edges and the loop ends when no edge
    joins two trees, so the trees are the components and each root is
    ``w * n`` plus the component's minimum node.
    """
    worlds, n = int(num_worlds), int(num_nodes)
    src_keys, dst_keys = _check_keys(edge_keys)
    parent = np.arange(worlds * n, dtype=np.int64)
    hi = np.maximum(src_keys, dst_keys)
    lo = np.minimum(src_keys, dst_keys)
    while hi.size:
        np.minimum.at(parent, hi, lo)
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
        # Roots are their own parents, so one gather moves each edge
        # onto its endpoints' new roots.
        hi, lo = parent[hi], parent[lo]
        joins = hi != lo
        hi, lo = hi[joins], lo[joins]
        hi, lo = np.maximum(hi, lo), np.minimum(hi, lo)
    labels = parent.reshape(worlds, n)
    labels -= (np.arange(worlds, dtype=np.int64) * n)[:, None]
    return labels


def kcore_membership(
    num_worlds: int,
    num_nodes: int,
    edge_keys: tuple[np.ndarray, np.ndarray],
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

    Degrees are counted once up front.  Each round then gathers the
    alive flags of both endpoints of every remaining edge, drops the
    edges that lost an endpoint, decrements the degree of each dead
    edge's surviving endpoint (one ``np.subtract.at``), and peels next
    only among those endpoints.  The decrements total ``O(surviving
    edges)``, but the gathers cost ``O(remaining edges)`` every round:
    the battery's peels take 11 rounds at k = 2 and 20 at k = 3 seeded
    from the 2-core, and a long path, which loses only its two ends per
    round, makes the peel quadratic in its length.

    *alive_init* optionally seeds the peel with a known superset of the
    k-core (boolean ``(W, n)``, any memory layout).  Because the k-core
    is contained in every k'-core with ``k' <= k`` and peeling is
    confluent, passing a cached lower-order membership matrix yields the
    identical answer while skipping the nodes that peel already removed;
    the seed filters the edge keys rather than the ``(W, m)`` matrix.
    """
    worlds, n = int(num_worlds), int(num_nodes)
    core_k = int(core_k)
    if core_k < 1:
        raise QueryError(f"core order k must be >= 1, got {core_k}")
    src_keys, dst_keys = _check_keys(edge_keys)
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
    flat_alive = alive.reshape(-1)
    if alive_init is not None:
        present = flat_alive[src_keys] & flat_alive[dst_keys]
        src_keys, dst_keys = src_keys[present], dst_keys[present]
    size = worlds * n
    degrees = np.bincount(src_keys, minlength=size) + np.bincount(
        dst_keys, minlength=size
    )
    drop = np.flatnonzero(flat_alive & (degrees < core_k))
    while drop.size:
        flat_alive[drop] = False
        src_alive = flat_alive[src_keys]
        dst_alive = flat_alive[dst_keys]
        # Every remaining edge had both endpoints alive; a dead edge
        # costs its surviving endpoint (if any) one degree.
        hit = np.concatenate(
            (src_keys[src_alive & ~dst_alive], dst_keys[dst_alive & ~src_alive])
        )
        keep = src_alive & dst_alive
        src_keys, dst_keys = src_keys[keep], dst_keys[keep]
        np.subtract.at(degrees, hit, 1)
        drop = hit[degrees[hit] < core_k]
    return alive
