"""The min-label-flooding and full-recount peel kernels, kept as oracles.

:func:`repro.queries.kernels.connected_component_labels` (hook and
compress over flat edge keys) and
:func:`repro.queries.kernels.kcore_membership` (a peel that filters
flat edge keys) must return exactly what these read off the dense
``(W, m)`` survival matrix; ``test_queries.py`` drives both side by
side on generated graphs and on a calibrated monitor's own view.
"""

from __future__ import annotations

import numpy as np


def _flat_edges(
    num_nodes: int,
    edge_src: np.ndarray,
    edge_dst: np.ndarray,
    present: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    rows, eids = np.nonzero(present)
    base = rows * np.int64(num_nodes)
    return base + edge_src[eids], base + edge_dst[eids]


def connected_component_labels(
    num_nodes: int,
    edge_src: np.ndarray,
    edge_dst: np.ndarray,
    edge_survives: np.ndarray,
) -> np.ndarray:
    """Per-world minimum-node-index component labels, ``int64 (W, n)``.

    Min-label flooding over the surviving edges of all worlds at once,
    with pointer jumping (``label <- label[label]`` per row) between
    relaxation rounds; it terminates because labels are non-negative
    and strictly decrease somewhere on every round that is not already
    at the fixpoint.
    """
    n = int(num_nodes)
    edge_src = np.asarray(edge_src, dtype=np.int64)
    edge_dst = np.asarray(edge_dst, dtype=np.int64)
    edge_survives = np.asarray(edge_survives, dtype=bool)
    worlds = edge_survives.shape[0]
    labels = np.broadcast_to(
        np.arange(n, dtype=np.int64), (worlds, n)
    ).copy()
    if n == 0 or worlds == 0 or not edge_survives.any():
        return labels
    flat_src, flat_dst = _flat_edges(n, edge_src, edge_dst, edge_survives)
    flat = labels.reshape(-1)
    while True:
        a = flat[flat_src]
        b = flat[flat_dst]
        if np.array_equal(a, b):
            return labels
        best = np.minimum(a, b)
        np.minimum.at(flat, flat_src, best)
        np.minimum.at(flat, flat_dst, best)
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
    """Per-world ``k``-core membership, boolean ``(W, n)``.

    Every round deletes all alive nodes of degree below *core_k* and
    subtracts two full-size ``bincount`` arrays of the dead edges'
    endpoints from the degrees.  *alive_init* seeds the peel with a
    superset of the k-core, gathered over the ``(W, m)`` matrix.
    """
    n = int(num_nodes)
    core_k = int(core_k)
    edge_src = np.asarray(edge_src, dtype=np.int64)
    edge_dst = np.asarray(edge_dst, dtype=np.int64)
    edge_survives = np.asarray(edge_survives, dtype=bool)
    worlds = edge_survives.shape[0]
    if alive_init is None:
        alive = np.ones((worlds, n), dtype=bool)
    else:
        alive = np.array(alive_init, dtype=bool, order="C")
    if n == 0 or worlds == 0:
        return alive
    present = edge_survives & alive[:, edge_src] & alive[:, edge_dst]
    flat_src, flat_dst = _flat_edges(n, edge_src, edge_dst, present)
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
