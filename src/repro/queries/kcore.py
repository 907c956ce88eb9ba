"""Family ``"kcore"``: probability each node sits in the k-core.

Dense-substructure membership on an uncertain graph (the
maximal-clique / dense-subgraph direction of Mukherjee et al. named in
PAPERS.md, in its tractable core-decomposition form): for every node,
``P[v belongs to the k-core of the surviving subgraph]``.  The k-core
is the unique maximal subgraph of minimum (undirected) degree ``k``; a
node with a high membership probability is structurally embedded in
dense regions across most realisations — exactly the nodes whose
default cascades furthest.

Estimator and oracle run the *same* peeling kernel
(:func:`repro.queries.kernels.kcore_membership`); only the world source
differs (PRF-realised view worlds vs enumerated Gray-code blocks), so
the parity tests measure sampling error and nothing else.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.core.errors import QueryError
from repro.core.graph import UncertainGraph
from repro.core.propagation import surviving_edge_keys
from repro.core.worlds import DEFAULT_MAX_CHOICES, enumerate_world_blocks
from repro.queries.base import (
    QueryResult,
    enumerated_world_count,
    register_query_family,
)
from repro.queries.kernels import kcore_membership
from repro.sampling.worldstate import WorldView

__all__ = ["KCoreQuery"]


def _report(
    probabilities: np.ndarray, top: int | None
) -> tuple[np.ndarray, np.ndarray]:
    """All nodes in index order, or the *top* most probable members."""
    n = probabilities.size
    if top is None:
        nodes = np.arange(n, dtype=np.int64)
        return nodes, probabilities.copy()
    top = int(top)
    if not 1 <= top <= n:
        raise QueryError(f"top must be in [1, {n}], got {top}")
    order = np.lexsort((np.arange(n, dtype=np.int64), -probabilities))
    nodes = order[:top]
    return nodes, probabilities[nodes].copy()


class KCoreQuery:
    """Per-node k-core membership probability."""

    name = "kcore"

    def estimate(
        self, view: WorldView, *, k: int = 2, top: int | None = None
    ) -> QueryResult:
        started = perf_counter()
        core_k = int(k)

        def _membership() -> np.ndarray:
            # Seed from the deepest cached lower-order core: the k-core
            # is inside every k'-core (k' <= k), so peeling resumes from
            # an earlier query's survivors instead of the full graph.
            seed = None
            for lower in range(core_k - 1, 0, -1):
                seed = view.peek(("kcore", "membership", lower))
                if seed is not None:
                    break
            return kcore_membership(
                view.num_worlds, view.num_nodes, view.edge_keys(), core_k,
                alive_init=seed,
            )

        alive = view.cached(("kcore", "membership", core_k), _membership)
        probabilities = alive.mean(axis=0)
        nodes, values = _report(probabilities, top)
        return QueryResult(
            family=self.name,
            params={"k": core_k, "top": None if top is None else int(top)},
            nodes=nodes,
            values=values,
            worlds_used=view.num_worlds,
            method="estimate",
            elapsed_seconds=perf_counter() - started,
        )

    def exact(
        self,
        graph: UncertainGraph,
        *,
        k: int = 2,
        top: int | None = None,
        max_choices: int = DEFAULT_MAX_CHOICES,
    ) -> QueryResult:
        started = perf_counter()
        core_k = int(k)
        if core_k < 1:
            raise QueryError(f"core order k must be >= 1, got {core_k}")
        src, dst, _ = graph.edge_array
        probabilities = np.zeros(graph.num_nodes, dtype=np.float64)
        for block in enumerate_world_blocks(graph, max_choices=max_choices):
            keys = surviving_edge_keys(
                graph.num_nodes, src, dst, block.edge_survives
            )
            alive = kcore_membership(
                block.num_worlds, graph.num_nodes, keys, core_k
            )
            probabilities += block.masses @ alive
        np.clip(probabilities, 0.0, 1.0, out=probabilities)
        nodes, values = _report(probabilities, top)
        return QueryResult(
            family=self.name,
            params={"k": core_k, "top": None if top is None else int(top)},
            nodes=nodes,
            values=values,
            worlds_used=enumerated_world_count(graph),
            method="exact",
            elapsed_seconds=perf_counter() - started,
        )


register_query_family(KCoreQuery(), replace=True)
