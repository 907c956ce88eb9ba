"""Family ``"reliability"``: connectivity probability of pairs/clusters.

The Ceccarello-et-al. direction from PAPERS.md (clustering uncertain
graphs around reliability): for node pairs ``(u, v)``, the probability
that ``u`` and ``v`` land in the same connected component of the
surviving subgraph; for a node *cluster*, the probability the whole set
is mutually connected.  These are the primitives reliability-based
clustering optimises — a cluster is good exactly when its members stay
connected in most realisations.

Per-world connectivity comes from canonical min-index component labels
(:func:`repro.queries.kernels.connected_component_labels`) — computed
once per world set and shared across every pair/cluster query through
the view cache, which is where the amortisation of the query layer
shows up most directly.

Result layout: ``values[i]`` is the probability of ``pairs[i]``; when a
*cluster* is given its probability is appended as the final entry.
``details`` carries the same numbers labelled.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.core.errors import QueryError
from repro.core.graph import UncertainGraph
from repro.core.worlds import DEFAULT_MAX_CHOICES, enumerate_world_blocks
from repro.queries.base import (
    QueryResult,
    enumerated_world_count,
    register_query_family,
)
from repro.queries.kernels import connected_component_labels
from repro.sampling.worldstate import WorldView

__all__ = ["ReliabilityQuery"]


def _normalise(
    num_nodes: int, pairs, cluster
) -> tuple[list[tuple[int, int]], list[int]]:
    """Validate and canonicalise the pair/cluster parameters."""

    def _node(value) -> int:
        index = int(value)
        if not 0 <= index < num_nodes:
            raise QueryError(
                f"node index {index} out of range [0, {num_nodes})"
            )
        return index

    pair_list: list[tuple[int, int]] = []
    for pair in pairs or ():
        if len(pair) != 2:
            raise QueryError(f"pairs must be (u, v) pairs, got {pair!r}")
        pair_list.append((_node(pair[0]), _node(pair[1])))
    cluster_list = [_node(v) for v in cluster or ()]
    if cluster_list and len(cluster_list) < 2:
        raise QueryError("a cluster needs at least 2 nodes")
    if not pair_list and not cluster_list:
        raise QueryError(
            "reliability query needs 'pairs' and/or a 'cluster'"
        )
    return pair_list, cluster_list


def _connectivity_means(
    labels: np.ndarray,
    weights: np.ndarray | None,
    pairs: list[tuple[int, int]],
    cluster: list[int],
) -> np.ndarray:
    """Pair/cluster same-component indicators averaged over worlds.

    With *weights* ``None`` each world counts ``1/W`` (sample mean);
    otherwise the indicator is weighted by the worlds' probability
    masses (the exact oracle's accumulation step).
    """
    indicators = []
    for u, v in pairs:
        indicators.append(labels[:, u] == labels[:, v])
    if cluster:
        members = labels[:, cluster]
        indicators.append((members == members[:, :1]).all(axis=1))
    stacked = np.stack(indicators, axis=1)  # (W, q)
    if weights is None:
        return stacked.mean(axis=0)
    return weights @ stacked


class ReliabilityQuery:
    """Pairwise / cluster connectivity probability."""

    name = "reliability"

    def _result(
        self,
        pairs: list[tuple[int, int]],
        cluster: list[int],
        values: np.ndarray,
        worlds_used: int,
        method: str,
        started: float,
    ) -> QueryResult:
        details: dict = {
            "pairs": [
                [u, v, float(values[i])] for i, (u, v) in enumerate(pairs)
            ]
        }
        if cluster:
            details["cluster"] = {
                "nodes": list(cluster),
                "probability": float(values[-1]),
            }
        return QueryResult(
            family=self.name,
            params={
                "pairs": [[u, v] for u, v in pairs],
                "cluster": list(cluster),
            },
            nodes=np.empty(0, dtype=np.int64),
            values=values,
            worlds_used=worlds_used,
            method=method,
            elapsed_seconds=perf_counter() - started,
            details=details,
        )

    def estimate(
        self, view: WorldView, *, pairs=None, cluster=None
    ) -> QueryResult:
        started = perf_counter()
        pair_list, cluster_list = _normalise(view.num_nodes, pairs, cluster)
        src, dst, _ = view.graph.edge_array
        labels = view.cached(
            ("reliability", "components"),
            lambda: connected_component_labels(
                view.num_nodes, src, dst, view.edge_survives()
            ),
        )
        values = _connectivity_means(labels, None, pair_list, cluster_list)
        return self._result(
            pair_list, cluster_list, values, view.num_worlds,
            "estimate", started,
        )

    def exact(
        self,
        graph: UncertainGraph,
        *,
        pairs=None,
        cluster=None,
        max_choices: int = DEFAULT_MAX_CHOICES,
    ) -> QueryResult:
        started = perf_counter()
        pair_list, cluster_list = _normalise(graph.num_nodes, pairs, cluster)
        src, dst, _ = graph.edge_array
        total = np.zeros(
            len(pair_list) + (1 if cluster_list else 0), dtype=np.float64
        )
        for block in enumerate_world_blocks(graph, max_choices=max_choices):
            labels = connected_component_labels(
                graph.num_nodes, src, dst, block.edge_survives
            )
            total += _connectivity_means(
                labels, block.masses, pair_list, cluster_list
            )
        np.clip(total, 0.0, 1.0, out=total)
        return self._result(
            pair_list, cluster_list, total, enumerated_world_count(graph),
            "exact", started,
        )


register_query_family(ReliabilityQuery(), replace=True)
