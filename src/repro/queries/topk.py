"""The paper's query, re-expressed as the first registered family.

Top-k vulnerable nodes (SR/BSR/BSRBK in :mod:`repro.algorithms`) is no
longer the hard-wired only consumer of the sampled worlds — it is query
family ``"topk"``.  The estimator ranks the per-node default frequency
over a shared :class:`~repro.sampling.worldstate.WorldView`; because a
view realises worlds bit-identically to the reverse samplers, the
frequency of any candidate node equals the detectors' own sample mean
for the same worlds and key.  The exact side *is* the house oracle
(:func:`repro.core.exact.exact_default_probabilities`), unchanged.

Ties break by ascending node index, the deterministic total order every
ranking path in this repo uses.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.core.errors import QueryError
from repro.core.exact import exact_default_probabilities
from repro.core.graph import UncertainGraph
from repro.core.worlds import DEFAULT_MAX_CHOICES
from repro.queries.base import (
    QueryResult,
    enumerated_world_count,
    register_query_family,
)
from repro.sampling.worldstate import WorldView

__all__ = ["TopKQuery", "rank_top_k"]


def rank_top_k(probabilities: np.ndarray, k: int) -> np.ndarray:
    """Top-*k* indices by probability desc, index asc — the house order."""
    probabilities = np.asarray(probabilities, dtype=np.float64)
    k = int(k)
    if not 1 <= k <= probabilities.size:
        raise QueryError(
            f"k must be in [1, {probabilities.size}], got {k}"
        )
    order = np.lexsort(
        (np.arange(probabilities.size, dtype=np.int64), -probabilities)
    )
    return order[:k]


class TopKQuery:
    """Family ``"topk"``: the k most default-prone nodes."""

    name = "topk"

    def estimate(self, view: WorldView, *, k: int = 10) -> QueryResult:
        started = perf_counter()
        defaulted = view.defaulted()
        probabilities = view.cached(
            ("topk", "probabilities"),
            lambda: defaulted.mean(axis=0),
        )
        nodes = rank_top_k(probabilities, k)
        return QueryResult(
            family=self.name,
            params={"k": int(k)},
            nodes=nodes,
            values=probabilities[nodes].copy(),
            worlds_used=view.num_worlds,
            method="estimate",
            elapsed_seconds=perf_counter() - started,
        )

    def exact(
        self,
        graph: UncertainGraph,
        *,
        k: int = 10,
        max_choices: int = DEFAULT_MAX_CHOICES,
    ) -> QueryResult:
        started = perf_counter()
        probabilities = exact_default_probabilities(graph, max_choices=max_choices)
        nodes = rank_top_k(probabilities, k)
        return QueryResult(
            family=self.name,
            params={"k": int(k)},
            nodes=nodes,
            values=probabilities[nodes].copy(),
            worlds_used=enumerated_world_count(graph),
            method="exact",
            elapsed_seconds=perf_counter() - started,
        )


register_query_family(TopKQuery(), replace=True)
