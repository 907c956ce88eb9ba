"""Family ``"skyline"``: Pareto-optimal risk profiles (DySky-flavoured).

The dynamic-skyline direction from PAPERS.md: rank no single score, but
report every node whose risk profile is **not dominated** — no other
node is at least as risky on all dimensions and strictly riskier on
one.  The three dimensions, all "larger is riskier":

* ``self_risk`` — the node's own default probability ``ps(v)`` (an
  input, identical for estimate and oracle);
* ``contagion_risk`` — ``P[v defaults through contagion]``, i.e. it
  defaults in a world without self-defaulting there.  This is the
  probabilistic dimension: estimated from the shared view worlds,
  enumerated exactly by the oracle;
* ``degree`` — total (in + out) structural degree, the node's blast
  surface.

The skyline is the set a risk officer actually triages: every node that
is the unique best trade-off somewhere in (self, contagion, exposure)
space.  Estimate and oracle share the dominance kernel; they differ
only in where the contagion column comes from.

The kernel, :func:`skyline_mask`, is a sort-first elimination: it sorts
the rows in descending lexicographic order, then repeatedly takes the
first surviving row as a skyline row and drops every surviving row it
dominates.  That costs O(n * |skyline|) comparisons instead of the
O(n^2) of comparing every pair, and on the calibrated workloads the
skyline is a few dozen rows out of thousands.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.core.graph import UncertainGraph
from repro.core.propagation import propagate_defaults_block
from repro.core.worlds import (
    DEFAULT_BLOCK_WORLDS,
    DEFAULT_MAX_CHOICES,
    enumerate_world_blocks,
)
from repro.queries.base import (
    QueryResult,
    enumerated_world_count,
    register_query_family,
)
from repro.sampling.worldstate import WorldView

__all__ = ["SkylineQuery", "skyline_mask"]

_DIMENSIONS = ("self_risk", "contagion_risk", "degree")


def skyline_mask(coordinates: np.ndarray) -> np.ndarray:
    """Boolean mask of the non-dominated rows (maximising every column).

    Row ``u`` dominates row ``v`` when ``u >= v`` on every column and
    ``u > v`` on at least one; the skyline is every row no other row
    dominates.  Equal rows dominate nobody, so duplicated profiles all
    stay on the skyline (deterministic, order-independent).

    The rows are visited in descending lexicographic order.  A row that
    dominates another is lexicographically larger (on the first column
    where they differ it is the greater), so it sorts first.  Take the
    first row still standing: each of its dominators sorts before it
    and is gone, either taken as a skyline row, which would have
    dropped it, or dropped by a skyline row that, dominance being
    transitive, would have dropped it too.  So it has no dominator and
    is a skyline row.  It is taken, every standing row it dominates is
    dropped, and the next row standing is taken in turn: the exact
    pairwise mask, at one vectorised pass per skyline row.
    """
    coordinates = np.asarray(coordinates, dtype=np.float64)
    keep = np.zeros(coordinates.shape[0], dtype=bool)
    # lexsort's last key is its primary one; reversed, the order descends.
    order = np.lexsort(coordinates.T[::-1])[::-1]
    # One contiguous array per column, compacted only when a row drops:
    # on a 5,050-row all-skyline input this took 0.11 s where reducing
    # across each row's few entries took 1.2 s (2-vCPU VM).
    columns = coordinates[order].T.copy()
    while order.size:
        keep[order[0]] = True
        top = columns[:, 0]
        columns, order = columns[:, 1:], order[1:]
        at_most = columns[0] <= top[0]
        below = columns[0] < top[0]
        for column, value in zip(columns[1:], top[1:]):
            at_most &= column <= value
            below |= column < value
        dominated = at_most & below
        if dominated.any():
            columns, order = columns[:, ~dominated], order[~dominated]
    return keep


def _degrees(graph: UncertainGraph) -> np.ndarray:
    return (
        graph.in_csr().degrees + graph.out_csr().degrees
    ).astype(np.float64)


class SkylineQuery:
    """Non-dominated nodes over (self-risk, contagion-risk, degree)."""

    name = "skyline"

    def _result(
        self,
        graph: UncertainGraph,
        contagion_risk: np.ndarray,
        worlds_used: int,
        method: str,
        started: float,
    ) -> QueryResult:
        coordinates = np.stack(
            (graph.self_risk_array, contagion_risk, _degrees(graph)),
            axis=1,
        )
        nodes = np.flatnonzero(skyline_mask(coordinates)).astype(np.int64)
        return QueryResult(
            family=self.name,
            params={},
            nodes=nodes,
            values=contagion_risk[nodes].copy(),
            worlds_used=worlds_used,
            method=method,
            elapsed_seconds=perf_counter() - started,
            details={
                "dimensions": list(_DIMENSIONS),
                "coordinates": [
                    [float(c) for c in coordinates[v]] for v in nodes
                ],
            },
        )

    def estimate(self, view: WorldView) -> QueryResult:
        started = perf_counter()
        contagion_risk = view.cached(
            ("skyline", "contagion_risk"),
            lambda: view.contagion().mean(axis=0),
        )
        return self._result(
            view.graph, contagion_risk, view.num_worlds, "estimate", started
        )

    def exact(
        self,
        graph: UncertainGraph,
        *,
        max_choices: int = DEFAULT_MAX_CHOICES,
        block_worlds: int = DEFAULT_BLOCK_WORLDS,
    ) -> QueryResult:
        started = perf_counter()
        contagion_risk = np.zeros(graph.num_nodes, dtype=np.float64)
        for block in enumerate_world_blocks(
            graph, max_choices=max_choices, block_worlds=block_worlds
        ):
            defaulted = propagate_defaults_block(
                graph, block.self_default, block.edge_survives
            )
            contagion = defaulted & ~block.self_default
            contagion_risk += block.masses @ contagion
        np.clip(contagion_risk, 0.0, 1.0, out=contagion_risk)
        return self._result(
            graph, contagion_risk, enumerated_world_count(graph),
            "exact", started,
        )


register_query_family(SkylineQuery(), replace=True)
