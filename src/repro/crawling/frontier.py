"""Crawl frontier: crawled/observed bookkeeping over a hidden graph.

The visibility model, chosen to match budgeted-discovery studies of
hidden networks (Avrachenkov et al.'s hub-detection setting, adapted to
directed uncertain graphs):

* A node is **observed** once it is a seed or appears as an endpoint of
  a revealed edge.  Observation reveals the node's identity and its
  true self-risk ``ps(v)`` (the attribute travels with discovery).
* **Crawling** an observed node reveals *all* of its incident edges —
  in- and out- — with their true diffusion probabilities, and thereby
  observes every neighbour.  An edge is revealed exactly when its first
  endpoint is crawled; budget is spent per crawl, never per edge.

Everything is deterministic given the crawl order: newly revealed
entities come back in hidden-graph edge-id order, so two sessions that
crawl the same targets emit byte-identical event streams — the property
the replay/oracle tests lean on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.errors import GraphError
from repro.core.graph import NodeLabel, UncertainGraph

__all__ = ["CrawlFrontier", "CrawlStep"]


@dataclass(frozen=True)
class CrawlStep:
    """Everything one crawl newly revealed.

    Attributes
    ----------
    target:
        The crawled node's label.
    new_nodes:
        ``(label, self_risk)`` pairs newly observed by this crawl, in
        revelation order (scanning the target's incident edges by
        hidden edge id).
    new_edges:
        ``(src_label, dst_label, probability)`` triples newly revealed,
        in hidden edge-id order.
    """

    target: NodeLabel
    new_nodes: tuple[tuple[NodeLabel, float], ...]
    new_edges: tuple[tuple[NodeLabel, NodeLabel, float], ...]


class CrawlFrontier:
    """Track crawled/observed sets over a hidden ground-truth graph.

    Parameters
    ----------
    hidden:
        The ground-truth graph.  The frontier only ever *reads* it; the
        observed subgraph is materialised elsewhere (see
        :class:`~repro.crawling.session.ObservedGraphSession`).
    seeds:
        Initially observed node labels (budget-free).  Must be known to
        the hidden graph and non-empty — a crawl has to start somewhere.
    """

    def __init__(
        self, hidden: UncertainGraph, seeds: list[NodeLabel]
    ) -> None:
        if not seeds:
            raise GraphError("crawl frontier needs at least one seed")
        self._hidden = hidden
        src, dst, probs = hidden.edge_array
        self._src, self._dst, self._probs = src, dst, probs
        n, m = hidden.num_nodes, hidden.num_edges
        # Incidence CSR (undirected view over the directed edges): for
        # node v, the hidden edge ids touching v in ascending order.
        endpoint = np.concatenate([src, dst])
        edge_id = np.concatenate(
            [np.arange(m, dtype=np.int64)] * 2
        )
        order = np.lexsort((edge_id, endpoint))
        self._incident_ids = edge_id[order]
        self._incident_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(endpoint, minlength=n), out=self._incident_ptr[1:]
        )
        self._risks = hidden.self_risk_array
        self._observed = np.zeros(n, dtype=bool)
        self._crawled = np.zeros(n, dtype=bool)
        self._edge_seen = np.zeros(m, dtype=bool)
        self._observed_degree = np.zeros(n, dtype=np.int64)
        # Insertion-ordered observation log (determinism anchor).
        self._observed_order: list[int] = []
        self._crawl_order: list[int] = []
        for label in seeds:
            index = hidden.index(label)
            if not self._observed[index]:
                self._observed[index] = True
                self._observed_order.append(index)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def hidden(self) -> UncertainGraph:
        """The ground-truth graph being discovered."""
        return self._hidden

    @property
    def num_observed(self) -> int:
        """Observed node count (crawled or discovered)."""
        return len(self._observed_order)

    @property
    def num_crawled(self) -> int:
        """Crawl budget spent so far."""
        return len(self._crawl_order)

    @property
    def num_observed_edges(self) -> int:
        """Edges revealed so far."""
        return int(self._edge_seen.sum())

    def observed_labels(self) -> list[NodeLabel]:
        """Observed node labels in observation order."""
        return [self._hidden.label(i) for i in self._observed_order]

    def uncrawled_observed(self) -> list[NodeLabel]:
        """Crawlable targets (observed, not yet crawled), observation
        order — the deterministic tie-break every strategy shares."""
        return [
            self._hidden.label(i)
            for i in self._observed_order
            if not self._crawled[i]
        ]

    def observed_degree(self, label: NodeLabel) -> int:
        """How many *revealed* edges touch *label* so far.

        This is the crawler's-eye degree — the quantity observed-degree
        strategies rank by — not the hidden true degree.
        """
        return int(self._observed_degree[self._hidden.index(label)])

    def self_risk(self, label: NodeLabel) -> float:
        """The (revealed-at-observation) true self-risk of *label*."""
        index = self._hidden.index(label)
        if not self._observed[index]:
            raise GraphError(f"node {label!r} is not observed yet")
        return float(self._risks[index])

    def is_exhausted(self) -> bool:
        """Whether no crawlable target remains."""
        return bool((self._crawled | ~self._observed).all())

    # ------------------------------------------------------------------
    # Discovery
    # ------------------------------------------------------------------
    def crawl(self, label: NodeLabel) -> CrawlStep:
        """Crawl *label*, revealing its incident edges; returns the step.

        The target must be observed and not yet crawled — a crawler
        cannot query an entity it has never seen, and re-crawling burns
        budget for nothing (the model reveals everything on first
        visit), so both are errors rather than no-ops.
        """
        index = self._hidden.index(label)
        if not self._observed[index]:
            raise GraphError(f"cannot crawl unobserved node {label!r}")
        if self._crawled[index]:
            raise GraphError(f"node {label!r} is already crawled")
        self._crawled[index] = True
        self._crawl_order.append(index)
        start, stop = (
            self._incident_ptr[index],
            self._incident_ptr[index + 1],
        )
        incident = self._incident_ids[start:stop]
        fresh = incident[~self._edge_seen[incident]]
        fresh = np.unique(fresh)  # ascending edge ids; determinism
        self._edge_seen[fresh] = True
        new_nodes: list[tuple[NodeLabel, float]] = []
        new_edges: list[tuple[NodeLabel, NodeLabel, float]] = []
        for edge in fresh.tolist():
            endpoints = (int(self._src[edge]), int(self._dst[edge]))
            for node in endpoints:
                if not self._observed[node]:
                    self._observed[node] = True
                    self._observed_order.append(node)
                    new_nodes.append(
                        (self._hidden.label(node), float(self._risks[node]))
                    )
                self._observed_degree[node] += 1
            new_edges.append(
                (
                    self._hidden.label(endpoints[0]),
                    self._hidden.label(endpoints[1]),
                    float(self._probs[edge]),
                )
            )
        return CrawlStep(
            target=label,
            new_nodes=tuple(new_nodes),
            new_edges=tuple(new_edges),
        )
