"""Update-event vocabulary for the streaming monitor.

Events are plain frozen dataclasses describing changes to a live
:class:`~repro.core.graph.UncertainGraph` — the mutations the paper's
monitoring deployment sees month to month, plus the *topology growth*
a partial-observation crawl produces step by step.

Semantics
---------
* :class:`SelfRiskUpdate` / :class:`EdgeProbabilityUpdate` patch one
  entity by label; values are validated by the graph setters (a bad
  probability raises before any state changes).
* :class:`BulkSelfRiskUpdate` / :class:`BulkEdgeProbabilityUpdate` carry
  a whole replacement vector (index-aligned / edge-id-aligned).  The
  monitor diffs against current values, so entries that did not actually
  move dirty nothing — a bulk event is a cheap way to say "here is this
  month's state".
* :class:`NodeAdd` / :class:`EdgeAdd` grow the graph: a new node with
  its self-risk, a new guarantee edge with its diffusion probability.
  Growth is append-only (matching :class:`UncertainGraph`, which has no
  removal API), so node indices and edge ids assigned by earlier events
  are never disturbed by later ones.
* Per-entity events carry optional *provenance* (``source`` — e.g. which
  crawl strategy discovered the value — and ``confidence``).  Provenance
  is metadata only: it survives the persistence codec round-trip but
  never changes how an event validates or applies.
* Events within one batch apply in order; the *last* write to an entity
  wins, and a topology event makes its entity visible to every later
  event in the same batch (``NodeAdd`` then ``EdgeAdd`` then a bulk
  vector sized for the grown graph is one valid batch).  Batch
  application is **transactional**: :func:`validate_events` simulates
  the batch against a graph without mutating anything, and both
  :func:`apply_events` and
  :meth:`~repro.streaming.monitor.TopKMonitor.apply` validate the batch
  up front — a mid-batch validation error (duplicate node, dangling
  edge endpoint, bad probability, wrong bulk shape) therefore leaves no
  event applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Union

import numpy as np

from repro.core.errors import (
    DuplicateEdgeError,
    GraphError,
    ProbabilityError,
    UnknownNodeError,
)
from repro.core.graph import NodeLabel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.graph import UncertainGraph

__all__ = [
    "SelfRiskUpdate",
    "EdgeProbabilityUpdate",
    "BulkSelfRiskUpdate",
    "BulkEdgeProbabilityUpdate",
    "NodeAdd",
    "EdgeAdd",
    "UpdateEvent",
    "apply_event",
    "apply_events",
    "validate_event",
    "validate_events",
]


@dataclass(frozen=True)
class SelfRiskUpdate:
    """Replace one node's self-risk probability ``ps(label)``."""

    label: NodeLabel
    value: float
    source: str | None = None
    confidence: float | None = None

    def describe(self) -> str:
        """Short human-readable form for logs and CLI tables."""
        return f"ps({self.label!r}) <- {self.value:.4f}"


@dataclass(frozen=True)
class EdgeProbabilityUpdate:
    """Replace one guarantee edge's diffusion probability ``p(dst|src)``."""

    src: NodeLabel
    dst: NodeLabel
    value: float
    source: str | None = None
    confidence: float | None = None

    def describe(self) -> str:
        """Short human-readable form for logs and CLI tables."""
        # An arrow, as EdgeAdd prints it: a "|" would split the CLI's
        # "|"-separated step table.
        return f"p({self.src!r} -> {self.dst!r}) <- {self.value:.4f}"


@dataclass(frozen=True)
class BulkSelfRiskUpdate:
    """Replace every node's self-risk (index-aligned vector)."""

    values: np.ndarray

    def describe(self) -> str:
        """Short human-readable form for logs and CLI tables."""
        return f"bulk self-risks ({np.asarray(self.values).size} nodes)"


@dataclass(frozen=True)
class BulkEdgeProbabilityUpdate:
    """Replace every edge's diffusion probability (edge-id-aligned)."""

    values: np.ndarray

    def describe(self) -> str:
        """Short human-readable form for logs and CLI tables."""
        return f"bulk edge probabilities ({np.asarray(self.values).size} edges)"


@dataclass(frozen=True)
class NodeAdd:
    """Insert a new node with self-risk ``ps(label)`` (append-only)."""

    label: NodeLabel
    self_risk: float = 0.0
    source: str | None = None
    confidence: float | None = None

    def describe(self) -> str:
        """Short human-readable form for logs and CLI tables."""
        return f"+node {self.label!r} ps <- {self.self_risk:.4f}"


@dataclass(frozen=True)
class EdgeAdd:
    """Insert the guarantee edge ``src -> dst`` with ``p(dst|src)``."""

    src: NodeLabel
    dst: NodeLabel
    probability: float
    source: str | None = None
    confidence: float | None = None

    def describe(self) -> str:
        """Short human-readable form for logs and CLI tables."""
        return f"+edge {self.src!r} -> {self.dst!r} p <- {self.probability:.4f}"


UpdateEvent = Union[
    SelfRiskUpdate,
    EdgeProbabilityUpdate,
    BulkSelfRiskUpdate,
    BulkEdgeProbabilityUpdate,
    NodeAdd,
    EdgeAdd,
]


def _check_value(value: float, what: str) -> None:
    v = float(value)
    if math.isnan(v) or not 0.0 <= v <= 1.0:
        raise ProbabilityError(f"{what} must be in [0, 1], got {value!r}")


def _check_vector(values: np.ndarray, count: int, what: str) -> None:
    array = np.asarray(values, dtype=np.float64)
    if array.shape != (count,):
        raise GraphError(f"need {count} {what}, got shape {array.shape}")
    if array.size and (
        np.any(np.isnan(array)) or np.any((array < 0.0) | (array > 1.0))
    ):
        raise ProbabilityError(f"{what} must all lie in [0, 1]")


def _check_provenance(event: UpdateEvent) -> None:
    source = getattr(event, "source", None)
    if source is not None and not isinstance(source, str):
        raise GraphError(f"event source must be a string, got {source!r}")
    confidence = getattr(event, "confidence", None)
    if confidence is not None:
        _check_value(confidence, "event confidence")


class _BatchState:
    """Simulated topology of a graph while validating a batch in order.

    Tracks the nodes and edges that earlier events in the batch would
    have added, plus the running entity counts, so a later event can be
    checked against the graph *as it would be* at its turn — without
    mutating anything.  This is what keeps validate-all-then-apply
    equivalent to a rolled-back transaction now that topology is
    event-mutable.
    """

    __slots__ = ("_graph", "_added_nodes", "_added_edges", "num_nodes", "num_edges")

    def __init__(self, graph: "UncertainGraph") -> None:
        self._graph = graph
        self._added_nodes: set[NodeLabel] = set()
        self._added_edges: set[tuple[NodeLabel, NodeLabel]] = set()
        self.num_nodes = graph.num_nodes
        self.num_edges = graph.num_edges

    def has_node(self, label: NodeLabel) -> bool:
        return label in self._added_nodes or label in self._graph

    def has_edge(self, src: NodeLabel, dst: NodeLabel) -> bool:
        if (src, dst) in self._added_edges:
            return True
        try:
            return self._graph.has_edge(src, dst)
        except UnknownNodeError:
            return False

    def add_node(self, label: NodeLabel) -> None:
        self._added_nodes.add(label)
        self.num_nodes += 1

    def add_edge(self, src: NodeLabel, dst: NodeLabel) -> None:
        self._added_edges.add((src, dst))
        self.num_edges += 1


def _validate_against(state: _BatchState, event: UpdateEvent) -> None:
    """Validate one event against a (possibly simulated) topology."""
    if isinstance(event, SelfRiskUpdate):
        if not state.has_node(event.label):
            raise UnknownNodeError(event.label)
        _check_value(event.value, f"self_risk of {event.label!r}")
        _check_provenance(event)
    elif isinstance(event, EdgeProbabilityUpdate):
        if not state.has_node(event.src):
            raise UnknownNodeError(event.src)
        if not state.has_node(event.dst):
            raise UnknownNodeError(event.dst)
        if not state.has_edge(event.src, event.dst):
            raise UnknownNodeError((event.src, event.dst))
        _check_value(event.value, f"p({event.dst!r}|{event.src!r})")
        _check_provenance(event)
    elif isinstance(event, BulkSelfRiskUpdate):
        _check_vector(event.values, state.num_nodes, "self-risks")
    elif isinstance(event, BulkEdgeProbabilityUpdate):
        _check_vector(event.values, state.num_edges, "edge probabilities")
    elif isinstance(event, NodeAdd):
        if state.has_node(event.label):
            raise GraphError(f"node {event.label!r} already exists")
        _check_value(event.self_risk, f"self_risk of {event.label!r}")
        _check_provenance(event)
        state.add_node(event.label)
    elif isinstance(event, EdgeAdd):
        if not state.has_node(event.src):
            raise UnknownNodeError(event.src)
        if not state.has_node(event.dst):
            raise UnknownNodeError(event.dst)
        if event.src == event.dst:
            raise GraphError(f"self-loop on {event.src!r} is not allowed")
        if state.has_edge(event.src, event.dst):
            raise DuplicateEdgeError(
                f"edge {event.src!r} -> {event.dst!r} already exists"
            )
        _check_value(event.probability, f"p({event.dst!r}|{event.src!r})")
        _check_provenance(event)
        state.add_edge(event.src, event.dst)
    else:
        raise GraphError(f"unknown update event: {event!r}")


def validate_event(graph: "UncertainGraph", event: UpdateEvent) -> None:
    """Check that *event* would apply cleanly to *graph* — no mutation.

    Raises exactly the error the corresponding graph mutator would
    (unknown entity, duplicate node/edge, out-of-range or NaN
    probability, shape mismatch).  Validates against the graph as it is
    *now*; to validate a batch whose later events depend on earlier
    topology events, use :func:`validate_events`, which simulates the
    batch in order.
    """
    _validate_against(_BatchState(graph), event)


def validate_events(
    graph: "UncertainGraph", events: Iterable[UpdateEvent]
) -> list[UpdateEvent]:
    """Validate a whole batch against *graph*; returns it materialised.

    The batch is simulated in order: a ``NodeAdd``/``EdgeAdd`` makes its
    entity visible to every later event's check (and grows the expected
    bulk-vector lengths), so a batch validates iff serially applying it
    would succeed — without mutating the graph.
    """
    batch = list(events)
    state = _BatchState(graph)
    for event in batch:
        _validate_against(state, event)
    return batch


def apply_event(graph: "UncertainGraph", event: UpdateEvent) -> None:
    """Apply one event directly to *graph* through its mutators.

    The executable semantics of the event vocabulary — what a monitor's
    intake does, minus the dirty bookkeeping.  Serving benchmarks and
    equivalence tests use it to maintain shadow graphs that replay a
    tenant's stream outside any monitor.
    """
    if isinstance(event, SelfRiskUpdate):
        graph.set_self_risk(event.label, event.value)
    elif isinstance(event, EdgeProbabilityUpdate):
        graph.set_edge_probability(event.src, event.dst, event.value)
    elif isinstance(event, BulkSelfRiskUpdate):
        graph.set_all_self_risks(event.values)
    elif isinstance(event, BulkEdgeProbabilityUpdate):
        graph.set_all_edge_probabilities(event.values)
    elif isinstance(event, NodeAdd):
        graph.add_node(event.label, event.self_risk)
    elif isinstance(event, EdgeAdd):
        graph.add_edge(event.src, event.dst, event.probability)
    else:
        raise GraphError(f"unknown update event: {event!r}")


def apply_events(
    graph: "UncertainGraph", events: Iterable[UpdateEvent]
) -> int:
    """Apply a batch transactionally: validate everything, then mutate.

    A validation error raises before any state changes, so the graph is
    never left holding half a batch; returns the number applied.
    """
    batch = validate_events(graph, events)
    for event in batch:
        apply_event(graph, event)
    return len(batch)
