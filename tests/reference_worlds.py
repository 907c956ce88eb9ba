"""Possible-world semantics one world at a time, kept as the test oracle.

Exact ``p(v)`` is #P-hard (Theorem 1 of the paper), so these scalar
transcriptions are specifications for small graphs, not production paths.
The library runs bit-parallel engines; the tests hold each to the scalar
form here:

* :class:`PossibleWorld`, :func:`propagate_defaults` and
  :func:`world_probability` — one explicit realisation, its forward
  contagion BFS (Algorithm 1 lines 8–19 with the draws fixed) and its
  mass.  ``propagate_defaults_block`` must reproduce the BFS row by row,
  and the Gray-code masses of ``enumerate_world_blocks`` the sequential
  product bit for bit.
* :func:`enumerate_worlds` — every world with its mass, in plain
  binary-counting order over the free choices (nodes first, then edges,
  the last choice fastest).  :func:`block_indices` recomputes each
  block row's position in that order from its free-choice bits, and
  :func:`block_world` turns a row back into a :class:`PossibleWorld`.
* :func:`scalar_default_probabilities` — the exact sum
  ``p(v) = sum_W p(W) I_W(v)`` accumulated world by world, against
  which ``exact_default_probabilities`` is pinned (and which
  ``benchmarks/bench_exact_oracle.py`` times).
* :func:`forward_sample_reference` — Algorithm 1 lines 3–19 transcribed
  line by line: one sampled world per call, edges drawn lazily on first
  encounter.  ``ForwardSampler`` must estimate the same distribution.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.errors import GraphError
from repro.core.graph import UncertainGraph
from repro.core.worlds import DEFAULT_MAX_CHOICES, WorldBlock


@dataclass(frozen=True)
class PossibleWorld:
    """One realisation of all random choices of an uncertain graph.

    ``self_default`` is a boolean array over internal node indices,
    ``True`` where the node defaults by itself; ``edge_survives`` a
    boolean array over canonical edge ids, ``True`` where contagion can
    cross the edge.
    """

    self_default: np.ndarray
    edge_survives: np.ndarray

    def __post_init__(self) -> None:
        if self.self_default.dtype != np.bool_ or self.edge_survives.dtype != np.bool_:
            raise GraphError("possible world arrays must be boolean")


def propagate_defaults(graph: UncertainGraph, world: PossibleWorld) -> np.ndarray:
    """Which nodes default in *world*, by forward contagion BFS.

    Starting from all self-defaulting nodes, follow surviving out-edges;
    every reached node defaults.  Returns the paper's ``hv``: a boolean
    array over internal node indices.
    """
    n = graph.num_nodes
    if world.self_default.shape != (n,):
        raise GraphError(
            f"self_default has shape {world.self_default.shape}, expected ({n},)"
        )
    if world.edge_survives.shape != (graph.num_edges,):
        raise GraphError(
            "edge_survives has shape "
            f"{world.edge_survives.shape}, expected ({graph.num_edges},)"
        )
    defaulted = world.self_default.copy()
    out = graph.out_csr()
    queue: deque[int] = deque(np.flatnonzero(defaulted).tolist())
    while queue:
        u = queue.popleft()
        for pos in range(out.indptr[u], out.indptr[u + 1]):
            v = int(out.indices[pos])
            if defaulted[v]:
                continue
            if world.edge_survives[out.edge_ids[pos]]:
                defaulted[v] = True
                queue.append(v)
    return defaulted


def world_probability(graph: UncertainGraph, world: PossibleWorld) -> float:
    """Probability mass ``p(W)`` of an explicit world realisation.

    The product of per-node self-default terms times the product of
    per-edge survival terms, each a sequential left-to-right reduction.
    """
    ps = graph.self_risk_array
    _, _, pe = graph.edge_array
    node_terms = np.where(world.self_default, ps, 1.0 - ps)
    edge_terms = np.where(world.edge_survives, pe, 1.0 - pe)
    return float(np.prod(node_terms) * np.prod(edge_terms))


def _free_choices(graph: UncertainGraph) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the node and edge choices with probability in (0, 1)."""
    ps = graph.self_risk_array
    _, _, pe = graph.edge_array
    return (
        np.flatnonzero((ps > 0.0) & (ps < 1.0)),
        np.flatnonzero((pe > 0.0) & (pe < 1.0)),
    )


def enumerate_worlds(
    graph: UncertainGraph, max_choices: int = DEFAULT_MAX_CHOICES
) -> Iterator[tuple[PossibleWorld, float]]:
    """Yield every possible world with its probability.

    Choices whose probability is exactly 0 or 1 are pinned instead of
    enumerated, so ``2 ** free_choices`` worlds are produced, in
    binary-counting order over the free choices.

    Raises
    ------
    GraphError
        When the graph has more free choices than *max_choices*.
    """
    free_nodes, free_edges = _free_choices(graph)
    free = free_nodes.size + free_edges.size
    if free > max_choices:
        raise GraphError(
            f"graph has {free} free choices; enumeration capped at {max_choices}"
        )
    base_nodes = graph.self_risk_array >= 1.0
    base_edges = graph.edge_array[2] >= 1.0
    for bits in itertools.product((False, True), repeat=free):
        self_default = base_nodes.copy()
        edge_survives = base_edges.copy()
        self_default[free_nodes] = bits[: free_nodes.size]
        edge_survives[free_edges] = bits[free_nodes.size :]
        world = PossibleWorld(self_default=self_default, edge_survives=edge_survives)
        yield world, world_probability(graph, world)


def block_world(block: WorldBlock, row: int) -> PossibleWorld:
    """The explicit :class:`PossibleWorld` of one block row."""
    return PossibleWorld(
        self_default=block.self_default[row].copy(),
        edge_survives=block.edge_survives[row].copy(),
    )


def block_indices(graph: UncertainGraph, block: WorldBlock) -> np.ndarray:
    """Each block row's position in :func:`enumerate_worlds`' order.

    The free-choice bits of a row, nodes then edges, read as a binary
    number whose last choice is the lowest bit.
    """
    free_nodes, free_edges = _free_choices(graph)
    bits = np.concatenate(
        (block.self_default[:, free_nodes], block.edge_survives[:, free_edges]),
        axis=1,
    ).astype(np.int64)
    weights = np.int64(1) << np.arange(bits.shape[1] - 1, -1, -1, dtype=np.int64)
    return bits @ weights


def scalar_default_probabilities(
    graph: UncertainGraph, max_choices: int = DEFAULT_MAX_CHOICES
) -> np.ndarray:
    """Exact ``p(v)`` summed world by world in enumeration order."""
    probabilities = np.zeros(graph.num_nodes, dtype=np.float64)
    for world, mass in enumerate_worlds(graph, max_choices=max_choices):
        if mass == 0.0:
            continue
        probabilities[propagate_defaults(graph, world)] += mass
    return np.clip(probabilities, 0.0, 1.0)


def forward_sample_reference(
    graph: UncertainGraph, rng: np.random.Generator
) -> np.ndarray:
    """One sampled world, exactly as in Algorithm 1 lines 3–19.

    Every node draws a uniform number against its self-risk; a BFS from
    the self-defaulting nodes then draws one uniform number per first
    encounter of an edge to decide whether contagion crosses it.
    Returns the boolean ``hv`` array over internal node indices.
    """
    ps = graph.self_risk_array
    out = graph.out_csr()
    hv = rng.random(graph.num_nodes) <= ps  # lines 4-7
    visited = hv.copy()  # line 9: nodes outside Q start unvisited
    queue: deque[int] = deque(int(i) for i in np.flatnonzero(hv))  # line 8
    while queue:  # lines 10-19
        vq = queue.popleft()
        for pos in range(out.indptr[vq], out.indptr[vq + 1]):
            va = int(out.indices[pos])
            if visited[va]:
                continue
            if rng.random() > out.probs[pos]:  # lines 14-16
                continue
            hv[va] = True
            visited[va] = True
            queue.append(va)
    return hv
