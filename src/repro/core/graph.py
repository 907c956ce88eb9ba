"""Directed uncertain graph container.

This module implements :class:`UncertainGraph`, the data structure every
algorithm in the library operates on.  It models the graph of the paper's
Section 2.1: a directed graph where each node ``v`` carries a *self-risk
probability* ``ps(v)`` and each edge ``(u, v)`` carries a *diffusion
probability* ``p(v|u)``.

Design notes
------------
* Nodes are identified by arbitrary hashable *labels* at the API surface
  (enterprise ids, strings, ints).  Internally every node gets a dense
  integer *index* so the hot sampling loops can run on numpy arrays.
* Node and edge attributes (self-risks, endpoints, diffusion
  probabilities) live in amortised-growable **numpy buffers**
  (:class:`_GrowableArray`), not Python lists: incremental ``add_node`` /
  ``add_edge`` stay O(1) amortised, while the bulk paths—
  :meth:`UncertainGraph.from_arrays`, :meth:`UncertainGraph.reverse`,
  :meth:`UncertainGraph.subgraph`, :meth:`UncertainGraph.copy` — go
  through one vectorised constructor that validates whole probability
  vectors with numpy and **adopts** the caller's arrays where safe.  No
  per-edge Python work happens on any bulk path.
* The label→index and ``(src, dst)``→edge-id hash maps are built
  **lazily**: a graph assembled from arrays and consumed by the numeric
  kernels never pays for a Python dict at all; the maps materialise on
  the first label or edge lookup.
* Adjacency is stored twice in CSR (compressed sparse row) form — once
  for out-neighbours (forward propagation, Algorithm 1) and once for
  in-neighbours (Equation 1 and the reverse sampling of Algorithm 5).
  The CSR views are built lazily from the edge arrays.  Topology
  mutations invalidate them, but **probability-only updates patch the
  cached CSR arrays in place** — both views address the patch through
  the shared canonical edge ids, so ``set_edge_probability`` is O(1)
  after the inverse permutation exists and never triggers a rebuild.
* All probabilities are validated on insertion; values outside ``[0, 1]``
  raise :class:`~repro.core.errors.ProbabilityError`.  Bulk setters and
  constructors validate the entire vector *before* touching any state,
  so a failed call leaves the graph unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.core.errors import (
    DuplicateEdgeError,
    GraphError,
    ProbabilityError,
    UnknownNodeError,
)

__all__ = ["UncertainGraph", "CSRAdjacency", "GraphStats"]

NodeLabel = Hashable


def _check_probability(value: float, what: str) -> float:
    """Validate that *value* is a probability and return it as a float."""
    p = float(value)
    if not 0.0 <= p <= 1.0:
        raise ProbabilityError(f"{what} must be in [0, 1], got {value!r}")
    if np.isnan(p):
        raise ProbabilityError(f"{what} must not be NaN")
    return p


def _check_probability_vector(array: np.ndarray, what: str) -> None:
    """Vectorised range/NaN validation of a whole probability array."""
    if array.size and (
        np.any(np.isnan(array)) or np.any((array < 0.0) | (array > 1.0))
    ):
        raise ProbabilityError(f"{what} must all lie in [0, 1]")


class _GrowableArray:
    """Amortised-growable numpy buffer backing one attribute column.

    Supports O(1) amortised :meth:`append` for the incremental mutation
    API while exposing the live prefix as a real ndarray (:attr:`array`)
    for the vectorised kernels — the best of a Python list and a numpy
    array without converting between them on every access.
    """

    __slots__ = ("_data", "_size")

    def __init__(self, dtype, values: np.ndarray | None = None) -> None:
        if values is None:
            self._data = np.empty(8, dtype=dtype)
            self._size = 0
        else:
            self._data = np.ascontiguousarray(values, dtype=dtype)
            self._size = int(self._data.size)

    @property
    def array(self) -> np.ndarray:
        """Writable view of the live prefix (no copy)."""
        return self._data[: self._size]

    def append(self, value) -> None:
        if self._size == self._data.size:
            grown = np.empty(max(8, self._data.size * 2), dtype=self._data.dtype)
            grown[: self._size] = self._data[: self._size]
            self._data = grown
        self._data[self._size] = value
        self._size += 1

    def replace(self, values: np.ndarray) -> None:
        """Swap in a whole new column of the same length."""
        self._data = np.ascontiguousarray(values, dtype=self._data.dtype)
        self._size = int(self._data.size)

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, index):
        return self.array[index]

    def __setitem__(self, index, value) -> None:
        self.array[index] = value

    def __iter__(self):
        return iter(self.array)


class _CowColumn(_GrowableArray):
    """A column whose buffer is shared between graphs until first write.

    :meth:`UncertainGraph.share_view` hands the same underlying ndarray
    to several graphs; every holder wraps it in one of these.  Reads go
    straight to the shared buffer; the first mutation — an in-place
    element write or an append — forks a private copy first, so no
    holder can ever observe another holder's writes.  ``replace`` swaps
    in a whole new buffer and therefore never needs a fork.

    Forking is not thread-safe; a shared graph must be mutated from one
    thread at a time (the serving layer pins each tenant to one worker).
    """

    __slots__ = ("_shared",)

    def __init__(self, base: np.ndarray) -> None:
        self._data = base
        self._size = int(base.size)
        self._shared = True

    def _fork(self) -> None:
        if self._shared:
            self._data = self._data[: self._size].copy()
            self._shared = False

    def append(self, value) -> None:
        self._fork()
        super().append(value)

    def replace(self, values: np.ndarray) -> None:
        array = np.ascontiguousarray(values, dtype=self._data.dtype)
        if self._shared and array is self._data:
            array = array.copy()
        self._data = array
        self._size = int(array.size)
        self._shared = False

    def __setitem__(self, index, value) -> None:
        self._fork()
        super().__setitem__(index, value)


@dataclass(frozen=True)
class CSRAdjacency:
    """A compressed-sparse-row view of one direction of adjacency.

    Attributes
    ----------
    indptr:
        ``int64`` array of length ``n + 1``; neighbours of node ``i`` live
        in ``indices[indptr[i]:indptr[i + 1]]``.
    indices:
        ``int64`` array of neighbour indices, one entry per edge.
    probs:
        ``float64`` array aligned with ``indices`` holding the diffusion
        probability of each edge.  Probability-only graph updates are
        patched into this array in place (the view object survives).
    edge_ids:
        ``int64`` array aligned with ``indices`` giving each entry's
        position in the graph's canonical edge ordering.  Both the forward
        and the reverse CSR views refer to the *same* edge ids, which lets
        samplers share one random draw per edge between directions.
    """

    indptr: np.ndarray
    indices: np.ndarray
    probs: np.ndarray
    edge_ids: np.ndarray

    def neighbors(self, index: int) -> np.ndarray:
        """Neighbour indices of the node at internal *index*."""
        return self.indices[self.indptr[index] : self.indptr[index + 1]]

    def edge_probs(self, index: int) -> np.ndarray:
        """Diffusion probabilities aligned with :meth:`neighbors`."""
        return self.probs[self.indptr[index] : self.indptr[index + 1]]

    def degree(self, index: int) -> int:
        """Number of neighbours of the node at internal *index*."""
        return int(self.indptr[index + 1] - self.indptr[index])

    @property
    def degrees(self) -> np.ndarray:
        """Vector of per-node degrees in this direction."""
        return np.diff(self.indptr)


@dataclass(frozen=True)
class GraphStats:
    """Summary statistics of a graph (mirrors the paper's Table 2)."""

    num_nodes: int
    num_edges: int
    avg_degree: float
    max_degree: int
    mean_self_risk: float
    mean_diffusion: float

    def as_row(self) -> dict[str, float | int]:
        """Return the statistics as a plain dict (for table printing)."""
        return {
            "nodes": self.num_nodes,
            "edges": self.num_edges,
            "avg_deg": round(self.avg_degree, 2),
            "max_deg": self.max_degree,
            "mean_ps": round(self.mean_self_risk, 4),
            "mean_pe": round(self.mean_diffusion, 4),
        }


class UncertainGraph:
    """A directed graph with node self-risk and edge diffusion probabilities.

    Parameters
    ----------
    nodes:
        Optional iterable of ``(label, self_risk)`` pairs to insert.
    edges:
        Optional iterable of ``(src, dst, diffusion_probability)`` triples;
        endpoint labels must already be present via *nodes* (or be inserted
        first through :meth:`add_node`).

    Examples
    --------
    >>> g = UncertainGraph()
    >>> g.add_node("A", self_risk=0.2)
    >>> g.add_node("B", self_risk=0.1)
    >>> g.add_edge("A", "B", probability=0.3)
    >>> g.num_nodes, g.num_edges
    (2, 1)
    """

    __slots__ = (
        "_index_of",
        "_labels",
        "_self_risk",
        "_edge_src",
        "_edge_dst",
        "_edge_prob",
        "_edge_index",
        "_out_csr",
        "_in_csr",
        "_out_inverse",
        "_in_inverse",
        "_shared_maps",
        "__weakref__",
    )

    def __init__(
        self,
        nodes: Iterable[tuple[NodeLabel, float]] | None = None,
        edges: Iterable[tuple[NodeLabel, NodeLabel, float]] | None = None,
    ) -> None:
        self._index_of: dict[NodeLabel, int] | None = {}
        self._labels: list[NodeLabel] = []
        self._self_risk = _GrowableArray(np.float64)
        self._edge_src = _GrowableArray(np.int64)
        self._edge_dst = _GrowableArray(np.int64)
        self._edge_prob = _GrowableArray(np.float64)
        self._edge_index: dict[tuple[int, int], int] | None = {}
        self._out_csr: CSRAdjacency | None = None
        self._in_csr: CSRAdjacency | None = None
        self._out_inverse: np.ndarray | None = None
        self._in_inverse: np.ndarray | None = None
        self._shared_maps = False
        if nodes is not None:
            for label, risk in nodes:
                self.add_node(label, risk)
        if edges is not None:
            for src, dst, prob in edges:
                self.add_edge(src, dst, prob)

    # ------------------------------------------------------------------
    # Lazy lookup maps
    # ------------------------------------------------------------------
    def _node_lookup(self) -> dict[NodeLabel, int]:
        """Label → index map, materialised on first use after bulk build."""
        if self._index_of is None:
            self._index_of = {
                label: i for i, label in enumerate(self._labels)
            }
        return self._index_of

    def _edge_lookup(self) -> dict[tuple[int, int], int]:
        """``(src, dst)`` → edge-id map, materialised on first use."""
        if self._edge_index is None:
            self._edge_index = {
                (int(s), int(d)): eid
                for eid, (s, d) in enumerate(
                    zip(self._edge_src.array, self._edge_dst.array)
                )
            }
        return self._edge_index

    def _fork_shared_maps(self) -> None:
        """Privatise label/edge maps shared with sibling COW views.

        Structural mutations append to the label list and lookup dicts;
        when those objects are shared with :meth:`share_view` siblings,
        fork them first so a tenant's ``add_node``/``add_edge`` stays
        invisible to every other holder.
        """
        if self._shared_maps:
            self._labels = list(self._labels)
            if self._index_of is not None:
                self._index_of = dict(self._index_of)
            if self._edge_index is not None:
                self._edge_index = dict(self._edge_index)
            self._shared_maps = False

    # ------------------------------------------------------------------
    # Construction and mutation
    # ------------------------------------------------------------------
    def add_node(self, label: NodeLabel, self_risk: float = 0.0) -> int:
        """Insert a node and return its internal index.

        Raises
        ------
        GraphError
            If *label* is already present.
        ProbabilityError
            If *self_risk* is outside ``[0, 1]``.
        """
        if label in self._node_lookup():
            raise GraphError(f"node {label!r} already exists")
        risk = _check_probability(self_risk, f"self_risk of {label!r}")
        self._fork_shared_maps()
        lookup = self._node_lookup()
        index = len(self._labels)
        lookup[label] = index
        self._labels.append(label)
        self._self_risk.append(risk)
        self._invalidate()
        return index

    def add_edge(self, src: NodeLabel, dst: NodeLabel, probability: float) -> int:
        """Insert the directed edge ``src -> dst`` and return its edge id.

        The edge means: if *src* defaults, *dst* defaults with the given
        *probability* (the paper's ``p(dst|src)``).

        Raises
        ------
        UnknownNodeError
            If either endpoint has not been added.
        DuplicateEdgeError
            If the edge already exists (uncertain graphs here are simple).
        GraphError
            If the edge is a self-loop.
        """
        s = self.index(src)
        d = self.index(dst)
        if s == d:
            raise GraphError(f"self-loop on {src!r} is not allowed")
        if (s, d) in self._edge_lookup():
            raise DuplicateEdgeError(f"edge {src!r} -> {dst!r} already exists")
        prob = _check_probability(probability, f"p({dst!r}|{src!r})")
        self._fork_shared_maps()
        lookup = self._edge_lookup()
        edge_id = len(self._edge_src)
        self._edge_src.append(s)
        self._edge_dst.append(d)
        self._edge_prob.append(prob)
        lookup[(s, d)] = edge_id
        self._invalidate()
        return edge_id

    def set_self_risk(self, label: NodeLabel, self_risk: float) -> None:
        """Replace the self-risk probability of an existing node."""
        index = self.index(label)
        self._self_risk[index] = _check_probability(
            self_risk, f"self_risk of {label!r}"
        )

    def set_edge_probability(
        self, src: NodeLabel, dst: NodeLabel, probability: float
    ) -> None:
        """Replace the diffusion probability of an existing edge.

        A probability patch does **not** invalidate the cached CSR views:
        the new value is written through the inverse edge-id permutation
        into both views' ``probs`` arrays in place, so long-lived CSR
        holders observe the update and nothing is rebuilt.
        """
        edge_id = self.edge_id(src, dst)
        prob = _check_probability(probability, f"p({dst!r}|{src!r})")
        self._edge_prob[edge_id] = prob
        if self._out_csr is not None:
            self._out_csr.probs[self._out_inverse[edge_id]] = prob
        if self._in_csr is not None:
            self._in_csr.probs[self._in_inverse[edge_id]] = prob

    def set_all_self_risks(self, values: Sequence[float] | np.ndarray) -> None:
        """Bulk-replace every node's self-risk (index-aligned array).

        Validates the whole vector first so a failed call leaves the graph
        unchanged.
        """
        array = np.asarray(values, dtype=np.float64)
        if array.shape != (self.num_nodes,):
            raise GraphError(
                f"need {self.num_nodes} self-risks, got shape {array.shape}"
            )
        _check_probability_vector(array, "self-risks")
        self._self_risk.replace(array.copy())

    def set_all_edge_probabilities(
        self, values: Sequence[float] | np.ndarray
    ) -> None:
        """Bulk-replace every edge's diffusion probability (edge-id order).

        Validates the whole vector first so a failed call leaves the graph
        unchanged.  Like :meth:`set_edge_probability`, cached CSR views are
        patched in place (one vectorised gather per view), never rebuilt.
        """
        array = np.asarray(values, dtype=np.float64)
        if array.shape != (self.num_edges,):
            raise GraphError(
                f"need {self.num_edges} probabilities, got shape {array.shape}"
            )
        _check_probability_vector(array, "edge probabilities")
        self._edge_prob.replace(array.copy())
        if self._out_csr is not None:
            self._out_csr.probs[:] = array[self._out_csr.edge_ids]
        if self._in_csr is not None:
            self._in_csr.probs[:] = array[self._in_csr.edge_ids]

    def _invalidate(self) -> None:
        self._out_csr = None
        self._in_csr = None
        self._out_inverse = None
        self._in_inverse = None

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes, the paper's ``n``."""
        return len(self._labels)

    @property
    def num_edges(self) -> int:
        """Number of directed edges, the paper's ``m``."""
        return len(self._edge_src)

    def __len__(self) -> int:
        return self.num_nodes

    def __contains__(self, label: NodeLabel) -> bool:
        return label in self._node_lookup()

    def index(self, label: NodeLabel) -> int:
        """Internal index of *label*; raises :class:`UnknownNodeError`."""
        try:
            return self._node_lookup()[label]
        except KeyError:
            raise UnknownNodeError(label) from None

    def label(self, index: int) -> NodeLabel:
        """Label of the node at internal *index*."""
        if not 0 <= index < len(self._labels):
            raise UnknownNodeError(index)
        return self._labels[index]

    def labels(self) -> list[NodeLabel]:
        """All node labels in internal-index order (a copy)."""
        return list(self._labels)

    def nodes(self) -> Iterator[NodeLabel]:
        """Iterate over node labels in insertion order."""
        return iter(self._labels)

    def edges(self) -> Iterator[tuple[NodeLabel, NodeLabel, float]]:
        """Iterate over ``(src_label, dst_label, probability)`` triples."""
        labels = self._labels
        src = self._edge_src.array
        dst = self._edge_dst.array
        prob = self._edge_prob.array
        for eid in range(self.num_edges):
            yield (labels[src[eid]], labels[dst[eid]], float(prob[eid]))

    def has_edge(self, src: NodeLabel, dst: NodeLabel) -> bool:
        """Whether the directed edge ``src -> dst`` exists."""
        try:
            return (self.index(src), self.index(dst)) in self._edge_lookup()
        except UnknownNodeError:
            return False

    def self_risk(self, label: NodeLabel) -> float:
        """Self-risk probability ``ps(label)``."""
        return float(self._self_risk[self.index(label)])

    def edge_id(self, src: NodeLabel, dst: NodeLabel) -> int:
        """Canonical edge id of ``src -> dst`` (position in edge-id order).

        The id indexes the arrays of :attr:`edge_array` and the
        ``edge_ids`` column of both CSR views; probability-only updates
        keep ids stable (only topology mutations renumber).
        """
        s = self.index(src)
        d = self.index(dst)
        edge_id = self._edge_lookup().get((s, d))
        if edge_id is None:
            raise UnknownNodeError((src, dst))
        return edge_id

    def edge_probability(self, src: NodeLabel, dst: NodeLabel) -> float:
        """Diffusion probability ``p(dst|src)``."""
        return float(self._edge_prob[self.edge_id(src, dst)])

    def in_neighbors(self, label: NodeLabel) -> list[NodeLabel]:
        """Labels of in-neighbours — the paper's ``N(v)``."""
        csr = self.in_csr()
        return [self._labels[i] for i in csr.neighbors(self.index(label))]

    def out_neighbors(self, label: NodeLabel) -> list[NodeLabel]:
        """Labels of out-neighbours (nodes this node can infect)."""
        csr = self.out_csr()
        return [self._labels[i] for i in csr.neighbors(self.index(label))]

    def in_degree(self, label: NodeLabel) -> int:
        """Number of in-neighbours of *label*."""
        return self.in_csr().degree(self.index(label))

    def out_degree(self, label: NodeLabel) -> int:
        """Number of out-neighbours of *label*."""
        return self.out_csr().degree(self.index(label))

    # ------------------------------------------------------------------
    # Array views (used by the numeric kernels)
    # ------------------------------------------------------------------
    @property
    def self_risk_array(self) -> np.ndarray:
        """``float64`` array of self-risk probabilities, index-aligned."""
        return self._self_risk.array.copy()

    @property
    def edge_array(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Canonical edge arrays ``(src, dst, prob)`` in edge-id order."""
        return (
            self._edge_src.array.copy(),
            self._edge_dst.array.copy(),
            self._edge_prob.array.copy(),
        )

    def _build_csr(self, direction: str) -> CSRAdjacency:
        n = self.num_nodes
        src = self._edge_src.array
        dst = self._edge_dst.array
        prob = self._edge_prob.array
        keys, values = (src, dst) if direction == "out" else (dst, src)
        order = np.argsort(keys, kind="stable")
        counts = np.bincount(keys, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        inverse = np.empty(order.size, dtype=np.int64)
        inverse[order] = np.arange(order.size, dtype=np.int64)
        if direction == "out":
            self._out_inverse = inverse
        else:
            self._in_inverse = inverse
        return CSRAdjacency(
            indptr=indptr,
            indices=values[order],
            probs=prob[order],
            edge_ids=np.asarray(order, dtype=np.int64),
        )

    def out_csr(self) -> CSRAdjacency:
        """CSR view of out-adjacency (lazily built, cached)."""
        if self._out_csr is None:
            self._out_csr = self._build_csr("out")
        return self._out_csr

    def in_csr(self) -> CSRAdjacency:
        """CSR view of in-adjacency (lazily built, cached)."""
        if self._in_csr is None:
            self._in_csr = self._build_csr("in")
        return self._in_csr

    # ------------------------------------------------------------------
    # Bulk construction
    # ------------------------------------------------------------------
    @classmethod
    def _from_validated_arrays(
        cls,
        labels: list[NodeLabel],
        self_risks: np.ndarray,
        edge_src: np.ndarray,
        edge_dst: np.ndarray,
        edge_probs: np.ndarray,
    ) -> "UncertainGraph":
        """Adopt pre-validated arrays without copying (internal fast path).

        Callers guarantee: labels unique, probabilities in range,
        endpoints in range, no self-loops, no duplicate edges, and that
        the arrays are private to the new graph.
        """
        graph = cls.__new__(cls)
        graph._index_of = None
        graph._labels = labels
        graph._self_risk = _GrowableArray(np.float64, self_risks)
        graph._edge_src = _GrowableArray(np.int64, edge_src)
        graph._edge_dst = _GrowableArray(np.int64, edge_dst)
        graph._edge_prob = _GrowableArray(np.float64, edge_probs)
        graph._edge_index = None
        graph._out_csr = None
        graph._in_csr = None
        graph._out_inverse = None
        graph._in_inverse = None
        graph._shared_maps = False
        return graph

    @classmethod
    def from_arrays(
        cls,
        self_risks: Sequence[float] | np.ndarray,
        edge_src: Sequence[int] | np.ndarray,
        edge_dst: Sequence[int] | np.ndarray,
        edge_probs: Sequence[float] | np.ndarray,
        labels: Sequence[NodeLabel] | None = None,
    ) -> "UncertainGraph":
        """Bulk constructor from parallel arrays (fast path for generators).

        Node ``i`` gets label ``labels[i]`` (default: the integer ``i``).
        All validation is vectorised and runs **before** the graph is
        assembled, so a rejected input raises without side effects; the
        graph is built with zero per-edge Python work.

        Raises
        ------
        GraphError
            On mismatched array lengths, out-of-range endpoints,
            self-loops, or duplicate labels.
        DuplicateEdgeError
            If the same ``(src, dst)`` pair appears twice.
        ProbabilityError
            If any probability lies outside ``[0, 1]`` or is NaN.
        """
        risk_array = np.asarray(self_risks, dtype=np.float64)
        if risk_array.ndim != 1:
            raise GraphError("self_risks must be one-dimensional")
        n = risk_array.size
        if labels is None:
            label_list: list[NodeLabel] = list(range(n))
        else:
            label_list = list(labels)
            if len(label_list) != n:
                raise GraphError("labels and self_risks must have equal length")
            if len(set(label_list)) != n:
                raise GraphError("labels must be unique")
        src_array = np.asarray(edge_src, dtype=np.int64)
        dst_array = np.asarray(edge_dst, dtype=np.int64)
        prob_array = np.asarray(edge_probs, dtype=np.float64)
        if not src_array.size == dst_array.size == prob_array.size:
            raise GraphError("edge arrays must have equal length")
        _check_probability_vector(risk_array, "self-risks")
        _check_probability_vector(prob_array, "edge probabilities")
        if src_array.size:
            if (
                src_array.min() < 0
                or src_array.max() >= n
                or dst_array.min() < 0
                or dst_array.max() >= n
            ):
                raise GraphError("edge endpoint index out of range")
            if np.any(src_array == dst_array):
                raise GraphError("self-loops are not allowed")
            keys = src_array * np.int64(n) + dst_array
            unique_keys = np.unique(keys)
            if unique_keys.size != keys.size:
                raise DuplicateEdgeError("duplicate edges in bulk input")
        return cls._from_validated_arrays(
            label_list,
            risk_array.copy(),
            src_array.copy(),
            dst_array.copy(),
            prob_array.copy(),
        )

    # ------------------------------------------------------------------
    # Derived graphs and interop
    # ------------------------------------------------------------------
    def reverse(self) -> "UncertainGraph":
        """Return ``Gt``, the graph with every edge direction flipped.

        Self-risk probabilities are preserved; the edge ``(u, v, p)``
        becomes ``(v, u, p)`` with the same canonical edge id.  Pure array
        swaps — O(n + m) with no per-edge Python work.
        """
        return UncertainGraph._from_validated_arrays(
            list(self._labels),
            self._self_risk.array.copy(),
            self._edge_dst.array.copy(),
            self._edge_src.array.copy(),
            self._edge_prob.array.copy(),
        )

    def subgraph(self, labels: Sequence[NodeLabel]) -> "UncertainGraph":
        """Induced subgraph on *labels* (edges with both endpoints kept).

        Edge filtering and index remapping are vectorised; kept edges
        preserve their relative canonical order.
        """
        label_list = list(labels)
        kept = np.fromiter(
            (self.index(label) for label in label_list),
            dtype=np.int64,
            count=len(label_list),
        )
        if np.unique(kept).size != kept.size:
            raise GraphError("subgraph labels must be unique")
        remap = np.full(self.num_nodes, -1, dtype=np.int64)
        remap[kept] = np.arange(kept.size, dtype=np.int64)
        src = self._edge_src.array
        dst = self._edge_dst.array
        keep_edge = (remap[src] >= 0) & (remap[dst] >= 0)
        return UncertainGraph._from_validated_arrays(
            label_list,
            self._self_risk.array[kept].copy(),
            remap[src[keep_edge]],
            remap[dst[keep_edge]],
            self._edge_prob.array[keep_edge].copy(),
        )

    def copy(self) -> "UncertainGraph":
        """Deep copy of the graph (bulk array copies, no per-edge work)."""
        return UncertainGraph._from_validated_arrays(
            list(self._labels),
            self._self_risk.array.copy(),
            self._edge_src.array.copy(),
            self._edge_dst.array.copy(),
            self._edge_prob.array.copy(),
        )

    def share_view(self) -> "UncertainGraph":
        """Copy-on-write view of this graph (the serving layer's hook).

        The returned graph answers every query identically to this one
        but *shares* the heavy buffers instead of copying them:

        * label list and label/edge lookup dicts — shared objects,
          forked by either side before a structural mutation;
        * self-risk / edge-endpoint / edge-probability columns — shared
          ndarrays wrapped in :class:`_CowColumn`, forked by whichever
          holder writes first (this graph's own columns are converted to
          COW mode too, so mutation on either side is safe);
        * CSR topology (``indptr`` / ``indices`` / ``edge_ids`` and the
          inverse permutations) — shared outright: probability patches
          never touch them and topology mutations rebuild them from the
          (forked) edge columns.

        Only the CSR ``probs`` columns are copied eagerly (2 m float64):
        :meth:`set_edge_probability` patches them in place by contract —
        long-lived samplers hold the view object — so they can never be
        shared between holders that may diverge.  Everything else is
        O(1) to share, which is what lets a pool of monitors over one
        base network hold ~one graph's worth of topology in memory.

        Forking is not thread-safe; mutate any one view from one thread
        at a time.
        """
        shared: dict[str, np.ndarray] = {}
        for name in ("_self_risk", "_edge_src", "_edge_dst", "_edge_prob"):
            # One exact live-prefix array object per column, wrapped by
            # BOTH holders: identity-based memory accounting then sees a
            # single buffer, and the prefix view drops any spare append
            # capacity the old column carried.
            shared[name] = getattr(self, name).array
            setattr(self, name, _CowColumn(shared[name]))
        self._shared_maps = True
        out, inn = self.out_csr(), self.in_csr()
        view = UncertainGraph.__new__(UncertainGraph)
        view._index_of = self._node_lookup()
        view._labels = self._labels
        view._shared_maps = True
        view._self_risk = _CowColumn(shared["_self_risk"])
        view._edge_src = _CowColumn(shared["_edge_src"])
        view._edge_dst = _CowColumn(shared["_edge_dst"])
        view._edge_prob = _CowColumn(shared["_edge_prob"])
        view._edge_index = self._edge_lookup()
        view._out_csr = CSRAdjacency(
            indptr=out.indptr,
            indices=out.indices,
            probs=out.probs.copy(),
            edge_ids=out.edge_ids,
        )
        view._in_csr = CSRAdjacency(
            indptr=inn.indptr,
            indices=inn.indices,
            probs=inn.probs.copy(),
            edge_ids=inn.edge_ids,
        )
        view._out_inverse = self._out_inverse
        view._in_inverse = self._in_inverse
        return view

    def storage_arrays(self) -> list[np.ndarray]:
        """The ndarrays physically backing this graph (built state only).

        Used by the serving layer's memory accounting: summing ``nbytes``
        over these arrays *deduplicated by identity* across a set of
        graphs measures how much buffer sharing :meth:`share_view`
        actually achieves.  Lazy state that has not been built (CSR
        views, inverse permutations) is simply absent.
        """
        arrays = [
            self._self_risk._data,
            self._edge_src._data,
            self._edge_dst._data,
            self._edge_prob._data,
        ]
        for csr in (self._out_csr, self._in_csr):
            if csr is not None:
                arrays.extend([csr.indptr, csr.indices, csr.probs, csr.edge_ids])
        for inverse in (self._out_inverse, self._in_inverse):
            if inverse is not None:
                arrays.append(inverse)
        return arrays

    def to_networkx(self):
        """Export to a :class:`networkx.DiGraph` with probability attrs."""
        import networkx as nx

        g = nx.DiGraph()
        for label, risk in zip(self._labels, self._self_risk.array):
            g.add_node(label, self_risk=float(risk))
        for src, dst, prob in self.edges():
            g.add_edge(src, dst, probability=prob)
        return g

    @classmethod
    def from_networkx(
        cls,
        g,
        self_risk_attr: str = "self_risk",
        probability_attr: str = "probability",
        default_self_risk: float = 0.0,
        default_probability: float = 1.0,
    ) -> "UncertainGraph":
        """Build an uncertain graph from a :class:`networkx.DiGraph`.

        Missing attributes fall back to the supplied defaults so plain
        topology-only graphs can be imported and annotated afterwards.
        """
        graph = cls()
        for node, data in g.nodes(data=True):
            graph.add_node(node, data.get(self_risk_attr, default_self_risk))
        for src, dst, data in g.edges(data=True):
            graph.add_edge(src, dst, data.get(probability_attr, default_probability))
        return graph

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def stats(self) -> GraphStats:
        """Summary statistics matching the columns of the paper's Table 2.

        Degree here counts both directions (total degree), matching how
        SNAP-style dataset tables report average/max degree.
        """
        n = self.num_nodes
        if n == 0:
            return GraphStats(0, 0, 0.0, 0, 0.0, 0.0)
        total_deg = self.out_csr().degrees + self.in_csr().degrees
        probs = self._edge_prob.array
        return GraphStats(
            num_nodes=n,
            num_edges=self.num_edges,
            avg_degree=float(self.num_edges / n),
            max_degree=int(total_deg.max(initial=0)),
            mean_self_risk=float(self._self_risk.array.mean()) if n else 0.0,
            mean_diffusion=float(probs.mean()) if probs.size else 0.0,
        )

    def validate(self) -> None:
        """Run internal consistency checks; raises :class:`GraphError`.

        Intended for tests and for callers that built a graph through the
        bulk constructors and want a sanity gate before long experiments.
        """
        if len(self._labels) != len(self._self_risk):
            raise GraphError("label/self-risk arrays out of sync")
        if len(self._node_lookup()) != len(self._labels):
            raise GraphError("duplicate labels in index map")
        if not len(self._edge_src) == len(self._edge_dst) == len(self._edge_prob):
            raise GraphError("edge attribute arrays out of sync")
        src = self._edge_src.array
        dst = self._edge_dst.array
        if src.size and (
            src.min() < 0
            or src.max() >= self.num_nodes
            or dst.min() < 0
            or dst.max() >= self.num_nodes
        ):
            raise GraphError("edge endpoint out of range")
        _check_probability_vector(self._edge_prob.array, "edge probabilities")
        _check_probability_vector(self._self_risk.array, "self risks")
        if len(self._edge_lookup()) != len(self._edge_src):
            raise GraphError("edge index and edge list disagree")

    def __repr__(self) -> str:
        return (
            f"UncertainGraph(nodes={self.num_nodes}, edges={self.num_edges})"
        )


def graph_from_mapping(
    self_risks: Mapping[NodeLabel, float],
    diffusion: Mapping[tuple[NodeLabel, NodeLabel], float],
) -> UncertainGraph:
    """Convenience constructor from two plain mappings.

    Parameters
    ----------
    self_risks:
        Mapping ``label -> ps(label)``.
    diffusion:
        Mapping ``(src, dst) -> p(dst|src)``.  Endpoints must appear in
        *self_risks*.
    """
    graph = UncertainGraph()
    for label, risk in self_risks.items():
        graph.add_node(label, risk)
    for (src, dst), prob in diffusion.items():
        graph.add_edge(src, dst, prob)
    return graph
