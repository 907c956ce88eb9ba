"""TopKMonitor — incremental top-k detection over a live uncertain graph.

One monitor owns one continuous query: "the top-``k`` of this graph,
kept current as probabilities drift".  Its contract is *exact
equivalence*: after any sequence of updates, :meth:`TopKMonitor.top_k`
returns the same answer — nodes, scores, sample count, candidate set,
verified count, work counters — as constructing a fresh detector
(:class:`~repro.algorithms.bsr.BoundedSampleReverseDetector`, or
:class:`~repro.algorithms.bsrbk.BottomKDetector` when
``algorithm="bsrbk"``) with the same parameters and seed and calling
``detect`` on the patched graph.  All reuse below is therefore
*provable* reuse, never approximation.

The pipeline has three stages, each invalidated independently:

1. **Bounds** (Algorithms 2/3) — maintained by
   :class:`~repro.bounds.incremental.IncrementalBoundPair`: only nodes
   within ``z`` out-hops of a changed entity are re-evaluated, with
   arithmetic bit-identical to a fresh :func:`bound_pair`.
2. **Candidate reduction** (Algorithm 4) — every rule of the reduction
   is inert for bound values strictly below ``Tl`` (the k-th largest
   lower bound), so the cached reduction is reused verbatim unless some
   refreshed bound value crosses ``Tl``; crossing triggers one cheap
   O(n) re-run.
3. **Sampling** — per-world outcomes are pure functions of
   ``(seed, world, graph)``
   (:class:`~repro.sampling.indexed.IndexedReverseSampler`), so the
   monitor stores the per-world outcome matrix plus per-world
   touched-entity state (:class:`~repro.sampling.worldstate.
   PackedWorldState`).  A patched entity invalidates exactly the worlds
   where its fixed uniform crosses the old→new probability (expected
   fraction ``|Δp|``) *and* the entity was actually drawn; only those
   worlds are re-explored and spliced back in.  When Algorithm 4's
   candidate set or Theorem 5's budget move, added candidates are
   *columned in* (their closures explored against the cached worlds and
   OR-ed into the touched state, with draw counters advanced by the
   exact popcount deltas) and the world prefix grown or truncated,
   instead of resampling everything.

   With ``algorithm="bsrbk"`` the sampling stage runs BSRBK's bottom-k
   early stop instead of the full-budget estimate: worlds carry fixed
   PRF sample hashes, are materialised in ascending hash order, and the
   stopping rule is re-run as a pure scan over the cached prefix
   (:func:`~repro.sketch.bottom_k.bottom_k_scan`) after every repair —
   extending the evaluated prefix on demand when a repair pushes the
   stopping point later.

When the dirty region exceeds :data:`FULL_REBUILD_FRACTION` of the
graph — e.g. a bulk monthly re-scoring that moves everything — the
monitor falls back to a full recomputation, which is the same code path
as fresh detection and therefore trivially exact (the oracle tests cover
both routes).

**Topology growth.**  ``NodeAdd`` / ``EdgeAdd`` events (or the
:meth:`TopKMonitor.add_node` / :meth:`TopKMonitor.add_edge` intake)
grow the graph append-only.  Each world owns a fixed counter lane
(:func:`~repro.sampling.indexed.counter_lanes`), so growth never moves
an existing ``(world, entity)`` counter and the monitor ingests topology
*incrementally*:

* cached world masks are extended by zero bits for the new entities
  (a cached closure can only reach a new entity through a new edge);
* the bound iterates extend with the new nodes and refresh with the
  attachment boundary (new nodes + new edges' heads) as the dirty seed;
* a cached world must be re-explored **iff** some new edge's head was
  *expanded* there — reverse exploration draws a node's in-edges only
  when the node is expanded, so a world whose expanded set misses every
  new head replays its exploration verbatim on the grown graph;
* everything else (candidate columning, world-prefix resizing, BSRBK's
  hash-order rescan) reuses the probability-path machinery.

The result is bit-identical to fresh detection on the grown graph — the
crawl-while-monitoring oracle tests pin this after every crawl step.
Direct mutations of the live graph that bypass the monitor's intake are
still caught by shape and handled by the full fallback.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.algorithms.base import DetectionResult
from repro.algorithms.bsr import assemble_answer
from repro.bounds.candidates import CandidateReduction, reduce_candidates
from repro.bounds.incremental import BoundDelta, IncrementalBoundPair
from repro.bounds.iterative import (
    bound_pair,
    bounds_only_topk,
    certified_topk_mask,
)
from repro.core.errors import GraphError, SamplingError
from repro.core.graph import NodeLabel, UncertainGraph
from repro.core.topk import validate_k
from repro.sampling.indexed import IndexedReverseSampler, counter_lanes
from repro.sampling.rng import SeedLike, hashed_uniform_tile, hashed_uniforms
from repro.sampling.sample_size import reduced_sample_size, validate_epsilon_delta
from repro.sampling.worldstate import PackedWorldState, WorldView
from repro.sketch.bottom_k import bottom_k_scan
from repro.streaming.events import (
    BulkEdgeProbabilityUpdate,
    BulkSelfRiskUpdate,
    EdgeAdd,
    EdgeProbabilityUpdate,
    NodeAdd,
    SelfRiskUpdate,
    UpdateEvent,
    validate_events,
)

__all__ = ["RefreshReport", "TopKMonitor"]

_U64 = np.uint64
#: Cells hashed per chunk when crossing-testing without touched state.
_TILE_CHUNK = 1 << 22
#: Dirty-region threshold (fraction of ``n``) above which a refresh falls
#: back to full recomputation.
FULL_REBUILD_FRACTION = 0.25
#: Cap (in bytes) on the touched-entity state.  Above it the monitor
#: keeps only outcome rows and invalidates on uniform crossings alone —
#: still exact, marginally more re-exploration.  The packed state fits
#: exact repair of ~100k-node graphs under this cap.
WORLD_STATE_BUDGET = 32_000_000
#: Worlds a query view realises when the sampling stage holds none
#: (every top-k node verified by the bounds, so nothing was sampled).
FALLBACK_VIEW_WORLDS = 256


def _grow_rows(array: np.ndarray, rows: int) -> np.ndarray:
    """*array* zero-padded along its first axis to *rows* rows."""
    grown = np.zeros((rows, *array.shape[1:]), dtype=array.dtype)
    grown[: array.shape[0]] = array
    return grown


@dataclass(frozen=True)
class RefreshReport:
    """Telemetry of one :meth:`TopKMonitor.refresh` call.

    Attributes
    ----------
    mode:
        ``"initial"`` (first evaluation), ``"clean"`` (nothing pending),
        ``"incremental"`` (dirty-frontier path) or ``"full"`` (fallback).
    reason:
        Why this mode was taken (threshold exceeded, topology change, …).
    dirty_nodes, dirty_edges:
        Entities whose probability actually changed since last refresh.
    bounds_recomputed:
        Node evaluations spent refreshing the bound iterates.
    reduction_reused:
        Whether the cached Algorithm-4 reduction survived untouched.
    sampling:
        ``"reused"`` (cached estimates provably fresh), ``"repaired"``
        (only the invalidated worlds re-explored), ``"columned"``
        (candidate/budget change absorbed by columning added candidates
        into the cached worlds and/or resizing the world prefix),
        ``"resampled"`` (whole candidate set re-estimated) or
        ``"skipped"`` (``k' = k``, nothing to sample).
    worlds_repaired:
        Worlds re-evaluated this refresh (equals ``samples`` on a full
        resample, 0 on reuse).
    samples:
        The refresh's Theorem-5 sample budget.
    elapsed_seconds:
        Wall-clock cost of the refresh.
    """

    mode: str
    reason: str
    dirty_nodes: int
    dirty_edges: int
    bounds_recomputed: int
    reduction_reused: bool
    sampling: str
    worlds_repaired: int
    samples: int
    elapsed_seconds: float


class TopKMonitor:
    """Maintain the top-``k`` of a live graph under streaming updates.

    Parameters
    ----------
    graph:
        The live graph.  The monitor *shares* it (no copy): updates go
        through the monitor's setters (or :meth:`apply`), which patch
        the graph and record the dirty entities.
    k:
        Continuous answer size.
    epsilon, delta, lower_order, upper_order, seed:
        Exactly the parameters of
        :class:`~repro.algorithms.bsr.BoundedSampleReverseDetector`;
        the equivalence oracle is a fresh detector built with the same
        values.  Reproducible seeds (ints / SeedSequences) are required
        for the bit-identity guarantee to be observable.
    algorithm:
        ``"bsr"`` (default) maintains the full-budget BSR estimate;
        ``"bsrbk"`` maintains BSRBK's bottom-k early-stopped estimate,
        with *bk* as the counter threshold.  The equivalence oracle is
        then a fresh :class:`~repro.algorithms.bsrbk.BottomKDetector`.
    bk:
        Bottom-k counter threshold when ``algorithm="bsrbk"``.
    """

    def __init__(
        self,
        graph: UncertainGraph,
        k: int,
        *,
        epsilon: float = 0.3,
        delta: float = 0.1,
        lower_order: int = 2,
        upper_order: int = 2,
        seed: SeedLike = 0,
        algorithm: str = "bsr",
        bk: int = 16,
    ) -> None:
        self._graph = graph
        self._k = validate_k(k, graph.num_nodes)
        self._epsilon, self._delta = validate_epsilon_delta(epsilon, delta)
        self._lower_order = int(lower_order)
        self._upper_order = int(upper_order)
        self._seed = seed
        if algorithm not in ("bsr", "bsrbk"):
            raise GraphError(
                f"algorithm must be 'bsr' or 'bsrbk', got {algorithm!r}"
            )
        if bk < 2:
            raise SamplingError(f"bk must be >= 2, got {bk}")
        self._algorithm = algorithm
        self._bk = int(bk)
        # Pending dirt: entity -> probability at the last refresh.
        self._dirty_node_old: dict[int, float] = {}
        self._dirty_edge_old: dict[int, float] = {}
        # Tracked append-only growth since the last refresh: new node
        # indices / edge ids accepted through the monitor's own intake.
        # Growth that bypasses the intake desynchronises these from the
        # live shape and is caught by _topology_consistent.
        self._added_nodes: list[int] = []
        self._added_edges: list[int] = []
        # Monotone count of accepted probability mutations — the cache
        # key for the read-only bounds-only answer (see bounds_topk).
        self._mutations = 0
        self._bounds_only_cache: (
            tuple[tuple[int, tuple[int, int]], DetectionResult] | None
        ) = None
        # Query-engine dispatch over the repaired worlds: one memoising
        # engine per (mutation-state, shape); retired wholesale when the
        # underlying worlds change (see world_view / query).
        self._query_engine = None
        self._query_engine_key: tuple[int, tuple[int, int]] | None = None
        # Cached pipeline state (filled by the first refresh).
        self._shape = (graph.num_nodes, graph.num_edges)
        self._bounds: IncrementalBoundPair | None = None
        self._reduction: CandidateReduction | None = None
        self._samples = 0
        self._probs: np.ndarray | None = None
        self._sampling_candidates: np.ndarray | None = None
        self._nodes_touched = 0
        self._edges_touched = 0
        # Per-world state of the cached worlds.
        self._sampler: IndexedReverseSampler | None = None
        self._counts: np.ndarray | None = None
        self._world_outcomes: np.ndarray | None = None
        self._world_node_draws: np.ndarray | None = None
        self._world_edge_draws: np.ndarray | None = None
        self._world_state: PackedWorldState | None = None
        self._world_ids: np.ndarray | None = None
        # BSRBK bookkeeping (hash order over the budgeted worlds).
        self._bk_order: np.ndarray | None = None
        self._bk_hashes: np.ndarray | None = None
        self._stop_after = 0
        self._processed = 0
        self._stopped_early = False
        self._result: DetectionResult | None = None
        self._last_report: RefreshReport | None = None
        #: Row positions repaired by the most recent refresh (testing /
        #: introspection hook for the repair-set bit-identity suite).
        self.last_repaired_rows: np.ndarray = np.empty(0, dtype=np.int64)
        self.stats: dict[str, int] = {
            "refreshes": 0,
            "full": 0,
            "incremental": 0,
            "clean": 0,
            "topology": 0,
            "worlds_repaired": 0,
            "worlds_resampled": 0,
            "worlds_columned": 0,
        }

    def __setstate__(self, state: dict) -> None:
        # Monitors ride inside worker dumps and on-disk snapshots.  A blob
        # written before the engine options were retired may hold worlds
        # drawn under a retired counter layout, so it is rebuilt from its
        # restored graph and configuration: the first refresh recomputes.
        if "_engine_name" in state:
            self.__init__(
                state["_graph"],
                state["_k"],
                epsilon=state["_epsilon"],
                delta=state["_delta"],
                lower_order=state["_lower_order"],
                upper_order=state["_upper_order"],
                seed=state["_seed"],
                algorithm=state["_algorithm"],
                bk=state["_bk"],
            )
            self.stats.update(state["stats"])
            return
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def graph(self) -> UncertainGraph:
        """The live graph this monitor serves."""
        return self._graph

    @property
    def k(self) -> int:
        """The continuous answer size."""
        return self._k

    @property
    def algorithm(self) -> str:
        """The maintained detection algorithm (``"bsr"`` / ``"bsrbk"``)."""
        return self._algorithm

    @property
    def world_state_nbytes(self) -> int:
        """Actual bytes the touched-entity state currently holds."""
        return 0 if self._world_state is None else self._world_state.nbytes

    @property
    def last_report(self) -> RefreshReport | None:
        """Telemetry of the most recent refresh, if any."""
        return self._last_report

    @property
    def pending_updates(self) -> int:
        """Entities patched since the last refresh."""
        return len(self._dirty_node_old) + len(self._dirty_edge_old)

    # ------------------------------------------------------------------
    # Update intake
    # ------------------------------------------------------------------
    def set_self_risk(self, label: NodeLabel, value: float) -> None:
        """Patch one node's self-risk and mark it dirty."""
        index = self._graph.index(label)
        old = self._graph.self_risk(label)
        self._graph.set_self_risk(label, value)
        if self._graph.self_risk(label) != old:
            self._dirty_node_old.setdefault(index, old)
            self._mutations += 1

    def set_edge_probability(
        self, src: NodeLabel, dst: NodeLabel, value: float
    ) -> None:
        """Patch one edge's diffusion probability and mark it dirty."""
        edge_id = self._graph.edge_id(src, dst)
        old = self._graph.edge_probability(src, dst)
        self._graph.set_edge_probability(src, dst, value)
        if self._graph.edge_probability(src, dst) != old:
            self._dirty_edge_old.setdefault(edge_id, old)
            self._mutations += 1

    def set_all_self_risks(self, values: Sequence[float] | np.ndarray) -> None:
        """Bulk-patch self-risks; only entries that moved become dirty."""
        old = self._graph.self_risk_array
        self._graph.set_all_self_risks(values)
        new = self._graph.self_risk_array
        for index in np.flatnonzero(new != old):
            self._dirty_node_old.setdefault(int(index), float(old[index]))
            self._mutations += 1

    def set_all_edge_probabilities(
        self, values: Sequence[float] | np.ndarray
    ) -> None:
        """Bulk-patch edge probabilities; only moved entries become dirty."""
        _, _, old = self._graph.edge_array
        self._graph.set_all_edge_probabilities(values)
        _, _, new = self._graph.edge_array
        for edge in np.flatnonzero(new != old):
            self._dirty_edge_old.setdefault(int(edge), float(old[edge]))
            self._mutations += 1

    def add_node(self, label: NodeLabel, self_risk: float = 0.0) -> int:
        """Append a node to the live graph and track it for ingestion.

        Returns the new node's index; the next refresh folds the growth
        in incrementally (see the module docstring).
        """
        index = self._graph.add_node(label, self_risk)
        self._added_nodes.append(int(index))
        self._mutations += 1
        return int(index)

    def add_edge(
        self, src: NodeLabel, dst: NodeLabel, probability: float
    ) -> int:
        """Append an edge to the live graph and track it for ingestion.

        Returns the new edge's id.  See :meth:`add_node` for how the
        next refresh absorbs the growth.
        """
        edge_id = self._graph.add_edge(src, dst, probability)
        self._added_edges.append(int(edge_id))
        self._mutations += 1
        return int(edge_id)

    def apply(self, events: Iterable[UpdateEvent]) -> int:
        """Apply a batch of update events in order; returns the count.

        Transactional: the whole batch is validated against the graph
        before any mutation, so a bad event (unknown entity, NaN or
        out-of-range probability, shape mismatch) raises with the graph
        and the monitor's dirty bookkeeping untouched.  Within a valid
        batch, events apply in order and the last write per entity wins.
        """
        events = validate_events(self._graph, events)
        count = 0
        for event in events:
            if isinstance(event, SelfRiskUpdate):
                self.set_self_risk(event.label, event.value)
            elif isinstance(event, EdgeProbabilityUpdate):
                self.set_edge_probability(event.src, event.dst, event.value)
            elif isinstance(event, BulkSelfRiskUpdate):
                self.set_all_self_risks(event.values)
            elif isinstance(event, BulkEdgeProbabilityUpdate):
                self.set_all_edge_probabilities(event.values)
            elif isinstance(event, NodeAdd):
                self.add_node(event.label, event.self_risk)
            elif isinstance(event, EdgeAdd):
                self.add_edge(event.src, event.dst, event.probability)
            else:
                raise GraphError(f"unknown update event: {event!r}")
            count += 1
        return count

    # ------------------------------------------------------------------
    # Query surface
    # ------------------------------------------------------------------
    def top_k(self) -> DetectionResult:
        """The current answer, refreshing first if updates are pending.

        Pending updates include direct topology mutations on the live
        graph (detected by shape), not just events routed through the
        monitor's setters — a stale cached answer is never served.
        """
        graph = self._graph
        stale = (
            self._result is None
            or self.pending_updates
            or (graph.num_nodes, graph.num_edges) != self._shape
        )
        if stale:
            self.refresh()
        assert self._result is not None
        return self._result

    def bounds_topk(self) -> DetectionResult:
        """A *degraded*, bounds-only answer — cheap, current, read-only.

        Ranks every node by the Eq-(1) iterates alone
        (:func:`~repro.bounds.iterative.bounds_only_topk`): no candidate
        reduction, no sampling, no possible-world repair.  This is what
        the SLO-enforced front end serves when the caller's latency
        budget rules out a full refresh.

        Unlike :meth:`top_k`, this method **never mutates** the
        monitor's pipeline state: the incremental bound iterates, dirty
        bookkeeping, cached reduction and world state are all left
        exactly as they were, so the next :meth:`refresh` repairs the
        same frontier it would have without this call.  When the cached
        bound pair is warm (no pending updates, topology unchanged) it
        is reused; otherwise a throwaway :func:`bound_pair` is evaluated
        over the current graph — always-warm in the sense that its cost
        is ``O((n + m) · z)``, independent of the pending repair size.

        The answer is flagged ``degraded=True`` and is bounds-consistent
        by construction: every reported node's upper bound reaches
        ``details["threshold_lower"]`` (the k-th largest lower bound).
        Repeated calls between mutations hit a one-slot cache.
        """
        graph = self._graph
        shape = (graph.num_nodes, graph.num_edges)
        key = (self._mutations, shape)
        cached = self._bounds_only_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        started = time.perf_counter()
        warm = (
            self._bounds is not None
            and not self._dirty_node_old
            and not self._dirty_edge_old
            and shape == self._shape
        )
        if warm:
            lower, upper = self._bounds.pair()
        else:
            lower, upper = bound_pair(
                graph, self._lower_order, self._upper_order
            )
        top, threshold = bounds_only_topk(lower, upper, self._k)
        nodes = [graph.label(int(index)) for index in top]
        scores = {
            label: float(lower[index]) for label, index in zip(nodes, top)
        }
        # Certified partial answer: a reported node whose floor beats
        # every possible k-th competitor is an exact winner even while
        # the sampling pipeline is degraded/mid-repair.
        certified = certified_topk_mask(lower, upper, self._k)
        result = DetectionResult(
            method="BOUNDS",
            k=self._k,
            nodes=nodes,
            scores=scores,
            samples_used=0,
            candidate_size=graph.num_nodes,
            k_verified=0,
            elapsed_seconds=time.perf_counter() - started,
            details={
                "lower_order": self._lower_order,
                "upper_order": self._upper_order,
                "threshold_lower": float(threshold),
                "bounds_lower": [float(lower[index]) for index in top],
                "bounds_upper": [float(upper[index]) for index in top],
                "bounds_reused": warm,
                "bounds_only": True,
                "certified": [bool(certified[index]) for index in top],
                "certified_count": int(np.count_nonzero(certified[top])),
            },
            degraded=True,
        )
        self._bounds_only_cache = (key, result)
        return result

    def world_view(self) -> WorldView:
        """A read-only :class:`WorldView` over the repaired worlds.

        Refreshes first when updates are pending (the dirty-propagation
        contract: a view is never handed out over stale worlds), then
        returns a view realising exactly the world indices the monitor
        currently keeps repaired, under the sampler's own stream key —
        so ``view.defaulted()[:, candidates]`` is bit-identical to the
        cached outcome matrix, and every registered query family
        integrates over the *same* worlds the top-k answer does.

        When the sampling stage holds no worlds — Algorithm 4 verified all
        ``k`` nodes (``k' = k``), so nothing was sampled — the view falls
        back to worlds ``0 .. FALLBACK_VIEW_WORLDS-1`` under a key
        derived from the monitor's seed: still deterministic, still
        repairable on the next call.

        Views are cached per mutation-state: repeated calls between
        accepted updates return the same object (and therefore share
        every derived per-world product); any accepted probability
        change or topology change retires the view wholesale.
        """
        self._ensure_query_engine()
        return self._query_engine.view

    def query(self, family: str, **params):
        """Run a registered query family over the repaired worlds.

        Dispatches through :mod:`repro.queries`: ``family`` names a
        registered :class:`~repro.queries.base.WorldQuery` (``"topk"``,
        ``"kcore"``, ``"reliability"``, ``"skyline"``, …) and *params*
        are its keyword parameters.  Results are memoised per
        ``(family, params)`` until the next accepted update, and all
        families share one :meth:`world_view` — one set of realised
        worlds, one propagation fixpoint, one component labelling,
        amortised across everything asked of this monitor.

        Returns a :class:`~repro.queries.base.QueryResult`.
        """
        self._ensure_query_engine()
        return self._query_engine.run(family, **params)

    def _ensure_query_engine(self) -> None:
        """(Re)build the memoising engine when the worlds moved."""
        graph = self._graph
        stale = (
            self._result is None
            or self.pending_updates
            or (graph.num_nodes, graph.num_edges) != self._shape
        )
        if stale:
            self.refresh()
        key = (self._mutations, self._shape)
        if self._query_engine is not None and self._query_engine_key == key:
            return
        # Imported lazily: repro.queries depends on the sampling layer,
        # and the streaming layer must stay importable without it.
        from repro.queries import QueryEngine

        if (
            self._sampler is not None
            and self._world_ids is not None
            and self._world_ids.size
        ):
            view = WorldView(
                graph, self._world_ids, stream_key=self._sampler.stream_key
            )
        else:
            view = WorldView(
                graph,
                np.arange(FALLBACK_VIEW_WORLDS, dtype=np.int64),
                seed=self._seed,
            )
        self._query_engine = QueryEngine(view)
        self._query_engine_key = key

    def refresh(self) -> RefreshReport:
        """Fold all pending updates into the cached answer."""
        started = time.perf_counter()
        graph = self._graph
        shape = (graph.num_nodes, graph.num_edges)
        dirt = self._effective_dirt()
        nodes_idx, _, edges_idx, _, heads = dirt
        self.last_repaired_rows = np.empty(0, dtype=np.int64)
        if self._result is None:
            report = self._full_refresh(
                started, "initial", "first evaluation", dirt
            )
        elif shape != self._shape:
            report = None
            if self._topology_consistent():
                report = self._topology_refresh(started, dirt)
            if report is None:
                report = self._full_refresh(
                    started, "full", "graph topology changed", dirt
                )
        elif nodes_idx.size == 0 and edges_idx.size == 0:
            report = RefreshReport(
                mode="clean",
                reason="no pending probability changes",
                dirty_nodes=0,
                dirty_edges=0,
                bounds_recomputed=0,
                reduction_reused=True,
                sampling="reused",
                worlds_repaired=0,
                samples=self._samples,
                elapsed_seconds=time.perf_counter() - started,
            )
        else:
            limit = max(1, int(FULL_REBUILD_FRACTION * graph.num_nodes))
            if nodes_idx.size + heads.size > limit:
                report = self._full_refresh(
                    started, "full", "dirty region above threshold", dirt
                )
            else:
                assert self._bounds is not None
                delta = self._bounds.refresh(nodes_idx, heads, limit=limit)
                if delta is None:
                    report = self._full_refresh(
                        started, "full", "bound frontier above threshold", dirt
                    )
                else:
                    report = self._incremental_refresh(started, delta, dirt)
        self._dirty_node_old.clear()
        self._dirty_edge_old.clear()
        self._added_nodes.clear()
        self._added_edges.clear()
        self._shape = shape
        self._last_report = report
        self.stats["refreshes"] += 1
        mode_key = "full" if report.mode == "initial" else report.mode
        self.stats[mode_key] = self.stats.get(mode_key, 0) + 1
        return report

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _effective_dirt(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Pending entities whose probability actually differs now.

        Returns ``(node_idx, node_old, edge_idx, edge_old, head_idx)``;
        entities patched back to their pre-refresh value drop out.

        Entity arrays come back sorted by index, *not* in ingestion
        order: the dirty dicts are keyed by entity (first-old wins, last
        value is whatever the graph holds now), so any two event
        sequences that leave the same graph state — e.g. a coalesced
        last-write-wins batch vs. its serial original — must hand the
        refresh pipeline exactly the same arrays.
        """
        graph = self._graph
        node_idx = np.fromiter(
            self._dirty_node_old.keys(), dtype=np.int64,
            count=len(self._dirty_node_old),
        )
        node_old = np.fromiter(
            self._dirty_node_old.values(), dtype=np.float64,
            count=len(self._dirty_node_old),
        )
        edge_idx = np.fromiter(
            self._dirty_edge_old.keys(), dtype=np.int64,
            count=len(self._dirty_edge_old),
        )
        edge_old = np.fromiter(
            self._dirty_edge_old.values(), dtype=np.float64,
            count=len(self._dirty_edge_old),
        )
        if node_idx.size:
            order = np.argsort(node_idx)
            node_idx, node_old = node_idx[order], node_old[order]
        if edge_idx.size:
            order = np.argsort(edge_idx)
            edge_idx, edge_old = edge_idx[order], edge_old[order]
        # Tracked append-only growth keeps every pre-existing index
        # valid (append-stable numbering), so the dirty entities filter
        # exactly as on a static graph.  Untracked topology change is
        # opaque; the full fallback ignores dirt entirely, so the stale
        # indices are never dereferenced.
        if (graph.num_nodes, graph.num_edges) != self._shape:
            if not self._topology_consistent():
                return node_idx, node_old, edge_idx, edge_old, edge_idx[:0]
        if node_idx.size:
            keep = graph.self_risk_array[node_idx] != node_old
            node_idx, node_old = node_idx[keep], node_old[keep]
        heads = edge_idx[:0]
        if edge_idx.size:
            _, dst, probs = graph.edge_array
            keep = probs[edge_idx] != edge_old
            edge_idx, edge_old = edge_idx[keep], edge_old[keep]
            heads = np.unique(dst[edge_idx])
        return node_idx, node_old, edge_idx, edge_old, heads

    def _topology_consistent(self) -> bool:
        """Whether the live shape is exactly the tracked append set."""
        n, m = self._shape
        return (
            self._graph.num_nodes == n + len(self._added_nodes)
            and self._graph.num_edges == m + len(self._added_edges)
        )

    def _topology_refresh(self, started: float, dirt) -> RefreshReport | None:
        """Fold tracked append-only growth in without a full rebuild.

        Returns ``None`` to fall back to the full path (dirty region or
        bound frontier above threshold).  Stage by stage:

        * **Bounds** extend with NaN placeholders for the new nodes and
          refresh with the attachment boundary — new nodes plus every
          new edge's head — unioned into the probability dirt as the
          seed (:meth:`IncrementalBoundPair.extend_topology`).
        * **Reduction** always re-runs: the bound delta's old-value
          telemetry is NaN for new nodes, so the Tl-crossing shortcut
          has nothing sound to compare against; Algorithm 4 itself is
          O(n) and cheap next to sampling.
        * **Sampling** re-explores exactly the worlds whose expanded set
          contains a new edge's head, plus the usual probability-crossing
          rows (see :meth:`_sampling_stage`).
        """
        graph = self._graph
        nodes_idx, _, _, _, heads = dirt
        assert self._bounds is not None
        new_nodes = np.asarray(sorted(self._added_nodes), dtype=np.int64)
        new_edges = np.asarray(sorted(self._added_edges), dtype=np.int64)
        _, dst, _ = graph.edge_array
        limit = max(1, int(FULL_REBUILD_FRACTION * graph.num_nodes))
        bound_nodes = np.union1d(nodes_idx, new_nodes)
        bound_heads = np.union1d(heads, dst[new_edges])
        if bound_nodes.size + bound_heads.size > limit:
            return None
        delta = self._bounds.extend_topology(
            bound_nodes, bound_heads, limit=limit
        )
        if delta is None:
            return None
        lower, upper = self._bounds.pair()
        reduction = reduce_candidates(graph, lower, upper, self._k)
        sampling, worlds = self._sampling_stage(reduction, dirt, new_edges)
        self.stats["topology"] += 1
        return self._finish(
            started,
            reduction,
            dirt,
            mode="incremental",
            reason="incremental topology ingestion",
            bounds_recomputed=delta.nodes_recomputed,
            reduction_reused=False,
            sampling=sampling,
            worlds_repaired=worlds,
        )

    def _full_refresh(
        self, started: float, mode: str, reason: str, dirt
    ) -> RefreshReport:
        """Recompute every stage — the same pipeline as fresh detection."""
        graph = self._graph
        self._bounds = IncrementalBoundPair(
            graph, self._lower_order, self._upper_order
        )
        lower, upper = self._bounds.pair()
        reduction = reduce_candidates(graph, lower, upper, self._k)
        if reduction.k_remaining > 0:
            self._resample(reduction, self._budget(reduction))
        else:
            self._clear_sampling_state()
        worlds = (
            self._processed if self._algorithm == "bsrbk" else self._samples
        )
        self.stats["worlds_resampled"] += worlds
        return self._finish(
            started,
            reduction,
            dirt,
            mode=mode,
            reason=reason,
            bounds_recomputed=graph.num_nodes
            * (self._lower_order + self._upper_order),
            reduction_reused=False,
            sampling="resampled" if worlds else "skipped",
            worlds_repaired=worlds,
        )

    def _incremental_refresh(
        self, started: float, delta: BoundDelta, dirt
    ) -> RefreshReport:
        """The dirty-frontier path: provable reuse stage by stage."""
        assert self._bounds is not None and self._reduction is not None
        # Stage 2: Algorithm 4 is untouched unless a changed bound value
        # reaches Tl — below Tl both thresholds and both membership rules
        # are provably inert.
        crossed = (
            delta.max_changed_value >= self._reduction.threshold_lower
        )
        reduction = self._reduction
        if crossed:
            lower, upper = self._bounds.pair()
            reduction = reduce_candidates(self._graph, lower, upper, self._k)
        sampling, worlds = self._sampling_stage(reduction, dirt)
        return self._finish(
            started,
            reduction,
            dirt,
            mode="incremental",
            reason="dirty-frontier refresh",
            bounds_recomputed=delta.nodes_recomputed,
            reduction_reused=not crossed,
            sampling=sampling,
            worlds_repaired=worlds,
        )

    def _finish(
        self, started: float, reduction: CandidateReduction, dirt, **fields
    ) -> RefreshReport:
        """Install *reduction*, assemble the answer, and report."""
        self._reduction = reduction
        self._assemble(started)
        nodes_idx, _, edges_idx, _, _ = dirt
        return RefreshReport(
            dirty_nodes=int(nodes_idx.size),
            dirty_edges=int(edges_idx.size),
            samples=self._samples,
            elapsed_seconds=time.perf_counter() - started,
            **fields,
        )

    def _budget(self, reduction: CandidateReduction) -> int:
        """Theorem 5's sample budget for *reduction*."""
        return reduced_sample_size(
            reduction.candidate_size,
            self._k,
            reduction.k_verified,
            self._epsilon,
            self._delta,
        )

    # ------------------------------------------------------------------
    # Sampling stage: repair → column → resample → BSRBK rescan
    # ------------------------------------------------------------------
    def _sampling_stage(
        self,
        reduction: CandidateReduction,
        dirt,
        new_edges: np.ndarray | None = None,
    ) -> tuple[str, int]:
        """Bring the cached worlds up to date with *reduction*.

        Shared by the probability and topology paths (*new_edges* holds
        the appended edge ids on the latter).  Cached worlds are reused
        when the candidate set and budget are unchanged or only grew
        (:meth:`_can_column`): rows a dirty entity can flip are repaired,
        added candidates columned in, and BSRBK's stopping scan re-run.
        Anything else resamples.  Growth additionally needs touched
        state, which is what tells which cached worlds expanded a new
        edge's head.  Returns ``(sampling mode, worlds repaired)``.
        """
        nodes_idx, nodes_old, edges_idx, edges_old, _ = dirt
        if reduction.k_remaining == 0:
            self._clear_sampling_state()
            return "skipped", 0
        samples = self._budget(reduction)
        inputs_unchanged = (
            self._sampling_candidates is not None
            and samples == self._samples
            and np.array_equal(reduction.candidates, self._sampling_candidates)
        )
        reusable = inputs_unchanged or self._can_column(reduction, samples)
        if new_edges is not None:
            reusable = (
                reusable
                and self._world_state is not None
                and self._within_budget(self._samples)
            )
        if not reusable:
            self._resample(reduction, samples)
            worlds = self._processed if self._algorithm == "bsrbk" else samples
            self.stats["worlds_resampled"] += worlds
            return "resampled", worlds
        if new_edges is not None:
            self._ingest_growth()
        # Invalidation runs against the pre-change world rows; rows the
        # columning step appends are explored against the already-patched
        # graph and need no repair.
        affected = self._affected_rows(
            nodes_idx, nodes_old, edges_idx, edges_old
        )
        if new_edges is not None and new_edges.size:
            _, dst, _ = self._graph.edge_array
            hit_rows, _ = self._world_state.edge_pairs(
                new_edges, dst[new_edges]
            )
            affected = np.union1d(affected, hit_rows).astype(np.int64)
        sampling, worlds = "reused", 0
        if not inputs_unchanged:
            appended = self._column_repair(reduction, samples)
            affected = affected[affected < self._samples]
            sampling, worlds = "columned", int(affected.size) + appended
            self.stats["worlds_columned"] += appended
        elif affected.size:
            sampling, worlds = "repaired", int(affected.size)
        if affected.size:
            self._repair_rows(affected)
            self.stats["worlds_repaired"] += int(affected.size)
        if self._algorithm == "bsrbk":
            # The stopping rule also depends on k_remaining, which can
            # move (k_verified drift) while the candidate set and
            # Theorem-5 budget stay equal — the scan must always run
            # against the fresh value.
            stop_changed = int(reduction.k_remaining) != self._stop_after
            self._stop_after = int(reduction.k_remaining)
            if affected.size or stop_changed:
                # A later stopping point can pull new worlds into the
                # evaluated prefix; they are work done this refresh, so
                # they count as repaired.
                extended = self._bk_extend_and_scan()
                worlds += extended
                self.stats["worlds_repaired"] += extended
                if extended and sampling == "reused":
                    sampling = "repaired"
        self.last_repaired_rows = affected
        return sampling, worlds

    def _ingest_growth(self) -> None:
        """Extend the touched state and the sampler over appended entities.

        Old bits are preserved and new entities' columns start clear, so
        the invalidation queries that follow read exactly the pre-growth
        masks.  The rebuilt sampler keeps the stream key, and counter
        lanes make it draw-compatible with every cached world.
        """
        graph = self._graph
        self._world_state.extend(
            graph.num_nodes,
            graph.num_edges,
            in_degrees=np.diff(graph.in_csr().indptr),
        )
        self._sampler = self._make_sampler(self._sampling_candidates)

    def _affected_rows(
        self,
        nodes_idx: np.ndarray,
        nodes_old: np.ndarray,
        edges_idx: np.ndarray,
        edges_old: np.ndarray,
    ) -> np.ndarray:
        """Row positions whose cached outcome a dirty entity can change.

        World ``w`` is invalidated by entity ``x`` only if ``x``'s fixed
        uniform in ``w`` crosses the old→new probability (its realisation
        flips) — expected fraction ``|Δp|`` of worlds — and, when touched
        state is kept, only if ``w`` actually drew ``x``.  All candidate
        ``(world, entity)`` pairs are hashed in bulk: one tile per chunk
        without touched state, the pairs a column bit-scan of the packed
        masks finds with it.
        """
        assert self._sampler is not None and self._world_ids is not None
        graph = self._graph
        rows = self._world_ids.size
        key = self._sampler.stream_key
        node_bases, edge_bases = counter_lanes(self._world_ids)
        state = self._world_state
        affected = np.zeros(rows, dtype=bool)
        # edge_array copies all three m-length columns per access; pull
        # them once for the whole invalidation scan.
        if edges_idx.size:
            _, edge_heads, edge_probs = graph.edge_array
        else:
            edge_heads = edge_probs = None

        def crossing_pairs(entities, lows, highs, bases, is_edge):
            counters = entities.astype(_U64)
            if state is None:
                # No touched state: test every (world, entity) pair,
                # tiled so one numpy call hashes a whole chunk.
                per_chunk = max(1, _TILE_CHUNK // max(entities.size, 1))
                for start in range(0, rows, per_chunk):
                    stop = min(start + per_chunk, rows)
                    tile = hashed_uniform_tile(
                        key, bases[start:stop], counters
                    )
                    hit = (tile > lows[None, :]) & (tile <= highs[None, :])
                    affected[start:stop] |= hit.any(axis=1)
                return
            if is_edge:
                pair_rows, positions = state.edge_pairs(
                    entities, edge_heads[entities]
                )
            else:
                pair_rows, positions = state.node_pairs(entities)
            if pair_rows.size == 0:
                return
            draws = hashed_uniforms(
                key, bases[pair_rows] + counters[positions]
            )
            crossed = (draws > lows[positions]) & (draws <= highs[positions])
            affected[pair_rows[crossed]] = True

        if nodes_idx.size:
            new_risks = graph.self_risk_array[nodes_idx]
            lows = np.minimum(nodes_old, new_risks)
            highs = np.maximum(nodes_old, new_risks)
            crossing_pairs(nodes_idx, lows, highs, node_bases, is_edge=False)
        if edges_idx.size:
            new_probs = edge_probs[edges_idx]
            lows = np.minimum(edges_old, new_probs)
            highs = np.maximum(edges_old, new_probs)
            crossing_pairs(edges_idx, lows, highs, edge_bases, is_edge=True)
        return np.flatnonzero(affected)

    def _make_sampler(self, candidates: np.ndarray) -> IndexedReverseSampler:
        """The monitor's canonical sampler: every rebuild threads the same
        seed, so its worlds stay draw-compatible with the cached ones."""
        return IndexedReverseSampler(self._graph, candidates, seed=self._seed)

    def _store_worlds(self, rows: np.ndarray) -> None:
        """Explore the cached worlds at *rows* and store their outcomes,
        draw counts and touched state in place."""
        state = self._world_state
        for positions, block in self._sampler.iter_world_blocks(
            self._world_ids[rows], collect_touched=state is not None
        ):
            target = rows[positions]
            self._world_outcomes[target] = block.outcomes
            self._world_node_draws[target] = block.node_draws
            self._world_edge_draws[target] = block.edge_draws
            if state is not None:
                state.store_block(target, block)

    def _repair_rows(self, rows: np.ndarray) -> None:
        """Re-explore only the invalidated world rows and splice them in.

        Running totals (candidate counts, work counters) move by the
        repaired rows' delta — all integer arithmetic, so the state is
        exactly what a full re-summation would produce, at O(repaired)
        instead of O(samples) cost.
        """

        def totals():
            return (
                self._world_outcomes[rows].sum(axis=0),
                int(self._world_node_draws[rows].sum()),
                int(self._world_edge_draws[rows].sum()),
            )

        old_counts, old_nodes, old_edges = totals()
        self._store_worlds(rows)
        new_counts, new_nodes, new_edges = totals()
        self._nodes_touched += new_nodes - old_nodes
        self._edges_touched += new_edges - old_edges
        if self._counts is not None:  # BSRBK rescans instead
            self._counts += new_counts - old_counts
            self._probs = self._counts / float(self._samples)

    def _within_budget(self, samples: int) -> bool:
        """Whether touched state for *samples* worlds fits the budget."""
        graph = self._graph
        needed = PackedWorldState.bytes_needed(
            samples, graph.num_nodes, graph.num_edges
        )
        return needed <= WORLD_STATE_BUDGET

    def _can_column(
        self, reduction: CandidateReduction, samples: int
    ) -> bool:
        """Whether a candidate/budget change is absorbable incrementally.

        Requires the BSR pipeline with touched state (the popcount
        bookkeeping is what keeps the union draw counters exact),
        candidates that only *grew* (a removed candidate shrinks every
        world's closure in ways only a re-exploration can reproduce),
        and the resized state still within budget.  BSRBK's budget
        defines the hash order itself, so any change there resamples.
        """
        if (
            self._algorithm != "bsr"
            or self._world_state is None
            or self._sampling_candidates is None
        ):
            return False
        if not np.isin(
            self._sampling_candidates, reduction.candidates
        ).all():
            return False
        return self._within_budget(samples)

    def _column_repair(
        self, reduction: CandidateReduction, samples: int
    ) -> int:
        """Absorb a candidate/budget change without resampling.

        Three exact moves, in order: truncate or grow the world prefix
        (indexed worlds are order-independent, so the first ``samples``
        worlds of a fresh run are exactly worlds ``0..samples-1``);
        explore only the *added* candidates over the kept worlds and OR
        their closures into the touched state (closures of a candidate
        union are unions of closures, so the merged masks — and the
        popcount/in-degree draw-count deltas — equal a from-scratch
        union run's); explore appended worlds with the full new set.
        Returns the number of appended worlds.
        """
        assert self._world_state is not None
        state = self._world_state
        old_candidates = self._sampling_candidates
        new_candidates = reduction.candidates
        old_samples = self._samples
        keep = min(old_samples, samples)
        # 1. Truncate surplus worlds (recompute totals from survivors).
        if samples < old_samples:
            self._world_outcomes = self._world_outcomes[:samples].copy()
            self._world_node_draws = self._world_node_draws[:samples].copy()
            self._world_edge_draws = self._world_edge_draws[:samples].copy()
            state.resize(samples)
        # 2. Column added candidates into the kept worlds.
        added = np.setdiff1d(new_candidates, old_candidates)
        outcomes = np.zeros(
            (samples, new_candidates.size), dtype=bool
        )
        old_positions = np.searchsorted(new_candidates, old_candidates)
        outcomes[:keep, old_positions] = self._world_outcomes[:keep]
        if samples > old_samples:
            self._world_node_draws = _grow_rows(
                self._world_node_draws, samples
            )
            self._world_edge_draws = _grow_rows(
                self._world_edge_draws, samples
            )
            state.resize(samples)
        self._world_outcomes = outcomes
        if added.size:
            added_positions = np.searchsorted(new_candidates, added)
            added_sampler = self._make_sampler(added)
            for positions, block in added_sampler.iter_world_blocks(
                np.arange(keep, dtype=np.int64), collect_touched=True
            ):
                outcomes[np.ix_(positions, added_positions)] = block.outcomes
                node_delta, edge_delta = state.merge_block(positions, block)
                self._world_node_draws[positions] += node_delta
                self._world_edge_draws[positions] += edge_delta
        # 3. The monitor's sampler now serves the new candidate set.
        self._sampler = self._make_sampler(new_candidates)
        self._world_ids = np.arange(samples, dtype=np.int64)
        appended = samples - keep
        if appended > 0:
            self._store_worlds(np.arange(keep, samples, dtype=np.int64))
        self._counts = outcomes.sum(axis=0)
        self._probs = self._counts / float(samples)
        self._nodes_touched = int(self._world_node_draws.sum())
        self._edges_touched = int(self._world_edge_draws.sum())
        self._samples = int(samples)
        self._sampling_candidates = new_candidates.copy()
        return appended

    # ------------------------------------------------------------------
    # (Re)sampling
    # ------------------------------------------------------------------
    def _tracked_state(
        self, samples: int, rows: int | None = None
    ) -> PackedWorldState | None:
        """Fresh touched-entity state, or ``None`` when over budget.

        The budget is judged against *samples* worlds (the most the run
        can ever hold); *rows* lets BSRBK start with an empty state that
        grows with the evaluated prefix.
        """
        if not self._within_budget(samples):
            return None
        graph = self._graph
        return PackedWorldState(
            samples if rows is None else rows,
            graph.num_nodes,
            graph.num_edges,
            in_degrees=np.diff(graph.in_csr().indptr),
        )

    def _resample(self, reduction: CandidateReduction, samples: int) -> None:
        """Estimate the whole candidate set afresh (as fresh detection)."""
        self._sampler = self._make_sampler(reduction.candidates)
        self._samples = int(samples)
        self._sampling_candidates = reduction.candidates.copy()
        self._stop_after = int(reduction.k_remaining)
        width = reduction.candidates.size
        if self._algorithm == "bsrbk":
            # Hash-order the budgeted worlds and evaluate until the
            # stopping rule fires; everything evaluated stays cached for
            # later repair.
            hashes = self._sampler.world_hashes(
                np.arange(samples, dtype=np.int64)
            )
            order = np.argsort(hashes, kind="stable")
            self._bk_order = order
            self._bk_hashes = hashes[order]
            self._world_ids = order[:0]
            self._world_outcomes = np.zeros((0, width), dtype=bool)
            self._world_node_draws = np.zeros(0, dtype=np.int64)
            self._world_edge_draws = np.zeros(0, dtype=np.int64)
            self._world_state = self._tracked_state(samples, rows=0)
            self._bk_extend_and_scan()
            return
        self._world_ids = np.arange(samples, dtype=np.int64)
        self._world_outcomes = np.zeros((samples, width), dtype=bool)
        self._world_node_draws = np.zeros(samples, dtype=np.int64)
        self._world_edge_draws = np.zeros(samples, dtype=np.int64)
        self._world_state = self._tracked_state(samples)
        self._store_worlds(self._world_ids)
        self._counts = self._world_outcomes.sum(axis=0)
        self._probs = self._counts / float(samples)
        self._nodes_touched = int(self._world_node_draws.sum())
        self._edges_touched = int(self._world_edge_draws.sum())
        self._bk_order = self._bk_hashes = None
        self._processed = 0

    def _bk_extend_and_scan(self) -> int:
        """Evaluate hash-ordered worlds until the bottom-k rule stops.

        Re-runs the pure stopping scan over the evaluated prefix after
        every extension; because a longer prefix only appends later
        finishes, the stopping point is independent of the chunk
        schedule — the property that makes the monitor's incremental
        result bit-identical to a fresh run's.  Returns how many worlds
        the evaluated prefix grew by (work telemetry).
        """
        assert self._sampler is not None and self._bk_order is not None
        budget = self._samples
        initial = evaluated = self._world_ids.size
        chunk = max(64, self._sampler.world_batch, evaluated)
        scan = None
        while True:
            if evaluated:
                scan = bottom_k_scan(
                    self._world_outcomes,
                    self._bk_hashes[:evaluated],
                    self._bk,
                    self._stop_after,
                    budget,
                )
                if scan.stopped_early or evaluated >= budget:
                    break
            grown = evaluated + min(chunk, budget - evaluated)
            chunk *= 2
            self._world_outcomes = _grow_rows(self._world_outcomes, grown)
            self._world_node_draws = _grow_rows(self._world_node_draws, grown)
            self._world_edge_draws = _grow_rows(self._world_edge_draws, grown)
            if self._world_state is not None:
                self._world_state.resize(grown)
            self._world_ids = self._bk_order[:grown]
            self._store_worlds(np.arange(evaluated, grown, dtype=np.int64))
            evaluated = grown
        self._processed = scan.processed
        self._stopped_early = scan.stopped_early
        self._probs = np.clip(scan.estimates, 0.0, 1.0)
        self._counts = None
        self._nodes_touched = int(
            self._world_node_draws[: scan.processed].sum()
        )
        self._edges_touched = int(
            self._world_edge_draws[: scan.processed].sum()
        )
        return evaluated - initial

    def _clear_sampling_state(self) -> None:
        self._samples = 0
        self._probs = None
        self._sampling_candidates = None
        self._nodes_touched = 0
        self._edges_touched = 0
        self._sampler = None
        self._counts = None
        self._world_outcomes = None
        self._world_node_draws = self._world_edge_draws = None
        self._world_state = None
        self._world_ids = None
        self._bk_order = self._bk_hashes = None
        self._processed = 0
        self._stopped_early = False

    def _assemble(self, started: float) -> None:
        """Build the DetectionResult exactly as the fresh detector does."""
        assert self._bounds is not None and self._reduction is not None
        reduction = self._reduction
        nodes, scores = assemble_answer(
            self._graph, reduction, self._bounds.lower, self._probs, self._k
        )
        if self._algorithm == "bsrbk":
            samples_used = self._processed if self._probs is not None else 0
            details = {
                "bk": self._bk,
                "epsilon": self._epsilon,
                "delta": self._delta,
                "lower_order": self._lower_order,
                "upper_order": self._upper_order,
                "stopped_early": self._stopped_early
                if self._probs is not None
                else False,
                **reduction.summary(),
                "nodes_touched": self._nodes_touched,
                "edges_touched": self._edges_touched,
            }
            method = "BSRBK"
        else:
            samples_used = self._samples
            details = {
                "epsilon": self._epsilon,
                "delta": self._delta,
                "lower_order": self._lower_order,
                "upper_order": self._upper_order,
                **reduction.summary(),
                "nodes_touched": self._nodes_touched,
                "edges_touched": self._edges_touched,
            }
            method = "BSR"
        self._result = DetectionResult(
            method=method,
            k=self._k,
            nodes=nodes,
            scores=scores,
            samples_used=samples_used,
            candidate_size=reduction.candidate_size,
            k_verified=reduction.k_verified,
            elapsed_seconds=time.perf_counter() - started,
            details=details,
        )
