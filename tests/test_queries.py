"""Tests for the pluggable query-family layer (:mod:`repro.queries`).

The load-bearing properties, in dependency order:

* :class:`~repro.sampling.worldstate.WorldView` realises worlds
  **bit-identically** to the indexed sampler's own outcomes — the
  invariant that lets every family share the monitor's repaired worlds;
* the per-world kernels (component labels, k-core peeling) agree with
  independent brute-force implementations on every enumerated world,
  and with the retired dense-matrix kernels (``reference_kernels.py``)
  on generated graphs and masks;
* every family's sampled estimate is pinned to its exact oracle: equal
  on deterministic graphs (a single possible world), statistically
  close on small random graphs enumerated exhaustively;
* two monitors fed the same update stream answer every family in
  lockstep, and the incremental monitor's family answers equal a fresh
  monitor's on the patched graph — drift propagation is correct;
* :func:`~repro.bounds.iterative.certified_topk_mask` never certifies a
  node outside the exact top-k.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
import reference_kernels
from dense_skyline import dense_skyline_mask
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.bounds.iterative import bound_pair, certified_topk_mask
from repro.core.errors import QueryError, SamplingError
from repro.core.exact import exact_default_probabilities
from repro.core.graph import UncertainGraph
from repro.core.propagation import (
    propagate_defaults_block,
    surviving_edge_keys,
)
from repro.core.worlds import enumerate_world_blocks
from repro.queries import (
    QueryEngine,
    available_families,
    get_query_family,
    register_query_family,
)
from repro.queries.kernels import connected_component_labels, kcore_membership
from repro.queries.skyline import skyline_mask
from repro.sampling.worldstate import WorldView
from repro.streaming.events import (
    EdgeProbabilityUpdate,
    SelfRiskUpdate,
    apply_event,
)
from repro.streaming.monitor import TopKMonitor


def random_graph(
    n: int, edge_probability: float, seed: int, max_prob: float = 1.0
) -> UncertainGraph:
    """Erdős–Rényi-ish random uncertain graph (mirrors conftest's)."""
    rng = np.random.default_rng(seed)
    graph = UncertainGraph()
    for i in range(n):
        graph.add_node(i, float(rng.random() * max_prob))
    for src in range(n):
        for dst in range(n):
            if src != dst and rng.random() < edge_probability:
                graph.add_edge(src, dst, float(rng.random() * max_prob))
    return graph

ESTIMATE_WORLDS = 20_000
#: Absolute tolerance for 20k-world probability estimates: ~5 standard
#: errors of a Bernoulli mean at p=0.5, so statistical flakes are rare.
ESTIMATE_ATOL = 0.02


def sampled_view(graph: UncertainGraph, worlds: int = ESTIMATE_WORLDS,
                 seed: int = 0) -> WorldView:
    return WorldView(
        graph, np.arange(worlds, dtype=np.int64), seed=seed
    )


def deterministic_graph() -> UncertainGraph:
    """Probabilities only 0/1 — exactly one possible world."""
    graph = UncertainGraph()
    risks = [1.0, 0.0, 1.0, 0.0, 0.0]
    for i, risk in enumerate(risks):
        graph.add_node(i, risk)
    for src, dst, prob in [
        (0, 1, 1.0), (1, 2, 0.0), (2, 3, 1.0), (3, 4, 1.0), (0, 4, 0.0)
    ]:
        graph.add_edge(src, dst, prob)
    return graph


# ----------------------------------------------------------------------
# WorldView — the shared read-only world substrate
# ----------------------------------------------------------------------
class TestWorldView:
    def test_bit_identical_to_monitor_sampler(self, small_random_graph):
        """The whole design rests on this: a WorldView over the
        monitor's world ids + stream key realises exactly the worlds
        the indexed sampler repaired."""
        monitor = TopKMonitor(small_random_graph, 3, seed=11)
        monitor.top_k()
        view = monitor.world_view()
        candidates = monitor._sampling_candidates
        assert np.array_equal(
            view.defaulted()[:, candidates], monitor._world_outcomes
        )

    def test_deterministic_in_seed(self, small_random_graph):
        a = sampled_view(small_random_graph, 256, seed=5)
        b = sampled_view(small_random_graph, 256, seed=5)
        c = sampled_view(small_random_graph, 256, seed=6)
        assert np.array_equal(a.defaulted(), b.defaulted())
        assert not np.array_equal(a.self_default(), c.self_default())

    def test_marginals_converge_to_inputs(self, small_random_graph):
        view = sampled_view(small_random_graph)
        np.testing.assert_allclose(
            view.self_default().mean(axis=0),
            small_random_graph.self_risk_array,
            atol=ESTIMATE_ATOL,
        )
        np.testing.assert_allclose(
            view.edge_survives().mean(axis=0),
            small_random_graph.edge_array[2],
            atol=ESTIMATE_ATOL,
        )

    def test_contagion_excludes_self_defaults(self, small_random_graph):
        view = sampled_view(small_random_graph, 512)
        contagion = view.contagion()
        assert not np.any(contagion & view.self_default())
        assert np.all(view.defaulted() == (contagion | view.self_default()))

    def test_edge_keys_are_built_once_and_read_only(self, small_random_graph):
        view = sampled_view(small_random_graph, 64)
        src_keys, dst_keys = view.edge_keys()
        assert view.edge_keys()[0] is src_keys
        with pytest.raises(ValueError):
            src_keys[0] = 0
        rows, eids = np.nonzero(view.edge_survives())
        src, dst, _ = small_random_graph.edge_array
        n = small_random_graph.num_nodes
        assert np.array_equal(src_keys, rows * n + src[eids])
        assert np.array_equal(dst_keys, rows * n + dst[eids])

    def test_defaulted_equals_block_propagation(self, small_random_graph):
        view = sampled_view(small_random_graph, 256)
        expected = propagate_defaults_block(
            small_random_graph, view.self_default(), view.edge_survives()
        )
        assert np.array_equal(view.defaulted(), expected)

    def test_cached_memoises(self, small_random_graph):
        view = sampled_view(small_random_graph, 64)
        calls = []
        first = view.cached("probe", lambda: calls.append(1) or 42)
        second = view.cached("probe", lambda: calls.append(1) or 43)
        assert first == second == 42 and len(calls) == 1

    def test_validation(self, small_random_graph):
        with pytest.raises(SamplingError):
            WorldView(small_random_graph, np.array([], dtype=np.int64))
        with pytest.raises(SamplingError):
            WorldView(small_random_graph, np.array([-1]), seed=0)


# ----------------------------------------------------------------------
# Per-world kernels vs brute force
# ----------------------------------------------------------------------
def brute_components(n, src, dst, survives):
    labels = np.empty((survives.shape[0], n), dtype=np.int64)
    for w in range(survives.shape[0]):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for e in np.flatnonzero(survives[w]):
            a, b = find(int(src[e])), find(int(dst[e]))
            if a != b:
                parent[max(a, b)] = min(a, b)
        labels[w] = [find(v) for v in range(n)]
    return labels


def brute_kcore(n, src, dst, survives, k):
    alive = np.empty((survives.shape[0], n), dtype=bool)
    for w in range(survives.shape[0]):
        nodes = set(range(n))
        while True:
            degree = {v: 0 for v in nodes}
            for e in np.flatnonzero(survives[w]):
                a, b = int(src[e]), int(dst[e])
                if a in nodes and b in nodes:
                    degree[a] += 1
                    degree[b] += 1
            drop = {v for v in nodes if degree[v] < k}
            if not drop:
                break
            nodes -= drop
        alive[w] = [v in nodes for v in range(n)]
    return alive


def labels_of(n, src, dst, survives):
    keys = surviving_edge_keys(n, src, dst, survives)
    return connected_component_labels(survives.shape[0], n, keys)


def kcore_of(n, src, dst, survives, core_k, alive_init=None):
    keys = surviving_edge_keys(n, src, dst, survives)
    return kcore_membership(
        survives.shape[0], n, keys, core_k, alive_init=alive_init
    )


class TestKernels:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_component_labels_match_union_find(self, seed):
        graph = random_graph(8, 0.3, seed)
        src, dst = graph.edge_array[0], graph.edge_array[1]
        rng = np.random.default_rng(seed)
        survives = rng.random((32, graph.num_edges)) < 0.5
        labels = labels_of(graph.num_nodes, src, dst, survives)
        assert np.array_equal(
            labels, brute_components(graph.num_nodes, src, dst, survives)
        )

    @pytest.mark.parametrize("core_k", [1, 2, 3])
    def test_kcore_matches_iterative_peeling(self, core_k):
        graph = random_graph(8, 0.4, core_k)
        src, dst = graph.edge_array[0], graph.edge_array[1]
        rng = np.random.default_rng(core_k + 7)
        survives = rng.random((32, graph.num_edges)) < 0.6
        alive = kcore_of(graph.num_nodes, src, dst, survives, core_k)
        assert np.array_equal(
            alive, brute_kcore(graph.num_nodes, src, dst, survives, core_k)
        )

    @pytest.mark.parametrize("layout", ["fortran", "broadcast"])
    def test_kcore_seed_in_any_memory_layout(self, layout):
        """A seed that is not C-ordered is peeled all the same: an
        all-true seed in any memory layout gives the unseeded matrix."""
        rng = np.random.default_rng(3)
        src = rng.integers(0, 30, 60)
        dst = (src + rng.integers(1, 30, 60)) % 30
        survives = rng.random((8, 60)) < 0.6
        unseeded = kcore_of(30, src, dst, survives, 2)
        assert not unseeded.all()
        if layout == "fortran":
            seed = np.asfortranarray(np.ones((8, 30), dtype=bool))
        else:
            seed = np.broadcast_to(np.ones(30, dtype=bool), (8, 30))
        seeded = kcore_of(30, src, dst, survives, 2, alive_init=seed)
        assert np.array_equal(seeded, unseeded)

    def test_kcore_rejects_bad_order(self):
        keys = (np.array([1]), np.array([0]))
        with pytest.raises(QueryError):
            kcore_membership(1, 2, keys, 0)

    def test_kernels_reject_misaligned_keys(self):
        keys = (np.array([1, 2]), np.array([0]))
        with pytest.raises(QueryError):
            connected_component_labels(1, 3, keys)
        with pytest.raises(QueryError):
            kcore_membership(1, 3, keys, 1)
        with pytest.raises(QueryError):
            kcore_membership(
                1, 3, (keys[0], keys[0]), 1,
                alive_init=np.ones((2, 3), dtype=bool),
            )


@st.composite
def world_blocks(draw, max_nodes: int = 12, max_worlds: int = 6):
    """``(n, src, dst, survives)``: 0-12 nodes, up to ``3n`` directed
    edges (self-loops and repeats allowed, which the kernels must count
    exactly as the oracles do), and 0-6 worlds of survival masks, some
    rows empty."""
    n = draw(st.integers(0, max_nodes))
    node = st.integers(0, max(n - 1, 0))
    edges = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    src = np.array([u for u, _ in edges], dtype=np.int64)
    dst = np.array([v for _, v in edges], dtype=np.int64)
    worlds = draw(st.integers(0, max_worlds))
    survives = draw(hnp.arrays(bool, (worlds, src.size)))
    return n, src, dst, survives


def descending_path(n: int, worlds: int) -> tuple:
    """A path whose node numbers fall along it, every edge surviving in
    every world but the last, which keeps none."""
    src = np.arange(n - 1, 0, -1, dtype=np.int64)
    dst = src - 1
    survives = np.ones((worlds, src.size), dtype=bool)
    survives[-1] = False
    return n, src, dst, survives


def star_with_largest_centre(n: int, worlds: int) -> tuple:
    """Every leaf points at the highest-numbered node, in leaf order."""
    src = np.arange(n - 1, dtype=np.int64)
    dst = np.full(n - 1, n - 1, dtype=np.int64)
    return n, src, dst, np.ones((worlds, n - 1), dtype=bool)


class TestKernelsAgainstOracles:
    """The flat-key kernels equal the retired dense-matrix kernels."""

    @staticmethod
    def _assert_labels_agree(n, src, dst, survives):
        expected = reference_kernels.connected_component_labels(
            n, src, dst, survives
        )
        assert np.array_equal(labels_of(n, src, dst, survives), expected)

    @staticmethod
    def _assert_kcore_agrees(n, src, dst, survives, core_k, seed=None):
        expected = reference_kernels.kcore_membership(
            n, src, dst, survives, core_k, alive_init=seed
        )
        got = kcore_of(n, src, dst, survives, core_k, alive_init=seed)
        assert np.array_equal(got, expected)

    @settings(max_examples=200)
    @given(world_blocks())
    def test_component_labels(self, block):
        self._assert_labels_agree(*block)

    @settings(max_examples=200)
    @given(world_blocks(), st.integers(1, 4))
    def test_kcore(self, block, core_k):
        self._assert_kcore_agrees(*block, core_k)

    @settings(max_examples=200)
    @given(
        world_blocks(),
        st.integers(1, 4),
        st.sampled_from(["C", "F", "broadcast"]),
        st.data(),
    )
    def test_seeded_kcore_in_every_layout(self, block, core_k, layout, data):
        n, src, dst, survives = block
        worlds = survives.shape[0]
        if layout == "broadcast":
            row = data.draw(hnp.arrays(bool, (n,)))
            seed = np.broadcast_to(row, (worlds, n))
        else:
            seed = data.draw(hnp.arrays(bool, (worlds, n)))
            seed = np.asarray(seed, order=layout)
        self._assert_kcore_agrees(n, src, dst, survives, core_k, seed)

    @pytest.mark.parametrize(
        "shape",
        [descending_path, star_with_largest_centre],
        ids=["descending-path", "star"],
    )
    @pytest.mark.parametrize("n", [2, 3, 64, 1000])
    def test_adversarial_numberings(self, shape, n):
        n, src, dst, survives = shape(n, 3)
        self._assert_labels_agree(n, src, dst, survives)
        labels = labels_of(n, src, dst, survives)
        assert (labels[0] == 0).all()
        for core_k in (1, 2):
            self._assert_kcore_agrees(n, src, dst, survives, core_k)

    @pytest.mark.parametrize("worlds,n", [(0, 5), (3, 0), (0, 0)])
    def test_empty_shapes(self, worlds, n):
        src = dst = np.empty(0, dtype=np.int64)
        survives = np.zeros((worlds, 0), dtype=bool)
        labels = labels_of(n, src, dst, survives)
        assert labels.shape == (worlds, n)
        assert labels.dtype == np.int64
        self._assert_labels_agree(n, src, dst, survives)
        assert kcore_of(n, src, dst, survives, 1).shape == (worlds, n)
        self._assert_kcore_agrees(n, src, dst, survives, 2)

    def test_worlds_without_surviving_edges(self):
        rng = np.random.default_rng(4)
        src = rng.integers(0, 9, 20)
        dst = (src + rng.integers(1, 9, 20)) % 9
        survives = rng.random((5, 20)) < 0.5
        survives[[1, 3]] = False
        labels = labels_of(9, src, dst, survives)
        assert np.array_equal(labels[[1, 3]], np.tile(np.arange(9), (2, 1)))
        self._assert_labels_agree(9, src, dst, survives)
        alive = kcore_of(9, src, dst, survives, 1)
        assert not alive[[1, 3]].any()
        self._assert_kcore_agrees(9, src, dst, survives, 1)


@st.composite
def tied_coordinates(draw) -> np.ndarray:
    """0-60 rows of 1-4 small-integer columns, some rows repeated."""
    dims = draw(st.integers(1, 4))
    row = st.lists(st.integers(0, 3), min_size=dims, max_size=dims)
    rows = draw(st.lists(row, max_size=40))
    if rows:
        picks = st.integers(0, len(rows) - 1)
        rows += [rows[i] for i in draw(st.lists(picks, max_size=20))]
    return np.array(rows, dtype=np.float64).reshape(len(rows), dims)


class TestSkylineKernel:
    """The sort-first skyline against the pairwise oracle."""

    @settings(max_examples=300)
    @given(tied_coordinates())
    def test_matches_the_oracle_on_tied_rows(self, coordinates):
        assert np.array_equal(
            skyline_mask(coordinates), dense_skyline_mask(coordinates)
        )

    @given(st.integers(0, 30), st.randoms(use_true_random=False))
    def test_keeps_every_point_of_a_plane(self, total, random):
        """On x + y + z = c no point dominates another."""
        points = [
            (x, y, total - x - y)
            for x in range(total + 1)
            for y in range(total + 1 - x)
        ]
        random.shuffle(points)
        coordinates = np.array(points, dtype=np.float64)
        mask = skyline_mask(coordinates)
        assert mask.all()
        assert np.array_equal(mask, dense_skyline_mask(coordinates))


# ----------------------------------------------------------------------
# Every family: estimate pinned to its exact oracle
# ----------------------------------------------------------------------
FAMILY_CASES = [
    ("topk", {"k": 3}),
    ("kcore", {"k": 2}),
    ("reliability", {"pairs": [[0, 4]], "cluster": [0, 1, 2]}),
    ("skyline", {}),
]


class TestFamilyOracleParity:
    @pytest.mark.parametrize("family,params", FAMILY_CASES)
    def test_estimate_tracks_exact(self, small_random_graph, family, params):
        query = get_query_family(family)
        exact = query.exact(small_random_graph, **params)
        estimate = query.estimate(
            sampled_view(small_random_graph), **params
        )
        assert exact.method == "exact" and estimate.method == "estimate"
        if family == "skyline":
            # The skyline is a *set*: with enough worlds the estimated
            # contagion column orders the same Pareto front.
            assert np.array_equal(exact.nodes, estimate.nodes)
        elif family == "reliability":
            np.testing.assert_allclose(
                estimate.values, exact.values, atol=ESTIMATE_ATOL
            )
        else:
            # Per-node probabilities pinned on the *exact* ranking's
            # nodes: look each up in a full estimated vector (top-k may
            # order near-ties differently; the probabilities must not).
            if family == "topk":
                full = query.estimate(
                    sampled_view(small_random_graph),
                    k=small_random_graph.num_nodes,
                )
            else:
                full = estimate  # kcore reports every node already
            lookup = dict(zip(full.nodes.tolist(), full.values.tolist()))
            for node, value in zip(
                exact.nodes.tolist(), exact.values.tolist()
            ):
                assert abs(lookup[node] - value) < ESTIMATE_ATOL

    @pytest.mark.parametrize("family,params", FAMILY_CASES)
    def test_exact_equality_on_deterministic_graph(self, family, params):
        """One possible world: sampling cannot disagree with the oracle."""
        graph = deterministic_graph()
        query = get_query_family(family)
        exact = query.exact(graph, **params)
        estimate = query.estimate(
            WorldView(graph, np.arange(16, dtype=np.int64), seed=9),
            **params,
        )
        assert np.array_equal(exact.nodes, estimate.nodes)
        np.testing.assert_allclose(estimate.values, exact.values, atol=0)

    def test_topk_exact_matches_exact_module(self, small_random_graph):
        exact = get_query_family("topk").exact(small_random_graph, k=3)
        probabilities = exact_default_probabilities(small_random_graph)
        order = np.lexsort(
            (np.arange(probabilities.size), -probabilities)
        )[:3]
        assert np.array_equal(exact.nodes, order)
        np.testing.assert_allclose(
            exact.values, probabilities[order], atol=1e-12
        )

    def test_reliability_cluster_prob_bounded_by_pairs(
        self, small_random_graph
    ):
        """Cluster connectivity can never beat any of its pair margins."""
        query = get_query_family("reliability")
        result = query.exact(
            small_random_graph, pairs=[[0, 1]], cluster=[0, 1, 2]
        )
        pair_prob = result.details["pairs"][0][2]
        cluster_prob = result.details["cluster"]["probability"]
        assert cluster_prob <= pair_prob + 1e-12

    def test_reliability_validation(self, small_random_graph):
        query = get_query_family("reliability")
        with pytest.raises(QueryError):
            query.exact(small_random_graph)  # neither pairs nor cluster
        with pytest.raises(QueryError):
            query.exact(small_random_graph, pairs=[[0, 99]])
        with pytest.raises(QueryError):
            query.exact(small_random_graph, cluster=[3])

    def test_skyline_contains_every_maximum(self, small_random_graph):
        """Any node maximising one dimension is never dominated."""
        result = get_query_family("skyline").exact(small_random_graph)
        coords = np.array(result.details["coordinates"])
        assert coords.shape[0] == result.nodes.size
        # The top self-risk node must be on the skyline.
        top_self = int(np.argmax(small_random_graph.self_risk_array))
        ties = np.flatnonzero(
            small_random_graph.self_risk_array
            == small_random_graph.self_risk_array[top_self]
        )
        assert any(node in result.nodes for node in ties)


# ----------------------------------------------------------------------
# Shared-world execution: engine memoisation + cross-family reuse
# ----------------------------------------------------------------------
class TestQueryEngine:
    def test_memoises_per_family_and_params(self, small_random_graph):
        engine = QueryEngine(sampled_view(small_random_graph, 256))
        first = engine.run("kcore", k=2)
        again = engine.run("kcore", k=2)
        other = engine.run("kcore", k=3)
        assert again is first and other is not first
        assert engine.hits == 1 and engine.misses == 2

    def test_families_share_one_propagation(self, small_random_graph):
        """topk and skyline both ride the view's single defaulted()
        fixpoint — the cache holds one entry, not one per family."""
        view = sampled_view(small_random_graph, 256)
        engine = QueryEngine(view)
        engine.run("topk", k=2)
        defaulted = view.cached(("defaulted",), lambda: None)
        engine.run("skyline")
        assert view.cached(("defaulted",), lambda: None) is defaulted

    def test_unknown_family_raises_with_listing(self, small_random_graph):
        engine = QueryEngine(sampled_view(small_random_graph, 16))
        with pytest.raises(QueryError, match="kcore"):
            engine.run("no-such-family")

    def test_registry_guards_duplicates(self):
        class Dummy:
            name = "topk"

            def estimate(self, view):  # pragma: no cover - never run
                raise NotImplementedError

            def exact(self, graph):  # pragma: no cover - never run
                raise NotImplementedError

        with pytest.raises(QueryError):
            register_query_family(Dummy())
        # replace=True restores the real implementation at import time,
        # so re-registering the canonical instance is idempotent.
        from repro.queries.topk import TopKQuery

        register_query_family(TopKQuery(), replace=True)
        assert set(available_families()) >= {
            "topk", "kcore", "reliability", "skyline"
        }

    def test_result_is_json_serialisable(self, small_random_graph):
        engine = QueryEngine(sampled_view(small_random_graph, 128))
        for family, params in FAMILY_CASES:
            payload = engine.run(family, **params).to_dict()
            decoded = json.loads(json.dumps(payload))
            assert decoded["family"] == family


# ----------------------------------------------------------------------
# Monitor integration: dirty propagation + lockstep drift
# ----------------------------------------------------------------------
class TestMonitorQueries:
    def test_lockstep_under_identical_streams(self, small_random_graph):
        a = TopKMonitor(small_random_graph.copy(), 3, seed=21)
        b = TopKMonitor(small_random_graph.copy(), 3, seed=21)
        events = [
            SelfRiskUpdate(label=2, value=0.7),
            EdgeProbabilityUpdate(src=0, dst=1, value=0.9),
            SelfRiskUpdate(label=5, value=0.05),
        ]
        for event in events:
            a.apply([event])
            b.apply([event])
            for family, params in FAMILY_CASES:
                left = a.query(family, **params)
                right = b.query(family, **params)
                assert left.same_answer(right), (family, event)

    def test_incremental_matches_fresh_monitor(self, small_random_graph):
        """Drift propagation: after updates, the incremental monitor's
        family answers equal a fresh monitor's over the patched graph
        (same seed ⇒ same worlds ⇒ bit-identical estimates)."""
        incremental = TopKMonitor(small_random_graph.copy(), 3, seed=33)
        incremental.top_k()  # build the indexed state pre-update
        patched = small_random_graph.copy()
        events = [
            SelfRiskUpdate(label=1, value=0.8),
            EdgeProbabilityUpdate(src=2, dst=3, value=0.15),
        ]
        for event in events:
            incremental.apply([event])
            apply_event(patched, event)
        fresh = TopKMonitor(patched, 3, seed=33)
        for family, params in FAMILY_CASES:
            left = incremental.query(family, **params)
            right = fresh.query(family, **params)
            assert left.same_answer(right), family

    def test_queries_reuse_one_engine_until_mutation(
        self, small_random_graph
    ):
        monitor = TopKMonitor(small_random_graph, 3, seed=4)
        monitor.query("topk", k=3)
        engine = monitor._query_engine
        monitor.query("skyline")
        assert monitor._query_engine is engine  # shared worlds reused
        monitor.apply([SelfRiskUpdate(label=0, value=0.9)])
        monitor.query("topk", k=3)
        assert monitor._query_engine is not engine  # retired on dirt

    def test_world_view_matches_estimator_probabilities(
        self, small_random_graph
    ):
        """The family layer's probabilities agree with the monitor's
        own sampled estimates on the candidate set (same worlds)."""
        monitor = TopKMonitor(small_random_graph, 3, seed=12)
        monitor.top_k()
        view = monitor.world_view()
        candidates = monitor._sampling_candidates
        expected = monitor._world_outcomes.mean(axis=0)
        actual = view.defaulted()[:, candidates].mean(axis=0)
        np.testing.assert_allclose(actual, expected, atol=0)


# ----------------------------------------------------------------------
# Certified partial answers on the bounds path
# ----------------------------------------------------------------------
class TestCertifiedMask:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_certified_nodes_are_truly_topk(self, seed, k):
        graph = random_graph(7, 0.3, seed, max_prob=0.7)
        exact = exact_default_probabilities(graph)
        lower, upper = bound_pair(graph)
        certified = certified_topk_mask(lower, upper, k)
        for node in np.flatnonzero(certified):
            better = int(np.sum(exact >= exact[node])) - 1
            assert better < k, (
                f"node {node} certified but {better} nodes reach its "
                f"exact probability"
            )

    def test_synthetic_soundness(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            truth = rng.random(20)
            lower = np.maximum(0.0, truth - rng.random(20) * 0.3)
            upper = np.minimum(1.0, truth + rng.random(20) * 0.3)
            k = int(rng.integers(1, 20))
            certified = certified_topk_mask(lower, upper, k)
            threshold = np.sort(truth)[-k]
            for node in np.flatnonzero(certified):
                assert int(np.sum(truth >= truth[node])) <= k

    def test_tight_bounds_certify_everything(self):
        exact = np.array([0.9, 0.5, 0.3, 0.1])
        certified = certified_topk_mask(exact, exact, 2)
        assert certified.tolist() == [True, True, False, False]

    def test_loose_bounds_certify_nothing(self):
        n = 6
        certified = certified_topk_mask(
            np.zeros(n), np.ones(n), 3
        )
        assert not certified.any()

    def test_monitor_bounds_topk_reports_certificates(
        self, small_random_graph
    ):
        monitor = TopKMonitor(small_random_graph, 3, seed=8)
        result = monitor.bounds_topk()
        certified = result.details["certified"]
        assert len(certified) == 3
        assert result.details["certified_count"] == sum(certified)
        lower, upper = bound_pair(small_random_graph)
        mask = certified_topk_mask(lower, upper, 3)
        exact = exact_default_probabilities(small_random_graph)
        for node, flag in zip(result.nodes, certified):
            index = small_random_graph.index(node)
            assert flag == bool(mask[index])
            if flag:  # a certified node really is in the exact top-3
                assert int(np.sum(exact >= exact[index])) <= 3

    def test_validation_mirrors_bounds_only_topk(self):
        with pytest.raises(SamplingError):
            certified_topk_mask(np.zeros(3), np.ones(3), 0)
        with pytest.raises(SamplingError):
            certified_topk_mask(np.zeros(3), np.ones(4), 1)


# ----------------------------------------------------------------------
# Shared worlds beat per-query resampling (the amortisation claim)
# ----------------------------------------------------------------------
def test_shared_view_realises_worlds_once(small_random_graph):
    """Eight queries on one engine touch the PRF lattice once; the same
    eight on fresh views pay it eight times — counted, not timed, so
    the assertion is exact and machine-independent."""
    realisations = []
    original = WorldView._realise

    def counting_realise(self):
        realisations.append(id(self))
        return original(self)

    WorldView._realise = counting_realise
    try:
        shared = QueryEngine(sampled_view(small_random_graph, 2048))
        for family, params in FAMILY_CASES * 2:
            shared.run(family, **params)
        shared_cost = len(set(realisations))
        realisations.clear()
        # Keep every engine alive so view ids cannot be recycled and
        # collapse the distinct-realisation count.
        engines = []
        for family, params in FAMILY_CASES * 2:
            lone = QueryEngine(sampled_view(small_random_graph, 2048))
            lone.run(family, **params)
            engines.append(lone)
        fresh_cost = len(set(realisations))
    finally:
        WorldView._realise = original
    assert shared_cost == 1
    assert fresh_cost == len(FAMILY_CASES) * 2
