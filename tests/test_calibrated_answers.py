"""Production answers pinned on calibrated 2,000- and 20,000-node graphs.

The sampler identity tests elsewhere run on graphs of at most a hundred
or so nodes, whose reverse-exploration frontiers rarely reach one node
twice.  The 2,000-node graph has perfbench's calibration (power-law topology, edge
factor 2, self-risk U[0, 0.02], Beta(2, 4) edge strengths), where they
often do, so frontier de-duplication and the skyline kernel both see
real work.  ``data/calibrated_2000_answers.json`` holds the answers and
work counters recorded before either kernel was rewritten; BSR, BSRBK
and the skyline family must keep giving exactly those.  The component
and k-core kernels are held to their dense-matrix oracles on a
monitor's own view of this graph, where peels run for many rounds.

``data/calibrated_20000_answers.json`` pins BSR and BSRBK on perfbench's
``batch`` detection graph (``calibrated_powerlaw(20000, 7)``, detector
seed 1, k = 10), recorded with the flat exploration before the world-
packed one replaced it.  perfbench's own check compares BSR with a
monitor that runs the same engine, so only a pin catches an engine
defect at that scale.  The bound orders are passed explicitly, so a
change of their defaults does not move it.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
import reference_kernels
from dense_skyline import dense_skyline_mask

from repro.algorithms.bsr import BoundedSampleReverseDetector
from repro.algorithms.bsrbk import BottomKDetector
from repro.core.graph import UncertainGraph
from repro.datasets.powerlaw import directed_powerlaw_edges
from repro.queries.kernels import connected_component_labels, kcore_membership
from repro.queries.skyline import skyline_mask
from repro.sampling.worldstate import WorldView
from repro.streaming.monitor import TopKMonitor

DATA = Path(__file__).parent / "data"
PINNED = json.loads((DATA / "calibrated_2000_answers.json").read_text())
PINNED_20K = json.loads((DATA / "calibrated_20000_answers.json").read_text())


def _calibrated(shape: dict) -> UncertainGraph:
    n = shape["nodes"]
    rng = np.random.default_rng(shape["seed"])
    src, dst = directed_powerlaw_edges(
        n, shape["edge_factor"] * n, seed=rng
    )
    return UncertainGraph.from_arrays(
        self_risks=rng.random(n) * shape["self_risk_max"],
        edge_src=src,
        edge_dst=dst,
        edge_probs=np.clip(rng.beta(2.0, 4.0, src.size), 0.01, 0.95),
    )


@pytest.fixture(scope="module")
def calibrated_graph() -> UncertainGraph:
    return _calibrated(PINNED["graph"])


@pytest.fixture(scope="module")
def batch_graph() -> UncertainGraph:
    return _calibrated(PINNED_20K["graph"])


def _assert_pinned(result, expected) -> None:
    assert result.nodes == expected["nodes"]
    assert [result.scores[v] for v in result.nodes] == expected["scores"]
    assert result.samples_used == expected["samples_used"]
    assert result.candidate_size == expected["candidate_size"]
    assert result.k_verified == expected["k_verified"]
    assert result.details["nodes_touched"] == expected["nodes_touched"]
    assert result.details["edges_touched"] == expected["edges_touched"]


@pytest.mark.parametrize(
    "name,detector",
    [("BSR", BoundedSampleReverseDetector), ("BSRBK", BottomKDetector)],
)
def test_detection_matches_the_pinned_answer(calibrated_graph, name, detector):
    result = detector(seed=PINNED["detector_seed"]).detect(
        calibrated_graph, PINNED["k"]
    )
    _assert_pinned(result, PINNED[name])


@pytest.mark.parametrize(
    "name,detector",
    [("BSR", BoundedSampleReverseDetector), ("BSRBK", BottomKDetector)],
)
def test_batch_detection_matches_the_pinned_answer(batch_graph, name, detector):
    result = detector(
        lower_order=PINNED_20K["lower_order"],
        upper_order=PINNED_20K["upper_order"],
        seed=PINNED_20K["detector_seed"],
    ).detect(batch_graph, PINNED_20K["k"])
    _assert_pinned(result, PINNED_20K[name])


def test_skyline_family_matches_the_pinned_set(calibrated_graph):
    monitor = TopKMonitor(
        calibrated_graph, PINNED["k"], seed=PINNED["detector_seed"]
    )
    result = monitor.query("skyline")
    assert sorted(result.nodes.tolist()) == PINNED["skyline"]


def test_skyline_mask_matches_the_oracle_on_calibrated_coordinates(
    calibrated_graph,
):
    view = WorldView(calibrated_graph, np.arange(256), seed=1)
    coordinates = np.stack(
        (
            calibrated_graph.self_risk_array,
            view.contagion().mean(axis=0),
            calibrated_graph.in_csr().degrees
            + calibrated_graph.out_csr().degrees,
        ),
        axis=1,
    )
    mask = skyline_mask(coordinates)
    assert np.array_equal(mask, dense_skyline_mask(coordinates))
    assert 0 < mask.sum() < calibrated_graph.num_nodes


@pytest.mark.parametrize("core_k", [2, 3])
def test_graph_kernels_match_the_oracles_on_the_monitors_view(
    calibrated_graph, core_k
):
    monitor = TopKMonitor(
        calibrated_graph, PINNED["k"], seed=PINNED["detector_seed"]
    )
    view = monitor.world_view()
    worlds, n = view.num_worlds, view.num_nodes
    src, dst, _ = calibrated_graph.edge_array
    survives = view.edge_survives()
    keys = view.edge_keys()
    labels = connected_component_labels(worlds, n, keys)
    assert np.array_equal(
        labels,
        reference_kernels.connected_component_labels(n, src, dst, survives),
    )
    expected = reference_kernels.kcore_membership(
        n, src, dst, survives, core_k
    )
    assert 0 < expected.sum() < expected.size
    assert np.array_equal(kcore_membership(worlds, n, keys, core_k), expected)
    # Seeded from the next lower order, as the family seeds its peel.
    seed = kcore_membership(worlds, n, keys, core_k - 1)
    assert np.array_equal(
        kcore_membership(worlds, n, keys, core_k, alive_init=seed), expected
    )
