"""Tests for the temporal guaranteed-loan panel (Table 3 substrate)."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.errors import DatasetError
from repro.datasets.temporal import build_guarantee_panel


#: sha256 of each year's labels (little-endian int64) in the panel below.
LABEL_SHA256 = {
    2012: "a198b2a750f022afc9be39c725d03469503e55f77f37abd6088a3cbd33bd9a4a",
    2014: "05316f55130f0b673311f6a7cb4b69474f774f8a42446856e36077cf18309ac3",
    2015: "96fdab5b85ae0cffe023963926f8134f6d62fb8ce4ae2fab33063c221caebffb",
    2016: "bb344622b1527919cb78bb69dbe5e09ca5f6f77b8f76482b3fb510cd70933a47",
}


@pytest.fixture(scope="module")
def panel():
    return build_guarantee_panel(num_nodes=400, num_edges=460, seed=0)


class TestPanelStructure:
    def test_years_present(self, panel):
        assert panel.train_year == 2012
        assert panel.test_years == (2014, 2015, 2016)
        assert set(panel.snapshots) == {2012, 2014, 2015, 2016}

    def test_train_accessor(self, panel):
        assert panel.train.year == 2012

    def test_test_accessor_validates(self, panel):
        assert panel.test(2015).year == 2015
        with pytest.raises(DatasetError):
            panel.test(2012)
        with pytest.raises(DatasetError):
            panel.test(1999)

    def test_graph_shape(self, panel):
        assert panel.graph.num_nodes == 400
        assert panel.graph.num_edges == 460

    def test_duplicate_years_rejected(self):
        with pytest.raises(DatasetError):
            build_guarantee_panel(
                num_nodes=100,
                num_edges=115,
                train_year=2014,
                test_years=(2014,),
            )


class TestSnapshots:
    def test_feature_shapes(self, panel):
        for snapshot in panel.snapshots.values():
            assert snapshot.features.shape[0] == 400
            assert snapshot.labels.shape == (400,)
            assert snapshot.self_risks.shape == (400,)

    def test_labels_binary(self, panel):
        for snapshot in panel.snapshots.values():
            assert set(np.unique(snapshot.labels)) <= {0, 1}

    def test_default_rate_is_bank_like(self, panel):
        """Simulated delinquency rates should be single/low-double digit."""
        for snapshot in panel.snapshots.values():
            rate = snapshot.labels.mean()
            assert 0.01 < rate < 0.45

    def test_self_risks_are_probabilities(self, panel):
        for snapshot in panel.snapshots.values():
            assert np.all(snapshot.self_risks > 0)
            assert np.all(snapshot.self_risks < 1)

    def test_features_drift_across_years(self, panel):
        base = panel.snapshots[2012].features
        later = panel.snapshots[2016].features
        assert not np.allclose(base, later)

    def test_labels_differ_across_years(self, panel):
        a = panel.snapshots[2014].labels
        b = panel.snapshots[2015].labels
        assert not np.array_equal(a, b)

    def test_contagion_present_in_labels(self, panel):
        """Some defaults must come from contagion, not only self-risk.

        Statistically: nodes whose in-neighbour defaulted should default
        more often than baseline.
        """
        graph = panel.graph
        in_csr = graph.in_csr()
        total_exposed = 0
        exposed_defaults = 0
        total = 0
        defaults = 0
        for snapshot in panel.snapshots.values():
            labels = snapshot.labels
            for v in range(graph.num_nodes):
                neighbors = in_csr.neighbors(v)
                exposed = bool(labels[neighbors].any()) if neighbors.size else False
                total += 1
                defaults += labels[v]
                if exposed:
                    total_exposed += 1
                    exposed_defaults += labels[v]
        assert total_exposed > 0
        assert exposed_defaults / total_exposed > defaults / total

    def test_deterministic(self):
        a = build_guarantee_panel(num_nodes=120, num_edges=138, seed=5)
        b = build_guarantee_panel(num_nodes=120, num_edges=138, seed=5)
        assert np.array_equal(
            a.snapshots[2014].labels, b.snapshots[2014].labels
        )
        assert np.array_equal(
            a.snapshots[2016].features, b.snapshots[2016].features
        )

    def test_labels_pinned(self, panel):
        """Each year's observed defaults are fixed by the seed: the
        labelling kernel may change, the labels may not."""
        for year, digest in LABEL_SHA256.items():
            labels = np.ascontiguousarray(panel.snapshots[year].labels, dtype="<i8")
            assert hashlib.sha256(labels.tobytes()).hexdigest() == digest

    def test_graph_keeps_training_risks(self, panel):
        assert np.allclose(
            panel.graph.self_risk_array, panel.snapshots[2012].self_risks
        )
