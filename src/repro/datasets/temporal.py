"""Temporal guaranteed-loan panel for the Table-3 case study.

The paper's case study spans 2012–2016 bank data: behaviour features are
aggregated monthly, 2012 delinquencies train the models, and defaults in
2014/2015/2016 are predicted.  Offline we simulate the same panel:

* one guarantee-network topology (constant across years — guarantee
  contracts are long-lived);
* per-year node features that drift slowly from a base draw;
* per-year *true* self-risks derived from the (noisy) latent risk the
  features encode, plus a mild macro shock per year;
* per-year default labels drawn from the uncertain-graph contagion
  process itself — one sampled possible world per year, which is exactly
  the "observed delinquency" a bank records.

Because labels really are generated by self-risk **plus contagion**,
feature-only models can explain only part of them, graph-aware models
more, and contagion-aware detectors (BSR/BSRBK) the most — the phenomenon
Table 3 demonstrates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.errors import DatasetError
from repro.core.graph import UncertainGraph
from repro.core.propagation import propagate_defaults_block
from repro.datasets.guarantee import guarantee_graph
from repro.datasets.probabilities import (
    FEATURE_NAMES,
    _TRUE_BIAS,
    _TRUE_WEIGHTS,
    generate_features,
    sigmoid,
)
from repro.sampling.rng import SeedLike, make_rng

__all__ = ["YearSnapshot", "GuaranteePanel", "build_guarantee_panel"]


@dataclass(frozen=True)
class YearSnapshot:
    """Observables of one year of the panel.

    Attributes
    ----------
    year:
        Calendar year.
    features:
        ``(n, d)`` feature matrix the models may look at.
    self_risks:
        The *true* per-node self-risk probabilities of that year (hidden
        from the baselines; used by the simulator and by oracle tests).
    labels:
        Observed defaults — one realised possible world including
        contagion.
    """

    year: int
    features: np.ndarray
    self_risks: np.ndarray
    labels: np.ndarray


@dataclass(frozen=True)
class GuaranteePanel:
    """The full temporal panel: topology + yearly snapshots.

    Attributes
    ----------
    graph:
        Guarantee network (edge probabilities fixed across years).
    train_year:
        Year whose snapshot is the training set (2012 in the paper).
    test_years:
        Years to predict (2014–2016 in the paper).
    snapshots:
        Mapping year → :class:`YearSnapshot` for all years.
    """

    graph: UncertainGraph
    train_year: int
    test_years: tuple[int, ...]
    snapshots: dict[int, YearSnapshot]

    @property
    def train(self) -> YearSnapshot:
        """The training snapshot."""
        return self.snapshots[self.train_year]

    def test(self, year: int) -> YearSnapshot:
        """The snapshot of one test year."""
        if year not in self.test_years:
            raise DatasetError(
                f"{year} is not a test year; test years: {self.test_years}"
            )
        return self.snapshots[year]

    def update_stream(self):
        """The panel's year-over-year drift as a replayable update stream.

        Yields ``(year, events)`` batches (see
        :func:`repro.streaming.replay.panel_update_stream`) suitable for
        :meth:`repro.streaming.monitor.TopKMonitor.apply` — the panel is
        the repository's stand-in for the monthly re-scoring feed the
        paper's deployment consumes.
        """
        from repro.streaming.replay import panel_update_stream

        return panel_update_stream(self)


def build_guarantee_panel(
    num_nodes: int = 1500,
    num_edges: int = 1725,
    seed: SeedLike = 0,
    train_year: int = 2012,
    test_years: tuple[int, ...] = (2014, 2015, 2016),
    feature_drift: float = 0.25,
    risk_scale: float = 0.45,
    macro_shocks: dict[int, float] | None = None,
    edge_alpha: float = 2.0,
    edge_beta: float = 4.0,
) -> GuaranteePanel:
    """Simulate the temporal guaranteed-loan panel.

    Parameters
    ----------
    num_nodes, num_edges:
        Guarantee-network size (avg degree ≈ 1.15, as in Table 2).
    seed:
        Master seed; topology, features, and each year's world consume
        independent child streams.
    train_year, test_years:
        Panel years (labels are generated for all of them).
    feature_drift:
        Standard deviation of the per-year random-walk drift added to the
        base features.
    risk_scale:
        Latent-risk → self-risk scaling (keeps default rates bank-like).
    macro_shocks:
        Optional per-year additive logit shock (e.g. a downturn year);
        default is a mild worsening trend.
    edge_alpha, edge_beta:
        Beta parameters of the guarantee-strength diffusion probabilities.
    """
    rng = make_rng(seed)
    (
        topology_rng,
        feature_rng,
        edge_rng,
        *year_rngs,
    ) = rng.spawn(3 + 1 + len(test_years))
    years = (train_year, *test_years)
    if len(set(years)) != len(years):
        raise DatasetError(f"duplicate years in panel: {years}")
    if macro_shocks is None:
        macro_shocks = {year: 0.08 * i for i, year in enumerate(years)}

    graph = guarantee_graph(num_nodes, num_edges, seed=topology_rng)
    base = generate_features(num_nodes, seed=feature_rng)
    edge_probabilities = np.clip(
        edge_rng.beta(edge_alpha, edge_beta, graph.num_edges), 0.01, 0.95
    )
    graph.set_all_edge_probabilities(edge_probabilities)

    snapshots: dict[int, YearSnapshot] = {}
    drift = np.zeros_like(base.matrix)
    for year, year_rng in zip(years, year_rngs):
        if year != train_year:
            drift = drift + year_rng.normal(
                0.0, feature_drift, size=base.matrix.shape
            )
        features = base.matrix + drift
        logits = features @ _TRUE_WEIGHTS + _TRUE_BIAS + macro_shocks[year]
        self_risks = np.clip(sigmoid(logits) * risk_scale, 0.002, 0.95)
        # The year's observed defaults: one possible world, as a one-row block.
        self_default = year_rng.random((1, num_nodes)) <= self_risks
        edge_survives = year_rng.random((1, graph.num_edges)) <= edge_probabilities
        graph.set_all_self_risks(self_risks)
        labels = propagate_defaults_block(graph, self_default, edge_survives)[0]
        snapshots[year] = YearSnapshot(
            year=year,
            features=features,
            self_risks=self_risks,
            labels=labels.astype(np.int64),
        )
    # Leave the graph carrying the training year's self-risks.
    graph.set_all_self_risks(snapshots[train_year].self_risks)
    return GuaranteePanel(
        graph=graph,
        train_year=train_year,
        test_years=tuple(test_years),
        snapshots=snapshots,
    )
