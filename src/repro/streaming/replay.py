"""Turn datasets and synthetic drift into replayable update streams.

Two sources feed the streaming monitor in this repository:

* :func:`panel_update_stream` — the temporal guaranteed-loan panel
  (:class:`~repro.datasets.temporal.GuaranteePanel`): each year's true
  self-risks become one bulk update batch, replaying the year-over-year
  drift the paper's deployment re-scores monthly.  Edge probabilities
  are constant across panel years (guarantee contracts are long-lived),
  so the batches carry self-risk vectors only.
* :func:`random_patch_stream` — synthetic single-entity monitoring
  patches (one node's re-scored self-risk or one guarantee's re-assessed
  strength per event), the workload of the streaming benchmark.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.core.errors import DatasetError
from repro.core.graph import UncertainGraph
from repro.sampling.rng import SeedLike, make_rng
from repro.streaming.events import (
    BulkSelfRiskUpdate,
    EdgeProbabilityUpdate,
    SelfRiskUpdate,
    UpdateEvent,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.datasets.temporal import GuaranteePanel

__all__ = ["panel_update_stream", "random_patch_stream"]


def panel_update_stream(
    panel: "GuaranteePanel",
) -> Iterator[tuple[int, list[UpdateEvent]]]:
    """Yield ``(year, events)`` batches replaying the panel's drift.

    Years come in panel order (train year first); the first batch
    re-asserts the training year's risks, which the panel's graph
    already carries, so a monitor diffing against current state sees it
    as a no-op — convenient for replaying from the panel's initial
    condition.  Feed each batch to :meth:`TopKMonitor.apply` and query
    between batches to monitor the panel year by year.
    """
    years = (panel.train_year, *panel.test_years)
    for year in years:
        snapshot = panel.snapshots.get(year)
        if snapshot is None:
            raise DatasetError(f"panel has no snapshot for year {year}")
        yield year, [BulkSelfRiskUpdate(values=snapshot.self_risks)]


def random_patch_stream(
    graph: UncertainGraph,
    count: int,
    seed: SeedLike = 0,
    *,
    edge_fraction: float = 0.5,
    drift: float | None = None,
    self_risk_cap: float = 0.5,
) -> Iterator[UpdateEvent]:
    """Yield *count* single-entity monitoring patches for *graph*.

    Each event re-scores one uniformly chosen node's self-risk or one
    uniformly chosen guarantee edge's strength.  With ``drift`` set, new
    values are a clipped Gaussian step from the current value — the
    month-over-month re-assessment pattern of the deployed system; with
    ``drift=None`` values are drawn fresh (``U[0, self_risk_cap)`` for
    nodes, ``U[0, 1)`` for edges), exercising arbitrarily large patches.

    The stream is lazy and reads current values at yield time, so it
    composes with a monitor that is applying the events as they come.
    """
    if count < 0:
        raise DatasetError(f"count must be non-negative, got {count}")
    if not 0.0 <= edge_fraction <= 1.0:
        raise DatasetError(
            f"edge_fraction must be in [0, 1], got {edge_fraction}"
        )
    rng = make_rng(seed)
    has_edges = graph.num_edges > 0
    edge_src, edge_dst, _ = graph.edge_array
    for _ in range(count):
        patch_edge = has_edges and rng.random() < edge_fraction
        if patch_edge:
            if edge_src.size != graph.num_edges:
                # The graph grew while the stream was paused; appended
                # edges take the next ids, so re-reading extends the map.
                edge_src, edge_dst, _ = graph.edge_array
            edge = int(rng.integers(graph.num_edges))
            src = graph.label(int(edge_src[edge]))
            dst = graph.label(int(edge_dst[edge]))
            if drift is None:
                value = float(rng.random())
            else:
                current = graph.edge_probability(src, dst)
                value = float(
                    np.clip(current + rng.normal(0.0, drift), 0.0, 1.0)
                )
            yield EdgeProbabilityUpdate(src=src, dst=dst, value=value)
        else:
            label = graph.label(int(rng.integers(graph.num_nodes)))
            if drift is None:
                value = float(rng.random() * self_risk_cap)
            else:
                current = graph.self_risk(label)
                value = float(
                    np.clip(current + rng.normal(0.0, drift), 0.0, 1.0)
                )
            yield SelfRiskUpdate(label=label, value=value)
