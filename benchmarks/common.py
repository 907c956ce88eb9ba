"""Helpers the benchmark scripts share.

``build_powerlaw_graph`` is the generator the ``--quick`` CI gates
measure on, ``build_workload`` the per-tenant drift batches of the
serving, durability and replication benchmarks, and ``assert_identical``
the answer check that runs before any timing counts.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.core.graph import UncertainGraph
from repro.datasets.powerlaw import directed_powerlaw_edges
from repro.streaming.events import UpdateEvent, apply_event
from repro.streaming.replay import random_patch_stream

#: Where the committed ``BENCH_*.json`` reports live.
REPO_ROOT = Path(__file__).resolve().parent.parent

#: ~3 edges per node matches the sparsity of the paper's Table-2 graphs.
EDGE_FACTOR = 3


def build_powerlaw_graph(n: int, seed: int) -> UncertainGraph:
    """Power-law topology with guarantee-style Beta(2, 4) edge strengths."""
    rng = np.random.default_rng(seed)
    src, dst = directed_powerlaw_edges(n, EDGE_FACTOR * n, seed=rng)
    return UncertainGraph.from_arrays(
        self_risks=rng.random(n) * 0.2,
        edge_src=src,
        edge_dst=dst,
        edge_probs=np.clip(rng.beta(2.0, 4.0, src.size), 0.01, 0.95),
    )


def build_workload(
    graph: UncertainGraph,
    tenants: int,
    rounds: int,
    events_per_round: int,
    drift: float,
    seed: int,
) -> list[list[list[UpdateEvent]]]:
    """Per-tenant, per-round event batches (drift compounds per tenant)."""
    workload: list[list[list[UpdateEvent]]] = []
    for tenant in range(tenants):
        shadow = graph.copy()
        stream = random_patch_stream(
            shadow,
            rounds * events_per_round,
            seed=seed + 1_000 + tenant,
            drift=drift,
        )
        tenant_rounds: list[list[UpdateEvent]] = []
        for _ in range(rounds):
            batch: list[UpdateEvent] = []
            for _ in range(events_per_round):
                event = next(stream)
                apply_event(shadow, event)
                batch.append(event)
            tenant_rounds.append(batch)
        workload.append(tenant_rounds)
    return workload


def assert_identical(reference: dict, candidate: dict, what: str) -> None:
    """Raise unless every tenant's answer in *candidate* is *reference*'s."""
    diverged = [
        tenant
        for tenant in reference
        if not reference[tenant].same_answer(candidate[tenant])
    ]
    if diverged:
        raise AssertionError(
            f"{what}: tenants {diverged} diverged from the reference — "
            "timings would be meaningless"
        )
