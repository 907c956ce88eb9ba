"""Calibrated workload graphs and the sanity gate every workload passes.

The older benchmarks' ``build_powerlaw_graph`` (self-risk U[0, 0.2],
edge factor 3) saturates: at 20k nodes BSR's top-10 scores are all
1.000 and the ranking is decided by tie-breaks.  The graphs here keep
the problem non-trivial, and :func:`sanity_gate` proves it per seed
before anything is timed:

* ``k' < k`` — Algorithm 4 leaves answers to sample for;
* ``|B| > k - k'`` — the candidate set is larger than what is left;
* Theorem-5 samples > 0 — reverse sampling actually runs;
* the k-th best score is < 0.95 and the top-k scores are not all equal.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from repro.algorithms.base import DetectionResult
from repro.algorithms.bsr import BoundedSampleReverseDetector
from repro.core.graph import UncertainGraph
from repro.datasets import directed_powerlaw_edges, load_dataset

K = 10
BATCH_NODES = 20_000
#: ``bench_queries``' and ``bench_replication``'s default graph size.
BATTERY_NODES = FAILOVER_NODES = 5_000
EDGE_FACTOR = 2
SELF_RISK_MAX = 0.02
KTH_SCORE_LIMIT = 0.95
#: Every workload's graph comes from this seed; ``--seed`` drives the
#: detectors, the drift events and the request schedule.  Graph-to-graph
#: cost differences would otherwise swamp run-to-run spread (the gate
#: itself is tested at graph seeds 7 and 8).
GRAPH_SEED = 7


def calibrated_powerlaw(n: int, seed: int) -> UncertainGraph:
    """Power-law topology, edge factor 2, self-risk U[0, 0.02] and
    Beta(2, 4) edge strengths clipped to [0.01, 0.95]."""
    rng = np.random.default_rng(seed)
    src, dst = directed_powerlaw_edges(n, EDGE_FACTOR * n, seed=rng)
    return UncertainGraph.from_arrays(
        self_risks=rng.random(n) * SELF_RISK_MAX,
        edge_src=src,
        edge_dst=dst,
        edge_probs=np.clip(rng.beta(2.0, 4.0, src.size), 0.01, 0.95),
    )


def guarantee_network(seed: int) -> UncertainGraph:
    """The full-scale guaranteed-loan network (31,309 nodes)."""
    return load_dataset("guarantee", scale=1.0, seed=seed).graph


def build_graph(workload: str, seed: int) -> UncertainGraph:
    """The input graph of *workload* for *seed*."""
    if workload == "batch":
        return calibrated_powerlaw(BATCH_NODES, seed)
    if workload == "live":
        return guarantee_network(seed)
    if workload == "failover":
        return calibrated_powerlaw(FAILOVER_NODES, seed)
    raise ValueError(f"unknown workload {workload!r}")


@dataclass(frozen=True)
class Gate:
    """The sanity-gate values of one BSR answer."""

    k: int
    k_verified: int
    candidates: int
    samples: int
    kth_score: float
    top_score: float
    passed: bool
    failures: tuple[str, ...]

    def as_dict(self) -> dict:
        return asdict(self)


def sanity_gate(result: DetectionResult, k: int = K) -> Gate:
    """Judge one BSR answer against the gate's five conditions."""
    scores = sorted((result.scores[node] for node in result.nodes), reverse=True)
    remaining = k - result.k_verified
    failures = []
    if not result.k_verified < k:
        failures.append(f"k'={result.k_verified} is not < k={k}")
    if not result.candidate_size > remaining:
        failures.append(f"|B|={result.candidate_size} is not > k-k'={remaining}")
    if not result.samples_used > 0:
        failures.append("Theorem-5 samples = 0: sampling never ran")
    if not scores[k - 1] < KTH_SCORE_LIMIT:
        failures.append(f"k-th score {scores[k - 1]:.3f} is not < {KTH_SCORE_LIMIT}")
    if scores[0] == scores[k - 1]:
        failures.append(f"top-{k} scores are all {scores[0]:.3f}")
    return Gate(
        k=k,
        k_verified=result.k_verified,
        candidates=result.candidate_size,
        samples=result.samples_used,
        kth_score=float(scores[k - 1]),
        top_score=float(scores[0]),
        passed=not failures,
        failures=tuple(failures),
    )


def gate_graph(graph: UncertainGraph, seed: int, k: int = K) -> tuple[DetectionResult, Gate]:
    """Run BSR once (the workloads' detector parameters) and gate it."""
    result = BoundedSampleReverseDetector(seed=seed).detect(graph, k)
    return result, sanity_gate(result, k)
