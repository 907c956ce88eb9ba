"""Full-graph vulnerability score vectors for the Table-3 case study.

The detectors of :mod:`repro.algorithms` return top-k *sets*; the
default-prediction case study needs a *score for every node* so an AUC
can be computed.  This module reruns the BSR / BSRBK machinery and pieces
together a complete score vector:

* pruned nodes keep their Algorithm-2 lower bound (the information the
  pruning decision was based on);
* candidate nodes get their reverse-sampling estimate — full-budget
  frequencies for BSR, bottom-k early-stop estimates for BSRBK (noisier,
  which is why BSR edges out BSRBK in Table 3);
* verified nodes take the maximum of bound and estimate, preserving their
  certified rank.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.bsrbk import bottom_k_early_stop
from repro.bounds.candidates import reduce_candidates
from repro.bounds.iterative import bound_pair
from repro.core.errors import ExperimentError
from repro.core.graph import UncertainGraph
from repro.sampling.indexed import IndexedReverseSampler
from repro.sampling.rng import SeedLike
from repro.sampling.sample_size import reduced_sample_size

__all__ = ["bsr_scores", "bsrbk_scores"]


def _prepare(
    graph: UncertainGraph, k: int, bound_order: int
) -> tuple[np.ndarray, np.ndarray, object]:
    lower, upper = bound_pair(graph, bound_order, bound_order)
    reduction = reduce_candidates(graph, lower, upper, k)
    return lower, upper, reduction


def bsr_scores(
    graph: UncertainGraph,
    k: int,
    epsilon: float = 0.3,
    delta: float = 0.1,
    bound_order: int = 2,
    seed: SeedLike = 0,
) -> np.ndarray:
    """Full-node score vector using the BSR pipeline.

    Parameters
    ----------
    graph:
        Uncertain graph with calibrated probabilities.
    k:
        Answer size driving the pruning (e.g. 10% of |V|).
    epsilon, delta, bound_order, seed:
        BSR configuration.
    """
    if not 1 <= k <= graph.num_nodes:
        raise ExperimentError(f"k must be in [1, {graph.num_nodes}], got {k}")
    lower, _, reduction = _prepare(graph, k, bound_order)
    scores = lower.astype(np.float64).copy()
    if reduction.k_remaining > 0 and reduction.candidate_size > 0:
        samples = reduced_sample_size(
            reduction.candidate_size, k, reduction.k_verified, epsilon, delta
        )
        sampler = IndexedReverseSampler(graph, reduction.candidates, seed=seed)
        estimates = sampler.run(samples).probabilities
        scores[reduction.candidates] = estimates
    scores[reduction.verified] = np.maximum(
        scores[reduction.verified], lower[reduction.verified]
    )
    return scores


def bsrbk_scores(
    graph: UncertainGraph,
    k: int,
    bk: int = 16,
    epsilon: float = 0.3,
    delta: float = 0.1,
    bound_order: int = 2,
    seed: SeedLike = 0,
) -> np.ndarray:
    """Full-node score vector using the BSRBK pipeline (early stop)."""
    if not 1 <= k <= graph.num_nodes:
        raise ExperimentError(f"k must be in [1, {graph.num_nodes}], got {k}")
    lower, _, reduction = _prepare(graph, k, bound_order)
    scores = lower.astype(np.float64).copy()
    if reduction.k_remaining > 0 and reduction.candidate_size > 0:
        budget = reduced_sample_size(
            reduction.candidate_size, k, reduction.k_verified, epsilon, delta
        )
        *_, estimates = bottom_k_early_stop(graph, reduction, budget, bk, seed)
        scores[reduction.candidates] = estimates
    scores[reduction.verified] = np.maximum(
        scores[reduction.verified], lower[reduction.verified]
    )
    return scores
