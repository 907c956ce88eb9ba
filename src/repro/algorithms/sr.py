"""Method SR — reverse sampling on a filtered candidate set.

The intermediate method of Section 4.1: derive lower/upper bounds, drop
every node that rule 2 of Lemma 1 proves cannot be in the top-k
(``pu(v) < Tl``), then estimate only the survivors with the reverse
sampler of Algorithm 5.  No verification (rule 1) is applied, so the
sample size is Equation (3) evaluated on the shrunken universe ``|B|``.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import DetectionResult, VulnerableNodeDetector
from repro.bounds.iterative import bound_pair
from repro.core.graph import UncertainGraph
from repro.core.topk import kth_largest, top_k_indices
from repro.sampling.indexed import IndexedReverseSampler
from repro.sampling.rng import SeedLike
from repro.sampling.sample_size import basic_sample_size, validate_epsilon_delta

__all__ = ["SampleReverseDetector"]


class SampleReverseDetector(VulnerableNodeDetector):
    """Reverse sampling + rule-2 filtering (method **SR**).

    Parameters
    ----------
    epsilon, delta:
        Approximation target.
    bound_order:
        The ``z`` of Algorithms 2/3 used to derive the filtering bounds
        (the paper settles on 2 after the Figure 5 sweep).
    seed:
        Randomness control.
    """

    name = "SR"

    def __init__(
        self,
        epsilon: float = 0.3,
        delta: float = 0.1,
        bound_order: int = 2,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(seed)
        self._epsilon, self._delta = validate_epsilon_delta(epsilon, delta)
        self._bound_order = int(bound_order)

    def _detect(self, graph: UncertainGraph, k: int) -> DetectionResult:
        lower, upper = bound_pair(graph, self._bound_order, self._bound_order)
        threshold_lower = kth_largest(lower, k)
        candidates = np.flatnonzero(upper >= threshold_lower)
        samples = basic_sample_size(
            int(candidates.size), k, self._epsilon, self._delta
        )
        sampler = IndexedReverseSampler(graph, candidates, seed=self._seed)
        probabilities = sampler.run(samples).probabilities
        top_positions = top_k_indices(probabilities, k)
        top_indices = candidates[top_positions]
        nodes = [graph.label(int(i)) for i in top_indices]
        scores = {
            graph.label(int(i)): float(probabilities[pos])
            for pos, i in zip(top_positions, top_indices)
        }
        return DetectionResult(
            method=self.name,
            k=k,
            nodes=nodes,
            scores=scores,
            samples_used=samples,
            candidate_size=int(candidates.size),
            k_verified=0,
            elapsed_seconds=0.0,
            details={
                "epsilon": self._epsilon,
                "delta": self._delta,
                "bound_order": self._bound_order,
                "Tl": float(threshold_lower),
                "nodes_touched": sampler.nodes_touched,
                "edges_touched": sampler.edges_touched,
            },
        )
