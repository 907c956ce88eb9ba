"""Method BSR — bounds + candidate reduction + reverse sampling.

The full optimised pipeline of Section 3.2:

1. derive order-``z`` lower/upper bounds (Algorithms 2/3);
2. run Algorithm 4 — verify ``k'`` answers outright (rule 1) and prune the
   rest of the universe down to the candidate set ``B`` (rule 2);
3. estimate only ``B`` with the reverse sampler (Algorithm 5), using the
   reduced Equation-(4) budget of Theorem 5;
4. return the verified nodes plus the best ``k - k'`` sampled candidates.
"""

from __future__ import annotations

from repro.algorithms.base import DetectionResult, VulnerableNodeDetector
from repro.bounds.candidates import CandidateReduction, reduce_candidates
from repro.bounds.iterative import bound_pair
from repro.core.errors import SamplingError
from repro.core.graph import NodeLabel, UncertainGraph
from repro.core.topk import top_k_indices
from repro.sampling.indexed import IndexedReverseSampler
from repro.sampling.rng import SeedLike
from repro.sampling.sample_size import reduced_sample_size, validate_epsilon_delta

__all__ = ["BoundedSampleReverseDetector", "assemble_answer"]


def assemble_answer(
    graph: UncertainGraph,
    reduction: CandidateReduction,
    lower,
    candidate_probabilities,
    k: int,
) -> tuple[list[NodeLabel], dict[NodeLabel, float]]:
    """Merge verified nodes with sampled candidates into the final answer.

    Verified nodes come first (their membership is certain; ranked by the
    certifying lower bound), followed by the best ``k - k'`` candidates by
    estimated probability.  Shared by BSR and BSRBK.
    """
    nodes: list[NodeLabel] = []
    scores: dict[NodeLabel, float] = {}
    for index in reduction.verified:
        label = graph.label(int(index))
        nodes.append(label)
        scores[label] = float(lower[index])
    remaining = k - reduction.k_verified
    if remaining > 0:
        if reduction.candidate_size < remaining:
            raise SamplingError(
                f"candidate set ({reduction.candidate_size}) smaller than "
                f"remaining answers ({remaining}); bounds are inconsistent"
            )
        top_positions = top_k_indices(candidate_probabilities, remaining)
        for position in top_positions:
            index = int(reduction.candidates[position])
            label = graph.label(index)
            nodes.append(label)
            scores[label] = float(candidate_probabilities[position])
    return nodes, scores


class BoundedSampleReverseDetector(VulnerableNodeDetector):
    """Bounds + verification + reverse sampling (method **BSR**).

    Parameters
    ----------
    epsilon, delta:
        Approximation target of Theorem 5.
    lower_order, upper_order:
        Iteration counts ``z`` for Algorithms 2 and 3 (Figure 5 tunes
        these; the paper fixes both to 2).
    seed:
        Randomness control.
    """

    name = "BSR"

    def __init__(
        self,
        epsilon: float = 0.3,
        delta: float = 0.1,
        lower_order: int = 2,
        upper_order: int = 2,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(seed)
        self._epsilon, self._delta = validate_epsilon_delta(epsilon, delta)
        self._lower_order = int(lower_order)
        self._upper_order = int(upper_order)

    def _detect(self, graph: UncertainGraph, k: int) -> DetectionResult:
        lower, upper = bound_pair(graph, self._lower_order, self._upper_order)
        reduction = reduce_candidates(graph, lower, upper, k)
        samples = 0
        nodes_touched = edges_touched = 0
        if reduction.k_remaining > 0:
            samples = reduced_sample_size(
                reduction.candidate_size,
                k,
                reduction.k_verified,
                self._epsilon,
                self._delta,
            )
            sampler = IndexedReverseSampler(
                graph, reduction.candidates, seed=self._seed
            )
            probabilities = sampler.run(samples).probabilities
            nodes_touched = sampler.nodes_touched
            edges_touched = sampler.edges_touched
        else:
            probabilities = None
        nodes, scores = assemble_answer(graph, reduction, lower, probabilities, k)
        return DetectionResult(
            method=self.name,
            k=k,
            nodes=nodes,
            scores=scores,
            samples_used=samples,
            candidate_size=reduction.candidate_size,
            k_verified=reduction.k_verified,
            elapsed_seconds=0.0,
            details={
                "epsilon": self._epsilon,
                "delta": self._delta,
                "lower_order": self._lower_order,
                "upper_order": self._upper_order,
                **reduction.summary(),
                "nodes_touched": nodes_touched,
                "edges_touched": edges_touched,
            },
        )
