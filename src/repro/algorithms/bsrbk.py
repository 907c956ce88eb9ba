"""Method BSRBK — BSR with bottom-k early stopping (Section 3.3).

BSRBK runs the same pipeline as BSR but does not always spend the full
Equation-(4) budget: every sample id receives a uniform hash, samples are
materialised in ascending hash order, and per-candidate default counters
stop processing as soon as ``k - k'`` candidates accumulate ``bk``
defaults — Theorem 6 guarantees they are the (estimated) most vulnerable.
If the stopping condition never fires, the method degrades gracefully
into BSR: all samples are consumed and plain frequency estimates are
used.

Every world carries a fixed PRF *sample hash*
(:meth:`~repro.sampling.indexed.IndexedReverseSampler.world_hashes`),
worlds are materialised in ascending hash order in geometrically growing
chunks, and the stopping rule is the pure prefix scan
:func:`~repro.sketch.bottom_k.bottom_k_scan`.  Because both the hash
order and each world's outcome are pure functions of
``(seed, world, graph)``, the stopping point is chunk-schedule
independent — the property that lets the streaming
:class:`~repro.streaming.monitor.TopKMonitor` maintain BSRBK
incrementally, bit-identical to this one-shot path.
:func:`bottom_k_early_stop` is that early stop; the Table-3 scorer
(:func:`~repro.experiments.scoring.bsrbk_scores`) runs it too.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import DetectionResult, VulnerableNodeDetector
from repro.algorithms.bsr import assemble_answer
from repro.bounds.candidates import CandidateReduction, reduce_candidates
from repro.bounds.iterative import bound_pair
from repro.core.errors import SamplingError
from repro.core.graph import UncertainGraph
from repro.sampling.indexed import IndexedReverseSampler
from repro.sampling.rng import SeedLike
from repro.sampling.sample_size import reduced_sample_size, validate_epsilon_delta
from repro.sketch.bottom_k import bottom_k_scan

__all__ = ["BottomKDetector", "bottom_k_early_stop"]


def bottom_k_early_stop(
    graph: UncertainGraph,
    reduction: CandidateReduction,
    budget: int,
    bk: int,
    seed: SeedLike,
) -> tuple[int, bool, int, int, np.ndarray]:
    """Hash-ordered early stop over the candidates of *reduction*.

    Returns ``(processed, stopped_early, nodes_touched, edges_touched,
    estimates)``: the worlds the stopping rule consumed out of *budget*,
    whether it fired, the draws of exactly those worlds (a chunk's
    worlds past the stopping point are not charged), and the candidates'
    default-probability estimates clipped to ``[0, 1]``.
    """
    sampler = IndexedReverseSampler(graph, reduction.candidates, seed=seed)
    hashes = sampler.world_hashes(np.arange(budget, dtype=np.int64))
    order = np.argsort(hashes, kind="stable")
    sorted_hashes = hashes[order]
    outcome_parts: list[np.ndarray] = []
    node_parts: list[np.ndarray] = []
    edge_parts: list[np.ndarray] = []
    evaluated = 0
    chunk = max(64, sampler.world_batch)
    scan = None
    while evaluated < budget:
        take = min(chunk, budget - evaluated)
        chunk *= 2
        block = sampler.outcomes_for_worlds(order[evaluated : evaluated + take])
        outcome_parts.append(block.outcomes)
        node_parts.append(block.node_draws)
        edge_parts.append(block.edge_draws)
        evaluated += take
        scan = bottom_k_scan(
            np.concatenate(outcome_parts),
            sorted_hashes[:evaluated],
            bk,
            reduction.k_remaining,
            budget,
        )
        if scan.stopped_early:
            break
    node_draws = np.concatenate(node_parts)
    edge_draws = np.concatenate(edge_parts)
    return (
        scan.processed,
        scan.stopped_early,
        int(node_draws[: scan.processed].sum()),
        int(edge_draws[: scan.processed].sum()),
        np.clip(scan.estimates, 0.0, 1.0),
    )


class BottomKDetector(VulnerableNodeDetector):
    """BSR + bottom-k early stop (method **BSRBK**).

    Parameters
    ----------
    bk:
        The bottom-k counter threshold.  Figure 4 of the paper tunes it;
        precision saturates around 8–16, and the paper fixes 16.
    epsilon, delta:
        Budget parameters — BSRBK never samples *more* than the BSR budget
        of Equation (4).
    lower_order, upper_order:
        Bound iteration counts for Algorithms 2/3.
    seed:
        Randomness control (drives both the sample hashes and the worlds).
    """

    name = "BSRBK"

    def __init__(
        self,
        bk: int = 16,
        epsilon: float = 0.3,
        delta: float = 0.1,
        lower_order: int = 2,
        upper_order: int = 2,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(seed)
        if bk < 2:
            raise SamplingError(f"bk must be >= 2, got {bk}")
        self._bk = int(bk)
        self._epsilon, self._delta = validate_epsilon_delta(epsilon, delta)
        self._lower_order = int(lower_order)
        self._upper_order = int(upper_order)

    def _detect(self, graph: UncertainGraph, k: int) -> DetectionResult:
        lower, upper = bound_pair(graph, self._lower_order, self._upper_order)
        reduction = reduce_candidates(graph, lower, upper, k)
        processed = 0
        stopped_early = False
        nodes_touched = edges_touched = 0
        if reduction.k_remaining > 0:
            budget = reduced_sample_size(
                reduction.candidate_size,
                k,
                reduction.k_verified,
                self._epsilon,
                self._delta,
            )
            (
                processed,
                stopped_early,
                nodes_touched,
                edges_touched,
                probabilities,
            ) = bottom_k_early_stop(
                graph, reduction, budget, self._bk, self._seed
            )
        else:
            probabilities = None
        nodes, scores = assemble_answer(graph, reduction, lower, probabilities, k)
        return DetectionResult(
            method=self.name,
            k=k,
            nodes=nodes,
            scores=scores,
            samples_used=processed,
            candidate_size=reduction.candidate_size,
            k_verified=reduction.k_verified,
            elapsed_seconds=0.0,
            details={
                "bk": self._bk,
                "epsilon": self._epsilon,
                "delta": self._delta,
                "lower_order": self._lower_order,
                "upper_order": self._upper_order,
                "stopped_early": stopped_early,
                **reduction.summary(),
                "nodes_touched": nodes_touched,
                "edges_touched": edges_touched,
            },
        )
