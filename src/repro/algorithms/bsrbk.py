"""Method BSRBK — BSR with bottom-k early stopping (Section 3.3).

BSRBK runs the same pipeline as BSR but does not always spend the full
Equation-(4) budget: every sample id receives a uniform hash, samples are
materialised in ascending hash order, and per-candidate default counters
stop processing as soon as ``k - k'`` candidates accumulate ``bk``
defaults — Theorem 6 guarantees they are the (estimated) most vulnerable.
If the stopping condition never fires, the method degrades gracefully
into BSR: all samples are consumed and plain frequency estimates are
used.

Two equivalent executions, selected by the engine:

* ``"reference"``: sample hashes come from the detector's generator,
  worlds are consumed one at a time in hash order through
  :class:`~repro.sketch.bottom_k.BottomKStopper`;
* ``"indexed"`` (default): every world carries a fixed PRF *sample
  hash* (:meth:`~repro.sampling.indexed.IndexedReverseSampler.
  world_hashes`), worlds are materialised in ascending hash order in
  geometrically growing chunks, and the stopping rule is the pure
  prefix scan :func:`~repro.sketch.bottom_k.bottom_k_scan`.  Because
  both the hash order and each world's outcome are pure functions of
  ``(seed, world, graph)``, the stopping point is chunk-schedule
  independent — the property that lets the streaming
  :class:`~repro.streaming.monitor.TopKMonitor` maintain BSRBK
  incrementally, bit-identical to this one-shot path.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import DetectionResult, VulnerableNodeDetector
from repro.algorithms.bsr import assemble_answer
from repro.bounds.candidates import reduce_candidates
from repro.bounds.iterative import bound_pair
from repro.core.errors import SamplingError
from repro.core.graph import UncertainGraph
from repro.sampling.reverse import reverse_engine
from repro.sampling.rng import SeedLike, make_rng
from repro.sampling.sample_size import reduced_sample_size, validate_epsilon_delta
from repro.sketch.bottom_k import BottomKStopper, bottom_k_scan

__all__ = ["BottomKDetector"]


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
    engine:
        Reverse-sampling engine: ``"indexed"`` (counter-PRF worlds with
        fixed sample hashes, early stop chunk-schedule independent —
        the default) or ``"reference"`` (the per-candidate Algorithm-5
        BFS, consumed one world at a time).
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
        engine: str = "indexed",
    ) -> None:
        super().__init__(seed)
        if bk < 2:
            raise SamplingError(f"bk must be >= 2, got {bk}")
        self._bk = int(bk)
        self._epsilon, self._delta = validate_epsilon_delta(epsilon, delta)
        self._lower_order = int(lower_order)
        self._upper_order = int(upper_order)
        self._engine_name = str(engine)
        self._engine = reverse_engine(engine)

    def _run_indexed(self, graph, reduction, budget):
        """Hash-ordered early stop over order-independent indexed worlds."""
        sampler = self._engine(graph, reduction.candidates, seed=self._seed)
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
            block = sampler.outcomes_for_worlds(
                order[evaluated : evaluated + take]
            )
            outcome_parts.append(block.outcomes)
            node_parts.append(block.node_draws)
            edge_parts.append(block.edge_draws)
            evaluated += take
            scan = bottom_k_scan(
                np.concatenate(outcome_parts),
                sorted_hashes[:evaluated],
                self._bk,
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

    def _run_stream(self, graph, reduction, budget, rng):
        """Reference-engine early stop through the scalar stopper."""
        # Hash every sample id; since sample contents are i.i.d. and
        # independent of the hashes, materialising them in ascending
        # hash order is distributionally identical to materialising
        # them in id order and sorting afterwards — but lets us stop.
        hashes = np.sort(rng.random(budget))
        stopper = BottomKStopper(
            num_candidates=reduction.candidate_size,
            bk=self._bk,
            total_samples=budget,
            stop_after=reduction.k_remaining,
        )
        stopped_early = False
        sampler = self._engine(graph, reduction.candidates, seed=rng)
        for sample_hash, outcome in zip(
            hashes, sampler.iter_samples(budget)
        ):
            stopper.offer(float(sample_hash), outcome)
            if stopper.should_stop:
                stopped_early = True
                break
        return (
            stopper.processed,
            stopped_early,
            sampler.nodes_touched,
            sampler.edges_touched,
            np.clip(stopper.estimates(), 0.0, 1.0),
        )

    def _detect(self, graph: UncertainGraph, k: int) -> DetectionResult:
        rng = make_rng(self._seed)
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
            if self._engine_name == "indexed":
                runner = self._run_indexed(graph, reduction, budget)
            else:
                runner = self._run_stream(graph, reduction, budget, rng)
            (
                processed,
                stopped_early,
                nodes_touched,
                edges_touched,
                probabilities,
            ) = runner
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
