"""Common interface and result type for the five detection algorithms.

Every detector consumes an :class:`~repro.core.graph.UncertainGraph` and an
answer size ``k`` and produces a :class:`DetectionResult` — the ranked
top-k vulnerable nodes plus enough telemetry (sample counts, candidate
sizes, wall time) for the efficiency experiments of Figure 6 to be
regenerated without re-instrumenting the algorithms.
"""

from __future__ import annotations

import abc
import dataclasses
import time
from dataclasses import dataclass, field
from typing import Any

from repro.core.graph import NodeLabel, UncertainGraph
from repro.core.topk import validate_k
from repro.sampling.rng import SeedLike

__all__ = ["DetectionResult", "VulnerableNodeDetector"]


@dataclass(frozen=True)
class DetectionResult:
    """Outcome of one top-k vulnerable nodes detection run.

    Attributes
    ----------
    method:
        Short method name ("N", "SN", "SR", "BSR", "BSRBK").
    k:
        Requested answer size.
    nodes:
        The ``k`` detected labels, most vulnerable first.
    scores:
        Mapping from each returned label to the score it was ranked by
        (estimated default probability; for bound-verified nodes, the
        lower bound that certified them).
    samples_used:
        Number of possible worlds materialised.
    candidate_size:
        ``|B|`` after pruning (equals ``n`` for methods without pruning).
    k_verified:
        ``k'`` — answers certified by Lemma 1 rule 1 without sampling.
    elapsed_seconds:
        Wall-clock time of the detection call.
    details:
        Free-form per-method diagnostics (thresholds, bound orders, …).
    stale:
        ``False`` for every freshly computed answer, and for every
        answer a primary serves.  A replica sets ``True`` on an answer
        from its applied state while it knows the primary is ahead —
        correct as of its applied seq, possibly behind the durable
        stream.  Not part of :meth:`same_answer` (staleness is serving
        metadata, not answer content).
    degraded:
        ``False`` for every exact answer.  The SLO-enforced front end
        sets ``True`` on a *bounds-only* answer — a ranking assembled
        from the always-warm Eq-(1) lower/upper iterates alone, served
        when the full sampling repair would blow the caller's latency
        budget.  A degraded answer is bounds-consistent (every reported
        node's upper bound reaches the k-th largest lower bound) but
        not the Theorem-5 estimate; like ``stale`` it is serving
        metadata, excluded from :meth:`same_answer`.
    """

    method: str
    k: int
    nodes: list[NodeLabel]
    scores: dict[NodeLabel, float]
    samples_used: int
    candidate_size: int
    k_verified: int
    elapsed_seconds: float
    details: dict[str, Any] = field(default_factory=dict)
    stale: bool = False
    degraded: bool = False

    def top_set(self) -> frozenset:
        """The answer as a set (what precision@k compares)."""
        return frozenset(self.nodes)

    def same_answer(self, other: "DetectionResult") -> bool:
        """Bit-identity of the *answer* with another result.

        The single definition of the repository's equivalence contract
        (incremental monitors and the serving layer promise answers
        ``same_answer``-equal to fresh detection): ranked nodes, their
        scores, the sample budget, and the Algorithm-4 outcome — but not
        wall-clock or free-form diagnostics, which legitimately differ.
        """
        return (
            self.nodes == other.nodes
            and self.scores == other.scores
            and self.samples_used == other.samples_used
            and self.candidate_size == other.candidate_size
            and self.k_verified == other.k_verified
        )

    def summary(self) -> dict[str, Any]:
        """Flat dict for experiment tables."""
        return {
            "method": self.method,
            "k": self.k,
            "samples": self.samples_used,
            "candidates": self.candidate_size,
            "verified": self.k_verified,
            "seconds": round(self.elapsed_seconds, 4),
        }


class VulnerableNodeDetector(abc.ABC):
    """Abstract base class for top-k vulnerable node detectors.

    Subclasses implement :meth:`_detect`; the public :meth:`detect` wraps
    it with argument validation and wall-clock timing so every method is
    measured identically in the benchmarks.

    Parameters
    ----------
    seed:
        Seed/generator for all randomness of this detector instance.
    """

    #: Short name used in experiment tables; subclasses override.
    name: str = "abstract"

    def __init__(self, seed: SeedLike = None) -> None:
        self._seed = seed

    @abc.abstractmethod
    def _detect(self, graph: UncertainGraph, k: int) -> DetectionResult:
        """Run the detection; *k* is already validated."""

    def detect(self, graph: UncertainGraph, k: int) -> DetectionResult:
        """Detect the top-*k* vulnerable nodes of *graph*.

        Raises
        ------
        GraphError
            If ``k`` is not in ``[1, n]`` or the graph is empty.
        """
        k = validate_k(k, graph.num_nodes)
        started = time.perf_counter()
        result = self._detect(graph, k)
        elapsed = time.perf_counter() - started
        # Timing is recorded here so subclasses cannot forget it; the
        # dataclass is frozen, so swap in the measured elapsed time with
        # `replace`, which carries every other field (present and
        # future) along unchanged.
        return dataclasses.replace(result, elapsed_seconds=elapsed)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
