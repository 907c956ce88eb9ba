"""Bottom-k sketches (Cohen & Kaplan) and the BSRBK early-stop machinery.

Section 2.2 of the paper: hash every distinct element of a multiset into
``(0, 1)``; the sketch keeps the ``bk`` smallest hash values and estimates
the number of distinct elements as ``(bk - 1) / L(A, bk)`` where
``L(A, bk)`` is the bk-th smallest hash.  The expected relative error is
``sqrt(2 / (pi (bk - 2)))`` and the coefficient of variation is at most
``1 / sqrt(bk - 2)``.

Section 3.3 uses the sketch as a *stopping rule*: assign every sample id a
uniform hash, process samples in ascending hash order, and count for each
candidate the samples in which it defaults.  The first candidate whose
counter reaches ``bk`` has, provably, the largest estimated default
probability (Theorem 6); for top-k, stop when ``k - k'`` candidates have
reached ``bk``.  :func:`bottom_k_scan` replays that rule over a whole
outcome matrix.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from repro.core.errors import SamplingError

__all__ = [
    "BottomKSketch",
    "BottomKScan",
    "bottom_k_scan",
    "expected_relative_error",
    "coefficient_of_variation",
]


def _validate_bk(bk: int) -> int:
    bk = int(bk)
    if bk < 2:
        raise SamplingError(f"bottom-k parameter bk must be >= 2, got {bk}")
    return bk


def expected_relative_error(bk: int) -> float:
    """Expected relative error of a bottom-k estimate: sqrt(2/(pi(bk-2)))."""
    bk = _validate_bk(bk)
    if bk <= 2:
        return math.inf
    return math.sqrt(2.0 / (math.pi * (bk - 2)))


def coefficient_of_variation(bk: int) -> float:
    """Upper bound on the coefficient of variation: 1/sqrt(bk-2)."""
    bk = _validate_bk(bk)
    if bk <= 2:
        return math.inf
    return 1.0 / math.sqrt(bk - 2)


class BottomKSketch:
    """Classic bottom-k distinct-count sketch over hash values in (0, 1).

    Maintains the ``bk`` smallest hashes seen so far with a max-heap, so
    inserts are ``O(log bk)``.

    Examples
    --------
    >>> sketch = BottomKSketch(bk=4)
    >>> for h in [0.9, 0.1, 0.4, 0.2, 0.05]:
    ...     sketch.add(h)
    >>> round(sketch.kth_smallest(), 2)
    0.4
    """

    def __init__(self, bk: int) -> None:
        self._bk = _validate_bk(bk)
        self._heap: list[float] = []  # max-heap via negation
        self._seen = 0

    @property
    def bk(self) -> int:
        """The sketch size parameter."""
        return self._bk

    @property
    def size(self) -> int:
        """How many hashes are currently retained (≤ bk)."""
        return len(self._heap)

    @property
    def is_full(self) -> bool:
        """Whether ``bk`` hashes have been retained."""
        return len(self._heap) == self._bk

    def add(self, hash_value: float) -> None:
        """Offer one hash value in ``(0, 1)`` to the sketch."""
        if not 0.0 < hash_value < 1.0:
            raise SamplingError(
                f"hash values must lie strictly in (0, 1), got {hash_value}"
            )
        self._seen += 1
        if len(self._heap) < self._bk:
            heapq.heappush(self._heap, -hash_value)
        elif hash_value < -self._heap[0]:
            heapq.heapreplace(self._heap, -hash_value)

    def update(self, hash_values) -> None:
        """Offer many hash values at once."""
        for value in hash_values:
            self.add(float(value))

    def kth_smallest(self) -> float:
        """``L(A, bk)`` — requires the sketch to be full."""
        if not self.is_full:
            raise SamplingError(
                f"sketch holds {self.size} < bk={self._bk} hashes; "
                "cannot read the bk-th smallest"
            )
        return -self._heap[0]

    def estimate_distinct(self) -> float:
        """Distinct-count estimate ``(bk - 1) / L(A, bk)``.

        Falls back to the exact retained count while the sketch is not yet
        full (every hash seen is retained, so the count is exact assuming
        hash uniqueness).
        """
        if not self.is_full:
            return float(self.size)
        return (self._bk - 1) / self.kth_smallest()


@dataclass(frozen=True)
class BottomKScan:
    """Result of one vectorised bottom-k stopping scan.

    Field-for-field equivalent to feeding the scanned rows, in order,
    through a scalar per-sample stopper (the tests pin the equivalence
    against one, ``tests/bottom_k_stopper.py``):

    Attributes
    ----------
    processed:
        Samples the stopper would have consumed — the row the
        ``stop_after``-th candidate finished on (inclusive), or all rows
        when the stop never fires.
    stopped_early:
        Whether ``stop_after`` candidates finished within the rows.
    finish_positions:
        Per-candidate row index (0-based) where the candidate's counter
        reached ``bk``; ``-1`` for candidates unfinished within
        ``processed``.
    counts:
        Per-candidate default counters over the processed prefix, frozen
        at ``bk`` exactly as the stopper freezes them.
    estimates:
        Per-candidate default-probability estimates: sketch estimates
        for finished candidates, empirical frequencies over the
        processed prefix otherwise.
    """

    processed: int
    stopped_early: bool
    finish_positions: np.ndarray
    counts: np.ndarray
    estimates: np.ndarray


def bottom_k_scan(
    outcomes: np.ndarray,
    hashes: np.ndarray,
    bk: int,
    stop_after: int,
    total_samples: int,
) -> BottomKScan:
    """Replay the bottom-k stopping rule over a whole outcome matrix.

    *outcomes* is the boolean ``(rows, candidates)`` default matrix in
    **ascending hash order**, *hashes* the matching sample hashes.  One
    cumulative-sum pass replaces a per-sample Python loop —
    and because the result is a pure function of the prefix (a longer
    prefix can only append later finishes, never move earlier ones), the
    scan gives the same stopping point no matter how incrementally the
    rows were materialised.  This is what lets BSRBK run over the
    indexed engine's order-independent worlds and lets the streaming
    monitor re-run the rule after splicing repaired worlds.
    """
    outcomes = np.asarray(outcomes, dtype=bool)
    if outcomes.ndim != 2 or outcomes.shape[0] == 0:
        raise SamplingError("outcomes must be a non-empty (rows, B) matrix")
    rows = outcomes.shape[0]
    hashes = np.asarray(hashes, dtype=np.float64)
    if hashes.shape != (rows,):
        raise SamplingError(
            f"need one hash per row: {hashes.shape} vs {rows} rows"
        )
    bk = _validate_bk(bk)
    if stop_after <= 0:
        raise SamplingError("stop_after must be positive")
    if total_samples <= 0:
        raise SamplingError("total_samples must be positive")
    cums = np.cumsum(outcomes, axis=0, dtype=np.int64)
    reached = cums >= bk
    finished_any = reached[-1]
    # argmax finds the first True row; candidates that never reach bk
    # sort past every real finish position via the sentinel ``rows``.
    finish = np.where(finished_any, reached.argmax(axis=0), rows)
    stopped_early = int(finished_any.sum()) >= stop_after
    if stopped_early:
        stop_position = int(
            np.partition(finish, stop_after - 1)[stop_after - 1]
        )
        processed = stop_position + 1
    else:
        processed = rows
    finished = finish < processed
    finish_positions = np.where(finished, finish, -1)
    counts = np.minimum(cums[processed - 1], bk)
    empirical = counts / float(processed)
    with np.errstate(divide="ignore", invalid="ignore"):
        sketched = (bk - 1) / (
            hashes[np.clip(finish_positions, 0, rows - 1)]
            * float(total_samples)
        )
    estimates = np.where(finished, sketched, empirical)
    return BottomKScan(
        processed=processed,
        stopped_early=stopped_early,
        finish_positions=finish_positions,
        counts=counts,
        estimates=estimates,
    )

