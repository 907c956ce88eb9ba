"""The scalar bottom-k stopper, kept as the test oracle.

:func:`repro.sketch.bottom_k.bottom_k_scan` must stop where feeding the
same rows, one sample at a time, through this stopper does, with the
same counts and estimates; ``test_sketch.py`` drives both side by side.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import SamplingError
from repro.sketch.bottom_k import _validate_bk


class BottomKStopper:
    """Early-stopping bookkeeping for BSRBK (Section 3.3).

    Samples must be fed in **ascending hash order**.  For each sample the
    caller reports which candidates defaulted; the stopper counts per
    candidate and freezes a candidate once its counter reaches ``bk``,
    recording the hash at which it finished (its ``L(A, bk)``).

    Parameters
    ----------
    num_candidates:
        Size of the candidate set being tracked.
    bk:
        Counter threshold (the bottom-k parameter).
    total_samples:
        The full sample budget ``t`` the hashes were drawn over; needed to
        turn distinct-count estimates into probabilities.
    stop_after:
        Stop once this many candidates have finished (``k - k'``).
    """

    def __init__(
        self, num_candidates: int, bk: int, total_samples: int, stop_after: int
    ) -> None:
        if num_candidates <= 0:
            raise SamplingError("num_candidates must be positive")
        if total_samples <= 0:
            raise SamplingError("total_samples must be positive")
        if stop_after <= 0:
            raise SamplingError("stop_after must be positive")
        self._bk = _validate_bk(bk)
        self._total_samples = int(total_samples)
        self._stop_after = int(stop_after)
        self._counts = np.zeros(num_candidates, dtype=np.int64)
        self._finish_hash = np.full(num_candidates, np.nan)
        self._finished_order: list[int] = []
        self._processed = 0
        self._last_hash = 0.0

    @property
    def processed(self) -> int:
        """Number of samples consumed so far."""
        return self._processed

    @property
    def counts(self) -> np.ndarray:
        """Per-candidate default counters (read-only view)."""
        return self._counts

    @property
    def finished(self) -> list[int]:
        """Candidate positions that reached ``bk``, in finishing order."""
        return list(self._finished_order)

    @property
    def should_stop(self) -> bool:
        """Whether ``stop_after`` candidates have finished."""
        return len(self._finished_order) >= self._stop_after

    def offer(self, sample_hash: float, outcome: np.ndarray) -> list[int]:
        """Consume one sample; return candidates that finished on it.

        Parameters
        ----------
        sample_hash:
            The sample's hash; must be non-decreasing across calls.
        outcome:
            Boolean vector over candidates ("defaulted in this world").
        """
        if sample_hash < self._last_hash:
            raise SamplingError(
                "samples must be offered in ascending hash order: "
                f"{sample_hash} < {self._last_hash}"
            )
        self._last_hash = float(sample_hash)
        self._processed += 1
        outcome = np.asarray(outcome, dtype=bool)
        if outcome.shape != self._counts.shape:
            raise SamplingError(
                f"outcome has shape {outcome.shape}, "
                f"expected {self._counts.shape}"
            )
        newly_finished: list[int] = []
        active = outcome & np.isnan(self._finish_hash)
        hits = np.flatnonzero(active)
        self._counts[hits] += 1
        for position in hits:
            if self._counts[position] >= self._bk:
                self._finish_hash[position] = sample_hash
                self._finished_order.append(int(position))
                newly_finished.append(int(position))
        return newly_finished

    def estimates(self) -> np.ndarray:
        """Per-candidate default-probability estimates.

        Finished candidates use the sketch estimate
        ``(bk - 1) / (L(A, bk) * t)`` (Theorem 6); unfinished candidates
        fall back to the empirical frequency over the processed prefix.
        Finished estimates dominate unfinished ones by construction of the
        ascending-hash processing order.
        """
        if self._processed == 0:
            raise SamplingError("no samples processed yet")
        empirical = self._counts / float(self._processed)
        with np.errstate(divide="ignore", invalid="ignore"):
            sketched = (self._bk - 1) / (self._finish_hash * self._total_samples)
        return np.where(np.isnan(self._finish_hash), empirical, sketched)
