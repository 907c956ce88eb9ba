"""Timing arithmetic shared by every workload.

* :func:`median` / :func:`tail` — a median is always reported with its
  sample count; a tail percentile only when at least ten samples lie
  beyond it (so p99 needs 1,000 samples, p90 needs 100).
* :func:`run_open_loop` — an open-loop lane: requests are sent on a
  fixed schedule regardless of how fast the server answers, and every
  latency is measured from the request's *due* time, so a stall shows
  up in the latency of every request that queued behind it.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

#: Samples that must lie strictly beyond a reported tail percentile.
MIN_BEYOND = 10


def median(samples: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    if not samples:
        raise ValueError("median of an empty sample")
    return float(statistics.median(samples))


def beyond(count: int, q: float) -> int:
    """Samples above the nearest-rank *q*-percentile of *count* samples."""
    rank = max(1, math.ceil(q * count))
    return count - rank


def percentile(samples: Sequence[float], q: float) -> float | None:
    """Nearest-rank *q*-percentile, or ``None`` when fewer than
    :data:`MIN_BEYOND` samples lie beyond it."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q}")
    count = len(samples)
    if count == 0 or beyond(count, q) < MIN_BEYOND:
        return None
    ordered = sorted(samples)
    return float(ordered[max(1, math.ceil(q * count)) - 1])


def tail(samples: Sequence[float]) -> tuple[str, float] | None:
    """The highest of p99/p90/p75 the sample supports, as ``(label, value)``."""
    for label, q in (("p99", 0.99), ("p90", 0.90), ("p75", 0.75)):
        value = percentile(samples, q)
        if value is not None:
            return label, value
    return None


def describe(samples: Sequence[float], scale: float = 1e3, unit: str = "ms") -> str:
    """One human line: ``n=…, p50=…, <tail>=…`` (tail only if supported)."""
    if not samples:
        return "n=0"
    text = f"n={len(samples)} p50={median(samples) * scale:.3f}{unit}"
    top = tail(samples)
    if top is None:
        return text + " (no tail: <10 samples beyond p75)"
    return text + f" {top[0]}={top[1] * scale:.3f}{unit}"


@dataclass
class LaneRecord:
    """What one open-loop lane measured, aligned by request index."""

    latency: list[float] = field(default_factory=list)
    lateness: list[float] = field(default_factory=list)
    outcomes: list[object] = field(default_factory=list)


def run_open_loop(
    due_offsets: Sequence[float],
    send: Callable[[int], object],
    *,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
    start: float | None = None,
) -> LaneRecord:
    """Send request ``i`` at ``start + due_offsets[i]``, one at a time.

    A lane holds one connection, so a request due while the previous
    one is still outstanding goes out late; its latency still counts
    from the due time (``done - due``), and ``sent - due`` is recorded
    as the generator's lateness.  ``send(i)`` returns the outcome
    stored in :attr:`LaneRecord.outcomes`.
    """
    origin = clock() if start is None else start
    record = LaneRecord()
    for index, offset in enumerate(due_offsets):
        due = origin + offset
        wait = due - clock()
        if wait > 0:
            sleep(wait)
        sent = clock()
        outcome = send(index)
        done = clock()
        record.latency.append(done - due)
        record.lateness.append(max(0.0, sent - due))
        record.outcomes.append(outcome)
    return record
