"""Admission control for the SLO-enforced front end.

Two cooperating pieces, both transport-agnostic and clock-injectable
(so the tests run with a fake clock, deterministic to the token):

* :class:`TokenBucket` — per-tenant rate limiting.  Refill is computed
  lazily from the injected monotonic clock; :meth:`TokenBucket.retry_after`
  is the honest wait until the next token exists, which the server
  surfaces as the ``Retry-After`` header of a 429.
* :class:`AdmissionController` — the gate itself: per-tenant buckets, a
  global in-flight cap on full (sampling) queries, and an
  ingestion-backlog limit; every rejection carries a machine-readable
  reason and a retry hint.  A failed :meth:`~AdmissionController.acquire_slot`
  is the server's one overload signal: it answers a top-k query from
  the Eq-(1) bounds instead of queueing it.

:class:`FrontendStats` is the single counters struct the overload
benchmark reconciles against: every request the server receives ends in
exactly one of admitted-completed / degraded / rejected / failed.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Hashable

__all__ = [
    "TokenBucket",
    "AdmissionController",
    "AdmissionDecision",
    "FrontendStats",
]

TenantId = Hashable
Clock = Callable[[], float]


class TokenBucket:
    """Classic token bucket: *rate* tokens/second, capacity *burst*.

    Not thread-safe by itself — the controller serialises access.
    """

    def __init__(
        self, rate: float, burst: float, *, clock: Clock = time.monotonic
    ) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self._rate = float(rate)
        self._burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._stamp = clock()

    def _refill(self) -> None:
        now = self._clock()
        self._tokens = min(
            self._burst, self._tokens + (now - self._stamp) * self._rate
        )
        self._stamp = now

    def try_acquire(self, tokens: float = 1.0) -> bool:
        """Take *tokens* if available; ``False`` (and no debit) if not."""
        self._refill()
        if self._tokens >= tokens:
            self._tokens -= tokens
            return True
        return False

    def retry_after(self, tokens: float = 1.0) -> float:
        """Seconds until *tokens* will be available at the current rate."""
        self._refill()
        missing = tokens - self._tokens
        return max(0.0, missing / self._rate)


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission check."""

    admitted: bool
    reason: str = "ok"
    retry_after: float = 0.0


@dataclass
class FrontendStats:
    """Every request ends in exactly one terminal counter.

    ``received == completed + degraded + rejected_rate +
    rejected_capacity + rejected_backlog + auth_failures + bad_requests
    + errors + fenced`` — the reconciliation the overload benchmark
    gates on.
    ``timeouts`` double-counts inside ``degraded`` (a deadline
    expiry *is* served degraded) and exists to split deadline from
    capacity degradation.
    """

    received: int = 0
    completed: int = 0
    degraded: int = 0
    timeouts: int = 0
    rejected_rate: int = 0
    rejected_capacity: int = 0
    rejected_backlog: int = 0
    auth_failures: int = 0
    bad_requests: int = 0
    errors: int = 0
    #: Writes refused because this node's epoch was superseded — the
    #: 503 tells the client to re-discover the promoted primary.
    fenced: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def bump(self, counter: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + amount)

    def as_dict(self) -> dict[str, int]:
        with self._lock:
            return {
                "received": self.received,
                "completed": self.completed,
                "degraded": self.degraded,
                "timeouts": self.timeouts,
                "rejected_rate": self.rejected_rate,
                "rejected_capacity": self.rejected_capacity,
                "rejected_backlog": self.rejected_backlog,
                "auth_failures": self.auth_failures,
                "bad_requests": self.bad_requests,
                "errors": self.errors,
                "fenced": self.fenced,
            }

    def accounted(self) -> int:
        """Sum of the terminal counters (must equal ``received``)."""
        totals = self.as_dict()
        return (
            totals["completed"]
            + totals["degraded"]
            + totals["rejected_rate"]
            + totals["rejected_capacity"]
            + totals["rejected_backlog"]
            + totals["auth_failures"]
            + totals["bad_requests"]
            + totals["errors"]
            + totals["fenced"]
        )


class AdmissionController:
    """The front end's gate: rate, concurrency, and backlog limits.

    Parameters
    ----------
    rate_limit:
        Requests/second each tenant may sustain (token-bucket refill).
    burst:
        Bucket capacity — short bursts above the rate that are absorbed.
    max_inflight:
        Global cap on concurrently executing *full* queries (the
        sampling path; degraded answers bypass this, that's the point).
    queue_depth_limit:
        Reject ingestion once the service's buffered-event backlog
        exceeds this (the shard futures behind it are what actually
        back up).
    clock:
        Injectable monotonic clock shared by every tenant bucket.
    """

    def __init__(
        self,
        *,
        rate_limit: float = 50.0,
        burst: float | None = None,
        max_inflight: int = 8,
        queue_depth_limit: int = 4096,
        clock: Clock = time.monotonic,
    ) -> None:
        self._rate = float(rate_limit)
        self._burst = float(burst) if burst is not None else max(
            1.0, self._rate / 2.0
        )
        self._max_inflight = int(max_inflight)
        self._queue_depth_limit = int(queue_depth_limit)
        self._clock = clock
        self._buckets: dict[TenantId, TokenBucket] = {}
        self._inflight = 0
        self._lock = threading.Lock()

    @property
    def max_inflight(self) -> int:
        return self._max_inflight

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    def _bucket(self, tenant_id: TenantId) -> TokenBucket:
        bucket = self._buckets.get(tenant_id)
        if bucket is None:
            bucket = self._buckets[tenant_id] = TokenBucket(
                self._rate, self._burst, clock=self._clock
            )
        return bucket

    def admit(
        self, tenant_id: TenantId, *, queue_depth: int = 0
    ) -> AdmissionDecision:
        """Check rate + backlog for one request (no concurrency debit)."""
        with self._lock:
            bucket = self._bucket(tenant_id)
            if not bucket.try_acquire():
                return AdmissionDecision(
                    False, "rate", max(0.001, bucket.retry_after())
                )
        if queue_depth > self._queue_depth_limit:
            # The backlog drains at the shards' pace; a half-window is
            # an honest first retry hint without tracking drain rate.
            return AdmissionDecision(False, "backlog", 0.05)
        return AdmissionDecision(True)

    def acquire_slot(self) -> bool:
        """Claim one full-query concurrency slot (False = saturated)."""
        with self._lock:
            if self._inflight >= self._max_inflight:
                return False
            self._inflight += 1
            return True

    def release_slot(self) -> None:
        """Return a slot (safe from executor threads)."""
        with self._lock:
            self._inflight = max(0, self._inflight - 1)
