"""Synchronous client for the SLO-enforced front end.

A thin, dependency-free (:mod:`http.client`) helper that speaks the
protocol of :class:`~repro.frontend.server.FrontendServer` and bakes in
the polite-client behaviours the admission controller is designed
around:

* **retry with jittered exponential backoff** — retryable outcomes
  (connection refused/reset, 429, 503) sleep
  ``min(cap, base · 2^attempt) · uniform(0.5, 1.0)`` between attempts,
  decorrelating competing clients instead of letting them stampede in
  lockstep;
* **Retry-After is honoured** — when a 429 names a wait, that wait
  *replaces* the computed backoff (the server knows its own refill
  schedule better than the client's guess);
* **bounded attempts** — after ``retries`` failures the last error
  surfaces as :class:`~repro.core.errors.FrontendError` (or the last
  429 response is returned, so callers can inspect it);
* **writes are never re-sent blind** — ``/v1/update`` and
  ``/v1/register`` retry only when the server provably did not apply
  them: the connection was refused, or the server answered 429 or 503.
  Any other transport error may land after the server applied the
  write, so it surfaces after one attempt.

The sleeper and RNG are injectable, so the backoff schedule is
unit-testable without sleeping.
"""

from __future__ import annotations

import http.client
import json
import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Mapping

from repro.core.errors import FrontendError
from repro.frontend.protocol import event_to_json
from repro.streaming.events import UpdateEvent

__all__ = ["ClientResponse", "FrontendClient"]

TenantId = Hashable
#: Outcomes worth retrying: overload and transient transport failures.
_RETRYABLE_STATUSES = (429, 503)
#: Routes that change server state (see the module docstring).
_WRITE_PATHS = frozenset({"/v1/update", "/v1/register"})


@dataclass(frozen=True)
class ClientResponse:
    """Status + decoded JSON payload of one completed exchange."""

    status: int
    payload: Any
    headers: Mapping[str, str]

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


class FrontendClient:
    """Call a :class:`FrontendServer`; retries overload politely.

    Queries retry any transport error; writes retry only a refused
    connection (see the module docstring).

    Parameters
    ----------
    host, port:
        The server's bind address.
    token:
        Bearer token presented on every request.
    tenant:
        Default tenant for the convenience methods.
    retries:
        Attempts per request (1 = no retry).
    backoff, backoff_cap:
        Base and ceiling (seconds) of the exponential schedule.
    timeout:
        Per-connection socket timeout.
    sleep, rng:
        Injectable for tests: the sleeper receives the computed delay;
        the RNG drives the jitter.
    """

    def __init__(
        self,
        host: str,
        port: int,
        token: str,
        *,
        tenant: TenantId | None = None,
        retries: int = 5,
        backoff: float = 0.05,
        backoff_cap: float = 2.0,
        timeout: float = 10.0,
        sleep: Callable[[float], None] = time.sleep,
        rng: random.Random | None = None,
    ) -> None:
        if retries < 1:
            raise FrontendError(f"retries must be >= 1, got {retries}")
        self._host = host
        self._port = int(port)
        self._token = str(token)
        self._tenant = tenant
        self._retries = int(retries)
        self._backoff = float(backoff)
        self._backoff_cap = float(backoff_cap)
        self._timeout = float(timeout)
        self._sleep = sleep
        self._rng = rng if rng is not None else random.Random()
        #: Backoff sleeps actually performed (observability + tests).
        self.backoffs: list[float] = []

    # ------------------------------------------------------------------
    def _delay(self, attempt: int, retry_after: float | None) -> float:
        if retry_after is not None:
            return max(0.0, retry_after)
        window = min(self._backoff_cap, self._backoff * (2.0 ** attempt))
        return window * (0.5 + self._rng.random() / 2.0)

    def _once(
        self, method: str, path: str, payload: Any
    ) -> ClientResponse:
        connection = http.client.HTTPConnection(
            self._host, self._port, timeout=self._timeout
        )
        try:
            body = None if payload is None else json.dumps(payload)
            connection.request(
                method,
                path,
                body=body,
                headers={
                    "Authorization": f"Bearer {self._token}",
                    "Content-Type": "application/json",
                    "Connection": "close",
                },
            )
            response = connection.getresponse()
            raw = response.read()
            headers = {
                name.lower(): value for name, value in response.getheaders()
            }
            decoded = json.loads(raw) if raw else None
            return ClientResponse(response.status, decoded, headers)
        finally:
            connection.close()

    def request(
        self, method: str, path: str, payload: Any = None
    ) -> ClientResponse:
        """One request with the retry policy applied."""
        last_error: Exception | None = None
        last_response: ClientResponse | None = None
        for attempt in range(self._retries):
            try:
                response = self._once(method, path, payload)
            except (ConnectionError, OSError, http.client.HTTPException) as error:
                last_error, last_response = error, None
                if path in _WRITE_PATHS and not isinstance(
                    error, ConnectionRefusedError
                ):
                    raise FrontendError(
                        f"{method} {path} failed after it may have "
                        f"reached the server, not re-sent: {error}"
                    ) from error
            else:
                if response.status not in _RETRYABLE_STATUSES:
                    return response
                last_error, last_response = None, response
            if attempt + 1 >= self._retries:
                break
            retry_after = None
            if last_response is not None:
                header = last_response.headers.get("retry-after")
                if header is not None:
                    try:
                        retry_after = float(header)
                    except ValueError:
                        retry_after = None
            delay = self._delay(attempt, retry_after)
            self.backoffs.append(delay)
            self._sleep(delay)
        if last_response is not None:
            return last_response  # a final 429/503 — caller inspects it
        raise FrontendError(
            f"{method} {path} failed after {attempt + 1} attempts: "
            f"{last_error}"
        )

    # ------------------------------------------------------------------
    # Convenience endpoints
    # ------------------------------------------------------------------
    def _resolve(self, tenant: TenantId | None) -> TenantId:
        tenant = tenant if tenant is not None else self._tenant
        if tenant is None:
            raise FrontendError("no tenant given and no default configured")
        return tenant

    def healthz(self) -> bool:
        return bool(self.request("GET", "/healthz").ok)

    def stats(self) -> dict:
        response = self.request("GET", "/v1/stats")
        if not response.ok:
            raise FrontendError(f"stats failed: {response.status}")
        return response.payload

    def register(
        self, k: int, *, tenant: TenantId | None = None, **kwargs
    ) -> ClientResponse:
        return self.request(
            "POST",
            "/v1/register",
            {"tenant": self._resolve(tenant), "k": k, "kwargs": kwargs},
        )

    def update(
        self,
        event: UpdateEvent,
        *,
        tenant: TenantId | None = None,
        ack: str = "window",
        ack_timeout: float | None = None,
    ) -> ClientResponse:
        """Submit one event; *ack* selects the durability guarantee.

        ``window`` (default) returns once the event is buffered;
        ``durable`` once its batch is fsynced on the primary (the
        response carries the WAL ``seq``); ``replicated`` additionally
        waits — bounded by *ack_timeout* — for a replica ack, reported
        honestly in the response's ``replicated`` flag.
        """
        payload: dict = {
            "tenant": self._resolve(tenant),
            "event": event_to_json(event),
        }
        if ack != "window":
            payload["ack"] = str(ack)
            if ack_timeout is not None:
                payload["timeout"] = float(ack_timeout)
        return self.request("POST", "/v1/update", payload)

    def query(
        self,
        *,
        tenant: TenantId | None = None,
        budget_ms: float | None = None,
        allow_degraded: bool = True,
        family: str | None = None,
        params: Mapping | None = None,
    ) -> ClientResponse:
        """Query the tenant's current answer.

        With *family* set (``"kcore"``, ``"reliability"``, ``"skyline"``,
        …) the request routes to that registered query family over the
        tenant's shared repaired worlds; *params* carries its keyword
        arguments.  Default is the top-k path.
        """
        payload: dict = {
            "tenant": self._resolve(tenant),
            "allow_degraded": allow_degraded,
        }
        if budget_ms is not None:
            payload["budget_ms"] = float(budget_ms)
        if family is not None:
            payload["family"] = str(family)
            if params:
                payload["params"] = dict(params)
        return self.request("POST", "/v1/query", payload)
