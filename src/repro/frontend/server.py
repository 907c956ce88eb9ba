"""The SLO-enforced network front end over a :class:`RiskService`.

One :class:`FrontendServer` binds an ``asyncio`` HTTP/JSON endpoint
(:mod:`repro.frontend.protocol`) in front of a
:class:`~repro.serving.service.RiskService` and enforces, per request:

1. **Authentication** — per-tenant bearer tokens, compared with
   :func:`hmac.compare_digest`; a token only opens its own tenant.
2. **Admission** (:class:`~repro.frontend.admission.AdmissionController`)
   — per-tenant token-bucket rate limits, a global in-flight cap on
   full sampling queries, and an ingestion-backlog limit; every
   rejection is a ``429`` carrying ``Retry-After``.
3. **Deadlines** — every query carries a latency budget (body
   ``budget_ms``, header ``X-Budget-Ms``, or the server's SLO default).
   A top-k query that finds every full-query slot taken is answered
   *degraded* from the always-warm bounds
   (:meth:`RiskService.query_degraded`) without entering the shard
   queue, reason ``capacity``; a full query that overruns its deadline
   is answered degraded the moment the budget expires, reason
   ``deadline``, while the real computation finishes in the
   background.  Every other query runs exact.

The endpoints:

========  =========================  =====================================
method    path                       body / semantics
========  =========================  =====================================
GET       /healthz                   liveness (no auth)
GET       /v1/health                 role/epoch/lag report (no auth)
GET       /v1/stats                  counters: frontend, queue, cache
POST      /v1/register               ``{tenant, k, kwargs?}``
POST      /v1/update                 ``{tenant, event, ack?}`` → ``{accepted}``
POST      /v1/query                  ``{tenant, budget_ms?, allow_degraded?}``
POST      /v1/replication/fetch      WAL chunk pull (cluster token)
POST      /v1/replication/bootstrap  snapshot files (cluster token)
========  =========================  =====================================

``/v1/update`` accepts an ``ack`` level: ``window`` (default — the
historical buffered-accept), ``durable`` (returns after the event's
batch is fsynced, with its WAL ``seq``), or ``replicated`` (durable
plus waits — bounded — for a replica ack; ``replicated: false`` on
timeout is an honest non-ack, the event is still durable locally).
Writes refused because this node's epoch was superseded answer ``503``
with ``Retry-After`` so clients re-route to the promoted primary.

Every query response reports ``degraded`` / ``stale`` flags and an
``X-Elapsed-Ms`` header (server-side handling time — what the SLO gate
in the benchmark measures).  Per-connection failures are contained:
a malformed request costs that connection a 400, never the process.
"""

from __future__ import annotations

import asyncio
import base64
import hmac
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Hashable, Mapping

from repro.core.errors import (
    FencedError,
    FrontendError,
    GraphError,
    ProbabilityError,
    ReproError,
)
from repro.frontend.admission import AdmissionController, FrontendStats
from repro.frontend.protocol import (
    HttpRequest,
    event_from_json,
    read_request,
    write_response,
)
from repro.io.jsonio import result_to_dict
from repro.queries.base import QueryResult
from repro.serving.service import RiskService

__all__ = ["FrontendServer"]

TenantId = Hashable
_LOG = logging.getLogger(__name__)

#: Fraction of the budget a full query may consume before the degraded
#: fallback fires; the remainder pays for the bounds evaluation and
#: serialisation.
DEADLINE_MARGIN = 0.85


def _submit_valid(submit, tenant: TenantId, event):
    """Call *submit*; an event the tenant's monitor refuses is a 400.

    The service validates before queueing, so the refused event was
    never accepted and the client may correct and resend it.
    """
    try:
        return submit(tenant, event)
    except (GraphError, ProbabilityError) as error:
        raise FrontendError(f"invalid update: {error}") from None


class FrontendServer:
    """Serve a :class:`RiskService` over HTTP with SLO enforcement.

    Parameters
    ----------
    service:
        The serving layer to front.  The server runs the service's
        async flush pump for as long as it is started; the caller keeps
        ownership (and closes the service after :meth:`stop`).
    tokens:
        ``tenant_id -> bearer token``.  Only listed tenants can
        authenticate; requests must present their own tenant's token.
    host, port:
        Bind address; ``port=0`` picks a free port (see :attr:`port`).
    slo_ms:
        Default per-query latency budget when the request names none.
    rate_limit, burst, max_inflight, queue_depth_limit:
        Admission knobs — see
        :class:`~repro.frontend.admission.AdmissionController`.
    flush_interval:
        Cadence of the service's background ingestion pump.
    snapshot_interval:
        Forwarded to :meth:`RiskService.serve` — seconds between
        rotated disk snapshots (durable services only).
    replication:
        Optional :class:`~repro.replication.hub.ReplicationHub` for
        this (primary) service; enables the ``/v1/replication/*``
        routes and the ``ack=replicated`` write level.
    cluster_token:
        Shared bearer token authenticating replication peers.  The
        replication routes answer 401 without it — it is distinct from
        every tenant token on purpose (a tenant must not be able to
        pull the whole cluster's WAL).
    """

    def __init__(
        self,
        service: RiskService,
        tokens: Mapping[TenantId, str],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        slo_ms: float = 250.0,
        rate_limit: float = 50.0,
        burst: float | None = None,
        max_inflight: int = 8,
        queue_depth_limit: int = 4096,
        flush_interval: float = 0.02,
        snapshot_interval: float | None = None,
        replication=None,
        cluster_token: str | None = None,
    ) -> None:
        if slo_ms <= 0:
            raise FrontendError(f"slo_ms must be > 0, got {slo_ms}")
        self._service = service
        self._tokens = {
            tenant: str(token) for tenant, token in dict(tokens).items()
        }
        self._host = host
        self._requested_port = int(port)
        self._slo_ms = float(slo_ms)
        self._flush_interval = float(flush_interval)
        self._snapshot_interval = snapshot_interval
        self.stats = FrontendStats()
        self.admission = AdmissionController(
            rate_limit=rate_limit,
            burst=burst,
            max_inflight=max_inflight,
            queue_depth_limit=queue_depth_limit,
        )
        # Full queries block on shard futures; give them their own
        # threads, capped at the admission in-flight limit so the
        # executor can never queue beyond what admission admitted.
        self._query_executor = ThreadPoolExecutor(
            max_workers=max(1, int(max_inflight)),
            thread_name_prefix="frontend-query",
        )
        # Degraded answers must not queue behind saturated full
        # queries — that is their whole purpose — so they get a small
        # dedicated lane.
        self._degraded_executor = ThreadPoolExecutor(
            max_workers=2, thread_name_prefix="frontend-degraded"
        )
        self._replication = replication
        self._cluster_token = (
            None if cluster_token is None else str(cluster_token)
        )
        # Replication pulls + durable-ack waits block on disk/fsync;
        # a dedicated lane keeps them from starving query traffic.
        # Sized so bounded replicated-ack waits cannot occupy every
        # worker and starve the very fetches that deliver the acks.
        self._replication_executor = ThreadPoolExecutor(
            max_workers=6, thread_name_prefix="frontend-replication"
        )
        self._server: asyncio.AbstractServer | None = None
        self._stop_event: asyncio.Event | None = None
        self._pump_task: asyncio.Task | None = None

    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound TCP port (resolves ``port=0`` after :meth:`start`)."""
        if self._server is None:
            raise FrontendError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def address(self) -> str:
        return f"http://{self._host}:{self.port}"

    async def start(self) -> None:
        """Bind the socket and launch the service's ingestion pump."""
        if self._server is not None:
            raise FrontendError("server already started")
        self._stop_event = asyncio.Event()
        self._pump_task = asyncio.ensure_future(
            self._service.serve(
                flush_interval=self._flush_interval,
                stop=self._stop_event,
                snapshot_interval=self._snapshot_interval,
            )
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._requested_port
        )

    async def stop(self) -> None:
        """Stop accepting, drain the pump, release the executors."""
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None
        if self._stop_event is not None:
            self._stop_event.set()
        if self._pump_task is not None:
            try:
                await self._pump_task
            except Exception:  # pragma: no cover - pump died with service
                _LOG.exception("ingestion pump exited abnormally")
            self._pump_task = None
        self._query_executor.shutdown(wait=False)
        self._degraded_executor.shutdown(wait=False)
        self._replication_executor.shutdown(wait=False)

    async def serve_until(self, stop: asyncio.Event) -> None:
        """Run until *stop* is set (the CLI's foreground mode)."""
        await self.start()
        try:
            await stop.wait()
        finally:
            await self.stop()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader)
                except FrontendError as error:
                    self.stats.bump("received")
                    self.stats.bump("bad_requests")
                    write_response(
                        writer, 400, {"error": str(error)}, keep_alive=False
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                self.stats.bump("received")
                try:
                    status, payload, headers = await self._dispatch(request)
                except FrontendError as error:
                    self.stats.bump("bad_requests")
                    status, payload, headers = 400, {"error": str(error)}, {}
                except FencedError as error:
                    # This node's writer epoch was superseded by a
                    # promotion: tell the client to re-route, never
                    # pretend the write was accepted.
                    self.stats.bump("fenced")
                    status, payload, headers = (
                        503,
                        {"error": str(error), "fenced": True},
                        {"Retry-After": "0.050"},
                    )
                except ReproError as error:
                    self.stats.bump("errors")
                    status, payload, headers = 500, {"error": str(error)}, {}
                except Exception as error:  # noqa: BLE001 - stay alive
                    _LOG.exception("unhandled error serving %s", request.path)
                    self.stats.bump("errors")
                    status, payload, headers = (
                        500,
                        {"error": f"internal error: {type(error).__name__}"},
                        {},
                    )
                write_response(
                    writer,
                    status,
                    payload,
                    headers=headers,
                    keep_alive=request.keep_alive,
                )
                await writer.drain()
                if not request.keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _dispatch(
        self, request: HttpRequest
    ) -> tuple[int, object, dict]:
        route = (request.method, request.path)
        if route == ("GET", "/healthz"):
            self.stats.bump("completed")
            return 200, {"ok": True}, {}
        if route == ("GET", "/v1/health"):
            self.stats.bump("completed")
            return 200, self._health_payload(), {}
        if route == ("POST", "/v1/replication/fetch"):
            return await self._handle_replication_fetch(request)
        if route == ("POST", "/v1/replication/bootstrap"):
            return await self._handle_replication_bootstrap(request)
        if route == ("GET", "/v1/stats"):
            self.stats.bump("completed")
            return 200, self._stats_payload(), {}
        if route == ("POST", "/v1/register"):
            return await self._handle_register(request)
        if route == ("POST", "/v1/update"):
            return await self._handle_update(request)
        if route == ("POST", "/v1/query"):
            return await self._handle_query(request)
        self.stats.bump("bad_requests")
        return 404, {"error": f"no route {request.method} {request.path}"}, {}

    # ------------------------------------------------------------------
    # Auth + admission
    # ------------------------------------------------------------------
    def _authenticate(
        self, request: HttpRequest, body: Mapping
    ) -> TenantId | None:
        """The authenticated tenant, or ``None`` (401 recorded)."""
        tenant = body.get("tenant") if isinstance(body, Mapping) else None
        header = request.headers.get("authorization", "")
        scheme, _, presented = header.partition(" ")
        expected = self._tokens.get(tenant)
        if (
            tenant is None
            or expected is None
            or scheme.lower() != "bearer"
            or not hmac.compare_digest(presented.strip(), expected)
        ):
            self.stats.bump("auth_failures")
            return None
        return tenant

    def _admit(self, tenant: TenantId) -> tuple[int, object, dict] | None:
        """Run admission; a response triple means rejection."""
        decision = self.admission.admit(
            tenant, queue_depth=self._service.queue.pending()
        )
        if decision.admitted:
            return None
        self.stats.bump(f"rejected_{decision.reason}")
        retry = max(0.001, decision.retry_after)
        return (
            429,
            {"error": f"rejected: {decision.reason}", "retry_after": retry},
            {"Retry-After": f"{retry:.3f}"},
        )

    def _cluster_authenticate(self, request: HttpRequest) -> bool:
        """Replication-peer auth: the shared cluster token, nothing else."""
        if self._cluster_token is None:
            self.stats.bump("auth_failures")
            return False
        header = request.headers.get("authorization", "")
        scheme, _, presented = header.partition(" ")
        if scheme.lower() != "bearer" or not hmac.compare_digest(
            presented.strip(), self._cluster_token
        ):
            self.stats.bump("auth_failures")
            return False
        return True

    # ------------------------------------------------------------------
    # Replication endpoints
    # ------------------------------------------------------------------
    def _health_payload(self) -> dict:
        service = self._service
        return {
            "node": getattr(service, "node_id", "primary"),
            "role": "primary",
            "epoch": getattr(service, "epoch", 0),
            "applied_seq": getattr(service, "durable_seq", 0),
            "lag": 0,
            "tenants": len(service.tenants()),
            "replicas_acked": (
                self._replication.acked()
                if self._replication is not None
                else {}
            ),
        }

    async def _handle_replication_fetch(
        self, request: HttpRequest
    ) -> tuple[int, object, dict]:
        if not self._cluster_authenticate(request):
            return 401, {"error": "unauthorized"}, {}
        if self._replication is None:
            self.stats.bump("bad_requests")
            return 404, {"error": "replication is not enabled"}, {}
        body = request.json()
        try:
            replica = str(body["replica"])
            segment = int(body["segment"])
            offset = int(body["offset"])
        except (KeyError, TypeError, ValueError):
            raise FrontendError(
                "fetch needs replica, segment, offset"
            ) from None
        max_bytes = body.get("max_bytes")
        acked_seq = body.get("acked_seq")
        loop = asyncio.get_event_loop()
        result = await loop.run_in_executor(
            self._replication_executor,
            lambda: self._replication.fetch(
                replica,
                segment,
                offset,
                max_bytes=None if max_bytes is None else int(max_bytes),
                acked_seq=None if acked_seq is None else int(acked_seq),
            ),
        )
        chunk = result.chunk
        self.stats.bump("completed")
        return (
            200,
            {
                "segment": chunk.segment,
                "offset": chunk.offset,
                "data": base64.b64encode(chunk.data).decode("ascii"),
                "exhausted": chunk.exhausted,
                "gone": chunk.gone,
                "oldest_segment": chunk.oldest_segment,
                "resume_floor": chunk.resume_floor,
                "primary_seq": result.primary_seq,
                "epoch": result.epoch,
            },
            {},
        )

    async def _handle_replication_bootstrap(
        self, request: HttpRequest
    ) -> tuple[int, object, dict]:
        if not self._cluster_authenticate(request):
            return 401, {"error": "unauthorized"}, {}
        if self._replication is None:
            self.stats.bump("bad_requests")
            return 404, {"error": "replication is not enabled"}, {}
        body = request.json()
        try:
            replica = str(body["replica"])
        except (KeyError, TypeError):
            raise FrontendError("bootstrap needs replica") from None
        loop = asyncio.get_event_loop()
        result = await loop.run_in_executor(
            self._replication_executor,
            lambda: self._replication.bootstrap(replica),
        )
        self.stats.bump("completed")
        return (
            200,
            {
                "files": {
                    relative: base64.b64encode(blob).decode("ascii")
                    for relative, blob in result.files.items()
                },
                "segment": result.segment,
                "offset": result.offset,
                "primary_seq": result.primary_seq,
                "epoch": result.epoch,
            },
            {},
        )

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    async def _handle_register(
        self, request: HttpRequest
    ) -> tuple[int, object, dict]:
        body = request.json()
        tenant = self._authenticate(request, body)
        if tenant is None:
            return 401, {"error": "unauthorized"}, {}
        rejection = self._admit(tenant)
        if rejection is not None:
            return rejection
        k = body.get("k")
        if not isinstance(k, int) or k < 1:
            raise FrontendError(f"k must be a positive integer, got {k!r}")
        kwargs = body.get("kwargs", {})
        if not isinstance(kwargs, dict):
            raise FrontendError("kwargs must be a JSON object")
        # Registration waits on the tenant's shard, so it runs on the
        # loop's default executor, never on the degraded lane.
        loop = asyncio.get_event_loop()
        await loop.run_in_executor(
            None, lambda: self._service.register_tenant(tenant, k, **kwargs)
        )
        self.stats.bump("completed")
        return 200, {"registered": tenant, "k": k}, {}

    async def _handle_update(
        self, request: HttpRequest
    ) -> tuple[int, object, dict]:
        body = request.json()
        tenant = self._authenticate(request, body)
        if tenant is None:
            return 401, {"error": "unauthorized"}, {}
        rejection = self._admit(tenant)
        if rejection is not None:
            return rejection
        event = event_from_json(body.get("event"))
        ack = body.get("ack", "window")
        if ack not in ("window", "durable", "replicated"):
            raise FrontendError(
                f"ack must be window, durable, or replicated, got {ack!r}"
            )
        if ack == "window":
            accepted = _submit_valid(
                self._service.submit_update, tenant, event
            )
            self.stats.bump("completed")
            return 202, {"accepted": bool(accepted)}, {}
        if ack == "replicated" and self._replication is None:
            raise FrontendError("ack=replicated requires replication")
        try:
            timeout = min(30.0, max(0.001, float(body.get("timeout", 2.0))))
        except (TypeError, ValueError):
            raise FrontendError(
                f"bad timeout: {body.get('timeout')!r}"
            ) from None
        loop = asyncio.get_event_loop()
        seq = await loop.run_in_executor(
            self._replication_executor,
            lambda: _submit_valid(
                self._service.submit_and_sync, tenant, event
            ),
        )
        if seq < 0:  # shed at the window — never accepted
            self.stats.bump("completed")
            return 202, {"accepted": False}, {}
        payload: dict = {"accepted": True, "seq": seq}
        if ack == "replicated":
            payload["replicated"] = await loop.run_in_executor(
                self._replication_executor,
                lambda: self._replication.wait_replicated(
                    seq, timeout=timeout
                ),
            )
        self.stats.bump("completed")
        return 202, payload, {}

    async def _handle_query(
        self, request: HttpRequest
    ) -> tuple[int, object, dict]:
        started = time.perf_counter()
        body = request.json()
        tenant = self._authenticate(request, body)
        if tenant is None:
            return 401, {"error": "unauthorized"}, {}
        rejection = self._admit(tenant)
        if rejection is not None:
            return rejection
        budget_ms = body.get(
            "budget_ms", request.headers.get("x-budget-ms", self._slo_ms)
        )
        try:
            budget = float(budget_ms) / 1000.0
        except (TypeError, ValueError):
            raise FrontendError(f"bad budget_ms: {budget_ms!r}")
        if budget <= 0:
            raise FrontendError(f"budget_ms must be > 0, got {budget_ms!r}")
        allow_degraded = bool(body.get("allow_degraded", True))
        family = body.get("family")
        if family is not None and not isinstance(family, str):
            raise FrontendError(f"family must be a string, got {family!r}")
        params = body.get("params", {})
        if not isinstance(params, dict):
            raise FrontendError("params must be a JSON object")
        if params and family is None:
            raise FrontendError("params requires a family")
        loop = asyncio.get_event_loop()

        # 1. Concurrency gate on the full path.  A saturated lane answers
        #    a top-k query from the always-warm bounds when the caller
        #    allows it; only the top-k path has a bounds-only twin.
        if not self.admission.acquire_slot():
            if allow_degraded and family is None:
                return await self._degraded(loop, tenant, started, "capacity")
            self.stats.bump("rejected_capacity")
            return (
                429,
                {"error": "rejected: capacity", "retry_after": 0.05},
                {"Retry-After": "0.050"},
            )

        # 2. Full query with an in-flight deadline.  The executor future
        #    is shielded: on expiry it keeps running (releasing its slot
        #    on completion) while the request is answered degraded
        #    immediately.
        future = asyncio.ensure_future(
            loop.run_in_executor(
                self._query_executor, self._full_query, tenant, family, params
            )
        )
        remaining = DEADLINE_MARGIN * budget - (time.perf_counter() - started)
        try:
            result = await asyncio.wait_for(
                asyncio.shield(future), max(0.001, remaining)
            )
        except asyncio.TimeoutError:
            if allow_degraded and family is None:
                degraded = await self._degraded(
                    loop, tenant, started, "deadline"
                )
                self.stats.bump("timeouts")
                future.add_done_callback(_swallow)
                return degraded
            result = await future  # no degraded path: overrun honestly
        except Exception:
            future.add_done_callback(_swallow)
            raise
        self.stats.bump("completed")
        return self._result_response(result, started)

    # ------------------------------------------------------------------
    # Query internals
    # ------------------------------------------------------------------
    def _full_query(
        self,
        tenant: TenantId,
        family: str | None = None,
        params: Mapping | None = None,
    ):
        """Blocking full query (executor thread); releases its slot.

        With *family* set, routes to the service's shared-world family
        path (:meth:`RiskService.query_family`) instead of the top-k
        default.
        """
        try:
            if family is None:
                return self._service.query_topk(tenant)
            return self._service.query_family(
                tenant, family, params=dict(params or {})
            )
        finally:
            self.admission.release_slot()

    async def _degraded(
        self, loop, tenant: TenantId, started: float, reason: str
    ) -> tuple[int, object, dict]:
        """A bounds-only response on the dedicated lane."""
        result = await loop.run_in_executor(
            self._degraded_executor,
            lambda: self._service.query_degraded(tenant),
        )
        self.stats.bump("degraded")
        return self._result_response(result, started, degraded_reason=reason)

    def _result_response(
        self, result, started: float, *, degraded_reason: str | None = None
    ) -> tuple[int, object, dict]:
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        if isinstance(result, QueryResult):
            # Family answers are never degraded/stale: the family path
            # has no bounds-only twin, so reaching here means the full
            # shared-world computation ran.
            payload = {
                "result": result.to_dict(),
                "degraded": False,
                "stale": False,
            }
        else:
            payload = {
                "result": result_to_dict(result),
                "degraded": bool(result.degraded),
                "stale": bool(result.stale),
            }
        if degraded_reason is not None:
            payload["degraded_reason"] = degraded_reason
        return 200, payload, {"X-Elapsed-Ms": f"{elapsed_ms:.3f}"}

    def _stats_payload(self) -> dict:
        return {
            "frontend": self.stats.as_dict(),
            "accounted": self.stats.accounted(),
            "inflight": self.admission.inflight,
            "queue": dict(self._service.queue.stats.as_dict()),
            "pending": self._service.queue.pending(),
            "cache": dict(self._service.cache_stats),
            "tenants": len(self._service.tenants()),
        }


def _swallow(future: "asyncio.Future") -> None:
    """Retrieve a shielded future's exception so it never warns."""
    if not future.cancelled():
        future.exception()
