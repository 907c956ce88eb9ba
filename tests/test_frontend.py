"""Tests for the SLO-enforced network front end.

Unit-level: the HTTP slice parser, the update-event wire codec, the
token bucket (fake clocks throughout), the client's jittered backoff.
End-to-end: a real :class:`FrontendServer` over a real
:class:`RiskService` on a loopback socket — auth, exact answers over
the wire, 429 + ``Retry-After`` shedding, degraded bounds-only answers
on an overrun deadline or a saturated lane, and the stats
reconciliation invariant.
"""

from __future__ import annotations

import asyncio
import json
import random
import threading
import time

import pytest

from repro.algorithms.bsr import BoundedSampleReverseDetector
from repro.core.errors import FrontendError
from repro.datasets.registry import load_dataset
from repro.frontend import (
    AdmissionController,
    FrontendClient,
    FrontendServer,
    FrontendStats,
    TokenBucket,
    event_from_json,
    event_to_json,
    read_request,
)
from repro.frontend.client import ClientResponse
from repro.replication import EpochStore, ReplicationHub
from repro.serving import RiskService
from repro.serving import pool as pool_module
from repro.streaming.events import (
    BulkEdgeProbabilityUpdate,
    BulkSelfRiskUpdate,
    EdgeProbabilityUpdate,
    SelfRiskUpdate,
)


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------
def parse_bytes(raw: bytes):
    """Run the async request parser over a canned byte string."""

    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(scenario())


class TestProtocol:
    def test_parses_request_with_body(self):
        body = json.dumps({"tenant": "t"}).encode()
        raw = (
            b"POST /v1/query HTTP/1.1\r\n"
            b"Authorization: Bearer secret\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n"
            b"\r\n" + body
        )
        request = parse_bytes(raw)
        assert request.method == "POST"
        assert request.path == "/v1/query"
        assert request.headers["authorization"] == "Bearer secret"
        assert request.json() == {"tenant": "t"}
        assert request.keep_alive  # HTTP/1.1 default

    def test_connection_close_is_honoured(self):
        request = parse_bytes(
            b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
        )
        assert not request.keep_alive

    def test_clean_eof_returns_none(self):
        assert parse_bytes(b"") is None

    @pytest.mark.parametrize(
        "raw",
        [
            b"NONSENSE\r\n\r\n",  # malformed request line
            b"GET /x HTTP/1.1\r\nbroken header line\r\n\r\n",
            b"GET /x HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
            b"GET /x HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
            b"GET /x HTTP/1.1\r\nContent-Length: 99\r\n\r\nshort",
            b"GET /x HTTP/1.1\r\nConte",  # closed mid-request
        ],
    )
    def test_malformed_requests_raise(self, raw):
        with pytest.raises(FrontendError):
            parse_bytes(raw)

    def test_oversize_body_rejected(self):
        from repro.frontend.protocol import MAX_BODY_BYTES

        raw = (
            b"POST /x HTTP/1.1\r\nContent-Length: "
            + str(MAX_BODY_BYTES + 1).encode()
            + b"\r\n\r\n"
        )
        with pytest.raises(FrontendError):
            parse_bytes(raw)

    @pytest.mark.parametrize(
        "event",
        [
            SelfRiskUpdate("sme_1", 0.25),
            EdgeProbabilityUpdate("a", "b", 0.75),
            BulkSelfRiskUpdate(values=[0.1, 0.2, 0.3]),
            BulkEdgeProbabilityUpdate(values=[0.4, 0.5]),
        ],
    )
    def test_event_codec_roundtrip(self, event):
        encoded = event_to_json(event)
        json.dumps(encoded)  # must be wire-serialisable
        decoded = event_from_json(encoded)
        assert type(decoded) is type(event)
        assert event_to_json(decoded) == encoded

    def test_event_codec_rejects_junk(self):
        with pytest.raises(FrontendError):
            event_from_json({"type": "mystery"})
        with pytest.raises(FrontendError):
            event_from_json({"type": "self_risk"})  # missing fields
        with pytest.raises(FrontendError):
            event_from_json("not an object")


# ----------------------------------------------------------------------
# Admission control (fake clocks)
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=3.0, clock=clock)
        assert [bucket.try_acquire() for _ in range(4)] == [
            True, True, True, False,
        ]
        # 2 tokens/s: after 0.5s exactly one token exists.
        assert bucket.retry_after() == pytest.approx(0.5)
        clock.advance(0.5)
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_never_exceeds_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=2.0, clock=clock)
        clock.advance(60.0)
        assert [bucket.try_acquire() for _ in range(3)] == [
            True, True, False,
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.5)


class TestAdmissionController:
    def test_rate_rejection_carries_honest_retry_hint(self):
        clock = FakeClock()
        controller = AdmissionController(
            rate_limit=1.0, burst=1.0, clock=clock
        )
        assert controller.admit("t").admitted
        decision = controller.admit("t")
        assert not decision.admitted
        assert decision.reason == "rate"
        assert decision.retry_after == pytest.approx(1.0)
        clock.advance(1.0)
        assert controller.admit("t").admitted

    def test_tenants_have_independent_buckets(self):
        clock = FakeClock()
        controller = AdmissionController(
            rate_limit=1.0, burst=1.0, clock=clock
        )
        assert controller.admit("a").admitted
        assert not controller.admit("a").admitted
        assert controller.admit("b").admitted

    def test_backlog_rejection(self):
        controller = AdmissionController(
            rate_limit=100.0, queue_depth_limit=10
        )
        assert controller.admit("t", queue_depth=10).admitted
        decision = controller.admit("t", queue_depth=11)
        assert not decision.admitted and decision.reason == "backlog"

    def test_inflight_slots(self):
        controller = AdmissionController(max_inflight=2)
        assert controller.acquire_slot() and controller.acquire_slot()
        assert not controller.acquire_slot()
        controller.release_slot()
        assert controller.acquire_slot()
        assert controller.inflight == 2


class TestFrontendStats:
    def test_reconciliation_invariant(self):
        stats = FrontendStats()
        for counter, count in [
            ("received", 10),
            ("completed", 3),
            ("degraded", 2),
            ("timeouts", 1),  # double-counts inside degraded
            ("rejected_rate", 2),
            ("rejected_capacity", 1),
            ("auth_failures", 1),
            ("bad_requests", 1),
        ]:
            stats.bump(counter, count)
        assert stats.accounted() == stats.received == 10
        assert stats.as_dict()["timeouts"] == 1


# ----------------------------------------------------------------------
# Client backoff policy (no sockets, no sleeping)
# ----------------------------------------------------------------------
class TestClientBackoff:
    def make_client(self, outcomes, **kwargs):
        """A client whose transport replays *outcomes* (no network)."""
        sleeps: list[float] = []
        client = FrontendClient(
            "127.0.0.1",
            1,
            "tok",
            tenant="t",
            sleep=sleeps.append,
            rng=random.Random(7),
            **kwargs,
        )
        script = iter(outcomes)

        def fake_once(method, path, payload):
            outcome = next(script)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        client._once = fake_once
        return client, sleeps

    def test_retry_after_replaces_computed_backoff(self):
        throttled = ClientResponse(429, {"error": "rate"}, {"retry-after": "0.25"})
        ok = ClientResponse(200, {"ok": True}, {})
        client, sleeps = self.make_client([throttled, throttled, ok])
        response = client.request("POST", "/v1/query", {})
        assert response.ok
        assert sleeps == [0.25, 0.25]  # server's hint, verbatim

    def test_exponential_jittered_backoff_without_hint(self):
        error = ConnectionRefusedError("down")
        ok = ClientResponse(200, None, {})
        client, sleeps = self.make_client(
            [error, error, error, ok], backoff=0.1, backoff_cap=10.0
        )
        assert client.request("GET", "/healthz").ok
        assert len(sleeps) == 3
        for attempt, delay in enumerate(sleeps):
            window = 0.1 * (2.0 ** attempt)
            assert 0.5 * window <= delay <= window
        # Windows double, so later delays can exceed earlier ceilings.
        assert sleeps[2] > sleeps[0]

    def test_gives_up_and_surfaces_last_429(self):
        throttled = ClientResponse(429, {"error": "rate"}, {"retry-after": "0.01"})
        client, sleeps = self.make_client([throttled] * 3, retries=3)
        response = client.request("POST", "/v1/query", {})
        assert response.status == 429
        assert len(sleeps) == 2  # no sleep after the final attempt

    def test_connection_failures_raise_after_retries(self):
        client, _ = self.make_client(
            [ConnectionRefusedError("down")] * 2, retries=2
        )
        with pytest.raises(FrontendError, match="failed after 2 attempts"):
            client.request("GET", "/healthz")

    def test_non_retryable_status_returns_immediately(self):
        unauthorized = ClientResponse(401, {"error": "unauthorized"}, {})
        client, sleeps = self.make_client([unauthorized])
        assert client.request("POST", "/v1/query", {}).status == 401
        assert sleeps == []

    @staticmethod
    def record_calls(client):
        """Record each ``(method, path)`` the client puts on the wire."""
        calls: list[tuple[str, str]] = []
        send = client._once

        def recording(method, path, payload):
            calls.append((method, path))
            return send(method, path, payload)

        client._once = recording
        return calls

    def test_write_is_not_resent_after_a_reset(self):
        # The reset may come after the server applied the update.
        accepted = ClientResponse(202, {"accepted": True}, {})
        client, sleeps = self.make_client(
            [ConnectionResetError("reset"), accepted]
        )
        calls = self.record_calls(client)
        try:
            client.update(SelfRiskUpdate(0, 0.5))
        except FrontendError as error:
            assert "not re-sent" in str(error)
        # One POST means it raised: a second would have found the 202.
        assert calls == [("POST", "/v1/update")]
        assert sleeps == []

    def test_write_is_resent_after_a_refused_connection(self):
        # A refused connection never carried the request.
        accepted = ClientResponse(202, {"accepted": True}, {})
        client, sleeps = self.make_client(
            [ConnectionRefusedError("down"), accepted]
        )
        calls = self.record_calls(client)
        assert client.update(SelfRiskUpdate(0, 0.5)).status == 202
        assert calls == [("POST", "/v1/update")] * 2
        assert len(sleeps) == 1


# ----------------------------------------------------------------------
# End to end over a loopback socket
# ----------------------------------------------------------------------
TOKENS = {"alpha": "alpha-secret", "beta": "beta-secret"}


@pytest.fixture(scope="module")
def frontend_graph():
    return load_dataset("guarantee", scale=0.02, seed=5).graph


class ServerHarness:
    """A FrontendServer on its own event-loop thread."""

    def __init__(self, service, **kwargs):
        kwargs.setdefault("flush_interval", 0.01)
        self.server = FrontendServer(service, TOKENS, **kwargs)
        self._loop = None
        self._stop = None
        self._started = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        async def main():
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            await self.server.start()
            self._started.set()
            await self._stop.wait()
            await self.server.stop()

        asyncio.run(main())

    def __enter__(self):
        self._thread.start()
        assert self._started.wait(30), "server failed to start"
        return self.server

    def __exit__(self, *exc_info):
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(30)


def quiet_client(server, token="alpha-secret", tenant="alpha", **kwargs):
    kwargs.setdefault("sleep", lambda _delay: None)
    return FrontendClient(
        "127.0.0.1", server.port, token, tenant=tenant, **kwargs
    )


class TestHealthRoute:
    def test_reports_role_epoch_seq_and_replica_acks(
        self, frontend_graph, tmp_path
    ):
        service = RiskService(
            frontend_graph,
            mode="serial",
            wal_dir=tmp_path / "p",
            epoch_store=EpochStore(tmp_path / "epoch.json"),
            node_id="p1",
        )
        try:
            service.register_tenant("alpha", 4, seed=0)
            service.submit_and_sync(
                "alpha", SelfRiskUpdate(frontend_graph.label(0), 0.5)
            )
            hub = ReplicationHub(service)
            hub.note_ack("r1", service.durable_seq)
            with ServerHarness(
                service, replication=hub, cluster_token="cluster"
            ) as server:
                # No auth: an operator's probe carries no tenant token.
                client = quiet_client(server, token="wrong", retries=1)
                response = client.request("GET", "/v1/health")
            assert response.status == 200
            assert response.payload == {
                "node": "p1",
                "role": "primary",
                "epoch": 1,
                "applied_seq": service.durable_seq,
                "lag": 0,
                "tenants": 1,
                "replicas_acked": {"r1": service.durable_seq},
            }
        finally:
            service.close()


class TestEndToEnd:
    @pytest.fixture()
    def service(self, frontend_graph):
        service = RiskService(frontend_graph, mode="serial")
        for tenant in TOKENS:
            service.register_tenant(tenant, 4, seed=0)
        yield service
        service.close()

    def test_auth_and_exact_answers_over_the_wire(
        self, service, frontend_graph
    ):
        with ServerHarness(service, rate_limit=500.0) as server:
            client = quiet_client(server)
            assert client.healthz()

            # Wrong token, unknown tenant, and a *valid* token presented
            # for someone else's tenant are all 401s.
            assert quiet_client(server, token="wrong").query().status == 401
            assert (
                quiet_client(server, tenant="nobody").query().status == 401
            )
            assert (
                quiet_client(server, token="beta-secret").query().status
                == 401
            )

            # The served answer is bit-identical to a fresh detection.
            response = client.query()
            assert response.ok and not response.payload["degraded"]
            fresh = BoundedSampleReverseDetector(seed=0).detect(
                frontend_graph, 4
            )
            assert response.payload["result"]["nodes"] == fresh.nodes
            assert "x-elapsed-ms" in response.headers

            # An update flows through ingestion, and the next answer is
            # bit-identical to fresh detection over the patched graph.
            outsider = next(
                frontend_graph.label(i)
                for i in range(frontend_graph.num_nodes)
                if frontend_graph.label(i) not in fresh.nodes
            )
            accepted = client.update(SelfRiskUpdate(outsider, 0.99))
            assert accepted.status == 202 and accepted.payload["accepted"]
            shadow = frontend_graph.copy()
            shadow.set_self_risk(outsider, 0.99)
            patched = BoundedSampleReverseDetector(seed=0).detect(shadow, 4)
            changed = client.query()
            assert changed.ok
            assert changed.payload["result"]["nodes"] == patched.nodes
            assert outsider in patched.nodes  # the update actually bit

    def test_rate_limit_sheds_with_retry_after(self, service):
        with ServerHarness(
            service, rate_limit=0.5, burst=1.0
        ) as server:
            impatient = quiet_client(server, retries=1)
            assert impatient.healthz()  # unauthenticated, never limited
            assert impatient.query().ok  # consumes the single token
            throttled = impatient.query()
            assert throttled.status == 429
            assert float(throttled.headers["retry-after"]) > 0.0
            assert throttled.payload["error"].startswith("rejected: rate")

            # A polite client waits out Retry-After (virtually — the
            # injected sleep records instead of sleeping) and
            # eventually lands; with rate=0.5 the recorded waits must
            # come from the server's hint, not the client's guess.
            waits: list[float] = []

            def virtual_sleep(delay):
                waits.append(delay)
                import time as _time

                _time.sleep(min(delay, 2.5))

            patient = quiet_client(
                server, retries=8, sleep=virtual_sleep
            )
            response = patient.query()
            assert response.ok
            assert waits, "client never backed off"
            stats = patient.stats()
            assert stats["frontend"]["rejected_rate"] >= 1
            assert stats["accounted"] == stats["frontend"]["received"]

    def test_tight_budget_serves_degraded_bounds(self, service, monkeypatch):
        # Park the full query so it overruns the budget whatever the
        # cache holds.
        release = threading.Event()
        query_topk = service.query_topk

        def parked(tenant_id, **kwargs):
            release.wait(30)
            return query_topk(tenant_id, **kwargs)

        monkeypatch.setattr(service, "query_topk", parked)
        with ServerHarness(service, rate_limit=500.0) as server:
            client = quiet_client(server)
            try:
                response = client.query(budget_ms=50)
            finally:
                release.set()
            assert response.ok
            payload = response.payload
            assert payload["degraded"]
            assert payload["degraded_reason"] == "deadline"
            assert payload["result"]["degraded"]
            assert payload["result"]["details"]["bounds_only"]
            assert len(payload["result"]["nodes"]) == 4
            # Bounds-consistency of the wire answer: every reported
            # node's upper bound clears the k-th lower bound.
            details = payload["result"]["details"]
            assert all(
                upper >= details["threshold_lower"] - 1e-12
                for upper in details["bounds_upper"]
            )
            # Opting out of degradation gets the honest slow answer.
            strict = client.query(budget_ms=0.01, allow_degraded=False)
            assert strict.ok and not strict.payload["degraded"]

    def test_slow_spell_leaves_later_queries_exact(self, service, monkeypatch):
        slow = [4]
        query_topk = service.query_topk

        def slow_spell(tenant_id, **kwargs):
            if slow[0] > 0:
                slow[0] -= 1
                time.sleep(0.3)
            return query_topk(tenant_id, **kwargs)

        monkeypatch.setattr(service, "query_topk", slow_spell)
        with ServerHarness(service, rate_limit=500.0) as server:
            for _ in range(4):
                assert quiet_client(server).query(budget_ms=60_000).ok
            assert slow == [0]
            # Once the spell is over, a default-budget query runs the
            # exact path again, for every tenant.
            for tenant, token in TOKENS.items():
                response = quiet_client(
                    server, token=token, tenant=tenant
                ).query()
                assert response.ok
                assert not response.payload["degraded"]
                assert "degraded_reason" not in response.payload

    def test_saturated_lane_degrades_topk_and_sheds_families(self, service):
        with ServerHarness(
            service, rate_limit=500.0, max_inflight=2
        ) as server:
            assert server.admission.acquire_slot()
            assert server.admission.acquire_slot()
            client = quiet_client(server, retries=1)
            try:
                response = client.query()
                family = client.query(family="kcore", params={"k": 2})
            finally:
                server.admission.release_slot()
                server.admission.release_slot()
            assert response.ok
            payload = response.payload
            assert payload["degraded"]
            assert payload["degraded_reason"] == "capacity"
            assert payload["result"]["details"]["bounds_only"]
            details = payload["result"]["details"]
            assert all(
                upper >= details["threshold_lower"] - 1e-12
                for upper in details["bounds_upper"]
            )
            # A family query has no bounds-only twin: it sheds.
            assert family.status == 429
            assert family.payload["error"] == "rejected: capacity"
            assert family.headers["retry-after"] == "0.050"
            stats = client.stats()
            assert stats["frontend"]["degraded"] == 1
            assert stats["frontend"]["timeouts"] == 0
            assert stats["frontend"]["rejected_capacity"] == 1
            assert "cost_model" not in stats
            assert stats["accounted"] == stats["frontend"]["received"]

    def test_registrations_do_not_hold_the_degraded_lane(
        self, service, monkeypatch
    ):
        # Park alpha's full query inside the only (serial) shard, so
        # registrations, which wait for the shard, stay in flight.
        parked = threading.Event()
        release = threading.Event()
        worker_query = pool_module._worker_query

        def park(pool_id, tenant_id):
            parked.set()
            release.wait(30)
            return worker_query(pool_id, tenant_id)

        monkeypatch.setattr(pool_module, "_worker_query", park)
        entered = threading.Semaphore(0)
        register_tenant = service.register_tenant

        def entering(tenant_id, k, **kwargs):
            entered.release()
            return register_tenant(tenant_id, k, **kwargs)

        monkeypatch.setattr(service, "register_tenant", entering)
        monkeypatch.setitem(TOKENS, "gamma", "gamma-secret")
        monkeypatch.setitem(TOKENS, "delta", "delta-secret")
        responses = {}

        def call(name, run):
            responses[name] = run()

        with ServerHarness(service, rate_limit=500.0) as server:
            threads = [
                threading.Thread(
                    target=call,
                    args=(
                        "full",
                        lambda: quiet_client(server).query(
                            budget_ms=60_000, allow_degraded=False
                        ),
                    ),
                )
            ]
            threads[0].start()
            assert parked.wait(10)
            for tenant in ("gamma", "delta"):
                client = quiet_client(
                    server, token=f"{tenant}-secret", tenant=tenant
                )
                threads.append(
                    threading.Thread(
                        target=call,
                        args=(tenant, lambda c=client: c.register(4)),
                    )
                )
                threads[-1].start()
            assert entered.acquire(timeout=10)
            assert entered.acquire(timeout=10)
            # The park ends after 3 s; the degraded answer must not
            # wait for it.
            valve = threading.Timer(3.0, release.set)
            valve.start()
            try:
                response = quiet_client(server).query(budget_ms=50)
                answered_while_parked = not release.is_set()
            finally:
                release.set()
                valve.cancel()
                for thread in threads:
                    thread.join(30)
            assert not any(thread.is_alive() for thread in threads)
            assert answered_while_parked
            assert response.ok
            assert response.payload["degraded"]
            assert response.payload["degraded_reason"] == "deadline"
            assert responses["full"].ok
            assert not responses["full"].payload["degraded"]
            assert responses["gamma"].ok and responses["delta"].ok
        assert {"gamma", "delta"} <= set(service.tenants())

    def test_invalid_update_is_a_400_and_queues_nothing(
        self, service, frontend_graph
    ):
        label = frontend_graph.label(0)
        with ServerHarness(service, rate_limit=500.0) as server:
            client = quiet_client(server, retries=1)
            refused = client.update(SelfRiskUpdate(label, 1.7))
            assert refused.status == 400
            assert refused.payload["error"].startswith("invalid update")
            assert service.queue.stats.as_dict()["submitted"] == 0
            assert client.update(SelfRiskUpdate(label, 0.5)).status == 202
            assert client.query().ok
        assert service.query_degraded("alpha") is not None

    def test_invalid_durable_update_is_a_400(self, frontend_graph, tmp_path):
        service = RiskService(frontend_graph, mode="serial", wal_dir=tmp_path)
        try:
            service.register_tenant("alpha", 4, seed=0)
            with ServerHarness(service, rate_limit=500.0) as server:
                client = quiet_client(server, retries=1)
                refused = client.update(
                    SelfRiskUpdate(frontend_graph.label(0), 1.7),
                    ack="durable",
                )
            assert refused.status == 400
            assert not [
                batch
                for batch in service.wal.read_batches()
                if batch.kind == "events"
            ]
        finally:
            service.close()

    def test_unknown_route_and_bad_json_are_contained(self, service):
        with ServerHarness(service, rate_limit=500.0) as server:
            client = quiet_client(server, retries=1)
            assert client.request("GET", "/v1/nope").status == 404
            # A raw malformed request must cost a 400, not the server.
            import http.client as http_client

            connection = http_client.HTTPConnection(
                "127.0.0.1", server.port, timeout=10
            )
            try:
                connection.request(
                    "POST",
                    "/v1/query",
                    body="{not json",
                    headers={"Authorization": "Bearer alpha-secret"},
                )
                assert connection.getresponse().status == 400
            finally:
                connection.close()
            assert client.healthz()  # still alive
            stats = client.stats()
            frontend = stats["frontend"]
            assert frontend["bad_requests"] >= 1
            assert stats["accounted"] == frontend["received"]

    def test_capacity_rejection_when_saturated(self, service, monkeypatch):
        with ServerHarness(
            service, rate_limit=500.0, max_inflight=2
        ) as server:
            # Exhaust the slots out-of-band: every full query must now
            # shed with 429/capacity instead of queueing.
            assert server.admission.acquire_slot()
            assert server.admission.acquire_slot()
            client = quiet_client(server, retries=1)
            response = client.query(allow_degraded=False)
            assert response.status == 429
            assert response.payload["error"] == "rejected: capacity"
            assert float(response.headers["retry-after"]) > 0.0
            server.admission.release_slot()
            server.admission.release_slot()
            assert client.query().ok
