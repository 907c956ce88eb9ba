"""Overload benchmark: the SLO-enforced front end past saturation.

Binds a real :class:`~repro.frontend.server.FrontendServer` (asyncio
HTTP/JSON, bearer auth, admission control, deadline enforcement) over a
multi-tenant :class:`~repro.serving.service.RiskService`, then drives
it with an **open-loop** load generator: request arrivals follow a
fixed schedule regardless of completions, so queueing pressure is real
— a saturated server falls behind instead of silently slowing the
generator down.

Three phases:

1. **calibrate** — closed-loop wire queries measure the full-query
   service time; saturation throughput is
   ``max_inflight / mean_service_time``.
2. **overload** — open-loop arrivals at ``overload_factor`` (default
   2x) times the calibrated saturation, spread over many tenants, with
   a slice of ingestion updates mixed in.  Every response is recorded:
   full answers, degraded bounds-only answers (capacity and deadline),
   429 rate/capacity/backlog rejections.
3. **reconcile** — the gates.  Zero transport errors (the server never
   crashed a connection), every client request reached a terminal
   outcome, every query was answered (200, full or degraded), the
   server's own counters satisfy ``received == accounted``, the p99
   server-side latency of *admitted full answers* meets the SLO, and
   every degraded answer passes a bounds-consistency check (each
   reported node's upper bound clears the k-th lower bound).

Results land in ``BENCH_frontend.json`` at the repo root.

Usage
-----
::

    python -m benchmarks.bench_frontend            # 1000 tenants
    python -m benchmarks.bench_frontend --quick    # CI smoke (seconds)
    python -m benchmarks.bench_frontend --tenants 200 --slo-ms 100
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import threading
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from benchmarks.common import EDGE_FACTOR, REPO_ROOT, build_powerlaw_graph
from repro.frontend.protocol import send_request
from repro.frontend.server import FrontendServer
from repro.serving import RiskService

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_frontend.json"


class ServerThread:
    """A FrontendServer on its own event-loop thread (the generator is
    a separate asyncio program, like a real remote client)."""

    def __init__(self, service: RiskService, tokens: dict, **kwargs) -> None:
        kwargs.setdefault("flush_interval", 0.01)
        self.server = FrontendServer(service, tokens, **kwargs)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._started = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            await self.server.start()
            self._started.set()
            await self._stop.wait()
            await self.server.stop()

        asyncio.run(main())

    def __enter__(self) -> FrontendServer:
        self._thread.start()
        if not self._started.wait(60):
            raise RuntimeError("front end failed to start")
        return self.server

    def __exit__(self, *exc_info) -> None:
        assert self._loop is not None and self._stop is not None
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(60)


async def _wire_call(
    host: str, port: int, method: str, path: str, payload, token: str
):
    reader, writer = await asyncio.open_connection(host, port)
    try:
        return await send_request(
            reader,
            writer,
            method,
            path,
            payload,
            headers={"Authorization": f"Bearer {token}"},
        )
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover
            pass


def calibrate(
    host: str,
    port: int,
    tenants: list[str],
    tokens: dict,
    labels: list,
    samples: int,
    seed: int,
) -> dict:
    """Closed-loop update+query pairs; returns the full-path service time.

    Each sample submits one update before querying, so the measured
    cost includes the incremental repair a live stream forces — the
    overload phase's queries pay exactly that, not the clean-refresh
    fast path a quiet tenant would see.
    """
    rng = random.Random(seed)

    async def scenario() -> list[float]:
        latencies: list[float] = []
        for index in range(samples):
            tenant = tenants[index % len(tenants)]
            update = await _wire_call(
                host,
                port,
                "POST",
                "/v1/update",
                {
                    "tenant": tenant,
                    "event": {
                        "type": "self_risk",
                        "label": labels[rng.randrange(len(labels))],
                        "value": round(rng.random() * 0.9, 6),
                    },
                },
                tokens[tenant],
            )
            assert update.status == 202, update
            response = await _wire_call(
                host,
                port,
                "POST",
                "/v1/query",
                # A generous budget keeps calibration on the full path.
                {"tenant": tenant, "budget_ms": 60_000.0},
                tokens[tenant],
            )
            assert response.status == 200, response
            assert not response.payload["degraded"]
            latencies.append(
                float(response.headers["x-elapsed-ms"]) / 1e3
            )
        return latencies

    latencies = asyncio.run(scenario())
    return {
        "samples": samples,
        "mean_seconds": float(np.mean(latencies)),
        "p99_ms": round(float(np.percentile(latencies, 99)) * 1e3, 3)
        if latencies
        else 0.0,
    }


def open_loop(
    host: str,
    port: int,
    tenants: list[str],
    tokens: dict,
    labels: list,
    *,
    offered_rps: float,
    duration: float,
    slo_ms: float,
    update_fraction: float,
    seed: int,
) -> list[dict]:
    """Fire requests on a fixed schedule; record every terminal outcome."""
    rng = random.Random(seed)
    total = max(1, int(offered_rps * duration))
    interval = 1.0 / offered_rps
    plan = []
    for index in range(total):
        tenant = tenants[rng.randrange(len(tenants))]
        if rng.random() < update_fraction:
            payload = {
                "tenant": tenant,
                "event": {
                    "type": "self_risk",
                    "label": labels[rng.randrange(len(labels))],
                    "value": round(rng.random() * 0.9, 6),
                },
            }
            plan.append((index * interval, tenant, "/v1/update", payload))
        else:
            payload = {"tenant": tenant, "budget_ms": slo_ms}
            plan.append((index * interval, tenant, "/v1/query", payload))

    async def scenario() -> list[dict]:
        loop = asyncio.get_running_loop()
        epoch = loop.time()
        results: list[dict] = []

        async def one(when: float, tenant: str, path: str, payload) -> None:
            delay = epoch + when - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            started = time.perf_counter()
            try:
                response = await _wire_call(
                    host, port, "POST", path, payload, tokens[tenant]
                )
            except (ConnectionError, OSError, asyncio.IncompleteReadError) as error:
                results.append(
                    {
                        "path": path,
                        "transport_error": f"{type(error).__name__}: {error}",
                    }
                )
                return
            record = {
                "path": path,
                "status": response.status,
                "rtt_ms": (time.perf_counter() - started) * 1e3,
            }
            if response.status == 200 and path == "/v1/query":
                record["degraded"] = bool(response.payload["degraded"])
                record["degraded_reason"] = response.payload.get(
                    "degraded_reason"
                )
                record["server_ms"] = float(
                    response.headers["x-elapsed-ms"]
                )
                if record["degraded"]:
                    record["details"] = response.payload["result"]["details"]
            elif response.status == 429:
                record["reject_reason"] = response.payload["error"]
                record["retry_after"] = float(
                    response.headers.get("retry-after", "0")
                )
            results.append(record)

        await asyncio.gather(
            *(one(*entry) for entry in plan), return_exceptions=False
        )
        return results

    return asyncio.run(scenario())


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    return round(float(np.percentile(np.asarray(values), q)), 3)


def summarise(outcomes: list[dict], slo_ms: float) -> dict:
    """Classify every recorded outcome and check the degraded answers."""
    queries = [o for o in outcomes if o.get("path") == "/v1/query"]
    updates = [o for o in outcomes if o.get("path") == "/v1/update"]
    transport_errors = [o for o in outcomes if "transport_error" in o]
    full = [
        o
        for o in queries
        if o.get("status") == 200 and o.get("degraded") is False
    ]
    degraded = [
        o
        for o in queries
        if o.get("status") == 200 and o.get("degraded") is True
    ]
    rejected = [o for o in outcomes if o.get("status") == 429]
    server_errors = [
        o
        for o in outcomes
        if "status" in o and o["status"] not in (200, 202, 429)
    ]
    bounds_checked = 0
    bounds_violations = 0
    for outcome in degraded:
        details = outcome.get("details") or {}
        threshold = details.get("threshold_lower")
        uppers = details.get("bounds_upper")
        if threshold is None or uppers is None:
            continue
        bounds_checked += 1
        if any(upper < threshold - 1e-9 for upper in uppers):
            bounds_violations += 1
    degraded_reasons: dict[str, int] = {}
    for outcome in degraded:
        reason = outcome.get("degraded_reason") or "flagged"
        degraded_reasons[reason] = degraded_reasons.get(reason, 0) + 1
    return {
        "requests": len(outcomes),
        "queries": len(queries),
        "updates": len(updates),
        "updates_accepted": sum(
            1 for o in updates if o.get("status") == 202
        ),
        "full_answers": len(full),
        "degraded_answers": len(degraded),
        "degraded_reasons": degraded_reasons,
        "rejected_429": len(rejected),
        "server_errors": len(server_errors),
        "transport_errors": len(transport_errors),
        "admitted_p50_ms": _percentile(
            [o["server_ms"] for o in full], 50
        ),
        "admitted_p99_ms": _percentile(
            [o["server_ms"] for o in full], 99
        ),
        "degraded_p99_ms": _percentile(
            [o["server_ms"] for o in degraded], 99
        ),
        "slo_ms": slo_ms,
        "bounds_checked": bounds_checked,
        "bounds_violations": bounds_violations,
    }


def run(
    *,
    nodes: int,
    tenants: int,
    k: int,
    slo_ms: float,
    max_inflight: int,
    overload_factor: float,
    duration: float,
    update_fraction: float,
    max_offered_rps: float,
    seed: int,
    output: Path,
    bench_mode: str,
) -> dict:
    graph = build_powerlaw_graph(nodes, seed)
    tenant_ids = [f"portfolio-{i:04d}" for i in range(tenants)]
    tokens = {tenant: f"token-{tenant}" for tenant in tenant_ids}
    labels = [graph.label(i) for i in range(graph.num_nodes)]
    service = RiskService(
        graph,
        mode="thread",
        monitor_defaults={"seed": seed},
    )
    for tenant in tenant_ids:
        service.register_tenant(tenant, k)
    try:
        with ServerThread(
            service,
            tokens,
            slo_ms=slo_ms,
            max_inflight=max_inflight,
            # Per-tenant buckets stay out of the way: this benchmark
            # saturates the *compute*, so shedding should come from the
            # in-flight cap and deadlines, not a configured trickle.
            rate_limit=1_000.0,
        ) as server:
            host, port = "127.0.0.1", server.port
            calibration = calibrate(
                host,
                port,
                tenant_ids[: min(len(tenant_ids), 16)],
                tokens,
                labels,
                samples=12,
                seed=seed + 2,
            )
            saturation_rps = max_inflight / max(
                calibration["mean_seconds"], 1e-6
            )
            offered_rps = min(
                max_offered_rps, overload_factor * saturation_rps
            )
            effective_factor = offered_rps / saturation_rps
            print(
                f"calibrated: mean full query "
                f"{calibration['mean_seconds'] * 1e3:.2f}ms -> saturation "
                f"~{saturation_rps:.0f} rps; offering {offered_rps:.0f} rps "
                f"({effective_factor:.2f}x) for {duration:.0f}s"
            )
            outcomes = open_loop(
                host,
                port,
                tenant_ids,
                tokens,
                labels,
                offered_rps=offered_rps,
                duration=duration,
                slo_ms=slo_ms,
                update_fraction=update_fraction,
                seed=seed + 1,
            )
            # Liveness after overload, then the server's own ledger.
            async def check_health():
                response = await _wire_call(
                    host, port, "GET", "/healthz", None, "none"
                )
                return response.status == 200

            alive = asyncio.run(check_health())
            stats = server._stats_payload()
    finally:
        service.close()

    summary = summarise(outcomes, slo_ms)
    frontend = stats["frontend"]
    gates = {
        "alive_after_overload": bool(alive),
        "zero_transport_errors": summary["transport_errors"] == 0,
        "zero_server_errors": summary["server_errors"] == 0,
        "all_requests_terminal": summary["requests"]
        == len(outcomes),
        "every_query_answered": summary["full_answers"]
        + summary["degraded_answers"]
        == summary["queries"],
        "server_ledger_reconciles": stats["accounted"]
        == frontend["received"],
        "admitted_p99_within_slo": summary["admitted_p99_ms"]
        <= slo_ms,
        "degraded_bounds_consistent": summary["bounds_violations"] == 0,
    }
    row = {
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "tenants": tenants,
        "k": k,
        "max_inflight": max_inflight,
        "calibration": calibration,
        "saturation_rps": round(saturation_rps, 1),
        "offered_rps": round(offered_rps, 1),
        "overload_factor": round(effective_factor, 2),
        "duration_seconds": duration,
        "update_fraction": update_fraction,
        **summary,
        "server_stats": stats,
        "gates": gates,
    }
    print(
        f"overload: {summary['requests']} requests -> "
        f"{summary['full_answers']} full, "
        f"{summary['degraded_answers']} degraded, "
        f"{summary['rejected_429']} shed; admitted p50/p99 = "
        f"{summary['admitted_p50_ms']}/{summary['admitted_p99_ms']}ms "
        f"(SLO {slo_ms:.0f}ms); ledger "
        f"{stats['accounted']}/{frontend['received']}"
    )
    failed = [name for name, passed in gates.items() if not passed]
    if failed:
        raise AssertionError(
            f"front-end overload gates failed: {', '.join(failed)}"
        )
    report = {
        "benchmark": "slo_frontend_overload",
        "generated": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "mode": bench_mode,
        "seed": seed,
        "edge_factor": EDGE_FACTOR,
        "results": [row],
    }
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output}")
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small graph / fewer tenants so CI can smoke-test in seconds",
    )
    parser.add_argument("--nodes", type=int, default=None,
                        help="graph size (default: 4000; quick: 800)")
    parser.add_argument("--tenants", type=int, default=None,
                        help="tenant count (default: 1000; quick: 100)")
    parser.add_argument("--k", type=int, default=10, help="answer size")
    parser.add_argument("--slo-ms", type=float, default=250.0,
                        help="per-query latency budget")
    parser.add_argument("--max-inflight", type=int, default=None,
                        help="full-query concurrency cap (default: 4; quick: 2)")
    parser.add_argument("--overload-factor", type=float, default=2.0,
                        help="offered load as a multiple of saturation")
    parser.add_argument("--duration", type=float, default=None,
                        help="overload phase length, seconds (default: 8; quick: 3)")
    parser.add_argument("--update-fraction", type=float, default=0.2,
                        help="slice of requests that are ingestion updates")
    parser.add_argument("--max-offered-rps", type=float, default=None,
                        help="generator ceiling (default: 600; quick: 300)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--output",
        type=Path,
        default=DEFAULT_OUTPUT,
        help=f"JSON report path (default: {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(argv)
    if args.quick:
        nodes = args.nodes or 800
        tenants = args.tenants or 100
        max_inflight = args.max_inflight or 2
        duration = args.duration or 3.0
        max_offered = args.max_offered_rps or 300.0
        bench_mode = "quick"
    else:
        nodes = args.nodes or 4_000
        tenants = args.tenants or 1_000
        max_inflight = args.max_inflight or 4
        duration = args.duration or 8.0
        max_offered = args.max_offered_rps or 600.0
        bench_mode = "full"
    run(
        nodes=nodes,
        tenants=tenants,
        k=args.k,
        slo_ms=args.slo_ms,
        max_inflight=max_inflight,
        overload_factor=args.overload_factor,
        duration=duration,
        update_fraction=args.update_fraction,
        max_offered_rps=max_offered,
        seed=args.seed,
        output=args.output,
        bench_mode=bench_mode,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
