"""The ``live`` workload's server process.

Serves the full-scale guarantee network from a durable ``RiskService``
(WAL, ``fsync="always"``) behind ``FrontendServer`` until SIGTERM.
Prints ``READY <port>`` on standard output once every tenant has its
first answer, and stops on SIGTERM or when standard input closes (so it
cannot outlive the load generator).  When traced, it writes
``spans.jsonl`` into ``--out-dir`` on the way out.

    python3 -m perfbench.live_server --seed 7 --wal-dir D --out-dir O [--trace]
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
import threading
from pathlib import Path

FSYNC = "always"
TENANTS = 8
SHARDS = 2
#: Per-tenant admission rate; far above the offered load, so it never trips.
RATE_LIMIT = 2_000.0


def tenant_ids() -> list[str]:
    return [f"portfolio-{index:02d}" for index in range(TENANTS)]


def token(tenant: str) -> str:
    return f"token-{tenant}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--wal-dir", type=Path, required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from perfbench import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    from perfbench.workloads import GRAPH_SEED, K, build_graph
    from repro.frontend.server import FrontendServer
    from repro.serving.service import RiskService

    graph = build_graph("live", GRAPH_SEED)
    service = RiskService(
        graph,
        mode="thread",
        shards=SHARDS,
        monitor_defaults={"seed": args.seed},
        wal_dir=args.wal_dir,
        fsync=FSYNC,
        snapshot_on_close=False,
    )
    for tenant in tenant_ids():
        service.register_tenant(tenant, K)
    for tenant in tenant_ids():
        service.query_topk(tenant)
    server = FrontendServer(
        service,
        {tenant: token(tenant) for tenant in tenant_ids()},
        slo_ms=60_000.0,
        rate_limit=RATE_LIMIT,
        max_inflight=8,
    )

    async def serve() -> None:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        loop.add_signal_handler(signal.SIGTERM, stop.set)

        def watch_parent() -> None:
            sys.stdin.read()
            loop.call_soon_threadsafe(stop.set)

        threading.Thread(target=watch_parent, daemon=True).start()
        await server.start()
        print(f"READY {server.port}", flush=True)
        try:
            await stop.wait()
        finally:
            await server.stop()

    try:
        asyncio.run(serve())
    finally:
        service.close()
    if tracer is not None:
        tracer.dump(args.out_dir / "spans.jsonl")
    return 0


if __name__ == "__main__":
    sys.exit(main())
