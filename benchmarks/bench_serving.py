"""Wall-clock benchmark: multi-tenant RiskService vs naive per-call serving.

Replays the same per-tenant update workload two ways over one shared
power-law guarantee network:

* **serving** — the :class:`~repro.serving.service.RiskService` path:
  every tenant is an incremental monitor over a copy-on-write view of
  the shared graph; updates drain through the ingestion queue (windowed,
  last-write-wins coalescing) and refresh in per-tenant batches; queries
  hit the warm monitors.
* **naive** — the pre-serving architecture: one detection call per
  update, from scratch, per tenant (apply the event, run a fresh
  BSR detection) — "one monitor per call", nothing shared, nothing
  incremental.

At every round boundary each tenant's served answer is compared
bit-for-bit against the naive loop's fresh detection on the identically
patched graph *before any timing is reported*, so the speedup measures
exact serving, not an approximation.  Results land in
``BENCH_serving.json`` at the repo root.

Usage
-----
::

    python -m benchmarks.bench_serving            # 32 tenants, 5k nodes
    python -m benchmarks.bench_serving --quick    # CI smoke (seconds)
    python -m benchmarks.bench_serving --tenants 64 --rounds 6 --mode fork
"""

from __future__ import annotations

import argparse
import json
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from benchmarks.common import (
    EDGE_FACTOR,
    REPO_ROOT,
    build_powerlaw_graph,
    build_workload,
)
from repro.algorithms.bsr import BoundedSampleReverseDetector
from repro.core.graph import UncertainGraph
from repro.serving import RiskService, default_mode
from repro.streaming.events import apply_event

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_serving.json"


def bench_serving(
    graph: UncertainGraph,
    workload,
    k: int,
    seed: int,
    mode: str,
    shards: int | None,
):
    """Run the RiskService path; returns timings, latencies, answers."""
    tenants = len(workload)
    rounds = len(workload[0])
    service = RiskService(
        graph,
        mode=mode,
        shards=shards,
        monitor_defaults={"seed": seed},
    )
    for tenant in range(tenants):
        service.register_tenant(tenant, k)
    started = time.perf_counter()
    # Warm start: every monitor's initial full detection, in-pool.
    service.snapshot(include_topk=True)
    warmup_seconds = time.perf_counter() - started
    answers: dict[tuple[int, int], object] = {}
    query_latencies: list[float] = []
    started = time.perf_counter()
    for round_index in range(rounds):
        for tenant in range(tenants):
            for event in workload[tenant][round_index]:
                service.submit_update(tenant, event)
        service.flush()
        for tenant in range(tenants):
            query_started = time.perf_counter()
            answers[(tenant, round_index)] = service.query_topk(
                tenant, flush=False
            )
            query_latencies.append(time.perf_counter() - query_started)
    serving_seconds = time.perf_counter() - started
    stats = {
        "queue": service.queue.stats.as_dict(),
        "shards": service.snapshot().shards,
    }
    # Per-worker deduplicated vs unshared bytes.  Each term compares a
    # worker's resident graphs against one-copy-per-holder within that
    # same worker, so the ratio stays meaningful in fork mode (where the
    # base graph is resident once per worker but OS-COW shared).
    shared_bytes = sum(int(row["graph_bytes"]) for row in stats["shards"])
    naive_bytes = sum(
        int(row["graph_bytes_unshared"]) for row in stats["shards"]
    )
    service.close()
    return {
        "warmup_seconds": warmup_seconds,
        "serving_seconds": serving_seconds,
        "answers": answers,
        "query_latencies": query_latencies,
        "queue": stats["queue"],
        "graph_bytes_shared": shared_bytes,
        "graph_bytes_naive": naive_bytes,
    }


def bench_naive(graph: UncertainGraph, workload, k: int, seed: int):
    """One fresh detection per update per tenant (the pre-serving loop)."""
    tenants = len(workload)
    rounds = len(workload[0])
    references: dict[tuple[int, int], object] = {}
    detect_latencies: list[float] = []
    graphs = [graph.copy() for _ in range(tenants)]
    started = time.perf_counter()
    for round_index in range(rounds):
        for tenant in range(tenants):
            live = graphs[tenant]
            for event in workload[tenant][round_index]:
                apply_event(live, event)
                detector = BoundedSampleReverseDetector(seed=seed)
                call_started = time.perf_counter()
                fresh = detector.detect(live, k)
                detect_latencies.append(time.perf_counter() - call_started)
            references[(tenant, round_index)] = fresh
    naive_seconds = time.perf_counter() - started
    return {
        "naive_seconds": naive_seconds,
        "references": references,
        "detect_latencies": detect_latencies,
    }


def _percentile_ms(latencies: list[float], q: float) -> float:
    return round(float(np.percentile(np.asarray(latencies), q)) * 1e3, 3)


def run(
    n: int,
    tenants: int,
    k: int,
    rounds: int,
    events_per_round: int,
    drift: float,
    seed: int,
    mode: str,
    shards: int | None,
    output: Path,
    bench_mode: str,
) -> dict:
    """Run both paths, verify bit-identity, print and write the report."""
    graph = build_powerlaw_graph(n, seed)
    workload = build_workload(
        graph, tenants, rounds, events_per_round, drift, seed
    )
    total_events = tenants * rounds * events_per_round
    serving = bench_serving(graph, workload, k, seed, mode, shards)
    naive = bench_naive(graph, workload, k, seed)
    mismatches = 0
    for key, reference in naive["references"].items():
        if not serving["answers"][key].same_answer(reference):
            mismatches += 1
    if mismatches:
        raise AssertionError(
            f"{mismatches}/{len(naive['references'])} served answers "
            "diverged from fresh detection — the speedup would be "
            "meaningless"
        )
    serving_total = serving["warmup_seconds"] + serving["serving_seconds"]
    row = {
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "tenants": tenants,
        "k": k,
        "rounds": rounds,
        "events_per_round": events_per_round,
        "total_events": total_events,
        "drift": drift,
        "pool_mode": mode,
        "serving_warmup_seconds": round(serving["warmup_seconds"], 6),
        "serving_seconds": round(serving["serving_seconds"], 6),
        "serving_total_seconds": round(serving_total, 6),
        "naive_seconds": round(naive["naive_seconds"], 6),
        "serving_updates_per_second": round(
            total_events / max(serving_total, 1e-12), 1
        ),
        "naive_updates_per_second": round(
            total_events / max(naive["naive_seconds"], 1e-12), 1
        ),
        "throughput_speedup_vs_naive": round(
            naive["naive_seconds"] / max(serving_total, 1e-12), 2
        ),
        "query_p50_ms": _percentile_ms(serving["query_latencies"], 50),
        "query_p99_ms": _percentile_ms(serving["query_latencies"], 99),
        "naive_detect_p50_ms": _percentile_ms(naive["detect_latencies"], 50),
        "naive_detect_p99_ms": _percentile_ms(naive["detect_latencies"], 99),
        "queue": serving["queue"],
        "graph_bytes_shared": serving["graph_bytes_shared"],
        "graph_bytes_naive": serving["graph_bytes_naive"],
        "verified_answers": len(naive["references"]),
    }
    print(
        f"n={row['nodes']:>6}  tenants={tenants}  events={total_events}  "
        f"serving={serving_total:.3f}s  naive={row['naive_seconds']:.3f}s  "
        f"speedup={row['throughput_speedup_vs_naive']:.1f}x  "
        f"query p50/p99={row['query_p50_ms']}/{row['query_p99_ms']}ms  "
        f"verified={row['verified_answers']}"
    )
    report = {
        "benchmark": "multi_tenant_serving",
        "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
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
        help="small graph / few tenants so CI can smoke-test in seconds",
    )
    parser.add_argument("--nodes", type=int, default=None,
                        help="graph size (default: 5000; quick: 1000)")
    parser.add_argument("--tenants", type=int, default=None,
                        help="tenant monitors (default: 32; quick: 8)")
    parser.add_argument("--k", type=int, default=10, help="answer size")
    parser.add_argument("--rounds", type=int, default=None,
                        help="flush rounds (default: 4; quick: 3)")
    parser.add_argument("--events-per-round", type=int, default=None,
                        help="events per tenant per round (default: 5)")
    parser.add_argument("--drift", type=float, default=0.1,
                        help="std-dev of the per-patch probability drift")
    parser.add_argument("--mode", default=None,
                        help="pool mode (default: fork where available)")
    parser.add_argument("--shards", type=int, default=None,
                        help="pool shards (default: CPU count, max 8)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--output",
        type=Path,
        default=DEFAULT_OUTPUT,
        help=f"JSON report path (default: {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(argv)
    if args.quick:
        nodes = args.nodes or 1_000
        tenants = args.tenants or 8
        rounds = args.rounds or 3
        events_per_round = args.events_per_round or 4
        bench_mode = "quick"
    else:
        nodes = args.nodes or 5_000
        tenants = args.tenants or 32
        rounds = args.rounds or 4
        events_per_round = args.events_per_round or 5
        bench_mode = "full"
    run(
        nodes,
        tenants,
        args.k,
        rounds,
        events_per_round,
        args.drift,
        args.seed,
        args.mode or default_mode(),
        args.shards,
        args.output,
        bench_mode,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
