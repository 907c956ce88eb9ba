"""Durability benchmark: WAL ingestion overhead and crash-recovery speed.

Two questions, answered on one shared power-law guarantee network:

* **What does the write-ahead log cost at ingestion time?**  The same
  per-tenant workload is replayed through a plain in-memory
  :class:`~repro.serving.service.RiskService` and through durable ones
  (``fsync="flush"`` — the default one-fsync-per-drain-cycle policy —
  and ``fsync="always"`` for reference).  The gated overhead ratio is
  durable-flush wall time over in-memory wall time.
* **How much faster is snapshot + WAL replay than recomputing?**  The
  durable run takes a rotated snapshot late in the stream and then
  "crashes" (resources released, no graceful close — so a WAL suffix
  is left to replay).  Recovery time is a fresh
  ``RiskService(wal_dir=...)`` construction plus one answer per tenant;
  the baseline is rebuilding the same serving state from scratch —
  fresh monitors replaying the full event history.

Every timed number is guarded by bit-identity: the in-memory, durable,
recovered, and rebuilt-from-scratch answers must all be
``same_answer``-equal before any ratio is reported.  Results land in
``BENCH_durability.json`` at the repo root.

Usage
-----
::

    python -m benchmarks.bench_durability           # full run
    python -m benchmarks.bench_durability --quick   # CI smoke (seconds)
"""

from __future__ import annotations

import argparse
import json
import shutil
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

from benchmarks.common import (
    EDGE_FACTOR,
    REPO_ROOT,
    assert_identical,
    build_powerlaw_graph,
    build_workload,
)
from repro.core.graph import UncertainGraph
from repro.serving.service import RiskService

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_durability.json"


def replay(
    graph: UncertainGraph,
    workload,
    k: int,
    seed: int,
    *,
    wal_dir=None,
    fsync: str = "flush",
    snapshot_after_round: int | None = None,
    abandon: bool = False,
):
    """Replay *workload* through one service; time ingestion, keep answers.

    With ``abandon=True`` the service's resources are released without
    the graceful durable close — the state left on disk is exactly what
    a crash leaves (snapshot + WAL suffix), which is what the recovery
    timing must consume.
    """
    tenants = len(workload)
    rounds = len(workload[0])
    service = RiskService(
        graph,
        mode="serial",
        monitor_defaults={"seed": seed},
        wal_dir=wal_dir,
        fsync=fsync,
    )
    for tenant in range(tenants):
        service.register_tenant(tenant, k)
    service.snapshot(include_topk=True)  # warm start outside the timing
    started = time.perf_counter()
    for round_index in range(rounds):
        for tenant in range(tenants):
            for event in workload[tenant][round_index]:
                service.submit_update(tenant, event)
        service.flush()
        if wal_dir is not None and round_index == snapshot_after_round:
            service.snapshot_to_disk()
    ingest_seconds = time.perf_counter() - started
    answers = {
        tenant: service.query_topk(tenant, flush=False)
        for tenant in range(tenants)
    }
    if abandon:
        service._wal.close()
        service._pool.shutdown()
        service._closed = True
    else:
        service.close()
    return ingest_seconds, answers


def time_recovery(graph: UncertainGraph, tenants: int, k: int, seed: int, wal_dir):
    """Construct a recovered service and answer every tenant, timed."""
    started = time.perf_counter()
    service = RiskService(
        graph,
        mode="serial",
        monitor_defaults={"seed": seed},
        wal_dir=wal_dir,
    )
    answers = {
        tenant: service.query_topk(tenant, flush=False)
        for tenant in range(tenants)
    }
    elapsed = time.perf_counter() - started
    service._wal.close()
    service._pool.shutdown()
    service._closed = True
    return elapsed, answers


def time_fresh_rebuild(graph: UncertainGraph, workload, k: int, seed: int):
    """Rebuild the serving state from nothing: full replay, timed."""
    tenants = len(workload)
    started = time.perf_counter()
    service = RiskService(
        graph,
        mode="serial",
        monitor_defaults={"seed": seed},
    )
    for tenant in range(tenants):
        service.register_tenant(tenant, k)
    for round_index in range(len(workload[0])):
        for tenant in range(tenants):
            for event in workload[tenant][round_index]:
                service.submit_update(tenant, event)
        service.flush()
    answers = {
        tenant: service.query_topk(tenant, flush=False)
        for tenant in range(tenants)
    }
    elapsed = time.perf_counter() - started
    service.close()
    return elapsed, answers


def run(
    n: int,
    tenants: int,
    k: int,
    rounds: int,
    events_per_round: int,
    drift: float,
    seed: int,
    output: Path,
    bench_mode: str,
) -> dict:
    graph = build_powerlaw_graph(n, seed)
    workload = build_workload(
        graph, tenants, rounds, events_per_round, drift, seed
    )
    total_events = tenants * rounds * events_per_round
    scratch = Path(tempfile.mkdtemp(prefix="bench-durability-"))
    try:
        # --- ingestion overhead -----------------------------------------
        plain_seconds, plain_answers = replay(graph, workload, k, seed)
        flush_seconds, flush_answers = replay(
            graph, workload, k, seed,
            wal_dir=scratch / "wal-flush", fsync="flush",
        )
        always_seconds, always_answers = replay(
            graph, workload, k, seed,
            wal_dir=scratch / "wal-always", fsync="always",
        )
        assert_identical(plain_answers, flush_answers, "durable (flush)")
        assert_identical(plain_answers, always_answers, "durable (always)")

        # --- crash recovery ---------------------------------------------
        # Snapshot late in the stream, then crash: recovery restores the
        # snapshot and replays the remaining rounds' WAL suffix.
        snapshot_round = max(0, rounds - 2)
        crash_dir = scratch / "wal-crash"
        _, crashed_answers = replay(
            graph, workload, k, seed,
            wal_dir=crash_dir, fsync="flush",
            snapshot_after_round=snapshot_round, abandon=True,
        )
        recovery_seconds, recovered_answers = time_recovery(
            graph, tenants, k, seed, crash_dir
        )
        fresh_seconds, fresh_answers = time_fresh_rebuild(
            graph, workload, k, seed
        )
        assert_identical(crashed_answers, recovered_answers, "recovery")
        assert_identical(crashed_answers, fresh_answers, "fresh rebuild")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    row = {
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "tenants": tenants,
        "k": k,
        "rounds": rounds,
        "events_per_round": events_per_round,
        "total_events": total_events,
        "drift": drift,
        "plain_ingest_seconds": round(plain_seconds, 6),
        "wal_flush_ingest_seconds": round(flush_seconds, 6),
        "wal_always_ingest_seconds": round(always_seconds, 6),
        "wal_overhead_ratio": round(
            flush_seconds / max(plain_seconds, 1e-12), 4
        ),
        "wal_always_overhead_ratio": round(
            always_seconds / max(plain_seconds, 1e-12), 4
        ),
        "snapshot_after_round": snapshot_round,
        "recovery_seconds": round(recovery_seconds, 6),
        "fresh_rebuild_seconds": round(fresh_seconds, 6),
        "recovery_speedup_vs_fresh": round(
            fresh_seconds / max(recovery_seconds, 1e-12), 2
        ),
        "verified_tenants": tenants,
    }
    print(
        f"n={row['nodes']:>6}  tenants={tenants}  events={total_events}  "
        f"wal-overhead={row['wal_overhead_ratio']:.2f}x "
        f"(always={row['wal_always_overhead_ratio']:.2f}x)  "
        f"recovery={recovery_seconds:.3f}s vs "
        f"fresh={fresh_seconds:.3f}s "
        f"({row['recovery_speedup_vs_fresh']:.1f}x)  "
        f"verified={tenants} tenants"
    )
    report = {
        "benchmark": "durable_serving",
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
                        help="tenant monitors (default: 16; quick: 6)")
    parser.add_argument("--k", type=int, default=10, help="answer size")
    parser.add_argument("--rounds", type=int, default=None,
                        help="flush rounds (default: 8; quick: 5)")
    parser.add_argument("--events-per-round", type=int, default=None,
                        help="events per tenant per round (default: 5)")
    parser.add_argument("--drift", type=float, default=0.1,
                        help="std-dev of the per-patch probability drift")
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
        tenants = args.tenants or 6
        rounds = args.rounds or 12
        events_per_round = args.events_per_round or 4
        bench_mode = "quick"
    else:
        nodes = args.nodes or 5_000
        tenants = args.tenants or 16
        rounds = args.rounds or 12
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
        args.output,
        bench_mode,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
