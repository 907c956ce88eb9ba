"""Replication benchmark: shipping lag, failover speed, zero-loss ledger.

Three questions, answered on one shared power-law guarantee network:

* **How far behind does a WAL-shipped replica run?**  Every flushed
  batch on the durable primary is timed from "durable on the primary"
  to "applied on every replica" (the shipper is stepped synchronously,
  so the number is pure shipping + verify + apply cost, no poll
  jitter).  Reported as per-batch replication lag p50/p99.
* **Is failover actually faster than local crash recovery?**  After the
  primary "crashes" (resources released, no graceful close), the
  benchmark times two independent ways of getting an answering service
  back: promoting the most-caught-up replica (warm pool, epoch fence,
  un-acked suffix replay) versus a fresh ``RiskService`` recovering
  from a copy of the dead primary's own WAL directory.  The gated
  ratio is failover over local recovery — the replicated path must not
  be slower than 2x the thing it replaces.
* **Did anything get lost?**  A ledger counts events submitted, batches
  flushed, and the replica-applied watermark; the run also demands
  bit-identical answers from the primary (pre-crash), every replica,
  the recovered service, and the promoted service before any timing is
  reported.  ``zero_loss`` is only true when the watermarks and all
  answers agree.

Results land in ``BENCH_replication.json`` at the repo root.

Usage
-----
::

    python -m benchmarks.bench_replication           # full run
    python -m benchmarks.bench_replication --quick   # CI smoke (seconds)
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

from benchmarks.common import (
    REPO_ROOT,
    assert_identical,
    build_powerlaw_graph,
    build_workload,
)
from repro.replication import (
    EpochStore,
    FailoverCoordinator,
    LocalSource,
    ReplicaService,
    ReplicationHub,
    WalShipper,
)
from repro.serving.service import RiskService

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_replication.json"


def _percentile(samples: list[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[rank]


def _abandon(service: RiskService) -> None:
    """Release the service's resources the way a crash would: the WAL
    stays exactly as written, no graceful close, no final snapshot."""
    service._wal.close()
    service._pool.shutdown()
    service._closed = True


def _answers(service, tenants: int) -> dict:
    return {
        tenant: service.query_topk(tenant) for tenant in range(tenants)
    }


def run(
    n: int,
    tenants: int,
    k: int,
    rounds: int,
    events_per_round: int,
    replicas: int,
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
    scratch = Path(tempfile.mkdtemp(prefix="bench-replication-"))
    monitor_defaults = {"seed": seed}
    promoted = None
    recovered = None
    try:
        primary_dir = scratch / "primary"
        primary = RiskService(
            graph,
            mode="serial",
            monitor_defaults=monitor_defaults,
            wal_dir=primary_dir,
            fsync="flush",
            epoch_store=EpochStore(scratch / "epoch.json"),
            node_id="primary",
        )
        for tenant in range(tenants):
            primary.register_tenant(tenant, k)
        primary.snapshot(include_topk=True)  # warm start, outside timings
        hub = ReplicationHub(primary)
        fleet = {}
        for index in range(replicas):
            node = f"r{index + 1}"
            replica = ReplicaService(
                graph,
                scratch / node,
                node_id=node,
                mode="serial",
                monitor_defaults=monitor_defaults,
                fsync="flush",
            )
            fleet[node] = (replica, WalShipper(LocalSource(hub), replica))

        # --- shipping lag -------------------------------------------------
        # Per batch: make it durable on the primary, then step every
        # shipper until the batch is applied everywhere.  Synchronous
        # stepping makes the latency a property of the pipeline, not of
        # a poll interval.
        lags: list[float] = []
        for round_index in range(rounds):
            for tenant in range(tenants):
                for event in workload[tenant][round_index]:
                    primary.submit_update(tenant, event)
            primary.flush()
            target = primary.durable_seq
            started = time.perf_counter()
            for replica, shipper in fleet.values():
                while replica.applied_seq < target:
                    shipper.step()
            lags.append(time.perf_counter() - started)
        primary_answers = _answers(primary, tenants)
        for node, (replica, _) in fleet.items():
            assert_identical(
                primary_answers, _answers(replica, tenants),
                f"replica {node}",
            )
        acked = dict(hub.acked())
        applied = {
            node: replica.applied_seq for node, (replica, _) in fleet.items()
        }
        durable_seq = primary.durable_seq
        bytes_shipped = {
            node: shipper.stats["bytes_shipped"]
            for node, (_, shipper) in fleet.items()
        }

        # --- crash: failover vs local recovery ----------------------------
        _abandon(primary)
        # Local recovery baseline runs on a copy of the dead primary's
        # directory so promotion (below) sees the cluster untouched.
        recovery_dir = scratch / "recovery"
        shutil.copytree(primary_dir, recovery_dir)
        started = time.perf_counter()
        recovered = RiskService(
            graph,
            mode="serial",
            monitor_defaults=monitor_defaults,
            wal_dir=recovery_dir,
        )
        recovered_answers = _answers(recovered, tenants)
        recovery_seconds = time.perf_counter() - started

        coordinator = FailoverCoordinator(EpochStore(scratch / "epoch.json"))
        started = time.perf_counter()
        winner, promoted = coordinator.promote(
            {node: replica for node, (replica, _) in fleet.items()},
            fsync="flush",
        )
        promoted_answers = _answers(promoted, tenants)
        failover_seconds = time.perf_counter() - started

        assert_identical(primary_answers, recovered_answers, "recovery")
        assert_identical(primary_answers, promoted_answers, "failover")
        zero_loss = (
            all(seq == durable_seq for seq in applied.values())
            and promoted.durable_seq >= durable_seq
        )
    finally:
        if recovered is not None:
            _abandon(recovered)
        if promoted is not None:
            _abandon(promoted)
        shutil.rmtree(scratch, ignore_errors=True)

    row = {
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "tenants": tenants,
        "k": k,
        "rounds": rounds,
        "events_per_round": events_per_round,
        "total_events": total_events,
        "replicas": replicas,
        "drift": drift,
        "lag_p50_ms": round(_percentile(lags, 0.50) * 1e3, 3),
        "lag_p99_ms": round(_percentile(lags, 0.99) * 1e3, 3),
        "lag_mean_ms": round(statistics.fmean(lags) * 1e3, 3),
        "bytes_shipped": bytes_shipped,
        "failover_winner": winner,
        "failover_epoch": promoted.epoch,
        "failover_seconds": round(failover_seconds, 6),
        "recovery_seconds": round(recovery_seconds, 6),
        "failover_vs_recovery_ratio": round(
            failover_seconds / max(recovery_seconds, 1e-12), 4
        ),
        "ledger": {
            "events_submitted": total_events,
            "batches_flushed": rounds,
            "primary_durable_seq": durable_seq,
            "replica_applied_seq": applied,
            "acked_seq": acked,
            "zero_loss": zero_loss,
        },
        "verified_tenants": tenants,
    }
    print(
        f"n={row['nodes']:>6}  tenants={tenants}  replicas={replicas}  "
        f"events={total_events}  lag p50={row['lag_p50_ms']:.1f}ms "
        f"p99={row['lag_p99_ms']:.1f}ms  "
        f"failover={failover_seconds:.3f}s vs "
        f"recovery={recovery_seconds:.3f}s "
        f"({row['failover_vs_recovery_ratio']:.2f}x)  "
        f"zero-loss={zero_loss}  verified={tenants} tenants"
    )
    report = {
        "benchmark": "replicated_serving",
        "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "mode": bench_mode,
        "seed": seed,
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
                        help="tenant monitors (default: 12; quick: 4)")
    parser.add_argument("--k", type=int, default=10, help="answer size")
    parser.add_argument("--rounds", type=int, default=None,
                        help="flush rounds (default: 12; quick: 8)")
    parser.add_argument("--events-per-round", type=int, default=None,
                        help="events per tenant per round (default: 5)")
    parser.add_argument("--replicas", type=int, default=2,
                        help="WAL-shipped replicas (default: 2)")
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
        tenants = args.tenants or 4
        rounds = args.rounds or 8
        events_per_round = args.events_per_round or 4
        bench_mode = "quick"
    else:
        nodes = args.nodes or 5_000
        tenants = args.tenants or 12
        rounds = args.rounds or 12
        events_per_round = args.events_per_round or 5
        bench_mode = "full"
    if args.replicas < 1:
        parser.error("--replicas must be >= 1")
    run(
        nodes,
        tenants,
        args.k,
        rounds,
        events_per_round,
        args.replicas,
        args.drift,
        args.seed,
        args.output,
        bench_mode,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
