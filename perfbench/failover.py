"""``failover``: the durable write path read back.

Each crash cycle builds a durable primary on a calibrated 5,000-node
network with two WAL-shipped ``ReplicaService``s, each behind a
synchronously stepped ``WalShipper(LocalSource)``.  Tenants stream
drift batches; each flushed batch is timed from durable on the primary
to applied on both replicas (``work_ms``: median over cycles of the
cycle's mean ship lag per batch).  Then the
primary is abandoned the way a crash leaves it — WAL as written, no
close, no final snapshot — and the benchmark times:

* ``answer_ms`` — ``FailoverCoordinator.promote`` until every tenant
  holds a verified answer from the promoted replica.  Each replica is
  promoted in turn, through a coordinator over that replica alone, so
  a cycle gives one sample per replica: a promotion takes about 30 ms
  and varies by a third between calls, and one sample per 7 s cycle
  left the median too unsteady;
* ``alt_answer_ms`` — a fresh ``RiskService`` recovering from a copy of
  the dead primary's WAL directory until every tenant answers.

Promoted and recovered answers must be ``same_answer`` to the primary's
pre-crash answers, and each replica's applied watermark must equal the
primary's durable seq.  Garbage is collected before each timed section,
so a collection left over from the previous cycle does not land in it.
Cycles repeat for ``--seconds`` (at least
:data:`MIN_CYCLES`); each metric is the median over cycles (over
promotions for ``answer_ms``).  Tenants,
replicas, rounds, events per round, drift and fsync policy are
``repro-detect replicate``'s defaults; the graph size is
``bench_replication``'s.

Every cycle replays the same drift batches, built from the graph seed:
a batch's repair cost depends heavily on which entities it touches, so
seeded batches would make the spread a property of the input, not of
the program.  ``--seed`` seeds the tenants' monitors.
"""

from __future__ import annotations

import gc
import os
import shutil

from perfbench.common import OUT_DIR, GateFailed, Outcome, clock, span
from perfbench.stats import describe, median
from perfbench.tracing import Tracer
from perfbench.workloads import GRAPH_SEED, K, build_graph, gate_graph
from repro.replication import (
    EpochStore,
    FailoverCoordinator,
    LocalSource,
    ReplicaService,
    ReplicationHub,
    WalShipper,
)
from repro.serving.service import RiskService
from repro.streaming.events import apply_event
from repro.streaming.replay import random_patch_stream

#: The shape of ``repro-detect replicate``'s defaults.
TENANTS = 4
REPLICAS = 2
ROUNDS = 6
EVENTS_PER_ROUND = 4
DRIFT = 0.1
FSYNC = "flush"
MIN_CYCLES = 5


def drift_batches(graph, seed: int) -> list[list[list]]:
    """Per round, per tenant: one batch of drift events (compounding)."""
    rounds = [[[] for _ in range(TENANTS)] for _ in range(ROUNDS)]
    for tenant in range(TENANTS):
        shadow = graph.copy()
        stream = random_patch_stream(
            shadow, ROUNDS * EVENTS_PER_ROUND, seed=seed * 100 + tenant, drift=DRIFT
        )
        for round_index in range(ROUNDS):
            for _ in range(EVENTS_PER_ROUND):
                event = next(stream)
                apply_event(shadow, event)
                rounds[round_index][tenant].append(event)
    return rounds


def _answers(service) -> dict:
    return {tenant: service.query_topk(tenant) for tenant in range(TENANTS)}


def _mismatches(reference: dict, candidate: dict) -> int:
    return sum(not reference[t].same_answer(candidate[t]) for t in reference)


def _crash(service: RiskService) -> None:
    """Stop the process's view of the primary without any durable close."""
    service.wal.close()
    service.pool.shutdown()


def cycle(graph, seed: int, batches, work, tracer: Tracer | None) -> dict:
    """One build / stream / crash / promote / recover cycle."""
    defaults = {"seed": seed}
    gc.collect()
    started = clock()
    with span(tracer, "op.setup"):
        primary = RiskService(
            graph, mode="serial", monitor_defaults=defaults,
            wal_dir=work / "primary", fsync=FSYNC,
            epoch_store=EpochStore(work / "epoch.json"), node_id="primary",
        )
        for tenant in range(TENANTS):
            primary.register_tenant(tenant, K)
        _answers(primary)
        primary.snapshot_to_disk()
        hub = ReplicationHub(primary)
        fleet = {}
        for index in range(REPLICAS):
            node = f"r{index + 1}"
            replica = ReplicaService(
                graph, work / node, node_id=node, mode="serial",
                monitor_defaults=defaults, fsync=FSYNC,
            )
            fleet[node] = (replica, WalShipper(LocalSource(hub), replica))
        for replica, shipper in fleet.values():
            while replica.applied_seq < primary.durable_seq:
                shipper.step()
    setup = clock() - started

    lags = []
    for round_batches in batches:
        for tenant, events in enumerate(round_batches):
            primary.submit_updates(tenant, events)
        primary.flush()
        target = primary.durable_seq
        started = clock()
        with span(tracer, "op.ship"):
            for replica, shipper in fleet.values():
                while replica.applied_seq < target:
                    shipper.step()
        lags.append(clock() - started)
    before = _answers(primary)
    durable_seq = primary.durable_seq
    failures = sum(
        _mismatches(before, _answers(replica))
        + int(replica.applied_seq != durable_seq)
        for replica, _ in fleet.values()
    )
    bytes_shipped = sum(shipper.stats["bytes_shipped"] for _, shipper in fleet.values())

    _crash(primary)
    failovers, promoted = [], []
    for node, (replica, _) in fleet.items():
        gc.collect()
        started = clock()
        with span(tracer, "op.failover"):
            _, service = FailoverCoordinator(EpochStore(work / "epoch.json")).promote(
                {node: replica}, fsync=FSYNC, snapshot_on_close=False,
            )
            failures += _mismatches(before, _answers(service))
        failovers.append(clock() - started)
        failures += int(service.durable_seq < durable_seq)
        promoted.append(service)

    shutil.copytree(work / "primary", work / "recovery")
    gc.collect()
    started = clock()
    with span(tracer, "op.recover"):
        recovered = RiskService(
            graph, mode="serial", monitor_defaults=defaults,
            wal_dir=work / "recovery", snapshot_on_close=False,
        )
        failures += _mismatches(before, _answers(recovered))
    recover = clock() - started

    for service in promoted + [recovered]:
        service.close()
    for replica, _ in fleet.values():
        replica.close()
    return {
        "setup": setup, "lags": lags, "failovers": failovers, "recover": recover,
        "failures": failures, "checks": TENANTS * (2 * REPLICAS + 1) + 2 * REPLICAS,
        "bytes_shipped": bytes_shipped,
    }


def run(seed: int, seconds: float, tracer: Tracer | None) -> Outcome:
    graph = build_graph("failover", GRAPH_SEED)
    _, gate = gate_graph(graph, seed)
    if not gate.passed:
        raise GateFailed(f"failover seed {seed}: {'; '.join(gate.failures)}")
    batches = drift_batches(graph, GRAPH_SEED)
    root = OUT_DIR / f"failover-{os.getpid()}"
    cycles = []
    measure_start = clock()
    try:
        while len(cycles) < MIN_CYCLES or clock() - measure_start < seconds:
            work = root / f"c{len(cycles)}"
            work.mkdir(parents=True)
            cycles.append(cycle(graph, seed, batches, work, tracer))
            shutil.rmtree(work)
    finally:
        shutil.rmtree(root, ignore_errors=True)

    setups = [c["setup"] for c in cycles]
    lags = [lag for c in cycles for lag in c["lags"]]
    # Every cycle replays the same batches, so per-batch medians would
    # jump between neighbouring batch costs; a cycle's mean is stable.
    cycle_lags = [sum(c["lags"]) / len(c["lags"]) for c in cycles]
    failovers = [f for c in cycles for f in c["failovers"]]
    recovers = [c["recover"] for c in cycles]
    return Outcome(
        metrics={
            "setup_s": median(setups),
            "answer_ms": median(failovers) * 1e3,
            "alt_answer_ms": median(recovers) * 1e3,
            "work_ms": median(cycle_lags) * 1e3,
        },
        attempted=sum(c["checks"] for c in cycles),
        failed=sum(c["failures"] for c in cycles),
        collected={
            "replication.bytes_shipped": median([c["bytes_shipped"] for c in cycles]),
        },
        lines=[
            f"graph: {graph.num_nodes} nodes, {graph.num_edges} edges; gate {gate.as_dict()}",
            f"{len(cycles)} crash cycles: {TENANTS} tenants, {REPLICAS} replicas, "
            f"{ROUNDS} rounds x {EVENTS_PER_ROUND} events, fsync={FSYNC}",
            f"setup: {describe(setups, 1.0, 's')}",
            f"failover: {describe(failovers)}",
            f"recover: {describe(recovers)}",
            f"ship lag per batch: {describe(lags)}; cycle means: {describe(cycle_lags)}",
        ],
    )
