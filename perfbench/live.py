"""``live``: the deployed guaranteed-loan risk-control service.

A durable ``RiskService`` (WAL, ``fsync="always"``) behind
``FrontendServer`` runs in its own process (:mod:`perfbench.live_server`)
and serves eight portfolio tenants (k=10) on the full-scale guarantee
network.  One load-generator process drives an open loop at the fixed
offered rate :data:`RATE` over one connection-at-a-time lane per core:

* ``query`` — top-k ``POST /v1/query`` (``answer_ms``: p50);
* ``durable`` — a drift update with ``ack=durable`` (``work_ms``: p50);
* ``fresh`` — an ``ack=window`` update, then the same tenant's top-k
  query (``alt_answer_ms``: p50, due time to answer).

Every latency counts from the request's due time.  At the end, each
tenant's served answer must be ``same_answer`` to a fresh BSR on that
tenant's final graph.  After the server has stopped, its WAL is read
back from disk: every durably acknowledged seq must be there, and a
fresh ``RiskService`` recovering from it must give every tenant that
same answer.

The traffic shape comes from the repository: 20% of requests are
updates (``bench_frontend``'s ``update_fraction``), split evenly
between the two acknowledgement levels the frontend offers; eight
tenants and drift 0.1 are ``repro-detect serve``'s defaults.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
from dataclasses import dataclass

import numpy as np

from perfbench.common import OUT_DIR, ROOT, GateFailed, Outcome, clock, span
from perfbench.live_server import FSYNC, tenant_ids, token
from perfbench.stats import describe, median, run_open_loop
from perfbench.tracing import Tracer, load_spans
from perfbench.workloads import GRAPH_SEED, K, build_graph, gate_graph
from repro.algorithms.bsr import BoundedSampleReverseDetector
from repro.frontend.protocol import event_to_json
from repro.io.jsonio import result_from_dict, result_to_dict
from repro.serving.service import RiskService
from repro.streaming.events import apply_event
from repro.streaming.replay import random_patch_stream

#: Offered load, requests per second, constant across commits.
RATE = 200.0
MIX = (("query", 0.8), ("durable", 0.1), ("fresh", 0.1))
LANES = 2
SETUPS = 8
DRIFT = 0.1
#: Span ids of the server process are shifted by this much.
SERVER_ID_OFFSET = 10**9


@dataclass
class Op:
    due: float
    kind: str
    tenant: str
    event: object = None


class Server:
    """One server process; ``setup_s`` is spawn until ``READY``."""

    def __init__(self, seed: int, work, trace: bool) -> None:
        self.work = work
        work.mkdir(parents=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH")))
        )
        command = [
            sys.executable, "-m", "perfbench.live_server", "--seed", str(seed),
            "--wal-dir", str(work / "wal"), "--out-dir", str(work),
        ]
        started = clock()
        self.process = subprocess.Popen(
            command + (["--trace"] if trace else []),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True,
        )
        try:
            line = self.process.stdout.readline().split()
            if len(line) != 2 or line[0] != "READY":
                raise RuntimeError("live server exited before it was ready")
        except BaseException:
            self.stop()
            raise
        self.setup_seconds = clock() - started
        self.port = int(line[1])

    def stop(self) -> None:
        """SIGTERM, then wait; kill if it does not end in time."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        self.process.stdin.close()
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


def request(port: int, path: str, body, tenant: str, rid: str):
    """One HTTP exchange on a fresh connection (as the repo's client does)."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        connection.request(
            "POST" if body is not None else "GET",
            path,
            body=None if body is None else json.dumps(body),
            headers={
                "Authorization": f"Bearer {token(tenant)}",
                "Content-Type": "application/json",
                "Connection": "close",
                "X-Request-Id": rid,
            },
        )
        response = connection.getresponse()
        raw = response.read()
        return response.status, (json.loads(raw) if raw else None)
    finally:
        connection.close()


def plan(graph, seed: int, seconds: float) -> list[list[Op]]:
    """The seeded open-loop schedule, one op list per lane.

    Lane ``i`` owns tenants ``i, i + LANES, …`` so each tenant's updates
    reach the server in schedule order.  Drift events are generated
    ahead, against per-tenant shadow copies, so no generation work sits
    inside the timed loop.
    """
    rng = np.random.default_rng(seed)
    kinds = [kind for kind, _ in MIX]
    shares = [share for _, share in MIX]
    tenants = tenant_ids()
    shadows = {tenant: graph.copy() for tenant in tenants}
    streams = {
        tenant: random_patch_stream(
            shadows[tenant], 10**9, seed=seed * 1_000 + index, drift=DRIFT
        )
        for index, tenant in enumerate(tenants)
    }
    lanes: list[list[Op]] = [[] for _ in range(LANES)]
    for index in range(int(RATE * seconds)):
        lane = index % LANES
        kind = kinds[rng.choice(len(kinds), p=shares)]
        owned = tenants[lane::LANES]
        tenant = owned[rng.integers(len(owned))]
        event = None
        if kind != "query":
            event = next(streams[tenant])
            apply_event(shadows[tenant], event)
        lanes[lane].append(Op(index / RATE, kind, tenant, event))
    return lanes


def _query_ok(status, payload) -> bool:
    return (
        status == 200
        and not payload["degraded"]
        and not payload["stale"]
        and len(payload["result"]["nodes"]) == K
    )


def run(seed: int, seconds: float, tracer: Tracer | None) -> Outcome:
    graph = build_graph("live", GRAPH_SEED)
    _, gate = gate_graph(graph, seed)
    if not gate.passed:
        raise GateFailed(f"live seed {seed}: {'; '.join(gate.failures)}")
    lanes = plan(graph, seed, seconds)
    work = OUT_DIR / f"live-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    setups, server = [], None

    def spawn(attempt: int) -> Server:
        with span(tracer, "op.setup"):
            started = Server(seed, work / f"s{attempt}", tracer is not None)
        setups.append(started.setup_seconds)
        return started

    # Half the starts come before the load and half after it: the host's
    # speed drifts over tens of seconds, and starts in one window would
    # all see the same phase of it.
    try:
        for attempt in range(SETUPS // 2):
            if server is not None:
                server.stop()
            server = spawn(attempt)
        port = server.port
        exchanges: list[tuple[str, float, float]] = []

        def send(op: Op, rid: str):
            body = {"tenant": op.tenant}
            if op.kind == "query":
                body.update(budget_ms=60_000.0, allow_degraded=False)
                path = "/v1/query"
            else:
                body["event"] = event_to_json(op.event)
                if op.kind == "durable":
                    body["ack"] = "durable"
                path = "/v1/update"
            sent = clock()
            try:
                status, payload = request(port, path, body, op.tenant, rid)
            except (OSError, http.client.HTTPException):
                return None, None
            exchanges.append((rid, sent, clock()))
            return status, payload

        def exchange(op: Op, rid: str) -> dict:
            status, payload = send(op, rid)
            if op.kind == "query":
                return {"ok": _query_ok(status, payload)}
            accepted = status == 202 and payload["accepted"]
            if op.kind == "durable":
                seq = payload.get("seq") if accepted else None
                return {"ok": isinstance(seq, int), "accepted": accepted, "seq": seq}
            if not accepted:
                return {"ok": False, "accepted": False}
            status, payload = send(Op(op.due, "query", op.tenant), rid + "q")
            return {"ok": _query_ok(status, payload), "accepted": True}

        records = [None] * LANES
        start = clock() + 0.2

        def drive(lane: int) -> None:
            ops = lanes[lane]
            records[lane] = run_open_loop(
                [op.due for op in ops],
                lambda index: exchange(ops[index], f"{lane}-{index}"),
                start=start,
            )

        threads = [threading.Thread(target=drive, args=(lane,)) for lane in range(LANES)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if tracer is not None:
            # The checks below detect and recover in this process; they
            # are not the workload, so their calls stay out of the ledger.
            tracer.restore()

        latencies = {kind: [] for kind, _ in MIX}
        lateness, attempted, failed = [], 0, 0
        shadows = {tenant: graph.copy() for tenant in tenant_ids()}
        acked_seqs, accepted_events = [], 0
        for lane, record in enumerate(records):
            lateness.extend(record.lateness)
            for op, latency, result in zip(lanes[lane], record.latency, record.outcomes):
                attempted += 1
                failed += int(not result["ok"])
                latencies[op.kind].append(latency)
                if result.get("accepted"):
                    accepted_events += 1
                    apply_event(shadows[op.tenant], op.event)
                if result.get("seq") is not None:
                    acked_seqs.append(result["seq"])

        # Served answers against fresh detection on each final graph.
        fresh, mismatched = {}, []
        for tenant in tenant_ids():
            status, payload = request(port, "/v1/query", {
                "tenant": tenant, "budget_ms": 60_000.0, "allow_degraded": False,
            }, tenant, f"verify-{tenant}")
            fresh[tenant] = BoundedSampleReverseDetector(seed=seed).detect(shadows[tenant], K)
            served = result_from_dict(payload["result"]) if status == 200 else None
            expected = result_from_dict(result_to_dict(fresh[tenant]))
            if served is None or not expected.same_answer(served):
                mismatched.append(tenant)
        attempted += len(tenant_ids())
        failed += len(mismatched)
        _, stats = request(port, "/v1/stats", None, tenant_ids()[0], "stats")
    finally:
        if server is not None:
            server.stop()
    for attempt in range(SETUPS // 2, SETUPS):
        spawn(attempt).stop()
    lost, diverged, wal_bytes = read_back(server.work / "wal", graph, seed, acked_seqs, fresh)
    attempted += len(tenant_ids())  # recovered answers; a lost ack fails its op
    failed += lost + len(diverged)
    frontend = stats["frontend"]
    cache = stats["cache"]
    collected = {
        "serving.cache_hit_share": cache["hits"] / max(1, cache["hits"] + cache["misses"]),
        "persistence.bytes_per_event": wal_bytes / max(1, accepted_events),
        "frontend.rejected": sum(v for k, v in frontend.items() if k.startswith("rejected")),
        "frontend.degraded": frontend["degraded"],
    }
    server_spans = []
    if tracer is not None:
        server_spans = load_spans(server.work / "spans.jsonl")
        for item in server_spans:
            item.id += SERVER_ID_OFFSET
            if item.parent is not None:
                item.parent += SERVER_ID_OFFSET
        collected["frontend.overhead_ms"] = _overhead_ms(exchanges, server_spans)
    shutil.rmtree(work, ignore_errors=True)

    return Outcome(
        metrics={
            "setup_s": median(setups),
            "answer_ms": median(latencies["query"]) * 1e3,
            "alt_answer_ms": median(latencies["fresh"]) * 1e3,
            "work_ms": median(latencies["durable"]) * 1e3,
        },
        attempted=attempted,
        failed=failed,
        collected=collected,
        spans=server_spans,
        lines=[
            f"graph: {graph.num_nodes} nodes, {graph.num_edges} edges; gate {gate.as_dict()}",
            f"offered {RATE:.0f} req/s open loop over {LANES} lanes, "
            f"{len(tenant_ids())} tenants, fsync={FSYNC}",
            f"setup (server start): {describe(setups, 1.0, 's')}",
            f"top-k query: {describe(latencies['query'])}",
            f"durable update: {describe(latencies['durable'])}",
            f"write-then-read: {describe(latencies['fresh'])}",
            f"generator lateness: {describe(lateness)} max={max(lateness) * 1e3:.3f}ms",
            f"verify: {len(tenant_ids()) - len(mismatched)}/{len(tenant_ids())} served "
            f"answers same_answer to fresh BSR; WAL read back: {lost} of "
            f"{len(acked_seqs)} durable acks missing, {len(diverged)} of "
            f"{len(tenant_ids())} recovered answers diverge",
            f"server: {json.dumps(frontend)}; cache {json.dumps(cache)}",
        ],
    )


def read_back(wal_dir, graph, seed: int, acked_seqs, fresh) -> tuple[int, list, int]:
    """Recover a service from the stopped server's WAL on disk.

    Returns the durably acknowledged seqs missing from the log, the
    tenants whose recovered answer is not ``same_answer`` to *fresh*,
    and the log's size in bytes.
    """
    recovered = RiskService(
        graph, mode="serial", monitor_defaults={"seed": seed},
        wal_dir=wal_dir, snapshot_on_close=False,
    )
    try:
        wal_bytes = sum(path.stat().st_size for path in recovered.wal.segment_paths)
        on_disk = {batch.seq for batch in recovered.wal.read_batches()}
        lost = sum(seq not in on_disk for seq in acked_seqs)
        diverged = [
            tenant for tenant in tenant_ids()
            if not fresh[tenant].same_answer(recovered.query_topk(tenant))
        ]
    finally:
        recovered.close()
    return lost, diverged, wal_bytes


def _overhead_ms(exchanges, server_spans) -> float:
    """Median of client round trip minus the server's parse-end to
    write-end time for the same request id."""
    parsed, written = {}, {}
    for item in server_spans:
        if item.request is None:
            continue
        if item.name == "frontend.parse":
            parsed[item.request] = item.end
        elif item.name == "frontend.write":
            written[item.request] = item.end
    gaps = [
        (done - sent) - (written[rid] - parsed[rid])
        for rid, sent, done in exchanges
        if rid in parsed and rid in written
    ]
    return median(gaps) * 1e3 if gaps else 0.0
