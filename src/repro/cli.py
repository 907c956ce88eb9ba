"""Command-line interface for one-off detections and streaming replays.

Usage::

    repro-detect --graph loans.json --method BSRBK --k 10
    repro-detect --dataset guarantee --scale 0.05 --k-percent 5 --method BSR
    python -m repro.cli --graph loans.txt --format edgelist --k 3 --json

    repro-detect stream --dataset guarantee --k 10 --events 25 --verify
    repro-detect stream --panel --k-percent 2 --json

    repro-detect query --list-families
    repro-detect query --dataset guarantee --family kcore --params '{"k": 3}'
    repro-detect query --graph loans.json --family reliability \
        --params '{"pairs": [[0, 7]]}' --worlds 8192 --json
    repro-detect query --dataset guarantee --scale 0.01 --family skyline --exact

    repro-detect serve --dataset guarantee --tenants 8 --k 10 --events 20
    repro-detect serve --dataset wiki --tenants 32 --k-percent 1 --verify
    repro-detect serve --dataset guarantee --k 10 --wal-dir state/ \
        --fsync always --snapshot-interval 30
    repro-detect serve --dataset guarantee --k 10 --port 8080 \
        --slo-ms 200 --rate-limit 25 --auth desk-a=s3cret

    repro-detect crawl --dataset wiki --strategy avrachenkov \
        --budget 60 --seeds 4 --k 5 --verify

    repro-detect replicate --dataset guarantee --tenants 4 --k 10 \
        --rounds 6 --replicas 2 --verify

The default (no subcommand) form reads a graph (JSON or text edge list,
or a named synthetic dataset), runs one detection method, and prints the
ranked answer — as a table or as JSON for scripting.

The ``query`` subcommand runs any registered query family
(:mod:`repro.queries`) — top-k, k-core membership probability,
pairwise/cluster reliability, risk-profile skylines — over **one shared
set** of sampled possible worlds (``--worlds``), or exhaustively with
``--exact`` on small graphs.  ``--list-families`` enumerates what is
registered.

The ``stream`` subcommand drives a :class:`~repro.streaming.monitor.
TopKMonitor` over an update stream — random single-entity monitoring
patches (``--events``) or the temporal guarantee panel's year-over-year
drift (``--panel``) — reporting per-step refresh telemetry and, with
``--verify``, checking each incremental answer bit-for-bit against a
fresh BSR detection.

The ``serve`` subcommand stands up the multi-tenant
:class:`~repro.serving.service.RiskService`: many per-portfolio monitors
over copy-on-write views of one shared graph, fed through the async
ingestion queue.  It replays a per-tenant event stream, then reports
each tenant's top-k, the sustained update throughput, and what the
windowed coalescing and buffer sharing saved; ``--verify`` checks every
tenant's final answer bit-for-bit against fresh detection.  With
``--port`` it instead binds the SLO-enforced HTTP front end
(:mod:`repro.frontend`): per-tenant bearer auth (``--auth``),
token-bucket rate limits, latency budgets with degraded bounds-only
answers, and 429 + ``Retry-After`` load shedding.

The ``crawl`` subcommand treats the loaded graph as *hidden* ground
truth and discovers it by budgeted crawling (:mod:`repro.crawling`):
a strategy (``--strategy``) spends ``--budget`` crawl steps from
``--seeds`` seed nodes while a
:class:`~repro.streaming.monitor.TopKMonitor` ingests each step's
topology events incrementally — crawl-while-monitoring.  ``--verify``
checks every post-step answer bit-for-bit against fresh detection on an
independently replayed observed subgraph; the summary reports the final
answer's recall of the hidden graph's true top-k.

The ``replicate`` subcommand runs a self-contained failover drill
(:mod:`repro.replication`): a durable primary serves tenant streams
while WAL shippers mirror every accepted batch to ``--replicas``
replicas; the primary is then crashed, the most-caught-up replica is
promoted behind an epoch fence, and the deposed primary's late write
is proven rejected.  The report covers per-batch replication lag,
promotion time, and — with ``--verify`` — bit-identity of every
replica's and the promoted service's answers against the pre-crash
primary.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.algorithms.registry import ALL_METHODS, make_detector
from repro.core.errors import ReproError
from repro.core.graph import UncertainGraph
from repro.datasets.registry import available_datasets, load_dataset
from repro.io.edgelist import read_edgelist
from repro.io.jsonio import load_graph_json, result_to_dict
from repro.utils.tables import render_table

__all__ = [
    "build_parser",
    "build_stream_parser",
    "build_serve_parser",
    "build_query_parser",
    "build_crawl_parser",
    "build_replicate_parser",
    "main",
    "stream_main",
    "serve_main",
    "query_main",
    "crawl_main",
    "replicate_main",
]


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-detect",
        description="Detect the top-k vulnerable nodes of an uncertain graph.",
        epilog=(
            "For incremental monitoring over an update stream, use the "
            "'stream' subcommand: repro-detect stream --help"
        ),
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph", help="path to a graph file")
    source.add_argument(
        "--dataset",
        choices=available_datasets(),
        help="generate a named synthetic dataset instead of reading a file",
    )
    parser.add_argument(
        "--format",
        choices=("json", "edgelist"),
        default="json",
        help="graph file format (default: json)",
    )
    parser.add_argument("--scale", type=float, default=None,
                        help="dataset scale (synthetic datasets only)")
    parser.add_argument("--method", choices=ALL_METHODS, default="BSRBK")
    size = parser.add_mutually_exclusive_group(required=True)
    size.add_argument("--k", type=int, help="answer size (absolute)")
    size.add_argument("--k-percent", type=float,
                      help="answer size as a percentage of |V|")
    parser.add_argument("--epsilon", type=float, default=0.3)
    parser.add_argument("--delta", type=float, default=0.1)
    parser.add_argument("--bk", type=int, default=16,
                        help="bottom-k threshold (BSRBK only)")
    parser.add_argument("--samples", type=int, default=20_000,
                        help="fixed sample budget (method N only)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the result as JSON instead of a table")
    return parser


def build_stream_parser() -> argparse.ArgumentParser:
    """Argument parser of the ``stream`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro-detect stream",
        description=(
            "Replay an update stream through the incremental TopKMonitor."
        ),
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph", help="path to a graph file")
    source.add_argument(
        "--dataset",
        choices=available_datasets(),
        help="generate a named synthetic dataset",
    )
    source.add_argument(
        "--panel",
        action="store_true",
        help=(
            "replay the temporal guarantee panel's year-over-year drift "
            "instead of random patches"
        ),
    )
    parser.add_argument(
        "--format",
        choices=("json", "edgelist"),
        default="json",
        help="graph file format (default: json)",
    )
    parser.add_argument("--scale", type=float, default=None,
                        help="dataset scale (synthetic datasets only)")
    size = parser.add_mutually_exclusive_group(required=True)
    size.add_argument("--k", type=int, help="answer size (absolute)")
    size.add_argument("--k-percent", type=float,
                      help="answer size as a percentage of |V|")
    parser.add_argument("--events", type=int, default=20,
                        help="random single-entity patches to replay")
    parser.add_argument("--drift", type=float, default=0.1,
                        help="std-dev of patch drift (0 draws values fresh)")
    parser.add_argument(
        "--grow",
        type=int,
        default=0,
        help=(
            "interleave this many topology-growth batches (one new node "
            "plus attaching edges each) into the stream"
        ),
    )
    parser.add_argument(
        "--algorithm",
        choices=("bsr", "bsrbk"),
        default="bsr",
        help="maintained detection algorithm",
    )
    parser.add_argument("--bk", type=int, default=16,
                        help="bottom-k counter threshold (bsrbk only)")
    parser.add_argument("--epsilon", type=float, default=0.3)
    parser.add_argument("--delta", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--verify",
        action="store_true",
        help=(
            "after each step, run a fresh detection and check the "
            "incremental answer is bit-identical (also reports speedup)"
        ),
    )
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit per-step records as JSON")
    return parser


def build_serve_parser() -> argparse.ArgumentParser:
    """Argument parser of the ``serve`` subcommand."""
    from repro.serving.pool import available_modes, default_mode

    parser = argparse.ArgumentParser(
        prog="repro-detect serve",
        description=(
            "Serve many tenant monitors over one shared graph through "
            "the async ingestion queue."
        ),
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph", help="path to a graph file")
    source.add_argument(
        "--dataset",
        choices=available_datasets(),
        help="generate a named synthetic dataset",
    )
    parser.add_argument(
        "--format",
        choices=("json", "edgelist"),
        default="json",
        help="graph file format (default: json)",
    )
    parser.add_argument("--scale", type=float, default=None,
                        help="dataset scale (synthetic datasets only)")
    size = parser.add_mutually_exclusive_group(required=True)
    size.add_argument("--k", type=int, help="answer size (absolute)")
    size.add_argument("--k-percent", type=float,
                      help="answer size as a percentage of |V|")
    parser.add_argument("--tenants", type=int, default=8,
                        help="portfolio monitors to multiplex (default: 8)")
    parser.add_argument("--events", type=int, default=20,
                        help="update events replayed per tenant")
    parser.add_argument("--drift", type=float, default=0.1,
                        help="std-dev of patch drift (0 draws values fresh)")
    parser.add_argument(
        "--mode",
        choices=available_modes(),
        default=default_mode(),
        help="worker pool execution mode",
    )
    parser.add_argument("--shards", type=int, default=None,
                        help="execution lanes (default: CPU count, max 8)")
    parser.add_argument("--flush-interval", type=float, default=0.02,
                        help="ingestion flush window in seconds")
    parser.add_argument(
        "--wal-dir",
        default=None,
        help=(
            "durability directory (write-ahead log + rotated snapshots); "
            "a directory holding earlier state is recovered on startup"
        ),
    )
    parser.add_argument(
        "--fsync",
        choices=("always", "flush", "never"),
        default="flush",
        help="WAL fsync policy (with --wal-dir; default: flush)",
    )
    parser.add_argument(
        "--snapshot-interval",
        type=float,
        default=None,
        help="seconds between rotated disk snapshots (with --wal-dir)",
    )
    parser.add_argument(
        "--max-pending",
        type=int,
        default=4096,
        help="per-tenant ingestion backlog bound (default: 4096)",
    )
    parser.add_argument(
        "--overflow",
        choices=("wake", "error", "shed"),
        default="wake",
        help=(
            "full-backlog policy: wake the pump (unbounded, default), "
            "raise BackpressureError, or shed with a counter"
        ),
    )
    parser.add_argument("--epsilon", type=float, default=0.3)
    parser.add_argument("--delta", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--verify",
        action="store_true",
        help=(
            "after serving, run a fresh BSR detection per tenant and "
            "check each served answer is bit-identical"
        ),
    )
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit per-tenant records as JSON")
    network = parser.add_argument_group(
        "network front end",
        "with --port, serve over HTTP (SLO-enforced) instead of "
        "running the replay demo",
    )
    network.add_argument(
        "--port",
        type=int,
        default=None,
        help="bind this TCP port (0 picks a free one) and serve HTTP",
    )
    network.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: 127.0.0.1)")
    network.add_argument(
        "--slo-ms",
        type=float,
        default=250.0,
        help="default per-query latency budget in ms (default: 250)",
    )
    network.add_argument(
        "--rate-limit",
        type=float,
        default=50.0,
        help="per-tenant sustained requests/second (default: 50)",
    )
    network.add_argument(
        "--burst",
        type=float,
        default=None,
        help="token-bucket burst capacity (default: rate-limit / 2)",
    )
    network.add_argument(
        "--max-inflight",
        type=int,
        default=8,
        help="global cap on concurrent full queries (default: 8)",
    )
    network.add_argument(
        "--queue-limit",
        type=int,
        default=4096,
        help="reject ingestion past this buffered-event backlog",
    )
    network.add_argument(
        "--auth",
        action="append",
        default=None,
        metavar="TENANT=TOKEN",
        help=(
            "tenant bearer token (repeatable); default: "
            "token-<tenant> for each replay tenant"
        ),
    )
    return parser


def build_query_parser() -> argparse.ArgumentParser:
    """Argument parser of the ``query`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro-detect query",
        description=(
            "Run a registered query family over one shared set of "
            "sampled (or, with --exact, exhaustively enumerated) "
            "possible worlds."
        ),
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--graph", help="path to a graph file")
    source.add_argument(
        "--dataset",
        choices=available_datasets(),
        help="generate a named synthetic dataset",
    )
    parser.add_argument(
        "--format",
        choices=("json", "edgelist"),
        default="json",
        help="graph file format (default: json)",
    )
    parser.add_argument("--scale", type=float, default=None,
                        help="dataset scale (synthetic datasets only)")
    parser.add_argument(
        "--family",
        default="topk",
        help="registered query family to run (default: topk; "
             "see --list-families)",
    )
    parser.add_argument(
        "--params",
        default=None,
        metavar="JSON",
        help="family parameters as a JSON object, e.g. '{\"k\": 5}'",
    )
    parser.add_argument(
        "--worlds",
        type=int,
        default=4096,
        help="sampled worlds shared by every family (default: 4096)",
    )
    parser.add_argument(
        "--exact",
        action="store_true",
        help="enumerate every possible world instead of sampling "
             "(small graphs only)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--list-families",
        action="store_true",
        help="print the registered family names and exit",
    )
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the result as JSON instead of a table")
    return parser


def query_main(argv: list[str] | None = None) -> int:
    """Entry point of the ``query`` subcommand."""
    import numpy as np

    from repro.queries import (
        QueryEngine,
        available_families,
        get_query_family,
    )
    from repro.sampling.worldstate import WorldView

    args = build_query_parser().parse_args(argv)
    if args.list_families:
        for name in available_families():
            print(name)
        return 0
    try:
        if args.graph is None and args.dataset is None:
            raise ReproError(
                "one of --graph / --dataset is required "
                "(or --list-families)"
            )
        graph = _load_graph(args)
        params: dict = {}
        if args.params:
            try:
                params = json.loads(args.params)
            except ValueError as error:
                raise ReproError(f"--params is not valid JSON: {error}")
            if not isinstance(params, dict):
                raise ReproError(
                    f"--params must be a JSON object, got {args.params!r}"
                )
        if args.exact:
            result = get_query_family(args.family).exact(graph, **params)
        else:
            if args.worlds < 1:
                raise ReproError(
                    f"--worlds must be >= 1, got {args.worlds}"
                )
            view = WorldView(
                graph,
                np.arange(args.worlds, dtype=np.int64),
                seed=args.seed,
            )
            result = QueryEngine(view).run(args.family, **params)
    except (ReproError, OSError, TypeError) as error:
        # TypeError covers params that the family's signature rejects
        # (e.g. {"kk": 3}) — a user input problem, not a crash.
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.as_json:
        print(json.dumps(result.to_dict(), indent=1))
        return 0
    title = (
        f"{result.family} ({result.method}) over {result.worlds_used} "
        f"worlds of {graph.num_nodes} nodes "
        f"({result.elapsed_seconds:.3f}s)"
    )
    rows = [
        {"node": int(node), "value": round(float(value), 6)}
        for node, value in zip(result.nodes, result.values)
    ]
    if rows:
        print(render_table(rows, title=title))
    else:
        print(title)
    if not rows and result.details:
        # Families without per-node answers (reliability) report
        # through details.
        print(json.dumps(result.details, indent=1))
    return 0


def _load_graph(args: argparse.Namespace) -> UncertainGraph:
    if args.dataset is not None:
        return load_dataset(args.dataset, scale=args.scale, seed=args.seed).graph
    if args.format == "json":
        return load_graph_json(args.graph)
    return read_edgelist(args.graph)


def _resolve_k(args: argparse.Namespace, graph: UncertainGraph) -> int:
    """The answer size from ``--k`` / ``--k-percent`` (shared validation)."""
    if args.k is not None:
        return args.k
    if args.k_percent <= 0:
        raise ReproError("--k-percent must be positive")
    return max(1, round(graph.num_nodes * args.k_percent / 100.0))


def _growth_batches(graph: UncertainGraph, grow: int, seed: int):
    """``grow`` topology batches: one new node plus attaching edges each.

    Labels and attachment targets are drawn deterministically from
    *seed*; targets come from the pre-growth label set, so batches stay
    valid regardless of how they interleave with probability patches.
    """
    import numpy as np

    from repro.streaming.events import EdgeAdd, NodeAdd

    rng = np.random.default_rng(np.uint64(seed) ^ np.uint64(0x9E3779B9))
    labels = graph.labels()
    for i in range(grow):
        label = f"grown-{i}"
        events = [
            NodeAdd(
                label, float(rng.uniform(0.05, 0.5)), source="stream:grow"
            )
        ]
        fan = min(int(rng.integers(1, 3)), len(labels))
        targets = rng.choice(len(labels), size=fan, replace=False)
        for j in targets:
            other = labels[int(j)]
            prob = float(rng.uniform(0.1, 0.9))
            if rng.random() < 0.5:
                events.append(
                    EdgeAdd(other, label, prob, source="stream:grow")
                )
            else:
                events.append(
                    EdgeAdd(label, other, prob, source="stream:grow")
                )
        yield f"+grow {label}", events


def _with_growth(batches, graph: UncertainGraph, grow: int, seed: int):
    """Interleave one growth batch after each stream batch (then drain)."""
    growth = _growth_batches(graph, grow, seed)
    for batch in batches:
        yield batch
        pending = next(growth, None)
        if pending is not None:
            yield pending
    yield from growth


def _stream_batches(args: argparse.Namespace):
    """Yield ``(description, events)`` batches plus the graph to monitor."""
    from repro.datasets.temporal import build_guarantee_panel
    from repro.streaming.replay import random_patch_stream

    if args.panel:
        panel = build_guarantee_panel(seed=args.seed)
        batches = [
            (f"year {year}", events) for year, events in panel.update_stream()
        ]
        graph = panel.graph
    else:
        graph = _load_graph(args)
        drift = args.drift if args.drift > 0 else None
        events = random_patch_stream(
            graph, args.events, seed=args.seed, drift=drift
        )
        # Keep the patch stream lazy: drift events must read the *current*
        # (already-patched) value at yield time so month-over-month drift
        # compounds, exactly as the benchmark replays it.
        batches = ((None, [event]) for event in events)
    if getattr(args, "grow", 0):
        batches = _with_growth(batches, graph, args.grow, args.seed)
    return graph, batches


def _fresh_detector(args: argparse.Namespace):
    """The one-shot detector a monitor built from *args* must match."""
    from repro.algorithms.bsr import BoundedSampleReverseDetector
    from repro.algorithms.bsrbk import BottomKDetector

    if args.algorithm == "bsrbk":
        return BottomKDetector(
            bk=args.bk, epsilon=args.epsilon, delta=args.delta, seed=args.seed
        )
    return BoundedSampleReverseDetector(
        epsilon=args.epsilon, delta=args.delta, seed=args.seed
    )


def stream_main(argv: list[str] | None = None) -> int:
    """Entry point of the ``stream`` subcommand."""
    from repro.streaming.events import EdgeAdd, NodeAdd
    from repro.streaming.monitor import TopKMonitor

    args = build_stream_parser().parse_args(argv)
    try:
        graph, batches = _stream_batches(args)
        k = _resolve_k(args, graph)
        monitor = TopKMonitor(
            graph,
            k,
            epsilon=args.epsilon,
            delta=args.delta,
            seed=args.seed,
            algorithm=args.algorithm,
            bk=args.bk,
        )
        rows: list[dict] = []
        incremental_total = fresh_total = 0.0
        topology_events = probability_events = 0
        for step, (description, events) in enumerate(batches):
            events = list(events)
            for event in events:
                if isinstance(event, (NodeAdd, EdgeAdd)):
                    topology_events += 1
                else:
                    probability_events += 1
            monitor.apply(events)
            # refresh() returns *this* step's report even when the batch
            # turns out to be a no-op (a "clean" report) — top_k() alone
            # would skip the refresh and leave last_report stale.
            report = monitor.refresh()
            result = monitor.top_k()
            incremental_total += report.elapsed_seconds
            row = {
                "step": step,
                "event": description
                or "; ".join(event.describe() for event in events),
                "mode": report.mode,
                "sampling": report.sampling,
                "worlds": f"{report.worlds_repaired}/{report.samples}",
                "ms": round(report.elapsed_seconds * 1e3, 2),
            }
            if args.verify:
                started = time.perf_counter()
                fresh = _fresh_detector(args).detect(graph, k)
                fresh_seconds = time.perf_counter() - started
                fresh_total += fresh_seconds
                row["fresh_ms"] = round(fresh_seconds * 1e3, 2)
                row["match"] = result.same_answer(fresh)
            rows.append(row)
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.as_json:
        print(json.dumps({
            "k": k,
            "steps": rows,
            "topology_events": topology_events,
            "probability_events": probability_events,
        }, indent=1))
    else:
        title = (
            f"streaming top-{k} over {graph.num_nodes} nodes "
            f"({len(rows)} update batches)"
        )
        print(render_table(rows, title=title))
        if args.verify and rows:
            mismatches = sum(1 for row in rows if not row["match"])
            speedup = fresh_total / max(incremental_total, 1e-12)
            print(
                f"verify: {len(rows) - mismatches}/{len(rows)} steps "
                f"bit-identical to fresh {args.algorithm.upper()} "
                f"({topology_events} topology + {probability_events} "
                f"probability events verified); "
                f"incremental {incremental_total:.3f}s vs fresh "
                f"{fresh_total:.3f}s ({speedup:.1f}x)"
            )
    if args.verify and any(not row["match"] for row in rows):
        return 1
    return 0


def _serve_network(args: argparse.Namespace, service, k: int) -> int:
    """Run ``serve --port``: the SLO-enforced HTTP front end.

    Binds :class:`~repro.frontend.server.FrontendServer` over the
    already-constructed service and runs until SIGINT/SIGTERM; prints
    the final overload-control counters on the way out.
    """
    import asyncio
    import signal

    from repro.frontend.server import FrontendServer

    if args.auth:
        tokens: dict[str, str] = {}
        for spec in args.auth:
            tenant, sep, token = spec.partition("=")
            if not sep or not tenant or not token:
                raise ReproError(
                    f"--auth expects TENANT=TOKEN, got {spec!r}"
                )
            tokens[tenant] = token
    else:
        tokens = {
            tenant: f"token-{tenant}"
            for tenant in (
                f"portfolio-{i:02d}" for i in range(args.tenants)
            )
        }
    recovered = set(service.tenants())
    for tenant_id in tokens:
        if tenant_id not in recovered:
            service.register_tenant(tenant_id, k)
    server = FrontendServer(
        service,
        tokens,
        host=args.host,
        port=args.port,
        slo_ms=args.slo_ms,
        rate_limit=args.rate_limit,
        burst=args.burst,
        max_inflight=args.max_inflight,
        queue_depth_limit=args.queue_limit,
        flush_interval=args.flush_interval,
        snapshot_interval=args.snapshot_interval,
    )

    async def run() -> tuple[str, dict]:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        handled: list[signal.Signals] = []
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
                handled.append(signum)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-main thread / unsupported platform
        await server.start()
        address = server.address
        print(
            f"serving {len(tokens)} tenant(s) on {address} "
            f"(SLO {args.slo_ms:.0f}ms, rate {args.rate_limit:.0f}/s, "
            f"inflight {args.max_inflight}; Ctrl-C stops)",
            file=sys.stderr,
        )
        try:
            await stop.wait()
        finally:
            for signum in handled:
                loop.remove_signal_handler(signum)
            await server.stop()
        return address, server._stats_payload()

    address, stats = asyncio.run(run())
    if args.as_json:
        print(json.dumps({"address": address, **stats}, indent=1))
    else:
        frontend = stats["frontend"]
        print(
            f"served {frontend['received']} requests: "
            f"{frontend['completed']} completed, "
            f"{frontend['degraded']} degraded, "
            f"{frontend['rejected_rate'] + frontend['rejected_capacity'] + frontend['rejected_backlog']} rejected "
            f"(accounted {stats['accounted']}/{frontend['received']}); "
            f"cache {stats['cache']['hits']} hits / "
            f"{stats['cache']['misses']} misses"
        )
    return 0


def serve_main(argv: list[str] | None = None) -> int:
    """Entry point of the ``serve`` subcommand."""
    import asyncio
    import signal

    from repro.algorithms.bsr import BoundedSampleReverseDetector
    from repro.serving import RiskService
    from repro.streaming.events import apply_event
    from repro.streaming.replay import random_patch_stream

    args = build_serve_parser().parse_args(argv)
    service = None
    try:
        graph = _load_graph(args)
        k = _resolve_k(args, graph)
        if args.tenants < 1:
            raise ReproError(f"--tenants must be >= 1, got {args.tenants}")
        if args.events < 1:
            raise ReproError(f"--events must be >= 1, got {args.events}")
        if args.snapshot_interval is not None and args.wal_dir is None:
            raise ReproError("--snapshot-interval requires --wal-dir")
        service = RiskService(
            graph,
            mode=args.mode,
            shards=args.shards,
            monitor_defaults={
                "seed": args.seed,
                "epsilon": args.epsilon,
                "delta": args.delta,
            },
            max_pending=args.max_pending,
            overflow=args.overflow,
            wal_dir=args.wal_dir,
            fsync=args.fsync,
        )
        recovered = set(service.tenants())
        if recovered:
            print(
                f"recovered {len(recovered)} tenant(s) from "
                f"{args.wal_dir}",
                file=sys.stderr,
            )
        if args.port is not None:
            return _serve_network(args, service, k)
        tenant_ids = [f"portfolio-{i:02d}" for i in range(args.tenants)]
        for tenant_id in tenant_ids:
            if tenant_id not in recovered:
                service.register_tenant(tenant_id, k)
        # Each tenant's stream compounds drift against a shadow copy —
        # the single-threaded reference state the served answers are
        # verified against.
        shadows = {tenant_id: graph.copy() for tenant_id in tenant_ids}
        drift = args.drift if args.drift > 0 else None
        streams = {
            tenant_id: random_patch_stream(
                shadows[tenant_id],
                args.events,
                seed=args.seed + 101 + position,
                drift=drift,
            )
            for position, tenant_id in enumerate(tenant_ids)
        }

        async def drive() -> None:
            stop = asyncio.Event()
            loop = asyncio.get_running_loop()
            # Graceful shutdown: SIGINT/SIGTERM set the stop event, the
            # pump runs its final drain cycle (with --wal-dir nothing
            # accepted is lost — see RiskService.close), and the normal
            # reporting path below still runs.
            handled: list[signal.Signals] = []
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(signum, stop.set)
                    handled.append(signum)
                except (NotImplementedError, RuntimeError, ValueError):
                    pass  # non-main thread / unsupported platform
            try:
                pump = asyncio.create_task(
                    service.serve(
                        flush_interval=args.flush_interval,
                        stop=stop,
                        snapshot_interval=args.snapshot_interval,
                    )
                )
                for _ in range(args.events):
                    if stop.is_set():
                        break
                    for tenant_id in tenant_ids:
                        event = next(streams[tenant_id])
                        service.submit_update(tenant_id, event)
                        apply_event(shadows[tenant_id], event)
                    await asyncio.sleep(0)
                stop.set()
                await pump
            finally:
                for signum in handled:
                    loop.remove_signal_handler(signum)

        started = time.perf_counter()
        asyncio.run(drive())
        results = {
            tenant_id: service.query_topk(tenant_id)
            for tenant_id in tenant_ids
        }
        elapsed = time.perf_counter() - started
        rows: list[dict] = []
        mismatches = 0
        for tenant_id in tenant_ids:
            result = results[tenant_id]
            row = {
                "tenant": tenant_id,
                "events": args.events,
                "top": ", ".join(str(node) for node in result.nodes[:3]),
                "samples": result.samples_used,
            }
            if args.verify:
                detector = BoundedSampleReverseDetector(
                    epsilon=args.epsilon, delta=args.delta, seed=args.seed
                )
                fresh = detector.detect(shadows[tenant_id], k)
                row["match"] = result.same_answer(fresh)
                mismatches += not row["match"]
            rows.append(row)
        queue_stats = service.queue.stats.as_dict()
        shard_stats = service.snapshot().shards
        # Per-worker deduplicated vs unshared bytes; summing keeps the
        # ratio honest in fork mode too (each term is within-worker).
        shared_bytes = sum(int(row["graph_bytes"]) for row in shard_stats)
        naive_bytes = sum(
            int(row["graph_bytes_unshared"]) for row in shard_stats
        )
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        # Shut worker shards down on every exit path — an error after
        # pool construction must not leak fork worker processes.
        if service is not None:
            service.close()
    total_events = args.events * len(tenant_ids)
    summary = {
        "k": k,
        "tenants": len(tenant_ids),
        "mode": service.pool.mode,
        "events": total_events,
        "elapsed_seconds": round(elapsed, 4),
        "updates_per_second": round(total_events / max(elapsed, 1e-12), 1),
        "queue": queue_stats,
        "graph_bytes_shared": shared_bytes,
        "graph_bytes_naive": naive_bytes,
    }
    if args.as_json:
        print(json.dumps({**summary, "tenants_detail": rows}, indent=1))
    else:
        print(render_table(
            rows,
            title=(
                f"serving top-{k} to {len(tenant_ids)} tenants over "
                f"{graph.num_nodes} nodes (mode={service.pool.mode})"
            ),
        ))
        print(
            f"throughput: {summary['updates_per_second']} updates/s "
            f"({total_events} events in {elapsed:.3f}s); coalescing "
            f"absorbed {queue_stats['coalesced_away']} events in "
            f"{queue_stats['flushes']} flushes; graph buffers "
            f"{shared_bytes / 1e6:.2f}MB shared vs {naive_bytes / 1e6:.2f}MB "
            f"unshared"
        )
        if args.verify:
            print(
                f"verify: {len(rows) - mismatches}/{len(rows)} tenants "
                f"bit-identical to fresh detection"
            )
    return 1 if mismatches else 0


def build_crawl_parser() -> argparse.ArgumentParser:
    """Argument parser of the ``crawl`` subcommand."""
    from repro.crawling import CRAWL_STRATEGIES

    parser = argparse.ArgumentParser(
        prog="repro-detect crawl",
        description=(
            "Discover a hidden graph by budgeted crawling while a "
            "TopKMonitor ingests the topology events incrementally."
        ),
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph", help="path to the hidden graph file")
    source.add_argument(
        "--dataset",
        choices=available_datasets(),
        help="generate a named synthetic dataset as the hidden graph",
    )
    parser.add_argument(
        "--format",
        choices=("json", "edgelist"),
        default="json",
        help="graph file format (default: json)",
    )
    parser.add_argument("--scale", type=float, default=None,
                        help="dataset scale (synthetic datasets only)")
    parser.add_argument(
        "--strategy",
        choices=sorted(CRAWL_STRATEGIES),
        default="avrachenkov",
        help="budget-spending crawl strategy",
    )
    parser.add_argument("--budget", type=int, default=50,
                        help="crawl-step budget")
    parser.add_argument(
        "--seeds",
        default="3",
        help=(
            "comma-separated seed node labels, or an integer count of "
            "deterministically chosen random seeds (default: 3)"
        ),
    )
    size = parser.add_mutually_exclusive_group(required=True)
    size.add_argument("--k", type=int, help="answer size (absolute)")
    size.add_argument("--k-percent", type=float,
                      help="answer size as a percentage of hidden |V|")
    parser.add_argument(
        "--algorithm",
        choices=("bsr", "bsrbk"),
        default="bsr",
        help="maintained detection algorithm",
    )
    parser.add_argument("--bk", type=int, default=16,
                        help="bottom-k counter threshold (bsrbk only)")
    parser.add_argument("--epsilon", type=float, default=0.3)
    parser.add_argument("--delta", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--verify",
        action="store_true",
        help=(
            "after each crawl step, check the monitor's answer is "
            "bit-identical to fresh detection on an independently "
            "replayed observed subgraph"
        ),
    )
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the replay as JSON instead of a table")
    return parser


def build_replicate_parser() -> argparse.ArgumentParser:
    """Argument parser of the ``replicate`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro-detect replicate",
        description=(
            "Run a replication drill: ship the primary's WAL to "
            "replicas, crash the primary, promote, and prove the old "
            "lineage fenced."
        ),
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph", help="path to a graph file")
    source.add_argument(
        "--dataset",
        choices=available_datasets(),
        help="generate a named synthetic dataset",
    )
    parser.add_argument(
        "--format",
        choices=("json", "edgelist"),
        default="json",
        help="graph file format (default: json)",
    )
    parser.add_argument("--scale", type=float, default=None,
                        help="dataset scale (synthetic datasets only)")
    size = parser.add_mutually_exclusive_group(required=True)
    size.add_argument("--k", type=int, help="answer size (absolute)")
    size.add_argument("--k-percent", type=float,
                      help="answer size as a percentage of |V|")
    parser.add_argument("--tenants", type=int, default=4,
                        help="tenant monitors on the primary (default: 4)")
    parser.add_argument("--rounds", type=int, default=6,
                        help="flushed event batches per tenant (default: 6)")
    parser.add_argument("--events-per-round", type=int, default=4,
                        help="events per tenant per batch (default: 4)")
    parser.add_argument("--replicas", type=int, default=2,
                        help="WAL-shipped replicas (default: 2)")
    parser.add_argument("--drift", type=float, default=0.1,
                        help="std-dev of the per-patch probability drift")
    parser.add_argument(
        "--state-dir",
        default=None,
        help=(
            "directory for the primary WAL, mirrors, and epoch register "
            "(default: a temp directory, removed afterwards)"
        ),
    )
    parser.add_argument(
        "--fsync",
        choices=("always", "flush"),
        default="flush",
        help="primary WAL fsync policy (default: flush)",
    )
    parser.add_argument("--epsilon", type=float, default=0.3)
    parser.add_argument("--delta", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--verify",
        action="store_true",
        help=(
            "check every replica's and the promoted service's answers "
            "bit-for-bit against the pre-crash primary"
        ),
    )
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the drill report as JSON")
    return parser


def _resolve_seeds(args: argparse.Namespace, hidden: UncertainGraph):
    """Seed labels from ``--seeds`` (explicit list or random count)."""
    import numpy as np

    spec = str(args.seeds)
    try:
        count = int(spec)
    except ValueError:
        return [part.strip() for part in spec.split(",") if part.strip()]
    if count < 1:
        raise ReproError(f"--seeds count must be >= 1, got {count}")
    count = min(count, hidden.num_nodes)
    rng = np.random.default_rng(args.seed)
    picks = rng.choice(hidden.num_nodes, size=count, replace=False)
    return [hidden.label(int(index)) for index in sorted(picks)]


def crawl_main(argv: list[str] | None = None) -> int:
    """Entry point of the ``crawl`` subcommand."""
    from repro.crawling import ObservedGraphSession
    from repro.streaming.events import apply_events
    from repro.streaming.monitor import TopKMonitor

    args = build_crawl_parser().parse_args(argv)

    def make_monitor(graph: UncertainGraph, k: int) -> TopKMonitor:
        return TopKMonitor(
            graph,
            k,
            epsilon=args.epsilon,
            delta=args.delta,
            seed=args.seed,
            algorithm=args.algorithm,
            bk=args.bk,
        )

    try:
        hidden = _load_graph(args)
        k = _resolve_k(args, hidden)
        seeds = _resolve_seeds(args, hidden)
        truth = set(make_monitor(hidden, k).top_k().nodes)
        session = ObservedGraphSession(
            hidden,
            seeds,
            strategy=args.strategy,
            budget=args.budget,
            seed=args.seed,
        )
        # The monitor consumes the session's event stream into its own
        # live graph — the consumer side of crawl-while-monitoring —
        # starting as soon as the observed subgraph can hold a top-k.
        live = UncertainGraph()
        replay = UncertainGraph() if args.verify else None
        monitor = None
        result = None
        rows: list[dict] = []
        incremental_total = fresh_total = 0.0
        topology_events = 0
        for batch in session.run():
            topology_events += len(batch.events)
            if replay is not None:
                apply_events(replay, batch.events)
            if monitor is None:
                apply_events(live, batch.events)
                if live.num_nodes < k:
                    continue
                monitor = make_monitor(live, k)
                report = monitor.refresh()
            else:
                monitor.apply(batch.events)
                report = monitor.refresh()
            result = monitor.top_k()
            incremental_total += report.elapsed_seconds
            row = {
                "step": batch.step,
                "crawled": "(seeds)" if batch.target is None
                else str(batch.target),
                "observed": f"{live.num_nodes}n/{live.num_edges}e",
                "mode": report.mode,
                "sampling": report.sampling,
                "worlds": f"{report.worlds_repaired}/{report.samples}",
                "ms": round(report.elapsed_seconds * 1e3, 2),
            }
            if args.verify:
                started = time.perf_counter()
                fresh = _fresh_detector(args).detect(replay, k)
                fresh_seconds = time.perf_counter() - started
                fresh_total += fresh_seconds
                row["fresh_ms"] = round(fresh_seconds * 1e3, 2)
                row["match"] = result.same_answer(fresh)
            rows.append(row)
        if monitor is None:
            raise ReproError(
                f"budget {args.budget} never observed {k} nodes; "
                "raise --budget or add seeds"
            )
        recall = len(set(result.nodes) & truth) / float(k)
        frontier = session.frontier
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    coverage = {
        "observed_nodes": frontier.num_observed,
        "hidden_nodes": hidden.num_nodes,
        "observed_edges": frontier.num_observed_edges,
        "hidden_edges": hidden.num_edges,
        "crawls_spent": frontier.num_crawled,
    }
    if args.as_json:
        print(json.dumps({
            "k": k,
            "strategy": session.strategy_name,
            "budget": args.budget,
            "recall": recall,
            "coverage": coverage,
            "topology_events": topology_events,
            "steps": rows,
        }, indent=1))
    else:
        print(render_table(rows, title=(
            f"crawl({session.strategy_name}): top-{k} while discovering "
            f"{frontier.num_observed}/{hidden.num_nodes} nodes, "
            f"{frontier.num_observed_edges}/{hidden.num_edges} edges "
            f"in {frontier.num_crawled} crawls"
        )))
        print(
            f"recall of hidden true top-{k}: {recall:.2f}; "
            f"{topology_events} topology events ingested"
        )
        if args.verify and rows:
            mismatches = sum(
                1 for row in rows if not row.get("match", True)
            )
            checked = sum(1 for row in rows if "match" in row)
            speedup = fresh_total / max(incremental_total, 1e-12)
            print(
                f"verify: {checked - mismatches}/{checked} steps "
                f"bit-identical to fresh detection on the observed "
                f"subgraph; incremental {incremental_total:.3f}s vs "
                f"fresh {fresh_total:.3f}s ({speedup:.1f}x)"
            )
    if args.verify and any(not row.get("match", True) for row in rows):
        return 1
    return 0


def replicate_main(argv: list[str] | None = None) -> int:
    """Entry point of the ``replicate`` subcommand."""
    import shutil
    import tempfile
    from pathlib import Path

    from repro.core.errors import FencedError
    from repro.replication import (
        EpochStore,
        FailoverCoordinator,
        LocalSource,
        ReplicaService,
        ReplicationHub,
        WalShipper,
    )
    from repro.serving import RiskService
    from repro.streaming.events import apply_event
    from repro.streaming.replay import random_patch_stream

    args = build_replicate_parser().parse_args(argv)
    primary = None
    promoted = None
    scratch = None
    fleet = {}
    try:
        graph = _load_graph(args)
        k = _resolve_k(args, graph)
        if args.tenants < 1:
            raise ReproError(f"--tenants must be >= 1, got {args.tenants}")
        if args.rounds < 1:
            raise ReproError(f"--rounds must be >= 1, got {args.rounds}")
        if args.replicas < 1:
            raise ReproError(
                f"--replicas must be >= 1, got {args.replicas}"
            )
        if args.state_dir is not None:
            state_dir = Path(args.state_dir)
            state_dir.mkdir(parents=True, exist_ok=True)
        else:
            scratch = Path(tempfile.mkdtemp(prefix="repro-replicate-"))
            state_dir = scratch
        monitor_defaults = {
            "seed": args.seed,
            "epsilon": args.epsilon,
            "delta": args.delta,
        }
        primary = RiskService(
            graph,
            mode="serial",
            monitor_defaults=monitor_defaults,
            wal_dir=state_dir / "primary",
            fsync=args.fsync,
            epoch_store=EpochStore(state_dir / "epoch.json"),
            node_id="primary",
        )
        tenant_ids = [f"portfolio-{i:02d}" for i in range(args.tenants)]
        for tenant_id in tenant_ids:
            primary.register_tenant(tenant_id, k)
        hub = ReplicationHub(primary)
        for index in range(args.replicas):
            node = f"r{index + 1}"
            replica = ReplicaService(
                graph,
                state_dir / node,
                node_id=node,
                mode="serial",
                monitor_defaults=monitor_defaults,
                fsync="flush",
            )
            fleet[node] = (replica, WalShipper(LocalSource(hub), replica))
        shadows = {tenant_id: graph.copy() for tenant_id in tenant_ids}
        drift = args.drift if args.drift > 0 else None
        streams = {
            tenant_id: random_patch_stream(
                shadows[tenant_id],
                # One spare event per stream: the deposed primary's
                # provably-fenced late write after promotion.
                args.rounds * args.events_per_round + 1,
                seed=args.seed + 101 + position,
                drift=drift,
            )
            for position, tenant_id in enumerate(tenant_ids)
        }
        # Drive the stream; after every durable flush, step each
        # shipper until the batch is applied everywhere and record the
        # replication lag.
        lags: list[float] = []
        for _ in range(args.rounds):
            for tenant_id in tenant_ids:
                for _ in range(args.events_per_round):
                    event = next(streams[tenant_id])
                    primary.submit_update(tenant_id, event)
                    apply_event(shadows[tenant_id], event)
            primary.flush()
            target = primary.durable_seq
            started = time.perf_counter()
            for replica, shipper in fleet.values():
                while replica.applied_seq < target:
                    shipper.step()
            lags.append(time.perf_counter() - started)
        primary_answers = {
            tenant_id: primary.query_topk(tenant_id, flush=False)
            for tenant_id in tenant_ids
        }
        replica_matches = args.verify and all(
            primary_answers[tenant_id].same_answer(
                replica.query_topk(tenant_id)
            )
            for _, (replica, _) in fleet.items()
            for tenant_id in tenant_ids
        )
        # The operator declares the primary dead (here: simply stops
        # routing to it) and promotes the most-caught-up replica.  The
        # deposed primary is left running so its late write can be
        # proven fenced.
        coordinator = FailoverCoordinator(
            EpochStore(state_dir / "epoch.json")
        )
        winner, promoted = coordinator.promote(
            {node: replica for node, (replica, _) in fleet.items()},
            fsync=args.fsync,
        )
        promoted_answers = {
            tenant_id: promoted.query_topk(tenant_id, flush=False)
            for tenant_id in tenant_ids
        }
        try:
            primary.submit_and_sync(
                tenant_ids[0], next(streams[tenant_ids[0]])
            )
            fenced = False
        except FencedError:
            fenced = True
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        for service in (primary, promoted):
            if service is not None:
                # Crash-style release: the deposed primary's graceful
                # close would raise through the fence, and the drill
                # must not mutate state after its verdict.
                service._wal.close()
                service._pool.shutdown()
                service._closed = True
        for replica, _ in fleet.values():
            replica.close()
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)
    lags_ms = sorted(lag * 1e3 for lag in lags)
    mismatches = 0
    rows = []
    for tenant_id in tenant_ids:
        result = promoted_answers[tenant_id]
        row = {
            "tenant": tenant_id,
            "top": ", ".join(str(node) for node in result.nodes[:3]),
            "samples": result.samples_used,
        }
        if args.verify:
            row["match"] = result.same_answer(primary_answers[tenant_id])
            mismatches += not row["match"]
        rows.append(row)
    summary = {
        "k": k,
        "tenants": len(tenant_ids),
        "replicas": args.replicas,
        "rounds": args.rounds,
        "events": args.tenants * args.rounds * args.events_per_round,
        "lag_p50_ms": round(lags_ms[len(lags_ms) // 2], 3),
        "lag_max_ms": round(lags_ms[-1], 3),
        "failover_winner": winner,
        "failover_epoch": promoted.epoch,
        "promotion_seconds": round(
            coordinator.last_promotion_seconds, 4
        ),
        "deposed_primary_fenced": fenced,
    }
    if args.verify:
        summary["replicas_bit_identical"] = bool(replica_matches)
    if args.as_json:
        print(json.dumps({**summary, "tenants_detail": rows}, indent=1))
    else:
        print(render_table(
            rows,
            title=(
                f"promoted {winner} (epoch {promoted.epoch}) serving "
                f"top-{k} to {len(tenant_ids)} tenants after failover"
            ),
        ))
        print(
            f"replication lag: p50 {summary['lag_p50_ms']}ms, "
            f"max {summary['lag_max_ms']}ms over {args.rounds} batches; "
            f"promotion took {summary['promotion_seconds']}s; "
            f"deposed primary fenced: {fenced}"
        )
        if args.verify:
            print(
                f"verify: {len(rows) - mismatches}/{len(rows)} tenants "
                f"bit-identical to the pre-crash primary; replicas "
                f"bit-identical: {bool(replica_matches)}"
            )
    if not fenced:
        return 1
    if args.verify and (mismatches or not replica_matches):
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "stream":
        return stream_main(argv[1:])
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "query":
        return query_main(argv[1:])
    if argv and argv[0] == "crawl":
        return crawl_main(argv[1:])
    if argv and argv[0] == "replicate":
        return replicate_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        graph = _load_graph(args)
        k = _resolve_k(args, graph)
        detector = make_detector(
            args.method,
            samples=args.samples,
            epsilon=args.epsilon,
            delta=args.delta,
            bk=args.bk,
            seed=args.seed,
        )
        result = detector.detect(graph, k)
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.as_json:
        print(json.dumps(result_to_dict(result), indent=1))
    else:
        rows = [
            {
                "rank": rank,
                "node": str(label),
                "score": round(result.scores[label], 6),
            }
            for rank, label in enumerate(result.nodes, start=1)
        ]
        print(render_table(
            rows,
            title=(
                f"{result.method}: top-{result.k} of {graph.num_nodes} nodes "
                f"({result.samples_used} worlds, "
                f"{result.k_verified} bound-verified, "
                f"{result.elapsed_seconds:.3f}s)"
            ),
        ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
