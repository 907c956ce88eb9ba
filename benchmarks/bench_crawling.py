"""Crawling benchmark: recall vs budget, and incremental topology ingestion.

Two measurements land in ``BENCH_crawling.json`` at the repo root:

``recall_vs_budget``
    A hidden power-law graph is discovered by each crawl strategy
    (:mod:`repro.crawling`) from the same seeds.  At budget checkpoints
    a fresh detection runs on the observed subgraph and its recall of
    the *hidden* graph's true top-k is recorded — the curves behind the
    README's strategy table, and the CI gate that two-stage Avrachenkov
    hub detection must recall at least as much as uniform-random
    crawling at the final budget.

``topology_ingestion``
    A power-law base graph grows node-by-node (each new node attaching
    with a handful of edges) while a
    :class:`~repro.streaming.monitor.TopKMonitor` ingests the
    ``NodeAdd``/``EdgeAdd`` events incrementally.  Every step is timed
    against a from-scratch monitor on the same grown graph — same
    seed, so the fresh answer is also the bit-identity oracle: a step's
    timing only counts after its incremental answer matches exactly.
    The CI gate holds the aggregate speedup at >= 3x.

Usage
-----
::

    python -m benchmarks.bench_crawling            # full sweep
    python -m benchmarks.bench_crawling --quick    # CI smoke (seconds)
"""

from __future__ import annotations

import argparse
import json
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from benchmarks.common import EDGE_FACTOR, REPO_ROOT, build_powerlaw_graph
from repro.core.graph import UncertainGraph
from repro.crawling import CRAWL_STRATEGIES, ObservedGraphSession
from repro.streaming.events import EdgeAdd, NodeAdd
from repro.streaming.monitor import TopKMonitor

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_crawling.json"


# ----------------------------------------------------------------------
# (a) recall vs budget, per strategy
# ----------------------------------------------------------------------
def bench_recall(
    n: int, k: int, budgets: list[int], seeds: int, seed: int
) -> dict:
    """Crawl one hidden graph with every strategy; recall at checkpoints."""
    hidden = build_powerlaw_graph(n, seed)
    truth = set(TopKMonitor(hidden, k, seed=seed).top_k().nodes)
    rng = np.random.default_rng(seed)
    picks = sorted(rng.choice(n, size=seeds, replace=False).tolist())
    seed_labels = [hidden.label(int(i)) for i in picks]
    budgets = sorted(budgets)
    curves: dict[str, dict] = {}
    for name in sorted(CRAWL_STRATEGIES):
        session = ObservedGraphSession(
            hidden, seed_labels, strategy=name, budget=budgets[-1], seed=seed
        )
        checkpoints = []
        next_budget = iter(budgets)
        target = next(next_budget)
        for _ in session.run():
            if session.steps_taken != target:
                continue
            observed = session.observed_graph
            answer = set(TopKMonitor(observed, k, seed=seed).top_k().nodes)
            checkpoints.append(
                {
                    "budget": target,
                    "observed_nodes": observed.num_nodes,
                    "observed_edges": observed.num_edges,
                    "recall": round(len(answer & truth) / k, 4),
                }
            )
            target = next(next_budget, None)
            if target is None:
                break
        curves[name] = {
            "checkpoints": checkpoints,
            "final_recall": checkpoints[-1]["recall"] if checkpoints else 0.0,
        }
        trace = "  ".join(
            f"b={c['budget']}:{c['recall']:.2f}" for c in checkpoints
        )
        print(f"recall  {name:>12}  {trace}")
    return {
        "hidden_nodes": hidden.num_nodes,
        "hidden_edges": hidden.num_edges,
        "k": k,
        "seeds": seed_labels,
        "budgets": budgets,
        "strategies": curves,
    }


# ----------------------------------------------------------------------
# (b) incremental topology ingestion vs full recompute
# ----------------------------------------------------------------------
def growth_events(
    graph: UncertainGraph, step: int, rng: np.random.Generator, labels
):
    """One growth batch: a new node plus 1-3 edges to existing nodes."""
    label = f"grown-{step}"
    events = [NodeAdd(label, float(rng.uniform(0.05, 0.5)))]
    for target in rng.choice(len(labels), size=int(rng.integers(1, 4))):
        src, dst = (
            (label, labels[int(target)])
            if rng.random() < 0.5
            else (labels[int(target)], label)
        )
        events.append(EdgeAdd(src, dst, float(rng.uniform(0.05, 0.9))))
    return events


def bench_topology(n: int, k: int, events: int, seed: int) -> dict:
    """Grow a graph event-by-event; time incremental vs from-scratch."""
    graph = build_powerlaw_graph(n, seed)
    labels = graph.labels()
    monitor = TopKMonitor(graph, k, seed=seed)
    started = time.perf_counter()
    monitor.top_k()  # initial build — a fresh detection, timed separately
    initial_seconds = time.perf_counter() - started
    rng = np.random.default_rng(seed + 1)
    incremental_seconds = fresh_seconds = 0.0
    sampling_modes: dict[str, int] = {}
    mismatches = 0
    for step in range(events):
        batch = growth_events(graph, step, rng, labels)
        monitor.apply(batch)
        started = time.perf_counter()
        result = monitor.top_k()
        incremental_seconds += time.perf_counter() - started
        report = monitor.last_report
        sampling_modes[report.sampling] = (
            sampling_modes.get(report.sampling, 0) + 1
        )
        # Same seed: the fresh monitor draws the identical worlds, so it
        # is both the full-recompute baseline and the exactness oracle.
        started = time.perf_counter()
        fresh = TopKMonitor(graph, k, seed=seed).top_k()
        fresh_seconds += time.perf_counter() - started
        if not result.same_answer(fresh):
            mismatches += 1
    if mismatches:
        raise AssertionError(
            f"{mismatches}/{events} incremental answers diverged from "
            "full recompute — the speedup would be meaningless"
        )
    row = {
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "k": k,
        "events": events,
        "initial_build_seconds": round(initial_seconds, 6),
        "incremental_seconds": round(incremental_seconds, 6),
        "full_recompute_seconds": round(fresh_seconds, 6),
        "incremental_speedup_vs_full": round(
            fresh_seconds / max(incremental_seconds, 1e-12), 2
        ),
        "sampling_modes": sampling_modes,
        "topology_refreshes": monitor.stats["topology"],
        "full_refreshes": monitor.stats["full"],
    }
    print(
        f"topology  n={row['nodes']:>6}  m={row['edges']:>7}  "
        f"events={events}  incremental={row['incremental_seconds']:.3f}s  "
        f"full={row['full_recompute_seconds']:.3f}s  "
        f"speedup={row['incremental_speedup_vs_full']:.1f}x  "
        f"modes={row['sampling_modes']}"
    )
    return row


def run(args: argparse.Namespace, mode: str) -> dict:
    recall = bench_recall(
        args.hidden_nodes, args.k, args.budgets, args.seeds, args.seed
    )
    topology = bench_topology(
        args.base_nodes, args.k, args.events, args.seed
    )
    report = {
        "benchmark": "crawling",
        "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "mode": mode,
        "seed": args.seed,
        "edge_factor": EDGE_FACTOR,
        "recall_vs_budget": recall,
        "topology_ingestion": topology,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small graphs / few events so CI can smoke-test in seconds",
    )
    parser.add_argument("--k", type=int, default=10, help="answer size")
    parser.add_argument(
        "--hidden-nodes",
        type=int,
        default=None,
        help="hidden-graph size of the recall sweep",
    )
    parser.add_argument(
        "--budgets",
        type=int,
        nargs="+",
        default=None,
        help="crawl-budget checkpoints of the recall sweep",
    )
    parser.add_argument(
        "--seeds", type=int, default=3, help="crawl seed-node count"
    )
    parser.add_argument(
        "--base-nodes",
        type=int,
        default=None,
        help="base-graph size of the topology-ingestion sweep",
    )
    parser.add_argument(
        "--events",
        type=int,
        default=None,
        help="growth batches of the topology-ingestion sweep",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--output",
        type=Path,
        default=DEFAULT_OUTPUT,
        help=f"JSON report path (default: {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.hidden_nodes = args.hidden_nodes or 400
        args.budgets = args.budgets or [15, 30, 60]
        args.base_nodes = args.base_nodes or 3000
        args.events = args.events or 10
        mode = "quick"
    else:
        args.hidden_nodes = args.hidden_nodes or 2000
        args.budgets = args.budgets or [25, 50, 100, 200]
        args.base_nodes = args.base_nodes or 5000
        args.events = args.events or 30
        mode = "full"
    run(args, mode)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
