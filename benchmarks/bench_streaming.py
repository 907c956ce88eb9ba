"""Wall-clock benchmark: incremental TopKMonitor vs fresh BSR detection.

Replays a stream of single-entity monitoring patches (re-scored
self-risks / re-assessed guarantee strengths, Gaussian drift — the
month-over-month workload of the paper's §5 deployment) against a
:class:`~repro.streaming.monitor.TopKMonitor` on directed power-law
graphs, timing each incremental refresh against a from-scratch
:class:`~repro.algorithms.bsr.BoundedSampleReverseDetector` run on the
same patched graph.  Every step's incremental answer is checked
bit-for-bit against the fresh detection before its timing counts, so the
reported speedup is for *exact* maintenance, not an approximation.
Results land in ``BENCH_streaming.json`` at the repo root.

Usage
-----
::

    python -m benchmarks.bench_streaming            # full sweep (5k nodes)
    python -m benchmarks.bench_streaming --quick    # CI smoke (seconds)
    python -m benchmarks.bench_streaming --sizes 5000 10000 --events 60
"""

from __future__ import annotations

import argparse
import json
import time
from datetime import datetime, timezone
from pathlib import Path

from benchmarks.common import EDGE_FACTOR, REPO_ROOT, build_powerlaw_graph
from repro.algorithms.bsr import BoundedSampleReverseDetector
from repro.streaming.monitor import TopKMonitor
from repro.streaming.replay import random_patch_stream

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_streaming.json"


def bench_one_size(
    n: int, k: int, events: int, drift: float, seed: int
) -> dict:
    """Replay one patch stream; returns the timing/telemetry row."""
    graph = build_powerlaw_graph(n, seed)
    monitor = TopKMonitor(graph, k, seed=seed)
    started = time.perf_counter()
    monitor.top_k()  # initial build — a fresh detection, timed separately
    initial_seconds = time.perf_counter() - started
    incremental_seconds = fresh_seconds = 0.0
    sampling_modes: dict[str, int] = {}
    mismatches = 0
    for event in random_patch_stream(
        graph, events, seed=seed + 1, drift=drift
    ):
        monitor.apply([event])
        started = time.perf_counter()
        result = monitor.top_k()
        incremental_seconds += time.perf_counter() - started
        report = monitor.last_report
        sampling_modes[report.sampling] = (
            sampling_modes.get(report.sampling, 0) + 1
        )
        detector = BoundedSampleReverseDetector(seed=seed)
        started = time.perf_counter()
        fresh = detector.detect(graph, k)
        fresh_seconds += time.perf_counter() - started
        if not result.same_answer(fresh):
            mismatches += 1
    if mismatches:
        raise AssertionError(
            f"{mismatches}/{events} incremental answers diverged from "
            "fresh detection — the speedup would be meaningless"
        )
    return {
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "k": k,
        "events": events,
        "drift": drift,
        "initial_build_seconds": round(initial_seconds, 6),
        "incremental_seconds": round(incremental_seconds, 6),
        "fresh_seconds": round(fresh_seconds, 6),
        "incremental_speedup_vs_fresh": round(
            fresh_seconds / max(incremental_seconds, 1e-12), 2
        ),
        "sampling_modes": sampling_modes,
        "worlds_repaired": monitor.stats["worlds_repaired"],
        "worlds_resampled": monitor.stats["worlds_resampled"],
    }


def run(
    sizes: list[int],
    k: int,
    events: int,
    drift: float,
    seed: int,
    output: Path,
    mode: str,
) -> dict:
    """Run the sweep, print a table, and write the JSON report."""
    results = []
    for n in sizes:
        row = bench_one_size(n, k, events, drift, seed)
        results.append(row)
        print(
            f"n={row['nodes']:>7}  m={row['edges']:>8}  k={k}  "
            f"events={events}  "
            f"incremental={row['incremental_seconds']:.3f}s  "
            f"fresh={row['fresh_seconds']:.3f}s  "
            f"speedup={row['incremental_speedup_vs_fresh']:.1f}x  "
            f"modes={row['sampling_modes']}"
        )
    report = {
        "benchmark": "streaming_topk_monitor",
        "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "mode": mode,
        "seed": seed,
        "edge_factor": EDGE_FACTOR,
        "results": results,
    }
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output}")
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="tiny graph / few events so CI can smoke-test in seconds",
    )
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=None,
        help="node counts to sweep (default: 5000)",
    )
    parser.add_argument("--k", type=int, default=10, help="answer size")
    parser.add_argument(
        "--events", type=int, default=None, help="patches to replay"
    )
    parser.add_argument(
        "--drift",
        type=float,
        default=0.1,
        help="std-dev of the per-patch probability drift",
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
        sizes = args.sizes or [2000]
        events = args.events or 12
        mode = "quick"
    else:
        sizes = args.sizes or [5000]
        events = args.events or 40
        mode = "full"
    run(sizes, args.k, events, args.drift, args.seed, args.output, mode)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
