"""Wall-clock benchmark: one shared world set vs per-query resampling.

The tentpole claim of the query-engine layer is amortisation: repairing
(or here, realising) a set of possible worlds once and answering *many*
query families against it must beat giving every query its own fresh
sample.  This benchmark runs a mixed battery of queries — top-k default
probability, k-core membership, two-terminal/cluster reliability, and
the risk/exposure skyline — twice over the same power-law graph:

* **shared** — one :class:`~repro.sampling.worldstate.WorldView` behind
  one :class:`~repro.queries.engine.QueryEngine`; every query reuses the
  realised world block;
* **fresh** — each query builds its own view and engine, the way a
  per-query sampler (one detector run per question) would.

Both paths use the same counter-PRF seed and world ids, so every answer
is bit-identical across paths; the benchmark asserts that before any
timing is reported.  Results land in ``BENCH_queries.json`` at the repo
root.

Usage
-----
::

    python -m benchmarks.bench_queries            # full sweep
    python -m benchmarks.bench_queries --quick    # CI smoke (seconds)
"""

from __future__ import annotations

import argparse
import json
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from benchmarks.common import REPO_ROOT, build_powerlaw_graph
from repro.queries import QueryEngine
from repro.sampling.worldstate import WorldView

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_queries.json"


def query_battery(n: int) -> list[tuple[str, dict]]:
    """The mixed workload: 16 queries across all four families.

    Shaped like a multi-tenant serving mix: several parameterisations
    per family (different ``k``/``top`` report sizes, different
    pair/cluster sets), because that is exactly where shared derived
    products — one propagation fixpoint for the topk/skyline family
    pair, one component labelling for every reliability question, one
    peel per core order with deeper cores seeded from shallower ones —
    amortise across questions.
    """
    return [
        ("topk", {"k": 5}),
        ("topk", {"k": 10}),
        ("topk", {"k": 25}),
        ("topk", {"k": 50}),
        ("skyline", {}),
        ("kcore", {"k": 2}),
        ("kcore", {"k": 2, "top": 10}),
        ("kcore", {"k": 3}),
        ("kcore", {"k": 3, "top": 10}),
        ("reliability", {"pairs": [[0, n // 2], [1, n - 1]]}),
        ("reliability", {"pairs": [[2, n // 3], [3, n // 4], [4, n // 5]]}),
        ("reliability", {"pairs": [[5, n - 2]]}),
        ("reliability", {"pairs": [[6, n // 2 + 1], [7, n - 3]]}),
        ("reliability", {"cluster": list(range(8))}),
        ("reliability", {"cluster": list(range(10, 16))}),
        ("reliability", {"pairs": [[8, n - 4], [9, n - 5]]}),
    ]


def bench_one_size(n: int, worlds: int, seed: int, repeats: int) -> dict:
    """Time the battery shared-vs-fresh on one graph size.

    Each path is run *repeats* times (every repetition rebuilds its
    views and engines from scratch, so nothing carries over) and the
    minimum wall clock is reported — the standard guard against a noisy
    neighbour inflating one pass on a shared CI box.
    """
    graph = build_powerlaw_graph(n, seed)
    world_ids = np.arange(worlds, dtype=np.int64)
    battery = query_battery(n)

    shared_answers: list = []
    shared_seconds = float("inf")
    for _rep in range(repeats):
        started = time.perf_counter()
        engine = QueryEngine(WorldView(graph, world_ids, seed=seed))
        shared_answers = [
            engine.run(family, **params) for family, params in battery
        ]
        shared_seconds = min(
            shared_seconds, time.perf_counter() - started
        )

    fresh_answers: list = []
    fresh_seconds = float("inf")
    for _rep in range(repeats):
        started = time.perf_counter()
        fresh_answers = [
            QueryEngine(WorldView(graph, world_ids, seed=seed)).run(
                family, **params
            )
            for family, params in battery
        ]
        fresh_seconds = min(fresh_seconds, time.perf_counter() - started)

    mismatches = sum(
        0 if shared.same_answer(fresh) else 1
        for shared, fresh in zip(shared_answers, fresh_answers)
    )
    if mismatches:
        raise AssertionError(
            f"{mismatches}/{len(battery)} shared answers diverged from "
            "per-query sampling — the speedup would be meaningless"
        )
    return {
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "worlds": worlds,
        "queries": len(battery),
        "repeats": repeats,
        "families": sorted({family for family, _params in battery}),
        "shared_seconds": round(shared_seconds, 6),
        "fresh_seconds": round(fresh_seconds, 6),
        "shared_speedup_vs_fresh": round(
            fresh_seconds / max(shared_seconds, 1e-12), 2
        ),
    }


def run(
    sizes: list[int],
    worlds: int,
    seed: int,
    repeats: int,
    output: Path,
    mode: str,
) -> dict:
    """Run the sweep, print a table, and write the JSON report."""
    results = []
    for n in sizes:
        row = bench_one_size(n, worlds, seed, repeats)
        results.append(row)
        print(
            f"n={row['nodes']:>7}  m={row['edges']:>8}  "
            f"worlds={worlds}  queries={row['queries']}  "
            f"shared={row['shared_seconds']:.3f}s  "
            f"fresh={row['fresh_seconds']:.3f}s  "
            f"speedup={row['shared_speedup_vs_fresh']:.1f}x"
        )
    report = {
        "benchmark": "query_engine_amortisation",
        "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "mode": mode,
        "seed": seed,
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
        help="tiny graph / fewer worlds so CI can smoke-test in seconds",
    )
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=None,
        help="node counts to sweep (default: 5000)",
    )
    parser.add_argument(
        "--worlds", type=int, default=None, help="sampled worlds per view"
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--repeats",
        type=int,
        default=2,
        help="timed repetitions per path; the minimum is reported",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=DEFAULT_OUTPUT,
        help=f"JSON report path (default: {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(argv)
    if args.quick:
        sizes = args.sizes or [1500]
        worlds = args.worlds or 1024
        mode = "quick"
    else:
        sizes = args.sizes or [5000]
        worlds = args.worlds or 8192
        mode = "full"
    run(sizes, worlds, args.seed, args.repeats, args.output, mode)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
