"""Wall-clock benchmark: scalar vs bit-parallel exact possible-world oracle.

Times ``exact_default_probabilities`` with ``engine="reference"`` (the
scalar per-world generator of the seed implementation) against
``engine="block"`` (the Gray-code block engine backed by the shared
multi-world propagation kernel) on random uncertain graphs of growing
*free choice* count — a ``c``-choice graph enumerates ``2^c`` worlds.
Writes the measurements to ``BENCH_exact.json`` at the repo root and
asserts the two engines agree on every graph before trusting a timing.
Every PR that touches the enumeration hot path should re-run this and
record the deltas in ``CHANGES.md``.

Usage
-----
::

    python -m benchmarks.bench_exact_oracle            # full sweep
    python -m benchmarks.bench_exact_oracle --quick    # CI smoke (seconds)
    python -m benchmarks.bench_exact_oracle --choices 16 18 --repeats 1
"""

from __future__ import annotations

import argparse
import json
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from benchmarks.common import REPO_ROOT
from repro.core.exact import exact_default_probabilities
from repro.core.graph import UncertainGraph

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_exact.json"


def build_choice_graph(choices: int, seed: int) -> UncertainGraph:
    """Random graph with exactly *choices* free (non-pinned) choices.

    Roughly a third of the choices become nodes and the rest edges —
    the densest shape the paper's tiny oracle graphs take — with every
    probability strictly inside ``(0, 1)`` so nothing is pinned.
    """
    rng = np.random.default_rng(seed)
    n = max(2, choices // 3)
    m = choices - n
    pairs = [(s, d) for s in range(n) for d in range(n) if s != d]
    if m > len(pairs):
        raise ValueError(f"{choices} choices need more than {n} nodes")
    chosen = rng.choice(len(pairs), size=m, replace=False)
    src = np.fromiter((pairs[i][0] for i in chosen), dtype=np.int64, count=m)
    dst = np.fromiter((pairs[i][1] for i in chosen), dtype=np.int64, count=m)
    return UncertainGraph.from_arrays(
        self_risks=rng.uniform(0.05, 0.6, n),
        edge_src=src,
        edge_dst=dst,
        edge_probs=rng.uniform(0.05, 0.95, m),
    )


def _time(run, repeats: int) -> float:
    """Best-of-*repeats* wall-clock seconds for one oracle run."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def bench_one_size(choices: int, repeats: int, seed: int) -> dict:
    """Benchmark both engines on one free-choice count."""
    graph = build_choice_graph(choices, seed)
    cap = max(choices, 28)
    block = exact_default_probabilities(graph, max_choices=cap, engine="block")
    reference = exact_default_probabilities(
        graph, max_choices=cap, engine="reference"
    )
    if not np.allclose(block, reference, rtol=0.0, atol=1e-10):
        raise AssertionError(
            f"engines disagree at {choices} choices: {block - reference}"
        )
    reference_seconds = _time(
        lambda: exact_default_probabilities(
            graph, max_choices=cap, engine="reference"
        ),
        repeats,
    )
    block_seconds = _time(
        lambda: exact_default_probabilities(
            graph, max_choices=cap, engine="block"
        ),
        repeats,
    )
    return {
        "choices": choices,
        "worlds": 2**choices,
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "reference_seconds": round(reference_seconds, 6),
        "block_seconds": round(block_seconds, 6),
        "block_speedup_vs_reference": round(
            reference_seconds / max(block_seconds, 1e-12), 2
        ),
    }


def run(
    choice_counts: list[int],
    repeats: int,
    seed: int,
    output: Path,
    mode: str,
) -> dict:
    """Run the sweep, print a table, and write the JSON report."""
    results = []
    for choices in choice_counts:
        row = bench_one_size(choices, repeats, seed)
        results.append(row)
        print(
            f"choices={row['choices']:>2}  worlds={row['worlds']:>9}  "
            f"reference={row['reference_seconds']:.3f}s  "
            f"block={row['block_seconds']:.3f}s  "
            f"speedup={row['block_speedup_vs_reference']:.1f}x"
        )
    report = {
        "benchmark": "exact_oracle_engines",
        "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "mode": mode,
        "seed": seed,
        "repeats": repeats,
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
        help="small choice counts so CI can smoke-test in seconds",
    )
    parser.add_argument(
        "--choices",
        type=int,
        nargs="+",
        default=None,
        help="free-choice counts to sweep (default: 16 18 20)",
    )
    parser.add_argument(
        "--repeats", type=int, default=2, help="best-of repeats per timing"
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
        choice_counts = args.choices or [12, 14]
        repeats = 1
        mode = "quick"
    else:
        choice_counts = args.choices or [16, 18, 20]
        repeats = args.repeats
        mode = "full"
    run(choice_counts, repeats, args.seed, args.output, mode)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
