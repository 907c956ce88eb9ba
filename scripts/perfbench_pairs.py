#!/usr/bin/env python
"""Compare two checkouts on one perfbench workload in alternating pairs.

Runs ``perfbench/run.py`` in a parent checkout and a change checkout
once per seed, alternating which side runs first so that slow drift of
the host does not favour one side.  For every metric it prints each
side's median and quartiles, the ratio of the change's median to the
parent's, and how many pairs the change won (by the metric's direction
in ``BENCHMARK.json``; lower is better for a metric it does not list).
Exits 1 if any run is not ``correct`` or prints no result.

Usage (from a change checkout; make the parent with, for example,
``git worktree add ../parent HEAD~1``)::

    python scripts/perfbench_pairs.py --parent ../parent --change . \\
        --workload batch --seeds 1-10 --seconds 25

``--seeds`` takes a comma-separated list of seeds and ``a-b`` ranges.
``--trace 1`` compares the per-layer ledgers instead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Callable, Sequence

#: ``(checkout, workload, seed, seconds, trace)`` -> the run's stdout.
Runner = Callable[[Path, str, int, float, int], str]


def parse_seeds(text: str) -> list[int]:
    """``"1-3,7"`` -> ``[1, 2, 3, 7]``."""
    seeds: list[int] = []
    for part in text.split(","):
        first, _, last = part.strip().partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def run_perfbench(
    checkout: Path, workload: str, seed: int, seconds: float, trace: int
) -> str:
    """Run one perfbench workload in *checkout*; its standard output."""
    completed = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            str(trace),
        ],
        cwd=checkout,
        capture_output=True,
        text=True,
    )
    return completed.stdout


def parse_result(stdout: str) -> dict | None:
    """The JSON result on the last line of a run's output, if any."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) else None


def directions(checkout: Path) -> dict[str, str]:
    """Metric name -> ``"lower"`` or ``"higher"``, from ``BENCHMARK.json``."""
    path = checkout / "BENCHMARK.json"
    if not path.is_file():
        return {}
    declared = json.loads(path.read_text())
    return {
        metric["name"]: metric.get("better", "lower")
        for group in ("end_to_end", "per_layer")
        for metric in declared.get(group, [])
    }


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarise(
    pairs: Sequence[tuple[dict, dict]], better: dict[str, str]
) -> list[str]:
    """One line per metric reported by every run of both sides."""
    names = [
        name
        for name in pairs[0][0]["metrics"]
        if all(
            name in side["metrics"] for pair in pairs for side in pair
        )
    ]
    lines = [
        f"{'metric':<28} {'parent median [q1, q3]':>30} "
        f"{'change median [q1, q3]':>30} {'ratio':>7} {'won':>6}"
    ]
    for name in names:
        parent = [pair[0]["metrics"][name]["value"] for pair in pairs]
        change = [pair[1]["metrics"][name]["value"] for pair in pairs]
        lower = better.get(name, "lower") == "lower"
        won = sum(
            (new < old) if lower else (new > old)
            for old, new in zip(parent, change)
        )
        p1, p2, p3 = quartiles(parent)
        c1, c2, c3 = quartiles(change)
        ratio = f"{c2 / p2:.3f}" if p2 else "-"
        lines.append(
            f"{name:<28} {f'{p2:.4g} [{p1:.4g}, {p3:.4g}]':>30} "
            f"{f'{c2:.4g} [{c1:.4g}, {c3:.4g}]':>30} {ratio:>7} "
            f"{f'{won}/{len(pairs)}':>6}"
        )
    return lines


def main(argv: Sequence[str] | None = None, runner: Runner = run_perfbench) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sides = {"parent": args.parent, "change": args.change}
    pairs: list[tuple[dict, dict]] = []
    status = 0
    for index, seed in enumerate(args.seeds):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        results: dict[str, dict | None] = {}
        for side in order:
            results[side] = parse_result(
                runner(sides[side], args.workload, seed, args.seconds, args.trace)
            )
        for side in order:
            result = results[side]
            if result is None or not result.get("correct"):
                failed = "no result" if result is None else "not correct"
                print(f"seed {seed}: {side} run {failed}", flush=True)
                status = 1
        if all(result is not None for result in results.values()):
            pairs.append((results["parent"], results["change"]))
            print(f"seed {seed}: {order[0]} ran first", flush=True)
    if pairs:
        print("\n".join(summarise(pairs, directions(args.change))))
    else:
        status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
