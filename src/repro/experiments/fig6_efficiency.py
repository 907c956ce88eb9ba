"""Experiment E-F6 — Figure 6: efficiency of the five methods.

For all eight datasets and every k in the grid, run N, SN, SR, BSR and
BSRBK and record wall time plus the telemetry that explains it (sample
count, candidate size, verified count).  Shapes to reproduce: runtime
ordering N > SN > SR > BSR > BSRBK, with BSRBK up to two orders of
magnitude faster than N on the larger graphs.
"""

from __future__ import annotations

from repro.algorithms.registry import ALL_METHODS, make_detector
from repro.datasets.registry import load_dataset
from repro.experiments.config import ExperimentConfig, get_config
from repro.utils.tables import render_table

__all__ = ["run", "speedup_summary", "main"]


def run(
    config: ExperimentConfig | None = None,
    datasets: tuple[str, ...] | None = None,
    methods: tuple[str, ...] = ALL_METHODS,
) -> list[dict[str, object]]:
    """Produce Figure 6's series: one row per (dataset, method, k%)."""
    config = config or get_config()
    datasets = datasets or config.efficiency_datasets
    rows: list[dict[str, object]] = []
    for dataset_name in datasets:
        loaded = load_dataset(
            dataset_name, scale=config.scale_override, seed=config.seed
        )
        for percent in config.k_percents:
            k = loaded.k_for_percent(percent)
            for method in methods:
                detector = make_detector(
                    method,
                    samples=config.naive_samples,
                    epsilon=config.epsilon,
                    delta=config.delta,
                    bound_order=config.bound_order,
                    lower_order=config.bound_order,
                    upper_order=config.bound_order,
                    bk=config.bk,
                    seed=config.seed,
                )
                result = detector.detect(loaded.graph, k)
                work = int(result.details.get("nodes_touched", 0)) + int(
                    result.details.get("edges_touched", 0)
                )
                rows.append(
                    {
                        "dataset": dataset_name,
                        "method": method,
                        "k_percent": percent,
                        "k": k,
                        "seconds": round(result.elapsed_seconds, 4),
                        "work": work,
                        "samples": result.samples_used,
                        "candidates": result.candidate_size,
                        "verified": result.k_verified,
                    }
                )
    return rows


def speedup_summary(rows: list[dict[str, object]]) -> list[dict[str, object]]:
    """Per-dataset speedup of every method over N (mean across k).

    The headline number of the paper's §4.3 is BSRBK's up-to-100×
    acceleration.  Two speedups are reported:

    * ``*_speedup`` — wall-clock, which mixes the algorithmic savings
      with engine differences (N/SN run on a numpy-vectorised world
      materialiser and SR/BSR/BSRBK on the world-packed indexed
      engine, constant-factor optimisations the paper's implementation
      does not have);
    * ``*_work_x`` — the ratio of per-world node draws + edge
      examinations, which isolates the savings the paper's
      pruning/early-stop techniques claim.  The indexed engine's union
      closure explores past Algorithm 5's per-candidate early exits, so
      SR/BSR/BSRBK count somewhat more draws than the paper's BFS would
      on the same worlds.
    """
    by_dataset: dict[str, dict[str, list[tuple[float, float]]]] = {}
    for row in rows:
        by_dataset.setdefault(str(row["dataset"]), {}).setdefault(
            str(row["method"]), []
        ).append((float(row["seconds"]), float(row.get("work", 0))))
    summary: list[dict[str, object]] = []
    for dataset, methods in by_dataset.items():
        base_entries = methods.get("N", [(0.0, 0.0)])
        base_time = sum(t for t, _ in base_entries) / len(base_entries)
        base_work = sum(w for _, w in base_entries) / len(base_entries)
        entry: dict[str, object] = {"dataset": dataset}
        for method, pairs in methods.items():
            mean_time = sum(t for t, _ in pairs) / len(pairs)
            mean_work = sum(w for _, w in pairs) / len(pairs)
            entry[f"{method}_s"] = round(mean_time, 4)
            if method != "N":
                if mean_time > 0 and base_time > 0:
                    entry[f"{method}_speedup"] = round(base_time / mean_time, 1)
                if mean_work > 0 and base_work > 0:
                    entry[f"{method}_work_x"] = round(base_work / mean_work, 1)
        summary.append(entry)
    return summary


def main() -> None:
    """CLI entry point: print the Figure-6 tables."""
    rows = run()
    print(render_table(rows, title="Figure 6 — efficiency (per dataset, method, k)"))
    print()
    print(render_table(speedup_summary(rows), title="Speedup over N"))


if __name__ == "__main__":
    main()
