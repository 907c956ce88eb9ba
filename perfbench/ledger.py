"""The metric catalogue and the per-layer ledger built from spans.

End-to-end metrics are the same four names on every workload, each
meaning that workload's operation (see ``README.md``).  Per-layer
metrics come from the traced run: a ``*_ms`` metric is the median
per-call *self* time of its span, in milliseconds; counts and shares
come from the public results the workloads collect.  A layer that did
no work on a workload reports 0, and :func:`per_layer` says why.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from perfbench.stats import median, percentile
from perfbench.tracing import Span, self_times

#: name -> (unit, definition per workload: batch / live / failover).
END_TO_END: dict[str, tuple[str, str]] = {
    "setup_s": ("s", "median set-up: graph, services, tenants, first answers"),
    "answer_ms": ("ms", "BSR detect / top-k query p50 / failover until verified"),
    "alt_answer_ms": ("ms", "BSRBK detect / write-then-read p50 / local WAL recovery"),
    "work_ms": ("ms", "16-query battery / durable update p50 / ship lag p50"),
}

#: Per-call self time (ms, median) of a span.
SPAN_MS: dict[str, str] = {
    "bounds.pair_ms": "bounds.pair",
    "bounds.reduce_ms": "bounds.reduce",
    "bounds.incremental_ms": "bounds.incremental",
    "sampling.run_ms": "sampling.run",
    "sampling.repair_ms": "sampling.repair",
    "sampling.view_ms": "sampling.view",
    "algorithms.assemble_ms": "algorithms.assemble",
    "queries.topk_ms": "queries.topk",
    "queries.kcore_ms": "queries.kcore",
    "queries.reliability_ms": "queries.reliability",
    "queries.skyline_ms": "queries.skyline",
    "queries.skyline_mask_ms": "queries.skyline_mask",
    "serving.submit_sync_ms": "serving.submit_sync",
    "serving.query_ms": "serving.query",
    "serving.apply_ms": "serving.apply",
    "persistence.append_ms": "persistence.append",
    "persistence.fsync_ms": "persistence.fsync",
    "persistence.read_ms": "persistence.read",
    "persistence.snapshot_ms": "persistence.snapshot",
    "frontend.parse_ms": "frontend.parse",
    "frontend.write_ms": "frontend.write",
    "frontend.admit_ms": "frontend.admit",
    "replication.step_ms": "replication.step",
    "replication.promote_ms": "replication.promote",
}

#: Values the workloads collect from public results and stats.
COLLECTED: dict[str, str] = {
    "bounds.candidates": "count",
    "bounds.k_verified": "count",
    "sampling.samples": "count",
    "sampling.nodes_touched": "count",
    "sampling.edges_touched": "count",
    "sketch.worlds_used_share": "ratio",
    "serving.cache_hit_share": "ratio",
    "persistence.bytes_per_event": "bytes",
    "frontend.overhead_ms": "ms",
    "frontend.rejected": "count",
    "frontend.degraded": "count",
    "replication.bytes_shipped": "bytes",
}

#: Derived from the ``streaming.refresh`` spans' reports.
REFRESH: dict[str, str] = {
    "streaming.refresh_p50_ms": "ms",
    "streaming.refresh_p90_ms": "ms",
    "streaming.full_share": "ratio",
    "bounds.recomputed": "count",
    "sampling.worlds_repaired": "count",
}

#: Each end-to-end metric measured with tracing on.
TRACED = {f"traced.{name}": unit for name, (unit, _) in END_TO_END.items()}

PER_LAYER: dict[str, str] = {
    **{name: "ms" for name in SPAN_MS},
    **REFRESH,
    **COLLECTED,
    **TRACED,
}


def _refresh_values(spans: list[Span], notes: list[str]) -> dict[str, float]:
    # Registration-time first evaluations are set-up; clean refreshes
    # did nothing.  The rest are what updates cost.
    work = [
        span
        for span in spans
        if span.name == "streaming.refresh"
        and span.attrs.get("mode") not in ("initial", "clean", None)
    ]
    if not work:
        notes.append("streaming.*: no update-driven refresh ran")
        return {}
    durations = [span.duration for span in work]
    values = {
        "streaming.refresh_p50_ms": median(durations) * 1e3,
        "streaming.full_share": sum(s.attrs["mode"] == "full" for s in work) / len(work),
        "bounds.recomputed": sum(s.attrs["bounds_recomputed"] for s in work) / len(work),
        "sampling.worlds_repaired": sum(s.attrs["worlds_repaired"] for s in work) / len(work),
    }
    p90 = percentile(durations, 0.90)
    if p90 is None:
        notes.append(
            f"streaming.refresh_p90_ms: {len(work)} refreshes, fewer than "
            "10 beyond p90"
        )
    else:
        values["streaming.refresh_p90_ms"] = p90 * 1e3
    return values


def per_layer(
    spans: Iterable[Span], collected: Mapping[str, float]
) -> tuple[dict[str, float], list[str]]:
    """Every :data:`PER_LAYER` metric, plus notes on the ones that are 0."""
    spans = [span for span in spans if span.end is not None]
    own = self_times(spans)
    by_name: dict[str, list[float]] = {}
    for span in spans:
        if span.attrs.get("idle"):
            continue
        by_name.setdefault(span.name, []).append(own[span.id])
    notes: list[str] = []
    values: dict[str, float] = {}
    for metric, span_name in SPAN_MS.items():
        samples = by_name.get(span_name)
        if samples:
            values[metric] = median(samples) * 1e3
    values.update(_refresh_values(spans, notes))
    values.update({name: float(value) for name, value in collected.items()})
    missing = [metric for metric in PER_LAYER if metric not in values]
    if missing:
        notes.append("reported as 0, no such work here: " + ", ".join(missing))
    orphans = sum(
        1 for span in spans if span.parent is None and not span.name.startswith("op.")
    )
    notes.append(
        f"{orphans} spans have no parent: top-level calls and calls that "
        "hopped to an executor thread (linking those needs tracing inside "
        "the program)"
    )
    return {metric: values.get(metric, 0.0) for metric in PER_LAYER}, notes
