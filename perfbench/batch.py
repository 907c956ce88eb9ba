"""``batch``: a one-shot regulator analysis.

Rounds repeat for ``--seconds`` (at least :data:`MIN_ROUNDS`); each
round times the set-up (``setup_s``), one BSR detection (``answer_ms``) and one BSRBK detection
(``alt_answer_ms``) on the 20,000-node network, and the 16-question
mixed battery (``work_ms``) through ``TopKMonitor.query`` over a fresh
monitor's own repaired worlds on the 5,000-node network — the path
``RiskService.query_family`` serves.  Each metric is the median over
rounds.  No serving layer runs, so sampler and query-kernel changes
show here and nowhere else.

The battery runs on the smaller graph because its skyline query
compares every pair of nodes: at 20,000 nodes one battery takes 30–40 s
on a 2-core machine, too long to repeat within a run.  5,000 nodes is
``bench_queries``' default size.
"""

from __future__ import annotations

from perfbench.common import GateFailed, Outcome, clock, span
from perfbench.stats import describe, median
from perfbench.tracing import Tracer
from perfbench.workloads import (
    BATTERY_NODES,
    GRAPH_SEED,
    K,
    build_graph,
    calibrated_powerlaw,
    gate_graph,
)
from repro.algorithms.bsr import BoundedSampleReverseDetector
from repro.algorithms.bsrbk import BottomKDetector
from repro.streaming.monitor import TopKMonitor

MIN_ROUNDS = 5


def query_battery(n: int) -> list[tuple[str, dict]]:
    """``bench_queries.query_battery``: 16 queries over all four families."""
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


def set_up(seed: int, tracer: Tracer | None, setups: list[float]):
    """Both graphs and a warm monitor's first answer, timed into *setups*."""
    started = clock()
    with span(tracer, "op.setup"):
        graph = build_graph("batch", GRAPH_SEED)
        reference = TopKMonitor(graph, K, seed=seed).top_k()
        battery_graph = calibrated_powerlaw(BATTERY_NODES, GRAPH_SEED)
    setups.append(clock() - started)
    return graph, reference, battery_graph


def run(seed: int, seconds: float, tracer: Tracer | None) -> Outcome:
    setups: list[float] = []
    graph, reference, battery_graph = set_up(seed, tracer, setups)
    first, gate = gate_graph(graph, seed)
    _, battery_gate = gate_graph(battery_graph, seed)
    for name, checked in (("detection", gate), ("battery", battery_gate)):
        if not checked.passed:
            raise GateFailed(f"batch {name} graph, seed {seed}: {'; '.join(checked.failures)}")
    bk_reference = TopKMonitor(graph, K, seed=seed, algorithm="bsrbk").top_k()
    attempted, failed = 1, int(not first.same_answer(reference))

    battery = query_battery(battery_graph.num_nodes)
    bsr_times, bsrbk_times, battery_times = [], [], []
    bk_first = battery_answers = None
    measure_start = clock()
    while len(battery_times) < MIN_ROUNDS or clock() - measure_start < seconds:
        if battery_times:
            # The host's speed drifts over tens of seconds; set-ups spread
            # over the run see the same drift as every other metric.
            graph, reference, battery_graph = set_up(seed, tracer, setups)
        for detector, times, expected in (
            (BoundedSampleReverseDetector(seed=seed), bsr_times, reference),
            (BottomKDetector(seed=seed), bsrbk_times, bk_reference),
        ):
            started = clock()
            with span(tracer, "op.detect"):
                result = detector.detect(graph, K)
            times.append(clock() - started)
            attempted += 1
            failed += int(not result.same_answer(expected))
            if isinstance(detector, BottomKDetector):
                bk_first = bk_first or result

        # A fresh monitor, so every battery realises its worlds again.
        battery_monitor = TopKMonitor(battery_graph, K, seed=seed)
        battery_monitor.top_k()
        started = clock()
        with span(tracer, "op.battery"):
            answers = [battery_monitor.query(family, **params) for family, params in battery]
        battery_times.append(clock() - started)
        # Same seed, same worlds: every round must give the first round's answers.
        battery_answers = battery_answers or answers
        attempted += len(battery)
        failed += sum(not a.same_answer(b) for a, b in zip(answers, battery_answers))

    return Outcome(
        metrics={
            "setup_s": median(setups),
            "answer_ms": median(bsr_times) * 1e3,
            "alt_answer_ms": median(bsrbk_times) * 1e3,
            "work_ms": median(battery_times) * 1e3,
        },
        attempted=attempted,
        failed=failed,
        collected={
            "bounds.candidates": first.candidate_size,
            "bounds.k_verified": first.k_verified,
            "sampling.samples": first.samples_used,
            "sampling.nodes_touched": first.details["nodes_touched"],
            "sampling.edges_touched": first.details["edges_touched"],
            "sketch.worlds_used_share": bk_first.samples_used / first.samples_used,
        },
        lines=[
            f"detection graph: {graph.num_nodes} nodes, {graph.num_edges} edges; "
            f"gate {gate.as_dict()}",
            f"battery graph: {battery_graph.num_nodes} nodes, {battery_graph.num_edges} "
            f"edges; gate {battery_gate.as_dict()}",
            f"setup: {describe(setups, 1.0, 's')}",
            f"BSR detect: {describe(bsr_times)}",
            f"BSRBK detect: {describe(bsrbk_times)} "
            f"({bk_first.samples_used}/{first.samples_used} worlds used)",
            f"battery ({len(battery)} queries): {describe(battery_times)}",
        ],
    )
