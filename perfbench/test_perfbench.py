"""Tests of the benchmark's own arithmetic and workload calibration.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from perfbench import ledger
from perfbench.stats import percentile, run_open_loop, tail
from perfbench.tracing import Span, Tracer, self_times
from perfbench.workloads import build_graph, gate_graph
from repro.core.graph import UncertainGraph
from repro.datasets import directed_powerlaw_edges

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


# ----------------------------------------------------------------------
# Workload calibration
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", ["batch", "live", "failover"])
@pytest.mark.parametrize("seed", [7, 8])
def test_workload_graphs_pass_the_sanity_gate(workload, seed):
    _, gate = gate_graph(build_graph(workload, seed), seed)
    assert gate.passed, gate.failures
    assert gate.k_verified < gate.k
    assert gate.candidates > gate.k - gate.k_verified
    assert gate.samples > 0
    assert gate.kth_score < 0.95


def saturated_powerlaw_graph(n: int, seed: int) -> UncertainGraph:
    """The older benchmarks' ``build_powerlaw_graph``, verbatim in effect:
    self-risk U[0, 0.2] and edge factor 3."""
    rng = np.random.default_rng(seed)
    src, dst = directed_powerlaw_edges(n, 3 * n, seed=rng)
    return UncertainGraph.from_arrays(
        self_risks=rng.random(n) * 0.2,
        edge_src=src,
        edge_dst=dst,
        edge_probs=np.clip(rng.beta(2.0, 4.0, src.size), 0.01, 0.95),
    )


def test_saturated_generator_fails_the_sanity_gate():
    result, gate = gate_graph(saturated_powerlaw_graph(20_000, 7), 7)
    assert not gate.passed
    assert gate.k_verified == 1
    assert all(result.scores[node] == 1.0 for node in result.nodes)
    assert any("all 1.000" in failure for failure in gate.failures)


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
def test_percentile_needs_ten_samples_beyond():
    assert percentile(list(range(500)), 0.99) is None  # only 5 beyond
    assert percentile(list(range(1000)), 0.99) == 989.0  # exactly 10 beyond
    assert percentile(list(range(100)), 0.90) == 89.0
    assert percentile(list(range(99)), 0.90) is None
    assert percentile([], 0.5) is None


def test_tail_picks_the_highest_supported_percentile():
    assert tail(list(range(500)))[0] == "p90"
    assert tail(list(range(1000)))[0] == "p99"
    assert tail(list(range(20))) is None


# ----------------------------------------------------------------------
# Span self time
# ----------------------------------------------------------------------
def test_self_time_subtracts_nested_children():
    spans = [
        Span(id=1, name="outer", start=0.0, end=10.0),
        Span(id=2, name="mid", start=1.0, end=6.0, parent=1),
        Span(id=3, name="leaf", start=2.0, end=3.0, parent=2),
    ]
    assert self_times(spans) == {1: 5.0, 2: 4.0, 3: 1.0}


def test_self_time_merges_overlapping_children_and_clips_them():
    spans = [
        Span(id=1, name="parent", start=0.0, end=10.0),
        Span(id=2, name="a", start=1.0, end=5.0, parent=1),
        Span(id=3, name="b", start=4.0, end=7.0, parent=1),  # overlaps a
        Span(id=4, name="c", start=9.0, end=12.0, parent=1),  # runs past the end
    ]
    assert self_times(spans)[1] == pytest.approx(10.0 - 6.0 - 1.0)


# ----------------------------------------------------------------------
# Open-loop accounting
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def test_stalled_server_inflates_later_latency():
    clock = FakeClock()
    service_times = [0.01, 0.5, 0.01, 0.01, 0.01]  # request 1 stalls

    def send(index):
        clock.now += service_times[index]

    record = run_open_loop(
        [0.1 * i for i in range(5)], send, clock=clock, sleep=clock.sleep, start=0.0
    )
    assert record.latency[0] == pytest.approx(0.01)
    assert record.latency[1] == pytest.approx(0.5)
    # Requests 2..4 were due while request 1 was stuck: measured from
    # their due times, they carry the wait instead of hiding it.
    assert record.latency[2] == pytest.approx(0.61 - 0.2 + 0.0)
    assert record.latency[3] == pytest.approx(0.62 - 0.3)
    assert record.latency[4] == pytest.approx(0.63 - 0.4)
    assert record.lateness[2] == pytest.approx(0.40)
    assert record.lateness[0] == 0.0


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
def test_tracer_wraps_names_where_they_are_looked_up():
    source = types.ModuleType("perfbench_fake_source")
    user = types.ModuleType("perfbench_fake_user")

    def work(x):
        return x + 1

    source.work = work
    user.work = work  # ``from source import work``
    tracer = Tracer()
    tracer.patch(source, "work", "layer.work")
    tracer.patch(user, "work", "layer.work")
    with tracer.span("op.outer"):
        assert user.work(1) == 2
        assert source.work(2) == 3
    tracer.restore()
    assert user.work is work and source.work is work
    names = [span.name for span in tracer.closed_spans()]
    assert names.count("layer.work") == 2
    outer = next(s for s in tracer.spans if s.name == "op.outer")
    assert all(s.parent == outer.id for s in tracer.spans if s.name == "layer.work")


def test_generator_spans_leave_out_the_consumers_work():
    clock = FakeClock()

    def blocks():
        for _ in range(2):
            clock.now += 1.0  # the generator's own work per item
            yield None

    tracer = Tracer(clock=clock)
    traced = tracer.wrap(blocks, "layer.blocks")
    with tracer.span("op.consumer"):
        for _ in traced():
            clock.now += 5.0  # the consumer's work between items
    spans = [s for s in tracer.closed_spans() if s.name == "layer.blocks"]
    working = [s for s in spans if not s.attrs.get("idle")]
    assert [s.duration for s in working] == [1.0, 1.0]
    outer = next(s for s in tracer.spans if s.name == "op.consumer")
    assert all(s.parent == outer.id for s in spans)
    assert self_times(tracer.closed_spans())[outer.id] == pytest.approx(10.0)


class FakeView:
    """Just ``WorldView.cached``."""

    def __init__(self) -> None:
        self._cache = {}

    def cached(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def defaulted(self):
        return "worlds"


def test_first_per_view_traces_each_new_view_once():
    tracer = Tracer()
    traced = tracer.wrap(FakeView.defaulted, "layer.view", first_per_view=True)
    views = [FakeView(), FakeView()]
    for view in views + views:
        assert traced(view) == "worlds"
    del views
    traced(FakeView())  # may reuse a collected view's id: still traced
    assert [s.name for s in tracer.closed_spans()] == ["layer.view"] * 3


def test_per_layer_reports_every_metric():
    values, notes = ledger.per_layer([], {})
    assert set(values) == set(ledger.PER_LAYER)
    assert any("reported as 0" in note for note in notes)


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with the catalogue
# ----------------------------------------------------------------------
def test_benchmark_json_lists_the_catalogue():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in spec["workloads"]] == ["batch", "live", "failover"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (unit, _) in ledger.END_TO_END.items()
    }
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == ledger.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


if __name__ == "__main__":  # pragma: no cover
    sys.exit(pytest.main([__file__, "-q"]))
