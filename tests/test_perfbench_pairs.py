"""``scripts/perfbench_pairs.py`` on canned perfbench output."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "perfbench_pairs.py"


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("perfbench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_lines(answer_ms: float, kept: int, correct: bool = True) -> str:
    """What one perfbench run prints: detail lines, then its JSON."""
    result = {
        "correct": correct,
        "attempted": 10,
        "failed": 0 if correct else 1,
        "metrics": {
            "answer_ms": {"value": answer_ms, "unit": "ms"},
            "bounds.k_verified": {"value": kept, "unit": "count"},
        },
    }
    return f"[batch] BSR detect: n=5\n{json.dumps(result)}\n"


class CannedRunner:
    """Answers each (checkout, seed) from a table and logs the calls."""

    def __init__(self, outputs: dict[tuple[str, int], str]) -> None:
        self.outputs = outputs
        self.calls: list[tuple[str, int]] = []

    def __call__(self, checkout, workload, seed, seconds, trace) -> str:
        assert (workload, seconds, trace) == ("batch", 25.0, 0)
        self.calls.append((checkout.name, seed))
        return self.outputs[(checkout.name, seed)]


def test_parse_seeds(pairs):
    assert pairs.parse_seeds("1-3,7") == [1, 2, 3, 7]
    assert pairs.parse_seeds("5") == [5]


def test_parse_result_reads_the_last_line(pairs):
    assert pairs.parse_result(run_lines(10.0, 1))["metrics"]["answer_ms"] == {
        "value": 10.0,
        "unit": "ms",
    }
    assert pairs.parse_result("Traceback (most recent call last):\n") is None
    assert pairs.parse_result("") is None


def test_summary_alternates_and_counts_wins(pairs, tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    (change / "BENCHMARK.json").write_text(
        json.dumps(
            {
                "end_to_end": [{"name": "answer_ms", "better": "lower"}],
                "per_layer": [{"name": "bounds.k_verified", "better": "higher"}],
            }
        )
    )
    outputs = {}
    for seed, (old, new) in enumerate([(100, 60), (110, 70), (90, 95), (105, 65)], 1):
        outputs[("parent", seed)] = run_lines(old, 1)
        outputs[("change", seed)] = run_lines(new, 2)
    runner = CannedRunner(outputs)
    code = pairs.main(
        ["--parent", str(parent), "--change", str(change), "--workload",
         "batch", "--seeds", "1-4"],
        runner=runner,
    )
    assert code == 0
    assert [name for name, _ in runner.calls] == [
        "parent", "change", "change", "parent",
        "parent", "change", "change", "parent",
    ]
    rows = {
        line.split()[0]: line.split()
        for line in capsys.readouterr().out.splitlines()
    }
    # Parent 90, 100, 105, 110: median 102.5, quartiles 97.5 and 106.25.
    assert rows["answer_ms"][1:4] == ["102.5", "[97.5,", "106.2]"]
    assert rows["answer_ms"][4:7] == ["67.5", "[63.75,", "76.25]"]
    assert rows["answer_ms"][7:] == ["0.659", "3/4"]
    assert rows["bounds.k_verified"][7:] == ["2.000", "4/4"]


def test_a_run_that_is_not_correct_fails(pairs, tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    outputs = {
        ("parent", 1): run_lines(100, 1),
        ("change", 1): run_lines(60, 1, correct=False),
        ("parent", 2): run_lines(100, 1),
        ("change", 2): "Traceback (most recent call last):\n",
    }
    code = pairs.main(
        ["--parent", str(parent), "--change", str(change), "--workload",
         "batch", "--seeds", "1,2"],
        runner=CannedRunner(outputs),
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "seed 1: change run not correct" in out
    assert "seed 2: change run no result" in out
