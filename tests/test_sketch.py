"""Tests for repro.sketch.bottom_k — sketches and the BSRBK stopping
scan, checked against the scalar stopper oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest
from bottom_k_stopper import BottomKStopper
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import SamplingError
from repro.sketch.bottom_k import (
    BottomKSketch,
    bottom_k_scan,
    coefficient_of_variation,
    expected_relative_error,
)


class TestErrorFormulas:
    def test_expected_relative_error_formula(self):
        assert expected_relative_error(18) == pytest.approx(
            math.sqrt(2 / (math.pi * 16))
        )

    def test_cv_formula(self):
        assert coefficient_of_variation(18) == pytest.approx(0.25)

    def test_bk_two_is_degenerate(self):
        assert expected_relative_error(2) == math.inf
        assert coefficient_of_variation(2) == math.inf

    def test_bk_below_two_rejected(self):
        with pytest.raises(SamplingError):
            expected_relative_error(1)

    def test_error_shrinks_with_bk(self):
        errors = [expected_relative_error(bk) for bk in (4, 8, 16, 32, 64)]
        assert errors == sorted(errors, reverse=True)


class TestBottomKSketch:
    def test_keeps_k_smallest(self):
        sketch = BottomKSketch(bk=3)
        for value in (0.9, 0.1, 0.4, 0.2, 0.05, 0.7):
            sketch.add(value)
        assert sketch.kth_smallest() == pytest.approx(0.2)

    def test_not_full_reports_exact_count(self):
        sketch = BottomKSketch(bk=10)
        sketch.update([0.1, 0.2, 0.3])
        assert not sketch.is_full
        assert sketch.estimate_distinct() == pytest.approx(3.0)

    def test_kth_smallest_requires_full(self):
        sketch = BottomKSketch(bk=4)
        sketch.add(0.5)
        with pytest.raises(SamplingError):
            sketch.kth_smallest()

    def test_rejects_out_of_range_hash(self):
        sketch = BottomKSketch(bk=2)
        with pytest.raises(SamplingError):
            sketch.add(0.0)
        with pytest.raises(SamplingError):
            sketch.add(1.0)

    def test_rejects_small_bk(self):
        with pytest.raises(SamplingError):
            BottomKSketch(bk=1)

    def test_distinct_count_estimate_statistical(self):
        """Estimate of n distinct uniform hashes is within 3 CVs of n."""
        rng = np.random.default_rng(0)
        n, bk = 5000, 64
        sketch = BottomKSketch(bk=bk)
        sketch.update(rng.random(n))
        estimate = sketch.estimate_distinct()
        cv = coefficient_of_variation(bk)
        assert abs(estimate - n) < 4 * cv * n

    @given(st.lists(st.floats(0.001, 0.999), min_size=5, max_size=50))
    def test_kth_smallest_matches_sorted(self, values):
        bk = 5
        sketch = BottomKSketch(bk=bk)
        sketch.update(values)
        assert sketch.kth_smallest() == pytest.approx(sorted(values)[bk - 1])


class TestBottomKStopper:
    def test_finishes_after_bk_hits(self):
        stopper = BottomKStopper(
            num_candidates=2, bk=3, total_samples=100, stop_after=1
        )
        outcome_hit = np.array([True, False])
        finished = []
        for i in range(3):
            finished += stopper.offer(0.01 * (i + 1), outcome_hit)
        assert finished == [0]
        assert stopper.should_stop

    def test_requires_ascending_hashes(self):
        stopper = BottomKStopper(2, 2, 10, 1)
        stopper.offer(0.5, np.array([False, False]))
        with pytest.raises(SamplingError, match="ascending"):
            stopper.offer(0.4, np.array([False, False]))

    def test_outcome_shape_checked(self):
        stopper = BottomKStopper(2, 2, 10, 1)
        with pytest.raises(SamplingError):
            stopper.offer(0.1, np.array([True]))

    def test_estimates_before_processing_rejected(self):
        stopper = BottomKStopper(2, 2, 10, 1)
        with pytest.raises(SamplingError):
            stopper.estimates()

    def test_finished_estimate_formula(self):
        """Theorem 6: p(u) estimated as (bk-1)/(L(A,bk) * t)."""
        bk, t = 3, 100
        stopper = BottomKStopper(1, bk, t, 1)
        hashes = [0.01, 0.02, 0.05]
        for h in hashes:
            stopper.offer(h, np.array([True]))
        estimate = stopper.estimates()[0]
        assert estimate == pytest.approx((bk - 1) / (0.05 * t))

    def test_unfinished_estimate_is_empirical(self):
        stopper = BottomKStopper(1, bk=5, total_samples=100, stop_after=1)
        stopper.offer(0.1, np.array([True]))
        stopper.offer(0.2, np.array([False]))
        assert stopper.estimates()[0] == pytest.approx(0.5)

    def test_counter_freezes_after_finish(self):
        stopper = BottomKStopper(1, bk=2, total_samples=10, stop_after=1)
        stopper.offer(0.1, np.array([True]))
        stopper.offer(0.2, np.array([True]))  # finishes here
        stopper.offer(0.3, np.array([True]))  # must not count further
        assert stopper.counts[0] == 2

    def test_first_finisher_has_largest_estimate(self):
        """Theorem 6's ordering: earlier finishers estimate higher."""
        stopper = BottomKStopper(2, bk=2, total_samples=50, stop_after=2)
        stopper.offer(0.05, np.array([True, False]))
        stopper.offer(0.10, np.array([True, True]))
        stopper.offer(0.20, np.array([False, True]))
        estimates = stopper.estimates()
        assert stopper.finished == [0, 1]
        assert estimates[0] > estimates[1]

    def test_stop_after_many(self):
        stopper = BottomKStopper(3, bk=2, total_samples=50, stop_after=2)
        stopper.offer(0.1, np.array([True, True, False]))
        assert not stopper.should_stop
        stopper.offer(0.2, np.array([True, True, False]))
        assert stopper.should_stop
        assert set(stopper.finished) == {0, 1}

    def test_invalid_construction(self):
        with pytest.raises(SamplingError):
            BottomKStopper(0, 2, 10, 1)
        with pytest.raises(SamplingError):
            BottomKStopper(1, 2, 0, 1)
        with pytest.raises(SamplingError):
            BottomKStopper(1, 2, 10, 0)
        with pytest.raises(SamplingError):
            BottomKStopper(1, 1, 10, 1)

    def test_statistical_estimate_quality(self):
        """Stopper estimates track the true Bernoulli rate."""
        rng = np.random.default_rng(42)
        true_p = 0.4
        t = 2000
        hashes = np.sort(rng.random(t))
        stopper = BottomKStopper(1, bk=32, total_samples=t, stop_after=1)
        for h in hashes:
            stopper.offer(float(h), rng.random(1) <= true_p)
            if stopper.should_stop:
                break
        estimate = stopper.estimates()[0]
        assert estimate == pytest.approx(true_p, abs=0.15)


def _replay_stopper(outcomes, hashes, bk, stop_after, total_samples):
    """Feed the rows through the scalar BottomKStopper one sample at a
    time, returning the fields the scan mirrors."""
    stopper = BottomKStopper(
        num_candidates=outcomes.shape[1],
        bk=bk,
        total_samples=total_samples,
        stop_after=stop_after,
    )
    stopped_early = False
    for sample_hash, outcome in zip(hashes, outcomes):
        stopper.offer(float(sample_hash), outcome)
        if stopper.should_stop:
            stopped_early = True
            break
    return (
        stopper.processed,
        stopped_early,
        stopper.counts.copy(),
        stopper.estimates(),
    )


class TestBottomKScan:
    """The vectorised scan is field-for-field the scalar stopper."""

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_stopper_on_random_streams(self, seed):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(1, 60))
        candidates = int(rng.integers(1, 12))
        bk = int(rng.integers(2, 6))
        stop_after = int(rng.integers(1, candidates + 1))
        total = rows + int(rng.integers(0, 20))
        outcomes = rng.random((rows, candidates)) < rng.random(candidates)
        hashes = np.sort(rng.random(rows)) * 0.98 + 0.01
        scan = bottom_k_scan(outcomes, hashes, bk, stop_after, total)
        processed, stopped, counts, estimates = _replay_stopper(
            outcomes, hashes, bk, stop_after, total
        )
        assert scan.processed == processed
        assert scan.stopped_early == stopped
        assert np.array_equal(scan.counts, counts)
        assert np.array_equal(scan.estimates, estimates)

    def test_prefix_stability(self):
        """Once the scan stops within a prefix, every longer prefix
        stops at the same position with the same estimates — the
        property that makes BSRBK's result chunk-schedule independent."""
        rng = np.random.default_rng(3)
        rows, candidates = 80, 6
        outcomes = rng.random((rows, candidates)) < 0.35
        hashes = np.sort(rng.random(rows))
        base = bottom_k_scan(outcomes, hashes, 3, 2, rows)
        assert base.stopped_early
        for extra in (1, 5, rows - base.processed):
            prefix = base.processed + extra
            again = bottom_k_scan(
                outcomes[:prefix], hashes[:prefix], 3, 2, rows
            )
            assert again.processed == base.processed
            assert np.array_equal(again.estimates, base.estimates)

    def test_never_stopping_consumes_all_rows(self):
        outcomes = np.zeros((10, 3), dtype=bool)
        hashes = np.linspace(0.1, 0.9, 10)
        scan = bottom_k_scan(outcomes, hashes, 2, 1, 10)
        assert not scan.stopped_early
        assert scan.processed == 10
        assert (scan.finish_positions == -1).all()
        assert (scan.estimates == 0.0).all()

    def test_validation(self):
        outcomes = np.zeros((4, 2), dtype=bool)
        hashes = np.linspace(0.1, 0.4, 4)
        with pytest.raises(SamplingError):
            bottom_k_scan(np.zeros((0, 2), dtype=bool), hashes[:0], 2, 1, 4)
        with pytest.raises(SamplingError):
            bottom_k_scan(outcomes, hashes[:2], 2, 1, 4)
        with pytest.raises(SamplingError):
            bottom_k_scan(outcomes, hashes, 1, 1, 4)
        with pytest.raises(SamplingError):
            bottom_k_scan(outcomes, hashes, 2, 0, 4)
        with pytest.raises(SamplingError):
            bottom_k_scan(outcomes, hashes, 2, 1, 0)
