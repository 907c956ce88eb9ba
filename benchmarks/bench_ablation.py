"""Ablation benches for the design choices DESIGN.md calls out.

1. Reference (pseudocode-faithful) vs vectorised forward sampler.
2. Reverse sampling with vs without candidate reduction (SR's premise).
3. Bottom-k early stop vs full-budget reverse sampling (BSRBK's premise).
4. Bound order 1 vs 2 vs 3 end-to-end in BSR.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.bsr import BoundedSampleReverseDetector
from repro.algorithms.bsrbk import BottomKDetector
from repro.datasets.registry import load_dataset
from repro.sampling.forward import ForwardSampler, forward_sample_reference
from repro.sampling.indexed import IndexedReverseSampler
from repro.sampling.rng import make_rng


@pytest.fixture(scope="module")
def citation(bench_config):
    return load_dataset("citation", seed=bench_config.seed)


class TestSamplerEngineAblation:
    def test_reference_engine(self, benchmark, citation):
        rng = make_rng(0)
        graph = citation.graph

        def run_reference(samples=50):
            counts = np.zeros(graph.num_nodes)
            for _ in range(samples):
                counts += forward_sample_reference(graph, rng)
            return counts

        benchmark(run_reference)

    def test_vectorised_engine(self, benchmark, citation):
        sampler = ForwardSampler(citation.graph, seed=0)
        benchmark(lambda: sampler.run(50))


class TestCandidateReductionAblation:
    def test_reverse_all_nodes(self, benchmark, citation):
        graph = citation.graph
        sampler = IndexedReverseSampler(
            graph, np.arange(graph.num_nodes), seed=1
        )
        benchmark.pedantic(lambda: sampler.run(100), rounds=1, iterations=1)

    def test_reverse_pruned_candidates(self, benchmark, citation):
        from repro.bounds.candidates import reduce_candidates
        from repro.bounds.iterative import bound_pair

        graph = citation.graph
        k = citation.k_for_percent(5.0)
        lower, upper = bound_pair(graph, 2, 2)
        reduction = reduce_candidates(graph, lower, upper, k)
        candidates = (
            reduction.candidates
            if reduction.candidate_size
            else np.arange(graph.num_nodes)
        )
        sampler = IndexedReverseSampler(graph, candidates, seed=1)
        benchmark.pedantic(lambda: sampler.run(100), rounds=1, iterations=1)


class TestEarlyStopAblation:
    def test_bsr_full_budget(self, benchmark, citation):
        detector = BoundedSampleReverseDetector(seed=2)
        k = citation.k_for_percent(5.0)
        result = benchmark.pedantic(
            detector.detect, args=(citation.graph, k), rounds=1, iterations=1
        )
        print(f"\nBSR samples used: {result.samples_used}")

    def test_bsrbk_early_stop(self, benchmark, citation):
        detector = BottomKDetector(bk=16, seed=2)
        k = citation.k_for_percent(5.0)
        result = benchmark.pedantic(
            detector.detect, args=(citation.graph, k), rounds=1, iterations=1
        )
        print(f"\nBSRBK samples used: {result.samples_used}")


class TestBoundOrderAblation:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_bsr_with_order(self, benchmark, citation, order):
        detector = BoundedSampleReverseDetector(
            lower_order=order, upper_order=order, seed=3
        )
        k = citation.k_for_percent(5.0)
        result = benchmark.pedantic(
            detector.detect, args=(citation.graph, k), rounds=1, iterations=1
        )
        print(
            f"\norder={order}: candidates={result.candidate_size}, "
            f"verified={result.k_verified}, samples={result.samples_used}"
        )
