"""Exact default probabilities by possible-world enumeration.

The paper proves computing ``p(v)`` is #P-hard (Theorem 1), so exact values
are only feasible for small graphs.  This module provides the exact oracle
used as ground truth in unit tests and for validating the samplers:

    p(v) = sum over worlds W of  p(W) * I_W(v)

where ``I_W(v)`` indicates that ``v`` defaults in ``W``.

Worlds are streamed in Gray-code blocks through
:func:`repro.core.worlds.enumerate_world_blocks` and the contagion of a
whole block is resolved at once by the shared propagation kernel
(:func:`repro.core.propagation.propagate_defaults_block`).  Memory is
bounded by the block size, so the default ``max_choices`` cap is 28
(``2^28`` worlds).  The per-world sum it is tested against — a Python
BFS per enumerated world — is the test oracle
``tests/reference_worlds.py``; ``benchmarks/bench_exact_oracle.py``
tracks the speed gap between the two (two orders of magnitude at 20
choices).
"""

from __future__ import annotations

import numpy as np

from repro.core.graph import UncertainGraph
from repro.core.propagation import propagate_defaults_block
from repro.core.topk import top_k_labels
from repro.core.worlds import DEFAULT_MAX_CHOICES, enumerate_world_blocks

__all__ = ["exact_default_probabilities", "exact_top_k"]


def _two_sum(a, b):
    """Knuth's error-free transformation: ``a + b = s + err`` exactly."""
    s = a + b
    t = s - a
    err = (a - (s - t)) + (b - t)
    return s, err


def _block_node_sums(
    masses: np.ndarray, defaulted: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-node sum of world masses over one block, in double-double.

    ``masses[w] * defaulted[w, v]`` is exact (the boolean factor is 0.0 or
    1.0), and the tree reduction keeps every pairwise addition's rounding
    error through :func:`_two_sum`, so the returned ``(value, residual)``
    pair carries the block sum to ~eps^2.  This makes the oracle's output
    independent of accumulation order at double precision: nodes whose
    exact probabilities are mathematically equal (symmetric positions in
    the graph) come out bit-for-bit equal, as the tie-breaking tests
    require.
    """
    values = masses[:, None] * defaulted
    residuals = np.zeros_like(values)
    while values.shape[0] > 1:
        if values.shape[0] & 1:
            pad = np.zeros((1, values.shape[1]))
            values = np.concatenate((values, pad))
            residuals = np.concatenate((residuals, pad))
        summed, err = _two_sum(values[0::2], values[1::2])
        residuals = residuals[0::2] + residuals[1::2] + err
        values = summed
    return values[0], residuals[0]


def exact_default_probabilities(
    graph: UncertainGraph, max_choices: int = DEFAULT_MAX_CHOICES
) -> np.ndarray:
    """Exact ``p(v)`` for every node by enumerating all possible worlds.

    Per-world masses and defaults agree bit for bit with the scalar
    specification, and the compensated accumulation is at least as
    accurate as its sequential one, so totals agree to a few ulps
    (exactly, when the masses are exactly representable).

    Parameters
    ----------
    graph:
        A small uncertain graph (at most *max_choices* non-deterministic
        node/edge choices).
    max_choices:
        Enumeration safety cap, forwarded to the world enumerator.

    Returns
    -------
    numpy.ndarray
        ``float64`` array over internal node indices; entry ``i`` is the
        exact default probability of the node at index ``i``.
    """
    probabilities = np.zeros(graph.num_nodes, dtype=np.float64)
    residual = np.zeros(graph.num_nodes, dtype=np.float64)
    for block in enumerate_world_blocks(graph, max_choices=max_choices):
        defaulted = propagate_defaults_block(
            graph, block.self_default, block.edge_survives
        )
        value, block_residual = _block_node_sums(block.masses, defaulted)
        probabilities, err = _two_sum(probabilities, value)
        residual += block_residual + err
    probabilities += residual
    # Accumulating many world masses can overshoot 1.0 by a few ulps,
    # which breaks downstream sqrt(p * (1 - p)) variance formulas.
    return np.clip(probabilities, 0.0, 1.0)


def exact_top_k(
    graph: UncertainGraph, k: int, max_choices: int = DEFAULT_MAX_CHOICES
) -> list:
    """Exact top-k most vulnerable node labels (ties broken by index).

    This is the ground-truth ordering used by the correctness tests for the
    five detection algorithms.
    """
    probabilities = exact_default_probabilities(graph, max_choices=max_choices)
    return top_k_labels(graph, probabilities, k)
