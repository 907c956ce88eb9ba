"""Forward Monte-Carlo sampling — Algorithm 1 of the paper.

Two interchangeable engines are provided:

* :func:`forward_sample_reference` — a line-by-line transcription of the
  paper's Algorithm 1 inner loop (one possible world, pure Python).  It is
  the executable specification and is only used directly by tests and by
  callers that need per-world introspection.
* :class:`ForwardSampler` — a batched, numpy-vectorised engine that
  materialises many worlds at once and propagates defaults with segment
  reductions.  Statistically identical to the reference (the tests check
  agreement), 1–2 orders of magnitude faster.

Both estimate, for every node ``v``, the default probability ``p(v)`` as
the fraction of sampled worlds in which ``v`` defaults.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.core.errors import SamplingError
from repro.core.graph import UncertainGraph
from repro.sampling.rng import SeedLike, make_rng

__all__ = ["forward_sample_reference", "ForwardSampler", "ForwardEstimate"]


def forward_sample_reference(
    graph: UncertainGraph, rng: np.random.Generator
) -> np.ndarray:
    """One possible world, exactly as in Algorithm 1 lines 3–19.

    Every node draws a uniform number against its self-risk; a BFS from
    the self-defaulting nodes then draws one uniform number per first
    encounter of an edge to decide whether contagion crosses it.

    Returns
    -------
    numpy.ndarray
        Boolean ``hv`` array over internal node indices: which nodes
        default in this world.
    """
    n = graph.num_nodes
    ps = graph.self_risk_array
    out = graph.out_csr()
    hv = rng.random(n) <= ps  # lines 4-7
    visited = hv.copy()  # line 9: nodes outside Q start unvisited
    queue: deque[int] = deque(int(i) for i in np.flatnonzero(hv))  # line 8
    while queue:  # lines 10-19
        vq = queue.popleft()
        start, stop = out.indptr[vq], out.indptr[vq + 1]
        for pos in range(start, stop):
            va = int(out.indices[pos])
            if visited[va]:
                continue
            if rng.random() > out.probs[pos]:  # lines 14-16
                continue
            hv[va] = True
            visited[va] = True
            queue.append(va)
    return hv


@dataclass(frozen=True)
class ForwardEstimate:
    """Result of a forward-sampling run.

    Attributes
    ----------
    counts:
        Per-node default counts (the accumulated ``vc`` of Algorithm 1).
    samples:
        Number of worlds sampled (``t``).
    """

    counts: np.ndarray
    samples: int

    @property
    def probabilities(self) -> np.ndarray:
        """Estimated default probabilities ``vc / t``."""
        return self.counts / float(self.samples)


class ForwardSampler:
    """Vectorised forward sampling engine.

    Parameters
    ----------
    graph:
        The uncertain graph to sample.
    seed:
        Seed, generator or ``None``; see :func:`repro.sampling.rng.make_rng`.
    batch_size:
        Worlds materialised per numpy batch.  Larger batches amortise
        Python overhead at the cost of ``batch_size * num_edges`` booleans
        of memory.

    Notes
    -----
    Per batch the engine draws the full node-default matrix and the full
    edge-survival matrix up front.  Algorithm 1 draws edge variables lazily
    on first encounter, but each edge variable is an independent Bernoulli
    either way, so the sampled distribution over worlds is identical; only
    the random-stream consumption differs.
    """

    def __init__(
        self,
        graph: UncertainGraph,
        seed: SeedLike = None,
        batch_size: int = 256,
    ) -> None:
        if batch_size <= 0:
            raise SamplingError(f"batch_size must be positive, got {batch_size}")
        self._graph = graph
        self._rng = make_rng(seed)
        self._batch_size = int(batch_size)
        self._ps = graph.self_risk_array
        #: Work counters comparable with
        #: :class:`~repro.sampling.indexed.IndexedReverseSampler`'s: how
        #: many per-world node draws and edge examinations Algorithm 1
        #: performs (engine-neutral cost of the sampling, used by the
        #: Figure-6 efficiency experiment).
        self.nodes_touched = 0
        self.edges_touched = 0
        src, dst, prob = graph.edge_array
        # Edges sorted by destination enable a per-destination segment OR.
        # The probability vector is pre-permuted into that order once, so
        # each batch draws survival matrices directly in-order instead of
        # materialising a full ``batch x m`` gather per batch.
        in_csr = graph.in_csr()
        self._in_order = in_csr.edge_ids  # edge ids sorted by destination
        self._in_indptr = in_csr.indptr
        self._edge_prob_in_order = prob[self._in_order]
        nonempty = np.flatnonzero(np.diff(self._in_indptr) > 0)
        self._nonempty_nodes = nonempty
        self._nonempty_starts = self._in_indptr[nonempty]
        self._edge_src_in_order = src[self._in_order]

    @property
    def graph(self) -> UncertainGraph:
        """The graph this sampler draws worlds from."""
        return self._graph

    def sample_batch(self, batch: int) -> np.ndarray:
        """Materialise *batch* worlds and return their default matrices.

        Returns
        -------
        numpy.ndarray
            Boolean array of shape ``(batch, num_nodes)``; row ``i`` is the
            ``hv`` vector of world ``i``.
        """
        n = self._graph.num_nodes
        m = self._graph.num_edges
        defaulted = self._rng.random((batch, n)) <= self._ps
        self.nodes_touched += batch * n  # lines 4-7 draw for every node
        if m == 0 or not defaulted.any():
            return defaulted
        survives_in_order = self._rng.random((batch, m)) <= self._edge_prob_in_order
        frontier = defaulted.copy()
        while True:
            # Which in-ordered edges carry contagion out of the frontier.
            # Algorithm 1 examines each out-edge of every frontier node.
            src_active = frontier[:, self._edge_src_in_order]
            self.edges_touched += int(src_active.sum())
            active = src_active & survives_in_order
            if not active.any():
                break
            reached = np.zeros((batch, n), dtype=bool)
            segment_or = np.bitwise_or.reduceat(
                active, self._nonempty_starts, axis=1
            )
            reached[:, self._nonempty_nodes] = segment_or
            frontier = reached & ~defaulted
            if not frontier.any():
                break
            defaulted |= frontier
        return defaulted

    def run(self, samples: int) -> ForwardEstimate:
        """Sample *samples* worlds and accumulate default counts."""
        if samples <= 0:
            raise SamplingError(f"samples must be positive, got {samples}")
        counts = np.zeros(self._graph.num_nodes, dtype=np.int64)
        remaining = int(samples)
        while remaining > 0:
            batch = min(self._batch_size, remaining)
            counts += self.sample_batch(batch).sum(axis=0)
            remaining -= batch
        return ForwardEstimate(counts=counts, samples=int(samples))

    def estimate_probabilities(self, samples: int) -> np.ndarray:
        """Convenience wrapper: estimated ``p(v)`` for every node."""
        return self.run(samples).probabilities
