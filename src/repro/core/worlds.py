"""Possible-world enumeration for uncertain graphs.

A *possible world* of an uncertain graph fixes, for every node, whether it
defaults by itself, and for every edge, whether the contagion along it
survives.  A node **defaults in a world** when it self-defaults or is
reachable from a self-defaulting node through surviving edges (Section 2.1
and Figure 3 of the paper).

:func:`enumerate_world_blocks` walks all ``2^(n+m)`` worlds a block of
``W`` at a time, as ``(W, n)`` self-default and ``(W, m)`` edge-survival
boolean matrices plus a ``(W,)`` mass vector, ready for
:func:`repro.core.propagation.propagate_defaults_block`.  Memory is
bounded by the block size, never by ``2^choices``.  The scalar
specification it is tested against — one explicit world at a time, in
plain binary-counting order — is the test oracle
``tests/reference_worlds.py``.

Block scheme and Gray-code masses
---------------------------------
Only the *free* choices (probability strictly between 0 and 1) are
enumerated; deterministic choices are pinned.  The free choices are
ordered nodes-then-edges and walked in **binary-reflected Gray-code
order**, so successive worlds — including across block boundaries —
differ in exactly one choice.  The last ``log2(W)`` choices (the "low"
choices) sweep all combinations inside each block; the remaining "high"
choices are constant per block and advance by one Gray flip between
blocks.

World masses are never recomputed as a fresh ``O(n + m)`` product per
world.  The high part of each mass is maintained incrementally: one Gray
flip patches a single choice's term and the sequential suffix product
after it (:class:`_ExactSuffixProduct`, amortised O(1) multiplies per
block).  The low part is a handful of vectorised column multiplies per
block.  Both are *sequential* products in the canonical choice order, so
every mass is **bit-identical** to the from-scratch product of the
node terms times the product of the edge terms — the equivalence tests
assert exact equality, not approximate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.errors import GraphError
from repro.core.graph import UncertainGraph

__all__ = [
    "WorldBlock",
    "free_choices",
    "enumerate_world_blocks",
    "DEFAULT_MAX_CHOICES",
    "DEFAULT_BLOCK_WORLDS",
]

#: Safety cap on enumerated binary choices.  The block engine streams
#: ``2^choices`` worlds through block-sized buffers, so the cap is a
#: run-time guard, not a memory one.
DEFAULT_MAX_CHOICES = 28

#: Worlds materialised per block by :func:`enumerate_world_blocks`.
DEFAULT_BLOCK_WORLDS = 4096


@dataclass(frozen=True)
class WorldBlock:
    """A block of possible worlds materialised as boolean matrices.

    Attributes
    ----------
    self_default:
        Boolean ``(W, n)`` matrix; row ``j`` is world ``j``'s self-default
        vector.
    edge_survives:
        Boolean ``(W, m)`` matrix; row ``j`` is world ``j``'s edge-survival
        vector.
    masses:
        ``float64`` ``(W,)`` vector of world probabilities, bit-identical
        to the sequential product of each row's choice terms.
    """

    self_default: np.ndarray
    edge_survives: np.ndarray
    masses: np.ndarray

    @property
    def num_worlds(self) -> int:
        """Number of worlds in this block."""
        return int(self.masses.size)


def free_choices(graph: UncertainGraph) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the free nodes and free edges of *graph*.

    A choice is free when its probability lies strictly inside
    ``(0, 1)``; the others are pinned to their certain outcome, so the
    enumeration walks ``2^(free nodes + free edges)`` worlds.
    """
    ps = graph.self_risk_array
    pe = graph.edge_array[2]
    return (
        np.flatnonzero((ps > 0.0) & (ps < 1.0)),
        np.flatnonzero((pe > 0.0) & (pe < 1.0)),
    )


class _ExactSuffixProduct:
    """Sequential product over per-choice terms with exact one-flip patches.

    Maintains ``cum[i] = t[0] * t[1] * ... * t[i]`` (left-to-right) for
    the current term of every choice.  Flipping choice ``i`` replaces its
    term and recomputes ``cum[i:]`` — because the recomputation *is* the
    left-to-right product, the patched value is bit-identical to a
    from-scratch product at every step, while Gray-code enumeration makes
    the amortised patch cost O(1) multiplies per flip (fast-flipping
    choices sit at the end of the order).
    """

    __slots__ = ("_false_terms", "_true_terms", "_terms", "_cum")

    def __init__(self, probabilities: np.ndarray) -> None:
        p = np.asarray(probabilities, dtype=np.float64)
        self._true_terms = p
        self._false_terms = 1.0 - p
        self._terms = self._false_terms.copy()  # Gray code starts all-False
        self._cum = np.empty(p.size, dtype=np.float64)
        self._recompute(0)

    def _recompute(self, start: int) -> None:
        running = self._cum[start - 1] if start else np.float64(1.0)
        terms = self._terms
        cum = self._cum
        for i in range(start, terms.size):
            running = running * terms[i]
            cum[i] = running

    def flip(self, position: int, bit: bool) -> None:
        """Set choice *position* to *bit* and repair the suffix products."""
        source = self._true_terms if bit else self._false_terms
        self._terms[position] = source[position]
        self._recompute(position)

    @property
    def value(self) -> float:
        """The current full product (1.0 when there are no choices)."""
        return float(self._cum[-1]) if self._cum.size else 1.0


def enumerate_world_blocks(
    graph: UncertainGraph,
    max_choices: int = DEFAULT_MAX_CHOICES,
    block_worlds: int = DEFAULT_BLOCK_WORLDS,
) -> Iterator[WorldBlock]:
    """Yield all possible worlds in Gray-code order, a block at a time.

    Each yielded :class:`WorldBlock` owns fresh arrays (callers may keep
    or mutate them).  Memory use is bounded by one block —
    ``O(block_worlds * (n + m))`` booleans — regardless of how many
    blocks the enumeration streams.

    Parameters
    ----------
    graph:
        The uncertain graph; at most *max_choices* free choices.
    max_choices:
        Safety cap on the number of enumerated binary choices.
    block_worlds:
        Upper bound on worlds per block; rounded down to a power of two
        and capped at the total number of worlds.

    Raises
    ------
    GraphError
        When the graph has more free choices than *max_choices*, or
        *block_worlds* is not positive.
    """
    if block_worlds < 1:
        raise GraphError(f"block_worlds must be positive, got {block_worlds}")
    ps = graph.self_risk_array
    _, _, pe = graph.edge_array
    free_nodes, free_edges = free_choices(graph)
    # The pinned realisation every world shares.
    base_nodes, base_edges = ps >= 1.0, pe >= 1.0
    n_free = int(free_nodes.size)
    f = n_free + int(free_edges.size)
    if f > max_choices:
        raise GraphError(
            f"graph has {f} free choices; enumeration capped at {max_choices}"
        )

    # Free choices are ordered nodes-then-edges; choice c maps to Gray bit
    # f - 1 - c, so the *last* choices are the fastest-flipping bits.  The
    # low b bits sweep inside a block, the high h = f - b bits are fixed
    # per block and advance by one Gray flip between blocks.
    b = min(int(block_worlds).bit_length() - 1, f)
    width = 1 << b
    blocks = 1 << (f - b)
    h = f - b
    free_probs = np.concatenate((ps[free_nodes], pe[free_edges]))
    n_high_nodes = min(h, n_free)

    # --- low-choice machinery, fixed for the whole enumeration ---------
    row = np.arange(width, dtype=np.int64)
    gray_low = row ^ (row >> 1)
    gray_low_rev = gray_low[::-1].copy()

    def _low_columns(direction_forward: bool):
        node_cols, edge_cols = [], []
        source = gray_low if direction_forward else gray_low_rev
        for c in range(h, f):
            bits = ((source >> (f - 1 - c)) & 1) != 0
            p = float(free_probs[c])
            terms = np.where(bits, p, 1.0 - p)
            if c < n_free:
                node_cols.append((int(free_nodes[c]), bits, terms))
            else:
                edge_cols.append((int(free_edges[c - n_free]), bits, terms))
        return node_cols, edge_cols

    low_cols = {True: _low_columns(True), False: _low_columns(False)}

    def _template(direction_forward: bool):
        self_default = np.repeat(base_nodes[None, :], width, axis=0)
        edge_survives = np.repeat(base_edges[None, :], width, axis=0)
        node_cols, edge_cols = low_cols[direction_forward]
        for index, bits, _ in node_cols:
            self_default[:, index] = bits
        for index, bits, _ in edge_cols:
            edge_survives[:, index] = bits
        return self_default, edge_survives

    templates = {True: _template(True), False: _template(False)}

    # --- high-choice machinery: exact incremental Gray-code masses -----
    node_cascade = _ExactSuffixProduct(free_probs[:n_high_nodes])
    edge_cascade = _ExactSuffixProduct(free_probs[n_high_nodes:h])
    high_nodes = [(c, int(free_nodes[c])) for c in range(n_high_nodes)]
    high_edges = [(c, int(free_edges[c - n_free])) for c in range(n_high_nodes, h)]
    high_bits = np.zeros(h, dtype=bool)

    for k in range(blocks):
        gray_high = k ^ (k >> 1)
        if k:
            # Between blocks exactly one high bit flips: the bit at the
            # position of k's lowest set bit.  Patch that choice's term.
            flip_bit = (k & -k).bit_length() - 1
            choice = h - 1 - flip_bit
            bit = bool((gray_high >> flip_bit) & 1)
            high_bits[choice] = bit
            if choice < n_high_nodes:
                node_cascade.flip(choice, bit)
            else:
                edge_cascade.flip(choice - n_high_nodes, bit)
        forward = (k & 1) == 0
        template_sd, template_es = templates[forward]
        self_default = template_sd.copy()
        edge_survives = template_es.copy()
        for choice, index in high_nodes:
            if high_bits[choice]:
                self_default[:, index] = True
        for choice, index in high_edges:
            if high_bits[choice]:
                edge_survives[:, index] = True
        node_cols, edge_cols = low_cols[forward]
        node_part = np.full(width, node_cascade.value, dtype=np.float64)
        for _, _, terms in node_cols:
            node_part *= terms
        edge_part = np.full(width, edge_cascade.value, dtype=np.float64)
        for _, _, terms in edge_cols:
            edge_part *= terms
        yield WorldBlock(
            self_default=self_default,
            edge_survives=edge_survives,
            masses=node_part * edge_part,
        )
