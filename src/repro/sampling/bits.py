"""Bit-packed rows of ``uint64`` words, shared by the sampler and the
world state.

Both layouts the sampling layer keeps are bit-packed little-endian
``uint64`` words:

* :class:`~repro.sampling.worldstate.PackedWorldState` packs each
  world's ``n`` node bits into ``ceil(n / 64)`` words per row;
* :class:`~repro.sampling.indexed.IndexedReverseSampler` packs the
  worlds of an explored slice into one word per node (bit ``j`` is the
  slice's ``j``-th world), so each node's world set is a single word.

:func:`pack_bool_rows` and :func:`unpack_bool_rows` convert between a
boolean matrix and its packed rows (column ``c`` at word ``c >> 6``, bit
``c & 63``); with one word per row they convert a vector of world words
to the ``(rows, worlds)`` bit matrix and back.  :func:`popcount` counts
the set bits of each word.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "WORD",
    "num_words",
    "pack_bool_rows",
    "unpack_bool_rows",
    "popcount",
]

#: Explicit little-endian word dtype so byte views agree on every platform.
WORD = np.dtype("<u8")

_POP8 = np.array([bin(value).count("1") for value in range(256)], dtype=np.uint8)


def popcount(words: np.ndarray) -> np.ndarray:
    """Per-element popcount of a ``uint64`` array.

    Runs ``np.bitwise_count`` (numpy >= 2.0), and a byte lookup table
    where numpy lacks it.
    """
    bitwise_count = getattr(np, "bitwise_count", None)
    if bitwise_count is not None:
        return bitwise_count(words)
    as_bytes = np.ascontiguousarray(words, dtype=WORD).view(np.uint8)
    return _POP8[as_bytes].reshape(*words.shape, 8).sum(axis=-1, dtype=np.uint8)


def num_words(cols: int) -> int:
    """Words needed for *cols* bits."""
    return (int(cols) + 63) // 64


def pack_bool_rows(dense: np.ndarray) -> np.ndarray:
    """Bit-pack a boolean ``(R, C)`` matrix along its columns.

    Returns a ``(R, ceil(C/64))`` little-endian ``uint64`` matrix where
    column ``c`` lives at word ``c >> 6``, bit ``c & 63``.
    """
    dense = np.asarray(dense, dtype=bool)
    rows, cols = dense.shape
    words = num_words(cols)
    packed8 = np.packbits(dense, axis=1, bitorder="little")
    if packed8.shape[1] != words * 8:
        padded = np.zeros((rows, words * 8), dtype=np.uint8)
        padded[:, : packed8.shape[1]] = packed8
        packed8 = padded
    return np.ascontiguousarray(packed8).view(WORD)


def unpack_bool_rows(words: np.ndarray, cols: int) -> np.ndarray:
    """Invert :func:`pack_bool_rows` back to a boolean ``(R, cols)`` matrix.

    The result is a fresh C-contiguous array.
    """
    as_bytes = np.ascontiguousarray(words, dtype=WORD).view(np.uint8)
    return np.unpackbits(
        as_bytes, axis=1, bitorder="little", count=int(cols)
    ).view(bool)
