"""Random-number-generator plumbing.

All stochastic code in the library accepts a ``seed`` argument that may be
``None`` (fresh entropy), an ``int`` (reproducible), or an existing
:class:`numpy.random.Generator` (caller-managed stream).  Centralising the
coercion here keeps every sampler reproducible and keeps seeding idioms
consistent across the package.

Two families of randomness live here:

* **stream randomness** — :func:`make_rng`: one sequential double
  stream (the forward sampler);
* **counter randomness** — :func:`hashed_uniforms` /
  :func:`hashed_uniform_tile`: the SplitMix64 output function evaluated
  at explicit 64-bit counters, so the uniform at counter ``c`` under
  stream key ``k`` is a pure function of ``(k, c)``.  The indexed
  reverse engine keys every ``(world, entity)`` draw this way, which is
  what makes its worlds individually re-evaluable.  The mix runs in
  place over whole counter blocks — one numpy dispatch per hash stage,
  never per draw.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "make_rng",
    "spawn_rngs",
    "SeedLike",
    "splitmix64_mix",
    "hashed_mantissas",
    "hashed_mantissas_inplace",
    "hashed_uniforms",
    "hashed_uniform_tile",
    "derive_stream_key",
]

SeedLike = int | np.random.Generator | np.random.SeedSequence | None

_U64 = np.uint64
_SHIFT_30 = _U64(30)
_SHIFT_27 = _U64(27)
_SHIFT_31 = _U64(31)
_SHIFT_11 = _U64(11)
_GAMMA = _U64(0x9E3779B97F4A7C15)
_MIX_1 = _U64(0xBF58476D1CE4E5B9)
_MIX_2 = _U64(0x94D049BB133111EB)
_INV_2_53 = 2.0**-53


def splitmix64_mix(state: np.ndarray) -> np.ndarray:
    """SplitMix64 output mix over a ``uint64`` array, **in place**.

    The xor-shift/multiply cascade runs with ``out=`` targets so a whole
    counter block costs one scratch buffer regardless of size — the
    block-PRF primitive the indexed engine's hot path hashes tiles with.
    Bit-identical to the scalar SplitMix64 finaliser.
    """
    scratch = state >> _SHIFT_30
    state ^= scratch
    np.multiply(state, _MIX_1, out=state)
    np.right_shift(state, _SHIFT_27, out=scratch)
    state ^= scratch
    np.multiply(state, _MIX_2, out=state)
    np.right_shift(state, _SHIFT_31, out=scratch)
    state ^= scratch
    return state


def hashed_mantissas(key: np.uint64, counters: np.ndarray) -> np.ndarray:
    """The 53-bit integer lattice points behind :func:`hashed_uniforms`.

    ``hashed_uniforms(key, c) == hashed_mantissas(key, c) * 2**-53``
    exactly.  Hot paths that only need to *compare* a uniform against a
    probability can lift the probability to the lattice
    (``floor(p * 2**53)``) once and compare in ``uint64``, skipping the
    float conversion entirely.
    """
    return hashed_mantissas_inplace(key, np.array(counters, dtype=_U64))


def hashed_mantissas_inplace(key: np.uint64, counters: np.ndarray) -> np.ndarray:
    """:func:`hashed_mantissas` mutating *counters* (a ``uint64`` array).

    The one authoritative PRF pipeline — every other hashing surface in
    this module routes through it.  For hot paths that build a throwaway
    counter buffer anyway, hashing in place saves one allocation pass
    per call.
    """
    counters *= _GAMMA
    counters += key
    splitmix64_mix(counters)
    counters >>= _SHIFT_11
    return counters


def _to_uniforms(mantissas: np.ndarray) -> np.ndarray:
    """Lattice points to doubles in ``[0, 1)`` (mantissa * 2^-53)."""
    out = mantissas.astype(np.float64)
    out *= _INV_2_53
    return out


def hashed_uniforms(key: np.uint64, counters: np.ndarray) -> np.ndarray:
    """Uniforms in ``[0, 1)`` at the given 64-bit counters (vectorised).

    Evaluates the SplitMix64 output function at state
    ``key + counter * gamma``: counter ``c`` under stream *key* always
    yields the same double, independent of every other draw.  The top 53
    mixed bits become the mantissa, matching how
    :meth:`numpy.random.Generator.random` builds doubles.
    """
    return _to_uniforms(hashed_mantissas(key, counters))


def hashed_uniform_tile(
    key: np.uint64, row_bases: np.ndarray, col_counters: np.ndarray
) -> np.ndarray:
    """``(R, C)`` uniforms for every ``row_base + col_counter`` pair.

    One outer sum plus one in-place mix hashes the whole
    ``(world, entity)`` tile per numpy call — the bulk surface the
    streaming monitor scans invalidation candidates with (rows are
    per-world counter bases, columns per-entity counters).
    """
    rows = np.asarray(row_bases, dtype=_U64)
    cols = np.asarray(col_counters, dtype=_U64)
    tile = rows[:, None] + cols[None, :]
    return _to_uniforms(hashed_mantissas_inplace(key, tile))


def derive_stream_key(seed: SeedLike) -> np.uint64:
    """Deterministically map a ``seed`` argument to a 64-bit stream key.

    Integers and :class:`~numpy.random.SeedSequence` instances map to a
    fixed key (reproducible runs); a :class:`~numpy.random.Generator`
    draws one word from its stream (caller-managed randomness); ``None``
    takes fresh OS entropy.
    """
    if isinstance(seed, np.random.Generator):
        return _U64(seed.integers(0, 2**64, dtype=np.uint64))
    if isinstance(seed, np.random.SeedSequence):
        sequence = seed
    else:
        sequence = np.random.SeedSequence(seed)
    return _U64(sequence.generate_state(1, np.uint64)[0])


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Coerce *seed* into a :class:`numpy.random.Generator`.

    Passing an existing generator returns it unchanged, so callers can
    thread one stream through a whole experiment.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: SeedLike, count: int) -> list[np.random.Generator]:
    """Derive *count* statistically independent child generators.

    Uses :class:`numpy.random.SeedSequence` spawning so children never
    overlap, no matter how many draws each consumes.  Handy for running
    the five detection algorithms on identical graphs but independent
    randomness.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.SeedSequence):
        sequence = seed
    elif isinstance(seed, np.random.Generator):
        sequence = seed.bit_generator.seed_seq  # type: ignore[attr-defined]
    else:
        sequence = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in sequence.spawn(count)]
