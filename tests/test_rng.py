"""Tests for repro.sampling.rng — generator plumbing."""

from __future__ import annotations

import numpy as np
import pytest
from reference_sampler import RandomBlock

from repro.sampling.rng import make_rng, spawn_rngs


class TestMakeRng:
    def test_none_gives_generator(self):
        assert isinstance(make_rng(None), np.random.Generator)

    def test_int_seed_reproducible(self):
        assert make_rng(42).random() == make_rng(42).random()

    def test_different_seeds_differ(self):
        assert make_rng(1).random() != make_rng(2).random()

    def test_generator_passes_through(self):
        rng = np.random.default_rng(0)
        assert make_rng(rng) is rng

    def test_seed_sequence_accepted(self):
        sequence = np.random.SeedSequence(7)
        a = make_rng(sequence).random()
        b = make_rng(np.random.SeedSequence(7)).random()
        assert a == b


class TestSpawnRngs:
    def test_count(self):
        assert len(spawn_rngs(0, 5)) == 5
        assert spawn_rngs(0, 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_children_reproducible(self):
        first = [rng.random() for rng in spawn_rngs(3, 4)]
        second = [rng.random() for rng in spawn_rngs(3, 4)]
        assert first == second

    def test_children_mutually_distinct(self):
        draws = [rng.random() for rng in spawn_rngs(3, 8)]
        assert len(set(draws)) == 8

    def test_spawn_from_generator(self):
        rng = np.random.default_rng(5)
        children = spawn_rngs(rng, 2)
        assert len(children) == 2
        assert children[0].random() != children[1].random()


class TestRandomBlock:
    """The chunked stream the Algorithm-5 oracle draws through."""

    def test_scalar_draws_match_generator_stream(self):
        """Block consumption is bit-identical to scalar rng.random() calls."""
        block = RandomBlock(make_rng(0), chunk=8)
        reference = make_rng(0)
        for _ in range(25):  # crosses multiple refills
            assert block.next() == reference.random()

    def test_take_matches_generator_stream(self):
        block = RandomBlock(make_rng(3), chunk=8)
        reference = make_rng(3)
        # Mixed scalar/vector consumption, including takes larger than
        # the chunk, must reproduce the raw stream exactly.
        drawn = [block.next(), block.next()]
        drawn.extend(block.take(5))
        drawn.extend(block.take(20))
        drawn.append(block.next())
        expected = [reference.random() for _ in range(len(drawn))]
        assert np.array_equal(np.asarray(drawn), np.asarray(expected))

    def test_take_zero(self):
        block = RandomBlock(make_rng(0))
        assert block.take(0).size == 0

    def test_take_returns_fresh_arrays(self):
        block = RandomBlock(make_rng(0), chunk=16)
        first = block.take(4)
        second = block.take(4)
        first[:] = -1.0  # must not corrupt later draws
        assert np.all(second >= 0.0)
        assert np.all(block.take(4) >= 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomBlock(make_rng(0), chunk=0)
        with pytest.raises(ValueError):
            RandomBlock(make_rng(0)).take(-1)

    def test_remaining(self):
        block = RandomBlock(make_rng(0), chunk=10)
        assert block.remaining == 0
        block.next()
        assert block.remaining == 9
        block.take(4)
        assert block.remaining == 5


class TestCounterPRF:
    """The SplitMix64 counter-PRF primitives agree with one another."""

    def test_mantissas_variants_and_uniforms_agree(self):
        from repro.sampling.rng import (
            hashed_mantissas,
            hashed_mantissas_inplace,
            hashed_uniforms,
        )

        key = np.uint64(0x9E3779B97F4A7C15)
        counters = np.arange(4096, dtype=np.uint64) * np.uint64(977) + key
        mantissas = hashed_mantissas(key, counters.copy())
        inplace = hashed_mantissas_inplace(key, counters.copy())
        uniforms = hashed_uniforms(key, counters.copy())
        assert np.array_equal(mantissas, inplace)
        # The documented contract: uniforms == mantissas * 2**-53 exactly.
        assert np.array_equal(uniforms, mantissas.astype(np.float64) * 2.0**-53)
        assert ((uniforms >= 0.0) & (uniforms < 1.0)).all()

    def test_tile_matches_elementwise_hashing(self):
        from repro.sampling.rng import hashed_uniform_tile, hashed_uniforms

        key = np.uint64(1234567891011)
        rows = np.array([0, 3, 2**63], dtype=np.uint64)
        cols = np.array([0, 1, 41, 2**62], dtype=np.uint64)
        tile = hashed_uniform_tile(key, rows, cols)
        for i, row in enumerate(rows):
            expected = hashed_uniforms(key, row + cols)
            assert np.array_equal(tile[i], expected)
