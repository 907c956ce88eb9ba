"""Monte-Carlo sampling engines and sample-size theory (paper Section 3)."""

from repro.sampling.estimators import (
    ProbabilityInterval,
    hoeffding_interval,
    wilson_interval,
)
from repro.sampling.forward import ForwardEstimate, ForwardSampler
from repro.sampling.indexed import (
    ExploredBlock,
    IndexedReverseSampler,
    derive_stream_key,
    hashed_uniforms,
)
from repro.sampling.rng import SeedLike, make_rng, spawn_rngs
from repro.sampling.sample_size import (
    basic_sample_size,
    epsilon_for_sample_size,
    hoeffding_pair_tail,
    reduced_sample_size,
    validate_epsilon_delta,
)

__all__ = [
    "ProbabilityInterval",
    "hoeffding_interval",
    "wilson_interval",
    "ForwardEstimate",
    "ForwardSampler",
    "IndexedReverseSampler",
    "ExploredBlock",
    "derive_stream_key",
    "hashed_uniforms",
    "SeedLike",
    "make_rng",
    "spawn_rngs",
    "basic_sample_size",
    "epsilon_for_sample_size",
    "hoeffding_pair_tail",
    "reduced_sample_size",
    "validate_epsilon_delta",
]
