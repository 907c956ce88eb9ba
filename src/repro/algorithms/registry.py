"""Name-based construction of the five evaluated detectors.

The experiment harness refers to methods by the paper's labels
("N", "SN", "SR", "BSR", "BSRBK"); this registry turns a label plus
keyword overrides into a configured detector instance.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.algorithms.base import VulnerableNodeDetector
from repro.algorithms.bsr import BoundedSampleReverseDetector
from repro.algorithms.bsrbk import BottomKDetector
from repro.algorithms.naive import NaiveDetector
from repro.algorithms.sn import SampledNaiveDetector
from repro.algorithms.sr import SampleReverseDetector
from repro.core.errors import ExperimentError

__all__ = ["ALL_METHODS", "make_detector", "detector_class"]

#: Method labels in the paper's presentation order.
ALL_METHODS: tuple[str, ...] = ("N", "SN", "SR", "BSR", "BSRBK")

_REGISTRY: dict[str, Callable[..., VulnerableNodeDetector]] = {
    "N": NaiveDetector,
    "SN": SampledNaiveDetector,
    "SR": SampleReverseDetector,
    "BSR": BoundedSampleReverseDetector,
    "BSRBK": BottomKDetector,
}

#: Constructor keywords each method accepts (used to filter shared configs).
_ACCEPTED_KEYWORDS: dict[str, frozenset[str]] = {
    "N": frozenset({"samples", "seed", "batch_size"}),
    "SN": frozenset({"epsilon", "delta", "seed", "batch_size"}),
    "SR": frozenset({"epsilon", "delta", "bound_order", "seed"}),
    "BSR": frozenset({"epsilon", "delta", "lower_order", "upper_order", "seed"}),
    "BSRBK": frozenset(
        {"bk", "epsilon", "delta", "lower_order", "upper_order", "seed"}
    ),
}


def detector_class(name: str) -> Callable[..., VulnerableNodeDetector]:
    """The detector class registered under *name*."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ExperimentError(
            f"unknown method {name!r}; known methods: {sorted(_REGISTRY)}"
        ) from None


def make_detector(
    name: str, strict: bool = False, **kwargs: Any
) -> VulnerableNodeDetector:
    """Instantiate the method *name* with keyword overrides.

    Parameters
    ----------
    name:
        One of :data:`ALL_METHODS`.
    strict:
        When ``False`` (default) keywords the method does not accept are
        silently dropped, which lets experiment configs pass one shared
        parameter dict to every method.  When ``True`` unknown keywords
        raise.
    kwargs:
        Constructor arguments for the method.
    """
    cls = detector_class(name)
    accepted = _ACCEPTED_KEYWORDS[name]
    unknown = set(kwargs) - accepted
    if unknown and strict:
        raise ExperimentError(
            f"method {name!r} does not accept keyword(s) {sorted(unknown)}"
        )
    filtered = {key: value for key, value in kwargs.items() if key in accepted}
    return cls(**filtered)
