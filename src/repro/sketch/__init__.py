"""Bottom-k sketches and the BSRBK early-stopping rule (paper §2.2, §3.3)."""

from repro.sketch.bottom_k import (
    BottomKSketch,
    coefficient_of_variation,
    expected_relative_error,
)

__all__ = [
    "BottomKSketch",
    "coefficient_of_variation",
    "expected_relative_error",
]
