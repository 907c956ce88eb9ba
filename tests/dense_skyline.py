"""The pairwise skyline kernel, kept as the test oracle.

:func:`repro.queries.skyline.skyline_mask` must return exactly the mask
this all-pairs comparison does; ``test_queries.py`` and
``test_calibrated_answers.py`` drive both side by side.
"""

from __future__ import annotations

import numpy as np


def dense_skyline_mask(coordinates: np.ndarray) -> np.ndarray:
    """Boolean mask of the rows no other row dominates, by brute force.

    Row ``u`` dominates row ``v`` when ``u >= v`` on every column and
    ``u > v`` on at least one.  Every row is tested against every other
    row at once, in ``(n, n, dims)`` boolean buffers, so keep ``n`` to a
    few thousand.
    """
    coordinates = np.asarray(coordinates, dtype=np.float64)
    above = coordinates[:, None, :]
    below = coordinates[None, :, :]
    dominates = (above >= below).all(axis=2) & (above > below).any(axis=2)
    return ~dominates.any(axis=0)
