"""Array helpers shared by layers that cannot import one another.

A leaf module: it imports nothing from ``repro``, so the storage layer
and the sampler can both use it.
"""

from __future__ import annotations

import numpy as np


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-D array by sort and mask; sorts *values* in
    place.  At the sizes one mini-batch has (a hop's draws, a batch's
    records or pages), ``np.unique``'s own overhead (a hash set in
    recent NumPy) costs more than the sort."""
    values.sort()
    if len(values) < 2:
        return values
    head = np.empty(len(values), dtype=bool)
    head[0] = True
    np.not_equal(values[1:], values[:-1], out=head[1:])
    return values[head]
