"""Planted features and labels that a GNN can actually learn.

Each node's class is its planted community; its feature vector is the
community centroid plus isotropic noise.  With homophilous edges, both the
node's own feature *and* its aggregated neighborhood point at the class,
so GraphSAGE/GCN/GAT converge the way Fig. 14's time-to-accuracy curves
require.  Noise is tuned so single-feature accuracy is imperfect and
aggregation visibly helps.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: Bytes of float64 noise drawn per block of feature rows.
BLOCK_BYTES = 256 * 1024


def planted_features_and_labels(
    communities: np.ndarray,
    dim: int,
    rng: np.random.Generator,
    noise: float = 1.3,
    dtype=np.float32,
) -> Tuple[np.ndarray, np.ndarray]:
    """Features = centroid[class] + noise; labels = class.

    Parameters
    ----------
    communities:
        Planted class per node (from the generator).
    dim:
        Feature dimensionality (the paper sweeps 64..768).
    noise:
        Std-dev of the additive Gaussian noise relative to unit-norm
        centroids.  ~1.3 gives mid-50s% single-node accuracy for ~170
        classes, matching the paper's Papers100M target (~56%).

    Returns
    -------
    (features, labels):
        ``features`` is float32 ``(n, dim)``; ``labels`` is int64 ``(n,)``.
    """
    communities = np.asarray(communities, dtype=np.int64)
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if noise < 0:
        raise ValueError("noise must be non-negative")
    num_classes = int(communities.max()) + 1 if len(communities) else 0
    centroids = rng.standard_normal((num_classes, dim))
    centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)
    # Fill the table a block of rows at a time, so the float64 noise never
    # exists for the whole table at once.  The draws, the two roundings
    # (times noise, then over sqrt(dim)), the add and the cast to *dtype*
    # are per element those of one whole-table expression; see
    # docs/architecture.md §3.4 before changing any of them.
    n = len(communities)
    feats = np.empty((n, dim), dtype=dtype)
    rows = max(1, BLOCK_BYTES // (8 * dim))
    buf = np.empty((min(rows, n), dim))
    scale = np.sqrt(dim)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        block = buf[:hi - lo]
        rng.standard_normal(out=block)
        block *= noise
        block /= scale
        block += centroids[communities[lo:hi]]
        feats[lo:hi] = block
    return feats, communities.copy()


def train_val_test_split(
    num_nodes: int,
    rng: np.random.Generator,
    train_frac: float = 0.01,
    val_frac: float = 0.002,
    test_frac: float = 0.002,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random disjoint node splits; fractions follow OGB-style ratios
    (Papers100M trains on ~1.1% of nodes)."""
    total = train_frac + val_frac + test_frac
    if total > 1.0:
        raise ValueError("split fractions exceed 1")
    perm = rng.permutation(num_nodes)
    n_tr = max(1, int(num_nodes * train_frac))
    n_va = max(1, int(num_nodes * val_frac))
    n_te = max(1, int(num_nodes * test_frac))
    return (np.sort(perm[:n_tr]),
            np.sort(perm[n_tr:n_tr + n_va]),
            np.sort(perm[n_tr + n_va:n_tr + n_va + n_te]))
