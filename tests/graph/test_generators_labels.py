"""Tests for graph generators and planted labels."""

import numpy as np
import pytest

from repro.graph import (
    csc_from_edges,
    planted_partition_edges,
    planted_features_and_labels,
)
from repro.graph.labels import train_val_test_split


def test_planted_partition_homophily():
    rng = np.random.default_rng(0)
    src, dst, comm = planted_partition_edges(2000, 20000, 8, rng,
                                             homophily=0.9)
    same = (comm[src] == comm[dst]).mean()
    assert same > 0.8  # most edges within community
    src2, dst2, comm2 = planted_partition_edges(2000, 20000, 8, rng,
                                                homophily=0.0)
    same2 = (comm2[src2] == comm2[dst2]).mean()
    assert same2 < 0.3


def test_planted_partition_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        planted_partition_edges(10, 10, 3, rng, homophily=1.5)
    with pytest.raises(ValueError):
        planted_partition_edges(10, 10, 0, rng)
    with pytest.raises(ValueError):
        planted_partition_edges(10, 10, 11, rng)


def test_features_cluster_around_centroids():
    rng = np.random.default_rng(0)
    comm = rng.integers(0, 4, size=500)
    feats, labels = planted_features_and_labels(comm, dim=16, rng=rng,
                                                noise=0.1)
    assert feats.shape == (500, 16)
    assert feats.dtype == np.float32
    assert np.array_equal(labels, comm)
    # With tiny noise, same-class features are nearly identical.
    c0 = feats[comm == 0]
    spread = np.linalg.norm(c0 - c0.mean(axis=0), axis=1).mean()
    assert spread < 0.2


def test_features_noise_monotone():
    rng1 = np.random.default_rng(0)
    comm = rng1.integers(0, 4, size=500)
    f_lo, _ = planted_features_and_labels(comm, 16, np.random.default_rng(1), noise=0.1)
    f_hi, _ = planted_features_and_labels(comm, 16, np.random.default_rng(1), noise=2.0)

    def within_class_spread(f):
        return np.mean([
            np.linalg.norm(f[comm == c] - f[comm == c].mean(0), axis=1).mean()
            for c in range(4)
        ])

    assert within_class_spread(f_hi) > within_class_spread(f_lo)


def test_features_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        planted_features_and_labels(np.array([0]), dim=0, rng=rng)
    with pytest.raises(ValueError):
        planted_features_and_labels(np.array([0]), dim=4, rng=rng, noise=-1)


def test_split_disjoint_and_sized():
    rng = np.random.default_rng(0)
    tr, va, te = train_val_test_split(10_000, rng, train_frac=0.01)
    assert len(tr) == 100
    assert len(set(tr) & set(va)) == 0
    assert len(set(tr) & set(te)) == 0
    assert len(set(va) & set(te)) == 0
    assert np.all(np.diff(tr) > 0)  # sorted


def test_split_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        train_val_test_split(100, rng, train_frac=0.9, val_frac=0.2)
