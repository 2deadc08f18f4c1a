"""Tests for the dataset registry, mounting, and partitioning."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.graph import (
    DATASET_REGISTRY,
    DatasetSpec,
    edge_buckets,
    make_dataset,
    paper_table1,
    partition_nodes,
)
from repro.graph import datasets
from repro.graph.partition import buffer_order, pairs_covered
from repro.storage import FileCatalog


def test_registry_contains_all_table1_datasets():
    for name in ("papers100m-mini", "twitter-mini", "friendster-mini",
                 "mag240m-mini"):
        assert name in DATASET_REGISTRY
    assert DATASET_REGISTRY["mag240m-mini"].dim == 768
    assert DATASET_REGISTRY["papers100m-mini"].num_classes == 172


def test_make_tiny_dataset():
    ds = make_dataset("tiny", seed=0)
    assert ds.num_nodes == 2000
    assert ds.dim == 32
    assert ds.features.features.shape == (2000, 32)
    assert len(ds.labels) == 2000
    assert len(ds.train_idx) == 100  # 5% of 2000
    assert ds.labels.max() < ds.num_classes


def test_make_dataset_dim_override_and_scale():
    ds = make_dataset("tiny", seed=0, dim=8, scale=0.5)
    assert ds.dim == 8
    assert ds.num_nodes == 1000


def _no_generation(*args, **kwargs):
    raise AssertionError("generation started before validation")


@pytest.mark.parametrize("scale", [0.0, -3, float("nan"), float("inf"),
                                   float("-inf")])
def test_make_dataset_rejects_invalid_scale(scale, monkeypatch):
    monkeypatch.setattr(datasets, "planted_partition_keys", _no_generation)
    with pytest.raises(ConfigError, match="scale"):
        make_dataset("tiny", scale=scale)


def test_make_dataset_rejects_a_negative_seed(monkeypatch):
    monkeypatch.setattr(datasets, "planted_partition_keys", _no_generation)
    with pytest.raises(ConfigError, match="^seed must be >= 0, got -1$"):
        make_dataset("tiny", seed=-1)


@pytest.mark.parametrize("dim", [0, -1])
def test_make_dataset_rejects_invalid_dim(dim, monkeypatch):
    monkeypatch.setattr(datasets, "planted_partition_keys", _no_generation)
    with pytest.raises(ConfigError, match="dim"):
        make_dataset("tiny", dim=dim)


@pytest.mark.parametrize("field,value", [
    ("num_classes", 0),
    ("num_classes", 2001),
    ("homophily", -0.1),
    ("homophily", 1.5),
    ("homophily", float("nan")),
    ("noise", -1.0),
    ("noise", float("nan")),
    ("train_frac", 0.0),
    ("train_frac", 1.0),
    ("train_frac", float("nan")),
])
def test_dataset_spec_rejects_impossible_fields(field, value, monkeypatch):
    monkeypatch.setattr(datasets, "planted_partition_keys", _no_generation)
    fields = dict(name="t", num_nodes=2000, num_edges=20_000, dim=32,
                  num_classes=8)
    fields[field] = value
    with pytest.raises(ConfigError, match=field):
        make_dataset(DatasetSpec(**fields))


@pytest.mark.parametrize("name,scale", [
    ("papers100m-mini", 1e-4),
    ("papers100m-mini", 1e-3),   # 111 nodes for 172 classes
    ("mag240m-mini", 1e-4),
])
def test_scaling_below_the_class_count_names_field_and_scale(
        name, scale, monkeypatch):
    monkeypatch.setattr(datasets, "planted_partition_keys", _no_generation)
    with pytest.raises(ConfigError,
                       match=f"{name} at scale {scale!r}: num_classes"):
        make_dataset(name, scale=scale)
    with pytest.raises(ConfigError, match="num_classes"):
        DATASET_REGISTRY[name].scaled(scale)


def test_small_positive_scale_keeps_size_floor():
    spec = DATASET_REGISTRY["tiny"].scaled(1e-6)
    assert (spec.num_nodes, spec.num_edges) == (64, 256)
    assert make_dataset("tiny", scale=1e-6).num_nodes == 64


def test_make_dataset_unknown_name():
    with pytest.raises(KeyError, match="unknown dataset"):
        make_dataset("nope")


def test_dataset_deterministic_per_seed():
    a = make_dataset("tiny", seed=3)
    b = make_dataset("tiny", seed=3)
    assert np.array_equal(a.graph.indices, b.graph.indices)
    assert np.array_equal(a.features.features, b.features.features)
    c = make_dataset("tiny", seed=4)
    assert not np.array_equal(a.features.features, c.features.features)


def test_mount_registers_files():
    ds = make_dataset("tiny", seed=0)
    cat = FileCatalog()
    ds.mount(cat)
    assert ds.topo_handle is not None and ds.feat_handle is not None
    assert cat.get("tiny.indices").nbytes == ds.topo_nbytes()
    assert cat.get("tiny.features").nbytes == ds.feat_nbytes()
    assert ds.feat_handle.record_nbytes == 32 * 4


def test_summary_row_and_paper_table():
    ds = make_dataset("tiny", seed=0)
    row = ds.summary_row()
    assert row["dataset"] == "tiny"
    assert row["total_mb"] == pytest.approx(
        row["topo_mb"] + row["feat_mb"], abs=0.2)
    table = paper_table1()
    assert table["papers100m"]["feat_gb"] == 53
    assert table["mag240m"]["dim"] == 768


def test_homophily_in_generated_dataset():
    ds = make_dataset("tiny", seed=0)
    g, labels = ds.graph, ds.labels
    # Sample nodes and check in-neighbor label agreement beats chance.
    rng = np.random.default_rng(0)
    nodes = rng.integers(0, g.num_nodes, 200)
    agree, total = 0, 0
    for v in nodes:
        nb = g.neighbors(v)
        agree += int((labels[nb] == labels[v]).sum())
        total += len(nb)
    assert total > 0
    assert agree / total > 2.0 / ds.num_classes + 0.3


def test_partition_nodes_balanced():
    part = partition_nodes(100, 4)
    counts = np.bincount(part)
    assert len(counts) == 4
    assert counts.max() - counts.min() <= 1
    with pytest.raises(ValueError):
        partition_nodes(10, 0)
    with pytest.raises(ValueError):
        partition_nodes(10, 11)


def test_edge_buckets_sum_to_edge_count():
    ds = make_dataset("tiny", seed=0)
    part = partition_nodes(ds.num_nodes, 4)
    counts = edge_buckets(ds.graph, part, 4)
    assert counts.sum() == ds.num_edges
    with pytest.raises(ValueError):
        edge_buckets(ds.graph, part[:-1], 4)


@pytest.mark.parametrize("P,B", [(4, 2), (6, 3), (8, 4), (5, 2), (10, 3), (3, 3)])
def test_buffer_order_covers_all_pairs(P, B):
    states = buffer_order(P, B)
    covered = pairs_covered(states)
    expected = {(i, j) for i in range(P) for j in range(i, P)}
    assert covered >= expected
    # Each state fits the buffer.
    assert all(len(set(s)) <= B for s in states)


def test_buffer_order_single_swap_between_rotation_states():
    states = buffer_order(6, 3)
    for prev, cur in zip(states, states[1:]):
        swapped_in = set(cur) - set(prev)
        assert len(swapped_in) <= 3  # rotations swap 1; block moves swap <= B


def test_buffer_order_validation():
    with pytest.raises(ValueError):
        buffer_order(4, 0)
    with pytest.raises(ValueError):
        buffer_order(4, 5)
    with pytest.raises(ValueError):
        buffer_order(4, 1)
    assert buffer_order(1, 1) == [[0]]
