"""Tests for staging buffer, config validation, and sampling I/O helper."""

import numpy as np
import pytest

from repro.core import GNNDriveConfig, StagingBuffer
from repro.core.base import TrainConfig, scaled_default_fanouts, activation_bytes
from repro.core.config import EXTRACT_QUEUE_DEPTH, TRAIN_QUEUE_DEPTH
from repro.core.sampling_io import frontier_pages
from repro.errors import ConfigError, OutOfMemoryError
from repro.graph import make_dataset
from repro.memory import HostMemory
from repro.storage.page_cache import PageCache
from repro.storage import SSDDevice, SSDSpec
from repro.simcore import Simulator


def test_staging_capacity_formula():
    host = HostMemory(1 << 22)
    s = StagingBuffer(host, num_extractors=4, max_batch_nodes=100, io_size=512)
    assert s.capacity == 4 * 100 * 512
    assert host.usage_by_tag()["staging"] == s.capacity
    s.close()
    assert host.pinned_bytes == 0


def test_staging_reserve_free_cycle():
    host = HostMemory(1 << 22)
    s = StagingBuffer(host, 2, 100, 512)
    got = s.reserve(50)
    assert got == 50 * 512
    assert s.in_use == got
    s.free(50)
    assert s.in_use == 0
    with pytest.raises(ValueError):
        s.free(1)


def test_staging_overflow_raises():
    host = HostMemory(1 << 22)
    s = StagingBuffer(host, 1, 10, 512)
    s.reserve(10)
    with pytest.raises(OutOfMemoryError):
        s.reserve(1)


def test_staging_portions_allow_borrowing():
    host = HostMemory(1 << 22)
    s = StagingBuffer(host, 2, 100, 512, num_portions=2)
    # Portion 0 overflows its half but the total still fits (borrowing).
    s.reserve(150, portion=0)
    s.reserve(50, portion=1)
    assert s.in_use == 200 * 512
    with pytest.raises(OutOfMemoryError):
        s.reserve(1, portion=1)


def test_staging_validation():
    host = HostMemory(1 << 22)
    with pytest.raises(ValueError):
        StagingBuffer(host, 0, 1, 1)
    with pytest.raises(ValueError):
        StagingBuffer(host, 1, 1, 1, num_portions=0)


def test_staging_oom_on_tiny_host():
    host = HostMemory(1024)
    with pytest.raises(OutOfMemoryError):
        StagingBuffer(host, 4, 1000, 512)


# ----------------------------------------------------------------------
def test_config_defaults_match_paper():
    cfg = GNNDriveConfig()
    assert cfg.num_samplers == 4
    assert cfg.num_extractors == 4
    assert EXTRACT_QUEUE_DEPTH == 6
    assert TRAIN_QUEUE_DEPTH == 4
    assert cfg.direct_io


@pytest.mark.parametrize("kw", [
    (GNNDriveConfig, "num_samplers", dict(num_samplers=0)),
    (GNNDriveConfig, "num_extractors", dict(num_extractors=0)),
    (GNNDriveConfig, "device", dict(device="tpu")),
    (GNNDriveConfig, "feature_buffer_scale", dict(feature_buffer_scale=0.5)),
    (GNNDriveConfig, "feature_buffer_scale",
     dict(feature_buffer_scale=float("nan"))),
    (GNNDriveConfig, "feature_buffer_scale",
     dict(feature_buffer_scale=float("inf"))),
    (GNNDriveConfig, "io_depth", dict(io_depth=0)),
    (GNNDriveConfig, "gpu_direct", dict(gpu_direct=True, device="cpu")),
    (TrainConfig, "batch_size", dict(batch_size=0)),
    (TrainConfig, "num_layers", dict(num_layers=0)),
    (TrainConfig, "model_kind", dict(model_kind="foo")),
    (TrainConfig, "fanouts", dict(fanouts=(3, 0, 3))),
])
def test_config_validation(kw):
    """Every invalid value fails at construction, naming its field."""
    cls, field, values = kw
    with pytest.raises(ConfigError, match=field):
        cls(**values)


def test_config_with_():
    cfg = GNNDriveConfig().with_(device="cpu", io_depth=8)
    assert cfg.device == "cpu" and cfg.io_depth == 8


def test_train_config_fanouts():
    assert TrainConfig(model_kind="gat").resolved_fanouts() == (3, 3, 2)
    assert TrainConfig(model_kind="sage").resolved_fanouts() == (3, 3, 3)
    assert TrainConfig(fanouts=(2, 2)).resolved_fanouts() == (2, 2)
    assert scaled_default_fanouts("gcn") == (3, 3, 3)


def test_activation_bytes_positive_and_monotone():
    ds = make_dataset("tiny", seed=0)
    from repro.sampling import NeighborSampler
    s = NeighborSampler(ds.graph, (3, 3), np.random.default_rng(0))
    small = s.sample(ds.train_idx[:5])
    big = s.sample(ds.train_idx[:50])
    dims = [ds.dim, 64, ds.num_classes]
    assert 0 < activation_bytes(small, dims) < activation_bytes(big, dims)


# ----------------------------------------------------------------------
def test_frontier_pages_cover_adjacency_runs():
    ds = make_dataset("tiny", seed=0)
    sim = Simulator()
    host = HostMemory(1 << 24)
    dev = SSDDevice(sim, SSDSpec(1e-5, 1e8, 4))
    cache = PageCache(sim, host, dev)
    nodes = ds.train_idx[:20]
    pages = frontier_pages(cache, ds.graph, nodes)
    # Every node's span must be covered.
    indptr = ds.graph.indptr
    for start, end in zip(indptr[nodes] * 8, indptr[nodes + 1] * 8):
        if end > start:
            assert start // 4096 in pages
            assert (end - 1) // 4096 in pages
    # Degree-0 frontier -> no pages.
    iso = np.array([int(np.argmin(ds.graph.in_degree()))])
    if ds.graph.in_degree(iso)[0] == 0:
        assert len(frontier_pages(cache, ds.graph, iso)) == 0
    assert len(frontier_pages(cache, ds.graph, np.array([], dtype=np.int64))) == 0
