"""Tests for the OS page cache model."""

import numpy as np
import pytest

from repro.memory import HostMemory
from repro.simcore import Simulator
from repro.storage import FileCatalog, PageCache, SSDDevice, SSDSpec
from repro.storage.spec import PAGE_SIZE


def make_env(host_capacity=1 << 20, channels=4, latency=0.0, bw=1e6):
    sim = Simulator()
    dev = SSDDevice(sim, SSDSpec(read_latency=latency,
                                 channel_bandwidth=bw, channels=channels))
    host = HostMemory(capacity=host_capacity)
    cache = PageCache(sim, host, dev)
    cat = FileCatalog()
    return sim, dev, host, cache, cat


def test_miss_then_hit():
    sim, dev, host, cache, cat = make_env()
    fh = cat.create("f", nbytes=1 << 19)

    def proc(sim):
        hits, misses = yield cache.access(fh, np.array([0, 1, 2]))
        t_miss = sim.now
        h2, m2 = yield cache.access(fh, np.array([0, 1, 2]))
        return (hits, misses, h2, m2, t_miss, sim.now)

    hits, misses, h2, m2, t_miss, t_hit = sim.run_process(proc(sim))
    assert (hits, misses) == (0, 3)
    assert (h2, m2) == (3, 0)
    assert t_hit - t_miss < t_miss  # hits are near-free


def test_capacity_tracks_free_host_memory():
    sim, dev, host, cache, cat = make_env(host_capacity=10 * PAGE_SIZE)
    assert cache.capacity_pages == 10
    alloc = host.allocate(4 * PAGE_SIZE)
    assert cache.capacity_pages == 6
    host.free(alloc)
    assert cache.capacity_pages == 10


def test_pinned_allocation_evicts_lru_pages():
    sim, dev, host, cache, cat = make_env(host_capacity=10 * PAGE_SIZE)
    fh = cat.create("f", nbytes=1 << 19)
    cache.warm(fh, np.arange(10))
    assert cache.resident_pages == 10
    host.allocate(5 * PAGE_SIZE)
    assert cache.resident_pages == 5
    # LRU order: oldest pages (0..4) evicted, newest retained.
    assert not cache.contains("f", 0)
    assert cache.contains("f", 9)


def test_lru_refresh_on_hit():
    sim, dev, host, cache, cat = make_env(host_capacity=3 * PAGE_SIZE)
    fh = cat.create("f", nbytes=1 << 19)

    def proc(sim):
        yield cache.access(fh, np.array([0, 1, 2]))
        yield cache.access(fh, np.array([0]))      # refresh page 0
        yield cache.access(fh, np.array([3]))      # evicts LRU = page 1
        return None

    sim.run_process(proc(sim))
    assert cache.contains("f", 0)
    assert not cache.contains("f", 1)
    assert cache.contains("f", 3)


def test_two_files_compete_for_cache():
    """The memory-contention mechanism behind Figure 2."""
    sim, dev, host, cache, cat = make_env(host_capacity=8 * PAGE_SIZE)
    topo = cat.create("topo", nbytes=1 << 19)
    feat = cat.create("feat", nbytes=1 << 19)

    def proc(sim):
        yield cache.access(topo, np.arange(6))
        # Feature flood evicts topology pages.
        yield cache.access(feat, np.arange(8))
        return None

    sim.run_process(proc(sim))
    assert not any(cache.contains("topo", p) for p in range(6))


def test_eviction_counter():
    sim, dev, host, cache, cat = make_env(host_capacity=2 * PAGE_SIZE)
    fh = cat.create("f", nbytes=1 << 19)

    def proc(sim):
        yield cache.access(fh, np.arange(5))
        return None

    sim.run_process(proc(sim))
    assert cache.evictions == 3
    assert cache.resident_pages == 2


def test_miss_time_scales_with_device():
    sim, dev, host, cache, cat = make_env(latency=0.0, bw=1e6, channels=1)
    fh = cat.create("f", nbytes=1 << 19)

    def proc(sim):
        yield cache.access(fh, np.array([0, 1]))
        return sim.now

    # Two 4096 B page reads on one 1 MB/s channel: ~8.2 ms.
    t = sim.run_process(proc(sim))
    assert t == pytest.approx(2 * PAGE_SIZE / 1e6, rel=0.01)


def test_pages_for_records_spanning_boundaries():
    sim, dev, host, cache, cat = make_env()
    data = np.zeros((100, 640), dtype=np.uint8)  # 640 B records
    fh = cat.create("f", data=data)
    # Record 6 occupies bytes [3840, 4480): spans pages 0 and 1.
    pages = cache.pages_for_records(fh, np.array([6]))
    assert list(pages) == [0, 1]
    # Records 0 and 6: pages {0, 1}.
    pages = cache.pages_for_records(fh, np.array([0, 6]))
    assert list(pages) == [0, 1]


def test_pages_for_range():
    sim, dev, host, cache, cat = make_env()
    assert list(cache.pages_for_range(0, 1)) == [0]
    assert list(cache.pages_for_range(PAGE_SIZE - 1, 2)) == [0, 1]
    assert len(cache.pages_for_range(0, 0)) == 0


def test_invalidate_and_flush():
    sim, dev, host, cache, cat = make_env()
    a = cat.create("a", nbytes=1 << 19)
    b = cat.create("b", nbytes=1 << 19)
    cache.warm(a, np.arange(3))
    cache.warm(b, np.arange(3))
    cache.invalidate_file("a")
    assert cache.resident_pages == 3
    cache.flush()
    assert cache.resident_pages == 0

