"""Tests for the Ginex baseline: Belady plan, neighbor cache, system."""

import numpy as np
import pytest

from repro.baselines import Ginex, GinexConfig
from repro.baselines.ginex import NeighborCache, belady_plan
from repro.core.base import TrainConfig
from repro.errors import OutOfMemoryError
from repro.graph import make_dataset
from repro.machine import Machine, MachineSpec


# ----------------------------------------------------------------------
# Belady plan
# ----------------------------------------------------------------------
def simulate_plan(batches, capacity):
    """Replay a plan and return total misses + max cache occupancy."""
    initial, miss_lists, evict_lists = belady_plan(batches, capacity)
    cache = set(map(int, initial))
    misses = 0
    max_occ = len(cache)
    for nodes, miss, evict in zip(batches, miss_lists, evict_lists):
        for v in map(int, nodes):
            if v not in cache:
                assert v in set(map(int, miss)), "unplanned miss"
        misses += len(miss)
        cache.update(map(int, miss))
        for v in map(int, evict):
            cache.remove(v)
        assert len(cache) <= capacity
        max_occ = max(max_occ, len(cache))
    return misses, max_occ


def test_belady_no_misses_when_everything_fits():
    batches = [np.array([1, 2]), np.array([2, 3]), np.array([1, 3])]
    misses, _ = simulate_plan(batches, capacity=10)
    assert misses == 0  # initial prefetch covers all


def test_belady_respects_capacity():
    rng = np.random.default_rng(0)
    batches = [rng.choice(50, size=8, replace=False) for _ in range(12)]
    simulate_plan(batches, capacity=10)  # asserts inside


def test_belady_beats_lru_on_adversarial_trace():
    """Optimality spot-check: Belady <= LRU misses on a looping trace."""
    n, cap = 12, 8
    batches = [np.arange(n)[i % 2::2] for i in range(10)]
    # Also a cyclic scan, LRU's worst case:
    batches += [np.arange(i, i + 6) % n for i in range(8)]

    def lru_misses(batches, cap):
        from collections import OrderedDict
        cache = OrderedDict()
        misses = 0
        for nodes in batches:
            for v in map(int, nodes):
                if v in cache:
                    cache.move_to_end(v)
                else:
                    misses += 1
                    cache[v] = None
                    if len(cache) > cap:
                        cache.popitem(last=False)
        return misses

    opt, _ = simulate_plan(batches, cap)
    # LRU starts cold; give Belady no initial-prefetch advantage by
    # counting its prefetch as misses too.
    initial, _, _ = belady_plan(batches, cap)
    assert opt + len(initial) <= lru_misses(batches, cap) + len(initial)


def test_belady_validation():
    with pytest.raises(ValueError):
        belady_plan([np.array([1])], capacity=0)


# ----------------------------------------------------------------------
# Neighbor cache
# ----------------------------------------------------------------------
def test_neighbor_cache_respects_budget():
    ds = make_dataset("tiny", seed=0)
    nc = NeighborCache(ds.graph, capacity_bytes=1 << 14)
    assert nc.bytes_used <= 1 << 14
    assert len(nc.cached_nodes) > 0


def test_neighbor_cache_prefers_frequently_sampled_nodes():
    ds = make_dataset("tiny", seed=0)
    nc = NeighborCache(ds.graph, capacity_bytes=1 << 15)
    out_deg = np.bincount(ds.graph.indices, minlength=ds.num_nodes)
    cached_mean = out_deg[nc.cached_nodes].mean()
    assert cached_mean > out_deg.mean()


def test_neighbor_cache_split():
    ds = make_dataset("tiny", seed=0)
    nc = NeighborCache(ds.graph, capacity_bytes=1 << 14)
    frontier = np.arange(100)
    cached, uncached = nc.split(frontier)
    assert len(cached) + len(uncached) == 100
    assert set(cached).issubset(set(nc.cached_nodes))


def test_neighbor_cache_zero_budget():
    ds = make_dataset("tiny", seed=0)
    nc = NeighborCache(ds.graph, capacity_bytes=0)
    assert len(nc.cached_nodes) == 0


# ----------------------------------------------------------------------
# System
# ----------------------------------------------------------------------
def small_cfg(**kw):
    base = dict(neighbor_cache_bytes=1 << 18, feature_cache_bytes=1 << 21,
                superbatch_size=10)
    base.update(kw)
    return GinexConfig(**base)


def build(host_gb=32, **kw):
    ds = make_dataset("tiny", seed=0)
    m = Machine(MachineSpec.paper_scaled(host_gb=host_gb))
    s = Ginex(m, ds, TrainConfig(batch_size=20), small_cfg(), **kw)
    return m, s


def test_ginex_runs_and_learns():
    m, s = build()
    stats = s.run_epochs(3, eval_every=3)
    assert stats[-1].loss < stats[0].loss
    assert stats[-1].val_acc > 0.2


def test_ginex_feature_cache_hits_accumulate():
    m, s = build()
    stats = s.run_epochs(2)
    assert stats[-1].reused_nodes > 0  # feature-cache hits


def test_ginex_reuse_counters_are_per_epoch(monkeypatch):
    """Each epoch's feature-cache hits plus misses are exactly the
    sampled-node accesses of that epoch alone, not a running total."""
    m, s = build()
    sample = s.sampler.sample
    accesses = []

    def counting_sample(seeds):
        sub = sample(seeds)
        accesses.append(sub.num_sampled_nodes)
        return sub

    monkeypatch.setattr(s.sampler, "sample", counting_sample)
    for _ in range(3):
        accesses.clear()
        stats = s.run_epochs(1)[-1]
        assert stats.reused_nodes + stats.loaded_nodes == sum(accesses)


def test_ginex_sample_only_close_to_all():
    """Fig. 2: Ginex-only ~ Ginex-all (separate caches)."""
    ds = make_dataset("tiny", seed=0)
    m1 = Machine(MachineSpec.paper_scaled(host_gb=32))
    only = Ginex(m1, ds, TrainConfig(batch_size=20), small_cfg(),
                 sample_only=True)
    t_only = only.run_epochs(2)[-1].stages.sample
    ds2 = make_dataset("tiny", seed=0)
    m2 = Machine(MachineSpec.paper_scaled(host_gb=32))
    full = Ginex(m2, ds2, TrainConfig(batch_size=20), small_cfg())
    t_full = full.run_epochs(2)[-1].stages.sample
    assert t_full < 2.0 * t_only  # far below PyG+'s 5.4x blow-up


def test_ginex_oom_when_caches_exceed_host():
    ds = make_dataset("tiny", seed=0)
    m = Machine(MachineSpec.paper_scaled(host_gb=1))
    with pytest.raises(OutOfMemoryError):
        Ginex(m, ds, TrainConfig(batch_size=20),
              GinexConfig(neighbor_cache_bytes=1 << 20,
                          feature_cache_bytes=1 << 21, superbatch_size=10))


def test_ginex_oom_when_feature_cache_below_working_set():
    ds = make_dataset("tiny", seed=0)
    m = Machine(MachineSpec.paper_scaled(host_gb=32))
    with pytest.raises(OutOfMemoryError, match="ginex-feature-cache"):
        Ginex(m, ds, TrainConfig(batch_size=20),
              GinexConfig(neighbor_cache_bytes=1 << 16,
                          feature_cache_bytes=1 << 12,  # ~32 entries
                          superbatch_size=10))


def test_ginex_for_host_sizing():
    cfg = GinexConfig.for_host(100_000, fraction=0.85)
    assert cfg.neighbor_cache_bytes + cfg.feature_cache_bytes == 85_000
    assert cfg.feature_cache_bytes == 4 * cfg.neighbor_cache_bytes
    cfg2 = GinexConfig.for_host(100_000, superbatch_size=7)
    assert cfg2.superbatch_size == 7


def test_ginex_config_validation():
    with pytest.raises(ValueError):
        GinexConfig(feature_cache_bytes=0)
    with pytest.raises(ValueError):
        GinexConfig(superbatch_size=0)
    with pytest.raises(ValueError):
        GinexConfig(sample_workers=0)
