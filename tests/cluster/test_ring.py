"""Consistent-hash ring properties: balance, minimal remap, determinism."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import HashRing, remap_fraction
from repro.errors import ConfigError

pytestmark = pytest.mark.cluster

KEYS = np.arange(20_000, dtype=np.int64)

shard_sets = st.lists(st.integers(min_value=0, max_value=10_000),
                      min_size=2, max_size=10, unique=True)


@settings(max_examples=40, deadline=None)
@given(shards=shard_sets)
def test_key_balance_within_bound(shards):
    """With 64 vnodes per shard the hottest shard's keyspace share
    stays within 1.7x of the even split, for arbitrary shard ids."""
    ring = HashRing(shards, vnodes=64)
    owners = ring.lookup(KEYS)
    _, counts = np.unique(owners, return_counts=True)
    assert set(np.unique(owners)) <= set(shards)
    assert counts.max() / len(KEYS) <= 1.7 / len(shards)


@settings(max_examples=40, deadline=None)
@given(shards=shard_sets, data=st.data())
def test_minimal_remap_on_shard_loss(shards, data):
    """Removing one shard moves ONLY the keys that shard owned; every
    other key keeps its shard (what makes shard_down failover cheap)."""
    ring = HashRing(shards, vnodes=64)
    victim = data.draw(st.sampled_from(shards))
    before = ring.lookup(KEYS)
    after = ring.without(victim).lookup(KEYS)
    moved = before != after
    assert np.all(before[moved] == victim)
    assert remap_fraction(ring, ring.without(victim), KEYS) == pytest.approx(
        float(np.mean(before == victim)))


def test_lookup_deterministic_across_instances():
    a = HashRing(range(5), vnodes=64).lookup(KEYS)
    b = HashRing(range(5), vnodes=64).lookup(KEYS)
    assert np.array_equal(a, b)


def test_successor_chains_distinct_and_owner_first():
    ring = HashRing(range(6), vnodes=32)
    succ = ring.successors(KEYS[:2000], count=3)
    assert succ.shape == (2000, 3)
    assert np.array_equal(succ[:, 0], ring.lookup(KEYS[:2000]))
    for row in succ:
        assert len(set(row.tolist())) == 3


def test_successor_count_capped_at_ring_size():
    ring = HashRing(range(3), vnodes=16)
    succ = ring.successors(KEYS[:100], count=8)
    assert succ.shape == (100, 3)
    assert sorted(set(succ[0].tolist())) == [0, 1, 2]


def test_ring_validation():
    with pytest.raises(ConfigError):
        HashRing([])
    with pytest.raises(ConfigError):
        HashRing([1, 1])
    with pytest.raises(ConfigError):
        HashRing([1, 2], vnodes=0)
    ring = HashRing([1, 2])
    with pytest.raises(ConfigError):
        ring.without(9)
    with pytest.raises(ConfigError):
        ring.successors(KEYS[:1], count=0)
