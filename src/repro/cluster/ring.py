"""Consistent-hash ring with virtual nodes for the cluster router.

The router maps node ids onto shards through a classic consistent-hash
ring: every shard owns ``vnodes`` points on a 64-bit circle (hashed
with :func:`repro.graph.partition.splitmix64`, never Python ``hash`` —
that one is salted per process), and a key belongs to the first vnode
clockwise from its own hash.  Two properties the cluster leans on, both
pinned by hypothesis tests:

* **balance** — with enough vnodes the keyspace splits near-evenly, so
  shard load tracks workload skew rather than placement accident;
* **minimal remap** — removing one shard moves only the keys that
  shard owned (~1/N of the keyspace); everything else keeps its shard,
  which is what makes `shard_down` failover cheap.

Replication walks the ring clockwise from the owning vnode collecting
the next ``r`` *distinct* shards (the successor chain); those hold the
replica copies and absorb redirected traffic during an outage.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.graph.partition import splitmix64

#: Salt mixed into vnode keys so key-hashes and vnode-hashes come from
#: decorrelated streams of the same mixer.
_VNODE_SALT = np.uint64(0xC2B2AE3D27D4EB4F)


class HashRing:
    """An immutable consistent-hash ring over integer shard ids."""

    def __init__(self, shard_ids: Sequence[int], vnodes: int = 64):
        shard_ids = tuple(int(s) for s in shard_ids)
        if not shard_ids:
            raise ConfigError("a hash ring needs at least one shard")
        if len(set(shard_ids)) != len(shard_ids):
            raise ConfigError(f"duplicate shard ids: {shard_ids}")
        if vnodes < 1:
            raise ConfigError("vnodes must be >= 1")
        self.shard_ids: Tuple[int, ...] = shard_ids
        self.vnodes = int(vnodes)
        # vnode key = splitmix64(shard * vnodes_stride + replica_slot),
        # salted; collisions across shards are broken by (hash, shard,
        # slot) sort order — total and deterministic.
        shards = np.repeat(np.asarray(shard_ids, dtype=np.uint64),
                           self.vnodes)
        slots = np.tile(np.arange(self.vnodes, dtype=np.uint64),
                        len(shard_ids))
        raw = splitmix64(shards * np.uint64(1 << 20) + slots
                         + _VNODE_SALT)
        order = np.lexsort((slots, shards, raw))
        self._hashes = raw[order]
        self._owners = shards[order].astype(np.int64)
        self._chains: Dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    def key_hashes(self, keys: np.ndarray) -> np.ndarray:
        """The ring positions of integer *keys* (vectorized)."""
        return splitmix64(np.asarray(keys, dtype=np.int64)
                          .astype(np.uint64))

    def _slots(self, keys: np.ndarray) -> np.ndarray:
        """Index of the owning vnode per key (clockwise successor)."""
        pos = np.searchsorted(self._hashes, self.key_hashes(keys),
                              side="left")
        return np.where(pos == len(self._hashes), 0, pos)

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """Owning shard id per key (vectorized)."""
        return self._owners[self._slots(keys)]

    def successors(self, keys: np.ndarray, count: int) -> np.ndarray:
        """(len(keys), count) distinct shard ids per key: the owner
        followed by the next distinct shards clockwise.

        *count* is capped at the number of shards on the ring.
        """
        count = min(int(count), len(self.shard_ids))
        if count < 1:
            raise ConfigError("successor count must be >= 1")
        chain = self._chains.get(count)
        if chain is None:
            chain = self._build_chains(count)
            self._chains[count] = chain
        return chain[self._slots(keys)]

    def _build_chains(self, count: int) -> np.ndarray:
        """Per-vnode distinct-shard successor chains, precomputed once."""
        n = len(self._hashes)
        chain = np.empty((n, count), dtype=np.int64)
        owners = self._owners
        for i in range(n):
            seen = []
            j = i
            while len(seen) < count:
                owner = int(owners[j])
                if owner not in seen:
                    seen.append(owner)
                j = (j + 1) % n
            chain[i] = seen
        return chain

    # ------------------------------------------------------------------
    def without(self, shard_id: int) -> "HashRing":
        """The ring after *shard_id* is removed (shard loss)."""
        if shard_id not in self.shard_ids:
            raise ConfigError(f"shard {shard_id} not on the ring")
        remaining = tuple(s for s in self.shard_ids if s != shard_id)
        return HashRing(remaining, vnodes=self.vnodes)


def remap_fraction(before: HashRing, after: HashRing,
                   keys: np.ndarray) -> float:
    """Fraction of *keys* whose owning shard differs between rings."""
    keys = np.asarray(keys, dtype=np.int64)
    if len(keys) == 0:
        return 0.0
    return float(np.mean(before.lookup(keys) != after.lookup(keys)))
