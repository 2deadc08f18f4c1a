"""Configuration for the sharded serving cluster.

:class:`ClusterConfig` is frozen and hashable like
:class:`repro.serve.config.ServeConfig`, so cluster scenarios stay JSON
round-trippable and memoisable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigError, require_finite_floats

_PARTITIONERS = ("hash", "degree")


@dataclass(frozen=True)
class ClusterConfig:
    """Cluster-plane knobs: sharding, routing, fan-out, service model.

    The feature store is split into ``num_shards * partitions_per_shard``
    placement partitions (``hash`` or ``degree``-aware, via
    :mod:`repro.graph.partition`); the consistent-hash ring maps
    partition ids onto shards, so shard loss remaps only the lost
    shard's partitions.  ``replication`` copies each partition onto the
    ring's next distinct shards — the failover targets for
    ``shard_down`` and the mirror targets for hot-node hedged reads.
    Every float field must be finite.
    """

    num_shards: int = 4
    #: Copies per partition (owner + ring successors).  1 = no
    #: redundancy: a ``shard_down`` episode makes the shard's keys
    #: unavailable and the affected requests fail fast.
    replication: int = 2
    #: Placement partitions per shard (the remap granularity).
    partitions_per_shard: int = 16
    #: Feature-store partitioner: ``hash`` (splitmix64 spread) or
    #: ``degree`` (balance total degree across partitions).
    partition: str = "hash"
    #: Neighborhood fan-out per request: ``hops`` levels, first
    #: ``fanout`` in-neighbors per node (deterministic truncation).
    hops: int = 2
    fanout: int = 4
    #: Hedged reads: mirror the home-shard read of the hottest
    #: ``hot_fraction`` of the popularity-ranked pool onto the next
    #: ring replica; first copy served wins.  Needs ``replication >= 2``
    #: and at least two shards to take effect.
    hedge: bool = True
    hot_fraction: float = 0.02
    #: Per-shard popularity cache: nodes in the globally hottest
    #: ``cache_fraction`` of the ranked pool are served at
    #: :data:`~repro.cluster.sim.NODE_HIT_COST`; everything else pays
    #: :data:`~repro.cluster.sim.NODE_MISS_COST`.
    cache_fraction: float = 0.05
    #: Router admission window: outstanding (admitted, non-terminal)
    #: requests beyond this are shed at arrival.
    admit_capacity: int = 4096
    #: Shard micro-batching: up to ``max_batch`` parts per service
    #: batch, priced by :mod:`repro.cluster.sim`'s cost constants.
    max_batch: int = 32

    def __post_init__(self):
        require_finite_floats(self)
        if self.num_shards < 1:
            raise ConfigError("num_shards must be >= 1")
        if not 1 <= self.replication <= self.num_shards:
            raise ConfigError("replication must be in [1, num_shards]")
        if self.partitions_per_shard < 1:
            raise ConfigError("partitions_per_shard must be >= 1")
        if self.partition not in _PARTITIONERS:
            raise ConfigError(f"unknown partitioner {self.partition!r}; "
                              f"known: {_PARTITIONERS}")
        if self.hops < 0:
            raise ConfigError("hops must be >= 0")
        if self.fanout < 1:
            raise ConfigError("fanout must be >= 1")
        if not 0.0 <= self.hot_fraction <= 1.0:
            raise ConfigError("hot_fraction must be in [0, 1]")
        if not 0.0 <= self.cache_fraction <= 1.0:
            raise ConfigError("cache_fraction must be in [0, 1]")
        if self.admit_capacity < 1:
            raise ConfigError("admit_capacity must be >= 1")
        if self.max_batch < 1:
            raise ConfigError("max_batch must be >= 1")

    def with_(self, **kw) -> "ClusterConfig":
        return replace(self, **kw)
