"""The sharded serving cluster (`repro.cluster`).

Simulates an N-machine feature-serving cluster on the deterministic
machine substrate: each shard owns a slice of the feature store (hash
or degree-aware placement partitions mapped through a consistent-hash
ring), a router admits and fans multi-hop neighborhood requests out
across shards with scatter-gather merge and per-shard deadline budgets,
hot nodes get hedged mirror reads on the ring's replica shards, and
``shard_down`` / ``shard_slow`` fault episodes exercise failover.

Entry points: :class:`ClusterScenario` / :func:`run_cluster_scenario`
(the pinnable, sanitized path), ``repro cluster`` on the CLI, and
``python -m repro.bench cluster`` for the gated benchmark.
"""

from repro.cluster.config import ClusterConfig
from repro.cluster.ring import HashRing, remap_fraction
from repro.cluster.scenario import ClusterScenario, run_cluster_scenario
from repro.cluster.sim import ClusterSim
from repro.cluster.stats import ClusterStats

__all__ = [
    "ClusterConfig",
    "ClusterScenario",
    "ClusterSim",
    "ClusterStats",
    "HashRing",
    "remap_fraction",
    "run_cluster_scenario",
]
