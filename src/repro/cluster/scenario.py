"""Cluster scenarios: JSON round-trippable cluster configurations.

The cluster analogue of :mod:`repro.serve.scenario`: one frozen record
pins everything a cluster run depends on — dataset, workload shape,
cluster plane, fault plan — builds the machine substrate and the
:class:`repro.cluster.sim.ClusterSim`, and executes under the strict
sanitizer with full tracing, so cluster runs can be pinned in the
golden corpus and checked by oracles exactly like serve runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cluster.config import ClusterConfig
from repro.errors import ConfigError
from repro.machine import Machine
from repro.scenario import ScenarioBase, ScenarioRun, run_sanitized
from repro.serve.config import WorkloadSpec

_POOLS = ("all", "test")


@dataclass(frozen=True)
class ClusterScenario(ScenarioBase):
    """One point of the cluster configuration space."""

    # --- workload shape -------------------------------------------------
    rate: float = 400.0
    num_requests: int = 200
    seeds_per_request: int = 1
    popularity: str = "zipf"
    zipf_alpha: float = 1.1
    rate_shape: str = "flat"
    #: Which nodes queries target: the whole graph (``all``) or the
    #: held-out test split (``test`` — the single-machine serve pool,
    #: used by the degenerate-equivalence pin).
    pool: str = "all"
    slo: float = 0.05
    # --- cluster plane --------------------------------------------------
    num_shards: int = 4
    replication: int = 2
    partitions_per_shard: int = 16
    partition: str = "hash"
    hops: int = 2
    fanout: int = 4
    hedge: bool = True
    hot_fraction: float = 0.02
    cache_fraction: float = 0.05
    admit_capacity: int = 4096
    max_batch: int = 32
    #: Path to a FaultPlan JSON file (``repro cluster --faults``);
    #: mutually exclusive with a non-"none" ``fault_plan`` preset.
    fault_plan_file: Optional[str] = None

    FAULT_PLANS = ("none", "empty", "shard-chaos")

    def __post_init__(self):
        super().__post_init__()
        if self.pool not in _POOLS:
            raise ConfigError(f"unknown pool {self.pool!r}; "
                              f"known: {_POOLS}")
        if not self.slo > 0:
            raise ConfigError("slo must be positive")
        # Workload/cluster knobs are validated by the spec constructors.
        self.workload_spec()
        self.cluster_config()

    # ------------------------------------------------------------------
    def workload_spec(self) -> WorkloadSpec:
        return self.build(WorkloadSpec)

    def cluster_config(self) -> ClusterConfig:
        return self.build(ClusterConfig)


def run_cluster_scenario(scenario: ClusterScenario,
                         races: bool = False) -> ScenarioRun:
    """Execute *scenario* sanitized with full tracing.

    *races* additionally arms the intra-cohort race detector; the run's
    trace digest is unchanged either way (the detector only observes).
    """
    from repro.bench.runner import get_dataset
    from repro.cluster.sim import ClusterSim

    dataset = get_dataset(scenario.dataset, scale=scenario.dataset_scale,
                          seed=scenario.seed)
    pool = dataset.test_idx if scenario.pool == "test" else None
    machine = Machine(scenario.machine_spec(races=races))

    def body():
        stats = ClusterSim(machine, dataset,
                           config=scenario.cluster_config(),
                           workload=scenario.workload_spec(),
                           slo=scenario.slo, pool=pool).run()
        stats.check_accounting()
        return stats

    return run_sanitized(machine, body)
