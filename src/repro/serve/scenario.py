"""Serve scenarios: JSON round-trippable serving configurations.

The serving analogue of :mod:`repro.oracle.scenario`: one frozen record
pins everything a serving run depends on, builds the machine/workload/
server, and executes under the strict sanitizer with full tracing — so
serve runs can be pinned in the golden corpus and checked by oracles
exactly like training runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.base import TrainConfig
from repro.machine import Machine, MachineSpec
from repro.scenario import ScenarioBase, ScenarioRun, run_sanitized
from repro.serve.config import ServeConfig, WorkloadSpec


@dataclass(frozen=True)
class ServeScenario(ScenarioBase):
    """One point of the serving configuration space."""

    backend: str = "async"
    kind: str = "poisson"
    rate: float = 200.0
    num_requests: int = 60
    seeds_per_request: int = 1
    slo: float = 0.05
    max_batch_size: int = 8
    max_wait: float = 1e-3
    num_replicas: int = 1
    queue_capacity: int = 64
    model_kind: str = "sage"
    #: Path to a FaultPlan JSON file (``repro serve --faults``); mutually
    #: exclusive with a non-"none" ``fault_plan`` preset.
    fault_plan_file: Optional[str] = None
    #: Hedged requests (effective only when the resilience plane arms,
    #: i.e. under a ``replica-chaos`` plan); the chaos-serve bench flips
    #: this to measure the hedging p99 win on an identical plan/seed.
    hedge: bool = True

    FAULT_PLANS = ("none", "empty", "chaos", "replica-chaos")

    def __post_init__(self):
        super().__post_init__()
        # Workload/serve knobs are validated by the spec constructors.
        self.workload_spec()
        self.serve_config()

    # ------------------------------------------------------------------
    def workload_spec(self) -> WorkloadSpec:
        return self.build(WorkloadSpec)

    def serve_config(self) -> ServeConfig:
        return self.build(ServeConfig)

    def train_config(self) -> TrainConfig:
        return self.build(TrainConfig)

    def machine_spec(self, races: bool = False) -> MachineSpec:
        return super().machine_spec(races, num_gpus=self.num_replicas)


def run_serve_scenario(scenario: ServeScenario,
                       races: bool = False) -> ScenarioRun:
    """Execute *scenario* sanitized with full tracing.

    *races* additionally arms the intra-cohort race detector; the run's
    trace digest is unchanged either way (the detector only observes).
    """
    from repro.bench.runner import get_dataset
    from repro.serve.server import InferenceServer

    dataset = get_dataset(scenario.dataset, scale=scenario.dataset_scale,
                          seed=scenario.seed)
    machine = Machine(scenario.machine_spec(races=races))

    def body():
        server = InferenceServer(machine, dataset,
                                 config=scenario.serve_config(),
                                 workload=scenario.workload_spec(),
                                 train_cfg=scenario.train_config())
        try:
            return server.run()
        finally:
            server.teardown()

    return run_sanitized(machine, body)
