"""Online GNN inference serving on the simulated disk stack.

Everything before this package simulates *offline epoch training*; the
ROADMAP north star is a system that serves heavy traffic online.  This
package turns the existing storage/memory/extraction stack into a
queueing system under open-loop load:

* :mod:`repro.serve.workload` — deterministic arrival processes
  (open-loop Poisson, trace-driven, closed-loop client pool);
* :mod:`repro.serve.batcher` — bounded admission queue with load
  shedding plus the dynamic micro-batcher (max-batch / max-wait);
* :mod:`repro.serve.backends` — feature extraction over the simulated
  disk: GNNDrive-style async (ring + feature buffer, warm standby reuse
  across requests) vs. a PyG+-style sync baseline via the page cache;
* :mod:`repro.serve.server` — replicas, SLO accounting,
  :class:`repro.core.stats.ServeStats`;
* :mod:`repro.serve.resilience` — dispatch: circuit-breaker routing
  over bounded per-replica job queues, plus the replica failure domain
  (health checking, crash failover, hedged requests, brownout
  degradation), armed under ``replica_*`` fault plans;
* :mod:`repro.serve.scenario` — JSON round-trippable serve scenarios
  for the oracle/golden harness.
"""

from repro.serve.backends import AsyncServeBackend, SyncServeBackend
from repro.serve.batcher import AdmissionQueue, Job, MicroBatcher
from repro.serve.config import ServeConfig, WorkloadSpec
from repro.serve.resilience import (Attempt, JobQueue, ReplicaState,
                                    ResiliencePlane)
from repro.serve.scenario import ServeScenario, run_serve_scenario
from repro.serve.server import InferenceServer
from repro.serve.workload import (Request, build_requests,
                                  request_trace_digest)

__all__ = [
    "AdmissionQueue",
    "AsyncServeBackend",
    "Attempt",
    "InferenceServer",
    "Job",
    "JobQueue",
    "MicroBatcher",
    "ReplicaState",
    "Request",
    "ResiliencePlane",
    "ServeConfig",
    "ServeScenario",
    "SyncServeBackend",
    "WorkloadSpec",
    "build_requests",
    "request_trace_digest",
    "run_serve_scenario",
]
