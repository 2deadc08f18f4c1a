"""Deterministic fault injection and recovery policies (chaos plane).

Public surface::

    from repro.faults import (FaultSpec, FaultPlan, FaultInjector,
                              FaultLedger, load_plan, default_chaos_plan)

Configure a machine with ``MachineSpec(faults=plan)`` (or
``repro run --faults plan.json``); every draw is keyed by (plan seed,
fault id), so chaos runs replay bit-for-bit.
"""

from repro.faults.inject import FaultInjector, FaultLedger
from repro.faults.plan import (
    EAGAIN,
    EIO,
    EMPTY_PLAN,
    FAULT_KINDS,
    REPLICA_KINDS,
    SHARD_KINDS,
    FaultPlan,
    FaultSpec,
    default_chaos_plan,
    default_replica_chaos_plan,
    default_shard_chaos_plan,
    load_plan,
)

__all__ = [
    "EAGAIN",
    "EIO",
    "EMPTY_PLAN",
    "FAULT_KINDS",
    "REPLICA_KINDS",
    "SHARD_KINDS",
    "FaultInjector",
    "FaultLedger",
    "FaultPlan",
    "FaultSpec",
    "default_chaos_plan",
    "default_replica_chaos_plan",
    "default_shard_chaos_plan",
    "load_plan",
]
