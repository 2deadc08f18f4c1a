"""Replica failure domain: chaos runs, failover, hedging, brownout.

End-to-end runs of the serving plane under ``replica_*`` fault plans,
plus the crash-teardown hygiene checks (no pinned staging leaks, a cold
feature buffer, a reset ring after every crash episode).
"""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.faults import FaultPlan, FaultSpec, default_replica_chaos_plan
from repro.serve import ServeScenario, run_serve_scenario
from repro.serve.resilience import QUEUE_BOUND, JobQueue
from repro.simcore import Simulator

pytestmark = [pytest.mark.serve, pytest.mark.chaos]

CHAOS = ServeScenario(name="t-chaos", dataset="tiny", rate=400.0,
                      num_requests=40, num_replicas=2, slo=0.05,
                      fault_plan="replica-chaos", seed=7)


def _run_ok(scenario):
    run = run_serve_scenario(scenario)
    assert run.ok, run.error
    assert run.clean, run.findings
    run.stats.check_accounting()
    return run


# ----------------------------------------------------------------------
# End-to-end chaos: nothing lost, everything accounted
# ----------------------------------------------------------------------
def test_replica_chaos_lossless_async():
    run = _run_ok(CHAOS)
    s = run.stats
    assert s.completed + s.shed + s.timed_out + s.failed == s.offered
    assert s.faults["injected_crash"] > 0
    assert s.faults["injected_hang"] > 0
    assert s.faults["injected_slow"] > 0
    assert s.faults["replica_restarts"] >= 1
    assert s.faults["replica_down_time"] > 0


def test_replica_chaos_lossless_sync():
    run = _run_ok(CHAOS.with_(backend="sync"))
    s = run.stats
    assert s.completed + s.shed + s.timed_out + s.failed == s.offered
    assert s.faults["injected_replica"] > 0


def test_replica_chaos_deterministic():
    r1 = run_serve_scenario(CHAOS)
    r2 = run_serve_scenario(CHAOS)
    assert r1.ok and r2.ok
    assert r1.digest and r1.digest == r2.digest
    assert r1.stats.faults == r2.stats.faults
    assert r1.stats.latency_p99 == r2.stats.latency_p99


def test_empty_plan_is_digest_identical_to_no_plan():
    base = CHAOS.with_(fault_plan="none")
    plain = _run_ok(base)
    empty = _run_ok(base.with_(fault_plan="empty"))
    assert plain.digest == empty.digest
    # Resilience stays unarmed: no replica machinery in the ledger.
    assert plain.stats.faults == {} and empty.stats.faults == {}


def test_hedging_beats_unhedged_p99():
    hedged = _run_ok(CHAOS)
    unhedged = _run_ok(CHAOS.with_(hedge=False))
    assert hedged.stats.faults["hedges"] > 0
    assert unhedged.stats.faults.get("hedges", 0) == 0
    assert hedged.stats.latency_p99 < unhedged.stats.latency_p99
    wins = hedged.stats.faults.get("hedge_wins", 0)
    discards = hedged.stats.faults.get("hedge_discards", 0)
    assert wins + discards <= hedged.stats.faults["hedges"]


def test_forced_failover_and_brownout():
    """Overlapping crashes orphan in-flight work and trip brownout."""
    plan = FaultPlan((
        FaultSpec("c0", "replica_crash", replica=0, start=0.005,
                  duration=0.02, period=0.05),
        FaultSpec("c1", "replica_crash", replica=1, start=0.012,
                  duration=0.02, period=0.06),
        FaultSpec("h2", "replica_hang", replica=2, start=0.02,
                  duration=0.015, period=0.07),
    ), seed=5)
    sc = CHAOS.with_(fault_plan="none", num_replicas=3, rate=3000.0,
                     num_requests=150, slo=0.08, seed=13)
    run = _run_ok(sc.with_(fault_plan_file=_save(plan)))
    s = run.stats
    assert s.faults["orphaned"] > 0
    assert s.faults["failovers"] > 0
    assert s.faults["brownouts"] >= 1
    assert s.faults["brownout_time"] > 0
    assert s.completed + s.shed + s.timed_out + s.failed == s.offered


def _save(plan):
    import tempfile
    path = tempfile.mktemp(suffix=".json")
    plan.save(path)
    return path


def test_failover_budget_zero_fails_orphans():
    """With no failover budget, crash-orphaned requests end ``failed``."""
    from repro.bench.runner import get_dataset
    from repro.machine import DEFAULT_SCALE, Machine, MachineSpec
    from repro.serve.server import InferenceServer

    plan = FaultPlan((
        FaultSpec("c0", "replica_crash", replica=0, start=0.004,
                  duration=0.03, period=0.04),
        FaultSpec("c1", "replica_crash", replica=1, start=0.01,
                  duration=0.03, period=0.05),
    ), seed=3)
    sc = CHAOS.with_(fault_plan="none", rate=2000.0, num_requests=80,
                     seed=9)
    machine = Machine(MachineSpec.paper_scaled(
        host_gb=sc.host_gb, scale=DEFAULT_SCALE, num_gpus=2,
        sanitize=True, faults=plan))
    server = InferenceServer(
        machine, get_dataset("tiny"),
        config=sc.serve_config().with_(failover_budget=0),
        workload=sc.workload_spec(), train_cfg=sc.train_config())
    try:
        stats = server.run()
    finally:
        server.teardown()
    stats.check_accounting()
    if stats.faults.get("orphaned", 0) > 0:
        # orphan_failed counts attempts (jobs); each failed attempt
        # fails at least one batched request.
        assert stats.faults.get("orphan_failed", 0) > 0
        assert stats.failed >= stats.faults["orphan_failed"]
        assert stats.faults.get("failovers", 0) == 0


# ----------------------------------------------------------------------
# Crash teardown hygiene: pinned staging, ring, feature buffer
# ----------------------------------------------------------------------
def test_crash_teardown_leaves_no_pinned_leak():
    """After crash episodes, staging is empty and buffers are coherent.

    The crash path must return the dead replica's pinned staging
    reservation and leave its feature buffer/ring in a restartable
    state — a leak here compounds per restart until extraction
    deadlocks on staging it can never reclaim.
    """
    from repro.bench.runner import get_dataset
    from repro.machine import DEFAULT_SCALE, Machine, MachineSpec
    from repro.serve.server import InferenceServer

    sc = CHAOS.with_(num_requests=60)
    machine = Machine(MachineSpec.paper_scaled(
        host_gb=sc.host_gb, scale=DEFAULT_SCALE, num_gpus=2,
        sanitize=True, faults=default_replica_chaos_plan()))
    server = InferenceServer(machine, get_dataset("tiny"),
                             config=sc.serve_config(),
                             workload=sc.workload_spec(),
                             train_cfg=sc.train_config())
    try:
        stats = server.run()
        assert stats.faults["injected_crash"] > 0
        assert sc.backend == "async"
        assert server.staging.in_use == 0
        for backend in server.backends:
            backend.feature_buffer.check_invariants()
            assert len(backend.ring._sq) == 0
    finally:
        server.teardown()


def test_reset_cold_restores_feature_buffer():
    """Unit check for the crash-path cold reset."""
    from repro.bench.runner import get_dataset
    from repro.machine import DEFAULT_SCALE, Machine, MachineSpec
    from repro.serve.server import InferenceServer

    sc = CHAOS.with_(fault_plan="none", num_requests=8)
    machine = Machine(MachineSpec.paper_scaled(
        host_gb=sc.host_gb, scale=DEFAULT_SCALE, num_gpus=2,
        sanitize=True))
    server = InferenceServer(machine, get_dataset("tiny"),
                             config=sc.serve_config(),
                             workload=sc.workload_spec(),
                             train_cfg=sc.train_config())
    try:
        server.run()
        fb = server.backends[0].feature_buffer
        assert fb.valid.any()            # warm rows from the run
        fb.reset_cold()
        assert not fb.valid.any()
        assert (fb.ref == 0).all()
        fb.check_invariants()
    finally:
        server.teardown()


# ----------------------------------------------------------------------
# JobQueue unit behaviour
# ----------------------------------------------------------------------
def test_job_queue_fifo_and_front_requeue():
    sim = Simulator()
    q = JobQueue(sim)
    q.push("a")
    q.push("b")
    q.push_front("z")
    assert q.try_pop() == "z"
    assert q.try_pop() == "a"
    assert q.try_pop() == "b"
    assert q.try_pop() is None
    q.check_invariants()


def test_job_queue_drain_and_close():
    sim = Simulator()
    q = JobQueue(sim)
    for item in ("a", "b", "c"):
        q.push(item)
    assert q.drain() == ["a", "b", "c"]
    assert len(q) == 0
    q.close()
    assert q.closed
    q.check_invariants()


def test_job_queue_space_event_waits_above_bound():
    """The batcher's backpressure wait: pending while the depth exceeds
    QUEUE_BOUND, fired by the pop that brings it back; a waiter left
    at or below the bound is an invariant violation."""
    sim = Simulator()
    q = JobQueue(sim)
    for item in range(QUEUE_BOUND + 1):
        q.push(item)
    ev = q.space_event()
    assert not ev.triggered
    q.check_invariants()
    assert q.try_pop() == 0
    assert ev.triggered
    q.check_invariants()
    q.push(QUEUE_BOUND + 1)
    stuck = q.space_event()
    q._items.popleft()                  # a pop that skips the wake-up
    q.popped += 1
    with pytest.raises(SimulationError, match="batcher waits"):
        q.check_invariants()
    q.drain()
    assert stuck.triggered
    q.check_invariants()


def test_job_queue_wakes_waiter():
    sim = Simulator()
    q = JobQueue(sim)
    seen = []

    def consumer(sim):
        while True:
            item = q.try_pop()
            if item is not None:
                seen.append(item)
                if item == "stop":
                    return
                continue
            yield q.arrival_event()

    def producer(sim):
        yield sim.timeout(0.1)
        q.push("x")
        yield sim.timeout(0.1)
        q.push("stop")

    sim.process(consumer(sim), name="consumer")
    sim.process(producer(sim), name="producer")
    sim.run()
    assert seen == ["x", "stop"]
    q.check_invariants()


# ----------------------------------------------------------------------
# Scenario plumbing
# ----------------------------------------------------------------------
def test_fault_plan_file_round_trip(tmp_path):
    path = tmp_path / "plan.json"
    default_replica_chaos_plan().save(str(path))
    via_file = _run_ok(CHAOS.with_(fault_plan="none",
                                   fault_plan_file=str(path)))
    via_preset = _run_ok(CHAOS)
    assert via_file.digest == via_preset.digest


def test_fault_plan_file_excludes_preset():
    with pytest.raises(ValueError):
        CHAOS.with_(fault_plan_file="x.json")


def test_unarmed_plane_runs_router_and_workers_only():
    """With no replica specs the plane spawns only the replica workers:
    no health checker and no hedges, even with two replicas and
    ``hedge`` on, and the fault ledger stays empty."""
    from repro.bench.runner import get_dataset
    from repro.machine import DEFAULT_SCALE, Machine, MachineSpec
    from repro.serve.server import InferenceServer

    sc = CHAOS.with_(fault_plan="none", num_requests=16)
    assert sc.hedge and sc.num_replicas == 2
    machine = Machine(MachineSpec.paper_scaled(
        host_gb=sc.host_gb, scale=DEFAULT_SCALE, num_gpus=2,
        sanitize=True))
    server = InferenceServer(machine, get_dataset("tiny"),
                             config=sc.serve_config(),
                             workload=sc.workload_spec(),
                             train_cfg=sc.train_config())
    spawned = []
    server.watch_actor = spawned.append
    try:
        assert not server.resilience.hedging
        stats = server.run()
        names = [p.name for p in server._actors]
    finally:
        server.teardown()
    stats.check_accounting()
    assert stats.completed == 16
    assert spawned == []
    assert sorted(n for n in names if n.startswith("serve-")) == [
        "serve-rworker0.0", "serve-rworker1.0"]
    assert stats.faults == {}
