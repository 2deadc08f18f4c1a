"""Recovery plane: the retry budget, reliable submission, degradation."""

import numpy as np
import pytest

from repro.core.feature_buffer import FeatureBuffer
from repro.errors import OutOfMemoryError
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.faults.recovery import (BACKOFF_BASE, BACKOFF_CAP, MAX_RETRIES,
                                   backoff_delay, retry_on_oom)
from repro.machine import Machine, MachineSpec
from repro.simcore import Simulator
from repro.storage import SSDDevice, SSDSpec


def make_device(specs, latency=50e-6, bw=1e9, channels=4, seed=3):
    sim = Simulator()
    dev = SSDDevice(sim, SSDSpec(read_latency=latency,
                                 channel_bandwidth=bw, channels=channels))
    dev.faults = FaultInjector(FaultPlan(tuple(specs), seed=seed))
    return sim, dev


# ----------------------------------------------------------------------
# Backoff
# ----------------------------------------------------------------------
def test_retry_policy_delays_grow_and_cap():
    delays = [backoff_delay(i) for i in range(MAX_RETRIES)]
    assert delays == sorted(delays)
    assert delays[0] == pytest.approx(BACKOFF_BASE)
    assert delays[-2] < BACKOFF_CAP
    assert delays[-1] == pytest.approx(BACKOFF_CAP)  # capped


# ----------------------------------------------------------------------
# Device-level reliable submission
# ----------------------------------------------------------------------
def test_submit_reliable_recovers_when_burst_expires():
    # Window covers the first service completion only; the first retry's
    # deferred start time falls outside it, so every request recovers.
    spec = FaultSpec("burst", "read_error", start=0.0, duration=100e-6)
    sim, dev = make_device([spec])
    done, dropped = dev.submit_reliable(np.full(4, 1000))
    led = dev.faults.ledger
    assert not dropped.any()
    assert led.injected_read == 4
    assert led.retried == 4
    assert led.recovered == 4
    assert led.dropped == 0
    assert led.backoff_time > 0
    # Recovered completions land after the backoff, not before.
    assert (done > 100e-6).all()
    led.check_invariants()


def test_submit_reliable_drops_after_budget():
    spec = FaultSpec("dead-lba", "read_error")  # p=1, always active
    sim, dev = make_device([spec])
    done, dropped = dev.submit_reliable(np.full(3, 1000))
    led = dev.faults.ledger
    assert dropped.all()
    assert led.retried == 3 * MAX_RETRIES  # 3 requests x every round
    assert led.dropped == 3
    assert led.recovered == 0
    led.check_invariants()


def test_submit_reliable_no_faults_fired_is_plain_submit():
    spec = FaultSpec("never", "read_error", probability=0.0)
    sim, dev = make_device([spec])
    sizes = np.full(4, 1000)
    done, dropped = dev.submit_reliable(sizes)
    assert not dropped.any()
    assert dev.faults.ledger.retried == 0
    sim2 = Simulator()
    plain = SSDDevice(sim2, dev.spec).submit_batch(sizes)
    assert np.array_equal(done, plain)


# ----------------------------------------------------------------------
# Allocation backoff under transient pressure
# ----------------------------------------------------------------------
def make_faulty_machine(host_gb=1):
    plan = FaultPlan((FaultSpec("noop", "read_error", probability=0.0),))
    return Machine(MachineSpec.paper_scaled(host_gb=host_gb, faults=plan))


def test_alloc_with_retry_survives_transient_pressure():
    m = make_faulty_machine()
    m.host.set_fault_pressure(m.host.available)  # nothing allocatable

    def relieve(sim):
        yield sim.timeout(1e-3)
        m.host.set_fault_pressure(0)

    def work(sim):
        alloc = yield from retry_on_oom(
            m, "alloc_retries", lambda: m.host.allocate(4096, tag="probe"))
        return alloc

    m.sim.process(relieve(m.sim), name="relieve_proc")
    m.sim.run_process(work(m.sim))
    assert m.faults.ledger.alloc_retries > 0
    assert m.host.usage_by_tag()["probe"] == 4096


def test_alloc_with_retry_reraises_on_genuine_overcommit():
    m = make_faulty_machine()
    hopeless = m.host.capacity * 2

    def work(sim):
        yield from retry_on_oom(
            m, "alloc_retries", lambda: m.host.allocate(hopeless, tag="bulk"))

    with pytest.raises(OutOfMemoryError):
        m.sim.run_process(work(m.sim))
    # The budget was spent trying.
    assert m.faults.ledger.alloc_retries == MAX_RETRIES


def test_extractor_staging_reservation_counts_staging_retries():
    """GNNDrive's extractors back off on a staging reservation that
    fails transiently, and the ledger books it as ``staging_retries``."""
    from repro.core import GNNDrive, GNNDriveConfig
    from repro.core.base import TrainConfig
    from repro.graph import make_dataset

    m = make_faulty_machine(host_gb=32)
    sysm = GNNDrive(m, make_dataset("tiny", seed=0),
                    TrainConfig(batch_size=20), GNNDriveConfig())
    reserve = sysm.staging.reserve
    failures = [True, True]

    def flaky_reserve(nodes, portion=0):
        if failures:
            failures.pop()
            raise OutOfMemoryError(nodes, 0, where="staging")
        return reserve(nodes, portion)

    sysm.staging.reserve = flaky_reserve
    stats = sysm.run_epochs(1)
    sysm.shutdown()
    assert stats[0].faults["staging_retries"] == 2
    assert "alloc_retries" not in stats[0].faults
    assert stats[0].faults["backoff_time"] == pytest.approx(
        backoff_delay(0) + backoff_delay(1))


# ----------------------------------------------------------------------
# FeatureBuffer degradation
# ----------------------------------------------------------------------
def test_feature_buffer_shrink_and_restore():
    sim = Simulator()
    fb = FeatureBuffer(sim, num_slots=8, num_nodes=32, dim=2)
    nodes = np.array([1, 2, 3])
    fb.begin_batch(nodes)
    fb.allocate_slots(nodes)
    fb.finish_load(nodes)
    fb.release(nodes)  # retire to standby, mappings survive

    # Partial shrink takes the *coldest* slots — the 5 never-used ones —
    # so the delayed mappings for nodes 1..3 survive.
    assert fb.shrink_standby(5) == 5
    assert fb.disabled_slots == 5
    assert fb.free_slots == 3
    assert fb.valid[nodes].all()
    fb.check_invariants()

    # Taking the rest reaches the occupied slots: their mappings must be
    # invalidated when the slots go offline.
    assert fb.shrink_standby(3) == 3
    assert fb.disabled_slots == 8
    assert fb.free_slots == 0
    assert not fb.valid[nodes].any()
    assert (fb.slot_of[nodes] == -1).all()
    fb.check_invariants()

    assert fb.restore_standby() == 8
    assert fb.disabled_slots == 0
    assert fb.free_slots == 8
    fb.check_invariants()


def test_feature_buffer_shrink_caps_at_standby():
    sim = Simulator()
    fb = FeatureBuffer(sim, num_slots=4, num_nodes=8, dim=1)
    assert fb.shrink_standby(100) == 4
    assert fb.shrink_standby(1) == 0  # nothing left to take
    assert fb.restore_standby() == 4
    assert fb.restore_standby() == 0
