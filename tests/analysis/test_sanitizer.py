"""Unit tests for the runtime sanitizer (engine hooks, audits, leaks)."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis import SimSanitizer
from repro.errors import SanitizerError, SimulationError
from repro.machine import Machine, MachineSpec
from repro.simcore.engine import Simulator

GB = 1024 ** 3


def make_sim(san=None):
    sim = Simulator()
    sim.sanitizer = san
    return sim


def drive(sim, delays):
    for d in delays:
        sim.timeout(d)
    sim.run()


# ----------------------------------------------------------------------
# Scheduling audit
# ----------------------------------------------------------------------
# The engine rejects non-finite delays itself, but ``now + delay`` can
# still overflow to inf, so the audit is driven directly.
def test_schedule_audit_rejects_nan_time():
    san = SimSanitizer(strict=True)
    with pytest.raises(SanitizerError, match="non-finite"):
        san.on_schedule(now=0.0, when=math.nan, priority=1, seq=1,
                        event=object())


def test_schedule_audit_rejects_inf_time():
    san = SimSanitizer(strict=True)
    with pytest.raises(SanitizerError, match="non-finite"):
        san.on_schedule(now=0.0, when=math.inf, priority=1, seq=1,
                        event=object())


def test_schedule_audit_rejects_unknown_priority():
    sim = make_sim(SimSanitizer(strict=True))
    ev = sim.event()
    with pytest.raises(SanitizerError, match="unknown priority"):
        ev.succeed(None, priority=7)


def test_schedule_audit_rejects_past_time():
    san = SimSanitizer(strict=True)
    sim = make_sim(san)
    with pytest.raises(SanitizerError, match="in the past"):
        san.on_schedule(now=5.0, when=4.0, priority=1, seq=1, event=object())


def test_non_strict_collects_instead_of_raising():
    san = SimSanitizer(strict=False)
    san.on_schedule(now=0.0, when=math.nan, priority=1, seq=1,
                    event=object())
    assert not san.clean
    assert san.findings[0].kind == "schedule"
    assert "non-finite" in san.report()


def test_clean_run_has_no_findings():
    san = SimSanitizer(strict=True)
    sim = make_sim(san)
    drive(sim, [0.1, 0.2, 0.3])
    assert san.clean
    assert san.steps == 3


# ----------------------------------------------------------------------
# Trace digest and tie audit
# ----------------------------------------------------------------------
def test_identical_runs_share_a_digest():
    digests = []
    for _ in range(2):
        san = SimSanitizer(strict=True, trace=True)
        sim = make_sim(san)
        drive(sim, [0.1, 0.1, 0.2])
        digests.append(san.trace_digest())
    assert digests[0] == digests[1]


def test_different_runs_differ_and_diff_to_first_step():
    sans = []
    for delays in ([0.1, 0.2], [0.1, 0.3]):
        san = SimSanitizer(strict=True, trace=True)
        sim = make_sim(san)
        drive(sim, delays)
        sans.append(san)
    assert sans[0].trace_digest() != sans[1].trace_digest()
    div = SimSanitizer.first_divergence(sans[0], sans[1])
    assert div["step"] == 1
    assert div["run_a"][0] == 0.2 and div["run_b"][0] == 0.3


def test_first_divergence_length_mismatch():
    sans = []
    for delays in ([0.1], [0.1, 0.2]):
        san = SimSanitizer(strict=True, trace=True)
        sim = make_sim(san)
        drive(sim, delays)
        sans.append(san)
    div = SimSanitizer.first_divergence(sans[0], sans[1])
    assert div["step"] == 1
    assert div["run_a"] is None and div["run_b"] is not None


def test_first_divergence_requires_tracing():
    with pytest.raises(ValueError):
        SimSanitizer.first_divergence(SimSanitizer(), SimSanitizer())


def test_tie_audit_counts_runs():
    san = SimSanitizer(strict=True)
    sim = make_sim(san)
    # Three events at t=1 (one tie run of 3) and one lone event at t=2.
    drive(sim, [1.0, 1.0, 1.0, 2.0])
    rep = san.tie_report()
    assert rep["steps"] == 4
    assert rep["tie_pops"] == 2      # pops 2 and 3 tied with a predecessor
    assert rep["tie_runs"] == 1
    assert rep["max_tie_run"] == 3


# ----------------------------------------------------------------------
# Ring audit
# ----------------------------------------------------------------------
def _ring(depth, now=0.0):
    return SimpleNamespace(depth=depth, sim=SimpleNamespace(now=now))


def test_ring_audit_accepts_bounded_fifo():
    san = SimSanitizer(strict=True)
    # depth 2: completions two apart are monotone.
    san.check_ring(_ring(2), np.array([1.0, 1.5, 2.0, 2.5]))
    assert san.clean


def test_ring_audit_rejects_completion_before_submission():
    san = SimSanitizer(strict=True)
    with pytest.raises(SanitizerError, match="before"):
        san.check_ring(_ring(2, now=5.0), np.array([4.0, 6.0]))


def test_ring_audit_rejects_overdeep_window():
    san = SimSanitizer(strict=True)
    # done[2] < done[0] with depth 2 implies 3 requests in flight.
    with pytest.raises(SanitizerError, match="in flight"):
        san.check_ring(_ring(2), np.array([3.0, 3.5, 2.0, 4.0]))


# ----------------------------------------------------------------------
# Leak detector and invariant registry (on a real machine)
# ----------------------------------------------------------------------
def sanitizing_machine():
    return Machine(MachineSpec(host_capacity=GB, sanitize=True))


def test_epoch_leak_is_reported_by_tag():
    m = sanitizing_machine()
    san = m.sanitizer
    san.epoch_begin()
    m.host.allocate(4096, tag="staging")
    with pytest.raises(SanitizerError, match=r"host:staging.*leaked 4096"):
        san.epoch_end()


def test_epoch_device_leak_is_reported():
    m = sanitizing_machine()
    m.sanitizer.epoch_begin()
    m.gpus[0].allocate(512, tag="activations")
    with pytest.raises(SanitizerError, match="gpu0:activations"):
        m.sanitizer.epoch_end()


def test_balanced_epoch_is_clean():
    m = sanitizing_machine()
    m.sanitize_epoch_begin()
    a = m.host.allocate(4096, tag="staging")
    m.gpus[0].allocate(512, tag="activations")
    m.gpus[0].free(512, tag="activations")
    m.host.free(a)
    m.sanitize_epoch_end()
    assert m.sanitizer.clean
    assert m.sanitizer.epochs_checked == 1


def test_baseline_allocations_do_not_count_as_leaks():
    m = sanitizing_machine()
    m.host.allocate(8192, tag="indptr")  # pinned before the epoch
    m.sanitize_epoch_begin()
    m.sanitize_epoch_end()
    assert m.sanitizer.clean


def test_register_requires_check_invariants():
    with pytest.raises(TypeError):
        SimSanitizer().register(object())


def test_registered_invariants_run_at_epoch_end():
    class Corrupt:
        def check_invariants(self):
            raise SimulationError("boom")

    m = sanitizing_machine()
    m.sanitizer.register(Corrupt())
    m.sanitize_epoch_begin()
    with pytest.raises(SimulationError, match="boom"):
        m.sanitize_epoch_end()


def test_memory_invariant_checkers_pass_on_live_machine():
    m = sanitizing_machine()
    m.host.allocate(4096, tag="x")
    m.gpus[0].allocate(64, tag="y")
    m.sanitizer.check_registered()


def test_machine_without_sanitize_has_noop_hooks():
    m = Machine(MachineSpec(host_capacity=GB))
    assert m.sanitizer is None
    assert m.sim.sanitizer is None
    m.sanitize_epoch_begin()
    m.sanitize_epoch_end()
