"""Replica fault kinds: spec validation, episodes, draws, ledger."""

import os

import pytest

from repro.errors import ConfigError, SimulationError
from repro.faults import (
    REPLICA_KINDS,
    FaultInjector,
    FaultLedger,
    FaultPlan,
    FaultSpec,
    default_replica_chaos_plan,
    load_plan,
)

EXAMPLE_PLAN = os.path.join(os.path.dirname(__file__), "..", "..",
                            "examples", "replica_chaos_plan.json")


# ----------------------------------------------------------------------
# Spec validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kwargs", [
    # replica targeting is exclusive to replica_* kinds
    dict(fault_id="x", kind="read_error", replica=0),
    dict(fault_id="x", kind="tail_latency", factor=2.0, replica=1),
    # replica index must be -1 (any) or a concrete >= 0
    dict(fault_id="x", kind="replica_crash", duration=1.0, replica=-2),
    # replica episodes need a finite duration (the recovery point)
    dict(fault_id="x", kind="replica_crash"),
    dict(fault_id="x", kind="replica_hang"),
    # slowdown must actually slow down
    dict(fault_id="x", kind="replica_slow", duration=1.0, factor=1.0),
    dict(fault_id="x", kind="replica_slow", duration=1.0, factor=0.5),
])
def test_invalid_replica_specs_raise(kwargs):
    with pytest.raises(ConfigError):
        FaultSpec(**kwargs)


def test_valid_replica_specs():
    crash = FaultSpec("c", "replica_crash", replica=1, duration=0.01)
    assert crash.replica == 1
    anyrep = FaultSpec("s", "replica_slow", factor=4.0, duration=0.01)
    assert anyrep.replica == -1          # untargeted: drawn per episode


def test_replica_kinds_registered():
    assert set(REPLICA_KINDS) == {"replica_crash", "replica_hang",
                                  "replica_slow"}


# ----------------------------------------------------------------------
# Episode math
# ----------------------------------------------------------------------
def test_episode_start_one_shot():
    s = FaultSpec("c", "replica_crash", duration=0.01, start=0.5)
    assert s.episode_start(0) == 0.5
    assert s.episode_start(1) is None
    with pytest.raises(ValueError):
        s.episode_start(-1)


def test_episode_start_periodic():
    s = FaultSpec("c", "replica_crash", duration=0.01, start=0.5,
                  period=0.2, repeats=3)
    assert s.episode_start(0) == 0.5
    assert s.episode_start(2) == pytest.approx(0.9)
    assert s.episode_start(3) is None    # beyond the repeat bound


def test_episode_start_unbounded_periodic():
    s = FaultSpec("c", "replica_hang", duration=0.01, period=1.0)
    assert s.episode_start(10) == pytest.approx(10.0)


# ----------------------------------------------------------------------
# Injector draws
# ----------------------------------------------------------------------
def test_draw_replica_targeted_and_any():
    plan = default_replica_chaos_plan()
    inj = FaultInjector(plan)
    targeted = next(s for s in plan.specs if s.replica >= 0)
    assert inj.draw_replica(targeted, 8) == targeted.replica
    # Targeting wraps rather than pointing off the end of the fleet.
    assert inj.draw_replica(targeted, 1) == 0
    anyrep = next(s for s in plan.specs if s.replica == -1)
    draws = {inj.draw_replica(anyrep, 4) for _ in range(64)}
    assert draws <= set(range(4)) and len(draws) > 1
    with pytest.raises(SimulationError):
        inj.draw_replica(anyrep, 0)


def test_draw_replica_deterministic_per_stream():
    plan = default_replica_chaos_plan()
    spec = next(s for s in plan.specs if s.replica == -1)
    a = [FaultInjector(plan).draw_replica(spec, 4) for _ in range(8)]
    b = [FaultInjector(plan).draw_replica(spec, 4) for _ in range(8)]
    assert a == b                        # fresh injector, same stream


def test_draw_episode_respects_probability():
    always = FaultSpec("a", "replica_crash", duration=0.01)
    inj = FaultInjector(FaultPlan((always,)))
    assert all(inj.draw_episode(always) for _ in range(16))


def test_replica_specs_split():
    plan = default_replica_chaos_plan()
    inj = FaultInjector(plan)
    assert len(inj.replica_specs) == 3
    assert all(s.kind in REPLICA_KINDS for s in inj.replica_specs)
    assert plan.replica_specs


# ----------------------------------------------------------------------
# Ledger counters and invariants
# ----------------------------------------------------------------------
def test_ledger_replica_counters_start_zero():
    led = FaultLedger()
    d = led.as_dict()
    for key in ("injected_crash", "injected_hang", "injected_slow",
                "replica_restarts", "failovers", "orphaned",
                "orphan_failed", "hedges", "hedge_wins",
                "hedge_discards", "ejections", "readmissions",
                "brownouts", "replica_down_time", "brownout_time"):
        assert d[key] == 0
    led.check_invariants()


@pytest.mark.parametrize("counters", [
    {"replica_restarts": 1},                       # restart w/o crash
    {"ejections": 1, "readmissions": 2},           # readmit w/o eject
    {"hedges": 1, "hedge_wins": 1, "hedge_discards": 1},
    {"orphaned": 1, "failovers": 1, "orphan_failed": 1},
])
def test_ledger_imbalance_raises(counters):
    led = FaultLedger()
    for key, val in counters.items():
        setattr(led, key, val)
    with pytest.raises(SimulationError):
        led.check_invariants()


def test_ledger_balanced_replica_story():
    led = FaultLedger()
    led.injected_crash = 2
    led.replica_restarts = 2
    led.ejections = 2
    led.readmissions = 2
    led.orphaned = 3
    led.failovers = 2
    led.orphan_failed = 1
    led.hedges = 4
    led.hedge_wins = 2
    led.hedge_discards = 2
    led.check_invariants()
    assert led.injected_replica == 2


# ----------------------------------------------------------------------
# JSON round-trip (incl. the shipped example plan)
# ----------------------------------------------------------------------
def test_replica_plan_round_trip(tmp_path):
    plan = default_replica_chaos_plan()
    assert FaultPlan.from_dict(plan.to_dict()) == plan
    path = tmp_path / "rplan.json"
    plan.save(str(path))
    assert load_plan(str(path)) == plan


def test_replica_field_omitted_when_untargeted():
    plan = FaultPlan((
        FaultSpec("s", "replica_slow", factor=2.0, duration=0.01),
        FaultSpec("c", "replica_crash", replica=2, duration=0.01),
    ))
    slow, crash = plan.to_dict()["specs"]
    assert "replica" not in slow
    assert crash["replica"] == 2


def test_shipped_example_plan_loads():
    plan = load_plan(EXAMPLE_PLAN)
    assert plan == default_replica_chaos_plan()
