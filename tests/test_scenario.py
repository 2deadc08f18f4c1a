"""The one scenario harness: the shared base's checks and the sanitized
run every plane's scenario goes through."""

import math
from dataclasses import fields

import pytest

from repro.bench.runner import get_dataset
from repro.cluster import ClusterScenario, ClusterSim
from repro.errors import ConfigError, OutOfMemoryError, OutOfTimeError
from repro.faults import default_chaos_plan
from repro.machine import Machine, MachineSpec
from repro.oracle import Scenario
from repro.scenario import run_sanitized
from repro.serve import ServeScenario

SCENARIO_FLOAT_FIELDS = [
    (cls, f.name) for cls in (Scenario, ServeScenario, ClusterScenario)
    for f in fields(cls) if f.type in ("float", float)]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "cls,field", SCENARIO_FLOAT_FIELDS,
    ids=[f"{cls.__name__}.{name}" for cls, name in SCENARIO_FLOAT_FIELDS])
def test_scenarios_reject_non_finite_floats(cls, field, value):
    with pytest.raises(ConfigError, match=f"^{field} must be finite"):
        cls(name="bad", **{field: value})


def test_cluster_sim_rejects_an_infinite_slo():
    """Deadlines at infinity never fire, so such a run would report a
    perfect attainment it never had to earn."""
    sc = ClusterScenario(name="inf-slo")
    with pytest.raises(ConfigError, match="^slo must be positive"):
        ClusterSim(Machine(sc.machine_spec()), get_dataset("tiny"),
                   config=sc.cluster_config(),
                   workload=sc.workload_spec(), slo=math.inf)


def test_cluster_sim_rejects_a_closed_workload():
    """The router admits from a precomputed arrival array, which cannot
    express arrivals that wait on completions."""
    sc = ClusterScenario(name="closed")
    with pytest.raises(ConfigError, match="workload kind must be poisson"):
        ClusterSim(Machine(sc.machine_spec()), get_dataset("tiny"),
                   config=sc.cluster_config(),
                   workload=sc.workload_spec().with_(kind="closed"),
                   slo=sc.slo)


def _machine(plan=None) -> Machine:
    return Machine(MachineSpec.paper_scaled(
        sanitize=True, sanitize_trace=True, faults=plan))


def _unbalance(machine: Machine) -> None:
    ledger = machine.faults.ledger
    ledger.recovered = ledger.injected + ledger.retried + 1


@pytest.mark.parametrize("exc,status", [
    (OutOfMemoryError(4096, 1024), "OOM"),
    (OutOfTimeError(1.0), "OOT"),
], ids=["OOM", "OOT"])
def test_run_sanitized_reports_oom_and_oot_as_a_status(exc, status):
    machine = _machine(default_chaos_plan())

    def body():
        _unbalance(machine)
        raise exc

    run = run_sanitized(machine, body)
    assert (run.status, run.stats, run.error) == (status, None, str(exc))
    assert not run.ok
    # The ledger is checked after a completed run only.
    assert run.clean
    assert len(run.digest) == 64


def test_run_sanitized_checks_the_fault_ledger_after_a_completed_run():
    machine = _machine(default_chaos_plan())

    def body():
        _unbalance(machine)
        return "stats"

    run = run_sanitized(machine, body)
    assert run.ok and run.stats == "stats"
    assert len(run.findings) == 1
    assert run.findings[0].startswith("fault-ledger: fault ledger out of "
                                      "balance")


def test_run_sanitized_lets_other_errors_escape():
    def body():
        raise KeyError("not a scenario outcome")

    with pytest.raises(KeyError):
        run_sanitized(_machine(), body)
