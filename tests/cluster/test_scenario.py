"""Cluster scenarios and plans: JSON round-trips, oracle gating, CLI."""

import json
import math
import os
from dataclasses import fields

import pytest

from repro.cluster import ClusterConfig, ClusterScenario
from repro.errors import ConfigError
from repro.faults import SHARD_KINDS, FaultPlan, load_plan
from repro.oracle.oracles import ClusterLoadP99Monotone
from repro.oracle.scenario import Scenario, ScenarioRunner

pytestmark = pytest.mark.cluster

EXAMPLE_PLAN = os.path.join(os.path.dirname(__file__), os.pardir,
                            os.pardir, "examples",
                            "cluster_chaos_plan.json")


def test_scenario_json_round_trip():
    sc = ClusterScenario(name="rt", rate=1234.5, num_requests=77,
                         num_shards=6, replication=3, partition="degree",
                         popularity="zipf", zipf_alpha=1.7,
                         rate_shape="flash", fault_plan="shard-chaos",
                         seed=42)
    d = sc.to_dict()
    assert ClusterScenario.from_dict(json.loads(json.dumps(d))) == sc


def test_scenario_validation():
    with pytest.raises(ValueError):
        ClusterScenario(name="bad", fault_plan="meteor-strike")
    with pytest.raises(ValueError):
        ClusterScenario(name="bad", pool="train")
    with pytest.raises(ValueError):
        ClusterScenario(name="bad", fault_plan="shard-chaos",
                        fault_plan_file="plan.json")


def test_example_cluster_plan_round_trips():
    """The committed example plan loads, targets only shard faults, and
    survives a JSON round-trip unchanged."""
    plan = load_plan(EXAMPLE_PLAN)
    assert plan.shard_specs
    assert all(s.kind in SHARD_KINDS for s in plan.specs)
    assert {s.kind for s in plan.specs} == set(SHARD_KINDS)
    again = FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
    assert again == plan


def test_example_plan_drives_a_cluster_run():
    from repro.cluster import run_cluster_scenario
    sc = ClusterScenario(name="example-plan", rate=1200.0,
                         num_requests=250, slo=0.2,
                         fault_plan_file=EXAMPLE_PLAN, seed=7)
    run = run_cluster_scenario(sc)
    assert run.ok and run.findings == []
    run.stats.check_accounting()
    assert run.stats.faults.get("injected_shard_down", 0) >= 1
    assert run.stats.failed == 0


def test_cluster_oracle_gated_off_under_chaos():
    """ClusterLoadP99Monotone only applies to fault-free scenarios —
    chaos windows are wall-clock anchored, so the load-halving
    metamorphic law legitimately breaks under them."""
    oracle = ClusterLoadP99Monotone()
    clean = ScenarioRunner(Scenario(name="clean", dataset="tiny"))
    chaotic = ScenarioRunner(Scenario(name="chaotic", dataset="tiny",
                                      fault_plan="chaos"))
    assert oracle.applicable(clean)
    assert not oracle.applicable(chaotic)


def test_cluster_oracle_in_catalogue():
    from repro.oracle import ORACLES
    assert any(o.name == "cluster-load-p99-monotone" for o in ORACLES)


def test_cli_lists_cluster_and_runs(capsys):
    from repro.cli import main
    with pytest.raises(SystemExit):
        main(["--help"])
    assert "cluster" in capsys.readouterr().out
    rc = main(["cluster", "--requests", "80", "--rate", "400",
               "--slo", "0.5", "--seed", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "SLO attainment" in out


def test_cli_cluster_faults_and_preset_are_exclusive(capsys):
    from repro.cli import main
    rc = main(["cluster", "--shard-chaos", "--faults", EXAMPLE_PLAN])
    assert rc != 0


CLUSTER_FLOAT_FIELDS = [f.name for f in fields(ClusterConfig)
                        if f.type in ("float", float)]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", CLUSTER_FLOAT_FIELDS)
def test_cluster_config_rejects_non_finite_floats(field, value):
    with pytest.raises(ConfigError, match=f"^{field} must be finite"):
        ClusterConfig(**{field: value})
