"""ServeScenario round-trips and validation."""

import json
import math
from dataclasses import fields

import pytest

from repro.errors import ConfigError
from repro.serve import ServeConfig, ServeScenario

pytestmark = pytest.mark.serve


def test_dict_round_trip():
    s = ServeScenario(name="rt", dataset="tiny", backend="sync",
                      kind="closed", rate=42.0, num_requests=7,
                      num_replicas=2, fault_plan="chaos", seed=3)
    assert ServeScenario.from_dict(s.to_dict()) == s


def test_json_round_trip():
    s = ServeScenario(name="rt-json", max_wait=0.0, slo=0.01)
    blob = json.dumps(s.to_dict())
    assert ServeScenario.from_dict(json.loads(blob)) == s


def test_with_override():
    s = ServeScenario(name="base")
    assert s.with_(rate=999.0).rate == 999.0
    assert s.rate != 999.0


def test_validation_delegates():
    with pytest.raises(ValueError):
        ServeScenario(name="bad", fault_plan="mystery")
    with pytest.raises(ValueError):
        ServeScenario(name="bad", dataset_scale=0.0)
    with pytest.raises(Exception):
        ServeScenario(name="bad", backend="turbo")
    with pytest.raises(Exception):
        ServeScenario(name="bad", kind="bursty")


def test_builders_reflect_fields():
    s = ServeScenario(name="b", backend="sync", kind="poisson",
                      rate=10.0, num_requests=5, slo=0.2,
                      max_batch_size=3, max_wait=0.0, num_replicas=2,
                      queue_capacity=9, model_kind="gcn", seed=5)
    w = s.workload_spec()
    assert (w.kind, w.rate, w.num_requests, w.seed) == \
        ("poisson", 10.0, 5, 5)
    c = s.serve_config()
    assert (c.backend, c.slo, c.max_batch_size, c.max_wait,
            c.num_replicas, c.queue_capacity) == \
        ("sync", 0.2, 3, 0.0, 2, 9)
    assert s.train_config().model_kind == "gcn"
    assert s.machine_spec().num_gpus == 2
    assert s.resolve_fault_plan() is None


FLOAT_FIELDS = [f.name for f in fields(ServeConfig)
                if f.type in ("float", float)]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", FLOAT_FIELDS)
def test_serve_config_rejects_non_finite_floats(field, value):
    with pytest.raises(ConfigError, match=f"^{field} must be finite"):
        ServeConfig(**{field: value})
