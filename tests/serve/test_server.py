"""End-to-end serving runs on the tiny dataset under the sanitizer."""

import pytest

from repro.serve import ServeScenario, run_serve_scenario

pytestmark = pytest.mark.serve

BASE = ServeScenario(name="t-serve", dataset="tiny", rate=300.0,
                     num_requests=24, slo=0.05)


def _run_ok(scenario):
    run = run_serve_scenario(scenario)
    assert run.ok, run.error
    assert run.clean, run.findings
    run.stats.check_accounting()
    return run


def test_async_backend_end_to_end():
    run = _run_ok(BASE)
    s = run.stats
    assert s.backend == "async"
    assert s.offered == 24
    assert s.completed + s.shed + s.timed_out == s.offered
    assert s.completed > 0 and s.duration > 0
    assert s.num_batches > 0
    assert s.loaded_nodes > 0            # features came off the disk path
    assert s.goodput <= s.throughput + 1e-12
    assert 0.0 <= s.slo_attainment <= 1.0


def test_async_warm_standby_reuses_nodes():
    run = _run_ok(BASE.with_(num_requests=40))
    assert run.stats.reused_nodes > 0    # feature buffer kept rows warm


def test_sync_backend_end_to_end():
    run = _run_ok(BASE.with_(backend="sync"))
    s = run.stats
    assert s.backend == "sync"
    assert s.completed + s.shed + s.timed_out == s.offered
    assert s.cache_misses > 0            # went through the page cache


def test_same_seed_same_digest():
    r1 = run_serve_scenario(BASE)
    r2 = run_serve_scenario(BASE)
    assert r1.ok and r2.ok
    assert r1.digest and r1.digest == r2.digest
    assert r1.stats.completed == r2.stats.completed
    assert r1.stats.latency_p99 == r2.stats.latency_p99


def test_multi_replica_scale_out():
    run = _run_ok(BASE.with_(num_replicas=2, num_requests=32))
    s = run.stats
    assert s.completed + s.shed + s.timed_out == 32
    assert s.completed > 0


def test_closed_loop_clients():
    run = _run_ok(BASE.with_(kind="closed", num_requests=16))
    s = run.stats
    assert s.completed == 16             # closed loop never sheds
    assert s.shed == 0 and s.timed_out == 0


def test_overload_sheds_but_accounts():
    """A tiny queue under a burst sheds; the identity still holds."""
    run = run_serve_scenario(BASE.with_(rate=50000.0, num_requests=40,
                                        queue_capacity=2,
                                        max_batch_size=2))
    assert run.ok, run.error
    s = run.stats
    assert s.shed > 0
    s.check_accounting()
    assert s.completed + s.shed + s.timed_out == 40


@pytest.mark.faults
def test_chaos_plan_survival():
    run = _run_ok(BASE.with_(fault_plan="chaos", num_requests=32))
    s = run.stats
    assert s.faults.get("injected", 0) > 0
    assert s.completed + s.shed + s.timed_out == 32


def test_server_rejects_fanouts_not_matching_layers():
    """The model/fanout check runs at construction, as for training."""
    from repro.bench.runner import get_dataset
    from repro.core.base import TrainConfig
    from repro.machine import Machine
    from repro.serve.server import InferenceServer

    cfg = TrainConfig(num_layers=2)
    machine = Machine(BASE.machine_spec())
    with pytest.raises(ValueError, match="do not match 2 model layers"):
        InferenceServer(machine, get_dataset("tiny"),
                        config=BASE.serve_config(),
                        workload=BASE.workload_spec(), train_cfg=cfg)
