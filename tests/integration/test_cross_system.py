"""Cross-system integration: all five systems on the same workload.

These are the repo's end-to-end guarantees: every system trains the
same model family on the same data with real gradients, results are
deterministic per seed, and the paper's qualitative ordering holds on
a small-but-contended configuration.
"""

import itertools

import numpy as np
import pytest

from repro.bench.runner import (SYSTEM_NAMES, build_system, get_dataset,
                                run_system)
from repro.cluster import ClusterScenario, ClusterSim
from repro.core import base, driver
from repro.core.base import TrainConfig
from repro.machine import DEFAULT_SCALE, Machine, MachineSpec
from repro.serve import InferenceServer, ServeScenario, server

SCALE = 0.15  # extra-small for integration-test speed


@pytest.fixture(scope="module")
def ds():
    return get_dataset("papers100m-mini", scale=SCALE)


@pytest.fixture(scope="module")
def tc():
    return TrainConfig(model_kind="sage", batch_size=10)


@pytest.fixture(scope="module")
def results(ds, tc):
    out = {}
    for system in SYSTEM_NAMES:
        out[system] = run_system(system, ds, tc, epochs=2, warmup_epochs=1,
                                 data_scale=SCALE, eval_every=1)
    return out


def test_all_systems_complete(results):
    for system, r in results.items():
        assert r.ok, f"{system} failed: {r.status} {r.error}"


def test_all_systems_learn(results):
    for system, r in results.items():
        losses = [s.loss for s in r.stats]
        assert losses[-1] < losses[0] * 1.1, f"{system} not learning"
        assert r.stats[-1].val_acc > 0.0


def test_gnndrive_wins_under_contention(results):
    g = results["gnndrive-gpu"].epoch_time
    assert results["pyg+"].epoch_time > 1.5 * g
    assert results["ginex"].epoch_time > g
    assert results["mariusgnn"].epoch_time > g


def test_cpu_variant_slower_but_close_for_sage(results):
    g = results["gnndrive-gpu"].epoch_time
    c = results["gnndrive-cpu"].epoch_time
    assert 1.0 <= c / g < 5.0


def test_determinism_same_seed(ds, tc):
    a = run_system("gnndrive-gpu", ds, tc, epochs=1, warmup_epochs=1,
                   data_scale=SCALE)
    b = run_system("gnndrive-gpu", ds, tc, epochs=1, warmup_epochs=1,
                   data_scale=SCALE)
    assert a.epoch_time == b.epoch_time
    assert [s.loss for s in a.stats] == [s.loss for s in b.stats]


def test_different_seed_changes_trajectory(ds, tc):
    a = run_system("gnndrive-gpu", ds, tc, epochs=1, warmup_epochs=0,
                   data_scale=SCALE)
    b = run_system("gnndrive-gpu", ds, tc.with_(seed=7), epochs=1,
                   warmup_epochs=0, data_scale=SCALE)
    assert [s.loss for s in a.stats] != [s.loss for s in b.stats]


def test_shared_dataset_is_not_mutated(ds, tc):
    before = ds.features.features.copy()
    run_system("mariusgnn", ds, tc, epochs=1, warmup_epochs=0,
               data_scale=SCALE)
    np.testing.assert_array_equal(ds.features.features, before)


def test_epoch_stats_fields_populated(results):
    for system, r in results.items():
        last = r.stats[-1]
        assert last.num_batches > 0
        assert last.bytes_read >= 0
        assert last.epoch_time > 0
        assert np.isfinite(last.loss)


@pytest.mark.parametrize("system,workers", [("ginex", 1), ("mariusgnn", 1),
                                            ("multigpu", 2)])
def test_out_of_time(ds, tc, system, workers):
    """A budget halfway into the second epoch ends the run as OOT
    without dispatching an event past it."""
    kw = dict(epochs=2, warmup_epochs=0, data_scale=SCALE,
              num_workers=workers, num_gpus=workers)
    first, second = [s.epoch_time
                     for s in run_system(system, ds, tc, **kw).stats]
    budget = first + second / 2
    r = run_system(system, ds, tc, time_budget=budget, keep_machine=True,
                   **kw)
    assert r.status == "OOT", r.error
    assert first < r.machine.sim.now <= budget


class Sentinel(Exception):
    """The failure injected into one actor mid-run."""


def _raise_on_call(fn, n):
    """*fn*, except that its *n*-th call raises :class:`Sentinel`."""
    calls = itertools.count(1)

    def wrapper(*args, **kwargs):
        if next(calls) == n:
            raise Sentinel(f"call {n} of {fn.__name__}")
        return fn(*args, **kwargs)
    return wrapper


def _train(system, workers=1):
    def run(ds, tc):
        machine = Machine(MachineSpec.paper_scaled(
            host_gb=32, scale=DEFAULT_SCALE * SCALE, num_gpus=workers))
        build_system(system, machine, ds, tc,
                     num_workers=workers).run_epochs(2)
    return run


def _serve(**kw):
    def run(ds, tc):
        sc = ServeScenario(name="actor-failure", num_requests=40, **kw)
        InferenceServer(Machine(sc.machine_spec()), get_dataset("tiny"),
                        config=sc.serve_config(),
                        workload=sc.workload_spec(),
                        train_cfg=sc.train_config()).run()
    return run


def _cluster(ds, tc):
    sc = ClusterScenario(name="actor-failure", num_requests=200)
    ClusterSim(Machine(sc.machine_spec()), get_dataset("tiny"),
               config=sc.cluster_config(), workload=sc.workload_spec(),
               slo=sc.slo).run()


#: run -> (owner and name of a function one of its actors calls, the
#: call that fails, the driver)
ACTOR_FAILURES = {
    "gnndrive-gpu": (driver, "forward_backward", 3, _train("gnndrive-gpu")),
    "gnndrive-cpu": (driver, "forward_backward", 3, _train("gnndrive-cpu")),
    "pyg+": (base, "train_step", 3, _train("pyg+")),
    "ginex": (base, "train_step", 3, _train("ginex")),
    "mariusgnn": (base, "train_step", 3, _train("mariusgnn")),
    "multigpu-2": (driver, "forward_backward", 3, _train("multigpu", 2)),
    "serve": (server, "predict", 3, _serve()),
    "serve-resilience": (server, "predict", 3,
                         _serve(fault_plan="replica-chaos", num_replicas=2)),
    "cluster": (ClusterSim, "_complete_batch", 5, _cluster),
}


@pytest.mark.parametrize("run", list(ACTOR_FAILURES))
def test_actor_failure_escapes_the_run(ds, tc, monkeypatch, run):
    """An actor's unhandled exception ends the run that drives it: not
    a deadlock report, and not a normal finish."""
    owner, name, n, drive = ACTOR_FAILURES[run]
    monkeypatch.setattr(owner, name, _raise_on_call(getattr(owner, name), n))
    with pytest.raises(Sentinel):
        drive(ds, tc)
