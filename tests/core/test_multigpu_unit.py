"""Unit tests for gradient synchronisation and dataset views."""

import numpy as np
import pytest

from repro.core.multigpu import GradientSyncGroup, _dataset_view
from repro.graph import make_dataset
from repro.models import make_model
from repro.simcore import Simulator
from repro.tensor import Tensor, matmul


def make_models(n, seed=0):
    return [make_model("sage", 8, 4, 3, num_layers=1, seed=seed)
            for _ in range(n)]


def backward_once(model, x):
    out = model(Tensor(x), _one_layer_subgraph())
    out.backward(np.ones_like(out.data))


def _one_layer_subgraph():
    from repro.sampling import LayerAdj, SampledSubgraph
    seeds = np.array([0, 1])
    return SampledSubgraph(
        seeds=seeds, all_nodes=np.array([0, 1, 2]),
        layers=[LayerAdj(np.array([2, 2]), np.array([0, 1]), 3, 2)],
        hop_frontiers=[seeds])


def test_allreduce_time_formula():
    sim = Simulator()
    g = GradientSyncGroup(sim, num_workers=4, model_bytes=8_000_000,
                          link_bandwidth=8e9, latency=0.0)
    expected = 2 * 3 / 4 * 8_000_000 / 8e9
    assert g.allreduce_time() == pytest.approx(expected)
    g1 = GradientSyncGroup(sim, 1, 8_000_000)
    assert g1.allreduce_time() == 0.0


def test_single_worker_sync_is_noop():
    sim = Simulator()
    g = GradientSyncGroup(sim, 1, 1000)
    model = make_models(1)[0]

    def proc(sim):
        yield from g.sync(0, model)
        return sim.now
        yield  # pragma: no cover

    # Generator with no yields consumed via run: returns immediately.
    gen = g.sync(0, model)
    assert list(gen) == []


def test_barrier_averages_gradients_across_replicas():
    sim = Simulator()
    g = GradientSyncGroup(sim, 2, 1000, latency=0.0)
    m0, m1 = make_models(2)
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal((3, 8)).astype(np.float32)
    x1 = rng.standard_normal((3, 8)).astype(np.float32)
    backward_once(m0, x0)
    backward_once(m1, x1)
    grads_before = [
        [p.grad.copy() for p in m.parameters()] for m in (m0, m1)
    ]

    def worker(sim, wid, model):
        yield from g.sync(wid, model)

    sim.drain([sim.process(worker(sim, 0, m0)),
               sim.process(worker(sim, 1, m1))])
    for i, (p0, p1) in enumerate(zip(m0.parameters(), m1.parameters())):
        expected = (grads_before[0][i] + grads_before[1][i]) / 2
        np.testing.assert_allclose(p0.grad, expected, rtol=1e-5)
        np.testing.assert_allclose(p1.grad, expected, rtol=1e-5)
    assert g.syncs == 1


def test_barrier_blocks_until_all_arrive():
    sim = Simulator()
    g = GradientSyncGroup(sim, 2, 1000, latency=0.0)
    m0, m1 = make_models(2)
    backward_once(m0, np.ones((3, 8), dtype=np.float32))
    backward_once(m1, np.ones((3, 8), dtype=np.float32))
    times = {}

    def early(sim):
        yield from g.sync(0, m0)
        times["early"] = sim.now

    def late(sim):
        yield sim.timeout(5.0)
        yield from g.sync(1, m1)
        times["late"] = sim.now

    sim.drain([sim.process(early(sim)), sim.process(late(sim))])
    assert times["early"] >= 5.0  # waited for the straggler


def test_double_arrival_rejected():
    sim = Simulator()
    g = GradientSyncGroup(sim, 2, 1000)
    m = make_models(1)[0]
    gen = g.sync(0, m)
    next(gen)  # parked at barrier
    with pytest.raises(ValueError, match="double-arrived"):
        list(g.sync(0, m))


def test_sync_group_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        GradientSyncGroup(sim, 0, 1000)


def test_dataset_view_shares_everything_but_split():
    ds = make_dataset("tiny", seed=0)
    from repro.storage import FileCatalog
    ds.mount(FileCatalog())
    subset = ds.train_idx[:10]
    view = _dataset_view(ds, subset)
    assert view.graph is ds.graph
    assert view.features is ds.features
    assert view.topo_handle is ds.topo_handle
    assert np.array_equal(view.train_idx, subset)
    assert np.array_equal(view.val_idx, ds.val_idx)


def test_group_trains_only_its_workers_models():
    """The group builds no model or optimizer of its own: it evaluates
    worker 0's model, and the allreduce payload is that model's size."""
    from repro.bench.runner import build_system, get_dataset
    from repro.core.base import TrainConfig
    from repro.machine import DEFAULT_SCALE, Machine, MachineSpec

    machine = Machine(MachineSpec.paper_scaled(host_gb=32,
                                               scale=DEFAULT_SCALE,
                                               num_gpus=2))
    group = build_system("multigpu", machine, get_dataset("tiny"),
                         TrainConfig(), num_workers=2)
    try:
        stats = group.run_epochs(1)
    finally:
        group.shutdown()
        group.teardown()
    assert stats[0].num_batches > 0
    assert not hasattr(group, "optimizer")
    assert group.model is group.workers[0].model
    assert all(w.optimizer._t > 0 for w in group.workers)
    assert sum(w.optimizer._t for w in group.workers) == \
        stats[0].num_batches
    assert group.shared.sync_group.model_bytes == \
        group.workers[0].model.num_parameters() * 4
