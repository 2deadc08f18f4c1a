"""Tests for the three GNN models: shapes, gradients, learning."""

import numpy as np
import pytest

from repro.core.base import scaled_default_fanouts
from repro.graph import make_dataset
from repro.models import GAT, GCN, GraphSAGE, Adam, make_model
from repro.models.train import accuracy, train_step
from repro.sampling import NeighborSampler
from repro.tensor import Tensor, softmax_cross_entropy


@pytest.fixture(scope="module")
def tiny():
    ds = make_dataset("tiny", seed=0)
    sampler = NeighborSampler(ds.graph, (4, 4), np.random.default_rng(1))
    sub = sampler.sample(ds.train_idx[:16])
    return ds, sampler, sub


@pytest.mark.parametrize("kind", ["sage", "gcn", "gat"])
def test_forward_output_shape(tiny, kind):
    ds, _, sub = tiny
    model = make_model(kind, ds.dim, 16, ds.num_classes, num_layers=2, seed=0)
    feats = ds.features.gather(sub.all_nodes)
    logits = model(Tensor(feats), sub)
    assert logits.data.shape == (len(sub.seeds), ds.num_classes)
    assert np.isfinite(logits.data).all()


@pytest.mark.parametrize("kind", ["sage", "gcn", "gat"])
def test_all_parameters_receive_gradients(tiny, kind):
    ds, _, sub = tiny
    model = make_model(kind, ds.dim, 16, ds.num_classes, num_layers=2, seed=0)
    feats = ds.features.gather(sub.all_nodes)
    logits = model(Tensor(feats), sub)
    loss = softmax_cross_entropy(logits, ds.labels[sub.seeds])
    loss.backward()
    for name, p in model.named_parameters():
        assert p.grad is not None, f"no grad for {name}"
        assert np.isfinite(p.grad).all(), f"non-finite grad for {name}"
        # At least the top layers must receive signal.
    grads = [np.abs(p.grad).max() for p in model.parameters()]
    assert max(grads) > 0


@pytest.mark.parametrize("kind", ["sage", "gcn", "gat"])
def test_training_reduces_loss(tiny, kind):
    ds, sampler, _ = tiny
    model = make_model(kind, ds.dim, 16, ds.num_classes, num_layers=2, seed=0)
    opt = Adam(model.parameters(), lr=5e-3)
    rng = np.random.default_rng(0)
    losses = []
    for step in range(30):
        seeds = rng.choice(ds.train_idx, size=32, replace=False)
        sub = sampler.sample(seeds)
        feats = ds.features.gather(sub.all_nodes)
        loss, _ = train_step(model, opt, feats, sub, ds.labels)
        losses.append(loss)
    assert np.mean(losses[-5:]) < np.mean(losses[:5]) * 0.8


def test_sage_learns_above_chance(tiny):
    ds, sampler, _ = tiny
    model = make_model("sage", ds.dim, 32, ds.num_classes, num_layers=2, seed=0)
    opt = Adam(model.parameters(), lr=5e-3)
    rng = np.random.default_rng(0)
    for _ in range(60):
        seeds = rng.choice(ds.train_idx, size=50, replace=False)
        sub = sampler.sample(seeds)
        loss, _ = train_step(model, opt, ds.features.gather(sub.all_nodes),
                             sub, ds.labels)
    acc = accuracy(model, sampler, ds.features.features, ds.val_idx,
                   ds.labels, batch_size=100)
    assert acc > 3.0 / ds.num_classes  # far above chance (1/8)


def test_layer_count_mismatch_raises(tiny):
    ds, sampler, sub = tiny  # sub has 2 hops
    model = make_model("sage", ds.dim, 16, ds.num_classes, num_layers=3, seed=0)
    feats = ds.features.gather(sub.all_nodes)
    with pytest.raises(ValueError, match="hops"):
        model(Tensor(feats), sub)


def test_feature_row_mismatch_raises(tiny):
    ds, _, sub = tiny
    model = make_model("sage", ds.dim, 16, ds.num_classes, num_layers=2, seed=0)
    opt = Adam(model.parameters(), lr=0.1)
    bad = ds.features.gather(sub.all_nodes[:-1])
    with pytest.raises(ValueError, match="features rows"):
        train_step(model, opt, bad, sub, ds.labels)


def test_make_model_factory_and_fanouts():
    m = make_model("graphsage", 8, 4, 3, num_layers=1)
    assert isinstance(m, GraphSAGE)
    assert isinstance(make_model("gcn", 8, 4, 3, 1), GCN)
    assert isinstance(make_model("gat", 8, 4, 3, 1), GAT)
    with pytest.raises(ValueError):
        make_model("mlp", 8, 4, 3)
    assert scaled_default_fanouts("gat") == (3, 3, 2)
    assert scaled_default_fanouts("sage") == (3, 3, 3)


def test_model_determinism_per_seed():
    a = make_model("sage", 8, 4, 3, 2, seed=5)
    b = make_model("sage", 8, 4, 3, 2, seed=5)
    for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
        assert na == nb
        assert np.array_equal(pa.data, pb.data)


def test_state_dict_roundtrip():
    m = make_model("gcn", 8, 4, 3, 2, seed=0)
    state = m.state_dict()
    m2 = make_model("gcn", 8, 4, 3, 2, seed=1)
    m2.load_state_dict(state)
    for (_, p1), (_, p2) in zip(m.named_parameters(), m2.named_parameters()):
        assert np.array_equal(p1.data, p2.data)
    with pytest.raises(KeyError):
        m2.load_state_dict({"bogus": np.zeros(1)})


def test_gat_empty_edge_layer(tiny):
    ds, _, _ = tiny
    from repro.sampling import LayerAdj, SampledSubgraph

    seeds = np.array([0, 1])
    sub = SampledSubgraph(
        seeds=seeds,
        all_nodes=seeds,
        layers=[LayerAdj(np.empty(0, np.int64), np.empty(0, np.int64), 2, 2)],
        hop_frontiers=[seeds],
    )
    model = make_model("gat", ds.dim, 8, ds.num_classes, num_layers=1, seed=0)
    out = model(Tensor(ds.features.gather(seeds)), sub)
    assert out.data.shape == (2, ds.num_classes)
