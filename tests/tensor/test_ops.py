"""Gradient and semantics tests for the autograd operators."""

import numpy as np
import pytest

from repro.tensor import (
    Tensor,
    add,
    edge_aggregate,
    edge_score,
    elu,
    gather_rows,
    leaky_relu,
    log_softmax,
    matmul,
    mul_scalar,
    no_grad,
    relu,
    segment_softmax,
    softmax_cross_entropy,
    spmm,
)
from repro.tensor.sparse import CSRMatrix
from tests.tensor.gradcheck import check_grad

RNG = np.random.default_rng(0)


def scalar(t):
    """Reduce any tensor to a scalar loss via a fixed weighting."""
    w = np.arange(t.data.size, dtype=np.float32).reshape(t.data.shape) / t.data.size
    return softmax_like_sum(t, w)


def softmax_like_sum(t, w):
    # Weighted sum as matmul-free scalar: use mul + matmul trick.
    flat = t.data.reshape(-1)
    # Build via autograd ops to keep the tape: t * w summed = (t flattened) @ w
    from repro.tensor.ops import _make  # internal, fine for tests

    def backward(g):
        if t.requires_grad:
            t.accumulate_grad(np.full_like(t.data, 0) + w * float(g))

    return _make(np.float32((t.data * w).sum()), (t,), backward, "wsum")


def test_add_broadcast_bias_grad():
    check_grad(
        lambda p: scalar(add(p["x"], p["b"])),
        {"x": RNG.standard_normal((4, 3)), "b": RNG.standard_normal(3)},
    )


def test_matmul_grad():
    check_grad(
        lambda p: scalar(matmul(p["a"], p["b"])),
        {"a": RNG.standard_normal((4, 5)), "b": RNG.standard_normal((5, 2))},
    )


def test_relu_grad_and_value():
    x = Tensor(np.array([[-1.0, 2.0]], dtype=np.float32), requires_grad=True)
    y = relu(x)
    assert np.array_equal(y.data, [[0.0, 2.0]])
    check_grad(lambda p: scalar(relu(p["x"])),
               {"x": RNG.standard_normal((5, 4)) + 0.1})


def test_leaky_relu_grad():
    check_grad(lambda p: scalar(leaky_relu(p["x"], 0.2)),
               {"x": RNG.standard_normal((5, 4)) + 0.05})


def test_elu_value_and_grad():
    x = Tensor(np.array([-1.0, 1.0], dtype=np.float32), requires_grad=True)
    y = elu(x)
    assert y.data[0] == pytest.approx(np.exp(-1) - 1, rel=1e-5)
    assert y.data[1] == pytest.approx(1.0)
    check_grad(lambda p: scalar(elu(p["x"])),
               {"x": RNG.standard_normal((4, 3))})


def test_mul_scalar_grad():
    check_grad(lambda p: scalar(mul_scalar(p["x"], 2.5)),
               {"x": RNG.standard_normal((3, 3))})


def test_gather_rows_grad_with_repeats():
    check_grad(
        lambda p: scalar(gather_rows(p["x"], np.array([0, 2, 2, 1]))),
        {"x": RNG.standard_normal((4, 3))},
    )


def test_spmm_matches_dense_and_grad():
    rng = np.random.default_rng(0)
    dense = (rng.random((6, 5)) * (rng.random((6, 5)) < 0.5)).astype(
        np.float32)
    rows, cols = dense.nonzero()
    indptr = np.zeros(7, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=6), out=indptr[1:])
    adj = CSRMatrix(indptr, cols.astype(np.int32), dense[rows, cols], (6, 5))
    assert adj.toarray().tobytes() == dense.tobytes()
    x = RNG.standard_normal((5, 3)).astype(np.float32)
    out = spmm(adj, Tensor(x))
    np.testing.assert_allclose(out.data, dense @ x, rtol=1e-5)
    check_grad(lambda p: scalar(spmm(adj, p["x"])),
               {"x": RNG.standard_normal((5, 3))})


def test_log_softmax_rows_sum_to_one():
    x = Tensor(RNG.standard_normal((4, 7)).astype(np.float32),
               requires_grad=True)
    y = log_softmax(x)
    np.testing.assert_allclose(np.exp(y.data).sum(axis=1), np.ones(4),
                               rtol=1e-5)
    check_grad(lambda p: scalar(log_softmax(p["x"])),
               {"x": RNG.standard_normal((4, 7))})


def test_cross_entropy_value_and_grad():
    logits = np.array([[10.0, 0.0], [0.0, 10.0]], dtype=np.float32)
    labels = np.array([0, 1])
    loss = softmax_cross_entropy(Tensor(logits), labels)
    assert float(loss.data) < 1e-3
    check_grad(
        lambda p: softmax_cross_entropy(p["x"], np.array([1, 0, 2])),
        {"x": RNG.standard_normal((3, 4))},
    )


def test_cross_entropy_label_shape_validation():
    with pytest.raises(ValueError):
        softmax_cross_entropy(Tensor(np.zeros((3, 4))), np.array([0, 1]))


def test_segment_softmax_normalises_per_segment():
    scores = Tensor(RNG.standard_normal(7).astype(np.float32),
                    requires_grad=True)
    seg = np.array([0, 0, 1, 1, 1, 2, 2])
    alpha = segment_softmax(scores, seg, num_segments=3)
    for s in range(3):
        assert alpha.data[seg == s].sum() == pytest.approx(1.0, rel=1e-5)
    check_grad(
        lambda p: scalar(segment_softmax(p["s"], seg, 3)),
        {"s": RNG.standard_normal(7)},
    )


def test_segment_softmax_validates_ndim():
    with pytest.raises(ValueError):
        segment_softmax(Tensor(np.zeros((2, 2))), np.array([0, 1]), 2)


def test_edge_score_grad_all_params():
    src_idx = np.array([0, 1, 2, 0])
    dst_idx = np.array([0, 0, 1, 1])
    check_grad(
        lambda p: scalar(edge_score(p["h_src"], p["h_dst"], p["a_src"],
                                    p["a_dst"], src_idx, dst_idx)),
        {
            "h_src": RNG.standard_normal((3, 4)),
            "h_dst": RNG.standard_normal((2, 4)),
            "a_src": RNG.standard_normal(4),
            "a_dst": RNG.standard_normal(4),
        },
    )


def test_edge_aggregate_value_and_grad():
    src_idx = np.array([0, 1, 2])
    dst_idx = np.array([0, 0, 1])
    alpha = np.array([0.5, 0.5, 1.0], dtype=np.float32)
    h = np.eye(3, dtype=np.float32)
    out = edge_aggregate(Tensor(alpha), Tensor(h), src_idx, dst_idx, 2)
    np.testing.assert_allclose(out.data[0], [0.5, 0.5, 0.0])
    np.testing.assert_allclose(out.data[1], [0.0, 0.0, 1.0])
    check_grad(
        lambda p: scalar(edge_aggregate(p["alpha"], p["h"], src_idx,
                                        dst_idx, 2)),
        {"alpha": RNG.random(3) + 0.1, "h": RNG.standard_normal((3, 3))},
    )


def test_shared_subexpression_grads_accumulate():
    x = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
    y = add(x, x)  # dy/dx = 2
    loss = softmax_like_sum(y, np.ones((2, 2), dtype=np.float32))
    loss.backward()
    np.testing.assert_allclose(x.grad, 2 * np.ones((2, 2)))


def test_shared_gradient_array_is_never_mutated():
    """``add`` hands the same ``g`` to both parents; when one parent later
    accumulates more, the other's ``.grad`` keeps its value."""
    a = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
    b = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
    y = add(add(a, b), mul_scalar(a, 3.0))
    w = np.arange(4, dtype=np.float32).reshape(2, 2)
    softmax_like_sum(y, w).backward()
    np.testing.assert_array_equal(b.grad, w)
    np.testing.assert_array_equal(a.grad, 4 * w)

    g = np.ones(3, dtype=np.float32)
    p = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
    q = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
    p.accumulate_grad(g)
    q.accumulate_grad(g)
    p.accumulate_grad(np.full(3, 2.0, dtype=np.float32))
    np.testing.assert_array_equal(q.grad, np.ones(3))
    np.testing.assert_array_equal(g, np.ones(3))
    np.testing.assert_array_equal(p.grad, np.full(3, 3.0))


def test_no_grad_suppresses_tape():
    x = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
    with no_grad():
        y = add(x, x)
    assert not y.requires_grad


def test_backward_requires_scalar_or_seed():
    x = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
    y = add(x, x)
    with pytest.raises(RuntimeError):
        y.backward()
    y.backward(np.ones((2, 2), dtype=np.float32))
    assert x.grad is not None


def test_backward_on_non_grad_tensor_raises():
    x = Tensor(np.ones(2))
    with pytest.raises(RuntimeError):
        x.backward()


def test_float64_is_coerced_to_float32():
    t = Tensor(np.zeros(3, dtype=np.float64))
    assert t.data.dtype == np.float32
