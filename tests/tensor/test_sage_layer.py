"""The fused GraphSAGE layer against finite differences and against the
composed operator chain it replaces.

``composed_sage`` below is the reference: the layer written as separate
``gather_rows``/``spmm``/``matmul``/``add``/``relu`` tape nodes.  The
fused op must match it bit for bit, forward and backward.
"""

import numpy as np
import pytest

from repro.sampling.subgraph import LayerAdj
from repro.tensor import (
    Tensor,
    add,
    gather_rows,
    matmul,
    no_grad,
    relu,
    sage_layer,
    spmm,
)
from tests.tensor.gradcheck import check_grad
from tests.tensor.test_ops import scalar


def composed_sage(h, adj, w_self, bias, w_neigh, apply_relu, num_dst):
    """The seven-node composed layer (reference for the fused op)."""
    h_self = gather_rows(h, np.arange(num_dst))
    agg = spmm(adj, h)
    out = add(add(matmul(h_self, w_self), bias), matmul(agg, w_neigh))
    return relu(out) if apply_relu else out


def _layer(kind, rng, num_src=7, num_dst=4, fanout=3):
    """A LayerAdj of the given shape: sampler-like, empty, square or with
    every edge duplicated."""
    if kind == "empty":
        e = np.empty(0, np.int64)
        return LayerAdj(e, e, num_src, num_dst)
    if kind == "square":
        num_dst = num_src
    dst = np.repeat(np.arange(num_dst, dtype=np.int64), fanout)
    src = rng.integers(0, num_src, len(dst)).astype(np.int64)
    if kind == "duplicates":
        dst, src = np.concatenate([dst, dst]), np.concatenate([src, src])
    return LayerAdj(src, dst, num_src, num_dst)


def _params(rng, num_src, d_in=5, d_out=3):
    return {
        "h": rng.standard_normal((num_src, d_in)).astype(np.float32),
        "w_self": rng.standard_normal((d_in, d_out)).astype(np.float32),
        "bias": rng.standard_normal(d_out).astype(np.float32),
        "w_neigh": rng.standard_normal((d_in, d_out)).astype(np.float32),
    }


def _operator(layer, aggr):
    return layer.mean_matrix() if aggr == "mean" else layer.sum_matrix()


KINDS = ("sampled", "empty", "square", "duplicates")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("aggr", ("mean", "sum"))
@pytest.mark.parametrize("apply_relu", (True, False))
def test_sage_layer_gradcheck(kind, aggr, apply_relu):
    # This seed keeps every pre-activation clear of the ReLU kink, where
    # central differences do not estimate the gradient.
    rng = np.random.default_rng(7)
    layer = _layer(kind, rng)
    adj = _operator(layer, aggr)
    check_grad(
        lambda p: scalar(sage_layer(p["h"], adj, p["w_self"], p["bias"],
                                    p["w_neigh"], relu=apply_relu)),
        _params(rng, layer.num_src))


def _bits(a):
    return a.dtype.str, a.shape, np.ascontiguousarray(a).tobytes()


def _run(fn, params):
    """Forward + backward of ``fn(tensors)``; every array's bytes."""
    t = {k: Tensor(v, requires_grad=True) for k, v in params.items()}
    out = fn(t)
    out.backward(np.linspace(-1, 1, out.data.size, dtype=np.float32)
                 .reshape(out.data.shape))
    return [_bits(out.data)] + [_bits(t[k].grad) for k in sorted(t)]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("aggr", ("mean", "sum"))
@pytest.mark.parametrize("apply_relu", (True, False))
def test_sage_layer_bit_identical_to_composed_chain(kind, aggr, apply_relu):
    rng = np.random.default_rng(11)
    layer = _layer(kind, rng, num_src=40, num_dst=17, fanout=5)
    params = _params(rng, layer.num_src, d_in=24, d_out=16)
    adj = _operator(layer, aggr)

    fused = _run(lambda t: sage_layer(t["h"], adj, t["w_self"],
                                      t["bias"], t["w_neigh"],
                                      relu=apply_relu), params)
    composed = _run(lambda t: composed_sage(t["h"], adj, t["w_self"],
                                            t["bias"], t["w_neigh"],
                                            apply_relu, layer.num_dst),
                    params)
    assert fused == composed


def test_sage_layer_stacked_matches_composed_chain():
    """Two layers deep, so the inner layer's input gradient (the prefix
    add into ``gh[:n_dst]``) feeds the outer layer's ReLU backward."""
    rng = np.random.default_rng(5)
    inner = _layer("sampled", rng, num_src=30, num_dst=12, fanout=4)
    outer = _layer("duplicates", rng, num_src=12, num_dst=5, fanout=3)
    p = _params(rng, inner.num_src, d_in=8, d_out=8)
    p.update({f"{k}2": v for k, v in _params(rng, 12, 8, 3).items()
              if k != "h"})

    def fused(t):
        h = sage_layer(t["h"], inner.mean_matrix(), t["w_self"],
                       t["bias"], t["w_neigh"], relu=True)
        return sage_layer(h, outer.mean_matrix(), t["w_self2"],
                          t["bias2"], t["w_neigh2"])

    def composed(t):
        h = composed_sage(t["h"], inner.mean_matrix(), t["w_self"],
                          t["bias"], t["w_neigh"], True, inner.num_dst)
        return composed_sage(h, outer.mean_matrix(), t["w_self2"],
                             t["bias2"], t["w_neigh2"], False,
                             outer.num_dst)

    assert _run(fused, p) == _run(composed, p)


def test_sage_layer_is_one_tape_node():
    rng = np.random.default_rng(0)
    layer = _layer("sampled", rng)
    t = {k: Tensor(v, requires_grad=True)
         for k, v in _params(rng, layer.num_src).items()}
    out = sage_layer(t["h"], layer.mean_matrix(), t["w_self"], t["bias"],
                     t["w_neigh"], relu=True)
    assert out.name == "sage_layer"
    assert all(p._backward is None for p in out._parents)
    assert len(out._topo_order()) == 5       # the op plus its four leaves


def test_sage_layer_no_grad_builds_no_tape():
    rng = np.random.default_rng(0)
    layer = _layer("sampled", rng)
    t = {k: Tensor(v, requires_grad=True)
         for k, v in _params(rng, layer.num_src).items()}
    with no_grad():
        out = sage_layer(t["h"], layer.mean_matrix(), t["w_self"],
                         t["bias"], t["w_neigh"], relu=True)
    assert not out.requires_grad and out._backward is None
    assert (out.data >= 0).all()
