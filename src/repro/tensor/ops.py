"""Differentiable operators for GNN training.

Every op returns a new :class:`Tensor` wired into the backward tape.  The
backward closures accumulate into parents via ``accumulate_grad``, so
shared sub-expressions (e.g. a weight used by every mini-batch layer) sum
correctly.

Conventions: ``x`` denotes dense activations (n, d); sparse adjacency and
index arrays are graph *constants* (no gradient); all floats are float32.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.tensor.sparse import CSRMatrix
from repro.tensor.tensor import Tensor, as_tensor, is_grad_enabled


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce *grad* back to *shape* (reverse of NumPy broadcasting)."""
    # Sum over leading broadcast axes.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were size-1 in the original.
    for ax, (g, s) in enumerate(zip(grad.shape, shape)):
        if s == 1 and g != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


def _make(data: np.ndarray, parents, backward, name="") -> Tensor:
    requires = is_grad_enabled() and any(p.requires_grad for p in parents)
    return Tensor(data, requires_grad=requires,
                  parents=tuple(p for p in parents if p.requires_grad),
                  backward=backward if requires else None, name=name)


# ----------------------------------------------------------------------
# Elementwise / linear algebra
# ----------------------------------------------------------------------
def add(a: Tensor, b: Tensor) -> Tensor:
    """Broadcasting addition (activations + bias)."""
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), backward, "add")


def mul_scalar(a: Tensor, s: float) -> Tensor:
    a = as_tensor(a)
    s = float(s)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(g * s)

    return _make(a.data * s, (a,), backward, "mul_scalar")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Dense (n, k) @ (k, m)."""
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data @ b.data

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(g @ b.data.T)
        if b.requires_grad:
            b.accumulate_grad(a.data.T @ g)

    return _make(out_data, (a, b), backward, "matmul")


def relu(x: Tensor) -> Tensor:
    x = as_tensor(x)
    mask = x.data > 0

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x.accumulate_grad(g * mask)

    return _make(x.data * mask, (x,), backward, "relu")


def leaky_relu(x: Tensor, negative_slope: float = 0.2) -> Tensor:
    x = as_tensor(x)
    mask = x.data > 0
    scale = np.where(mask, 1.0, negative_slope).astype(np.float32)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x.accumulate_grad(g * scale)

    return _make(x.data * scale, (x,), backward, "leaky_relu")


def elu(x: Tensor, alpha: float = 1.0) -> Tensor:
    x = as_tensor(x)
    neg = x.data <= 0
    exp_term = np.exp(np.minimum(x.data, 0.0))
    out_data = np.where(neg, alpha * (exp_term - 1.0), x.data).astype(np.float32)
    dx = np.where(neg, alpha * exp_term, 1.0).astype(np.float32)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x.accumulate_grad(g * dx)

    return _make(out_data, (x,), backward, "elu")


def gather_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    """Row selection ``x[idx]`` with scatter-add backward."""
    x = as_tensor(x)
    idx = np.asarray(idx, dtype=np.int64)
    out_data = x.data[idx]

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            np.add.at(gx, idx, g)
            x.accumulate_grad(gx)

    return _make(out_data, (x,), backward, "gather_rows")


# ----------------------------------------------------------------------
# Sparse aggregation
# ----------------------------------------------------------------------
def spmm(adj: CSRMatrix, x: Tensor) -> Tensor:
    """Sparse-constant @ dense: neighborhood aggregation.

    *adj* (n_dst, n_src) carries the (fixed) aggregation weights — e.g. a
    row-normalised mean matrix for GraphSAGE or the symmetric-normalised
    GCN operator.  Gradient flows only through *x*.
    """
    x = as_tensor(x)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x.accumulate_grad(adj.T @ g)

    return _make(np.asarray(adj @ x.data, dtype=np.float32), (x,), backward,
                 "spmm")


def sage_layer(h: Tensor, adj: CSRMatrix, w_self: Tensor, bias: Tensor,
               w_neigh: Tensor, relu: bool = False) -> Tensor:
    """One GraphSAGE layer as a single tape node.

    Computes ``((h[:n_dst] @ w_self) + bias) + (A @ h) @ w_neigh`` and,
    when *relu* is set, applies ReLU in place.  *adj* is the sparse
    (n_dst, n_src) aggregation operator ``A``.

    The self rows are the prefix ``h[:n_dst]`` (the sampler's layout), so
    the backward pass adds their gradient into ``gh[:n_dst]`` instead of
    scattering through a gathered copy.  Every floating-point operation,
    and its order, is that of the composed
    ``gather_rows``/``spmm``/``matmul``/``add``/``relu`` chain, so values
    and gradients are bit-identical to it.
    """
    h, w_self, bias, w_neigh = (as_tensor(h), as_tensor(w_self),
                                as_tensor(bias), as_tensor(w_neigh))
    agg = np.asarray(adj @ h.data, dtype=np.float32)
    n_dst = agg.shape[0]
    h_self = h.data[:n_dst]
    out = h_self @ w_self.data
    out += bias.data
    out += agg @ w_neigh.data
    mask = None
    if relu:
        mask = out > 0
        out *= mask

    def backward(g: np.ndarray) -> None:
        if mask is not None:
            g = g * mask
        if w_self.requires_grad:
            w_self.accumulate_grad(h_self.T @ g)
        if bias.requires_grad:
            bias.accumulate_grad(_unbroadcast(g, bias.data.shape))
        if w_neigh.requires_grad:
            w_neigh.accumulate_grad(agg.T @ g)
        if h.requires_grad:
            gh = adj.T @ (g @ w_neigh.data.T)
            gh[:n_dst] += g @ w_self.data.T
            h.accumulate_grad(gh)

    return _make(out, (h, w_self, bias, w_neigh), backward, "sage_layer")


# ----------------------------------------------------------------------
# Losses
# ----------------------------------------------------------------------
def log_softmax(x: Tensor) -> Tensor:
    """Row-wise log softmax (n, classes)."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    out_data = shifted - lse
    softmax = np.exp(out_data)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x.accumulate_grad(g - softmax * g.sum(axis=1, keepdims=True))

    return _make(out_data.astype(np.float32), (x,), backward, "log_softmax")


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy over rows (fused, numerically stable)."""
    logits = as_tensor(logits)
    labels = np.asarray(labels, dtype=np.int64)
    n = logits.data.shape[0]
    if labels.shape != (n,):
        raise ValueError("labels must be (n,) matching logits rows")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - lse
    loss = -log_probs[np.arange(n), labels].mean()
    softmax = np.exp(log_probs)

    def backward(g: np.ndarray) -> None:
        if logits.requires_grad:
            gx = softmax.copy()
            gx[np.arange(n), labels] -= 1.0
            logits.accumulate_grad(gx * (float(g) / n))

    return _make(np.float32(loss), (logits,), backward, "xent")


# ----------------------------------------------------------------------
# GAT attention primitives (edge-level)
# ----------------------------------------------------------------------
def edge_score(h_src: Tensor, h_dst: Tensor, a_src: Tensor,
               a_dst: Tensor, src_idx: np.ndarray,
               dst_idx: np.ndarray) -> Tensor:
    """Per-edge attention logits ``(a_src . h[src]) + (a_dst . h[dst])``.

    *h_src*/*h_dst* are node embeddings; *a_src*/*a_dst* are (d,) vectors
    (the two halves of GAT's concatenated attention vector).
    """
    h_src, h_dst = as_tensor(h_src), as_tensor(h_dst)
    a_src, a_dst = as_tensor(a_src), as_tensor(a_dst)
    src_idx = np.asarray(src_idx, dtype=np.int64)
    dst_idx = np.asarray(dst_idx, dtype=np.int64)
    s_src = h_src.data @ a_src.data            # (n_src,)
    s_dst = h_dst.data @ a_dst.data            # (n_dst,)
    out_data = s_src[src_idx] + s_dst[dst_idx]  # (E,)

    def backward(g: np.ndarray) -> None:
        if h_src.requires_grad:
            gs = np.zeros(h_src.data.shape[0], dtype=np.float32)
            np.add.at(gs, src_idx, g)
            h_src.accumulate_grad(np.outer(gs, a_src.data))
        if a_src.requires_grad:
            a_src.accumulate_grad(
                (h_src.data[src_idx] * g[:, None]).sum(axis=0))
        if h_dst.requires_grad:
            gd = np.zeros(h_dst.data.shape[0], dtype=np.float32)
            np.add.at(gd, dst_idx, g)
            h_dst.accumulate_grad(np.outer(gd, a_dst.data))
        if a_dst.requires_grad:
            a_dst.accumulate_grad(
                (h_dst.data[dst_idx] * g[:, None]).sum(axis=0))

    return _make(out_data.astype(np.float32),
                 (h_src, h_dst, a_src, a_dst), backward, "edge_score")


def segment_softmax(scores: Tensor, seg_ids: np.ndarray,
                    num_segments: int) -> Tensor:
    """Softmax over edges grouped by destination node.

    ``seg_ids[e]`` is the destination (segment) of edge *e*; segments need
    not be sorted.  Empty segments are fine (no edges, no outputs).
    """
    scores = as_tensor(scores)
    seg_ids = np.asarray(seg_ids, dtype=np.int64)
    if scores.data.ndim != 1:
        raise ValueError("scores must be 1-D (per-edge)")
    # Per-segment max for stability.
    seg_max = np.full(num_segments, -np.inf, dtype=np.float32)
    np.maximum.at(seg_max, seg_ids, scores.data)
    shifted = scores.data - seg_max[seg_ids]
    exp = np.exp(shifted)
    seg_sum = np.zeros(num_segments, dtype=np.float32)
    np.add.at(seg_sum, seg_ids, exp)
    alpha = exp / seg_sum[seg_ids]

    def backward(g: np.ndarray) -> None:
        if scores.requires_grad:
            weighted = alpha * g
            seg_dot = np.zeros(num_segments, dtype=np.float32)
            np.add.at(seg_dot, seg_ids, weighted)
            scores.accumulate_grad(weighted - alpha * seg_dot[seg_ids])

    return _make(alpha.astype(np.float32), (scores,), backward, "segment_softmax")


def edge_aggregate(alpha: Tensor, h_src: Tensor, src_idx: np.ndarray,
                   dst_idx: np.ndarray, num_dst: int) -> Tensor:
    """Attention-weighted aggregation: ``out[v] = sum_e alpha_e h[src_e]``."""
    alpha, h_src = as_tensor(alpha), as_tensor(h_src)
    src_idx = np.asarray(src_idx, dtype=np.int64)
    dst_idx = np.asarray(dst_idx, dtype=np.int64)
    h_edges = h_src.data[src_idx]              # (E, d)
    out_data = np.zeros((num_dst, h_src.data.shape[1]), dtype=np.float32)
    np.add.at(out_data, dst_idx, alpha.data[:, None] * h_edges)

    def backward(g: np.ndarray) -> None:
        g_edges = g[dst_idx]                   # (E, d)
        if alpha.requires_grad:
            alpha.accumulate_grad((g_edges * h_edges).sum(axis=1))
        if h_src.requires_grad:
            gh = np.zeros_like(h_src.data)
            np.add.at(gh, src_idx, alpha.data[:, None] * g_edges)
            h_src.accumulate_grad(gh)

    return _make(out_data, (alpha, h_src), backward, "edge_aggregate")
