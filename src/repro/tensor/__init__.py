"""Minimal reverse-mode autograd over NumPy arrays.

The paper trains with PyTorch; we have no GPU framework offline, so this
package supplies the tensor substrate: a tape-based autograd engine with
exactly the operators the three GNN models need (dense matmul, sparse
aggregation, segment softmax for GAT attention, fused softmax
cross-entropy).  Gradients are verified against finite differences in the
test suite, so the convergence results (Fig. 14) rest on checked math.

Design notes
------------
* float32 throughout (matching the paper's feature dtype).
* Graphs are built eagerly; ``backward()`` runs a topological sweep.
* Sparse adjacency matrices are *constants* of the graph structure; only
  dense operands carry gradients (all GNN layers have this form).
"""

from repro.tensor.tensor import Tensor, no_grad, is_grad_enabled
from repro.tensor import ops
from repro.tensor.ops import (
    add,
    matmul,
    relu,
    leaky_relu,
    elu,
    gather_rows,
    mul_scalar,
    spmm,
    sage_layer,
    log_softmax,
    softmax_cross_entropy,
    edge_score,
    segment_softmax,
    edge_aggregate,
)

__all__ = [
    "Tensor", "no_grad", "is_grad_enabled", "ops",
    "add", "matmul", "relu", "leaky_relu", "elu",
    "gather_rows", "mul_scalar", "spmm", "sage_layer",
    "log_softmax", "softmax_cross_entropy",
    "edge_score", "segment_softmax", "edge_aggregate",
]
