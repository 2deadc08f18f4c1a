"""GAT (Veličković et al., 2018) with one attention head per layer.

Per layer:
  h = W . x  (all source nodes)
  e_(u->v) = LeakyReLU(a_src . h_u + a_dst . h_v)
  alpha    = softmax over each destination's in-edges
  out_v    = sum_u alpha_(u->v) h_u + h_v_self

Attention is the expensive part on CPU — the cost model charges its
edge-wise ops at low CPU efficiency, reproducing the paper's 8-12x
CPU/GPU gap for GAT (§5.1).
"""

from __future__ import annotations

import numpy as np

from repro.models.module import Linear, Module, Parameter, glorot
from repro.sampling.subgraph import SampledSubgraph
from repro.tensor import (
    Tensor,
    add,
    edge_aggregate,
    edge_score,
    elu,
    gather_rows,
    leaky_relu,
    segment_softmax,
)


class GATLayer(Module):
    """One attention head: projection + attention vectors."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        super().__init__()
        self.lin = self.add_child("lin", Linear(in_dim, out_dim, rng, bias=False))
        self.att_src = self.register("att_src",
                                     Parameter(glorot((out_dim, 1), rng).ravel()))
        self.att_dst = self.register("att_dst",
                                     Parameter(glorot((out_dim, 1), rng).ravel()))

    def __call__(self, h_src_in: Tensor, layer_adj) -> Tensor:
        h = self.lin(h_src_in)                       # (num_src, out)
        h_dst = gather_rows(h, np.arange(layer_adj.num_dst))
        if layer_adj.num_edges == 0:
            return h_dst
        scores = edge_score(h, h_dst, self.att_src, self.att_dst,
                            layer_adj.src_pos, layer_adj.dst_pos)
        scores = leaky_relu(scores)
        alpha = segment_softmax(scores, layer_adj.dst_pos, layer_adj.num_dst)
        agg = edge_aggregate(alpha, h, layer_adj.src_pos, layer_adj.dst_pos,
                             layer_adj.num_dst)
        return add(agg, h_dst)


class GAT(Module):
    kind = "gat"

    def __init__(self, in_dim: int, hidden_dim: int, num_classes: int,
                 num_layers: int, rng: np.random.Generator):
        super().__init__()
        if num_layers < 1:
            raise ValueError("need at least one layer")
        self.num_layers = num_layers
        dims = [in_dim] + [hidden_dim] * (num_layers - 1) + [num_classes]
        self.layers = [
            self.add_child(f"layer{i}", GATLayer(dims[i], dims[i + 1], rng))
            for i in range(num_layers)
        ]

    def __call__(self, features: Tensor, subgraph: SampledSubgraph) -> Tensor:
        if len(subgraph.layers) != self.num_layers:
            raise ValueError(
                f"subgraph has {len(subgraph.layers)} hops but model has "
                f"{self.num_layers} layers")
        h = features
        for i, layer_adj in enumerate(subgraph.layers):
            h = self.layers[i](h, layer_adj)
            if i < self.num_layers - 1:
                h = elu(h)
        return h
