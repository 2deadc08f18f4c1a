"""GraphSAGE (Hamilton et al., 2017) with mean aggregation.

Layer ``l``:  h_dst = ReLU(W_self . h_dst_prev + W_neigh . MEAN(h_neighbors))
where ``h_dst_prev = h_src[:num_dst]`` thanks to the prefix layout of
:class:`repro.sampling.SampledSubgraph`.  Each layer, its ReLU included,
is one fused tape node (:func:`repro.tensor.ops.sage_layer`).  Mean is
the aggregator the paper's evaluation trains with.
"""

from __future__ import annotations

import numpy as np

from repro.models.module import Linear, Module
from repro.sampling.subgraph import SampledSubgraph
from repro.tensor import Tensor, sage_layer


class SAGELayer(Module):
    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        super().__init__()
        self.self_lin = self.add_child("self_lin", Linear(in_dim, out_dim, rng))
        self.neigh_lin = self.add_child("neigh_lin", Linear(in_dim, out_dim, rng, bias=False))

    def __call__(self, h_src: Tensor, layer_adj, relu: bool = False) -> Tensor:
        return sage_layer(h_src, layer_adj.mean_matrix(),
                          self.self_lin.weight, self.self_lin.bias,
                          self.neigh_lin.weight, relu=relu)


class GraphSAGE(Module):
    """Stacked SAGE layers; ReLU between layers, raw logits at the top."""

    kind = "sage"

    def __init__(self, in_dim: int, hidden_dim: int, num_classes: int,
                 num_layers: int, rng: np.random.Generator):
        super().__init__()
        if num_layers < 1:
            raise ValueError("need at least one layer")
        self.num_layers = num_layers
        dims = [in_dim] + [hidden_dim] * (num_layers - 1) + [num_classes]
        self.layers = [
            self.add_child(f"layer{i}", SAGELayer(dims[i], dims[i + 1], rng))
            for i in range(num_layers)
        ]

    def __call__(self, features: Tensor, subgraph: SampledSubgraph) -> Tensor:
        if len(subgraph.layers) != self.num_layers:
            raise ValueError(
                f"subgraph has {len(subgraph.layers)} hops but model has "
                f"{self.num_layers} layers")
        h = features
        for i, layer_adj in enumerate(subgraph.layers):
            h = self.layers[i](h, layer_adj, relu=i < self.num_layers - 1)
        return h
