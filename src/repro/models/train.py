"""Data-plane training/evaluation helpers shared by every system.

These run the *real* math (NumPy autograd); the calling actor charges
simulated time separately via the cost model.  All systems share these
helpers, so accuracy differences between systems can only come from
scheduling (mini-batch order, data parallelism) — exactly the comparison
Fig. 14 makes.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.models.module import Module
from repro.models.optim import Adam
from repro.sampling.neighbor import NeighborSampler
from repro.sampling.subgraph import SampledSubgraph
from repro.tensor import Tensor, no_grad, softmax_cross_entropy


def forward_backward(model: Module, features: np.ndarray,
                     subgraph: SampledSubgraph, labels: np.ndarray,
                     ) -> Tuple[float, int]:
    """Forward + backward on one mini-batch; gradients stay in params.

    Split out from :func:`train_step` so data-parallel trainers can
    synchronise gradients before applying the optimizer (§4.3).

    Parameters
    ----------
    features:
        Extracted feature rows for ``subgraph.all_nodes`` (in that order)
        — i.e. the contents of the feature buffer, indexed by the node
        alias list.
    labels:
        Global label array (indexed by seed ids).

    Returns
    -------
    (loss, correct):
        Scalar loss and the number of correctly predicted seeds.
    """
    if features.shape[0] != subgraph.num_sampled_nodes:
        raise ValueError(
            f"features rows ({features.shape[0]}) != sampled nodes "
            f"({subgraph.num_sampled_nodes})")
    model.train()
    model.zero_grad()
    x = Tensor(np.ascontiguousarray(features, dtype=np.float32))
    logits = model(x, subgraph)
    y = labels[subgraph.seeds]
    loss = softmax_cross_entropy(logits, y)
    loss.backward()
    correct = int((logits.data.argmax(axis=1) == y).sum())
    return float(loss.data), correct


def train_step(model: Module, optimizer: Adam, features: np.ndarray,
               subgraph: SampledSubgraph, labels: np.ndarray,
               ) -> Tuple[float, int]:
    """One full optimisation step (forward + backward + update)."""
    loss, correct = forward_backward(model, features, subgraph, labels)
    optimizer.step()
    return loss, correct


def predict(model: Module, features: np.ndarray,
            subgraph: SampledSubgraph) -> np.ndarray:
    """Class predictions for the subgraph's seeds (no tape)."""
    model.eval()
    with no_grad():
        logits = model(Tensor(np.asarray(features, dtype=np.float32)),
                       subgraph)
    return logits.data.argmax(axis=1)


def accuracy(model: Module, sampler: NeighborSampler,
             feature_matrix: np.ndarray, nodes: np.ndarray,
             labels: np.ndarray, batch_size: int = 1000) -> float:
    """Sampled-inference accuracy over *nodes* (validation/test)."""
    nodes = np.asarray(nodes, dtype=np.int64)
    if len(nodes) == 0:
        raise ValueError("empty evaluation set")
    correct = 0
    for s in range(0, len(nodes), batch_size):
        batch = nodes[s:s + batch_size]
        sub = sampler.sample(batch)
        preds = predict(model, feature_matrix[sub.all_nodes], sub)
        correct += int((preds == labels[sub.seeds]).sum())
    return correct / len(nodes)
