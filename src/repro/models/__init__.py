"""GNN models, the optimizer, and the compute-cost model.

The three models match the paper's evaluation (§5 "GNN Models"): 3-layer
GraphSAGE (mean aggregation), GCN, and single-head GAT with hidden
dimension 256, trained with Adam.  The paper samples with fanouts
(10, 10, 10) for SAGE/GCN and (10, 10, 5) for GAT; the 1/1000-scale
datasets use the scaled fanouts of
:func:`repro.core.base.scaled_default_fanouts`.  Forward/backward run
for real on the autograd engine; *simulated durations* come from
:mod:`repro.models.costmodel` so the trainer actor can charge GPU/CPU
time consistently with the paper's hardware ratios.
"""

from repro.models.module import Module, Parameter, Linear
from repro.models.sage import GraphSAGE
from repro.models.gcn import GCN
from repro.models.gat import GAT
from repro.models.optim import Adam
from repro.models.costmodel import ComputeCostModel, DeviceProfile, GPU_RTX3090, GPU_K80, CPU_XEON
from repro.models.train import train_step, accuracy

__all__ = [
    "Module", "Parameter", "Linear",
    "GraphSAGE", "GCN", "GAT",
    "Adam",
    "ComputeCostModel", "DeviceProfile",
    "GPU_RTX3090", "GPU_K80", "CPU_XEON",
    "train_step", "accuracy",
]


def make_model(kind: str, in_dim: int, hidden_dim: int, num_classes: int,
               num_layers: int = 3, seed: int = 0):
    """Factory used by systems and benchmarks: 'sage' | 'gcn' | 'gat'."""
    kind = kind.lower()
    import numpy as np
    rng = np.random.default_rng(np.random.SeedSequence([seed, 99]))
    if kind in ("sage", "graphsage"):
        return GraphSAGE(in_dim, hidden_dim, num_classes, num_layers, rng)
    if kind == "gcn":
        return GCN(in_dim, hidden_dim, num_classes, num_layers, rng)
    if kind == "gat":
        return GAT(in_dim, hidden_dim, num_classes, num_layers, rng)
    raise ValueError(f"unknown model kind {kind!r}")
