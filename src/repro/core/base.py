"""Shared base for every training system (GNNDrive and the baselines).

A *training system* owns a mounted dataset on a simulated machine, a
real NumPy model/optimizer, and a mini-batch plan; subclasses implement
``run_epochs`` with their own scheduling architecture.  Because all
systems share the same model math and sampler semantics, performance
differences come only from their runtime designs — the comparison the
paper makes.

Scaling note: the paper trains with batch 1000 and fanouts (10, 10, 10)
on billion-edge graphs.  Mini datasets are ~1/1000 scale, so the default
*scaled workload* is batch 100 with fanouts (3, 3, 3) — keeping the
per-batch feature footprint the same small fraction of host memory that
the paper's setup has (a sampled batch must not be a macroscopic
fraction of a 1000x smaller graph).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from repro.core.stats import EpochStats
from repro.graph.datasets import DiskDataset
from repro.machine import Machine
from repro.models import Adam, make_model
from repro.models.costmodel import ComputeCostModel
from repro.models.train import accuracy
from repro.sampling import MinibatchPlan, NeighborSampler
from repro.sampling.subgraph import SampledSubgraph
from repro.simcore import RandomStreams

FLOAT_BYTES = 4
#: Parameter + Adam first/second moment buffers.
OPTIMIZER_STATE_FACTOR = 3


def scaled_default_fanouts(kind: str) -> Tuple[int, ...]:
    """Paper fanouts (10,10,10)/(10,10,5) shrunk for 1/1000-scale data."""
    return (3, 3, 2) if kind.lower() == "gat" else (3, 3, 3)


@dataclass(frozen=True)
class TrainConfig:
    """Model/workload parameters shared by every system."""

    model_kind: str = "sage"
    batch_size: int = 50
    hidden_dim: int = 256
    num_layers: int = 3
    lr: float = 3e-3
    fanouts: Optional[Tuple[int, ...]] = None  # None -> scaled default
    seed: int = 0
    #: Extra keywords for the model factory, e.g. (("aggr", "max"),) for
    #: GraphSAGE or (("heads", 4),) for GAT.  A tuple of pairs so the
    #: config stays hashable/frozen.
    model_kwargs: Tuple[Tuple[str, object], ...] = ()

    def resolved_fanouts(self) -> Tuple[int, ...]:
        return tuple(self.fanouts) if self.fanouts else scaled_default_fanouts(
            self.model_kind)

    def with_(self, **kw) -> "TrainConfig":
        return replace(self, **kw)


def probe_batch_shape(dataset: DiskDataset, fanouts, batch_size: int,
                      dims=None, seed: int = 0, trials: int = 5):
    """Empirical per-batch maxima from trial samples.

    Returns ``(max_nodes, max_activation_bytes)``; the latter is 0 when
    *dims* is None.  Every system sizes working buffers from these:
    GNNDrive's staging/feature buffers and activation reserve, Ginex's
    functional cache minimum.  Uses a throwaway RNG stream.
    """
    streams = RandomStreams(seed)
    sampler = NeighborSampler(dataset.graph, tuple(fanouts),
                              streams.get("mb-probe"))
    rng = streams.get("mb-probe-batches")
    train = dataset.train_idx
    max_nodes, max_act = 0, 0
    for _ in range(trials):
        take = min(batch_size, len(train))
        seeds = rng.choice(train, size=take, replace=False)
        sub = sampler.sample(seeds)
        max_nodes = max(max_nodes, len(sub.all_nodes))
        if dims is not None:
            max_act = max(max_act, activation_bytes(sub, dims))
    return max_nodes, max_act


def estimate_max_batch_nodes(dataset: DiskDataset, fanouts, batch_size: int,
                             seed: int = 0, trials: int = 5) -> int:
    """Empirical max unique sampled nodes per mini-batch (Mb)."""
    return probe_batch_shape(dataset, fanouts, batch_size,
                             seed=seed, trials=trials)[0]


def activation_bytes(subgraph: SampledSubgraph, dims) -> int:
    """Rough training-time activation footprint of one batch.

    Forward activations plus their gradients (factor 2), the classic
    estimate used for OOM checks.
    """
    total = 0
    for i, (num_src, num_dst, _) in enumerate(subgraph.layer_sizes()):
        total += num_src * dims[i] + num_dst * dims[i + 1]
    return 2 * total * FLOAT_BYTES


class TrainingSystem:
    """Abstract base; see :meth:`run_epochs`."""

    name = "base"

    def __init__(self, machine: Machine, dataset: DiskDataset,
                 train_cfg: TrainConfig):
        self.machine = machine
        self.dataset = dataset
        self.train_cfg = train_cfg
        self.streams = RandomStreams(train_cfg.seed)

        if dataset.topo_handle is None:
            dataset.mount(machine.catalog)

        self.fanouts = train_cfg.resolved_fanouts()
        if len(self.fanouts) != train_cfg.num_layers:
            raise ValueError(
                f"fanouts {self.fanouts} do not match "
                f"{train_cfg.num_layers} model layers")
        self.model = make_model(
            train_cfg.model_kind, dataset.dim, train_cfg.hidden_dim,
            dataset.num_classes, train_cfg.num_layers, seed=train_cfg.seed,
            **dict(train_cfg.model_kwargs))
        self.optimizer = Adam(self.model.parameters(), lr=train_cfg.lr)
        self.plan = MinibatchPlan(
            dataset.train_idx, train_cfg.batch_size,
            self.streams.get("minibatch-shuffle"))
        self.eval_sampler = NeighborSampler(
            dataset.graph, self.fanouts, self.streams.get("eval-sampling"))
        self.dims = ComputeCostModel.model_dims(
            train_cfg.model_kind, dataset.dim, train_cfg.hidden_dim,
            dataset.num_classes, train_cfg.num_layers)
        self.epoch_stats: List[EpochStats] = []
        #: Every system keeps the CSC index-pointer array resident (§5).
        self._indptr_alloc = machine.host.allocate(
            dataset.indptr_nbytes(), tag="indptr")

    # ------------------------------------------------------------------
    @property
    def model_kind(self) -> str:
        return self.train_cfg.model_kind

    def model_state_bytes(self) -> int:
        return self.model.num_parameters() * FLOAT_BYTES * OPTIMIZER_STATE_FACTOR

    def evaluate(self, nodes: Optional[np.ndarray] = None) -> float:
        """Data-plane validation accuracy (not charged to simulated time:
        the paper's timings are training epochs; evaluation happens
        out-of-band)."""
        nodes = self.dataset.val_idx if nodes is None else nodes
        return accuracy(self.model, self.eval_sampler,
                        self.dataset.features.features, nodes,
                        self.dataset.labels, batch_size=256)

    # ------------------------------------------------------------------
    def run_epochs(self, num_epochs: int,
                   target_accuracy: Optional[float] = None,
                   time_budget: Optional[float] = None,
                   eval_every: int = 0) -> List[EpochStats]:
        """Train for *num_epochs* (or until *target_accuracy*).

        Returns one :class:`EpochStats` per completed epoch.  Raises
        :class:`OutOfTimeError` instead of dispatching an event past
        *time_budget* (simulated seconds), :class:`OutOfMemoryError` on
        memory-budget violations, and any actor's unhandled exception.
        """
        raise NotImplementedError

    def teardown(self) -> None:
        """Release host/device allocations (override to add more)."""
        self.machine.host.free(self._indptr_alloc)
