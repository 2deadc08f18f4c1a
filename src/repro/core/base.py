"""Shared base for every training system (GNNDrive and the baselines).

A *training system* owns a mounted dataset on a simulated machine, a
real NumPy model and optimizer, and a mini-batch plan.  Every system runs
the one epoch loop, :meth:`TrainingSystem.run_epochs`, and the same
per-epoch accounting; a subclass supplies only how an epoch starts
(its scheduling architecture) and, where it has a feature cache, that
cache's cumulative reuse counters.  Because all systems share the same
model math, sampler semantics and accounting, performance differences
come only from their runtime designs — the comparison the paper makes.

Scaling note: the paper trains with batch 1000 and fanouts (10, 10, 10)
on billion-edge graphs.  Mini datasets are ~1/1000 scale, so the default
*scaled workload* is batch 100 with fanouts (3, 3, 3) — keeping the
per-batch feature footprint the same small fraction of host memory that
the paper's setup has (a sampled batch must not be a macroscopic
fraction of a 1000x smaller graph).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Generator, List, Optional, Tuple

import numpy as np

from repro.core.stats import EpochStats, StageBreakdown
from repro.errors import ConfigError, require_seed
from repro.graph.datasets import DiskDataset
from repro.machine import Machine
from repro.models import Adam, make_model
from repro.models.costmodel import ComputeCostModel
from repro.models.train import accuracy, train_step
from repro.sampling import MinibatchPlan, NeighborSampler
from repro.sampling.subgraph import SampledSubgraph
from repro.simcore import Event, RandomStreams

FLOAT_BYTES = 4
#: Parameter + Adam first/second moment buffers.
OPTIMIZER_STATE_FACTOR = 3
#: Counters an epoch reports in ``EpochStats.extra`` rather than a field.
EXTRA_COUNTERS = ("feat_bytes_read", "feat_cache_hits", "feat_cache_misses")
#: The paper's three models (§5 "GNN Models").
MODEL_KINDS = ("sage", "gcn", "gat")
#: Hidden dimension of every model (§5) and Adam's learning rate.
HIDDEN_DIM = 256
LR = 3e-3


def scaled_default_fanouts(kind: str) -> Tuple[int, ...]:
    """Paper fanouts (10,10,10)/(10,10,5) shrunk for 1/1000-scale data."""
    return (3, 3, 2) if kind.lower() == "gat" else (3, 3, 3)


@dataclass(frozen=True)
class TrainConfig:
    """Model/workload parameters shared by every system."""

    model_kind: str = "sage"
    batch_size: int = 50
    num_layers: int = 3
    fanouts: Optional[Tuple[int, ...]] = None  # None -> scaled default
    seed: int = 0

    def __post_init__(self):
        if self.model_kind.lower() not in MODEL_KINDS:
            raise ConfigError(f"model_kind must be one of {MODEL_KINDS}, "
                              f"got {self.model_kind!r}")
        for name in ("batch_size", "num_layers"):
            if getattr(self, name) < 1:
                raise ConfigError(
                    f"{name} must be >= 1, got {getattr(self, name)!r}")
        if self.fanouts and min(self.fanouts) < 1:
            raise ConfigError(
                f"fanouts must be positive, got {self.fanouts!r}")
        require_seed(self.seed)

    def resolved_fanouts(self) -> Tuple[int, ...]:
        return tuple(self.fanouts) if self.fanouts else scaled_default_fanouts(
            self.model_kind)

    def with_(self, **kw) -> "TrainConfig":
        return replace(self, **kw)


def model_layout(dataset: DiskDataset, train_cfg: TrainConfig
                 ) -> Tuple[Tuple[int, ...], List[int]]:
    """``(fanouts, dims)`` of the model *train_cfg* describes on
    *dataset*: one sampling fanout per layer, and the layer widths the
    cost model charges.  Raises ValueError when the fanouts do not
    match the layer count."""
    fanouts = train_cfg.resolved_fanouts()
    if len(fanouts) != train_cfg.num_layers:
        raise ValueError(
            f"fanouts {fanouts} do not match "
            f"{train_cfg.num_layers} model layers")
    return fanouts, ComputeCostModel.model_dims(
        train_cfg.model_kind, dataset.dim, HIDDEN_DIM,
        dataset.num_classes, train_cfg.num_layers)


def build_model(dataset: DiskDataset, train_cfg: TrainConfig):
    """The NumPy model *train_cfg* describes on *dataset*, initialised
    from ``train_cfg.seed``."""
    return make_model(
        train_cfg.model_kind, dataset.dim, HIDDEN_DIM,
        dataset.num_classes, train_cfg.num_layers, seed=train_cfg.seed)


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
    """Abstract base: the epoch loop (:meth:`run_epochs`) and its
    accounting; subclasses implement :meth:`_launch_epoch`."""

    name = "base"
    #: Fig. 2's "-only" mode: epochs run the sample stage alone, report
    #: a NaN loss and skip evaluation.
    sample_only = False
    #: False for a data-parallel group: its workers build and train the
    #: models, and the group evaluates worker 0's.
    owns_model = True

    def __init__(self, machine: Machine, dataset: DiskDataset,
                 train_cfg: TrainConfig):
        self.machine = machine
        self.dataset = dataset
        self.train_cfg = train_cfg
        self.streams = RandomStreams(train_cfg.seed)

        if dataset.topo_handle is None:
            dataset.mount(machine.catalog)

        self.fanouts, self.dims = model_layout(dataset, train_cfg)
        if self.owns_model:
            self.model = build_model(dataset, train_cfg)
            self.optimizer = Adam(self.model.parameters(), lr=LR)
        self.plan = MinibatchPlan(
            dataset.train_idx, train_cfg.batch_size,
            self.streams.get("minibatch-shuffle"))
        self.eval_sampler = NeighborSampler(
            dataset.graph, self.fanouts, self.streams.get("eval-sampling"))
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
    # Subclass hooks
    # ------------------------------------------------------------------
    def _launch_epoch(self, epoch: int) -> List[Event]:
        """Start *epoch*'s work; return the events that together mark
        its end.  Sets ``_epoch_batches`` when the plan fixes it up
        front; a system that forms batches as it goes counts them."""
        raise NotImplementedError

    def _reuse_counters(self) -> Tuple[int, int]:
        """Cumulative (reused, loaded) nodes of the system's feature
        cache; (0, 0) for a system without one."""
        return 0, 0

    def _replicas(self) -> List["TrainingSystem"]:
        """The pipelines whose per-epoch accumulators and reuse counters
        sum to this system's: itself, or a data-parallel group's
        workers."""
        return [self]

    # ------------------------------------------------------------------
    # Shared batch accounting and step
    # ------------------------------------------------------------------
    def _record_batch(self, loss: float, correct: int,
                      seeds: np.ndarray) -> None:
        """Account one trained mini-batch to the running epoch."""
        self._epoch_loss_sum += loss
        self._epoch_correct += correct
        self._epoch_seen += len(seeds)

    def _gpu_train_step(self, sub: SampledSubgraph, overhead: float = 1,
                        absent: Optional[np.ndarray] = None) -> Generator:
        """The baselines' synchronous batch step on GPU 0.

        Holds the batch's features and activations (times *overhead*)
        in device memory while it copies the features over PCIe and
        runs the step, then trains on the real rows, zeroing the rows
        the *absent* mask selects.
        """
        m = self.machine
        gpu = m.gpus[0]
        feat_bytes = int(sub.num_sampled_nodes
                         * self.dataset.features.record_nbytes)
        held = feat_bytes + int(activation_bytes(sub, self.dims) * overhead)
        gpu.allocate(held, tag="batch")
        try:
            yield m.pcie[0].copy_async(feat_bytes)
            yield from m.gpu_task(0, m.gpu_cost.train_step_time(
                self.model_kind, sub.layer_sizes(), self.dims))
        finally:
            gpu.free(held, tag="batch")
        feats = self.dataset.features.gather(sub.all_nodes)
        if absent is not None:
            feats[absent] = 0.0
        loss, correct = train_step(self.model, self.optimizer, feats, sub,
                                   self.dataset.labels)
        self._record_batch(loss, correct, sub.seeds)

    # ------------------------------------------------------------------
    # The epoch loop
    # ------------------------------------------------------------------
    def _counters(self) -> Dict[str, int]:
        """Cumulative counters whose movement an epoch reports, keyed by
        their ``EpochStats`` field or ``EXTRA_COUNTERS`` entry."""
        m = self.machine
        cache, feat = m.page_cache, self.dataset.feat_handle.name
        reuse = [r._reuse_counters() for r in self._replicas()]
        return {"bytes_read": m.ssd.bytes_read,
                "cache_hits": cache.hits, "cache_misses": cache.misses,
                "reused_nodes": sum(reused for reused, _ in reuse),
                "loaded_nodes": sum(loaded for _, loaded in reuse),
                "feat_bytes_read": m.ssd.read_bytes_for(feat),
                "feat_cache_hits": cache.hits_for(feat),
                "feat_cache_misses": cache.misses_for(feat)}

    def run_epochs(self, num_epochs: int,
                   time_budget: Optional[float] = None,
                   eval_every: int = 0) -> List[EpochStats]:
        """Train for *num_epochs*.

        Returns one :class:`EpochStats` per completed epoch.  Raises
        :class:`OutOfTimeError` instead of dispatching an event past
        *time_budget* (simulated seconds), :class:`OutOfMemoryError` on
        memory-budget violations, and any actor's unhandled exception.
        """
        m = self.machine
        first = len(self.epoch_stats)
        for epoch in range(first, first + num_epochs):
            replicas = self._replicas()
            for r in replicas:
                r._stage = StageBreakdown()
                r._epoch_loss_sum, r._epoch_correct = 0.0, 0
                r._epoch_seen = r._epoch_batches = 0
            m.sanitize_epoch_begin()
            t_start = m.sim.now
            before = self._counters()
            faults0 = m.fault_counters()
            for done in self._launch_epoch(epoch):
                m.sim.run_until_triggered(done, until=time_budget)
            m.sanitize_epoch_end()

            moved = {k: v - before[k] for k, v in self._counters().items()}
            extra = {k: moved.pop(k) for k in EXTRA_COUNTERS}
            batches = sum(r._epoch_batches for r in replicas)
            loss_sum = sum(r._epoch_loss_sum for r in replicas)
            stats = EpochStats(
                epoch=epoch,
                epoch_time=m.sim.now - t_start,
                stages=sum((r._stage for r in replicas), StageBreakdown()),
                loss=(float("nan") if self.sample_only
                      else loss_sum / max(1, batches)),
                train_acc=(sum(r._epoch_correct for r in replicas)
                           / max(1, sum(r._epoch_seen for r in replicas))),
                num_batches=batches,
                extra=extra,
                faults=m.fault_counters_delta(faults0),
                **moved)
            if (eval_every and (epoch + 1) % eval_every == 0
                    and not self.sample_only):
                stats.val_acc = self.evaluate()
            self.epoch_stats.append(stats)
        return self.epoch_stats

    def shutdown(self) -> None:
        """Stop the system's standing actors (none by default)."""

    def teardown(self) -> None:
        """Release host/device allocations (override to add more)."""
        self.machine.host.free(self._indptr_alloc)
