"""Data-parallel multi-GPU GNNDrive (§4.3, Figure 7).

One *subprocess* (modelled as an independent actor pipeline — Python's
GIL forces real GNNDrive to use processes, which is why there is no
shared interpreter state to model) per GPU.  Each subprocess owns its
samplers, extractors, trainer, releaser, queues, and per-GPU feature
buffer; the training set is split into *segments*; topology and the
staging buffer are shared; trainers synchronise gradients in the
backward pass like PyTorch DDP.

Convergence caveat from the paper: more subprocesses need more epochs
to converge (larger effective batch), which Fig. 13's speedups do not
include — neither do ours.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List

import numpy as np

from repro.core.base import TrainConfig, TrainingSystem
from repro.core.config import GNNDriveConfig
from repro.core.driver import GNNDrive, size_pipeline
from repro.core.staging import StagingBuffer
from repro.graph.datasets import DiskDataset
from repro.machine import Machine
from repro.sampling.batching import split_segments
from repro.simcore.engine import Event, Simulator


class GradientSyncGroup:
    """Ring-allreduce gradient synchronisation barrier.

    All workers arrive with local gradients; the last arrival averages
    them across replicas (writing the mean into every model's ``grad``
    buffers), then everyone pays the allreduce wire time.
    """

    def __init__(self, sim: Simulator, num_workers: int, model_bytes: int,
                 link_bandwidth: float = 8e9, latency: float = 30e-6):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.sim = sim
        self.num_workers = num_workers
        self.model_bytes = int(model_bytes)
        self.link_bandwidth = float(link_bandwidth)
        self.latency = float(latency)
        self._arrived: Dict[int, object] = {}
        self._barrier = Event(sim)
        self.syncs = 0

    def allreduce_time(self) -> float:
        """Ring allreduce: 2(K-1)/K of the payload over the slowest link."""
        k = self.num_workers
        if k == 1:
            return 0.0
        wire = 2.0 * (k - 1) / k * self.model_bytes / self.link_bandwidth
        return wire + 2.0 * self.latency * np.log2(k)

    def _average(self) -> None:
        models = list(self._arrived.values())
        params = [m.parameters() for m in models]
        for group in zip(*params):
            grads = [p.grad for p in group if p.grad is not None]
            if not grads:
                continue
            mean = np.mean(grads, axis=0)
            for p in group:
                p.grad = mean.copy()

    def sync(self, worker_id: int, model) -> Generator:
        """Barrier + averaging + wire time; yield from inside a trainer."""
        if self.num_workers == 1:
            return
            yield  # pragma: no cover - makes this a generator
        if worker_id in self._arrived:
            raise ValueError(f"worker {worker_id} double-arrived at barrier")
        self._arrived[worker_id] = model
        if len(self._arrived) == self.num_workers:
            self._average()
            self.syncs += 1
            barrier, self._barrier = self._barrier, Event(self.sim)
            self._arrived = {}
            barrier.succeed(None)
        else:
            yield self._barrier
        yield self.sim.timeout(self.allreduce_time())


@dataclass
class SharedResources:
    """Resources shared among data-parallel subprocesses (§4.3)."""

    staging: StagingBuffer
    sync_group: GradientSyncGroup
    indptr_alloc: object


class MultiGPUGNNDrive(TrainingSystem):
    """K data-parallel GNNDrive subprocesses on one machine."""

    def __init__(self, machine: Machine, dataset: DiskDataset,
                 train_cfg: TrainConfig = TrainConfig(),
                 config: GNNDriveConfig = GNNDriveConfig(),
                 num_workers: int = 2):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if config.device == "gpu" and num_workers > machine.spec.num_gpus:
            raise ValueError(
                f"{num_workers} workers but machine has "
                f"{machine.spec.num_gpus} GPUs")
        super().__init__(machine, dataset, train_cfg)
        self.config = config
        self.num_workers = num_workers
        self.name = f"gnndrive-{config.device}-x{num_workers}"

        # Shared resources: one resident indptr (the base class pinned
        # it) and one staging buffer with a portion per worker, each
        # portion sized like a standalone single-GPU system's staging.
        max_batch_nodes, _, io_size, num_extractors = size_pipeline(
            machine, dataset, train_cfg, config, self.fanouts, self.dims)
        staging = None
        if config.device == "gpu":
            staging = StagingBuffer(
                machine.host, num_extractors * num_workers,
                max_batch_nodes, io_size, num_portions=num_workers)
        sync = GradientSyncGroup(machine.sim, num_workers,
                                 self.model.num_parameters() * 4)
        self.shared = SharedResources(staging, sync, self._indptr_alloc)

        # Segments: equal batch counts per worker (DDP lockstep).
        if num_workers == 1:
            # One worker degenerates to single-process GNNDrive: keep the
            # training split untouched (no shuffle-split, no truncation)
            # so stats and trace match the single-GPU system exactly —
            # the multigpu(1) ≡ single differential oracle.
            segments = [np.asarray(dataset.train_idx)]
            usable = len(segments[0])
        else:
            segments = split_segments(dataset.train_idx, num_workers,
                                      self.streams.get("segments"))
            min_len = min(len(s) for s in segments)
            usable = (min_len // train_cfg.batch_size) * train_cfg.batch_size
            usable = max(usable, train_cfg.batch_size if min_len >= train_cfg.batch_size else min_len)

        self.workers: List[GNNDrive] = []
        for k in range(num_workers):
            seg_cfg = train_cfg.with_(seed=train_cfg.seed)
            worker = GNNDrive(
                machine,
                _dataset_view(dataset, segments[k][:usable]),
                seg_cfg,
                config.with_(gpu_id=k if config.device == "gpu" else 0),
                shared=self.shared, worker_id=k)
            self.workers.append(worker)
        # Worker 0's model is representative (all replicas identical).
        self.model = self.workers[0].model

    # ------------------------------------------------------------------
    def _replicas(self) -> List[GNNDrive]:
        return self.workers

    def _launch_epoch(self, epoch: int) -> List[Event]:
        # Every worker's actors start before any worker enqueues a batch:
        # that order fixes the event sequence the golden trace pins.
        for w in self.workers:
            w._start_actors()
        return [done for w in self.workers for done in w._launch_epoch(epoch)]

    def shutdown(self) -> None:
        for w in self.workers:
            w.shutdown()


def _dataset_view(dataset: DiskDataset, train_subset: np.ndarray) -> DiskDataset:
    """A shallow dataset view whose training split is *train_subset*.

    Shares topology, features, labels, and (crucially) the mounted file
    handles with the parent dataset.
    """
    view = DiskDataset(dataset.spec, dataset.graph, dataset.features,
                       dataset.labels, np.asarray(train_subset),
                       dataset.val_idx, dataset.test_idx)
    view.topo_handle = dataset.topo_handle
    view.feat_handle = dataset.feat_handle
    return view
