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
from typing import Dict, Generator, List, Optional

import numpy as np

from repro.core.base import TrainConfig, TrainingSystem
from repro.core.config import GNNDriveConfig
from repro.core.driver import GNNDrive
from repro.core.staging import StagingBuffer
from repro.core.stats import EpochStats, StageBreakdown
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

        # Shared resources: one staging buffer with per-worker portions,
        # one resident indptr (the base class already pinned ours).
        # The probe must size itself against the pinned state a
        # standalone single-GPU system would see; our indptr pin would
        # stack on top of the probe's private one and shrink its staging
        # budget, so hand it back for the probe's lifetime.
        machine.host.free(self._indptr_alloc)
        probe = GNNDrive(machine, dataset, train_cfg,
                         config.with_(device=config.device))
        max_batch_nodes = probe.max_batch_nodes
        io_size = probe.io_size
        # The probe already adapted its extractor count to the staging
        # budget; size the shared buffer from that, not the raw config —
        # otherwise a memory-constrained multigpu run pins more staging
        # than the equivalent single-GPU system would.
        num_extractors = probe.num_extractors
        probe.teardown()
        self._release_probe(probe)
        self._indptr_alloc = machine.host.allocate(
            dataset.indptr_nbytes(), tag="indptr")

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

    # ------------------------------------------------------------------
    def _release_probe(self, probe: GNNDrive) -> None:
        """Undo the sizing probe's allocations."""
        m = self.machine
        if probe.config.device == "gpu":
            gpu = m.gpus[probe.config.gpu_id]
            gpu.free(probe.num_feature_slots
                     * self.dataset.features.record_nbytes,
                     tag="feature-buffer")
            gpu.free(probe.model_state_bytes(), tag="model")
            probe.staging.close()
        else:
            m.host.free(probe._fb_alloc)

    # ------------------------------------------------------------------
    def run_epochs(self, num_epochs: int,
                   target_accuracy: Optional[float] = None,
                   time_budget: Optional[float] = None,
                   eval_every: int = 0) -> List[EpochStats]:
        m = self.machine
        for w in self.workers:
            w._start_actors()
        for epoch in range(len(self.epoch_stats),
                           len(self.epoch_stats) + num_epochs):
            m.sanitize_epoch_begin()
            t_start = m.sim.now
            f0 = m.fault_counters()
            bytes0 = m.ssd.bytes_read
            feat0 = m.ssd.read_bytes_for(self.dataset.feat_handle.name)
            hits0, miss0 = m.page_cache.hits, m.page_cache.misses
            reuse0 = sum(w.feature_buffer.stat_reused for w in self.workers)
            load0 = sum(w.feature_buffer.stat_loaded for w in self.workers)
            dones = []
            agg = StageBreakdown()
            total_batches = 0
            for w in self.workers:
                batches = w.plan.epoch_batches()
                total_batches += len(batches)
                w._epoch_expected[epoch] = len(batches)
                done = m.sim.event()
                w._epoch_done[epoch] = done
                dones.append(done)
                w._stage = StageBreakdown()
                w._epoch_loss_sum = 0.0
                w._epoch_correct = 0
                w._epoch_seen = 0
                w.pending_q.put_many(
                    (epoch, batch_id, seeds)
                    for batch_id, seeds in enumerate(batches))

            # Equivalent to `while not all(d.triggered): step()` — a
            # done event already triggered makes its wait a no-op.
            for d in dones:
                m.sim.run_until_triggered(d, until=time_budget)
            m.sanitize_epoch_end()
            for w in self.workers:
                agg.sample += w._stage.sample
                agg.extract += w._stage.extract
                agg.train += w._stage.train
                agg.release += w._stage.release
            loss_sum = sum(w._epoch_loss_sum for w in self.workers)
            correct = sum(w._epoch_correct for w in self.workers)
            seen = sum(w._epoch_seen for w in self.workers)
            stats = EpochStats(
                epoch=epoch,
                epoch_time=m.sim.now - t_start,
                stages=agg,
                loss=loss_sum / max(1, total_batches),
                train_acc=correct / max(1, seen),
                num_batches=total_batches,
                bytes_read=m.ssd.bytes_read - bytes0,
                cache_hits=m.page_cache.hits - hits0,
                cache_misses=m.page_cache.misses - miss0,
                reused_nodes=sum(w.feature_buffer.stat_reused
                                 for w in self.workers) - reuse0,
                loaded_nodes=sum(w.feature_buffer.stat_loaded
                                 for w in self.workers) - load0,
                faults=m.fault_counters_delta(f0),
            )
            stats.extra["feat_bytes_read"] = (
                m.ssd.read_bytes_for(self.dataset.feat_handle.name) - feat0)
            # Worker 0's model is representative (all replicas identical).
            self.model = self.workers[0].model
            if eval_every and (epoch + 1) % eval_every == 0:
                stats.val_acc = self.evaluate()
            self.epoch_stats.append(stats)
            if (target_accuracy is not None
                    and not np.isnan(stats.val_acc)
                    and stats.val_acc >= target_accuracy):
                break
        return self.epoch_stats

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
