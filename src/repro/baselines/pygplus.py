"""PyG+ baseline: memory-mapped graph data, synchronous loading (§2).

PyG+ extends PyG for disk-based training "by directly using
memory-mapped graph data": both the CSC index array and the feature
table are mmap'ed and faulted through the OS page cache.  Consequences
the paper measures, all of which emerge from this model:

* feature faults flood the page cache and evict topology pages, so
  sampling slows down exactly when extraction is active (Fig. 2:
  PyG+-all is ~5x PyG+-only);
* every fault is a synchronous read: threads sit in iowait while CPU
  and GPU idle (Fig. 3a);
* with enough host memory (or small feature files) everything stays
  cached and PyG+ is actually competitive (Fig. 9, 128 GB points).

Architecture: DataLoader-style sampling workers feed a bounded prefetch
queue; the main loop extracts (synchronously) and trains one batch at a
time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional

import numpy as np

from repro.core.base import TrainConfig, TrainingSystem, activation_bytes
from repro.core.sampling_io import page_access_with_retry, topo_access_with_retry
from repro.core.stats import EpochStats, StageBreakdown
from repro.graph.datasets import DiskDataset
from repro.machine import Machine
from repro.models.train import train_step
from repro.sampling import NeighborSampler
from repro.sampling.subgraph import SampledSubgraph
from repro.simcore import Store

SHUTDOWN = object()

#: PyTorch's caching allocator fragments per-batch tensors; PyG+ also
#: keeps a pinned host copy and a device copy of the batch features.
ALLOCATOR_OVERHEAD = 1.5


@dataclass(frozen=True)
class PyGPlusConfig:
    """PyG+ knobs (DataLoader-style)."""

    num_workers: int = 4       # sampling worker threads
    prefetch_depth: int = 8    # sampled batches queued ahead

    def __post_init__(self):
        if self.num_workers < 1 or self.prefetch_depth < 1:
            raise ValueError("workers and prefetch must be >= 1")


class PyGPlus(TrainingSystem):
    """The mmap-everything baseline."""

    name = "pyg+"

    def __init__(self, machine: Machine, dataset: DiskDataset,
                 train_cfg: TrainConfig = TrainConfig(),
                 config: PyGPlusConfig = PyGPlusConfig(),
                 sample_only: bool = False):
        super().__init__(machine, dataset, train_cfg)
        self.config = config
        #: Fig. 2's "-only" mode: run just the sample stage per epoch.
        self.sample_only = sample_only
        sim = machine.sim
        self.batch_q = Store(sim, config.prefetch_depth, "prefetch")
        self._actors: List = []
        self._started = False
        # Model + optimizer state live on the GPU.
        machine.gpus[0].allocate(self.model_state_bytes(), tag="model")

    # ------------------------------------------------------------------
    def _sampler_proc(self, idx: int) -> Generator:
        m = self.machine
        sampler = NeighborSampler(self.dataset.graph, self.fanouts,
                                  self.streams.fork("pyg-sampler", idx))
        while True:
            item = yield self.pending_q.get()
            if item is SHUTDOWN:
                yield self.pending_q.put(SHUTDOWN)
                return
            epoch, batch_id, seeds = item
            t0 = m.sim.now
            sub = sampler.sample(seeds)
            yield from self._topo_access(sub)
            yield from m.cpu_task(m.cpu_cost.sample_compute_time(
                sum(len(f) for f in sub.hop_frontiers), sub.total_edges()))
            self._stage.sample += m.sim.now - t0
            yield self.batch_q.put((epoch, batch_id, sub))

    def _topo_access(self, sub: SampledSubgraph) -> Generator:
        """mmap faults on the CSC index array, hop by hop (overridable:
        the in-memory reference pins topology and skips this)."""
        m = self.machine
        for frontier in sub.hop_frontiers:
            yield from topo_access_with_retry(
                m, m.page_cache, self.dataset.topo_handle,
                self.dataset.graph, frontier)

    def _extract_features(self, sub: SampledSubgraph) -> Generator:
        """Synchronous mmap extraction through the page cache."""
        m = self.machine
        handle = self.dataset.feat_handle
        pages = m.page_cache.pages_for_records(handle, sub.all_nodes)
        yield from page_access_with_retry(m, m.page_cache, handle, pages)

    def _train_batch(self, sub: SampledSubgraph) -> Generator:
        m = self.machine
        gpu = m.gpus[0]
        feat_bytes = int(sub.num_sampled_nodes
                         * self.dataset.features.record_nbytes)
        act = int(activation_bytes(sub, self.dims) * ALLOCATOR_OVERHEAD)
        gpu.allocate(feat_bytes + act, tag="batch")
        try:
            # Synchronous H2D copy of the whole feature tensor.
            yield m.pcie[0].copy_async(feat_bytes)
            duration = m.gpu_cost.train_step_time(
                self.model_kind, sub.layer_sizes(), self.dims)
            yield from m.gpu_task(0, duration)
        finally:
            gpu.free(feat_bytes + act, tag="batch")
        feats = self.dataset.features.gather(sub.all_nodes)
        loss, correct = train_step(self.model, self.optimizer, feats, sub,
                                   self.dataset.labels)
        self._epoch_loss_sum += loss
        self._epoch_correct += correct
        self._epoch_seen += len(sub.seeds)

    def _main_loop(self, epoch: int, num_batches: int,
                   done_event) -> Generator:
        """The training main thread: extract + train, batch by batch."""
        m = self.machine
        for _ in range(num_batches):
            _, _, sub = yield self.batch_q.get()
            if not self.sample_only:
                t0 = m.sim.now
                yield from self._extract_features(sub)
                self._stage.extract += m.sim.now - t0
                t0 = m.sim.now
                # sim-race: ordered -- one main loop per epoch, awaited
                # to completion before the next spawns; never co-runs.
                yield from self._train_batch(sub)
                self._stage.train += m.sim.now - t0
        done_event.succeed(m.sim.now)

    # ------------------------------------------------------------------
    def run_epochs(self, num_epochs: int,
                   target_accuracy: Optional[float] = None,
                   time_budget: Optional[float] = None,
                   eval_every: int = 0) -> List[EpochStats]:
        m = self.machine
        sim = m.sim
        if not self._started:
            self.pending_q = Store(sim, name="pyg-pending")
            for i in range(self.config.num_workers):
                self._actors.append(sim.process(self._sampler_proc(i),
                                                name=f"pyg-sampler{i}"))
            self._started = True

        for epoch in range(len(self.epoch_stats),
                           len(self.epoch_stats) + num_epochs):
            batches = self.plan.epoch_batches()
            self._stage = StageBreakdown()
            self._epoch_loss_sum = 0.0
            self._epoch_correct = 0
            self._epoch_seen = 0
            m.sanitize_epoch_begin()
            t_start = sim.now
            bytes0 = m.ssd.bytes_read
            feat0 = m.ssd.read_bytes_for(self.dataset.feat_handle.name)
            hits0, miss0 = m.page_cache.hits, m.page_cache.misses
            fhits0 = m.page_cache.hits_for(self.dataset.feat_handle.name)
            fmiss0 = m.page_cache.misses_for(self.dataset.feat_handle.name)
            f0 = m.fault_counters()
            done = sim.event()
            self.pending_q.put_many(
                (epoch, batch_id, seeds)
                for batch_id, seeds in enumerate(batches))
            sim.process(self._main_loop(epoch, len(batches), done),
                        name="pyg-main")
            sim.run_until_triggered(done, until=time_budget)
            m.sanitize_epoch_end()

            stats = EpochStats(
                epoch=epoch,
                epoch_time=sim.now - t_start,
                stages=self._stage.snapshot(),
                loss=(self._epoch_loss_sum / max(1, len(batches))
                      if not self.sample_only else float("nan")),
                train_acc=self._epoch_correct / max(1, self._epoch_seen),
                num_batches=len(batches),
                bytes_read=m.ssd.bytes_read - bytes0,
                cache_hits=m.page_cache.hits - hits0,
                cache_misses=m.page_cache.misses - miss0,
                faults=m.fault_counters_delta(f0),
            )
            stats.extra["feat_bytes_read"] = (
                m.ssd.read_bytes_for(self.dataset.feat_handle.name) - feat0)
            stats.extra["feat_cache_hits"] = (
                m.page_cache.hits_for(self.dataset.feat_handle.name) - fhits0)
            stats.extra["feat_cache_misses"] = (
                m.page_cache.misses_for(self.dataset.feat_handle.name)
                - fmiss0)
            if eval_every and (epoch + 1) % eval_every == 0 \
                    and not self.sample_only:
                stats.val_acc = self.evaluate()
            self.epoch_stats.append(stats)
            if (target_accuracy is not None
                    and not np.isnan(stats.val_acc)
                    and stats.val_acc >= target_accuracy):
                break
        return self.epoch_stats

    def shutdown(self) -> None:
        if self._started:
            self.pending_q.put(SHUTDOWN)
            self.machine.sim.drain(self._actors)
            self._started = False
