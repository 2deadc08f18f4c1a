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

from typing import Generator, List

from repro.core.base import TrainConfig, TrainingSystem
from repro.core.sampling_io import fault_records, sample_step
from repro.graph.datasets import DiskDataset
from repro.machine import Machine
from repro.sampling import NeighborSampler
from repro.sampling.subgraph import SampledSubgraph
from repro.simcore import Event, Store

SHUTDOWN = object()

#: PyTorch's caching allocator fragments per-batch tensors; PyG+ also
#: keeps a pinned host copy and a device copy of the batch features.
ALLOCATOR_OVERHEAD = 1.5
#: DataLoader-style sampling worker threads, and sampled batches they
#: queue ahead of the main loop.
NUM_WORKERS = 4
PREFETCH_DEPTH = 8


class PyGPlus(TrainingSystem):
    """The mmap-everything baseline."""

    name = "pyg+"
    #: Whether the CSC index array is pinned in host memory, so sampling
    #: faults no topology pages (the in-memory reference).
    topology_resident = False

    def __init__(self, machine: Machine, dataset: DiskDataset,
                 train_cfg: TrainConfig = TrainConfig(),
                 sample_only: bool = False):
        super().__init__(machine, dataset, train_cfg)
        #: Fig. 2's "-only" mode: run just the sample stage per epoch.
        self.sample_only = sample_only
        sim = machine.sim
        self.batch_q = Store(sim, PREFETCH_DEPTH, "prefetch")
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
            sub = yield from sample_step(m, self.dataset, sampler, seeds,
                                         resident=self.topology_resident)
            self._stage.sample += m.sim.now - t0
            yield self.batch_q.put((epoch, batch_id, sub))

    def _extract_features(self, sub: SampledSubgraph) -> Generator:
        """Synchronous mmap extraction through the page cache."""
        yield from fault_records(self.machine, self.dataset.feat_handle,
                                 sub.all_nodes)

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
                yield from self._gpu_train_step(sub, ALLOCATOR_OVERHEAD)
                self._stage.train += m.sim.now - t0
        done_event.succeed(m.sim.now)

    # ------------------------------------------------------------------
    def _launch_epoch(self, epoch: int) -> List[Event]:
        sim = self.machine.sim
        if not self._started:
            self.pending_q = Store(sim, name="pyg-pending")
            for i in range(NUM_WORKERS):
                self._actors.append(sim.process(self._sampler_proc(i),
                                                name=f"pyg-sampler{i}"))
            self._started = True
        batches = self.plan.epoch_batches()
        self._epoch_batches = len(batches)
        done = sim.event()
        self.pending_q.put_many(
            (epoch, batch_id, seeds) for batch_id, seeds in enumerate(batches))
        sim.process(self._main_loop(epoch, len(batches), done),
                    name="pyg-main")
        return [done]

    def shutdown(self) -> None:
        if self._started:
            self.pending_q.put(SHUTDOWN)
            self.machine.sim.drain(self._actors)
            self._started = False
