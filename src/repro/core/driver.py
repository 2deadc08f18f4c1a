"""The GNNDrive pipeline driver (§4.1 architecture, Figure 4).

Actors and queues::

    pending ──> [samplers x4] ──> extracting queue (cap 6)
                                     │
                         [extractors x4, async two-phase]
                                     │
                              training queue (cap 4) ──> [trainer]
                                     │                        │
                              feature buffer <── [releaser] <─┘

Queues carry node-ID work items only — never feature data — so they
"do not pose any bottleneck" (§4.1).  Samplers and extractors run
concurrently and may complete out of order (mini-batch reordering,
§4.3); the trainer consumes whatever is ready.

Sizing rules from the paper:

* staging buffer  = Ne x Mb x io_size (host, pinned),
* feature buffer >= Ne x Mb slots (deadlock-freedom reserve) plus the
  training-queue allowance, capped by device memory — the training
  queue's *effective* depth adapts downward to fit (§4.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional, Tuple

import numpy as np

from repro.core.base import (TrainConfig, TrainingSystem, activation_bytes,
                             probe_batch_shape)
from repro.core.config import (BATCH_NODES_MARGIN, EXTRACT_QUEUE_DEPTH,
                               TRAIN_QUEUE_DEPTH, GNNDriveConfig)
from repro.core.feature_buffer import FeatureBuffer
from repro.core.sampling_io import sample_step
from repro.core.staging import StagingBuffer
from repro.errors import OutOfMemoryError
from repro.faults.recovery import recover_failed_reads, retry_on_oom
from repro.graph.datasets import DiskDataset
from repro.machine import Machine
from repro.models.train import forward_backward
from repro.sampling import NeighborSampler
from repro.sampling.subgraph import SampledSubgraph
from repro.simcore import AllOf, Event, Store
from repro.storage import AsyncRing

#: Queue sentinel telling an actor pool to drain and exit.
SHUTDOWN = object()

#: CPU overhead per node for buffer bookkeeping / SQE construction.
PER_NODE_SUBMIT_COST = 120e-9
#: CPU overhead per batch for queue handling.
PER_BATCH_COST = 30e-6


@dataclass
class _ExtractItem:
    epoch: int
    batch_id: int
    subgraph: SampledSubgraph


@dataclass
class _TrainItem:
    epoch: int
    batch_id: int
    subgraph: SampledSubgraph
    aliases: np.ndarray


def size_pipeline(machine: Machine, dataset: DiskDataset,
                  train_cfg: TrainConfig, config: GNNDriveConfig,
                  fanouts, dims) -> Tuple[int, int, int, int]:
    """GNNDrive's buffer sizing for one pipeline on *machine* as it
    stands: ``(Mb, activation reserve, io_size, Ne)``.

    Mb (max nodes per mini-batch) and the device bytes reserved for one
    batch's training activations come from trial samples.  The
    extractor count Ne adapts to host memory (§4.2): "the staging
    buffer can be expanded or shrunk by adjusting the number of
    extractors, which we decide with regard to the volume of
    topological data and the capacity of available host memory" — the
    staging buffer stays small enough that the topology index remains
    cacheable.
    """
    observed, observed_act = probe_batch_shape(
        dataset, fanouts, train_cfg.batch_size, dims=dims,
        seed=train_cfg.seed)
    max_batch_nodes = int(observed * BATCH_NODES_MARGIN)
    io_size = dataset.features.io_size(config.direct_io)
    if config.gpu_direct:
        # GDS needs a 4 KiB access granularity (§4.4): small records
        # force redundant loading.
        io_size = max(4096, ((io_size + 4095) // 4096) * 4096)
    host = machine.host
    topo_room = dataset.topo_nbytes() + dataset.indptr_nbytes()
    staging_budget = max(
        max_batch_nodes * io_size,                # >= one extractor
        host.capacity - topo_room - host.pinned_bytes
        - (host.capacity // 8),                   # breathing room
    )
    num_extractors = max(1, min(config.num_extractors,
                                staging_budget // (max_batch_nodes
                                                   * io_size)))
    return (max_batch_nodes, int(observed_act * BATCH_NODES_MARGIN),
            io_size, num_extractors)


def extract_batch(machine: Machine, fb: FeatureBuffer, ring: AsyncRing,
                  staging: Optional[StagingBuffer], portion: int,
                  dataset: DiskDataset, io_size: int, link,
                  nodes: np.ndarray) -> Generator:
    """GNNDrive's asynchronous two-phase extraction of one batch (§4.2,
    Algorithm 1) into *fb*.

    Use as ``cls, aliases = yield from extract_batch(...)`` inside a
    process: *cls* is the buffer's classification of *nodes*, *aliases*
    their feature-buffer rows.  Reserves slots for the nodes to load
    (waiting on the releaser while the standby list is dry) and their
    *staging* room in *portion* (None: no staging hop), then phase 1
    reads them through *ring* (a buffered ring goes through the page
    cache, §4.4) with the fault-recovery ladder, and phase 2 copies each
    node over PCIe *link* at its own load completion (None: data lands
    where it trains).  Nodes another extractor is loading are waited for
    at the end (Algorithm 1 line 38).  GNNDrive's extractors and the
    serving plane's async backend both run it.
    """
    m = machine
    feat_handle = dataset.feat_handle
    record_bytes = dataset.features.record_nbytes
    cls = fb.begin_batch(nodes)
    # Reserve slots for the loads (blocks on the releaser when the
    # standby list runs dry — the Ne x Mb reserve bounds it).
    pending = cls.needs_load
    while len(pending):
        _, pending = fb.allocate_slots(pending)
        if len(pending):
            yield fb.slot_wait_event()
    to_load = cls.needs_load
    if staging is not None:
        yield from retry_on_oom(
            m, "staging_retries",
            lambda: staging.reserve(len(to_load), portion))
    # SQE construction and buffer bookkeeping on a CPU core.
    yield from m.cpu_task(PER_BATCH_COST + len(nodes) * PER_NODE_SUBMIT_COST)

    if len(to_load):
        ssd_nodes = to_load
        if not ring.direct:
            # Buffered alternative (§4.4): reads go through the OS page
            # cache — resident pages are free, missed pages pollute the
            # cache (squeezing the topology, which is exactly why the
            # paper prefers direct I/O).
            cache = m.page_cache
            resident = cache.records_resident_mask(feat_handle, to_load)
            ssd_nodes = to_load[~resident]
            cache.warm(feat_handle,
                       cache.pages_for_records(feat_handle, to_load))
        # Phase 1: asynchronous loads from SSD (io_uring).
        ring.prepare_record_reads(feat_handle, ssd_nodes, io_size=io_size)
        t_load = ring.submit()
        res = ring.last_res
        dropped_nodes = np.empty(0, dtype=np.int64)
        if res is not None and (res < 0).any():
            t_load, dropped_nodes = yield from recover_failed_reads(
                m, ring, feat_handle, ssd_nodes, t_load, res, io_size,
                record_bytes)
        if len(t_load) < len(to_load):
            # Page-cache hits are ready immediately.
            t_load = np.concatenate([
                np.full(len(to_load) - len(t_load), m.sim.now), t_load])
        rows = dataset.features.gather(to_load)
        if len(dropped_nodes):
            # Unrecoverable reads: zero-fill those rows (gather returned
            # a copy), the batch still trains.
            rows[np.isin(to_load, dropped_nodes)] = 0
        fb.fill(to_load, rows)
        t_ready = np.sort(t_load)
        if link is not None:
            # Phase 2: per-node PCIe transfers launched at each node's
            # own load completion (overlapped, §4.2).
            t_ready = link.copy_stream(t_ready, record_bytes)
        # The extractor parks on the CQ without holding a core
        # (asynchronous wait — deliberately NOT iowait).
        yield m.sim.timeout(max(0.0, float(t_ready[-1]) - m.sim.now))
        fb.finish_load(to_load)
    if staging is not None:
        staging.free(len(to_load), portion)

    # Nodes another extractor is loading: re-examine at the end
    # (Algorithm 1 line 38).
    if len(cls.wait_nodes):
        yield AllOf(m.sim, [fb.ready_event(v) for v in cls.wait_nodes])
    return cls, fb.resolve_aliases(nodes)


class GNNDrive(TrainingSystem):
    """Single-process GNNDrive (GPU- or CPU-based training)."""

    def __init__(self, machine: Machine, dataset: DiskDataset,
                 train_cfg: TrainConfig = TrainConfig(),
                 config: GNNDriveConfig = GNNDriveConfig(),
                 shared=None, worker_id: int = 0,
                 sample_only: bool = False):
        """*shared* (a :class:`repro.core.multigpu.SharedResources`) wires
        this instance into a data-parallel group: shared staging buffer
        portion, shared resident topology, and gradient synchronisation.
        Worker *worker_id* of a GPU group trains on GPU *worker_id*.

        *sample_only* runs just the sample stage per epoch (Fig. 2's
        '-only' mode): extraction/training are skipped, but the system's
        buffers stay allocated so the memory footprint is authentic.
        """
        super().__init__(machine, dataset, train_cfg)
        self.config = config
        self.name = f"gnndrive-{config.device}"
        self.shared = shared
        self.worker_id = worker_id
        self.gpu_id = worker_id
        self.sample_only = sample_only
        m = machine
        if shared is not None:
            # Topology (indptr) is shared among subprocesses (§4.3);
            # the base class pinned a private copy — return it.
            m.host.free(self._indptr_alloc)

        (self.max_batch_nodes, self._probe_act_bytes, io_size,
         num_extractors) = size_pipeline(m, dataset, train_cfg, config,
                                         self.fanouts, self.dims)
        self.io_size = io_size
        record_bytes = dataset.features.record_nbytes
        if shared is not None and shared.staging is not None:
            # The group sized the shared staging with this same rule;
            # re-deriving from pinned_bytes here would double-count the
            # shared buffer and under-provision this worker relative to
            # the equivalent single-process system.
            num_extractors = max(1, shared.staging.portion_capacity
                                 // (self.max_batch_nodes * io_size))
        self.num_extractors = num_extractors

        # ------------------------------------------------------------
        # Feature buffer placement and adaptive sizing (§4.2).
        # ------------------------------------------------------------
        # Deadlock-freedom: every extractor (Ne), every queued batch
        # (Tq), and the batch currently in the trainer (+1) may each
        # hold up to Mb slots simultaneously; the standby list must
        # always be able to satisfy the neediest extractor.
        min_slots = (self.num_extractors + 1) * self.max_batch_nodes
        want_queue_slots = TRAIN_QUEUE_DEPTH * self.max_batch_nodes
        if config.device == "gpu":
            gpu = m.gpus[self.gpu_id]
            budget = (gpu.available - self.model_state_bytes()
                      - self._probe_act_bytes)
            affordable = budget // record_bytes
        else:
            # CPU variant: feature buffer lives in host memory.
            budget = int(m.host.available * 0.6)  # leave room for topo cache
            affordable = budget // record_bytes
        if affordable < min_slots + self.max_batch_nodes:
            raise OutOfMemoryError(
                (min_slots + self.max_batch_nodes) * record_bytes,
                int(budget), where=f"feature-buffer({config.device})")
        slots = min(affordable,
                    int((min_slots + want_queue_slots)
                        * config.feature_buffer_scale))
        #: Effective training-queue depth after the device-memory cap.
        self.train_queue_depth = max(
            1, min(TRAIN_QUEUE_DEPTH,
                   (slots - min_slots) // self.max_batch_nodes))
        self.num_feature_slots = slots

        self.feature_buffer = FeatureBuffer(
            m.sim, slots, dataset.num_nodes, dataset.dim)
        if config.device == "gpu":
            m.gpus[self.gpu_id].allocate(slots * record_bytes, tag="feature-buffer")
            m.gpus[self.gpu_id].allocate(self.model_state_bytes(), tag="model")
            if config.gpu_direct:
                # GDS eliminates the host staging buffer entirely
                # (§4.4): loads DMA straight into device memory.
                self.staging = None
                self.staging_portion = 0
            elif shared is not None:
                self.staging = shared.staging
                self.staging_portion = worker_id
            else:
                self.staging = StagingBuffer(
                    m.host, self.num_extractors, self.max_batch_nodes,
                    io_size)
                self.staging_portion = 0
        else:
            # CPU variant: features land directly in the host feature
            # buffer, no staging hop (§4.4 "CPU-based Training").  For
            # data parallelism the host feature buffer would be shared;
            # we keep one per worker and skip staging either way.
            self._fb_alloc = m.host.allocate(slots * record_bytes,
                                             tag="feature-buffer")
            self.staging = None
            self.staging_portion = 0
        #: Graceful-degradation floor: the deadlock-freedom reserve plus
        #: one batch of headroom must survive any fault-driven shrink.
        self._fb_min_slots = min_slots + self.max_batch_nodes
        self._fb_shrunk = 0

        # ------------------------------------------------------------
        # Queues and actor bookkeeping.
        # ------------------------------------------------------------
        sim = m.sim
        self.pending_q = Store(sim, name="pending")
        self.extract_q = Store(sim, EXTRACT_QUEUE_DEPTH, "extracting")
        self.train_q = Store(sim, self.train_queue_depth, "training")
        self.release_q = Store(sim, name="releasing")
        if sim.sanitizer is not None:
            for q in (self.pending_q, self.extract_q, self.train_q,
                      self.release_q):
                sim.sanitizer.register(q)
            sim.sanitizer.register(self.feature_buffer)
        self._actors: List = []
        self._started = False
        self._epoch_expected = {}
        self._epoch_done = {}

    # ------------------------------------------------------------------
    # Actors
    # ------------------------------------------------------------------
    def _sampler_proc(self, idx: int) -> Generator:
        m = self.machine
        sampler = NeighborSampler(self.dataset.graph, self.fanouts,
                                  self.streams.fork("sampler", idx))
        while True:
            item = yield self.pending_q.get()
            if item is SHUTDOWN:
                yield self.pending_q.put(SHUTDOWN)
                return
            epoch, batch_id, seeds = item
            t0 = m.sim.now
            sub = yield from sample_step(m, self.dataset, sampler, seeds)
            self._stage.sample += m.sim.now - t0
            if m.tracer:
                m.tracer.span(f"batch {batch_id}", "sample",
                              f"sampler{idx}", t0, m.sim.now,
                              epoch=epoch, nodes=len(sub.all_nodes))
            yield self.extract_q.put(_ExtractItem(epoch, batch_id, sub))

    def _complete_batch(self, epoch: int) -> None:
        """Count one finished batch toward the epoch-done event."""
        done = self._epoch_done.get(epoch)
        self._epoch_expected[epoch] -= 1
        if self._epoch_expected[epoch] == 0 and done is not None:
            done.succeed(self.machine.sim.now)

    def _drain_proc(self) -> Generator:
        """sample_only mode: swallow sampled batches after the queue."""
        while True:
            item = yield self.extract_q.get()
            if item is SHUTDOWN:
                yield self.extract_q.put(SHUTDOWN)
                return
            self._complete_batch(item.epoch)

    def _extractor_proc(self, idx: int) -> Generator:
        m = self.machine
        cfg = self.config
        ring = AsyncRing(m.sim, m.ssd, depth=cfg.io_depth,
                         direct=cfg.direct_io)
        # Phase 2 crosses PCIe unless features land where they train:
        # the CPU variant's host buffer, or GDS straight into the GPU.
        link = (m.pcie[self.gpu_id]
                if cfg.device == "gpu" and not cfg.gpu_direct else None)
        while True:
            item = yield self.extract_q.get()
            if item is SHUTDOWN:
                yield self.extract_q.put(SHUTDOWN)
                return
            t0 = m.sim.now
            if m.faults is not None and cfg.device == "cpu":
                # React to injected host-memory pressure before taking
                # slots: shed cold standby capacity rather than OOM.
                self._adapt_feature_buffer()
            nodes = item.subgraph.all_nodes
            if len(nodes) > self.max_batch_nodes:
                record_bytes = self.dataset.features.record_nbytes
                raise OutOfMemoryError(
                    len(nodes) * record_bytes,
                    self.max_batch_nodes * record_bytes,
                    where="feature-buffer-reserve (batch exceeded the Mb "
                          "estimate)")
            # sim-race: ordered -- slot protocol: extract_q FIFO hands
            # each batch to exactly one extractor, slot sets of live
            # batches are disjoint, and trainer/releaser only touch
            # batches whose finish_load already completed; staging
            # grants follow FIFO waiter order, which the seq-pinned
            # cohort order fixes; warm() inserts the disjoint pages this
            # extractor just read, in seq-pinned, digest-verified LRU
            # order; recovery resubmits go through this extractor's
            # private ring, SSD queueing within a cohort is seq-pinned
            # and digest-verified.
            cls, aliases = yield from extract_batch(
                m, self.feature_buffer, ring, self.staging,
                self.staging_portion, self.dataset, self.io_size, link,
                nodes)
            self._stage.extract += m.sim.now - t0
            if m.tracer:
                m.tracer.span(f"batch {item.batch_id}", "extract",
                              f"extractor{idx}", t0, m.sim.now,
                              epoch=item.epoch, loaded=len(cls.needs_load),
                              reused=cls.reused)
            yield self.train_q.put(_TrainItem(item.epoch, item.batch_id,
                                              item.subgraph, aliases))

    # ------------------------------------------------------------------
    def _adapt_feature_buffer(self) -> None:
        """Shed/restore cold feature-buffer capacity under injected
        host-memory pressure (CPU placement: the buffer is pinned host
        memory, so it is the component that must give ground)."""
        m = self.machine
        fb = self.feature_buffer
        rec = self.dataset.features.record_nbytes
        pressure = m.host.fault_pressure
        if pressure > 0 and self._fb_shrunk == 0:
            shrinkable = self.num_feature_slots - self._fb_min_slots
            if shrinkable <= 0:
                return
            want = min(shrinkable, pressure // rec + 1)
            k = fb.shrink_standby(want)
            if k:
                m.host.resize(self._fb_alloc, self._fb_alloc.nbytes - k * rec)
                self._fb_shrunk = k
                m.faults.ledger.fb_shrinks += 1
        elif pressure == 0 and self._fb_shrunk:
            try:
                m.host.resize(self._fb_alloc,
                              self._fb_alloc.nbytes + self._fb_shrunk * rec)
            except OutOfMemoryError:
                return  # stay degraded until memory really frees up
            fb.restore_standby()
            self._fb_shrunk = 0
            m.faults.ledger.fb_restores += 1

    def _trainer_proc(self) -> Generator:
        m = self.machine
        cfg = self.config
        while True:
            item = yield self.train_q.get()
            if item is SHUTDOWN:
                return
            t0 = m.sim.now
            sub = item.subgraph
            cost_model = m.gpu_cost if cfg.device == "gpu" else m.cpu_cost
            duration = cost_model.train_step_time(
                self.model_kind, sub.layer_sizes(), self.dims)
            if cfg.device == "gpu":
                act = activation_bytes(sub, self.dims)
                gpu = m.gpus[self.gpu_id]
                gpu.allocate(act, tag="activations")
                try:
                    yield from m.gpu_task(self.gpu_id, duration)
                finally:
                    gpu.free(act, tag="activations")
            else:
                yield from m.cpu_task(duration)
            # Real training math (instant in simulated time — its cost
            # was just charged above).
            feats = self.feature_buffer.gather(item.aliases)
            loss, correct = forward_backward(self.model, feats, sub,
                                             self.dataset.labels)
            if self.shared is not None:
                # Gradient synchronisation with the other subprocesses
                # during the backward pass (§4.3).
                yield from self.shared.sync_group.sync(self.worker_id,
                                                       self.model)
            self.optimizer.step()
            self._record_batch(loss, correct, sub.seeds)
            self._stage.train += m.sim.now - t0
            if m.tracer:
                m.tracer.span(f"batch {item.batch_id}", "train", "trainer",
                              t0, m.sim.now, epoch=item.epoch, loss=loss)
            yield self.release_q.put(item)
            self._complete_batch(item.epoch)

    def _releaser_proc(self) -> Generator:
        m = self.machine
        while True:
            item = yield self.release_q.get()
            if item is SHUTDOWN:
                return
            t0 = m.sim.now
            yield from m.cpu_task(PER_BATCH_COST / 2)
            # sim-race: ordered -- release_q FIFO delivers each finished
            # batch exactly once; released slot sets are disjoint from
            # every in-flight batch the extractors/trainer touch.
            self.feature_buffer.release(item.subgraph.all_nodes)
            self._stage.release += m.sim.now - t0
            if m.tracer:
                m.tracer.span(f"batch {item.batch_id}", "release",
                              "releaser", t0, m.sim.now, epoch=item.epoch)

    # ------------------------------------------------------------------
    def _start_actors(self) -> None:
        if self._started:
            return
        sim = self.machine.sim
        cfg = self.config
        for i in range(cfg.num_samplers):
            self._actors.append(sim.process(self._sampler_proc(i),
                                            name=f"sampler{i}"))
        if self.sample_only:
            self._actors.append(sim.process(self._drain_proc(), name="drain"))
        else:
            for i in range(self.num_extractors):
                self._actors.append(sim.process(self._extractor_proc(i),
                                                name=f"extractor{i}"))
            self._actors.append(sim.process(self._trainer_proc(),
                                            name="trainer"))
            self._actors.append(sim.process(self._releaser_proc(),
                                            name="releaser0"))
        self._started = True

    def _launch_epoch(self, epoch: int) -> List[Event]:
        self._start_actors()
        batches = self.plan.epoch_batches()
        self._epoch_batches = self._epoch_expected[epoch] = len(batches)
        done = self._epoch_done[epoch] = self.machine.sim.event()
        self.pending_q.put_many(
            (epoch, batch_id, seeds) for batch_id, seeds in enumerate(batches))
        return [done]

    def _reuse_counters(self) -> Tuple[int, int]:
        return self.feature_buffer.stat_reused, self.feature_buffer.stat_loaded

    def teardown(self) -> None:
        """Release the resident topology.

        Data-parallel workers returned their private indptr pin at
        construction (the group owns the shared copy), so freeing it
        again here would be a double free.
        """
        if self.shared is None:
            super().teardown()

    def shutdown(self) -> None:
        """Stop the actor pools and drain the simulator."""
        if not self._started:
            return
        self.pending_q.put(SHUTDOWN)
        self.extract_q.put(SHUTDOWN)
        self.train_q.put(SHUTDOWN)
        self.release_q.put(SHUTDOWN)
        self.machine.sim.drain(self._actors)
        self._started = False
