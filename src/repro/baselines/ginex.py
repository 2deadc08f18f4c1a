"""Ginex baseline (Park et al., VLDB 2022) on the simulated machine.

Ginex restructures sample-based training around *superbatches* (bundles
of many mini-batches, 1500 at paper scale) and two dedicated in-memory
caches:

* a **neighbor cache** holding the adjacency lists of the hottest nodes
  (sampling hits it instead of faulting mmap pages);
* a **feature cache** with *provably optimal* (Belady) replacement,
  enabled by an **inspect phase**: Ginex first samples the whole
  superbatch, spills the sampling results to SSD, computes the optimal
  cache plan from the future access sequence, then extracts/trains.

Costs the paper calls out, all modelled here:

* sampling results written to and read back from SSD (extra I/Os);
* the inspect computation itself;
* synchronous feature-cache initialisation at each superbatch start
  (an I/O burst during which CPU/GPU idle — Fig. 3b);
* synchronous miss loading during training (multi-threaded, but still
  blocking).

Scaled defaults: superbatch 150 mini-batches (1500 / 10, matching the
batch-size scaling), caches 6 GB + 24 GB scaled by the data factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.base import TrainConfig, TrainingSystem, probe_batch_shape
from repro.core.sampling_io import frontier_pages, page_access_with_retry
from repro.errors import OutOfMemoryError
from repro.faults.recovery import retry_on_oom
from repro.graph.datasets import DiskDataset
from repro.machine import DEFAULT_SCALE, GB, Machine
from repro.sampling import NeighborSampler
from repro.sampling.subgraph import SampledSubgraph
from repro.simcore import AllOf, Event

#: CPU cost per inspected access (building changesets).
INSPECT_COST_PER_ACCESS = 250e-9
#: Pinned workspace per superbatch access (ids + next-use metadata).
WORKSPACE_BYTES_PER_ACCESS = 8
#: Functional minimum: the feature cache must hold at least one
#: mini-batch working set with headroom, or Ginex's planned admission
#: cannot pin the current batch — the mechanism behind its small-memory
#: OOM failures (Fig. 9's 8 GB column).
MIN_CACHE_WORKING_SET_FACTOR = 1.1
#: Reads in flight while initialising the feature cache and loading
#: its misses.
IO_THREADS = 32


@dataclass(frozen=True)
class GinexConfig:
    """Ginex knobs (§5 'Baselines' defaults, scaled)."""

    neighbor_cache_bytes: int = int(6 * GB * DEFAULT_SCALE)
    feature_cache_bytes: int = int(24 * GB * DEFAULT_SCALE)
    superbatch_size: int = 150
    sample_workers: int = 4

    def __post_init__(self):
        if self.neighbor_cache_bytes < 0 or self.feature_cache_bytes <= 0:
            raise ValueError("cache sizes must be positive")
        if self.superbatch_size < 1:
            raise ValueError("superbatch size must be >= 1")
        if self.sample_workers < 1:
            raise ValueError("sample_workers must be >= 1")

    @staticmethod
    def for_host(host_capacity: int, fraction: float = 0.85,
                 **overrides) -> "GinexConfig":
        """Size both caches to *fraction* of host memory (Fig. 9 rule:
        'its two caches occupy at least 85%'), split 1:4 like the
        paper's 6 GB : 24 GB default."""
        total = int(host_capacity * fraction)
        base = GinexConfig(neighbor_cache_bytes=total // 5,
                           feature_cache_bytes=total - total // 5)
        if overrides:
            from dataclasses import replace
            base = replace(base, **overrides)
        return base


def belady_plan(batches: Sequence[np.ndarray], capacity: int,
                ) -> Tuple[np.ndarray, List[np.ndarray], List[np.ndarray]]:
    """Optimal (Belady) feature-cache plan over a superbatch.

    Parameters
    ----------
    batches:
        Per-mini-batch unique node-id arrays, in training order.
    capacity:
        Cache capacity in entries (feature vectors).

    Returns
    -------
    (initial, miss_lists, evict_lists):
        ``initial`` — nodes prefetched at superbatch start (earliest
        first use, up to capacity); ``miss_lists[b]`` — nodes loaded
        synchronously during batch *b*; ``evict_lists[b]`` — victims
        chosen with farthest-next-use.
    """
    if capacity < 1:
        raise ValueError("capacity must be >= 1")
    # Next-use lists per node, built with one stable sort over the whole
    # superbatch trace instead of a per-access Python loop: group the
    # concatenated (node, batch) stream by node; within a group the
    # batches are already ascending.
    all_nodes = np.concatenate([np.asarray(b, dtype=np.int64)
                                for b in batches])
    lens = np.array([len(b) for b in batches], dtype=np.int64)
    batch_of = np.repeat(np.arange(len(batches), dtype=np.int64), lens)
    grouped = np.argsort(all_nodes, kind="stable")
    uniq, first_idx, occ_count = np.unique(all_nodes, return_index=True,
                                           return_counts=True)
    occ_flat = batch_of[grouped]
    occ_start = np.concatenate(([0], np.cumsum(occ_count)[:-1]))
    INF = len(batches) + 1

    # Initial contents: earliest-first-use nodes (stable: ties broken by
    # first appearance in the trace, like dict insertion order).
    first_use = batch_of[first_idx]
    by_first_use = uniq[np.lexsort((first_idx, first_use))]
    initial = by_first_use[:capacity].copy()
    cache = set(map(int, initial))
    index_of = {int(v): i for i, v in enumerate(uniq)}
    pointer = np.zeros(len(uniq), dtype=np.int64)

    def next_use(v: int) -> int:
        i = index_of[v]
        p = pointer[i]
        return int(occ_flat[occ_start[i] + p]) if p < occ_count[i] else INF

    miss_lists: List[np.ndarray] = []
    evict_lists: List[np.ndarray] = []
    for b, nodes in enumerate(batches):
        nodes = [int(v) for v in nodes]
        pointer[np.searchsorted(uniq, nodes)] += 1
        misses = [v for v in nodes if v not in cache]
        cache.update(misses)
        evicted: List[int] = []
        if len(cache) > capacity:
            overflow = len(cache) - capacity
            victims = sorted(cache, key=next_use, reverse=True)[:overflow]
            for v in victims:
                cache.remove(v)
                evicted.append(v)
        miss_lists.append(np.array(misses, dtype=np.int64))
        evict_lists.append(np.array(evicted, dtype=np.int64))
    return initial, miss_lists, evict_lists


class NeighborCache:
    """Adjacency lists of the most frequently *sampled* nodes.

    Ginex profiles access frequency; a node enters a hop frontier in
    proportion to its out-degree (how many adjacency lists it appears
    in), while caching its list costs its in-degree.  Ranking by
    expected accesses per cached byte maximises the hit rate, which is
    what keeps Ginex's sampling fast despite a starved page cache.
    """

    def __init__(self, graph, capacity_bytes: int, itemsize: int = 8):
        in_deg = graph.in_degree()
        out_deg = np.bincount(graph.indices, minlength=graph.num_nodes)
        costs_all = (in_deg + 2) * itemsize  # list + header
        score = out_deg / costs_all
        order = np.argsort(score)[::-1]
        cum = np.cumsum(costs_all[order])
        take = int(np.searchsorted(cum, capacity_bytes))
        self.cached_nodes = np.sort(order[:take])
        self.capacity_bytes = capacity_bytes
        self.bytes_used = int(cum[take - 1]) if take else 0

    def split(self, frontier: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(cached, uncached) partition of a hop frontier."""
        frontier = np.asarray(frontier, dtype=np.int64)
        mask = np.isin(frontier, self.cached_nodes)
        return frontier[mask], frontier[~mask]


class Ginex(TrainingSystem):
    """The superbatch + optimal-cache baseline."""

    name = "ginex"

    def __init__(self, machine: Machine, dataset: DiskDataset,
                 train_cfg: TrainConfig = TrainConfig(),
                 config: GinexConfig = GinexConfig(),
                 sample_only: bool = False):
        super().__init__(machine, dataset, train_cfg)
        self.config = config
        self.sample_only = sample_only
        host = machine.host
        # Pin both caches up front (the OOM check of Figs. 9/14).
        self._ncache_alloc = host.allocate(config.neighbor_cache_bytes,
                                           tag="neighbor-cache")
        self._fcache_alloc = host.allocate(config.feature_cache_bytes,
                                           tag="feature-cache")
        machine.gpus[0].allocate(self.model_state_bytes(), tag="model")
        self.neighbor_cache = NeighborCache(dataset.graph,
                                            config.neighbor_cache_bytes)
        rec = dataset.features.record_nbytes
        self.cache_entries = max(1, config.feature_cache_bytes // rec)
        working_set, _ = probe_batch_shape(
            dataset, self.fanouts, train_cfg.batch_size, seed=train_cfg.seed)
        required = int(working_set * MIN_CACHE_WORKING_SET_FACTOR)
        if self.cache_entries < required:
            raise OutOfMemoryError(required * rec, self.cache_entries * rec,
                                   where="ginex-feature-cache")
        self.sampler = NeighborSampler(dataset.graph, self.fanouts,
                                       self.streams.get("ginex-sampler"))
        #: Cumulative feature-cache hits and misses; each epoch reports
        #: their movement (``_reuse_counters``).
        self.stat_feature_hits = 0
        self.stat_feature_misses = 0

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    def _sample_one(self, seeds: np.ndarray, out: List,
                    slot: int) -> Generator:
        """Sample one mini-batch (neighbor cache + mmap) and spill it."""
        m = self.machine
        sub = self.sampler.sample(seeds)
        for frontier in sub.hop_frontiers:
            cached, uncached = self.neighbor_cache.split(frontier)
            if len(uncached):
                pages = frontier_pages(m.page_cache, self.dataset.graph,
                                       uncached)
                yield from page_access_with_retry(
                    m, m.page_cache, self.dataset.topo_handle, pages)
        yield from m.cpu_task(m.cpu_cost.sample_compute_time(
            sum(len(f) for f in sub.hop_frontiers), sub.total_edges()))
        # Spill this batch's sampling result (sequential write).
        spill_bytes = sub.num_sampled_nodes * 8
        yield from m.io_wait(m.ssd.write_event(spill_bytes))
        out[slot] = sub

    def _sample_superbatch(self, seeds_list: List[np.ndarray]
                           ) -> Generator:
        """Phase A: parallel sampling workers over the superbatch."""
        m = self.machine
        subs: List[Optional[SampledSubgraph]] = [None] * len(seeds_list)
        W = self.config.sample_workers

        def worker(start: int) -> Generator:
            for i in range(start, len(seeds_list), W):
                yield from self._sample_one(seeds_list[i], subs, i)

        procs = [m.sim.process(worker(w), name=f"ginex-sampler{w}")
                 for w in range(W)]
        yield AllOf(m.sim, procs)
        return subs

    def _inspect(self, subs: List[SampledSubgraph]) -> Generator:
        """Phase B: changeset precomputation (Belady over the trace)."""
        m = self.machine
        accesses = sum(s.num_sampled_nodes for s in subs)
        workspace = accesses * WORKSPACE_BYTES_PER_ACCESS
        # Transient fault pressure makes this workspace allocation fail
        # temporarily; back off instead of aborting the superbatch.
        alloc = yield from retry_on_oom(
            m, "alloc_retries",
            lambda: m.host.allocate(workspace, tag="ginex-inspect"))
        yield from m.cpu_task(accesses * INSPECT_COST_PER_ACCESS)
        plan = belady_plan([s.all_nodes for s in subs], self.cache_entries)
        return alloc, plan

    def _init_cache(self, initial: np.ndarray) -> Generator:
        """Phase C: synchronous feature-cache initialisation burst."""
        m = self.machine
        io_size = self.dataset.features.io_size(direct=False)
        sizes = np.full(len(initial), io_size, dtype=np.int64)
        ev = m.ssd.batch_event(sizes, io_depth=IO_THREADS,
                               tag=self.dataset.feat_handle.name)
        yield from m.io_wait(ev)

    def _train_batch(self, sub: SampledSubgraph, misses: np.ndarray
                     ) -> Generator:
        """Phase D: read spilled sample, load misses sync, train."""
        m = self.machine
        # Read the spilled sampling result back.
        yield from m.io_wait(m.ssd.read_event(sub.num_sampled_nodes * 8))
        # Synchronous multi-threaded miss loading.
        if len(misses):
            io_size = self.dataset.features.io_size(direct=False)
            sizes = np.full(len(misses), io_size, dtype=np.int64)
            ev = m.ssd.batch_event(sizes, io_depth=IO_THREADS,
                                   tag=self.dataset.feat_handle.name)
            yield from m.io_wait(ev)
        self.stat_feature_misses += len(misses)
        self.stat_feature_hits += sub.num_sampled_nodes - len(misses)
        yield from self._gpu_train_step(sub)

    # ------------------------------------------------------------------
    def _epoch_proc(self, done_event) -> Generator:
        m = self.machine
        for seeds_list in self.plan.superbatches(self.config.superbatch_size):
            t0 = m.sim.now
            subs = yield from self._sample_superbatch(seeds_list)
            self._stage.sample += m.sim.now - t0

            if self.sample_only:
                continue

            t0 = m.sim.now
            # sim-race: ordered -- epoch procs are sequential (each is
            # awaited before the next spawns) and pressure-edge alloc
            # failures are retried by retry_on_oom; both orders are
            # valid executions.
            alloc, (initial, miss_lists, _) = yield from self._inspect(subs)
            yield from self._init_cache(initial)
            self._stage.extract += m.sim.now - t0

            for sub, misses in zip(subs, miss_lists):
                t0 = m.sim.now
                # sim-race: ordered -- epoch procs never co-run (each is
                # awaited to completion before the next spawns).
                yield from self._train_batch(sub, misses)
                self._stage.train += m.sim.now - t0
            m.host.free(alloc)
        done_event.succeed(m.sim.now)

    def _launch_epoch(self, epoch: int) -> List[Event]:
        self._epoch_batches = self.plan.num_batches
        done = self.machine.sim.event()
        self.machine.sim.process(self._epoch_proc(done), name="ginex-epoch")
        return [done]

    def _reuse_counters(self) -> Tuple[int, int]:
        return self.stat_feature_hits, self.stat_feature_misses
