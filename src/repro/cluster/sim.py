"""The sharded serving cluster: router, shard machines, scatter-gather.

Simulates an N-machine serving cluster at *mesoscale*: the discrete-
event engine carries shard service batches, outages and wakeups, while
per-request work lives in flat numpy arrays — which is what makes
million-request cluster runs affordable (a per-request event pipeline
would cost ~25 events per request; here a whole micro-batch of shard
reads costs two).

Request lifecycle
-----------------
1. **Build** — the workload generator materialises arrivals + seeds;
   every request expands into one *logical read* per shard its
   ``hops``-level neighborhood touches (the scatter set), with a
   precomputed service cost per read from the popularity-cache model.
   Hot seeds additionally get a *mirror* part on the ring's next
   replica shard (hedged reads): the first copy served satisfies the
   read, the loser is discarded on sight.
2. **Admission** — arrivals are ingested lazily in vectorized chunks
   at event times (exact, because queue state only changes at events):
   the router admits up to ``admit_capacity`` outstanding requests and
   sheds the rest at arrival.
3. **Service** — each shard serves its ready parts in arrival order as
   micro-batches of up to ``max_batch``; a batch costs
   ``batch_overhead + sum(part costs)``, inflated by any active
   ``shard_slow`` window.  A part that cannot *start* by its request's
   deadline is dropped and the request times out (the per-shard
   deadline budget); parts started before the deadline complete and
   late completions count as SLO misses.
4. **Gather** — a request completes when every logical read is
   satisfied; exactly one terminal state per request (completed /
   shed / timed_out / failed) — the accounting identity of
   :class:`repro.cluster.stats.ClusterStats`.

``shard_down`` episodes pause the shard and *displace* its queued and
in-window work onto the ring successors holding the replica copies
(``replication >= 2``); with no live replica the affected reads are
unavailable and their requests fail fast.  ``shard_slow`` multiplies
the shard's batch service times over the window.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional

import numpy as np

from repro.cluster.config import ClusterConfig
from repro.cluster.ring import HashRing
from repro.cluster.stats import ClusterStats
from repro.errors import ConfigError, SimulationError
from repro.faults.plan import FaultSpec
from repro.graph.partition import degree_aware_partition, hash_partition
from repro.machine import Machine
from repro.serve.config import WorkloadSpec
from repro.serve.workload import (build_request_arrays,
                                  popularity_ranked_pool)
from repro.simcore import AnyOf, Event, RandomStreams

#: Request states (int8 codes in the status array).
UNBORN, ADMITTED, OK, SHED, TIMEOUT, FAILED = 0, 1, 2, 3, 4, 5

#: Rank assigned to nodes outside the query pool: never hot, never
#: cached.
_COLD_RANK = np.iinfo(np.int64).max


class ClusterSim:
    """One cluster serving run on a simulated machine substrate.

    The :class:`~repro.machine.Machine` supplies the event engine, the
    strict sanitizer (trace digests, invariant sweeps) and the fault
    injector; the cluster registers itself for the sanitizer's epoch
    sweep and consumes the plan's ``shard_*`` specs.
    """

    def __init__(self, machine: Machine, dataset, config: ClusterConfig,
                 workload: WorkloadSpec, slo: float,
                 pool: Optional[np.ndarray] = None):
        if workload.kind not in ("poisson", "trace"):
            raise ConfigError("the cluster router is open-loop; workload "
                              "kind must be poisson or trace")
        if not 0 < slo < float("inf"):
            raise ConfigError("slo must be positive and finite")
        self.machine = machine
        self.sim = machine.sim
        self.cfg = config
        self.workload = workload
        self.slo = float(slo)
        graph = dataset.graph
        self.num_nodes = int(graph.num_nodes)
        if pool is None:
            pool = np.arange(self.num_nodes, dtype=np.int64)
        self.pool = np.asarray(pool, dtype=np.int64)

        streams = RandomStreams(workload.seed)
        ranked = popularity_ranked_pool(workload, self.pool, streams)
        self.arrivals, self.seeds = build_request_arrays(
            workload, self.pool, streams, ranked_pool=ranked)
        if np.any(np.diff(self.arrivals) < 0):
            raise ConfigError("cluster arrivals must be sorted")
        self.n = int(workload.num_requests)
        self.deadlines = self.arrivals + self.slo

        # --- placement: partitions -> ring -> shards -------------------
        num_parts = config.num_shards * config.partitions_per_shard
        if config.partition == "hash":
            self.part_of_node = hash_partition(self.num_nodes, num_parts)
        else:
            degrees = np.diff(graph.indptr).astype(np.int64)
            self.part_of_node = degree_aware_partition(degrees, num_parts)
        self.router = HashRing(range(config.num_shards),
                               vnodes=config.vnodes)
        part_ids = np.arange(num_parts, dtype=np.int64)
        self.shard_of_part = self.router.lookup(part_ids)
        self.succ_of_part = self.router.successors(
            part_ids, min(config.replication, config.num_shards))
        self.shard_of_node = self.shard_of_part[self.part_of_node]

        # --- popularity ranks: hot set + per-shard cache model ---------
        rank = np.full(self.num_nodes, _COLD_RANK, dtype=np.int64)
        rank[ranked] = np.arange(len(ranked))
        self.rank_of_node = rank
        self.hot_n = int(config.hot_fraction * len(self.pool))
        self.cache_n = int(config.cache_fraction * len(self.pool))
        self.hedge_armed = bool(
            config.hedge and config.replication >= 2
            and config.num_shards >= 2 and self.hot_n > 0)

        self._build_touch_sets(graph)
        self._build_parts()
        self._init_run_state()
        san = machine.sanitizer
        if san is not None:
            san.register(self)

    # ------------------------------------------------------------------
    # Build phase
    # ------------------------------------------------------------------
    def _build_touch_sets(self, graph) -> None:
        """Per pool node: the shards its k-hop neighborhood touches,
        with cached/uncached node counts and an anchor partition per
        shard (CSR layout over pool positions)."""
        cfg = self.cfg
        indptr, indices = graph.indptr, graph.indices
        cached = self.rank_of_node < self.cache_n
        pool_index = np.full(self.num_nodes, -1, dtype=np.int64)
        pool_index[self.pool] = np.arange(len(self.pool))
        self.pool_index = pool_index

        t_indptr = [0]
        t_shard: List[int] = []
        t_anchor: List[int] = []
        t_cost: List[float] = []
        base = cfg.part_cost_base
        ch, cm = cfg.node_hit_cost, cfg.node_miss_cost
        for v in self.pool:
            v = int(v)
            nodes = [v]
            seen = {v}
            frontier = [v]
            for _ in range(cfg.hops):
                nxt: List[int] = []
                for u in frontier:
                    lo = int(indptr[u])
                    hi = min(lo + cfg.fanout, int(indptr[u + 1]))
                    for w in indices[lo:hi]:
                        w = int(w)
                        if w not in seen:
                            seen.add(w)
                            nxt.append(w)
                            nodes.append(w)
                frontier = nxt
            order: List[int] = []
            hits: Dict[int, int] = {}
            miss: Dict[int, int] = {}
            anchor: Dict[int, int] = {}
            for w in nodes:
                s = int(self.shard_of_node[w])
                if s not in hits:
                    order.append(s)
                    hits[s] = 0
                    miss[s] = 0
                    anchor[s] = int(self.part_of_node[w])
                if cached[w]:
                    hits[s] += 1
                else:
                    miss[s] += 1
            for s in order:
                t_shard.append(s)
                t_anchor.append(anchor[s])
                t_cost.append(base + hits[s] * ch + miss[s] * cm)
            t_indptr.append(len(t_shard))
        self.touch_indptr = np.asarray(t_indptr, dtype=np.int64)
        self.touch_shard = np.asarray(t_shard, dtype=np.int64)
        self.touch_anchor = np.asarray(t_anchor, dtype=np.int64)
        self.touch_cost = np.asarray(t_cost, dtype=np.float64)

    def _build_parts(self) -> None:
        """Expand requests into logical reads and physical parts."""
        take = self.seeds.shape[1]
        if take == 1:
            self._build_parts_single()
        else:
            self._build_parts_multi()
        # Per-shard static service order: parts grouped by shard,
        # arrival-sorted within (index as final tie-break).
        p = len(self.part_shard)
        order = np.lexsort((np.arange(p), self.part_arrival,
                            self.part_shard))
        bounds = np.searchsorted(
            self.part_shard[order],
            np.arange(self.cfg.num_shards + 1))
        self.static = [order[bounds[s]:bounds[s + 1]]
                       for s in range(self.cfg.num_shards)]
        self.static_arr = [self.part_arrival[ix] for ix in self.static]

    def _build_parts_single(self) -> None:
        """Vectorized expansion for the one-seed-per-request shape."""
        cfg = self.cfg
        pi = self.pool_index[self.seeds[:, 0]]
        cnt = self.touch_indptr[pi + 1] - self.touch_indptr[pi]
        read_indptr = np.concatenate(
            [[0], np.cumsum(cnt)]).astype(np.int64)
        total = int(read_indptr[-1])
        flat = (np.repeat(self.touch_indptr[pi], cnt)
                + np.arange(total, dtype=np.int64)
                - np.repeat(read_indptr[:-1], cnt))
        self.read_indptr = read_indptr
        self.req_of_read = np.repeat(
            np.arange(self.n, dtype=np.int64), cnt)
        self.remaining = cnt.astype(np.int64)
        prim_shard = self.touch_shard[flat]
        prim_anchor = self.touch_anchor[flat]
        prim_cost = self.touch_cost[flat]
        prim_arrival = self.arrivals[self.req_of_read]
        # Mirrors: hot single seeds hedge their home-shard read (the
        # first read of the request — the seed itself leads its own
        # touch set) onto the ring's next distinct replica shard.
        if self.hedge_armed:
            hot = self.rank_of_node[self.seeds[:, 0]] < self.hot_n
        else:
            hot = np.zeros(self.n, dtype=bool)
        m_req = np.nonzero(hot)[0]
        m_read = read_indptr[m_req]
        m_anchor = self.part_of_node[self.seeds[m_req, 0]]
        m_shard = self.succ_of_part[m_anchor, 1] \
            if len(m_req) and self.succ_of_part.shape[1] > 1 \
            else np.empty(0, dtype=np.int64)
        mirror_counts = hot.astype(np.int64)
        self.mirror_ptr = np.concatenate(
            [[0], np.cumsum(mirror_counts)]).astype(np.int64)
        self.part_read = np.concatenate([np.arange(total, dtype=np.int64),
                                         m_read])
        self.part_shard = np.concatenate([prim_shard, m_shard])
        self.part_anchor = np.concatenate([prim_anchor, m_anchor])
        self.part_cost = np.concatenate([prim_cost, prim_cost[m_read]])
        self.part_arrival = np.concatenate(
            [prim_arrival, self.arrivals[m_req]])
        self.part_is_mirror = np.concatenate(
            [np.zeros(total, dtype=bool), np.ones(len(m_req), dtype=bool)])
        self.read_live = np.ones(total, dtype=np.int8)
        self.read_live[m_read] += 1
        self.n_primary = total

    def _build_parts_multi(self) -> None:
        """General multi-seed expansion (per-request union loop).

        Used by the small pinned/golden scenarios; cost counts sum over
        seeds (shared neighbor nodes between two seeds of one request
        are charged per seed — a documented approximation that keeps
        the loop trivial).
        """
        read_indptr = [0]
        req_of_read: List[int] = []
        prim_shard: List[int] = []
        prim_anchor: List[int] = []
        prim_cost: List[float] = []
        m_read: List[int] = []
        m_shard: List[int] = []
        m_cost: List[float] = []
        m_req: List[int] = []
        mirror_counts = np.zeros(self.n, dtype=np.int64)
        base = self.cfg.part_cost_base
        for r in range(self.n):
            order: List[int] = []
            cost: Dict[int, float] = {}
            anchor: Dict[int, int] = {}
            read_pos: Dict[int, int] = {}
            for seed in self.seeds[r]:
                pi = int(self.pool_index[seed])
                lo, hi = self.touch_indptr[pi], self.touch_indptr[pi + 1]
                for j in range(int(lo), int(hi)):
                    s = int(self.touch_shard[j])
                    if s not in cost:
                        order.append(s)
                        cost[s] = 0.0
                        anchor[s] = int(self.touch_anchor[j])
                        read_pos[s] = read_indptr[-1] + len(order) - 1
                    cost[s] += float(self.touch_cost[j]) - base
            mirrored = set()  # only this request's reads can repeat
            for seed in self.seeds[r]:
                if not (self.hedge_armed
                        and self.rank_of_node[seed] < self.hot_n):
                    continue
                home = int(self.shard_of_node[seed])
                part = int(self.part_of_node[seed])
                succ = int(self.succ_of_part[part, 1])
                rd = read_pos[home]
                if rd in mirrored:
                    continue  # one mirror per read
                mirrored.add(rd)
                m_read.append(rd)
                m_shard.append(succ)
                m_cost.append(base + cost[home])
                m_req.append(r)
                mirror_counts[r] += 1
            for s in order:
                req_of_read.append(r)
                prim_shard.append(s)
                prim_anchor.append(anchor[s])
                prim_cost.append(base + cost[s])
            read_indptr.append(len(req_of_read))
        total = len(req_of_read)
        self.read_indptr = np.asarray(read_indptr, dtype=np.int64)
        self.req_of_read = np.asarray(req_of_read, dtype=np.int64)
        self.remaining = np.diff(self.read_indptr).astype(np.int64)
        self.mirror_ptr = np.concatenate(
            [[0], np.cumsum(mirror_counts)]).astype(np.int64)
        m_read_arr = np.asarray(m_read, dtype=np.int64)
        m_req_arr = np.asarray(m_req, dtype=np.int64)
        m_anchor = self.part_of_node[
            self.seeds[m_req_arr, 0]] if len(m_req) else \
            np.empty(0, dtype=np.int64)
        self.part_read = np.concatenate(
            [np.arange(total, dtype=np.int64), m_read_arr])
        self.part_shard = np.concatenate(
            [np.asarray(prim_shard, dtype=np.int64),
             np.asarray(m_shard, dtype=np.int64)])
        self.part_anchor = np.concatenate(
            [np.asarray(prim_anchor, dtype=np.int64), m_anchor])
        self.part_cost = np.concatenate(
            [np.asarray(prim_cost, dtype=np.float64),
             np.asarray(m_cost, dtype=np.float64)])
        self.part_arrival = np.concatenate(
            [self.arrivals[self.req_of_read], self.arrivals[m_req_arr]])
        self.part_is_mirror = np.concatenate(
            [np.zeros(total, dtype=bool),
             np.ones(len(m_read), dtype=bool)])
        self.read_live = np.ones(total, dtype=np.int8)
        self.read_live[m_read_arr] += 1
        self.n_primary = total

    def _init_run_state(self) -> None:
        cfg = self.cfg
        self.req_status = np.full(self.n, UNBORN, dtype=np.int8)
        self.completed_at = np.full(self.n, np.nan)
        self.read_done = np.zeros(self.n_primary, dtype=bool)
        self.part_gone = np.zeros(len(self.part_shard), dtype=bool)
        self.head = [0] * cfg.num_shards
        self.dyn: List[list] = [[] for _ in range(cfg.num_shards)]
        self.slow: List[list] = [[] for _ in range(cfg.num_shards)]
        self.down_until = np.zeros(cfg.num_shards, dtype=np.float64)
        self._kick: List[Optional[Event]] = [None] * cfg.num_shards
        self._waiters: List[Event] = []
        self._dyn_seq = 0
        self._done_ev = Event(self.sim)
        self.finished_at = 0.0
        # Counters (the sanitizer's invariant sweep reads these).
        self.arr_ptr = 0
        self.outstanding = 0
        self.admitted = 0
        self.completed = 0
        self.shed = 0
        self.timed_out = 0
        self.failed = 0
        self.terminal = 0
        self.slo_miss = 0
        self.reads_done_cnt = 0
        self.mirrors_launched = 0
        self.mirror_wins = 0
        self.redirects = 0
        self.parts_served = 0
        self.num_batches = 0
        self.shard_parts = np.zeros(cfg.num_shards, dtype=np.int64)
        self.shard_busy = np.zeros(cfg.num_shards, dtype=np.float64)
        # Zero-copy views for the per-batch scalar loops.  A batch holds
        # a handful of parts, where one numpy call costs more than the
        # work it does; a memoryview item read is cheaper than a numpy
        # scalar index and yields a plain Python value.  The arrays stay
        # the only owners of the state.
        self._v_static = [memoryview(ix) for ix in self.static]
        self._v_static_arr = [memoryview(a) for a in self.static_arr]
        self._v_part_read = memoryview(self.part_read)
        self._v_part_mirror = memoryview(self.part_is_mirror)
        self._v_part_gone = memoryview(self.part_gone)
        self._v_req_of_read = memoryview(self.req_of_read)
        self._v_read_done = memoryview(self.read_done)
        self._v_read_live = memoryview(self.read_live)
        self._v_status = memoryview(self.req_status)
        self._v_remaining = memoryview(self.remaining)
        self._v_deadlines = memoryview(self.deadlines)
        self._v_arrivals = memoryview(self.arrivals)
        self._v_completed_at = memoryview(self.completed_at)
        self._v_down_until = memoryview(self.down_until)

    # ------------------------------------------------------------------
    # Sanitizer hook
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        if self.outstanding < 0:
            raise SimulationError("cluster: negative outstanding count")
        if self.admitted != (self.completed + self.timed_out
                             + self.failed + self.outstanding):
            raise SimulationError(
                f"cluster: admitted {self.admitted} != completed "
                f"{self.completed} + timed_out {self.timed_out} + failed "
                f"{self.failed} + outstanding {self.outstanding}")
        if self.terminal != (self.completed + self.shed + self.timed_out
                             + self.failed):
            raise SimulationError("cluster: terminal count out of balance")
        if self.admitted + self.shed != self.arr_ptr:
            raise SimulationError(
                f"cluster: ingested {self.arr_ptr} != admitted "
                f"{self.admitted} + shed {self.shed}")
        if self.reads_done_cnt > self.n_primary:
            raise SimulationError("cluster: more reads done than exist")
        if self.mirror_wins > self.mirrors_launched:
            raise SimulationError(
                f"cluster: mirror_wins {self.mirror_wins} exceed launched "
                f"mirrors {self.mirrors_launched}")

    @property
    def _ledger(self):
        faults = self.machine.faults
        return faults.ledger if faults is not None else None

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------
    def run(self) -> ClusterStats:
        m = self.machine
        m.sanitize_epoch_begin()
        procs = [self.sim.process(self._shard_proc(s),
                                  name=f"cluster-shard{s}")
                 for s in range(self.cfg.num_shards)]
        faults = m.faults
        if faults is not None:
            for spec in faults.shard_specs:
                procs.append(self.sim.process(
                    self._chaos_proc(spec),
                    name=f"fault:{spec.fault_id}"))
        self.sim.run_until_triggered(self._done_ev)
        self.sim.drain(procs)
        m.sanitize_epoch_end()
        return self._build_stats()

    def _build_stats(self) -> ClusterStats:
        ok = self.req_status == OK
        lat = self.completed_at[ok] - self.arrivals[ok]
        if len(lat):
            q = np.quantile(lat, [0.5, 0.95, 0.99])
            p50, p95, p99 = float(q[0]), float(q[1]), float(q[2])
            mean, mx = float(lat.mean()), float(lat.max())
        else:
            p50 = p95 = p99 = mean = mx = float("nan")
        duration = float(self.finished_at)
        ledger = self._ledger
        return ClusterStats(
            num_shards=self.cfg.num_shards,
            offered=self.n,
            completed=self.completed,
            shed=self.shed,
            timed_out=self.timed_out,
            failed=self.failed,
            slo=self.slo,
            slo_miss=self.slo_miss,
            duration=duration,
            offered_rate=self.n / duration if duration > 0 else 0.0,
            latency_p50=p50, latency_p95=p95, latency_p99=p99,
            latency_mean=mean, latency_max=mx,
            reads_total=int(self.read_indptr[self.arr_ptr])
            if self.arr_ptr else 0,
            reads_done=self.reads_done_cnt,
            parts_served=self.parts_served,
            num_batches=self.num_batches,
            mean_batch_size=(self.parts_served / self.num_batches
                             if self.num_batches else 0.0),
            mirrors=self.mirrors_launched,
            mirror_wins=self.mirror_wins,
            redirects=self.redirects,
            per_shard_parts=tuple(int(x) for x in self.shard_parts),
            per_shard_busy=tuple(float(x) for x in self.shard_busy),
            faults=ledger.as_dict() if ledger is not None else {})

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _ingest(self, now: float) -> None:
        """Vectorized lazy admission of all arrivals up to *now*.

        Exact despite the laziness: the admission window only shrinks at
        event times (completions/failures), so within a chunk the
        outstanding count grows monotonically — the first ``free``
        arrivals are admitted and the rest shed, exactly as a per-
        arrival router would decide.
        """
        a = self.arr_ptr
        if a >= self.n or self._v_arrivals[a] > now:
            return
        hi = int(np.searchsorted(self.arrivals, now, side="right"))
        free = self.cfg.admit_capacity - self.outstanding
        take = max(0, min(hi - a, free))
        if take:
            self.req_status[a:a + take] = ADMITTED
            self.outstanding += take
            self.admitted += take
            m = int(self.mirror_ptr[a + take] - self.mirror_ptr[a])
            self.mirrors_launched += m
            ledger = self._ledger
            if ledger is not None:
                ledger.hot_mirrors += m
            if max(self._v_down_until) > now:
                self._reroute_range(a, a + take, now)
        dropped = hi - a - take
        if dropped > 0:
            self.req_status[a + take:hi] = SHED
            self.shed += dropped
            self.terminal += dropped
        self.arr_ptr = hi
        if self.terminal >= self.n:
            self._finish()

    def _reroute_range(self, lo: int, hi: int, now: float) -> None:
        """Admitted requests arriving into an active outage: displace
        their parts targeted at a downed shard immediately."""
        for r in range(lo, hi):
            for p in range(int(self.read_indptr[r]),
                           int(self.read_indptr[r + 1])):
                if self.down_until[self.part_shard[p]] > now:
                    self._displace_part(p, now)
            for j in range(int(self.mirror_ptr[r]),
                           int(self.mirror_ptr[r + 1])):
                p = self.n_primary + j
                if self.down_until[self.part_shard[p]] > now:
                    self._displace_part(p, now)

    # ------------------------------------------------------------------
    # Terminal transitions
    # ------------------------------------------------------------------
    def _finish(self) -> None:
        if self._done_ev.triggered:
            return
        self.finished_at = float(self.sim.now)
        self._done_ev.succeed()
        for ev in self._kick:
            if ev is not None and not ev.triggered:
                ev.succeed()
        for ev in self._waiters:
            if not ev.triggered:
                ev.succeed()

    def _fail_request(self, r: int) -> None:
        if self.req_status[r] != ADMITTED:
            return
        self.req_status[r] = FAILED
        self.failed += 1
        self.outstanding -= 1
        self.terminal += 1
        if self.terminal >= self.n:
            self._finish()

    def _timeout_requests(self, rs: List[int]) -> None:
        status = self._v_status
        k = 0
        for r in rs:
            if status[r] == ADMITTED:
                status[r] = TIMEOUT
                k += 1
        if not k:
            return
        self.timed_out += k
        self.outstanding -= k
        self.terminal += k
        if self.terminal >= self.n:
            self._finish()

    # ------------------------------------------------------------------
    # Shard service
    # ------------------------------------------------------------------
    def _shard_proc(self, s: int):
        sim = self.sim
        down_until = self._v_down_until
        while not self._done_ev.triggered:
            if down_until[s] > sim.now:
                yield sim.timeout(down_until[s] - sim.now)
                continue
            self._ingest(sim.now)
            if self._done_ev.triggered:
                break
            chosen = self._form_batch(s, sim.now)
            if self._done_ev.triggered:
                # Deadline drops inside the scan may have retired the
                # last request; waiting now would miss the finish kick.
                break
            if chosen is None:
                t_next = self._next_ready(s)
                if t_next is None:
                    ev = Event(sim)
                    self._kick[s] = ev
                    yield ev
                    self._kick[s] = None
                    continue
                delay = t_next - sim.now
                if delay <= 0:
                    continue
                ev = Event(sim)
                self._kick[s] = ev
                yield AnyOf(sim, [sim.timeout(delay), ev])
                self._kick[s] = None
                continue
            dur = (self.cfg.batch_overhead
                   + float(self.part_cost[chosen].sum())) \
                * self._slow_factor(s, sim.now)
            yield sim.timeout(dur)
            self._complete_batch(s, chosen, dur)

    def _slow_factor(self, s: int, now: float) -> float:
        entries = self.slow[s]
        if not entries:
            return 1.0
        live = [e for e in entries if e[0] > now]
        if len(live) != len(entries):
            self.slow[s] = live
        factor = 1.0
        for _, f in live:
            factor *= f
        return factor

    def _next_ready(self, s: int) -> Optional[float]:
        t_static = None
        if self.head[s] < len(self.static[s]):
            t_static = self._v_static_arr[s][self.head[s]]
        t_dyn = self.dyn[s][0][0] if self.dyn[s] else None
        if t_static is None:
            return t_dyn
        if t_dyn is None:
            return t_static
        return min(t_static, t_dyn)

    def _drop_expired(self, parts: List[int]) -> None:
        """Deadline-expired parts: release their reads; a read with no
        live copy left times its request out (the per-shard deadline
        budget — work that cannot start in time is not started)."""
        read_live, read_done = self._v_read_live, self._v_read_done
        reads = [self._v_part_read[p] for p in parts]
        for rd in reads:
            read_live[rd] -= 1
        req_of_read = self._v_req_of_read
        self._timeout_requests([req_of_read[rd] for rd in reads
                                if not read_done[rd] and read_live[rd] <= 0])

    def _form_batch(self, s: int, now: float) -> Optional[List[int]]:
        """Consume ready parts in arrival order; return the service
        batch (or None when nothing is serveable right now).

        A bounded scan from ``head``: past a full batch, the parts it
        passes (``tail``) are consumed only if no serveable part follows
        them in the window; one that does ends the scan just past the
        batch's last part (``full_at``).  Consumed parts are marked
        gone, and the expired ones are dropped after the scan.  Deadlines
        grow with arrival, so no expired part follows a serveable one.
        """
        room = self.cfg.max_batch
        S, A = self._v_static[s], self._v_static_arr[s]
        part_gone, part_read = self._v_part_gone, self._v_part_read
        read_done, req_of_read = self._v_read_done, self._v_req_of_read
        status, deadlines = self._v_status, self._v_deadlines
        chosen: List[int] = []
        expired: List[int] = []
        full_at = 0
        tail: List[int] = []
        i, end = self.head[s], len(S)
        while i < end and A[i] <= now:
            p = S[i]
            i += 1
            if part_gone[p]:
                continue
            if full_at:
                tail.append(p)
            else:
                part_gone[p] = True
            rd = part_read[p]
            if read_done[rd]:
                continue
            r = req_of_read[rd]
            if status[r] != ADMITTED:
                continue
            if deadlines[r] < now:
                expired.append(p)
            elif full_at:
                i = full_at
                tail = []
                break
            else:
                chosen.append(p)
                room -= 1
                if not room:
                    full_at = i
        for p in tail:
            part_gone[p] = True
        self.head[s] = i
        if expired:
            self._drop_expired(expired)
        dynq = self.dyn[s]
        while dynq and room > 0 and dynq[0][0] <= now:
            _, _, p = heapq.heappop(dynq)
            if part_gone[p] or read_done[part_read[p]]:
                continue
            r = req_of_read[part_read[p]]
            if status[r] != ADMITTED:
                continue
            part_gone[p] = True
            if deadlines[r] < now:
                self._drop_expired([p])
                continue
            chosen.append(p)
            room -= 1
        return chosen or None

    def _complete_batch(self, s: int, chosen: List[int],
                        dur: float) -> None:
        now = self.sim.now
        self.num_batches += 1
        self.parts_served += len(chosen)
        self.shard_parts[s] += len(chosen)
        self.shard_busy[s] += dur
        part_read, read_done = self._v_part_read, self._v_read_done
        req_of_read, remaining = self._v_req_of_read, self._v_remaining
        status, is_mirror = self._v_status, self._v_part_mirror
        new = wins = 0
        done: List[int] = []
        for p in chosen:
            rd = part_read[p]
            if read_done[rd]:
                continue  # first copy of a read wins
            read_done[rd] = True
            new += 1
            wins += is_mirror[p]
            r = req_of_read[rd]
            left = remaining[r] - 1
            remaining[r] = left
            if not left and status[r] == ADMITTED:
                done.append(r)
        if not new:
            return
        self.reads_done_cnt += new
        if wins:
            self.mirror_wins += wins
            ledger = self._ledger
            if ledger is not None:
                ledger.mirror_wins += wins
        if not done:
            return
        arrivals, completed_at = self._v_arrivals, self._v_completed_at
        for r in done:
            status[r] = OK
            completed_at[r] = now
            if now - arrivals[r] > self.slo:
                self.slo_miss += 1
        k = len(done)
        self.completed += k
        self.outstanding -= k
        self.terminal += k
        if self.terminal >= self.n:
            self._finish()

    def _kick_shard(self, s: int) -> None:
        ev = self._kick[s]
        if ev is not None and not ev.triggered:
            ev.succeed()
            self._kick[s] = None

    # ------------------------------------------------------------------
    # Shard failure domain
    # ------------------------------------------------------------------
    def _chaos_proc(self, spec: FaultSpec):
        sim = self.sim
        inj = self.machine.faults
        k = 0
        while not self._done_ev.triggered:
            t = spec.episode_start(k)
            k += 1
            if t is None:
                break
            delay = t - sim.now
            if delay > 0:
                ev = Event(sim)
                self._waiters.append(ev)
                yield AnyOf(sim, [sim.timeout(delay), ev])
            if self._done_ev.triggered:
                break
            if not inj.draw_episode(spec):
                continue
            s = inj.draw_shard(spec, self.cfg.num_shards)
            if spec.kind == "shard_down":
                inj.ledger.injected_shard_down += 1
                inj.ledger.shard_down_time += spec.duration
                self._begin_down(s, sim.now + spec.duration, sim.now)
            else:
                inj.ledger.injected_shard_slow += 1
                self.slow[s].append((sim.now + spec.duration,
                                     spec.factor))

    def _begin_down(self, s: int, until: float, now: float) -> None:
        """Take shard *s* dark until *until*: pause service and
        displace its queued and in-window work onto live replicas."""
        self.down_until[s] = max(float(self.down_until[s]), until)
        S = self.static[s]
        A = self.static_arr[s]
        head = self.head[s]
        k_abs = int(np.searchsorted(A, self.down_until[s], side="left"))
        if k_abs > head:
            cand = S[head:k_abs]
            rd = self.part_read[cand]
            rq = self.req_of_read[rd]
            mask = ((~self.part_gone[cand]) & (~self.read_done[rd])
                    & (self.req_status[rq] == ADMITTED))
            for p in cand[mask]:
                self._displace_part(int(p), now)
        entries = self.dyn[s]
        self.dyn[s] = []
        for _, _, p in entries:
            self._displace_part(int(p), now)

    def _displace_part(self, p: int, now: float) -> None:
        """Move one part off a downed shard: mirrors are dropped
        (their primary covers the read), primaries are redirected to
        the first live shard in the replica chain — or, with no live
        replica, the read is unavailable and the request fails fast."""
        rd = int(self.part_read[p])
        if self.part_gone[p] or self.read_done[rd]:
            return
        rq = int(self.req_of_read[rd])
        if self.req_status[rq] != ADMITTED:
            return
        self.part_gone[p] = True
        ledger = self._ledger
        if not self.part_is_mirror[p]:
            chain = self.succ_of_part[self.part_anchor[p]]
            for c in chain:
                c = int(c)
                if self.down_until[c] > now:
                    continue
                heapq.heappush(self.dyn[c], (now, self._dyn_seq, p))
                self._dyn_seq += 1
                self.part_gone[p] = False
                self.redirects += 1
                if ledger is not None:
                    ledger.shard_redirects += 1
                self._kick_shard(c)
                return
        self.read_live[rd] -= 1
        if self.read_live[rd] <= 0:
            if ledger is not None:
                ledger.shard_unavailable += 1
            self._fail_request(rq)
