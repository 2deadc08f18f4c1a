"""Differential tests of the cluster's per-batch path and part build.

``ClusterSim`` admits, forms, drops and completes shard batches with
scalar loops over memoryviews of its state arrays.
``VectorisedClusterSim`` keeps the earlier formulation of that path,
numpy scalar reads and whole-window numpy calls, as the reference: on
every scenario of the matrix both must reach the same
``ClusterStats``, the same sanitizer trace digest and the same end
state, per-shard counters included.  The matrix reaches every branch of
the batch path — deadline drops from the static and the redirect
queues, full batches that stop early and ones that consume their whole
window, shedding, outages with and without a live replica, slow shards,
hedged and unhedged runs, batch sizes 1 and 64, and multi-seed
requests.

``ListScanMirrorsSim`` keeps the earlier multi-seed part build, whose
one-mirror-per-read check scanned every mirror read built so far, as
the reference for the per-request check that replaced it.
"""

import dataclasses
import heapq
import math
from typing import Dict, List

import numpy as np
import pytest

from repro.bench.runner import get_dataset
from repro.cluster import ClusterScenario
from repro.cluster.sim import (ADMITTED, BATCH_OVERHEAD, OK,
                               PART_COST_BASE, SHED, TIMEOUT, ClusterSim)
from repro.machine import Machine
from repro.simcore import AnyOf, Event

pytestmark = pytest.mark.cluster


class VectorisedClusterSim(ClusterSim):
    """The per-batch path with numpy scalar reads and whole-window numpy
    calls (the reference)."""

    def _ingest(self, now):
        a = self.arr_ptr
        if a >= self.n or self.arrivals[a] > now:
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
            if np.any(self.down_until > now):
                self._reroute_range(a, a + take, now)
        dropped = hi - a - take
        if dropped > 0:
            self.req_status[a + take:hi] = SHED
            self.shed += dropped
            self.terminal += dropped
        self.arr_ptr = hi
        if self.terminal >= self.n:
            self._finish()

    def _shard_proc(self, s):
        sim = self.sim
        while not self._done_ev.triggered:
            if self.down_until[s] > sim.now:
                yield sim.timeout(self.down_until[s] - sim.now)
                continue
            self._ingest(sim.now)
            if self._done_ev.triggered:
                break
            chosen = self._form_batch(s, sim.now)
            if self._done_ev.triggered:
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
            dur = (BATCH_OVERHEAD + float(self.part_cost[chosen].sum())) \
                * self._slow_factor(s, sim.now)
            yield sim.timeout(dur)
            self._complete_batch(s, chosen, dur)

    def _next_ready(self, s):
        t_static = None
        if self.head[s] < len(self.static[s]):
            t_static = float(self.static_arr[s][self.head[s]])
        t_dyn = self.dyn[s][0][0] if self.dyn[s] else None
        if t_static is None:
            return t_dyn
        if t_dyn is None:
            return t_static
        return min(t_static, t_dyn)

    def _timeout_requests(self, rs: np.ndarray) -> None:
        rs = rs[self.req_status[rs] == ADMITTED]
        if not len(rs):
            return
        self.req_status[rs] = TIMEOUT
        self.timed_out += len(rs)
        self.outstanding -= len(rs)
        self.terminal += len(rs)
        if self.terminal >= self.n:
            self._finish()

    def _drop_expired(self, parts: np.ndarray) -> None:
        rd = self.part_read[parts]
        np.subtract.at(self.read_live, rd, 1)
        dead = rd[(~self.read_done[rd]) & (self.read_live[rd] <= 0)]
        if len(dead):
            self._timeout_requests(np.unique(self.req_of_read[dead]))

    def _form_batch(self, s, now):
        cfg = self.cfg
        S = self.static[s]
        A = self.static_arr[s]
        head = self.head[s]
        k_abs = int(np.searchsorted(A, now, side="right"))
        chosen_static = None
        if k_abs > head:
            cand = S[head:k_abs]
            rd = self.part_read[cand]
            rq = self.req_of_read[rd]
            valid = ((~self.part_gone[cand]) & (~self.read_done[rd])
                     & (self.req_status[rq] == ADMITTED))
            expired = valid & (self.deadlines[rq] < now)
            serve = valid & ~expired
            idx = np.nonzero(serve)[0]
            if len(idx) > cfg.max_batch:
                consume = int(idx[cfg.max_batch - 1]) + 1
                idx = idx[:cfg.max_batch]
            else:
                consume = len(cand)
            exp_idx = np.nonzero(expired[:consume])[0]
            self.head[s] = head + consume
            self.part_gone[cand[:consume]] = True
            if len(exp_idx):
                self._drop_expired(cand[exp_idx])
            if len(idx):
                chosen_static = cand[idx]
        room = cfg.max_batch - (len(chosen_static)
                                if chosen_static is not None else 0)
        dyn_take: List[int] = []
        dynq = self.dyn[s]
        while dynq and room > 0 and dynq[0][0] <= now:
            _, _, p = heapq.heappop(dynq)
            if self.part_gone[p] or self.read_done[self.part_read[p]]:
                continue
            rq = int(self.req_of_read[self.part_read[p]])
            if self.req_status[rq] != ADMITTED:
                continue
            self.part_gone[p] = True
            if self.deadlines[rq] < now:
                self._drop_expired(np.asarray([p]))
                continue
            dyn_take.append(p)
            room -= 1
        if dyn_take:
            extra = np.asarray(dyn_take, dtype=np.int64)
            if chosen_static is None:
                return extra
            return np.concatenate([chosen_static, extra])
        return chosen_static

    def _complete_batch(self, s, chosen, dur):
        now = self.sim.now
        self.num_batches += 1
        self.parts_served += len(chosen)
        self.shard_parts[s] += len(chosen)
        self.shard_busy[s] += dur
        reads = self.part_read[chosen]
        uniq, first = np.unique(reads, return_index=True)
        sel = first[~self.read_done[uniq]]
        if not len(sel):
            return
        new_reads = reads[sel]
        self.read_done[new_reads] = True
        self.reads_done_cnt += len(new_reads)
        wins = int(self.part_is_mirror[chosen[sel]].sum())
        if wins:
            self.mirror_wins += wins
            ledger = self._ledger
            if ledger is not None:
                ledger.mirror_wins += wins
        rs = self.req_of_read[new_reads]
        np.subtract.at(self.remaining, rs, 1)
        done = np.unique(rs)
        done = done[(self.remaining[done] == 0)
                    & (self.req_status[done] == ADMITTED)]
        if not len(done):
            return
        self.req_status[done] = OK
        self.completed_at[done] = now
        lat = now - self.arrivals[done]
        self.slo_miss += int((lat > self.slo).sum())
        self.completed += len(done)
        self.outstanding -= len(done)
        self.terminal += len(done)
        if self.terminal >= self.n:
            self._finish()


BASE = ClusterScenario(name="batch-path", dataset="tiny", rate=800.0,
                       num_requests=300, slo=0.1, seed=7)
#: Offered load far past capacity with a tight SLO: most requests time
#: out, and batches fill.
OVERLOAD = BASE.with_(num_requests=1500, rate=30000.0, slo=0.05,
                      num_shards=8, popularity="zipf", zipf_alpha=1.3,
                      admit_capacity=16384)
#: Shard chaos (outages and slow windows) under a tight SLO, so
#: redirected parts also expire in the redirect queues.
CHAOS = BASE.with_(num_requests=800, rate=8000.0, slo=0.01,
                   max_batch=4, fault_plan="shard-chaos")

#: (id, scenario, what the run must show for the scenario to cover its
#: branch of the batch path).
MATRIX = [
    ("hedged", BASE.with_(hot_fraction=0.1),
     lambda s: s.mirror_wins > 0),
    ("unhedged", BASE.with_(hedge=False), lambda s: s.mirrors == 0),
    # Full batches of 4 followed by shed requests' parts: the scan
    # consumes the rest of the window.
    ("shed", BASE.with_(rate=50000.0, num_requests=600, admit_capacity=32,
                        slo=10.0, max_batch=4), lambda s: s.shed > 0),
    ("deadline-drops", OVERLOAD.with_(max_batch=8),
     lambda s: s.timed_out > 0),
    ("full-batches-64", OVERLOAD.with_(max_batch=64, rate=60000.0),
     lambda s: s.timed_out > 0 and s.mean_batch_size > 32),
    ("max-batch-1", OVERLOAD.with_(num_requests=600, max_batch=1),
     lambda s: s.timed_out > 0 and s.mean_batch_size == 1.0),
    ("down-rf2-slow", CHAOS,
     lambda s: (s.redirects > 0 and s.timed_out > 0 and s.failed == 0
                and s.faults["injected_shard_slow"] > 0)),
    ("down-rf1", CHAOS.with_(replication=1),
     lambda s: s.failed > 0 and s.redirects == 0),
    ("two-seeds", CHAOS.with_(rate=10000.0, seeds_per_request=2,
                              hot_fraction=0.1),
     lambda s: s.timed_out > 0 and s.redirects > 0 and s.mirror_wins > 0),
]

#: End-state arrays compared byte for byte.
_STATE = ("req_status", "completed_at", "read_done", "read_live",
          "remaining", "part_gone", "shard_parts", "shard_busy")


def _run(cls, scenario: ClusterScenario):
    dataset = get_dataset(scenario.dataset, scale=scenario.dataset_scale,
                          seed=scenario.seed)
    machine = Machine(scenario.machine_spec())
    cluster = cls(machine, dataset, config=scenario.cluster_config(),
                  workload=scenario.workload_spec(), slo=scenario.slo)
    stats = cluster.run()
    stats.check_accounting()
    san = machine.sanitizer
    assert [f.render() for f in san.findings] == []
    return cluster, stats, san.trace_digest()


def _same(a, b) -> bool:
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return a == b


@pytest.mark.parametrize("scenario,reaches",
                         [pytest.param(sc, ok, id=name)
                          for name, sc, ok in MATRIX])
def test_batch_path_matches_vectorised_reference(scenario, reaches):
    ref, ref_stats, ref_digest = _run(VectorisedClusterSim, scenario)
    got, got_stats, got_digest = _run(ClusterSim, scenario)
    assert reaches(ref_stats), ref_stats
    diff: Dict[str, tuple] = {}
    for f in dataclasses.fields(ref_stats):
        a, b = getattr(ref_stats, f.name), getattr(got_stats, f.name)
        if not _same(a, b):
            diff[f.name] = (a, b)
    assert diff == {}
    assert got_digest == ref_digest
    assert got.head == ref.head
    assert got.dyn == ref.dyn
    for name in _STATE:
        assert getattr(got, name).tobytes() == \
            getattr(ref, name).tobytes(), name


class ListScanMirrorsSim(ClusterSim):
    """The multi-seed part build with its one-mirror-per-read check
    scanning all mirror reads built so far (the reference)."""

    def _build_parts_multi(self) -> None:
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
        base = PART_COST_BASE
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
            for seed in self.seeds[r]:
                if not (self.hedge_armed
                        and self.rank_of_node[seed] < self.hot_n):
                    continue
                home = int(self.shard_of_node[seed])
                part = int(self.part_of_node[seed])
                succ = int(self.succ_of_part[part, 1])
                rd = read_pos[home]
                if rd in m_read:
                    continue  # one mirror per read
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


_PARTS = ("read_indptr", "req_of_read", "remaining", "mirror_ptr",
          "part_read", "part_shard", "part_anchor", "part_cost",
          "part_arrival", "part_is_mirror", "read_live")


@pytest.mark.parametrize("seeds_per_request", [2, 4])
def test_multi_seed_parts_match_list_scan_reference(seeds_per_request):
    scenario = BASE.with_(num_requests=1000,
                          seeds_per_request=seeds_per_request,
                          hot_fraction=0.2)
    dataset = get_dataset(scenario.dataset, seed=scenario.seed)

    def build(cls):
        return cls(Machine(scenario.machine_spec()), dataset,
                   config=scenario.cluster_config(),
                   workload=scenario.workload_spec(), slo=scenario.slo)

    ref, got = build(ListScanMirrorsSim), build(ClusterSim)
    # Hot seeds of one request sharing a home shard share one mirror:
    # the dedup check must have fired.
    hot = int((ref.rank_of_node[ref.seeds] < ref.hot_n).sum())
    assert 0 < int(ref.part_is_mirror.sum()) < hot
    assert got.n_primary == ref.n_primary
    for name in _PARTS:
        a, b = getattr(ref, name), getattr(got, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    for a, b in zip(ref.static, got.static):
        assert a.tobytes() == b.tobytes()
