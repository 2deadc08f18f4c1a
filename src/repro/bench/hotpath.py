"""Hot-path microbenchmarks: vectorized data plane vs. seed reference.

The simulator's claims live in its queueing model, but its *wall-clock*
lives in four data-plane hot paths: the feature-buffer standby LRU, the
page-cache resident set, the buffered-I/O residency test, and SQE batch
construction.  Each microbenchmark here drives the production
implementation and a faithful copy of the original per-element
(OrderedDict / Python-loop) implementation through the same trace,
checks they agree, and reports the wall-clock ratio.

Run with ``python -m repro.bench hotpath`` (writes ``BENCH_hotpath.json``)
or via the ``perf_smoke``-marked pytest wrapper in
``benchmarks/bench_hotpath.py``.  The reference classes double as the
oracles for the behaviour-equivalence property tests.
"""

from __future__ import annotations

import platform
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.bench import stats as bstats
from repro.bench.results_io import save_artifact

from repro.core.feature_buffer import FeatureBuffer
from repro.memory import HostMemory
from repro.simcore import Simulator
from repro.storage import (
    AsyncRing,
    FileCatalog,
    PageCache,
    SSDDevice,
    SSDSpec,
)
from repro.storage.spec import PAGE_SIZE, SECTOR_SIZE

#: Wall-clock targets the PR trajectory is tracked against.
SPEEDUP_TARGETS = {
    "feature_buffer_alloc_release": 5.0,
    "page_cache_access": 5.0,
    "page_cache_churn": 3.0,
}


# ----------------------------------------------------------------------
# Reference implementations (the seed's per-element hot paths)
# ----------------------------------------------------------------------
class ReferenceStandbyBuffer:
    """The seed FeatureBuffer control plane: OrderedDict standby list,
    per-element Python loops.  Data-plane ``fill``/``gather`` are
    omitted — they were always vectorized and identical."""

    def __init__(self, num_slots: int, num_nodes: int):
        self.slot_of = np.full(num_nodes, -1, dtype=np.int64)
        self.ref = np.zeros(num_nodes, dtype=np.int64)
        self.valid = np.zeros(num_nodes, dtype=bool)
        self.reverse = np.full(num_slots, -1, dtype=np.int64)
        self.standby: "OrderedDict[int, None]" = OrderedDict(
            (s, None) for s in range(num_slots))
        self.stat_reused = 0
        self.stat_loaded = 0
        self.stat_evictions = 0

    def begin_batch(self, nodes: np.ndarray) -> np.ndarray:
        valid = self.valid[nodes]
        ref = self.ref[nodes]
        retired = nodes[valid & (ref == 0)]
        for v in retired:
            self.standby.pop(int(self.slot_of[v]), None)
        self.ref[nodes] += 1
        self.stat_reused += int(valid.sum())
        return nodes[(~valid) & (ref == 0)]

    def allocate_slots(self, nodes: np.ndarray) -> np.ndarray:
        k = min(len(self.standby), len(nodes))
        assigned = nodes[:k]
        for v in assigned:
            s, _ = self.standby.popitem(last=False)
            prev = int(self.reverse[s])
            if prev >= 0:
                self.valid[prev] = False
                self.slot_of[prev] = -1
                self.stat_evictions += 1
            self.slot_of[v] = s
            self.reverse[s] = int(v)
        self.stat_loaded += k
        return assigned

    def finish_load(self, nodes: np.ndarray) -> None:
        self.valid[nodes] = True

    def release(self, nodes: np.ndarray) -> None:
        self.ref[nodes] -= 1
        done = nodes[self.ref[nodes] == 0]
        for v in done:
            s = int(self.slot_of[v])
            if s >= 0:
                self.standby[s] = None

    def standby_order(self) -> List[int]:
        return list(self.standby)


class ReferencePageCache:
    """The seed PageCache resident set: one OrderedDict keyed by
    (file name, page id), touched one page per Python operation."""

    def __init__(self, capacity_pages: int):
        self.capacity_pages = capacity_pages
        self._resident: "OrderedDict[Tuple[str, int], None]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def access(self, name: str, pages: np.ndarray) -> Tuple[int, int]:
        pages = np.unique(np.asarray(pages, dtype=np.int64))
        resident = self._resident
        hit_keys = []
        miss_pages = []
        for p in pages:
            key = (name, int(p))
            if key in resident:
                hit_keys.append(key)
            else:
                miss_pages.append(int(p))
        for key in hit_keys:
            resident.move_to_end(key)
        for p in miss_pages:
            resident[(name, p)] = None
        self.hits += len(hit_keys)
        self.misses += len(miss_pages)
        while len(resident) > self.capacity_pages:
            resident.popitem(last=False)
            self.evictions += 1
        return len(hit_keys), len(miss_pages)

    def warm(self, name: str, pages: np.ndarray) -> None:
        for p in np.asarray(pages, dtype=np.int64):
            self._resident[(name, int(p))] = None

    def order(self) -> List[Tuple[str, int]]:
        return list(self._resident)


def reference_records_resident(cache: PageCache, handle,
                               record_ids: np.ndarray) -> np.ndarray:
    """The seed driver's buffered-I/O residency test: an O(nodes x pages)
    generator expression over per-node page lookups."""
    return np.fromiter(
        (all(cache.contains(handle.name, int(p))
             for p in cache.pages_for_records(handle, np.asarray([v])))
         for v in record_ids), dtype=bool, count=len(record_ids))


class _ReferenceSqe:
    __slots__ = ("offset", "nbytes", "user_data", "completion_time")

    def __init__(self, offset, nbytes, user_data):
        self.offset = offset
        self.nbytes = nbytes
        self.user_data = user_data
        self.completion_time = float("nan")


def reference_prepare_record_reads(handle, record_ids: np.ndarray,
                                   io_size: int) -> List[_ReferenceSqe]:
    """The seed ring's per-record SQE construction loop."""
    rec = handle.record_nbytes
    padded = ((handle.nbytes + SECTOR_SIZE - 1) // SECTOR_SIZE) * SECTOR_SIZE
    sqes = []
    for rid in np.asarray(record_ids, dtype=np.int64):
        off = int(rid) * rec
        off -= off % SECTOR_SIZE
        off = max(0, min(off, padded - io_size))
        sqes.append(_ReferenceSqe(off, io_size, int(rid)))
    return sqes


def reference_fill_completions(sqes: List[_ReferenceSqe],
                               done: np.ndarray) -> None:
    for sqe, t in zip(sqes, done):
        sqe.completion_time = float(t)


# ----------------------------------------------------------------------
# Workload generation (deterministic)
# ----------------------------------------------------------------------
def _batch_trace(rng, num_batches: int, batch_nodes: int, num_nodes: int,
                 hot_fraction: float = 0.6) -> List[np.ndarray]:
    """Unique-node batches with a hot set, like neighbour-sampled graphs."""
    hot = max(batch_nodes * 2, int(num_nodes * 0.02))
    batches = []
    for _ in range(num_batches):
        n_hot = int(batch_nodes * hot_fraction)
        draw = np.concatenate([
            rng.integers(0, hot, size=2 * n_hot),
            rng.integers(0, num_nodes, size=2 * (batch_nodes - n_hot)),
        ])
        batches.append(np.unique(draw)[:batch_nodes])
    return batches


#: Plan used by every timing in this module until a caller overrides it
#: (``run_hotpath(runs=...)`` / ``REPRO_BENCH_RUNS``).
_PLAN: bstats.RunPlan = bstats.RunPlan.from_env()


def _time(fn: Callable[[], object],
          plan: Optional[bstats.RunPlan] = None) -> Dict:
    """Repeated wall-clock samples through the shared executor
    (:func:`repro.bench.stats.repeated_samples`): warmup passes are
    discarded and the cyclic GC is quiesced around each sample so
    benches don't pay for each other's allocation history.

    Returns ``{"best", "runs", "mean_s", "stddev_s", "samples"}``;
    ratios are taken over *best* (least-noise estimator), the spread
    and raw samples are reported so artifacts carry their own error
    bars.
    """
    samples = bstats.repeated_samples(fn, plan or _PLAN)
    return {
        "best": min(samples),
        "runs": len(samples),
        "mean_s": float(np.mean(samples)),
        "stddev_s": float(np.std(samples)),
        "samples": [float(s) for s in samples],
    }


# ----------------------------------------------------------------------
# Microbenchmarks
# ----------------------------------------------------------------------
def bench_feature_buffer(num_slots: int = 12_000, num_nodes: int = 400_000,
                         batch_nodes: int = 4000,
                         num_batches: int = 100) -> Dict:
    """Standby-list churn: begin/allocate/finish/release per batch.

    Low reuse, so most nodes walk the allocate/release cycle — the
    per-element popitem/setdefault loops the seed paid for."""
    rng = np.random.default_rng(0)
    batches = _batch_trace(rng, num_batches, batch_nodes, num_nodes,
                           hot_fraction=0.15)

    def run_vectorized():
        sim = Simulator()
        fb = FeatureBuffer(sim, num_slots, num_nodes, dim=1)
        live: List[np.ndarray] = []
        for nodes in batches:
            cls = fb.begin_batch(nodes)
            assigned, _ = fb.allocate_slots(cls.needs_load)
            fb.finish_load(assigned)
            live.append(nodes)
            if len(live) > 2:
                fb.release(live.pop(0))
        while live:
            fb.release(live.pop(0))
        return fb

    def run_reference():
        fb = ReferenceStandbyBuffer(num_slots, num_nodes)
        live: List[np.ndarray] = []
        for nodes in batches:
            need = fb.begin_batch(nodes)
            assigned = fb.allocate_slots(need)
            fb.finish_load(assigned)
            live.append(nodes)
            if len(live) > 2:
                fb.release(live.pop(0))
        while live:
            fb.release(live.pop(0))
        return fb

    vec, ref = run_vectorized(), run_reference()
    assert (vec.stat_reused, vec.stat_loaded, vec.stat_evictions) == \
        (ref.stat_reused, ref.stat_loaded, ref.stat_evictions), \
        "vectorized feature buffer diverged from reference"
    assert vec.standby.order().tolist() == ref.standby_order(), \
        "standby LRU order diverged from reference"
    t_vec = _time(run_vectorized)
    t_ref = _time(run_reference)
    n_ops = sum(len(b) for b in batches)
    return _result("feature_buffer_alloc_release", n_ops, t_ref, t_vec)


def bench_page_cache_access(num_pages: int = 400_000, pages_per_access: int = 4000,
                            num_accesses: int = 120) -> Dict:
    """Hit-dominated page-cache access (the topology-fault fast path)."""
    rng = np.random.default_rng(1)
    traces = [rng.integers(0, num_pages, size=pages_per_access)
              for _ in range(num_accesses)]
    nbytes = num_pages * PAGE_SIZE

    def run_vectorized():
        sim = Simulator()
        host = HostMemory(capacity=2 * nbytes)
        dev = SSDDevice(sim, SSDSpec(0.0, 1e12, 4))
        cache = PageCache(sim, host, dev)
        fh = FileCatalog().create("f", nbytes=nbytes)
        cache.warm(fh, np.arange(num_pages, dtype=np.int64))
        for pages in traces:
            cache.access(fh, pages)
        return cache

    def run_reference():
        cache = ReferencePageCache(capacity_pages=2 * num_pages)
        cache.warm("f", np.arange(num_pages, dtype=np.int64))
        for pages in traces:
            cache.access("f", pages)
        return cache

    vec, ref = run_vectorized(), run_reference()
    assert (vec.hits, vec.misses, vec.evictions) == \
        (ref.hits, ref.misses, ref.evictions), \
        "vectorized page cache diverged from reference"
    t_vec = _time(run_vectorized)
    t_ref = _time(run_reference)
    n_ops = sum(len(np.unique(t)) for t in traces)
    return _result("page_cache_access", n_ops, t_ref, t_vec)


def bench_page_cache_churn(capacity_pages: int = 20_000,
                           pages_per_access: int = 2000,
                           num_accesses: int = 60) -> Dict:
    """Miss/eviction churn: LRU insertions plus shrink-to-budget.

    Both sides pay the (identical, already-batched) device model for the
    misses, so this ratio under-states the pure data-plane gain."""
    rng = np.random.default_rng(2)
    num_pages = 8 * capacity_pages
    traces = [rng.integers(0, num_pages, size=pages_per_access)
              for _ in range(num_accesses)]
    nbytes = num_pages * PAGE_SIZE

    def run_vectorized():
        sim = Simulator()
        host = HostMemory(capacity=capacity_pages * PAGE_SIZE)
        dev = SSDDevice(sim, SSDSpec(0.0, 1e12, 4))
        cache = PageCache(sim, host, dev)
        fh = FileCatalog().create("f", nbytes=nbytes)
        for pages in traces:
            cache.access(fh, pages)
        return cache

    def run_reference():
        sim = Simulator()
        dev = SSDDevice(sim, SSDSpec(0.0, 1e12, 4))
        cache = ReferencePageCache(capacity_pages=capacity_pages)
        for pages in traces:
            _, misses = cache.access("f", pages)
            if misses:
                dev.submit_batch(
                    np.full(misses, PAGE_SIZE, dtype=np.int64), io_depth=1)
        return cache

    vec, ref = run_vectorized(), run_reference()
    assert (vec.hits, vec.misses, vec.evictions) == \
        (ref.hits, ref.misses, ref.evictions), \
        "vectorized page cache diverged from reference under churn"
    assert vec.resident_keys() == ref.order(), \
        "LRU residency order diverged from reference under churn"
    t_vec = _time(run_vectorized)
    t_ref = _time(run_reference)
    n_ops = sum(len(np.unique(t)) for t in traces)
    return _result("page_cache_churn", n_ops, t_ref, t_vec)


def bench_records_residency(num_records: int = 30_000,
                            record_nbytes: int = 768,
                            num_queries: int = 8) -> Dict:
    """Buffered-I/O residency test: batched mask vs. per-node genexpr."""
    rng = np.random.default_rng(3)
    sim = Simulator()
    host = HostMemory(capacity=1 << 34)
    dev = SSDDevice(sim, SSDSpec(0.0, 1e12, 4))
    cache = PageCache(sim, host, dev)
    fh = FileCatalog().create("f", nbytes=num_records * record_nbytes,
                              record_nbytes=record_nbytes)
    warm_records = rng.integers(0, num_records, size=num_records // 2)
    cache.warm(fh, cache.pages_for_records(fh, warm_records))
    queries = [np.unique(rng.integers(0, num_records, size=4000))
               for _ in range(num_queries)]

    for q in queries:
        got = cache.records_resident_mask(fh, q)
        want = reference_records_resident(cache, fh, q)
        assert np.array_equal(got, want), \
            "records_resident_mask diverged from per-node reference"

    t_vec = _time(lambda: [cache.records_resident_mask(fh, q)
                           for q in queries])
    t_ref = _time(lambda: [reference_records_resident(cache, fh, q)
                           for q in queries])
    n_ops = sum(len(q) for q in queries)
    return _result("records_residency_mask", n_ops, t_ref, t_vec)


def bench_sqe_batches(num_records: int = 200_000, record_nbytes: int = 768,
                      batch: int = 4000) -> Dict:
    """SQE construction + completion fill, array-form vs. per-object."""
    rng = np.random.default_rng(4)
    cat = FileCatalog()
    fh = cat.create("f", nbytes=num_records * record_nbytes,
                    record_nbytes=record_nbytes)
    io_size = ((record_nbytes + SECTOR_SIZE - 1) // SECTOR_SIZE) * SECTOR_SIZE
    batches = [rng.integers(0, num_records, size=batch) for _ in range(30)]

    class _InstantDevice:
        """Completion times without the (shared) queueing heap, so the
        measurement isolates the SQE plane itself."""

        def submit_batch(self, sizes, io_depth=None):
            return np.arange(1, len(sizes) + 1, dtype=np.float64)

    sim = Simulator()
    ring = AsyncRing(sim, _InstantDevice(), depth=64, direct=True)

    # Equivalence: same offsets/sizes/completions as the reference loop.
    sqes = ring.prepare_record_reads(fh, batches[0], io_size=io_size)
    ref_sqes = reference_prepare_record_reads(fh, batches[0], io_size)
    done = ring.submit()
    reference_fill_completions(ref_sqes, done)
    assert [s.offset for s in ref_sqes] == sqes.offsets.tolist()
    assert all(s.nbytes == io_size for s in ref_sqes)
    assert [s.completion_time for s in ref_sqes] == \
        sqes.completion_times.tolist()

    def run_vectorized():
        for rids in batches:
            ring.prepare_record_reads(fh, rids, io_size=io_size)
            ring.submit()

    def run_reference():
        for rids in batches:
            sqes = reference_prepare_record_reads(fh, rids, io_size)
            sizes = np.fromiter((s.nbytes for s in sqes), dtype=np.int64,
                                count=len(sqes))
            done = np.arange(1, len(sizes) + 1, dtype=np.float64)
            reference_fill_completions(sqes, done)

    t_vec = _time(run_vectorized)
    t_ref = _time(run_reference)
    n_ops = sum(len(b) for b in batches)
    return _result("sqe_record_batches", n_ops, t_ref, t_vec)


# ----------------------------------------------------------------------
def _result(name: str, n_ops: int, t_ref: Dict, t_vec: Dict) -> Dict:
    ref, vec = t_ref["best"], t_vec["best"]
    return {
        "name": name,
        "n_ops": int(n_ops),
        "runs": t_ref["runs"],
        "reference_s": ref,
        "vectorized_s": vec,
        "reference_mean_s": t_ref["mean_s"],
        "reference_stddev_s": t_ref["stddev_s"],
        "vectorized_mean_s": t_vec["mean_s"],
        "vectorized_stddev_s": t_vec["stddev_s"],
        "reference_samples": t_ref.get("samples", []),
        "vectorized_samples": t_vec.get("samples", []),
        "reference_ns_per_op": 1e9 * ref / n_ops,
        "vectorized_ns_per_op": 1e9 * vec / n_ops,
        "speedup": ref / vec,
        "target_speedup": SPEEDUP_TARGETS.get(name),
    }


#: Suffix -> spec mapping for the timing metrics the benches emit.
TIMING_SPECS = {
    "reference_s": bstats.WALL_S,
    "vectorized_s": bstats.WALL_S,
    "speedup": bstats.RATIO_UP,
}


def timing_metric_samples(results) -> Dict[str, List[float]]:
    """Per-metric samples from a list of :func:`_result` dicts: the raw
    reference/vectorized wall samples plus run-paired speedups."""
    samples: Dict[str, List[float]] = {}
    for r in results:
        ref, vec = r["reference_samples"], r["vectorized_samples"]
        if not ref or not vec:
            continue
        samples[f"{r['name']}.reference_s"] = list(ref)
        samples[f"{r['name']}.vectorized_s"] = list(vec)
        samples[f"{r['name']}.speedup"] = [a / b
                                           for a, b in zip(ref, vec)]
    return samples


ALL_BENCHES = (
    bench_feature_buffer,
    bench_page_cache_access,
    bench_page_cache_churn,
    bench_records_residency,
    bench_sqe_batches,
)


def run_hotpath(output: str = "BENCH_hotpath.json",
                verbose: bool = True,
                runs: Optional[int] = None) -> Dict:
    """Run every hot-path microbenchmark; write the JSON artifact.

    *runs* (or ``REPRO_BENCH_RUNS``) sets the recorded repetitions of
    every timing; the artifact's ``stats`` block carries the per-metric
    summaries and the environment fingerprint.
    """
    global _PLAN
    plan = bstats.RunPlan.from_env(runs=runs)
    prev_plan, _PLAN = _PLAN, plan
    try:
        results = []
        for bench in ALL_BENCHES:
            r = bench()
            results.append(r)
            if verbose:
                print(f"{r['name']:32s} {r['n_ops']:>9d} ops | "
                      f"ref {r['reference_ns_per_op']:8.1f} ns/op | "
                      f"vec {r['vectorized_ns_per_op']:8.1f} ns/op | "
                      f"{r['speedup']:6.1f}x")
    finally:
        _PLAN = prev_plan
    metrics = bstats.summarize_metrics(
        timing_metric_samples(results), TIMING_SPECS, ci_seed=plan.seed)
    artifact = {
        "artifact": "hotpath-microbenchmarks",
        "generated_by": "python -m repro.bench hotpath",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "benches": results,
        "targets": SPEEDUP_TARGETS,
        "targets_met": all(
            r["speedup"] >= SPEEDUP_TARGETS[r["name"]]
            for r in results if r["name"] in SPEEDUP_TARGETS),
        "stats": bstats.build_stats_block(
            metrics, plan, config={"bench": "hotpath",
                                   "targets": SPEEDUP_TARGETS}),
    }
    if output:
        save_artifact(artifact, output)
        if verbose:
            print(f"\nartifact written to {output}")
    return artifact
