"""The benchmark's four workloads, driven through the program's public API.

Each workload is split in two phases:

* ``setup`` — dataset generation, ``Machine`` and system/server/cluster
  construction and, for training, one warm-up epoch;
* ``measure`` — the timed phase, a fixed amount of work split into
  timed windows of ``(ops, seconds)``: one per epoch for training, one
  per run for serve and cluster.  The simulated outputs are read after
  it for the output check.

The program is called through module attributes (``repro.graph.
make_dataset``, not a name imported here) so that the layer tracer's
rebinding of those attributes sees every call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

import repro.bench.runner
import repro.cluster.scenario
import repro.cluster.sim
import repro.core.base
import repro.graph
import repro.machine
import repro.serve.scenario
import repro.serve.server


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its kind and its full and smoke sizes."""

    name: str
    kind: str                      # "train" | "serve" | "cluster"
    full: Mapping[str, object]
    smoke: Mapping[str, object]

    def params(self, smoke: bool = False) -> Dict[str, object]:
        return dict(self.smoke if smoke else self.full)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    # Fig. 8 headline: every GNNDrive layer runs; tensor math dominates.
    Workload("train-gnndrive", "train",
             full=dict(system="gnndrive-gpu", dataset="papers100m-mini",
                       scale=1.0, dim=None, host_gb=32, batch_size=50,
                       warmup_epochs=1, epochs=10),
             smoke=dict(system="gnndrive-gpu", dataset="tiny", scale=1.0,
                        dim=None, host_gb=32, batch_size=25,
                        warmup_epochs=1, epochs=2)),
    # Fig. 9 memory-pressure point: PyG+ reads features through the
    # page cache under eviction churn, bypassing FeatureBuffer/AsyncRing.
    Workload("train-pygplus-8g", "train",
             full=dict(system="pyg+", dataset="papers100m-mini", scale=1.0,
                       dim=512, host_gb=8, batch_size=50,
                       warmup_epochs=1, epochs=6),
             smoke=dict(system="pyg+", dataset="tiny", scale=1.0, dim=64,
                        host_gb=8, batch_size=25, warmup_epochs=1,
                        epochs=2)),
    # Online serving: tiny batches, so sampling, sparse-adjacency builds
    # and per-request engine dispatch outweigh the GEMMs.
    Workload("serve-async", "serve",
             full=dict(dataset="papers100m-mini", scale=0.2, host_gb=8,
                       backend="async", rate=100.0, requests=500,
                       seeds_per_request=2, slo=0.05),
             smoke=dict(dataset="tiny", scale=1.0, host_gb=8,
                        backend="async", rate=100.0, requests=60,
                        seeds_per_request=2, slo=0.05)),
    # Sharded cluster: no tensor, sampling or storage work; the engine
    # and cluster process bodies are nearly all of the wall time.
    Workload("cluster-zipf", "cluster",
             full=dict(dataset="tiny", scale=1.0, host_gb=32, shards=8,
                       replication=2, zipf_alpha=0.9, admit_capacity=16384,
                       max_batch=64, slo=0.5, rate=12000.0,
                       requests=20000),
             smoke=dict(dataset="tiny", scale=1.0, host_gb=32, shards=8,
                        replication=2, zipf_alpha=0.9, admit_capacity=16384,
                        max_batch=64, slo=0.5, rate=12000.0,
                        requests=3000)),
)}


def _machine(p: Mapping[str, object], **overrides):
    spec = repro.machine.MachineSpec.paper_scaled(
        host_gb=p["host_gb"],
        scale=repro.machine.DEFAULT_SCALE * p["scale"], **overrides)
    return repro.machine.Machine(spec)


def _dataset(p: Mapping[str, object], seed: int):
    return repro.graph.make_dataset(p["dataset"], seed=seed,
                                    dim=p.get("dim"), scale=p["scale"])


class TrainRun:
    """Closed loop: one mini-batch after another, for whole epochs."""

    def __init__(self, p: Mapping[str, object], seed: int):
        self.p = p
        dataset = _dataset(p, seed)
        self.machine = _machine(p)
        cfg = repro.core.base.TrainConfig(batch_size=p["batch_size"],
                                          seed=seed)
        self.system = repro.bench.runner.build_system(
            p["system"], self.machine, dataset, cfg)
        self.system.run_epochs(p["warmup_epochs"])

    def measure(self) -> List[Tuple[int, float]]:
        windows = []
        for _ in range(self.p["epochs"]):
            t0 = time.perf_counter()
            stats = self.system.run_epochs(1)
            windows.append((stats[-1].num_batches, time.perf_counter() - t0))
        self.system.shutdown()
        self.epochs = stats
        return windows

    def outputs(self) -> Dict[str, object]:
        return {"epochs": [
            {"epoch_time": s.epoch_time, "bytes_read": s.bytes_read,
             "cache_hits": s.cache_hits, "cache_misses": s.cache_misses,
             "reused_nodes": s.reused_nodes, "loaded_nodes": s.loaded_nodes,
             "num_batches": s.num_batches, "loss": s.loss}
            for s in self.epochs]}

    def reuse(self):
        return (sum(s.reused_nodes for s in self.epochs),
                sum(s.loaded_nodes for s in self.epochs))


def _request_outputs(stats) -> Dict[str, object]:
    try:
        stats.check_accounting()
        accounting = "ok"
    except ValueError as exc:
        accounting = str(exc)
    return {"accounting": accounting,
            "offered": stats.offered, "completed": stats.completed,
            "shed": stats.shed, "timed_out": stats.timed_out,
            "failed": stats.failed, "latency_p50": stats.latency_p50,
            "latency_p99": stats.latency_p99}


class ServeRun:
    """Open loop: Poisson arrivals at a fixed simulated rate."""

    def __init__(self, p: Mapping[str, object], seed: int):
        scenario = repro.serve.scenario.ServeScenario(
            name="perf-serve", dataset=p["dataset"],
            dataset_scale=p["scale"], host_gb=p["host_gb"],
            backend=p["backend"], rate=p["rate"],
            num_requests=p["requests"],
            seeds_per_request=p["seeds_per_request"], slo=p["slo"],
            seed=seed)
        dataset = _dataset(p, seed)
        # The scenario's own machine spec turns the sanitizer on; the
        # benchmark measures the program as users run it, without it.
        self.machine = _machine(p, num_gpus=scenario.num_replicas)
        self.server = repro.serve.server.InferenceServer(
            self.machine, dataset, config=scenario.serve_config(),
            workload=scenario.workload_spec(),
            train_cfg=scenario.train_config())

    def measure(self) -> List[Tuple[int, float]]:
        t0 = time.perf_counter()
        self.stats = self.server.run()
        window = (self.stats.offered, time.perf_counter() - t0)
        self.server.teardown()
        return [window]

    def outputs(self) -> Dict[str, object]:
        return _request_outputs(self.stats)

    def reuse(self):
        return self.stats.reused_nodes, self.stats.loaded_nodes


class ClusterRun:
    """Open loop: Poisson arrivals, Zipf-skewed seeds, over 8 shards."""

    def __init__(self, p: Mapping[str, object], seed: int):
        scenario = repro.cluster.scenario.ClusterScenario(
            name="perf-cluster", dataset=p["dataset"],
            dataset_scale=p["scale"], host_gb=p["host_gb"],
            rate=p["rate"], num_requests=p["requests"],
            popularity="zipf", zipf_alpha=p["zipf_alpha"], slo=p["slo"],
            num_shards=p["shards"], replication=p["replication"],
            admit_capacity=p["admit_capacity"], max_batch=p["max_batch"],
            seed=seed)
        dataset = _dataset(p, seed)
        self.machine = _machine(p)
        self.cluster = repro.cluster.sim.ClusterSim(
            self.machine, dataset, config=scenario.cluster_config(),
            workload=scenario.workload_spec(), slo=scenario.slo)

    def measure(self) -> List[Tuple[int, float]]:
        t0 = time.perf_counter()
        self.stats = self.cluster.run()
        return [(self.stats.offered, time.perf_counter() - t0)]

    def outputs(self) -> Dict[str, object]:
        return _request_outputs(self.stats)

    def reuse(self):
        return 0, 0


RUNS = {"train": TrainRun, "serve": ServeRun, "cluster": ClusterRun}


def probes(run) -> Dict[str, float]:
    """Counters the program keeps, read once after the measured phase."""
    m = run.machine
    cache = m.page_cache.hits + m.page_cache.misses
    reused, loaded = run.reuse()
    cluster = run.stats if isinstance(run, ClusterRun) else None
    return {
        "storage.page_cache.hit_ratio":
            m.page_cache.hits / cache if cache else 0.0,
        "storage.device.bytes_read": float(m.ssd.bytes_read),
        "core.feature_buffer.reuse_ratio":
            reused / (reused + loaded) if reused + loaded else 0.0,
        "simcore.events": float(m.sim.events_dispatched),
        "simcore.cohorts": float(m.sim.cohorts_dispatched),
        "cluster.batches": float(cluster.num_batches) if cluster else 0.0,
        "cluster.mean_batch": cluster.mean_batch_size if cluster else 0.0,
    }
