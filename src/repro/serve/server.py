"""The inference server: replicas, SLO accounting, request lifecycle.

Data path (architecture.md §10)::

    injector ──> admission queue ──> micro-batcher ──> job queues
    (open/closed loop)  (bounded,      (max-batch /     (1 per replica,
                         shed)          max-wait)        routed, depth 2)
                                                            │
                               [worker r]: sample ─> extract ─> infer
                                                            │
                            latency recorder <── resolve ──┘

Every request ends in exactly one terminal state — completed, shed at
admission, timed out in queue, or (replica chaos only) failed after the
failover budget — so ``offered == completed + shed + timed_out +
failed`` holds as a checked invariant
(:meth:`repro.core.stats.ServeStats.check_accounting`).

Dispatch, the replica workers and their recovery machinery live in the
:class:`~repro.serve.resilience.ResiliencePlane`.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

import numpy as np

from repro.core.base import (TrainConfig, activation_bytes, build_model,
                             model_layout, probe_batch_shape)
from repro.core.config import BATCH_NODES_MARGIN
from repro.core.sampling_io import sample_step
from repro.core.stats import ServeStats
from repro.core.staging import StagingBuffer
from repro.graph.datasets import DiskDataset
from repro.machine import Machine
from repro.models.train import predict
from repro.sampling import NeighborSampler
from repro.serve.backends import AsyncServeBackend, SyncServeBackend
from repro.serve.batcher import AdmissionQueue, Job, MicroBatcher
from repro.serve.config import ServeConfig, WorkloadSpec
from repro.serve.resilience import BROWNOUT_DEADLINE_SCALE, ResiliencePlane
from repro.serve.workload import Request, build_requests
from repro.simcore import LatencyRecorder, RandomStreams
from repro.simcore.engine import Event

#: Closed-loop workloads: the client count, and each client's mean
#: think time in seconds (exponential, from its own stream) between a
#: request resolving and its next one.
NUM_CLIENTS = 4
THINK_TIME = 1e-3


class InferenceServer:
    """Online GNN inference over the simulated disk stack."""

    def __init__(self, machine: Machine, dataset: DiskDataset,
                 config: ServeConfig = ServeConfig(),
                 workload: WorkloadSpec = WorkloadSpec(),
                 train_cfg: TrainConfig = TrainConfig()):
        if machine.spec.num_gpus < config.num_replicas:
            raise ValueError(
                f"{config.num_replicas} replicas need as many GPUs; "
                f"machine has {machine.spec.num_gpus}")
        self.machine = machine
        self.dataset = dataset
        self.config = config
        self.workload = workload
        self.train_cfg = train_cfg
        m = machine
        if dataset.topo_handle is None:
            dataset.mount(m.catalog)
        self.streams = RandomStreams(workload.seed)
        self.fanouts, self.dims = model_layout(dataset, train_cfg)
        self.model = build_model(dataset, train_cfg)
        #: The CSC index-pointer array stays resident, as in training.
        self._indptr_alloc = m.host.allocate(dataset.indptr_nbytes(),
                                             tag="indptr")

        # Probe the worst-case job footprint: a full micro-batch of
        # requests is one sampling seed set.
        observed, observed_act = probe_batch_shape(
            dataset, self.fanouts,
            config.max_batch_size * workload.seeds_per_request,
            dims=self.dims, seed=workload.seed)
        self.max_job_nodes = int(observed * BATCH_NODES_MARGIN)
        # Inference activations: forward only, half the training probe.
        self._act_reserve = int(observed_act * BATCH_NODES_MARGIN) // 2

        # The plane arms its recovery machinery iff the machine's fault
        # plan targets the replica failure domain.
        self.resilience = ResiliencePlane(
            self, list(m.faults.replica_specs) if m.faults is not None
            else [])

        self.queue = AdmissionQueue(m.sim, config.queue_capacity)
        model_bytes = (self.model.num_parameters() * 4)
        self.staging: Optional[StagingBuffer] = None
        if config.backend == "async":
            # Shared pinned staging, one portion per replica (§4.3).
            self.staging = StagingBuffer(
                m.host, config.num_replicas, self.max_job_nodes,
                dataset.features.io_size(), num_portions=config.num_replicas)
        self.backends: List = []
        self._samplers: List[NeighborSampler] = []
        for r in range(config.num_replicas):
            m.gpus[r].allocate(model_bytes, tag="model")
            if config.backend == "async":
                budget = (m.gpus[r].available - self._act_reserve)
                backend = AsyncServeBackend(
                    m, dataset, r, self.max_job_nodes, budget, self.staging)
            else:
                backend = SyncServeBackend(m, dataset, r)
            self.backends.append(backend)
            self._samplers.append(NeighborSampler(
                dataset.graph, self.fanouts,
                self.streams.fork("serve-sampler", r)))
        if m.sim.sanitizer is not None:
            m.sim.sanitizer.register(self.queue)

        self.recorder = LatencyRecorder("serve")
        self.requests: List[Request] = build_requests(
            workload, dataset.test_idx, config.slo, self.streams)
        self.timed_out = 0
        self.slo_miss = 0
        self.completed = 0
        self.failed = 0
        self._resolved = 0
        self._done: Event = m.sim.event()
        self._completion_events: Dict[int, Event] = {}
        self._batches = 0
        self._batched_requests = 0
        self._actors: List = []
        self._started = False

    # ------------------------------------------------------------------
    # Request lifecycle
    # ------------------------------------------------------------------
    def completion_event(self, rid: int) -> Event:
        """Event fired when request *rid* reaches a terminal state."""
        ev = self._completion_events.get(rid)
        if ev is None:
            ev = self.machine.sim.event()
            self._completion_events[rid] = ev
        return ev

    def _resolve(self, req: Request) -> None:
        if req.status == "pending":
            raise RuntimeError(f"resolving pending request {req.rid}")
        self._resolved += 1
        ev = self._completion_events.pop(req.rid, None)
        if ev is not None and not ev.triggered:
            ev.succeed(req.status)
        if (self._resolved == len(self.requests)
                and not self._done.triggered):
            self._done.succeed(self.machine.sim.now)

    def _admit(self, req: Request) -> bool:
        """Deadline-based drop: a request that cannot start before its
        deadline can no longer meet the SLO — drop it at dequeue.
        Under brownout the deadline tightens, shedding work earlier to
        preserve goodput for what is still accepted."""
        deadline = req.deadline
        if self.resilience.brownout:
            deadline = req.arrival + (self.config.slo
                                      * BROWNOUT_DEADLINE_SCALE)
        if self.machine.sim.now > deadline:
            req.status = "timeout"
            self.timed_out += 1
            self._resolve(req)
            return False
        return True

    def _complete_request(self, req: Request, now: float) -> bool:
        """Claim *req* as completed; False if already terminal.

        The exactly-once gate: hedged and failed-over attempts race to
        this guard, and only the first claim records latency/SLO."""
        if req.status != "pending":
            return False
        req.status = "ok"
        req.completed = now
        self.completed += 1
        self.recorder.record(req.arrival, now)
        if req.latency > self.config.slo:
            self.slo_miss += 1
        self._resolve(req)
        return True

    def _fail_request(self, req: Request) -> bool:
        """Abandon *req* (failover budget exhausted); exactly-once."""
        if req.status != "pending":
            return False
        req.status = "failed"
        self.failed += 1
        self._resolve(req)
        return True

    # ------------------------------------------------------------------
    # Actors
    # ------------------------------------------------------------------
    def _injector_proc(self) -> Generator:
        """Open-loop arrivals: offer each request at its timestamp."""
        m = self.machine
        for req in self.requests:
            wait = req.arrival - m.sim.now
            if wait > 0:
                yield m.sim.timeout(wait)
            if not self.queue.offer(req):
                req.status = "shed"
                self._resolve(req)

    def _client_proc(self, client: int) -> Generator:
        """Closed-loop client: issue, await resolution, think, repeat."""
        m = self.machine
        rng = self.streams.fork("serve-client", client)
        for req in self.requests[client::NUM_CLIENTS]:
            req.arrival = m.sim.now
            req.deadline = m.sim.now + self.config.slo
            if not self.queue.offer(req):
                req.status = "shed"
                self._resolve(req)
            else:
                yield self.completion_event(req.rid)
            yield m.sim.timeout(rng.exponential(THINK_TIME))

    def _process_job(self, r: int, job: Job,
                     factor: float = 1.0) -> Generator:
        """The per-job pipeline on replica *r*: sample -> topo access ->
        extract -> infer -> release.  *factor* scales compute times
        (``replica_slow`` degradation; 1.0 is exact).  Completion
        accounting stays with the caller: the plane's worker runs its
        first-completion-wins arbitration."""
        m = self.machine
        backend = self.backends[r]
        gpu = m.gpus[r]
        seeds = np.concatenate([req.seeds for req in job.requests])
        sub = yield from sample_step(m, self.dataset, self._samplers[r],
                                     seeds, factor)
        feats = yield from backend.extract(sub.all_nodes)
        duration = m.gpu_cost.forward_time(
            self.train_cfg.model_kind, sub.layer_sizes(),
            self.dims) * factor
        act = activation_bytes(sub, self.dims) // 2  # no grads
        # sim-race: ordered -- worker r owns gpus[r] exclusively
        # (one worker per replica); instances touch disjoint devices.
        gpu.allocate(act, tag="activations")
        try:
            yield from m.gpu_task(r, duration)
        finally:
            gpu.free(act, tag="activations")
        predict(self.model, feats, sub)
        backend.release(sub.all_nodes)
        self._batches += 1
        self._batched_requests += len(job.requests)

    def watch_actor(self, proc) -> None:
        """Adopt a late-spawned process (replica restarts, hedges) into
        the shutdown-drain set."""
        self._actors.append(proc)

    # ------------------------------------------------------------------
    def run(self) -> ServeStats:
        """Serve the whole workload; returns checked statistics."""
        m = self.machine
        cfg = self.config
        sim = m.sim
        m.sanitize_epoch_begin()
        t_start = sim.now
        ssd0 = m.ssd.bytes_read
        feat0 = m.ssd.read_bytes_for(self.dataset.feat_handle.name)
        hits0, miss0 = m.page_cache.hits, m.page_cache.misses
        f0 = m.fault_counters()

        if self.workload.kind == "closed":
            for c in range(NUM_CLIENTS):
                self._actors.append(sim.process(self._client_proc(c),
                                                name=f"client{c}"))
        else:
            self._actors.append(sim.process(self._injector_proc(),
                                            name="injector"))
        batcher = MicroBatcher(sim, self.queue, cfg.max_batch_size,
                               cfg.max_wait, self.resilience.dispatch,
                               admit=self._admit)
        self.batcher = batcher
        self._actors.append(sim.process(batcher.run(), name="batcher"))
        self._actors.extend(self.resilience.actors())
        self._started = True

        sim.run_until_triggered(self._done)
        duration = sim.now - t_start

        # Shed requests at the queue were resolved by their issuers;
        # cross-check the queue's own count.
        shed = sum(1 for req in self.requests if req.status == "shed")
        if shed != self.queue.shed:
            raise RuntimeError(
                f"shed accounting: queue saw {self.queue.shed}, "
                f"requests say {shed}")
        self.shutdown()
        m.sanitize_epoch_end()

        rate = (self.workload.rate if self.workload.kind == "poisson"
                else (len(self.requests) / duration if duration > 0
                      else 0.0))
        rec = self.recorder
        stats = ServeStats(
            backend=cfg.backend,
            offered=len(self.requests),
            completed=self.completed,
            shed=shed,
            timed_out=self.timed_out,
            slo=cfg.slo,
            slo_miss=self.slo_miss,
            duration=duration,
            offered_rate=rate,
            failed=self.failed,
            latency_p50=rec.quantile(0.50),
            latency_p95=rec.quantile(0.95),
            latency_p99=rec.quantile(0.99),
            latency_mean=rec.mean(),
            latency_max=rec.max(),
            num_batches=self._batches,
            mean_batch_size=(self._batched_requests / self._batches
                             if self._batches else 0.0),
            bytes_read=m.ssd.bytes_read - ssd0,
            cache_hits=m.page_cache.hits - hits0,
            cache_misses=m.page_cache.misses - miss0,
            reused_nodes=sum(b.reused_nodes for b in self.backends),
            loaded_nodes=sum(b.loaded_nodes for b in self.backends),
            faults=m.fault_counters_delta(f0),
        )
        stats.extra["feat_bytes_read"] = (
            m.ssd.read_bytes_for(self.dataset.feat_handle.name) - feat0)
        stats.extra["queue_peak_depth"] = self.queue.peak_depth
        stats.check_accounting()
        return stats

    def shutdown(self) -> None:
        """Stop the batcher and workers, drain the simulator."""
        if not self._started:
            return
        if not self.queue.closed:
            self.queue.close()
        self.resilience.close_queues()
        self.machine.sim.drain(self._actors)
        self._started = False

    def teardown(self) -> None:
        """Release host allocations (staging + resident topology)."""
        if self.staging is not None:
            self.staging.close()
            self.staging = None
        if self._indptr_alloc is not None:
            self.machine.host.free(self._indptr_alloc)
            self._indptr_alloc = None
