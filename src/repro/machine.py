"""The simulated machine: CPU, GPUs, DRAM, page cache, SSD, PCIe.

One :class:`Machine` is the paper's testbed in miniature (§5 "Platform"):
two Xeon CPUs (a pooled core resource), RTX 3090 GPUs with 24 GB device
memory behind PCIe links, 32 GB host DRAM whose free portion is the OS
page cache, and a PM883 SATA SSD.  All systems under test run as
processes on one machine instance, so contention (device queues, page
cache, CPU cores) is shared exactly as on real hardware.

Budgets are *scaled*: the mini datasets are ~1/1000 of paper scale, so
``MachineSpec.paper_scaled`` shrinks the memory budgets by the same
factor, preserving every capacity ratio the experiments stress.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Generator, List, Optional

from repro.errors import ConfigError, InterruptError
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.memory import DeviceMemory, HostMemory, PCIeLink
from repro.models.costmodel import (
    CPU_XEON,
    ComputeCostModel,
    DeviceProfile,
    GPU_RTX3090,
)
from repro.simcore import IntervalRecorder, Simulator, UtilizationProbe
from repro.simcore.resources import Resource
from repro.simcore.tracing import SpanTracer
from repro.storage import FileCatalog, PageCache, SSDDevice, SSDSpec, PM883

#: Data scale of the mini datasets relative to the paper's (Table 1).
DEFAULT_SCALE = 1e-3

GB = 1024 ** 3

#: Cores of the testbed's two Xeon CPUs, pooled into one resource.
CPU_CORES = 16
#: Fixed per-transfer latency of every PCIe link (seconds).
PCIE_LATENCY = 10e-6


@dataclass(frozen=True)
class MachineSpec:
    """Hardware configuration of a simulated machine."""

    host_capacity: int
    num_gpus: int = 1
    #: Device memory scales by 1/250 rather than 1/1000: feature records
    #: keep their real byte size (dim x 4 B does not shrink with graph
    #: scale), and no experiment sweeps GPU memory, so a laxer budget
    #: preserves every result shape while letting 768-dim feature
    #: buffers fit.  See DESIGN.md §1.
    gpu_capacity: int = int(24 * GB * DEFAULT_SCALE * 4)
    ssd: SSDSpec = PM883
    pcie_bandwidth: float = 12e9
    gpu_profile: DeviceProfile = GPU_RTX3090
    #: Multiplier on per-edge/per-node sampling compute costs; >1 models
    #: older, slower CPUs (the Fig. 13 machine's 2012-era Xeons).
    sample_cost_scale: float = 1.0
    #: Attach a :class:`repro.analysis.SimSanitizer` to the machine
    #: (strict mode): leak checks at epoch boundaries, schedule and ring
    #: audits, invariant sweeps.  Off by default — the engine then pays
    #: only an ``is not None`` test per event.
    sanitize: bool = False
    #: With ``sanitize``, also keep the full event trace for replay
    #: diffing (memory-hungry; the determinism harness turns it on).
    sanitize_trace: bool = False
    #: With ``sanitize``, also attach the intra-cohort race detector
    #: (:class:`repro.analysis.RaceDetector`): every registered shared
    #: object gets per-method access recording, and Store/Resource
    #: blocking feeds a wait-for graph for deadlock cycle dumps.
    #: Observer-only — trace digests are bit-identical either way.
    sanitize_races: bool = False
    #: Optional :class:`repro.faults.FaultPlan` — deterministic fault
    #: injection (chaos testing).  None (or an empty plan) leaves the
    #: machine bit-identical to a fault-free build.
    faults: Optional[FaultPlan] = None

    def __post_init__(self):
        if self.host_capacity <= 0:
            raise ConfigError(
                f"host_capacity must be positive, got {self.host_capacity!r}")
        if self.num_gpus < 1:
            raise ConfigError(
                f"num_gpus must be >= 1, got {self.num_gpus!r}")
        if self.gpu_capacity <= 0:
            raise ConfigError(
                f"gpu_capacity must be positive, got {self.gpu_capacity!r}")
        if not self.pcie_bandwidth > 0 \
                or not math.isfinite(self.pcie_bandwidth):
            raise ConfigError(
                f"pcie_bandwidth must be a positive finite number, "
                f"got {self.pcie_bandwidth!r}")
        if not self.sample_cost_scale > 0 \
                or not math.isfinite(self.sample_cost_scale):
            raise ConfigError(
                f"sample_cost_scale must be a positive finite number, "
                f"got {self.sample_cost_scale!r}")
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            raise ConfigError(
                f"faults must be a FaultPlan or None, "
                f"got {type(self.faults).__name__}")
        if self.sanitize_races and not self.sanitize:
            raise ConfigError(
                "sanitize_races requires sanitize=True (the race detector "
                "rides on the sanitizer's registry)")

    @staticmethod
    def paper_scaled(host_gb: float = 32, scale: float = DEFAULT_SCALE,
                     **overrides) -> "MachineSpec":
        """The paper's machine with memory budgets scaled to mini data.

        ``host_gb`` is the *paper-scale* DRAM (the Fig. 9 sweep uses
        8-128); the actual simulated budget is ``host_gb * scale``.
        """
        base = MachineSpec(
            host_capacity=int(host_gb * GB * scale),
            gpu_capacity=int(24 * GB * scale * 4),
        )
        return replace(base, **overrides) if overrides else base


class Machine:
    """A live simulated machine; create one per experiment run."""

    def __init__(self, spec: MachineSpec):
        self.spec = spec
        self.sim = Simulator()
        self.host = HostMemory(spec.host_capacity)
        self.ssd = SSDDevice(self.sim, spec.ssd)
        self.catalog = FileCatalog()
        self.page_cache = PageCache(self.sim, self.host, self.ssd)
        self.cpu = Resource(self.sim, CPU_CORES, "cpu")
        self.gpus: List[DeviceMemory] = [
            DeviceMemory(spec.gpu_capacity, name=f"gpu{i}")
            for i in range(spec.num_gpus)
        ]
        self.pcie: List[PCIeLink] = [
            PCIeLink(self.sim, spec.pcie_bandwidth, PCIE_LATENCY,
                     name=f"pcie{i}")
            for i in range(spec.num_gpus)
        ]
        self.probe = UtilizationProbe(self.sim, cpu_capacity=CPU_CORES,
                                      gpu_capacity=max(1, spec.num_gpus))
        self.gpu_busy: List[IntervalRecorder] = [
            IntervalRecorder(self.sim, 1, f"gpu{i}")
            for i in range(spec.num_gpus)
        ]
        #: Optional span tracer (see :meth:`enable_tracing`).
        self.tracer: Optional[SpanTracer] = None
        #: Optional runtime sanitizer (see ``MachineSpec.sanitize``).
        self.sanitizer = None
        if spec.sanitize:
            from repro.analysis import SimSanitizer

            self.sanitizer = SimSanitizer(
                strict=True, trace=spec.sanitize_trace).attach(self)
            self.sanitizer.register(self.host)
            for gpu in self.gpus:
                self.sanitizer.register(gpu)
            self.sanitizer.register(self.cpu)
            if spec.sanitize_races:
                self.sanitizer.enable_races()
                self.sanitizer.races.watch(self.ssd)
        #: Optional fault injector (see ``MachineSpec.faults``).  An
        #: empty plan keeps this None, so a machine built with
        #: ``faults=EMPTY_PLAN`` is bit-identical to ``faults=None``.
        self.faults: Optional[FaultInjector] = None
        if spec.faults is not None and not spec.faults.is_empty:
            self.faults = FaultInjector(spec.faults)
            self.ssd.faults = self.faults
            for pspec in self.faults.pressure_specs:
                self.sim.process(self._pressure_proc(pspec),
                                 name=f"fault:{pspec.fault_id}")
            if self.sanitizer is not None:
                self.sanitizer.register(self.faults.ledger)
                # Fault-driven feature-buffer resizes legitimately span
                # epoch boundaries; the strict leak check must not flag
                # them as leaks.
                self.sanitizer.adaptive_tags.add("feature-buffer")
        k = spec.sample_cost_scale
        self.gpu_cost = ComputeCostModel(spec.gpu_profile)
        self.cpu_cost = ComputeCostModel(
            CPU_XEON,
            sample_edge_cost=8e-6 * k,
            sample_node_cost=2e-6 * k)

    def enable_tracing(self, process_name: str = "simulated-machine"
                       ) -> SpanTracer:
        """Attach a span tracer; actors record per-stage spans into it.

        Export with ``machine.tracer.write("trace.json")`` and open in
        chrome://tracing / Perfetto.
        """
        self.tracer = SpanTracer(process_name)
        return self.tracer

    # ------------------------------------------------------------------
    # Process helpers: yield from these inside actor generators.
    # ------------------------------------------------------------------
    def cpu_task(self, duration: float) -> Generator:
        """Occupy one CPU core for *duration* simulated seconds."""
        req = self.cpu.request()
        try:
            yield req
        except InterruptError:
            # A replica-fault interrupt landed while the core request
            # was pending/granted; withdraw it or the unit leaks to a
            # dead process (serve resilience plane, PR 8).
            self.cpu.cancel(req)
            raise
        self.probe.cpu.enter()
        try:
            yield self.sim.timeout(duration)
        finally:
            self.probe.cpu.exit()
            self.cpu.release()

    def gpu_task(self, gpu_id: int, duration: float) -> Generator:
        """Occupy one GPU for *duration* (exclusive per GPU)."""
        rec = self.gpu_busy[gpu_id]
        rec.enter()
        self.probe.gpu.enter()
        try:
            yield self.sim.timeout(duration)
        finally:
            self.probe.gpu.exit()
            rec.exit()

    def io_wait(self, event) -> Generator:
        """Block on an I/O event, counted as iowait in the probe."""
        self.probe.io.enter()
        try:
            value = yield event
        finally:
            self.probe.io.exit()
        return value

    # ------------------------------------------------------------------
    # Fault plane
    # ------------------------------------------------------------------
    def _pressure_proc(self, spec: FaultSpec) -> Generator:
        """One host-memory pressure episode driver (``mem_pressure``).

        Claims the configured bytes at each window start and releases
        them at the window end; the host accountant notifies its
        listeners, so the page cache shrinks immediately and pinned
        allocations fail transiently (recovered by the backoff helpers).
        """
        nbytes = spec.nbytes or int(spec.fraction * self.spec.host_capacity)
        ledger = self.faults.ledger
        start = spec.start
        fired = 0
        while True:
            wait = start - self.sim.now
            if wait > 0:
                yield self.sim.timeout(wait)
            # sim-race: ordered -- pressure deltas are commutative
            # add/sub; overlapping episodes compose to the same total
            # in any cohort order.
            self.host.set_fault_pressure(self.host.fault_pressure + nbytes)
            ledger.pressure_episodes += 1
            yield self.sim.timeout(spec.duration)
            self.host.set_fault_pressure(
                max(0, self.host.fault_pressure - nbytes))
            ledger.pressure_time += spec.duration
            fired += 1
            if spec.period <= 0 or (spec.repeats and fired >= spec.repeats):
                return
            start += spec.period

    def fault_counters(self):
        """Current fault-ledger snapshot ({} without an active plan)."""
        if self.faults is None:
            return {}
        return self.faults.ledger.as_dict()

    def fault_counters_delta(self, before):
        """Non-zero ledger movement since a :meth:`fault_counters` call."""
        now = self.fault_counters()
        return {k: v - before.get(k, 0)
                for k, v in now.items() if v - before.get(k, 0)}

    # ------------------------------------------------------------------
    # Sanitizer epoch protocol: systems bracket each epoch with these;
    # no-ops when the machine was built without ``sanitize``.
    # ------------------------------------------------------------------
    def sanitize_epoch_begin(self) -> None:
        if self.sanitizer is not None:
            self.sanitizer.epoch_begin()

    def sanitize_epoch_end(self) -> None:
        if self.sanitizer is not None:
            self.sanitizer.epoch_end()

    # ------------------------------------------------------------------
    def utilization_snapshot(self, start: float, end: float,
                             buckets: int = 30):
        """CPU/GPU/iowait series (the Fig. 3 / Fig. 11 panels)."""
        return self.probe.snapshot(start, end, buckets)

