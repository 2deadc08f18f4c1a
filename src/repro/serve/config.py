"""Configuration records for the serving plane.

Both records are frozen and hashable so scenarios embedding them stay
JSON round-trippable and memoisable, mirroring
:class:`repro.core.base.TrainConfig`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.errors import ConfigError, require_finite_floats

_WORKLOAD_KINDS = ("poisson", "trace", "closed")
_POPULARITIES = ("uniform", "zipf")
_RATE_SHAPES = ("flat", "diurnal", "flash")
_BACKENDS = ("async", "sync")


@dataclass(frozen=True)
class WorkloadSpec:
    """One deterministic arrival process.

    * ``poisson`` — open-loop: exponential inter-arrivals at ``rate``
      requests/second from the ``serve-arrivals`` stream.
    * ``trace`` — open-loop: explicit ``arrivals`` timestamps.
    * ``closed`` — ``num_clients`` clients, each issuing the next
      request ``think_time`` seconds after its previous one resolves.

    Production traffic shapes layer on top (cluster plane, PR 10):

    * ``popularity`` — how query seeds are drawn from the node pool:
      ``uniform`` (the PR 5 default, bit-identical draws) or ``zipf``
      (rank-``zipf_alpha`` skew over a seeded random rank order, so hot
      nodes exist but are decoupled from node-id order).
    * ``rate_shape`` — the arrival intensity over time for ``poisson``
      workloads: ``flat`` (homogeneous, the PR 5 default), ``diurnal``
      (a sinusoidal day curve: ``rate * (1 + amplitude*sin(2*pi*t/
      period))``), or ``flash`` (a flash crowd: ``rate`` multiplied by
      ``flash_multiplier`` inside ``[flash_start, flash_start +
      flash_duration)``).  Shaped arrivals come from the dedicated
      ``serve-shaped-arrivals`` stream via time-rescaling, leaving the
      flat path's draws untouched.

    Every float field, and every ``arrivals`` entry, must be finite.
    """

    kind: str = "poisson"
    rate: float = 100.0
    num_requests: int = 100
    seeds_per_request: int = 1
    num_clients: int = 4
    think_time: float = 1e-3
    arrivals: Optional[Tuple[float, ...]] = None
    popularity: str = "uniform"
    zipf_alpha: float = 1.1
    rate_shape: str = "flat"
    diurnal_period: float = 1.0
    diurnal_amplitude: float = 0.8
    flash_start: float = 0.2
    flash_duration: float = 0.2
    flash_multiplier: float = 8.0
    seed: int = 0

    def __post_init__(self):
        require_finite_floats(self)
        if self.arrivals is not None and not all(
                math.isfinite(t) for t in self.arrivals):
            raise ConfigError("arrivals must be finite")
        if self.kind not in _WORKLOAD_KINDS:
            raise ConfigError(f"unknown workload kind {self.kind!r}; "
                              f"known: {_WORKLOAD_KINDS}")
        if self.num_requests < 1:
            raise ConfigError("num_requests must be >= 1")
        if self.seeds_per_request < 1:
            raise ConfigError("seeds_per_request must be >= 1")
        if self.kind == "poisson" and not self.rate > 0:
            raise ConfigError("poisson workload needs a positive rate")
        if self.kind == "closed":
            if self.num_clients < 1:
                raise ConfigError("num_clients must be >= 1")
            if self.think_time < 0:
                raise ConfigError("think_time must be >= 0")
        if self.kind == "trace":
            if not self.arrivals:
                raise ConfigError("trace workload needs arrivals")
            if len(self.arrivals) != self.num_requests:
                raise ConfigError(
                    f"trace arrivals ({len(self.arrivals)}) must match "
                    f"num_requests ({self.num_requests})")
            if any(t < 0 for t in self.arrivals):
                raise ConfigError("trace arrivals must be >= 0")
            if any(b < a for a, b in zip(self.arrivals,
                                         self.arrivals[1:])):
                raise ConfigError("trace arrivals must be sorted")
        if self.popularity not in _POPULARITIES:
            raise ConfigError(f"unknown popularity {self.popularity!r}; "
                              f"known: {_POPULARITIES}")
        if self.popularity == "zipf" and not self.zipf_alpha > 0:
            raise ConfigError("zipf popularity needs zipf_alpha > 0")
        if self.rate_shape not in _RATE_SHAPES:
            raise ConfigError(f"unknown rate_shape {self.rate_shape!r}; "
                              f"known: {_RATE_SHAPES}")
        if self.rate_shape != "flat":
            if self.kind != "poisson":
                raise ConfigError("rate shaping applies to poisson "
                                  "workloads only")
            if self.rate_shape == "diurnal":
                if not self.diurnal_period > 0:
                    raise ConfigError("diurnal_period must be positive")
                if not 0.0 <= self.diurnal_amplitude < 1.0:
                    raise ConfigError(
                        "diurnal_amplitude must be in [0, 1)")
            if self.rate_shape == "flash":
                if self.flash_start < 0:
                    raise ConfigError("flash_start must be >= 0")
                if not self.flash_duration > 0:
                    raise ConfigError("flash_duration must be positive")
                if not self.flash_multiplier > 1.0:
                    raise ConfigError("flash_multiplier must be > 1")

    def with_(self, **kw) -> "WorkloadSpec":
        return replace(self, **kw)


@dataclass(frozen=True)
class ServeConfig:
    """Serving-plane knobs: queueing, batching, extraction backend.

    The hedge, health-checker, failover and brownout knobs take effect
    only when the machine's fault plan has ``replica_*`` specs, which
    arms the :class:`~repro.serve.resilience.ResiliencePlane`'s
    recovery machinery.  Every float field must be finite.
    """

    backend: str = "async"
    num_replicas: int = 1
    #: Admission-queue bound; offers beyond it are shed.
    queue_capacity: int = 64
    #: Latency SLO in seconds; doubles as the queue deadline (a request
    #: that cannot start before ``arrival + slo`` is dropped).
    slo: float = 0.05
    max_batch_size: int = 8
    #: Seconds the batcher holds an open batch for stragglers; 0 seals
    #: immediately with whatever is queued (latency-optimal).
    max_wait: float = 1e-3
    io_depth: int = 64
    direct_io: bool = True
    #: Extra feature-buffer slots beyond one batch, as a fraction of the
    #: batch footprint — the warm standby pool reused across requests.
    standby_scale: float = 4.0
    #: Safety margin on the probed max nodes per job (same role as
    #: :class:`repro.core.config.GNNDriveConfig.batch_nodes_margin`).
    batch_nodes_margin: float = 1.3
    #: Hedged requests (more than one replica): after
    #: ``max(hedge_min_delay, observed latency quantile)`` without a
    #: completion, clone the attempt onto another healthy replica;
    #: first completion wins, the loser is cancelled.
    hedge: bool = True
    hedge_quantile: float = 0.95
    hedge_min_delay: float = 2e-3
    #: Health checker: probe cadence, consecutive missed probes before
    #: ejection, and the probation period a recovering replica serves
    #: before new traffic is routed to it again.
    heartbeat_interval: float = 2e-3
    heartbeat_miss_threshold: int = 2
    probation_period: float = 4e-3
    #: Failover re-dispatches allowed per crash-orphaned attempt before
    #: its requests are abandoned as ``failed``.
    failover_budget: int = 3
    #: Brownout: when the fraction of healthy replicas drops below the
    #: threshold, admission deadlines and micro-batch sizes are scaled
    #: down to preserve goodput for the work still accepted.
    brownout_threshold: float = 0.5
    brownout_deadline_scale: float = 0.6
    brownout_batch_scale: float = 0.5

    def __post_init__(self):
        require_finite_floats(self)
        if self.backend not in _BACKENDS:
            raise ConfigError(f"unknown serve backend {self.backend!r}; "
                              f"known: {_BACKENDS}")
        if self.num_replicas < 1:
            raise ConfigError("num_replicas must be >= 1")
        if self.queue_capacity < 1:
            raise ConfigError("queue_capacity must be >= 1")
        if not self.slo > 0:
            raise ConfigError("slo must be positive")
        if self.max_batch_size < 1:
            raise ConfigError("max_batch_size must be >= 1")
        if self.max_wait < 0:
            raise ConfigError("max_wait must be >= 0")
        if self.io_depth < 1:
            raise ConfigError("io_depth must be >= 1")
        if self.standby_scale < 0:
            raise ConfigError("standby_scale must be >= 0")
        if self.batch_nodes_margin < 1.0:
            raise ConfigError("batch_nodes_margin must be >= 1")
        if not 0.0 < self.hedge_quantile < 1.0:
            raise ConfigError("hedge_quantile must be in (0, 1)")
        if not self.hedge_min_delay > 0:
            raise ConfigError("hedge_min_delay must be positive")
        if not self.heartbeat_interval > 0:
            raise ConfigError("heartbeat_interval must be positive")
        if self.heartbeat_miss_threshold < 1:
            raise ConfigError("heartbeat_miss_threshold must be >= 1")
        if self.probation_period < 0:
            raise ConfigError("probation_period must be >= 0")
        if self.failover_budget < 0:
            raise ConfigError("failover_budget must be >= 0")
        if not 0.0 <= self.brownout_threshold <= 1.0:
            raise ConfigError("brownout_threshold must be in [0, 1]")
        if not 0.0 < self.brownout_deadline_scale <= 1.0:
            raise ConfigError("brownout_deadline_scale must be in (0, 1]")
        if not 0.0 < self.brownout_batch_scale <= 1.0:
            raise ConfigError("brownout_batch_scale must be in (0, 1]")

    def with_(self, **kw) -> "ServeConfig":
        return replace(self, **kw)
