"""Configuration records for the serving plane.

Both records are frozen and hashable so scenarios embedding them stay
JSON round-trippable and memoisable, mirroring
:class:`repro.core.base.TrainConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigError, require_finite_floats, require_seed

_WORKLOAD_KINDS = ("poisson", "closed")
_POPULARITIES = ("uniform", "zipf")
_RATE_SHAPES = ("flat", "diurnal", "flash")
_BACKENDS = ("async", "sync")


@dataclass(frozen=True)
class WorkloadSpec:
    """One deterministic arrival process.

    * ``poisson`` — open-loop: exponential inter-arrivals at ``rate``
      requests/second from the ``serve-arrivals`` stream.
    * ``closed`` — :data:`~repro.serve.server.NUM_CLIENTS` clients, each
      issuing the next request an exponential
      :data:`~repro.serve.server.THINK_TIME` after its previous one
      resolves.

    Production traffic shapes layer on top (the cluster plane's):

    * ``popularity`` — how query seeds are drawn from the node pool:
      ``uniform`` (the default) or ``zipf`` (rank-``zipf_alpha`` skew
      over a seeded random rank order, so hot nodes exist but are
      decoupled from node-id order).
    * ``rate_shape`` — the arrival intensity over time for ``poisson``
      workloads: ``flat`` (homogeneous, the default), ``diurnal`` (a
      sinusoidal day curve) or ``flash`` (a flash crowd), with the
      curves' constants in :mod:`repro.serve.workload`.  Shaped
      arrivals come from the dedicated ``serve-shaped-arrivals`` stream
      via time-rescaling, leaving the flat path's draws untouched.

    Every float field must be finite.
    """

    kind: str = "poisson"
    rate: float = 100.0
    num_requests: int = 100
    seeds_per_request: int = 1
    popularity: str = "uniform"
    zipf_alpha: float = 1.1
    rate_shape: str = "flat"
    seed: int = 0

    def __post_init__(self):
        require_finite_floats(self)
        if self.kind not in _WORKLOAD_KINDS:
            raise ConfigError(f"unknown workload kind {self.kind!r}; "
                              f"known: {_WORKLOAD_KINDS}")
        if self.num_requests < 1:
            raise ConfigError("num_requests must be >= 1")
        if self.seeds_per_request < 1:
            raise ConfigError("seeds_per_request must be >= 1")
        require_seed(self.seed)
        if self.kind == "poisson" and not self.rate > 0:
            raise ConfigError("poisson workload needs a positive rate")
        if self.popularity not in _POPULARITIES:
            raise ConfigError(f"unknown popularity {self.popularity!r}; "
                              f"known: {_POPULARITIES}")
        if self.popularity == "zipf" and not self.zipf_alpha > 0:
            raise ConfigError("zipf popularity needs zipf_alpha > 0")
        if self.rate_shape not in _RATE_SHAPES:
            raise ConfigError(f"unknown rate_shape {self.rate_shape!r}; "
                              f"known: {_RATE_SHAPES}")
        if self.rate_shape != "flat" and self.kind != "poisson":
            raise ConfigError("rate shaping applies to poisson "
                              "workloads only")

    def with_(self, **kw) -> "WorkloadSpec":
        return replace(self, **kw)


@dataclass(frozen=True)
class ServeConfig:
    """Serving-plane knobs: queueing, batching, extraction backend.

    ``hedge`` and ``failover_budget`` take effect only when the
    machine's fault plan has ``replica_*`` specs, which arms the
    :class:`~repro.serve.resilience.ResiliencePlane`'s recovery
    machinery.  Every float field must be finite.
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
    #: Hedged requests (more than one replica): after a latency-quantile
    #: delay (:data:`~repro.serve.resilience.HEDGE_QUANTILE`, floored at
    #: :data:`~repro.serve.resilience.HEDGE_MIN_DELAY`) without a
    #: completion, clone the attempt onto another healthy replica;
    #: first completion wins, the loser is cancelled.
    hedge: bool = True
    #: Failover re-dispatches allowed per crash-orphaned attempt before
    #: its requests are abandoned as ``failed``.
    failover_budget: int = 3

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
        if self.failover_budget < 0:
            raise ConfigError("failover_budget must be >= 0")

    def with_(self, **kw) -> "ServeConfig":
        return replace(self, **kw)
