"""Cluster-run statistics: the :class:`ClusterStats` record.

The cluster analogue of :class:`repro.core.stats.ServeStats`, with the
same hard accounting identity — every offered request reaches exactly
one terminal state::

    offered == completed + shed + timed_out + failed

plus the cluster-plane extras: scatter-gather part accounting, hedged
mirror wins, and per-shard service counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple


@dataclass
class ClusterStats:
    """One cluster serving run's outcome."""

    num_shards: int
    offered: int
    completed: int
    shed: int
    timed_out: int
    failed: int
    slo: float
    slo_miss: int
    duration: float
    offered_rate: float
    latency_p50: float = float("nan")
    latency_p95: float = float("nan")
    latency_p99: float = float("nan")
    latency_mean: float = float("nan")
    latency_max: float = float("nan")
    #: Scatter-gather accounting: logical shard reads issued by the
    #: admitted requests vs. satisfied (served or hedge-covered).
    reads_total: int = 0
    reads_done: int = 0
    #: Part accounting: primary + mirror copies physically served.
    parts_served: int = 0
    num_batches: int = 0
    mean_batch_size: float = 0.0
    #: Hedged mirror reads launched with the admitted requests, and how
    #: many satisfied their read before the primary copy.
    mirrors: int = 0
    mirror_wins: int = 0
    #: ``shard_down`` failover: parts redirected to ring successors.
    redirects: int = 0
    per_shard_parts: Tuple[int, ...] = ()
    per_shard_busy: Tuple[float, ...] = ()
    #: Fault-ledger movement during the run (empty without a plan).
    faults: Dict[str, float] = field(default_factory=dict)

    @property
    def admitted(self) -> int:
        return self.offered - self.shed

    @property
    def throughput(self) -> float:
        """Completed requests per second of serving time."""
        return self.completed / self.duration if self.duration > 0 else 0.0

    @property
    def goodput(self) -> float:
        """SLO-meeting completions per second of serving time."""
        if self.duration <= 0:
            return 0.0
        return (self.completed - self.slo_miss) / self.duration

    @property
    def slo_attainment(self) -> float:
        """Fraction of *offered* requests completed within SLO (shed,
        timed-out and failed requests count against attainment)."""
        if self.offered == 0:
            return 1.0
        return (self.completed - self.slo_miss) / self.offered

    def check_accounting(self) -> None:
        """Raise ``ValueError`` on any broken accounting invariant."""
        if self.offered != (self.completed + self.shed + self.timed_out
                            + self.failed):
            raise ValueError(
                f"cluster accounting: offered={self.offered} != "
                f"completed={self.completed} + shed={self.shed} + "
                f"timed_out={self.timed_out} + failed={self.failed}")
        if self.slo_miss > self.completed:
            raise ValueError(
                f"cluster accounting: slo_miss={self.slo_miss} exceeds "
                f"completed={self.completed}")
        if min(self.offered, self.completed, self.shed, self.timed_out,
               self.failed, self.slo_miss, self.reads_total,
               self.reads_done, self.parts_served, self.mirrors,
               self.mirror_wins, self.redirects) < 0:
            raise ValueError("cluster accounting: negative counter")
        if self.reads_done > self.reads_total:
            raise ValueError(
                f"cluster accounting: reads_done={self.reads_done} "
                f"exceeds reads_total={self.reads_total}")
        if self.mirror_wins > self.mirrors:
            raise ValueError(
                f"cluster accounting: mirror_wins={self.mirror_wins} "
                f"exceed launched mirrors={self.mirrors}")
        if self.goodput > self.throughput + 1e-12:
            raise ValueError(
                f"cluster accounting: goodput={self.goodput} exceeds "
                f"throughput={self.throughput}")
        if self.per_shard_parts and \
                sum(self.per_shard_parts) != self.parts_served:
            raise ValueError(
                f"cluster accounting: per-shard parts "
                f"{sum(self.per_shard_parts)} != parts_served "
                f"{self.parts_served}")

