"""Cluster-run statistics: the :class:`ClusterStats` record.

The request record of :class:`repro.core.stats.RequestStats` — with its
accounting identity, every offered request reaching exactly one
terminal state::

    offered == completed + shed + timed_out + failed

— plus the cluster-plane extras: scatter-gather part accounting, hedged
mirror wins, and per-shard service counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.core.stats import RequestStats


@dataclass(kw_only=True)
class ClusterStats(RequestStats):
    """One cluster serving run's outcome."""

    num_shards: int
    #: Scatter-gather accounting: logical shard reads issued by the
    #: admitted requests vs. satisfied (served or hedge-covered).
    reads_total: int = 0
    reads_done: int = 0
    #: Part accounting: primary + mirror copies physically served.
    parts_served: int = 0
    #: Hedged mirror reads launched with the admitted requests, and how
    #: many satisfied their read before the primary copy.
    mirrors: int = 0
    mirror_wins: int = 0
    #: ``shard_down`` failover: parts redirected to ring successors.
    redirects: int = 0
    per_shard_parts: Tuple[int, ...] = ()
    per_shard_busy: Tuple[float, ...] = ()

    PLANE = "cluster"

    @property
    def admitted(self) -> int:
        return self.offered - self.shed

    def check_accounting(self) -> None:
        """Raise ``ValueError`` on any broken accounting invariant."""
        super().check_accounting()
        if min(self.reads_total, self.reads_done, self.parts_served,
               self.mirrors, self.mirror_wins, self.redirects) < 0:
            raise ValueError("cluster accounting: negative counter")
        if self.reads_done > self.reads_total:
            raise ValueError(
                f"cluster accounting: reads_done={self.reads_done} "
                f"exceeds reads_total={self.reads_total}")
        if self.mirror_wins > self.mirrors:
            raise ValueError(
                f"cluster accounting: mirror_wins={self.mirror_wins} "
                f"exceed launched mirrors={self.mirrors}")
        if self.per_shard_parts and \
                sum(self.per_shard_parts) != self.parts_served:
            raise ValueError(
                f"cluster accounting: per-shard parts "
                f"{sum(self.per_shard_parts)} != parts_served "
                f"{self.parts_served}")
