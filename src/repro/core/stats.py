"""Per-epoch measurement records shared by GNNDrive and all baselines."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class StageBreakdown:
    """Accumulated busy seconds per SET stage within one epoch.

    Stage times may overlap in wall-clock (that is the point of the
    pipeline), so they need not sum to the epoch time.
    """

    sample: float = 0.0
    extract: float = 0.0
    train: float = 0.0
    release: float = 0.0
    data_prep: float = 0.0  # MariusGNN's partition-ordering + preload

    def total(self) -> float:
        return (self.sample + self.extract + self.train + self.release
                + self.data_prep)

    def __add__(self, other: "StageBreakdown") -> "StageBreakdown":
        """Stage-wise sum, as a new value.

        Epoch stats publish a sum rather than a pipeline's live
        breakdown: storing that object by reference would let late
        pipeline events (e.g. a trailing release span processed during
        shutdown) retroactively mutate already-published epoch stats.
        """
        return StageBreakdown(self.sample + other.sample,
                              self.extract + other.extract,
                              self.train + other.train,
                              self.release + other.release,
                              self.data_prep + other.data_prep)


@dataclass
class EpochStats:
    """One epoch's outcome: timing, learning metrics, I/O counters."""

    epoch: int
    epoch_time: float
    stages: StageBreakdown
    loss: float = float("nan")
    train_acc: float = float("nan")
    val_acc: float = float("nan")
    num_batches: int = 0
    bytes_read: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: Feature-buffer reuse: nodes served without an SSD load.
    reused_nodes: int = 0
    loaded_nodes: int = 0
    extra: Dict[str, float] = field(default_factory=dict)
    #: Fault-ledger movement during this epoch (empty without a plan);
    #: see :class:`repro.faults.FaultLedger`.
    faults: Dict[str, float] = field(default_factory=dict)

    @property
    def reuse_ratio(self) -> float:
        total = self.reused_nodes + self.loaded_nodes
        return self.reused_nodes / total if total else 0.0


@dataclass(kw_only=True)
class RequestStats:
    """One request-serving run's outcome: latency tails, goodput, shed
    counters — the part the serving plane and the cluster share.

    The accounting identity ``offered == completed + shed + timed_out +
    failed`` is a hard invariant — :meth:`check_accounting` raises on
    violation and the CI serve and cluster smoke jobs gate on it.
    Exactly-once completion means no request is ever counted in two
    terminal states.  *Goodput* counts only completed requests that met
    the SLO; *throughput* counts all completions.  Latencies are
    arrival-to-completion seconds, each plane computing its own
    quantiles.
    """

    offered: int
    completed: int
    shed: int
    timed_out: int
    #: Requests abandoned after failover ran out (zero without
    #: replica or shard faults).
    failed: int = 0
    slo: float
    slo_miss: int
    duration: float
    offered_rate: float
    latency_p50: float = float("nan")
    latency_p95: float = float("nan")
    latency_p99: float = float("nan")
    latency_mean: float = float("nan")
    latency_max: float = float("nan")
    num_batches: int = 0
    mean_batch_size: float = 0.0
    #: Fault-ledger movement during the run (empty without a plan).
    faults: Dict[str, float] = field(default_factory=dict)

    #: The plane named in accounting errors.
    PLANE = "request"

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
        plane = self.PLANE
        if self.offered != (self.completed + self.shed + self.timed_out
                            + self.failed):
            raise ValueError(
                f"{plane} accounting: offered={self.offered} != "
                f"completed={self.completed} + shed={self.shed} + "
                f"timed_out={self.timed_out} + failed={self.failed}")
        if self.slo_miss > self.completed:
            raise ValueError(
                f"{plane} accounting: slo_miss={self.slo_miss} exceeds "
                f"completed={self.completed}")
        if min(self.offered, self.completed, self.shed, self.timed_out,
               self.failed, self.slo_miss) < 0:
            raise ValueError(f"{plane} accounting: negative counter")
        if self.goodput > self.throughput + 1e-12:
            raise ValueError(
                f"{plane} accounting: goodput={self.goodput} exceeds "
                f"throughput={self.throughput}")


@dataclass(kw_only=True)
class ServeStats(RequestStats):
    """One serving run's outcome: the request record plus the
    extraction backend's I/O and feature-buffer counters."""

    backend: str
    bytes_read: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    reused_nodes: int = 0
    loaded_nodes: int = 0
    extra: Dict[str, float] = field(default_factory=dict)

    PLANE = "serve"


def mean_epoch_time(stats: List[EpochStats],
                    skip_first: bool = False) -> float:
    """Average epoch time (optionally skipping the cold first epoch)."""
    usable = stats[1:] if skip_first and len(stats) > 1 else stats
    if not usable:
        raise ValueError("no epochs to average")
    return sum(s.epoch_time for s in usable) / len(usable)
