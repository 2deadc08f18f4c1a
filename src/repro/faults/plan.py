"""Composable fault plans: what goes wrong, when, and how badly.

A :class:`FaultPlan` is an immutable bundle of :class:`FaultSpec`\\ s plus
a seed.  Every stochastic draw the injector makes comes from a
:class:`repro.simcore.RandomStreams` stream keyed by ``(plan seed,
fault id)``, so a (plan, machine, workload) triple always reproduces the
identical fault trace — chaos runs are replayable bit-for-bit.

Fault taxonomy (``FaultSpec.kind``):

``read_error``
    Per-request SSD read failures (media errors).  Probabilistic via
    ``probability``; optionally targeted at one file (``file``) and a
    byte range (``range_start``/``range_end``) to model a bad LBA span.
``tail_latency``
    Service-time inflation (``factor``) over a sim-time window — the
    long-tail episodes SATA devices exhibit under GC.
``throttle``
    Bandwidth degradation (``factor``) over a window — thermal
    throttling.  Mechanically identical to ``tail_latency`` but kept
    separate so plans and ledgers stay readable.
``ring_error``
    Transient io_uring completion errors (CQE ``res`` = -EAGAIN):
    the request's data is not delivered and must be resubmitted.
``mem_pressure``
    A host-memory pressure episode: an external consumer transiently
    claims ``fraction`` of host capacity (or ``nbytes``), shrinking the
    page-cache budget and making pinned allocation fail transiently.
``replica_crash``
    A serve replica dies at the window start: its in-flight extraction
    state is destroyed, queued jobs are orphaned (rescued by failover),
    and the replica restarts cold after ``duration`` simulated seconds
    (then re-admits through health-checker probation).
``replica_hang``
    A serve replica freezes for ``duration``: it stops responding to
    health probes and makes no progress, but keeps its jobs; on resume
    it reprocesses them (hedged requests cover the stall's tail).
``replica_slow``
    A serve replica degrades: its compute times are multiplied by
    ``factor`` over the window (brownout-grade degradation without
    losing state).

The three ``replica_*`` kinds target one replica via ``replica`` (or
draw one uniformly per episode when ``replica`` is -1) and fire each
periodic episode with ``probability``; they are consumed by the serving
resilience plane (:mod:`repro.serve.resilience`), not by the storage
stack — a training machine ignores them.

``shard_down``
    A whole cluster shard (one simulated machine of the serving
    cluster, :mod:`repro.cluster`) goes dark for ``duration``: its
    queued work and the traffic arriving during the outage are
    redirected to the consistent-hash ring successors holding the
    replica copies.  With replication factor 1 the shard's keys are
    simply unreachable and the affected requests fail.
``shard_slow``
    A cluster shard degrades: its batch service times are multiplied
    by ``factor`` over the window (a brownout-grade slow machine that
    keeps serving).

The two ``shard_*`` kinds target one shard via ``shard`` (or draw one
uniformly per episode when ``shard`` is -1); they are consumed by the
cluster router (:mod:`repro.cluster.sim`) — single-machine serving and
training ignore them.

Windows: ``start``/``duration`` define one episode; ``period > 0``
repeats it every period (bounded by ``repeats``; 0 = unbounded).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigError

#: Recognised fault kinds.
FAULT_KINDS = ("read_error", "tail_latency", "throttle", "ring_error",
               "mem_pressure", "replica_crash", "replica_hang",
               "replica_slow", "shard_down", "shard_slow")

#: The replica failure-domain kinds (serving plane).
REPLICA_KINDS = ("replica_crash", "replica_hang", "replica_slow")

#: The shard failure-domain kinds (cluster plane).
SHARD_KINDS = ("shard_down", "shard_slow")

#: CQE status codes (negated errno, like the real io_uring ABI).
EIO = 5
EAGAIN = 11


@dataclass(frozen=True)
class FaultSpec:
    """One fault source; see the module docstring for the taxonomy."""

    fault_id: str
    kind: str
    #: Per-request error probability (error kinds).  Defaults to 1 so a
    #: file/range-targeted spec fails every matching request.
    probability: float = 1.0
    #: Latency/bandwidth multiplier (timing kinds).
    factor: float = 1.0
    #: Episode window, in simulated seconds.
    start: float = 0.0
    duration: float = math.inf
    #: Episode repetition: 0 = one-shot window, > 0 = repeat every period.
    period: float = 0.0
    #: Bound on periodic repetitions (0 = unbounded, mask-based kinds only).
    repeats: int = 0
    #: ``mem_pressure`` sizing: fraction of host capacity, or absolute bytes.
    fraction: float = 0.0
    nbytes: int = 0
    #: ``read_error`` targeting: file name and byte range (-1 = whole file).
    file: Optional[str] = None
    range_start: int = -1
    range_end: int = -1
    #: ``replica_*`` targeting: replica index (-1 = drawn uniformly from
    #: the serving replicas at each episode, from the fault's stream).
    replica: int = -1
    #: ``shard_*`` targeting: cluster shard index (-1 = drawn uniformly
    #: from the cluster's shards at each episode, from the fault's stream).
    shard: int = -1

    def __post_init__(self):
        if not self.fault_id or not isinstance(self.fault_id, str):
            raise ConfigError("fault_id must be a non-empty string")
        if self.kind not in FAULT_KINDS:
            raise ConfigError(
                f"fault {self.fault_id!r}: unknown kind {self.kind!r}; "
                f"known: {FAULT_KINDS}")
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigError(
                f"fault {self.fault_id!r}: probability must be in [0, 1], "
                f"got {self.probability!r}")
        if not self.factor > 0 or math.isnan(self.factor):
            raise ConfigError(
                f"fault {self.fault_id!r}: factor must be positive, "
                f"got {self.factor!r}")
        if self.start < 0 or math.isnan(self.start):
            raise ConfigError(
                f"fault {self.fault_id!r}: start must be >= 0, "
                f"got {self.start!r}")
        if not self.duration > 0 or math.isnan(self.duration):
            raise ConfigError(
                f"fault {self.fault_id!r}: duration must be positive, "
                f"got {self.duration!r}")
        if self.period < 0 or math.isnan(self.period):
            raise ConfigError(
                f"fault {self.fault_id!r}: period must be >= 0, "
                f"got {self.period!r}")
        if self.period > 0 and not self.duration <= self.period:
            raise ConfigError(
                f"fault {self.fault_id!r}: a periodic window needs "
                f"duration <= period ({self.duration!r} > {self.period!r})")
        if self.repeats < 0:
            raise ConfigError(
                f"fault {self.fault_id!r}: repeats must be >= 0")
        if self.kind == "mem_pressure":
            if math.isinf(self.duration):
                raise ConfigError(
                    f"fault {self.fault_id!r}: mem_pressure needs a "
                    "finite duration")
            sized = (self.fraction > 0) + (self.nbytes > 0)
            if sized != 1:
                raise ConfigError(
                    f"fault {self.fault_id!r}: mem_pressure needs exactly "
                    "one of fraction or nbytes")
            if self.fraction and not self.fraction < 1.0:
                raise ConfigError(
                    f"fault {self.fault_id!r}: fraction must be < 1")
        if (self.range_start >= 0) != (self.range_end >= 0):
            raise ConfigError(
                f"fault {self.fault_id!r}: range_start and range_end "
                "must be given together")
        if self.range_start >= 0:
            if self.kind != "read_error":
                raise ConfigError(
                    f"fault {self.fault_id!r}: byte ranges apply to "
                    "read_error faults only")
            if self.range_end <= self.range_start:
                raise ConfigError(
                    f"fault {self.fault_id!r}: empty byte range "
                    f"[{self.range_start}, {self.range_end})")
        if self.file is not None and self.kind != "read_error":
            raise ConfigError(
                f"fault {self.fault_id!r}: file targeting applies to "
                "read_error faults only")
        if self.replica != -1 and self.kind not in REPLICA_KINDS:
            raise ConfigError(
                f"fault {self.fault_id!r}: replica targeting applies to "
                "replica_* faults only")
        if self.kind in REPLICA_KINDS:
            if self.replica < -1:
                raise ConfigError(
                    f"fault {self.fault_id!r}: replica must be >= 0 "
                    f"(or -1 for a drawn target), got {self.replica!r}")
            if math.isinf(self.duration):
                raise ConfigError(
                    f"fault {self.fault_id!r}: {self.kind} needs a "
                    "finite duration (the outage/stall window)")
            if self.kind == "replica_slow" and self.factor <= 1.0:
                raise ConfigError(
                    f"fault {self.fault_id!r}: replica_slow needs "
                    f"factor > 1, got {self.factor!r}")
        if self.shard != -1 and self.kind not in SHARD_KINDS:
            raise ConfigError(
                f"fault {self.fault_id!r}: shard targeting applies to "
                "shard_* faults only")
        if self.kind in SHARD_KINDS:
            if self.shard < -1:
                raise ConfigError(
                    f"fault {self.fault_id!r}: shard must be >= 0 "
                    f"(or -1 for a drawn target), got {self.shard!r}")
            if math.isinf(self.duration):
                raise ConfigError(
                    f"fault {self.fault_id!r}: {self.kind} needs a "
                    "finite duration (the outage/degradation window)")
            if self.kind == "shard_slow" and self.factor <= 1.0:
                raise ConfigError(
                    f"fault {self.fault_id!r}: shard_slow needs "
                    f"factor > 1, got {self.factor!r}")

    # ------------------------------------------------------------------
    def active(self, t: float) -> bool:
        """Is the fault window active at sim-time *t*?"""
        dt = t - self.start
        if dt < 0:
            return False
        if self.period <= 0:
            return dt < self.duration
        k = int(dt // self.period)
        if self.repeats and k >= self.repeats:
            return False
        return dt - k * self.period < self.duration

    def active_mask(self, times: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`active` over an array of sim-times."""
        times = np.asarray(times, dtype=np.float64)
        dt = times - self.start
        if self.period <= 0:
            return (dt >= 0) & (dt < self.duration)
        k = np.floor_divide(dt, self.period)
        mask = (dt >= 0) & (dt - k * self.period < self.duration)
        if self.repeats:
            mask &= k < self.repeats
        return mask

    def episode_start(self, k: int) -> Optional[float]:
        """Start time of episode *k* (0-based), or None past the last.

        Non-periodic specs have exactly one episode; the replica chaos
        drivers walk episodes with this instead of evaluating windows,
        since replica faults are discrete events, not rate modifiers.
        """
        if k < 0:
            raise ValueError("episode index must be >= 0")
        if self.period <= 0:
            return self.start if k == 0 else None
        if self.repeats and k >= self.repeats:
            return None
        return self.start + k * self.period


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, hashable set of fault specs plus the draw seed."""

    specs: Tuple[FaultSpec, ...] = field(default_factory=tuple)
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.specs, tuple):
            object.__setattr__(self, "specs", tuple(self.specs))
        seen = set()
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise ConfigError(f"not a FaultSpec: {spec!r}")
            if spec.fault_id in seen:
                raise ConfigError(f"duplicate fault id {spec.fault_id!r}")
            seen.add(spec.fault_id)

    @property
    def is_empty(self) -> bool:
        return not self.specs

    @property
    def replica_specs(self) -> Tuple[FaultSpec, ...]:
        """The replica failure-domain specs (serving plane)."""
        return tuple(s for s in self.specs if s.kind in REPLICA_KINDS)

    @property
    def shard_specs(self) -> Tuple[FaultSpec, ...]:
        """The shard failure-domain specs (cluster plane)."""
        return tuple(s for s in self.specs if s.kind in SHARD_KINDS)

    def __len__(self) -> int:
        return len(self.specs)

    # ------------------------------------------------------------------
    # JSON round-trip
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Compact dict form: default-valued spec fields are omitted, so
        saved plans stay hand-editable and strict-JSON (no Infinity)."""
        specs = []
        for s in self.specs:
            fields = FaultSpec.__dataclass_fields__
            d = {k: v for k, v in asdict(s).items()
                 if k in ("fault_id", "kind") or v != fields[k].default}
            specs.append(d)
        return {"seed": self.seed, "specs": specs}

    @staticmethod
    def from_dict(data: dict) -> "FaultPlan":
        if not isinstance(data, dict):
            raise ConfigError(f"fault plan must be an object, got "
                              f"{type(data).__name__}")
        unknown = set(data) - {"seed", "specs"}
        if unknown:
            raise ConfigError(f"unknown fault-plan keys: {sorted(unknown)}")
        specs = []
        for i, raw in enumerate(data.get("specs", [])):
            if not isinstance(raw, dict):
                raise ConfigError(f"spec #{i} must be an object")
            raw = dict(raw)
            # Accept 'id' as shorthand for 'fault_id' in hand-written plans.
            if "id" in raw:
                raw.setdefault("fault_id", raw.pop("id"))
            allowed = set(FaultSpec.__dataclass_fields__)
            bad = set(raw) - allowed
            if bad:
                raise ConfigError(
                    f"spec #{i}: unknown field(s) {sorted(bad)}")
            try:
                specs.append(FaultSpec(**raw))
            except TypeError as exc:
                raise ConfigError(f"spec #{i}: {exc}") from exc
        return FaultPlan(tuple(specs), seed=int(data.get("seed", 0)))

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")


def load_plan(path: str) -> FaultPlan:
    """Load a :class:`FaultPlan` from a JSON file (``repro run --faults``)."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return FaultPlan.from_dict(data)


#: The no-faults plan: a machine built with it behaves bit-identically
#: to one built with ``faults=None``.
EMPTY_PLAN = FaultPlan()


def default_chaos_plan(seed: int = 7) -> FaultPlan:
    """The canned chaos plan used by ``python -m repro.bench faults``.

    Windows are sized for the tiny/mini workloads (epochs are tens of
    simulated milliseconds) and recur periodically, so every epoch of
    every system crosses several episodes of each fault class.  The
    background ``media-errors`` rate exercises the high-request-count
    systems; the periodic ``media-burst`` windows catch the
    chunk-oriented ones (MariusGNN issues only a dozen large reads per
    run, so a 1% background rate alone would never touch it).  Burst
    windows are shorter than the retry policy's cumulative backoff, so
    retries escape them and recovery stays the common outcome.
    """
    return FaultPlan((
        FaultSpec("media-errors", "read_error", probability=0.01),
        FaultSpec("media-burst", "read_error", probability=0.9,
                  start=0.004, duration=0.005, period=0.016),
        FaultSpec("cqe-eagain", "ring_error", probability=0.005),
        FaultSpec("gc-tail", "tail_latency", factor=6.0,
                  start=0.002, duration=0.003, period=0.02),
        FaultSpec("thermal-throttle", "throttle", factor=2.5,
                  start=0.01, duration=0.005, period=0.035),
        FaultSpec("noisy-neighbor", "mem_pressure", fraction=0.06,
                  start=0.015, duration=0.004, period=0.045, repeats=400),
    ), seed=seed)


def default_replica_chaos_plan(seed: int = 11) -> FaultPlan:
    """The canned replica-chaos plan used by ``bench chaos_serve``.

    Windows are sized for the tiny serving workloads (a 60-80 request
    run at a few hundred req/s spans ~0.2-0.4 simulated seconds), so a
    run crosses several crash, hang, and slowdown episodes.  Hang
    stalls are several times the hedge delay floor, so hedged requests
    measurably beat the unhedged tail; crash outages are longer than
    the health probation, so restarted replicas genuinely re-admit.
    """
    return FaultPlan((
        FaultSpec("replica-crash", "replica_crash", replica=1,
                  start=0.02, duration=0.015, period=0.09),
        FaultSpec("replica-hang", "replica_hang", replica=0,
                  start=0.045, duration=0.012, period=0.08),
        FaultSpec("replica-slow", "replica_slow", factor=4.0,
                  start=0.01, duration=0.02, period=0.11),
    ), seed=seed)


def default_shard_chaos_plan(seed: int = 13) -> FaultPlan:
    """The canned shard-chaos plan used by ``python -m repro.bench cluster``.

    Windows are sized for the cluster bench workloads (thousands of
    requests at a few thousand req/s span ~0.5-2 simulated seconds), so
    a run crosses several outage and slow-shard episodes.  The outage
    targets shard 0 — under the popularity-ranked hash placement that
    is always a loaded shard, so redirects genuinely move traffic.
    """
    return FaultPlan((
        FaultSpec("shard-outage", "shard_down", shard=0,
                  start=0.08, duration=0.06, period=0.35),
        FaultSpec("shard-degraded", "shard_slow", factor=4.0,
                  start=0.02, duration=0.05, period=0.27),
    ), seed=seed)
