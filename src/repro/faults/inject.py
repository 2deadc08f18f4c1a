"""The fault injector and the per-run fault ledger.

The injector is the single authority for "does this request fail / how
slow is it right now": the device, the io_uring model, and the machine's
pressure process all consult it.  It holds one
:class:`~repro.simcore.rand.RandomStreams` family seeded by the plan, so
each fault id draws from its own stream — changing one fault's
consumption never perturbs another, and two runs with the same plan are
bit-identical.

The :class:`FaultLedger` is the observability half: every injection,
retry, recovery, drop, and backoff second is counted here, snapshotted
per epoch into :class:`repro.core.stats.EpochStats` and swept by the
sanitizer's invariant checks.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.errors import SimulationError
from repro.faults.plan import FaultPlan, FaultSpec
from repro.simcore.rand import RandomStreams


class FaultLedger:
    """Counters for injected faults and the recovery work they caused."""

    #: Integer event counters, in reporting order.
    COUNTERS = (
        "injected_read", "injected_ring", "retried", "recovered",
        "dropped", "delayed", "pressure_episodes", "alloc_retries",
        "staging_retries", "sampler_retries", "fb_shrinks", "fb_restores",
        "sync_fallbacks", "depth_halvings",
        # Replica failure domain (PR 8): episode + recovery-plane counters.
        "injected_crash", "injected_hang", "injected_slow",
        "replica_restarts", "failovers", "orphaned", "orphan_failed",
        "hedges", "hedge_wins", "hedge_discards",
        "ejections", "readmissions", "brownouts",
        # Shard failure domain (cluster plane): episode + router counters.
        "injected_shard_down", "injected_shard_slow",
        "shard_redirects", "shard_unavailable",
        "hot_mirrors", "mirror_wins",
    )

    def __init__(self):
        for name in self.COUNTERS:
            setattr(self, name, 0)
        #: Simulated seconds spent sleeping in backoff loops.
        self.backoff_time = 0.0
        #: Simulated seconds of completed memory-pressure episodes.
        self.pressure_time = 0.0
        #: Simulated replica-seconds of completed crash/hang outages.
        self.replica_down_time = 0.0
        #: Simulated seconds the server spent in brownout mode.
        self.brownout_time = 0.0
        #: Simulated shard-seconds of completed shard_down outages.
        self.shard_down_time = 0.0

    @property
    def injected(self) -> int:
        """Total injected errors (read + ring)."""
        return self.injected_read + self.injected_ring

    @property
    def injected_replica(self) -> int:
        """Total injected replica episodes (crash + hang + slow)."""
        return self.injected_crash + self.injected_hang + self.injected_slow

    @property
    def injected_shard(self) -> int:
        """Total injected shard episodes (down + slow)."""
        return self.injected_shard_down + self.injected_shard_slow

    def as_dict(self) -> Dict[str, float]:
        out: Dict[str, float] = {"injected": self.injected,
                                 "injected_replica": self.injected_replica,
                                 "injected_shard": self.injected_shard}
        for name in self.COUNTERS:
            out[name] = getattr(self, name)
        out["backoff_time"] = self.backoff_time
        out["pressure_time"] = self.pressure_time
        out["replica_down_time"] = self.replica_down_time
        out["brownout_time"] = self.brownout_time
        out["shard_down_time"] = self.shard_down_time
        return out

    def check_invariants(self) -> None:
        """Sanity of the accounting (sanitizer epoch sweep)."""
        for name in self.COUNTERS:
            if getattr(self, name) < 0:
                raise SimulationError(f"negative fault counter {name}")
        if self.backoff_time < 0 or self.pressure_time < 0:
            raise SimulationError("negative fault-ledger time accumulator")
        if self.replica_down_time < 0 or self.brownout_time < 0:
            raise SimulationError("negative fault-ledger time accumulator")
        # Every recovery or drop traces back to an injected error or a
        # retried request; a higher total means double accounting.
        if self.recovered + self.dropped > self.injected + self.retried:
            raise SimulationError(
                f"fault ledger out of balance: recovered {self.recovered} "
                f"+ dropped {self.dropped} exceeds injected "
                f"{self.injected} + retried {self.retried}")
        # Replica balance: every restart traces to a crash episode, every
        # re-admission to an ejection, every hedge win/discard to a
        # launched hedge, and every failover or orphan-drop to an
        # orphaned attempt.
        if self.replica_restarts > self.injected_crash:
            raise SimulationError(
                f"fault ledger out of balance: replica_restarts "
                f"{self.replica_restarts} exceeds injected_crash "
                f"{self.injected_crash}")
        if self.readmissions > self.ejections:
            raise SimulationError(
                f"fault ledger out of balance: readmissions "
                f"{self.readmissions} exceed ejections {self.ejections}")
        if self.hedge_wins + self.hedge_discards > self.hedges:
            raise SimulationError(
                f"fault ledger out of balance: hedge_wins {self.hedge_wins} "
                f"+ hedge_discards {self.hedge_discards} exceed launched "
                f"hedges {self.hedges}")
        if self.failovers + self.orphan_failed > self.orphaned:
            raise SimulationError(
                f"fault ledger out of balance: failovers {self.failovers} "
                f"+ orphan_failed {self.orphan_failed} exceed orphaned "
                f"{self.orphaned}")
        # Shard balance: every mirror win traces to a launched mirror,
        # and every redirect or unavailability drop to a shard_down
        # episode (no outages -> the router never moves or drops work).
        if self.shard_down_time < 0:
            raise SimulationError("negative fault-ledger time accumulator")
        if self.mirror_wins > self.hot_mirrors:
            raise SimulationError(
                f"fault ledger out of balance: mirror_wins "
                f"{self.mirror_wins} exceed launched hot_mirrors "
                f"{self.hot_mirrors}")
        if (self.shard_redirects or self.shard_unavailable) \
                and not self.injected_shard_down:
            raise SimulationError(
                f"fault ledger out of balance: shard_redirects "
                f"{self.shard_redirects} / shard_unavailable "
                f"{self.shard_unavailable} without any injected "
                f"shard_down episode")


class FaultInjector:
    """Evaluates a :class:`FaultPlan` against individual requests.

    Engine-free by design: callers pass the current sim-time (or
    per-request time arrays) explicitly, so the injector never touches
    the event heap and cannot perturb scheduling on its own.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.streams = RandomStreams(plan.seed)
        self.ledger = FaultLedger()
        self._timing: List[FaultSpec] = [
            s for s in plan.specs if s.kind in ("tail_latency", "throttle")]
        self._read_err: List[FaultSpec] = [
            s for s in plan.specs if s.kind == "read_error"]
        self._ring_err: List[FaultSpec] = [
            s for s in plan.specs if s.kind == "ring_error"]
        self.pressure_specs: List[FaultSpec] = [
            s for s in plan.specs if s.kind == "mem_pressure"]
        self.replica_specs: List[FaultSpec] = list(plan.replica_specs)
        self.shard_specs: List[FaultSpec] = list(plan.shard_specs)

    # ------------------------------------------------------------------
    def _rng(self, spec: FaultSpec) -> np.random.Generator:
        return self.streams.get(f"fault:{spec.fault_id}")

    # ------------------------------------------------------------------
    # Replica failure domain.  The serve resilience plane walks each
    # spec's discrete episodes (FaultSpec.episode_start) and asks the
    # injector — the sole owner of the per-fault streams — whether the
    # episode fires and which replica it targets.  Draws are consumed in
    # episode order per spec, so plans replay bit-for-bit.

    def draw_episode(self, spec: FaultSpec) -> bool:
        """Whether this episode of *spec* fires (per-fault stream)."""
        if spec.probability >= 1.0:
            return True
        return bool(self._rng(spec).random() < spec.probability)

    def draw_replica(self, spec: FaultSpec, num_replicas: int) -> int:
        """Target replica for an episode of *spec*.

        Pinned specs (``replica >= 0``) return the pinned index modulo
        the replica count (so a single-replica server still exercises
        the plan); ``replica == -1`` draws uniformly from the fault's
        own stream.
        """
        if num_replicas <= 0:
            raise SimulationError("draw_replica needs at least one replica")
        if spec.replica >= 0:
            return spec.replica % num_replicas
        return int(self._rng(spec).integers(0, num_replicas))

    def draw_shard(self, spec: FaultSpec, num_shards: int) -> int:
        """Target shard for an episode of *spec* (cluster plane).

        Mirrors :meth:`draw_replica`: pinned specs return the pinned
        index modulo the shard count; ``shard == -1`` draws uniformly
        from the fault's own stream.
        """
        if num_shards <= 0:
            raise SimulationError("draw_shard needs at least one shard")
        if spec.shard >= 0:
            return spec.shard % num_shards
        return int(self._rng(spec).integers(0, num_shards))

    # ------------------------------------------------------------------
    def service_multipliers(self, times: np.ndarray,
                            write: bool = False) -> Optional[np.ndarray]:
        """Per-request service-time multipliers for requests becoming
        ready at *times*, or None when no timing fault is active.

        Windows are evaluated at each request's ready time — a request
        queued *into* an episode from outside is charged at its ready
        time's rate (a deliberate, documented approximation that keeps
        the batch completion pass closed-form).
        """
        del write  # timing faults hit reads and writes alike
        mult: Optional[np.ndarray] = None
        for spec in self._timing:
            mask = spec.active_mask(times)
            hit = int(mask.sum())
            if hit:
                if mult is None:
                    mult = np.ones(len(times), dtype=np.float64)
                mult[mask] *= spec.factor
                self.ledger.delayed += hit
        return mult

    def draw_read_errors(self, n: int, now: float,
                         handle_name: Optional[str] = None,
                         offsets: Optional[np.ndarray] = None,
                         times: Optional[np.ndarray] = None
                         ) -> Optional[np.ndarray]:
        """Failure mask over *n* read requests issued at *now*.

        Returns None when no read-error fault matches (so the no-fault
        path stays allocation-free).  File- and range-targeted specs
        need the caller to supply ``handle_name`` / byte ``offsets``;
        callers that cannot attribute requests to files (pure
        timing-plane bursts) are only exposed to untargeted specs.
        *times* (per-request submission times) makes windowed specs
        apply per request instead of at the scalar *now* — the device's
        retry loop uses it so backed-off resubmissions can escape an
        error burst.
        """
        fail: Optional[np.ndarray] = None
        for spec in self._read_err:
            if times is None:
                if not spec.active(now):
                    continue
                window = None
            else:
                window = spec.active_mask(times)
                if not window.any():
                    continue
            if spec.file is not None and spec.file != handle_name:
                continue
            if spec.range_start >= 0 and offsets is None:
                continue
            mask = self._rng(spec).random(n) < spec.probability
            if window is not None:
                mask &= window
            if spec.range_start >= 0:
                offs = np.asarray(offsets, dtype=np.int64)
                mask &= (offs >= spec.range_start) & (offs < spec.range_end)
            if mask.any():
                fail = mask if fail is None else (fail | mask)
        if fail is not None:
            self.ledger.injected_read += int(fail.sum())
        return fail

    def draw_ring_errors(self, n: int, now: float) -> Optional[np.ndarray]:
        """Transient CQE-failure mask over *n* in-flight requests."""
        fail: Optional[np.ndarray] = None
        for spec in self._ring_err:
            if not spec.active(now):
                continue
            mask = self._rng(spec).random(n) < spec.probability
            if mask.any():
                fail = mask if fail is None else (fail | mask)
        if fail is not None:
            self.ledger.injected_ring += int(fail.sum())
        return fail
