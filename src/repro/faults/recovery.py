"""Retry policies and backoff helpers shared by every recovery path.

All recovery in the runtime is bounded: a per-request retry budget plus
exponential backoff with a cap.  Policies are plain data so the device's
analytic retry loop, the extractor's event-driven loop, and the
allocation helpers all degrade the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.errors import ConfigError, OutOfMemoryError


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff: ``delay(i) = min(cap, base * g**i)``."""

    max_retries: int = 6
    backoff_base: float = 200e-6
    backoff_factor: float = 2.0
    backoff_cap: float = 5e-3

    def __post_init__(self):
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if self.backoff_base <= 0:
            raise ConfigError("backoff_base must be positive")
        if self.backoff_factor < 1.0:
            raise ConfigError("backoff_factor must be >= 1")
        if self.backoff_cap < self.backoff_base:
            raise ConfigError("backoff_cap must be >= backoff_base")

    def delay(self, attempt: int) -> float:
        """Backoff before retry number *attempt* (0-based)."""
        return min(self.backoff_cap,
                   self.backoff_base * self.backoff_factor ** attempt)

    def total_backoff(self) -> float:
        """Worst-case cumulative backoff across the whole budget."""
        return sum(self.delay(i) for i in range(self.max_retries))


@dataclass(frozen=True)
class HedgePolicy:
    """Hedged-request policy for the serving resilience plane.

    After a request has waited ``max(min_delay, quantile(latency))``
    without completing, a second attempt is launched on another healthy
    replica; the first completion wins and the loser is cancelled.  The
    delay floor keeps cold-start runs (empty latency history) from
    hedging every request.
    """

    quantile: float = 0.95
    min_delay: float = 2e-3

    def __post_init__(self):
        if not 0.0 < self.quantile < 1.0:
            raise ConfigError("hedge quantile must be in (0, 1)")
        if self.min_delay <= 0:
            raise ConfigError("hedge min_delay must be positive")

    def delay(self, observed_quantile: Optional[float]) -> float:
        """Hedge delay given the currently observed latency quantile."""
        if observed_quantile is None:
            return self.min_delay
        return max(self.min_delay, observed_quantile)


def reserve_staging_with_backoff(machine, staging, nodes: int,
                                 portion: int = 0) -> Generator:
    """Staging reservation with bounded backoff under fault plans.

    Use as ``yield from reserve_staging_with_backoff(m, staging, n, p)``
    inside a process.  Without a plan (or once the budget is exhausted)
    the :class:`~repro.errors.OutOfMemoryError` propagates unchanged.
    Shared by the GNNDrive extractors and the serving async backend.
    """
    inj = machine.faults
    attempt = 0
    while True:
        try:
            staging.reserve(nodes, portion)
            return
        except OutOfMemoryError:
            if inj is None or attempt >= inj.retry_policy.max_retries:
                raise
            delay = inj.retry_policy.delay(attempt)
            attempt += 1
            inj.ledger.staging_retries += 1
            inj.ledger.backoff_time += delay
            yield machine.sim.timeout(delay)


def recover_failed_reads(machine, ring, handle, ssd_nodes, t_load, res,
                         io_size: int, record_nbytes: int) -> Generator:
    """Event-driven retry of ring reads whose CQEs came back failed.

    The degradation ladder: bounded backoff + resubmission; after two
    consecutive all-failing rounds the ring depth is halved
    (sustained-failure hypothesis: a shallower ring sheds pressure);
    when the retry budget runs out, one last synchronous pass at depth
    1; whatever still fails is dropped (the caller zero-fills those
    rows).  Returns ``(completion_times, dropped_node_ids)``.  Shared
    by the GNNDrive extractors and the serving async backend; never
    entered without an active fault plan.
    """
    import numpy as np

    inj = machine.faults
    policy = inj.retry_policy
    ledger = inj.ledger
    t_final = t_load.copy()
    failed_idx = np.flatnonzero(res < 0)
    initial = len(failed_idx)
    fail_rounds = 0
    attempt = 0
    while len(failed_idx) and attempt < policy.max_retries:
        delay = policy.delay(attempt)
        ledger.retried += len(failed_idx)
        ledger.backoff_time += delay
        yield machine.sim.timeout(delay)
        ring.prepare_record_reads(handle, ssd_nodes[failed_idx],
                                  io_size=io_size)
        rt = ring.submit()
        t_final[failed_idx] = rt
        rres = ring.last_res
        still = rres < 0 if rres is not None else None
        if still is None or not still.any():
            failed_idx = failed_idx[:0]
            break
        failed_idx = failed_idx[still]
        fail_rounds += 1
        if fail_rounds >= 2 and ring.depth > 1:
            ring.depth = max(1, ring.depth // 2)
            ledger.depth_halvings += 1
            fail_rounds = 0
        attempt += 1
    dropped_nodes = np.empty(0, dtype=np.int64)
    if len(failed_idx):
        # Sync fallback: one final depth-1 pass through the device's
        # own retry machinery before giving a request up for good.
        sizes = np.full(len(failed_idx), io_size, dtype=np.int64)
        done, dropped = machine.ssd.submit_reliable(
            sizes, io_depth=1, handle_name=handle.name,
            offsets=ssd_nodes[failed_idx] * record_nbytes)
        ledger.sync_fallbacks += 1
        t_final[failed_idx] = done
        yield machine.sim.timeout(max(0.0, float(done.max())
                                      - machine.sim.now))
        dropped_nodes = ssd_nodes[failed_idx][dropped]
        failed_idx = failed_idx[dropped]
    ledger.recovered += initial - len(failed_idx)
    ledger.dropped += len(failed_idx)
    return t_final, dropped_nodes


def alloc_with_retry(machine, nbytes: int, tag: str,
                     policy: Optional[RetryPolicy] = None) -> Generator:
    """Pinned host allocation with bounded backoff under fault pressure.

    Use as ``alloc = yield from alloc_with_retry(m, nbytes, tag)`` inside
    a process.  Without an active fault plan (or once the retry budget is
    exhausted) the :class:`~repro.errors.OutOfMemoryError` propagates —
    transient pressure is survivable, genuine over-commit is not.
    """
    inj = machine.faults
    if policy is None:
        policy = inj.retry_policy if inj is not None else RetryPolicy()
    attempt = 0
    while True:
        try:
            return machine.host.allocate(nbytes, tag=tag)
        except OutOfMemoryError:
            if inj is None or attempt >= policy.max_retries:
                raise
            delay = policy.delay(attempt)
            attempt += 1
            inj.ledger.alloc_retries += 1
            inj.ledger.backoff_time += delay
            yield machine.sim.timeout(delay)
