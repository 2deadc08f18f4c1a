"""The retry budget and backoff shared by every recovery path.

All recovery in the runtime is bounded: a per-request retry budget of
:data:`MAX_RETRIES` plus exponential backoff with a cap
(:func:`backoff_delay`), so the device's analytic retry loop, the
extractor's event-driven loop, the sampler's page re-faults and the
out-of-memory backoff all degrade the same way.
"""

from __future__ import annotations

from typing import Callable, Generator

from repro.errors import OutOfMemoryError

#: Retries each recovery path allows before it gives a request up.
MAX_RETRIES = 6
#: Bounded exponential backoff:
#: ``backoff_delay(i) = min(BACKOFF_CAP, BACKOFF_BASE * BACKOFF_FACTOR**i)``.
BACKOFF_BASE = 200e-6
BACKOFF_FACTOR = 2.0
BACKOFF_CAP = 5e-3


def backoff_delay(attempt: int) -> float:
    """Backoff before retry number *attempt* (0-based)."""
    return min(BACKOFF_CAP, BACKOFF_BASE * BACKOFF_FACTOR ** attempt)


def retry_on_oom(machine, counter: str,
                 call: Callable[[], object]) -> Generator:
    """Run *call* with bounded backoff while it raises
    :class:`~repro.errors.OutOfMemoryError` under a fault plan.

    Use as ``value = yield from retry_on_oom(m, counter, call)`` inside a
    process: each retry bumps the fault ledger's *counter* and sleeps
    out its backoff.  Without an active fault plan (or once the retry
    budget is exhausted) the error propagates unchanged — transient
    pressure is survivable, genuine over-commit is not.  GNNDrive's
    staging reservation (``staging_retries``) and Ginex's workspace
    allocation (``alloc_retries``) both run it.
    """
    inj = machine.faults
    attempt = 0
    while True:
        try:
            return call()
        except OutOfMemoryError:
            if inj is None or attempt >= MAX_RETRIES:
                raise
            delay = backoff_delay(attempt)
            attempt += 1
            setattr(inj.ledger, counter, getattr(inj.ledger, counter) + 1)
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

    ledger = machine.faults.ledger
    t_final = t_load.copy()
    failed_idx = np.flatnonzero(res < 0)
    initial = len(failed_idx)
    fail_rounds = 0
    attempt = 0
    while len(failed_idx) and attempt < MAX_RETRIES:
        delay = backoff_delay(attempt)
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
