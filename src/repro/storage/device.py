"""Channelized SSD queueing model (timing plane).

The device serves read requests on ``spec.channels`` parallel channels.
Each request occupies one channel for ``read_latency + nbytes/bw`` seconds;
requests are assigned greedily to the earliest-free channel (a c-server
FIFO queue).  This single mechanism yields every storage behaviour the
paper relies on:

* queue depth 1 (one sync thread) leaves channels idle -> low bandwidth;
* many threads or a deep io_uring ring fill all channels -> bandwidth
  saturates at ``channels * channel_bandwidth`` (Appendix B, Fig. B.1 a/b);
* per-request latency grows with depth because of queueing (Fig. B.1 c/d);
* a flood of feature reads delays topology-page reads -> I/O congestion.

The device exposes *batch* submission that computes all completion times
in one call (heap-based, O(n log c)) so the simulator does not need one
event per 512-byte request — crucial for running whole training epochs.
"""

from __future__ import annotations

import heapq
from typing import Optional, Tuple

import numpy as np

from repro.faults.recovery import MAX_RETRIES, backoff_delay
from repro.simcore.engine import Simulator, Timeout
from repro.storage.spec import SSDSpec


class SSDDevice:
    """A shared simulated SSD; all actors' requests contend here."""

    def __init__(self, sim: Simulator, spec: SSDSpec):
        self.sim = sim
        self.spec = spec
        # Min-heap of per-channel next-free times.
        self._free_at = [0.0] * spec.channels
        heapq.heapify(self._free_at)
        #: Optional :class:`repro.faults.FaultInjector`, wired by the
        #: machine when a fault plan is active; None costs one test per
        #: batch.
        self.faults = None
        # Statistics.
        self.bytes_read = 0
        self.bytes_written = 0
        self.requests = 0
        self.write_requests = 0
        self.busy_time = 0.0
        #: Read bytes by caller-supplied tag (usually the file name).
        #: Physical traffic: retried requests count every attempt.
        self.bytes_read_by_tag: dict = {}

    def account_read(self, tag: Optional[str], nbytes: int) -> None:
        """Attribute *nbytes* of read traffic to *tag* (no-op for None)."""
        if tag is not None:
            self.bytes_read_by_tag[tag] = (
                self.bytes_read_by_tag.get(tag, 0) + int(nbytes))

    def read_bytes_for(self, tag: str) -> int:
        """Total read bytes attributed to *tag* so far."""
        return self.bytes_read_by_tag.get(tag, 0)

    # ------------------------------------------------------------------
    # Timing primitives
    # ------------------------------------------------------------------
    def service_time(self, nbytes: int) -> float:
        return self.spec.service_time(int(nbytes))

    def submit(self, nbytes: int) -> float:
        """Submit one request now; returns its absolute completion time."""
        return float(self.submit_batch(np.asarray([nbytes]))[0])

    def submit_batch(
        self,
        sizes: np.ndarray,
        io_depth: Optional[int] = None,
        start_times: Optional[np.ndarray] = None,
        write: bool = False,
        tag: Optional[str] = None,
    ) -> np.ndarray:
        """Submit *sizes* requests in order; return completion times.

        Parameters
        ----------
        sizes:
            Request sizes in bytes, in submission order.
        io_depth:
            If given, request *i* may not enter the device before request
            ``i - io_depth`` has completed (a bounded submission ring).
            ``None`` means the submitter pushes everything immediately
            (kernel-side queueing only).
        start_times:
            Optional per-request earliest-start times (absolute seconds),
            e.g. when a submitter issues requests over time.  Defaults to
            "all available now".
        write:
            Account the bytes as writes (Ginex's sampling-result spill);
            service timing is symmetric on the modelled SATA device.
        tag:
            Attribute read bytes to this name in ``bytes_read_by_tag``
            (pure data-plane accounting; never affects timing).

        Returns
        -------
        numpy.ndarray
            Absolute completion time per request, same order as *sizes*.
        """
        sizes = np.asarray(sizes, dtype=np.int64)
        if sizes.ndim != 1:
            raise ValueError("sizes must be 1-D")
        if (sizes < 0).any():
            raise ValueError("negative request size")
        n = len(sizes)
        if n == 0:
            return np.empty(0, dtype=np.float64)

        now = self.sim.now
        svc = self.spec.read_latency + sizes / self.spec.channel_bandwidth

        # Vectorized fast path: a uniform batch with all requests ready
        # now, no fault multipliers, and a non-binding submission window
        # reduces the c-server queue to c arithmetic chains (proof in
        # docs/architecture.md §3.2); bit-exact vs the heap loop below.
        if (start_times is None and self.faults is None and n >= 32
                and (io_depth is None or io_depth >= self.spec.channels
                     or io_depth == 1)
                and sizes[0] > 0 and not (sizes != sizes[0]).any()):
            if io_depth == 1 and self.spec.channels > 1:
                done = self._complete_serial(n, float(svc[0]))
            else:
                done = self._complete_uniform(n, float(svc[0]))
            if done is not None:
                if write:
                    self.bytes_written += int(sizes.sum())
                    self.write_requests += n
                else:
                    self.bytes_read += int(sizes.sum())
                    self.requests += n
                    self.account_read(tag, int(sizes.sum()))
                return done

        done = np.empty(n, dtype=np.float64)
        free_at = self._free_at  # heap, mutated in place

        if start_times is None:
            ready = np.full(n, now)
        else:
            ready = np.maximum(np.asarray(start_times, dtype=np.float64), now)

        if self.faults is not None:
            mult = self.faults.service_multipliers(ready, write=write)
            if mult is not None:
                svc = svc * mult

        for i in range(n):
            earliest = ready[i]
            if io_depth is not None and i >= io_depth:
                earliest = max(earliest, done[i - io_depth])
            if sizes[i] == 0:
                # A zero-byte request completes for free: it carries no
                # payload, so it neither occupies a channel nor pays the
                # media latency.
                done[i] = earliest
                continue
            chan_free = heapq.heappop(free_at)
            start = max(chan_free, earliest)
            finish = start + svc[i]
            heapq.heappush(free_at, finish)
            done[i] = finish
            self.busy_time += svc[i]

        if write:
            self.bytes_written += int(sizes.sum())
            self.write_requests += n
        else:
            self.bytes_read += int(sizes.sum())
            self.requests += n
            self.account_read(tag, int(sizes.sum()))
        return done

    def _complete_uniform(self, n: int, s: float) -> Optional[np.ndarray]:
        """Completion times for *n* uniform requests of service time *s*.

        With every request ready now and service times equal, the greedy
        earliest-free-channel assignment pops, in nondecreasing order,
        the n smallest elements of c arithmetic chains ``F_j + k*s``
        (``F_j`` = channel j's free time clipped to now).  Each chain is
        built by ``np.add.accumulate`` — sequential repeated addition,
        so every float matches the heap loop bit for bit; a request's
        completion is its popped chain element plus ``s`` (the next
        element of the same chain).

        Returns None when the per-channel free times are spread wider
        than the generated chain length covers (caller falls back to the
        heap loop).
        """
        c = self.spec.channels
        F = np.maximum(np.array(self._free_at, dtype=np.float64),
                       self.sim.now)
        F.sort()
        rows = n // c + 2
        mat = np.empty((rows + 1, c), dtype=np.float64)
        mat[0] = F
        mat[1:] = s
        cum = np.add.accumulate(mat, axis=0)
        # Finish candidates: chain elements from row 1 up (row k of cum
        # is F + k×s accumulated; a request popping F_j + (k-1)s
        # finishes at F_j + ks).
        cand = cum[1:].ravel()
        order = np.argsort(cand, kind="stable")
        take = order[:n]
        # Enough rows?  Any un-generated finish is > its column's last
        # generated row, hence > min(cum[-1]).
        if cand[take[-1]] > float(cum[-1].min()):
            return None
        done = cand[take]
        # Restore per-channel state: column j served counts[j] requests,
        # leaving its chain head at row counts[j].
        counts = np.bincount(take % c, minlength=c)
        self._free_at = cum[counts, np.arange(c)].tolist()
        heapq.heapify(self._free_at)
        # busy_time via the same sequential accumulation the loop does.
        acc = np.empty(n + 1, dtype=np.float64)
        acc[0] = self.busy_time
        acc[1:] = s
        self.busy_time = float(np.add.accumulate(acc)[-1])
        return done

    def _complete_serial(self, n: int, s: float) -> np.ndarray:
        """Completion times for *n* uniform requests at ``io_depth=1``.

        Depth 1 serialises the batch: request *i* may not start before
        request *i-1* completes, and the earliest-free channel is always
        free by then (the heap min never exceeds the last completion),
        so ``done[i] = done[i-1] + s`` with ``done[0]`` anchored at the
        earliest-free channel — sequential accumulation, bit-exact vs
        the heap loop.
        """
        acc = np.empty(n + 1, dtype=np.float64)
        acc[0] = max(min(self._free_at), self.sim.now)
        acc[1:] = s
        done = np.add.accumulate(acc)[1:]
        # The n pops removed the n smallest of {channel frees ∪ pushed
        # finishes}; the c largest of that union survive as the heap.
        pool = np.concatenate([np.asarray(self._free_at,
                                          dtype=np.float64), done])
        self._free_at = np.partition(pool, n)[n:].tolist()
        heapq.heapify(self._free_at)
        acc[0] = self.busy_time
        self.busy_time = float(np.add.accumulate(acc)[-1])
        return done

    # ------------------------------------------------------------------
    # Fault-aware submission
    # ------------------------------------------------------------------
    def submit_batch_ex(
        self,
        sizes: np.ndarray,
        io_depth: Optional[int] = None,
        start_times: Optional[np.ndarray] = None,
        write: bool = False,
        handle_name: Optional[str] = None,
        offsets: Optional[np.ndarray] = None,
        times: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """:meth:`submit_batch` plus a per-request read-error mask.

        Returns ``(done, fail)`` where *fail* is a boolean mask over the
        batch (None when no read-error fault fired — including always
        for writes and fault-free devices).  Windowed error specs are
        evaluated at each request's service completion time (a media
        error manifests when the request is serviced, not when it is
        queued); *times* overrides that, which the retry loop uses to
        re-draw at the deferred resubmission times.
        """
        done = self.submit_batch(sizes, io_depth=io_depth,
                                 start_times=start_times, write=write,
                                 tag=handle_name)
        fail = None
        if self.faults is not None and not write and len(done):
            fail = self.faults.draw_read_errors(
                len(done), self.sim.now,
                handle_name=handle_name, offsets=offsets,
                times=done if times is None else times)
        return done, fail

    def submit_reliable(
        self,
        sizes: np.ndarray,
        io_depth: Optional[int] = None,
        start_times: Optional[np.ndarray] = None,
        write: bool = False,
        handle_name: Optional[str] = None,
        offsets: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Submit with device-level bounded retries on injected errors.

        Failed requests are resubmitted after the shared backoff
        (:func:`repro.faults.recovery.backoff_delay`, modelled by
        deferring their earliest-start time — analytic, no extra
        events), up to ``MAX_RETRIES`` rounds.  Returns
        ``(done, dropped)``: final per-request completion times and a
        boolean mask of requests that exhausted their retry budget.
        """
        sizes = np.asarray(sizes, dtype=np.int64)
        done, fail = self.submit_batch_ex(
            sizes, io_depth=io_depth, start_times=start_times, write=write,
            handle_name=handle_name, offsets=offsets)
        dropped = np.zeros(len(done), dtype=bool)
        if fail is None or not fail.any():
            return done, dropped

        ledger = self.faults.ledger
        pending = np.flatnonzero(fail)
        initial = len(pending)
        attempt = 0
        offs = None if offsets is None else np.asarray(offsets, dtype=np.int64)
        while len(pending) and attempt < MAX_RETRIES:
            delay = backoff_delay(attempt)
            ledger.retried += len(pending)
            ledger.backoff_time += delay * len(pending)
            retry_start = done[pending] + delay
            retry_offs = None if offs is None else offs[pending]
            rdone, rfail = self.submit_batch_ex(
                sizes[pending], io_depth=io_depth, start_times=retry_start,
                write=write, handle_name=handle_name, offsets=retry_offs,
                times=retry_start)
            done[pending] = rdone
            if rfail is None:
                pending = pending[:0]
            else:
                pending = pending[rfail]
            attempt += 1
        ledger.recovered += initial - len(pending)
        ledger.dropped += len(pending)
        dropped[pending] = True
        return done, dropped

    # ------------------------------------------------------------------
    # Event helpers
    # ------------------------------------------------------------------
    def read_event(self, nbytes: int, tag: Optional[str] = None) -> Timeout:
        """One read as a waitable event (for sync pread paths)."""
        if self.faults is not None:
            done_arr, _ = self.submit_reliable(np.asarray([nbytes]),
                                               io_depth=1, handle_name=tag)
            done = float(done_arr[0])
        else:
            done = float(self.submit_batch(np.asarray([nbytes]),
                                           tag=tag)[0])
        return self.sim.timeout(max(0.0, done - self.sim.now), value=done)

    def write_event(self, nbytes: int) -> Timeout:
        """One write as a waitable event (spill files, checkpoints)."""
        done = float(self.submit_batch(np.asarray([nbytes]), write=True)[0])
        return self.sim.timeout(max(0.0, done - self.sim.now), value=done)

    def batch_event(self, sizes: np.ndarray,
                    io_depth: Optional[int] = None,
                    tag: Optional[str] = None) -> Timeout:
        """All-complete event for a batch; value is per-request times."""
        if self.faults is not None:
            done, _ = self.submit_reliable(sizes, io_depth=io_depth,
                                           handle_name=tag)
        else:
            done = self.submit_batch(sizes, io_depth=io_depth, tag=tag)
        last = float(done.max()) if len(done) else self.sim.now
        return self.sim.timeout(max(0.0, last - self.sim.now), value=done)

    # ------------------------------------------------------------------
    def utilization(self, until: Optional[float] = None) -> float:
        """Mean channel utilization from t=0 to *until* (default: now)."""
        until = self.sim.now if until is None else until
        if until <= 0:
            return 0.0
        return min(1.0, self.busy_time / (self.spec.channels * until))
