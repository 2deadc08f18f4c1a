"""io_uring-style asynchronous I/O ring (Appendix A).

One simulated thread owns a ring, fills the submission queue with SQEs,
submits them all, keeps doing other work, and later waits on completion —
no per-request thread blocking and no context switches.  The ring bounds
in-flight requests by ``depth`` (the io-depth of Fig. B.1 b/d): request
*i* enters the device only after request ``i - depth`` completed.

The ring works in the direct-I/O mode by default ("io_uring works well
with the direct I/O mode", §4.4), enforcing 512 B sector alignment.

Hot-path representation: record-read submissions are **array-form SQE
batches** (:class:`SqeBatch`) — offsets and sizes computed as whole
NumPy arrays and completion times filled by array assignment — instead
of one Python :class:`Sqe` object per record.  A GNNDrive extractor
submits one batch per mini-batch, so SQE construction costs O(1)
interpreter operations regardless of batch size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np

from repro.errors import StorageError
from repro.faults.plan import EAGAIN, EIO
from repro.simcore.engine import Simulator, Timeout
from repro.storage.device import SSDDevice
from repro.storage.files import FileHandle
from repro.storage.spec import SECTOR_SIZE
from repro.storage.sync_io import check_aligned


@dataclass
class Sqe:
    """A submission-queue entry: one read request."""

    handle: FileHandle
    offset: int
    nbytes: int
    user_data: object = None
    #: Filled at completion-computation time.
    completion_time: float = float("nan")
    #: CQE status (negated errno like the real ABI): 0 = success,
    #: ``-EIO`` = media error, ``-EAGAIN`` = transient completion error.
    res: int = 0


@dataclass
class SqeBatch:
    """Array-form submission-queue entries: many reads of one file.

    Offsets/sizes/user data live in parallel NumPy arrays; indexing
    materialises a plain :class:`Sqe` view on demand.
    """

    handle: FileHandle
    offsets: np.ndarray
    sizes: np.ndarray
    user_data: np.ndarray
    #: Filled at completion-computation time (array assignment).
    completion_times: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.float64))
    #: Per-entry CQE status (0 = success; negated errno on failure).
    res: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64))

    def __len__(self) -> int:
        return len(self.offsets)

    def __getitem__(self, i: int) -> Sqe:
        t = (float(self.completion_times[i])
             if len(self.completion_times) else float("nan"))
        r = int(self.res[i]) if len(self.res) else 0
        return Sqe(self.handle, int(self.offsets[i]), int(self.sizes[i]),
                   user_data=self.user_data[i], completion_time=t, res=r)


class AsyncRing:
    """A single-thread asynchronous I/O ring over one device."""

    def __init__(self, sim: Simulator, device: SSDDevice, depth: int = 64,
                 direct: bool = True):
        if depth < 1:
            raise ValueError(f"io depth must be >= 1, got {depth}")
        self.sim = sim
        self.device = device
        self.depth = depth
        #: The configured depth, before any fault-recovery halvings.
        self.initial_depth = depth
        self.direct = direct
        self._sq: List[Union[Sqe, SqeBatch]] = []
        self.submitted = 0
        #: CQE status array of the most recent :meth:`submit` (None when
        #: the device has no fault injector attached).
        self.last_res: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return sum(1 if isinstance(e, Sqe) else len(e) for e in self._sq)

    def widen(self) -> int:
        """Restore depth toward the configured value after halvings.

        Recovery halves ``depth`` under sustained CQE failures; callers
        with request boundaries (the serving loop) widen back one
        doubling at a time between requests, probing rather than
        snapping back into a possibly still-degraded device.  Returns
        the new depth.
        """
        if self.depth < self.initial_depth:
            self.depth = min(self.initial_depth, self.depth * 2)
        return self.depth

    def reset(self) -> None:
        """Discard unsubmitted SQEs and restore the configured depth.

        Crash teardown for the serving resilience plane: a replica that
        dies mid-extraction abandons whatever it had queued but not yet
        submitted, and its restarted incarnation opens a fresh ring at
        the configured depth.
        """
        self._sq.clear()
        self.depth = self.initial_depth
        self.last_res = None

    # ------------------------------------------------------------------
    @staticmethod
    def _padded_nbytes(handle: FileHandle) -> int:
        return ((handle.nbytes + SECTOR_SIZE - 1) // SECTOR_SIZE) * SECTOR_SIZE

    def prepare_read(self, handle: FileHandle, offset: int, nbytes: int,
                     user_data: object = None) -> Sqe:
        """Queue one read SQE (not yet visible to the device).

        Under direct I/O the file is treated as padded to a whole
        sector (§4.4: records smaller than a sector force redundant
        data into the read), so the final record's covering sector is a
        legal read even when the logical size is not sector-aligned.
        """
        if self.direct:
            check_aligned(offset, nbytes)
            limit = self._padded_nbytes(handle)
            if offset < 0 or nbytes < 0 or offset + nbytes > limit:
                raise StorageError(
                    f"read [{offset}, {offset + nbytes}) out of padded "
                    f"range for {handle.name!r} ({limit} B)")
        else:
            handle.check_range(offset, nbytes)
        sqe = Sqe(handle, int(offset), int(nbytes), user_data)
        self._sq.append(sqe)
        return sqe

    def prepare_record_reads(self, handle: FileHandle,
                             record_ids: np.ndarray,
                             io_size: Optional[int] = None) -> SqeBatch:
        """Queue one SQE per record id, rounding to sectors under direct
        I/O.  Offsets and sizes are computed as arrays; no per-record
        Python objects are allocated."""
        rec = handle.record_nbytes
        if io_size is None:
            io_size = rec
            if self.direct and io_size % SECTOR_SIZE:
                io_size = ((io_size // SECTOR_SIZE) + 1) * SECTOR_SIZE
        io_size = int(io_size)
        record_ids = np.asarray(record_ids, dtype=np.int64)
        offsets = record_ids * rec
        if self.direct:
            check_aligned(0, io_size)
            padded = self._padded_nbytes(handle)
            if io_size > padded:
                raise StorageError(
                    f"read [0, {io_size}) out of padded range for "
                    f"{handle.name!r} ({padded} B)")
            # Align down, read the covering span; large access
            # granularities (e.g. GDS's 4 KiB) near EOF: shift the
            # window back so the read stays in the file.
            offsets -= offsets % SECTOR_SIZE
            np.clip(offsets, 0, padded - io_size, out=offsets)
        elif len(offsets):
            lo = int(offsets.min())
            hi = int(offsets.max()) + io_size
            if lo < 0 or hi > handle.nbytes:
                raise StorageError(
                    f"read [{lo}, {hi}) out of range for "
                    f"{handle.name!r} ({handle.nbytes} B)")
        batch = SqeBatch(handle, offsets,
                         np.full(len(offsets), io_size, dtype=np.int64),
                         user_data=record_ids)
        self._sq.append(batch)
        return batch

    # ------------------------------------------------------------------
    def submit(self) -> np.ndarray:
        """Submit all queued SQEs; returns per-SQE completion times.

        The in-flight window is bounded by the ring depth.  SQEs are
        drained from the SQ; their completion times are filled — by
        array slicing for batches, per object for single SQEs.
        """
        if not self._sq:
            return np.empty(0, dtype=np.float64)
        sizes = np.concatenate([
            np.asarray([e.nbytes], dtype=np.int64) if isinstance(e, Sqe)
            else e.sizes
            for e in self._sq])
        done = self.device.submit_batch(sizes, io_depth=self.depth)
        acct = self.device.account_read
        for e in self._sq:
            if isinstance(e, Sqe):
                acct(e.handle.name, e.nbytes)
            else:
                acct(e.handle.name, int(e.sizes.sum()))
        san = self.sim.sanitizer
        if san is not None:
            san.check_ring(self, done)
        res = self._draw_completion_errors()
        pos = 0
        for e in self._sq:
            if isinstance(e, Sqe):
                e.completion_time = float(done[pos])
                if res is not None:
                    e.res = int(res[pos])
                pos += 1
            else:
                e.completion_times = done[pos:pos + len(e)]
                if res is not None:
                    e.res = res[pos:pos + len(e)]
                pos += len(e)
        self.last_res = res
        self.submitted += len(done)
        self._sq.clear()
        return done

    def _draw_completion_errors(self) -> Optional[np.ndarray]:
        """CQE statuses for the queued SQEs, or None without faults.

        Media errors (``-EIO``) are drawn per entry against the entry's
        file/offsets so range-targeted specs apply; transient completion
        errors (``-EAGAIN``) are drawn uniformly over the whole ring.
        """
        inj = self.device.faults
        if inj is None:
            return None
        now = self.sim.now
        n = len(self)
        res = np.zeros(n, dtype=np.int64)
        pos = 0
        for e in self._sq:
            if isinstance(e, Sqe):
                fail = inj.draw_read_errors(
                    1, now, handle_name=e.handle.name,
                    offsets=np.asarray([e.offset], dtype=np.int64))
                if fail is not None and fail[0]:
                    res[pos] = -EIO
                pos += 1
            else:
                k = len(e)
                fail = inj.draw_read_errors(
                    k, now, handle_name=e.handle.name, offsets=e.offsets)
                if fail is not None:
                    res[pos:pos + k][fail] = -EIO
                pos += k
        ring_fail = inj.draw_ring_errors(n, now)
        if ring_fail is not None:
            res[ring_fail & (res == 0)] = -EAGAIN
        return res

    def submit_and_wait(self) -> Timeout:
        """Submit everything and return an event firing at the last CQE.

        The event's value is the per-request completion-time array, which
        callers use to pipeline downstream work (e.g. launching the PCIe
        transfer of node *i* at its own load-completion time rather than
        at the batch end — GNNDrive's two-phase overlap).
        """
        done = self.submit()
        last = float(done.max()) if len(done) else self.sim.now
        return self.sim.timeout(max(0.0, last - self.sim.now), value=done)

    def drain_wait(self, completion_times: np.ndarray) -> Timeout:
        """Event for 'wait until all of these completions have landed'."""
        if len(completion_times) == 0:
            return self.sim.timeout(0.0, value=completion_times)
        last = float(np.max(completion_times))
        return self.sim.timeout(max(0.0, last - self.sim.now),
                                value=completion_times)

    def drain_cohort(self, completion_times: np.ndarray) -> List[Timeout]:
        """Deliver a completion cohort as one timeout per CQE.

        Each completion becomes a :class:`~repro.simcore.Timeout` firing
        at its own completion time (never before now): CQE-granular
        clock ticks.  Pair with :meth:`drain_wait` when a process must
        block on the batch.  Returns the timeouts in array order.
        """
        delays = np.maximum(
            np.asarray(completion_times, dtype=np.float64) - self.sim.now,
            0.0)
        return [self.sim.timeout(d) for d in delays.tolist()]
