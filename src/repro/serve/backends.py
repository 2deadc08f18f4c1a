"""Feature-extraction backends for the serving plane.

Both backends expose the same two-call protocol per job — ``feats =
yield from extract(nodes)`` then ``release(nodes)`` after inference —
and reuse the training stack unchanged:

* :class:`AsyncServeBackend` — GNNDrive's path: it runs the training
  extractor's :func:`~repro.core.driver.extract_batch` (io_uring ring
  into a pinned staging portion, per-node PCIe overlap) into a
  device-resident feature buffer whose standby list stays *warm across
  requests* (delayed invalidation, §4.2) — repeat queries for hub
  neighborhoods skip the SSD entirely.
* :class:`SyncServeBackend` — the PyG+-style baseline: the same mmap
  page faults as PyG+'s extraction
  (:func:`~repro.core.sampling_io.fault_records`) followed by one bulk
  PCIe copy.

Fault plans apply to both: the async path runs the same recovery ladder
as the training extractor (:mod:`repro.faults.recovery`), the sync path
re-faults dropped pages; between requests the async ring widens back
toward its configured depth.
"""

from __future__ import annotations

from typing import Generator, Optional

import numpy as np

from repro.core.driver import extract_batch
from repro.core.feature_buffer import FeatureBuffer
from repro.core.sampling_io import fault_records
from repro.core.staging import StagingBuffer
from repro.errors import OutOfMemoryError
from repro.graph.datasets import DiskDataset
from repro.machine import Machine
from repro.storage import AsyncRing

#: io_uring depth of each replica's ring.
IO_DEPTH = 64
#: Extra feature-buffer slots beyond one job, as a fraction of the job
#: footprint — the warm standby pool reused across requests.
STANDBY_SCALE = 4.0


class SyncServeBackend:
    """Per-replica synchronous extraction through the page cache."""

    name = "sync"

    def __init__(self, machine: Machine, dataset: DiskDataset,
                 replica: int):
        self.machine = machine
        self.dataset = dataset
        self.replica = replica
        self._cur_alloc = 0

    def extract(self, nodes: np.ndarray) -> Generator:
        m = self.machine
        yield from fault_records(m, self.dataset.feat_handle, nodes)
        feat_bytes = len(nodes) * self.dataset.features.record_nbytes
        m.gpus[self.replica].allocate(feat_bytes, tag="batch")
        self._cur_alloc = feat_bytes
        yield m.pcie[self.replica].copy_async(feat_bytes)
        return self.dataset.features.gather(nodes)

    def release(self, nodes: np.ndarray) -> None:
        if self._cur_alloc:
            self.machine.gpus[self.replica].free(self._cur_alloc,
                                                 tag="batch")
            self._cur_alloc = 0

    def abort_batch(self) -> None:
        """Undo in-flight extraction state (replica hang/cancel path)."""
        self.release(None)

    def crash_teardown(self) -> None:
        """Reclaim everything a dying replica held.

        The page cache is the OS's, not the replica's — its contents
        survive a process crash, so only the device-side batch
        allocation needs reclaiming.
        """
        self.release(None)

    @property
    def reused_nodes(self) -> int:
        return 0

    @property
    def loaded_nodes(self) -> int:
        return 0


class AsyncServeBackend:
    """Per-replica GNNDrive-style async extraction with a warm buffer."""

    name = "async"

    def __init__(self, machine: Machine, dataset: DiskDataset,
                 replica: int, max_job_nodes: int, gpu_budget: int,
                 staging: StagingBuffer):
        m = machine
        self.machine = m
        self.dataset = dataset
        self.replica = replica
        self.max_job_nodes = max_job_nodes
        self.staging = staging
        record = dataset.features.record_nbytes
        # One job in flight per replica, so Mb slots suffice for
        # progress; everything beyond that is the warm standby pool
        # reused across requests.
        want = int(max_job_nodes * (1.0 + STANDBY_SCALE))
        affordable = gpu_budget // record
        if affordable < max_job_nodes:
            raise OutOfMemoryError(max_job_nodes * record,
                                   int(gpu_budget),
                                   where=f"serve-feature-buffer{replica}")
        self.num_slots = min(affordable, want)
        self.feature_buffer = FeatureBuffer(
            m.sim, self.num_slots, dataset.num_nodes, dataset.dim)
        m.gpus[replica].allocate(self.num_slots * record,
                                 tag="feature-buffer")
        self.ring = AsyncRing(m.sim, m.ssd, depth=IO_DEPTH)
        #: Nodes of the job in flight, holding buffer references, so an
        #: abnormal exit (replica crash/hang interrupt) can return them;
        #: its staging reservation is what the replica's portion holds.
        self._inflight: Optional[np.ndarray] = None
        if m.sim.sanitizer is not None:
            m.sim.sanitizer.register(self.feature_buffer)

    def extract(self, nodes: np.ndarray) -> Generator:
        m = self.machine
        fb = self.feature_buffer
        self._inflight = nodes
        # One extractor per buffer, so the batch never waits on nodes
        # another extractor is loading.
        _, aliases = yield from extract_batch(
            m, fb, self.ring, self.staging, self.replica, self.dataset,
            self.staging.io_size, m.pcie[self.replica], nodes)
        self.ring.widen()
        return fb.gather(aliases)

    def release(self, nodes: np.ndarray) -> None:
        """Drop references; mappings survive on standby (warm reuse)."""
        self.feature_buffer.release(nodes)
        self._inflight = None

    def _free_staging(self) -> None:
        """Return the staging reservation of an interrupted job."""
        held = self.staging.portion_nodes(self.replica)
        if held:
            self.staging.free(held, self.replica)

    def abort_batch(self) -> None:
        """Undo in-flight extraction state without losing the cache.

        The hang/cancel path: the interrupted batch's references and
        staging reservation are returned, but warm mappings survive so
        the replica resumes with its locality intact.
        """
        self._free_staging()
        if self._inflight is not None:
            self.feature_buffer.release(self._inflight)
            self._inflight = None

    def crash_teardown(self) -> None:
        """Reclaim everything a dying replica held.

        Beyond :meth:`abort_batch`'s reference/staging cleanup, a crash
        destroys the device-resident buffer contents and the ring: the
        restarted incarnation must observe a cold cache and a fresh ring
        at the configured depth — and the shared pinned staging must not
        retain the dead replica's reservation (the pinned-leak sweep
        would flag it at the next epoch boundary).
        """
        self._free_staging()
        self._inflight = None
        self.ring.reset()
        self.feature_buffer.reset_cold()

    @property
    def reused_nodes(self) -> int:
        return self.feature_buffer.stat_reused

    @property
    def loaded_nodes(self) -> int:
        return self.feature_buffer.stat_loaded
