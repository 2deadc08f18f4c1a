"""OS page cache model: LRU over 4 KiB pages, sized by *free* host memory.

This is the battleground of the paper's memory-contention observation
(𝔒1).  Both PyG+'s memory-mapped feature file and everyone's memory-mapped
topology index array read through here.  When pinned allocations (or the
other file's pages) squeeze the cache, topology pages get evicted, the
sample stage misses, and sampling time balloons — Figure 2's mechanism.

The cache resizes itself reactively: it subscribes to the host-memory
accountant and drops LRU pages whenever pinned memory grows.

Data-structure layout (all hot paths are vectorized NumPy):

* per file, a dense **page index**: a boolean ``resident`` array and a
  page -> global-LRU-key table, sized by the file's page count.  This
  makes residency tests (:meth:`residency_mask`,
  :meth:`records_resident_mask`) pure fancy indexing and keeps
  :meth:`invalidate_file` O(pages of that file);
* one global :class:`~repro.simcore.lru.ArrayLRU` ordering all files'
  resident pages, with reverse tables mapping LRU keys back to
  (file, page) so evictions can clear the per-file bits in batch.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.arrays import sorted_unique
from repro.memory.host import HostMemory
from repro.simcore.engine import Simulator, Timeout
from repro.simcore.lru import ArrayLRU
from repro.storage.device import SSDDevice
from repro.storage.files import FileHandle
from repro.storage.spec import PAGE_SIZE


#: Copying a resident page from cache to a user buffer (DRAM-to-DRAM).
DRAM_COPY_BANDWIDTH = 20e9


class _FileState:
    """Per-file page index: residency bits and LRU-key table."""

    __slots__ = ("file_id", "name", "resident", "key_of")

    def __init__(self, file_id: int, name: str, num_pages: int):
        self.file_id = file_id
        self.name = name
        self.resident = np.zeros(num_pages, dtype=bool)
        self.key_of = np.full(num_pages, -1, dtype=np.int64)

    def ensure_pages(self, num_pages: int) -> None:
        if num_pages <= len(self.resident):
            return
        cap = max(num_pages, 2 * len(self.resident))
        resident = np.zeros(cap, dtype=bool)
        resident[:len(self.resident)] = self.resident
        key_of = np.full(cap, -1, dtype=np.int64)
        key_of[:len(self.key_of)] = self.key_of
        self.resident = resident
        self.key_of = key_of


class PageCache:
    """A shared LRU page cache backed by the simulated SSD.

    Notes
    -----
    Residency is updated at submission time, so two actors touching the
    same missing page in the same instant charge the device once — the
    same effect as the kernel's in-flight page tracking.
    """

    def __init__(self, sim: Simulator, host: HostMemory, device: SSDDevice,
                 page_size: int = PAGE_SIZE, fault_depth: int = 1):
        if page_size < 1:
            raise ValueError("page_size must be positive")
        if fault_depth < 1:
            raise ValueError("fault_depth must be >= 1")
        self.sim = sim
        self.host = host
        self.device = device
        self.page_size = int(page_size)
        #: mmap faults are demand-paged: the faulting thread blocks per
        #: page, so one thread keeps at most a readahead window of this
        #: many page reads in flight.  This serialisation is exactly why
        #: mmap-based extraction (PyG+) cannot reach device bandwidth
        #: the way io_uring at depth 64 does (§3 𝔒2 / Appendix B).
        self.fault_depth = int(fault_depth)
        #: Global LRU over all files' resident pages (oldest first).
        self._lru = ArrayLRU(0)
        self._files: Dict[str, _FileState] = {}
        self._file_list: List[_FileState] = []
        #: LRU key -> (file id, page id) reverse tables.
        self._key_fid = np.empty(0, dtype=np.int64)
        self._key_page = np.empty(0, dtype=np.int64)
        self._next_key = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Per-file hit/miss tallies keyed by handle name — pure
        #: accounting for the oracle harness (never affects timing).
        self.hits_by_tag: Dict[str, int] = {}
        self.misses_by_tag: Dict[str, int] = {}
        #: Pages whose device reads exhausted their retry budget in the
        #: most recent :meth:`access` (empty without an active fault
        #: plan).  Callers re-fault them via the sampling retry helpers.
        self.last_dropped_pages = np.empty(0, dtype=np.int64)
        host.add_pressure_listener(self.shrink_to_budget)

    # ------------------------------------------------------------------
    @property
    def capacity_pages(self) -> int:
        return self.host.cache_budget() // self.page_size

    @property
    def resident_pages(self) -> int:
        return len(self._lru)

    def hits_for(self, name: str) -> int:
        """Cumulative page hits charged to file *name*."""
        return self.hits_by_tag.get(name, 0)

    def misses_for(self, name: str) -> int:
        """Cumulative page misses charged to file *name*."""
        return self.misses_by_tag.get(name, 0)

    def _account(self, name: str, n_hits: int, n_misses: int) -> None:
        self.hits += n_hits
        self.misses += n_misses
        if n_hits:
            self.hits_by_tag[name] = self.hits_by_tag.get(name, 0) + n_hits
        if n_misses:
            self.misses_by_tag[name] = (
                self.misses_by_tag.get(name, 0) + n_misses)

    def contains(self, name: str, page: int) -> bool:
        state = self._files.get(name)
        page = int(page)
        return (state is not None and 0 <= page < len(state.resident)
                and bool(state.resident[page]))

    def resident_keys(self) -> List[Tuple[str, int]]:
        """All resident (file name, page) pairs in LRU order (oldest
        first) — observability/testing aid, not a hot path."""
        keys = self._lru.order()
        return [(self._file_list[f].name, int(p))
                for f, p in zip(self._key_fid[keys], self._key_page[keys])]

    # ------------------------------------------------------------------
    # Per-file state and key management
    # ------------------------------------------------------------------
    def _state(self, handle: FileHandle) -> _FileState:
        state = self._files.get(handle.name)
        if state is None:
            num_pages = handle.nbytes // self.page_size + 2
            state = _FileState(len(self._file_list), handle.name, num_pages)
            self._files[handle.name] = state
            self._file_list.append(state)
        return state

    def _keys_for(self, state: _FileState, pages: np.ndarray) -> np.ndarray:
        """Global LRU keys of *pages*, allocating keys on first touch."""
        keys = state.key_of[pages]
        missing = keys < 0
        n_new = int(missing.sum())
        if n_new:
            start = self._next_key
            self._next_key += n_new
            if self._next_key > len(self._key_fid):
                cap = max(self._next_key, 2 * len(self._key_fid), 1024)
                fid = np.empty(cap, dtype=np.int64)
                fid[:len(self._key_fid)] = self._key_fid
                page = np.empty(cap, dtype=np.int64)
                page[:len(self._key_page)] = self._key_page
                self._key_fid, self._key_page = fid, page
            self._lru.ensure_keys(self._next_key)
            new_keys = np.arange(start, self._next_key, dtype=np.int64)
            new_pages = pages[missing]
            state.key_of[new_pages] = new_keys
            self._key_fid[new_keys] = state.file_id
            self._key_page[new_keys] = new_pages
            keys[missing] = new_keys
        return keys

    def _evict_keys(self, keys: np.ndarray) -> None:
        """Clear per-file residency bits for evicted LRU keys."""
        if len(keys) == 0:
            return
        fids = self._key_fid[keys]
        if not (fids != fids[0]).any():
            # Single-file eviction run (the common churn shape): no
            # per-file grouping pass needed.
            state = self._file_list[fids[0]]
            state.resident[self._key_page[keys]] = False
            return
        for fid in sorted_unique(fids.copy()):
            state = self._file_list[fid]
            state.resident[self._key_page[keys[fids == fid]]] = False

    # ------------------------------------------------------------------
    def shrink_to_budget(self) -> None:
        """Drop LRU pages until the cache fits the current budget."""
        over = len(self._lru) - self.capacity_pages
        if over > 0:
            self._evict_keys(self._lru.popleft(over))
            self.evictions += over

    def invalidate_file(self, name: str) -> None:
        """Drop every cached page of *name* (e.g. file deleted).

        O(pages of the file) via the per-file page index, not O(cache).
        """
        state = self._files.get(name)
        if state is None:
            return
        pages = np.nonzero(state.resident)[0]
        if len(pages):
            self._lru.discard(state.key_of[pages])
            state.resident[pages] = False

    def flush(self) -> None:
        """Drop everything (echo 3 > drop_caches)."""
        for state in self._file_list:
            state.resident.fill(False)
        self._lru.clear()

    # ------------------------------------------------------------------
    def pages_for_range(self, offset: int, nbytes: int) -> np.ndarray:
        """Page ids covering the byte range."""
        if nbytes <= 0:
            return np.empty(0, dtype=np.int64)
        first = offset // self.page_size
        last = (offset + nbytes - 1) // self.page_size
        return np.arange(first, last + 1, dtype=np.int64)

    def pages_for_records(self, handle: FileHandle,
                          record_ids: np.ndarray) -> np.ndarray:
        """Unique page ids covering the given records of *handle*.

        Vectorized with a flat repeat/cumsum expansion: the temporary is
        sized by the *sum* of the per-record page spans, never by
        ``records x max_span`` — one huge record cannot blow memory up.
        """
        record_ids = sorted_unique(
            np.array(record_ids, dtype=np.int64).ravel())
        if len(record_ids) == 0:
            return np.empty(0, dtype=np.int64)
        first, last = self._record_page_spans(handle, record_ids)
        counts = last - first + 1
        total = int(counts.sum())
        flat_first = np.repeat(first, counts)
        offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts,
                                               counts)
        return sorted_unique(flat_first + offsets)

    def _record_page_spans(self, handle: FileHandle, record_ids: np.ndarray
                           ) -> Tuple[np.ndarray, np.ndarray]:
        """(first page, last page) per record."""
        rec = handle.record_nbytes
        starts = record_ids * rec
        first = starts // self.page_size
        last = (starts + rec - 1) // self.page_size
        return first, last

    # ------------------------------------------------------------------
    # Batched residency
    # ------------------------------------------------------------------
    def residency_mask(self, handle: FileHandle,
                       pages: np.ndarray) -> np.ndarray:
        """Per-page residency bits for *pages* of *handle* (no LRU
        refresh), as one vectorized lookup."""
        pages = np.asarray(pages, dtype=np.int64)
        state = self._files.get(handle.name)
        if state is None:
            return np.zeros(len(pages), dtype=bool)
        mask = np.zeros(len(pages), dtype=bool)
        in_range = (pages >= 0) & (pages < len(state.resident))
        mask[in_range] = state.resident[pages[in_range]]
        return mask

    def records_resident_mask(self, handle: FileHandle,
                              record_ids: np.ndarray) -> np.ndarray:
        """True per record iff *every* page the record touches is
        resident — the buffered-I/O fast-path test, vectorized with a
        prefix sum over the file's residency bits."""
        record_ids = np.asarray(record_ids, dtype=np.int64)
        state = self._files.get(handle.name)
        if state is None or len(record_ids) == 0:
            return np.zeros(len(record_ids), dtype=bool)
        first, last = self._record_page_spans(handle, record_ids)
        state.ensure_pages(int(last.max()) + 2)
        csum = np.concatenate(
            ([0], np.cumsum(state.resident, dtype=np.int64)))
        return csum[last + 1] - csum[first] == last - first + 1

    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Cross-check the per-file page indexes against the global LRU.

        Run by :class:`repro.analysis.SimSanitizer` at epoch boundaries;
        raises :class:`~repro.errors.SimulationError` on corruption.
        """
        from repro.errors import SimulationError

        self._lru.check_invariants()
        if len(self._lru) > self.capacity_pages:
            raise SimulationError(
                f"page cache holds {len(self._lru)} pages over its budget "
                f"of {self.capacity_pages}")
        bits = sum(int(s.resident.sum()) for s in self._file_list)
        if bits != len(self._lru):
            raise SimulationError(
                f"per-file residency bits ({bits}) disagree with the "
                f"global LRU size ({len(self._lru)})")
        for key in self._lru.order():
            fid = int(self._key_fid[key])
            page = int(self._key_page[key])
            state = self._file_list[fid]
            if not state.resident[page]:
                raise SimulationError(
                    f"LRU key {int(key)} maps to non-resident page "
                    f"{page} of {state.name!r}")
            if int(state.key_of[page]) != int(key):
                raise SimulationError(
                    f"key table of {state.name!r} page {page} points at "
                    f"{int(state.key_of[page])}, LRU says {int(key)}")

    # ------------------------------------------------------------------
    def access(self, handle: FileHandle, pages: np.ndarray) -> Timeout:
        """Touch *pages* of *handle*; returns the ready event.

        Hits cost a DRAM copy; misses queue page-sized device reads (all
        in flight at once: the kernel issues readahead-style batches).
        The event's value is ``(hit_count, miss_count)``.
        """
        pages = sorted_unique(np.array(pages, dtype=np.int64).ravel())
        state = self._state(handle)
        if len(pages):
            state.ensure_pages(int(pages[-1]) + 2)
        res = state.resident[pages]
        hit_pages = pages[res]
        miss_pages = pages[~res]

        if self.device.faults is not None and len(miss_pages):
            return self._access_faulty(handle, state, pages,
                                       hit_pages, miss_pages)
        self.last_dropped_pages = np.empty(0, dtype=np.int64)

        # LRU maintenance: refresh hits, then insert misses as MRU.
        self._lru.touch(self._keys_for(
            state, np.concatenate([hit_pages, miss_pages])))
        state.resident[miss_pages] = True
        self._account(handle.name, len(hit_pages), len(miss_pages))
        self.shrink_to_budget()

        copy_time = len(pages) * self.page_size / DRAM_COPY_BANDWIDTH
        if len(miss_pages):
            sizes = np.full(len(miss_pages), self.page_size, dtype=np.int64)
            done = self.device.submit_batch(sizes, io_depth=self.fault_depth,
                                            tag=handle.name)
            ready = float(done.max()) + copy_time
        else:
            ready = self.sim.now + copy_time
        return self.sim.timeout(max(0.0, ready - self.sim.now),
                                value=(len(hit_pages), len(miss_pages)))

    def _access_faulty(self, handle: FileHandle, state: _FileState,
                       pages: np.ndarray, hit_pages: np.ndarray,
                       miss_pages: np.ndarray) -> Timeout:
        """Miss path under an active fault plan: the page reads go
        through device-level retries, and pages whose retry budget ran
        out stay non-resident (recorded in :attr:`last_dropped_pages`
        for the caller to re-fault)."""
        sizes = np.full(len(miss_pages), self.page_size, dtype=np.int64)
        done, dropped = self.device.submit_reliable(
            sizes, io_depth=self.fault_depth, handle_name=handle.name,
            offsets=miss_pages * self.page_size)
        ok_pages = miss_pages[~dropped]
        self.last_dropped_pages = miss_pages[dropped]

        self._lru.touch(self._keys_for(
            state, np.concatenate([hit_pages, ok_pages])))
        state.resident[ok_pages] = True
        self._account(handle.name, len(hit_pages), len(miss_pages))
        self.shrink_to_budget()

        copy_time = len(pages) * self.page_size / DRAM_COPY_BANDWIDTH
        ready = float(done.max()) + copy_time
        return self.sim.timeout(max(0.0, ready - self.sim.now),
                                value=(len(hit_pages), len(miss_pages)))

    def access_range(self, handle: FileHandle, offset: int,
                     nbytes: int) -> Timeout:
        """Touch a byte range (buffered read / mmap fault path)."""
        handle.check_range(offset, nbytes)
        return self.access(handle, self.pages_for_range(offset, nbytes))

    def access_records(self, handle: FileHandle,
                       record_ids: np.ndarray) -> Timeout:
        """Touch every page covering *record_ids* (buffered record reads)."""
        return self.access(handle, self.pages_for_records(handle, record_ids))

    def warm(self, handle: FileHandle, pages: Optional[np.ndarray] = None) -> None:
        """Instantly mark pages resident (pre-faulted state for tests).

        Already-resident pages keep their LRU position (no refresh),
        matching buffered writes that find the page in cache.
        """
        if pages is None:
            pages = self.pages_for_range(0, handle.nbytes)
        pages = np.asarray(pages, dtype=np.int64)
        if len(pages):
            # Dedupe keeping first-occurrence order.
            _, idx = np.unique(pages, return_index=True)
            pages = pages[np.sort(idx)]
            state = self._state(handle)
            state.ensure_pages(int(pages.max()) + 2)
            fresh = pages[~state.resident[pages]]
            self._lru.add(self._keys_for(state, fresh))
            state.resident[fresh] = True
        self.shrink_to_budget()
