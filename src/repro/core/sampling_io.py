"""The sample stage and its page-fault accounting.

Every system samples through the memory-mapped CSC index array (§4.4:
GNNDrive "does memory-mapped sampling like PyG+"); this module turns a
hop frontier into the set of 4 KiB index-array pages the hop faults, so
the page-cache model can charge hits/misses — the channel through which
the extract stage's memory pressure slows sampling down (Fig. 2).
:func:`sample_step` is the sample step of GNNDrive, PyG+, the in-memory
reference and the serve worker (Ginex and MariusGNN sample through
their own caches), and :func:`fault_records` the mmap-style feature
extraction PyG+ and the synchronous serving backend share.

A frontier node's adjacency run is read straight from ``graph.indptr``.
Most runs lie within two pages, and then the runs' first and last pages
are all the pages the hop touches; only a hop with a longer run (a hub)
pays for the full per-page expansion.
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from repro.arrays import sorted_unique
from repro.faults.recovery import MAX_RETRIES, backoff_delay
from repro.graph.csc import CSCGraph
from repro.graph.datasets import DiskDataset
from repro.sampling.neighbor import NeighborSampler
from repro.storage.files import FileHandle
from repro.storage.page_cache import PageCache

#: CSC index entries are int64.
INDEX_ITEMSIZE = 8


def frontier_pages(cache: PageCache, graph: CSCGraph,
                   frontier: np.ndarray) -> np.ndarray:
    """Unique index-array pages covering the adjacency runs of *frontier*.

    Node ``v``'s run is ``graph.indptr[v]:graph.indptr[v + 1]``.  When
    every non-empty run lies within two pages (the common case), the
    runs' first and last pages are all the pages.  Otherwise a flat
    repeat/cumsum expansion lists every page of every run; its
    temporary is sized by the *sum* of the per-node page spans, so one
    hub node spanning many pages cannot force a ``frontier x max_span``
    allocation.
    """
    frontier = np.asarray(frontier, dtype=np.int64)
    lo = graph.indptr[frontier]
    hi = graph.indptr[frontier + 1]
    nonempty = hi > lo
    if not nonempty.all():
        lo, hi = lo[nonempty], hi[nonempty]
    if not len(lo):
        return np.empty(0, dtype=np.int64)
    page = cache.page_size
    first = lo * INDEX_ITEMSIZE // page
    last = (hi * INDEX_ITEMSIZE - 1) // page
    spans = last - first
    if spans.max() <= 1:
        pages = np.concatenate((first, last))
    else:
        counts = spans + 1
        offsets = (np.arange(int(counts.sum()))
                   - (counts.cumsum() - counts).repeat(counts))
        pages = first.repeat(counts) + offsets
    return sorted_unique(pages)


def page_access_with_retry(machine, cache: PageCache, handle: FileHandle,
                           pages: np.ndarray):
    """Fault a page set with bounded retries on injected read errors.

    Use as ``value = yield from page_access_with_retry(...)`` inside a
    process.  Pages whose device reads exhausted the *device-level*
    retry budget (:attr:`PageCache.last_dropped_pages`) are re-faulted
    after a process-level backoff — a second, coarser retry ring, like a
    faulting thread re-entering the kernel after ``-EIO``.  Pages still
    failing after the process budget are abandoned (the ledger already
    counted them dropped).  Without an active fault plan this is exactly
    ``machine.io_wait(cache.access(...))``.
    """
    ev = cache.access(handle, pages)
    if machine.faults is None:
        value = yield from machine.io_wait(ev)
        return value
    dropped = cache.last_dropped_pages
    value = yield from machine.io_wait(ev)
    ledger = machine.faults.ledger
    attempt = 0
    while len(dropped) and attempt < MAX_RETRIES:
        delay = backoff_delay(attempt)
        ledger.sampler_retries += 1
        ledger.backoff_time += delay
        yield machine.sim.timeout(delay)
        ev = cache.access(handle, dropped)
        dropped = cache.last_dropped_pages
        yield from machine.io_wait(ev)
        attempt += 1
    return value


def topo_access_with_retry(machine, cache: PageCache, handle: FileHandle,
                           graph: CSCGraph, frontier: np.ndarray):
    """Fault one hop's adjacency pages (:func:`frontier_pages`) through
    :func:`page_access_with_retry`."""
    value = yield from page_access_with_retry(
        machine, cache, handle, frontier_pages(cache, graph, frontier))
    return value


def fault_records(machine, handle: FileHandle,
                  records: np.ndarray) -> Generator:
    """Synchronous mmap-style extraction: fault the pages holding
    *records* of *handle* through :func:`page_access_with_retry`."""
    cache = machine.page_cache
    yield from page_access_with_retry(
        machine, cache, handle, cache.pages_for_records(handle, records))


def sample_step(machine, dataset: DiskDataset, sampler: NeighborSampler,
                seeds: np.ndarray, factor: float = 1.0,
                resident: bool = False) -> Generator:
    """One sample stage: draw the subgraph of *seeds*, fault each hop's
    topology pages (none when the topology is *resident*), then charge
    the sampling arithmetic on a CPU core, scaled by *factor* (a slow
    replica's degradation; 1.0 is exact).

    Use as ``sub = yield from sample_step(...)`` inside a process.
    """
    sub = sampler.sample(seeds)  # data plane (instant)
    if not resident:
        for frontier in sub.hop_frontiers:
            yield from topo_access_with_retry(
                machine, machine.page_cache, dataset.topo_handle,
                dataset.graph, frontier)
    yield from machine.cpu_task(machine.cpu_cost.sample_compute_time(
        sum(len(f) for f in sub.hop_frontiers), sub.total_edges()) * factor)
    return sub
