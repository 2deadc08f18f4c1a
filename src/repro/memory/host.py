"""Host DRAM accounting with Linux-like free-memory-as-page-cache semantics.

All *pinned* consumers (anonymous process memory, staging buffers, Ginex's
caches, MariusGNN's partition buffer, model parameters) allocate through
:class:`HostMemory`.  Whatever is left over is the page cache's budget —
exactly how Linux sizes its page cache — so when the extract stage maps
large feature files, topology pages get evicted and sampling slows down.
That coupling is the paper's Figure 2 in mechanism form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.errors import DoubleFreeError, OutOfMemoryError


@dataclass
class Allocation:
    """A live pinned allocation; free it via :meth:`HostMemory.free`."""

    nbytes: int
    tag: str
    alloc_id: int
    freed: bool = False


@dataclass(frozen=True)
class TagUsage:
    """Per-tag pinned breakdown: total bytes and live allocation count."""

    nbytes: int
    count: int


class HostMemory:
    """A byte-budgeted host DRAM model.

    Parameters
    ----------
    capacity:
        Total physical bytes (the paper's default machine has 32 GB; the
        scaled datasets use a proportionally scaled budget).
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self._pinned = 0
        self._fault_pressure = 0
        self._next_id = 0
        self._live: Dict[int, Allocation] = {}
        self._by_tag: Dict[str, int] = {}
        #: Called after every pinned-size change, e.g. by the page cache to
        #: shrink itself under pressure.
        self._pressure_listeners: List[Callable[[], None]] = []
        self.peak_pinned = 0

    # ------------------------------------------------------------------
    @property
    def pinned_bytes(self) -> int:
        """Total bytes currently pinned by allocations."""
        return self._pinned

    @property
    def fault_pressure(self) -> int:
        """Bytes transiently claimed by an injected memory-pressure
        episode (an external consumer the accountant cannot evict)."""
        return self._fault_pressure

    @property
    def available(self) -> int:
        """Bytes available for new pinned allocations (incl. reclaimable cache)."""
        return self.capacity - self._pinned - self._fault_pressure

    def cache_budget(self) -> int:
        """Bytes the OS page cache may occupy right now (free memory)."""
        return max(0, self.capacity - self._pinned - self._fault_pressure)

    def usage_by_tag(self) -> Dict[str, int]:
        """Pinned bytes per allocation tag, for memory-footprint reports."""
        return dict(self._by_tag)

    def pinned_by_tag(self) -> Dict[str, TagUsage]:
        """Per-tag bytes *and* live-allocation counts.

        The richer form of :meth:`usage_by_tag` the sanitizer's leak
        reporter uses: a tag with a growing count across epochs names
        the component that allocates without freeing.
        """
        out: Dict[str, TagUsage] = {}
        counts: Dict[str, int] = {}
        for alloc in self._live.values():
            counts[alloc.tag] = counts.get(alloc.tag, 0) + 1
        for tag, nbytes in self._by_tag.items():
            out[tag] = TagUsage(nbytes, counts.get(tag, 0))
        return out

    # ------------------------------------------------------------------
    def allocate(self, nbytes: int, tag: str = "anon") -> Allocation:
        """Pin *nbytes*; raises :class:`OutOfMemoryError` on over-commit.

        Page cache contents do not block an allocation (the kernel reclaims
        clean pages); listeners are notified so caches can shrink.
        """
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ValueError(f"negative allocation: {nbytes}")
        if nbytes > self.available:
            raise OutOfMemoryError(nbytes, self.available, where="host")
        self._next_id += 1
        alloc = Allocation(nbytes, tag, self._next_id)
        self._live[alloc.alloc_id] = alloc
        self._pinned += nbytes
        self._by_tag[tag] = self._by_tag.get(tag, 0) + nbytes
        self.peak_pinned = max(self.peak_pinned, self._pinned)
        self._notify()
        return alloc

    def free(self, alloc: Allocation) -> None:
        """Release a pinned allocation.

        Freeing an already-freed allocation raises
        :class:`~repro.errors.DoubleFreeError`: silently ignoring it (or
        worse, double-crediting) would corrupt the byte accounting that
        the OOM-vs-fits results are computed from.
        """
        if alloc.freed:
            raise DoubleFreeError(alloc.alloc_id, alloc.tag, alloc.nbytes)
        if alloc.alloc_id not in self._live:
            raise KeyError(f"unknown allocation {alloc.alloc_id}")
        del self._live[alloc.alloc_id]
        self._pinned -= alloc.nbytes
        self._by_tag[alloc.tag] -= alloc.nbytes
        if self._by_tag[alloc.tag] == 0:
            del self._by_tag[alloc.tag]
        alloc.freed = True
        self._notify()

    def resize(self, alloc: Allocation, nbytes: int) -> None:
        """Grow or shrink a live allocation in place."""
        if alloc.freed:
            raise KeyError("resize of freed allocation")
        delta = int(nbytes) - alloc.nbytes
        if delta > self.available:
            raise OutOfMemoryError(delta, self.available, where="host")
        self._pinned += delta
        self._by_tag[alloc.tag] += delta
        alloc.nbytes = int(nbytes)
        self.peak_pinned = max(self.peak_pinned, self._pinned)
        self._notify()

    def set_fault_pressure(self, nbytes: int) -> None:
        """Set the injected external-pressure level (fault plane only).

        Pressure squeezes the page-cache budget and can make pinned
        allocation fail transiently; it is not itself pinned memory, so
        the leak accounting never sees it.  Listeners fire so caches
        shrink immediately.
        """
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ValueError(f"negative fault pressure: {nbytes}")
        self._fault_pressure = nbytes
        self._notify()

    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Structural accounting invariants (sanitizer epoch sweep)."""
        from repro.errors import SimulationError

        live_total = sum(a.nbytes for a in self._live.values())
        if live_total != self._pinned:
            raise SimulationError(
                f"pinned counter {self._pinned} != sum of live "
                f"allocations {live_total}")
        if self._pinned < 0:
            raise SimulationError(f"negative pinned bytes: {self._pinned}")
        by_tag: Dict[str, int] = {}
        for a in self._live.values():
            by_tag[a.tag] = by_tag.get(a.tag, 0) + a.nbytes
        if by_tag != {t: n for t, n in self._by_tag.items() if n}:
            raise SimulationError(
                f"tag table {self._by_tag} disagrees with live "
                f"allocations {by_tag}")
        if self._pinned > self.capacity:
            raise SimulationError(
                f"pinned {self._pinned} B exceeds budget "
                f"{self.capacity} B")
        if self._fault_pressure < 0:
            raise SimulationError(
                f"negative fault pressure: {self._fault_pressure}")

    # ------------------------------------------------------------------
    def add_pressure_listener(self, fn: Callable[[], None]) -> None:
        """Register a callback invoked after any pinned-size change."""
        self._pressure_listeners.append(fn)

    def _notify(self) -> None:
        for fn in self._pressure_listeners:
            fn()
