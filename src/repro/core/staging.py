"""Host staging buffer (§4.2 "Reduced Memory Footprint").

The staging buffer is the only host-memory footprint of the extract
stage: loads land here before the asynchronous PCIe hop to the feature
buffer.  Its size is "bounded by the number of extractors and the number
of features to be loaded to GPU for each extractor", so it shrinks or
grows with the extractor count — the knob GNNDrive uses to cap the
extract stage's memory pressure on sampling.

For multi-GPU runs the buffer is shared among subprocesses in fixed
portions with temporary overflow borrowing (§4.3).
"""

from __future__ import annotations

from typing import Dict

from repro.errors import OutOfMemoryError
from repro.memory.host import Allocation, HostMemory


class StagingBuffer:
    """Accounting for the pinned host staging area."""

    def __init__(self, host: HostMemory, num_extractors: int,
                 max_batch_nodes: int, io_size: int,
                 num_portions: int = 1):
        if num_extractors < 1 or max_batch_nodes < 1 or io_size < 1:
            raise ValueError("staging parameters must be positive")
        if num_portions < 1:
            raise ValueError("num_portions must be >= 1")
        self.host = host
        self.num_extractors = num_extractors
        self.max_batch_nodes = max_batch_nodes
        self.io_size = int(io_size)
        self.capacity = num_extractors * max_batch_nodes * self.io_size
        self.num_portions = num_portions
        self.portion_capacity = self.capacity // num_portions
        self._alloc: Allocation = host.allocate(self.capacity, tag="staging")
        self._in_use: Dict[int, int] = {p: 0 for p in range(num_portions)}
        self.peak_in_use = 0

    # ------------------------------------------------------------------
    def reserve(self, nodes: int, portion: int = 0) -> int:
        """Claim staging space for a mini-batch's loads.

        Returns the bytes claimed.  If the portion is exhausted, borrows
        from the least-loaded other portion (§4.3: "temporarily ask for
        extra space"); raises if the whole buffer cannot fit the batch —
        which the Ne x Mb sizing rules out for conforming batches.
        """
        need = nodes * self.io_size
        total_used = sum(self._in_use.values())
        if total_used + need > self.capacity:
            raise OutOfMemoryError(need, self.capacity - total_used,
                                   where="staging")
        self._in_use[portion] += need
        self.peak_in_use = max(self.peak_in_use, total_used + need)
        return need

    def free(self, nodes: int, portion: int = 0) -> None:
        need = nodes * self.io_size
        if self._in_use.get(portion, 0) < need:
            raise ValueError("freeing more staging space than reserved")
        self._in_use[portion] -= need

    def portion_nodes(self, portion: int = 0) -> int:
        """Nodes' worth of space *portion* holds reserved."""
        return self._in_use[portion] // self.io_size

    @property
    def in_use(self) -> int:
        return sum(self._in_use.values())

    def close(self) -> None:
        """Return the pinned memory to the host."""
        self.host.free(self._alloc)
