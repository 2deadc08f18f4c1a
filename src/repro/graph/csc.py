"""CSC adjacency matrix: the topology format every system samples from.

For node ``v``, its in-neighbors are ``indices[indptr[v]:indptr[v+1]]``.
The paper keeps ``indptr`` in host memory (< 1 GB even at full scale) and
stores ``indices`` on the SSD; samplers fault index pages through the OS
page cache.  :class:`CSCGraph` is the in-memory view used by the data
plane; the on-SSD placement is handled by the dataset bundle.
"""

from __future__ import annotations

import numpy as np


class CSCGraph:
    """Immutable CSC topology with vectorized neighbor queries."""

    def __init__(self, indptr: np.ndarray, indices: np.ndarray,
                 num_nodes: int | None = None):
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        if indptr.ndim != 1 or indices.ndim != 1:
            raise ValueError("indptr and indices must be 1-D")
        if len(indptr) < 1:
            raise ValueError("indptr must have at least one entry")
        if indptr[0] != 0 or indptr[-1] != len(indices):
            raise ValueError("indptr must start at 0 and end at len(indices)")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        n = len(indptr) - 1
        if num_nodes is not None and num_nodes != n:
            raise ValueError(f"num_nodes={num_nodes} but indptr implies {n}")
        if len(indices) and (indices.min() < 0 or indices.max() >= n):
            raise ValueError("indices refer to out-of-range nodes")
        self.indptr = indptr
        self.indices = indices

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        return len(self.indices)

    def in_degree(self, nodes: np.ndarray | None = None) -> np.ndarray:
        """In-degree per node (all nodes if *nodes* is None)."""
        deg = np.diff(self.indptr)
        return deg if nodes is None else deg[np.asarray(nodes, dtype=np.int64)]

    def neighbors(self, v: int) -> np.ndarray:
        """In-neighbors of one node (a view, do not mutate)."""
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def __repr__(self) -> str:  # pragma: no cover
        return f"CSCGraph(n={self.num_nodes}, m={self.num_edges})"
