"""Uniform k-hop neighbor sampling over CSC topology, fully vectorized.

For each hop, every frontier node with non-zero in-degree draws ``fanout``
neighbors uniformly *with replacement* (multi-edges act as weights in the
mean aggregation, the standard trick that keeps the sampler allocation-
free).  The paper's default is 3-hop (10, 10, 10) for GraphSAGE/GCN and
(10, 10, 5) for GAT.

One pass of :meth:`NeighborSampler.sample` produces everything the rest
of the mini-batch path reads:

* **Relabelling through a position map.**  One int64 array per graph,
  ``num_nodes`` long, maps a global id to its position in the call's
  growing node set and holds -1 outside a call.  A hop looks its draws
  up in it, appends the unmapped ids in sorted order, maps them, and
  looks the draws up again.  A ``finally`` clause resets every entry
  the call wrote, so a call that raises leaves the map clean for the
  next one.  ``sample`` never yields, so no two calls overlap, and
  every sampler of a graph (a system's sampler threads, its evaluation
  sampler, a server's workers) shares the one map; it lives as long as
  the graph.
* **The aggregation operator's structure.**  Every active row of a hop
  holds exactly ``fanout`` draws, so sorting each row's block and
  merging repeats gives the canonical CSR structure that
  :meth:`~repro.sampling.subgraph.LayerAdj._csr` would build: int32
  ``indptr`` and ``indices`` plus the number of draws merged into each
  entry.  Every draw of a row carries the same float32 weight, so the
  merged weight of *k* draws is a lookup into a table of sequential
  float32 sums (see :class:`~repro.sampling.subgraph.CSRStructure`).
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Sequence

import numpy as np

from repro.arrays import sorted_unique
from repro.graph.csc import CSCGraph
from repro.sampling.subgraph import CSRStructure, LayerAdj, SampledSubgraph


def sequential_sums(weight: np.float32, n: int) -> np.ndarray:
    """``S[k]`` = *weight* added *k* times in float32, for k in [0, n].

    The order is the one ``LayerAdj._csr`` (and scipy's
    ``csr_sum_duplicates``) uses to merge a row's repeated entries:
    ``((w + w) + w) + ...``.
    """
    sums = np.zeros(n + 1, dtype=np.float32)
    for k in range(1, n + 1):
        sums[k] = sums[k - 1] + weight
    return sums


#: Each graph's position map, shared by all of its samplers.
_POSITION_MAPS: weakref.WeakKeyDictionary[CSCGraph, np.ndarray] = (
    weakref.WeakKeyDictionary())


def _position_map(graph: CSCGraph) -> np.ndarray:
    """*graph*'s position map, all -1 outside a ``sample`` call."""
    pos = _POSITION_MAPS.get(graph)
    if pos is None:
        pos = np.full(graph.num_nodes, -1, dtype=np.int64)
        _POSITION_MAPS[graph] = pos
    return pos


class NeighborSampler:
    """An RNG stream over a graph; one instance per sampler thread."""

    def __init__(self, graph: CSCGraph, fanouts: Sequence[int],
                 rng: np.random.Generator):
        if not fanouts or any(f < 1 for f in fanouts):
            raise ValueError(f"fanouts must be positive, got {fanouts}")
        self.graph = graph
        self.fanouts = tuple(int(f) for f in fanouts)
        self.rng = rng
        #: Global id -> position in the current call's node set; -1
        #: outside a call.  Shared with every other sampler of *graph*.
        self._pos = _position_map(graph)
        #: Per fanout: a mean row's merged weight, by multiplicity.
        self._mean_sums: Dict[int, np.ndarray] = {
            f: sequential_sums(np.float32(1) / np.float32(f), f)
            for f in self.fanouts}

    # ------------------------------------------------------------------
    def sample(self, seeds: np.ndarray) -> SampledSubgraph:
        """Sample the computation graph for one mini-batch of *seeds*.

        Raises ``ValueError`` on an empty seed set or on a seed outside
        ``[0, num_nodes)``.
        """
        seeds = sorted_unique(np.array(seeds, dtype=np.int64).ravel())
        if len(seeds) == 0:
            raise ValueError("empty seed set")
        graph, pos = self.graph, self._pos
        if seeds[0] < 0 or seeds[-1] >= graph.num_nodes:
            bad = seeds[(seeds < 0) | (seeds >= graph.num_nodes)]
            raise ValueError(f"seed ids outside [0, {graph.num_nodes}): "
                             f"{bad.tolist()}")

        node_set = seeds                     # N_0
        layers_rev: List[LayerAdj] = []      # collected outermost-first
        frontiers: List[np.ndarray] = []
        try:
            pos[seeds] = np.arange(len(seeds))
            for fanout in self.fanouts:
                frontiers.append(node_set)
                num_dst = len(node_set)
                starts = graph.indptr[node_set]
                degs = graph.indptr[node_set + 1] - starts
                active = degs.nonzero()[0]
                if not len(active):
                    empty = np.empty(0, dtype=np.int64)
                    layers_rev.append(LayerAdj(
                        empty, empty, num_dst, num_dst,
                        self._structure(empty, active, num_dst, fanout)))
                    continue

                # Uniform with replacement: positions into graph.indices.
                offsets = (self.rng.random((len(active), fanout))
                           * degs[active, None]).astype(np.int64)
                src_global = graph.indices[starts[active, None]
                                           + offsets].ravel()

                # Inner node set: outer set first (prefix), then the
                # unmapped draws, sorted and deduplicated.  It becomes
                # ``node_set`` before the map is written, so the
                # ``finally`` below resets every entry written.
                fresh = sorted_unique(src_global[pos[src_global] < 0])
                node_set = np.concatenate((node_set, fresh))
                pos[fresh] = np.arange(num_dst, len(node_set))
                src_pos = pos[src_global]
                layers_rev.append(LayerAdj(
                    src_pos, active.repeat(fanout), len(node_set), num_dst,
                    self._structure(src_pos, active, num_dst, fanout)))
        finally:
            pos[node_set] = -1

        return SampledSubgraph(
            seeds=seeds,
            all_nodes=node_set,
            layers=layers_rev[::-1],         # innermost first
            hop_frontiers=frontiers,
        )

    def _structure(self, src_pos: np.ndarray, active: np.ndarray,
                   num_dst: int, fanout: int) -> CSRStructure:
        """The canonical CSR structure of one hop's draws.

        Row ``active[i]`` holds draws ``src_pos[i*fanout:(i+1)*fanout]``;
        every other row is empty.  ``head`` marks the first entry of
        each run of equal positions within a row, plus a sentinel past
        the end, so its nonzeros bound every run.
        """
        block = src_pos.astype(np.int32)
        block.shape = (len(active), fanout)
        block.sort(axis=1)
        block = block.ravel()
        size = len(block)
        head = np.empty(size + 1, dtype=bool)
        np.not_equal(block[1:], block[:-1], out=head[1:size])
        head[:size:fanout] = True
        head[size] = True
        bounds = head.nonzero()[0]
        runs = bounds[:-1]
        indptr = np.zeros(num_dst + 1, dtype=np.int32)
        indptr[active + 1] = head[:size].reshape(-1, fanout).sum(axis=1)
        indptr.cumsum(out=indptr)
        return CSRStructure(indptr, block[runs], bounds[1:] - runs,
                            self._mean_sums[fanout])
