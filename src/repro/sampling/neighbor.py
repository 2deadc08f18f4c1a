"""Uniform k-hop neighbor sampling over CSC topology, fully vectorized.

For each hop, every frontier node with non-zero in-degree draws ``fanout``
neighbors uniformly *with replacement* (multi-edges act as weights in the
mean aggregation, the standard trick that keeps the sampler allocation-
free).  The paper's default is 3-hop (10, 10, 10) for GraphSAGE/GCN and
(10, 10, 5) for GAT.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.graph.csc import CSCGraph
from repro.sampling.subgraph import LayerAdj, SampledSubgraph


class NeighborSampler:
    """Stateless besides its RNG stream; one instance per sampler thread."""

    def __init__(self, graph: CSCGraph, fanouts: Sequence[int],
                 rng: np.random.Generator):
        if not fanouts or any(f < 1 for f in fanouts):
            raise ValueError(f"fanouts must be positive, got {fanouts}")
        self.graph = graph
        self.fanouts = tuple(int(f) for f in fanouts)
        self.rng = rng

    @property
    def num_hops(self) -> int:
        return len(self.fanouts)

    # ------------------------------------------------------------------
    def _draw(self, active_pos: np.ndarray, starts: np.ndarray,
              ends: np.ndarray, fanout: int) -> np.ndarray:
        """Positions into ``graph.indices`` for the sampled neighbors.

        Uniform with replacement.
        """
        degs = ends - starts
        offsets = (self.rng.random((len(active_pos), fanout))
                   * degs[active_pos, None]).astype(np.int64)
        return starts[active_pos, None] + offsets

    # ------------------------------------------------------------------
    def sample(self, seeds: np.ndarray) -> SampledSubgraph:
        """Sample the computation graph for one mini-batch of *seeds*."""
        seeds = np.unique(np.asarray(seeds, dtype=np.int64))
        if len(seeds) == 0:
            raise ValueError("empty seed set")
        graph = self.graph

        node_set = seeds                     # N_0
        layers_rev: List[LayerAdj] = []      # collected outermost-first
        frontiers: List[np.ndarray] = []

        for fanout in self.fanouts:
            frontiers.append(node_set)
            starts, ends = graph.neighbor_slices(node_set)
            degs = ends - starts
            has_nb = degs > 0
            n_active = int(has_nb.sum())

            if n_active:
                active_pos = np.nonzero(has_nb)[0]
                gather = self._draw(active_pos, starts, ends, fanout)
                sampled = graph.indices[gather]            # global ids
                dst_pos = np.repeat(active_pos, fanout)
                src_global = sampled.reshape(-1)
            else:
                dst_pos = np.empty(0, dtype=np.int64)
                src_global = np.empty(0, dtype=np.int64)

            # Inner node set: outer set first (prefix), then new nodes.
            new_nodes = np.setdiff1d(src_global, node_set, assume_unique=False)
            inner = np.concatenate([node_set, new_nodes])
            # Map sampled global ids to positions in `inner`.
            order = np.argsort(inner, kind="stable")
            src_pos = order[np.searchsorted(inner, src_global, sorter=order)]
            layers_rev.append(LayerAdj(
                src_pos=src_pos.astype(np.int64),
                dst_pos=dst_pos.astype(np.int64),
                num_src=len(inner),
                num_dst=len(node_set),
            ))
            node_set = inner

        return SampledSubgraph(
            seeds=seeds,
            all_nodes=node_set,
            layers=list(reversed(layers_rev)),  # innermost first
            hop_frontiers=frontiers,
        )
