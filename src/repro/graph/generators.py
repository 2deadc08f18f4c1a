"""Synthetic graph generator with the degree skew of the paper's datasets.

``planted_partition_edges`` draws every registry dataset's edges.  It
injects community structure (homophily) so the planted labels of
:mod:`repro.graph.labels` are *learnable by a GNN*: neighbors mostly
share a community, hence aggregation is informative and
time-to-accuracy curves (Fig. 14) are meaningful.  Endpoints are drawn
at squared-uniform positions, a power-law bias toward low positions
that gives the heavy-tailed in-degrees of citation and social graphs
(Papers100M, Twitter, Friendster).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def planted_partition_edges(num_nodes: int, num_edges: int, num_classes: int,
                            rng: np.random.Generator,
                            homophily: float = 0.8,
                            ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Community graph: a *homophily* fraction of edges stay in-community.

    Returns ``(src, dst, communities)`` where ``communities[v]`` is the
    planted class of node *v*.  Endpoint choice within/across communities
    is preferential-attachment-free but degree-skewed via a Zipf-ish
    position bias, keeping some hubs like real graphs.
    """
    if not 0.0 <= homophily <= 1.0:
        raise ValueError("homophily must be in [0, 1]")
    if num_classes < 1 or num_classes > num_nodes:
        raise ValueError("num_classes must be in [1, num_nodes]")
    communities = rng.integers(0, num_classes, size=num_nodes)
    order = np.argsort(communities, kind="stable")
    # Nodes grouped by community; boundaries for sampling within groups.
    sorted_comm = communities[order]
    starts = np.searchsorted(sorted_comm, np.arange(num_classes))
    ends = np.searchsorted(sorted_comm, np.arange(num_classes), side="right")

    # Intermediates are computed in place and dropped once dead, so at
    # most about five edge-length arrays are live at a time.
    def skewed_nodes():
        """Nodes at positions in [0, n) with a power-law bias toward 0."""
        u = rng.random(num_edges)
        np.square(u, out=u)
        u *= num_nodes
        pos = u.astype(np.int64)
        del u
        return order[pos]

    src = skewed_nodes()
    in_comm = rng.random(num_edges) < homophily
    comm_of_src = communities[src]
    lo = starts[comm_of_src]
    hi = ends[comm_of_src]
    del comm_of_src
    np.maximum(hi, lo + 1, out=hi)
    u = rng.random(num_edges)
    np.square(u, out=u)
    u *= hi - lo
    u += lo
    within = u.astype(np.int64)
    del u, lo
    dst = order[np.minimum(within, hi - 1, out=within)]
    del within, hi
    np.copyto(dst, skewed_nodes(), where=~in_comm)
    self_loop = src == dst
    dst[self_loop] = (dst[self_loop] + 1) % num_nodes
    return src, dst, communities
