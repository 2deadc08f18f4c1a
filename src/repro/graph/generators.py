"""Synthetic graph generator with the degree skew of the paper's datasets.

``planted_partition_keys`` draws every registry dataset's edges.  It
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

from repro.graph.build import edge_chunks


def _skewed(rng: np.random.Generator, size: int, span) -> np.ndarray:
    """*size* float64 positions in [0, span) with a power-law bias toward 0."""
    u = rng.random(size)
    np.square(u, out=u)
    u *= span
    return u


def _pack(keys: np.ndarray, dst: np.ndarray, mask: np.ndarray,
          num_nodes: int) -> None:
    """Where *mask* holds, turn the source in *keys* into ``dst * n + src``.

    A self-loop's destination moves to the next node, ``(dst + 1) % n``.
    Entries outside *mask* are left as they are, whatever they hold.
    """
    dst += keys == dst
    np.copyto(dst, 0, where=dst == num_nodes)
    dst *= num_nodes
    dst += keys
    np.copyto(keys, dst, where=mask)


def planted_partition_keys(num_nodes: int, num_edges: int, num_classes: int,
                           rng: np.random.Generator,
                           homophily: float = 0.8,
                           ) -> Tuple[np.ndarray, np.ndarray]:
    """Community graph: a *homophily* fraction of edges stay in-community.

    Returns ``(keys, communities)``: edge *i*, ``src -> dst``, is the
    int64 key ``keys[i] = dst * num_nodes + src``, and
    ``communities[v]`` is the planted class of node *v*.  Endpoint
    choice within/across communities is preferential-attachment-free
    but degree-skewed via a Zipf-ish position bias, keeping some hubs
    like real graphs.

    The four uniform streams (sources, the in-community coin,
    in-community and out-of-community destinations) are each drawn in
    :func:`~repro.graph.build.edge_chunks`, one stream after the other,
    exactly as four whole-array draws would be.  Besides the keys and an
    edge-length bool mask, only a few chunk-length temporaries are live.
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
    del sorted_comm

    keys = np.empty(num_edges, dtype=np.int64)
    in_comm = np.empty(num_edges, dtype=bool)
    # Sources: ``keys`` holds each edge's source until its destination
    # is drawn.
    for a, b in edge_chunks(num_edges):
        np.take(order, _skewed(rng, b - a, num_nodes).astype(np.int64),
                out=keys[a:b])
    # Which edges stay in their source's community.
    for a, b in edge_chunks(num_edges):
        np.less(rng.random(b - a), homophily, out=in_comm[a:b])
    # In-community destinations; each temporary is dropped once dead.
    for a, b in edge_chunks(num_edges):
        comm_of_src = communities[keys[a:b]]
        lo = starts[comm_of_src]
        hi = ends[comm_of_src]
        del comm_of_src
        np.maximum(hi, lo + 1, out=hi)
        u = _skewed(rng, b - a, hi - lo)
        u += lo
        del lo
        within = u.astype(np.int64)
        del u
        dst = order[np.minimum(within, hi - 1, out=within)]
        del within, hi
        _pack(keys[a:b], dst, in_comm[a:b], num_nodes)
    # Out-of-community destinations.
    for a, b in edge_chunks(num_edges):
        dst = order[_skewed(rng, b - a, num_nodes).astype(np.int64)]
        _pack(keys[a:b], dst, ~in_comm[a:b], num_nodes)
    return keys, communities


def planted_partition_edges(num_nodes: int, num_edges: int, num_classes: int,
                            rng: np.random.Generator,
                            homophily: float = 0.8,
                            ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`planted_partition_keys` as ``(src, dst, communities)``."""
    keys, communities = planted_partition_keys(
        num_nodes, num_edges, num_classes, rng, homophily=homophily)
    dst, src = np.divmod(keys, num_nodes)
    return src, dst, communities
