"""Builders: edge lists -> CSC, plus the usual graph transforms."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.graph.csc import CSCGraph


def csc_from_edges(src: np.ndarray, dst: np.ndarray, num_nodes: int,
                   dedup: bool = True) -> CSCGraph:
    """Build a CSC adjacency (in-neighbors per column) from directed edges.

    Parameters
    ----------
    src, dst:
        Edge endpoint arrays (edge ``src[i] -> dst[i]``).
    num_nodes:
        Total node count (isolated nodes allowed).
    dedup:
        Drop duplicate (src, dst) pairs, as dataset preprocessing does.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.shape != dst.shape or src.ndim != 1:
        raise ValueError("src and dst must be 1-D arrays of equal length")
    if len(src) and (min(src.min(), dst.min()) < 0
                     or max(src.max(), dst.max()) >= num_nodes):
        raise ValueError("edge endpoints out of range")

    # Sort by destination so each column's in-neighbors are contiguous.
    if dedup and len(src):
        # One sort of the packed (dst, src) key orders the edges and
        # brings duplicates together; keep the first of each run.
        key = dst * num_nodes
        key += src
        key.sort()
        key = key[np.concatenate(([True], key[1:] != key[:-1]))]
        dst, src = np.divmod(key, num_nodes)
    else:
        order = np.argsort(dst, kind="stable")
        src, dst = src[order], dst[order]
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(dst, minlength=num_nodes), out=indptr[1:])
    return CSCGraph(indptr, src)


def make_undirected(src: np.ndarray, dst: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Mirror every edge (social graphs like Twitter/Friendster)."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    return np.concatenate([src, dst]), np.concatenate([dst, src])


def add_self_loops(src: np.ndarray, dst: np.ndarray,
                   num_nodes: int) -> Tuple[np.ndarray, np.ndarray]:
    """Append i->i for every node (GCN normalisation expects them)."""
    loops = np.arange(num_nodes, dtype=np.int64)
    return (np.concatenate([np.asarray(src, dtype=np.int64), loops]),
            np.concatenate([np.asarray(dst, dtype=np.int64), loops]))
