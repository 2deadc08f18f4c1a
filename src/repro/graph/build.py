"""Builders: edge lists -> CSC, plus the usual graph transforms."""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from repro.graph.csc import CSCGraph

#: Edges per chunk of the generator's draws and of the in-place dedup:
#: each chunk temporary is 256 KB of int64 or float64.
CHUNK_EDGES = 32_768


def edge_chunks(num_edges: int) -> Iterator[Tuple[int, int]]:
    """``(start, stop)`` of each :data:`CHUNK_EDGES`-long slice, in order."""
    for start in range(0, num_edges, CHUNK_EDGES):
        yield start, min(start + CHUNK_EDGES, num_edges)


def _drop_repeats(keys: np.ndarray) -> int:
    """Move the first of each run of equal sorted *keys* to the front.

    Works chunk by chunk in place and returns how many keys it kept.
    The write position never passes the chunk being read, and each
    chunk's kept keys are copied out before they are written back.
    """
    kept = 0
    last = None
    for a, b in edge_chunks(len(keys)):
        chunk = keys[a:b]
        head = np.empty(b - a, dtype=bool)
        head[0] = a == 0 or chunk[0] != last
        np.not_equal(chunk[1:], chunk[:-1], out=head[1:])
        last = chunk[-1]
        firsts = chunk[head]
        keys[kept:kept + len(firsts)] = firsts
        kept += len(firsts)
    return kept


def csc_from_keys(keys: np.ndarray, num_nodes: int) -> CSCGraph:
    """Build a CSC adjacency from packed keys ``dst * num_nodes + src``.

    Duplicate keys are dropped.  *keys* is consumed: an int64 array that
    owns its data and has no views, sorted, compacted, shrunk and decoded
    in place into the returned graph's ``indices``, so the build needs
    no second edge-length array and the result holds only the kept
    entries.
    """
    # One sort orders the edges by destination (then source) and brings
    # duplicates together.
    keys.sort()
    # The reference check would also count the caller's own name for
    # *keys*, which stays valid; only a view would not, and none exists.
    keys.resize(_drop_repeats(keys), refcheck=False)
    indptr = np.searchsorted(
        keys, np.arange(num_nodes + 1, dtype=np.int64) * num_nodes)
    np.remainder(keys, num_nodes, out=keys)
    return CSCGraph(indptr, keys)


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

    if dedup:
        key = dst * num_nodes
        key += src
        return csc_from_keys(key, num_nodes)
    # Sort by destination so each column's in-neighbors are contiguous.
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
