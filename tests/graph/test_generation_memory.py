"""Dataset generation peaks in bounded memory.

``tracemalloc`` sees numpy's data buffers, so the peak it reports
covers every array a generator allocates.  The whole-array feature
generator peaked at 4.0x the feature table; the topology step of the
edge-list build (``planted_partition_edges`` then ``csc_from_edges``)
at 5.35 edge arrays, and its ``csc_from_edges(dedup=True)`` at 2.98
edge arrays beyond its inputs (docs/architecture.md §3.4).
"""

import tracemalloc

import numpy as np
import pytest

from repro.graph import (
    csc_from_edges,
    csc_from_keys,
    planted_features_and_labels,
    planted_partition_edges,
    planted_partition_keys,
)
from repro.graph.labels import BLOCK_BYTES

NUM_NODES = 20_000
DIM = 256
NUM_CLASSES = 50
NUM_EDGES = 300_000
EDGE_BYTES = NUM_EDGES * 8


def traced_peak(fn, *args, **kwargs):
    """``fn``'s result and the peak bytes it had allocated at once."""
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_features_peak_at_table_plus_two_blocks():
    comm = np.random.default_rng(0).integers(0, NUM_CLASSES, NUM_NODES)
    (feats, labels), peak = traced_peak(
        planted_features_and_labels, comm, DIM, np.random.default_rng(1))
    block = max(1, BLOCK_BYTES // (8 * DIM)) * DIM * 8
    centroids = NUM_CLASSES * DIM * 8
    assert peak <= feats.nbytes + labels.nbytes + 2 * block + centroids


def topology_step(rng):
    """``make_dataset``'s topology step: draw the keys, build the CSC."""
    keys, communities = planted_partition_keys(NUM_NODES, NUM_EDGES,
                                               NUM_CLASSES, rng)
    return csc_from_keys(keys, NUM_NODES), communities


def test_topology_step_peaks_at_two_edge_arrays():
    # The key buffer, the in-community mask, a few chunk temporaries
    # and the node-length arrays: 1.83 edge arrays when this was written.
    (graph, _), peak = traced_peak(topology_step, np.random.default_rng(2))
    assert graph.num_edges > 0.9 * NUM_EDGES
    assert peak <= 2 * EDGE_BYTES


#: Edge arrays ``csc_from_edges`` may allocate beyond its inputs: the
#: packed keys, built in place (1.23 measured), or the stable argsort
#: and its two gathers (3.14 measured).
BUILD_BOUNDS = {True: 1.4, False: 3.5}


@pytest.mark.parametrize("dedup", [True, False])
def test_csc_build_peak_beyond_its_inputs(dedup):
    src, dst, _ = planted_partition_edges(NUM_NODES, NUM_EDGES, NUM_CLASSES,
                                          np.random.default_rng(3))
    _, peak = traced_peak(csc_from_edges, src, dst, NUM_NODES, dedup=dedup)
    assert peak <= BUILD_BOUNDS[dedup] * EDGE_BYTES


def test_indices_own_only_their_kept_entries():
    # 300 000 edges over 100 nodes keep at most 10 000 distinct pairs;
    # a view of the whole key buffer would keep 2.4 MB alive.
    rng = np.random.default_rng(4)
    src = rng.integers(0, 100, NUM_EDGES)
    dst = rng.integers(0, 100, NUM_EDGES)
    tracemalloc.start()
    try:
        graph = csc_from_edges(src, dst, 100)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert graph.indices.base is None
    assert graph.num_edges <= 100 * 100
    assert retained <= graph.indices.nbytes + graph.indptr.nbytes + 4096
