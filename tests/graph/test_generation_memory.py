"""Dataset generation peaks in bounded memory.

``tracemalloc`` sees numpy's data buffers, so the peak it reports
covers every array a generator allocates.  The whole-array generators
these bounds replaced peaked at 4.0x the feature table, 12.3x and 9.6x
the edge bytes (docs/architecture.md §3.4).
"""

import tracemalloc

import numpy as np
import pytest

from repro.graph import (
    csc_from_edges,
    planted_features_and_labels,
    planted_partition_edges,
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


def test_edges_peak_at_seven_edge_arrays():
    _, peak = traced_peak(planted_partition_edges, NUM_NODES, NUM_EDGES,
                          NUM_CLASSES, np.random.default_rng(2))
    assert peak <= 7 * EDGE_BYTES


@pytest.mark.parametrize("dedup", [True, False])
def test_csc_build_peaks_at_seven_edge_arrays(dedup):
    src, dst, _ = planted_partition_edges(NUM_NODES, NUM_EDGES, NUM_CLASSES,
                                          np.random.default_rng(3))
    _, peak = traced_peak(csc_from_edges, src, dst, NUM_NODES, dedup=dedup)
    # The caller's src and dst stay live for the whole build.
    assert peak + src.nbytes + dst.nbytes <= 7 * EDGE_BYTES
