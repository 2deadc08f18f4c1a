"""Dataset generation is byte-identical to the whole-array reference.

``planted_features_and_labels`` fills its table block by block,
``planted_partition_edges`` draws its four streams in edge chunks into
packed keys, and ``csc_from_edges`` builds in place from one sort of
those keys.  The references below are the whole-array versions they
replaced, kept verbatim.  Every output array must match them byte for
byte, so goldens, numerics pins and benchmark pins computed on the old
generator keep holding (docs/architecture.md §3.4).
"""

import numpy as np
import pytest

from repro.graph import (
    DATASET_REGISTRY,
    CSCGraph,
    csc_from_edges,
    make_dataset,
    planted_features_and_labels,
    planted_partition_edges,
)
from repro.graph.build import CHUNK_EDGES
from repro.graph.labels import BLOCK_BYTES, train_val_test_split


# ----------------------------------------------------------------------
# References: the whole-array generators, verbatim.
# ----------------------------------------------------------------------
def reference_features_and_labels(communities, dim, rng, noise=1.3,
                                  dtype=np.float32):
    """Features = centroid[class] + noise; labels = class."""
    communities = np.asarray(communities, dtype=np.int64)
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if noise < 0:
        raise ValueError("noise must be non-negative")
    num_classes = int(communities.max()) + 1 if len(communities) else 0
    centroids = rng.standard_normal((num_classes, dim))
    centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)
    feats = centroids[communities] + noise * rng.standard_normal(
        (len(communities), dim)
    ) / np.sqrt(dim)
    return feats.astype(dtype), communities.copy()


def reference_partition_edges(num_nodes, num_edges, num_classes, rng,
                              homophily=0.8):
    """Community graph: a *homophily* fraction of edges stay in-community."""
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

    def skewed(size, lo, hi):
        """Draw positions in [lo, hi) with a power-law bias toward lo."""
        u = rng.random(size)
        return (lo + ((hi - lo) * u ** 2)).astype(np.int64)

    src_pos = skewed(num_edges, 0, num_nodes)
    src = order[src_pos]
    in_comm = rng.random(num_edges) < homophily
    dst = np.empty(num_edges, dtype=np.int64)
    comm_of_src = communities[src]
    lo = starts[comm_of_src]
    hi = np.maximum(ends[comm_of_src], lo + 1)
    u = rng.random(num_edges)
    within = (lo + (hi - lo) * u ** 2).astype(np.int64)
    dst_in = order[np.minimum(within, hi - 1)]
    dst_out = order[skewed(num_edges, 0, num_nodes)]
    dst = np.where(in_comm, dst_in, dst_out)
    self_loop = src == dst
    dst[self_loop] = (dst[self_loop] + 1) % num_nodes
    return src, dst, communities


def reference_csc_from_edges(src, dst, num_nodes, dedup=True):
    """Build a CSC adjacency (in-neighbors per column) from directed edges."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.shape != dst.shape or src.ndim != 1:
        raise ValueError("src and dst must be 1-D arrays of equal length")
    if len(src) and (min(src.min(), dst.min()) < 0
                     or max(src.max(), dst.max()) >= num_nodes):
        raise ValueError("edge endpoints out of range")

    if dedup and len(src):
        key = dst * num_nodes + src
        _, keep = np.unique(key, return_index=True)
        src, dst = src[keep], dst[keep]

    # Sort by destination so each column's in-neighbors are contiguous.
    order = np.argsort(dst, kind="stable")
    src, dst = src[order], dst[order]
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.add.at(indptr, dst + 1, 1)
    np.cumsum(indptr, out=indptr)
    return CSCGraph(indptr, src)


def reference_make_dataset(name, seed=0, dim=None, scale=1.0):
    """``make_dataset``'s composition over the reference generators."""
    spec = DATASET_REGISTRY[name]
    if scale != 1.0:
        spec = spec.scaled(scale)
    if dim is not None:
        spec = spec.with_dim(dim)
    rng_topo = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    rng_feat = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    rng_split = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    src, dst, communities = reference_partition_edges(
        spec.num_nodes, spec.num_edges, spec.num_classes, rng_topo,
        homophily=spec.homophily)
    graph = reference_csc_from_edges(src, dst, spec.num_nodes)
    feats, labels = reference_features_and_labels(
        communities, spec.dim, rng_feat, noise=spec.noise)
    splits = train_val_test_split(spec.num_nodes, rng_split,
                                  train_frac=spec.train_frac)
    return graph, feats, labels, splits


# ----------------------------------------------------------------------
def assert_same_bytes(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_same_csc(got, want):
    assert_same_bytes(got.indptr, want.indptr)
    assert_same_bytes(got.indices, want.indices)


def block_rows(dim):
    return max(1, BLOCK_BYTES // (8 * dim))


FEATURE_CASES = [
    (dim, n)
    for dim in (1, 32, 128, 768)
    for n in (0, 1, block_rows(dim) - 1, block_rows(dim),
              2 * block_rows(dim) + 1)
]


# A float64 table shows the float64 value of every element before the
# cast; the float32 cast hides most last-bit differences (a merged
# ``noise / sqrt(dim)`` multiply survives a float32-only comparison).
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("noise", [0.0, 1.3])
@pytest.mark.parametrize("classes", ["one", "n"])
@pytest.mark.parametrize("dim,n", FEATURE_CASES)
def test_features_match_reference(dim, n, classes, noise, dtype):
    draw = np.random.default_rng([dim, n])
    comm = np.zeros(n, dtype=np.int64) if classes == "one" \
        else draw.integers(0, max(n, 1), size=n)
    seed = 11 * dim + n
    feats, labels = planted_features_and_labels(
        comm, dim, np.random.default_rng(seed), noise=noise, dtype=dtype)
    want_feats, want_labels = reference_features_and_labels(
        comm, dim, np.random.default_rng(seed), noise=noise, dtype=dtype)
    assert_same_bytes(feats, want_feats)
    assert_same_bytes(labels, want_labels)


def test_features_leave_the_stream_where_the_reference_does():
    comm = np.random.default_rng(0).integers(0, 5, size=3 * block_rows(64) + 7)
    rng, ref = np.random.default_rng(1), np.random.default_rng(1)
    planted_features_and_labels(comm, 64, rng)
    reference_features_and_labels(comm, 64, ref)
    assert rng.random() == ref.random()


# Edge counts around the chunk size: one chunk minus one, exactly one,
# one plus one, and two plus one.
CHUNK_CASES = [(2000, CHUNK_EDGES - 1), (2000, CHUNK_EDGES),
               (2000, CHUNK_EDGES + 1), (2000, 2 * CHUNK_EDGES + 1)]


@pytest.mark.parametrize("homophily", [0.0, 0.7, 1.0])
@pytest.mark.parametrize("classes", ["one", "n"])
@pytest.mark.parametrize("num_nodes,num_edges",
                         [(1, 10), (300, 0), (500, 4000), (3000, 50_000)]
                         + CHUNK_CASES)
def test_edges_match_reference(num_nodes, num_edges, classes, homophily):
    num_classes = 1 if classes == "one" else num_nodes
    seed = num_nodes + num_edges
    got = planted_partition_edges(num_nodes, num_edges, num_classes,
                                  np.random.default_rng(seed),
                                  homophily=homophily)
    want = reference_partition_edges(num_nodes, num_edges, num_classes,
                                     np.random.default_rng(seed),
                                     homophily=homophily)
    for g, w in zip(got, want):
        assert_same_bytes(g, w)


def test_edges_leave_the_stream_where_the_reference_does():
    # An odd node count leaves half of a 64-bit draw buffered after the
    # community draw; the state comparison covers that half too.
    rng, ref = np.random.default_rng(1), np.random.default_rng(1)
    planted_partition_edges(701, 2 * CHUNK_EDGES + 1, 9, rng)
    reference_partition_edges(701, 2 * CHUNK_EDGES + 1, 9, ref)
    assert rng.bit_generator.state["has_uint32"] == 1
    assert rng.bit_generator.state == ref.bit_generator.state
    assert rng.random() == ref.random()


def straddling_runs():
    """Edges whose sorted keys repeat in runs across chunk boundaries.

    Over 3 nodes the key is ``3 * dst + src``.  Key 0 ends exactly at
    the first boundary, key 4 runs across the second, and keys 5 and 8
    fill the third chunk and spill one past it.
    """
    runs = [(0, 0, CHUNK_EDGES), (1, 1, CHUNK_EDGES + 7),
            (2, 1, CHUNK_EDGES - 7), (2, 2, 1)]
    src = np.concatenate([np.full(k, s) for s, _, k in runs])
    dst = np.concatenate([np.full(k, d) for _, d, k in runs])
    shuffle = np.random.default_rng(9).permutation(len(src))
    return src[shuffle], dst[shuffle], 3


def edge_lists():
    rng = np.random.default_rng(7)
    planted = planted_partition_edges(3000, 50_000, 40,
                                      np.random.default_rng(8))
    return {
        "planted": (planted[0], planted[1], 3000),
        # 4000 edges over 20 nodes: nearly every pair repeats.
        "duplicate-heavy": (rng.integers(0, 20, 4000),
                            rng.integers(0, 20, 4000), 20),
        # Three chunks over 30 nodes: runs of about 109 equal keys, so
        # each chunk boundary falls inside a run.
        "duplicate-heavy-chunked": (rng.integers(0, 30, 3 * CHUNK_EDGES),
                                    rng.integers(0, 30, 3 * CHUNK_EDGES),
                                    30),
        "straddling-runs": straddling_runs(),
        "all-one-edge": (np.full(50, 3), np.full(50, 1), 5),
        "isolated-tail": (rng.integers(0, 10, 300),
                          rng.integers(0, 10, 300), 64),
        "python-lists": ([2, 0, 2, 1, 2], [1, 1, 1, 0, 1], 3),
        "int32": (rng.integers(0, 50, 500).astype(np.int32),
                  rng.integers(0, 50, 500).astype(np.int32), 50),
        "empty": (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
                  10),
        "empty-no-nodes": (np.empty(0, dtype=np.int64),
                           np.empty(0, dtype=np.int64), 0),
    }


@pytest.mark.parametrize("dedup", [True, False])
@pytest.mark.parametrize("case", sorted(edge_lists()))
def test_csc_matches_reference(case, dedup):
    src, dst, n = edge_lists()[case]
    assert_same_csc(csc_from_edges(src, dst, n, dedup=dedup),
                    reference_csc_from_edges(src, dst, n, dedup=dedup))


@pytest.mark.parametrize("name,dim,scale", [
    ("tiny", None, 1.0),
    ("papers100m-mini", None, 0.2),
    ("papers100m-mini", 512, 0.2),
])
def test_make_dataset_matches_reference_composition(name, dim, scale):
    ds = make_dataset(name, seed=5, dim=dim, scale=scale)
    graph, feats, labels, splits = reference_make_dataset(
        name, seed=5, dim=dim, scale=scale)
    assert_same_csc(ds.graph, graph)
    assert_same_bytes(ds.features.features, feats)
    assert_same_bytes(ds.labels, labels)
    for got, want in zip((ds.train_idx, ds.val_idx, ds.test_idx), splits):
        assert_same_bytes(got, want)
