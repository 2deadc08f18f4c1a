"""``LayerAdj`` builds its CSR operators directly from the edge arrays;
the result must equal the COO-built scipy matrix byte for byte.

The reference below is scipy's COO route:
``scipy.sparse.csr_matrix((vals, (rows, cols)))``, which converts COO to
CSR and canonicalises (sorted columns, duplicates summed).  scipy sorts
each row's columns with ``std::sort``, a stable insertion sort up to 16
entries and an unstable introsort above that, so a row with more than
16 entries that merges unequal values has no defined scipy order; those
rows are checked against :func:`merge_in_input_order` instead.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.baselines.mariusgnn import MariusGNN
from repro.bench.runner import build_system, get_dataset
from repro.core.base import TrainConfig
from repro.machine import Machine, MachineSpec
from repro.sampling.neighbor import NeighborSampler
from repro.sampling.subgraph import LayerAdj
from repro.tensor.sparse import CSRMatrix


def coo_mean(layer):
    deg = np.bincount(layer.dst_pos,
                      minlength=layer.num_dst).astype(np.float32)
    w = 1.0 / np.maximum(deg[layer.dst_pos], 1.0)
    return sp.csr_matrix((w, (layer.dst_pos, layer.src_pos)),
                         shape=(layer.num_dst, layer.num_src))


def coo_sum(layer):
    w = np.ones(len(layer.src_pos), dtype=np.float32)
    return sp.csr_matrix((w, (layer.dst_pos, layer.src_pos)),
                         shape=(layer.num_dst, layer.num_src))


def gcn_triplets(layer):
    d_dst = np.bincount(layer.dst_pos,
                        minlength=layer.num_dst).astype(np.float32)
    d_src = np.bincount(layer.src_pos,
                        minlength=layer.num_src).astype(np.float32)
    w = 1.0 / np.sqrt((d_dst[layer.dst_pos] + 1.0)
                      * (d_src[layer.src_pos] + 1.0))
    loops = np.arange(layer.num_dst, dtype=np.int64)
    rows = np.concatenate([layer.dst_pos, loops])
    cols = np.concatenate([layer.src_pos, loops])
    vals = np.concatenate([w, 1.0 / (d_dst + 1.0)]).astype(np.float32)
    return rows, cols, vals


def coo_gcn(layer):
    rows, cols, vals = gcn_triplets(layer)
    return sp.csr_matrix((vals, (rows, cols)),
                         shape=(layer.num_dst, layer.num_src))


PAIRS = (("mean_matrix", coo_mean), ("sum_matrix", coo_sum),
         ("gcn_matrix", coo_gcn))


def _bytes(m):
    return {k: (getattr(m, k).dtype.str, getattr(m, k).tobytes())
            for k in ("indptr", "indices", "data")}


def assert_same_as_coo(layers):
    assert layers
    for layer in layers:
        for method, reference in PAIRS:
            got, want = getattr(layer, method)(), reference(layer)
            assert isinstance(got, CSRMatrix)
            assert got.shape == want.shape
            assert _bytes(got) == _bytes(want), method


def merge_in_input_order(rows, cols, vals, num_rows):
    """Per row: the entries stably sorted by column, each run of one
    column added up in input order.  Returns (indptr, indices, data)
    as lists."""
    per_row = [[] for _ in range(num_rows)]
    for r, c, v in zip(rows.tolist(), cols.tolist(), vals):
        per_row[r].append((c, v))
    indptr, indices, data = [0], [], []
    for entries in per_row:
        entries.sort(key=lambda e: e[0])
        for c, v in entries:
            if len(indices) > indptr[-1] and indices[-1] == c:
                data[-1] = data[-1] + v
            else:
                indices.append(c)
                data.append(v)
        indptr.append(len(indices))
    return indptr, indices, data


def unordered_in_scipy(rows, cols, vals, num_rows):
    """Rows whose scipy merge order is undefined: more than 16 entries
    and at least one column repeated with unequal values."""
    out = []
    for r in range(num_rows):
        mine = rows == r
        if mine.sum() <= 16:
            continue
        c, v = cols[mine], vals[mine]
        if any(len(np.unique(v[c == col])) > 1 for col in np.unique(c)):
            out.append(r)
    return out


@pytest.fixture(scope="module")
def tiny():
    return get_dataset("tiny")


def test_sampler_layers(tiny):
    """Sampler layers carry the sampler-built structure; the paper-scale
    case has the serve and train fanouts, (25, 25) merges many repeats."""
    paper = get_dataset("papers100m-mini", scale=0.2)
    for ds, fanouts in ((tiny, (10, 10, 10)), (tiny, (25, 25)),
                        (paper, (3, 3, 3))):
        sampler = NeighborSampler(ds.graph, fanouts,
                                  np.random.default_rng(0))
        for seeds in np.array_split(np.arange(ds.num_nodes), 4):
            assert_same_as_coo(sampler.sample(seeds[:50]).layers)


def test_fullgraph_unsorted_layers(tiny):
    """The whole graph with its nodes permuted so the training targets
    come first: destination positions arrive unsorted."""
    g, n = tiny.graph, tiny.num_nodes
    targets = np.unique(tiny.train_idx)
    order = np.concatenate([targets, np.setdiff1d(np.arange(n), targets)])
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n)
    src = position[g.indices]
    dst = position[np.repeat(np.arange(n), np.diff(g.indptr))]
    outer = dst < len(targets)
    assert not (np.diff(dst) >= 0).all()  # unsorted
    assert_same_as_coo([LayerAdj(src, dst, n, n),
                        LayerAdj(src[outer], dst[outer], n, len(targets))])


def test_mariusgnn_filtered_layers(tiny):
    machine = Machine(MachineSpec.paper_scaled(host_gb=32))
    marius = build_system("mariusgnn", machine, tiny, TrainConfig())
    assert isinstance(marius, MariusGNN)
    sub = marius.sampler.sample(tiny.train_idx[:50])
    resident = np.random.default_rng(1).random(
        marius.config.num_partitions) < 0.5
    kept = marius._restrict_to_buffer(sub, resident)
    assert kept.total_edges() < sub.total_edges()
    assert_same_as_coo(kept.layers)


def test_empty_layers():
    e = np.empty(0, np.int64)
    assert_same_as_coo([LayerAdj(e, e, 5, 3), LayerAdj(e, e, 4, 4),
                        LayerAdj(e, e, 1, 0)])


def test_random_multigraph_layers():
    rng = np.random.default_rng(2)
    layers = []
    for _ in range(20):
        n_src = int(rng.integers(1, 60))
        n_dst = int(rng.integers(1, n_src + 1))
        n_e = int(rng.integers(0, 200))
        layers.append(LayerAdj(rng.integers(0, n_src, n_e),
                               rng.integers(0, n_dst, n_e), n_src, n_dst))
    # Row 0 holds 20 draws, one of them the self-edge 0 -> 0, which the
    # GCN operator merges with its self-loop of another weight.
    src = np.concatenate([[0], rng.integers(1, 40, 19), [3, 4]])
    dst = np.concatenate([np.zeros(20, np.int64), [1, 2]])
    layers.append(LayerAdj(src, dst, 40, 3))

    unordered = 0
    for layer in layers:
        for method, reference in PAIRS[:2]:
            got, want = getattr(layer, method)(), reference(layer)
            assert isinstance(got, CSRMatrix)
            assert _bytes(got) == _bytes(want), method
        got, want = layer.gcn_matrix(), coo_gcn(layer)
        assert isinstance(got, CSRMatrix) and got.shape == want.shape
        rows, cols, vals = gcn_triplets(layer)
        indptr, indices, data = merge_in_input_order(rows, cols, vals,
                                                     layer.num_dst)
        skip = unordered_in_scipy(rows, cols, vals, layer.num_dst)
        unordered += len(skip)
        assert [a.dtype for a in (got.indptr, got.indices, got.data)] == [
            a.dtype for a in (want.indptr, want.indices, want.data)]
        assert got.indptr.tobytes() == want.indptr.tobytes()
        for r in range(layer.num_dst):
            lo, hi = got.indptr[r], got.indptr[r + 1]
            ref_idx = np.array(indices[lo:hi], dtype=np.int32)
            ref_val = np.array(data[lo:hi], dtype=np.float32)
            if r not in skip:
                ref_idx, ref_val = want.indices[lo:hi], want.data[lo:hi]
            assert got.indices[lo:hi].tobytes() == ref_idx.tobytes()
            assert got.data[lo:hi].tobytes() == ref_val.tobytes()
    assert unordered >= 1
