"""``LayerAdj`` builds its CSR operators directly from the edge arrays;
the result must equal the COO-built matrix byte for byte.

The reference below is the COO route the direct build replaced:
``scipy.sparse.csr_matrix((vals, (rows, cols)))``, which converts COO to
CSR and canonicalises (sorted columns, duplicates summed).
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


def coo_gcn(layer):
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
            assert isinstance(got, sp.csr_matrix)
            assert got.shape == want.shape
            assert got.has_canonical_format
            assert _bytes(got) == _bytes(want), method


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
    assert_same_as_coo(layers)
