"""Tests for the neighbor sampler and subgraph invariants."""

import numpy as np
import pytest

from repro.graph import csc_from_edges, make_dataset
from repro.sampling import LayerAdj, NeighborSampler


def chain_graph():
    # 0 <- 1 <- 2 <- 3 (in-neighbor edges: 1->0, 2->1, 3->2)
    src = np.array([1, 2, 3])
    dst = np.array([0, 1, 2])
    return csc_from_edges(src, dst, num_nodes=4)


def test_sample_chain_expands_hops():
    g = chain_graph()
    s = NeighborSampler(g, fanouts=(1, 1), rng=np.random.default_rng(0))
    sub = s.sample(np.array([0]))
    assert list(sub.seeds) == [0]
    # 2 hops from node 0 reach {0, 1, 2}.
    assert set(sub.all_nodes) == {0, 1, 2}
    assert len(sub.layers) == 2
    assert len(sub.hop_frontiers) == 2


def test_prefix_property_holds():
    ds = make_dataset("tiny", seed=0)
    s = NeighborSampler(ds.graph, fanouts=(5, 5), rng=np.random.default_rng(1))
    sub = s.sample(ds.train_idx[:20])
    # Outer node set must be a prefix of the inner set at every layer.
    # Reconstruct: frontier 0 = seeds; frontier 1 prefix of all_nodes.
    assert np.array_equal(sub.hop_frontiers[0], sub.seeds)
    n0 = len(sub.hop_frontiers[1])
    # layers are innermost-first; outermost layer's dst = seeds.
    assert sub.layers[-1].num_dst == len(sub.seeds)
    assert sub.layers[0].num_src == len(sub.all_nodes)
    # hop_frontiers[1] equals the first n0 entries of all_nodes.
    assert np.array_equal(sub.hop_frontiers[1], sub.all_nodes[:n0])


def test_edges_reference_true_neighbors():
    ds = make_dataset("tiny", seed=0)
    g = ds.graph
    s = NeighborSampler(g, fanouts=(3,), rng=np.random.default_rng(2))
    seeds = ds.train_idx[:10]
    sub = s.sample(seeds)
    layer = sub.layers[0]
    src_global = sub.all_nodes[layer.src_pos]
    dst_global = sub.seeds[layer.dst_pos]
    for u, v in zip(src_global, dst_global):
        assert u in g.neighbors(v)


def test_fanout_bounds_edge_count():
    ds = make_dataset("tiny", seed=0)
    s = NeighborSampler(ds.graph, fanouts=(4, 4), rng=np.random.default_rng(0))
    sub = s.sample(ds.train_idx[:8])
    outer = sub.layers[-1]
    assert outer.num_edges <= 8 * 4
    inner = sub.layers[0]
    assert inner.num_edges <= inner.num_dst * 4


def test_zero_degree_seeds_produce_no_edges():
    g = csc_from_edges(np.array([1]), np.array([0]), num_nodes=3)
    s = NeighborSampler(g, fanouts=(2,), rng=np.random.default_rng(0))
    sub = s.sample(np.array([2]))  # node 2 has no in-neighbors
    assert sub.layers[0].num_edges == 0
    assert set(sub.all_nodes) == {2}


def test_seeds_deduplicated():
    g = chain_graph()
    s = NeighborSampler(g, fanouts=(1,), rng=np.random.default_rng(0))
    sub = s.sample(np.array([1, 1, 0]))
    assert len(sub.seeds) == 2


def test_sampler_deterministic_per_stream():
    ds = make_dataset("tiny", seed=0)
    a = NeighborSampler(ds.graph, (5, 5), np.random.default_rng(7))
    b = NeighborSampler(ds.graph, (5, 5), np.random.default_rng(7))
    sa = a.sample(ds.train_idx[:10])
    sb = b.sample(ds.train_idx[:10])
    assert np.array_equal(sa.all_nodes, sb.all_nodes)
    assert np.array_equal(sa.layers[0].src_pos, sb.layers[0].src_pos)


def test_sampler_validation():
    g = chain_graph()
    with pytest.raises(ValueError):
        NeighborSampler(g, fanouts=(), rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        NeighborSampler(g, fanouts=(0,), rng=np.random.default_rng(0))
    s = NeighborSampler(g, fanouts=(1,), rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        s.sample(np.array([], dtype=np.int64))


def test_layer_adj_validation():
    with pytest.raises(ValueError):
        LayerAdj(np.array([0]), np.array([0, 1]), 2, 1)
    with pytest.raises(ValueError):
        LayerAdj(np.array([5]), np.array([0]), 2, 1)  # src out of range
    with pytest.raises(ValueError):
        LayerAdj(np.array([0]), np.array([3]), 4, 2)  # dst out of range
    with pytest.raises(ValueError):
        LayerAdj(np.empty(0, np.int64), np.empty(0, np.int64), 1, 2)


def test_mean_matrix_rows_normalised():
    adj = LayerAdj(np.array([0, 1, 2, 2]), np.array([0, 0, 0, 1]), 3, 2)
    m = adj.mean_matrix()
    assert m.shape == (2, 3)
    sums = m @ np.ones((3, 1), dtype=np.float32)
    np.testing.assert_allclose(sums.ravel(), [1.0, 1.0])


def test_gcn_matrix_includes_self_loops():
    adj = LayerAdj(np.array([1]), np.array([0]), 2, 1)
    m = adj.gcn_matrix().toarray()
    assert m[0, 0] > 0  # self loop
    assert m[0, 1] > 0  # sampled edge


def test_layer_sizes_and_total_edges():
    ds = make_dataset("tiny", seed=0)
    s = NeighborSampler(ds.graph, (3, 3), np.random.default_rng(0))
    sub = s.sample(ds.train_idx[:5])
    sizes = sub.layer_sizes()
    assert len(sizes) == 2
    assert sub.total_edges() == sum(e for _, _, e in sizes)
    assert sub.batch_size == 5
    assert sub.num_sampled_nodes == len(sub.all_nodes)
