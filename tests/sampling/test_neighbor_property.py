"""Property-based sampler invariants on random graphs."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.graph import csc_from_edges
from repro.sampling import NeighborSampler
from tests.sampling.test_adj_csr import assert_same_as_coo


@st.composite
def random_graph_and_seeds(draw):
    n = draw(st.integers(4, 60))
    m = draw(st.integers(1, 240))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    graph = csc_from_edges(src, dst, n)
    k = draw(st.integers(1, min(6, n)))
    seeds = rng.choice(n, size=k, replace=False)
    fanouts = tuple(draw(st.lists(st.integers(1, 4), min_size=1,
                                  max_size=3)))
    return graph, seeds, fanouts, seed


@settings(max_examples=120, deadline=None)
@given(random_graph_and_seeds())
def test_sampler_structural_invariants(params):
    graph, seeds, fanouts, seed = params
    sampler = NeighborSampler(graph, fanouts, np.random.default_rng(seed))
    sub = sampler.sample(seeds)

    # Seeds are the prefix of all_nodes and of every frontier.
    np.testing.assert_array_equal(sub.all_nodes[:len(sub.seeds)], sub.seeds)
    assert len(sub.layers) == len(fanouts)
    assert len(sub.hop_frontiers) == len(fanouts)

    # Node sets nest as prefixes: frontier h == all_nodes[:|frontier h|].
    for frontier in sub.hop_frontiers:
        np.testing.assert_array_equal(
            frontier, sub.all_nodes[:len(frontier)])

    # all_nodes are unique and valid ids.
    assert len(np.unique(sub.all_nodes)) == len(sub.all_nodes)
    assert sub.all_nodes.min() >= 0
    assert sub.all_nodes.max() < graph.num_nodes

    # Every sampled edge is a real in-edge; per-dst fanout respected.
    prev_size = len(sub.all_nodes)
    for layer in sub.layers:
        assert layer.num_src <= prev_size
        src_global = sub.all_nodes[layer.src_pos]
        # dst set is the prefix of the src set.
        dst_global = sub.all_nodes[layer.dst_pos]
        for u, v in zip(src_global, dst_global):
            assert u in graph.neighbors(v)
        if layer.num_edges:
            counts = np.bincount(layer.dst_pos)
            assert counts.max() <= max(fanouts)
        prev_size = layer.num_src

    # The operators equal the COO route's byte for byte; the graphs
    # have self-loops and repeated edges.
    assert_same_as_coo(sub.layers)


@settings(max_examples=60, deadline=None)
@given(random_graph_and_seeds())
def test_sampler_is_deterministic_per_stream(params):
    graph, seeds, fanouts, seed = params
    a = NeighborSampler(graph, fanouts, np.random.default_rng(seed))
    b = NeighborSampler(graph, fanouts, np.random.default_rng(seed))
    sa, sb = a.sample(seeds), b.sample(seeds)
    np.testing.assert_array_equal(sa.all_nodes, sb.all_nodes)
    for la, lb in zip(sa.layers, sb.layers):
        np.testing.assert_array_equal(la.src_pos, lb.src_pos)
        np.testing.assert_array_equal(la.dst_pos, lb.dst_pos)
