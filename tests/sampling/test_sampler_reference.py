"""The one-pass sampler against the reference path it replaced.

:func:`reference_sample` is the sampler's original relabel, kept here as
a test oracle: each hop finds its new ids with ``np.setdiff1d`` and maps
every draw to its position with a stable ``argsort`` and
``searchsorted``.  Its layers carry no structure; their operators'
reference is scipy's COO route (``tests/sampling/test_adj_csr.py``).
:func:`reference_frontier_pages` is the
original page accounting, through per-node byte spans (the removed
``CSCGraph.touched_index_bytes``) and ``np.unique``.

Both sides start from the same RNG state, and everything must agree
byte for byte, dtypes included: the node sets, each layer's edges and
sizes, its mean, sum and GCN operators, and every hop's pages.
"""

import numpy as np
import pytest

from repro.core.sampling_io import INDEX_ITEMSIZE, frontier_pages
from repro.graph import CSCGraph, csc_from_edges, make_dataset
from repro.memory import HostMemory
from repro.sampling import LayerAdj, NeighborSampler, SampledSubgraph
from repro.simcore import Simulator
from repro.storage import SSDDevice, SSDSpec
from repro.storage.page_cache import PageCache
from repro.tensor.sparse import CSRMatrix
from tests.sampling.test_adj_csr import PAIRS


def reference_sample(graph, fanouts, rng, seeds):
    seeds = np.unique(np.asarray(seeds, dtype=np.int64))
    node_set = seeds
    layers_rev, frontiers = [], []
    for fanout in fanouts:
        frontiers.append(node_set)
        starts, ends = graph.indptr[node_set], graph.indptr[node_set + 1]
        degs = ends - starts
        has_nb = degs > 0
        if int(has_nb.sum()):
            active_pos = np.nonzero(has_nb)[0]
            offsets = (rng.random((len(active_pos), fanout))
                       * degs[active_pos, None]).astype(np.int64)
            gather = starts[active_pos, None] + offsets
            src_global = graph.indices[gather].reshape(-1)
            dst_pos = np.repeat(active_pos, fanout)
        else:
            dst_pos = np.empty(0, dtype=np.int64)
            src_global = np.empty(0, dtype=np.int64)
        new_nodes = np.setdiff1d(src_global, node_set, assume_unique=False)
        inner = np.concatenate([node_set, new_nodes])
        order = np.argsort(inner, kind="stable")
        src_pos = order[np.searchsorted(inner, src_global, sorter=order)]
        layers_rev.append(LayerAdj(src_pos.astype(np.int64),
                                   dst_pos.astype(np.int64),
                                   len(inner), len(node_set)))
        node_set = inner
    return SampledSubgraph(seeds, node_set, list(reversed(layers_rev)),
                           frontiers)


def reference_frontier_pages(cache, graph, frontier):
    frontier = np.asarray(frontier, dtype=np.int64)
    if len(frontier) == 0:
        return np.empty(0, dtype=np.int64)
    spans = np.stack([graph.indptr[frontier] * INDEX_ITEMSIZE,
                      graph.indptr[frontier + 1] * INDEX_ITEMSIZE], axis=1)
    starts, ends = spans[:, 0], spans[:, 1]
    nonempty = ends > starts
    if not nonempty.any():
        return np.empty(0, dtype=np.int64)
    starts, ends = starts[nonempty], ends[nonempty]
    first = starts // cache.page_size
    last = (ends - 1) // cache.page_size
    counts = last - first + 1
    offsets = np.arange(int(counts.sum())) - np.repeat(
        np.cumsum(counts) - counts, counts)
    return np.unique(np.repeat(first, counts) + offsets)


def same(a, b):
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def assert_same_matrix(got, want):
    assert isinstance(got, CSRMatrix) and got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        assert same(getattr(got, name), getattr(want, name)), name


def assert_same_subgraph(got, want):
    assert same(got.seeds, want.seeds)
    assert same(got.all_nodes, want.all_nodes)
    assert len(got.hop_frontiers) == len(want.hop_frontiers)
    for fg, fw in zip(got.hop_frontiers, want.hop_frontiers):
        assert same(fg, fw)
    assert len(got.layers) == len(want.layers)
    for lg, lw in zip(got.layers, want.layers):
        assert same(lg.src_pos, lw.src_pos)
        assert same(lg.dst_pos, lw.dst_pos)
        assert (lg.num_src, lg.num_dst) == (lw.num_src, lw.num_dst)
        for method, coo in PAIRS:
            assert_same_matrix(getattr(lg, method)(), coo(lw))


def page_cache(page_size=4096):
    sim = Simulator()
    return PageCache(sim, HostMemory(1 << 24),
                     SSDDevice(sim, SSDSpec(1e-5, 1e8, 4)),
                     page_size=page_size)


class Pair:
    """The sampler and the reference on identically seeded streams."""

    def __init__(self, graph, fanouts, seed=0):
        self.graph, self.fanouts = graph, fanouts
        self.sampler = NeighborSampler(graph, fanouts,
                                       np.random.default_rng(seed))
        self.ref_rng = np.random.default_rng(seed)
        self.caches = [page_cache(), page_cache(64)]

    def check(self, seeds):
        got = self.sampler.sample(seeds)
        want = reference_sample(self.graph, self.fanouts, self.ref_rng,
                                seeds)
        assert_same_subgraph(got, want)
        assert (self.sampler._pos == -1).all()
        for cache in self.caches:
            for frontier in got.hop_frontiers:
                assert same(
                    frontier_pages(cache, self.graph, frontier),
                    reference_frontier_pages(cache, self.graph, frontier))
        return got


@pytest.fixture(scope="module")
def tiny():
    return make_dataset("tiny", seed=0)


def test_serve_shape():
    ds = make_dataset("papers100m-mini", seed=0, scale=0.2)
    pair = Pair(ds.graph, (3, 3, 3))
    rng = np.random.default_rng(1)
    for _ in range(150):
        pair.check(rng.choice(ds.num_nodes, 2, replace=False))


def test_train_shape():
    ds = make_dataset("papers100m-mini", seed=0, scale=1.0)
    pair = Pair(ds.graph, (3, 3, 3))
    for seeds in np.array_split(ds.train_idx[:600], 12):
        pair.check(seeds)


@pytest.mark.parametrize("fanouts", [(10, 10, 5), (25, 25)])
def test_duplicate_heavy_fanouts(tiny, fanouts):
    pair = Pair(tiny.graph, fanouts)
    merged = False
    for seeds in np.array_split(tiny.train_idx[:200], 4):
        sub = pair.check(seeds)
        merged |= any((layer.structure.mult > 1).any()
                      for layer in sub.layers)
    assert merged


def test_zero_in_degree_seeds(tiny):
    isolated = np.flatnonzero(tiny.graph.in_degree() == 0)
    assert len(isolated) > 1
    pair = Pair(tiny.graph, (3, 3))
    sub = pair.check(isolated)
    assert all(layer.num_edges == 0 for layer in sub.layers)
    pair.check(np.concatenate([isolated[:3], tiny.train_idx[:5]]))


def test_hub_frontiers_span_pages():
    """Hubs whose adjacency runs span several 4 KiB pages."""
    rng = np.random.default_rng(3)
    n = 3000
    hubs = np.arange(4)
    src = np.concatenate([rng.integers(0, n, 2500) for _ in hubs]
                         + [rng.integers(0, n, 6000)])
    dst = np.concatenate([np.full(2500, h) for h in hubs]
                         + [rng.integers(4, n, 6000)])
    graph = csc_from_edges(src, dst, n)
    assert (np.diff(graph.indptr)[hubs] * INDEX_ITEMSIZE > 2 * 4096).all()
    pair = Pair(graph, (4, 4))
    for _ in range(20):
        sub = pair.check(np.concatenate(
            [hubs[:2], rng.choice(n, 6, replace=False)]))
        assert np.isin(hubs[:2], sub.all_nodes).all()


class FailingRng:
    """Delegates to a generator until its countdown of draws runs out."""

    def __init__(self, rng, draws):
        self.rng, self.draws = rng, draws

    def random(self, size):
        if self.draws == 0:
            raise RuntimeError("planted failure")
        self.draws -= 1
        return self.rng.random(size)


def test_many_calls_on_one_sampler_with_failures(tiny):
    pair = Pair(tiny.graph, (5, 5, 5))
    rng = np.random.default_rng(4)
    for call in range(40):
        seeds = rng.choice(tiny.num_nodes, 8, replace=False)
        if call % 10 == 3:
            # A call that dies after its first hop wrote to the map.
            real = pair.sampler.rng
            pair.sampler.rng = FailingRng(real, draws=1)
            with pytest.raises(RuntimeError, match="planted"):
                pair.sampler.sample(seeds)
            pair.sampler.rng = real
            assert (pair.sampler._pos == -1).all()
            pair.ref_rng.bit_generator.state = real.bit_generator.state
        pair.check(seeds)


@pytest.mark.parametrize("bad", [-1, 2000])
def test_out_of_range_seed_raises_and_leaves_sampler_clean(tiny, bad):
    assert tiny.num_nodes == 2000
    pair = Pair(tiny.graph, (3, 3))
    with pytest.raises(ValueError, match=f"\\[{bad}\\]"):
        pair.sampler.sample(np.array([bad, 5]))
    assert (pair.sampler._pos == -1).all()
    pair.check(np.array([5, 17]))


def test_samplers_of_one_graph_share_one_map(tiny):
    """Interleaved calls through one shared position map give the
    subgraphs that samplers with maps of their own give, and a call that
    raises leaves the shared map all -1."""
    fanouts = [(5, 5, 5), (3, 3)]
    shared = [NeighborSampler(tiny.graph, f, np.random.default_rng(i))
              for i, f in enumerate(fanouts)]
    # Each twin graph has the same topology and a map of its own.
    alone = [NeighborSampler(CSCGraph(tiny.graph.indptr, tiny.graph.indices),
                             f, np.random.default_rng(i))
             for i, f in enumerate(fanouts)]
    pos = shared[0]._pos
    assert shared[1]._pos is pos
    assert not any(a._pos is pos for a in alone)
    assert alone[0]._pos is not alone[1]._pos
    rng = np.random.default_rng(6)
    for call in range(40):
        i = int(rng.integers(2))
        seeds = rng.choice(tiny.num_nodes, 8, replace=False)
        if call % 10 == 3:
            # A call that dies after its first hop wrote to the map.
            real = shared[i].rng
            shared[i].rng = FailingRng(real, draws=1)
            with pytest.raises(RuntimeError, match="planted"):
                shared[i].sample(seeds)
            shared[i].rng = real
            assert (pos == -1).all()
            alone[i].rng.bit_generator.state = real.bit_generator.state
        assert_same_subgraph(shared[i].sample(seeds), alone[i].sample(seeds))
        assert (pos == -1).all()
