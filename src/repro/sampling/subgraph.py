"""Sampled-subgraph representation shared by all systems and models.

Layout convention (PyG NeighborSampler style): node sets grow inward,
``N_0`` = seeds, ``N_{l+1}`` = ``N_l`` followed by the new nodes sampled
at hop ``l+1``.  Because each outer set is a *prefix* of the next inner
set, a model layer can read its self-features as ``h_src[:num_dst]``.

``all_nodes`` (the deepest set) is exactly "the sampled node list" that
GNNDrive's samplers enqueue for extraction (§4.1 step 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from repro.tensor.sparse import CSRMatrix


class CSRStructure(NamedTuple):
    """The canonical CSR structure of a layer's mean and sum operators.

    Built by :class:`~repro.sampling.neighbor.NeighborSampler`, whose
    every active row holds exactly ``fanout`` draws of one weight.
    """

    #: int32 row pointers, ``num_dst + 1`` long.
    indptr: np.ndarray
    #: int32 source positions, ascending and distinct within each row.
    indices: np.ndarray
    #: How many draws each entry merges.
    mult: np.ndarray
    #: float32 table: ``mean_sums[k]`` is ``float32(1) / fanout`` added
    #: *k* times in sequence, as :meth:`LayerAdj._csr` merges repeats.
    mean_sums: np.ndarray


@dataclass
class LayerAdj:
    """Bipartite sampled edges for one model layer.

    ``src_pos[e] -> dst_pos[e]`` with positions into the inner (source)
    and outer (destination) node sets; ``N_dst == N_src[:num_dst]``.
    Multi-edges are allowed (uniform sampling with replacement) and act
    as aggregation weights.

    A layer the sampler built carries its operators' ``structure``, and
    :meth:`mean_matrix` and :meth:`sum_matrix` fill it in.  Every other
    layer (MariusGNN's buffer filter, hand-made ones) and every
    :meth:`gcn_matrix` builds through :meth:`_csr`.
    """

    src_pos: np.ndarray
    dst_pos: np.ndarray
    num_src: int
    num_dst: int
    structure: Optional[CSRStructure] = field(default=None, repr=False)

    def __post_init__(self):
        if len(self.src_pos) != len(self.dst_pos):
            raise ValueError("src/dst edge arrays differ in length")
        if self.num_dst > self.num_src:
            raise ValueError("dst set must be a prefix of src set")
        if len(self.src_pos):
            if self.src_pos.max() >= self.num_src or self.src_pos.min() < 0:
                raise ValueError("src positions out of range")
            if self.dst_pos.max() >= self.num_dst or self.dst_pos.min() < 0:
                raise ValueError("dst positions out of range")

    @property
    def num_edges(self) -> int:
        return len(self.src_pos)

    def mean_matrix(self) -> CSRMatrix:
        """Row-normalised aggregation operator (num_dst x num_src).

        Rows with no sampled in-edges are zero (their self path still
        contributes through the model's self weight).
        """
        if self.structure is not None:
            return self._canonical(
                self.structure.mean_sums[self.structure.mult])
        deg = np.bincount(self.dst_pos, minlength=self.num_dst).astype(np.float32)
        weights = 1.0 / np.maximum(deg[self.dst_pos], 1.0)
        return self._csr(self.dst_pos, self.src_pos, weights)

    def sum_matrix(self) -> CSRMatrix:
        """Unnormalised aggregation operator (num_dst x num_src)."""
        if self.structure is not None:
            # k ones add up to exactly k in float32.
            return self._canonical(
                self.structure.mult.astype(np.float32))
        weights = np.ones(len(self.src_pos), dtype=np.float32)
        return self._csr(self.dst_pos, self.src_pos, weights)

    def gcn_matrix(self) -> CSRMatrix:
        """Symmetric-normalised GCN operator with implicit self-loops.

        Uses sampled degrees: weight(u->v) = 1/sqrt((d_v+1)(d_u_out+1)),
        plus a self-loop of 1/(d_v+1) on the prefix nodes.
        """
        d_dst = np.bincount(self.dst_pos, minlength=self.num_dst).astype(np.float32)
        d_src_out = np.bincount(self.src_pos, minlength=self.num_src).astype(np.float32)
        w = 1.0 / np.sqrt((d_dst[self.dst_pos] + 1.0)
                          * (d_src_out[self.src_pos] + 1.0))
        rows = np.concatenate([self.dst_pos,
                               np.arange(self.num_dst, dtype=np.int64)])
        cols = np.concatenate([self.src_pos,
                               np.arange(self.num_dst, dtype=np.int64)])
        vals = np.concatenate([w, 1.0 / (d_dst + 1.0)]).astype(np.float32)
        return self._csr(rows, cols, vals)

    def _canonical(self, data: np.ndarray) -> CSRMatrix:
        """The operator with the sampler-built structure and *data*."""
        return CSRMatrix(self.structure.indptr, self.structure.indices,
                         data, (self.num_dst, self.num_src))

    def _csr(self, rows: np.ndarray, cols: np.ndarray,
             vals: np.ndarray) -> CSRMatrix:
        """The canonical (num_dst x num_src) operator of the triplets.

        A stable sort by (row, column) orders the entries; each run of
        one (row, column) pair merges into one entry whose value is the
        run's values added in input order, ``((v0 + v1) + v2) + ...``.
        That is scipy's COO->CSR result byte for byte wherever scipy's
        order is defined: its per-row column sort (``std::sort``) is
        stable only up to 16 entries, so a longer row that merges
        unequal values may come out of scipy in another order.
        """
        key = rows * self.num_src + cols
        order = np.argsort(key, kind="stable")
        key, vals = key[order], vals[order]
        head = np.empty(len(key), dtype=bool)
        head[:1] = True
        np.not_equal(key[1:], key[:-1], out=head[1:])
        starts = head.nonzero()[0]
        lengths = np.diff(starts, append=len(key))
        merged = vals[starts]
        for k in range(1, int(lengths.max()) if len(key) else 0):
            more = lengths > k
            merged[more] += vals[starts[more] + k]
        rows, cols = np.divmod(key[starts], self.num_src)
        indptr = np.zeros(self.num_dst + 1, dtype=np.int32)
        np.cumsum(np.bincount(rows, minlength=self.num_dst), out=indptr[1:])
        return CSRMatrix(indptr, cols.astype(np.int32), merged,
                         (self.num_dst, self.num_src))


@dataclass
class SampledSubgraph:
    """A mini-batch's sampled computation graph.

    Attributes
    ----------
    seeds:
        Global node ids of the training targets (== ``all_nodes[:len]``).
    all_nodes:
        Global ids of every node whose features the batch needs (the
        extraction list), deepest layer's set.
    layers:
        ``layers[0]`` is the *innermost* hop (consumed first in the
        forward pass); ``layers[-1]`` produces the seed embeddings.
    hop_frontiers:
        Node ids expanded at each hop (for the sampler's topology-I/O
        accounting): ``hop_frontiers[h]`` are the nodes whose adjacency
        lists hop *h* read.
    """

    seeds: np.ndarray
    all_nodes: np.ndarray
    layers: List[LayerAdj]
    hop_frontiers: List[np.ndarray]

    @property
    def batch_size(self) -> int:
        return len(self.seeds)

    @property
    def num_sampled_nodes(self) -> int:
        return len(self.all_nodes)

    def total_edges(self) -> int:
        return sum(l.num_edges for l in self.layers)

    def layer_sizes(self) -> List[Tuple[int, int, int]]:
        """(num_src, num_dst, num_edges) per layer, innermost first —
        the inputs to the compute-cost model."""
        return [(l.num_src, l.num_dst, l.num_edges) for l in self.layers]
