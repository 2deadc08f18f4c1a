"""A constant sparse operator in CSR form: the neighbour aggregation ``A``.

Every GNN layer starts by aggregating neighbour rows, ``A @ h``, and its
backward pass scatters the gradient back, ``A.T @ g``.  :class:`CSRMatrix`
holds ``A`` as CSR arrays (int32 ``indptr`` and ``indices`` and float32
``data``, the layout scipy's ``csr_matrix`` uses) and computes both
products in the order scipy's ``csr_matvecs`` and ``csc_matvecs`` do, so
its results equal scipy's bit for bit:

* ``(A @ x)[i]`` is ``0 + a0*x[j0] + a1*x[j1] + ...`` in the result
  dtype, one rounding per product and per sum, over row *i*'s entries
  in stored order; a row with no entries is exactly zero.
* ``(A.T @ g)[j]`` adds the contributions ``a*g[i]`` of column *j* in
  ascending row *i* of ``A`` (entries of one row in stored order).

:attr:`CSRMatrix.T` is itself a :class:`CSRMatrix`: the transpose's
entries, stably sorted by column of ``A``, so both products run the same
kernel.  The kernel groups the rows by entry count.  For a group of *m*
rows with *L* entries each it gathers the entries' source rows as one
``(m, L, d)`` block and contracts it with the ``(m, L)`` weights by
``np.einsum("ik,ikd->id")``, which runs its inner loop along *d*: each
output starts at zero and adds its *L* products in order, one multiply
and one add at a time, the order above.  At ``d = 1`` NumPy's loop runs
along the *L* entries with several partial sums instead, so narrow
inputs (``d < 3``) add the products explicitly.  The exactness tests
compare both paths with scipy at every width the models use.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

import numpy as np


class _Group(NamedTuple):
    """Rows with the same entry count, in the kernel's gather order."""

    #: The rows, ascending.
    rows: np.ndarray
    #: Their entries' slice of :attr:`_Schedule.cols`.
    start: int
    stop: int
    #: ``(len(rows), count)`` entry weights.
    weights: np.ndarray


class _Schedule(NamedTuple):
    groups: List[_Group]
    #: Rows without entries.
    empty: np.ndarray
    #: Column of every entry, group by group and row by row.
    cols: np.ndarray


class CSRMatrix:
    """A constant (rows x cols) sparse operator; products with dense
    2-D arrays equal scipy's bit for bit."""

    __slots__ = ("indptr", "indices", "data", "shape", "_schedule", "_t")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray,
                 data: np.ndarray, shape: Tuple[int, int]):
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self.shape = (int(shape[0]), int(shape[1]))
        if len(indptr) != self.shape[0] + 1:
            raise ValueError(f"indptr has {len(indptr)} entries for "
                             f"{self.shape[0]} rows")
        if len(indices) != len(data) or len(data) != int(indptr[-1]):
            raise ValueError("indices, data and indptr[-1] disagree")
        self._schedule: Optional[_Schedule] = None
        self._t: Optional[CSRMatrix] = None

    @property
    def T(self) -> "CSRMatrix":
        """The transpose, built on first use."""
        if self._t is None:
            n_rows, n_cols = self.shape
            order = _stable_argsort(self.indices, n_cols)
            row_of = np.repeat(np.arange(n_rows, dtype=self.indices.dtype),
                               np.diff(self.indptr))
            indptr = np.zeros(n_cols + 1, dtype=self.indptr.dtype)
            np.cumsum(np.bincount(self.indices, minlength=n_cols),
                      out=indptr[1:])
            self._t = CSRMatrix(indptr, row_of[order], self.data[order],
                                (n_cols, n_rows))
        return self._t

    def toarray(self) -> np.ndarray:
        """The dense matrix (duplicate entries summed)."""
        out = np.zeros(self.shape, dtype=self.data.dtype)
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        np.add.at(out, (rows, self.indices), self.data)
        return out

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.ndim != 2 or x.shape[0] != self.shape[1]:
            raise ValueError(f"cannot multiply a {self.shape} operator by "
                             f"an array of shape {x.shape}")
        x = x.astype(np.result_type(self.data, x), copy=False)
        s = self._plan()
        if len(s.groups) == 1 and not len(s.empty):
            # Every row has the same count, so the rows are in order.
            return _group_product(x, s.cols, s.groups[0].weights)
        out = np.empty((self.shape[0], x.shape[1]), dtype=x.dtype)
        for g in s.groups:
            out[g.rows] = _group_product(x, s.cols[g.start:g.stop],
                                         g.weights)
        out[s.empty] = 0
        return out

    def _plan(self) -> _Schedule:
        if self._schedule is None:
            lens = np.diff(self.indptr)
            depth = int(lens.max()) if len(lens) else 0
            order = _stable_argsort(depth - lens, depth + 1)
            lens = lens[order]
            ends = np.cumsum(lens)
            entry = (np.repeat(self.indptr[order] - (ends - lens), lens)
                     + np.arange(len(self.indices)))
            weights = self.data[entry]
            # Equal counts are runs of the sorted lengths; the stable
            # sort keeps each run's rows ascending.
            cuts = (np.flatnonzero(np.diff(lens)) + 1).tolist()
            groups = []
            for a, b in zip([0] + cuts, cuts + [len(lens)]):
                count = int(lens[a]) if b > a else 0
                if count == 0:
                    break
                stop = int(ends[b - 1])
                start = stop - (b - a) * count
                groups.append(_Group(
                    order[a:b], start, stop,
                    weights[start:stop].reshape(b - a, count)))
            nonempty = sum(len(g.rows) for g in groups)
            self._schedule = _Schedule(groups, order[nonempty:],
                                       self.indices[entry])
        return self._schedule


def _group_product(x: np.ndarray, cols: np.ndarray,
                   weights: np.ndarray) -> np.ndarray:
    """``out[i] = 0 + w[i,0]*x[c[i,0]] + w[i,1]*x[c[i,1]] + ...`` for the
    ``(m, L)`` weights and the entries' columns, row by row."""
    m, count = weights.shape
    block = x.take(cols, axis=0).reshape(m, count, x.shape[1])
    if x.shape[1] >= 3:
        return np.einsum("ik,ikd->id", weights, block)
    out = block[:, 0] * weights[:, :1]
    out += 0.0
    for k in range(1, count):
        out += block[:, k] * weights[:, k:k + 1]
    return out


def _stable_argsort(keys: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for integer keys in
    ``[0, bound)``; keys that fit 16 bits take NumPy's radix sort,
    several times faster than the merge sort wider keys get."""
    if bound <= 1 << 16:
        keys = keys.astype(np.uint16)
    return np.argsort(keys, kind="stable")
