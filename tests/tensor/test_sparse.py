"""``CSRMatrix`` products against scipy's, byte for byte.

scipy's ``csr_matvecs``/``csc_matvecs`` define the order of every
rounding: row *i* of ``A @ x`` is ``0 + a0*x0 + a1*x1 + ...`` over its
stored entries, and ``A.T @ g`` adds each column's contributions in
ascending row.  The operator must reproduce both for any structure and
width, signed zeros and subnormals included.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.tensor.sparse import CSRMatrix

WIDTHS = (1, 2, 3, 32, 128, 172, 256, 512)


def awkward(rng, shape):
    """Normal values with signed zeros, subnormals and tiny values whose
    products underflow to a signed zero."""
    v = rng.standard_normal(shape).astype(np.float32)
    pick = rng.random(shape)
    v[pick < 0.05] = -0.0
    v[(pick >= 0.05) & (pick < 0.1)] = 0.0
    sub = (pick >= 0.1) & (pick < 0.15)
    v[sub] = (rng.standard_normal(int(sub.sum())) * 1e-40).astype(np.float32)
    tiny = (pick >= 0.15) & (pick < 0.2)
    v[tiny] = (rng.standard_normal(int(tiny.sum())) * 1e-30).astype(
        np.float32)
    return v


def random_matrix(rng, n_rows, n_cols):
    """Rows of 0..12 draws (a fifth of them empty), repeats merged by
    scipy's COO route, weights with signed zeros and subnormals."""
    lens = rng.integers(1, 13, n_rows)
    lens[rng.random(n_rows) < 0.2] = 0
    rows = np.repeat(np.arange(n_rows), lens)
    cols = rng.integers(0, max(1, n_cols // 3), len(rows))
    vals = awkward(rng, len(rows))
    vals[rng.random(len(rows)) < 0.1] *= np.float32(1e-30)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n_rows, n_cols))


def ours(m):
    return CSRMatrix(m.indptr, m.indices, m.data, m.shape)


def same(got, want):
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


@pytest.mark.parametrize("d", WIDTHS)
@pytest.mark.parametrize("seed", range(4))
def test_products_match_scipy(d, seed):
    rng = np.random.default_rng(seed)
    n_rows, n_cols = int(rng.integers(1, 70)), int(rng.integers(1, 90))
    m = random_matrix(rng, n_rows, n_cols)
    a = ours(m)
    x = awkward(rng, (n_cols, d))
    g = awkward(rng, (n_rows, d))
    assert same(a @ x, m @ x)
    assert same(a.T @ g, m.T @ g)


def test_sampler_shaped_rows_match_scipy():
    """Every row full or empty, and one entry per row: the kernel's
    in-order shortcuts."""
    rng = np.random.default_rng(7)
    for lens in (np.full(40, 3), np.ones(40, np.int64)):
        rows = np.repeat(np.arange(40), lens)
        cols = np.concatenate([rng.choice(50, n, replace=False)
                               for n in lens])
        m = sp.csr_matrix((awkward(rng, len(rows)), (rows, cols)),
                          shape=(40, 50))
        for d in (1, 2, 64):
            x = awkward(rng, (50, d))
            assert same(ours(m) @ x, m @ x)
            g = awkward(rng, (40, d))
            assert same(ours(m).T @ g, m.T @ g)


def test_stored_order_and_duplicates_kept():
    """A matrix left as given (unsorted columns, repeated entries) is
    multiplied in stored order, as scipy does."""
    rng = np.random.default_rng(3)
    indptr = np.array([0, 5, 5, 9], dtype=np.int32)
    indices = np.array([4, 1, 4, 0, 1, 2, 2, 3, 0], dtype=np.int32)
    data = awkward(rng, 9)
    m = sp.csr_matrix((data, indices, indptr), shape=(3, 5))
    for d in (1, 3, 32):
        x, g = awkward(rng, (5, d)), awkward(rng, (3, d))
        assert same(ours(m) @ x, m @ x)
        assert same(ours(m).T @ g, m.T @ g)


def test_all_negative_zero_terms_sum_to_positive_zero():
    a = CSRMatrix(np.array([0, 2], np.int32), np.array([0, 1], np.int32),
                  np.array([1.0, -1.0], np.float32), (1, 2))
    x = np.array([[-0.0], [0.0]], dtype=np.float32)
    out = a @ x
    assert out.tobytes() == np.zeros((1, 1), np.float32).tobytes()
    assert same(out, sp.csr_matrix((a.data, a.indices, a.indptr),
                                   shape=a.shape) @ x)


def test_non_finite_inputs_leave_empty_rows_zero():
    rng = np.random.default_rng(5)
    m = random_matrix(rng, 30, 40)
    x = awkward(rng, (40, 8))
    x[rng.random((40, 8)) < 0.1] = np.inf
    x[rng.random((40, 8)) < 0.1] = -np.inf
    x[rng.random((40, 8)) < 0.1] = np.nan
    with np.errstate(invalid="ignore"):
        got = ours(m) @ x
    want = m @ x
    empty = np.diff(m.indptr) == 0
    assert empty.any()
    assert got[empty].tobytes() == np.zeros_like(got[empty]).tobytes()
    nan = np.isnan(want)
    assert (np.isnan(got) == nan).all()
    assert got[~nan].tobytes() == want[~nan].tobytes()


def test_float64_operand_upcasts_like_scipy():
    rng = np.random.default_rng(6)
    m = random_matrix(rng, 20, 25)
    x = rng.standard_normal((25, 4))
    assert same(ours(m) @ x, m @ x)


@pytest.mark.parametrize("shape", [(0, 4), (3, 0), (3, 4)])
def test_operators_without_entries(shape):
    m = sp.csr_matrix(shape, dtype=np.float32)
    a = ours(m)
    x = np.ones((shape[1], 2), np.float32)
    g = np.ones((shape[0], 2), np.float32)
    assert same(a @ x, m @ x)
    assert same(a.T @ g, m.T @ g)


def test_shape_mismatch_raises():
    a = ours(sp.csr_matrix((2, 3), dtype=np.float32))
    with pytest.raises(ValueError):
        a @ np.ones((2, 1), np.float32)
    with pytest.raises(ValueError):
        a @ np.ones(3, np.float32)
    with pytest.raises(ValueError):
        CSRMatrix(np.zeros(2, np.int32), np.zeros(1, np.int32),
                  np.zeros(1, np.float32), (1, 1))
