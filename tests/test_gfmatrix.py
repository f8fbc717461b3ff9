from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from detcodes.gfmatrix import (
    GFMatrix,
    InconsistentSystemError,
    SingularMatrixError,
    echelon_pivots,
    row_reduce,
)


def rand_matrix(rng, rows, cols, q):
    return GFMatrix(q, rng.integers(0, q, (rows, cols)))


def test_matmul_examples():
    q = 7
    a = GFMatrix.from_rows([[1, 2], [3, 4]], q)
    v = GFMatrix.from_rows([[1], [1]], q)
    assert (a @ v) == GFMatrix.from_rows([[3], [0]], q)
    eye = GFMatrix.identity(3, q)
    b = rand_matrix(np.random.default_rng(0), 3, 4, q)
    assert eye @ b == b
    assert b @ GFMatrix.zeros(4, 2, q) == GFMatrix.zeros(3, 2, q)


def test_matmul_mismatch():
    with pytest.raises(ValueError):
        GFMatrix.zeros(2, 3, 7) @ GFMatrix.zeros(2, 3, 7)
    with pytest.raises(ValueError):
        GFMatrix.zeros(2, 3, 7) @ GFMatrix.zeros(3, 2, 11)


def test_rank_examples():
    assert GFMatrix.identity(4, 7).rank() == 4
    assert GFMatrix.zeros(3, 5, 7).rank() == 0
    # 4x4 Vandermonde on distinct nonzero points of GF(7)
    pts = [1, 2, 3, 4]
    q = 7
    vand = GFMatrix.from_rows([[pow(x, j, q) for j in range(4)] for x in pts], q)
    assert vand.rank() == 4
    det = 1
    for t in range(4):
        for s in range(t):
            det = det * (pts[t] - pts[s]) % q
    assert vand.det() == det != 0


def test_inverse_examples():
    q = 7
    assert GFMatrix.identity(5, q).inv() == GFMatrix.identity(5, q)
    d = GFMatrix.from_rows([[2, 0], [0, 3]], q)
    assert d.inv() == GFMatrix.from_rows([[4, 0], [0, 5]], q)
    rng = np.random.default_rng(3)
    while True:
        a = rand_matrix(rng, 5, 5, 11)
        if a.rank() == 5:
            break
    assert a @ a.inv() == GFMatrix.identity(5, 11)


def test_inverse_singular_reported():
    with pytest.raises(SingularMatrixError):
        GFMatrix.from_rows([[1, 2], [2, 4]], 7).inv()
    with pytest.raises(SingularMatrixError):
        GFMatrix.zeros(2, 3, 7).inv()


def test_det_examples():
    q = 7
    assert GFMatrix.identity(3, q).det() == 1
    assert GFMatrix.from_rows([[1, 2], [1, 2]], q).det() == 0
    vand = GFMatrix.from_rows([[1, 1], [1, 2]], q)
    assert vand.det() == 1  # 2 - 1


def test_submatrix():
    q = 11
    a = rand_matrix(np.random.default_rng(5), 4, 6, q)
    assert a.submatrix(range(4), range(6)) == a
    one = a.submatrix([1], [1])
    assert one.shape == (1, 1) and one.a[0, 0] == a.a[1, 1]
    with pytest.raises(IndexError):
        a.submatrix([4], [0])
    with pytest.raises(IndexError):
        a.submatrix([0], [6])


def test_solve_identity_and_roundtrip():
    q = 11
    rng = np.random.default_rng(9)
    y = rand_matrix(rng, 4, 2, q)
    x, unique = GFMatrix.identity(4, q).solve(y)
    assert unique and x == y
    # full column rank round trip
    a = GFMatrix.from_rows([[1, 0], [1, 1], [2, 5]], q)
    x0 = rand_matrix(rng, 2, 3, q)
    x, unique = a.solve(a @ x0)
    assert unique and x == x0


def test_solve_inconsistent():
    q = 7
    a = GFMatrix.zeros(2, 2, q)
    y = GFMatrix.from_rows([[1], [0]], q)
    with pytest.raises(InconsistentSystemError):
        a.solve(y)


def test_solve_underdetermined_free_vars_zero():
    q = 7
    a = GFMatrix.from_rows([[1, 2, 3]], q)
    y = GFMatrix.from_rows([[5]], q)
    x, unique = a.solve(y)
    assert not unique
    assert x == GFMatrix.from_rows([[5], [0], [0]], q)


@st.composite
def gf_matrix(draw, q=7, max_dim=6, rows=None, cols=None):
    r = rows if rows is not None else draw(st.integers(1, max_dim))
    c = cols if cols is not None else draw(st.integers(1, max_dim))
    vals = draw(st.lists(st.integers(0, q - 1), min_size=r * c, max_size=r * c))
    return GFMatrix(q, np.array(vals).reshape(r, c))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rank_product_bound_property(data):
    a = data.draw(gf_matrix())
    b = data.draw(gf_matrix(rows=a.cols))
    assert (a @ b).rank() <= min(a.rank(), b.rank())


@settings(max_examples=60, deadline=None)
@given(gf_matrix())
def test_rank_transpose_property(a):
    assert a.rank() == a.transpose().rank()


@settings(max_examples=40, deadline=None)
@given(gf_matrix(q=11))
def test_rref_idempotent_and_rank(a):
    r, pivots = a.rref()
    assert len(pivots) == a.rank()
    assert r.rref()[0] == r


def test_exhaustive_2x2_3x3_gf3_consistency():
    # det != 0, full rank, and invertibility agree on every matrix
    q = 3
    for n in (2, 3):
        for vals in product(range(q), repeat=n * n):
            m = GFMatrix(q, np.array(vals).reshape(n, n))
            nonsingular = m.det() != 0
            assert nonsingular == (m.rank() == n)
            if nonsingular:
                assert m @ m.inv() == GFMatrix.identity(n, q)
            else:
                with pytest.raises(SingularMatrixError):
                    m.inv()


def low_rank(rng, rows, cols, k, q):
    """A product of random rows x k and k x cols factors, mod q."""
    u, v = rng.integers(0, q, (rows, k)), rng.integers(0, q, (k, cols))
    a = np.zeros((rows, cols), dtype=np.int64)
    for j in range(k):  # one term at a time: q^2 stays below 2^63
        a = (a + u[:, [j]] * v[j] % q) % q
    return a


@st.composite
def elimination_case(draw):
    """(q, a): random, low-rank, sparse, tall, wide or empty matrices.

    At q = 2^31 - 1 one pivot step can move an entry by almost 2^62, so
    the kernel's periodic reduction runs on every step there.
    """
    q = draw(st.sampled_from([2, 3, 11, 65521, 2**31 - 1]))
    kind = draw(st.sampled_from(["random", "low-rank", "sparse", "tall", "wide", "empty"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "empty":
        rows, cols = draw(st.sampled_from([(0, 0), (0, 5), (5, 0)]))
    elif kind == "tall":
        rows, cols = draw(st.integers(9, 40)), draw(st.integers(1, 8))
    elif kind == "wide":
        rows, cols = draw(st.integers(1, 8)), draw(st.integers(9, 40))
    else:
        rows, cols = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    a = rng.integers(0, q, (rows, cols))
    if kind == "low-rank":
        a = low_rank(rng, rows, cols, draw(st.integers(0, min(rows, cols))), q)
    elif kind == "sparse":  # zero leading entries force row moves
        a = a * (rng.random((rows, cols)) < 0.15)
    return q, a


@settings(max_examples=300, deadline=None)
@given(elimination_case())
def test_echelon_pivots_match_row_reduce(case):
    q, a = case
    assert echelon_pivots(a, q) == row_reduce(a, q)[1]


@pytest.mark.parametrize("q", [65521, 2**31 - 1])
@pytest.mark.parametrize("rows,cols,k", [(30, 20, 7), (20, 30, 13), (40, 40, 25)])
def test_echelon_pivots_low_rank_large_fields(q, rows, cols, k):
    # Exact cancellation over many pivot steps: a kernel that let entries
    # overflow int64 would leave nonzero residues and overcount the rank.
    a = low_rank(np.random.default_rng(rows * cols + k), rows, cols, k, q)
    pivots = echelon_pivots(a, q)
    assert pivots == row_reduce(a, q)[1] and len(pivots) == k
