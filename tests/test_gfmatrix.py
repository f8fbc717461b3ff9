import math
import warnings
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from detcodes import gfmatrix
from detcodes.gf import is_prime
from detcodes.gfmatrix import (
    GFMatrix,
    SingularMatrixError,
    _float_dtype,
    _int_kernel,
    _rref,
    echelon_pivots,
    matmul,
    rank_of,
)


def rand_matrix(rng, rows, cols, q):
    return GFMatrix(q, rng.integers(0, q, (rows, cols)))


def test_matmul_examples():
    q = 7
    a = GFMatrix(q, np.array([[1, 2], [3, 4]]))
    v = GFMatrix(q, np.array([[1], [1]]))
    assert (a @ v) == GFMatrix(q, np.array([[3], [0]]))
    eye = GFMatrix(q, np.eye(3))
    b = rand_matrix(np.random.default_rng(0), 3, 4, q)
    assert eye @ b == b
    assert b @ GFMatrix(q, np.zeros((4, 2))) == GFMatrix(q, np.zeros((3, 2)))


def test_matmul_mismatch():
    with pytest.raises(ValueError):
        GFMatrix(7, np.zeros((2, 3))) @ GFMatrix(7, np.zeros((2, 3)))
    with pytest.raises(ValueError):
        GFMatrix(7, np.zeros((2, 3))) @ GFMatrix(11, np.zeros((3, 2)))
    with pytest.raises(ValueError):  # period 1: the first slices would agree
        matmul(np.ones((2, 2)), np.ones((3, 3)), 2**31 - 1)


@st.composite
def product_case(draw):
    """(q, a, b): operands in the shapes `matmul`'s callers use, with an
    inner dimension of 0, 1 or several reduction periods (the period is 1
    at q >= 2^31 - 1), and entries random, all q - 1, or unreduced."""
    q = draw(st.sampled_from([2, 11, 65521, 2**31 - 1, 2**31 + 1]))
    k = draw(st.sampled_from([0, 1, 2, 7]))
    r, c, s = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(1, 3))
    shapes = draw(st.sampled_from([
        ((r, k), (k, c)),  # GFMatrix @, repair_node, node contents
        ((k,), (k, c)),  # repair_packet: one share times Xi^f
        ((r, k), (k,)),  # _solve_keys: M_S @ secrets
        ((r, k), (s, k, c)),  # Xi^f transposed against stacked node maps
        ((s, r, k), (s, k, c)),  # stacked
    ]))
    kind = draw(st.sampled_from(["random", "all q-1", "unreduced"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "all q-1":
        return q, np.full(shapes[0], q - 1), np.full(shapes[1], q - 1)
    lo, hi = (0, q) if kind == "random" else (-2 * q, 2 * q)
    return q, rng.integers(lo, hi, shapes[0]), rng.integers(lo, hi, shapes[1])


@settings(max_examples=300, deadline=None)
@given(product_case())
def test_matmul_matches_python_int_product(case):
    # At q near 2^31 one product of residues is almost 2^62, so a sum of
    # two overflows int64 unless it is reduced in between.
    q, a, b = case
    expected = (a.astype(object) @ b.astype(object)) % q
    got = matmul(a, b, q)
    assert got.dtype == np.int64 and got.shape == expected.shape
    assert np.array_equal(got, expected.astype(np.int64))


@pytest.mark.parametrize("q", [1, 2**31 + 2, 4294967311])
def test_fields_beyond_the_int64_kernels_refused(q):
    # 4294967311, the least prime above 2^32: (q-1)^2 does not fit in int64.
    eye = np.eye(2, dtype=np.int64)
    for call in (lambda: GFMatrix(q, eye), lambda: echelon_pivots(eye, q),
                 lambda: matmul(eye, eye, q)):
        with pytest.raises(ValueError, match=r"needs 2 <= q <= 2\^31 \+ 1"):
            call()


def test_field_checked_before_reduction():
    # At q = 0, reducing first would warn (division by zero in remainder)
    # before the field check raises.
    eye = np.eye(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: echelon_pivots(eye, 0), lambda: rank_of(eye, 0),
                     lambda: _rref(eye, 0), lambda: matmul(eye, eye, 0)):
            with pytest.raises(ValueError, match=r"GF\(0\) arithmetic needs"):
                call()


def test_rank_examples():
    assert GFMatrix(7, np.eye(4)).rank() == 4
    assert GFMatrix(7, np.zeros((3, 5))).rank() == 0
    # 4x4 Vandermonde on distinct nonzero points of GF(7)
    pts = [1, 2, 3, 4]
    q = 7
    vand = GFMatrix(q, np.array([[pow(x, j, q) for j in range(4)] for x in pts]))
    assert vand.rank() == 4
    assert GFMatrix(q, np.array([[1, 2], [1, 2]])).rank() == 1


def test_inverse_examples():
    q = 7
    assert GFMatrix(q, np.eye(5)).inv() == GFMatrix(q, np.eye(5))
    d = GFMatrix(q, np.array([[2, 0], [0, 3]]))
    assert d.inv() == GFMatrix(q, np.array([[4, 0], [0, 5]]))
    vand = GFMatrix(q, np.array([[1, 1], [1, 2]]))
    assert vand.inv() == GFMatrix(q, np.array([[2, 6], [6, 1]]))
    rng = np.random.default_rng(3)
    while True:
        a = rand_matrix(rng, 5, 5, 11)
        if a.rank() == 5:
            break
    assert a @ a.inv() == GFMatrix(11, np.eye(5))


def test_inverse_singular_reported():
    with pytest.raises(SingularMatrixError):
        GFMatrix(7, np.array([[1, 2], [2, 4]])).inv()
    with pytest.raises(SingularMatrixError):
        GFMatrix(7, np.zeros((2, 3))).inv()


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
    assert a.rank() == GFMatrix(a.q, a.a.T).rank()


@settings(max_examples=40, deadline=None)
@given(gf_matrix(q=11))
def test_rref_idempotent_and_rank(a):
    r, pivots = a.rref()
    assert len(pivots) == a.rank()
    assert r.rref()[0] == r


def test_exhaustive_2x2_3x3_gf3_consistency():
    # On every matrix the rank is log_q of the size of the row span,
    # counted by brute force, and invertibility agrees with full rank.
    q = 3
    for n in (2, 3):
        coeffs = np.array(list(product(range(q), repeat=n)))
        for vals in product(range(q), repeat=n * n):
            m = GFMatrix(q, np.array(vals).reshape(n, n))
            span = {tuple(row) for row in (coeffs @ m.a % q).tolist()}
            assert len(span) == q ** m.rank()
            if m.rank() == n:
                assert m @ m.inv() == GFMatrix(q, np.eye(n))
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
    q = draw(st.sampled_from([2, 3, 11, 46337, 46349, 65521, 2**31 - 1]))
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


def assert_rref_certificate(q, a):
    """R is in reduced row echelon form with pivot columns P, R[:, P] = I,
    A = A[:, P] @ R over GF(q), and P are the rank kernel's pivots.  The
    product is taken in Python ints: int64 overflows at q = 2^31 - 1."""
    r, pivots = GFMatrix(q, a).rref()
    r, pivots, rank = r.a, list(pivots), len(pivots)
    assert pivots == echelon_pivots(a, q)
    assert pivots == sorted(set(pivots))
    assert not r[rank:].any()
    for i, p in enumerate(pivots):
        assert not r[i, :p].any() and r[i, p] == 1
    assert np.array_equal(r[:rank][:, pivots], np.eye(rank, dtype=np.int64))
    a = np.asarray(a, dtype=object) % q
    assert ((a[:, pivots].dot(r[:rank].astype(object)) - a) % q == 0).all()
    return r, pivots


@settings(max_examples=300, deadline=None)
@given(elimination_case())
def test_echelon_pivots_match_rref_certificate(case):
    assert_rref_certificate(*case)


@pytest.mark.parametrize("q", [65521, 2**31 - 1])
@pytest.mark.parametrize("rows,cols,k", [(30, 20, 7), (20, 30, 13), (40, 40, 25)])
def test_echelon_pivots_low_rank_large_fields(q, rows, cols, k):
    # Exact cancellation over many pivot steps: a kernel that let entries
    # overflow int64 would leave nonzero residues and overcount the rank.
    a = low_rank(np.random.default_rng(rows * cols + k), rows, cols, k, q)
    _, pivots = assert_rref_certificate(q, a)
    assert len(pivots) == k


@pytest.mark.parametrize("n", [1, 5, 24])
def test_inverse_large_field(n):
    # At q = 2^31 - 1 the shared kernel reduces on every step; check
    # A @ inv(A) = I in Python ints.
    q = 2**31 - 1
    a = GFMatrix(q, np.random.default_rng(n).integers(0, q, (n, n)))
    product = a.a.astype(object).dot(a.inv().a.astype(object)) % q
    assert np.array_equal(product.astype(np.int64), np.eye(n, dtype=np.int64))


# -- each exactness rule at its edge, against Python ints --------------------------


def python_echelon(a, q):
    """Reduced row echelon form and pivot columns by textbook Gauss-Jordan
    over GF(q) in Python ints, every entry reduced after every step: a
    reference that shares no code or integer type with the kernel."""
    rows = [[int(x) % q for x in row] for row in np.asarray(a).tolist()]
    cols = len(rows[0]) if rows else 0
    pivots, r = [], 0
    for c in range(cols):
        k = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        inv = pow(rows[r][c], q - 2, q)
        rows[r] = [x * inv % q for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % q for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def test_int_kernel_rule():
    # int32 while (2^31 - q) // (q-1)^2 >= 1: 46,337 is the last prime
    # there, with period 1, so the block is reduced on every step.
    assert _int_kernel(11) == (np.int32, ((1 << 31) - 11) // 100)
    assert _int_kernel(46337) == (np.int32, 1)
    assert is_prime(46337) and not any(is_prime(q) for q in range(46338, 46349))
    assert _int_kernel(46349) == (np.int64, (1 << 62) // 46348**2)
    assert _int_kernel(65521)[0] is np.int64 and _int_kernel(2**31 - 1) == (np.int64, 1)


def edge_matrices(q, rows, cols, seed):
    """Random, low-rank and all-(q-1) matrices: all q - 1 makes every
    product of a step (q-1)^2, the largest growth per step."""
    rng = np.random.default_rng(seed)
    return {
        "random": rng.integers(0, q, (rows, cols)),
        "low-rank": low_rank(rng, rows, cols, min(rows, cols) // 2, q),
        "all q-1": np.full((rows, cols), q - 1),
    }


@pytest.mark.parametrize("q", [46337, 46349])
@pytest.mark.parametrize("shape", [(12, 12), (20, 9), (9, 20)])
def test_elimination_exact_at_the_int32_edge(q, shape):
    for kind, a in edge_matrices(q, *shape, seed=q + shape[0]).items():
        ref_rows, ref_pivots = python_echelon(a, q)
        assert echelon_pivots(a, q) == ref_pivots, kind
        assert rank_of(a, q) == len(ref_pivots), kind
        r, pivots = GFMatrix(q, a).rref()
        assert list(pivots) == ref_pivots, kind
        assert r.a.tolist() == ref_rows, kind
        if shape[0] != shape[1]:
            continue
        n = shape[0]
        if len(ref_pivots) < n:
            with pytest.raises(SingularMatrixError):
                GFMatrix(q, a).inv()
        else:
            ref_inv, _ = python_echelon(np.hstack([a, np.eye(n, dtype=np.int64)]), q)
            assert GFMatrix(q, a).inv().a.tolist() == [row[n:] for row in ref_inv], kind


def edge_primes(k, bound):
    """The largest prime q with k(q-1)^2 < bound - q and the least one past it."""
    q = math.isqrt(bound // k) + 1
    while k * (q - 1) ** 2 >= bound - q or not is_prime(q):
        q -= 1
    above = q + 1
    while not is_prime(above):
        above += 1
    assert k * (above - 1) ** 2 >= bound - above
    return q, above


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("bound", [1 << 24, 1 << 53], ids=["2^24", "2^53"])
def test_matmul_exact_at_the_float_edges(monkeypatch, k, bound):
    # Just below 2^24 - q the product is float32, just above it float64;
    # just below 2^53 - q float64, and just above it the int64 loop.
    seen = []
    mod = gfmatrix._mod
    monkeypatch.setattr(gfmatrix, "_mod", lambda x, q: seen.append(x.dtype) or mod(x, q))
    below, above = edge_primes(k, bound)
    rng = np.random.default_rng(k)
    for q in (below, above):
        seen.clear()
        for a, b in [
            (np.full((3, k), q - 1), np.full((k, 4), q - 1)),
            (rng.integers(0, q, (3, k)), rng.integers(0, q, (k, 4))),
            (np.full((3, k), q - 1), np.full((2, k, 4), q - 1)),  # reduced_traffic_rows
            (rng.integers(0, q, (3, k)), rng.integers(0, q, (2, k, 4))),
        ]:
            expected = (a.astype(object) @ b.astype(object)) % q
            got = matmul(a, b, q)
            assert got.dtype == np.int64 and got.tolist() == expected.tolist()
        if bound == 1 << 24:
            assert seen == [np.float32 if q == below else np.float64] * 4
            assert seen[0] == _float_dtype(k, q)
        else:
            assert seen == ([np.float64] * 4 if q == below else [])


def test_matmul_largest_field_stays_on_the_int64_loop(monkeypatch):
    monkeypatch.setattr(gfmatrix, "_mod", lambda *a: pytest.fail("float product"))
    q = 2**31 - 1
    for a, b in [(np.full((2, 1), q - 1), np.full((1, 3), q - 1)),
                 (np.full((2, 1), q - 1), np.full((2, 1, 3), q - 1))]:
        assert matmul(a, b, q).tolist() == ((a.astype(object) @ b.astype(object)) % q).tolist()


@pytest.mark.parametrize(
    "a, pivots",
    [
        # After the first step rows 2 and 3 hold -11 and 0 in column 2:
        # nonzero integers that are zero mod 11, so the elimination stops.
        ([[1, 0, 5], [3, 0, 4], [2, 0, 10]], [0]),
        # The first zero column sees a nonzero trailing block and goes on;
        # later zero columns are not checked again.
        ([[1, 0, 5, 0, 1], [3, 0, 4, 0, 2], [2, 0, 9, 0, 7]], [0, 2, 4]),
        ([[0, 0, 0], [0, 0, 0]], []),
        ([[0, 2, 1], [0, 4, 2]], [1]),
    ],
)
def test_tail_exit_keeps_every_pivot(a, pivots):
    q = 11
    assert python_echelon(a, q)[1] == pivots
    assert echelon_pivots(np.array(a), q) == pivots
    assert list(GFMatrix(q, np.array(a)).rref()[1]) == pivots
