"""Dense exact linear algebra over GF(q).

Matrices are immutable wrappers around 2-D int64 numpy arrays holding
canonical residues.  The one forward elimination behind ranks, `rref` and
`inv` pivots on the first nonzero (over an exact field there is no
numerical pivot strategy to worry about) in the integer type and period
of one rule, `_int_kernel`: int32 for q <= 46,337, else int64 under
`_period`.  The one product, `matmul`, is a GEMM in `_float_dtype`'s
type (the file codec's float rule) while its sums stay below 2^53, else
int64 under `_period`.  Row operations are vectorized, so ranks of the
audits' few-hundred-row matrices stay cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .gf import check_q_range


class SingularMatrixError(ValueError):
    """Raised when inverting a singular (or non-square) matrix."""


def _period(q: int) -> int:
    """How many residue products int64 can add to a reduced sum before it
    must reduce again: q + t(q-1)^2 < 2^63 for t = 2^62 // (q-1)^2, which
    is at least 1 exactly when q <= 2^31 + 1 (Dumas, Giorgi & Pernet, TOMS 2008)."""
    check_q_range(q)
    return (1 << 62) // (q - 1) ** 2


def _int_kernel(q: int) -> tuple[type[np.signedinteger], int]:
    """The elimination's integer type and period: int32 when a reduced int32
    sum can take t = (2^31 - q) // (q-1)^2 >= 1 products (q - 1 + t(q-1)^2 <
    2^31), true for q <= 46,337 among primes; int64 with `_period(q)` else."""
    wide = _period(q)  # checks q before dividing by (q-1)^2
    narrow = ((1 << 31) - q) // (q - 1) ** 2
    return (np.int32, narrow) if narrow >= 1 else (np.int64, wide)


def _float_dtype(k: int, q: int) -> type[np.floating]:
    """The float type of an exact product with inner dimension k over
    residues below q: float32 when k(q-1)^2 < 2^24 - q, so that every
    partial sum, and `_mod` of it, stays exact in its 24-bit significand
    whatever the summation order (Dumas, Giorgi & Pernet, TOMS 2008);
    float64 otherwise."""
    return np.float32 if k * (q - 1) ** 2 < (1 << 24) - q else np.float64


def matmul(a: object, b: object, q: int) -> np.ndarray:
    """Exact ``a @ b`` mod q as int64 residues, with numpy's matmul broadcasting:
    one `_float_dtype(k, q)` product and `_mod` while k(q-1)^2 < 2^53 - q, else
    int64 sums reduced every `_period(q)` products along the inner dimension k."""
    period = _period(q)
    a, b = np.asarray(a, dtype=np.int64) % q, np.asarray(b, dtype=np.int64) % q
    inner = max(b.ndim - 2, 0)  # b's summed axis
    k = a.shape[-1]
    if k != b.shape[inner]:
        raise ValueError(f"dimension mismatch for product: {a.shape} @ {b.shape}")
    if k * (q - 1) ** 2 < (1 << 53) - q:
        dtype = _float_dtype(k, q)
        return _mod(a.astype(dtype) @ b.astype(dtype), q).astype(np.int64)
    lead = (slice(None),) * inner
    out = a[..., :period] @ b[lead + (slice(period),)] % q
    for j in range(period, k, period):
        out = (out + a[..., j : j + period] @ b[lead + (slice(j, j + period),)]) % q
    return out


def _mod(x: np.ndarray, q: int) -> np.ndarray:
    """Canonical residues of integers |x| < 2^p - q: in x's float type, whose
    significand has p bits (24 for float32, 53 for float64), or in float64
    (p = 53) for an integer dtype.

    With x = kq + r (0 <= r < q), fl(x / q) is k + r/q rounded to nearest,
    which is at least k, because |k| < 2^p is a float and rounding is
    monotonic.  It cannot reach k + 1: (k + 1) - (k + r/q) = (q - r)/q >=
    1/q, while half an ulp of k is at most |k| * 2^-p < 1/q whenever
    |kq| < 2^p, which |x| < 2^p - q ensures for either sign (k <= -1 for
    negative x, where |kq| = |x| + r).  So floor(fl(x / q)) = k, and
    x - q*k is exact as well.
    """
    r = x / q
    np.floor(r, out=r)
    r *= q
    np.subtract(x, r, out=r)
    return r


def _residues(a: object, q: int, dtype: type[np.signedinteger] = np.int64) -> np.ndarray:
    """``a`` mod q as a new ``dtype`` array (via int64 if ``dtype`` cannot hold
    ``a``), once `_period` has accepted q (before ``%``, which warns at q = 0)."""
    _period(q)
    a = np.asarray(a)
    if not np.can_cast(a.dtype, dtype):
        a = np.asarray(a, dtype=np.int64) % q
    return np.remainder(a, q, dtype=dtype)


def _canonical(a: object, q: int) -> np.ndarray:
    arr = _residues(a, q)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {arr.shape}")
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


def _forward(a: object, q: int, keep_rows: bool) -> tuple[np.ndarray, list[int]]:
    """Forward elimination of ``a`` mod q, copied into `_int_kernel(q)`'s
    type; returns the copy and the pivot columns of a row echelon form.

    Reduction mod q is delayed (Dumas, Giorgi & Pernet, TOMS 2008): each
    step reduces only the inspected column, the pivot row and the
    multipliers below it, and subtracts their outer product from the
    trailing block unreduced.  A step moves an entry by at most (q-1)^2,
    so the block is reduced once per period: every 21 million steps at
    q = 11 (int32), every step near q = 46,337 (int32) and q = 2^31 (int64).
    The first all-zero column checks the trailing block once, and stops
    the elimination if it is zero mod q.

    With ``keep_rows``, row i of the copy ends as the i-th pivot row scaled
    to a leading 1, valid from its pivot column on and reduced mod q; the
    rest is left unspecified.  Rank queries, the audits' hot loop, keep
    no pivot row, and reduce none for a column whose only nonzero is the
    pivot.
    """
    dtype, period = _int_kernel(q)
    a = _residues(a, q, dtype)
    rows, cols = a.shape
    pending, check_tail = 0, True
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        sub = a[r:]
        col = sub[:, c] % q
        nz = col.nonzero()[0]
        if nz.size == 0:
            if check_tail and not (sub[:, c + 1 :] % q).any():
                break
            check_tail = False
            continue
        k = int(nz[0])
        if nz.size > 1 or keep_rows:
            inv = pow(int(col[k]), q - 2, q)
            pivot_row = sub[k, c + 1 :] % q
        if nz.size > 1:
            if pending == period:
                sub[:, c + 1 :] %= q
                pending = 0
            below = nz[1:]
            sub[below, c + 1 :] -= (col[below] * inv % q)[:, None] * pivot_row
            pending += 1
        if k:
            # Row r is zero in column c and untouched by this step, so it
            # moves to the pivot row's slot.
            sub[k, c + 1 :] = sub[0, c + 1 :]
        if keep_rows:
            sub[0, c] = 1
            sub[0, c + 1 :] = pivot_row * inv % q
        pivots.append(c)
        r += 1
    return a, pivots


def echelon_pivots(a: np.ndarray, q: int) -> list[int]:
    """Pivot columns of a row echelon form (forward elimination only).

    Since columns are processed left to right, the number of pivots below
    any column index k is exactly the rank of the first k columns; rank
    queries for a matrix and a column prefix share one elimination.  The
    input is never modified: reducing it mod q makes the one copy the
    elimination works in.
    """
    return _forward(a, q, keep_rows=False)[1]


def _rref(a: np.ndarray, q: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and pivot columns: the forward pass with
    its pivot rows kept, then back substitution from the last pivot up."""
    work, pivots = _forward(a, q, keep_rows=True)
    out = np.zeros_like(work)
    for i, p in enumerate(pivots):
        out[i, p:] = work[i, p:]
    for i in range(len(pivots) - 1, 0, -1):
        out[:i] = (out[:i] - out[:i, pivots[i], None] * out[i]) % q
    return out, pivots


def rank_of(a: np.ndarray, q: int) -> int:
    """Row rank over GF(q) of a raw array (no wrapping overhead)."""
    return len(echelon_pivots(a, q))


@dataclass(frozen=True, eq=False)
class GFMatrix:
    """An immutable rows x cols matrix over GF(q)."""

    q: int
    a: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _canonical(self.a, self.q))

    # -- basics -----------------------------------------------------------

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape  # type: ignore[return-value]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GFMatrix):
            return NotImplemented
        return self.q == other.q and self.shape == other.shape and bool(
            np.array_equal(self.a, other.a)
        )

    def __repr__(self) -> str:
        return f"GFMatrix(q={self.q}, shape={self.shape})"

    # -- arithmetic -------------------------------------------------------

    def __matmul__(self, other: "GFMatrix") -> "GFMatrix":
        if self.q != other.q:
            raise ValueError(f"field mismatch: GF({self.q}) vs GF({other.q})")
        return GFMatrix(self.q, matmul(self.a, other.a, self.q))

    # -- slicing ----------------------------------------------------------

    def submatrix(self, row_idx: Iterable[int], col_idx: Iterable[int]) -> "GFMatrix":
        """Submatrix by 0-based row/column indices, preserving given order."""
        ri = list(row_idx)
        ci = list(col_idx)
        if any(not 0 <= i < self.rows for i in ri):
            raise IndexError(f"row index out of range for {self.rows} rows")
        if any(not 0 <= j < self.cols for j in ci):
            raise IndexError(f"column index out of range for {self.cols} columns")
        return GFMatrix(self.q, self.a[np.ix_(ri, ci)] if ri and ci else
                        np.zeros((len(ri), len(ci)), dtype=np.int64))

    # -- elimination-based operations --------------------------------------

    def rref(self) -> tuple["GFMatrix", tuple[int, ...]]:
        r, pivots = _rref(self.a, self.q)
        return GFMatrix(self.q, r), tuple(pivots)

    def rank(self) -> int:
        return rank_of(self.a, self.q)

    def inv(self) -> "GFMatrix":
        if self.rows != self.cols:
            raise SingularMatrixError(f"cannot invert non-square {self.shape} matrix")
        n = self.rows
        r, pivots = _rref(np.hstack([self.a, np.eye(n, dtype=np.int64)]), self.q)
        if len(pivots) < n or (pivots and pivots[-1] >= n):
            raise SingularMatrixError("matrix is singular over GF(%d)" % self.q)
        return GFMatrix(self.q, r[:, n:])
