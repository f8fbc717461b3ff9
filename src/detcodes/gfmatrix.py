"""Dense exact linear algebra over GF(q).

Matrices are immutable wrappers around 2-D int64 numpy arrays holding
canonical residues.  Elimination uses plain first-nonzero pivoting; over an
exact field there is no numerical pivot strategy to worry about, and the
row operations are vectorized so rank computations on the few-hundred-row
matrices produced by the security audits stay cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


class SingularMatrixError(ValueError):
    """Raised when inverting a singular (or non-square) matrix."""


class InconsistentSystemError(ValueError):
    """Raised by solve() when A x = y has no solution."""


def _canonical(a: object, q: int) -> np.ndarray:
    arr = np.asarray(a, dtype=np.int64) % q
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {arr.shape}")
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


def row_reduce(a: np.ndarray, q: int) -> tuple[np.ndarray, list[int], int]:
    """Reduced row echelon form over GF(q).

    Returns (rref, pivot_columns, det_factor) where det_factor is the
    product of pivot values times the row-swap sign, reduced mod q; for a
    square full-rank input it equals the determinant.
    """
    a = np.array(a, dtype=np.int64) % q
    rows, cols = a.shape
    pivots: list[int] = []
    det_factor = 1
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            a[[r, p]] = a[[p, r]]
            det_factor = -det_factor
        pv = int(a[r, c])
        det_factor = det_factor * pv % q
        a[r] = a[r] * pow(pv, q - 2, q) % q
        factors = a[:, c].copy()
        factors[r] = 0
        a = (a - np.outer(factors, a[r])) % q
        pivots.append(c)
        r += 1
    return a, pivots, det_factor % q


def echelon_pivots(a: np.ndarray, q: int) -> list[int]:
    """Pivot columns of a row echelon form (forward elimination only).

    Since columns are processed left to right, the number of pivots below
    any column index k is exactly the rank of the first k columns; rank
    queries for a matrix and a column prefix share one elimination.

    Reduction mod q is delayed (Dumas, Giorgi & Pernet, TOMS 2008): each
    step reduces only the inspected column and the pivot row, and
    subtracts their outer product from the trailing block unreduced.  A
    step moves an entry by less than (q-1)^2, so the block is reduced
    once every 2^62 // (q-1)^2 steps and int64 never overflows; for
    q < 2^16 that is never in practice, for q near 2^31 every step.
    The input is never modified: reducing it mod q makes the one copy
    the elimination works in.
    """
    a = np.asarray(a, dtype=np.int64) % q
    rows, cols = a.shape
    period = max(1, (1 << 62) // (q - 1) ** 2)
    pending = 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        col = a[r:, c] % q
        nz = col.nonzero()[0]
        if nz.size == 0:
            continue
        k = int(nz[0])
        if nz.size > 1:
            pivot_row = a[r + k, c + 1 :] % q * pow(int(col[k]), q - 2, q) % q
            if pending == period:
                a[r:, c + 1 :] %= q
                pending = 0
            below = nz[1:]
            a[r + below, c + 1 :] -= col[below, None] * pivot_row
            pending += 1
        if k:
            # Row r is zero in column c, so it moves to the pivot row's
            # slot; slot r is never read again.
            a[r + k, c + 1 :] = a[r, c + 1 :]
        pivots.append(c)
        r += 1
    return pivots


def rank_of(a: np.ndarray, q: int) -> int:
    """Row rank over GF(q) of a raw array (no wrapping overhead)."""
    if a.size == 0:
        return 0
    return len(echelon_pivots(a, q))


@dataclass(frozen=True, eq=False)
class GFMatrix:
    """An immutable rows x cols matrix over GF(q)."""

    q: int
    a: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _canonical(self.a, self.q))

    # -- construction -----------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int, q: int) -> "GFMatrix":
        return cls(q, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, n: int, q: int) -> "GFMatrix":
        return cls(q, np.eye(n, dtype=np.int64))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], q: int) -> "GFMatrix":
        return cls(q, np.array(rows, dtype=np.int64))

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

    def _check_field(self, other: "GFMatrix") -> None:
        if self.q != other.q:
            raise ValueError(f"field mismatch: GF({self.q}) vs GF({other.q})")

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "GFMatrix") -> "GFMatrix":
        self._check_field(other)
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        return GFMatrix(self.q, self.a + other.a)

    def __sub__(self, other: "GFMatrix") -> "GFMatrix":
        self._check_field(other)
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        return GFMatrix(self.q, self.a - other.a)

    def __neg__(self) -> "GFMatrix":
        return GFMatrix(self.q, -self.a)

    def __matmul__(self, other: "GFMatrix") -> "GFMatrix":
        self._check_field(other)
        if self.cols != other.rows:
            raise ValueError(
                f"dimension mismatch for product: {self.shape} @ {other.shape}"
            )
        return GFMatrix(self.q, self.a @ other.a)

    def transpose(self) -> "GFMatrix":
        return GFMatrix(self.q, self.a.T)

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
        r, pivots, _ = row_reduce(self.a, self.q)
        return GFMatrix(self.q, r), tuple(pivots)

    def rank(self) -> int:
        return rank_of(self.a, self.q)

    def det(self) -> int:
        if self.rows != self.cols:
            raise ValueError(f"determinant of non-square {self.shape} matrix")
        if self.rows == 0:
            return 1 % self.q
        _, pivots, factor = row_reduce(self.a, self.q)
        return factor if len(pivots) == self.rows else 0

    def inv(self) -> "GFMatrix":
        if self.rows != self.cols:
            raise SingularMatrixError(f"cannot invert non-square {self.shape} matrix")
        n = self.rows
        aug = np.hstack([self.a, np.eye(n, dtype=np.int64)])
        r, pivots, _ = row_reduce(aug, self.q)
        if len(pivots) < n or (pivots and pivots[-1] >= n):
            raise SingularMatrixError("matrix is singular over GF(%d)" % self.q)
        return GFMatrix(self.q, r[:, n:])

    def solve(self, y: "GFMatrix") -> tuple["GFMatrix", bool]:
        """Solve A X = Y; returns (X, unique).

        X is the solution with all free variables set to zero; ``unique``
        is True iff A has full column rank.  Raises
        InconsistentSystemError when no solution exists.
        """
        self._check_field(y)
        if y.rows != self.rows:
            raise ValueError(f"right-hand side has {y.rows} rows, expected {self.rows}")
        aug = np.hstack([self.a, y.a])
        r, pivots, _ = row_reduce(aug, self.q)
        if any(p >= self.cols for p in pivots):
            raise InconsistentSystemError("system A x = y has no solution")
        x = np.zeros((self.cols, y.cols), dtype=np.int64)
        for row, p in enumerate(pivots):
            x[p] = r[row, self.cols:]
        return GFMatrix(self.q, x), len(pivots) == self.cols
