"""Determinant codes for (n, k=d, d) storage systems.

A code of mode m stores F = m*C(d+1, m+1) symbols in a d x C(d, m) message
matrix whose columns are labeled by the m-subsets of [d] in lexicographic
order.  Cell (x, I) is V-type when x is in I, W-type when x < max I lies
outside I, and P-type (parity) when x > max I; each (m+1)-subset J of [d]
forms a parity group whose m+1 cells satisfy an alternating-sign equation.
Node i stores row i of Psi @ M for an n x d Vandermonde encoder Psi.

Three index tables on SystemParams fix the matrix: the fill order, the
parity groups and the repair recombination.  `secure.assemble_rows`
builds batches of message matrices from the first two, by one gather,
for the striped file codec too, and `recombine` applies the third to
the repair packets' algebra; every single-matrix call is a batch of one.

Conventions used throughout the package: node ids and subset elements are
1-based (matching the matrix-row labels), all numpy indices are 0-based,
and converting between the two is always an explicit ``- 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .gf import Field, smallest_prime_gt
from .gfmatrix import GFMatrix, echelon_pivots, matmul, rank_of
from .subsets import LexIndexer, Subset, binom


def read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Mark cached index tables read-only: every caller shares them."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


@dataclass(frozen=True, eq=False)
class CellSums:
    """A table of signed cell sums: sum g adds signs[g, k] * A[rows[g, k],
    cols[g, k]] over k.  All three arrays have shape (sums, terms)."""

    rows: np.ndarray
    cols: np.ndarray
    signs: np.ndarray

    @classmethod
    def from_terms(cls, terms: list[list[tuple[int, int, int]]], width: int) -> "CellSums":
        """Table of len(terms) sums, each a list of ``width`` (sign, row, col)."""
        a = np.array(terms, dtype=np.intp).reshape(len(terms), width, 3)
        return cls(*read_only(a[..., 1], a[..., 2], a[..., 0].astype(np.int64)))

    def signed_sums(self, a: np.ndarray) -> np.ndarray:
        """The (..., sums) signed sums, unreduced, over a (..., rows, cols) batch."""
        return (a[..., self.rows, self.cols] * self.signs).sum(axis=-1)


@dataclass(frozen=True)
class SystemParams:
    """System (n, k=d, d) with code mode m over a prime field with q > n."""

    n: int
    d: int
    m: int
    field: Field

    def __post_init__(self) -> None:
        if not 1 <= self.m <= self.d:
            raise ValueError(f"mode must satisfy 1 <= m <= d, got m={self.m}, d={self.d}")
        if self.n < self.d:
            raise ValueError(f"need n >= d, got n={self.n}, d={self.d}")
        if self.field.q <= self.n:
            raise ValueError(f"field size {self.field.q} must exceed n={self.n}")

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def alpha(self) -> int:
        """Per-node storage: number of coded symbols per node."""
        return binom(self.d, self.m)

    @property
    def beta(self) -> int:
        """Per-helper repair bandwidth in symbols."""
        return binom(self.d - 1, self.m - 1)

    @property
    def file_size(self) -> int:
        """Number of free (V- and W-type) symbols in the message matrix."""
        return self.m * binom(self.d + 1, self.m + 1)

    @cached_property
    def columns(self) -> LexIndexer:
        return LexIndexer(self.d, self.m)

    @cached_property
    def repair_columns(self) -> LexIndexer:
        return LexIndexer(self.d, self.m - 1)

    @cached_property
    def parity_groups(self) -> LexIndexer:
        return LexIndexer(self.d, self.m + 1)

    # The three index tables that fix the message matrix, built once.

    @cached_property
    def info_index(self) -> tuple[np.ndarray, np.ndarray]:
        """0-based (rows, cols) of the V/W cells in the canonical fill order:
        columns in lexicographic order, and rows 1..max I of column I top
        to bottom (the rows below max I are parity cells)."""
        tops = [I[-1] for I in self.columns.subsets()]
        rows = np.concatenate([np.arange(top, dtype=np.intp) for top in tops])
        return read_only(rows, np.repeat(np.arange(self.alpha), tops))

    @cached_property
    def parity_table(self) -> tuple[tuple[np.ndarray, np.ndarray], CellSums]:
        """Every parity group J in lexicographic order, which sorts them by
        the column of their P cell (max J, J - {max J}): the P cells as
        0-based (rows, cols), and the signed partner cells that close them
        (`parity_partners`)."""
        col = {I: c for c, I in enumerate(self.columns.subsets())}
        groups = [(J[-1], J[:-1]) for J in self.parity_groups.subsets()]
        rows = np.array([x - 1 for x, _ in groups], dtype=np.intp)
        cols = np.array([col[I] for _, I in groups], dtype=np.intp)
        terms = [[(s, y - 1, col[Y]) for s, y, Y in parity_partners(x, I)] for x, I in groups]
        return read_only(rows, cols), CellSums.from_terms(terms, self.m)

    @cached_property
    def repair_table(self) -> CellSums:
        """For column I, the cells (x, I - {x}) of an alpha x C(d, m-1)
        grid over x in I, signed (-1)^ind(I, x) (the k-th x of I has
        ind(I, x) = k + 1): row I of every repair encoder, and the sum
        that rebuilds symbol I of a failed node."""
        rcol = {J: c for c, J in enumerate(self.repair_columns.subsets())}
        terms = [
            [((-1) ** (k + 1), x - 1, rcol[I[:k] + I[k + 1 :]]) for k, x in enumerate(I)]
            for I in self.columns.subsets()
        ]
        return CellSums.from_terms(terms, self.m)


def system(n: int, d: int, m: int, q: int | None = None) -> SystemParams:
    """Build SystemParams, defaulting q to the smallest prime above n."""
    return SystemParams(n, d, m, Field(q if q is not None else smallest_prime_gt(n)))


def info_cells(params: SystemParams) -> list[tuple[int, Subset]]:
    """V/W cells (x, I) in the canonical fill order (`SystemParams.info_index`)."""
    subsets = list(params.columns.subsets())
    rows, cols = params.info_index
    return [(x + 1, subsets[c]) for x, c in zip(rows.tolist(), cols.tolist())]


def first_inner_column(params: SystemParams, ell: int) -> int:
    """The first column whose m-subset lies inside [ell+1 : d]: the columns
    that meet [ell] form a lexicographic prefix, C(d, m) - C(d - ell, m)
    long (alpha when m > d - ell)."""
    return params.alpha - binom(params.d - ell, params.m)


def parity_partners(x: int, I: Subset) -> list[tuple[int, int, Subset]]:
    """For P cell (x, I), x > max I: list of (coefficient_sign, y, Y) such
    that M(x, I) = sum of sign * M(y, Y), with sign in {+1, -1}; the k-th
    y of I has ind(I, y) = k + 1 and Y = I + {x} - {y}."""
    J = I + (x,)
    return [((-1) ** (len(I) + k + 1), y, J[:k] + J[k + 1 :]) for k, y in enumerate(I)]


# -- repair recombination: it takes (..., d, cols) batches of any integer
# dtype, so a single matrix is a batch of one.


def recombine(mxi: np.ndarray, params: SystemParams) -> np.ndarray:
    """Repaired share(s) of node f from a (..., d, C(d, m-1)) batch of
    M @ Xi^f: symbol I is the signed sum over x in I of row x, column
    I - {x}, reduced mod q."""
    return params.repair_table.signed_sums(mxi) % params.q


# -- encoding and recovery ---------------------------------------------------


def vandermonde_encoder(params: SystemParams) -> GFMatrix:
    """n x d encoder Psi(i, j) = i^(j-1) on generators x_i = i.

    Any d x d submatrix is invertible, and any l x l submatrix of the
    first l columns is again Vandermonde and hence invertible.
    """
    q = params.q
    gens = np.arange(1, params.n + 1, dtype=np.int64)
    cols = [np.ones(params.n, dtype=np.int64)]
    for _ in range(params.d - 1):
        cols.append(cols[-1] * gens % q)
    return GFMatrix(q, np.stack(cols, axis=1))


def _freeze_values(self) -> None:
    """Store a read-only int64 copy of ``values``: the caller's array stays
    its own and writable."""
    v = np.array(self.values, dtype=np.int64)
    v.setflags(write=False)
    object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class NodeShare:
    """Content of one storage node: row node_id of Psi @ M."""

    node_id: int
    values: np.ndarray

    __post_init__ = _freeze_values


def encode(M: GFMatrix, psi: GFMatrix) -> list[NodeShare]:
    """Shares for all n nodes; share i is row i of Psi @ M."""
    C = psi @ M
    return [NodeShare(i + 1, C.a[i]) for i in range(C.rows)]


def recover_message(
    shares: Sequence[NodeShare], psi: GFMatrix, params: SystemParams
) -> GFMatrix:
    """Exact reconstruction of M from any d distinct node shares."""
    seen: dict[int, NodeShare] = {}
    for s in shares:
        if s.node_id in seen:
            raise ValueError(f"duplicate share for node {s.node_id}")
        seen[s.node_id] = s
    if len(seen) < params.d:
        raise ValueError(f"need {params.d} distinct shares, got {len(seen)}")
    chosen = list(seen.values())[: params.d]
    rows = [s.node_id - 1 for s in chosen]
    psi_k = psi.submatrix(rows, range(params.d))
    stacked = GFMatrix(params.q, np.stack([s.values for s in chosen]))
    return psi_k.inv() @ stacked


# -- repair -------------------------------------------------------------------


def repair_encoder(f: int, psi: GFMatrix, params: SystemParams) -> GFMatrix:
    """The C(d,m) x C(d,m-1) repair encoder of failed node f.

    Entry (I, J) equals sign(ind_I(x)) * Psi(f, x) when I = J + {x}, and
    zero otherwise; its rank is beta = C(d-1, m-1).
    """
    if not 1 <= f <= params.n:
        raise ValueError(f"node id {f} out of range [1, {params.n}]")
    t = params.repair_table
    arr = np.zeros((params.alpha, len(params.repair_columns)), dtype=np.int64)
    arr[np.arange(params.alpha)[:, None], t.cols] = t.signs * psi.a[f - 1, t.rows] % params.q
    return GFMatrix(params.q, arr)


@dataclass(frozen=True)
class RepairPacket:
    """Repair data sent from helper to the failed node: N_h @ Xi^f."""

    helper: int
    failed: int
    values: np.ndarray

    __post_init__ = _freeze_values


def repair_packet(
    share: NodeShare, f: int, psi: GFMatrix, params: SystemParams, xi: GFMatrix | None = None
) -> RepairPacket:
    if share.node_id == f:
        raise ValueError(f"node {f} cannot send repair data to itself")
    if xi is None:
        xi = repair_encoder(f, psi, params)
    payload = matmul(share.values, xi.a, params.q)
    return RepairPacket(share.node_id, f, payload)


def repair_node(
    f: int, packets: Sequence[RepairPacket], psi: GFMatrix, params: SystemParams
) -> NodeShare:
    """Rebuild node f's share exactly from d helper packets.

    Inverts Psi on the helper rows to recover M @ Xi^f, then recombines
    it (`recombine`).
    """
    helpers = sorted(p.helper for p in packets)
    if len(set(helpers)) != params.d or len(packets) != params.d:
        raise ValueError(f"need packets from {params.d} distinct helpers")
    if any(p.failed != f for p in packets):
        raise ValueError("packet targets a different failed node")
    if f in helpers:
        raise ValueError(f"failed node {f} cannot be its own helper")
    by_helper = {p.helper: p for p in packets}
    stacked = np.stack([by_helper[h].values for h in helpers])
    psi_h = psi.submatrix([h - 1 for h in helpers], range(params.d))
    mxi = matmul(psi_h.inv().a, stacked, params.q)  # equals M @ Xi^f
    return NodeShare(f, recombine(mxi, params))


def multi_repair_rank(
    u: int, failed: Iterable[int], psi: GFMatrix, params: SystemParams
) -> int:
    """Rank of [Xi^f : f in failed] stacked side by side.

    This is the number of independent symbols helper u sends when all
    nodes in ``failed`` are repaired simultaneously; it equals
    C(d, m) - C(d - |failed|, m) and does not depend on u.
    """
    fs = sorted(set(failed))
    if u in fs:
        raise ValueError(f"helper {u} is among the failed nodes")
    if not fs:
        return 0
    stacked = np.hstack([repair_encoder(f, psi, params).a for f in fs])
    return rank_of(stacked, params.q)


# -- repair payload basis ------------------------------------------------------


def packet_support_basis(xi: GFMatrix) -> tuple[int, ...]:
    """First beta linearly independent columns of Xi^f, in column order.

    These payload coordinates determine the rest: every other column of
    Xi^f is a combination of the basis columns, so the corresponding
    payload entries satisfy the same combinations.
    """
    return tuple(echelon_pivots(xi.a, xi.q))

