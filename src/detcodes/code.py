"""Determinant codes for (n, k=d, d) storage systems.

A code of mode m stores F = m*C(d+1, m+1) symbols in a d x C(d, m) message
matrix whose columns are labeled by the m-subsets of [d] in lexicographic
order.  Cell (x, I) is V-type when x is in I, W-type when x < max I lies
outside I, and P-type (parity) when x > max I; each (m+1)-subset J of [d]
forms a parity group whose m+1 cells satisfy an alternating-sign equation.
Node i stores row i of Psi @ M for an n x d Vandermonde encoder Psi.

Three index tables on SystemParams fix the matrix: the fill order, the
parity groups and the repair recombination.  `close_parity` and
`recombine` apply them to batches of matrices; every single-matrix call
is a batch of one, and the striped file codec uses the same functions.

Conventions used throughout the package: node ids and subset elements are
1-based (matching the matrix-row labels), all numpy indices are 0-based,
and converting between the two is always an explicit ``- 1``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .gf import Field, smallest_prime_gt
from .gfmatrix import GFMatrix, rank_of
from .subsets import LexIndexer, Subset, binom


class CellKind(enum.Enum):
    V = "V"
    W = "W"
    P = "P"


def cell_kind(x: int, I: Subset) -> CellKind:
    """Classify matrix cell (x, I) by row label x and column subset I."""
    if x in I:
        return CellKind.V
    if x < max(I):
        return CellKind.W
    return CellKind.P


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

    def __getitem__(self, g: slice) -> "CellSums":
        return CellSums(self.rows[g], self.cols[g], self.signs[g])

    def sums(self, a: np.ndarray, q: int) -> np.ndarray:
        """The (..., sums) residues mod q over a (..., rows, cols) batch."""
        return (a[..., self.rows, self.cols] * self.signs).sum(axis=-1) % q


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


def parity_partners(x: int, I: Subset) -> list[tuple[int, int, Subset]]:
    """For P cell (x, I), x > max I: list of (coefficient_sign, y, Y) such
    that M(x, I) = sum of sign * M(y, Y), with sign in {+1, -1}; the k-th
    y of I has ind(I, y) = k + 1 and Y = I + {x} - {y}."""
    J = I + (x,)
    return [((-1) ** (len(I) + k + 1), y, J[:k] + J[k + 1 :]) for k, y in enumerate(I)]


# -- the table-driven core: every function takes (..., d, cols) batches of any
# integer dtype, so a single matrix is a batch of one.


def close_parity(mb: np.ndarray, params: SystemParams, groups: slice = slice(None)) -> np.ndarray:
    """Fill the P cells of a (..., d, alpha) batch whose V/W cells are set,
    in place, and return the batch.  ``groups`` selects parity groups by
    lexicographic position; a P cell depends on W cells only, so the
    groups may be closed in any order."""
    (rows, cols), partners = params.parity_table
    mb[..., rows[groups], cols[groups]] = partners[groups].sums(mb, params.q)
    return mb


def recombine(mxi: np.ndarray, params: SystemParams) -> np.ndarray:
    """Repaired share(s) of node f from a (..., d, C(d, m-1)) batch of
    M @ Xi^f: symbol I is the signed sum over x in I of row x, column
    I - {x}, reduced mod q."""
    return params.repair_table.sums(mxi, params.q)


def build_message_matrix(params: SystemParams, symbols: Sequence[int]) -> GFMatrix:
    """Place F information symbols into the V/W cells (canonical fill
    order) and complete all parity cells."""
    if len(symbols) != params.file_size:
        raise ValueError(
            f"expected {params.file_size} information symbols, got {len(symbols)}"
        )
    arr = np.zeros((params.d, params.alpha), dtype=np.int64)
    arr[params.info_index] = np.asarray(symbols, dtype=np.int64) % params.q
    return GFMatrix(params.q, close_parity(arr, params))


def parity_holds(M: GFMatrix, params: SystemParams) -> bool:
    (rows, cols), partners = params.parity_table
    return np.array_equal(M.a[rows, cols], partners.sums(M.a, params.q))


def info_symbols(M: GFMatrix, params: SystemParams) -> np.ndarray:
    """Read the V/W cells back out in the canonical fill order."""
    return M.a[params.info_index]


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


def check_mds(psi: GFMatrix, d: int) -> bool:
    """Condition C1: every d x d submatrix of Psi is full rank."""
    from itertools import combinations

    n = psi.rows
    return all(
        psi.submatrix([i - 1 for i in K], range(d)).rank() == d
        for K in combinations(range(1, n + 1), d)
    )


def check_leading_blocks(psi: GFMatrix, ell: int) -> bool:
    """Condition C2: every l x l submatrix of Psi(:, [1:l]) is full rank."""
    from itertools import combinations

    n = psi.rows
    return all(
        psi.submatrix([i - 1 for i in L], range(ell)).rank() == ell
        for L in combinations(range(1, n + 1), ell)
    )


@dataclass(frozen=True)
class NodeShare:
    """Content of one storage node: row node_id of Psi @ M."""

    node_id: int
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.int64)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


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

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.int64)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def repair_packet(
    share: NodeShare, f: int, psi: GFMatrix, params: SystemParams, xi: GFMatrix | None = None
) -> RepairPacket:
    if share.node_id == f:
        raise ValueError(f"node {f} cannot send repair data to itself")
    if xi is None:
        xi = repair_encoder(f, psi, params)
    payload = share.values @ xi.a % params.q
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
    mxi = psi_h.inv().a @ stacked % params.q  # equals M @ Xi^f
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
    _, pivots = xi.rref()
    return pivots


# -- cell-count bookkeeping ----------------------------------------------------


def cell_counts(params: SystemParams) -> Mapping[str, int]:
    """Sizes of the V, W and P cell classes; they sum to d * alpha."""
    d, m = params.d, params.m
    return {
        "V": m * binom(d, m),
        "W": m * binom(d, m + 1),
        "P": binom(d, m + 1),
    }
