"""Determinant codes for (n, k=d, d) storage systems.

A code of mode m stores F = m*C(d+1, m+1) symbols in a d x C(d, m) message
matrix whose columns are labeled by the m-subsets of [d] in lexicographic
order.  Cell (x, I) is V-type when x is in I, W-type when x < max I lies
outside I, and P-type (parity) when x > max I; each (m+1)-subset J of [d]
forms a parity group whose m+1 cells satisfy an alternating-sign equation.
Node i stores row i of Psi @ M for an n x d Vandermonde encoder Psi.

Conventions used throughout the package: node ids and subset elements are
1-based (matching the matrix-row labels), all numpy indices are 0-based,
and converting between the two is always an explicit ``- 1``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .gf import Field, smallest_prime_gt
from .gfmatrix import GFMatrix, rank_of
from .subsets import LexIndexer, Subset, binom, ind


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


def system(n: int, d: int, m: int, q: int | None = None) -> SystemParams:
    """Build SystemParams, defaulting q to the smallest prime above n."""
    return SystemParams(n, d, m, Field(q if q is not None else smallest_prime_gt(n)))


def info_cells(params: SystemParams) -> Iterator[tuple[int, Subset]]:
    """V/W cells in the canonical fill order: columns in lexicographic
    order, rows top to bottom within each column."""
    for I in params.columns.subsets():
        for x in range(1, params.d + 1):
            if cell_kind(x, I) is not CellKind.P:
                yield x, I


def parity_partners(x: int, I: Subset) -> list[tuple[int, int, Subset]]:
    """For P cell (x, I): list of (coefficient_sign, y, Y) such that
    M(x, I) = sum of sign * M(y, Y), with sign in {+1, -1}."""
    m = len(I)
    out = []
    for y in I:
        Y = tuple(sorted((set(I) | {x}) - {y}))
        out.append(((-1) ** (m + ind(I, y)), y, Y))
    return out


def fill_parity_cells(arr: np.ndarray, params: SystemParams) -> None:
    """Compute every P cell of a message array whose V/W cells are filled.

    Groups are processed in increasing lexicographic order of the
    (m+1)-subset J; each parity value depends only on W cells, so the
    order does not affect the result.
    """
    q = params.q
    cols = params.columns
    for J in params.parity_groups.subsets():
        x = J[-1]
        I = J[:-1]
        total = 0
        for sign, y, Y in parity_partners(x, I):
            total += sign * int(arr[y - 1, cols.rank(Y)])
        arr[x - 1, cols.rank(I)] = total % q


def build_message_matrix(params: SystemParams, symbols: Sequence[int]) -> GFMatrix:
    """Place F information symbols into the V/W cells (canonical fill
    order) and complete all parity cells."""
    if len(symbols) != params.file_size:
        raise ValueError(
            f"expected {params.file_size} information symbols, got {len(symbols)}"
        )
    arr = np.zeros((params.d, params.alpha), dtype=np.int64)
    it = iter(symbols)
    cols = params.columns
    for x, I in info_cells(params):
        arr[x - 1, cols.rank(I)] = next(it) % params.q
    fill_parity_cells(arr, params)
    return GFMatrix(params.q, arr)


def parity_value(M: GFMatrix | np.ndarray, x: int, I: Subset, params: SystemParams) -> int:
    """Value the P cell (x, I) must take for parity group I + {x} to close."""
    if x <= max(I):
        raise ValueError(f"({x}, {I}) is not a parity cell")
    arr = M.a if isinstance(M, GFMatrix) else M
    cols = params.columns
    total = 0
    for sign, y, Y in parity_partners(x, I):
        total += sign * int(arr[y - 1, cols.rank(Y)])
    return total % params.q


def parity_residual(M: GFMatrix, J: Subset, params: SystemParams) -> int:
    """Alternating-sign sum over parity group J; zero iff parity holds."""
    cols = params.columns
    total = 0
    for y in J:
        Y = tuple(v for v in J if v != y)
        total += (-1) ** ind(J, y) * int(M.a[y - 1, cols.rank(Y)])
    return total % params.q


def parity_holds(M: GFMatrix, params: SystemParams) -> bool:
    return all(
        parity_residual(M, J, params) == 0 for J in params.parity_groups.subsets()
    )


def info_symbols(M: GFMatrix, params: SystemParams) -> np.ndarray:
    """Read the V/W cells back out in the canonical fill order."""
    cols = params.columns
    return np.array(
        [int(M.a[x - 1, cols.rank(I)]) for x, I in info_cells(params)], dtype=np.int64
    )


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
    q = params.q
    rows = params.columns
    cols = params.repair_columns
    row = {I: i for i, I in enumerate(rows.subsets())}
    psi_f = [int(v) for v in psi.a[f - 1]]
    arr = np.zeros((len(rows), len(cols)), dtype=np.int64)
    for j, J in enumerate(cols.subsets()):
        pos = 0  # elements of J below x, so ind(I, x) = pos + 1
        for x in range(1, params.d + 1):
            if pos < len(J) and J[pos] == x:
                pos += 1
                continue
            I = J[:pos] + (x,) + J[pos:]
            arr[row[I], j] = (-1) ** (pos + 1) * psi_f[x - 1] % q
    return GFMatrix(q, arr)


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

    Inverts Psi on the helper rows to recover M @ Xi^f, then combines the
    row-f signed entries column-subset by column-subset.
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
    rcols = params.repair_columns
    out = np.zeros(params.alpha, dtype=np.int64)
    for i, I in enumerate(params.columns.subsets()):
        total = 0
        for x in I:
            J = tuple(v for v in I if v != x)
            total += (-1) ** ind(I, x) * int(mxi[x - 1, rcols.rank(J)])
        out[i] = total % params.q
    return NodeShare(f, out)


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


# -- repair-bandwidth compression ---------------------------------------------


def packet_support_basis(xi: GFMatrix) -> tuple[int, ...]:
    """First beta linearly independent columns of Xi^f, in column order.

    These payload coordinates determine the rest: every other column of
    Xi^f is a combination of the basis columns, so the corresponding
    payload entries satisfy the same combinations.
    """
    _, pivots = xi.rref()
    return pivots


def compress_packet(packet: RepairPacket, basis: Sequence[int]) -> np.ndarray:
    """Keep only the payload coordinates on the given column basis."""
    return packet.values[list(basis)]


def expand_packet(
    compressed: np.ndarray, helper: int, f: int, xi: GFMatrix, basis: Sequence[int]
) -> RepairPacket:
    """Rebuild the full payload from its basis coordinates.

    Every column of Xi^f is a combination of the basis columns, and the
    receiver can derive those coefficients from Xi^f alone.
    """
    sub = xi.submatrix(range(xi.rows), basis)
    coeffs, _ = sub.solve(xi)  # sub @ coeffs == xi
    full = np.asarray(compressed, dtype=np.int64) @ coeffs.a % xi.q
    return RepairPacket(helper, f, full)


# -- cell-count bookkeeping ----------------------------------------------------


def cell_counts(params: SystemParams) -> Mapping[str, int]:
    """Sizes of the V, W and P cell classes; they sum to d * alpha."""
    d, m = params.d, params.m
    return {
        "V": m * binom(d, m),
        "W": m * binom(d, m + 1),
        "P": binom(d, m + 1),
    }
