"""Exact information-theoretic leakage audits.

Every eavesdropper view is a linear map of the secret vector S and the key
vector Q: the observed symbols equal M_S @ S + M_Q @ Q.  For uniform
independent S and Q the entropy of the view (in q-ary symbols) is
rank([M_S | M_Q]) and the leakage I(S; view) is rank([M_S | M_Q]) -
rank(M_Q), so every security claim reduces to integer rank arithmetic
over GF(q) with zero tolerance.

Parity cells are expanded one step into their W-type sources when the
maps are built, so map columns are indexed purely by secret and key
slots; the expansion terminates immediately because parity groups are
disjoint and reference only free cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping, Sequence

import numpy as np

from .code import (
    SystemParams,
    close_parity,
    packet_support_basis,
    parity_holds,
    repair_encoder,
    repair_node,
    RepairPacket,
)
from .gfmatrix import GFMatrix, echelon_pivots, rank_of
from .secure import MessageLayout, Scheme, extract_keys, place
from .subsets import Subset, binom


class InconsistentObservationError(ValueError):
    """Observed symbols are not consistent with any (secrets, keys) pair."""


@dataclass(frozen=True)
class LinearObservation:
    """An eavesdropper view as a pair of maps acting on (secrets, keys)."""

    q: int
    secret_map: np.ndarray
    key_map: np.ndarray
    provenance: str = ""

    @property
    def obs_dim(self) -> int:
        return self.secret_map.shape[0]

    def full_map(self) -> np.ndarray:
        return np.hstack([self.secret_map, self.key_map])

    def materialize(self, secrets: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """Symbols the eavesdropper would actually see for given inputs."""
        return (
            self.secret_map @ np.asarray(secrets, dtype=np.int64)
            + self.key_map @ np.asarray(keys, dtype=np.int64)
        ) % self.q


def cell_maps(layout: MessageLayout) -> np.ndarray:
    """Tensor T of shape (d, alpha, F_s + |Q|): T[x-1, col(I)] expresses
    cell (x, I) of the message matrix as a vector over (secrets, keys).
    It is the message matrix of unit secrets and keys, one per slot."""
    params = layout.sparams.base
    fs = layout.secret_count
    total = fs + layout.key_count
    T = np.zeros((params.d, params.alpha, total), dtype=np.int64)
    unit = np.eye(total, dtype=np.int64)
    close_parity(place(T.transpose(2, 0, 1), layout, unit[:, :fs], unit[:, fs:]), params)
    return T


def _split(rows: np.ndarray, layout: MessageLayout, q: int, provenance: str) -> LinearObservation:
    fs = layout.secret_count
    return LinearObservation(q, rows[:, :fs], rows[:, fs:], provenance)


def observe_node_contents(
    L: Iterable[int],
    psi: GFMatrix,
    layout: MessageLayout,
    maps: np.ndarray | None = None,
) -> LinearObservation:
    """Type-I view: the stored contents of every node in L."""
    params = layout.sparams.base
    q = params.q
    if maps is None:
        maps = cell_maps(layout)
    nodes = sorted(set(L))
    if any(not 1 <= i <= params.n for i in nodes):
        raise ValueError(f"node set {nodes} not within [1, {params.n}]")
    blocks = [np.tensordot(psi.a[i - 1], maps, axes=1) % q for i in nodes]
    rows = (
        np.vstack(blocks)
        if blocks
        else np.zeros((0, maps.shape[2]), dtype=np.int64)
    )
    return _split(rows, layout, q, f"contents of nodes {nodes}")


def observe_repair_traffic(
    L: Iterable[int],
    psi: GFMatrix,
    layout: MessageLayout,
    maps: np.ndarray | None = None,
) -> LinearObservation:
    """Type-II view: all repair data flowing into every node in L."""
    params = layout.sparams.base
    q = params.q
    if maps is None:
        maps = cell_maps(layout)
    nodes = sorted(set(L))
    if any(not 1 <= i <= params.n for i in nodes):
        raise ValueError(f"node set {nodes} not within [1, {params.n}]")
    node_maps = {
        h: np.tensordot(psi.a[h - 1], maps, axes=1) % q for h in range(1, params.n + 1)
    }
    blocks = []
    for f in nodes:
        xi_t = repair_encoder(f, psi, params).a.T
        for h in range(1, params.n + 1):
            if h != f:
                blocks.append(xi_t @ node_maps[h] % q)
    rows = (
        np.vstack(blocks)
        if blocks
        else np.zeros((0, maps.shape[2]), dtype=np.int64)
    )
    return _split(rows, layout, q, f"repair traffic into nodes {nodes}")


def reduced_traffic_rows(
    f: int, psi: GFMatrix, params: SystemParams, maps: np.ndarray
) -> np.ndarray:
    """At most d*beta rows with the row space of all repair traffic into f.

    Helper h sends row h of Psi @ M @ Xi^f.  Every column of Xi^f is a
    combination of its beta basis columns, and the helper rows of Psi
    span the rows of their reduced echelon form E, which is the identity
    when n-1 >= d (any d rows of Psi are invertible).  The rows of
    E @ M @ Xi^f[:, basis], as maps of ``maps = cell_maps(layout)``,
    therefore have every rank of the (n-1)*C(d, m-1) packet rows, and
    they are sparse: each cell of M is one secret, key or parity sum.
    """
    xi = repair_encoder(f, psi, params)
    xi_t = xi.a[:, list(packet_support_basis(xi))].T
    helpers = [h - 1 for h in range(1, params.n + 1) if h != f]
    echelon, pivots = psi.submatrix(helpers, range(params.d)).rref()
    rows = np.tensordot(echelon.a[: len(pivots)], xi_t @ maps, axes=1) % params.q
    return rows.reshape(-1, maps.shape[2])


def observation_ranks(
    obs: LinearObservation, key_first: np.ndarray | None = None
) -> tuple[int, int]:
    """(rank of the whole view, rank of its key part) in one elimination.

    Columns are ordered keys first, so pivots landing in the key block
    count rank(M_Q) while the total pivot count is rank([M_S | M_Q]).
    A caller that already holds the view as [M_Q | M_S] passes it as
    ``key_first``, which saves concatenating the two maps again.
    """
    nk = obs.key_map.shape[1]
    stacked = np.hstack([obs.key_map, obs.secret_map]) if key_first is None else key_first
    if stacked.size == 0:
        return 0, 0
    pivots = echelon_pivots(stacked, obs.q)
    return len(pivots), sum(1 for p in pivots if p < nk)


def observation_entropy(obs: LinearObservation) -> int:
    """H(view) in q-ary symbols for uniform independent secrets and keys."""
    return observation_ranks(obs)[0]


def mutual_information(obs: LinearObservation) -> int:
    """Exact I(secrets; view) in q-ary symbols; zero means perfect secrecy."""
    total, key_rank = observation_ranks(obs)
    return total - key_rank


def keys_recoverable(obs: LinearObservation) -> bool:
    """True iff the view plus the secrets pin down every key symbol."""
    return observation_ranks(obs)[1] == obs.key_map.shape[1]


# -- key decoders (constructive counterparts of the rank statements) -----------


def type_i_decode_order(params: SystemParams) -> list[Subset]:
    """Columns in the order the Type-I decoder reconstructs them: reverse
    lexicographic, so the last column [d-m+1 : d] is decoded first."""
    return list(params.columns.subsets())[::-1]


def decode_keys_type_i(
    observed: GFMatrix | np.ndarray,
    secrets: Sequence[int] | np.ndarray,
    psi: GFMatrix,
    L: Iterable[int],
    layout: MessageLayout,
) -> np.ndarray:
    """Recover every key from the secrets plus the contents of |L| = ell nodes.

    Rebuilds the message matrix column by column from right to left: in
    each column the bottom rows are secrets or parities of already-decoded
    columns, and the top ell rows then follow by inverting the leading
    ell x ell block of Psi on the observed rows.
    """
    sp = layout.sparams
    params = sp.base
    ell = sp.ell
    if sp.scheme is Scheme.TYPE_II and ell != 0:
        raise ValueError("decode_keys_type_i expects a Type-I (or plain) layout")
    nodes = sorted(set(L))
    if len(nodes) != ell:
        raise ValueError(f"need exactly ell={ell} observed nodes, got {nodes}")
    E = observed.a if isinstance(observed, GFMatrix) else np.asarray(observed, dtype=np.int64)
    if E.shape != (ell, params.alpha):
        raise ValueError(f"observed matrix must be {ell} x {params.alpha}, got {E.shape}")
    secrets = np.asarray(secrets, dtype=np.int64) % params.q
    if secrets.shape != (layout.secret_count,):
        raise ValueError(f"expected {layout.secret_count} secrets")

    q = params.q
    unknown_keys = np.zeros(layout.key_count, dtype=np.int64)
    arr = place(np.zeros((params.d, params.alpha), dtype=np.int64), layout, secrets, unknown_keys)
    # Groups are sorted by the column of their P cell, whose partners all
    # lie in later columns.
    (_, group_cols), _ = params.parity_table
    bounds = np.searchsorted(group_cols, np.arange(params.alpha + 1))
    if ell > 0:
        psi_top = psi.submatrix([i - 1 for i in nodes], range(ell))
        inv_top = psi_top.inv().a
        psi_rest = psi.submatrix([i - 1 for i in nodes], range(ell, params.d)).a
    for c in range(params.alpha - 1, -1, -1):
        close_parity(arr, params, slice(bounds[c], bounds[c + 1]))
        if ell > 0:
            low = arr[ell:, c]
            arr[:ell, c] = inv_top @ ((E[:, c] - psi_rest @ low) % q) % q
    M = GFMatrix(q, arr)
    check = psi.submatrix([i - 1 for i in nodes], range(params.d)).a @ arr % q
    if not np.array_equal(check, E % q) or not parity_holds(M, params):
        raise InconsistentObservationError(
            "observed contents do not match any key assignment for these secrets"
        )
    return extract_keys(M, layout)


def _left_column_count(params: SystemParams, ell: int) -> int:
    """Columns whose subset meets [ell]; they form a lexicographic prefix."""
    return params.alpha - binom(params.d - ell, params.m)


def hat_column_labels(params: SystemParams, ell: int) -> list[tuple[int, Subset]]:
    """Labels (j, J) with j in [ell], J an (m-1)-subset of [j+1 : d].

    These select the square full-rank block of the stacked repair
    encoders; there are C(d, m) - C(d - ell, m) of them.
    """
    labels = []
    for j in range(1, ell + 1):
        for J in combinations(range(j + 1, params.d + 1), params.m - 1):
            labels.append((j, J))
    return labels


def decode_keys_type_ii(
    packets: Mapping[tuple[int, int], np.ndarray],
    secrets: Sequence[int] | np.ndarray,
    psi: GFMatrix,
    L: Iterable[int],
    layout: MessageLayout,
) -> np.ndarray:
    """Recover every key from the secrets plus all repair traffic into L.

    ``packets[(h, f)]`` is the payload sent from helper h to failed node f,
    required for every f in L and h in [n] minus f.  The bottom-right
    block D is rebuilt from the secrets alone, the bottom-left block C is
    solved through the square full-rank block of the stacked repair
    encoders, and the top blocks follow from the reconstructed contents
    of the compromised nodes.
    """
    sp = layout.sparams
    params = sp.base
    ell = sp.ell
    if sp.scheme is Scheme.TYPE_I and ell != 0:
        raise ValueError("decode_keys_type_ii expects a Type-II (or plain) layout")
    nodes = sorted(set(L))
    if len(nodes) != ell:
        raise ValueError(f"need exactly ell={ell} compromised nodes, got {nodes}")
    secrets = np.asarray(secrets, dtype=np.int64) % params.q
    if secrets.shape != (layout.secret_count,):
        raise ValueError(f"expected {layout.secret_count} secrets")
    if ell == 0:
        return np.zeros(0, dtype=np.int64)
    if params.n < params.d + 1:
        raise ValueError("reconstructing a compromised node needs n >= d + 1")
    missing = [
        (h, f)
        for f in nodes
        for h in range(1, params.n + 1)
        if h != f and (h, f) not in packets
    ]
    if missing:
        raise ValueError(f"missing repair packets for pairs {missing[:4]}")

    q, d = params.q, params.d
    t = _left_column_count(params, ell)
    c = len(params.repair_columns)

    # Block D (rows > ell, columns inside [ell+1:d]) from the secrets: its
    # parity cells depend on secrets only, and every cell outside D is
    # overwritten below, so the unknown keys are placed as zeros.
    unknown_keys = np.zeros(layout.key_count, dtype=np.int64)
    arr = np.zeros((d, params.alpha), dtype=np.int64)
    close_parity(place(arr, layout, secrets, unknown_keys), params)
    D = arr[ell:, t:]

    # Contents of the compromised nodes, each repaired from d helpers.
    E_rows = []
    for f in nodes:
        helpers = [h for h in range(1, params.n + 1) if h != f][: d]
        pkts = [RepairPacket(h, f, packets[(h, f)]) for h in helpers]
        E_rows.append(repair_node(f, pkts, psi, params).values)
    E = np.stack(E_rows) % q

    # M @ Xi^L via any d helper rows; rows h in L use the rebuilt contents.
    xis = [repair_encoder(f, psi, params) for f in nodes]

    def payload(h: int, f_idx: int) -> np.ndarray:
        f = nodes[f_idx]
        if h == f:
            return E[f_idx] @ xis[f_idx].a % q
        return np.asarray(packets[(h, f)], dtype=np.int64) % q

    H = list(range(1, d + 1))
    X = np.stack(
        [np.concatenate([payload(h, k) for k in range(ell)]) for h in H]
    )
    psi_h_inv = psi.submatrix([h - 1 for h in H], range(d)).inv().a
    mxi = psi_h_inv @ X % q
    xi_all = np.hstack([xi.a for xi in xis])

    # Solve for C through the square block on the hat columns.
    if d - ell > 0 and t > 0:
        xi_up, xi_low = xi_all[:t], xi_all[t:]
        c_xi_up = (mxi[ell:] - D @ xi_low) % q
        rcol = {J: k for k, J in enumerate(params.repair_columns.subsets())}
        hat_cols = [(j - 1) * c + rcol[J] for j, J in hat_column_labels(params, ell)]
        xi_hat = GFMatrix(q, xi_up[:, hat_cols])
        C = c_xi_up[:, hat_cols] @ xi_hat.inv().a % q
    else:
        C = np.zeros((d - ell, t), dtype=np.int64)

    # Top blocks from the compromised contents.
    inv_left = psi.submatrix([i - 1 for i in nodes], range(ell)).inv().a
    psi_right = psi.submatrix([i - 1 for i in nodes], range(ell, d)).a
    A = inv_left @ ((E[:, :t] - psi_right @ C) % q) % q
    B = inv_left @ ((E[:, t:] - psi_right @ D) % q) % q

    arr[:ell, :t] = A
    arr[:ell, t:] = B
    arr[ell:, :t] = C
    M = GFMatrix(q, arr)
    if not parity_holds(M, params):
        raise InconsistentObservationError("reconstructed matrix violates parity")
    full = psi.a @ arr % q
    for k, f in enumerate(nodes):
        expect = full @ xis[k].a % q
        for h in range(1, params.n + 1):
            if h != f and not np.array_equal(
                expect[h - 1], np.asarray(packets[(h, f)], dtype=np.int64) % q
            ):
                raise InconsistentObservationError(
                    f"packet ({h} -> {f}) inconsistent with the reconstruction"
                )
    return extract_keys(M, layout)


# -- structural rank audits of the stacked repair encoders ---------------------


@dataclass(frozen=True)
class XiAudit:
    """Stacked repair encoders of an eavesdropped set, plus the index sets
    selecting its square top block."""

    params: SystemParams
    psi: GFMatrix
    L: tuple[int, ...]
    xi: GFMatrix  # alpha x (ell * C(d, m-1)), blocks in sorted L order
    row_subsets: tuple[Subset, ...]  # m-subsets meeting [ell]; a lex prefix
    col_labels: tuple[tuple[int, Subset], ...]  # (j, J) with J inside [j+1:d]
    top_rank: int

    @property
    def expected_rank(self) -> int:
        return len(self.row_subsets)

    @property
    def is_full_rank(self) -> bool:
        return self.top_rank == self.expected_rank

    def column_index(self, j: int, J: Subset) -> int:
        """Global column of Xi^L holding column J of the j-th block."""
        return (j - 1) * len(self.params.repair_columns) + self.params.repair_columns.rank(J)

    def hat_matrix(self) -> np.ndarray:
        """The square submatrix on rows row_subsets and columns col_labels."""
        rows = [self.params.columns.rank(I) for I in self.row_subsets]
        cols = [self.column_index(j, J) for j, J in self.col_labels]
        return self.xi.a[np.ix_(rows, cols)]


def xi_top_fullrank(
    L: Iterable[int], psi: GFMatrix, params: SystemParams
) -> tuple[bool, XiAudit]:
    """Check that the top C(d,m) - C(d-ell,m) rows of Xi^L are full rank."""
    nodes = tuple(sorted(L))
    if len(set(nodes)) != len(nodes) or not nodes:
        raise ValueError(f"eavesdropped set must be nonempty and distinct, got {L}")
    ell = len(nodes)
    if ell > params.d:
        raise ValueError(f"|L| = {ell} exceeds d = {params.d}")
    if any(not 1 <= i <= params.n for i in nodes):
        raise ValueError(f"node set {nodes} not within [1, {params.n}]")
    xi = GFMatrix(
        params.q, np.hstack([repair_encoder(f, psi, params).a for f in nodes])
    )
    t = _left_column_count(params, ell)
    row_subsets = tuple(list(params.columns.subsets())[:t])
    labels = tuple(hat_column_labels(params, ell))
    top_rank = rank_of(xi.a[:t], params.q)
    audit = XiAudit(params, psi, nodes, xi, row_subsets, labels, top_rank)
    return audit.is_full_rank, audit


@dataclass(frozen=True)
class TriangularReport:
    """Outcome of sorting the square block into block lower-triangular form."""

    ordered_labels: tuple[tuple[int, Subset], ...]
    group_sizes: tuple[tuple[Subset, int], ...]
    matrix: np.ndarray
    zero_blocks_ok: bool
    diagonal_blocks_ok: bool
    sizes_ok: bool

    @property
    def ok(self) -> bool:
        return self.zero_blocks_ok and self.diagonal_blocks_ok and self.sizes_ok


def xi_block_triangularize(audit: XiAudit) -> TriangularReport:
    """Permute the square block by the dominance order and verify the
    block lower-triangular structure.

    Labels (i, I) are sorted with I before J when I precedes J in the set
    order, ties broken by the block index.  Every block strictly right of
    a diagonal block must vanish, and the diagonal block of a group J
    must equal the negated transpose of Psi on rows {q_1..q_z} and
    columns [1..z] with z = |G(J)|, hence be invertible.
    """
    params = audit.params
    q = params.q
    psi = audit.psi
    labels = sorted(audit.col_labels, key=lambda lab: (lab[1], lab[0]))
    rows = [params.columns.rank(tuple(sorted((lab[0],) + lab[1]))) for lab in labels]
    cols = [audit.column_index(j, J) for j, J in labels]
    mat = audit.xi.a[np.ix_(rows, cols)] if labels else np.zeros((0, 0), dtype=np.int64)

    groups: list[tuple[Subset, int]] = []
    for j, J in labels:
        if groups and groups[-1][0] == J:
            groups[-1] = (J, groups[-1][1] + 1)
        else:
            groups.append((J, 1))

    sizes_ok = sum(size for _, size in groups) == len(audit.row_subsets)

    zero_ok = True
    diag_ok = True
    offsets = np.cumsum([0] + [size for _, size in groups])
    for gi, (J, size) in enumerate(groups):
        lo, hi = offsets[gi], offsets[gi + 1]
        block = mat[lo:hi, lo:hi]
        expected = -psi.a[np.ix_([audit.L[j] - 1 for j in range(size)], range(size))].T % q
        if not np.array_equal(block, expected) or rank_of(block, q) != size:
            diag_ok = False
        if np.any(mat[lo:hi, hi:]):
            zero_ok = False
    return TriangularReport(
        tuple(labels), tuple(groups), mat, zero_ok, diag_ok, sizes_ok
    )


# -- audit sweeps ----------------------------------------------------------------


@dataclass(frozen=True)
class AuditRow:
    scheme: Scheme
    nodes: tuple[int, ...]
    entropy: int
    leaked: int
    keys_recoverable: bool
    key_bound: int

    def as_csv(self) -> str:
        names = "+".join(map(str, self.nodes)) or "-"
        return (
            f"{self.scheme.value},{names},{self.entropy},{self.leaked},"
            f"{str(self.keys_recoverable).lower()},{self.key_bound}"
        )


AUDIT_CSV_HEADER = "scheme,L,entropy,leaked,keys_recoverable,key_bound"


def audit_sweep(
    layout: MessageLayout,
    psi: GFMatrix,
    max_set_size: int | None = None,
) -> list[AuditRow]:
    """Audit every eavesdropper set with |L| <= ell (or the given cap)
    under the layout's own threat model (contents for Type-I, repair
    traffic for Type-II; plain layouts audit contents).  An explicit cap
    must lie in [1, n], so that it audits at least one set."""
    sp = layout.sparams
    params = sp.base
    if max_set_size is not None and not 1 <= max_set_size <= params.n:
        raise ValueError(
            f"max set size must lie in [1, n={params.n}], got {max_set_size}"
        )
    cap = sp.ell if max_set_size is None else max_set_size
    maps = cell_maps(layout)
    rows: list[AuditRow] = []
    type_ii = sp.scheme is Scheme.TYPE_II
    if type_ii:
        # Views are built key first, [M_Q | M_S], the order they are
        # eliminated in, so each set's stack goes to the kernel as is.
        fs, nk = layout.secret_count, layout.key_count
        key_first_maps = np.concatenate([maps[..., fs:], maps[..., :fs]], axis=2)
        traffic = {
            f: reduced_traffic_rows(f, psi, params, key_first_maps)
            for f in range(1, params.n + 1)
        }
    for size in range(1, cap + 1):
        for L in combinations(range(1, params.n + 1), size):
            if type_ii:
                stacked = np.vstack([traffic[f] for f in L])
                obs = LinearObservation(
                    params.q, stacked[:, nk:], stacked[:, :nk], f"repair traffic into {L}"
                )
                entropy, key_rank = observation_ranks(obs, key_first=stacked)
            else:
                obs = observe_node_contents(L, psi, layout, maps=maps)
                entropy, key_rank = observation_ranks(obs)
            rows.append(
                AuditRow(
                    sp.scheme,
                    L,
                    entropy,
                    entropy - key_rank,
                    key_rank == layout.key_count,
                    layout.key_count,
                )
            )
    return rows


def audit_passes(rows: Sequence[AuditRow], ell: int) -> bool:
    """PASS iff within the budget (|L| <= ell) leakage is zero and entropy
    is key-bounded, and the keys are recoverable whenever exactly ell
    nodes are observed.  Larger sets are reported only; the secrecy
    statements claim nothing about them."""
    for r in rows:
        if len(r.nodes) > ell:
            continue
        if r.leaked != 0 or r.entropy > r.key_bound:
            return False
        if len(r.nodes) == ell and not r.keys_recoverable:
            return False
    return True
