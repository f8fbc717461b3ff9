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

from .code import SystemParams, first_inner_column, packet_support_basis, repair_encoder
from .gfmatrix import GFMatrix, _int_kernel, echelon_pivots, matmul, rank_of
from .secure import MessageLayout, Scheme, SecureParams, assemble_rows
from .subsets import Subset, binom

# Bounds on an audit's cost, checked by `audit_set_cap` before Psi,
# `cell_maps` or any view is built.  The view tensor `cell_maps` holds
# d x C(d,m) x F int64 entries: 128 MiB at the bound, and about twice that
# at peak, with the identity stack it is gathered from or, later, the
# Type-II sweep's key-first copy.
# Without it a short command line such as (16,14,7) asks for a 16 GiB array,
# and (60,50,25) for C(50,25) = 1.3e14 message columns.
MAX_AUDIT_CELLS = 1 << 24
# Each eavesdropper set costs one elimination, 8 ms for a Type-II (10,8,3,ell=3)
# set on a 2-vCPU VM.  The benchmark's largest sweep is 175 sets and the
# tests' largest 255; this bound is 16 times that, about 35 s of such
# sets.  Since C(n, 1) = n, it also bounds n, and with it Psi and the n views.
MAX_AUDIT_SETS = 1 << 12


class InconsistentObservationError(ValueError):
    """Observed symbols are not consistent with any (secrets, keys) pair."""


@dataclass(frozen=True)
class LinearObservation:
    """An eavesdropper view as a pair of maps acting on (secrets, keys)."""

    q: int
    secret_map: np.ndarray
    key_map: np.ndarray


def cell_maps(layout: MessageLayout) -> np.ndarray:
    """Tensor T of shape (d, alpha, F_s + |Q|): T[x-1, col(I)] expresses
    cell (x, I) of the message matrix as a vector over (secrets, keys).
    It is the cell-major message batch of unit secrets and keys, one per
    slot: the identity batch."""
    params = layout.sparams.base
    total = layout.secret_count + layout.key_count
    return assemble_rows(layout, np.eye(params.d * params.alpha, total, dtype=np.int64))


def _node_set(L: Iterable[int], params: SystemParams) -> list[int]:
    """The distinct nodes of L in increasing order, each checked to lie in [1, n]."""
    nodes = sorted(set(L))
    if any(not 1 <= i <= params.n for i in nodes):
        raise ValueError(f"node set {nodes} not within [1, {params.n}]")
    return nodes


def _observation(rows: np.ndarray, layout: MessageLayout) -> LinearObservation:
    """The view whose rows are the given maps, in order, split at the key slots."""
    fs = layout.secret_count
    rows = rows.reshape(-1, fs + layout.key_count)
    return LinearObservation(layout.sparams.base.q, rows[:, :fs], rows[:, fs:])


def observe_node_contents(
    L: Iterable[int],
    psi: GFMatrix,
    layout: MessageLayout,
    maps: np.ndarray | None = None,
) -> LinearObservation:
    """Type-I view: the stored contents of every node in L."""
    params = layout.sparams.base
    nodes = _node_set(L, params)
    if maps is None:
        maps = cell_maps(layout)
    rows = psi.a[[i - 1 for i in nodes]]
    return _observation(matmul(rows, maps.reshape(params.d, -1), params.q), layout)


def observe_repair_traffic(
    L: Iterable[int],
    psi: GFMatrix,
    layout: MessageLayout,
    maps: np.ndarray | None = None,
) -> LinearObservation:
    """Type-II view: all repair data flowing into every node in L."""
    params = layout.sparams.base
    nodes = _node_set(L, params)
    if maps is None:
        maps = cell_maps(layout)
    contents = matmul(psi.a, maps.reshape(params.d, -1), params.q).reshape(-1, *maps.shape[1:])
    blocks = [
        matmul(repair_encoder(f, psi, params).a.T, np.delete(contents, f - 1, axis=0), params.q)
        for f in nodes
    ]
    return _observation(np.stack(blocks) if blocks else contents[:0], layout)


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
    packets = matmul(xi_t, maps, params.q).reshape(params.d, -1)  # (d, beta * width)
    return matmul(echelon.a[: len(pivots)], packets, params.q).reshape(-1, maps.shape[2])


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
    pivots = echelon_pivots(stacked, obs.q)
    return len(pivots), sum(1 for p in pivots if p < nk)


def mutual_information(obs: LinearObservation) -> int:
    """Exact I(secrets; view) in q-ary symbols; zero means perfect secrecy."""
    total, key_rank = observation_ranks(obs)
    return total - key_rank


# -- key decoders: the view of L and the secrets determine every key ------------


def _symbols(values: object, shape: tuple[int, ...], what: str, q: int) -> np.ndarray:
    """Observed symbols or secrets as int64 residues mod q, checked to be of
    an integer dtype (as `Shard` checks its payload) and of the given shape."""
    a = values.a if isinstance(values, GFMatrix) else np.asarray(values)
    if a.size and a.dtype.kind not in "iu":
        raise ValueError(f"{what} must hold integer symbols, got {a.dtype}")
    if a.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {a.shape}")
    return a.astype(np.int64) % q


def _decoder_inputs(
    L: Iterable[int], secrets: Sequence[int] | np.ndarray, layout: MessageLayout, role: str
) -> tuple[list[int], np.ndarray]:
    """The sorted nodes of L, exactly ell of them, and the secrets reduced mod q."""
    ell = layout.sparams.ell
    nodes = sorted(set(L))
    if len(nodes) != ell:
        raise ValueError(f"need exactly ell={ell} {role} nodes, got {nodes}")
    return nodes, _symbols(secrets, (layout.secret_count,), "secrets", layout.sparams.base.q)


def _solve_keys(
    obs: LinearObservation, observed: np.ndarray, secrets: np.ndarray
) -> np.ndarray:
    """The keys Q with M_Q @ Q = observed - M_S @ secrets, in key-slot order.

    One rref of [M_Q | rhs] decides it: fewer than |Q| pivots in the key
    block mean the view does not determine the keys, and a pivot in the
    rhs column means no keys explain the observed symbols.
    """
    q, nk = obs.q, obs.key_map.shape[1]
    rhs = (observed - matmul(obs.secret_map, secrets, q)) % q
    echelon, pivots = GFMatrix(q, np.column_stack([obs.key_map, rhs])).rref()
    if sum(1 for p in pivots if p < nk) < nk:
        raise ValueError("the observed view does not determine every key")
    if nk in pivots:
        raise InconsistentObservationError(
            "observed symbols do not match any key assignment for these secrets"
        )
    return np.array(echelon.a[:nk, nk])


def decode_keys_type_i(
    observed: GFMatrix | np.ndarray,
    secrets: Sequence[int] | np.ndarray,
    psi: GFMatrix,
    L: Iterable[int],
    layout: MessageLayout,
) -> np.ndarray:
    """Recover every key from the secrets plus the contents of |L| = ell nodes.

    Row k of ``observed`` is the stored row of the k-th node of L in
    increasing order; the keys solve the contents view of L.
    """
    sp = layout.sparams
    if sp.scheme is Scheme.TYPE_II and sp.ell != 0:
        raise ValueError("decode_keys_type_i expects a Type-I (or plain) layout")
    nodes, secrets = _decoder_inputs(L, secrets, layout, "observed")
    E = _symbols(observed, (sp.ell, sp.base.alpha), "observed contents", sp.base.q)
    return _solve_keys(observe_node_contents(nodes, psi, layout), E.reshape(-1), secrets)


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
    required for every f in L and h in [n] minus f; the keys solve the
    repair-traffic view of L.
    """
    sp = layout.sparams
    params = sp.base
    if sp.scheme is Scheme.TYPE_I and sp.ell != 0:
        raise ValueError("decode_keys_type_ii expects a Type-II (or plain) layout")
    nodes, secrets = _decoder_inputs(L, secrets, layout, "compromised")
    pairs = [(h, f) for f in nodes for h in range(1, params.n + 1) if h != f]
    missing = [pair for pair in pairs if pair not in packets]
    if missing:
        raise ValueError(f"missing repair packets for pairs {missing[:4]}")
    shape = (len(params.repair_columns),)
    observed = [
        _symbols(packets[(h, f)], shape, f"packet ({h} -> {f})", params.q) for h, f in pairs
    ]
    return _solve_keys(
        observe_repair_traffic(nodes, psi, layout),
        np.concatenate(observed) if observed else np.zeros(0, dtype=np.int64),
        secrets,
    )


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
    _node_set(nodes, params)
    xi = GFMatrix(
        params.q, np.hstack([repair_encoder(f, psi, params).a for f in nodes])
    )
    t = first_inner_column(params, ell)
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


def audit_set_cap(sp: SecureParams, max_set_size: int | None = None) -> int:
    """The largest set size a sweep audits, the given cap or ell, once the
    audit fits MAX_AUDIT_CELLS and MAX_AUDIT_SETS.  The cap must lie in
    [1, n], so that the sweep audits at least one set."""
    params = sp.base
    if params.d >= params.n:  # the views would hold traffic that no repair sends
        raise ValueError(f"repair needs d of the other n - 1 nodes, so d < n; got n={params.n}, d={params.d}")
    # At least d^2 cells (C(d,m) * F >= d), a bound checked before C(d,m) is computed.
    if params.d**2 > MAX_AUDIT_CELLS or params.d * params.alpha * params.file_size > MAX_AUDIT_CELLS:
        raise ValueError(
            f"(n,d,m) = ({params.n},{params.d},{params.m}) needs too many audit map cells; "
            f"the audit limit is {MAX_AUDIT_CELLS}"
        )
    cap = sp.ell if max_set_size is None else max_set_size
    if not 1 <= cap <= params.n:
        raise ValueError(
            f"max set size (default ell) must lie in [1, n={params.n}], got {cap}"
        )
    sets = 0
    for size in range(1, cap + 1):  # stops at the first size past the bound
        sets += binom(params.n, size)
        if sets > MAX_AUDIT_SETS:
            raise ValueError(
                f"sets of up to {cap} of n={params.n} nodes number more than "
                f"{MAX_AUDIT_SETS}; the audit limit is {MAX_AUDIT_SETS} sets"
            )
    return cap


def audit_sweep(
    layout: MessageLayout,
    psi: GFMatrix,
    max_set_size: int | None = None,
) -> list[AuditRow]:
    """Audit every eavesdropper set with |L| <= `audit_set_cap` (ell or
    the given cap) under the layout's own threat model (contents for
    Type-I, repair traffic for Type-II; plain layouts audit contents)."""
    sp = layout.sparams
    params = sp.base
    cap = audit_set_cap(sp, max_set_size)
    maps = cell_maps(layout)
    fs, nk = layout.secret_count, layout.key_count
    # Each node's view is built once per sweep, key first ([M_Q | M_S]) and in
    # the kernel's type (`_int_kernel`), so each set's stack goes to it as is.
    nodes = range(1, params.n + 1)
    dtype = _int_kernel(params.q)[0]
    if sp.scheme is Scheme.TYPE_II:
        key_first_maps = np.concatenate([maps[..., fs:], maps[..., :fs]], axis=2)
        views = [reduced_traffic_rows(f, psi, params, key_first_maps).astype(dtype) for f in nodes]
    else:
        contents = (observe_node_contents([f], psi, layout, maps=maps) for f in nodes)
        views = [np.hstack([obs.key_map, obs.secret_map]).astype(dtype) for obs in contents]
    rows: list[AuditRow] = []
    for size in range(1, cap + 1):
        for L in combinations(nodes, size):
            stacked = np.vstack([views[f - 1] for f in L])
            obs = LinearObservation(params.q, stacked[:, nk:], stacked[:, :nk])
            entropy, key_rank = observation_ranks(obs, key_first=stacked)
            rows.append(AuditRow(sp.scheme, L, entropy, entropy - key_rank, key_rank == nk, nk))
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
