from itertools import combinations

import numpy as np
import pytest

from detcodes import leakage
from detcodes.code import (
    repair_encoder,
    system,
    vandermonde_encoder,
)
from detcodes.gfmatrix import rank_of
from detcodes.leakage import (
    InconsistentObservationError,
    MAX_AUDIT_SETS,
    audit_passes,
    audit_set_cap,
    audit_sweep,
    cell_maps,
    decode_keys_type_i,
    decode_keys_type_ii,
    hat_column_labels,
    mutual_information,
    observation_ranks,
    observe_node_contents,
    observe_repair_traffic,
    reduced_traffic_rows,
    xi_block_triangularize,
    xi_top_fullrank,
    LinearObservation,
)
from detcodes.secure import (
    Scheme,
    SecureParams,
    assemble,
    build_layout,
)
from detcodes.subsets import binom
from test_gfmatrix import python_echelon


def make_instance(n, d, m, ell, scheme, seed=0, q=None):
    ps = system(n, d, m, q)
    lay = build_layout(SecureParams(ps, ell, scheme))
    psi = vandermonde_encoder(ps)
    rng = np.random.default_rng(seed)
    s = rng.integers(0, ps.q, lay.secret_count)
    k = rng.integers(0, ps.q, lay.key_count)
    M = assemble(lay, s, k)
    return ps, lay, psi, s, k, M


def full_map(obs):
    """[M_S | M_Q]: the view as one map of (secrets, keys)."""
    return np.hstack([obs.secret_map, obs.key_map])


def entropy(obs):
    return observation_ranks(obs)[0]


def keys_recoverable(obs):
    """The view plus the secrets pin down every key symbol."""
    return observation_ranks(obs)[1] == obs.key_map.shape[1]


def all_packets(M, psi, L, ps):
    out = {}
    for f in L:
        xi = repair_encoder(f, psi, ps)
        prod = psi.a @ M.a @ xi.a % ps.q
        for h in range(1, ps.n + 1):
            if h != f:
                out[(h, f)] = prod[h - 1]
    return out


# -- observation builders -------------------------------------------------------


def test_empty_set_observations():
    ps, lay, psi, *_ = make_instance(8, 6, 2, 2, Scheme.TYPE_I)
    for build in (observe_node_contents, observe_repair_traffic):
        obs = build([], psi, lay)
        assert obs.secret_map.shape[0] == obs.key_map.shape[0] == 0
        assert entropy(obs) == 0
        assert mutual_information(obs) == 0


@pytest.mark.parametrize("rows,secrets,keys", [(0, 3, 2), (4, 0, 0), (0, 0, 0)])
def test_empty_views_rank_zero(rows, secrets, keys):
    obs = LinearObservation(11, np.zeros((rows, secrets), np.int64), np.zeros((rows, keys), np.int64))
    assert observation_ranks(obs) == (0, 0)
    assert rank_of(np.hstack([obs.key_map, obs.secret_map]), 11) == 0


def test_observation_dimensions():
    ps, lay, psi, *_ = make_instance(8, 6, 2, 2, Scheme.TYPE_II)
    obs1 = observe_node_contents([4], psi, lay)
    assert obs1.secret_map.shape[0] == ps.alpha
    obs2 = observe_repair_traffic([4, 7], psi, lay)
    assert obs2.key_map.shape[0] == 2 * (ps.n - 1) * binom(ps.d, ps.m - 1)
    assert obs2.secret_map.shape[1] == lay.secret_count
    assert obs2.key_map.shape[1] == lay.key_count


def test_oracle_soundness_against_real_symbols():
    for scheme in (Scheme.TYPE_I, Scheme.TYPE_II):
        ps, lay, psi, s, k, M = make_instance(8, 6, 2, 2, scheme, seed=3)
        L = [2, 6]
        obs = observe_node_contents(L, psi, lay)
        actual = psi.submatrix([1, 5], range(6)).a @ M.a % ps.q
        seen = full_map(obs) @ np.concatenate([s, k]) % ps.q
        assert np.array_equal(seen.reshape(2, -1), actual)
        obs2 = observe_repair_traffic(L, psi, lay)
        pkts = all_packets(M, psi, L, ps)
        expected = np.concatenate(
            [pkts[(h, f)] for f in L for h in range(1, 9) if h != f]
        )
        assert np.array_equal(full_map(obs2) @ np.concatenate([s, k]) % ps.q, expected)


def test_mutual_information_trivial_maps():
    obs = LinearObservation(7, np.zeros((3, 4), dtype=np.int64), np.eye(3, dtype=np.int64))
    assert mutual_information(obs) == 0
    full = LinearObservation(7, np.eye(4, dtype=np.int64), np.zeros((4, 0), dtype=np.int64))
    assert mutual_information(full) == 4
    assert entropy(full) == 4


def test_keys_recoverable_trivial_maps():
    obs = LinearObservation(7, np.zeros((3, 2), dtype=np.int64), np.eye(3, dtype=np.int64))
    assert keys_recoverable(obs)
    hole = LinearObservation(
        7, np.zeros((3, 2), dtype=np.int64),
        np.array([[1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=np.int64),
    )
    assert not keys_recoverable(hole)


# -- security statements on a mid-size instance ----------------------------------


def test_type_i_security_and_lemmas_d6():
    ps, lay, psi, *_ = make_instance(8, 6, 2, 2, Scheme.TYPE_I)
    maps = cell_maps(lay)
    for size in (1, 2):
        for L in combinations(range(1, 9), size):
            obs = observe_node_contents(L, psi, lay, maps=maps)
            assert mutual_information(obs) == 0
            assert entropy(obs) <= 30
            if size == 2:
                assert keys_recoverable(obs)


def test_type_ii_security_and_lemmas_d6():
    ps, lay, psi, *_ = make_instance(8, 6, 2, 2, Scheme.TYPE_II)
    maps = cell_maps(lay)
    for size in (1, 2):
        for L in combinations(range(1, 9), size):
            obs = observe_repair_traffic(L, psi, lay, maps=maps)
            assert mutual_information(obs) == 0
            assert entropy(obs) <= 50
            # entropy is exactly m C(d+1,m+1) - m C(d-|L|+1,m+1)
            assert entropy(obs) == 70 - 2 * binom(7 - size, 3)
            if size == 2:
                assert keys_recoverable(obs)


def test_type_ii_view_spans_type_i_view():
    # a repair-traffic eavesdropper can reconstruct stored contents
    for scheme in (Scheme.TYPE_I, Scheme.TYPE_II):
        ps, lay, psi, *_ = make_instance(7, 5, 2, 2, scheme)
        maps = cell_maps(lay)
        for L in combinations(range(1, 8), 2):
            o1 = full_map(observe_node_contents(L, psi, lay, maps=maps))
            o2 = full_map(observe_repair_traffic(L, psi, lay, maps=maps))
            r2 = rank_of(o2, ps.q)
            assert rank_of(np.vstack([o2, o1]), ps.q) == r2
            # hence Type-I leakage never exceeds Type-II leakage
            obs1 = observe_node_contents(L, psi, lay, maps=maps)
            obs2 = observe_repair_traffic(L, psi, lay, maps=maps)
            assert mutual_information(obs1) <= mutual_information(obs2)


@pytest.mark.parametrize("n,d,m,q", [(8, 6, 2, 11), (6, 6, 2, 7)], ids=["n>d", "n=d"])
def test_reduced_traffic_rows_keep_every_rank(n, d, m, q):
    # The audit's at most d*beta rows per failed node span the same space
    # as the literal (n-1)*C(d, m-1) packet rows, key columns included.
    ps, lay, psi, *_ = make_instance(n, d, m, 2, Scheme.TYPE_II, q=q)
    maps = cell_maps(lay)
    fs = lay.secret_count
    reduced = {f: reduced_traffic_rows(f, psi, ps, maps) for f in range(1, n + 1)}
    assert all(rows.shape[0] <= d * ps.beta for rows in reduced.values())
    for size in (1, 2):
        for L in combinations(range(1, n + 1), size):
            view = np.vstack([reduced[f] for f in L])
            full = full_map(observe_repair_traffic(L, psi, lay, maps=maps))
            assert view.shape[0] < full.shape[0]
            rank = rank_of(view, q)
            assert rank == rank_of(full, q) == rank_of(np.vstack([view, full]), q)
            assert rank_of(view[:, fs:], q) == rank_of(full[:, fs:], q)


def test_leakage_beyond_budget_reported_not_asserted():
    ps, lay, psi, *_ = make_instance(8, 6, 2, 2, Scheme.TYPE_I)
    obs = observe_node_contents([1, 2, 3], psi, lay)
    assert mutual_information(obs) >= 0  # reported; the theory claims nothing here


# -- key decoders -----------------------------------------------------------------


def test_decode_keys_type_i_roundtrip_all_sets():
    ps, lay, psi, s, k, M = make_instance(8, 6, 2, 2, Scheme.TYPE_I, seed=12)
    for L in combinations(range(1, 9), 2):
        E = psi.submatrix([i - 1 for i in L], range(6)).a @ M.a % ps.q
        got = decode_keys_type_i(E, s, psi, L, lay)
        assert np.array_equal(got, k)


def test_decode_keys_type_i_zero_instance():
    ps, lay, psi, *_ = make_instance(8, 6, 2, 2, Scheme.TYPE_I)
    z = np.zeros((2, 15), dtype=np.int64)
    got = decode_keys_type_i(z, np.zeros(40, dtype=np.int64), psi, [1, 2], lay)
    assert not got.any()


def test_decoders_degenerate_ell_zero():
    ps, lay, psi, s, k, M = make_instance(8, 6, 2, 0, Scheme.PLAIN, seed=8)
    E = np.zeros((0, 15), dtype=np.int64)
    assert decode_keys_type_i(E, s, psi, [], lay).size == 0
    assert decode_keys_type_ii({}, s, psi, [], lay).size == 0


def test_decode_keys_type_i_detects_inconsistency():
    # With ell >= m+1 a parity group lies entirely in the key rows, so a
    # corrupted observation cannot be explained by any key assignment.
    # (For ell < m+1 the top block is free and every observation is
    # consistent; corruption then silently decodes to different keys.)
    ps, lay, psi, s, k, M = make_instance(8, 6, 1, 2, Scheme.TYPE_I, seed=13)
    E = psi.submatrix([0, 1], range(ps.d)).a @ M.a % ps.q
    E = E.copy()
    E[0, 0] = (E[0, 0] + 1) % ps.q
    with pytest.raises(InconsistentObservationError):
        decode_keys_type_i(E, s, psi, [1, 2], lay)


def test_decode_keys_type_i_validates_inputs():
    ps, lay, psi, s, k, M = make_instance(8, 6, 2, 2, Scheme.TYPE_I)
    E = np.zeros((2, 15), dtype=np.int64)
    with pytest.raises(ValueError):
        decode_keys_type_i(E, s, psi, [1], lay)  # |L| != ell
    lay2 = build_layout(SecureParams(system(8, 6, 2), 2, Scheme.TYPE_II))
    with pytest.raises(ValueError):
        decode_keys_type_i(E, np.zeros(20, dtype=np.int64), psi, [1, 2], lay2)


def test_decode_keys_type_ii_roundtrip_all_sets():
    ps, lay, psi, s, k, M = make_instance(8, 6, 2, 2, Scheme.TYPE_II, seed=14)
    for L in combinations(range(1, 9), 2):
        packets = all_packets(M, psi, L, ps)
        got = decode_keys_type_ii(packets, s, psi, L, lay)
        assert np.array_equal(got, k)


def test_hat_column_labels_count_and_support():
    ps = system(8, 6, 2)
    labels = hat_column_labels(ps, 2)
    assert len(labels) == binom(6, 2) - binom(4, 2)
    assert all(min(J) > j for j, J in labels if J)


def test_decode_keys_type_ii_zero_and_errors():
    ps, lay, psi, s, k, M = make_instance(8, 6, 2, 2, Scheme.TYPE_II, seed=15)
    packets = all_packets(M, psi, [3, 5], ps)
    bad = dict(packets)
    bad[(1, 3)] = (bad[(1, 3)] + 1) % ps.q
    with pytest.raises(InconsistentObservationError):
        decode_keys_type_ii(bad, s, psi, [3, 5], lay)
    with pytest.raises(ValueError):
        decode_keys_type_ii(packets, s, psi, [3], lay)


def test_decoders_reject_malformed_symbols():
    ps, lay, psi, s, k, M = make_instance(8, 6, 2, 2, Scheme.TYPE_II, seed=15)
    packets = all_packets(M, psi, [3, 5], ps)
    for pair, bad in (
        ((8, 5), np.append(packets[(8, 5)], 0)),  # 7 symbols, C(6, 1) = 6 expected
        ((1, 3), packets[(1, 3)] + 0.5),
    ):
        with pytest.raises(ValueError, match=rf"packet \({pair[0]} -> {pair[1]}\) must") as err:
            decode_keys_type_ii({**packets, pair: bad}, s, psi, [3, 5], lay)
        assert not isinstance(err.value, InconsistentObservationError)
    with pytest.raises(ValueError, match="secrets must hold integer"):
        decode_keys_type_ii(packets, s.astype(float), psi, [3, 5], lay)
    ps, lay, psi, s, k, M = make_instance(8, 6, 2, 2, Scheme.TYPE_I, seed=15)
    E = psi.submatrix([2, 4], range(6)).a @ M.a % ps.q
    with pytest.raises(ValueError, match="observed contents must hold integer"):
        decode_keys_type_i(E + 0.5, s, psi, [3, 5], lay)
    with pytest.raises(ValueError, match="secrets must hold integer"):
        decode_keys_type_i(E, s + 0.5, psi, [3, 5], lay)
    assert np.array_equal(decode_keys_type_i(E, s, psi, [3, 5], lay), k)


@pytest.mark.parametrize(
    "n,d,m,scheme,q",
    [(7, 5, 2, Scheme.TYPE_I, None), (8, 6, 2, Scheme.TYPE_II, None)],
)
def test_decoders_agree_with_the_audit(n, d, m, scheme, q):
    # A decoder returns the keys exactly for the |L| = ell sets whose audit
    # row says the keys are recoverable, which at n > d is every such set.
    ps, lay, psi, s, k, M = make_instance(n, d, m, 2, scheme, seed=17, q=q)
    rows = [r for r in audit_sweep(lay, psi) if len(r.nodes) == 2]
    assert len(rows) == binom(n, 2) and all(r.keys_recoverable for r in rows)
    contents = psi.a @ M.a % ps.q
    for row in rows:
        L = row.nodes
        if scheme is Scheme.TYPE_I:
            decoded = decode_keys_type_i(contents[[i - 1 for i in L]], s, psi, L, lay)
        else:
            decoded = decode_keys_type_ii(all_packets(M, psi, L, ps), s, psi, L, lay)
        assert np.array_equal(decoded, k)


def test_decoder_refuses_a_view_that_does_not_determine_the_keys():
    # At n = d, which the audit refuses, the traffic into two nodes comes
    # from d - 1 helpers each, and the ranks of every pair's view say that
    # it does not pin down the keys.  The decoder says so, which is not an
    # inconsistent observation.
    ps, lay, psi, s, k, M = make_instance(6, 6, 2, 2, Scheme.TYPE_II, seed=17, q=7)
    with pytest.raises(ValueError, match="d < n; got n=6, d=6"):
        audit_sweep(lay, psi)
    for L in combinations(range(1, 7), 2):
        assert not keys_recoverable(observe_repair_traffic(L, psi, lay))
        with pytest.raises(ValueError, match="does not determine every key") as err:
            decode_keys_type_ii(all_packets(M, psi, L, ps), s, psi, L, lay)
        assert not isinstance(err.value, InconsistentObservationError)


def test_decode_keys_type_ii_ell_equals_d():
    ps, lay, psi, s, k, M = make_instance(8, 6, 2, 6, Scheme.TYPE_II, seed=16)
    L = [1, 2, 4, 5, 7, 8]
    packets = all_packets(M, psi, L, ps)
    got = decode_keys_type_ii(packets, s, psi, L, lay)
    assert np.array_equal(got, k)


# -- structural audits of the stacked repair encoders ------------------------------


def test_xi_top_fullrank_examples():
    # ell = d, m = 1: the top block is all d rows, rank d
    ps = system(8, 6, 1)
    psi = vandermonde_encoder(ps)
    ok, audit = xi_top_fullrank(range(1, 7), psi, ps)
    assert ok and audit.expected_rank == 6
    # the 19x19 instance: d=6, m=3, ell=3
    ps = system(8, 6, 3)
    psi = vandermonde_encoder(ps)
    ok, audit = xi_top_fullrank([2, 5, 8], psi, ps)
    assert ok
    assert audit.expected_rank == binom(6, 3) - binom(3, 3) == 19
    per_block = {}
    for j, J in audit.col_labels:
        per_block.setdefault(j, []).append(J)
    assert [len(per_block[j]) for j in (1, 2, 3)] == [10, 6, 3]


def test_xi_top_fullrank_rejects_duplicates():
    ps = system(8, 6, 2)
    psi = vandermonde_encoder(ps)
    with pytest.raises(ValueError):
        xi_top_fullrank([3, 3], psi, ps)
    with pytest.raises(ValueError):
        xi_top_fullrank([], psi, ps)


def test_xi_rows_selected_are_subsets_meeting_ell_prefix():
    ps = system(8, 6, 2)
    psi = vandermonde_encoder(ps)
    _, audit = xi_top_fullrank([1, 5], psi, ps)
    ell = 2
    for I in audit.row_subsets:
        assert any(x <= ell for x in I)
    remaining = list(ps.columns.subsets())[len(audit.row_subsets):]
    for I in remaining:
        assert all(x > ell for x in I)


def test_block_triangularization_example_instance():
    ps = system(8, 6, 3)
    psi = vandermonde_encoder(ps)
    _, audit = xi_top_fullrank([2, 5, 8], psi, ps)
    rep = xi_block_triangularize(audit)
    assert rep.ok
    assert rep.matrix.shape == (19, 19)
    assert sum(size for _, size in rep.group_sizes) == 19


def test_block_triangularization_ell1_is_plain_triangular():
    ps = system(8, 6, 3)
    psi = vandermonde_encoder(ps)
    _, audit = xi_top_fullrank([4], psi, ps)
    rep = xi_block_triangularize(audit)
    assert rep.ok
    assert all(size == 1 for _, size in rep.group_sizes)
    # strictly lower triangular above the diagonal
    assert not np.any(np.triu(rep.matrix, k=1))
    assert np.all(np.diagonal(rep.matrix) != 0)


def test_group_size_identity_sweep():
    for d in range(1, 9):
        ps = system(d + 2, d, max(1, d // 2))
        for ell in range(1, d + 1):
            labels = hat_column_labels(ps, ell)
            assert len(labels) == binom(d, ps.m) - binom(d - ell, ps.m)


def test_single_helper_multi_failure_entropy_identity():
    # entropy of the repair data one helper sends to a failure set A,
    # measured as the rank of the map on the free symbols, matches the
    # closed form C(d, m) - C(d - |A|, m) used in the converse proofs
    for d, m in ((6, 2), (6, 3), (5, 2), (4, 1)):
        ps = system(d + 2, d, m)
        psi = vandermonde_encoder(ps)
        lay = build_layout(SecureParams(ps, 0, Scheme.PLAIN))
        helper_map = np.tensordot(psi.a[ps.n - 1], cell_maps(lay), axes=1) % ps.q
        for size in range(1, d + 1):
            stack = np.vstack(
                [
                    repair_encoder(f, psi, ps).a.T @ helper_map % ps.q
                    for f in range(1, size + 1)
                ]
            )
            assert rank_of(stack, ps.q) == binom(d, m) - binom(d - size, m)


# -- audit sweep drivers -------------------------------------------------------------


def test_audit_sweep_and_pass():
    ps, lay, psi, *_ = make_instance(7, 5, 2, 2, Scheme.TYPE_I)
    rows = audit_sweep(lay, psi)
    assert len(rows) == 7 + 21
    assert audit_passes(rows, 2)
    assert all(r.leaked == 0 for r in rows)
    csv = rows[0].as_csv()
    assert csv.startswith("type1,")


@pytest.mark.parametrize(
    "scheme,builder",
    [(Scheme.TYPE_I, "observe_node_contents"), (Scheme.TYPE_II, "reduced_traffic_rows")],
)
def test_audit_sweep_builds_each_node_view_once(monkeypatch, scheme, builder):
    ps, lay, psi, *_ = make_instance(7, 5, 2, 2, scheme)
    expected = audit_sweep(lay, psi)
    original = getattr(leakage, builder)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(leakage, builder, counted)
    assert audit_sweep(lay, psi) == expected
    assert len(expected) == 7 + 21 and len(calls) == 7


@pytest.mark.parametrize(
    "n,d,m,ell,scheme,cap",
    [(8, 6, 2, 2, Scheme.TYPE_II, 4), (8, 6, 3, 0, Scheme.PLAIN, 2)],
    ids=["type2-8-6-2", "plain-8-6-3"],
)
def test_audit_sweep_rows_match_reference_ranks(monkeypatch, n, d, m, ell, scheme, cap):
    # Sets past ell leak, so every figure of a row is checked, not only
    # zeros.  Each set goes once through `observation_ranks` and once
    # through `echelon_pivots`, the names the benchmark's tracer times.
    ps, lay, psi, *_ = make_instance(n, d, m, ell, scheme)
    calls = {"observation_ranks": 0, "echelon_pivots": 0}
    for name in calls:
        original = getattr(leakage, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(leakage, name, counted)
    rows = audit_sweep(lay, psi, max_set_size=cap)
    sets = sum(binom(n, size) for size in range(1, cap + 1))
    assert len(rows) == sets and calls == {"observation_ranks": sets, "echelon_pivots": sets}
    assert any(row.leaked for row in rows)
    maps, fs, nk = cell_maps(lay), lay.secret_count, lay.key_count
    if scheme is Scheme.TYPE_II:
        views = [reduced_traffic_rows(f, psi, ps, maps) for f in range(1, n + 1)]
    else:
        views = [full_map(observe_node_contents([f], psi, lay)) for f in range(1, n + 1)]
    for row in rows:
        view = np.vstack([views[f - 1] for f in row.nodes])  # [M_S | M_Q]
        entropy = len(python_echelon(view, ps.q)[1])
        key_rank = len(python_echelon(view[:, fs:], ps.q)[1])
        assert (row.entropy, row.leaked, row.keys_recoverable) == (
            entropy, entropy - key_rank, key_rank == nk
        ), row.nodes


def test_audit_set_count_bounded_before_anything_is_built(monkeypatch):
    # C(90,1) + C(90,2) = 4095 sets fit; at n = 91 there are 4186.
    assert MAX_AUDIT_SETS == 4096
    assert audit_set_cap(SecureParams(system(90, 5, 2), 2, Scheme.TYPE_II)) == 2
    ps = system(91, 5, 2)
    lay = build_layout(SecureParams(ps, 2, Scheme.TYPE_II))
    monkeypatch.setattr(leakage, "cell_maps", lambda *a: pytest.fail("maps built"))
    with pytest.raises(ValueError, match="audit limit is 4096 sets"):
        audit_sweep(lay, vandermonde_encoder(ps))
    with pytest.raises(ValueError, match="audit limit is 4096 sets"):
        audit_set_cap(SecureParams(system(5000, 5, 2), 1, Scheme.TYPE_I))


@pytest.mark.parametrize("cap", [-1, 0, 8, None])
def test_audit_sweep_rejects_cap_outside_node_range(cap):
    # No cap given: a plain layout's default cap is its ell = 0.
    ell, scheme = (0, Scheme.PLAIN) if cap is None else (2, Scheme.TYPE_II)
    ps, lay, psi, *_ = make_instance(7, 5, 2, ell, scheme)
    with pytest.raises(ValueError, match="max set size"):
        audit_sweep(lay, psi, max_set_size=cap)
    assert len(audit_sweep(lay, psi, max_set_size=1)) == 7
