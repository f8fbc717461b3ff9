from itertools import combinations

import numpy as np
import pytest

from detcodes.code import (
    CellKind,
    RepairPacket,
    build_message_matrix,
    cell_counts,
    cell_kind,
    check_leading_blocks,
    check_mds,
    close_parity,
    encode,
    info_cells,
    info_symbols,
    multi_repair_rank,
    packet_support_basis,
    parity_holds,
    recover_message,
    repair_encoder,
    repair_node,
    repair_packet,
    system,
    vandermonde_encoder,
)
from detcodes.gfmatrix import GFMatrix
from detcodes.subsets import binom, ind


def random_message(params, seed=0):
    rng = np.random.default_rng(seed)
    return build_message_matrix(params, rng.integers(0, params.q, params.file_size))


def test_parameters_d6_m2():
    ps = system(8, 6, 2)
    assert (ps.file_size, ps.alpha, ps.beta) == (70, 15, 5)
    assert ps.q == 11


def test_params_validation():
    with pytest.raises(ValueError):
        system(8, 6, 0)
    with pytest.raises(ValueError):
        system(8, 6, 7)
    with pytest.raises(ValueError):
        system(5, 6, 2)
    with pytest.raises(ValueError):
        system(8, 6, 2, q=7)  # q <= n
    with pytest.raises(ValueError):
        system(8, 6, 2, q=12)  # not prime


def test_cell_kind_and_counts():
    assert cell_kind(2, (2, 4)) is CellKind.V
    assert cell_kind(1, (2, 4)) is CellKind.W
    assert cell_kind(3, (2, 4)) is CellKind.W
    assert cell_kind(5, (2, 4)) is CellKind.P
    for d in range(1, 9):
        for m in range(1, d + 1):
            ps = system(d + 2, d, m)
            counts = cell_counts(ps)
            assert counts["V"] == m * binom(d, m)
            assert counts["W"] == m * binom(d, m + 1)
            assert counts["P"] == binom(d, m + 1)
            assert sum(counts.values()) == d * ps.alpha
            assert counts["V"] + counts["W"] == ps.file_size


def test_message_matrix_symbol_count_enforced():
    ps = system(8, 6, 2)
    with pytest.raises(ValueError):
        build_message_matrix(ps, [0] * 69)


def test_message_matrix_edge_cases():
    ps = system(3, 1, 1)
    m = build_message_matrix(ps, [3])
    assert m.shape == (1, 1) and m.a[0, 0] == 3
    ps = system(5, 3, 1)
    z = build_message_matrix(ps, [0] * ps.file_size)
    assert z == GFMatrix.zeros(3, 3, ps.q)
    assert parity_holds(z, ps)


def test_parity_closure_exhaustive():
    for d in range(1, 9):
        for m in range(1, d + 1):
            ps = system(d + 2, d, m)
            M = random_message(ps, seed=d * 10 + m)
            assert parity_holds(M, ps)
            # each group's alternating-sign residual, summed here cell by cell
            cols = ps.columns
            for J in ps.parity_groups.subsets():
                residual = sum(
                    (-1) ** ind(J, y) * int(M.a[y - 1, cols.rank(tuple(v for v in J if v != y))])
                    for y in J
                )
                assert residual % ps.q == 0
            if m < d:  # changing P cell (m + 1, [1:m]) breaks its group
                bad = M.a.copy()
                bad[m, 0] = (bad[m, 0] + 1) % ps.q
                assert not parity_holds(GFMatrix(ps.q, bad), ps)


def test_parity_value_structural_examples():
    # group {1,3,4} at d=6, m=2: M(4,{1,3}) = -M(1,{3,4}) + M(3,{1,4})
    ps = system(8, 6, 2)
    M = random_message(ps, seed=3)
    cols = ps.columns
    got = int(M.a[3, cols.rank((1, 3))])
    expect = (-int(M.a[0, cols.rank((3, 4))]) + int(M.a[2, cols.rank((1, 4))])) % ps.q
    assert got == expect
    # m=1 group {1,2}: M(2,{1}) = M(1,{2})
    ps1 = system(6, 4, 1)
    M1 = random_message(ps1, seed=4)
    assert M1.a[1, ps1.columns.rank((1,))] == M1.a[0, ps1.columns.rank((2,))]


def test_parity_zero_group():
    # group {1,2,5} has only zero partners; group {1,3,4} has one nonzero
    ps = system(8, 6, 2)
    arr = np.zeros((6, 15), dtype=np.int64)
    arr[0, ps.columns.rank((3, 4))] = 5
    close_parity(arr, ps)
    assert arr[4, ps.columns.rank((1, 2))] == 0
    assert arr[3, ps.columns.rank((1, 3))] == -5 % ps.q
    assert np.count_nonzero(arr) == 2


def test_fill_order_and_info_symbol_roundtrip():
    ps = system(8, 6, 2)
    syms = np.arange(70) % ps.q
    M = build_message_matrix(ps, syms)
    assert np.array_equal(info_symbols(M, ps), syms)
    # first column {1,2} receives the first two symbols in rows 1, 2
    assert M.a[0, 0] == syms[0] and M.a[1, 0] == syms[1]
    # fill order visits d*alpha - P cells
    assert sum(1 for _ in info_cells(ps)) == ps.file_size


def test_vandermonde_encoder_convention():
    ps = system(3, 2, 1, q=5)
    psi = vandermonde_encoder(ps)
    assert psi == GFMatrix.from_rows([[1, 1], [1, 2], [1, 3]], 5)


def test_encoder_conditions():
    ps = system(7, 6, 2)
    psi = vandermonde_encoder(ps)
    assert check_mds(psi, ps.d)  # every 6x6 submatrix full rank
    for ell in range(1, ps.d + 1):
        assert check_leading_blocks(psi, ell)


def test_encode_trivial_cases():
    ps = system(8, 6, 2)
    psi = vandermonde_encoder(ps)
    z = GFMatrix.zeros(6, 15, ps.q)
    assert all(not s.values.any() for s in encode(z, psi))
    # d=1: every share equals the single message row
    ps1 = system(4, 1, 1)
    psi1 = vandermonde_encoder(ps1)
    m1 = build_message_matrix(ps1, [3])
    for s in encode(m1, psi1):
        assert np.array_equal(s.values, m1.a[0])


def test_recover_from_every_subset():
    ps = system(8, 6, 2)
    psi = vandermonde_encoder(ps)
    M = random_message(ps, seed=11)
    shares = encode(M, psi)
    for K in combinations(range(8), 6):
        assert recover_message([shares[i] for i in K], psi, ps) == M


def test_recover_errors():
    ps = system(8, 6, 2)
    psi = vandermonde_encoder(ps)
    shares = encode(random_message(ps), psi)
    with pytest.raises(ValueError):
        recover_message(shares[:5], psi, ps)
    with pytest.raises(ValueError):
        recover_message([shares[0]] * 6, psi, ps)


def test_repair_encoder_structure():
    # d=3, m=1: 3x1 with entries -Psi(f, x); rank 1
    ps = system(5, 3, 1)
    psi = vandermonde_encoder(ps)
    xi = repair_encoder(2, psi, ps)
    assert xi.shape == (3, 1)
    expect = [(-int(psi.a[1, x])) % ps.q for x in range(3)]
    assert list(xi.a[:, 0]) == expect
    assert xi.rank() == 1 == binom(2, 0)
    # d=6, m=2: 15x6 of rank 5; each column has d-m+1 nonzeros
    ps = system(8, 6, 2)
    psi = vandermonde_encoder(ps)
    xi = repair_encoder(4, psi, ps)
    assert xi.shape == (15, 6)
    assert xi.rank() == 5
    assert all(np.count_nonzero(xi.a[:, j]) == 5 for j in range(6))


def test_repair_encoder_rank_sweep():
    for d in range(1, 9):
        for m in range(1, d + 1):
            ps = system(d + 2, d, m)
            psi = vandermonde_encoder(ps)
            for f in range(1, ps.n + 1):
                assert repair_encoder(f, psi, ps).rank() == ps.beta


def test_repair_packet_m1_is_negated_inner_product():
    # m=1: the payload has a single entry, -sum_x N_h(x) Psi(f, x)
    ps = system(5, 3, 1)
    psi = vandermonde_encoder(ps)
    M = random_message(ps, seed=19)
    shares = encode(M, psi)
    f = 4
    for s in shares:
        if s.node_id == f:
            continue
        p = repair_packet(s, f, psi, ps)
        expect = (-sum(int(s.values[x]) * int(psi.a[f - 1, x]) for x in range(3))) % ps.q
        assert p.values.shape == (1,) and p.values[0] == expect


def test_repair_packet_properties():
    ps = system(8, 6, 2)
    psi = vandermonde_encoder(ps)
    M = random_message(ps, seed=21)
    shares = encode(M, psi)
    xi = repair_encoder(3, psi, ps)
    with pytest.raises(ValueError):
        repair_packet(shares[2], 3, psi, ps)  # self repair rejected
    pkts = [repair_packet(s, 3, psi, ps, xi) for s in shares if s.node_id != 3]
    assert all(len(p.values) == binom(6, 1) for p in pkts)
    # payloads live in the row space of Xi^T
    stacked = np.stack([p.values for p in pkts])
    from detcodes.gfmatrix import rank_of

    assert rank_of(stacked, ps.q) <= ps.beta


def test_repair_roundtrip_exhaustive_small():
    ps = system(6, 4, 2)
    psi = vandermonde_encoder(ps)
    M = random_message(ps, seed=31)
    shares = encode(M, psi)
    for f in range(1, 7):
        others = [s for s in shares if s.node_id != f]
        for H in combinations(others, 4):
            pkts = [repair_packet(s, f, psi, ps) for s in H]
            got = repair_node(f, pkts, psi, ps)
            assert np.array_equal(got.values, shares[f - 1].values)


def test_repair_node_errors():
    ps = system(8, 6, 2)
    psi = vandermonde_encoder(ps)
    shares = encode(random_message(ps), psi)
    pkts = [repair_packet(s, 3, psi, ps) for s in shares if s.node_id != 3]
    with pytest.raises(ValueError):
        repair_node(3, pkts[:5], psi, ps)  # wrong helper count
    with pytest.raises(ValueError):
        repair_node(4, pkts[:6], psi, ps)  # mismatched target
    bad = pkts[:5] + [RepairPacket(3, 3, pkts[0].values)]
    with pytest.raises(ValueError):
        repair_node(3, bad, psi, ps)  # failed node among helpers


def test_multi_repair_rank_identity():
    # every failure set up to size d, not just prefixes
    for d in range(1, 6):
        for m in range(1, d + 1):
            ps = system(d + 2, d, m)
            psi = vandermonde_encoder(ps)
            nodes = range(1, ps.n + 1)
            for size in range(1, d + 1):
                for failed in combinations(nodes, size):
                    u = next(i for i in nodes if i not in failed)
                    got = multi_repair_rank(u, failed, psi, ps)
                    assert got == binom(d, m) - binom(d - size, m)
    # spot checks at d = 6
    ps = system(8, 6, 2)
    psi = vandermonde_encoder(ps)
    assert multi_repair_rank(1, [3, 5, 8], psi, ps) == 15 - binom(3, 2)
    assert multi_repair_rank(7, range(1, 7), psi, ps) == 15  # |A| = d gives alpha


def test_multi_repair_rank_rejects_failed_helper():
    ps = system(8, 6, 2)
    psi = vandermonde_encoder(ps)
    with pytest.raises(ValueError):
        multi_repair_rank(2, [2, 3], psi, ps)


def test_packet_compression_roundtrip():
    # m=3 exercises a basis with gaps (column 4 of Xi^f is dependent)
    for m in (1, 2, 3):
        ps = system(8, 6, m)
        psi = vandermonde_encoder(ps)
        M = random_message(ps, seed=41 + m)
        shares = encode(M, psi)
        for f in (1, 5, 8):
            xi = repair_encoder(f, psi, ps)
            basis = packet_support_basis(xi)
            assert len(basis) == ps.beta
            # basis coordinates really are payload positions
            assert all(0 <= b < binom(6, m - 1) for b in basis)
            # the basis coordinates of a payload determine all of it
            sub = xi.submatrix(range(xi.rows), basis)
            coeffs, _ = sub.solve(xi)  # sub @ coeffs == xi
            for s in shares:
                if s.node_id == f:
                    continue
                p = repair_packet(s, f, psi, ps, xi)
                back = p.values[list(basis)] @ coeffs.a % ps.q
                assert np.array_equal(back, p.values)
