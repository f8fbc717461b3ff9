import time
from fractions import Fraction

import pytest

from detcodes.secure import Scheme, ell_range, secret_capacity
from detcodes.subsets import binom
from detcodes.tradeoff import (
    MAX_TRADEOFF_D,
    MAX_TRADEOFF_ROWS,
    TRADEOFF_CSV_HEADER,
    cutset_bound,
    emit_tradeoff_csv,
    external_bound_check,
    pareto_count,
    pareto_points_bruteforce,
    point,
    single_pareto_threshold,
)


def test_point_examples():
    p = point(6, 2, 2, Scheme.TYPE_I)
    assert (p.alpha, p.beta, p.fs) == (15, 5, 40)
    p = point(6, 2, 2, Scheme.TYPE_II)
    assert (p.alpha, p.beta, p.fs) == (15, 5, 20)
    p = point(6, 0, 2, Scheme.PLAIN)
    assert (p.alpha, p.beta, p.fs) == (15, 5, 70)


def test_point_zero_capacity_has_no_normalized_pair():
    p = point(6, 5, 4, Scheme.TYPE_II)
    assert p.fs == 0 and p.alpha_norm is None and p.beta_norm is None
    assert not p.pareto


def test_pareto_count_examples():
    assert pareto_count(10, 2) == 2
    assert pareto_count(6, 2) == 1
    assert pareto_count(30, 1) == 5
    assert pareto_count(5, 0) == 5  # non-secure trade-off has d corner points


def test_pareto_bruteforce_examples():
    assert pareto_points_bruteforce(10, 2, Scheme.TYPE_II) == {1, 2}
    # single Pareto point whenever ell is at least ceil((d-1)/4)
    for d in range(2, 20):
        ell = single_pareto_threshold(d)
        if ell <= d:
            assert pareto_points_bruteforce(d, ell, Scheme.TYPE_II) == {1}


def test_pareto_formula_agrees_with_hull_oracle():
    for d in range(2, 31):
        for ell in range(1, 6):
            assert pareto_count(d, ell) == len(
                pareto_points_bruteforce(d, ell, Scheme.TYPE_II)
            ), (d, ell)


def test_single_pareto_iff_threshold():
    for d in range(2, 31):
        for ell in range(1, d + 1):
            single = pareto_count(d, ell) <= 1
            assert single == (ell >= single_pareto_threshold(d)), (d, ell)


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def pareto_modes_all_pairs(d, ell, scheme):
    """The hull oracle with its dominance filter written as an all-pairs
    scan: a mode is dropped when another is at most as large in both
    normalized coordinates."""
    pts = []
    for m in range(1, d + 1):
        fs = secret_capacity(d, ell, m, scheme)
        if fs > 0:
            pts.append((Fraction(binom(d, m), fs), Fraction(binom(d - 1, m - 1), fs), m))
    frontier = sorted(
        p for p in pts if not any(o[:2] != p[:2] and o[0] <= p[0] and o[1] <= p[1] for o in pts)
    )
    hull = []
    for p in frontier:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], p) <= 0:
            hull.pop()
        hull.append(p)
    return {m for _, _, m in hull}


def test_pareto_sweep_matches_all_pairs_scan():
    for d in range(1, 41):
        for scheme in Scheme:
            for ell in ell_range(scheme, d):
                assert pareto_points_bruteforce(d, ell, scheme) == pareto_modes_all_pairs(d, ell, scheme)


def test_pareto_modes_at_the_d_limit_is_fast():
    # The all-pairs scan took about 3 s at d = 1000 on a 2-vCPU VM; the
    # sweep is O(d log d) and took 0.09 s there.
    start = time.perf_counter()
    modes = pareto_points_bruteforce.__wrapped__(MAX_TRADEOFF_D, 0, Scheme.TYPE_I)
    assert modes == set(range(1, MAX_TRADEOFF_D + 1))
    assert time.perf_counter() - start < 1.5


def test_nonsecure_all_modes_are_corner_points():
    for d in range(1, 16):
        assert pareto_points_bruteforce(d, 0, Scheme.PLAIN) == set(range(1, d + 1))


def test_type_i_corner_point_structure():
    # Without security every mode is a corner; at ell = d - 1 the mode-d
    # tuple (1, 1, 1) dominates everything else.
    for d in range(2, 16):
        assert pareto_points_bruteforce(d, 0, Scheme.TYPE_I) == set(range(1, d + 1))
        full = pareto_points_bruteforce(d, d - 1, Scheme.TYPE_I)
        assert full == {d}
        assert point(d, d - 1, d, Scheme.TYPE_I).fs == 1


def test_ell_zero_reduces_to_plain_capacity():
    for d in range(1, 16):
        for m in range(1, d + 1):
            f = m * binom(d + 1, m + 1)
            assert secret_capacity(d, 0, m, Scheme.TYPE_I) == f
            assert secret_capacity(d, 0, m, Scheme.TYPE_II) == f


def test_capacity_ordering_invariant():
    for d in range(1, 31):
        for ell in range(0, d + 1):
            for m in range(1, d + 1):
                f = m * binom(d + 1, m + 1)
                f1 = secret_capacity(d, ell, m, Scheme.TYPE_I)
                f2 = secret_capacity(d, ell, m, Scheme.TYPE_II)
                assert f2 <= f1 <= f, (d, ell, m)


def test_normalized_beta_increasing_for_type_ii():
    for d in range(2, 31):
        for ell in range(1, 6):
            prev = None
            for m in range(1, d - ell + 1):
                p = point(d, ell, m, Scheme.TYPE_II)
                if prev is not None:
                    assert prev < p.beta_norm
                prev = p.beta_norm


def test_cutset_examples():
    # m = 1 closed form: bound equals the MBR capacity
    for d in range(1, 20):
        for ell in range(0, d + 1):
            assert cutset_bound(d, ell, d, 1) == (d - ell + 1) * (d - ell) // 2
    assert cutset_bound(6, 2, 15, 5) == 45
    assert cutset_bound(6, 2, 15, 5) >= 40
    # ell = 0 reduces to the plain regenerating bound
    assert cutset_bound(6, 0, 15, 5) == sum(min(15, (6 - i) * 5) for i in range(6))


def test_external_bounds_satisfied_sweep():
    for d in range(1, 16):
        for ell in range(0, d + 1):
            for m in range(1, d + 1):
                for chk in external_bound_check(d, ell, m):
                    assert chk.satisfied, (d, ell, m, chk)


def test_tandon_ell1_equality_at_mbr():
    for d in range(2, 20):
        checks = {c.name: c for c in external_bound_check(d, 1, 1)}
        assert checks["tandon14-ell1"].equality
        checks2 = {c.name: c for c in external_bound_check(d, 1, 2)}
        if d > 2:
            assert not checks2["tandon14-ell1"].equality


def test_worked_extreme_points():
    # (4,3,3,1) Type-I: three normalized extreme points
    want = {1: (Fraction(1), Fraction(1, 3)),
            2: (Fraction(3, 5), Fraction(2, 5)),
            3: (Fraction(1, 2), Fraction(1, 2))}
    for m, (a, b) in want.items():
        p = point(3, 1, m, Scheme.TYPE_I)
        assert (p.alpha_norm, p.beta_norm) == (a, b)
        assert p.pareto
    # (7,6,6,1) Type-II: two normalized extreme points
    p1 = point(6, 1, 1, Scheme.TYPE_II)
    p2 = point(6, 1, 2, Scheme.TYPE_II)
    assert (p1.alpha_norm, p1.beta_norm) == (Fraction(2, 5), Fraction(1, 15))
    assert (p2.alpha_norm, p2.beta_norm) == (Fraction(3, 8), Fraction(1, 8))
    assert pareto_points_bruteforce(6, 1, Scheme.TYPE_II) == {1, 2}


def test_tandon16_special_families():
    # k = d = 2, ell = 1: capacities met with equality at every mode
    for m in (1, 2):
        checks = {c.name: c for c in external_bound_check(2, 1, m)}
        assert checks["tandon16-k2"].equality or checks["tandon16-k2"].satisfied
    # ell = d - 1: Type-I achievable equals beta
    for d in range(2, 12):
        for m in range(1, d + 1):
            assert secret_capacity(d, d - 1, m, Scheme.TYPE_I) == binom(d - 1, m - 1)


def test_shao_family_identity():
    # The (n = d+1) Type-II construction family from the literature is a
    # 1/(t-1) scaling of the mode t-1 tuple.
    for d in range(2, 12):
        n = d + 1
        for ell in range(1, d):
            for t in range(2, n - ell + 1):
                p = point(d, ell, t - 1, Scheme.TYPE_II)
                assert Fraction(p.alpha, t - 1) == Fraction(binom(n - 1, t - 1), t - 1)
                assert Fraction(p.beta, t - 1) == Fraction(binom(n - 1, t - 1), d)
                assert Fraction(p.fs, t - 1) == binom(n - ell, t)


def test_emit_csv_shapes():
    rows = list(emit_tradeoff_csv([6], [2], [Scheme.TYPE_I]))
    assert rows[0] == TRADEOFF_CSV_HEADER
    assert len(rows) == 1 + 6
    cells = rows[2].split(",")
    assert cells[:7] == ["type1", "6", "2", "2", "15", "5", "40"]
    assert cells[7] == "0.375"
    assert cells[10] == "3/8" and cells[11] == "1/8"
    # empty ranges give a header-only table
    assert list(emit_tradeoff_csv([], [], [Scheme.TYPE_I])) == [TRADEOFF_CSV_HEADER]


def test_emit_csv_skips_invalid_scheme_ell_pairs():
    rows = list(emit_tradeoff_csv([6], [0, 1, 2], [Scheme.PLAIN, Scheme.TYPE_II]))
    plain_rows = [r for r in rows if r.startswith("plain")]
    assert all(r.split(",")[2] == "0" for r in plain_rows)
    assert len(plain_rows) == 6


def test_fig_curve_data_row_counts():
    rows = list(emit_tradeoff_csv([15], range(0, 4), [Scheme.TYPE_I]))
    assert len(rows) == 1 + 4 * 15
    rows = list(emit_tradeoff_csv([30], [1], [Scheme.TYPE_I, Scheme.TYPE_II]))
    assert len(rows) == 1 + 2 * 30


def test_point_validation():
    with pytest.raises(ValueError):
        point(6, 2, 0, Scheme.TYPE_I)
    with pytest.raises(ValueError):
        point(6, -1, 1, Scheme.TYPE_I)
    with pytest.raises(ValueError):
        pareto_count(6, -1)


def test_tradeoff_bounds_refused_before_any_row():
    with pytest.raises(ValueError, match="d <= 1000"):
        pareto_points_bruteforce(MAX_TRADEOFF_D + 1, 0, Scheme.PLAIN)
    with pytest.raises(ValueError, match="d <= 1000"):
        next(emit_tradeoff_csv([6, MAX_TRADEOFF_D + 1], [0], [Scheme.PLAIN]))
    # sum(1..141) = 10011 requested rows, one ell, one scheme.
    with pytest.raises(ValueError, match=f"limit is {MAX_TRADEOFF_ROWS}"):
        next(emit_tradeoff_csv(range(1, 142), [0], [Scheme.PLAIN]))
    assert len(list(emit_tradeoff_csv(range(1, 141), [0], [Scheme.PLAIN]))) == 1 + 9870
