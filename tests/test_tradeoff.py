from fractions import Fraction

import pytest

from detcodes.secure import Scheme, secret_capacity
from detcodes.subsets import binom
from detcodes.tradeoff import (
    TRADEOFF_CSV_HEADER,
    cutset_bound,
    emit_tradeoff_csv,
    external_bound_check,
    pareto_count,
    pareto_points_bruteforce,
    point,
    shao_family_matches,
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
    for d in range(2, 12):
        for ell in range(1, d):
            assert shao_family_matches(d, ell)


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
