from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from detcodes.subsets import LexIndexer, binom, ind


def test_binom_examples():
    assert binom(6, 2) == 15
    assert binom(2, 3) == 0
    assert binom(5, 0) == 1
    assert binom(5, -1) == 0


def test_ind_examples():
    assert ind((1, 3, 4), 3) == 2
    assert ind((1, 3, 4), 1) == 1
    assert ind((3, 4), 6) == 2
    assert ind((2, 5), 1) == 0


def test_rank_examples_d6_m2():
    idx = LexIndexer(6, 2)
    assert idx.rank((1, 2)) == 0
    assert idx.rank((5, 6)) == 14
    assert idx.rank((3, 4)) == 9
    assert list(idx.subsets())[9] == (3, 4)


def test_rank_bijection_and_order_exhaustive():
    for d in range(0, 9):
        for m in range(0, d + 1):
            idx = LexIndexer(d, m)
            subsets = list(idx.subsets())
            assert len(subsets) == len(idx) == binom(d, m)
            assert [idx.rank(I) for I in subsets] == list(range(len(subsets)))
            # rank order is the set order: I < J iff min(I - J) < min(J - I)
            for i, I in enumerate(subsets):
                for j, J in enumerate(subsets):
                    set_less = I != J and min(set(I) - set(J)) < min(set(J) - set(I))
                    assert (i < j) == set_less


def test_ind_bounds_property():
    for d in range(1, 8):
        for m in range(1, d + 1):
            for I in combinations(range(1, d + 1), m):
                for x in I:
                    assert 1 <= ind(I, x) <= m
                assert ind(I, min(I)) == 1


def test_rank_errors():
    idx = LexIndexer(6, 2)
    with pytest.raises(ValueError):
        idx.rank((1, 2, 3))
    with pytest.raises(ValueError):
        idx.rank((2, 2))
    with pytest.raises(ValueError):
        idx.rank((0, 3))


@given(st.integers(1, 30), st.data())
def test_rank_order_preserving_large(d, data):
    # rank maps the C(d, m) subsets into [0, C(d, m)) and preserves their
    # order, so it is the bijection that enumerate(subsets()) gives, without
    # enumerating C(30, 6) subsets.
    m = data.draw(st.integers(0, min(d, 6)))
    subset = st.lists(st.integers(1, d), min_size=m, max_size=m, unique=True).map(lambda s: tuple(sorted(s)))
    I, J = data.draw(subset), data.draw(subset)
    idx = LexIndexer(d, m)
    assert 0 <= idx.rank(I) < binom(d, m)
    assert (idx.rank(I) < idx.rank(J)) == (I < J) and (idx.rank(I) == idx.rank(J)) == (I == J)
