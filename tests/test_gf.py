import time

import pytest

from detcodes.gf import Field, smallest_prime_gt
from detcodes.gfmatrix import GFMatrix, SingularMatrixError


def test_smallest_prime_gt_examples():
    assert smallest_prime_gt(6) == 7
    assert smallest_prime_gt(7) == 11
    assert smallest_prime_gt(30) == 31


def test_smallest_prime_within_bertrand_window():
    for n in range(2, 2000):
        q = smallest_prime_gt(n)
        assert n < q < 2 * n


def test_smallest_prime_rejects_nonpositive():
    with pytest.raises(ValueError):
        smallest_prime_gt(0)


def test_field_requires_prime_modulus():
    Field(2)
    Field(65521)
    for bad in (1, 4, 9, 15, 100):
        with pytest.raises(ValueError):
            Field(bad)


def test_field_range_checked_before_trial_division():
    # 2^61 - 1 and 2^31 + 11 are prime, but past the int64 bound 2^31 + 1;
    # unbounded trial division would take minutes on the first.  No prime
    # lies in (2^31, 2^31 + 1], so no default q exists for n >= 2^31.
    start = time.perf_counter()
    for q in (2**61 - 1, 2**31 + 11, 0, 1):
        with pytest.raises(ValueError, match=r"needs 2 <= q <= 2\^31 \+ 1"):
            Field(q)
    for n in (2**31, 10**12):
        with pytest.raises(ValueError, match=r"needs 2 <= q <= 2\^31 \+ 1"):
            smallest_prime_gt(n)
    assert Field(2**31 - 1).q == 2**31 - 1
    assert smallest_prime_gt(2**31 - 2) == 2**31 - 1
    assert time.perf_counter() - start < 1


def inverse(a, q):
    """The inverse of a in GF(q), as the inverse of the 1 x 1 matrix [a]."""
    return int(GFMatrix(q, [[a]]).inv().a[0, 0])


def test_arith_examples_gf7():
    assert inverse(3, 7) == 5
    assert inverse(6, 7) == 6
    assert inverse(10, 7) == 5  # reduced first


def test_inverse_of_zero_is_reported():
    with pytest.raises(SingularMatrixError):
        inverse(0, 11)


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_field_axioms_exhaustive(q):
    # every nonzero element has a unique inverse, and inversion is an
    # involution that respects products
    units = range(1, q)
    inverses = [inverse(a, q) for a in units]
    assert sorted(inverses) == list(units)
    for a, a_inv in zip(units, inverses):
        assert a * a_inv % q == 1
        assert inverse(a_inv, q) == a
        for b in units:
            assert inverse(a * b, q) == a_inv * inverse(b, q) % q
