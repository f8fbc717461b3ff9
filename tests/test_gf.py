import pytest

from detcodes.gf import Field, smallest_prime_gt


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


def test_arith_examples_gf7():
    f = Field(7)
    assert f.inv(3) == 5
    assert f.inv(6) == 6
    assert f.inv(10) == 5  # reduced first


def test_inverse_of_zero_is_reported():
    with pytest.raises(ZeroDivisionError):
        Field(11).inv(0)


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_field_axioms_exhaustive(q):
    # every nonzero element has a unique inverse, and inversion is an
    # involution that respects products
    f = Field(q)
    units = range(1, q)
    inverses = [f.inv(a) for a in units]
    assert sorted(inverses) == list(units)
    for a, a_inv in zip(units, inverses):
        assert a * a_inv % q == 1
        assert f.inv(a_inv) == a
        for b in units:
            assert f.inv(a * b) == a_inv * f.inv(b) % q
