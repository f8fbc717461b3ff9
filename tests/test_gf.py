import time

import numpy as np
import pytest

from detcodes.gf import _MR_LIMIT, Field, is_prime, smallest_prime_gt
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
    # 2^61 - 1 and 2^31 + 11 are prime, but past the int64 bound 2^31 + 1,
    # which is checked before primality.  No prime
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


def sieve_primes(limit):
    """Sieve of Eratosthenes: is_p[n] for 0 <= n < limit."""
    is_p = [False, False] + [True] * (limit - 2)
    for f in range(2, int(limit**0.5) + 1):
        if is_p[f]:
            is_p[f * f :: f] = [False] * len(range(f * f, limit, f))
    return is_p


def test_is_prime_matches_sieve_below_1e5():
    reference = sieve_primes(10**5)
    assert [is_prime(n) for n in range(10**5)] == reference
    assert not any(is_prime(n) for n in range(-10, 0))


def test_is_prime_large_and_adversarial():
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,
                  5394826801, 232250619601, 9746347772161]
    assert not any(is_prime(n) for n in carmichael)
    # Strong pseudoprimes to every base up to 7, 13 and 31 respectively.
    assert not any(is_prime(n) for n in (3215031751, 3474749660383, 3825123056546413051))
    assert is_prime(2**31 - 1) and is_prime(2**61 - 1)
    assert not is_prime(2**31 + 1) and not is_prime(2**67 - 1)  # 193707721 * 761838257287
    assert not is_prime((2**31 - 1) ** 2) and not is_prime((2**31 - 1) * 65521)
    assert is_prime(np.int64(65521)) and not is_prime(np.uint16(65535))
    start = time.perf_counter()
    assert is_prime(2**61 - 1)
    assert time.perf_counter() - start < 0.05


def test_is_prime_refuses_past_its_exact_range():
    # psi_12 itself is a strong pseudoprime to the bases 2..37.
    assert _MR_LIMIT == 318665857834031151167461
    for n in (_MR_LIMIT, 2**127 - 1):
        with pytest.raises(ValueError, match="exact only below"):
            is_prime(n)
    assert not is_prime(_MR_LIMIT - 1)


def test_default_field_matches_sieve():
    reference = sieve_primes(20000)
    for n in range(1, 10000):
        assert smallest_prime_gt(n) == next(q for q in range(n + 1, 20000) if reference[q])
    for q in range(2000):
        if reference[q]:
            assert Field(q).q == q
        else:
            with pytest.raises(ValueError):
                Field(q)


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
