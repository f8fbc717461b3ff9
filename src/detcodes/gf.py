"""Prime fields GF(q): the modulus check and the default field size.

Field elements are plain Python integers (or numpy int64 entries) kept as
canonical residues in ``[0, q)``.  Only prime moduli are supported; a prime
strictly between n and 2n always exists, so prime fields suffice for any
system size below 2^31 without extension-field arithmetic.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

# The largest modulus whose int64 arithmetic stays exact (`gfmatrix._period`).
MAX_Q = (1 << 31) + 1

# Miller-Rabin to the twelve prime bases 2..37 has no strong pseudoprime
# below psi_12 = 318665857834031151167461, about 3.2e23 (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 318665857834031151167461


def check_q_range(q: int) -> None:
    """Refuse a modulus outside [2, MAX_Q]."""
    if not 2 <= q <= MAX_Q:
        raise ValueError(f"GF({q}) arithmetic needs 2 <= q <= 2^31 + 1")


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test to the bases 2..37: exact
    for n below 3.2e23 (`_MR_LIMIT`), at most twelve modular powers; a
    larger n is refused with ValueError."""
    n = operator.index(n)
    if n >= _MR_LIMIT:
        raise ValueError(f"is_prime is exact only below {_MR_LIMIT}, got {n}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s * odd
    for a in _MR_BASES:
        x = pow(a, (n - 1) >> s, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def smallest_prime_gt(n: int) -> int:
    """Least prime strictly greater than n; below 2n for n > 1 (Bertrand)."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n >= MAX_Q - 1:  # 2^31 + 1 = 3 * 715827883 is not prime
        raise ValueError(f"GF(q) arithmetic needs 2 <= q <= 2^31 + 1; no such prime q > n = {n}")
    c = n + 1
    while not is_prime(c):
        c += 1
    return c


@dataclass(frozen=True)
class Field:
    """GF(q) for a prime q <= 2^31 + 1; constructing one checks the range,
    then that q is prime."""

    q: int

    def __post_init__(self) -> None:
        check_q_range(self.q)
        if not is_prime(self.q):
            raise ValueError(f"field modulus must be prime, got {self.q}")
