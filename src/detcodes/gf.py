"""Prime fields GF(q): the modulus check and the default field size.

Field elements are plain Python integers (or numpy int64 entries) kept as
canonical residues in ``[0, q)``.  Only prime moduli are supported; a prime
strictly between n and 2n always exists, so prime fields suffice for any
system size below 2^31 without extension-field arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

# The largest modulus whose int64 arithmetic stays exact (`gfmatrix._period`);
# it also caps `is_prime`'s trial division at about 23,000 steps.
MAX_Q = (1 << 31) + 1


def check_q_range(q: int) -> None:
    """Refuse a modulus outside [2, MAX_Q]."""
    if not 2 <= q <= MAX_Q:
        raise ValueError(f"GF({q}) arithmetic needs 2 <= q <= 2^31 + 1")


def is_prime(n: int) -> bool:
    """Trial-division primality test: about sqrt(n)/2 divisions."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
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
