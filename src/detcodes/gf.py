"""Prime-field arithmetic GF(q): the symbol algebra for every other module.

Field elements are plain Python integers (or numpy int64 entries) kept as
canonical residues in ``[0, q)``.  Only prime moduli are supported; a prime
strictly between n and 2n always exists, so prime fields suffice for any
system size without extension-field arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass


def is_prime(n: int) -> bool:
    """Trial-division primality test (moduli here stay below ~2^16)."""
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
    c = n + 1
    while not is_prime(c):
        c += 1
    return c


@dataclass(frozen=True)
class Field:
    """GF(q) for a prime q.  All operations return canonical residues."""

    q: int

    def __post_init__(self) -> None:
        if not is_prime(self.q):
            raise ValueError(f"field modulus must be prime, got {self.q}")

    def inv(self, a: int) -> int:
        """Multiplicative inverse via Fermat; inverting zero raises."""
        a %= self.q
        if a == 0:
            raise ZeroDivisionError(f"zero has no inverse in GF({self.q})")
        return pow(a, self.q - 2, self.q)
