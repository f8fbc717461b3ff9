"""Secret/key placement for Type-I and Type-II secure message matrices.

Type-I fills every free (V/W) cell in the top l rows with a random key and
every free cell in the bottom d-l rows with a secret.  Type-II splits the
matrix into blocks at row l and at the column boundary between subsets
that touch [l] and subsets inside [l+1:d]; only free cells of the bottom-
right block D (rows > l, column subsets inside [l+1:d]) hold secrets, and
every parity cell inside D depends on secrets alone.  Slot numbering
follows the same canonical column-lex, row-ascending scan as the
non-secure fill order, with separate counters for secrets and keys.
"""

from __future__ import annotations

import enum
import hashlib
import operator
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .code import CellKind, SystemParams, cell_kind, close_parity, info_cells, read_only
from .gfmatrix import GFMatrix
from .subsets import Subset, binom


class Scheme(enum.Enum):
    PLAIN = "plain"
    TYPE_I = "type1"
    TYPE_II = "type2"


class Role(enum.Enum):
    SECRET = "secret"
    KEY = "key"
    PARITY = "parity"


def secret_capacity(d: int, ell: int, m: int, scheme: Scheme) -> int:
    """Number of secret symbols per message matrix (F, F_s,I or F_s,II)."""
    if scheme is Scheme.PLAIN or ell == 0:
        return m * binom(d + 1, m + 1)
    if scheme is Scheme.TYPE_I:
        return (d - ell) * binom(d, m) - binom(d, m + 1) + binom(ell, m + 1)
    return m * binom(d - ell + 1, m + 1)


def key_count(d: int, ell: int, m: int, scheme: Scheme) -> int:
    """Number of random keys; always F - F_s for the scheme."""
    return m * binom(d + 1, m + 1) - secret_capacity(d, ell, m, scheme)


@dataclass(frozen=True)
class SecureParams:
    """A base system plus the compromised-node budget and the scheme."""

    base: SystemParams
    ell: int
    scheme: Scheme

    def __post_init__(self) -> None:
        d = self.base.d
        if self.scheme is Scheme.PLAIN:
            if self.ell != 0:
                raise ValueError("plain layout requires ell == 0")
        elif self.scheme is Scheme.TYPE_I:
            if not 0 <= self.ell < d:
                raise ValueError(f"Type-I requires 0 <= ell < d, got ell={self.ell}, d={d}")
        elif not 0 <= self.ell <= d:
            raise ValueError(f"Type-II requires 0 <= ell <= d, got ell={self.ell}, d={d}")
        if (
            self.scheme is Scheme.TYPE_II
            and self.ell > 0
            and self.base.m > d - self.ell
        ):
            warnings.warn(
                f"Type-II with m={self.base.m} > d-ell={d - self.ell} has zero "
                "secret capacity; the matrix stores keys only",
                stacklevel=2,
            )

    @property
    def secret_count(self) -> int:
        return secret_capacity(self.base.d, self.ell, self.base.m, self.scheme)

    @property
    def key_count(self) -> int:
        return key_count(self.base.d, self.ell, self.base.m, self.scheme)


def _free_cell_role(x: int, I: Subset, ell: int, scheme: Scheme) -> Role:
    if scheme is Scheme.PLAIN or ell == 0:
        return Role.SECRET
    if scheme is Scheme.TYPE_I:
        return Role.KEY if x <= ell else Role.SECRET
    # Type-II: secrets live in block D only
    if x > ell and I[0] > ell:
        return Role.SECRET
    return Role.KEY


@dataclass(frozen=True)
class MessageLayout:
    """Role map over the d x alpha grid plus slot orderings."""

    sparams: SecureParams

    @cached_property
    def _is_secret(self) -> np.ndarray:
        """Whether each cell of the fill order holds a secret: the one scan."""
        sp = self.sparams
        return np.array(
            [_free_cell_role(x, I, sp.ell, sp.scheme) is Role.SECRET for x, I in info_cells(sp.base)],
            dtype=bool,
        )

    @cached_property
    def secret_index(self) -> tuple[np.ndarray, np.ndarray]:
        """0-based (rows, cols) of the secret slots, in slot order."""
        rows, cols = self.sparams.base.info_index
        return read_only(rows[self._is_secret], cols[self._is_secret])

    @cached_property
    def key_index(self) -> tuple[np.ndarray, np.ndarray]:
        """0-based (rows, cols) of the key slots, in slot order."""
        rows, cols = self.sparams.base.info_index
        return read_only(rows[~self._is_secret], cols[~self._is_secret])

    @cached_property
    def secret_cells(self) -> tuple[tuple[int, Subset], ...]:
        return tuple(c for c, s in zip(info_cells(self.sparams.base), self._is_secret) if s)

    @cached_property
    def key_cells(self) -> tuple[tuple[int, Subset], ...]:
        return tuple(c for c, s in zip(info_cells(self.sparams.base), self._is_secret) if not s)

    @property
    def secret_count(self) -> int:
        return int(np.count_nonzero(self._is_secret))

    @property
    def key_count(self) -> int:
        return len(self._is_secret) - self.secret_count

    def role_of(self, x: int, I: Subset) -> Role:
        if cell_kind(x, I) is CellKind.P:
            return Role.PARITY
        return _free_cell_role(x, I, self.sparams.ell, self.sparams.scheme)


def build_layout(sparams: SecureParams) -> MessageLayout:
    layout = MessageLayout(sparams)
    # The scan counts must agree with the closed-form capacities.
    if layout.secret_count != sparams.secret_count:
        raise AssertionError(
            f"secret cell scan found {layout.secret_count}, formula says "
            f"{sparams.secret_count}"
        )
    return layout


def place(
    mb: np.ndarray, layout: MessageLayout, secrets: np.ndarray, keys: np.ndarray
) -> np.ndarray:
    """Write (..., F_s) secrets and (..., |Q|) keys, mod q, into their slots
    of a zeroed (..., d, alpha) batch, in place, and return the batch."""
    q = layout.sparams.base.q
    mb[(..., *layout.secret_index)] = secrets % q
    mb[(..., *layout.key_index)] = keys % q
    return mb


def assemble(
    layout: MessageLayout, secrets: np.ndarray | list[int], keys: np.ndarray | list[int]
) -> GFMatrix:
    """Place secrets and keys into their slots and close every parity group."""
    params = layout.sparams.base
    secrets = np.asarray(secrets, dtype=np.int64)
    keys = np.asarray(keys, dtype=np.int64)
    if secrets.shape != (layout.secret_count,):
        raise ValueError(f"expected {layout.secret_count} secrets, got {secrets.shape}")
    if keys.shape != (layout.key_count,):
        raise ValueError(f"expected {layout.key_count} keys, got {keys.shape}")
    arr = np.zeros((params.d, params.alpha), dtype=np.int64)
    return GFMatrix(params.q, close_parity(place(arr, layout, secrets, keys), params))


def _gather(M: GFMatrix, layout: MessageLayout, index: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    params = layout.sparams.base
    if M.shape != (params.d, params.alpha):
        raise ValueError(f"matrix shape {M.shape} does not match layout")
    return M.a[index]


def extract_secrets(M: GFMatrix, layout: MessageLayout) -> np.ndarray:
    return _gather(M, layout, layout.secret_index)


def extract_keys(M: GFMatrix, layout: MessageLayout) -> np.ndarray:
    return _gather(M, layout, layout.key_index)


# -- key sampling ---------------------------------------------------------------

_KS_TAG = b"detcodes-keystream-v2"


class KeyStream:
    """Deterministic uniform symbols from a seed, via one SHAKE-256 stream.

    The XOF (FIPS 202) is keyed by a version tag, q and the seed as 32
    little-endian bytes, and read as little-endian 16-bit words.  Words at
    or above the largest multiple of q below 2^16 are rejected, the rest
    are reduced mod q, so every symbol is uniform over [0, q).  The output
    is stable across platforms and Python versions (unlike random.Random),
    which keeps shard files byte-identical for a fixed seed.  Successive
    ``draw`` calls continue the stream: ``draw(a)`` then ``draw(b)``
    equals ``draw(a + b)``.
    """

    def __init__(self, seed: int, q: int) -> None:
        if q < 2 or q >= 1 << 16:
            raise ValueError(f"modulus {q} out of supported range [2, 2^16)")
        seed = operator.index(seed)
        if not 0 <= seed < 1 << 256:
            raise ValueError(f"seed {seed} out of range [0, 2^256)")
        self.q = q
        self._xof = hashlib.shake_256(
            _KS_TAG + q.to_bytes(2, "little") + seed.to_bytes(32, "little")
        )
        self._words_used = 0
        self._limit = (1 << 16) - ((1 << 16) % q)

    def draw(self, count: int) -> np.ndarray:
        out = np.empty(count, dtype=np.int64)
        filled = 0
        reject = ((1 << 16) % self.q) / (1 << 16)
        while filled < count:
            need = count - filled
            # Over-ask by twice the expected rejections; a short batch loops.
            start, size = self._words_used, need + int(2 * need * reject) + 16
            # hashlib cannot resume a squeeze, so squeeze the prefix again.
            raw = self._xof.digest(2 * (start + size))[2 * start :]
            words = np.frombuffer(raw, dtype="<u2")
            accepted = np.flatnonzero(words < self._limit)[:need]
            out[filled : filled + len(accepted)] = words[accepted] % self.q
            filled += len(accepted)
            self._words_used += size if filled < count else int(accepted[-1]) + 1
        return out


def sample_keys(count: int, seed: int, q: int) -> np.ndarray:
    """Draw ``count`` uniform field symbols; same arguments, same symbols."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    return KeyStream(seed, q).draw(count)
