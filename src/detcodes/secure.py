"""Secret/key placement for Type-I and Type-II secure message matrices.

The free (V/W) cells that hold secrets form a rectangle of the message
matrix: rows l+1..d, in the columns from a first one on.  Type-I takes
every column, so each free cell in the top l rows holds a random key.
Type-II takes only the columns whose m-subset lies inside [l+1:d], the
last C(d-l, m) in lexicographic order (`code.first_inner_column`): that
is block D, and every parity cell inside D depends on secrets alone.
Slot numbering follows the same canonical column-lex, row-ascending scan
as the non-secure fill order, with separate counters for secrets and keys.
"""

from __future__ import annotations

import enum
import hashlib
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .code import SystemParams, first_inner_column, info_cells, read_only
from .gfmatrix import GFMatrix, _mod
from .subsets import Subset, binom


class Scheme(enum.Enum):
    PLAIN = "plain"
    TYPE_I = "type1"
    TYPE_II = "type2"


def ell_range(scheme: Scheme, d: int) -> range:
    """Compromised-node budgets the scheme allows at repair degree d: only
    0 for plain, 0 <= ell < d for Type-I and 0 <= ell <= d for Type-II."""
    return range({Scheme.PLAIN: 1, Scheme.TYPE_I: d, Scheme.TYPE_II: d + 1}[scheme])


def _check_ell(scheme: Scheme, d: int, ell: int) -> None:
    """Reject a budget ell outside `ell_range(scheme, d)`, for d >= 1."""
    allowed = ell_range(scheme, d)
    if ell not in allowed:
        raise ValueError(
            f"{scheme.value} at d={d} requires 0 <= ell <= {allowed[-1]}, got ell={ell}"
        )


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
        _check_ell(self.scheme, self.base.d, self.ell)

    @property
    def secret_count(self) -> int:
        return secret_capacity(self.base.d, self.ell, self.base.m, self.scheme)

    @property
    def key_count(self) -> int:
        return key_count(self.base.d, self.ell, self.base.m, self.scheme)


@dataclass(frozen=True)
class MessageLayout:
    """Role map over the d x alpha grid plus slot orderings.  A free cell
    holds a secret when its row is below ell and its column is at or after
    the first secret column, `first_inner_column` for Type-II and 0 for
    plain (whose ell is 0) and Type-I; every other free cell holds a key."""

    sparams: SecureParams

    @cached_property
    def _is_secret(self) -> np.ndarray:
        """Whether each cell of the fill order holds a secret: the rectangle."""
        sp = self.sparams
        first = first_inner_column(sp.base, sp.ell) if sp.scheme is Scheme.TYPE_II else 0
        rows, cols = sp.base.info_index
        return (rows >= sp.ell) & (cols >= first)

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
    def gather_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The tables of `assemble_rows`, over the d*alpha stacked rows
        [secrets; keys; parity sums]: the (d, alpha) row of every cell, and
        each parity sum's m partner rows and signs (`parity_table`), int8 so
        as to keep the rows' dtype; partners are always secret or key rows."""
        params = self.sparams.base
        (prows, pcols), partners = params.parity_table
        row = np.empty((params.d, params.alpha), dtype=np.intp)
        free = len(self._is_secret)
        row[self.secret_index] = np.arange(self.secret_count)
        row[self.key_index] = np.arange(self.secret_count, free)
        row[prows, pcols] = np.arange(free, row.size)
        signs = partners.signs.astype(np.int8)
        return read_only(row, row[partners.rows, partners.cols], signs)

    @property
    def secret_count(self) -> int:
        return int(np.count_nonzero(self._is_secret))

    @property
    def key_count(self) -> int:
        return len(self._is_secret) - self.secret_count


def build_layout(sparams: SecureParams) -> MessageLayout:
    layout = MessageLayout(sparams)
    # The count of the rectangle rule must agree with the closed-form capacity.
    if layout.secret_count != sparams.secret_count:
        raise AssertionError(
            f"secret cell rule found {layout.secret_count}, formula says "
            f"{sparams.secret_count}"
        )
    return layout


def assemble_rows(layout: MessageLayout, rows: np.ndarray) -> np.ndarray:
    """The (d, alpha, ...) message batch of a (d*alpha, ...) stack of rows
    whose first F_s + |Q| rows hold the secrets, then the keys, as residues
    of an integer dtype or a float type that holds the parity sums exactly:
    the rows below them are set to the parity sums, each reduced once, and
    one gather puts every row in its cell, all in the rows' dtype.  A
    cell-major batch makes each cell one contiguous row."""
    cells, partners, signs = layout.gather_table
    # One dtype for einsum, which is about twice as slow on mixed ones.
    signs = signs.astype(np.promote_types(signs.dtype, rows.dtype))
    sums = np.einsum("pk,pk...->p...", signs, np.take(rows, partners, axis=0))
    rows[len(rows) - len(sums) :] = _mod(sums, layout.sparams.base.q)
    return np.take(rows, cells, axis=0)


def assemble(
    layout: MessageLayout, secrets: np.ndarray | list[int], keys: np.ndarray | list[int]
) -> GFMatrix:
    """The message matrix of secrets and keys, reduced mod q: a batch of one."""
    params = layout.sparams.base
    secrets = np.asarray(secrets, dtype=np.int64)
    keys = np.asarray(keys, dtype=np.int64)
    if secrets.shape != (layout.secret_count,):
        raise ValueError(f"expected {layout.secret_count} secrets, got {secrets.shape}")
    if keys.shape != (layout.key_count,):
        raise ValueError(f"expected {layout.key_count} keys, got {keys.shape}")
    rows = np.empty(params.d * params.alpha, dtype=np.int64)
    rows[: len(secrets) + len(keys)] = np.concatenate([secrets, keys]) % params.q
    return GFMatrix(params.q, assemble_rows(layout, rows))


def extract_secrets(M: GFMatrix, layout: MessageLayout) -> np.ndarray:
    params = layout.sparams.base
    if M.shape != (params.d, params.alpha):
        raise ValueError(f"matrix shape {M.shape} does not match layout")
    return M.a[layout.secret_index]


# -- key sampling ---------------------------------------------------------------

_KS_TAG = b"detcodes-keystream-v4"
SEGMENT_WORDS = 1 << 16  # 16-bit words per key-stream segment (128 KiB of SHAKE-256)


@lru_cache(maxsize=4)
def _digit_table(q: int) -> np.ndarray:
    """Digit rows of `KeyStream`'s accepted words w (whose k low base-q digits
    are those of w mod q^k), made in uint32 and kept as uint8 for q <= 256."""
    k = next(k for k in range(16, 0, -1) if q**k <= 1 << 16)
    rest = np.arange((1 << 16) - (1 << 16) % q**k, dtype=np.uint32)
    table = np.empty((len(rest), k), dtype=np.uint8 if q <= 256 else np.uint16)
    for digit in table.T:
        rest, digit[:] = np.divmod(rest, np.uint32(q))
    table.setflags(write=False)
    return table


class KeyStream:
    """Deterministic uniform symbols from a seed, via segmented SHAKE-256.

    Segment j is SHAKE-256 (FIPS 202) of a version tag, q (2 bytes), the
    seed (32 bytes) and j (8 bytes), all little-endian, read as
    `SEGMENT_WORDS` little-endian 16-bit words.  With k the largest integer
    such that q^k <= 2^16, a word w below 2^16 - (2^16 mod q^k) yields the
    k i.i.d. uniform symbols (w mod q^k) // q^i mod q, i = 0..k-1 (k = 4 at
    q = 11); other words are rejected.  The bytes are stable across
    platforms, so fixed-seed shards are too.  ``draw(a)`` then ``draw(b)``
    equals ``draw(a + b)``, and a draw squeezes only the segments it reaches.
    """

    def __init__(self, seed: int, q: int) -> None:
        if q < 2 or q >= 1 << 16:
            raise ValueError(f"modulus {q} out of supported range [2, 2^16)")
        seed = operator.index(seed)
        if not 0 <= seed < 1 << 256:
            raise ValueError(f"seed {seed} out of range [0, 2^256)")
        self.q = q
        self._key = _KS_TAG + q.to_bytes(2, "little") + seed.to_bytes(32, "little")
        self._segment = 0  # index of the next segment to squeeze
        self._symbols = np.empty(0, dtype=np.uint16)  # unread symbols of the current one

    def draw(self, count: int) -> np.ndarray:
        out = np.empty(count, dtype=np.uint16)
        filled = 0
        while filled < count:
            if not len(self._symbols):  # the next segment's symbols: one gather of digit rows
                table = _digit_table(self.q)  # so a plain encode, which draws none, builds none
                xof = hashlib.shake_256(self._key + self._segment.to_bytes(8, "little"))
                words = np.frombuffer(xof.digest(2 * SEGMENT_WORDS), dtype="<u2")
                self._symbols = np.take(table, words[words < len(table)], axis=0).reshape(-1)
                self._segment += 1
            taken, self._symbols = self._symbols[: count - filled], self._symbols[count - filled :]
            out[filled : filled + len(taken)] = taken
            filled += len(taken)
        return out
