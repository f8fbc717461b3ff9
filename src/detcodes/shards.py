"""Shard-file format and the striped file codec behind the CLI.

A file is packed into field symbols at floor(log2 q) bits per symbol,
split into stripes of F_s secrets each (F for plain layouts), and every
stripe is assembled with fresh keys, the next run of the file's single
key stream, and encoded; shard i holds row i of every stripe's codeword.
Each shard is self-describing: a 52-byte header (magic ``DETC`` plus
twelve little-endian 4-byte integers) followed by the payload as
little-endian 2-byte symbols, each below q.
"""

from __future__ import annotations

import os
import struct
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .code import SystemParams, close_parity, recombine, repair_encoder, vandermonde_encoder
from .gf import Field
from .gfmatrix import GFMatrix
from .secure import KeyStream, MessageLayout, Scheme, SecureParams, build_layout, place

MAGIC = b"DETC"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4s12I")

# Bound on the codec's tables: the d x C(d,m) message matrix and the n x d
# encoder.  Its index tables cost about 3 us per message cell to build
# (0.4 s at the bound on a 2-vCPU VM); a header claiming (n,d,m) = (45,40,20) would otherwise ask for 5.5e12.
MAX_TABLE_CELLS = 1 << 17

_SCHEME_TAG = {Scheme.PLAIN: 0, Scheme.TYPE_I: 1, Scheme.TYPE_II: 2}
_TAG_SCHEME = {v: k for k, v in _SCHEME_TAG.items()}


class ShardFormatError(ValueError):
    """Malformed or mutually inconsistent shard files."""


@dataclass(frozen=True)
class ShardHeader:
    version: int
    scheme: Scheme
    q: int
    n: int
    d: int
    m: int
    ell: int
    node_id: int
    payload_symbols: int
    seed_present: bool
    original_length: int
    padding_symbols: int

    def to_bytes(self) -> bytes:
        return _HEADER.pack(
            MAGIC,
            self.version,
            _SCHEME_TAG[self.scheme],
            self.q,
            self.n,
            self.d,
            self.m,
            self.ell,
            self.node_id,
            self.payload_symbols,
            1 if self.seed_present else 0,
            self.original_length,
            self.padding_symbols,
        )

    @classmethod
    def from_bytes(cls, raw: bytes) -> "ShardHeader":
        if len(raw) < _HEADER.size:
            raise ShardFormatError("shard too short for a header")
        magic, ver, tag, q, n, d, m, ell, node, syms, seeded, length, pad = _HEADER.unpack(
            raw[: _HEADER.size]
        )
        if magic != MAGIC:
            raise ShardFormatError(f"bad magic {magic!r}")
        if ver != FORMAT_VERSION:
            raise ShardFormatError(f"unsupported format version {ver}")
        if tag not in _TAG_SCHEME:
            raise ShardFormatError(f"unknown scheme tag {tag}")
        if not 1 <= node <= n:
            raise ShardFormatError(f"node id {node} outside [1, n={n}]")
        return cls(ver, _TAG_SCHEME[tag], q, n, d, m, ell, node, syms, bool(seeded), length, pad)

    def secure_params(self) -> SecureParams:
        base = SystemParams(self.n, self.d, self.m, Field(self.q))
        return SecureParams(base, self.ell, self.scheme)

    def compatible_with(self, other: "ShardHeader") -> bool:
        """Same coded object, ignoring which node the shard belongs to."""
        return replace(self, node_id=0) == replace(other, node_id=0)


@dataclass(frozen=True)
class Shard:
    header: ShardHeader
    symbols: np.ndarray  # read-only uint16, stripe after stripe

    def __post_init__(self) -> None:
        s = np.asarray(self.symbols)
        if s.size and (s.min() < 0 or s.max() >= self.header.q):
            raise ShardFormatError(
                f"shard for node {self.header.node_id} holds symbols outside GF({self.header.q})"
            )
        s = s.astype(np.uint16, copy=False)
        s.setflags(write=False)
        object.__setattr__(self, "symbols", s)
        if len(s) != self.header.payload_symbols:
            raise ShardFormatError(
                f"payload has {len(s)} symbols, header says {self.header.payload_symbols}"
            )

    def to_bytes(self) -> bytes:
        return self.header.to_bytes() + self.symbols.astype("<u2", copy=False).tobytes()

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Shard":
        header = ShardHeader.from_bytes(raw)
        body = len(raw) - _HEADER.size
        if body != 2 * header.payload_symbols:
            raise ShardFormatError(
                f"payload is {body} bytes, expected {2 * header.payload_symbols}"
            )
        return cls(header, np.frombuffer(raw, dtype="<u2", offset=_HEADER.size))


def write_shard(path: str | Path, shard: Shard) -> None:
    """Write atomically: temp file in the target directory, then rename."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(shard.to_bytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_shard(path: str | Path) -> Shard:
    return Shard.from_bytes(Path(path).read_bytes())


# -- byte <-> symbol packing ------------------------------------------------------


def symbol_width(q: int) -> int:
    """Bits carried per symbol: floor(log2 q)."""
    return q.bit_length() - 1


def _symbol_spans(w: int) -> list[tuple[int, int, int]]:
    """Where each of the 8 symbols of a w-byte group lies.

    Symbol j holds bits [jw, jw + w) of the group (most significant bit
    first): bytes first..last, ending ``shift`` bits before the end of
    byte ``last``.  For w <= 15 a symbol spans at most 3 bytes, so the
    window of those bytes fits in 24 bits.
    """
    if not 1 <= w <= 15:
        raise ValueError(f"{w}-bit symbols do not fit the format; need 2 <= q < 2^16")
    spans = []
    for j in range(8):
        start, end = j * w, (j + 1) * w
        last = (end - 1) // 8
        spans.append((start // 8, last, 8 * (last + 1) - end))
    return spans


def pack_bytes(data: bytes, q: int) -> np.ndarray:
    """Fixed-width packing of a byte stream into uint16 symbols below 2^w <= q.

    The bytes are read as one big-endian bit string, cut into w-bit
    symbols and zero-padded to a whole symbol.  Every w bytes carry
    exactly 8 symbols, so each w-byte group is one row of 8 symbols.
    """
    w = symbol_width(q)
    count = -(-8 * len(data) // w)
    groups = -(-len(data) // w)
    padded = np.zeros(groups * w, dtype=np.uint8)
    padded[: len(data)] = np.frombuffer(data, dtype=np.uint8)
    grid = padded.reshape(groups, w).astype(np.uint32)
    out = np.empty((groups, 8), dtype=np.uint16)
    mask = (1 << w) - 1
    for j, (first, last, shift) in enumerate(_symbol_spans(w)):
        window = grid[:, first].copy()
        for t in range(first + 1, last + 1):
            window <<= 8
            window |= grid[:, t]
        out[:, j] = (window >> shift) & mask
    return out.reshape(-1)[:count]


def unpack_bytes(symbols: np.ndarray, q: int, byte_length: int) -> bytes:
    """Inverse of `pack_bytes`: the first byte_length bytes of the low w
    bits of every symbol."""
    w = symbol_width(q)
    symbols = np.asarray(symbols)
    if len(symbols) * w < 8 * byte_length:
        raise ShardFormatError("not enough symbols for the recorded file length")
    groups = -(-byte_length // w)
    used = min(len(symbols), 8 * groups)
    padded = np.zeros(8 * groups, dtype=np.uint32)
    padded[:used] = symbols[:used]
    padded &= (1 << w) - 1
    padded = padded.reshape(groups, 8)
    out = np.zeros((groups, w), dtype=np.uint32)
    for j, (first, last, shift) in enumerate(_symbol_spans(w)):
        window = padded[:, j] << shift
        for t in range(last, first - 1, -1):
            out[:, t] |= window & 0xFF
            window >>= 8
    return out.astype(np.uint8).reshape(-1)[:byte_length].tobytes()


# -- striped codec ------------------------------------------------------------------


class StripedCodec:
    """Vectorized per-stripe assemble/encode/recover/repair engine.

    Stripes are independent, so every operation processes all stripes of
    a file in one batch.  Batches are cell-major: a (d, stripes, alpha)
    array, handed around as its (stripes, d, alpha) transposed view, so
    that every product over GF(q) is one 2-D float64 GEMM (`_mat`)
    and row i of a codeword batch is already shard i's payload.  Slots,
    parity closure and repair recombination come from the code's own
    tables (`place`, `close_parity`, `recombine`), as for one matrix.
    """

    def __init__(self, sparams: SecureParams) -> None:
        self.sparams = sparams
        params = sparams.base
        self.params = params
        self.q = params.q
        # These two bounds also keep the float64 products exact: entries
        # are below q < 2^16 and inner dimensions (d, alpha) at most 2^17,
        # so partial sums stay below 2^49 < 2^53 (see `_mat`).
        if self.q >= 1 << 16:
            raise ValueError("shard format stores 2-byte symbols; need q < 2^16")
        cells = params.d * max(params.alpha, params.n)
        if cells > MAX_TABLE_CELLS:
            raise ValueError(
                f"(n,d,m) = ({params.n},{params.d},{params.m}) needs {cells} "
                f"table cells; the codec limit is {MAX_TABLE_CELLS}"
            )
        self.layout: MessageLayout = build_layout(sparams)
        self.psi: GFMatrix = vandermonde_encoder(params)

    # -- stripe planning ---------------------------------------------------

    @property
    def symbols_per_stripe(self) -> int:
        return self.layout.secret_count

    def stripe_count_for(self, packed_symbols: int) -> int:
        per = self.symbols_per_stripe
        if per == 0:
            if packed_symbols:
                raise ValueError(
                    "layout has zero secret capacity and cannot store data"
                )
            return 1
        return max(1, -(-packed_symbols // per))

    def _stack_payloads(self, shards: Sequence[Shard]) -> tuple[int, np.ndarray]:
        """Stripe count and the (shards, stripes * alpha) payload stack."""
        stripes, rem = divmod(shards[0].header.payload_symbols, self.params.alpha)
        if rem:
            raise ShardFormatError("payload length is not a whole number of stripes")
        return stripes, np.stack([s.symbols for s in shards])

    # -- batched message algebra -------------------------------------------

    def assemble_batch(self, secrets: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """Message matrices of shape (stripes, d, alpha), uint16."""
        b = secrets.shape[0]
        params = self.params
        mb = np.zeros((params.d, b, params.alpha), dtype=np.uint16).transpose(1, 0, 2)
        return close_parity(place(mb, self.layout, secrets, keys), params)

    def encode_batch(self, mb: np.ndarray) -> np.ndarray:
        """Codewords Psi @ M of shape (stripes, n, alpha), uint16."""
        b, d, alpha = mb.shape
        cells = mb.transpose(1, 0, 2).reshape(d, b * alpha)
        cb = _mod(_mat(self.psi.a, cells), self.q).astype(np.uint16)
        return cb.reshape(self.params.n, b, alpha).transpose(1, 0, 2)

    def recover_batch(self, node_ids: Sequence[int], cb: np.ndarray) -> np.ndarray:
        """Secrets of every stripe from the codeword rows of d nodes."""
        b, d, alpha = cb.shape
        psi_inv = self.psi.submatrix([i - 1 for i in node_ids], range(d)).inv()
        # Only the rows of M that hold secrets are computed.
        secret_rows, secret_cols = self.layout.secret_index
        needed, local = np.unique(secret_rows, return_inverse=True)
        rows = _mat(psi_inv.a[needed], cb.transpose(1, 0, 2).reshape(d, -1))
        cells = rows.reshape(len(rows), b, alpha).transpose(1, 0, 2)
        return _mod(cells[:, local, secret_cols], self.q)

    # -- file pipeline -------------------------------------------------------

    def encode_file(self, data: bytes, seed: int, seed_present: bool) -> list[Shard]:
        params = self.params
        syms = pack_bytes(data, self.q)
        stripes = self.stripe_count_for(len(syms))
        per = self.symbols_per_stripe
        padding = stripes * per - len(syms)
        secrets = np.zeros(stripes * per, dtype=np.uint16)
        secrets[: len(syms)] = syms
        nk = self.layout.key_count
        stream = KeyStream(seed, self.q)  # checks the seed for every layout
        keys = (
            stream.draw(stripes * nk).reshape(stripes, nk)
            if nk
            else np.zeros((stripes, 0), dtype=np.int64)
        )
        cb = self.encode_batch(self.assemble_batch(secrets.reshape(stripes, per), keys))
        shards = []
        for node in range(1, params.n + 1):
            header = ShardHeader(
                FORMAT_VERSION,
                self.sparams.scheme,
                self.q,
                params.n,
                params.d,
                params.m,
                self.sparams.ell,
                node,
                stripes * params.alpha,
                seed_present,
                len(data),
                padding,
            )
            shards.append(Shard(header, cb[:, node - 1, :].reshape(-1)))
        return shards

    def recover_file(self, shards: Sequence[Shard]) -> bytes:
        params = self.params
        seen: dict[int, Shard] = {}
        for s in shards:
            if s.header.node_id in seen:
                raise ShardFormatError(f"duplicate shard for node {s.header.node_id}")
            seen[s.header.node_id] = s
        if len(seen) < params.d:
            raise ShardFormatError(
                f"insufficient shards: need {params.d}, got {len(seen)}"
            )
        chosen = list(seen.values())[: params.d]
        head = chosen[0].header
        stripes, stack = self._stack_payloads(chosen)
        cb = stack.reshape(params.d, stripes, params.alpha).transpose(1, 0, 2)
        secrets = self.recover_batch([s.header.node_id for s in chosen], cb).reshape(-1)
        packed = len(secrets) - head.padding_symbols
        return unpack_bytes(secrets[:packed], self.q, head.original_length)

    def repair_shard(self, failed: int, helpers: Sequence[Shard]) -> tuple[Shard, int]:
        """Regenerate shard ``failed`` from d helper shards.

        Returns the rebuilt shard and the repair bandwidth in symbols
        (stripes x d helpers x beta independent symbols each).
        """
        params = self.params
        if not 1 <= failed <= params.n:
            raise ValueError(f"node id {failed} out of range [1, {params.n}]")
        ids = [s.header.node_id for s in helpers]
        if len(set(ids)) != params.d or len(ids) != params.d:
            raise ShardFormatError(f"need {params.d} distinct helper shards")
        if failed in ids:
            raise ShardFormatError(f"failed node {failed} cannot be a helper")
        helpers = sorted(helpers, key=lambda s: s.header.node_id)
        ids = sorted(ids)
        stripes, shares = self._stack_payloads(helpers)
        xi = repair_encoder(failed, self.psi, params)
        payloads = _mod(_mat(shares.reshape(-1, params.alpha), xi.a), self.q)
        psi_h_inv = self.psi.submatrix([i - 1 for i in ids], range(params.d)).inv()
        # M @ Xi^f, cell-major; entries stay below 2^49, so the m-term
        # signed sums of `recombine` cannot overflow int64.
        mxi = _mat(psi_h_inv.a, payloads.reshape(params.d, -1)).astype(np.int64)
        mxi = mxi.reshape(params.d, stripes, xi.cols).transpose(1, 0, 2)
        vals = recombine(mxi, params)
        header = replace(helpers[0].header, node_id=failed)
        bandwidth = stripes * params.d * params.beta
        return Shard(header, vals.reshape(-1)), bandwidth


# Exact GF(q) products in float64.  Operands hold residues below q < 2^16
# and every inner dimension (d or alpha) is at most MAX_TABLE_CELLS = 2^17,
# both checked in StripedCodec.__init__.  So every partial sum of a product
# is an integer below 2^17 * (2^16)^2 = 2^49 < 2^53, which float64 holds
# exactly whatever the summation order (Dumas, Giorgi & Pernet, "FFLAS and
# FFPACK", ACM TOMS 2008), and numpy runs the product as one BLAS dgemm.


def _mat(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for residue matrices, as exact integers in float64."""
    return np.asarray(a, dtype=np.float64) @ np.asarray(b, dtype=np.float64)


def _mod(x: np.ndarray, q: int) -> np.ndarray:
    """Canonical int64 residues of exact integers held in float64."""
    r = x.astype(np.int64)
    r %= q
    return r


def codec_for_headers(shards: Sequence[Shard]) -> StripedCodec:
    """Validate header consistency across shards and build their codec."""
    if not shards:
        raise ShardFormatError("no shards given")
    head = shards[0].header
    for s in shards[1:]:
        if not head.compatible_with(s.header):
            raise ShardFormatError(
                f"shard for node {s.header.node_id} belongs to a different object"
            )
    return StripedCodec(head.secure_params())
