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

from .code import SystemParams, repair_encoder, vandermonde_encoder
from .gf import Field
from .gfmatrix import GFMatrix
from .secure import KeyStream, MessageLayout, Scheme, SecureParams, build_layout
from .subsets import ind

MAGIC = b"DETC"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4s12I")

# Bound on the codec's tables: the d x C(d,m) message matrix and the n x d
# encoder.  Message cells cost 15-25 us each to lay out (2 s at the bound);
# a header claiming (n,d,m) = (45,40,20) would otherwise ask for 5.5e12.
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
    symbols: np.ndarray

    def __post_init__(self) -> None:
        s = np.asarray(self.symbols, dtype=np.int64)
        s.setflags(write=False)
        object.__setattr__(self, "symbols", s)
        if len(s) != self.header.payload_symbols:
            raise ShardFormatError(
                f"payload has {len(s)} symbols, header says {self.header.payload_symbols}"
            )

    def to_bytes(self) -> bytes:
        return self.header.to_bytes() + self.symbols.astype("<u2").tobytes()

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Shard":
        header = ShardHeader.from_bytes(raw)
        body = raw[_HEADER.size :]
        if len(body) != 2 * header.payload_symbols:
            raise ShardFormatError(
                f"payload is {len(body)} bytes, expected {2 * header.payload_symbols}"
            )
        symbols = np.frombuffer(body, dtype="<u2")
        if (symbols >= header.q).any():
            raise ShardFormatError(
                f"shard for node {header.node_id} holds symbols outside GF({header.q})"
            )
        return cls(header, symbols)


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


def pack_bytes(data: bytes, q: int) -> np.ndarray:
    """Fixed-width packing of a byte stream into symbols below 2^w <= q."""
    w = symbol_width(q)
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    pad = (-len(bits)) % w
    if pad:
        bits = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
    weights = (1 << np.arange(w - 1, -1, -1)).astype(np.int64)
    return bits.reshape(-1, w).astype(np.int64) @ weights


def unpack_bytes(symbols: np.ndarray, q: int, byte_length: int) -> bytes:
    w = symbol_width(q)
    symbols = np.asarray(symbols, dtype=np.int64)
    if len(symbols) * w < 8 * byte_length:
        raise ShardFormatError("not enough symbols for the recorded file length")
    shifts = np.arange(w - 1, -1, -1)
    bits = ((symbols[:, None] >> shifts) & 1).astype(np.uint8).reshape(-1)
    return np.packbits(bits[: 8 * byte_length]).tobytes()


# -- striped codec ------------------------------------------------------------------


class StripedCodec:
    """Vectorized per-stripe assemble/encode/recover/repair engine.

    Stripes are independent, so every operation processes all stripes of
    a file in one batch of numpy index arithmetic.
    """

    def __init__(self, sparams: SecureParams) -> None:
        self.sparams = sparams
        params = sparams.base
        self.params = params
        self.q = params.q
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
        cols = params.columns
        self._sr = np.array([x - 1 for x, _ in self.layout.secret_cells], dtype=np.intp)
        self._sc = np.array([cols.rank(I) for _, I in self.layout.secret_cells], dtype=np.intp)
        self._kr = np.array([x - 1 for x, _ in self.layout.key_cells], dtype=np.intp)
        self._kc = np.array([cols.rank(I) for _, I in self.layout.key_cells], dtype=np.intp)
        groups = list(params.parity_groups.subsets())
        m = params.m
        self._ptx = np.array([J[-1] - 1 for J in groups], dtype=np.intp)
        self._ptc = np.array([cols.rank(J[:-1]) for J in groups], dtype=np.intp)
        sign = np.zeros((len(groups), m), dtype=np.int64)
        py = np.zeros((len(groups), m), dtype=np.intp)
        pc = np.zeros((len(groups), m), dtype=np.intp)
        for g, J in enumerate(groups):
            x, I = J[-1], J[:-1]
            for k, y in enumerate(I):
                Y = tuple(v for v in J if v != y)
                sign[g, k] = (-1) ** (m + ind(I, y))
                py[g, k] = y - 1
                pc[g, k] = cols.rank(Y)
        self._psign, self._ppy, self._ppc = sign, py, pc
        # Repair recombination: share symbol I is the signed sum over x in I
        # of row x, column I \ {x} of M @ Xi^f.
        rcols = params.repair_columns
        rx = np.zeros((params.alpha, m), dtype=np.intp)
        rc = np.zeros((params.alpha, m), dtype=np.intp)
        rs = np.zeros((params.alpha, m), dtype=np.int64)
        for i, I in enumerate(cols.subsets()):
            for k, x in enumerate(I):
                rx[i, k] = x - 1
                rc[i, k] = rcols.rank(tuple(v for v in I if v != x))
                rs[i, k] = (-1) ** ind(I, x)
        self._rx, self._rc, self._rs = rx, rc, rs

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

    # -- batched message algebra -------------------------------------------

    def assemble_batch(self, secrets: np.ndarray, keys: np.ndarray) -> np.ndarray:
        b = secrets.shape[0]
        params = self.params
        mb = np.zeros((b, params.d, params.alpha), dtype=np.int64)
        mb[:, self._sr, self._sc] = secrets % self.q
        mb[:, self._kr, self._kc] = keys % self.q
        if len(self._ptx):
            contrib = (mb[:, self._ppy, self._ppc] * self._psign).sum(axis=2)
            mb[:, self._ptx, self._ptc] = contrib % self.q
        return mb

    def encode_batch(self, mb: np.ndarray) -> np.ndarray:
        return np.einsum("nd,bda->bna", self.psi.a, mb) % self.q

    def recover_batch(self, node_ids: Sequence[int], cb: np.ndarray) -> np.ndarray:
        """Secrets of every stripe from the codeword rows of d nodes."""
        d = self.params.d
        psi_inv = self.psi.submatrix([i - 1 for i in node_ids], range(d)).inv()
        mb = np.einsum("dk,bka->bda", psi_inv.a, cb) % self.q
        return mb[:, self._sr, self._sc]

    # -- file pipeline -------------------------------------------------------

    def encode_file(self, data: bytes, seed: int, seed_present: bool) -> list[Shard]:
        params = self.params
        syms = pack_bytes(data, self.q)
        stripes = self.stripe_count_for(len(syms))
        per = self.symbols_per_stripe
        padding = stripes * per - len(syms)
        secrets = np.concatenate([syms, np.zeros(padding, dtype=np.int64)]).reshape(
            stripes, per
        )
        nk = self.layout.key_count
        stream = KeyStream(seed, self.q)  # checks the seed for every layout
        keys = (
            stream.draw(stripes * nk).reshape(stripes, nk)
            if nk
            else np.zeros((stripes, 0), dtype=np.int64)
        )
        cb = self.encode_batch(self.assemble_batch(secrets, keys))
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
        stripes, rem = divmod(head.payload_symbols, params.alpha)
        if rem:
            raise ShardFormatError("payload length is not a whole number of stripes")
        cb = np.stack(
            [s.symbols.reshape(stripes, params.alpha) for s in chosen], axis=1
        )
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
        head = helpers[0].header
        stripes = head.payload_symbols // params.alpha
        shares = np.stack(
            [s.symbols.reshape(stripes, params.alpha) for s in helpers], axis=1
        )
        xi = repair_encoder(failed, self.psi, params)
        payloads = np.einsum("bha,ac->bhc", shares, xi.a) % self.q
        psi_h_inv = self.psi.submatrix([i - 1 for i in ids], range(params.d)).inv()
        mxi = np.einsum("dh,bhc->bdc", psi_h_inv.a, payloads) % self.q
        vals = (mxi[:, self._rx, self._rc] * self._rs).sum(axis=2) % self.q
        header = replace(head, node_id=failed)
        bandwidth = stripes * params.d * params.beta
        return Shard(header, vals.reshape(-1)), bandwidth


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
