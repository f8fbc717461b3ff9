"""Shard-file format and the striped file codec behind the CLI.

A file is packed into field symbols by one rule of q (`_packing`): each
group of t <= 6 bytes becomes the k base-q digits of its value where that
carries more than floor(log2 q) bits per symbol (3 bytes in 7 digits at
q = 11), and floor(log2 q)-bit slices otherwise.  The symbols are split
into stripes of F_s secrets each (F for plain layouts), and every
stripe is assembled with fresh keys, the next run of the file's single
key stream, and encoded; shard i holds row i of every stripe's codeword.
Each shard is self-describing: a 68-byte version-3 header (magic ``DETC``,
twelve little-endian 4-byte integers and a 16-byte object id) followed by
the payload, b bits per symbol, where b is the smallest of 1, 2, 4, 8 and
16 that holds q - 1 (4 at q = 11).  Symbol i occupies bits [i*b, (i+1)*b)
of the payload read as a little-endian bit string, every symbol is below
q, and the pad bits of the last byte are zero.  Version-2 shards (the
same header and payload, fixed-width slices at every q) and version-1
shards (a 52-byte header without the id, 16-bit symbols) still read,
recover and repair; repair writes the version it reads.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import math
import os
import stat
import struct
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, Sequence

import numpy as np

from .code import SystemParams, vandermonde_encoder
from .gf import Field
from .gfmatrix import GFMatrix, _float_dtype, _mod
from .secure import KeyStream, MessageLayout, Scheme, SecureParams, assemble_rows, build_layout

MAGIC = b"DETC"
FORMAT_VERSION = 3
# Header layout per format version; version 2 appends the object id, and
# version 3 keeps it and changes only the byte <-> symbol packing (`_packing`).
_HEADERS = {1: struct.Struct("<4s12I"), 2: struct.Struct("<4s12I16s"), 3: struct.Struct("<4s12I16s")}
_OBJECT_ID_TAG = b"detcodes object id v2"

# Bound on the codec's tables: the d x C(d,m) message matrix and the n x d
# encoder.  Its index tables cost about 3 us per message cell to build
# (0.4 s at the bound on a 2-vCPU VM); a header claiming (n,d,m) = (45,40,20) would otherwise ask for 5.5e12.
MAX_TABLE_CELLS = 1 << 17

# Stripes are processed in blocks whose widest float operand holds about
# this many cells (512 KiB in float64, 256 KiB in float32), so that a
# block's temporaries stay in cache; every product has inner dimension d,
# 6 at the default codes, and is bound by memory traffic.
BLOCK_CELLS = 1 << 16

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
    # SHAKE-256 of the encoded input and seed (`_object_id`); version-1
    # headers carry none and read as sixteen zero bytes.
    object_id: bytes = bytes(16)

    def to_bytes(self) -> bytes:
        return _HEADERS[self.version].pack(
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
            *([self.object_id] if self.version > 1 else []),
        )

    @classmethod
    def from_bytes(cls, raw: bytes) -> "ShardHeader":
        if len(raw) < _HEADERS[1].size:
            raise ShardFormatError("shard too short for a header")
        magic, ver = struct.unpack_from("<4sI", raw)
        if magic != MAGIC:
            raise ShardFormatError(f"bad magic {magic!r}")
        if ver not in _HEADERS:
            raise ShardFormatError(f"unsupported format version {ver}")
        if len(raw) < _HEADERS[ver].size:
            raise ShardFormatError("shard too short for a header")
        _, _, tag, q, n, d, m, ell, node, syms, seeded, length, pad, *oid = _HEADERS[ver].unpack_from(raw)
        if tag not in _TAG_SCHEME:
            raise ShardFormatError(f"unknown scheme tag {tag}")
        if not 1 <= node <= n:
            raise ShardFormatError(f"node id {node} outside [1, n={n}]")
        return cls(ver, _TAG_SCHEME[tag], q, n, d, m, ell, node, syms, bool(seeded), length, pad, *oid)

    @property
    def size(self) -> int:
        """Header bytes, before the payload."""
        return _HEADERS[self.version].size

    @property
    def payload_bits(self) -> int:
        """Bits per stored symbol: 16 in version 1, else the smallest of
        1, 2, 4, 8 and 16 that holds q - 1."""
        return _payload_bits(self.q, self.version)

    @property
    def payload_bytes(self) -> int:
        return -(-self.payload_symbols * self.payload_bits // 8)

    def secure_params(self) -> SecureParams:
        base = SystemParams(self.n, self.d, self.m, Field(self.q))
        return SecureParams(base, self.ell, self.scheme)


def _payload_bits(q: int, version: int) -> int:
    need = (q - 1).bit_length() if version > 1 else 16
    return next(b for b in (1, 2, 4, 8, 16) if need <= b or b == 16)


class Shard:
    """A shard in memory as its bytes, the header and then the packed
    payload, beside the parsed ``header``; the codec reads them as they are."""

    def __init__(self, header: ShardHeader, symbols: np.ndarray) -> None:
        s, node = np.asarray(symbols), header.node_id
        if s.size and s.dtype.kind not in "iu":
            raise ShardFormatError(f"shard for node {node} holds {s.dtype} symbols, not integers")
        if s.size and ((s.dtype.kind == "i" and s.min() < 0) or s.max() >= header.q):
            raise ShardFormatError(f"shard for node {node} holds symbols outside GF({header.q})")
        if len(s) != header.payload_symbols:
            raise ShardFormatError(f"payload has {len(s)} symbols, header says {header.payload_symbols}")
        self.header = header
        self._raw = header.to_bytes() + _pack_payload(s[None], header.payload_bits).tobytes()

    @property
    def symbols(self) -> np.ndarray:
        """The payload, decoded and checked (`_unpack_payload`): a new read-only uint16 array."""
        raw = np.frombuffer(self._raw, dtype=np.uint8)[None, self.header.size :]
        s = _unpack_payload(raw, [self.header], self.header.payload_symbols)[0].astype(np.uint16)
        s.setflags(write=False)
        return s

    def to_bytes(self) -> bytes:
        return self._raw

    @classmethod
    def from_bytes(cls, raw: bytes | bytearray | memoryview) -> "Shard":
        """Check the header and the size (`ShardFile`), decoding nothing, and
        keep an immutable copy of ``raw``."""
        shard = cls.__new__(cls)
        shard._raw = bytes(raw)
        with ShardFile(shard._raw) as fh:
            shard.header = fh.header
        return shard


class ShardFile:
    """The one reader of shard bytes, from a path or a bytes-like object.

    Opening refuses a path that is not a regular file, reads and checks the
    header, and checks the size against it, before any payload is read; the
    codec decodes and checks each block's symbols as it reads them, as
    `Shard.symbols` does.  ``stat`` is the file's `os.fstat` (None in
    memory), by which the streaming calls refuse an output that is an input.
    """

    def __init__(self, source: str | Path | bytes | bytearray | memoryview) -> None:
        path = isinstance(source, (str, os.PathLike))
        self._fh, self.stat = _open_regular(source) if path else (io.BytesIO(source), None)
        try:
            # Size first, so that the header's read buffers the first block.
            size = self._fh.seek(0, os.SEEK_END)
            self._fh.seek(0)
            self.header = ShardHeader.from_bytes(self._fh.read(_HEADERS[FORMAT_VERSION].size))
            body = size - self.header.size
            if body != self.header.payload_bytes:
                raise ShardFormatError(f"payload is {body} bytes, expected {self.header.payload_bytes}")
        except BaseException:
            self._fh.close()
            raise

    def __enter__(self) -> "ShardFile":
        return self

    def __exit__(self, *exc: object) -> None:
        self._fh.close()

    def read_payload(self, offset: int, out: np.ndarray) -> None:
        """Read payload bytes offset, offset + 1, ... into all of ``out``, a
        C-contiguous uint8 array."""
        self._fh.seek(self.header.size + offset)
        if self._fh.readinto(out) != out.nbytes:
            raise ShardFormatError(f"shard for node {self.header.node_id} ended early")


def _open_regular(path: str | Path) -> tuple[BinaryIO, os.stat_result]:
    """Open a regular file for reading, with its `os.fstat`, and refuse
    anything else (a FIFO, a device, a directory) before any read.  The open
    does not block, so a FIFO with no writer is refused at once."""
    fd = os.open(path, os.O_RDONLY | getattr(os, "O_NONBLOCK", 0))
    st = os.fstat(fd)
    if stat.S_ISREG(st.st_mode):
        return os.fdopen(fd, "rb"), st
    os.close(fd)
    raise ValueError(f"{path} is not a regular file")


def _output_path(out: str | Path, inputs: Sequence[ShardFile]) -> Path:
    """``out`` as a Path, refused if it names one of ``inputs``."""
    with contextlib.suppress(FileNotFoundError):
        st = os.stat(out)
        if any(s.stat is not None and os.path.samestat(st, s.stat) for s in inputs):
            raise ValueError(f"{out} is one of the input shards")
    return Path(out)


@contextlib.contextmanager
def _replacing(paths: Sequence[Path]) -> Iterator[list[io.BufferedWriter]]:
    """Open a temp file beside each path for writing.  On success rename each
    over its path; on any error delete them all, leaving every path as it was.
    A path that is a directory, which no rename can replace, is refused first."""
    for path in paths:
        with contextlib.suppress(FileNotFoundError):
            if stat.S_ISDIR(os.lstat(path).st_mode):
                raise IsADirectoryError(f"{path} is a directory")
    tmps: list[str] = []
    try:
        with contextlib.ExitStack() as stack:
            files = []
            for path in paths:
                fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
                tmps.append(tmp)
                files.append(stack.enter_context(os.fdopen(fd, "wb")))
            yield files
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


def _unpack_payload(raw: np.ndarray, headers: Sequence[ShardHeader], count: int) -> np.ndarray:
    """Decode and check rows of packed payload bytes, row i from the shard
    of ``headers[i]``, all of one object: the first ``count`` symbols of
    each row, as a (rows, count) array, uint8 at b <= 8 and uint16 at
    b = 16.  The rest, the pad bits of a payload's last byte, must be zero,
    and every symbol must lie below q; an error names the first bad row."""
    bits = headers[0].payload_bits
    if bits == 16:
        syms = raw.view("<u2")
    else:
        # The inverse of `_pack_payload`'s folds: each byte widens to a word
        # of 8/bits byte lanes, halving the groups of symbols each step.
        per = 8 // bits
        words = raw.astype(f"<u{per}", copy=False)
        for level in reversed(range(per.bit_length() - 1)):
            words |= words << words.dtype.type((8 - bits) << level)
            group = (1 << (bits << level)) - 1
            words &= words.dtype.type(sum(group << k for k in range(0, 8 * per, 8 << level)))
        syms = words.view(np.uint8)
    q = headers[0].q
    pad, high = syms[:, count:].any(axis=1), syms[:, :count].max(axis=1, initial=0) >= q
    for bad, fault in ((pad, "has nonzero pad bits"), (high, f"holds symbols outside GF({q})")):
        if bad.any():
            raise ShardFormatError(f"shard for node {headers[bad.argmax()].node_id} {fault}")
    return syms[:, :count]


def _pack_payload(symbols: np.ndarray, bits: int) -> np.ndarray:
    """Pack each row of a (rows, ...) array of symbols below 2^bits, read in
    C order, into ceil(count * bits / 8) payload bytes for its count
    symbols, zero pad bits included; the one copy of the symbols also
    makes a transposed view's rows contiguous."""
    rows, count = len(symbols), math.prod(symbols.shape[1:])
    if bits == 16:
        return np.ascontiguousarray(symbols, dtype="<u2").reshape(rows, count).view(np.uint8)
    per = 8 // bits
    lanes = np.zeros((rows, -(-count // per) * per), dtype=np.uint8)
    # A view: reshaping splits the unit-stride axis of the lanes.
    lanes[:, :count].reshape(symbols.shape)[...] = symbols
    # Each word holds `per` byte-wide lanes, one symbol each; every fold
    # halves the distance between neighbours, until symbol j sits at bit
    # j*bits of the low byte (b = 8 needs no fold).
    words = lanes.view(f"<u{per}")
    for level in range(per.bit_length() - 1):
        words |= words >> words.dtype.type((8 - bits) << level)
    return words.astype(np.uint8, copy=False)


def write_shard(path: str | Path, shard: Shard) -> None:
    """Write atomically: temp file in the target directory, then rename."""
    with _replacing([Path(path)]) as (fh,):
        fh.write(shard.to_bytes())


def read_shard(path: str | Path) -> Shard:
    return Shard.from_bytes(Path(path).read_bytes())


# -- byte <-> symbol packing ------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _packing(q: int, version: int = FORMAT_VERSION) -> tuple[int, int, bool]:
    """The packing group of GF(q) shards of a format version: t input bytes
    <-> k symbols, and whether the group is a radix one.

    From version 3, a radix group of t <= 6 bytes and the k base-q digits of
    their value, k smallest with q^k >= 2^(8t), where it carries more bits
    per symbol than w = floor(log2 q): the one with the most, 8t/k, and the
    smallest t of a tie (t, k = 3, 7 at q = 11).  Otherwise, and in versions
    1 and 2, w-bit symbols, 8 of them per w bytes.
    """
    w = q.bit_length() - 1
    if not 1 <= w <= 15:
        raise ValueError(f"{w}-bit symbols do not fit the format; need 2 <= q < 2^16")
    radix = [(t, next(k for k in range(1, 49) if q**k >= 1 << 8 * t)) for t in range(1, 7)]
    # 8t/k as a float is exact enough: distinct ratios differ by 1/48^2 or more.
    t, k = max(radix, key=lambda g: (8 * g[0] / g[1], -g[0]))
    return (t, k, True) if version >= 3 and 8 * t > w * k else (w, 8, False)


def _packed_symbols(length: int, q: int, version: int = FORMAT_VERSION) -> int:
    """Symbols that a ``length``-byte input packs into: k per group, the
    last radix group zero-padded to t bytes, the last w-bit symbol to w bits."""
    t, k, radix = _packing(q, version)
    return k * -(-length // t) if radix else -(-8 * length // t)


@functools.lru_cache(maxsize=None)
def _pack_weights(w: int) -> tuple[np.ndarray, np.ndarray]:
    """The (w, 8) weights of a w-bit group's bytes in its symbols and the
    (8, w) weights of its symbols in its bytes.

    The group is one bit string, most significant bit first: symbol j
    holds bits [jw, jw + w), byte t bits [8t, 8t + 8).  A symbol is the
    floor of the sum of its <= 3 bytes, each shifted to its place, mod 2^w;
    a byte is the floor of the sum of the symbols it overlaps, shifted
    alike, mod 256 (bits of earlier parts add multiples of the modulus,
    and later parts stay below the next integer).  Each weight is 2^e
    with -14 <= e <= 14.
    """
    to_symbols, to_bytes = np.zeros((w, 8)), np.zeros((8, w))
    for j in range(8):
        for t in range(j * w // 8, ((j + 1) * w - 1) // 8 + 1):
            e = (j + 1) * w - 8 * (t + 1)  # the weight of byte t's last bit in symbol j
            to_symbols[t, j], to_bytes[j, t] = 2.0**e, 2.0**-e
    return to_symbols, to_bytes


@functools.lru_cache(maxsize=None)
def _powers(q: int, k: int) -> np.ndarray:
    """q^0, ..., q^(k-1) in float64, exact for every radix group (`_packing`)."""
    return np.array([q**i for i in range(k)], dtype=np.float64)


def pack_bytes(data: bytes, q: int, version: int = FORMAT_VERSION) -> np.ndarray:
    """Pack a byte stream into uint16 symbols below q, by the group of
    `_packing`: each radix group's big-endian value v < 2^(8t) becomes its
    k base-q digits, least significant first; w-bit symbols cut the bytes,
    read as one big-endian bit string.  Zero bytes pad the last group."""
    t, k, radix = _packing(q, version)
    groups = -(-len(data) // t)
    padded = np.zeros((groups, t), dtype=np.uint8)
    padded.reshape(-1)[: len(data)] = np.frombuffer(data, dtype=np.uint8)
    if not radix:
        out = np.empty((groups, 8), dtype=np.uint16)
        _floor_mod(padded @ _pack_weights(t)[0], (1 << t) - 1, out)
        return out.reshape(-1)[: _packed_symbols(len(data), q, version)]
    # Digit i of v is floor(v / q^i) - q floor(v / q^(i+1)), a row per digit.
    digits = np.floor(padded @ _powers(256, t)[::-1] / _powers(q, k)[:, None])
    digits[:-1] -= digits[1:] * np.float64(q)
    return digits.T.astype(np.uint16, order="C").reshape(-1)


def unpack_bytes(symbols: np.ndarray, q: int, byte_length: int, version: int = FORMAT_VERSION) -> bytes:
    """Inverse of `pack_bytes`: the first byte_length bytes of the groups of
    symbols, from the low w bits of each w-bit symbol.  A radix group whose
    value is 2^(8t) or more maps to no bytes, and is refused."""
    t, k, radix = _packing(q, version)
    symbols = np.asarray(symbols)
    if len(symbols) < _packed_symbols(byte_length, q, version):
        raise ShardFormatError("not enough symbols for the recorded file length")
    groups = -(-byte_length // t)
    if radix:
        value = symbols[: k * groups].reshape(groups, k) @ _powers(q, k)
        if (value >= 2.0 ** (8 * t)).any():
            raise ShardFormatError(f"a group of {k} symbols holds a value of {8 * t} bits or more")
        out = value.astype(">u8").view(np.uint8).reshape(groups, 8)[:, 8 - t :]
    else:
        used = min(len(symbols), 8 * groups)
        padded = np.zeros((groups, 8), dtype=np.uint16)
        padded.reshape(-1)[:used] = symbols[:used]
        padded &= np.uint16((1 << t) - 1)
        out = np.empty((groups, t), dtype=np.uint8)
        _floor_mod(padded @ _pack_weights(t)[1], 0xFF, out)
    return out.reshape(-1)[:byte_length].tobytes()


# -- striped codec ------------------------------------------------------------------


class StripedCodec:
    """Vectorized per-stripe assemble/encode/recover/repair engine.

    Stripes are independent, so each file operation is one loop over
    blocks of `block_stripes` stripes, each block one batch: it reads the
    block's input (file bytes or shard payloads), computes, and writes the
    block's output to the binary files it is given.  Work that depends only
    on the code or the node set is done once per file, before the loop.
    The streaming calls (`encode_to`, `recover_to`, `repair_to`) give it
    temp files beside their outputs, so their memory does not grow with the
    file; the in-memory ones (`encode_file`, `recover_file`, `repair_shard`)
    give it `io.BytesIO` buffers.  Shards are read only as `ShardFile`s,
    and recover and repair first check every one against the others and
    this codec's own code (`_check_shards`).  Encode blocks are cell-major:
    a (d, alpha, stripes) message array, in which each cell is one
    contiguous run of stripes, built by the one gather of `assemble_rows`
    as for one matrix, and handed around as its (stripes, d, alpha)
    transposed view, so that every product over GF(q) is one 2-D float
    GEMM (`_mat`); packing transposes the codeword rows to payload order.
    Repair is one coefficient row, Psi_f Psi_H^-1, times the helpers' rows.
    Blocks, Psi and the decoder and repair rows are float32 (sgemm) where
    `_float_dtype(d, q)` admits it, as at q = 11, and float64 otherwise.
    """

    def __init__(self, sparams: SecureParams) -> None:
        self.sparams = sparams
        params = sparams.base
        self.params = params
        self.q = params.q
        if self.q >= 1 << 16:
            raise ValueError("shard symbols are at most 16 bits wide; need q < 2^16")
        # At least d^2 cells (n >= d), a bound checked before C(d,m) is computed.
        if params.d**2 > MAX_TABLE_CELLS or params.d * max(params.alpha, params.n) > MAX_TABLE_CELLS:
            raise ValueError(
                f"(n,d,m) = ({params.n},{params.d},{params.m}) needs too many "
                f"table cells; the codec limit is {MAX_TABLE_CELLS}"
            )
        # Every product has inner dimension d: one rule picks its type (`_mat`).
        self.dtype = _float_dtype(params.d, self.q)
        self.layout: MessageLayout = build_layout(sparams)
        self._code = (sparams.scheme.value, self.q, params.n, params.d, params.m, sparams.ell)
        self.psi: GFMatrix = vandermonde_encoder(params)
        self._psi = self.psi.a.astype(self.dtype)
        self._decoders: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}
        # A block's widest float operand is its n x (stripes * alpha)
        # codeword product; recover and repair read d <= n rows.  Blocks
        # hold whole packing groups of the file in every format version
        # (k symbols each, `_packing`) and whole payload bytes of every
        # shard (b bits per symbol; 16 in version 1), so every block packs
        # and unpacks on its own.
        widest, per = params.n * params.alpha, self.symbols_per_stripe
        groups = [k // math.gcd(per, k) for _, k, _ in (_packing(self.q, 2), _packing(self.q))]
        unit = math.lcm(*groups, 8 // math.gcd(params.alpha * _payload_bits(self.q, FORMAT_VERSION), 8))
        self.block_stripes = max(unit, BLOCK_CELLS // widest // unit * unit)

    # -- stripe planning ---------------------------------------------------

    @property
    def symbols_per_stripe(self) -> int:
        return self.layout.secret_count

    def stripe_count_for(self, packed_symbols: int) -> int:
        per = self.symbols_per_stripe
        if per == 0:
            if packed_symbols:
                raise ValueError("layout has zero secret capacity and cannot store data")
            return 1
        return max(1, -(-packed_symbols // per))

    def _check_shards(self, shards: Sequence[ShardFile]) -> tuple[ShardHeader, int]:
        """Check every shard of a recover or repair input, by its header,
        before any payload read; return the first header and the stripe count."""
        if not shards:
            raise ShardFormatError("no shards given")
        head, seen = shards[0].header, set()
        for h in (s.header for s in shards):
            if replace(h, node_id=head.node_id) != head:  # every other field, object id too
                raise ShardFormatError(f"shard for node {h.node_id} belongs to a different object")
            if h.node_id in seen:
                raise ShardFormatError(f"duplicate shard for node {h.node_id}")
            seen.add(h.node_id)
        code = (head.scheme.value, head.q, head.n, head.d, head.m, head.ell)
        if code != self._code:
            raise ShardFormatError(
                f"shards of the (scheme, q, n, d, m, ell) = {code} code do not fit this codec's {self._code}"
            )
        stripes, rem = divmod(head.payload_symbols, self.params.alpha)
        if rem:
            raise ShardFormatError("payload length is not a whole number of stripes")
        # Encode pads the packed file to whole stripes, so the recorded
        # length and padding fix the symbol count exactly.
        packed = stripes * self.symbols_per_stripe - head.padding_symbols
        if packed != _packed_symbols(head.original_length, self.q, head.version):
            raise ShardFormatError("payload symbols do not match the recorded file length")
        return head, stripes

    def _blocks(self, stripes: int) -> Iterator[int]:
        """The stripe counts of consecutive blocks, the last one short."""
        step = self.block_stripes
        return (min(step, stripes - lo) for lo in range(0, stripes, step))

    def _payload_blocks(
        self, shards: Sequence[ShardFile], stripes: int
    ) -> Iterator[np.ndarray]:
        """Each block's payload rows of ``shards``, one object's, as a
        (len(shards), b, alpha) array of symbols (`_unpack_payload`): read,
        then decoded and checked in one call for all of them."""
        alpha, headers = self.params.alpha, [s.header for s in shards]
        bits = headers[0].payload_bits
        offset = 0
        for b in self._blocks(stripes):
            raw = np.empty((len(shards), -(-b * alpha * bits // 8)), dtype=np.uint8)
            for shard, row in zip(shards, raw):
                shard.read_payload(offset, row)
            offset += raw.shape[1]
            yield _unpack_payload(raw, headers, b * alpha).reshape(len(shards), b, alpha)

    # -- batched message algebra -------------------------------------------

    def assemble_batch(self, secrets: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """Message matrices of shape (stripes, d, alpha), in ``self.dtype``,
        from (stripes, F_s) secrets and (stripes, |Q|) keys that are residues
        already, as packed and key-stream symbols are: a view of the
        cell-major (d, alpha, stripes) block."""
        fs, free = secrets.shape[1], secrets.shape[1] + keys.shape[1]
        rows = np.empty((self.params.d * self.params.alpha, len(secrets)), dtype=self.dtype)
        rows[:fs], rows[fs:free] = secrets.T, keys.T
        return assemble_rows(self.layout, rows).transpose(2, 0, 1)

    def encode_batch(self, mb: np.ndarray) -> np.ndarray:
        """Codewords Psi @ M of shape (stripes, n, alpha), uint16: a view of
        the cell-major (n, alpha, stripes) block."""
        b, d, alpha = mb.shape
        cells = mb.transpose(1, 2, 0).reshape(d, alpha * b)  # free when cell-major
        cb = _mod(_mat(self._psi, cells), self.q).astype(np.uint16)
        return cb.reshape(self.params.n, alpha, b).transpose(2, 0, 1)

    def recover_batch(self, node_ids: Sequence[int], cb: np.ndarray) -> np.ndarray:
        """Secrets of every stripe, (stripes, F_s) uint16, from the codeword
        rows of d nodes."""
        b, d, alpha = cb.shape
        key = tuple(node_ids)
        if key not in self._decoders:
            # Psi_K^-1 once per node set; only the rows of M that hold
            # secrets are computed.
            psi_inv = self.psi.submatrix([i - 1 for i in key], range(d)).inv()
            needed, local = np.unique(self.layout.secret_index[0], return_inverse=True)
            self._decoders[key] = (psi_inv.a[needed].astype(self.dtype), local)
        decoder, local = self._decoders[key]
        rows = _mat(decoder, cb.transpose(1, 0, 2).reshape(d, -1))
        cells = rows.reshape(len(decoder), b, alpha).transpose(1, 0, 2)
        return _mod(cells[:, local, self.layout.secret_index[1]], self.q).astype(np.uint16)

    # -- the codec ops: each writes its output to the files it is given -------

    def _encode(
        self,
        readinto: Callable[[memoryview], int],
        length: int,
        seed: int,
        seed_present: bool,
        outs: Sequence[BinaryIO],
    ) -> list[ShardHeader]:
        """Encode a ``length``-byte input, read with ``readinto``: write shard
        i's header, then its rows of every block, to ``outs[i - 1]``, and
        return the n headers.  The outputs must be seekable: the headers
        are written again once the input's digest fixes the object id."""
        params, q = self.params, self.q
        if params.d >= params.n:  # older shards with n = d still recover
            raise ValueError(f"repair needs d of the other n - 1 nodes, so d < n; got n={params.n}, d={params.d}")
        per, nk, (t, k, _) = self.symbols_per_stripe, self.layout.key_count, _packing(q)
        packed = _packed_symbols(length, q)
        stripes = self.stripe_count_for(packed)
        if max(length, stripes * params.alpha) >= 1 << 32:
            raise ValueError(f"a {length}-byte input does not fit the shard format")
        stream = KeyStream(seed, q)  # checks the seed for every layout
        digest = hashlib.sha256()
        headers = [
            ShardHeader(
                FORMAT_VERSION,
                self.sparams.scheme,
                q,
                params.n,
                params.d,
                params.m,
                self.sparams.ell,
                node,
                stripes * params.alpha,
                seed_present,
                length,
                stripes * per - packed,
            )
            for node in range(1, params.n + 1)
        ]
        bits = headers[0].payload_bits
        for out, header in zip(outs, headers):
            out.write(header.to_bytes())  # the object id is filled in at the end
        buf = bytearray(self.block_stripes * per // k * t)  # whole groups
        done = 0
        for b in self._blocks(stripes):
            view = memoryview(buf)[: min(len(buf), length - done)]
            got = readinto(view)
            if got != len(view):
                raise ValueError(f"input ended after {done + got} of {length} bytes")
            done += got
            digest.update(view)
            secrets = np.zeros((b, per), dtype=np.uint16)
            syms = pack_bytes(view, q)
            secrets.reshape(-1)[: len(syms)] = syms
            keys = stream.draw(b * nk).reshape(b, nk) if nk else np.zeros((b, 0), np.uint16)
            # Row i of the codeword batch is shard i + 1's payload.
            cb = self.encode_batch(self.assemble_batch(secrets, keys)).transpose(1, 0, 2)
            for out, rows in zip(outs, _pack_payload(cb, bits)):
                out.write(rows)
        if readinto(memoryview(bytearray(1))):
            raise ValueError(f"input is longer than {length} bytes")
        oid = _object_id(q, seed, digest.digest())
        headers = [replace(header, object_id=oid) for header in headers]
        for out, header in zip(outs, headers):
            out.seek(0)
            out.write(header.to_bytes())
        return headers

    def _recover(self, shards: Sequence[ShardFile], out: BinaryIO) -> int:
        """Write the file, block by block, to ``out`` from the first d of
        ``shards``; return its length."""
        d, q = self.params.d, self.q
        head, stripes = self._check_shards(shards)
        t, k, _ = _packing(q, head.version)
        if len(shards) < d:
            raise ShardFormatError(f"insufficient shards: need {d}, got {len(shards)}")
        chosen = shards[:d]
        ids = [s.header.node_id for s in chosen]
        left = head.original_length
        for block in self._payload_blocks(chosen, stripes):
            secrets = self.recover_batch(ids, block.transpose(1, 0, 2)).reshape(-1)
            size = min(left, self.block_stripes * self.symbols_per_stripe // k * t)
            left -= size
            out.write(unpack_bytes(secrets, q, size, head.version))
        return head.original_length

    def _repair(self, failed: int, helpers: Sequence[ShardFile], out: BinaryIO) -> int:
        """Write shard ``failed`` (its header, then each block: the 1 x d
        row Psi_f Psi_H^-1, in the helpers' given order, times their rows
        C_H = Psi_H M) to ``out``; return the paper's repair bandwidth in
        symbols (stripes x d helpers x beta symbols each)."""
        params, d = self.params, self.params.d
        head, stripes = self._check_shards(helpers)
        if not 1 <= failed <= params.n:
            raise ValueError(f"node id {failed} out of range [1, {params.n}]")
        ids = [s.header.node_id for s in helpers]
        if len(ids) != d:
            raise ShardFormatError(f"need {d} distinct helper shards")
        if failed in ids:
            raise ShardFormatError(f"failed node {failed} cannot be a helper")
        header = replace(head, node_id=failed)
        psi_h_inv = self.psi.submatrix([i - 1 for i in ids], range(d)).inv()
        coef = (self.psi.submatrix([failed - 1], range(d)) @ psi_h_inv).a.astype(self.dtype)
        out.write(header.to_bytes())
        for block in self._payload_blocks(helpers, stripes):
            row = _mod(_mat(coef, block.reshape(d, -1)), self.q)
            out.write(_pack_payload(row, header.payload_bits))
        return stripes * d * params.beta

    # -- in memory -----------------------------------------------------------

    def encode_file(self, data: bytes, seed: int, seed_present: bool) -> list[Shard]:
        bufs = [io.BytesIO() for _ in range(self.params.n)]
        self._encode(io.BytesIO(data).readinto, len(data), seed, seed_present, bufs)
        return [Shard.from_bytes(buf.getvalue()) for buf in bufs]

    def recover_file(self, shards: Sequence[Shard]) -> bytes:
        buf = io.BytesIO()
        self._recover([ShardFile(s.to_bytes()) for s in shards], buf)
        return buf.getvalue()

    def repair_shard(self, failed: int, helpers: Sequence[Shard]) -> tuple[Shard, int]:
        """Regenerate shard ``failed`` from d helper shards.

        Returns the rebuilt shard and the repair bandwidth in symbols
        (stripes x d helpers x beta independent symbols each).
        """
        buf = io.BytesIO()
        bandwidth = self._repair(failed, [ShardFile(s.to_bytes()) for s in helpers], buf)
        return Shard.from_bytes(buf.getvalue()), bandwidth

    # -- streaming to files --------------------------------------------------

    def encode_to(
        self, source: str | Path, out_dir: str | Path, seed: int, seed_present: bool
    ) -> list[ShardHeader]:
        """Encode the file ``source`` into ``out_dir``/shard_NNN.detc, one
        block at a time, and return the shard headers."""
        out_dir = Path(out_dir)
        fh, st = _open_regular(source)
        with fh:
            made = [p for p in (out_dir, *out_dir.parents) if not p.exists()]
            out_dir.mkdir(parents=True, exist_ok=True)
            paths = [out_dir / f"shard_{i:03d}.detc" for i in range(1, self.params.n + 1)]
            try:
                with _replacing(paths) as files:
                    return self._encode(fh.readinto, st.st_size, seed, seed_present, files)
            except BaseException:
                for p in made:
                    with contextlib.suppress(OSError):
                        p.rmdir()
                raise

    def recover_to(self, shards: Sequence[ShardFile], out: str | Path) -> int:
        """Recover the file into ``out``, one block at a time; return its length."""
        with _replacing([_output_path(out, shards)]) as (fh,):
            return self._recover(shards, fh)

    def repair_to(self, failed: int, helpers: Sequence[ShardFile], out: str | Path) -> int:
        """Write shard ``failed`` to ``out``, one block at a time; return the
        repair bandwidth in symbols."""
        with _replacing([_output_path(out, helpers)]) as (fh,):
            return self._repair(failed, helpers, fh)


# Exact GF(q) products in the codec's float type.  Operands hold residues
# below q, and every product has inner dimension d: Psi M, the secret rows
# of Psi_K^-1 times d codeword rows, and the repair row times d helper
# rows; a parity sum adds m <= d residues.  So every partial sum is an
# integer below d(q-1)^2, which `_float_dtype(d, q)` (`gfmatrix`) keeps
# below 2^24 - q in float32, and which StripedCodec.__init__'s bounds
# (q < 2^16, d <= 362 from d^2 <= 2^17) keep below 2^41 in float64.  The
# type holds it exactly whatever the summation order (Dumas, Giorgi &
# Pernet, "FFLAS and FFPACK", ACM TOMS 2008), numpy runs the product as
# one BLAS sgemm or dgemm, and `_mod` reduces it exactly.
#
# The byte <-> symbol packing stays in float64, exact for the same reason.  A
# fixed-width symbol or byte is the floor of a sum of at most 8 terms v * 2^e
# (`_pack_weights`), each a dyadic rational below 2^22 with no bits below
# 2^-14: a symbol's <= 3 bytes (below 2^8) shifted by -7 <= e <= 14, or a
# byte's symbols (below 2^15) shifted by -14 <= e <= 7.  Every partial sum
# is then a multiple of 2^-14 below 2^25, 39 significant bits, so BLAS
# adds it exactly in any order, and the floor is exact.  A radix group's
# value v < 2^(8t) <= 2^48 is a sum of integer terms below it, so exact,
# as is each q^i < 2^(8t).  With v = cq^i + r (0 <= r < q^i), fl(v / q^i)
# is at least c, since c is a float and rounding is monotonic, and below
# c + 1, which is at least 1/q^i above v / q^i, more than half an ulp
# there ((c + 1) 2^-53 < 1/q^i, as (c + 1) q^i < 2^49): `_mod`'s argument,
# with q^i for q.  So floor(fl(v / q^i)) = c, and digit i, c - q floor(v /
# q^(i+1)), is exact.  Unpacking sums d_i q^i with every d_i < q: each
# partial sum of an in-range group is an integer at most v, so exact, and
# a group at or above 2^(8t) sums to 2^(8t) or more, since rounding is
# monotonic and 2^(8t) is a float; so the range check is exact.


def _mat(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for residue matrices, as exact integers in a's float type."""
    return a @ np.asarray(b, dtype=a.dtype)


def _floor_mod(x: np.ndarray, mask: int, out: np.ndarray) -> None:
    """out = floor(x) mod (mask + 1), for 0 <= x < 2^32 held in float64 and
    a power of two mask + 1 (the cast to uint32 truncates, which is floor)."""
    np.bitwise_and(x.astype(np.uint32), np.uint32(mask), out=out, casting="unsafe")


def _object_id(q: int, seed: int, input_digest: bytes) -> bytes:
    """SHAKE-256 over a tag, q, the key-stream seed and the input's SHA-256:
    fixed for a fixed seed and input, distinct across inputs."""
    material = _OBJECT_ID_TAG + q.to_bytes(4, "little") + seed.to_bytes(32, "little")
    return hashlib.shake_256(material + input_digest).digest(16)
