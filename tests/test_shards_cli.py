import contextlib
import hashlib
import io
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from dataclasses import replace
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import detcodes
from detcodes.cli import main
from detcodes.code import (
    encode,
    recover_message,
    repair_encoder,
    repair_node,
    repair_packet,
    system,
    vandermonde_encoder,
)
from detcodes.gfmatrix import GFMatrix, _float_dtype, matmul
from detcodes.leakage import AUDIT_CSV_HEADER
from detcodes.secure import (
    KeyStream,
    Scheme,
    SecureParams,
    assemble,
    build_layout,
    extract_secrets,
)
from detcodes.subsets import ind
from detcodes.shards import (
    FORMAT_VERSION,
    MAX_TABLE_CELLS,
    Shard,
    ShardFile,
    ShardFormatError,
    ShardHeader,
    StripedCodec,
    _mat,
    _mod,
    _packed_symbols,
    _packing,
    pack_bytes,
    read_shard,
    unpack_bytes,
    write_shard,
)
from test_secure import key_cells, keystream_reference


def make_codec(scheme=Scheme.TYPE_II, ell=2, n=8, d=6, m=2):
    return StripedCodec(SecureParams(system(n, d, m), ell, scheme))


def _primes_below(n):
    sieve = np.ones(n, dtype=bool)
    sieve[:2] = False
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = False
    return np.flatnonzero(sieve).tolist()


PRIMES = _primes_below(1 << 16)  # every q the codec accepts


def _ref_radix_group(q):
    """The (t, k) of format v3 by brute force over exact integers: of every
    t <= 6 bytes and k digits with q^k >= 2^(8t), the most bits per digit,
    then the fewest bytes; None unless it beats floor(log2 q) bits."""
    w = q.bit_length() - 1
    best = None
    for t in range(1, 7):
        k = 1
        while q**k < 256**t:
            k += 1
        if best is None or t * best[1] > best[0] * k:
            best = (t, k)
    return best if 8 * best[0] > w * best[1] else None


def _bytes_for(q, symbols):
    """The longest input that packs into at most ``symbols`` symbols."""
    t, k, radix = _packing(q)
    return symbols // k * t if radix else symbols * t // 8


def test_packing_rule_matches_brute_force_at_every_prime():
    gains = 0
    for q in PRIMES:
        group = _ref_radix_group(q)
        w = q.bit_length() - 1
        for version in (1, 2):
            assert _packing(q, version) == (w, 8, False)
        assert _packing(q) == ((*group, True) if group else (w, 8, False)), q
        gains += group is not None
    assert gains == 743


def test_packing_rule_pinned_values():
    assert FORMAT_VERSION == 3
    for q, t, k in [(3, 6, 31), (5, 2, 7), (7, 1, 3), (11, 3, 7), (13, 6, 13), (2039, 4, 3)]:
        assert _packing(q) == (t, k, True)
    for q, w in [(2, 1), (17, 4), (257, 8), (65521, 15)]:
        assert _packing(q) == (w, 8, False)
    assert _packed_symbols(1_048_576, 11) == 7 * 349_526 == 2_446_682
    for q in (1, 65537):
        with pytest.raises(ValueError, match="do not fit the format"):
            pack_bytes(b"x", q)


def _ref_radix_pack(data, q):
    """Pure-Python radix packing: each t-byte group, zero-padded, read
    big-endian, as its k base-q digits, least significant first."""
    t, k = _ref_radix_group(q)
    digits = []
    for i in range(0, len(data), t):
        v = int.from_bytes(data[i : i + t].ljust(t, b"\0"), "big")
        digits += [v // q**j % q for j in range(k)]
    return digits


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PRIMES), st.data())
def test_pack_unpack_roundtrip(q, data):
    # Any q the codec accepts, the radix and the fixed-width packing alike.
    t, k, radix = _packing(q)
    groups = data.draw(st.integers(0, 40))
    # No bytes, whole groups, or a short last group of 1..t-1 bytes.
    length = data.draw(st.sampled_from([0, groups * t, max(0, groups * t - data.draw(st.integers(1, t)))]))
    raw = data.draw(st.binary(min_size=length, max_size=length))
    syms = pack_bytes(raw, q)
    assert syms.dtype == np.uint16 and len(syms) == _packed_symbols(length, q)
    assert syms.size == 0 or syms.max() < q
    if radix:
        assert len(syms) == k * -(-length // t) and syms.tolist() == _ref_radix_pack(raw, q)
    else:
        assert np.array_equal(syms, _ref_pack_bytes(raw, q))
    assert unpack_bytes(syms, q, length) == raw


def test_radix_unpack_refuses_a_group_of_too_large_a_value():
    # 11^7 - 1 >= 2^24: seven digits of 10 hold no 3 bytes; one less than
    # 2^24 (digits of 2^24 - 1) still maps.
    top = [(2**24 - 1) // 11**j % 11 for j in range(7)]
    assert unpack_bytes(np.array(top), 11, 3) == b"\xff\xff\xff"
    for group in ([10] * 7, [(2**24) // 11**j % 11 for j in range(7)]):
        with pytest.raises(ShardFormatError, match="a group of 7 symbols holds a value of 24 bits or more"):
            unpack_bytes(np.array(top + group), 11, 6)


@settings(max_examples=25, deadline=None)
@given(st.binary(max_size=600), st.integers(0, 2**64 - 1), st.data())
def test_codec_roundtrip_property(data, seed, hdata):
    scheme = hdata.draw(st.sampled_from([Scheme.PLAIN, Scheme.TYPE_I, Scheme.TYPE_II]))
    ell = 0 if scheme is Scheme.PLAIN else hdata.draw(st.integers(1, 2))
    codec = StripedCodec(SecureParams(system(6, 4, 2), ell, scheme))
    shards = codec.encode_file(data, seed=seed, seed_present=True)
    subset = hdata.draw(st.permutations(range(6))).copy()[:4]
    assert codec.recover_file([shards[i] for i in subset]) == data
    failed = hdata.draw(st.integers(1, 6))
    helpers = [s for s in shards if s.header.node_id != failed][:4]
    rebuilt, _ = codec.repair_shard(failed, helpers)
    assert rebuilt.to_bytes() == shards[failed - 1].to_bytes()


# One prime per symbol width w = 1..15, from 2 up to the largest 16-bit prime.
PRIMES_BY_WIDTH = [2, 7, 13, 31, 61, 127, 251, 509, 1021, 2039, 4093, 8191, 16381, 32749, 65521]


def _ref_pack_bytes(data, q):
    """Bit-array packing: one uint8 per bit, w bits per int64 symbol."""
    w = q.bit_length() - 1
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    pad = (-len(bits)) % w
    if pad:
        bits = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
    weights = (1 << np.arange(w - 1, -1, -1)).astype(np.int64)
    return bits.reshape(-1, w).astype(np.int64) @ weights


def _ref_unpack_bytes(symbols, q, byte_length):
    w = q.bit_length() - 1
    symbols = np.asarray(symbols, dtype=np.int64)
    shifts = np.arange(w - 1, -1, -1)
    bits = ((symbols[:, None] >> shifts) & 1).astype(np.uint8).reshape(-1)
    return np.packbits(bits[: 8 * byte_length]).tobytes()


@pytest.mark.parametrize(
    "w,q", list(enumerate(PRIMES_BY_WIDTH, start=1)), ids=[f"w{w}" for w in range(1, 16)]
)
def test_packing_matches_bit_array_reference(w, q):
    # The fixed-width packing of format versions 1 and 2.
    assert _packing(q, 2) == (w, 8, False)
    rng = np.random.default_rng(q)
    # Every length up to three groups of w bytes, and at w = 3 and 15 also a
    # 64 KiB buffer, which packs and unpacks as one product of thousands of groups.
    for length in [*range(3 * w + 2), *([64 * 1024] if w in (3, 15) else [])]:
        for data in (rng.bytes(length), b"\xff" * length):
            syms = pack_bytes(data, q, 2)
            assert syms.dtype == np.uint16
            assert np.array_equal(syms, _ref_pack_bytes(data, q))
            assert unpack_bytes(syms, q, length, 2) == data
            # Any symbols below q, some at or above 2^w, one to spare:
            # only the low w bits of the first ceil(8 length / w) count.
            noise = rng.integers(0, q, len(syms) + 1)
            assert unpack_bytes(noise, q, length, 2) == _ref_unpack_bytes(noise, q, length)


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=200), st.sampled_from(PRIMES_BY_WIDTH), st.sampled_from([1, 2]))
def test_packing_matches_bit_array_reference_property(data, q, version):
    syms = pack_bytes(data, q, version)
    assert np.array_equal(syms, _ref_pack_bytes(data, q))
    assert unpack_bytes(syms, q, len(data), version) == _ref_unpack_bytes(syms, q, len(data)) == data


def test_unpack_requires_enough_symbols():
    with pytest.raises(ShardFormatError):
        unpack_bytes(np.zeros(2, dtype=np.int64), 11, 100)


def test_header_roundtrip():
    oid = bytes(range(16))
    h = ShardHeader(FORMAT_VERSION, Scheme.TYPE_II, 11, 8, 6, 2, 2, 3, 45, True, 999, 4, oid)
    assert ShardHeader.from_bytes(h.to_bytes()) == h
    assert len(h.to_bytes()) == h.size == 68 and h.to_bytes()[52:] == oid
    assert (h.payload_bits, h.payload_bytes) == (4, 23)
    # Version 1: no object id (it reads as zeros), 16-bit symbols.
    v1 = replace(h, version=1, object_id=bytes(16))
    assert ShardHeader.from_bytes(v1.to_bytes()) == v1
    assert len(v1.to_bytes()) == v1.size == 52
    assert (v1.payload_bits, v1.payload_bytes) == (16, 90)


@pytest.mark.parametrize(
    "q,bits", [(2, 1), (3, 2), (11, 4), (17, 8), (251, 8), (257, 16), (65521, 16)],
    ids=lambda v: str(v),
)
def test_payload_roundtrip_at_every_width(tmp_path, q, bits):
    # b is the smallest of 1, 2, 4, 8 and 16 that holds q - 1.  Symbol i
    # occupies bits [i*b, (i+1)*b) of the payload, read as a little-endian
    # bit string, and the last byte's pad bits are zero.
    rng = np.random.default_rng(q)
    for count in range(18):
        header = ShardHeader(FORMAT_VERSION, Scheme.PLAIN, q, 8, 6, 2, 0, 1, count, False, 0, 0)
        assert header.payload_bits == bits and header.payload_bytes == -(-count * bits // 8)
        for symbols in (rng.integers(0, q, count), np.full(count, q - 1)):
            shard = Shard(header, symbols)
            raw = shard.to_bytes()
            value = sum(int(v) << (i * bits) for i, v in enumerate(symbols))
            assert raw[header.size :] == value.to_bytes(header.payload_bytes, "little")
            back = Shard.from_bytes(raw)
            assert back.header == header and np.array_equal(back.symbols, symbols)
            path = tmp_path / "s.detc"
            write_shard(path, shard)
            with ShardFile(path) as fh:
                body = np.empty(header.payload_bytes, dtype=np.uint8)
                fh.read_payload(0, body)
                assert body.tobytes() == raw[header.size :]
                tail = np.empty(header.payload_bytes // 2, dtype=np.uint8)
                fh.read_payload(header.payload_bytes - len(tail), tail)
                assert tail.tobytes() == raw[len(raw) - len(tail) :]


def test_header_rejects_garbage():
    with pytest.raises(ShardFormatError):
        ShardHeader.from_bytes(b"NOPE" + b"\0" * 48)
    with pytest.raises(ShardFormatError):
        ShardHeader.from_bytes(b"DETC")
    raw = ShardHeader(FORMAT_VERSION, Scheme.TYPE_II, 11, 8, 6, 2, 2, 1, 15, True, 0, 20).to_bytes()
    with pytest.raises(ShardFormatError, match="unsupported format version 4"):
        ShardHeader.from_bytes(raw[:4] + (4).to_bytes(4, "little") + raw[8:])
    with pytest.raises(ShardFormatError, match="too short for a header"):
        ShardHeader.from_bytes(raw[:60])  # longer than a v1 header, shorter than v2
    with pytest.raises(ShardFormatError, match="unknown scheme tag 3"):
        ShardHeader.from_bytes(raw[:8] + (3).to_bytes(4, "little") + raw[12:])


def test_shard_truncated_after_opening_ends_early(tmp_path):
    # The size is checked when a shard is opened; a file cut short later
    # fails on a read past what opening buffered (8 KiB by default), and
    # the output path stays as it was.
    _, files = _cli_encoded(tmp_path, 50_000)
    out = tmp_path / "out"
    out.write_bytes(b"earlier contents")
    with contextlib.ExitStack() as stack:
        opened = [stack.enter_context(ShardFile(p)) for p in files[:6]]
        codec = StripedCodec(opened[0].header.secure_params())
        os.truncate(files[0], opened[0].header.size + 10)
        tail = np.empty(10, dtype=np.uint8)
        with pytest.raises(ShardFormatError, match="shard for node 1 ended early"):
            opened[0].read_payload(opened[0].header.payload_bytes - len(tail), tail)
        with pytest.raises(ShardFormatError, match="shard for node 1 ended early"):
            codec.recover_to(opened, out)
    assert out.read_bytes() == b"earlier contents"
    assert not list(tmp_path.glob("*.tmp"))


def test_shard_file_roundtrip(tmp_path):
    codec = make_codec()
    shards = codec.encode_file(b"hello world", seed=1, seed_present=True)
    p = tmp_path / "s1.detc"
    write_shard(p, shards[0])
    back = read_shard(p)
    assert back.header == shards[0].header
    assert np.array_equal(back.symbols, shards[0].symbols)


def test_encode_recover_roundtrip_all_subsets():
    codec = make_codec()
    data = bytes(np.random.default_rng(0).integers(0, 256, 1500, dtype=np.uint8))
    shards = codec.encode_file(data, seed=5, seed_present=True)
    for K in combinations(range(8), 6):
        assert codec.recover_file([shards[i] for i in K]) == data


def test_recover_requires_d_shards():
    codec = make_codec()
    shards = codec.encode_file(b"x" * 100, seed=5, seed_present=True)
    with pytest.raises(ShardFormatError):
        codec.recover_file(shards[:5])
    with pytest.raises(ShardFormatError):
        codec.recover_file([shards[0]] * 6)
    with pytest.raises(ShardFormatError, match="no shards given"):
        codec.recover_file([])


def test_repair_rebuilds_byte_identical_shard():
    codec = make_codec()
    data = bytes(range(256)) * 3
    shards = codec.encode_file(data, seed=9, seed_present=True)
    for f in range(1, 9):
        helpers = [s for s in shards if s.header.node_id != f][:6]
        rebuilt, bandwidth = codec.repair_shard(f, helpers)
        assert rebuilt.to_bytes() == shards[f - 1].to_bytes()
        stripes = shards[0].header.payload_symbols // 15
        assert bandwidth == stripes * 6 * 5


def test_repair_rejects_bad_helper_sets():
    codec = make_codec()
    shards = codec.encode_file(b"abc", seed=2, seed_present=True)
    with pytest.raises(ShardFormatError):
        codec.repair_shard(3, shards[:5])
    with pytest.raises(ShardFormatError):
        codec.repair_shard(3, shards[:6])  # includes node 3 itself
    with pytest.raises(ShardFormatError):
        codec.repair_shard(3, [shards[0]] * 6)
    with pytest.raises(ValueError, match=r"node id 0 out of range \[1, 8\]"):
        codec.repair_shard(0, shards[:6])


def test_empty_file_single_padded_stripe():
    codec = make_codec()
    shards = codec.encode_file(b"", seed=3, seed_present=True)
    assert shards[0].header.original_length == 0
    assert shards[0].header.payload_symbols == 15  # one stripe
    assert codec.recover_file(shards[:6]) == b""


def test_zero_capacity_layout_rejects_data():
    codec = StripedCodec(SecureParams(system(8, 6, 5), 3, Scheme.TYPE_II))
    with pytest.raises(ValueError):
        codec.encode_file(b"data", seed=0, seed_present=True)
    shards = codec.encode_file(b"", seed=0, seed_present=True)
    assert codec.recover_file(shards[:6]) == b""


def test_same_seed_byte_identical_shards():
    codec = make_codec()
    data = b"determinism" * 40
    a = codec.encode_file(data, seed=77, seed_present=True)
    b = codec.encode_file(data, seed=77, seed_present=True)
    assert all(x.to_bytes() == y.to_bytes() for x, y in zip(a, b))
    c = codec.encode_file(data, seed=78, seed_present=True)
    assert any(x.to_bytes() != y.to_bytes() for x, y in zip(a, c))


def test_mixed_headers_rejected():
    c1 = make_codec()
    c2 = make_codec(scheme=Scheme.TYPE_I)
    s1 = c1.encode_file(b"a", seed=1, seed_present=True)
    s2 = c2.encode_file(b"a", seed=1, seed_present=True)
    with pytest.raises(ShardFormatError, match="shard for node 2 belongs to a different object"):
        c1.recover_file([s1[0], s2[1], *s1[2:6]])


# Codecs of a code other than the Type-II (8,6,2,ell=2,q=11) of `make_codec`.
OTHER_CODES = {
    "other-scheme": (Scheme.PLAIN, 0, 11),
    "other-q": (Scheme.TYPE_II, 2, 13),
}


@pytest.mark.parametrize("other", list(OTHER_CODES))
def test_codec_of_another_code_refuses_shards(tmp_path, other):
    # Every header agrees with the others, but not with the codec: decoding
    # them with its tables would give wrong bytes.
    scheme, ell, q = OTHER_CODES[other]
    codec = StripedCodec(SecureParams(system(8, 6, 2, q), ell, scheme))
    shards = make_codec().encode_file(bytes(range(256)) * 10, seed=1, seed_present=True)
    with pytest.raises(ShardFormatError, match="do not fit this codec"):
        codec.recover_file(shards[:6])
    with pytest.raises(ShardFormatError, match="do not fit this codec"):
        codec.repair_shard(8, shards[:6])
    out = tmp_path / "out"
    out.write_bytes(b"earlier contents")
    files = [ShardFile(shard.to_bytes()) for shard in shards]
    with pytest.raises(ShardFormatError, match="do not fit this codec"):
        codec.recover_to(files[:6], out)
    with pytest.raises(ShardFormatError, match="do not fit this codec"):
        codec.repair_to(8, files[:6], out)
    assert _tree(tmp_path) == {Path("out"): b"earlier contents"}


def test_recover_checks_shards_beyond_the_d_it_reads():
    codec = make_codec()
    a = codec.encode_file(b"first file", seed=1, seed_present=True)
    b = codec.encode_file(b"other file", seed=1, seed_present=True)
    assert codec.recover_file(a[:6]) == b"first file"
    with pytest.raises(ShardFormatError, match="shard for node 7 belongs to a different object"):
        codec.recover_file([*a[:6], b[6]])
    with pytest.raises(ShardFormatError, match="duplicate shard for node 1"):
        codec.recover_file([*a[:6], a[0]])


@pytest.mark.parametrize("wrap", [bytearray, memoryview])
def test_shard_reads_bytes_like_sources_from_memory(wrap):
    shard = make_codec().encode_file(b"abc", seed=1, seed_present=True)[0]
    raw = shard.to_bytes()
    assert b"\0" in raw  # a path with a NUL byte cannot be opened
    back = Shard.from_bytes(wrap(raw))
    assert back.header == shard.header and np.array_equal(back.symbols, shard.symbols)
    with ShardFile(wrap(raw)) as fh:
        assert fh.header == shard.header and fh.stat is None
    # A short NUL-free buffer is a shard too short for a header, not a file name.
    with pytest.raises(ShardFormatError, match="too short for a header"):
        ShardFile(wrap(b"DETC"))


def test_shard_copies_the_callers_symbols():
    header = ShardHeader(FORMAT_VERSION, Scheme.TYPE_II, 11, 8, 6, 2, 2, 1, 2, True, 0, 0)
    symbols = np.array([3, 4], dtype=np.uint16)  # the stored dtype: no cast would copy it
    shard = Shard(header, symbols)
    assert symbols.flags.writeable and not shard.symbols.flags.writeable
    symbols[0] = 9
    assert shard.symbols.tolist() == [3, 4]


def test_plain_scheme_roundtrip():
    codec = make_codec(scheme=Scheme.PLAIN, ell=0)
    data = b"plain data without keys" * 11
    shards = codec.encode_file(data, seed=0, seed_present=False)
    assert codec.recover_file(shards[2:8]) == data


@pytest.mark.parametrize(
    "scheme,ell,size",
    [
        (Scheme.PLAIN, 0, 1 << 20),
        (Scheme.TYPE_I, 2, 256 * 1024),
        (Scheme.TYPE_II, 2, 333_001),
    ],
)
def test_large_file_encode_repair_recover_roundtrip(scheme, ell, size):
    codec = make_codec(scheme=scheme, ell=ell)
    data = bytes(np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8))
    shards = codec.encode_file(data, seed=13, seed_present=True)
    assert codec.recover_file(shards[:6]) == data
    # lose one shard, repair it, then recover through the repaired shard
    rebuilt, _ = codec.repair_shard(2, [s for s in shards if s.header.node_id != 2][:6])
    assert rebuilt.to_bytes() == shards[1].to_bytes()
    mixed = [rebuilt] + [shards[i] for i in (2, 3, 5, 6, 7)]
    assert codec.recover_file(mixed) == data


@pytest.mark.parametrize(
    "n,d,m,scheme,ell",
    [(14, 12, 4, Scheme.PLAIN, 0), (10, 8, 3, Scheme.TYPE_II, 2)],
    ids=["plain-14-12-4", "type2-10-8-3"],
)
def test_float_products_exact_at_worst_case(n, d, m, scheme, ell):
    # Every secret and key at q - 1 in the largest field the format allows;
    # stripe 2 is random.  Each stripe must match the single-matrix int64
    # reference path exactly.
    q = 65521
    codec = StripedCodec(SecureParams(system(n, d, m, q), ell, scheme))
    params, layout, psi = codec.params, codec.layout, codec.psi
    alpha = params.alpha
    rng = np.random.default_rng(1)
    secrets = np.full((3, layout.secret_count), q - 1, dtype=np.int64)
    keys = np.full((3, layout.key_count), q - 1, dtype=np.int64)
    secrets[2] = rng.integers(0, q, layout.secret_count)
    keys[2] = rng.integers(0, q, layout.key_count)
    mb = codec.assemble_batch(secrets, keys)
    cb = codec.encode_batch(mb)
    # An empty file padded to 3 stripes, as the header records it.
    pad = 3 * layout.secret_count
    header = ShardHeader(FORMAT_VERSION, scheme, q, n, d, m, ell, 1, 3 * alpha, True, 0, pad)
    shards = [
        Shard(replace(header, node_id=i), cb[:, i - 1, :].reshape(-1))
        for i in range(1, n + 1)
    ]
    readers = list(range(n, n - d, -1))
    recovered = codec.recover_batch(readers, cb[:, [i - 1 for i in readers], :])
    helpers = list(range(2, d + 2))
    rebuilt, _ = codec.repair_shard(1, [shards[h - 1] for h in helpers])
    for b in range(3):
        M = assemble(layout, secrets[b], keys[b])
        assert np.array_equal(mb[b], M.a)
        shares = encode(M, psi)
        assert np.array_equal(cb[b], np.stack([s.values for s in shares]))
        back = recover_message([shares[i - 1] for i in readers], psi, params)
        assert np.array_equal(back.a, M.a)
        assert np.array_equal(recovered[b], extract_secrets(back, layout))
        packets = [repair_packet(shares[h - 1], 1, psi, params) for h in helpers]
        expected = repair_node(1, packets, psi, params).values
        assert np.array_equal(rebuilt.symbols[b * alpha : (b + 1) * alpha], expected)
    assert np.array_equal(recovered[0], secrets[0])


def _ranked_tables(params, layout):
    """The code's index tables, built with LexIndexer.rank per subset."""
    cols, rcols, m = params.columns, params.repair_columns, params.m
    groups = list(params.parity_groups.subsets())
    (parity_rows, parity_cols), partners = params.parity_table
    repair = params.repair_table
    tables = {
        "secret cols": (layout.secret_index[1], [cols.rank(I) for _, I in layout.secret_cells]),
        "key cols": (layout.key_index[1], [cols.rank(I) for _, I in key_cells(layout)]),
        "parity rows": (parity_rows, [J[-1] - 1 for J in groups]),
        "parity cols": (parity_cols, [cols.rank(J[:-1]) for J in groups]),
        "parity signs": (
            partners.signs,
            [[(-1) ** (m + ind(J[:-1], y)) for y in J[:-1]] for J in groups],
        ),
        "partner cols": (
            partners.cols,
            [[cols.rank(tuple(v for v in J if v != y)) for y in J[:-1]] for J in groups],
        ),
        "repair cols": (
            repair.cols,
            [[rcols.rank(tuple(v for v in I if v != x)) for x in I] for I in cols.subsets()],
        ),
        "repair signs": (repair.signs, [[(-1) ** ind(I, x) for x in I] for I in cols.subsets()]),
    }
    return {name: (table, np.reshape(expected, table.shape)) for name, (table, expected) in tables.items()}


def _ranked_repair_encoder(f, psi, params):
    rows, cols = params.columns, params.repair_columns
    arr = np.zeros((len(rows), len(cols)), dtype=np.int64)
    for j, J in enumerate(cols.subsets()):
        for x in range(1, params.d + 1):
            if x not in J:
                I = tuple(sorted(set(J) | {x}))
                arr[rows.rank(I), j] = (-1) ** ind(I, x) * int(psi.a[f - 1, x - 1]) % params.q
    return arr


@pytest.mark.parametrize(
    "n,d,m,scheme,ell",
    [(14, 12, 4, Scheme.PLAIN, 0), (8, 6, 2, Scheme.TYPE_II, 2)],
    ids=["plain-14-12-4", "type2-8-6-2"],
)
def test_codec_tables_match_lex_ranks(n, d, m, scheme, ell):
    codec = StripedCodec(SecureParams(system(n, d, m, 65521), ell, scheme))
    for name, (table, expected) in _ranked_tables(codec.params, codec.layout).items():
        assert np.array_equal(table, expected), name
    for f in range(1, n + 1):
        xi = repair_encoder(f, codec.psi, codec.params)
        assert np.array_equal(xi.a, _ranked_repair_encoder(f, codec.psi, codec.params))


DATA = Path(__file__).parent / "data"
V1_TYPE2 = DATA / "type2_v1"


def test_v1_type_ii_shards_still_recover_and_repair():
    # Shards of a Type-II (8,6,2,ell=2,q=11) file, encoded with --seed 2718
    # by a build that drew keys from the per-stripe SHA-256 counter stream.
    # Recover and repair never regenerate keys, so they stay bit-exact.
    data = (V1_TYPE2 / "input.bin").read_bytes()
    shards = [read_shard(p) for p in sorted(V1_TYPE2.glob("shard_*.detc"))]
    assert [s.header.node_id for s in shards] == list(range(1, 9))
    head = shards[0].header
    assert (head.scheme, head.q, head.n, head.d, head.m, head.ell) == (
        Scheme.TYPE_II, 11, 8, 6, 2, 2,
    )
    codec = StripedCodec(head.secure_params())
    for subset in combinations(shards, 6):
        assert codec.recover_file(subset) == data
    for failed in range(1, 9):
        helpers = [s for s in shards if s.header.node_id != failed][:6]
        rebuilt, _ = codec.repair_shard(failed, helpers)
        assert rebuilt.to_bytes() == shards[failed - 1].to_bytes()


def _assert_repairs_in_both_helper_orders(codec, paths, tmp_path):
    """Repair every node of the shard files ``paths`` (node order) from d
    others, given in ascending and in reversed node order: each rebuilt
    shard is byte-identical to the one on disk."""
    n, d = codec.params.n, codec.params.d
    out = tmp_path / "rebuilt.detc"
    with contextlib.ExitStack() as stack:
        opened = [stack.enter_context(ShardFile(p)) for p in paths]
        stripes = opened[0].header.payload_symbols // codec.params.alpha
        for failed in range(1, n + 1):
            # The d nodes after the failed one, cyclically: every node helps.
            ascending = sorted((opened[(failed + k) % n] for k in range(d)),
                               key=lambda s: s.header.node_id)
            for helpers in (ascending, ascending[::-1]):
                assert codec.repair_to(failed, helpers, out) == stripes * d * codec.params.beta
                assert out.read_bytes() == paths[failed - 1].read_bytes(), (failed, helpers[0].header.node_id)


def test_v1_type_ii_shards_repair_in_any_helper_order(tmp_path):
    # Repair of version-1 shards (16-bit payloads) writes version 1.
    paths = sorted(V1_TYPE2.glob("shard_*.detc"))
    head = read_shard(paths[0]).header
    assert head.version == 1
    codec = StripedCodec(head.secure_params())
    _assert_repairs_in_both_helper_orders(codec, paths, tmp_path)


V2_TYPE2 = DATA / "type2_v2"


def test_v2_type_ii_shards_still_recover_and_repair(tmp_path):
    # Shards of 5000 bytes (random.Random(31415).randbytes) of a Type-II
    # (8,6,2,ell=2,q=11) file, encoded with --seed 31415 by the last build
    # that wrote format v2: 3-bit fixed-width packing, 13,334 symbols in
    # 667 stripes, more than one block.  Repair writes version 2 again.
    data = (V2_TYPE2 / "input.bin").read_bytes()
    paths = sorted(V2_TYPE2.glob("shard_*.detc"))
    shards = [read_shard(p) for p in paths]
    assert [s.header.node_id for s in shards] == list(range(1, 9))
    head = shards[0].header
    assert (head.version, head.scheme, head.q, head.n, head.d, head.m, head.ell) == (
        2, Scheme.TYPE_II, 11, 8, 6, 2, 2,
    )
    assert head.payload_symbols == 667 * 15 and head.padding_symbols == 667 * 20 - 13_334
    codec = StripedCodec(head.secure_params())
    assert codec.block_stripes < 667
    for subset in combinations(shards, 6):
        assert codec.recover_file(subset) == data
    assert run_cli("recover", *paths[:1:-1], "--out", tmp_path / "out.bin") == 0
    assert (tmp_path / "out.bin").read_bytes() == data
    _assert_repairs_in_both_helper_orders(codec, paths, tmp_path)


@pytest.mark.parametrize("block", [0, 1], ids=["first-block", "second-block"])
def test_radix_group_above_the_byte_range_is_refused(tmp_path, capsys, block):
    # Shards with valid headers whose secrets hold, as the first group of a
    # block, seven digits of 10: 11^7 - 1 >= 2^24, no 3 bytes.  They are
    # built by the codec's own batch path, so only the group is at fault.
    codec = make_codec()
    per, nk = codec.symbols_per_stripe, codec.layout.key_count
    data = _data_for_stripes(codec, codec.block_stripes + 3)
    shards = codec.encode_file(data, seed=3, seed_present=True)
    stripes = shards[0].header.payload_symbols // codec.params.alpha
    secrets = np.zeros(stripes * per, dtype=np.uint16)
    syms = pack_bytes(data, 11)
    secrets[: len(syms)] = syms
    at = block * codec.block_stripes * per
    secrets[at : at + 7] = 10
    keys = KeyStream(3, 11).draw(stripes * nk).reshape(stripes, nk)
    cb = codec.encode_batch(codec.assemble_batch(secrets.reshape(stripes, per), keys))
    bad = [Shard(s.header, cb[:, i, :].reshape(-1)) for i, s in enumerate(shards)]
    assert sum(not np.array_equal(a.symbols, b.symbols) for a, b in zip(bad, shards)) > 0
    with pytest.raises(ShardFormatError, match="a group of 7 symbols holds a value of 24 bits or more"):
        codec.recover_file(bad[2:])
    paths = []
    for shard in bad:
        paths.append(tmp_path / f"shard_{shard.header.node_id:03d}.detc")
        write_shard(paths[-1], shard)
    capsys.readouterr()
    assert run_cli("recover", *paths[2:], "--out", tmp_path / "out.bin") == 2
    err = capsys.readouterr().err
    assert err == "error: a group of 7 symbols holds a value of 24 bits or more\n"
    assert sorted(tmp_path.iterdir()) == paths  # no output, no temp file
    # Repair moves symbols and unpacks no bytes: it rebuilds the shard as built.
    rebuilt, _ = codec.repair_shard(1, bad[1:7])
    assert rebuilt.to_bytes() == bad[0].to_bytes()


@pytest.mark.parametrize("failed", [0, 9], ids=["0", "n+1"])
def test_repair_refuses_failed_id_out_of_range_before_any_output(tmp_path, capsys, failed):
    codec = make_codec()
    shards = codec.encode_file(b"abc" * 300, seed=2, seed_present=True)
    buf = io.BytesIO()
    with pytest.raises(ValueError, match=rf"node id {failed} out of range \[1, 8\]"):
        codec._repair(failed, [ShardFile(s.to_bytes()) for s in shards[1:7]], buf)
    assert buf.getvalue() == b""
    files = [tmp_path / f"shard_{s.header.node_id:03d}.detc" for s in shards[1:7]]
    for path, s in zip(files, shards[1:7]):
        path.write_bytes(s.to_bytes())
    before = _tree(tmp_path)
    capsys.readouterr()
    assert run_cli("repair", *files, "--failed", failed, "--out", tmp_path / "rebuilt.detc") == 2
    assert capsys.readouterr().err == f"error: node id {failed} out of range [1, 8]\n"
    assert _tree(tmp_path) == before


def _assert_refused_where_read(codec, shards, raw, match):
    """Node 1's shard, replaced by ``raw``, is refused wherever its payload
    is read: its symbols, a recover that reads it among the first d, and a
    repair that takes it as a helper.  `Shard.from_bytes` checks the header
    and the size alone."""
    bad = Shard.from_bytes(bytes(raw))
    with pytest.raises(ShardFormatError, match=match):
        bad.symbols
    with pytest.raises(ShardFormatError, match=match):
        codec.recover_file([bad, *shards[1:6]])
    with pytest.raises(ShardFormatError, match=match):
        codec.repair_shard(8, [bad, *shards[1:6]])


def test_out_of_field_symbol_rejected_on_read():
    # At q = 11 a payload byte holds two 4-bit symbols, the first in its low
    # nibble; 15 fits the nibble but not the field.
    codec = make_codec()
    shards = codec.encode_file(b"abc", seed=1, seed_present=True)
    raw = bytearray(shards[0].to_bytes())
    raw[68] = raw[68] & 0xF0 | 0x0F
    _assert_refused_where_read(codec, shards, raw, "outside GF")
    raw[68] = raw[68] & 0xF0 | 10
    assert Shard.from_bytes(bytes(raw)).symbols[0] == 10
    raw[69] = 0xB0
    _assert_refused_where_read(codec, shards, raw, "outside GF")


def test_nonzero_pad_bits_rejected_on_read():
    # 15 symbols of 4 bits fill 8 bytes; the high nibble of the last is pad.
    codec = make_codec()
    shards = codec.encode_file(b"abc", seed=1, seed_present=True)
    raw = bytearray(shards[0].to_bytes())
    assert shards[0].header.payload_symbols == 15 and len(raw) == 68 + 8 and raw[-1] >> 4 == 0
    raw[-1] |= 0x10
    _assert_refused_where_read(codec, shards, raw, "nonzero pad bits")


@pytest.mark.parametrize("value", [11, 60000, 70000, -1], ids=["q", "below-2^16", "2^16+", "negative"])
def test_shard_rejects_out_of_field_symbols(value):
    header = ShardHeader(FORMAT_VERSION, Scheme.TYPE_II, 11, 8, 6, 2, 2, 1, 2, True, 0, 0)
    with pytest.raises(ShardFormatError, match="outside GF"):
        Shard(header, np.array([value, 10]))
    assert Shard(header, np.array([10, 0])).symbols.tolist() == [10, 0]


@pytest.mark.parametrize(
    "symbols", [np.array([1.7, 3.2]), np.array([1.0, 3.0]), np.array([True, False])],
    ids=["fractional", "integral-float", "bool"],
)
def test_shard_rejects_non_integer_symbols(symbols):
    header = ShardHeader(FORMAT_VERSION, Scheme.TYPE_II, 11, 8, 6, 2, 2, 1, 2, True, 0, 0)
    with pytest.raises(ShardFormatError, match="not integers"):
        Shard(header, symbols)


def test_shard_accepts_empty_payload():
    # numpy types [] as float64; an empty payload holds no symbol to reject.
    header = ShardHeader(FORMAT_VERSION, Scheme.TYPE_II, 11, 8, 6, 2, 2, 1, 0, True, 0, 0)
    shard = Shard(header, np.array([]))
    assert shard.symbols.dtype == np.uint16 and shard.symbols.size == 0
    assert shard.to_bytes() == header.to_bytes()
    assert Shard.from_bytes(shard.to_bytes()).symbols.size == 0


# -- block loop -----------------------------------------------------------------

BLOCK_CODES = {
    "plain-14-12-4": (14, 12, 4, Scheme.PLAIN, 0, 65521),
    "type1-8-6-2": (8, 6, 2, Scheme.TYPE_I, 2, 11),
    "type2-8-6-2": (8, 6, 2, Scheme.TYPE_II, 2, 11),
    # d * C(d,m-1) = 90 > n * alpha = 42: blocks are sized by the codeword
    # product alone, whatever the repair table's width.
    "plain-7-6-5": (7, 6, 5, Scheme.PLAIN, 0, 11),
}


def _block_codec(name):
    n, d, m, scheme, ell, q = BLOCK_CODES[name]
    return StripedCodec(SecureParams(system(n, d, m, q), ell, scheme))


def test_blocks_hold_whole_groups_of_every_version_and_whole_payload_bytes():
    for name in BLOCK_CODES:
        codec = _block_codec(name)
        B, q, alpha = codec.block_stripes, codec.q, codec.params.alpha
        for version in (1, 2, 3):
            _, k, _ = _packing(q, version)
            bits = ShardHeader(version, Scheme.PLAIN, q, 8, 6, 2, 0, 1, 0, False, 0, 0).payload_bits
            assert B * codec.symbols_per_stripe % k == 0 and B * alpha * bits % 8 == 0, (name, version)
    # A unit of 14 stripes at q = 11 (7-digit groups, 4-bit symbols); the
    # plain code at q = 65521, whose packing did not change, keeps 8.
    assert _block_codec("type2-8-6-2").block_stripes == 546
    assert _block_codec("plain-14-12-4").block_stripes == 8


def _data_for_stripes(codec, stripes, seed=0):
    """Random bytes that pack into exactly ``stripes`` stripes."""
    size = _bytes_for(codec.q, stripes * codec.symbols_per_stripe)
    data = np.random.default_rng(seed).integers(0, 256, size, dtype=np.uint8).tobytes()
    assert codec.stripe_count_for(len(pack_bytes(data, codec.q))) == stripes
    return data


@pytest.mark.parametrize("name", list(BLOCK_CODES))
@pytest.mark.parametrize("shape", ["1", "B-1", "B", "B+1", "2B+1"])
def test_block_loop_matches_one_batch(tmp_path, name, shape):
    codec = _block_codec(name)
    B = codec.block_stripes
    stripes = {"1": 1, "B-1": max(1, B - 1), "B": B, "B+1": B + 1, "2B+1": 2 * B + 1}[shape]
    data = _data_for_stripes(codec, stripes, seed=stripes)
    params, layout = codec.params, codec.layout

    # One-batch reference: the same packing and key draw, every stripe in
    # one assemble_batch, encode_batch and recover_batch call.
    whole = _block_codec(name)
    whole.block_stripes = stripes
    per, nk = layout.secret_count, layout.key_count
    secrets = np.zeros(stripes * per, dtype=np.uint16)
    syms = pack_bytes(data, codec.q)
    secrets[: len(syms)] = syms
    keys = KeyStream(9, codec.q).draw(stripes * nk).reshape(stripes, nk)
    cb = whole.encode_batch(whole.assemble_batch(secrets.reshape(stripes, per), keys))

    shards = codec.encode_file(data, seed=9, seed_present=True)
    for node, shard in enumerate(shards):
        assert np.array_equal(shard.symbols, cb[:, node, :].reshape(-1))

    readers = list(range(params.n, params.n - params.d, -1))
    expected = whole.recover_batch(readers, cb[:, [i - 1 for i in readers], :])
    assert np.array_equal(expected.reshape(-1)[: len(syms)], syms)
    assert codec.recover_file([shards[i - 1] for i in readers]) == data

    for failed in (1, params.n):
        helpers = [s for s in shards if s.header.node_id != failed][: params.d]
        rebuilt, bandwidth = codec.repair_shard(failed, helpers)
        assert rebuilt.to_bytes() == shards[failed - 1].to_bytes()
        assert bandwidth == stripes * params.d * params.beta

    # The streaming calls write the same bytes as the in-memory ones.
    source = tmp_path / "in.bin"
    source.write_bytes(data)
    headers = codec.encode_to(source, tmp_path / "s", seed=9, seed_present=True)
    assert headers == [shard.header for shard in shards]
    files = [tmp_path / "s" / f"shard_{i:03d}.detc" for i in range(1, params.n + 1)]
    assert [f.read_bytes() for f in files] == [shard.to_bytes() for shard in shards]
    in_memory = [ShardFile(shard.to_bytes()) for shard in shards]
    assert codec.recover_to([in_memory[i - 1] for i in readers], tmp_path / "out.bin") == len(data)
    assert (tmp_path / "out.bin").read_bytes() == data
    for failed in (1, params.n):
        helpers = [s for s in in_memory if s.header.node_id != failed][: params.d]
        out = tmp_path / f"rebuilt_{failed}.detc"
        assert codec.repair_to(failed, helpers, out) == stripes * params.d * params.beta
        assert out.read_bytes() == shards[failed - 1].to_bytes()
    # And from the shard files, whose blocks are decoded as they are read.
    with contextlib.ExitStack() as stack:
        opened = [stack.enter_context(ShardFile(f)) for f in files]
        assert codec.recover_to([opened[i - 1] for i in readers], tmp_path / "out2.bin") == len(data)
        assert codec.repair_to(1, opened[1 : params.d + 1], tmp_path / "rebuilt.detc")
    assert (tmp_path / "out2.bin").read_bytes() == data
    assert (tmp_path / "rebuilt.detc").read_bytes() == files[0].read_bytes()


def test_block_loop_empty_payload_header():
    # A header with no stripes at all: recover returns the empty file (or
    # refuses a nonzero length, which no symbols hold), repair an empty shard.
    codec = make_codec()
    header = ShardHeader(FORMAT_VERSION, Scheme.TYPE_II, 11, 8, 6, 2, 2, 1, 0, True, 0, 0)
    shards = [Shard(replace(header, node_id=i), np.array([])) for i in range(1, 9)]
    assert codec.recover_file(shards[:6]) == b""
    rebuilt, bandwidth = codec.repair_shard(8, shards[:6])
    assert rebuilt.to_bytes() == replace(header, node_id=8).to_bytes()
    assert bandwidth == 0
    long = [Shard(replace(h.header, original_length=5), h.symbols) for h in shards[:6]]
    with pytest.raises(ShardFormatError, match="do not match the recorded file length"):
        codec.recover_file(long)
    with pytest.raises(ShardFormatError, match="do not match the recorded file length"):
        codec.repair_shard(8, long)


@pytest.mark.parametrize("shape", ["1", "2B+1"])
def test_block_loop_does_per_file_setup_once(monkeypatch, shape):
    # Inverting Psi_K or Psi_H is per-file work; doing it per block costs a
    # GF(q) elimination for every block.  Repair needs nothing else: its
    # coefficient row Psi_f Psi_H^-1 replaces Xi^f and the recombination.
    import detcodes.shards as shards_module

    assert not hasattr(shards_module, "repair_encoder")
    codec = make_codec()
    stripes = {"1": 1, "2B+1": 2 * codec.block_stripes + 1}[shape]
    shards = codec.encode_file(_data_for_stripes(codec, stripes), seed=4, seed_present=True)
    calls = {"inv": 0}
    inv = GFMatrix.inv

    def counted_inv(self):
        calls["inv"] += 1
        return inv(self)

    monkeypatch.setattr(GFMatrix, "inv", counted_inv)
    codec.recover_file(shards[:6])
    assert calls == {"inv": 1}
    codec.repair_shard(1, shards[1:7])
    assert calls == {"inv": 2}
    codec.repair_shard(8, shards[6::-1][:6])
    assert calls == {"inv": 3}


def test_in_memory_shards_pack_and_unpack_only_in_the_block_loop(monkeypatch):
    # A shard is its bytes: wrapping and returning them converts nothing,
    # and each in-memory op packs or unpacks the payloads of all its shards
    # once per block, as the streaming ops do.
    import detcodes.shards as shards_module

    codec = make_codec()
    data = _data_for_stripes(codec, 2 * codec.block_stripes + 1)  # 3 blocks
    shards = codec.encode_file(data, seed=4, seed_present=True)
    calls = {}
    for name in ("_pack_payload", "_unpack_payload"):

        def counted(*args, _name=name, _real=getattr(shards_module, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args)

        monkeypatch.setattr(shards_module, name, counted)

    def count(op):
        calls.clear()
        return op(), dict(calls)

    assert shards[0].to_bytes() is shards[0].to_bytes()
    assert count(lambda: Shard.from_bytes(shards[0].to_bytes()))[1] == {}
    assert count(lambda: shards[0].symbols)[1] == {"_unpack_payload": 1}
    encoded, counts = count(lambda: codec.encode_file(data, seed=4, seed_present=True))
    assert counts == {"_pack_payload": 3}
    assert [s.to_bytes() for s in encoded] == [s.to_bytes() for s in shards]
    assert count(lambda: codec.recover_file(shards)) == (data, {"_unpack_payload": 3})
    (rebuilt, _), counts = count(lambda: codec.repair_shard(1, shards[1:7]))
    assert counts == {"_unpack_payload": 3, "_pack_payload": 3}
    assert rebuilt.to_bytes() == shards[0].to_bytes()


def test_codec_memory_stays_within_payload_multiples():
    # tracemalloc sees numpy's buffers and is deterministic for fixed
    # inputs.  Bounds: measured peaks (0.43x, 0.11x and 0.10x of the payload
    # bytes involved, numpy 2.4, float32 blocks at q = 11; 0.48x, 0.16x and
    # 0.14x in float64) plus a margin; the whole-file codec needed 10.8x,
    # 7.7x and 6.9x.
    codec = make_codec()
    warm = codec.encode_file(b"warm up the tables", seed=1, seed_present=True)
    codec.recover_file(warm[:6])
    codec.repair_shard(1, warm[1:7])
    data = np.random.default_rng(3).integers(0, 256, 256 * 1024, dtype=np.uint8).tobytes()

    def traced_peak(op):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = op()
        return result, tracemalloc.get_traced_memory()[1] - before

    tracemalloc.start()
    try:
        shards, encode_peak = traced_peak(lambda: codec.encode_file(data, 7, True))
        _, recover_peak = traced_peak(lambda: codec.recover_file(shards[2:]))
        _, repair_peak = traced_peak(lambda: codec.repair_shard(1, shards[1:7]))
    finally:
        tracemalloc.stop()
    payload = shards[0].symbols.nbytes
    assert encode_peak <= 4.0 * 8 * payload
    assert recover_peak <= 2.5 * 6 * payload
    assert repair_peak <= 0.5 * 6 * payload


def test_recover_file_packs_only_the_shards_it_reads():
    # Every shard is read in place from its own bytes, and shards past the
    # first d are checked by their headers alone, so more shards cost no
    # more memory.
    codec = make_codec()
    data = np.random.default_rng(5).integers(0, 256, 256 * 1024, dtype=np.uint8).tobytes()
    shards = codec.encode_file(data, 7, True)
    peaks = {}
    tracemalloc.start()
    try:
        for count in (6, 6, 8):  # the first run builds the decoder
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            assert codec.recover_file(shards[:count]) == data
            peaks[count] = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peaks[8] <= 1.05 * peaks[6]


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(
        [(np.float64, q) for q in (2, 11, 257, 65521)] + [(np.float32, q) for q in (2, 11, 257, 1669)]
    ),
    st.data(),
)
def test_float_mod_matches_integer_remainder(case, data):
    # The largest |x| checked: 2^49 in float64, and in float32 the top of
    # the range that `_float_dtype` admits, |x| < 2^24 - q.
    dtype, q = case
    limit = 2**49 if dtype is np.float64 else 2**24 - q - 1
    values = data.draw(st.lists(st.integers(0, limit), max_size=40))
    top = (limit - 1) // q
    edges = [0, limit - 1, limit] + [k * q + e for k in (1, 2, top - 1, top) for e in (-1, 0, 1)]
    x = np.array(values + edges, dtype=np.int64)
    x = np.concatenate([x, -x])  # the parity closure reduces signed sums
    r = _mod(x.astype(dtype), q)
    assert r.dtype == dtype
    assert np.array_equal(r, x % q)


def test_float_rule_edge():
    # k(q-1)^2 < 2^24 - q: at d = 6, q = 1669 is the last prime in float32.
    assert _float_dtype(6, 1669) is np.float32 and _float_dtype(6, 1693) is np.float64
    assert all(_float_dtype(d, 65521) is np.float64 for d in range(1, 363))
    for q, dtype in ((11, np.float32), (65521, np.float64)):
        codec = StripedCodec(SecureParams(system(8, 6, 2, q), 2, Scheme.TYPE_II))
        secrets = np.zeros((3, codec.symbols_per_stripe), dtype=np.uint16)
        keys = np.zeros((3, codec.layout.key_count), dtype=np.uint16)
        assert codec.assemble_batch(secrets, keys).dtype == dtype
    # One step past the edge, float32 would round: this sum is odd and
    # above 2^24.
    a, b = np.array([[1692] * 5 + [1691]]), np.array([[1692]] * 5 + [[1691]])
    assert _mat(a.astype(np.float32), b)[0, 0] != (a @ b)[0, 0] == 17173801


@pytest.mark.parametrize("q", [1669, 1693])
@pytest.mark.parametrize("scheme, ell", [(Scheme.TYPE_II, 2), (Scheme.PLAIN, 0)])
def test_codec_is_exact_on_both_sides_of_the_float_rule(tmp_path, q, scheme, ell):
    # 16-bit payloads of 10-bit symbols, in float32 at q = 1669 and in
    # float64 at q = 1693.
    codec = StripedCodec(SecureParams(system(8, 6, 2, q), ell, scheme))
    d = codec.params.d
    assert codec.dtype is (np.float32 if q == 1669 else np.float64)
    # Sums of about d(q-1)^2, odd (the last column is q - 2): at q = 1693
    # they pass 2^24, where float32 would round them.
    worst = np.full((8, d), q - 1, dtype=codec.dtype)
    worst[:, -1] = q - 2
    assert np.array_equal(_mod(_mat(worst, worst.T), q), matmul(worst, worst.T, q))
    data = _data_for_stripes(codec, 2 * codec.block_stripes + 3, seed=q)
    source = tmp_path / "input.bin"
    source.write_bytes(data)
    codec.encode_to(source, tmp_path / "shards", seed=5, seed_present=True)
    paths = sorted((tmp_path / "shards").glob("shard_*.detc"))
    with contextlib.ExitStack() as stack:
        opened = [stack.enter_context(ShardFile(p)) for p in paths]
        for readers in (opened[:d], opened[:1:-1]):
            assert codec.recover_to(readers, tmp_path / "out.bin") == len(data)
            assert (tmp_path / "out.bin").read_bytes() == data
    _assert_repairs_in_both_helper_orders(codec, paths, tmp_path)


# -- CLI ----------------------------------------------------------------------


def run_cli(*args):
    return main([str(a) for a in args])


# SHA-256 of every shard of `encode --seed 2718` on a 1000-byte input,
# recorded from an earlier build.  Shard bytes change only on purpose, and
# these digests change with them.  The keyed layouts were re-pinned for
# key streams v3 and v4, all three for format v2 (object id, b-bit
# payloads), whose payload symbols and other header fields equal the v1
# ones, and all three for format v3: at q = 11 its radix packing changes
# the payloads, and at q = 65521 only the header's version field differs.
# `test_pinned_keys_are_the_reference_key_stream` and
# `test_pinned_secrets_are_the_reference_packing` check the keys and the
# secrets inside the shards against independent references.
PINNED_ENCODES = {
    "plain-6-4-2-q65521": (
        ["--scheme", "plain", "--n", 6, "--d", 4, "--m", 2, "--q", 65521],
        [
            "c080f6b7e94b43844eed0f3504daf3823198cf463d2743ff6b06769b3b308c5c",
            "15ac48b1df45f230ef24281e0c40818db064a0d020545f24228209fdb7e56644",
            "6dc49f5ad48fa486e2cca230e200052376ccac0113c595d53eedb027ac8965f4",
            "e913825384be24ba5e252b847c7173379bea9a1b2b09a0a333cdb91f2fb42347",
            "6c30903569bb16923ebda5be293a8daa373a8e53743801d6488d510f89af9252",
            "c444318e4003ed4829bccab70a67ab99f7dbc7108ade0a50f69f0223d481e1c6",
        ],
    ),
    "type1-7-5-2-ell2-q11": (
        ["--scheme", "type1", "--ell", 2, "--n", 7, "--d", 5, "--m", 2, "--q", 11],
        [
            "ada1d3ca8f280cb8349b42028f0d79c77fc9b2772e8dd9da2ac72ca66595314d",
            "2c8e01698a89ffa43cd3b894464299a2528242cf53de8d3c5ff471d7dc827dbe",
            "d8b22e592dafa588cd462bc2752fcf9e8b254b5cac8df55d4b662cc94cf61a30",
            "3e2e80b03bc3fe5a08ee32653e9886857386c1cbb71a468a32804cc57f339e28",
            "dd64b215f7dc1faaa8ba066ec760471f083ae75b0dada77e86dc8126b4f4a357",
            "88b32d726a07ff34cf019ff9e559370329919b14a9cde42bcf71d5166c5d07c1",
            "b84b3f5fce3b2941bc55c7961db1e3971e51e2fb19dc74e96a7ce08d80d3cb79",
        ],
    ),
    "type2-8-6-2-ell2-q11": (
        ["--scheme", "type2", "--ell", 2, "--n", 8, "--d", 6, "--m", 2, "--q", 11],
        [
            "12e4e0826360c5ad103138938b048ae07deadcd86edccdb184caf0d28608cbbd",
            "30fe02d30d2f27d723bdc780545343bd8c25c75c4554372ff3d13d11762220c7",
            "ce6d07421b34a5d7bf257021ba664f310dab94a2d5cafcb654075fc7bcefb112",
            "086f70d64bf8331911288111c3d83e75548e4fb5f6155c8facefaadacbc1276d",
            "1bdb36647bac5c565b6b8cb8b5175f493e6360f831bbfeb5589483d326969523",
            "7aaef7b7a2c589406e47881bd64cd84df8c20372209b66cb28b9b65eadcffac4",
            "b49db682d17a3c47e63a8baa1f8f683ffab9a94577c22a2f91cc3a0edbb9afb6",
            "bd5f753d5faf03e536f62bccb7c2cacb90733617fb1fa3a8e3af4c167f13721f",
        ],
    ),
}


def _encode_pinned(tmp_path, flags, data):
    """The shard paths, in node order, of ``encode --seed 2718`` on data."""
    source = tmp_path / "input.bin"
    source.write_bytes(data)
    assert run_cli("encode", source, "--out", tmp_path / "shards", *flags, "--seed", 2718) == 0
    return sorted((tmp_path / "shards").glob("shard_*.detc"))


PINNED_INPUT = bytes((7 * i + 3) % 256 for i in range(1000))


@pytest.mark.parametrize("name", list(PINNED_ENCODES))
def test_fixed_seed_encode_output_is_pinned(tmp_path, name):
    flags, digests = PINNED_ENCODES[name]
    shards = _encode_pinned(tmp_path, flags, PINNED_INPUT)
    assert [hashlib.sha256(p.read_bytes()).hexdigest() for p in shards] == digests


# SHA-256 of every shard of `encode --seed 2718` on an input of two full
# blocks and a short third one (`StripedCodec.block_stripes`), recorded
# from an earlier build: the block loop's bytes, held to a fixed reference.
# Each entry: CLI flags, (n, d, m, scheme, ell, q), input length, digests.
MULTI_BLOCK_ENCODES = {
    "type2-8-6-2-ell2-q11": (
        ["--scheme", "type2", "--ell", 2, "--n", 8, "--d", 6, "--m", 2, "--q", 11],
        (8, 6, 2, Scheme.TYPE_II, 2, 11),
        2 * 4080 + 1700,
        [
            "b6eda77600538e7fd4ec129fa01cd497906b99a49e58c7e12057ab2326cee5d8",
            "24b431b8791d2c8c206e104fe600ca4b659d2273f66dd6d0e4d9ee5762cfeaae",
            "13d7de21408adec4d856a9388fae646f651704f2c80ca434c08a8758b7dd82c5",
            "ef92c1bd297408e7a170ceecdbdf5ea1cf746fe4cf66d9cfbce66bc92cae1ae8",
            "cd21222e7d66d11adde708139992615f30a2d37b5a7c7305abb423d5ba5327a3",
            "422fa476fa8151754a1ffe403c134711077327ac2879a52886e6cb501285d335",
            "b5bb2b0cc17436d19da20d84d5d8c6af6bf00f3d338710b697400f58c484ae6d",
            "763e2ea394aadd9c5085fc560bfbbfb2ab16a4c554c72bd6759c6afc263697b1",
        ],
    ),
    "plain-14-12-4-q65521": (
        ["--scheme", "plain", "--n", 14, "--d", 12, "--m", 4, "--q", 65521],
        (14, 12, 4, Scheme.PLAIN, 0, 65521),
        2 * 77220 + 40000,
        [
            "da373dd0b64e3e45a0cafcb82d3cf2a50e8ee70047f3e65680f77b1a66e1cd2f",
            "9cf037eda88b9baf6a30c074ae6e1950270bc087f843a26b34120a14fe9f60ba",
            "08d4628f916005512353f6568d0377f4878782c18dd13ae6c9fd7d0e115fcd03",
            "bb3f5a46dbff7402f3cbd5e5660fcaaab8d9d9e7cb747e2fe135532cf306d8b5",
            "f0b8501a787bc859a299bc8e9ca95b3fc83d736a4a5f9f85a18edb571e00c10e",
            "e469a33672cb27960771b8dabaeef56f219f0a7ff2f0011f7082b1057a8d9c9a",
            "136ef601d7a9da10bd20fd868a222beb29071378dccbb98bfbc3c202f2987df1",
            "cad9fcd698d74fdc59fdf4392a63a5fa21f5ce694057e5d818f403a49fa9f46c",
            "000879ed701dcbdf560709197585528e582f6d3789bb16e0d0e2283b0dbbc3fd",
            "da5ba847e29a003f2bd5a22b1db2fe842cf4a8f6bfe5eca717a7359ffcdb0eb3",
            "1d10cbb122c5d46cf58bbc385843289c9b26e69e4c8e391081678f1197760ad4",
            "abe81b0d2fd729a3ce510c4148878ac19e0d0cbc6295aee7cc9fe7002418dc34",
            "49d335fb3893bb4b719bb66118f59d0b0be1de8893797a4c91aee9e781d5d531",
            "bb4620edb50ecb43ad1cb15c069cbc7fd7f56451a879a94e07f680c4846f66af",
        ],
    ),
    "type1-7-5-2-ell2-q11": (
        ["--scheme", "type1", "--ell", 2, "--n", 7, "--d", 5, "--m", 2, "--q", 11],
        (7, 5, 2, Scheme.TYPE_I, 2, 11),
        2 * 7020 + 2900,
        [
            "969d034d64f27b16aef561ee0a5a96733117223f860d5ced0936abccdd31aafc",
            "c9b09f54f3a8d9619d91ab00d4a5d3f55a5221ba2dcd90455dcbb6fb55fec4ca",
            "6bf73845638ac80b8830375fb55bf15238038166a016da093ed84250d9d9883d",
            "79b5a0d95655b536fa3b10d4c9983759cf3e912d94696769a9367c60becf9966",
            "f7902a638688e05210b84673cf1c41d7af1447e3cc5edf3b3d4d3a4cb45ebf7d",
            "3608036a30551c5383c0c115ee1dda963b063bd147a799c06ae60fbc01ec11b9",
            "83ab31cb7ad17335b7c84a2345f8f79374fb0b67aad16277a1d0bd59c94a2dba",
        ],
    ),
}


@pytest.mark.parametrize("name", list(MULTI_BLOCK_ENCODES))
def test_fixed_seed_multi_block_encode_is_pinned(tmp_path, name):
    flags, (n, d, m, scheme, ell, q), length, digests = MULTI_BLOCK_ENCODES[name]
    codec = StripedCodec(SecureParams(system(n, d, m, q), ell, scheme))
    block_bytes = _bytes_for(q, codec.block_stripes * codec.symbols_per_stripe)
    assert 2 * block_bytes < length < 3 * block_bytes
    shards = _encode_pinned(tmp_path, flags, hashlib.shake_256(name.encode()).digest(length))
    assert [hashlib.sha256(p.read_bytes()).hexdigest() for p in shards] == digests


@pytest.mark.parametrize("name", list(MULTI_BLOCK_ENCODES))
def test_multi_block_repair_in_any_helper_order(tmp_path, name):
    flags, (n, d, m, scheme, ell, q), length, digests = MULTI_BLOCK_ENCODES[name]
    codec = StripedCodec(SecureParams(system(n, d, m, q), ell, scheme))
    paths = _encode_pinned(tmp_path, flags, hashlib.shake_256(name.encode()).digest(length))
    assert [hashlib.sha256(p.read_bytes()).hexdigest() for p in paths] == digests
    _assert_repairs_in_both_helper_orders(codec, paths, tmp_path)


# Every pinned encode: CLI flags and input.
PINS = {
    **{name: (flags, PINNED_INPUT) for name, (flags, _) in PINNED_ENCODES.items()},
    **{
        f"multi-block-{name}": (flags, hashlib.shake_256(name.encode()).digest(length))
        for name, (flags, _, length, _) in MULTI_BLOCK_ENCODES.items()
    },
}
KEYED_PINS = {name: pin for name, pin in PINS.items() if "plain" not in name}


def _pinned_messages(tmp_path, name):
    """The secure parameters and every stripe's message matrix, (d, stripes,
    alpha), of a pinned encode, decoded from the last d shards with Psi_K^-1
    (exact GFMatrix algebra, not the codec's float batches)."""
    shards = [read_shard(p) for p in _encode_pinned(tmp_path, *PINS[name])]
    sparams = shards[0].header.secure_params()
    params = sparams.base
    chosen = shards[params.n - params.d :]
    psi_k = vandermonde_encoder(params).submatrix(
        [s.header.node_id - 1 for s in chosen], range(params.d)
    )
    C = GFMatrix(params.q, np.stack([s.symbols.astype(np.int64) for s in chosen]))
    return sparams, (psi_k.inv() @ C).a.reshape(params.d, -1, params.alpha)


@pytest.mark.parametrize("name", list(PINS))
def test_pinned_secrets_are_the_reference_packing(tmp_path, name):
    # Stripe 0's secret cells, in the layout's order, hold the first input
    # bytes as packed by the pure-Python references: 7 base-11 digits per 3
    # bytes at q = 11, 15-bit slices at q = 65521.
    sparams, M = _pinned_messages(tmp_path, name)
    rows, cols = build_layout(sparams).secret_index
    secrets, q, data = M[rows, 0, cols].tolist(), sparams.base.q, PINS[name][1]
    if q == 11:
        expected = _ref_radix_pack(data[: len(secrets) // 7 * 3], q)
    else:
        expected = _ref_pack_bytes(data, q)[: len(secrets)].tolist()
    assert len(secrets) - 7 < len(expected) <= len(secrets)
    assert secrets[: len(expected)] == expected


@pytest.mark.parametrize("name", list(KEYED_PINS))
def test_pinned_keys_are_the_reference_key_stream(tmp_path, name):
    # The key slots of every stripe's message matrix, one stripe after
    # another, must hold the word-by-word reference stream of the seed.
    sparams, M = _pinned_messages(tmp_path, name)
    params, key_rows, key_cols = sparams.base, *build_layout(sparams).key_index
    keys = M[key_rows, :, key_cols].T  # (stripes, key slots)
    assert keys.size > 0
    assert keys.reshape(-1).tolist() == keystream_reference(2718, params.q, keys.size)


def test_cli_encode_recover_repair(tmp_path):
    data = bytes(np.random.default_rng(1).integers(0, 256, 4096, dtype=np.uint8))
    inp = tmp_path / "in.bin"
    inp.write_bytes(data)
    out = tmp_path / "shards"
    assert run_cli(
        "encode", inp, "--out", out, "--n", 8, "--d", 6, "--m", 2,
        "--scheme", "type1", "--ell", 2, "--seed", 11,
    ) == 0
    files = sorted(out.glob("shard_*.detc"))
    assert len(files) == 8
    rec = tmp_path / "rec.bin"
    assert run_cli("recover", *files[:6], "--out", rec) == 0
    assert rec.read_bytes() == data
    # delete shard 4, repair it, byte-compare
    lost = out / "shard_004.detc"
    original = lost.read_bytes()
    lost.unlink()
    helpers = sorted(out.glob("shard_*.detc"))[:6]
    assert run_cli("repair", *helpers, "--failed", 4, "--out", lost) == 0
    assert lost.read_bytes() == original


def test_cli_repair_reports_bandwidth_and_bytes_read(tmp_path, capsys):
    _, files = _cli_encoded(tmp_path, 5000)
    capsys.readouterr()
    assert run_cli("repair", *files[1:7], "--failed", 1, "--out", tmp_path / "rebuilt.detc") == 0
    # 5000 bytes are 1667 groups of 3 bytes, 11,669 7-digit symbols, 584
    # stripes of F_s = 20; each helper stores 584 * alpha = 8760 4-bit
    # symbols, 4380 payload bytes.
    header = read_shard(files[1]).header
    assert (header.payload_symbols, header.payload_bytes) == (584 * 15, 4380)
    out = capsys.readouterr().out
    assert "paper's repair bandwidth 17520 symbols (stripes x d x beta, beta=5)" in out  # 584 * 6 * 5
    assert "read 26280 helper payload bytes (whole shards)" in out  # 6 * 4380


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_cli_closed_stdout_exits_quietly(buffered):
    # A reader that leaves early (`| head`) is not a fault of the input: no
    # `error:` line and no traceback, and exit 141 (128 + SIGPIPE), whether
    # the first write or the final flush meets the closed pipe.
    src = str(Path(detcodes.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "detcodes", "audit", "--n", "8", "--d", "6", "--m", "2",
             "--scheme", "type2", "--ell", "2"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60, env=env,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")


def test_cli_recover_insufficient_shards_fails(tmp_path):
    inp = tmp_path / "in.bin"
    inp.write_bytes(b"abc")
    out = tmp_path / "sh"
    run_cli("encode", inp, "--out", out, "--n", 8, "--d", 6, "--m", 2, "--seed", 1)
    files = sorted(out.glob("*.detc"))
    rc = run_cli("recover", *files[:5], "--out", tmp_path / "r.bin")
    assert rc != 0


def test_cli_audit_pass_and_output(capsys):
    assert run_cli(
        "audit", "--n", 7, "--d", 5, "--m", 2, "--scheme", "type2", "--ell", 2
    ) == 0
    text = capsys.readouterr().out
    assert "PASS" in text
    assert "Fs=" in text and "alpha=5" not in text


def test_cli_audit_reports_parameters(capsys):
    run_cli("audit", "--n", 8, "--d", 6, "--m", 2, "--scheme", "type1", "--ell", 2)
    text = capsys.readouterr().out
    assert "F=70 alpha=15 beta=5" in text
    assert "Fs=40 keys=30" in text
    assert "audited 36 eavesdropper sets" in text


def test_cli_audit_ell_zero_rejected(capsys):
    # The default cap is ell; at ell = 0 there is no set to audit, so no verdict.
    assert run_cli("audit", "--n", 6, "--d", 4, "--m", 2, "--scheme", "plain") == 2
    out, err = capsys.readouterr()
    assert out == "" and "max set size (default ell)" in err


def test_cli_refuses_n_equals_d(tmp_path, capsys):
    # At n = d a failed node has only n - 1 = d - 1 other nodes, so no
    # repair can draw on d helpers: encode writes nothing and audit, which
    # would audit traffic that repair never sends, prints nothing.
    code = ["--n", 6, "--d", 6, "--m", 2, "--scheme", "type2", "--ell", 1, "--q", 11]
    src = tmp_path / "in.bin"
    src.write_bytes(os.urandom(3000))
    out = tmp_path / "new" / "shards"
    assert run_cli("encode", src, "--out", out, *code, "--seed", 1) == 2
    assert run_cli("audit", *code) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.count("d < n; got n=6, d=6") == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.bin"]


def test_shards_written_with_n_equals_d_still_recover():
    # Earlier versions encoded n = d codes.  Psi's row i and the keys do not
    # depend on n, so shards 1..6 of a (7,6,2) encode, with n = 6 in their
    # headers, are what such a version wrote for (6,6,2): they still open and
    # recover.
    data = os.urandom(5000)
    shards = make_codec(n=7).encode_file(data, seed=5, seed_present=True)
    old = []
    for shard in shards[:6]:
        raw = shard.to_bytes()
        header = ShardHeader.from_bytes(raw)
        old.append(Shard.from_bytes(replace(header, n=6).to_bytes() + raw[header.size :]))
    codec = StripedCodec(old[0].header.secure_params())
    assert codec.recover_file(old[::-1]) == data
    with pytest.raises(ValueError, match="d < n; got n=6, d=6"):
        codec.encode_file(data, seed=5, seed_present=True)


BENCH_REFERENCES = sorted((Path(__file__).parents[1] / "perfbench" / "reference").glob("audit-*.csv"))


@pytest.mark.parametrize("ref", BENCH_REFERENCES, ids=lambda ref: ref.stem)
def test_cli_audit_matches_benchmark_reference(capsys, ref):
    # The benchmark checks its audit CSVs against these references.  The
    # file name holds the flags, audit-SCHEME-nN-dD-mM-ellL-qQ.csv, and the
    # file the output from the CSV header up to the `audited` line.
    _, scheme, *fields = ref.stem.split("-")
    argv = ["audit", "--scheme", scheme]
    for field in fields:
        name, value = re.fullmatch(r"([a-z]+)(\d+)", field).groups()
        argv += [f"--{name}", value]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    end = next(i for i, line in enumerate(lines) if line.startswith("audited "))
    assert lines[lines.index(AUDIT_CSV_HEADER) : end] == ref.read_text().splitlines()


def test_cli_audit_field_beyond_int64_products_exit_code(capsys):
    # 4294967311 is prime, but (q-1)^2 exceeds 2^62: int64 cannot hold
    # even one product of residues, so the audit refuses the field.
    rc = run_cli(
        "audit", "--n", 8, "--d", 6, "--m", 2, "--scheme", "type2", "--ell", 2,
        "--q", 4294967311,
    )
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: GF(4294967311) arithmetic needs") and "Traceback" not in err


@pytest.mark.parametrize("cap", [-1, 0, 9])
def test_cli_audit_max_set_size_out_of_range_exit_code(capsys, cap):
    rc = run_cli(
        "audit", "--n", 8, "--d", 6, "--m", 2, "--scheme", "type2", "--ell", 2,
        "--max-set-size", cap,
    )
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: max set size") and "Traceback" not in err


def test_cli_tradeoff_and_pareto(capsys):
    assert run_cli("tradeoff", "--d", "10", "--ell", "2", "--scheme", "type2") == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert len(rows) == 11
    pareto_flags = [r.split(",")[9] for r in rows[1:]]
    assert pareto_flags[:2] == ["true", "true"] and set(pareto_flags[2:]) == {"false"}
    assert run_cli("pareto", "--d", 10, "--ell", 2) == 0
    out = capsys.readouterr().out
    assert "1,2" in out and "2" in out


@pytest.mark.parametrize(
    "d,ell,scheme",
    [(5, -1, "type1"), (5, 9, "type1"), (4, 2, "plain"), (0, 1, "type2"), (5, -1, "type2")],
)
def test_cli_pareto_rejects_invalid_budget_before_printing(capsys, d, ell, scheme):
    assert run_cli("pareto", "--d", d, "--ell", ell, "--scheme", scheme) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "d,ell,scheme", [("5", "9", "type1"), ("0", "0", "plain,type1,type2"), ("3", "1", "plain")]
)
def test_cli_tradeoff_without_valid_pairs_fails(capsys, d, ell, scheme):
    assert run_cli("tradeoff", "--d", d, "--ell", ell, "--scheme", scheme) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: no (scheme, d, ell)")


def test_cli_tradeoff_prints_only_the_valid_pairs(capsys):
    assert run_cli("tradeoff", "--d", "5", "--ell", "3..9", "--scheme", "type1") == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [r.split(",")[2] for r in rows] == ["3"] * 5 + ["4"] * 5


def test_cli_invalid_params_exit_code(tmp_path):
    inp = tmp_path / "x"
    inp.write_bytes(b"x")
    rc = run_cli(
        "encode", inp, "--out", tmp_path / "o", "--n", 8, "--d", 6, "--m", 2,
        "--q", 12,
    )
    assert rc == 2


def test_cli_module_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "detcodes", "pareto", "--d", "10", "--ell", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "1,2" in proc.stdout


@pytest.mark.parametrize("seed", [-1, 2**256], ids=["negative", "2^256"])
def test_cli_seed_out_of_range_exit_code(tmp_path, capsys, seed):
    inp = tmp_path / "x"
    inp.write_bytes(b"x")
    for scheme, ell in (("type2", 2), ("plain", 0)):
        rc = run_cli(
            "encode", inp, "--out", tmp_path / "o", "--n", 8, "--d", 6, "--m", 2,
            "--scheme", scheme, "--ell", ell, "--seed", seed,
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: seed") and "Traceback" not in err


def test_cli_out_of_field_shard_exit_code(tmp_path, capsys):
    inp = tmp_path / "in.bin"
    inp.write_bytes(b"hello")
    out = tmp_path / "sh"
    assert run_cli("encode", inp, "--out", out, "--n", 8, "--d", 6, "--m", 2,
                   "--q", 11, "--seed", 3) == 0
    files = sorted(out.glob("*.detc"))
    raw = bytearray(files[0].read_bytes())
    raw[-1] |= 0x0F  # the low nibble of the last byte holds a symbol
    files[0].write_bytes(bytes(raw))
    capsys.readouterr()
    assert run_cli("recover", *files[:6], "--out", tmp_path / "r.bin") == 2
    assert run_cli("repair", *files[:6], "--failed", 8, "--out", tmp_path / "r.detc") == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("error: ") for line in err)
    assert "outside GF(11)" in err[0]


@pytest.mark.parametrize("node", [0, 99])
def test_cli_node_id_outside_header_range_exit_code(tmp_path, capsys, node):
    inp = tmp_path / "in.bin"
    inp.write_bytes(b"hello")
    out = tmp_path / "sh"
    assert run_cli("encode", inp, "--out", out, "--n", 8, "--d", 6, "--m", 2, "--seed", 3) == 0
    files = sorted(out.glob("*.detc"))
    raw = bytearray(files[0].read_bytes())
    raw[32:36] = node.to_bytes(4, "little")  # the node id field of the header
    files[0].write_bytes(bytes(raw))
    capsys.readouterr()
    assert run_cli("recover", *files[:6], "--out", tmp_path / "r.bin") == 2
    assert run_cli("repair", *files[:6], "--failed", 8, "--out", tmp_path / "r.detc") == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: node id {node} outside [1, n=8]"] * 2


@pytest.mark.parametrize(
    "n,d,m,q", [(45, 40, 20, 47), (400, 400, 400, 401)], ids=["message", "encoder"]
)
def test_cli_hostile_header_rejected_quickly(tmp_path, capsys, n, d, m, q):
    # A bare 52-byte header may claim any code; its tables are bounded
    # before they are built: d*C(d,m) = 5.5e12 cells, or a 400 x 400 Psi.
    header = ShardHeader(FORMAT_VERSION, Scheme.PLAIN, q, n, d, m, 0, 1, 0, False, 0, 0)
    path = tmp_path / "shard_001.detc"
    path.write_bytes(header.to_bytes())
    start = time.perf_counter()
    assert run_cli("recover", path, "--out", tmp_path / "r.bin") == 2
    assert run_cli("repair", path, "--failed", 2, "--out", tmp_path / "r.detc") == 2
    assert time.perf_counter() - start < 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all(line.startswith("error: ") and f"limit is {MAX_TABLE_CELLS}" in line for line in err)


def test_cli_zero_capacity_shards_recover_and_repair_without_warnings(tmp_path, capsys):
    # Type-II with m = 5 > d - ell = 3 stores keys only: an empty file
    # encodes, recovers and repairs, and no op warns.
    (tmp_path / "empty.bin").write_bytes(b"")
    flags = ["--n", 8, "--d", 6, "--m", 5, "--scheme", "type2", "--ell", 3, "--seed", 1]
    files = [tmp_path / "s" / f"shard_{i:03d}.detc" for i in range(1, 9)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("encode", tmp_path / "empty.bin", "--out", tmp_path / "s", *flags) == 0
        assert run_cli("recover", *files[:6], "--out", tmp_path / "r.bin") == 0
        assert run_cli("repair", *files[1:7], "--failed", 1, "--out", tmp_path / "r.detc") == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "r.bin").read_bytes() == b""
    assert (tmp_path / "r.detc").read_bytes() == files[0].read_bytes()


HEADER_FIELDS = [
    "version", "scheme-tag", "q", "n", "d", "m", "ell", "node-id",
    "payload-symbols", "seed-present", "original-length", "padding-symbols",
]


@pytest.mark.parametrize("field", range(len(HEADER_FIELDS)), ids=HEADER_FIELDS)
def test_cli_header_field_edits_give_the_file_or_exit_2(tmp_path, capsys, field):
    # One 4-byte field of the v2 header (after the magic) set to each
    # value, in node 1's shard or in every shard.  With every warning an
    # error, recover and repair each either exit 0 with the file, or with
    # node 8's payload under the helpers' header, or exit 2 with one error
    # line, in bounded time.
    data, files = _cli_encoded(tmp_path / "a", 5000)
    originals = [p.read_bytes() for p in files]
    at = 4 + 4 * field
    values = [0, 1, 2, 3, 5, 11, 65521, 65537, 2**31 - 1, 2**32 - 1]
    for value, everywhere in product(values, (False, True)):
        for path, raw in zip(files, originals):
            edit = everywhere or path == files[0]
            path.write_bytes(raw[:at] + value.to_bytes(4, "little") + raw[at + 4 :] if edit else raw)
        for command, extra in (("recover", []), ("repair", ["--failed", 8])):
            out = tmp_path / command
            out.unlink(missing_ok=True)
            capsys.readouterr()
            start = time.perf_counter()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rc = run_cli(command, *files[:6], *extra, "--out", out)
            assert time.perf_counter() - start < 2
            err = capsys.readouterr().err.splitlines()
            case = (HEADER_FIELDS[field], value, everywhere, command, err)
            if rc == 0:
                head = ShardHeader.from_bytes(files[0].read_bytes())
                repaired = replace(head, node_id=8).to_bytes() + originals[7][head.size :]
                assert out.read_bytes() == (data if command == "recover" else repaired), case
            else:
                assert rc == 2 and len(err) == 1 and err[0].startswith("error: "), case


@pytest.mark.parametrize(
    "flags,message",
    [
        (("--n", 16, "--d", 14, "--m", 7, "--scheme", "type1", "--ell", 2), "audit limit is 16777216"),
        (("--n", 60, "--d", 50, "--m", 25), "audit limit is 16777216"),
        (("--n", 3000, "--d", 6, "--m", 2, "--scheme", "type1", "--ell", 3), "audit limit is 4096 sets"),
        (("--n", 10**9, "--d", 6, "--m", 2, "--scheme", "type1", "--ell", 1), "audit limit is 4096 sets"),
        (("--n", 10**12, "--d", 6, "--m", 2, "--scheme", "type1", "--ell", 1), "needs 2 <= q <= 2^31 + 1"),
        (("--n", 8, "--d", 6, "--m", 2, "--q", 2**61 - 1), "needs 2 <= q <= 2^31 + 1"),
        (("--n", 2000001, "--d", 2000000, "--m", 1000000, "--q", 2000003), "audit limit is 16777216"),
    ],
    ids=["cell-maps", "fill-order", "sets", "nodes", "default-q", "huge-q", "huge-d"],
)
def test_cli_audit_oversized_code_rejected_quickly(capsys, flags, message):
    # d*C(d,m)*F cells: 2.2e9 int64 entries (16 GiB) at (16,14,7), and
    # C(50,25) = 1.3e14 fill-order cells at (60,50,25); C(3000,3) = 4.5e9
    # sets, or 10^9 one-node sets (a 7 TiB Psi); no prime q above n = 10^12
    # that int64 arithmetic can hold; a prime q = 2^61 - 1 refused
    # before it is tested for primality; and d = 2*10^6, whose C(d, d/2)
    # of 600,000 digits is refused on d^2 cells before it is computed.
    start = time.perf_counter()
    assert run_cli("audit", *flags) == 2
    assert time.perf_counter() - start < 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (("encode", "in.bin", "--out", "sh", "--n", 8, "--d", 6, "--m", 2, "--q", 2**61 - 1),
         "needs 2 <= q <= 2^31 + 1"),
        (("encode", "in.bin", "--out", "sh", "--n", 10**12, "--d", 6, "--m", 2),
         "needs 2 <= q <= 2^31 + 1"),
        (("encode", "in.bin", "--out", "sh", "--n", 20001, "--d", 20000, "--m", 10000, "--q", 20011),
         "the codec limit is 131072"),
        (("pareto", "--d", 100000, "--ell", 0, "--scheme", "type1"), "trade-off limit d <= 1000"),
        (("pareto", "--d", 100000, "--ell", 2), "trade-off limit d <= 1000"),
        (("tradeoff", "--d", "1..1000000000", "--ell", 0), "holds more than 1001 values"),
        (("tradeoff", "--d", "6", "--ell", "0..1000000000"), "holds more than 1001 values"),
        (("tradeoff", "--d", "1001", "--ell", 0), "trade-off limit d <= 1000"),
        (("tradeoff", "--d", "1..1000", "--ell", 0), "trade-off limit is 10000"),
    ],
    ids=["encode-huge-q", "encode-default-q", "encode-huge-d", "pareto-type1", "pareto-type2",
         "tradeoff-d-range", "tradeoff-ell-range", "tradeoff-d", "tradeoff-rows"],
)
def test_cli_oversized_request_rejected_quickly(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.bin").write_bytes(b"hello")
    start = time.perf_counter()
    assert run_cli(*argv) == 2
    assert time.perf_counter() - start < 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and message in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.bin"]


@pytest.mark.parametrize("command", ["recover", "repair"])
def test_cli_partial_stripe_payload_exit_code(tmp_path, capsys, command):
    # One extra symbol per shard, with payload_symbols raised to match in
    # every header: the headers agree, but the payload ends mid-stripe.
    inp = tmp_path / "in.bin"
    inp.write_bytes(b"hello")
    out = tmp_path / "sh"
    assert run_cli("encode", inp, "--out", out, "--n", 8, "--d", 6, "--m", 2, "--seed", 3) == 0
    files = sorted(out.glob("*.detc"))
    for path in files:
        raw = bytearray(path.read_bytes())
        count = int.from_bytes(raw[36:40], "little")  # the payload_symbols field
        raw[36:40] = (count + 1).to_bytes(4, "little")
        header = ShardHeader.from_bytes(bytes(raw))
        path.write_bytes(bytes(raw).ljust(header.size + header.payload_bytes, b"\0"))
    capsys.readouterr()
    if command == "recover":
        rc = run_cli("recover", *files[:6], "--out", tmp_path / "r.bin")
    else:
        rc = run_cli("repair", *files[:6], "--failed", 8, "--out", tmp_path / "r.detc")
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "error: payload length is not a whole number of stripes\n"


# -- streaming CLI: faults leave outputs untouched, memory is flat ---------------

TYPE2_FLAGS = ["--n", 8, "--d", 6, "--m", 2, "--scheme", "type2", "--ell", 2, "--q", 11]


def _cli_encoded(directory, size, seed=3):
    """CLI-encoded Type-II (8,6,2,ell=2,q=11) shards of ``size`` random bytes."""
    directory.mkdir(parents=True, exist_ok=True)
    data = np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8).tobytes()
    (directory / "in.bin").write_bytes(data)
    out = directory / "shards"
    assert run_cli("encode", directory / "in.bin", "--out", out, *TYPE2_FLAGS, "--seed", seed) == 0
    return data, sorted(out.glob("shard_*.detc"))


def _tree(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _with_byte(raw, at, value):
    at %= len(raw)
    return raw[:at] + bytes([value]) + raw[at + 1 :]


# Faults in one v3 shard of a Type-II (q = 11) file: 4-bit symbols, two per
# byte, the earlier one in the low nibble; the 68-byte header comes first.
# The payload holds an odd number of symbols, so its last high nibble is pad.
SHARD_FAULTS = {
    "truncated": (lambda raw: raw[:-1], "payload is"),
    "extended": (lambda raw: raw + b"\0", "payload is"),
    "out-of-field-in-first-block": (
        lambda raw: _with_byte(raw, 68, raw[68] | 0x0F), "holds symbols outside GF(11)"
    ),
    "out-of-field-in-last-block": (
        lambda raw: _with_byte(raw, -1, raw[-1] | 0x0F), "holds symbols outside GF(11)"
    ),
    "nonzero-pad-bits": (lambda raw: _with_byte(raw, -1, raw[-1] | 0x10), "has nonzero pad bits"),
    "v1-shard": (lambda raw: (V1_TYPE2 / "shard_001.detc").read_bytes(), "belongs to a different object"),
}


# Block decoding checks every shard's rows of a block at once, so a fault
# must name its own node whether its shard is read first or later: node 1
# is read first by both commands, node 4 fourth.
NAMED_FAULTS = ["out-of-field-in-first-block", "out-of-field-in-last-block", "nonzero-pad-bits"]


@pytest.mark.parametrize("command", ["recover", "repair"])
@pytest.mark.parametrize(
    "fault,node",
    [pytest.param(fault, 1, id=fault) for fault in [*SHARD_FAULTS, "mixed-objects"]]
    + [pytest.param(fault, 4, id=f"{fault}-node4") for fault in NAMED_FAULTS],
)
def test_cli_faulty_shard_leaves_output_untouched(tmp_path, capsys, command, fault, node):
    # An odd number of stripes, over four blocks, by the packing rule.
    codec = make_codec()
    size = _bytes_for(11, (4 * codec.block_stripes + 1) * codec.symbols_per_stripe)
    data, files = _cli_encoded(tmp_path / "a", size)
    symbols = read_shard(files[0]).header.payload_symbols
    assert symbols > 4 * codec.block_stripes * 15 and symbols % 2 == 1
    bad = files[node - 1]
    if fault == "mixed-objects":
        _, others = _cli_encoded(tmp_path / "b", size + 1)
        bad.write_bytes(others[0].read_bytes())
        message = "belongs to a different object"
    else:
        corrupt, message = SHARD_FAULTS[fault]
        bad.write_bytes(corrupt(bad.read_bytes()))
    if fault in NAMED_FAULTS:
        message = f"shard for node {node} {message}"
    out = tmp_path / "out"
    out.write_bytes(b"earlier contents")
    before = _tree(tmp_path)
    capsys.readouterr()
    if command == "recover":
        rc = run_cli("recover", *files[:6], "--out", out)
    else:
        rc = run_cli("repair", *files[:6], "--failed", 8, "--out", out)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err
    assert _tree(tmp_path) == before  # no output replaced, no *.tmp left


@pytest.mark.parametrize("command", ["recover", "repair"])
def test_cli_shards_of_another_file_with_the_same_header_rejected(tmp_path, capsys, command):
    # Two files of one length, the same flags and seed: every header field
    # but the object id agrees, so only the id tells their shards apart.
    shards = {}
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        source = tmp_path / name / "in.bin"
        source.write_bytes(os.urandom(5000))
        assert run_cli("encode", source, "--out", tmp_path / name / "s", *TYPE2_FLAGS, "--seed", 1) == 0
        shards[name] = sorted((tmp_path / name / "s").glob("shard_*.detc"))
    a, b = (read_shard(shards[name][0]).header for name in "ab")
    assert a.object_id != b.object_id and replace(a, object_id=b.object_id) == b
    files = [shards["b"][0], *shards["a"][1:6]]
    out = tmp_path / "out"
    out.write_bytes(b"earlier contents")
    before = _tree(tmp_path)
    capsys.readouterr()
    if command == "recover":
        rc = run_cli("recover", *files, "--out", out)
    else:
        rc = run_cli("repair", *files, "--failed", 8, "--out", out)
    assert rc == 2
    assert capsys.readouterr().err == "error: shard for node 2 belongs to a different object\n"
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("command", ["recover", "repair"])
@pytest.mark.parametrize("alias", [False, True], ids=["same-path", "hard-link"])
def test_cli_out_naming_an_input_shard_is_refused(tmp_path, capsys, command, alias):
    # Replacing an input would destroy it, under any name of the same file.
    _, files = _cli_encoded(tmp_path, 5000)
    out = files[2]
    if alias:
        out = tmp_path / "alias.detc"
        os.link(files[2], out)
    before = _tree(tmp_path)
    capsys.readouterr()
    if command == "recover":
        rc = run_cli("recover", *files[1:7], "--out", out)
    else:
        rc = run_cli("repair", *files[1:7], "--failed", 1, "--out", out)
    assert rc == 2
    assert capsys.readouterr().err == f"error: {out} is one of the input shards\n"
    assert _tree(tmp_path) == before  # every file byte-identical, no *.tmp left


def test_cli_encode_over_a_directory_target_replaces_no_shard(tmp_path, capsys):
    # No rename can put a shard over a directory; the refusal comes before
    # any shard is replaced, so the old file keeps its 7 regular shards,
    # more than d = 6, instead of 5 of them.
    data, files = _cli_encoded(tmp_path, 5000)
    files[2].unlink()
    files[2].mkdir()
    other = tmp_path / "other.bin"
    other.write_bytes(os.urandom(5000))
    before = _tree(tmp_path)
    capsys.readouterr()
    assert run_cli("encode", other, "--out", files[0].parent, *TYPE2_FLAGS, "--seed", 4) == 2
    assert _tree(tmp_path) == before  # every shard byte-identical, no *.tmp left
    assert capsys.readouterr().err == f"error: {files[2]} is a directory\n"
    back = tmp_path / "back.bin"
    assert run_cli("recover", *files[:2], *files[3:7], "--out", back) == 0
    assert back.read_bytes() == data


@pytest.mark.parametrize("command", ["recover", "repair"])
def test_cli_out_naming_a_directory_is_refused_before_any_read(tmp_path, capsys, monkeypatch, command):
    _, files = _cli_encoded(tmp_path, 5000)
    out = tmp_path / "out"
    out.mkdir()

    def no_payload_read(*args):
        raise AssertionError("a payload was read")

    monkeypatch.setattr(ShardFile, "read_payload", no_payload_read)
    before = _tree(tmp_path)
    capsys.readouterr()
    if command == "recover":
        rc = run_cli("recover", *files[1:7], "--out", out)
    else:
        rc = run_cli("repair", *files[1:7], "--failed", 1, "--out", out)
    assert rc == 2
    assert capsys.readouterr().err == f"error: {out} is a directory\n"
    assert _tree(tmp_path) == before and out.is_dir()


def test_cli_out_symlink_to_a_directory_is_replaced(tmp_path):
    # The refusal looks at the path itself (os.lstat): a symlink, even to a
    # directory, is replaced by the output as before, and its target kept.
    data, files = _cli_encoded(tmp_path, 5000)
    (tmp_path / "dir").mkdir()
    link = tmp_path / "link"
    link.symlink_to(tmp_path / "dir")
    assert run_cli("recover", *files[1:7], "--out", link) == 0
    assert not link.is_symlink() and link.read_bytes() == data and (tmp_path / "dir").is_dir()


def test_cli_type_ii_shards_store_four_bits_per_symbol(tmp_path):
    # (8,6,2) Type-II at q = 11: 3 input bytes in 7 symbols, 20 of them per
    # stripe, and 15 stored symbols per stripe, 4 bits each.
    data, files = _cli_encoded(tmp_path, 10_000)
    stripes = -(-(7 * -(-len(data) // 3)) // 20)
    assert stripes == 1167
    for path in files:
        header = read_shard(path).header
        assert header.version == FORMAT_VERSION == 3 and header.payload_symbols == 15 * stripes
        assert path.stat().st_size == 68 + -(-stripes * 15 * 4 // 8)
    total = sum(p.stat().st_size for p in files)
    assert 6.9 < total / len(data) < 7.1


@pytest.mark.parametrize(
    "delta, message",
    [
        (100, "input ended after 16384 of 16484 bytes"),
        (-100, "input is longer than 16284 bytes"),
        (2**32 - 16384, "a 4294967296-byte input does not fit the shard format"),
    ],
    ids=["shorter-than-fstat", "longer-than-fstat", "over-4-GiB"],
)
def test_cli_encode_input_size_faults_leave_output_untouched(
    tmp_path, capsys, monkeypatch, delta, message
):
    # The input's size comes from fstat before the shard headers are written;
    # it must fit their 32-bit fields, and reading must then find exactly
    # that many bytes.
    inp = tmp_path / "in.bin"
    inp.write_bytes(bytes(range(256)) * 64)
    earlier = tmp_path / "earlier"
    earlier.mkdir()
    (earlier / "shard_001.detc").write_bytes(b"earlier shard")
    before = _tree(tmp_path)
    fstat = os.fstat

    def misreported_fstat(fd):
        st = fstat(fd)
        return os.stat_result((*st[:6], st.st_size + delta, *st[7:10]))

    monkeypatch.setattr(os, "fstat", misreported_fstat)
    capsys.readouterr()
    for out in (earlier, tmp_path / "new" / "dir"):
        assert run_cli("encode", inp, "--out", out, *TYPE2_FLAGS, "--seed", 1) == 2
    monkeypatch.undo()
    assert capsys.readouterr().err == f"error: {message}\n" * 2
    assert _tree(tmp_path) == before and not (tmp_path / "new").exists()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
@pytest.mark.parametrize("command", ["encode", "recover", "repair"])
def test_cli_fifo_input_exits_2_in_bounded_time(tmp_path, command):
    # A plain open of a FIFO that has no writer waits for one.  Every input
    # must be refused as not a regular file before it is read, so the
    # command runs in a child process whose timeout fails the test instead
    # of hanging the suite.
    _, files = _cli_encoded(tmp_path / "a", 1000)
    fifo, out = tmp_path / "fifo", tmp_path / "out"
    os.mkfifo(fifo)
    argv = {
        "encode": ["encode", fifo, "--out", out, *TYPE2_FLAGS],
        "recover": ["recover", fifo, *files[1:6], "--out", out],
        "repair": ["repair", *files[1:6], fifo, "--failed", 1, "--out", out],
    }[command]
    before = _tree(tmp_path)
    src = str(Path(detcodes.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "detcodes", *map(str, argv)],
        capture_output=True, text=True, timeout=30, env=env,
    )
    assert proc.returncode == 2
    assert proc.stderr == f"error: {fifo} is not a regular file\n"
    assert _tree(tmp_path) == before and not out.exists()


def test_cli_encode_reports_storage_expansion(tmp_path, capsys):
    inp = tmp_path / "in.bin"
    inp.write_bytes(bytes(1000))
    capsys.readouterr()
    assert run_cli("encode", inp, "--out", tmp_path / "s", *TYPE2_FLAGS, "--seed", 1) == 0
    stored = sum(p.stat().st_size for p in (tmp_path / "s").iterdir())
    out = capsys.readouterr().out
    assert out.rstrip().endswith(f"stored {stored} bytes, storage expansion {stored / 1000:.2f}x")


def test_cli_streaming_memory_is_flat_in_file_size(tmp_path):
    # tracemalloc sees numpy's buffers.  Encode, recover and repair through
    # the CLI must peak within 1 MiB of the same op on a 16x smaller file.
    def peaks(size):
        work = tmp_path / str(size)
        work.mkdir()
        inp = work / "in.bin"
        inp.write_bytes(np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8).tobytes())
        files = [work / "shards" / f"shard_{i:03d}.detc" for i in range(1, 9)]
        ops = {
            "encode": ["encode", inp, "--out", work / "shards", *TYPE2_FLAGS, "--seed", 5],
            "recover": ["recover", *files[2:], "--out", work / "out.bin"],
            "repair": ["repair", *files[1:7], "--failed", 1, "--out", work / "rebuilt.detc"],
        }
        result = {}
        for name, argv in ops.items():
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            assert run_cli(*argv) == 0
            result[name] = tracemalloc.get_traced_memory()[1] - before
        assert (work / "out.bin").read_bytes() == inp.read_bytes()
        assert (work / "rebuilt.detc").read_bytes() == files[0].read_bytes()
        return result

    tracemalloc.start()
    try:
        peaks(1000)  # warm up lazily built tables
        small, large = peaks(64 * 1024), peaks(1 << 20)
    finally:
        tracemalloc.stop()
    for name in small:
        assert large[name] - small[name] <= 1 << 20, (name, small[name], large[name])
