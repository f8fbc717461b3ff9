import subprocess
import sys
import time
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from detcodes.cli import main
from detcodes.code import (
    encode,
    recover_message,
    repair_encoder,
    repair_node,
    repair_packet,
    system,
)
from detcodes.secure import Scheme, SecureParams, assemble, extract_secrets
from detcodes.subsets import ind
from detcodes.shards import (
    FORMAT_VERSION,
    MAX_TABLE_CELLS,
    Shard,
    ShardFormatError,
    ShardHeader,
    StripedCodec,
    codec_for_headers,
    pack_bytes,
    read_shard,
    symbol_width,
    unpack_bytes,
    write_shard,
)


def make_codec(scheme=Scheme.TYPE_II, ell=2, n=8, d=6, m=2):
    return StripedCodec(SecureParams(system(n, d, m), ell, scheme))


def test_symbol_width():
    assert symbol_width(11) == 3
    assert symbol_width(7) == 2
    assert symbol_width(2) == 1
    assert symbol_width(65521) == 15


@settings(max_examples=50, deadline=None)
@given(st.binary(max_size=300), st.sampled_from([3, 5, 7, 11, 13, 251, 65521]))
def test_pack_unpack_roundtrip(data, q):
    syms = pack_bytes(data, q)
    assert syms.size == 0 or syms.max() < q
    assert unpack_bytes(syms, q, len(data)) == data


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
    w = symbol_width(q)
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    pad = (-len(bits)) % w
    if pad:
        bits = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
    weights = (1 << np.arange(w - 1, -1, -1)).astype(np.int64)
    return bits.reshape(-1, w).astype(np.int64) @ weights


def _ref_unpack_bytes(symbols, q, byte_length):
    w = symbol_width(q)
    symbols = np.asarray(symbols, dtype=np.int64)
    shifts = np.arange(w - 1, -1, -1)
    bits = ((symbols[:, None] >> shifts) & 1).astype(np.uint8).reshape(-1)
    return np.packbits(bits[: 8 * byte_length]).tobytes()


@pytest.mark.parametrize(
    "w,q", list(enumerate(PRIMES_BY_WIDTH, start=1)), ids=[f"w{w}" for w in range(1, 16)]
)
def test_packing_matches_bit_array_reference(w, q):
    assert symbol_width(q) == w
    rng = np.random.default_rng(q)
    for length in range(3 * w + 2):
        for data in (rng.bytes(length), b"\xff" * length):
            syms = pack_bytes(data, q)
            assert syms.dtype == np.uint16
            assert np.array_equal(syms, _ref_pack_bytes(data, q))
            assert unpack_bytes(syms, q, length) == data
            # Any symbols below q, some at or above 2^w, one to spare:
            # only the low w bits of the first ceil(8 length / w) count.
            noise = rng.integers(0, q, len(syms) + 1)
            assert unpack_bytes(noise, q, length) == _ref_unpack_bytes(noise, q, length)


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=200), st.sampled_from(PRIMES_BY_WIDTH))
def test_packing_matches_bit_array_reference_property(data, q):
    syms = pack_bytes(data, q)
    assert np.array_equal(syms, _ref_pack_bytes(data, q))
    assert unpack_bytes(syms, q, len(data)) == _ref_unpack_bytes(syms, q, len(data)) == data


def test_unpack_requires_enough_symbols():
    with pytest.raises(ShardFormatError):
        unpack_bytes(np.zeros(2, dtype=np.int64), 11, 100)


def test_header_roundtrip():
    h = ShardHeader(FORMAT_VERSION, Scheme.TYPE_II, 11, 8, 6, 2, 2, 3, 45, True, 999, 4)
    assert ShardHeader.from_bytes(h.to_bytes()) == h
    assert len(h.to_bytes()) == 52


def test_header_rejects_garbage():
    with pytest.raises(ShardFormatError):
        ShardHeader.from_bytes(b"NOPE" + b"\0" * 48)
    with pytest.raises(ShardFormatError):
        ShardHeader.from_bytes(b"DETC")


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


def test_empty_file_single_padded_stripe():
    codec = make_codec()
    shards = codec.encode_file(b"", seed=3, seed_present=True)
    assert shards[0].header.original_length == 0
    assert shards[0].header.payload_symbols == 15  # one stripe
    assert codec.recover_file(shards[:6]) == b""


def test_zero_capacity_layout_rejects_data():
    with pytest.warns(UserWarning):
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
    with pytest.raises(ShardFormatError):
        codec_for_headers([s1[0], s2[1]])


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
    header = ShardHeader(FORMAT_VERSION, scheme, q, n, d, m, ell, 1, 3 * alpha, True, 0, 0)
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
    """The codec's column tables, built with LexIndexer.rank per subset."""
    cols, rcols, m = params.columns, params.repair_columns, params.m
    groups = list(params.parity_groups.subsets())
    return {
        "_sc": [cols.rank(I) for _, I in layout.secret_cells],
        "_kc": [cols.rank(I) for _, I in layout.key_cells],
        "_ptc": [cols.rank(J[:-1]) for J in groups],
        "_psign": [[(-1) ** (m + ind(J[:-1], y)) for y in J[:-1]] for J in groups],
        "_ppc": [
            [cols.rank(tuple(v for v in J if v != y)) for y in J[:-1]] for J in groups
        ],
        "_rc": [
            [rcols.rank(tuple(v for v in I if v != x)) for x in I] for I in cols.subsets()
        ],
        "_rs": [[(-1) ** ind(I, x) for x in I] for I in cols.subsets()],
    }


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
    for name, expected in _ranked_tables(codec.params, codec.layout).items():
        table = getattr(codec, name)
        assert np.array_equal(table, np.reshape(expected, table.shape)), name
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
    codec = codec_for_headers(shards)
    for subset in combinations(shards, 6):
        assert codec.recover_file(subset) == data
    for failed in range(1, 9):
        helpers = [s for s in shards if s.header.node_id != failed][:6]
        rebuilt, _ = codec.repair_shard(failed, helpers)
        assert rebuilt.to_bytes() == shards[failed - 1].to_bytes()


def test_out_of_field_symbol_rejected_on_read():
    codec = make_codec()
    raw = bytearray(codec.encode_file(b"abc", seed=1, seed_present=True)[0].to_bytes())
    raw[52:54] = (60000).to_bytes(2, "little")
    with pytest.raises(ShardFormatError, match="outside GF"):
        Shard.from_bytes(bytes(raw))
    raw[52:54] = (10).to_bytes(2, "little")
    assert Shard.from_bytes(bytes(raw)).symbols[0] == 10


# -- CLI ----------------------------------------------------------------------


def run_cli(*args):
    return main([str(a) for a in args])


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


def test_cli_audit_ell_zero_vacuous_pass(capsys):
    assert run_cli("audit", "--n", 6, "--d", 4, "--m", 2, "--scheme", "plain") == 0
    text = capsys.readouterr().out
    assert "audited 0 eavesdropper sets" in text and "PASS" in text


def test_cli_audit_n_equals_d_matches_checked_in_output(capsys):
    # At n = d every view keeps all n-1 = d-1 helpers.  Their traffic does
    # not pin down the keys, so the sweep prints FAIL, byte for byte as
    # recorded from the literal (n-1)*C(d,m-1)-row views.
    expected = (DATA / "audit-type2-n6-d6-m2-ell2-q7.txt").read_text()
    assert run_cli(
        "audit", "--n", 6, "--d", 6, "--m", 2, "--scheme", "type2", "--ell", 2, "--q", 7
    ) == 1
    assert capsys.readouterr().out == expected


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
    raw[-2:] = (60000).to_bytes(2, "little")
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
        path.write_bytes(bytes(raw) + b"\0\0")
    capsys.readouterr()
    if command == "recover":
        rc = run_cli("recover", *files[:6], "--out", tmp_path / "r.bin")
    else:
        rc = run_cli("repair", *files[:6], "--failed", 8, "--out", tmp_path / "r.detc")
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "error: payload length is not a whole number of stripes\n"
