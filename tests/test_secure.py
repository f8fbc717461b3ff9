import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from detcodes.code import info_cells, parity_partners, system
from detcodes.secure import (
    KeyStream,
    Scheme,
    SecureParams,
    _digit_table,
    assemble,
    build_layout,
    ell_range,
    extract_secrets,
    key_count,
    secret_capacity,
)
from detcodes.shards import StripedCodec
from detcodes.subsets import binom


def layout_for(n, d, m, ell, scheme, q=None):
    return build_layout(SecureParams(system(n, d, m, q), ell, scheme))


def key_cells(lay):
    """The key slots' cells (x, I) in slot order: the free cells, in the
    fill order of `info_cells`, that hold no secret (`key_index` is checked
    against them in `test_secret_cells_follow_the_paper_rule_over_a_grid`)."""
    secret = set(lay.secret_cells)
    return [c for c in info_cells(lay.sparams.base) if c not in secret]


def test_capacity_examples_d6_m2_ell2():
    assert secret_capacity(6, 2, 2, Scheme.TYPE_I) == 40
    assert key_count(6, 2, 2, Scheme.TYPE_I) == 30
    assert secret_capacity(6, 2, 2, Scheme.TYPE_II) == 20
    assert key_count(6, 2, 2, Scheme.TYPE_II) == 50
    assert secret_capacity(6, 0, 2, Scheme.PLAIN) == 70


def test_layout_counts_match_formulas():
    for d in range(1, 8):
        for m in range(1, d + 1):
            for scheme in (Scheme.TYPE_I, Scheme.TYPE_II):
                top = d if scheme is Scheme.TYPE_II else d - 1
                for ell in range(0, top + 1):
                    lay = layout_for(d + 2, d, m, ell, scheme)
                    assert lay.secret_count == secret_capacity(d, ell, m, scheme)
                    assert lay.key_count == key_count(d, ell, m, scheme)
                    f = m * binom(d + 1, m + 1)
                    assert lay.secret_count + lay.key_count == f


def test_count_identity_closed_form_d10():
    # F_s + |Q| = F holds for every (d, m, ell) purely by the formulas
    for d in range(1, 11):
        for m in range(1, d + 1):
            f = m * binom(d + 1, m + 1)
            for scheme in (Scheme.TYPE_I, Scheme.TYPE_II):
                for ell in range(0, d + 1):
                    total = secret_capacity(d, ell, m, scheme) + key_count(
                        d, ell, m, scheme
                    )
                    assert total == f


def test_type_i_top_row_key_count_identity():
    # keys fill exactly ell*alpha - C(ell, m+1) cells in the top ell rows
    for d in range(2, 8):
        for m in range(1, d + 1):
            for ell in range(1, d):
                lay = layout_for(d + 2, d, m, ell, Scheme.TYPE_I)
                assert all(x <= ell for x, _ in key_cells(lay))
                assert lay.key_count == ell * binom(d, m) - binom(ell, m + 1)


def test_type_ii_blocks():
    lay = layout_for(8, 6, 2, 2, Scheme.TYPE_II)
    for x, I in lay.secret_cells:
        assert x > 2 and all(y > 2 for y in I)
    for x, I in key_cells(lay):
        assert x <= 2 or any(y <= 2 for y in I)


def _holds_secret_reference(x, I, ell, scheme):
    """The paper's per-cell rule: free cell (x, I) holds a secret when
    x > ell, and for Type-II also min I > ell (block D); plain has ell = 0."""
    return x > ell and (scheme is not Scheme.TYPE_II or I[0] > ell)


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_secret_cells_follow_the_paper_rule_over_a_grid(scheme):
    for d in range(2, 8):
        for m in range(1, d + 1):
            for ell in ell_range(scheme, d):
                lay = layout_for(d + 1, d, m, ell, scheme)
                params = lay.sparams.base
                free = info_cells(params)
                rule = [_holds_secret_reference(x, I, ell, scheme) for x, I in free]
                secret = [c for c, s in zip(free, rule) if s]
                key = [c for c, s in zip(free, rule) if not s]
                assert list(lay.secret_cells) == secret and key_cells(lay) == key
                # Zero capacity exactly at the Type-II codes with m > d - ell.
                assert (lay.secret_count == 0) == (scheme is Scheme.TYPE_II and m > d - ell)
                subsets = list(params.columns.subsets())
                for (rows, cols), cells in ((lay.secret_index, secret), (lay.key_index, key)):
                    assert [(x + 1, subsets[c]) for x, c in zip(rows.tolist(), cols.tolist())] == cells


def test_type_ii_remark4_parities_inside_d_touch_only_secrets():
    for d in range(2, 8):
        for m in range(1, d):
            for ell in range(1, d):
                lay = layout_for(d + 2, d, m, ell, Scheme.TYPE_II)
                for J in lay.sparams.base.parity_groups.subsets():
                    x, I = J[-1], J[:-1]
                    in_d = x > ell and all(y > ell for y in I)
                    if in_d:
                        for _, y, Y in parity_partners(x, I):
                            assert (y, Y) in lay.secret_cells
                            assert y > ell and all(v > ell for v in Y)


def test_scheme_validation():
    ps = system(8, 6, 2)
    with pytest.raises(ValueError):
        SecureParams(ps, 1, Scheme.PLAIN)
    with pytest.raises(ValueError):
        SecureParams(ps, 6, Scheme.TYPE_I)  # ell < d required
    with pytest.raises(ValueError):
        SecureParams(ps, 7, Scheme.TYPE_II)
    SecureParams(ps, 6, Scheme.TYPE_II)  # ell = d allowed


def test_type_ii_zero_capacity_is_a_plain_value():
    # Zero capacity is reported by the ops that meet it (encode, audit),
    # not by building the params.
    ps = system(8, 6, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sp = SecureParams(ps, 3, Scheme.TYPE_II)  # m=5 > d-ell=3
    assert sp.secret_count == 0
    assert sp.key_count == ps.file_size


def test_ell_zero_degenerates_to_plain():
    for scheme in (Scheme.TYPE_I, Scheme.TYPE_II):
        lay = layout_for(8, 6, 2, 0, scheme)
        assert lay.key_count == 0
        assert lay.secret_count == 70


def test_assemble_extract_roundtrip():
    rng = np.random.default_rng(5)
    for scheme, ell in ((Scheme.TYPE_I, 2), (Scheme.TYPE_II, 2), (Scheme.PLAIN, 0)):
        lay = layout_for(8, 6, 2, ell, scheme)
        s = rng.integers(0, 11, lay.secret_count)
        k = rng.integers(0, 11, lay.key_count)
        M = assemble(lay, s, k)
        assert assemble(lay, M.a[lay.secret_index], M.a[lay.key_index]) == M
        assert np.array_equal(extract_secrets(M, lay), s)
        assert np.array_equal(M.a[lay.key_index], k)


def test_assemble_zero_inputs_and_count_errors():
    lay = layout_for(8, 6, 2, 2, Scheme.TYPE_I)
    z = assemble(lay, np.zeros(40, dtype=int), np.zeros(30, dtype=int))
    assert not z.a.any()
    with pytest.raises(ValueError):
        assemble(lay, np.zeros(39, dtype=int), np.zeros(30, dtype=int))
    with pytest.raises(ValueError):
        assemble(lay, np.zeros(40, dtype=int), np.zeros(29, dtype=int))


def test_type_i_parity_mixes_key_and_secret_like_worked_example():
    # group {1,3,4}: M(4,{1,3}) = -(key at (1,{3,4})) + (secret at (3,{1,4}))
    lay = layout_for(8, 6, 2, 2, Scheme.TYPE_I)
    assert (1, (3, 4)) in key_cells(lay)
    assert (3, (1, 4)) in lay.secret_cells
    rng = np.random.default_rng(9)
    s = rng.integers(0, 11, 40)
    k = rng.integers(0, 11, 30)
    M = assemble(lay, s, k)
    cols = lay.sparams.base.columns
    key_val = int(M.a[0, cols.rank((3, 4))])
    sec_val = int(M.a[2, cols.rank((1, 4))])
    assert int(M.a[3, cols.rank((1, 3))]) == (-key_val + sec_val) % 11


def test_type_ii_parity_in_c_block_mixes_keys_like_worked_example():
    # group {2,5,6}: M(6,{2,5}) = -(key at (2,{5,6})) + (key at (5,{2,6}))
    lay = layout_for(8, 6, 2, 2, Scheme.TYPE_II)
    assert (2, (5, 6)) in key_cells(lay)
    assert (5, (2, 6)) in key_cells(lay)
    rng = np.random.default_rng(10)
    s = rng.integers(0, 11, 20)
    k = rng.integers(0, 11, 50)
    M = assemble(lay, s, k)
    cols = lay.sparams.base.columns
    v1 = int(M.a[1, cols.rank((5, 6))])
    v2 = int(M.a[4, cols.rank((2, 6))])
    assert int(M.a[5, cols.rank((2, 5))]) == (-v1 + v2) % 11


def test_node_share_column_structure_type_i():
    # column {1,2} of the Type-I layout: rows 1,2 hold keys, rows 3..6 are
    # parities of the form -(row-1 key) + (row-2 key).
    lay = layout_for(8, 6, 2, 2, Scheme.TYPE_I)
    free = info_cells(lay.sparams.base)
    for x in range(3, 7):
        assert (x, (1, 2)) not in free
        partners = parity_partners(x, (1, 2))
        assert sorted((sign, y) for sign, y, _ in partners) == [(-1, 1), (1, 2)]
        for _, y, Y in partners:
            assert (y, Y) in key_cells(lay)


def test_mbr_equality_of_schemes():
    for d in range(1, 31):
        for ell in range(0, d + 1):
            expected = (d - ell + 1) * (d - ell) // 2
            assert secret_capacity(d, ell, 1, Scheme.TYPE_I) == expected
            assert secret_capacity(d, ell, 1, Scheme.TYPE_II) == expected


def test_sample_keys_determinism_and_bounds():
    a = KeyStream(7, 11).draw(100)
    b = KeyStream(7, 11).draw(100)
    assert np.array_equal(a, b)
    assert KeyStream(7, 11).draw(0).size == 0
    c = KeyStream(8, 11).draw(100)
    assert not np.array_equal(a, c)
    assert a.min() >= 0 and a.max() < 11
    with pytest.raises(ValueError):
        KeyStream(0, 11).draw(-1)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_assemble_extract_roundtrip_property(data):
    d = data.draw(st.integers(1, 5))
    m = data.draw(st.integers(1, d))
    scheme = data.draw(st.sampled_from([Scheme.TYPE_I, Scheme.TYPE_II]))
    top = d if scheme is Scheme.TYPE_II else d - 1
    ell = data.draw(st.integers(0, top))
    lay = layout_for(d + 2, d, m, ell, scheme)
    q = lay.sparams.base.q
    s = data.draw(
        st.lists(st.integers(0, q - 1), min_size=lay.secret_count, max_size=lay.secret_count)
    )
    k = data.draw(
        st.lists(st.integers(0, q - 1), min_size=lay.key_count, max_size=lay.key_count)
    )
    M = assemble(lay, np.array(s, dtype=np.int64), np.array(k, dtype=np.int64))
    assert assemble(lay, M.a[lay.secret_index], M.a[lay.key_index]) == M
    assert list(extract_secrets(M, lay)) == s
    assert list(M.a[lay.key_index]) == k


def test_key_stream_uniformity_chi_square():
    # deterministic stream, so this is a frozen sanity check, not a flake
    for q in (7, 11):
        draws = KeyStream(0, q).draw(100_000)
        counts = np.bincount(draws, minlength=q)
        assert len(counts) == q
        n, p = 100_000, 1 / q
        sigma = (n * p * (1 - p)) ** 0.5
        assert np.all(np.abs(counts - n * p) < 3 * sigma)


@pytest.mark.parametrize("q", [3, 11])
def test_key_stream_pairs_chi_square(q):
    # Consecutive symbols must be independent too: several come from one
    # word (10 at q = 3, 4 at q = 11), so a digit that leaks into the next,
    # or a word whose digits repeat, skews the q^2 pair counts, which the
    # marginal counts need not show.  Pairs starting at even and at odd
    # positions cover every neighbour, within a word and across words.
    # Frozen like the marginal check; the bound is chi-square's 0.999
    # quantile at q^2 - 1 degrees of freedom (Wilson-Hilferty).
    draws = KeyStream(0, q).draw(200_001).astype(np.int64)
    df = q * q - 1
    bound = df * (1 - 2 / (9 * df) + 3.09 * (2 / (9 * df)) ** 0.5) ** 3
    for start in (0, 1):
        pairs = draws[start : start + 200_000].reshape(-1, 2)
        counts = np.bincount(pairs[:, 0] * q + pairs[:, 1], minlength=q * q)
        expected = len(pairs) / (q * q)
        assert ((counts - expected) ** 2 / expected).sum() < bound


@pytest.mark.parametrize(
    "q, first16",
    [
        (11, [8, 0, 1, 5, 10, 1, 2, 0, 0, 5, 1, 4, 4, 6, 2, 4]),
        (65521, [55501, 33734, 44644, 30616, 61562, 1124, 51531, 39991,
                 37010, 60628, 46271, 17836, 12165, 23170, 58153, 8489]),
    ],
    ids=["q11", "q65521"],
)
def test_key_stream_known_answers(q, first16):
    # Changing these bytes changes every fixed-seed shard: do it on purpose.
    assert KeyStream(0, q).draw(16).tolist() == first16


@pytest.mark.parametrize("q", [2, 11, 32771, 65521])
def test_key_stream_draws_continue_the_stream(q):
    # q = 32771 rejects about half of all words, so short batches loop.
    whole = KeyStream(5, q).draw(5000)
    ks = KeyStream(5, q)
    parts = [ks.draw(c) for c in (0, 1, 999, 0, 1500, 2500)]
    assert np.array_equal(np.concatenate(parts), whole)
    assert whole.min() >= 0 and whole.max() < q


def digits_per_word(q):
    """k of key stream v4: the largest integer with q^k <= 2^16."""
    k = 1
    while q ** (k + 1) <= 1 << 16:
        k += 1
    return k


def keystream_reference(seed, q, count):
    """Key stream v4 word by word: segment j is SHAKE-256 of the tag, q, the
    seed and j, read for 2^16 little-endian 16-bit words; a word w below
    limit, the largest multiple of q^k up to 2^16, yields the k base-q
    digits of w mod q^k, least significant first, and any other word none."""
    k = digits_per_word(q)
    limit = (1 << 16) - (1 << 16) % q**k
    out, j = [], 0
    while len(out) < count:
        key = b"detcodes-keystream-v4" + q.to_bytes(2, "little") + seed.to_bytes(32, "little")
        raw = hashlib.shake_256(key + j.to_bytes(8, "little")).digest(2 << 16)
        for i in range(0, len(raw), 2):
            w = int.from_bytes(raw[i : i + 2], "little")
            if w < limit:
                rest = w % q**k
                for _ in range(k):
                    rest, digit = divmod(rest, q)
                    out.append(digit)
        j += 1
    return out[:count]


@pytest.mark.parametrize("q", [2, 3, 11, 251, 257, 32771, 65521])
def test_key_stream_segments_match_reference(q):
    # k = 16, 10, 4, 2, 1, 1, 1 symbols per word.  The draws cross the
    # first segment boundary, their sizes are mostly not multiples of k,
    # and at q = 2, which rejects no word, one draw ends exactly on the
    # boundary (2^16 words of 16 symbols).
    k = digits_per_word(q)
    cuts = sorted({1, 65536, 65539, k << 16, (k << 16) + 3, (k << 16) + 4470})
    ks = KeyStream(5, q)
    parts = [ks.draw(c) for c in np.diff([0, *cuts])]
    assert all(p.dtype == np.uint16 for p in parts)
    assert np.concatenate(parts).tolist() == keystream_reference(5, q, cuts[-1])


def test_plain_encode_builds_no_digit_table():
    # A plain encode makes a KeyStream only to check the seed and draws no
    # key, so it must not build (or even look up) the digit table.
    def table_calls():
        info = _digit_table.cache_info()
        return info.hits + info.misses

    data = bytes(range(256)) * 4
    for scheme, ell, builds in ((Scheme.PLAIN, 0, False), (Scheme.TYPE_II, 2, True)):
        codec = StripedCodec(SecureParams(system(8, 6, 2, 257), ell, scheme))
        before = table_calls()
        codec.encode_file(data, seed=3, seed_present=True)
        assert (table_calls() > before) == builds


def test_key_stream_seed_range():
    top = 2**256 - 1
    assert not np.array_equal(KeyStream(top, 11).draw(64), KeyStream(0, 11).draw(64))
    for bad in (-1, 2**256):
        with pytest.raises(ValueError, match="seed"):
            KeyStream(bad, 11)
    with pytest.raises(TypeError):
        KeyStream(1.5, 11)


def test_type_ii_stripes_get_fresh_keys():
    codec = StripedCodec(SecureParams(system(8, 6, 2), 2, Scheme.TYPE_II))
    shards = codec.encode_file(bytes(64), seed=0, seed_present=True)
    alpha = codec.params.alpha
    cw = np.stack([s.symbols.reshape(-1, alpha) for s in shards], axis=1)
    assert cw.shape[0] > 2
    assert not np.array_equal(cw[0], cw[1])
