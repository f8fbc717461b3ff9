"""The table-driven message-matrix core against per-cell reference loops.

`assemble_rows` and `recombine` run every single-matrix API (as a batch
of one), the audit's cell maps and the striped codec.  The loops below
walk the cells one at a time with `LexIndexer.rank`, as the library did
before its index tables existed, and serve as independent oracles.
"""

import numpy as np
import pytest

from detcodes.code import parity_partners, recombine, system
from detcodes.leakage import cell_maps
from detcodes.secure import Scheme, SecureParams, assemble, assemble_rows, build_layout
from detcodes.shards import StripedCodec
from detcodes.subsets import ind
from test_secure import key_cells

FIELDS = [11, 65521, 2**31 - 1]


def all_layouts(q):
    """Every d <= 8 and 1 <= m <= d, plain and with ell = d // 2 keys."""
    for d in range(1, 9):
        for m in range(1, d + 1):
            params = system(d + 2, d, m, q)
            for scheme, ell in (
                (Scheme.PLAIN, 0),
                (Scheme.TYPE_I, d // 2),
                (Scheme.TYPE_II, d // 2),
            ):
                yield build_layout(SecureParams(params, ell, scheme))


def fill_parity_cells(arr, params):
    """Every P cell, group by group, solved from the alternating-sign
    equation sum over y in J of (-1)^ind(J, y) M(y, J - y) = 0, in which
    the P cell (max J, J - max J) has sign (-1)^(m + 1)."""
    cols, m = params.columns, params.m
    for J in params.parity_groups.subsets():
        x, I = J[-1], J[:-1]
        total = 0
        for y in I:
            Y = tuple(v for v in J if v != y)
            total += (-1) ** ind(J, y) * int(arr[y - 1, cols.rank(Y)])
        arr[x - 1, cols.rank(I)] = (-1) ** m * total % params.q


def assemble_cells(layout, secrets, keys):
    """Secrets and keys slot by slot, then the parity loop."""
    params = layout.sparams.base
    arr = np.zeros((params.d, params.alpha), dtype=np.int64)
    for values, cells in ((secrets, layout.secret_cells), (keys, key_cells(layout))):
        for value, (x, I) in zip(values, cells):
            arr[x - 1, params.columns.rank(I)] = int(value) % params.q
    fill_parity_cells(arr, params)
    return arr


def recombine_cells(mxi, params):
    """Symbol I of the repaired share: sum over x in I of sign * M Xi^f(x, I - x)."""
    rcols = params.repair_columns
    out = np.zeros(params.alpha, dtype=np.int64)
    for i, I in enumerate(params.columns.subsets()):
        total = 0
        for x in I:
            J = tuple(v for v in I if v != x)
            total += (-1) ** ind(I, x) * int(mxi[x - 1, rcols.rank(J)])
        out[i] = total % params.q
    return out


def cell_maps_slotwise(layout):
    """One unit vector per slot, then each parity cell from its partners
    (`parity_partners`, which `fill_parity_cells` checks independently)."""
    params = layout.sparams.base
    fs = layout.secret_count
    total = fs + layout.key_count
    cols = params.columns
    T = np.zeros((params.d, params.alpha, total), dtype=np.int64)
    for slot, (x, I) in enumerate(layout.secret_cells):
        T[x - 1, cols.rank(I), slot] = 1
    for slot, (x, I) in enumerate(key_cells(layout)):
        T[x - 1, cols.rank(I), fs + slot] = 1
    for J in params.parity_groups.subsets():
        x, I = J[-1], J[:-1]
        acc = np.zeros(total, dtype=np.int64)
        for sign, y, Y in parity_partners(x, I):
            acc += sign * T[y - 1, cols.rank(Y)]
        T[x - 1, cols.rank(I)] = acc % params.q
    return T


@pytest.mark.parametrize("q", FIELDS)
def test_assembly_matches_per_cell_reference(q):
    rng = np.random.default_rng(q)
    for layout in all_layouts(q):
        params = layout.sparams.base
        # stripe 0 holds q - 1 everywhere; stripes 1 and 2 are random and
        # partly outside [0, q), which `assemble` reduces
        secrets = rng.integers(-q, 2 * q, (3, layout.secret_count))
        keys = rng.integers(-q, 2 * q, (3, layout.key_count))
        secrets[0], keys[0] = q - 1, q - 1
        expected = [assemble_cells(layout, secrets[b], keys[b]) for b in range(3)]
        for b in range(3):
            assert np.array_equal(assemble(layout, secrets[b], keys[b]).a, expected[b])
        # the cell-major batch of the residues: int64 (`assemble`, `cell_maps`),
        # float64 and float32 (the codec) and uint16; float32 holds every
        # parity sum of m <= 8 residues below 2^16 exactly, and the signs
        # must not promote its rows
        free = np.concatenate([secrets, keys], axis=1).T % q
        dtypes = [np.int64, np.float64] + ([np.float32, np.uint16] if q < 1 << 16 else [])
        for dtype in dtypes:
            rows = np.zeros((params.d * params.alpha, 3), dtype=dtype)
            rows[: len(free)] = free
            batch = assemble_rows(layout, rows)
            assert batch.shape == (params.d, params.alpha, 3) and batch.dtype == dtype
            for b in range(3):
                assert np.array_equal(batch[..., b], expected[b])


@pytest.mark.parametrize("q", FIELDS)
def test_recombination_matches_per_cell_reference(q):
    rng = np.random.default_rng(q)
    for d in range(1, 9):
        for m in range(1, d + 1):
            params = system(d + 2, d, m, q)
            mxi = rng.integers(0, q, (3, d, len(params.repair_columns)))
            mxi[0] = q - 1
            batch = recombine(mxi, params)
            for b in range(3):
                expected = recombine_cells(mxi[b], params)
                assert np.array_equal(batch[b], expected)
                assert np.array_equal(recombine(mxi[b], params), expected)


@pytest.mark.parametrize("q", FIELDS)
def test_cell_maps_match_slot_by_slot_reference(q):
    for layout in all_layouts(q):
        assert np.array_equal(cell_maps(layout), cell_maps_slotwise(layout))


def test_codec_batches_match_single_matrix_assembly():
    # The striped codec's blocks, at 1 and at 3 stripes, against `assemble`
    # stripe by stripe.  The codec takes residues: packed and key-stream
    # symbols are below q by construction.
    q = 11
    rng = np.random.default_rng(q)
    for layout in all_layouts(q):
        codec = StripedCodec(layout.sparams)
        for stripes in (1, 3):
            secrets = rng.integers(0, q, (stripes, layout.secret_count), dtype=np.uint16)
            keys = rng.integers(0, q, (stripes, layout.key_count), dtype=np.uint16)
            batch = codec.assemble_batch(secrets, keys)
            assert batch.shape == (stripes, layout.sparams.base.d, layout.sparams.base.alpha)
            for b in range(stripes):
                assert np.array_equal(batch[b], assemble(layout, secrets[b], keys[b]).a)
