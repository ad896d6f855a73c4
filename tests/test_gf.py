import bisect
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpnc import gf
from bpnc.gf import FieldContext, gaussian_eliminate, mul_slow
import references
from references import SingularMatrixError, invert


@pytest.fixture(scope="module")
def f16():
    return FieldContext(4)


def test_mul_example(f16):
    assert f16.mul(0x2, 0x9) == 0x1


def test_mul_matches_slow_reference_exhaustive(f16):
    for a in range(16):
        for b in range(16):
            assert f16.mul(a, b) == mul_slow(a, b, 4, 0x13)


def test_annihilator_and_identity(f16):
    for a in range(16):
        assert f16.mul(a, 0) == 0
        assert f16.mul(a, 1) == a


def test_add_self_inverse(f16):
    for a in range(16):
        assert f16.add(a, a) == 0


def test_mul_inv(f16):
    for a in range(1, 16):
        assert f16.mul(a, f16.inv(a)) == 1


def test_exp_log_consistency(f16):
    for a in range(1, 16):
        assert f16.exp(f16.log(a)) == a


def test_distributivity_exhaustive(f16):
    # all 16^3 triples
    for a in range(16):
        for b in range(16):
            for c in range(16):
                lhs = f16.mul(a, f16.add(b, c))
                rhs = f16.add(f16.mul(a, b), f16.mul(a, c))
                assert lhs == rhs


def test_commutative_associative_exhaustive(f16):
    for a in range(16):
        for b in range(16):
            assert f16.mul(a, b) == f16.mul(b, a)
            for c in range(16):
                assert f16.mul(f16.mul(a, b), c) == f16.mul(a, f16.mul(b, c))


@pytest.mark.parametrize("m", range(1, 9))
def test_all_field_sizes_construct_and_invert(m):
    # every table against mul_slow, GF(2) included: the tables are built
    # with order = 2^m - 1 >= 1
    ctx = FieldContext(m)
    for a in range(ctx.size):
        for b in range(ctx.size):
            assert ctx.mul(a, b) == mul_slow(a, b, m, ctx.poly)
    # exp runs through every nonzero symbol once per period, each power the
    # last times the generator exp(1)
    assert sorted(ctx.exp(k) for k in range(ctx.order)) == list(range(1, ctx.size))
    for k in range(3 * ctx.order):
        assert ctx.exp(k + 1) == mul_slow(ctx.exp(k), ctx.exp(1), m, ctx.poly)
    for a in range(1, ctx.size):
        assert ctx.exp(ctx.log(a)) == a
        assert ctx.mul(a, ctx.inv(a)) == 1


@pytest.mark.parametrize("m", [1, 2, 4, 8])
def test_mul_table_scales_each_packed_group(m):
    # column b is a byte of packed m-bit symbols: every scalar times every
    # byte equals unpack, then mul_slow per symbol, then pack
    ctx = FieldContext(m)
    assert ctx.mul_table.shape == (ctx.size, 256)
    groups = [gf.bytes_to_symbols(bytes([b]), m).tolist() for b in range(256)]
    for c in range(ctx.size):
        for b in range(256):
            want = gf.symbols_to_bytes([mul_slow(c, g, m, ctx.poly) for g in groups[b]], m)
            assert bytes([ctx.mul_table[c, b]]) == want


def test_rref_identity(f16):
    I = np.eye(5, dtype=np.uint8)
    rref, rk, pivots = gaussian_eliminate(f16, I)
    assert np.array_equal(rref, I)
    assert rk == 5
    assert pivots == [0, 1, 2, 3, 4]


def test_rref_gf2_example():
    ctx = FieldContext(1)
    M = np.array([[1, 0], [1, 1]], dtype=np.uint8)
    rref, rk, _ = gaussian_eliminate(ctx, M)
    assert rk == 2
    assert np.array_equal(rref, np.eye(2, dtype=np.uint8))


def test_rref_idempotent(f16):
    rng = np.random.default_rng(7)
    for _ in range(50):
        M = rng.integers(0, 16, size=(4, 6), dtype=np.uint8)
        rref, _, _ = gaussian_eliminate(f16, M)
        again, _, _ = gaussian_eliminate(f16, rref)
        assert np.array_equal(rref, again)


@st.composite
def symbol_matrices(draw):
    """(m, M): an r x c matrix over GF(2^m), r and c in 1..8, some of its
    rows multiples of others, some rows and columns zero, and read-only or
    not."""
    m = draw(st.sampled_from([1, 2, 4, 8]))
    r, c = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    sym = st.integers(0, (1 << m) - 1)
    M = np.array(draw(st.lists(st.lists(sym, min_size=c, max_size=c),
                               min_size=r, max_size=r)), dtype=np.uint8)
    def picked(n):  # indices of some rows (or columns)
        return sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)))
    mul = FieldContext(m).mul_table
    for i in picked(r):
        M[i] = mul[draw(st.integers(1, (1 << m) - 1)), M[draw(st.integers(0, r - 1))]]
    M[picked(r), :] = 0
    M[:, picked(c)] = 0
    M.setflags(write=draw(st.booleans()))
    return m, M


@given(symbol_matrices())
@settings(max_examples=400)
def test_gaussian_eliminate_matches_reference(case):
    m, M = case
    ctx = FieldContext(m)
    before = M.copy()
    rref, rank, pivots = gaussian_eliminate(ctx, M)
    expect, expect_rank, expect_pivots = references.gaussian_eliminate(ctx, M)
    assert rref.dtype == np.uint8 and np.array_equal(rref, expect)
    assert (rank, pivots) == (expect_rank, expect_pivots)
    assert np.array_equal(M, before) and not np.shares_memory(rref, M)


def test_invert_identity_and_diagonal(f16):
    I = np.eye(4, dtype=np.uint8)
    assert np.array_equal(invert(f16, I), I)
    d = [3, 7, 1, 9]
    D = np.diag(np.array(d, dtype=np.uint8))
    Dinv = invert(f16, D)
    assert np.array_equal(Dinv, np.diag(np.array([f16.inv(x) for x in d], dtype=np.uint8)))


def test_invert_product_is_identity(f16):
    rng = np.random.default_rng(3)
    found = 0
    while found < 20:
        M = rng.integers(0, 16, size=(4, 4), dtype=np.uint8)
        if gaussian_eliminate(f16, M)[1] < 4:
            continue
        found += 1
        assert np.array_equal(f16.matmul(invert(f16, M), M), np.eye(4, dtype=np.uint8))


@pytest.mark.parametrize("n", [2, 4, 8])
def test_invert_succeeds_iff_full_rank(f16, n):
    rng = np.random.default_rng(100 + n)
    for _ in range(1000):
        M = rng.integers(0, 16, size=(n, n), dtype=np.uint8)
        rk = gaussian_eliminate(f16, M)[1]
        if rk == n:
            invert(f16, M)
        else:
            with pytest.raises(SingularMatrixError):
                invert(f16, M)


def test_singular_raises(f16):
    M = np.zeros((3, 3), dtype=np.uint8)
    with pytest.raises(SingularMatrixError):
        invert(f16, M)


def test_symbol_range_validated(f16):
    with pytest.raises(ValueError):
        gaussian_eliminate(f16, np.array([[16, 0], [0, 1]], dtype=np.uint8))


@given(st.binary(min_size=0, max_size=64), st.sampled_from([1, 2, 4, 8]))
@settings(max_examples=200)
def test_byte_packing_roundtrip(data, m):
    syms = gf.bytes_to_symbols(data, m)
    assert gf.symbols_to_bytes(syms, m) == data


def test_nibble_packing_high_first():
    assert list(gf.bytes_to_symbols(b"\xab", 4)) == [0xA, 0xB]
    assert gf.symbols_to_bytes([0xA, 0xB], 4) == b"\xab"


def reference_bytes_to_symbols(data, m):
    """bytes_to_symbols as it was: a copy, then a masked shift per group."""
    spb = gf.symbols_per_byte(m)
    arr = np.frombuffer(bytes(data), dtype=np.uint8)
    if spb == 1:
        return arr.copy()
    mask = (1 << m) - 1
    out = np.empty(len(arr) * spb, dtype=np.uint8)
    for i in range(spb):
        out[i::spb] = (arr >> ((spb - 1 - i) * m)) & mask
    return out


def reference_symbols_to_bytes(symbols, m):
    """symbols_to_bytes as it was: every group masked, then shifted."""
    spb = gf.symbols_per_byte(m)
    arr = np.asarray(symbols, dtype=np.uint8)
    if spb == 1:
        return arr.tobytes()
    if len(arr) % spb:
        raise ValueError("symbol count not a multiple of symbols-per-byte")
    out = np.zeros(len(arr) // spb, dtype=np.uint8)
    for i in range(spb):
        out |= (arr[i::spb] & ((1 << m) - 1)) << ((spb - 1 - i) * m)
    return out.tobytes()


@given(st.binary(max_size=64), st.sampled_from([1, 2, 4, 8]))
@settings(max_examples=300)
def test_bytes_to_symbols_matches_reference(data, m):
    syms = gf.bytes_to_symbols(data, m)
    ref = reference_bytes_to_symbols(data, m)
    assert syms.dtype == ref.dtype == np.uint8
    assert np.array_equal(syms, ref)


@given(st.sampled_from([1, 2, 4, 8]), st.data())
@settings(max_examples=300)
def test_symbols_to_bytes_matches_reference(m, data):
    # symbols up to 255 are out of range for m < 8: both mask them to m bits
    spb = 8 // m
    n = data.draw(st.integers(0, 24)) * spb + data.draw(st.sampled_from([0, 0, 1]))
    syms = data.draw(st.lists(st.integers(0, 255), min_size=n, max_size=n))
    if n % spb:
        with pytest.raises(ValueError):
            reference_symbols_to_bytes(syms, m)
        with pytest.raises(ValueError):
            gf.symbols_to_bytes(syms, m)
        return
    assert gf.symbols_to_bytes(syms, m) == reference_symbols_to_bytes(syms, m)
    arr = np.array(syms, dtype=np.uint8)
    assert gf.symbols_to_bytes(arr, m) == reference_symbols_to_bytes(arr, m)


def test_matmul_matches_scalar(f16):
    rng = np.random.default_rng(5)
    A = rng.integers(0, 16, size=(3, 4), dtype=np.uint8)
    B = rng.integers(0, 16, size=(4, 5), dtype=np.uint8)
    C = f16.matmul(A, B)
    for i in range(3):
        for j in range(5):
            acc = 0
            for k in range(4):
                acc ^= f16.mul(int(A[i, k]), int(B[k, j]))
            assert C[i, j] == acc


@st.composite
def matmul_operands(draw):
    """(m, A, B) over GF(2^m), 1-row shapes and all-zero rows and columns
    included."""
    m = draw(st.sampled_from([1, 2, 4, 8]))
    r, k, c = (draw(st.integers(1, n)) for n in (6, 6, 12))
    sym = st.integers(0, (1 << m) - 1)
    A = np.array(draw(st.lists(st.lists(sym, min_size=k, max_size=k),
                               min_size=r, max_size=r)), dtype=np.uint8)
    B = np.array(draw(st.lists(st.lists(sym, min_size=c, max_size=c),
                               min_size=k, max_size=k)), dtype=np.uint8)
    def zeroed(n):  # indices of the rows (or columns) to zero
        return sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)))
    A[zeroed(r), :] = 0
    A[:, zeroed(k)] = 0
    B[zeroed(k), :] = 0
    B[:, zeroed(c)] = 0
    return m, A, B


@given(matmul_operands())
@settings(max_examples=300)
def test_matmul_matches_mul_slow(operands):
    m, A, B = operands
    ctx = FieldContext(m)
    C = ctx.matmul(A, B)
    assert C.shape == (A.shape[0], B.shape[1]) and C.dtype == np.uint8
    for i, j in itertools.product(range(A.shape[0]), range(B.shape[1])):
        acc = 0
        for k in range(A.shape[1]):
            acc ^= mul_slow(int(A[i, k]), int(B[k, j]), m, ctx.poly)
        assert C[i, j] == acc


def reference_matmul(ctx, A, B):
    """The row-at-a-time product: row i is the xor of A[i, k] * B[k], one
    table row per nonzero coefficient.  The oracle for ``matmul``, which
    takes every row at once."""
    A = np.asarray(A, dtype=np.uint8)
    B = np.asarray(B, dtype=np.uint8)
    out = np.zeros((A.shape[0], B.shape[1]), dtype=np.uint8)
    for row, coeffs in zip(out, A.tolist()):
        for k, c in enumerate(coeffs):
            if c:
                row ^= ctx.mul_table[c].take(B[k])
    return out


@pytest.mark.parametrize("m", [1, 2, 4, 8])
@pytest.mark.parametrize("r, k, c", [(3, 0, 5), (1, 4, 7), (1, 1, 1), (7, 3, 1),
                                     (5, 6, 9), (0, 3, 2),
                                     # a run's shapes: encoding 2 packets of
                                     # h=4, recoding a relay's 4h=16 frames
                                     # (tag and payload), the solve's q^T
                                     # assignments against 3 heuristic rows
                                     (2, 4, 500), (1, 16, 504), (256, 2, 3)])
def test_matmul_matches_row_loop_reference(m, r, k, c):
    ctx = FieldContext(m)
    rng = np.random.default_rng([m, r, k, c])
    A = rng.integers(0, ctx.size, size=(r, k), dtype=np.uint8)
    B = rng.integers(0, 256, size=(k, c), dtype=np.uint8)  # packed payload bytes
    got = ctx.matmul(A, B)
    assert got.dtype == np.uint8 and got.shape == (r, c)
    assert np.array_equal(got, reference_matmul(ctx, A, B))


def test_matmul_tall_matches_row_loop_reference():
    # the rank-deficient solve's largest product: all 65,536 assignments of
    # two free symbols over GF(2^8)
    ctx = FieldContext(8)
    A = np.indices((256, 256), dtype=np.uint8).reshape(2, -1).T
    B = np.random.default_rng(3).integers(0, 256, size=(2, 4), dtype=np.uint8)
    assert np.array_equal(ctx.matmul(A, B), reference_matmul(ctx, A, B))


def reference_rref_insert(ctx, R, pivot_cols, row, pivot_width):
    """rref_insert as it was: the tag symbols range-checked, searched and
    scaled through numpy, and the new row reduced in place."""
    v = np.array(row, dtype=np.uint8)
    gf.validate_symbols(ctx, v[:pivot_width])
    for r, c in enumerate(v[pivot_cols].tolist()):
        if c:
            v ^= ctx.mul_table[c].take(R[r])
    lead = np.flatnonzero(v[:pivot_width])
    if not len(lead):
        return None
    p = int(lead[0])
    if v[p] != 1:
        v = ctx.mul_table[ctx.inv(int(v[p])), v]
    i = bisect.bisect(pivot_cols, p)
    out = np.concatenate((R[:i], v[None, :], R[i:]))
    for r, c in enumerate(out[:, p].tolist()):
        if c and r != i:
            out[r] ^= ctx.mul_table[c].take(v)
    return out, pivot_cols[:i] + [p] + pivot_cols[i:]


@pytest.mark.parametrize("m", [1, 2, 4, 8])
@pytest.mark.parametrize("h", [1, 2, 4, 8])
def test_rref_insert_matches_reference(m, h):
    # rows reach every rank from 0 to h and go on past full rank: random,
    # unit and zero tags, multiples of earlier rows and read-only rows
    ctx = FieldContext(m)
    rng = np.random.default_rng([m, h])
    ranks = set()
    for _ in range(6):
        R, pivots = np.zeros((0, h + 3), dtype=np.uint8), []
        seen = []
        for _ in range(4 * h + 4):
            kind = rng.integers(0, 5)
            row = np.concatenate([rng.integers(0, ctx.size, size=h, dtype=np.uint8),
                                  rng.integers(0, 256, size=3, dtype=np.uint8)])
            if kind == 1:
                row[:h] = 0
            elif kind == 2:
                row[:h] = 0
                row[rng.integers(0, h)] = rng.integers(1, ctx.size)
            elif kind == 3 and seen:
                row = ctx.mul_table[int(rng.integers(1, ctx.size)),
                                    seen[rng.integers(0, len(seen))]]
            elif kind == 4:
                row.setflags(write=False)
            seen.append(row.copy())
            ranks.add(len(pivots))
            got = gf.rref_insert(ctx, R, pivots, row, h)
            expect = reference_rref_insert(ctx, R, pivots, row, h)
            assert np.array_equal(row, seen[-1])  # the row is left as it was
            if expect is None:
                assert got is None
                continue
            assert got[1] == expect[1]
            assert got[0].dtype == np.uint8 and np.array_equal(got[0], expect[0])
            R, pivots = got
        ranks.add(len(pivots))
    assert ranks == set(range(h + 1))


@pytest.mark.parametrize("m", [1, 2, 4])  # at m = 8 every byte is a symbol
def test_rref_insert_rejects_an_out_of_range_tag(m):
    ctx = FieldContext(m)
    empty = (np.zeros((0, 3), np.uint8), [])
    rank1 = gf.rref_insert(ctx, *empty, [1, 0, 7], 2)
    for R, pivots in (empty, rank1):
        for bad in ([ctx.size, 0, 0], [0, 255, 0]):
            for insert in (gf.rref_insert, reference_rref_insert):
                with pytest.raises(ValueError, match="out of range"):
                    insert(ctx, R, pivots, bad, 2)
    # the payload columns past pivot_width carry any byte
    assert gf.rref_insert(ctx, *rank1, [0, 1, 255], 2) is not None
