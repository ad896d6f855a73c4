import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpnc import gf, rlnc, wire
from bpnc.gf import FieldContext, gaussian_eliminate
from bpnc.rlnc import (
    CodedPacket,
    DecoderState,
    Generation,
    PaddingError,
    TagLengthMismatch,
    encode_generation,
    pad_block,
    precondition_reorder,
    prefix_equivalence_report,
    rank_deficient_solve,
    recode,
    sample_tags,
    unpad_block,
)
import references
from references import invert
from test_gf import symbol_matrices


@pytest.fixture(scope="module")
def f16():
    return FieldContext(4)


def packed(symbols, m):
    """Rows of symbols packed as payload bytes, as ``gf.symbols_to_bytes``
    packs each row."""
    S = np.asarray(symbols, dtype=np.uint8)
    out = np.frombuffer(gf.symbols_to_bytes(S.ravel(), m), dtype=np.uint8)
    return out.reshape(S.shape[:-1] + (S.shape[-1] * m // 8,))


def unpacked(data, m):
    """Rows of payload bytes split into symbols, as ``gf.bytes_to_symbols``
    splits each row."""
    D = np.asarray(data, dtype=np.uint8)
    return gf.bytes_to_symbols(D.tobytes(), m).reshape(D.shape[:-1] + (D.shape[-1] * 8 // m,))


def symbol_form(est, conf, m):
    """A packed estimate (``rank_deficient_solve``: rows of payload bytes,
    one confidence per row) as the per-symbol (h, N) estimate and
    confidence it stands for."""
    est = unpacked(est, m)
    return est, np.repeat(conf[:, None], est.shape[1], axis=1)


def make_generation(ctx, h, n_sym, rng, gen_id=0):
    g = Generation(gen_id, h, n_sym)
    for _ in range(h):
        g.add_source_packet(rng.integers(0, ctx.size, size=n_sym, dtype=np.uint8))
    return g


# -- padding ----------------------------------------------------------------

def test_pad_partial_final_packet():
    groups = pad_block(b"\x41\x42", 4, 1)
    assert groups == [[b"\x41\x42\x80\x00"]]


def test_pad_exact_fill_appends_marker_packet():
    groups = pad_block(b"\x01\x02\x03\x04", 4, 1)
    flat = [p for g in groups for p in g]
    assert len(flat) == 2
    assert flat[1] == b"\x80\x00\x00\x00"


def test_pad_completes_group():
    groups = pad_block(b"\xaa" * 5, 4, 2)
    assert len(groups) == 1
    assert len(groups[0]) == 2
    assert groups[0][1] == b"\xaa\x80\x00\x00"
    assert unpad_block(groups[0]) == b"\xaa" * 5


@given(st.integers(0, 64), st.integers(0))
@settings(max_examples=300)
def test_pad_roundtrip(nbytes, seed):
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 256, size=nbytes, dtype=np.uint8).tobytes()
    groups = pad_block(data, 4, 4)
    flat = [p for g in groups for p in g]
    assert all(len(p) == 4 for p in flat)
    assert len(flat) % 4 == 0
    assert unpad_block(flat) == data


def test_pad_roundtrip_1000_random_lengths():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        n = int(rng.integers(0, 4 * 16 + 1))
        data = rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()
        flat = [p for g in pad_block(data, 16, 4) for p in g]
        assert unpad_block(flat) == data


def test_unpad_rejects_missing_marker():
    with pytest.raises(PaddingError):
        unpad_block([b"\x00\x00\x00\x00"])


# -- encoding ---------------------------------------------------------------

def test_identity_coefficients_reproduce_sources(f16):
    rng = np.random.default_rng(0)
    gen = make_generation(f16, 4, 8, rng)
    for i in range(4):
        tag = np.zeros(4, dtype=np.uint8)
        tag[i] = 1
        assert np.array_equal(f16.matmul(tag[None, :], gen.matrix())[0], gen.source_rows[i])


def test_h1_payload_is_gf_product(f16):
    gen = Generation(0, 1, 1)
    gen.add_source_packet([0x5])
    rng = np.random.default_rng(1)
    # force tag 0x3 by resampling until hit (deterministic seed scan)
    for seed in range(1000):
        pkts = encode_generation(f16, gen, 1, np.random.default_rng(seed))
        if pkts[0].tag[0] == 0x3:
            assert pkts[0].payload[0] == 0xF
            return
    pytest.fail("tag 0x3 never drawn")


def test_encode_decode_roundtrip_with_extra_packets(f16):
    rng = np.random.default_rng(2)
    for h in (2, 4, 6):
        gen = make_generation(f16, h, 10, rng)
        pkts = encode_generation(f16, gen, h + 2, rng)
        tags = np.array([p.tag for p in pkts], dtype=np.uint8)
        if references.gaussian_eliminate(f16, tags)[1] < h:
            continue
        state = DecoderState(f16, h, 10)
        for p in pkts:
            state.ingest(p)
        assert len(state.decoded) == h
        for i in range(h):
            assert np.array_equal(state.delivered[i], gen.source_rows[i])


def test_encode_prefix_only_touches_filled_rows(f16):
    rng = np.random.default_rng(3)
    gen = Generation(0, 6, 8)
    gen.add_source_packet(rng.integers(0, 16, 8, dtype=np.uint8))
    gen.add_source_packet(rng.integers(0, 16, 8, dtype=np.uint8))
    pkts = encode_generation(f16, gen, 5, rng)
    for p in pkts:
        assert not any(p.tag[2:])


def test_all_zero_tags_rejected(f16):
    rng = np.random.default_rng(4)
    gen = make_generation(f16, 4, 4, rng)
    for p in encode_generation(f16, gen, 200, rng):
        assert any(p.tag)


# -- recoding ---------------------------------------------------------------

def test_recode_single_packet_is_scaled_combination(f16):
    rng = np.random.default_rng(5)
    gen = make_generation(f16, 2, 4, rng)
    pkt = encode_generation(f16, gen, 1, rng)[0]
    out = recode(f16, [pkt], rng)
    c = None
    for cand in range(1, 16):
        if np.array_equal(out.tag, f16.mul_table[cand, pkt.tag]):
            c = cand
            break
    assert c is not None
    assert np.array_equal(out.payload, f16.mul_table[c, pkt.payload])


def test_recode_is_componentwise_combination(f16):
    rng = np.random.default_rng(6)
    gen = make_generation(f16, 3, 6, rng)
    p1, p2 = encode_generation(f16, gen, 2, rng)
    out = recode(f16, [p1, p2], rng)
    # the output must lie in the row span of its inputs
    span = np.array([p1.tag, p2.tag, out.tag])
    assert gaussian_eliminate(f16, span)[1] == 2
    both = np.array(
        [
            np.concatenate([p1.tag, p1.payload]),
            np.concatenate([p2.tag, p2.payload]),
            np.concatenate([out.tag, out.payload]),
        ]
    )
    assert gaussian_eliminate(f16, both)[1] == 2


def test_decode_through_two_relay_recodings(f16):
    rng = np.random.default_rng(7)
    gen = make_generation(f16, 4, 12, rng)
    src_pkts = encode_generation(f16, gen, 6, rng)
    relay1 = [recode(f16, src_pkts, rng) for _ in range(6)]
    relay2 = [recode(f16, relay1, rng) for _ in range(8)]
    state = DecoderState(f16, 4, 12)
    for p in relay2:
        state.ingest(p)
    assert len(state.decoded) == 4
    for i in range(4):
        assert np.array_equal(state.delivered[i], gen.source_rows[i])


def reference_recode(ctx, buffered, rng):
    """Recoding as two GF matrix products, one for the tags and one for the
    payloads: the oracle for ``recode``."""
    first = buffered[0]
    tags = np.array([p.tag for p in buffered], dtype=np.uint8)
    payloads = np.array([p.payload for p in buffered], dtype=np.uint8)
    for _ in range(16):
        coeffs = rng.integers(0, ctx.size, size=len(buffered), dtype=np.uint8)
        tag = ctx.matmul(coeffs[None, :], tags)[0]
        if tag.any():
            payload = ctx.matmul(coeffs[None, :], payloads)[0]
            return CodedPacket(tag, payload)
    return CodedPacket(first.tag.copy(), first.payload.copy())


@st.composite
def recode_buffers(draw):
    """Buffered packets as symbols: payloads of whole bytes, up to 8."""
    m = draw(st.sampled_from([1, 2, 4, 8]))
    ctx = FieldContext(m)
    h = draw(st.integers(1, 6))
    n = draw(st.integers(1, 8)) * gf.symbols_per_byte(m)
    sym = st.integers(0, ctx.size - 1)
    # zero tags included: an all-zero buffer exhausts the retries
    buffered = [
        CodedPacket(draw(st.lists(sym, min_size=h, max_size=h)),
                    draw(st.lists(sym, min_size=n, max_size=n)))
        for _ in range(draw(st.integers(1, 8)))
    ]
    return ctx, buffered, draw(st.integers(0, 2**32 - 1))


@given(recode_buffers())
@settings(max_examples=300, deadline=None)
def test_recode_matches_reference(case):
    # recode combines packed payload bytes; the oracle combines the symbols
    ctx, buffered, seed = case
    m = ctx.m
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    got = recode(ctx, [CodedPacket(p.tag, packed(p.payload, m)) for p in buffered], rng_a)
    want = reference_recode(ctx, buffered, rng_b)
    assert np.array_equal(got.tag, want.tag)
    assert np.array_equal(got.payload, packed(want.payload, m))
    # the same draws were taken, so the stream continues identically
    assert rng_a.integers(0, 2**32) == rng_b.integers(0, 2**32)


@st.composite
def frame_packets(draw):
    """Packets as the same (tag, payload) twice: a received ``wire.DataFrame``
    (tuple tag, memoryview payload) and a ``CodedPacket`` of arrays."""
    m = draw(st.sampled_from([1, 2, 4, 8]))
    h = draw(st.integers(1, 8))
    n = draw(st.integers(1, 40))
    sym = st.integers(0, (1 << m) - 1)
    pairs = []
    for _ in range(draw(st.integers(1, 10))):
        tag = draw(st.lists(sym, min_size=h, max_size=h))
        payload = draw(st.binary(min_size=n, max_size=n))
        pairs.append((wire.DataFrame((0, 0), tuple(tag), payload, m),
                      CodedPacket(tag, np.frombuffer(payload, dtype=np.uint8))))
    return FieldContext(m), h, n, pairs, draw(st.integers(0, 2**32 - 1))


@given(frame_packets())
@settings(max_examples=200, deadline=None)
def test_frames_decode_and_recode_as_coded_packets(case):
    ctx, h, n, pairs, seed = case
    frames, pkts = [f for f, _ in pairs], [p for _, p in pairs]
    by_frame, by_packet = DecoderState(ctx, h, n), DecoderState(ctx, h, n)
    for frame, pkt in pairs:
        assert by_frame.ingest(frame) is by_packet.ingest(pkt)
        assert np.array_equal(by_frame.rref, by_packet.rref)
        assert by_frame.pivot_cols == by_packet.pivot_cols
        assert by_frame.decoded == by_packet.decoded
    got = recode(ctx, frames, np.random.default_rng(seed))
    want = recode(ctx, pkts, np.random.default_rng(seed))
    assert np.array_equal(got.tag, want.tag)
    assert np.array_equal(got.payload, want.payload)


# -- earliest decoding ------------------------------------------------------

def test_lower_triangular_prefix_decoding(f16):
    rng = np.random.default_rng(8)
    h = 5
    gen = make_generation(f16, h, 6, rng)
    X = gen.matrix()
    state = DecoderState(f16, h, 6)
    for i in range(h):
        tag = np.zeros(h, dtype=np.uint8)
        tag[: i + 1] = rng.integers(0, 16, i + 1, dtype=np.uint8)
        tag[i] = int(rng.integers(1, 16))
        payload = f16.matmul(tag[None, :], X)[0]
        state.ingest(CodedPacket(tag, payload))
        assert sorted(state.delivered) == list(range(i + 1))


def test_duplicate_ingest_is_noop(f16):
    rng = np.random.default_rng(9)
    gen = make_generation(f16, 4, 4, rng)
    pkts = encode_generation(f16, gen, 2, rng)
    state = DecoderState(f16, 4, 4)
    assert state.ingest(pkts[0]) is True
    rank_before = state.rank
    decoded_before = set(state.decoded)
    out = state.ingest(pkts[0])
    assert out is False
    assert state.rank == rank_before
    assert state.decoded == decoded_before


def test_full_rank_random_decodes_all(f16):
    rng = np.random.default_rng(10)
    trials = 0
    while trials < 50:
        gen = make_generation(f16, 4, 6, rng)
        pkts = encode_generation(f16, gen, 4, rng)
        tags = np.array([p.tag for p in pkts])
        if references.gaussian_eliminate(f16, tags)[1] < 4:
            continue
        trials += 1
        state = DecoderState(f16, 4, 6)
        for p in pkts:
            state.ingest(p)
        assert len(state.decoded) == 4


def test_tag_length_mismatch_raises(f16):
    state = DecoderState(f16, 4, 4)
    with pytest.raises(TagLengthMismatch):
        state.ingest(CodedPacket(np.array([1, 2], np.uint8), np.zeros(4, np.uint8)))


def test_never_emits_wrong_packet(f16):
    rng = np.random.default_rng(11)
    for _ in range(200):
        h = int(rng.integers(2, 6))
        gen = make_generation(f16, h, 5, rng)
        pkts = encode_generation(f16, gen, h + 2, rng)
        state = DecoderState(f16, h, 5)
        seen: set[int] = set()
        for p in pkts:
            state.ingest(p)
            delivered = state.delivered
            assert seen <= set(delivered)
            for idx in set(delivered) - seen:
                assert np.array_equal(delivered[idx], gen.source_rows[idx])
            seen = set(delivered)


# -- preconditioning --------------------------------------------------------

def test_reorder_lower_triangular_identity_perm(f16):
    G = np.array(
        [[3, 0, 0], [1, 5, 0], [2, 7, 9]], dtype=np.uint8
    )
    out, perm = precondition_reorder(f16, G)
    assert perm == (0, 1, 2)
    assert np.array_equal(out, G)


def test_reorder_swaps_leading_zero_column(f16):
    G = np.array([[0, 5, 1], [1, 2, 3], [4, 0, 6]], dtype=np.uint8)
    out, perm = precondition_reorder(f16, G)
    assert perm[0] == 1
    assert out[0, 0] == 5


def test_reorder_is_pure_column_permutation(f16):
    rng = np.random.default_rng(12)
    for _ in range(50):
        G = rng.integers(0, 16, size=(4, 4), dtype=np.uint8)
        out, perm = precondition_reorder(f16, G)
        assert sorted(perm) == [0, 1, 2, 3]
        assert np.array_equal(out, G[:, list(perm)])


def reference_precondition_reorder(ctx, G):
    """precondition_reorder as it was: its own greedy loop.  Each row is
    forward-eliminated against the earlier pivot rows (pivot k at column
    k), its earliest nonzero column from r on is swapped into column r, and
    the row is scaled to a leading 1."""
    G = gf.validate_symbols(ctx, G)
    if G.ndim != 2 or G.size == 0:
        raise ValueError("matrix must be non-empty and 2-D")
    rows, cols = G.shape
    W = G.copy()
    perm = list(range(cols))
    pivot_rows = []
    r = 0
    for row_idx in range(rows):
        if r >= cols:
            break
        for k, pr in enumerate(pivot_rows):
            f = int(W[row_idx, k])
            if f:
                W[row_idx] ^= ctx.mul_table[f, W[pr]]
        nz = np.nonzero(W[row_idx, r:])[0]
        if len(nz) == 0:
            continue
        c = r + int(nz[0])
        if c != r:
            W[:, [r, c]] = W[:, [c, r]]
            perm[r], perm[c] = perm[c], perm[r]
        W[row_idx] = ctx.mul_table[ctx.inv(int(W[row_idx, r])), W[row_idx]]
        pivot_rows.append(row_idx)
        r += 1
    return G[:, perm], tuple(perm)


@given(symbol_matrices())
@settings(max_examples=400)
def test_precondition_reorder_matches_reference(case):
    m, G = case
    ctx = FieldContext(m)
    before = G.copy()
    out, perm = precondition_reorder(ctx, G)
    expect, expect_perm = reference_precondition_reorder(ctx, G)
    assert perm == expect_perm
    assert out.dtype == np.uint8 and np.array_equal(out, expect)
    assert np.array_equal(G, before)


def test_prefix_equivalence_rates_small(f16):
    before, after = prefix_equivalence_report(f16, 4, 800, np.random.default_rng(13))
    assert before[3] == 1.0
    assert after[3] == 1.0
    for p in range(3):
        assert 0.88 <= before[p] <= 0.98
        assert after[p] >= 0.99
    # on the report's first 25 blocks, as drawn: wherever the p-th packet
    # obtains its pivot, reducing the received rows (tags and payloads)
    # gives the ideal reduced input, RREF(tags) and RREF(tags) times the data
    tags_rng, data_rng = np.random.default_rng(13), np.random.default_rng(14)
    checked = 0
    for _ in range(25):
        G = sample_tags(f16, 4, 4, tags_rng, mode="rank_increasing")
        for p in range(1, 5):
            if p - 1 not in gaussian_eliminate(f16, G[:p, :p])[2]:
                continue
            X = data_rng.integers(0, 16, size=(4, 8), dtype=np.uint8)
            Y = f16.matmul(G, X)
            rref, _, _ = gaussian_eliminate(f16, np.concatenate([G[:p], Y[:p]], axis=1))
            ideal_rref, _, _ = gaussian_eliminate(f16, G[:p])
            ideal = np.concatenate([ideal_rref, f16.matmul(ideal_rref, X)], axis=1)
            assert np.array_equal(rref, ideal)
            checked += 1
    assert checked > 75


# -- rank-deficient decoding ------------------------------------------------

def test_rank_deficient_full_rank_matches_invert(f16):
    # payloads are ingested packed; estimates come back as symbols
    rng = np.random.default_rng(14)
    X = rng.integers(0, 16, size=(4, 8), dtype=np.uint8)
    G = sample_tags(f16, 4, 4, rng, mode="rank_increasing")
    Y = f16.matmul(G, X)
    state = DecoderState(f16, 4, 4)
    for i in range(4):
        state.ingest(CodedPacket(G[i], packed(Y[i], 4)))
    est, conf = symbol_form(*rank_deficient_solve(state, 2), 4)
    assert (conf == 2).all()
    assert np.array_equal(est, f16.matmul(invert(f16, G), Y))
    assert np.array_equal(est, X)


def test_rank_deficient_unit_rows_certain(f16):
    rng = np.random.default_rng(15)
    h = 4
    X = rng.integers(0, 16, size=(h, 12), dtype=np.uint8)
    state = DecoderState(f16, h, 6)
    for i in range(h - 1):
        tag = np.zeros(h, dtype=np.uint8)
        tag[i] = 1
        state.ingest(CodedPacket(tag, packed(X[i], 4)))
    est, conf = symbol_form(*rank_deficient_solve(state, 2), 4)
    assert est.shape == conf.shape == (h, 12)
    for i in range(h - 1):
        assert (conf[i] == 2).all()
        assert np.array_equal(est[i], X[i])
    assert (conf[h - 1] <= 1).all()


def test_rank_deficient_certain_agrees_with_earliest(f16):
    rng = np.random.default_rng(16)
    for _ in range(100):
        h = 4
        gen = Generation(0, h, 5)
        for _ in range(h):
            gen.add_source_packet(rng.integers(0, 256, size=5, dtype=np.uint8))
        pkts = encode_generation(f16, gen, 3, rng)
        state = DecoderState(f16, h, 5)
        for p in pkts:
            state.ingest(p)
            for i, payload in state.delivered.items():
                assert np.array_equal(payload, gen.source_rows[i])
        est, conf = rank_deficient_solve(state, 2)
        for i in range(h):
            if conf[i] == 2:
                assert np.array_equal(est[i], gen.source_rows[i])
            if i in state.delivered:
                assert conf[i] == 2


def test_rank_deficient_too_many_free_vars_undecoded(f16):
    rng = np.random.default_rng(17)
    h = 6
    gen = make_generation(f16, h, 4, rng)
    pkts = encode_generation(f16, gen, 1, rng)
    state = DecoderState(f16, h, 4)
    state.ingest(pkts[0])
    est, conf = rank_deficient_solve(state, 2)
    # 5 free variables > limit 2: nothing heuristic, at most certain rows
    assert not (conf == 1).any()


def test_monotonicity_of_decoded_set(f16):
    rng = np.random.default_rng(18)
    gen = make_generation(f16, 4, 4, rng)
    pkts = encode_generation(f16, gen, 8, rng)
    state = DecoderState(f16, 4, 4)
    prev: set[int] = set()
    for p in pkts:
        state.ingest(p)
        now = set(state.delivered)
        assert prev <= now
        prev = now


# -- equivalence with the brute-force references ----------------------------

def reference_rank_deficient_solve(state, free_var_limit):
    """Full enumeration: every q^n_free assignment is expanded to an (h, N)
    candidate and scored per column by its count of nonzero symbols, on the
    RREF with its payload bytes split into symbols."""
    ctx = state.ctx
    h = state.block_size
    R = np.concatenate([state.rref[:, :h], unpacked(state.rref[:, h:], ctx.m)], axis=1)
    n = state.packet_len * 8 // ctx.m
    est = np.zeros((h, n), dtype=np.uint8)
    conf = np.zeros((h, n), dtype=np.uint8)
    free_cols = [c for c in range(h) if c not in state.pivot_cols]
    heuristic_rows = []
    for r, c in enumerate(state.pivot_cols):
        if len(free_cols) == 0 or not R[r, free_cols].any():
            est[c] = R[r, h:]
            conf[c] = 2
        else:
            heuristic_rows.append((r, c))
    if free_cols and len(free_cols) <= free_var_limit:
        q = ctx.size
        n_free = len(free_cols)
        grids = np.meshgrid(*[np.arange(q, dtype=np.uint8)] * n_free, indexing="ij")
        A = np.stack([g.ravel() for g in grids], axis=1)
        n_assign = A.shape[0]
        W = np.zeros((n_assign, h, n), dtype=np.uint8)
        for fi, c in enumerate(free_cols):
            W[:, c, :] = A[:, fi][:, None]
        for r, c in enumerate(state.pivot_cols):
            contrib = np.zeros((n_assign, n), dtype=np.uint8)
            for fi, fc in enumerate(free_cols):
                g = int(R[r, fc])
                if g:
                    contrib ^= ctx.mul_table[g, A[:, fi]][:, None]
            W[:, c, :] = R[r, h:][None, :] ^ contrib
        weights = (W != 0).sum(axis=1)
        best = np.argmin(weights, axis=0)
        chosen = W[best, :, np.arange(n)].T
        for r, c in heuristic_rows:
            est[c] = chosen[c]
            conf[c] = 1
        for c in free_cols:
            est[c] = chosen[c]
            conf[c] = 1
    return est, conf


@st.composite
def rank_deficient_states(draw):
    """A decoder state with a chosen number of free tag columns, built by
    ingesting the rows of an RREF with packed payloads: free-column
    coefficients are zero when the draw asks for no heuristic rows, and
    payloads use few symbols so columns repeat.  The limit stays at 1 or
    less over GF(2^8), where the reference enumerates 256^limit full
    candidates."""
    m = draw(st.sampled_from([1, 2, 4, 8]))
    ctx = FieldContext(m)
    h = draw(st.integers(2, 6))
    n_free = draw(st.integers(0, min(3, h)))
    n = draw(st.integers(1, 40 // gf.symbols_per_byte(m))) * gf.symbols_per_byte(m)
    heuristic = draw(st.booleans())
    free = sorted(draw(st.permutations(range(h)))[:n_free])
    pivots = [c for c in range(h) if c not in free]
    symbols = st.integers(0, draw(st.integers(1, ctx.size - 1)))
    rows = []
    for p in pivots:
        tag = np.zeros(h, dtype=np.uint8)
        tag[p] = 1
        if heuristic:
            for c in free:
                if c > p:
                    tag[c] = draw(st.integers(0, ctx.size - 1))
        payload = np.array(draw(st.lists(symbols, min_size=n, max_size=n)), np.uint8)
        rows.append((tag, payload))
    if not rows or draw(st.booleans()):
        # a zero-tag row is not innovative, whatever its payload
        payload = np.zeros(n, dtype=np.uint8)
        payload[draw(st.integers(0, n - 1))] = draw(st.integers(1, ctx.size - 1))
        rows.append((np.zeros(h, dtype=np.uint8), payload))
    state = DecoderState(ctx, h, n * m // 8)
    for tag, payload in rows:
        state.ingest(CodedPacket(tag, packed(payload, m)))
    assert state.pivot_cols == pivots and state.received == len(rows)
    return state, draw(st.integers(0, 1 if m == 8 else 3))


@given(rank_deficient_states())
@settings(max_examples=300, deadline=None)
def test_rank_deficient_solve_matches_enumeration(case):
    state, limit = case
    est, conf = rank_deficient_solve(state, limit)
    assert est.shape == (state.block_size, state.packet_len) and conf.shape == (state.block_size,)
    est, conf = symbol_form(est, conf, state.ctx.m)
    ref_est, ref_conf = reference_rank_deficient_solve(state, limit)
    assert np.array_equal(conf, ref_conf)
    assert np.array_equal(est, ref_est)


def reference_score(est, conf, truth_rows, m):
    """The engine's score as it was, in the symbol domain: the symbols of a
    per-symbol estimate (h, N) that have a confidence and equal the truth,
    its packed source rows split into symbols."""
    symbols = gf.bytes_to_symbols(truth_rows, m).reshape(est.shape)
    return int(np.count_nonzero((est == symbols) & (conf > 0)))


def packed_score(state, est, conf, truth_rows):
    """The engine's score of a packed estimate against truth_rows: the
    symbols right in its rows with a confidence."""
    from bpnc import engine
    rows = [c for c, k in enumerate(conf.tolist()) if k]
    return engine.Truth(truth_rows, state.block_size).compare(state.ctx, est, rows)[0]


@pytest.mark.parametrize("m", [1, 2, 4, 8])
def test_truth_compares_each_row_on_its_own(m):
    # rows 0..2 against their truth rows: equal, one m-bit group off, every
    # group off; row 3 differs too but is not compared
    from bpnc import engine
    ctx = FieldContext(m)
    per_byte = gf.symbols_per_byte(m)
    rng = np.random.default_rng(m)
    truth = rng.integers(0, 256, size=(4, 5), dtype=np.uint8)
    est = truth.copy()
    est[1, 2] ^= 1 << (8 - m)  # the high group of byte 2
    est[2] ^= 0xFF             # every bit, so every group
    est[3] ^= 0xFF
    t = engine.Truth(truth.tobytes(), 4)
    symbols = 5 * per_byte
    assert t.compare(ctx, est, [0]) == (symbols, 0)
    assert t.compare(ctx, est, [1]) == (symbols - 1, 1)
    assert t.compare(ctx, est, [2]) == (0, 1)
    assert t.compare(ctx, est, [0, 1, 2]) == (2 * symbols - 1, 2)
    assert t.compare(ctx, est, []) == (0, 0)
    assert t.compare(ctx, truth, range(4)) == (4 * symbols, 0)
    # each count is the symbol-domain count of equal symbols
    for rows in ([0], [1], [2], [0, 1, 2], [0, 1, 2, 3]):
        want = int(np.count_nonzero(unpacked(est[rows], m) == unpacked(truth[rows], m)))
        assert t.compare(ctx, est, rows) == (want, sum(r > 0 for r in rows))


@given(rank_deficient_states(), st.data())
@settings(max_examples=300, deadline=None)
def test_packed_score_matches_reference_score(case, data):
    # against random truths and against the estimate itself with a few
    # bytes changed, so that scores run from none right to all right
    state, limit = case
    m = state.ctx.m
    est, conf = rank_deficient_solve(state, limit)
    ref_est, ref_conf = reference_rank_deficient_solve(state, limit)
    size = est.size
    near = bytearray(est.tobytes())
    for k in data.draw(st.lists(st.integers(0, size - 1), max_size=4)):
        near[k] ^= data.draw(st.integers(1, 255))
    for truth in (data.draw(st.binary(min_size=size, max_size=size)), bytes(near)):
        assert packed_score(state, est, conf, truth) == reference_score(ref_est, ref_conf, truth, m)


@given(rank_deficient_states())
@settings(max_examples=200, deadline=None)
def test_certain_rows_are_the_decoded_columns(case):
    # the solve reads its certain rows from the decoder's decoded set, which
    # must be the pivot rows with no entry in a free column
    state, limit = case
    h = state.block_size
    free = [c for c in range(h) if c not in state.pivot_cols]
    unit = {c for r, c in enumerate(state.pivot_cols) if not state.rref[r, free].any()}
    _, conf = symbol_form(*rank_deficient_solve(state, limit), state.ctx.m)
    assert set(np.flatnonzero((conf == 2).any(axis=1)).tolist()) == state.decoded == unit
    assert (conf[sorted(state.decoded)] == 2).all()


def test_rank_deficient_solve_matches_enumeration_in_a_lossy_run(monkeypatch):
    # every solve of the 300 s lossy butterfly7 run (the run behind
    # test_early_recovery_pinned), reached through the module-level name,
    # and the engine's packed score of each against the symbol-domain score
    # of the enumeration
    from bpnc import channel as ch
    from bpnc import engine

    scn = ch.butterfly7()
    scn.coding.block_size = 4
    scn.coding.field_bits = 4
    scn.coding.decoder = "rank_deficient"
    scn.frame_loss = 0.1
    scn.duration_s = 300
    calls = scored = 0
    solve = rlnc.rank_deficient_solve
    compare = engine.Truth.compare
    solved = reference = None

    def checked(state, free_var_limit):
        nonlocal calls, solved, reference
        calls += 1
        est, conf = solved = solve(state, free_var_limit)
        reference = reference_rank_deficient_solve(state, free_var_limit)
        got = symbol_form(est, conf, state.ctx.m)
        assert np.array_equal(got[1], reference[1])
        assert np.array_equal(got[0], reference[0])
        return est, conf

    def checked_compare(truth, ctx, est, rows):
        # the decode check at full rank compares too; a score compares the
        # estimate the last solve returned, in its rows with a confidence
        nonlocal scored
        got = compare(truth, ctx, est, rows)
        if solved is not None and est is solved[0]:
            scored += 1
            assert list(rows) == np.flatnonzero(solved[1]).tolist()
            assert got[0] == reference_score(*reference, truth.rows, ctx.m)
        return got

    monkeypatch.setattr(rlnc, "rank_deficient_solve", checked)
    monkeypatch.setattr(engine.Truth, "compare", checked_compare)
    s = engine.run(scn.validate(), seed=1).log.summary
    assert calls > 100 and scored == calls
    assert s["early_recovery_count"] == 35


def test_assignment_table_is_cached_and_read_only():
    A, nnz = rlnc._assignments(4, 3)
    assert rlnc._assignments(4, 3)[0] is A
    # lexicographic, the last variable fastest, as meshgrid(indexing="ij")
    grids = np.meshgrid(*[np.arange(4, dtype=np.uint8)] * 3, indexing="ij")
    assert np.array_equal(A, np.stack([g.ravel() for g in grids], axis=1))
    assert np.array_equal(nnz, np.count_nonzero(A, axis=1))
    for arr in (A, nnz):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1


def test_rank_deficient_solve_memory_at_the_validated_limit():
    # m x T = 8 x 2 is the largest search validation allows: the weight
    # table holds 65,536 assignments x the distinct payload patterns
    import tracemalloc
    f256 = FieldContext(8)
    rng = np.random.default_rng(20)
    state = DecoderState(f256, 4, 500)
    for tag in ([1, 0, 3, 7], [0, 1, 5, 2]):
        state.ingest(CodedPacket(np.array(tag, dtype=np.uint8),
                                 rng.integers(0, 256, size=500, dtype=np.uint8)))
    tracemalloc.start()
    try:
        est, conf = rank_deficient_solve(state, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (conf == 1).all()  # two heuristic rows and two free columns
    assert peak < 200e6


def test_rank_deficient_weight_table_is_reduced_in_place():
    # the (patterns x assignments) weight table is reduced along its
    # contiguous last axis, so argmin makes no copy of it: at 65,536
    # assignments x 500 patterns the peak is the table plus one bool mask
    # (about 98 MB), not the 131 MB an (assignments x patterns) argmin takes
    import tracemalloc
    state = DecoderState(FieldContext(8), 4, 500)
    # RREF rows whose 500 payload columns are 500 distinct patterns
    cols = np.arange(500)
    for tag, payload in (([1, 0, 3, 7], cols % 256), ([0, 1, 5, 2], cols // 256)):
        state.ingest(CodedPacket(np.array(tag, dtype=np.uint8), payload.astype(np.uint8)))
    tracemalloc.start()
    try:
        est, conf = rank_deficient_solve(state, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (conf == 1).all()
    assert peak < 110e6


def test_full_rank_redundant_ingest_changes_nothing(f16):
    rng = np.random.default_rng(19)
    gen = Generation(0, 4, 6)
    for _ in range(4):
        gen.add_source_packet(rng.integers(0, 256, size=6, dtype=np.uint8))
    pkts = encode_generation(f16, gen, 6, rng, mode="rank_increasing")
    state = DecoderState(f16, 4, 6)
    for p in pkts[:4]:
        state.ingest(p)
    assert state.full_rank
    rref = state.rref
    for p in pkts[4:]:
        assert state.ingest(p) is False
    assert state.received == 6 and state.rank == 4 and state.rref is rref
    # a payload inconsistent with the decoded sources has a tag that
    # reduces to zero, so it is not innovative either and changes nothing
    bad = CodedPacket(pkts[4].tag, pkts[4].payload ^ 0xA5)
    assert state.ingest(bad) is False
    assert state.received == 7 and state.rank == 4 and state.rref is rref
    assert state.pivot_cols == [0, 1, 2, 3]


def test_take_block_hands_over_the_sources_and_keeps_the_counts(f16):
    rng = np.random.default_rng(23)
    gen = Generation(0, 4, 6)
    for _ in range(4):
        gen.add_source_packet(rng.integers(0, 256, size=6, dtype=np.uint8))
    pkts = encode_generation(f16, gen, 5, rng, mode="rank_increasing")
    state = DecoderState(f16, 4, 6)
    for p in pkts[:3]:
        state.ingest(p)
    # below full rank there is no block to take, and the rows stay
    with pytest.raises(ValueError, match="full-rank"):
        state.take_block()
    assert state.rank == 3 and len(state.rref) == 3
    state.ingest(pkts[3])
    old = state.rref
    block = state.take_block()
    assert np.array_equal(block, gen.matrix()) and np.shares_memory(block, old)
    # an array of no rows, not a slice that would keep old alive
    assert state.rref.shape == (0, 10) and state.rref.base is None
    assert not state.rref.flags.writeable
    assert (state.rank, state.full_rank, state.received) == (4, True, 4)
    assert state.decoded == {0, 1, 2, 3} and state.delivered == {}
    # every emptied state of one shape shares them
    other = DecoderState(f16, 4, 6)
    for p in pkts[:4]:
        other.ingest(p)
    other.take_block()
    assert other.rref is state.rref and other.decoded is state.decoded
    assert state.pivot_cols == (0, 1, 2, 3) and other.pivot_cols is state.pivot_cols
    # the rows are taken once
    with pytest.raises(ValueError, match="full-rank"):
        state.take_block()
    assert state.ingest(pkts[4]) is False and state.received == 5


@pytest.mark.parametrize("m", [1, 2, 4])  # at m = 8 every byte is a symbol
def test_full_rank_ingest_still_rejects_an_out_of_range_tag(m):
    # at full rank the payload is not read, but the tag's range still is
    ctx = FieldContext(m)
    state = DecoderState(ctx, 2, 1)
    for tag in ([1, 0], [0, 1]):
        state.ingest(CodedPacket(tag, [0x5A]))
    assert state.full_rank
    with pytest.raises(ValueError, match="out of range"):
        state.ingest(CodedPacket([ctx.size, 0], [0x5A]))
    assert state.ingest(CodedPacket([ctx.size - 1, 1], [0x5A])) is False


def test_a_refused_tag_is_not_counted(f16):
    # a frame ingest refuses is not a reception: with one row, at full rank
    # and once the block is taken, a GF(2^4) symbol of 16 raises and leaves
    # received, the rank and the rows as they were
    state = DecoderState(f16, 2, 4)
    refused = CodedPacket([16, 0], bytes(4))
    for tag in ([1, 0], [0, 1], None):
        if tag is None:
            state.take_block()
        else:
            state.ingest(CodedPacket(tag, bytes([tag[0], 2, 3, 4])))
        before = (state.received, state.rank, state.rref)
        with pytest.raises(ValueError, match="out of range"):
            state.ingest(refused)
        assert (state.received, state.rank) == before[:2] and state.rref is before[2]
    assert state.received == 2 and state.full_rank


@st.composite
def row_sequences(draw):
    """Rows of symbols, h tag symbols then a payload of whole bytes."""
    m = draw(st.sampled_from([1, 4]))
    ctx = FieldContext(m)
    h = draw(st.integers(1, 5))
    n = draw(st.integers(1, 3)) * gf.symbols_per_byte(m)
    sym = st.integers(0, ctx.size - 1)
    rows = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(["random", "duplicate", "inconsistent", "zero_tag"]))
        if kind in ("duplicate", "inconsistent") and rows:
            row = ctx.mul_table[draw(st.integers(1, ctx.size - 1)),
                                rows[draw(st.integers(0, len(rows) - 1))]]
            if kind == "inconsistent":
                row[h:] = draw(st.lists(sym, min_size=n, max_size=n))
        else:
            row = np.array(draw(st.lists(sym, min_size=h + n, max_size=h + n)), np.uint8)
            if kind == "zero_tag":
                row[:h] = 0
        rows.append(row)
    return ctx, h, n, rows


@given(row_sequences())
@settings(max_examples=300, deadline=None)
def test_incremental_ingest_matches_full_elimination(case):
    # the reference is the symbol-wise elimination of the rows whose tag
    # raised the tag rank; every other row leaves the state as it was
    ctx, h, n, rows = case
    state = DecoderState(ctx, h, n * ctx.m // 8)
    kept = []
    for row in rows:
        before = state.rref
        raised = state.ingest(CodedPacket(row[:h], packed(row[h:], ctx.m)))
        tags = np.array([r[:h] for r in kept + [row]])
        assert raised is (references.gaussian_eliminate(ctx, tags)[1] > len(kept))
        if raised:
            kept.append(row)
        else:
            assert state.rref is before
        if kept:
            rref, rank, pivots = references.gaussian_eliminate(ctx, np.array(kept))
        else:
            rref, rank, pivots = np.zeros((0, h + n), np.uint8), 0, []
        assert state.rank == rank == len(kept)
        assert state.pivot_cols == pivots
        assert np.array_equal(state.rref[:, :h], rref[:rank, :h])
        assert np.array_equal(state.rref[:, h:], packed(rref[:rank, h:], ctx.m))


# -- equivalence with the former implementations -----------------------------

def reference_newly_decoded(state, decoded_before):
    """DecoderState.ingest's unit-tag check as it was: each pivot row's tag
    summed and indexed through numpy."""
    h = state.block_size
    fresh = []
    for r, c in enumerate(state.pivot_cols):
        tag_part = state.rref[r, :h]
        if c not in decoded_before and tag_part.sum() == 1 and tag_part[c] == 1:
            fresh.append(c)
    return fresh


def reference_unique_rank_deficient_solve(state, free_var_limit):
    """rank_deficient_solve as it was: the column patterns numbered by one
    sorting ``np.unique`` per heuristic row."""
    ctx = state.ctx
    h = state.block_size
    n = state.packet_len * gf.symbols_per_byte(ctx.m)
    tags = state.rref[:, :h]
    P = gf.bytes_to_symbols(state.rref[:, h:].tobytes(), ctx.m).reshape(state.rank, n)
    est = np.zeros((h, n), dtype=np.uint8)
    conf = np.zeros((h, n), dtype=np.uint8)
    free_cols = [c for c in range(h) if c not in state.pivot_cols]
    heuristic_rows = []
    for r, c in enumerate(state.pivot_cols):
        if c in state.decoded:
            est[c] = P[r]
            conf[c] = 2
        else:
            heuristic_rows.append((r, c))
    if not free_cols or len(free_cols) > free_var_limit:
        return est, conf
    conf[free_cols] = 1
    if not heuristic_rows:
        return est, conf
    q = ctx.size
    A, nnz = rlnc._assignments(q, len(free_cols))
    rows = [r for r, _ in heuristic_rows]
    G = tags[rows][:, free_cols]
    f = ctx.matmul(A, G.T)
    codes = np.zeros(n, dtype=np.intp)
    for r in rows:
        _, first, codes = np.unique(codes * q + P[r], return_index=True,
                                    return_inverse=True)
    patterns = P[rows][:, first]
    weights = np.repeat(nnz[None, :], len(first), axis=0)
    for i in range(len(rows)):
        weights += patterns[i][:, None] != f[:, i]
    best = np.argmin(weights, axis=1)[codes]
    for i, (r, c) in enumerate(heuristic_rows):
        est[c] = P[r] ^ f[best, i]
        conf[c] = 1
    est[free_cols] = A[best].T
    return est, conf


def _states_at_every_rank(m, h, seed):
    """Decoder states over GF(2^m), h tag columns and 2-byte payloads, at
    every rank from 0 (a zero tag received) to full; each yielded once per
    ingest, with its result, and the rank and the columns decoded before.
    Payloads draw from a few bytes in half the runs, so that columns share
    patterns."""
    ctx = FieldContext(m)
    rng = np.random.default_rng([m, h, seed])
    for trial in range(4):
        alphabet = np.array([0, 1, 0x10, 0xFF], dtype=np.uint8) if trial % 2 else np.arange(256)
        state = DecoderState(ctx, h, 2)
        tags = [np.zeros(h, dtype=np.uint8)]
        while len(tags) < 4 * h:
            tag = rng.integers(0, ctx.size, size=h, dtype=np.uint8)
            if rng.integers(0, 3) == 0:  # a unit tag, so rows decode early
                tag[:] = 0
                tag[rng.integers(0, h)] = 1
            tags.append(tag)
        for tag in tags:
            rank, before = state.rank, set(state.decoded)
            raised = state.ingest(CodedPacket(tag, rng.choice(alphabet, size=2).astype(np.uint8)))
            yield state, raised, rank, before
            if state.full_rank:
                break


@pytest.mark.parametrize("m", [1, 2, 4, 8])
@pytest.mark.parametrize("h", [1, 2, 4, 8])
def test_newly_decoded_columns_match_reference(m, h):
    ranks = set()
    for state, raised, rank, before in _states_at_every_rank(m, h, 0):
        ranks.add(state.rank)
        assert raised is (state.rank > rank)
        # decoded only grows, by the reference's columns, in pivot order
        fresh = [c for c in state.pivot_cols if c in state.decoded - before]
        assert fresh == reference_newly_decoded(state, before)
        assert state.decoded == before | set(fresh)
        for c in fresh:
            assert np.array_equal(state.delivered[c], state.rref[state.pivot_cols.index(c), h:])
    assert ranks == set(range(h + 1))


def reference_full_unpack_rank_deficient_solve(state, free_var_limit):
    """rank_deficient_solve as it was: the whole RREF payload block
    unpacked on every call, searched or not."""
    if state.received == 0:
        raise ValueError("decoder state holds no rows")
    ctx = state.ctx
    h = state.block_size
    n = state.packet_len * gf.symbols_per_byte(ctx.m)
    tags = state.rref[:, :h]
    P = gf.bytes_to_symbols(state.rref[:, h:].tobytes(), ctx.m).reshape(state.rank, n)
    est = np.zeros((h, n), dtype=np.uint8)
    conf = np.zeros((h, n), dtype=np.uint8)
    free_cols = [c for c in range(h) if c not in state.pivot_cols]
    heuristic_rows = []
    for r, c in enumerate(state.pivot_cols):
        if c in state.decoded:
            est[c] = P[r]
            conf[c] = 2
        else:
            heuristic_rows.append((r, c))
    if not free_cols or len(free_cols) > free_var_limit:
        return est, conf
    conf[free_cols] = 1
    if not heuristic_rows:
        return est, conf
    q = ctx.size
    A, nnz = rlnc._assignments(q, len(free_cols))
    rows = [r for r, _ in heuristic_rows]
    G = tags[rows][:, free_cols]
    f = ctx.matmul(A, G.T)
    codes = np.zeros(n, dtype=np.intp)
    n_codes = 1
    for r in rows:
        codes = codes * q + P[r]
        present = np.zeros(n_codes * q, dtype=np.intp)
        present[codes] = 1
        rank = np.cumsum(present) - 1
        n_codes = int(rank[-1]) + 1
        codes = rank[codes]
    first = np.empty(n_codes, dtype=np.intp)
    first[codes] = np.arange(n)
    patterns = P[rows][:, first]
    weights = np.repeat(nnz[None, :], n_codes, axis=0)
    for i in range(len(rows)):
        weights += patterns[i][:, None] != f[:, i]
    best = np.argmin(weights, axis=1)[codes]
    for i, (r, c) in enumerate(heuristic_rows):
        est[c] = P[r] ^ f[best, i]
        conf[c] = 1
    est[free_cols] = A[best].T
    return est, conf


@pytest.mark.parametrize("m", [1, 2, 4, 8])
@pytest.mark.parametrize("h", [1, 2, 4, 8])
def test_rank_deficient_solve_matches_unique_numbering(m, h):
    ranks = set()
    for state, *_ in _states_at_every_rank(m, h, 1):
        ranks.add(state.rank)
        for limit in (0, 1, 2):
            est, conf = symbol_form(*rank_deficient_solve(state, limit), m)
            ref_est, ref_conf = reference_unique_rank_deficient_solve(state, limit)
            assert np.array_equal(conf, ref_conf)
            assert np.array_equal(est, ref_est)
    assert ranks == set(range(h + 1))


@pytest.mark.parametrize("m", [1, 2, 4, 8])
@pytest.mark.parametrize("h", [1, 2, 4, 8])
def test_rank_deficient_solve_unpacks_only_the_rows_it_reads(m, h, monkeypatch):
    # a solve that does not search copies its rows as bytes and unpacks
    # nothing; one that does unpacks the rows it scores, the pivot rows not
    # yet decoded, once; the estimates are those of a full unpack either way
    unpacked = []
    to_symbols = gf.bytes_to_symbols

    def recording(data, m):
        unpacked.append(len(data))
        return to_symbols(data, m)

    ranks = set()
    for state, *_ in _states_at_every_rank(m, h, 2):
        ranks.add(state.rank)
        for limit in (0, 1, 2):
            ref_est, ref_conf = reference_full_unpack_rank_deficient_solve(state, limit)
            monkeypatch.setattr(gf, "bytes_to_symbols", recording)
            unpacked.clear()
            est, conf = rank_deficient_solve(state, limit)
            monkeypatch.setattr(gf, "bytes_to_symbols", to_symbols)
            est, conf = symbol_form(est, conf, m)
            assert np.array_equal(conf, ref_conf)
            assert np.array_equal(est, ref_est)
            # the search runs when some free columns, at most limit, and
            # at least two pivot rows not yet decoded leave a choice to make
            rows = state.rank - len(state.decoded)
            search = 0 < h - state.rank <= limit and rows >= 2
            assert unpacked == ([rows * state.packet_len] if search else [])
    assert ranks == set(range(h + 1))
