"""Random linear network coding: padding, generations, encoding, recoding,
earliest (Gaussian) decoding and rank-deficient decoding, plus the offline
column-reordering (preconditioning) analysis behind the Table-III report.

A coded packet is a tag (h symbols) and a payload (packed bytes, as on the
wire).  Decoding and recoding read both from whatever holds them, in the
live stack the ``wire.DataFrame`` a node holds.  ``encode_generation`` and
``recode`` return a ``CodedPacket``, the (tag, payload) fields a DATA frame
is built from, unpacked straight into it.  A payload has one form from
source to decoder: ``gf`` scales a packed byte group by group, and
``gf.FieldContext.matmul`` is the one GF matrix product, so encoding,
recoding and elimination combine payload bytes as they are.  Only
``rank_deficient_solve``, which scores single symbols, unpacks them.  Tag
column c always stands for source packet c; the live stack never reorders
columns.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import gf
from .gf import FieldContext, gaussian_eliminate


class PaddingError(ValueError):
    pass


class TagLengthMismatch(ValueError):
    pass


# -- block padding ----------------------------------------------------------

def pad_block(data: bytes, packet_len: int, block_size: int) -> list[list[bytes]]:
    """Split data into groups of block_size packets of packet_len bytes.

    The byte stream is padded with a single 0x80 marker byte and then zeros
    up to the next group boundary.  The marker is always appended, so a data
    stream that exactly fills its final packet gains one extra packet that
    starts with 0x80; the rest of that group is zero fill.  This keeps
    unpadding unambiguous for every input length.
    """
    if packet_len <= 0:
        raise ValueError("packet_len must be positive")
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    group_bytes = packet_len * block_size
    padded = bytearray(data)
    padded.append(0x80)
    rem = len(padded) % group_bytes
    if rem:
        padded.extend(b"\x00" * (group_bytes - rem))
    groups = []
    for g in range(0, len(padded), group_bytes):
        chunk = padded[g : g + group_bytes]
        groups.append(
            [bytes(chunk[i : i + packet_len]) for i in range(0, group_bytes, packet_len)]
        )
    return groups


def unpad_block(packets: list[bytes]) -> bytes:
    """Inverse of pad_block over the flattened packet list."""
    stream = b"".join(packets)
    end = len(stream)
    while end > 0 and stream[end - 1] == 0:
        end -= 1
    if end == 0 or stream[end - 1] != 0x80:
        raise PaddingError("missing 0x80 padding marker")
    return stream[: end - 1]


# -- domain types -----------------------------------------------------------

class CodedPacket(NamedTuple):
    """A coded packet as the fields a ``wire.DataFrame`` takes after its
    flow and generation: h tag symbols and the payload's packed bytes."""

    tag: tuple[int, ...]
    payload: np.ndarray | memoryview


def packet_row(pkt) -> np.ndarray:
    """pkt's tag, then its payload, as one read-only row; each part may be
    any byte sequence, so a frame (tuple tag, memoryview payload) reads as
    it is."""
    return np.frombuffer(bytes(pkt.tag) + bytes(pkt.payload), dtype=np.uint8)


@dataclass
class Generation:
    """Source-side packet block: up to block_size rows of packet_len bytes."""

    gen_id: int
    block_size: int
    packet_len: int
    source_rows: list[np.ndarray] = field(default_factory=list)

    def add_source_packet(self, row) -> None:
        row = np.asarray(row, dtype=np.uint8)
        if len(row) != self.packet_len:
            raise ValueError("source packet length mismatch")
        if len(self.source_rows) >= self.block_size:
            raise ValueError("generation already full")
        self.source_rows.append(row)

    @property
    def filled(self) -> int:
        return len(self.source_rows)

    @property
    def full(self) -> bool:
        return self.filled == self.block_size

    def matrix(self) -> np.ndarray:
        return np.array(self.source_rows, dtype=np.uint8).reshape(
            self.filled, self.packet_len
        )


# -- tag sampling -----------------------------------------------------------

def _sample_nonzero_tag(ctx: FieldContext, width: int, rng) -> np.ndarray:
    while True:
        tag = rng.integers(0, ctx.size, size=width, dtype=np.uint8)
        if tag.any():
            return tag


def sample_tags(ctx: FieldContext, width: int, count: int, rng,
                mode: str = "uniform") -> np.ndarray:
    """count x width matrix of random nonzero tags, drawn in row order.

    mode 'uniform' rejects all-zero rows only; 'rank_increasing' also
    rejects a row in the span of the rows so far, until they span the whole
    space, so every new packet raises the rank while it can.  The accepted
    rows are kept reduced (``gf.rref_insert``), so a candidate costs one
    reduction of one row.
    """
    if mode not in ("uniform", "rank_increasing"):
        raise ValueError(f"unknown tag mode {mode!r}")
    rows: list[np.ndarray] = []
    rref, pivots = np.zeros((0, width), dtype=np.uint8), []
    while len(rows) < count:
        tag = _sample_nonzero_tag(ctx, width, rng)
        if mode == "rank_increasing" and len(pivots) < width:
            reduced = gf.rref_insert(ctx, rref, pivots, tag, width)
            if reduced is None:
                continue
            rref, pivots = reduced
        rows.append(tag)
    return np.array(rows, dtype=np.uint8).reshape(count, width)


def encode_generation(
    ctx: FieldContext,
    gen: Generation,
    count: int,
    rng,
    mode: str = "uniform",
) -> list[CodedPacket]:
    """Emit coded packets whose tags cover the filled prefix of the block.

    A partially filled generation is encodable: tags are zero beyond the
    filled rows, which is what makes received coding matrices tend toward a
    lower-triangular staircase.
    """
    if gen.filled == 0:
        raise ValueError("generation holds no source rows")
    j = gen.filled
    tags = np.zeros((count, gen.block_size), dtype=np.uint8)
    tags[:, :j] = sample_tags(ctx, j, count, rng, mode)
    payloads = ctx.matmul(tags[:, :j], gen.matrix())
    return [CodedPacket(tuple(tag), payload) for tag, payload in zip(tags.tolist(), payloads)]


def recode(ctx: FieldContext, buffered, rng) -> CodedPacket:
    """Random GF recombination of buffered packets of one (flow, generation),
    each read as ``packet_row`` reads it."""
    if not buffered:
        raise ValueError("nothing to recode")
    h = len(buffered[0].tag)
    # each buffered packet as one row, tag then payload: one product combines both
    rows = np.array([packet_row(p) for p in buffered])
    for _ in range(16):
        coeffs = rng.integers(0, ctx.size, size=len(buffered), dtype=np.uint8)
        combo = ctx.matmul(coeffs[None], rows)[0]
        if combo[:h].any():
            return CodedPacket(tuple(combo[:h].tolist()), combo[h:])
    return CodedPacket(buffered[0].tag, buffered[0].payload)


# -- column reordering (precondition step) ---------------------------------

def precondition_reorder(ctx: FieldContext, G) -> tuple[np.ndarray, tuple[int, ...]]:
    """Greedy column permutation of a tag matrix, for the offline
    preconditioning report only: ``prefix_equivalence_report`` tests each
    sampled block as drawn and as reordered here.

    For each row r (after eliminating the contribution of earlier pivots),
    the earliest column with a nonzero entry is swapped into position r.  The
    returned permutation maps position -> original column.
    """
    G = gf.validate_symbols(ctx, G)
    if G.ndim != 2 or G.size == 0:
        raise ValueError("matrix must be non-empty and 2-D")
    rows, cols = G.shape
    W = G.copy()  # working copy, gets eliminated
    perm = list(range(cols))
    pivot_rows: list[int] = []
    r = 0
    for row_idx in range(rows):
        if r >= cols:
            break
        # forward-eliminate prior pivots (pivot k lives at column k)
        for k, pr in enumerate(pivot_rows):
            f = int(W[row_idx, k])
            if f:
                W[row_idx] ^= ctx.scale_row(f, W[pr])
        nz = np.nonzero(W[row_idx, r:])[0]
        if len(nz) == 0:
            continue
        c = r + int(nz[0])
        if c != r:
            W[:, [r, c]] = W[:, [c, r]]
            perm[r], perm[c] = perm[c], perm[r]
        W[row_idx] = ctx.scale_row(ctx.inv(int(W[row_idx, r])), W[row_idx])
        pivot_rows.append(row_idx)
        r += 1
    return G[:, perm], tuple(perm)


# -- decoding ---------------------------------------------------------------

@dataclass
class DecoderState:
    """Per-generation accumulator; earliest and rank-deficient decoding
    ingest alike.

    ``rref`` holds one row per pivot: h tag symbols, then packet_len payload
    bytes.  Pivots are taken in tag columns only.  A row whose tag reduces
    to zero against the rows so far is not innovative: it is counted in
    ``received`` and changes nothing else, whatever its payload.  So
    ``rank`` is the rank of the tags received, and the state is full rank
    when every tag column is a pivot.

    ``decoded`` holds the tag columns whose pivot row is a unit tag.  Later
    rows never touch such a row, so a column once decoded stays decoded,
    and its source packet is that row's payload: ``delivered`` reads it out
    of ``rref`` and keeps no copy.

    Single-owner mutable; distinct generations decode independently.
    """

    ctx: FieldContext
    block_size: int
    packet_len: int

    def __post_init__(self):
        h, n = self.block_size, self.packet_len
        self.rref = np.zeros((0, h + n), dtype=np.uint8)
        self.pivot_cols: list[int] = []
        self.decoded: set[int] = set()
        self.received = 0

    @property
    def rank(self) -> int:
        return len(self.pivot_cols)

    @property
    def full_rank(self) -> bool:
        """Every tag column is a pivot, so every source packet is decoded."""
        return len(self.pivot_cols) == self.block_size

    @property
    def delivered(self) -> dict[int, np.ndarray]:
        """Source index -> payload of every decoded source packet, as views
        of the rows of ``rref``."""
        h = self.block_size
        return {c: self.rref[r, h:] for r, c in enumerate(self.pivot_cols)
                if c in self.decoded}

    def ingest(self, pkt) -> list[tuple[int, np.ndarray]]:
        """Add one packet (see ``packet_row``); return newly decoded
        (source_index, payload) pairs, each a view of its row of ``rref``.

        Only the new row is reduced against the stored RREF; a row that is
        not innovative changes nothing.  A source index is its tag column.
        """
        h = self.block_size
        if len(pkt.tag) != h:
            raise TagLengthMismatch(f"tag length {len(pkt.tag)} != block size {h}")
        if len(pkt.payload) != self.packet_len:
            raise ValueError("payload length mismatch")
        self.received += 1
        inserted = gf.rref_insert(self.ctx, self.rref, self.pivot_cols, packet_row(pkt), h)
        if inserted is None:
            return []
        self.rref, self.pivot_cols = inserted
        # a pivot row's tag holds a 1 in its pivot column, so it is a unit
        # tag when every other symbol is 0; the h <= 255 symbols of each
        # row are counted as a Python list
        tags = self.rref[:, :h].tolist()
        fresh = []
        for r, c in enumerate(self.pivot_cols):
            if tags[r].count(0) == h - 1 and c not in self.decoded:
                self.decoded.add(c)
                fresh.append((c, self.rref[r, h:]))
        return fresh

    def decoded_count(self) -> int:
        return len(self.decoded)


@functools.cache
def _assignments(q: int, n_free: int) -> tuple[np.ndarray, np.ndarray]:
    """All q^n_free assignments of n_free free variables, lexicographic (the
    last variable varies fastest), and the nonzero count of each.  Both
    depend only on (q, n_free), so each pair is built once, read-only.  The
    counts are uint16, so the solve's (patterns x assignments) weight table
    is too: at m=8, T=2 that is 65,536 columns, a quarter of the int64 size.
    """
    A = np.indices((q,) * n_free, dtype=np.uint8).reshape(n_free, -1).T.copy()
    nnz = np.count_nonzero(A, axis=1).astype(np.uint16)
    A.setflags(write=False)
    nnz.setflags(write=False)
    return A, nnz


def rank_deficient_solve(
    state: DecoderState, free_var_limit: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-symbol estimates and confidence from a possibly rank-deficient
    state, searching only when at most T = free_var_limit tag columns are
    free.

    Returns (estimates (h, N) uint8, confidence (h, N) uint8) over the N
    symbols of a payload, with confidence 2 = certain (unique under current
    rank), 1 = heuristic (minimum-weight pick over the affine solution set),
    0 = undecoded.  Row c is source packet c, the tag column.  Certain
    symbols always agree with earliest decoding; the heuristic is a
    stand-in for an LP lowest-weight decoder.  It costs q^T cached
    assignments x distinct column codes x heuristic rows, where a column's
    code numbers its tuple of heuristic-row payload symbols, plus, per
    heuristic row, a presence table and a cumulative sum over at most N*q
    entries.  With no heuristic rows the lightest assignment is the all-zero
    one, so no search runs.

    The one place a payload is split into symbols, at most once per call:
    the RREF's whole payload block when the search runs, else only the
    decoded rows, the only ones read.
    """
    if state.received == 0:
        raise ValueError("decoder state holds no rows")
    ctx = state.ctx
    h = state.block_size
    n = state.packet_len * gf.symbols_per_byte(ctx.m)
    est = np.zeros((h, n), dtype=np.uint8)
    conf = np.zeros((h, n), dtype=np.uint8)
    free_cols = [c for c in range(h) if c not in state.pivot_cols]
    # certain rows: the decoded ones, pivot rows with no free-column entry
    certain, heuristic_rows = [], []
    for r, c in enumerate(state.pivot_cols):
        (certain if c in state.decoded else heuristic_rows).append((r, c))
    search = heuristic_rows and 0 < len(free_cols) <= free_var_limit
    # without a search only the certain rows are read, so only they are
    # unpacked (none while no row is decoded), and P[k] is the k-th of them
    read = range(state.rank) if search else [r for r, _ in certain]
    if read:
        P = gf.bytes_to_symbols(b"".join([state.rref[r, h:] for r in read]),
                                ctx.m).reshape(len(read), n)
    for k, (r, c) in enumerate(certain):
        est[c] = P[r if search else k]
        conf[c] = 2
    if not free_cols or len(free_cols) > free_var_limit:
        return est, conf
    conf[free_cols] = 1
    if not heuristic_rows:
        # every candidate weighs nnz(a) in every column: a = 0 wins alone
        return est, conf
    q = ctx.size
    A, nnz = _assignments(q, len(free_cols))
    rows = [r for r, _ in heuristic_rows]
    # f[a, i]: the symbol assignment a subtracts from heuristic row i
    G = state.rref[:, :h][rows][:, free_cols]
    f = ctx.matmul(A, G.T)
    # A candidate's weight in column l is nnz(a) plus the heuristic rows
    # whose payload symbol differs from f[a] (certain rows add the same
    # count to every candidate), so it depends on l only through the
    # column's tuple of heuristic-row payload symbols.  Number the tuples by
    # one row at a time, re-ranking after each (codes stay below N*q), score
    # each distinct code once and map the pick back to its columns.  The
    # numbering is dense and follows the codes' order: a code's number is
    # the count of distinct smaller codes, read off a presence table.
    codes = np.zeros(n, dtype=np.intp)
    n_codes = 1
    for r in rows:
        codes = codes * q + P[r]
        present = np.zeros(n_codes * q, dtype=np.intp)
        present[codes] = 1
        rank = np.cumsum(present) - 1
        n_codes = int(rank[-1]) + 1
        codes = rank[codes]
    # any column of a pattern represents it
    first = np.empty(n_codes, dtype=np.intp)
    first[codes] = np.arange(n)
    patterns = P[rows][:, first]  # (k, n_patterns)
    # (n_patterns, n_assign): argmin reduces the contiguous axis, no copy
    weights = np.repeat(nnz[None, :], n_codes, axis=0)
    for i in range(len(rows)):
        weights += patterns[i][:, None] != f[:, i]
    # first minimal index, deterministic
    best = np.argmin(weights, axis=1)[codes]
    for i, (r, c) in enumerate(heuristic_rows):
        est[c] = P[r] ^ f[best, i]
        conf[c] = 1
    est[free_cols] = A[best].T
    return est, conf


# -- preconditioning experiment (Table III analog) --------------------------

def _prefix_pivot_ok(ctx: FieldContext, G: np.ndarray, p: int) -> bool:
    """Does column p-1 obtain a pivot from the first p rows, scanning columns
    left to right?  This is the condition for the p-th packet's reduced form
    to match the ideal (data-side) reduction."""
    return p - 1 in gaussian_eliminate(ctx, G[:p, :p])[2]


def prefix_equivalence_report(
    ctx: FieldContext, h: int, num_blocks: int, rng
) -> tuple[np.ndarray, np.ndarray]:
    """Fraction of blocks, per packet position, whose reduced form is
    equivalent to the ideal reduced input: ``(before, after)``, without and
    with ``precondition_reorder``.  Each block's tags are sampled once,
    rank-increasing (each new packet raises the rank), and both forms of
    the same block are tested."""
    hits = np.zeros((2, h), dtype=np.int64)
    for _ in range(num_blocks):
        G = sample_tags(ctx, h, h, rng, mode="rank_increasing")
        for form, M in enumerate((G, precondition_reorder(ctx, G)[0])):
            for p in range(1, h + 1):
                hits[form, p - 1] += _prefix_pivot_ok(ctx, M, p)
    before, after = hits / num_blocks
    return before, after
