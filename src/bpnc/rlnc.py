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
recoding and elimination combine payload bytes as they are.  Every
elimination here, the decoder's, rank-increasing tag sampling's and the
column reordering's, adds one row at a time through ``gf.rref_insert``.
``rank_deficient_solve`` returns its estimates as packed rows too, one
confidence per row.  It is the one place a payload is split into symbols:
only when its search runs, and only the rows the search scores.  Tag
column c always stands for source packet c; the live stack never reorders
columns.  A decoder at full rank hands its payload block over once, through
``DecoderState.take_block``, and then keeps only its reception count: its
empty rows, its pivot columns and its decoded set are the ones every taken
decoder of its shape shares, so a decoded generation holds no rows, and no
list or set of its own, for the rest of a run.  ``DecoderState.ingest``
counts a packet only once it has checked it whole, so a packet it refuses
is not a reception.
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


@dataclass
class Generation:
    """Source-side packet block: up to block_size rows of packet_len bytes."""

    gen_id: int
    block_size: int
    packet_len: int
    # bytes-like rows: a source keeps each frame's payload view as it is
    source_rows: list = field(default_factory=list)
    # the (flow index, generation id) tuple a node names the generation by
    # and builds each of its frames with, so they all hold that one tuple
    key: tuple[int, int] | None = None

    def add_source_packet(self, row) -> None:
        """Append one row; a row that is not bytes or a memoryview is read
        as uint8 symbols or bytes."""
        if not isinstance(row, (bytes, memoryview)):
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
        return len(self.source_rows) == self.block_size

    def matrix(self) -> np.ndarray:
        """The filled rows as one read-only (filled, packet_len) array."""
        return np.frombuffer(b"".join(self.source_rows), dtype=np.uint8).reshape(
            self.filled, self.packet_len)


# -- tag sampling -----------------------------------------------------------

def _draw_tags(ctx: FieldContext, width: int, count: int, rng, mode: str) -> list[list[int]]:
    """count random nonzero tags of width symbols, as lists (see
    ``sample_tags``); each candidate is one draw of width symbols."""
    if mode not in ("uniform", "rank_increasing"):
        raise ValueError(f"unknown tag mode {mode!r}")
    rows: list[list[int]] = []
    rref, pivots = np.zeros((0, width), dtype=np.uint8), []
    while len(rows) < count:
        tag = rng.integers(0, ctx.size, size=width, dtype=np.uint8).tolist()
        if not any(tag):
            continue
        if mode == "rank_increasing" and len(pivots) < width:
            reduced = gf.rref_insert(ctx, rref, pivots, tag, width)
            if reduced is None:
                continue
            rref, pivots = reduced
        rows.append(tag)
    return rows


def sample_tags(ctx: FieldContext, width: int, count: int, rng,
                mode: str = "uniform") -> np.ndarray:
    """count x width matrix of random nonzero tags, drawn in row order.

    mode 'uniform' rejects all-zero rows only; 'rank_increasing' also
    rejects a row in the span of the rows so far, until they span the whole
    space, so every new packet raises the rank while it can.  The accepted
    rows are kept reduced (``gf.rref_insert``), so a candidate costs one
    reduction of one row.
    """
    return np.array(_draw_tags(ctx, width, count, rng, mode),
                    dtype=np.uint8).reshape(count, width)


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
    lower-triangular staircase.  The tags are drawn as ``sample_tags``
    draws them, and all payloads come from one product.
    """
    if gen.filled == 0:
        raise ValueError("generation holds no source rows")
    tags = _draw_tags(ctx, gen.filled, count, rng, mode)
    payloads = ctx.matmul(tags, gen.matrix())
    pad = (0,) * (gen.block_size - gen.filled)
    return [CodedPacket(tuple(tag) + pad, payload) for tag, payload in zip(tags, payloads)]


def recode(ctx: FieldContext, buffered, rng) -> CodedPacket:
    """Random GF recombination of buffered packets of one (flow, generation),
    each read as ``DecoderState.ingest`` reads it."""
    if not buffered:
        raise ValueError("nothing to recode")
    h = len(buffered[0].tag)
    # each buffered packet as one row, tag then payload, all gathered by
    # one join: one product combines both
    rows = np.frombuffer(b"".join([bytes(p.tag) + bytes(p.payload) for p in buffered]),
                         dtype=np.uint8).reshape(len(buffered), -1)
    for _ in range(16):
        coeffs = rng.integers(0, ctx.size, size=len(buffered), dtype=np.uint8)
        combo = ctx.matmul(coeffs[None], rows)[0]
        tag = combo[:h].tolist()
        if any(tag):
            return CodedPacket(tuple(tag), combo[h:])
    return CodedPacket(buffered[0].tag, buffered[0].payload)


# -- column reordering (precondition step) ---------------------------------

def precondition_reorder(ctx: FieldContext, G) -> tuple[np.ndarray, tuple[int, ...]]:
    """Greedy column permutation of a tag matrix, for the offline
    preconditioning report only: ``prefix_equivalence_report`` tests each
    sampled block as drawn and as reordered here.

    For each row r (after eliminating the contribution of earlier pivots),
    the earliest column with a nonzero entry is swapped into position r.  The
    returned permutation maps position -> original column.  Each row is
    inserted by ``gf.rref_insert`` in the current column order, so pivot k
    sits at column k, and the new pivot's column is swapped into the next
    position.
    """
    G = gf.validate_symbols(ctx, G)
    if G.ndim != 2 or G.size == 0:
        raise ValueError("matrix must be non-empty and 2-D")
    cols = G.shape[1]
    perm = list(range(cols))
    R, pivot_cols = G[:0], []
    for row in G:
        if len(pivot_cols) == cols:
            break
        inserted = gf.rref_insert(ctx, R, pivot_cols, row[perm], cols)
        if inserted is None:
            continue
        R, pivot_cols = inserted
        # columns 0..r-1 are the earlier pivots, so the new one, c, is last
        r, c = len(pivot_cols) - 1, pivot_cols[-1]
        if c != r:
            R[:, [r, c]] = R[:, [c, r]]
            perm[r], perm[c] = perm[c], perm[r]
            pivot_cols[-1] = r
    return G[:, perm], tuple(perm)


# -- decoding ---------------------------------------------------------------

@functools.cache
def _taken(h: int, packet_len: int) -> tuple[np.ndarray, tuple[int, ...], frozenset[int]]:
    """What a decoder of block size h holds once ``take_block`` took its
    rows: a read-only array of no rows, its own and not a slice of the old
    rows, which would keep them alive, every tag column as a pivot column,
    in order, and every tag column as decoded.  All three are built once
    for each shape and shared."""
    empty = np.zeros((0, h + packet_len), dtype=np.uint8)
    empty.setflags(write=False)
    return empty, tuple(range(h)), frozenset(range(h))


@dataclass(slots=True)
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

    At full rank the rows are read once more, by ``take_block``, which hands
    over the decoded payload block and keeps only the counts: ``rref`` has no
    rows after it, ``pivot_cols`` and ``decoded`` are every column, shared
    by every taken state of the same shape, and ``delivered`` is empty.  A
    later frame is still counted and still rejected, since ``ingest`` at
    full rank reads no rows.

    Single-owner mutable; distinct generations decode independently.  A
    destination keeps one per generation for the rest of a run, so the
    state sits in slots, with no per-instance ``__dict__``.
    """

    ctx: FieldContext
    block_size: int
    packet_len: int
    rref: np.ndarray = field(init=False)
    pivot_cols: list[int] | tuple[int, ...] = field(init=False)
    decoded: set[int] | frozenset[int] = field(init=False)
    received: int = field(init=False)

    def __post_init__(self):
        h, n = self.block_size, self.packet_len
        self.rref = np.zeros((0, h + n), dtype=np.uint8)
        self.pivot_cols = []
        self.decoded = set()
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
        of the rows of ``rref``; empty once ``take_block`` took them."""
        h = self.block_size
        return {c: row[h:] for row, c in zip(self.rref, self.pivot_cols)
                if c in self.decoded}

    def take_block(self) -> np.ndarray:
        """At full rank, the (h, packet_len) payload block, source packet c
        in row c, and the state gives up its rows: it stays at full rank
        with its counts, ``rref`` has no rows, and ``pivot_cols`` and
        ``decoded`` are every column (see ``_taken``)."""
        h = self.block_size
        if len(self.rref) != h:
            raise ValueError("take_block needs a full-rank state that holds its rows")
        block = self.rref[:, h:]
        self.rref, self.pivot_cols, self.decoded = _taken(h, self.packet_len)
        return block

    def ingest(self, pkt) -> bool:
        """Add one packet; return whether it raised the rank.

        The packet's tag and payload may each be any byte sequence, so a
        frame (tuple tag, memoryview payload) reads as it is: its payload is
        read once, and the row reduced is its tag, then its payload, as one
        read-only array.  A packet is checked whole before it is counted: a
        tag of another length, a payload of another length or a tag symbol
        outside the field raises, and ``received`` stays as it was.  Only the new row
        is reduced against the stored RREF; a row that is not innovative
        changes nothing.  At full rank every tag reduces to zero, so the
        payload is not read.  After an innovative row, ``decoded`` is the
        pivot columns whose row is a unit tag.
        """
        h = self.block_size
        tag, payload = pkt.tag, pkt.payload
        if len(tag) != h:
            raise TagLengthMismatch(f"tag length {len(tag)} != block size {h}")
        if len(payload) != self.packet_len:
            raise ValueError("payload length mismatch")
        if h and (min(tag) < 0 or max(tag) >= self.ctx.size):
            raise ValueError(f"symbol out of range for GF(2^{self.ctx.m})")
        self.received += 1
        if len(self.pivot_cols) == h:
            return False
        row = np.frombuffer(bytes(tag) + bytes(payload), dtype=np.uint8)
        inserted = gf.rref_insert(self.ctx, self.rref, self.pivot_cols, row, h)
        if inserted is None:
            return False
        self.rref, self.pivot_cols = inserted
        # a pivot row's tag holds a 1 in its pivot column, so it is a unit
        # tag when its other h - 1 symbols, counted in a Python list, are 0
        tags = self.rref[:, :h].tolist()
        self.decoded = {c for r, c in enumerate(self.pivot_cols) if tags[r].count(0) == h - 1}
        return True


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
    """Estimates of every source packet from a possibly rank-deficient
    state, searching only when at most T = free_var_limit tag columns are
    free.

    Returns (estimates (h, packet_len) uint8, confidence (h,) uint8): row c
    is source packet c, the tag column, as packed payload bytes, and its one
    confidence holds for every symbol of the row: 2 = certain (unique under
    current rank), 1 = heuristic (minimum-weight pick over the affine
    solution set), 0 = undecoded (an all-zero row).  Certain rows always
    agree with earliest decoding; the heuristic is a stand-in for an LP
    lowest-weight decoder.  The search costs q^T cached assignments x
    distinct column patterns x heuristic rows, where a column's pattern is
    its tuple of heuristic-row payload symbols and at most N patterns are
    scored (N symbols in a payload).  With fewer than two heuristic rows
    the lightest assignment is the all-zero one, so no search runs.

    The one place a payload is split into symbols: only when the search
    runs, only the heuristic rows it reads, once, and the rows it picks are
    packed back once.  Without a search every row is copied as the bytes it
    is.
    """
    if state.received == 0:
        raise ValueError("decoder state holds no rows")
    h = state.block_size
    est = np.zeros((h, state.packet_len), dtype=np.uint8)
    # one confidence per row, a list until it is returned
    conf = [0] * h
    # certain rows: the decoded ones, pivot rows with no free-column entry
    heuristic_rows = []
    for r, c in enumerate(state.pivot_cols):
        if c in state.decoded:
            est[c] = state.rref[r, h:]
            conf[c] = 2
        else:
            heuristic_rows.append((r, c))
    if 0 < h - state.rank <= free_var_limit:
        # every other row is picked.  In a column where at most one
        # heuristic row's symbol is nonzero, a = 0 weighs at most 1, and
        # every other candidate weighs nnz(a) >= 1 and comes after it, so
        # a = 0 wins there.  With fewer than two heuristic rows it wins in
        # every column: each heuristic row keeps its payload, and the free
        # columns stay 0.
        conf = [k or 1 for k in conf]
        if len(heuristic_rows) < 2:
            for r, c in heuristic_rows:
                est[c] = state.rref[r, h:]
        else:
            _min_weight_pick(state, heuristic_rows, est)
    return est, np.array(conf, dtype=np.uint8)


def _min_weight_pick(state: DecoderState, heuristic_rows: list[tuple[int, int]],
                     est: np.ndarray) -> None:
    """Write into est the lightest candidate, column by column, for the
    heuristic rows ((rref row, tag column) pairs) and the free columns."""
    ctx = state.ctx
    h = state.block_size
    free_cols = [c for c in range(h) if c not in state.pivot_cols]
    q = ctx.size
    n = state.packet_len * gf.symbols_per_byte(ctx.m)
    A, nnz = _assignments(q, len(free_cols))
    rows = [r for r, _ in heuristic_rows]
    # P[i]: heuristic row i's payload symbols
    P = gf.bytes_to_symbols(state.rref[rows, h:].tobytes(), ctx.m).reshape(len(rows), n)
    # f[a, i]: the symbol assignment a subtracts from heuristic row i
    G = state.rref[rows][:, free_cols]
    f = ctx.matmul(A, G.T)
    # A candidate's weight in column l is nnz(a) plus the heuristic rows
    # whose payload symbol differs from f[a] (certain rows add the same
    # count to every candidate), so it depends on l only through the
    # column's tuple of heuristic-row payload symbols, its pattern.  Each
    # distinct pattern, at most N of them, is scored once, and codes maps
    # every column to its pattern's pick.  The patterns are found by one
    # 1-D unique over the columns, each read as one k-byte value, which
    # sorts several times faster than np.unique's axis=1 path.
    k = len(rows)
    found, codes = np.unique(np.ascontiguousarray(P.T).view(np.dtype((np.void, k))).ravel(),
                             return_inverse=True)
    patterns = found.view(np.uint8).reshape(-1, k).T  # (k, n_patterns)
    # (n_patterns, n_assign): argmin reduces the contiguous axis, no copy
    weights = np.repeat(nnz[None, :], patterns.shape[1], axis=0)
    for i in range(k):
        weights += patterns[i][:, None] != f[:, i]
    # first minimal index, deterministic
    best = np.argmin(weights, axis=1)[codes]
    # the picked symbols, heuristic rows then free columns, packed at once
    picked = np.concatenate((P ^ f[best].T, A[best].T))
    est[[c for _, c in heuristic_rows] + free_cols] = np.frombuffer(
        gf.symbols_to_bytes(picked.ravel(), ctx.m), dtype=np.uint8).reshape(len(picked), -1)


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
