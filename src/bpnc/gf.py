"""GF(2^m) arithmetic and matrix algebra over field symbols and packed bytes.

Symbols are plain ints (or numpy uint8 arrays) in [0, 2^m).  Matrices are
2-D numpy uint8 arrays, row-major.  All decoding paths build on the one
table-driven multiply here, ``FieldContext.mul_table``: it scales a symbol,
and it scales a byte of packed m-bit symbols group by group, so a coded
payload is combined, eliminated and recoded as the bytes it travels in.
``FieldContext.matmul`` is the one matrix product: a wide one (encoding,
recoding) is one gather of every term from the flattened table and one XOR
reduce, and a tall one (the solve's assignments) adds its few terms one
block at a time.  ``rref_insert`` is the one elimination: it adds a row
to a reduced row-echelon form, and ``gaussian_eliminate`` folds it over a
matrix's rows; the textbook column-by-column loop is kept apart, in
``tests/references.py``, as the independent oracle.
``FieldContext.zero_groups`` counts the zero m-bit groups of a byte, so
the XOR of two packed payloads counts the symbols they share.
``bytes_to_symbols`` splits bytes into symbols only where the
rank-deficient search scores single symbols.  ``mul_slow`` is the
independent shift-reduce reference kept for cross-checking.
"""

from __future__ import annotations

import bisect
import functools

import numpy as np

# Reduction polynomials (primitive for each width), as integer bitmasks
# including the leading term.  m=4 uses x^4 + x + 1 = 0x13.
DEFAULT_POLYS = {
    1: 0x3,
    2: 0x7,
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x89,
    8: 0x11D,
}


def mul_slow(a: int, b: int, m: int, poly: int) -> int:
    """Carry-less multiply then reduce mod poly.  Reference implementation."""
    prod = 0
    aa = a
    bb = b
    while bb:
        if bb & 1:
            prod ^= aa
        bb >>= 1
        aa <<= 1
    # reduce
    for bit in range(2 * m - 2, m - 1, -1):
        if prod & (1 << bit):
            prod ^= poly << (bit - m)
    return prod


class FieldContext:
    """Immutable GF(2^m) context with precomputed exp/log tables.

    Safe to share across threads; every operation is a pure function.
    """

    def __init__(self, m: int = 4):
        if not 1 <= m <= 8:
            raise ValueError(f"field bit-width must be in 1..8, got {m}")
        self.m = m
        self.size = 1 << m
        self.poly = DEFAULT_POLYS[m]
        order = self.size - 1
        exp = np.zeros(2 * order, dtype=np.uint8)
        log = np.zeros(self.size, dtype=np.int32)
        x = 1
        for i in range(order):
            exp[i] = x
            log[x] = i
            x <<= 1
            if x & self.size:
                x ^= self.poly
        exp[order:] = exp[:order]
        self.exp_table = exp
        self.log_table = log
        self.order = order
        # symbol products, size x size
        a = np.arange(self.size, dtype=np.int32)
        la = log[a]
        # exp holds two periods, so a sum of two logs indexes it unreduced
        sym = exp[la[:, None] + la[None, :]]
        sym[0, :] = 0
        sym[:, 0] = 0
        # mul_table[c, b] multiplies each m-bit group of the byte b by c on
        # its own.  A symbol b < size is a byte whose upper groups are 0, so
        # it reads the same as in sym.  Bytes are packed only for m dividing
        # 8; for other m the columns past size go unused.  At most 256 x 256,
        # cheap and fast to index.
        # zero_groups[b]: the m-bit groups of the byte b that are 0, so
        # the packed XOR of two payloads counts the symbols they share
        # (m dividing 8).  intp, which numpy sums without a cast, and built
        # in intp too: a bool-to-int cast here cost 0.2 MB of peak RSS.
        b = np.arange(256)
        tbl = np.zeros((self.size, 256), dtype=np.uint8)
        zero_groups = np.zeros(256, dtype=np.intp)
        for shift in range(0, 8, m):
            group = (b >> shift) & (self.size - 1)
            tbl |= sym[:, group] << shift
            zero_groups += 1 - np.minimum(group, 1)  # 1 for a zero group
        self.mul_table = tbl
        self.zero_groups = zero_groups
        inv = np.zeros(self.size, dtype=np.uint8)
        for v in range(1, self.size):
            inv[v] = exp[order - log[v]]
        self.inv_table = inv

    # -- scalar ops ---------------------------------------------------------

    @staticmethod
    def add(a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_table[a, b])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("no inverse of 0")
        return int(self.inv_table[a])

    def exp(self, k: int) -> int:
        return int(self.exp_table[k % self.order])

    def log(self, a: int) -> int:
        if a == 0:
            raise ValueError("log of 0 undefined")
        return int(self.log_table[a])

    # -- vector ops ---------------------------------------------------------

    def matmul(self, A, B):
        """Matrix product over GF(2^m).  A is (r,k), B is (k,c); B may hold
        packed bytes, which each coefficient scales group by group.

        A wide product (r <= k: encoding, recoding) is one gather from the
        flat ``mul_table`` of every term A[i, k] * B[k], then one XOR
        reduce over k; its (r, k, c) index array is at most (k, k, c).  A
        tall one (the solve's q^T assignments times a few rows) adds the k
        terms one (r, c) block at a time, so its temporaries stay (r, c).
        """
        A = np.asarray(A, dtype=np.uint8)
        B = np.asarray(B, dtype=np.uint8)
        if len(A) <= len(B):
            idx = (A.astype(np.intp) << 8)[:, :, None] + B
            return np.bitwise_xor.reduce(self.mul_table.ravel().take(idx), axis=1)
        out = np.zeros((A.shape[0], B.shape[1]), dtype=np.uint8)
        # term k for every row at once: A[:, k] times row k of B
        for k in range(A.shape[1]):
            out ^= self.mul_table[A[:, k, None], B[k]]
        return out


def validate_symbols(ctx: FieldContext, M) -> np.ndarray:
    M = np.asarray(M, dtype=np.uint8)
    if M.size and M.max() >= ctx.size:
        raise ValueError(f"symbol out of range for GF(2^{ctx.m})")
    return M


def gaussian_eliminate(ctx: FieldContext, M) -> tuple[np.ndarray, int, list[int]]:
    """Reduced row-echelon form over GF(2^m), zero rows below the rank.

    Returns (rref, rank, pivot_cols).  Pivot columns identify the
    coordinates recoverable from the rows so far.  M's rows are inserted
    one at a time by ``rref_insert``, every column a pivot candidate.
    """
    M = validate_symbols(ctx, M)
    if M.ndim != 2 or M.size == 0:
        raise ValueError("matrix must be non-empty and 2-D")
    rows, cols = M.shape
    R, pivot_cols = M[:0], []
    for row in M:
        if len(pivot_cols) == cols:
            break
        inserted = rref_insert(ctx, R, pivot_cols, row, cols)
        if inserted is not None:
            R, pivot_cols = inserted
    zeros = np.zeros((rows - len(pivot_cols), cols), dtype=np.uint8)
    return np.concatenate((R, zeros)), len(pivot_cols), pivot_cols


def rref_insert(
    ctx: FieldContext, R: np.ndarray, pivot_cols: list[int], row, pivot_width: int
) -> tuple[np.ndarray, list[int]] | None:
    """Add one row to a matrix already in reduced row-echelon form.

    Only the first pivot_width columns may hold a pivot, and only they are
    checked as symbols; the columns after them (a coded packet's payload,
    as packed bytes) are carried along.  R holds one row per pivot.  Only
    the new row is reduced; if its first pivot_width columns do not reduce
    to zero, it becomes a pivot row and its pivot column is cleared from the
    others.  Returns (rref, pivot_cols), or None when the row's first
    pivot_width columns reduce to zero.

    The RREF of a row space is unique, so inserting rows one at a time
    gives the RREF of them all.  This is the one elimination:
    ``gaussian_eliminate``, ``rlnc.precondition_reorder``, the decoder and
    rank-increasing tag sampling all reduce through it.

    The h <= 255 tag symbols are handled as a Python list, read from the
    row once before and once after the reduction; numpy runs only the work
    on whole rows, and none of it in place, so row may be read-only.
    """
    v = np.asarray(row, dtype=np.uint8)
    tag = v[:pivot_width].tolist()
    if tag and max(tag) >= ctx.size:
        raise ValueError(f"symbol out of range for GF(2^{ctx.m})")
    mul = ctx.mul_table
    # each pivot row times the new row's symbol in its pivot column, taken
    # before any of them is subtracted
    reduced = False
    for r, col in enumerate(pivot_cols):
        c = tag[col]
        if c:
            v = v ^ mul[c].take(R[r])
            reduced = True
    if reduced:
        tag = v[:pivot_width].tolist()
    p = next((k for k, s in enumerate(tag) if s), None)
    if p is None:
        return None
    if tag[p] != 1:
        v = mul[ctx.inv(tag[p])].take(v)
    i = bisect.bisect(pivot_cols, p)
    out = np.concatenate((R[:i], v[None, :], R[i:]))
    for r, c in enumerate(out[:, p].tolist()):
        if c and r != i:
            out[r] ^= mul[c].take(v)
    return out, pivot_cols[:i] + [p] + pivot_cols[i:]


# -- symbol <-> byte packing -----------------------------------------------

def symbols_per_byte(m: int) -> int:
    if 8 % m != 0:
        raise ValueError(f"m={m} does not divide a byte; no byte packing defined")
    return 8 // m


def bytes_to_symbols(data: bytes, m: int) -> np.ndarray:
    """Split bytes into GF(2^m) symbols, most-significant group first."""
    symbols_per_byte(m)  # m must divide 8
    # each byte's groups, the top one first, by one broadcast shift
    shifts = np.arange(8 - m, -1, -m, dtype=np.uint8)
    arr = np.frombuffer(data, dtype=np.uint8)
    return ((arr[:, None] >> shifts) & ((1 << m) - 1)).ravel()


@functools.cache
def _pair_table(m: int) -> np.ndarray:
    """65,536 bytes: a pair of m-bit symbols, read as a little-endian uint16
    (the first in its low byte), to the one 2m-bit symbol that packs them,
    each masked to m bits, the first in the high group.  Built with numpy at
    its first use, once per m."""
    group = np.arange(256, dtype=np.uint8) & ((1 << m) - 1)
    # row: the second symbol's byte (the high one); column: the first's
    return ((group << m)[None, :] | group[:, None]).ravel()


def symbols_to_bytes(symbols, m: int) -> bytes:
    """Pack symbols, each masked to m bits, most-significant group first:
    pairs of m-bit symbols become 2m-bit ones, one ``_pair_table`` gather
    per doubling, until they fill bytes."""
    spb = symbols_per_byte(m)
    arr = np.ascontiguousarray(symbols, dtype=np.uint8)
    if len(arr) % spb:
        raise ValueError("symbol count not a multiple of symbols-per-byte")
    while m < 8:
        arr = _pair_table(m).take(arr.view("<u2"))
        m *= 2
    return arr.tobytes()
