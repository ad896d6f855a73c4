"""Reference implementations the tests hold bpnc against.

No decoding path calls these: they are independent cross-check oracles,
as ``gf.mul_slow`` is for the multiply tables.  ``gaussian_eliminate`` is
the textbook column-by-column loop, the oracle for ``gf.rref_insert`` and
everything that reduces through it.
"""

from __future__ import annotations

import numpy as np

from bpnc import gf


class SingularMatrixError(ValueError):
    """Matrix has rank below its dimension; inversion impossible."""


def gaussian_eliminate(ctx: gf.FieldContext, M) -> tuple[np.ndarray, int, list[int]]:
    """Reduced row-echelon form over GF(2^m), column by column: the first
    row at or below the next pivot row with a nonzero symbol in the column
    is swapped up, scaled to a leading 1 and subtracted from every other
    row.  Returns (rref, rank, pivot_cols), zero rows below the rank."""
    R = gf.validate_symbols(ctx, M).copy()
    if R.ndim != 2 or R.size == 0:
        raise ValueError("matrix must be non-empty and 2-D")
    rows, cols = R.shape
    pivot_cols: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pivot = None
        for rr in range(r, rows):
            if R[rr, c]:
                pivot = rr
                break
        if pivot is None:
            continue
        if pivot != r:
            R[[r, pivot]] = R[[pivot, r]]
        if R[r, c] != 1:
            R[r] = ctx.mul_table[ctx.inv(int(R[r, c])), R[r]]
        # eliminate the column everywhere else
        col = R[:, c].copy()
        col[r] = 0
        nz = col != 0
        if nz.any():
            R[nz] ^= ctx.mul_table[col[nz][:, None], R[r][None, :]]
        pivot_cols.append(c)
        r += 1
    return R, len(pivot_cols), pivot_cols


def invert(ctx: gf.FieldContext, M) -> np.ndarray:
    """Inverse over GF(2^m) by eliminating [M | I]; raises
    SingularMatrixError if rank < n."""
    M = gf.validate_symbols(ctx, M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    n = M.shape[0]
    aug = np.concatenate([M, np.eye(n, dtype=np.uint8)], axis=1)
    rref, rk, pivots = gaussian_eliminate(ctx, aug)
    if rk < n or pivots[:n] != list(range(n)):
        # [M | I] has rank n; M's own rank is its pivots left of the identity
        raise SingularMatrixError(f"rank {sum(p < n for p in pivots)} < {n}")
    return rref[:, n:]
