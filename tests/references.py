"""Reference implementations the tests hold bpnc against.

No decoding path calls these: they are independent cross-check oracles,
as ``gf.mul_slow`` is for the multiply tables.
"""

from __future__ import annotations

import numpy as np

from bpnc import gf


class SingularMatrixError(ValueError):
    """Matrix has rank below its dimension; inversion impossible."""


def invert(ctx: gf.FieldContext, M) -> np.ndarray:
    """Inverse over GF(2^m) by eliminating [M | I]; raises
    SingularMatrixError if rank < n."""
    M = gf.validate_symbols(ctx, M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    n = M.shape[0]
    aug = np.concatenate([M, np.eye(n, dtype=np.uint8)], axis=1)
    rref, rk, pivots = gf.gaussian_eliminate(ctx, aug)
    if rk < n or pivots[:n] != list(range(n)):
        # [M | I] has rank n; M's own rank is its pivots left of the identity
        raise SingularMatrixError(f"rank {sum(p < n for p in pivots)} < {n}")
    return rref[:, n:]
