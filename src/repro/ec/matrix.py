"""Matrix algebra over GF(2^8).

Matrices are 2-D numpy uint8 arrays. Only the operations the Reed-Solomon
codec needs are implemented: multiplication, Gauss-Jordan inversion, and the
Cauchy construction used for the systematic generator matrix.
"""

from __future__ import annotations

import numpy as np

from .galois import MUL_TABLE, gf_inv
from .native import load_kernel

__all__ = [
    "SingularMatrixError",
    "gf_matmul",
    "gf_mat_inverse",
    "cauchy_parity_matrix",
    "systematic_generator",
]


class SingularMatrixError(ValueError):
    """Raised when inverting a matrix with no inverse over GF(2^8)."""


def gf_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over GF(2^8).

    Shapes follow normal matmul rules: (m, n) @ (n, p) -> (m, p). ``b`` may
    also be a stack of row vectors, e.g. split payloads of shape
    (n, split_len) — or many pages' splits laid side by side, which is how
    slab regeneration amortizes one product over a whole slab.

    This is the process-wide kernel's ``apply`` on a batch of one page
    (see :mod:`.native`): the native SIMD backend when it loaded, the
    translate-based numpy backend otherwise; both perform the exact
    MUL_TABLE lookups of the definitional coefficient loop, byte for byte.
    """
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if b.ndim != 2:  # a 3-D ``b`` would be taken for a stack of pages
        raise ValueError(f"gf_matmul needs 2-D operands, got {a.shape} @ {b.shape}")
    return load_kernel().apply(a, b)  # refuses a non-2-D ``a`` and mismatched shapes


def gf_mat_inverse(matrix: np.ndarray) -> np.ndarray:
    """Invert a square matrix via Gauss-Jordan elimination over GF(2^8)."""
    matrix = np.asarray(matrix, dtype=np.uint8)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"inverse requires a square matrix, got {matrix.shape}")
    n = matrix.shape[0]
    work = matrix.astype(np.uint8).copy()
    inverse = np.eye(n, dtype=np.uint8)

    for col in range(n):
        # Find a pivot at or below the diagonal.
        pivot_row = -1
        for row in range(col, n):
            if work[row, col] != 0:
                pivot_row = row
                break
        if pivot_row < 0:
            raise SingularMatrixError(f"matrix is singular at column {col}")
        if pivot_row != col:
            work[[col, pivot_row]] = work[[pivot_row, col]]
            inverse[[col, pivot_row]] = inverse[[pivot_row, col]]
        # Normalize the pivot row.
        pivot_inv = gf_inv(int(work[col, col]))
        if pivot_inv != 1:
            work[col] = MUL_TABLE[pivot_inv][work[col]]
            inverse[col] = MUL_TABLE[pivot_inv][inverse[col]]
        # Eliminate the column everywhere else.
        for row in range(n):
            if row == col or work[row, col] == 0:
                continue
            factor = int(work[row, col])
            work[row] ^= MUL_TABLE[factor][work[col]]
            inverse[row] ^= MUL_TABLE[factor][inverse[col]]
    return inverse


def cauchy_parity_matrix(k: int, r: int) -> np.ndarray:
    """The r x k Cauchy block: C[i][j] = 1 / (x_i + y_j).

    With x_i = k + i and y_j = j (all distinct field elements), every square
    submatrix of a Cauchy matrix is invertible, which gives the systematic
    generator the any-k-of-(k+r) decodability the codec relies on.
    """
    if k < 1 or r < 0:
        raise ValueError(f"invalid code parameters k={k}, r={r}")
    if k + r > 256:
        raise ValueError(f"k + r = {k + r} exceeds GF(2^8) element count")
    block = np.zeros((r, k), dtype=np.uint8)
    for i in range(r):
        for j in range(k):
            block[i, j] = gf_inv((k + i) ^ j)
    return block


def systematic_generator(k: int, r: int) -> np.ndarray:
    """(k+r) x k systematic generator: identity on top, Cauchy block below.

    Row i < k reproduces data split i verbatim; rows k..k+r-1 produce the
    parity splits. Any k rows form an invertible k x k matrix.
    """
    generator = np.zeros((k + r, k), dtype=np.uint8)
    generator[:k] = np.eye(k, dtype=np.uint8)
    if r:
        generator[k:] = cauchy_parity_matrix(k, r)
    return generator
