"""Matrix algebra over GF(2^8).

Matrices are 2-D numpy uint8 arrays. Only the operations the Reed-Solomon
codec needs are implemented: multiplication, Gauss-Jordan inversion, and the
Cauchy construction used for the systematic generator matrix.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .galois import MUL_TABLE, gf_inv
from .native import load_native

__all__ = [
    "SingularMatrixError",
    "gf_matmul",
    "gf_matmul_slab",
    "gf_row_plan",
    "gf_apply_row_plan_into",
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
    the batch codec amortizes one product over a whole slab.

    Dispatches to :func:`gf_matmul_slab`, so slab-sized products hit the
    native SIMD kernel when one compiled (see :mod:`.native`) and the
    translate-based numpy kernel otherwise; both perform the exact
    MUL_TABLE lookups of the original coefficient loop, byte for byte.
    """
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"gf_matmul needs 2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch: {a.shape} @ {b.shape}")
    return gf_matmul_slab(a, b)


# 256-byte translation tables for the numpy slab kernel: bytes.translate
# runs the same per-byte MUL_TABLE lookup as ndarray.take but about 2x
# faster (measured), and the table universe is capped at 256 entries.
_TRANSLATE_TABLES: dict = {}


def _translate_table(coefficient: int) -> bytes:
    table = _TRANSLATE_TABLES.get(coefficient)
    if table is None:
        table = MUL_TABLE[coefficient].tobytes()
        _TRANSLATE_TABLES[coefficient] = table
    return table


def _matmul_slab_numpy(a: np.ndarray, src: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Pure-numpy slab kernel (and the reference the native path is
    property-tested against). One translate per nonzero non-unit
    coefficient over the whole flat slab; unit coefficients are XORs."""
    for i, coefficients in enumerate(a.tolist()):
        acc = out[i]
        first = True
        for coefficient, row in zip(coefficients, src):
            if coefficient == 0:
                continue
            if coefficient == 1:
                term = row
            else:
                term = np.frombuffer(
                    row.tobytes().translate(_translate_table(coefficient)),
                    dtype=np.uint8,
                )
            if first:
                acc[:] = term
                first = False
            else:
                np.bitwise_xor(acc, term, out=acc)
        if first:
            acc[:] = 0
    return out


def gf_matmul_slab(
    a: np.ndarray, src: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """``a @ src`` over GF(2^8) on a flat (rows, N) slab.

    The batched kernel behind every slab-wide coding operation: ``src``
    stacks whole slabs of pages side by side (rows-major, so one
    coefficient application covers every page at once) and each nonzero
    coefficient costs a single table-lookup sweep of the full stack. The
    native ``pshufb`` kernel is used when available; the numpy fallback
    produces byte-identical output. ``out`` may be preallocated
    (C-contiguous, shape ``(a.rows, N)``).
    """
    a = np.ascontiguousarray(a, dtype=np.uint8)
    if src.dtype != np.uint8 or not src.flags.c_contiguous:
        src = np.ascontiguousarray(src, dtype=np.uint8)
    if out is None:
        out = np.empty((a.shape[0], src.shape[1]), dtype=np.uint8)
    kernel = load_native()
    if kernel is not None and out.flags.c_contiguous:
        kernel.matrix_apply(a, src, out)
        return out
    return _matmul_slab_numpy(a, src, out)


def gf_row_plan(a: np.ndarray):
    """Precompile ``a`` into a row plan for :func:`gf_apply_row_plan_into`.

    Decode/encode matrices are tiny, heavily cached, and applied thousands
    of times each; compiling them once moves the zero-scan and the
    unit-row detection out of the hot loop. Each output row becomes either
    a bare source index (the row is a unit vector — the product is a
    verbatim copy of that input row) or a list of (coefficient, source)
    pairs over the non-zero coefficients.
    """
    a = np.asarray(a, dtype=np.uint8)
    plan = []
    for coefficients in a.tolist():
        terms = [(c, j) for j, c in enumerate(coefficients) if c != 0]
        if len(terms) == 1 and terms[0][0] == 1:
            plan.append(terms[0][1])
        else:
            plan.append(terms)
    return plan


def gf_apply_row_plan_into(plan, rows_b, out, scratch=None) -> np.ndarray:
    """Apply a :func:`gf_row_plan` to the row vectors ``rows_b`` (a
    sequence of equal-length 1-D uint8 arrays) into the preallocated
    ``(len(plan), L)`` ``out`` — same result as ``gf_matmul`` of the
    planned matrix with the stacked rows.

    Every term's table gather lands in ``scratch`` (one ``L``-byte buffer
    for the whole product, allocated here when the caller doesn't pass
    one) and accumulates into ``out`` with in-place XOR, so a planned
    multiply touches no fresh memory beyond what the caller provides.
    ``out`` is returned.
    """
    if scratch is None:
        scratch = np.empty(rows_b[0].shape[0], dtype=np.uint8)
    for i, row_plan in enumerate(plan):
        if type(row_plan) is int:
            out[i] = rows_b[row_plan]
            continue
        acc = out[i]
        if not row_plan:
            acc[:] = 0
            continue
        coefficient, j = row_plan[0]
        if coefficient == 1:
            acc[:] = rows_b[j]
        else:
            MUL_TABLE[coefficient].take(rows_b[j], out=acc)
        for coefficient, j in row_plan[1:]:
            if coefficient == 1:
                np.bitwise_xor(acc, rows_b[j], out=acc)
            else:
                MUL_TABLE[coefficient].take(rows_b[j], out=scratch)
                np.bitwise_xor(acc, scratch, out=acc)
    return out


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
