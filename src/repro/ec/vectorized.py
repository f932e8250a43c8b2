"""Vectorized multi-page Reed-Solomon operations.

Slab regeneration re-encodes one split position for *every* page of a
slab (§4.4); doing that page-by-page through the scalar codec would cost
a Python-level matrix solve per page. These helpers batch pages that
share a source-position set into whole-slab GF(2^8) kernels: each page
is a (rows, split_size) block of a 3-D stack and one coefficient matrix
is applied across every page in a single ``code.kernel.apply`` call (see
:mod:`.native`).

They are exact: every output equals what the per-page codec would
produce (tested against it, byte for byte).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .galois import MUL_TABLE
from .rs import DecodeError, ReedSolomonCode

__all__ = [
    "rebuild_position",
    "encode_pages",
    "decode_pages",
    "correct_pages",
    "reencode_split_pages",
]


def rebuild_position(
    code: ReedSolomonCode,
    sources: Dict[int, Dict[int, np.ndarray]],
    target_position: int,
    split_size: int,
) -> Dict[int, np.ndarray]:
    """Rebuild the target split of every recoverable page.

    ``sources`` maps split position -> {page_id -> split payload}. A page
    is recoverable when at least ``k`` positions hold it well-formed (a
    ``split_size`` array); pages are grouped by their (lowest k)
    source-position tuple so each group costs one kernel call over every
    page of the group laid side by side.

    Returns {page_id -> rebuilt split}; the splits of one group are row
    views of that group's product.
    """
    k = code.k
    held: Dict[int, List[int]] = {}
    for position in sorted(sources):
        for page_id, payload in sources[position].items():
            if isinstance(payload, np.ndarray) and len(payload) == split_size:
                holders = held.get(page_id)
                if holders is None:
                    held[page_id] = [position]
                elif len(holders) < k:
                    holders.append(position)
    # Group in the order a set of the page ids iterates: the returned
    # dict's order becomes the rebuilt slab's page order, which seeded
    # fault injection walks.
    universe: set = set()
    for snapshot in sources.values():
        universe.update(snapshot)
    groups: Dict[Tuple[int, ...], List[int]] = {}
    for page_id in universe:
        holders = held.get(page_id)
        if holders is not None and len(holders) == k:
            groups.setdefault(tuple(holders), []).append(page_id)

    rebuilt: Dict[int, np.ndarray] = {}
    for positions, pages in groups.items():
        stack = np.empty((k, len(pages) * split_size), dtype=np.uint8)
        for row, position in zip(stack, positions):
            np.concatenate([*map(sources[position].__getitem__, pages)], out=row)
        rebuild_row = code.rebuild_row(positions, target_position)
        product = code.kernel.apply(rebuild_row, stack)
        rebuilt.update(zip(pages, product.reshape(len(pages), split_size)))
    return rebuilt


def encode_pages(
    code: ReedSolomonCode, data_splits_stack: np.ndarray
) -> np.ndarray:
    """Encode many pages at once.

    ``data_splits_stack`` has shape (pages, k, split_size); the result has
    shape (pages, n, split_size) with data splits first, parity after —
    identical to calling ``encode_page`` per page. One kernel sweep
    with the full systematic generator: its unit rows copy the data
    splits, its parity rows land behind them, no transposes.
    """
    stack = np.asarray(data_splits_stack, dtype=np.uint8)
    if stack.ndim != 3 or stack.shape[1] != code.k:
        raise DecodeError(
            f"expected (pages, k={code.k}, split) stack, got {stack.shape}"
        )
    return code.kernel.apply(code.generator, stack)


def decode_pages(
    code: ReedSolomonCode, indices: Sequence[int], payload_stack: np.ndarray
) -> np.ndarray:
    """Decode many pages that all arrived with the same split indices.

    ``payload_stack`` has shape (pages, k, split_size): row ``j`` of page
    ``i`` is the payload received at split index ``indices[j]``. Returns
    the (pages, k, split_size) data splits — identical to calling
    ``code.decode`` per page with those indices.
    """
    stack = np.asarray(payload_stack, dtype=np.uint8)
    index_tuple = tuple(indices)
    if stack.ndim != 3 or stack.shape[1] != len(index_tuple):
        raise DecodeError(
            f"expected (pages, {len(index_tuple)}, split) stack, got {stack.shape}"
        )
    if len(index_tuple) != code.k:
        raise DecodeError(
            f"need exactly k={code.k} indices to decode, got {len(index_tuple)}"
        )
    if index_tuple == tuple(range(code.k)):
        return stack  # all-systematic fast path
    return code.kernel.apply(code.decode_matrix(index_tuple), stack)


def correct_pages(
    code: ReedSolomonCode,
    indices: Sequence[int],
    payload_stack: np.ndarray,
    max_errors: Optional[int] = None,
    best_effort: bool = False,
) -> Tuple[np.ndarray, List[List[int]]]:
    """Correct many pages that all arrived with the same split indices.

    ``payload_stack`` has shape (pages, m, split_size) with row ``j`` of
    each page holding the payload received at ``indices[j]``. Returns
    ``(data_stack, corrupted)``: the (pages, k, split_size) corrected data
    splits and, per page, the located corrupt split indices.

    Equivalent to calling ``code.correct`` page by page in stack order —
    including raising the same :class:`DecodeError` the first failing page
    would raise — but the whole residual check runs as one paged kernel
    sweep and the two corruption shapes the §5.1 read path actually sees
    are resolved batch-wide without touching the scalar codec:

    * a single corrupt *extra* split (exactly one residual row nonzero):
      the pivot decoding is already the accepted codeword;
    * a single corrupt *pivot* split (every residual row nonzero): the
      vectorized localizer finds the unique column whose ratio structure
      explains all residual rows at once (same prefilter + full check as
      ``ReedSolomonCode._locate_pivot_error``), repairs it in place, and
      the repaired pivots ride the same batched decode as clean pages.

    Pages the batch localizer cannot settle — ambiguous residuals, deeper
    contamination, acceptance thresholds the guided path cannot reach —
    fall back to per-page ``code.correct`` in ascending page order, so
    results, localization lists, and error classification stay
    byte-identical to the per-page codec by construction.
    """
    stack = np.asarray(payload_stack, dtype=np.uint8)
    idx = [int(i) for i in indices]
    m = len(idx)
    if len(set(idx)) != m:
        raise DecodeError(f"duplicate split indices in {idx}")
    if stack.ndim != 3 or stack.shape[1] != m:
        raise DecodeError(
            f"expected (pages, {m}, split) stack, got {stack.shape}"
        )
    # Same preconditions (and messages) as ``ReedSolomonCode.correct``.
    max_errors, _guaranteed, accept_at = code._correction_mode(
        m, max_errors, best_effort
    )
    order = sorted(range(m), key=idx.__getitem__)
    if order != list(range(m)):
        stack = np.ascontiguousarray(stack[:, order])
        idx = [idx[pos] for pos in order]
    pages, _m, split_size = stack.shape
    corrupted: List[List[int]] = [[] for _ in range(pages)]
    if pages == 0:
        return np.empty((0, code.k, split_size), dtype=np.uint8), corrupted

    k = code.k
    d = m - k

    # Batched residual over every page at once: expected extras from the
    # pivot (first k) columns vs the extras actually received.
    pivot = stack[:, :k]
    residual = code.kernel.apply(code._extras_entry(tuple(idx)).transform, pivot)
    np.bitwise_xor(residual, stack[:, k:], out=residual)
    row_bad = residual.any(axis=2)  # (pages, d)
    nbad = row_bad.sum(axis=1)

    fallback: List[int] = []
    fixed = pivot
    dirty = np.nonzero(nbad)[0]
    if len(dirty):
        if m - 1 < accept_at or d < 2:
            # No single-error candidate can reach the acceptance bar (or
            # too few extras to disambiguate) — exactly where the guided
            # path hands over to swap/scan. Per-page fallback preserves
            # its decisions (and its error classification) verbatim.
            fallback = [int(page) for page in dirty]
        else:
            # Mutable copy for repairs. Must be an unconditional copy: for
            # a single-page stack the pivot view is already contiguous
            # (size-1 leading dim), so ``ascontiguousarray`` would alias
            # the caller's buffer — and the scalar codec never mutates
            # its input splits.
            fixed = pivot.copy()
            counts = nbad[dirty]
            for page in dirty[counts == 1]:
                # One corrupt extra; the pivot decoding disagrees only
                # with it and is accepted at agreement m - 1.
                page = int(page)
                corrupted[page] = [idx[k + int(np.nonzero(row_bad[page])[0][0])]]
            all_bad = dirty[counts == d]
            if len(all_bad):
                located = _locate_pivot_errors_batch(
                    code, idx, residual, all_bad, fixed, corrupted
                )
                fallback.extend(int(page) for page in all_bad[~located])
            fallback.extend(int(page) for page in dirty[(counts != 1) & (counts != d)])
            fallback.sort()

    out = decode_pages(code, idx[:k], fixed)
    if fallback:
        # A view (systematic decode returns its input) must be copied
        # before the per-page overwrites, or they would leak into the
        # caller's stack.
        out = out.copy() if out.base is not None else np.ascontiguousarray(out)
        for page in fallback:
            received = {idx[row]: stack[page, row] for row in range(m)}
            data, bad = code.correct(
                received, max_errors=max_errors, best_effort=best_effort
            )
            out[page] = data
            corrupted[page] = bad
    return out, corrupted


def reencode_split_pages(
    code: ReedSolomonCode, data_splits_stack: np.ndarray, index: int
) -> np.ndarray:
    """Regenerate split ``index`` of many pages in one kernel pass.

    ``data_splits_stack`` has shape (pages, k, split_size); returns a
    (pages, split_size) array equal to per-page ``reencode_split``.
    """
    stack = np.asarray(data_splits_stack, dtype=np.uint8)
    if stack.ndim != 3 or stack.shape[1] != code.k:
        raise DecodeError(
            f"expected (pages, k={code.k}, split) stack, got {stack.shape}"
        )
    if not 0 <= index < code.n:
        raise DecodeError(f"split index {index} out of range 0..{code.n - 1}")
    if index < code.k:
        return stack[:, index].copy()
    pages, _k, split_size = stack.shape
    row = code.kernel.apply(code.generator[index : index + 1], stack)
    return row.reshape(pages, split_size)


def _locate_pivot_errors_batch(
    code: ReedSolomonCode,
    idx: List[int],
    residual: np.ndarray,
    pages_sel: np.ndarray,
    fixed: np.ndarray,
    corrupted: List[List[int]],
) -> np.ndarray:
    """Vectorized ``_locate_pivot_error`` over every all-rows-dirty page.

    For a corrupt pivot column ``c`` with error ``e``, residual row ``j``
    is ``T[j, c] ⊗ e`` — row ``j`` is row 0 scaled by the cached ratio
    ``T[j, c] ⊗ T[0, c]⁻¹``. The prefilter reads one byte per page (the
    first nonzero byte of row 0) and checks all columns of all pages with
    two table gathers; pages with exactly one surviving column are then
    grouped *by column* for the full vector check, repaired in ``fixed``,
    and recorded in ``corrupted``. Returns the located mask over
    ``pages_sel``; unlocated pages (no survivor, ambiguous survivors, or
    a failed full check) keep their per-page fallback.
    """
    k = code.k
    entry = code._extras_entry(tuple(idx))
    transform = entry.transform
    inv_row0, ratios = entry.ratios
    group = residual[pages_sel]  # (g, d, split)
    g = group.shape[0]
    row0 = group[:, 0]
    # First nonzero byte of row 0 (rows are all nonzero here by selection).
    p0 = np.argmax(row0 != 0, axis=1)
    arange_g = np.arange(g)
    v0 = row0[arange_g, p0]
    # predicted[i, j, c] = ratios[j, c] ⊗ v0[i]: what residual row j + 1
    # must hold at byte p0 if column c is the corrupt one.
    predicted = MUL_TABLE[ratios[None, :, :], v0[:, None, None]]
    at_p0 = np.take_along_axis(group[:, 1:], p0[:, None, None], axis=2)[:, :, 0]
    survivors = (predicted == at_p0[:, :, None]).all(axis=1)  # (g, k)
    nsurv = survivors.sum(axis=1)

    located = np.zeros(g, dtype=bool)
    single = np.nonzero(nsurv == 1)[0]
    if len(single):
        column_of = np.argmax(survivors[single], axis=1)
        for column in np.unique(column_of):
            column = int(column)
            sel = single[column_of == column]
            grp = group[sel]
            # error = T[0, c]⁻¹ ⊗ row0, then confirm every remaining row —
            # both scalings ride the kernel (one coefficient over the
            # whole group), not a per-element fancy gather.
            inv_mat = np.array([[inv_row0[column]]], dtype=np.uint8)
            error = code.kernel.apply(inv_mat, grp[:, :1])  # (gg, 1, split)
            expected = code.kernel.apply(transform[1:, column : column + 1], error)
            ok = (expected == grp[:, 1:]).all(axis=(1, 2))
            good = np.nonzero(ok)[0]
            if len(good):
                repaired = pages_sel[sel[good]]
                fixed[repaired, column] ^= error[good, 0]
                bad_list = [idx[column]]
                for page in repaired:
                    corrupted[int(page)] = list(bad_list)
            located[sel] = ok
    # nsurv == 0 (no column explains the rows) and nsurv >= 2 (ambiguous
    # prefilter — the scalar path runs full checks per survivor) both go
    # to the per-page fallback, which reproduces those decisions exactly.
    return located
