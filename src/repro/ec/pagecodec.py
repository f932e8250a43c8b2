"""Page-level codec: 4 KB pages <-> (k + r) erasure-coded splits.

Hydra codes each page *individually* (§4) rather than batching pages, so
the codec here is purely per-page: split a page into ``k`` equal shards
(zero-padded when ``k`` does not divide the page size), encode ``r``
parities, and reassemble from any ``k`` shards.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .native import _UINT8
from .rs import ReedSolomonCode
from .vectorized import correct_pages, decode_pages, encode_pages

__all__ = ["PAGE_SIZE", "PageCodec"]

PAGE_SIZE = 4096  # bytes; the x86 base page the paper codes over


class PageCodec:
    """Splits pages into ``k`` shards and erasure-codes them with RS(k, r).

    Split length is ``ceil(page_size / k)``; the final shard is zero-padded.
    The paper's (8+2) default turns a 4 KB page into ten 512 B splits.
    """

    def __init__(
        self,
        k: int,
        r: int,
        page_size: int = PAGE_SIZE,
        plan_cache_capacity: Optional[int] = None,
    ):
        if page_size < 1:
            raise ValueError(f"page_size must be positive, got {page_size}")
        if k > page_size:
            raise ValueError(f"k={k} exceeds page_size={page_size}")
        self.code = ReedSolomonCode(k, r, plan_cache_capacity=plan_cache_capacity)
        self.k, self.r, self.n = k, r, k + r
        self.page_size = page_size
        self.split_size = -(-page_size // k)  # ceil division
        self.padded_size = self.split_size * k

    # ------------------------------------------------------------------
    def _padded(self, page) -> bytes:
        """``page`` as ``bytes`` (any other buffer is copied into one),
        checked for size and zero-padded to ``k`` whole splits."""
        if type(page) is not bytes:
            page = bytes(page)
        if len(page) != self.page_size:
            raise ValueError(
                f"page must be exactly {self.page_size} bytes, got {len(page)}"
            )
        return page.ljust(self.padded_size, b"\0")  # a full-length page as it is

    def split(self, page: bytes) -> np.ndarray:
        """Divide a page into the (k, split_size) data-split matrix."""
        source = np.frombuffer(self._padded(page), dtype=np.uint8)
        return source.reshape(self.k, self.split_size).copy()

    def join(self, data_splits: np.ndarray) -> bytes:
        """Reassemble a page from its k data splits (dropping padding)."""
        if type(data_splits) is not np.ndarray or data_splits.dtype is not _UINT8:
            data_splits = np.asarray(data_splits, dtype=np.uint8)
        if data_splits.shape != (self.k, self.split_size):
            raise ValueError(
                f"expected shape {(self.k, self.split_size)}, got {data_splits.shape}"
            )
        page = data_splits.tobytes()
        return page if self.padded_size == self.page_size else page[: self.page_size]

    # -- batch operations ----------------------------------------------
    def split_pages(self, pages: Sequence[bytes]) -> np.ndarray:
        """Divide many pages into a (pages, k, split_size) stack.

        Pages are gathered with one ``concatenate`` of ``frombuffer``
        views into a preallocated stack — no per-split copies and no
        slab-sized ``bytes`` temporary (a fresh multi-MB ``b"".join``
        costs more in allocator/page-fault overhead than the copy
        itself). Exact: row ``i`` equals ``split(pages[i])``.
        """
        count = len(pages)
        if self.padded_size == self.page_size:
            buffer = np.empty((count, self.page_size), dtype=np.uint8)
            if count:
                try:
                    np.concatenate(
                        [np.frombuffer(page, dtype=np.uint8) for page in pages],
                        out=buffer.reshape(-1),
                    )
                except ValueError:
                    raise ValueError(
                        f"every page must be exactly {self.page_size} bytes"
                    ) from None
            return buffer.reshape(count, self.k, self.split_size)
        buffer = np.zeros((count, self.padded_size), dtype=np.uint8)
        for i, page in enumerate(pages):
            if len(page) != self.page_size:
                raise ValueError(
                    f"page must be exactly {self.page_size} bytes, got {len(page)}"
                )
            buffer[i, : self.page_size] = np.frombuffer(page, dtype=np.uint8)
        return buffer.reshape(count, self.k, self.split_size)

    def join_pages(self, data_splits_stack: np.ndarray) -> List[bytes]:
        """Reassemble many pages from a (pages, k, split_size) stack."""
        stack = np.asarray(data_splits_stack, dtype=np.uint8)
        if stack.ndim != 3 or stack.shape[1:] != (self.k, self.split_size):
            raise ValueError(
                f"expected (pages, {self.k}, {self.split_size}) stack, "
                f"got {stack.shape}"
            )
        if not stack.shape[0]:
            return []  # reshape(0, -1) is a numpy error for empty stacks
        flat = np.ascontiguousarray(stack).reshape(stack.shape[0], -1)
        return [row[: self.page_size].tobytes() for row in flat]

    def encode_batch(self, pages: Sequence[bytes]) -> np.ndarray:
        """Many pages -> (pages, k + r, split_size) stack, one kernel pass.

        Raw ``bytes`` pages that need no padding are encoded in place:
        the full systematic generator is applied straight over the
        caller's buffers through the kernel's pointer table — identity
        rows become ``memcpy`` into the data block, parity rows one
        table-lookup sweep each — so the batch costs zero staging copies
        (measured ~1.7x faster than gathering a stack first on a 256-page
        slab). Anything else is gathered by ``split_pages`` and takes
        ``encode_pages``. Both run the identical MUL_TABLE lookups.
        """
        code = self.code
        if self.padded_size == self.page_size and all(
            type(page) is bytes for page in pages
        ):
            # The kernel checks every page's length against this shape.
            out = np.empty((len(pages), code.n, self.split_size), dtype=np.uint8)
            return code.kernel.apply(code.generator, pages, out)
        return encode_pages(code, self.split_pages(pages))

    def decode_batch(
        self, indices: Sequence[int], payload_stack: np.ndarray
    ) -> List[bytes]:
        """Decode many pages that share one split-index combination.

        ``payload_stack`` is (pages, k, split_size) with row ``j`` holding
        the payload received at ``indices[j]``. Exact match for per-page
        ``decode``.
        """
        return self.join_pages(decode_pages(self.code, indices, payload_stack))

    def correct_batch(
        self,
        indices: Sequence[int],
        payload_stack: np.ndarray,
        max_errors: Optional[int] = None,
        best_effort: bool = False,
    ) -> Tuple[List[bytes], List[List[int]]]:
        """Correct many pages that share one split-index combination.

        ``payload_stack`` is (pages, len(indices), split_size). Returns
        ``(pages, corrupted)`` with per-page located corruption lists —
        exact match for per-page :meth:`correct`, but clean pages ride one
        batched residual check + decode (see ``vectorized.correct_pages``).
        """
        data_stack, corrupted = correct_pages(
            self.code,
            indices,
            payload_stack,
            max_errors=max_errors,
            best_effort=best_effort,
        )
        return self.join_pages(data_stack), corrupted

    # ------------------------------------------------------------------
    def encode(self, page: bytes) -> np.ndarray:
        """Page -> all (k + r) splits, data first then parity; the kernel
        reads a ``bytes`` page where it lies, as ``encode_batch`` does."""
        code = self.code
        return code.kernel.apply(code.generator, self._padded(page)).copy()

    def decode(self, splits: Dict[int, np.ndarray]) -> bytes:
        """Any k splits -> original page bytes (the kernel's product goes
        straight into them, with no owned array in between)."""
        code = self.code
        return self.join(code._decode_rows(*code._gather(splits, code.k)))

    def decode_verified(self, splits: Dict[int, np.ndarray]) -> bytes:
        """Decode with consistency checking (raises CorruptionDetected)."""
        return self.join(self.code.decode_verified(splits))

    def verify(self, splits: Dict[int, np.ndarray]) -> bool:
        """Consistency check alone — no page assembly (see RS.verify)."""
        return self.code.verify(splits)

    def correct(
        self,
        splits: Dict[int, np.ndarray],
        max_errors: Optional[int] = None,
        best_effort: bool = False,
    ) -> Tuple[bytes, List[int]]:
        """Locate/fix up to ``max_errors`` corruptions; see Table 1."""
        data, corrupted = self.code.correct(
            splits, max_errors=max_errors, best_effort=best_effort
        )
        return self.join(data), corrupted

    # ------------------------------------------------------------------
    def splits_required(self, detect_errors: int = 0, correct_errors: int = 0) -> int:
        """Minimum splits per Table 1 for the requested guarantee."""
        if correct_errors:
            return self.k + 2 * correct_errors + 1
        if detect_errors:
            return self.k + detect_errors
        return self.k

    def __repr__(self) -> str:
        return (
            f"PageCodec(k={self.k}, r={self.r}, page_size={self.page_size}, "
            f"split_size={self.split_size})"
        )
