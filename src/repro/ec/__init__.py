"""Erasure coding: GF(2^8) Reed-Solomon codes and the per-page codec.

Every product in here — per-page or batched, encode, decode, verify or
correct — goes through the one kernel interface of :mod:`.native`
(``apply`` / ``apply_rows``, a native and a numpy backend chosen once per
process); a single page is a batch of one.
"""

from .galois import gf_add, gf_div, gf_inv, gf_mul, gf_mul_slice, gf_pow, gf_sub
from .matrix import (
    SingularMatrixError,
    cauchy_parity_matrix,
    gf_mat_inverse,
    gf_matmul,
    systematic_generator,
)
from .pagecodec import PAGE_SIZE, PageCodec
from .rs import CorruptionDetected, DecodeError, ReedSolomonCode
from .vectorized import (
    correct_pages,
    decode_pages,
    encode_pages,
    rebuild_position,
    reencode_split_pages,
)

__all__ = [
    "gf_add",
    "gf_sub",
    "gf_mul",
    "gf_div",
    "gf_inv",
    "gf_pow",
    "gf_mul_slice",
    "SingularMatrixError",
    "gf_matmul",
    "gf_mat_inverse",
    "cauchy_parity_matrix",
    "systematic_generator",
    "PAGE_SIZE",
    "PageCodec",
    "CorruptionDetected",
    "DecodeError",
    "ReedSolomonCode",
    "encode_pages",
    "decode_pages",
    "correct_pages",
    "reencode_split_pages",
    "rebuild_position",
]
