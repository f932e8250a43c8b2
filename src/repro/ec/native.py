"""The GF(2^8) matrix kernel: one interface, two backends.

Every coding operation in this package is the same product — apply a
small coefficient matrix to the rows of each page, ``out[p] = coef @
src[p]`` — and reaches it through one object with two methods:

* ``apply(coef, src, out=None)`` for stacks read in place by address —
  ``(pages, rows, bytes)`` arrays (contiguous or strided by page), a 2-D
  array as a batch of one, a list of raw ``bytes`` pages through a
  pointer table — and for one raw ``bytes`` page, the per-page form;
* ``apply_rows(coef, rows, out=None)`` for the scattered 1-D splits the
  per-page ``decode`` / ``verify`` / ``correct`` receive.

The two per-page forms take their source as ``bytes`` and return a *view
of a persistent staging buffer*, valid until the next per-page call: the
codec copies it out exactly once, as an owned array or straight into the
page's ``bytes`` (:class:`NativeGF` says what that saves). The kernel is
process-wide, so per-page calls are not thread-safe; the shard runner
parallelises by process.

:func:`load_kernel` picks the backend once per process. :class:`NativeGF`
is the SSSE3/AVX2 ``pshufb`` nibble-table kernel ISA-L (the library
Hydra's kernel module links) uses: a GF(2^8) multiply is linear over XOR,
so ``c*x == c*(x & 0x0f) ^ c*(x & 0xf0)`` and both halves are 16-entry
lookups that fit one vector shuffle — ~3 vector ops per 32 bytes,
memory-bound rather than gather-bound. Rather than shipping a prebuilt
extension (the repo stays pure Python), the C source below is compiled
**at first use** with whatever ``cc`` / ``gcc`` the host already has,
cached under ``~/.cache/repro-hydra`` (or ``REPRO_NATIVE_CACHE``) keyed
by a hash of the source and flags, and loaded through :mod:`ctypes`.
When that fails — no compiler, sandboxed filesystem, exotic arch — one
``RuntimeWarning`` says why and :class:`NumpyGF` takes over with
byte-identical output (the kernel tests drive both backends in one
process). Set ``REPRO_EC_NATIVE=0`` to choose the numpy backend silently.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import struct
import subprocess
import tempfile
import warnings
from typing import List, Optional, Tuple

import numpy as np

from .galois import MUL_TABLE

__all__ = ["NativeGF", "NumpyGF", "load_kernel", "load_native", "native_kernel_name"]

# numpy interns builtin dtypes, so identity is an exact (and much cheaper)
# stand-in for ``dtype == np.uint8`` on the per-call validation path.
_UINT8 = np.dtype(np.uint8)

_C_SOURCE = r"""
#include <stdint.h>
#include <stddef.h>
#include <string.h>

#if defined(__AVX2__)
#include <immintrin.h>
#define GF_ISA 2
#elif defined(__SSSE3__)
#include <tmmintrin.h>
#define GF_ISA 1
#else
#define GF_ISA 0
#endif

int gf_kernel_isa(void) { return GF_ISA; }

/* One 32-byte nibble table per coefficient c: nib[0..15] = c*n,
   nib[16..31] = c*(n<<4). Exact in GF(2^8): multiplication is linear
   over XOR, so c*x = c*(x & 0x0f) ^ c*(x & 0xf0). Filled once at load
   from the Python side's MUL_TABLE, so both backends share one field. */
static uint8_t gf_nibs[256 * 32];
void gf_set_tables(const uint8_t* nibs) { memcpy(gf_nibs, nibs, sizeof gf_nibs); }

#if GF_ISA == 2
static void gf_mul_one(const uint8_t* nib, const uint8_t* x, uint8_t* y,
                       size_t n, int accumulate) {
    __m256i lo = _mm256_broadcastsi128_si256(_mm_loadu_si128((const __m128i*)nib));
    __m256i hi = _mm256_broadcastsi128_si256(_mm_loadu_si128((const __m128i*)(nib + 16)));
    __m256i mask = _mm256_set1_epi8(0x0f);
    size_t i = 0;
    if (accumulate) {
        for (; i + 32 <= n; i += 32) {
            __m256i v = _mm256_loadu_si256((const __m256i*)(x + i));
            __m256i l = _mm256_shuffle_epi8(lo, _mm256_and_si256(v, mask));
            __m256i h = _mm256_shuffle_epi8(
                hi, _mm256_and_si256(_mm256_srli_epi16(v, 4), mask));
            __m256i acc = _mm256_loadu_si256((const __m256i*)(y + i));
            _mm256_storeu_si256((__m256i*)(y + i),
                _mm256_xor_si256(acc, _mm256_xor_si256(l, h)));
        }
        for (; i < n; i++)
            y[i] ^= (uint8_t)(nib[x[i] & 0x0f] ^ nib[16 + (x[i] >> 4)]);
    } else {
        for (; i + 32 <= n; i += 32) {
            __m256i v = _mm256_loadu_si256((const __m256i*)(x + i));
            __m256i l = _mm256_shuffle_epi8(lo, _mm256_and_si256(v, mask));
            __m256i h = _mm256_shuffle_epi8(
                hi, _mm256_and_si256(_mm256_srli_epi16(v, 4), mask));
            _mm256_storeu_si256((__m256i*)(y + i), _mm256_xor_si256(l, h));
        }
        for (; i < n; i++)
            y[i] = (uint8_t)(nib[x[i] & 0x0f] ^ nib[16 + (x[i] >> 4)]);
    }
}
#elif GF_ISA == 1
static void gf_mul_one(const uint8_t* nib, const uint8_t* x, uint8_t* y,
                       size_t n, int accumulate) {
    __m128i lo = _mm_loadu_si128((const __m128i*)nib);
    __m128i hi = _mm_loadu_si128((const __m128i*)(nib + 16));
    __m128i mask = _mm_set1_epi8(0x0f);
    size_t i = 0;
    if (accumulate) {
        for (; i + 16 <= n; i += 16) {
            __m128i v = _mm_loadu_si128((const __m128i*)(x + i));
            __m128i l = _mm_shuffle_epi8(lo, _mm_and_si128(v, mask));
            __m128i h = _mm_shuffle_epi8(
                hi, _mm_and_si128(_mm_srli_epi16(v, 4), mask));
            __m128i acc = _mm_loadu_si128((const __m128i*)(y + i));
            _mm_storeu_si128((__m128i*)(y + i),
                _mm_xor_si128(acc, _mm_xor_si128(l, h)));
        }
        for (; i < n; i++)
            y[i] ^= (uint8_t)(nib[x[i] & 0x0f] ^ nib[16 + (x[i] >> 4)]);
    } else {
        for (; i + 16 <= n; i += 16) {
            __m128i v = _mm_loadu_si128((const __m128i*)(x + i));
            __m128i l = _mm_shuffle_epi8(lo, _mm_and_si128(v, mask));
            __m128i h = _mm_shuffle_epi8(
                hi, _mm_and_si128(_mm_srli_epi16(v, 4), mask));
            _mm_storeu_si128((__m128i*)(y + i), _mm_xor_si128(l, h));
        }
        for (; i < n; i++)
            y[i] = (uint8_t)(nib[x[i] & 0x0f] ^ nib[16 + (x[i] >> 4)]);
    }
}
#else
static void gf_mul_one(const uint8_t* nib, const uint8_t* x, uint8_t* y,
                       size_t n, int accumulate) {
    if (accumulate)
        for (size_t i = 0; i < n; i++)
            y[i] ^= (uint8_t)(nib[x[i] & 0x0f] ^ nib[16 + (x[i] >> 4)]);
    else
        for (size_t i = 0; i < n; i++)
            y[i] = (uint8_t)(nib[x[i] & 0x0f] ^ nib[16 + (x[i] >> 4)]);
}
#endif

static void gf_xor_rows(const uint8_t* x, uint8_t* y, size_t n, int accumulate) {
    if (accumulate) {
        for (size_t i = 0; i < n; i++) y[i] ^= x[i];
    } else {
        memcpy(y, x, n);
    }
}

/* out[r] = XOR_s coef[r*ns+s] * src[s] for one (ns, n) source block and
   one (nr, n) output block, rows back to back in each. */
static void gf_block_apply(const uint8_t* coef, const uint8_t* src, uint8_t* out,
                           size_t nr, size_t ns, size_t n) {
    for (size_t r = 0; r < nr; r++) {
        uint8_t* dst = out + r * n;
        int first = 1;
        for (size_t s = 0; s < ns; s++) {
            uint8_t c = coef[r * ns + s];
            if (c == 0) continue;
            const uint8_t* row = src + s * n;
            if (c == 1) gf_xor_rows(row, dst, n, !first);
            else gf_mul_one(gf_nibs + (size_t)c * 32, row, dst, n, !first);
            first = 0;
        }
        if (first) memset(dst, 0, n);
    }
}

/* The one entry point: apply one (nr, ns) matrix to every page of a
   stack. shape = {npages, nr, ns, n, src_stride, out_stride}, packed
   into one descriptor because every ctypes argument costs ~0.13 us to
   marshal — six of them rival the kernel's own work on one page. Page
   p's source block is pages[p] when a pointer table is given (raw page
   buffers read in place, no staging copy) and src + p*src_stride
   otherwise; its output block is out + p*out_stride. Byte strides let
   either side be a row slice of a wider codeword layout (e.g. parity
   written straight into a (pages, k+r, n) stack at offset k*n). A flat
   slab or a single page is npages = 1. Each page's working set is a few
   KB, so its rows stay L1-resident across output rows. */
void gf_apply(const uint8_t* coef, const uint8_t* src,
              const uint8_t* const* pages, uint8_t* out, const void* packed_shape) {
    size_t shape[6];
    memcpy(shape, packed_shape, sizeof shape);  /* no alignment assumed */
    size_t npages = shape[0], nr = shape[1], ns = shape[2], n = shape[3];
    size_t src_stride = shape[4], out_stride = shape[5];
    for (size_t p = 0; p < npages; p++)
        gf_block_apply(coef, pages ? pages[p] : src + p * src_stride,
                       out + p * out_stride, nr, ns, n);
}
"""


_FLAG_SETS = (
    ["-O3", "-march=native", "-shared", "-fPIC"],
    ["-O3", "-shared", "-fPIC"],  # cross-arch fallback
)


def _cache_dir() -> str:
    """The compile cache directory, resolved once per load attempt."""
    directory = os.environ.get("REPRO_NATIVE_CACHE") or os.path.join(
        os.environ.get("XDG_CACHE_HOME")
        or os.path.join(os.path.expanduser("~"), ".cache"),
        "repro-hydra",
    )
    try:
        os.makedirs(directory, exist_ok=True)
        return directory
    except OSError:
        return tempfile.mkdtemp(prefix="repro-gf-")


def _build(source: str, so_path: str, compiler: str, flags: List[str]) -> Optional[str]:
    """Compile ``source`` into ``so_path``; None on success, else why not.

    Source and object are written under per-process names and the object
    renamed into place: concurrent processes (the ``-j N`` shard runner)
    race on the cache slot, and neither a half-written source nor a
    half-written object may ever be read by another process.
    """
    stem = f"{so_path[:-3]}.{os.getpid()}"
    c_path, tmp_path = stem + ".c", stem + ".tmp"
    try:
        with open(c_path, "w") as fh:
            fh.write(source)
        result = subprocess.run(
            [compiler, *flags, "-o", tmp_path, c_path],
            capture_output=True,
            timeout=60,
        )
        if result.returncode != 0:
            lines = result.stderr.decode(errors="replace").strip().splitlines()
            # The last diagnostic, not the caret line gcc prints under it.
            errors = [line for line in lines if "error" in line]
            return f"{compiler}: {(errors or lines or [result.returncode])[-1]}"
        os.replace(tmp_path, so_path)
        return None
    except (OSError, subprocess.SubprocessError) as exc:
        return f"{compiler}: {exc}"
    finally:
        for path in (c_path, tmp_path):
            with contextlib.suppress(OSError):
                os.unlink(path)


def _load_library(source: str) -> Tuple[Optional[ctypes.CDLL], str]:
    """The compiled kernel from its cache slot, building it when absent.

    Slots are keyed by a hash of source, compiler and flags. A cached
    object that fails to load (truncated, corrupt, wrong arch) is
    unlinked and rebuilt once. Returns ``(library, "")`` or ``(None, why)``
    with the last failure in one line.
    """
    directory = _cache_dir()
    why = ""
    for compiler in ("cc", "gcc"):
        for flags in _FLAG_SETS:
            tag = hashlib.sha256(
                ("\x00".join([source, compiler] + flags)).encode()
            ).hexdigest()[:16]
            so_path = os.path.join(directory, f"gf_{tag}.so")
            for _attempt in range(2):
                if not os.path.exists(so_path):
                    failure = _build(source, so_path, compiler, flags)
                    if failure:
                        why = failure
                        break
                try:
                    return ctypes.CDLL(so_path), ""
                except OSError as exc:
                    why = str(exc)
                    with contextlib.suppress(OSError):
                        os.unlink(so_path)
    return None, why


def _prepare(coef, src, out):
    """Shared front end of both backends' in-place ``apply``: validate
    shapes and allocate ``out`` — ``(nr, n)`` for one 2-D page, ``(pages,
    nr, n)`` for a stack or page list. Returns ``out``."""
    if coef.ndim != 2 or coef.dtype is not _UINT8:
        raise ValueError(f"matrix must be 2-D uint8, got {coef.dtype} {coef.shape}")
    nr, ns = coef.shape
    if isinstance(src, np.ndarray):
        if src.dtype is not _UINT8 or src.ndim not in (2, 3) or src.shape[-2] != ns:
            raise ValueError(f"cannot apply {coef.shape} matrix to {src.dtype} {src.shape}")
        shape = src.shape[:-2] + (nr, src.shape[-1])
    else:
        # Raw page buffers, each ``ns`` rows back to back.
        if out is not None:
            n = out.shape[-1]
        else:
            n = len(src[0]) // ns if len(src) and ns else 0
        if set(map(len, src)) - {ns * n}:
            raise ValueError(f"every page must be {ns} rows of {n} bytes")
        shape = (len(src), nr, n)
    if out is None:
        out = np.empty(shape, dtype=np.uint8)
    elif out.shape != shape or out.dtype is not _UINT8:
        raise ValueError(f"out must be uint8 {shape}, got {out.dtype} {out.shape}")
    return out


def _join(rows) -> bytes:
    """Scattered 1-D uint8 rows back to back as one ``bytes`` object; a
    strided row exports no contiguous buffer and is copied first."""
    try:
        return b"".join(rows)
    except TypeError:
        return b"".join([row.tobytes() for row in rows])


# gf_apply's shape descriptor: six native size_t.
_SHAPE = struct.Struct("6N").pack


class NativeGF:
    """The compiled backend: a ctypes wrapper around ``gf_apply``.

    Fills the C side's 256x32 nibble-table block from ``MUL_TABLE``, so
    it performs the exact same field lookups as :class:`NumpyGF`.
    Marshalling is kept off the hot path here and nowhere else:
    ``.ctypes.data`` costs ~1 us per access (it builds a fresh ctypes
    interface object) and every ctypes argument ~0.13 us, comparable to
    the kernel's own time on one page, so the coefficient matrix and a
    per-page source travel as ``bytes``, the six sizes as one packed
    descriptor, and only whole stacks pay ``.ctypes.data``.
    """

    def __init__(self, lib: ctypes.CDLL):
        self._lib = lib
        lib.gf_apply.argtypes = [ctypes.c_void_p] * 5
        lib.gf_apply.restype = None
        lib.gf_set_tables.argtypes = [ctypes.c_void_p]
        lib.gf_set_tables.restype = None
        lib.gf_kernel_isa.restype = ctypes.c_int
        self.isa = {0: "scalar", 1: "ssse3", 2: "avx2"}[int(lib.gf_kernel_isa())]
        nibs = np.zeros((256, 32), dtype=np.uint8)
        low = np.arange(16)
        for c in range(256):
            nibs[c, :16] = MUL_TABLE[c, low]
            nibs[c, 16:] = MUL_TABLE[c, low << 4]
        lib.gf_set_tables(nibs.tobytes())
        self._gf_apply = lib.gf_apply
        # Per-page staging buffer (product rows of one length), its
        # shape and its address, each taken once per allocation.
        self._stage = np.empty((0, 0), dtype=np.uint8)
        self._stage_shape = (0, 0)
        self._stage_ptr = 0

    def apply(self, coef, src, out: Optional[np.ndarray] = None) -> np.ndarray:
        """``out[p] = coef @ src[p]`` over GF(2^8) for every page ``p``.

        ``src`` is a ``(pages, ns, n)`` stack, one 2-D ``(ns, n)`` array,
        or a list of ``bytes`` pages (``ns * n`` bytes each), all read in
        place. Stacks may be strided by page (the pivot columns of a wider
        stack) and so may ``out`` (the parity rows of a ``(pages, k + r,
        n)`` stack); anything whose rows are not back to back is copied.
        One raw ``bytes`` page is the per-page form: without ``out`` its
        product is a *view of the staging buffer* (module docstring).
        """
        if type(src) is bytes:
            return self._staged(coef, src, None, out)
        out = _prepare(coef, src, out)
        nr, ns = coef.shape
        n = out.shape[-1]
        stacked = out.ndim == 3
        pages, base, src_stride = None, None, 0
        if not isinstance(src, np.ndarray):
            pages = (ctypes.c_char_p * len(src))(*src)
        else:
            strides = src.strides
            if strides[-2:] != (n, 1) or strides[0] < 0:
                src = np.ascontiguousarray(src)
            base = src.ctypes.data
            src_stride = src.strides[0] if stacked else 0
        target = out
        if out.strides[-2:] != (n, 1) or out.strides[0] < 0:
            target = np.empty(out.shape, dtype=np.uint8)
        if target.size:
            self._gf_apply(
                coef.tobytes(), base, pages, target.ctypes.data,
                _SHAPE(
                    out.shape[0] if stacked else 1, nr, ns, n,
                    src_stride, target.strides[0] if stacked else 0,
                ),
            )
        if target is not out:
            out[...] = target
        return out

    def apply_rows(self, coef, rows, out: Optional[np.ndarray] = None) -> np.ndarray:
        """``coef @ rows`` for ``ns`` scattered 1-D uint8 rows of one
        length: :meth:`apply` on the rows joined into one ``bytes`` page."""
        return self._staged(coef, _join(rows), rows[0].shape[0], out)

    def _staged(self, coef: np.ndarray, src: bytes, n: Optional[int], out) -> np.ndarray:
        """The per-page call on ``ns`` rows of ``n`` bytes back to back."""
        if coef.ndim != 2 or coef.dtype is not _UINT8:
            raise ValueError(f"matrix must be 2-D uint8, got {coef.dtype} {coef.shape}")
        nr, ns = coef.shape
        if n is None:
            n = len(src) // (ns or 1)
        if len(src) != ns * n:
            raise ValueError(f"source must be {ns} rows of {n} bytes, got {len(src)}")
        rows, width = self._stage_shape
        if width != n or rows < nr:
            self._stage_shape = (max(nr, rows) if width == n else nr, n)
            self._stage = np.empty(self._stage_shape, dtype=np.uint8)
            self._stage_ptr = self._stage.ctypes.data
        self._gf_apply(
            coef.tobytes(), src, None, self._stage_ptr, _SHAPE(1, nr, ns, n, 0, 0)
        )
        product = self._stage[:nr]
        if out is None:
            return product
        if out.shape != (nr, n):
            raise ValueError(f"out must be {(nr, n)}, got {out.shape}")
        out[...] = product
        return out


class NumpyGF:
    """The pure-numpy backend, and the reference the native one is tested
    against: same interface, same ``MUL_TABLE`` lookups, byte-identical
    output."""

    isa = "numpy"

    def __init__(self):
        # 256-byte translation tables: bytes.translate runs the same
        # per-byte MUL_TABLE lookup as ndarray.take about 2x faster, and
        # the table universe is capped at 256 entries.
        self._tables: dict = {}

    def _product(self, coef: np.ndarray, rows, outs) -> None:
        """``outs[r] = XOR_s coef[r, s] * rows[s]``: one translate per
        nonzero non-unit coefficient, unit coefficients are plain XORs.
        Rows are 1-D splits or ``(pages, n)`` slices of a stack, so one
        sweep covers every page; a source row is copied, never aliased."""
        tables = self._tables
        for coefficients, acc in zip(coef.tolist(), outs):
            first = True
            for coefficient, row in zip(coefficients, rows):
                if coefficient == 0:
                    continue
                term = row
                if coefficient != 1:
                    table = tables.get(coefficient)
                    if table is None:
                        table = tables[coefficient] = MUL_TABLE[coefficient].tobytes()
                    term = np.frombuffer(row.tobytes().translate(table), dtype=np.uint8)
                    if row.ndim > 1:
                        term = term.reshape(row.shape)
                if first:
                    acc[...] = term
                    first = False
                else:
                    np.bitwise_xor(acc, term, out=acc)
            if first:
                acc[...] = 0

    def apply(self, coef, src, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Same contract as :meth:`NativeGF.apply` (a fresh array stands
        in for the staging view)."""
        if type(src) is bytes:
            src = np.frombuffer(src, dtype=np.uint8)
            src = src.reshape(coef.shape[1], len(src) // (coef.shape[1] or 1))
        out = _prepare(coef, src, out)
        if not isinstance(src, np.ndarray):
            src = np.frombuffer(b"".join(src), dtype=np.uint8).reshape(
                out.shape[0], coef.shape[1], out.shape[-1]
            )
        # Rows outermost: (ns, [pages,] n) sources, (nr, [pages,] n) outputs.
        self._product(coef, src.swapaxes(0, -2), out.swapaxes(0, -2))
        return out

    def apply_rows(self, coef, rows, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Same contract as :meth:`NativeGF.apply_rows`."""
        src = _join(rows)
        if len(src) != coef.shape[1] * rows[0].shape[0]:
            raise ValueError(f"source must be {coef.shape[1]} rows of one length")
        return self.apply(coef, src, out)


_KERNEL = None


def _probe_native() -> Optional[NativeGF]:
    """Build/load the native backend; None (with one RuntimeWarning unless
    ``REPRO_EC_NATIVE=0`` asked for it) when this host cannot have one."""
    if os.environ.get("REPRO_EC_NATIVE", "1") == "0":
        return None
    lib, why = _load_library(_C_SOURCE)
    if lib is None:
        warnings.warn(
            f"native GF(2^8) kernel unavailable ({why}); using the numpy backend",
            RuntimeWarning,
            stacklevel=3,
        )
        return None
    return NativeGF(lib)


def _keep_heap() -> None:
    """Pin glibc's malloc thresholds (a no-op on any other libc): blocks
    under numpy's 4 MiB huge-page boundary come from a heap trimmed only
    past 256 MiB of free top. Left to adapt, they let heap layout decide
    whether a freed slab-sized stack page-faults again on its next use
    (~1.5 us per 4 KB page in a VM, 3x the cost of coding it): one
    ``encode_batch`` pass took 64 to 2,490 faults from run to run."""
    with contextlib.suppress(OSError, AttributeError):
        mallopt = ctypes.CDLL(None).mallopt
        mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD


def load_kernel():
    """The process-wide GF(2^8) kernel — the one place a backend is
    chosen: :class:`NativeGF` when it loads, :class:`NumpyGF` otherwise."""
    global _KERNEL
    if _KERNEL is None:
        _keep_heap()
        _KERNEL = _probe_native() or NumpyGF()
    return _KERNEL


def load_native() -> Optional[NativeGF]:
    """The process-wide kernel if it is the native one, else None."""
    kernel = load_kernel()
    return kernel if isinstance(kernel, NativeGF) else None


def native_kernel_name() -> str:
    """Diagnostic label for benchmark metadata: avx2/ssse3/scalar/numpy."""
    return load_kernel().isa
