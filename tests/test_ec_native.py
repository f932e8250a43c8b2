"""Robustness of the native kernel's compile cache (``repro.ec.native``).

A poisoned cache slot, a missing compiler and the ``REPRO_EC_NATIVE=0``
opt-out must each end in a working codec, and only the opt-out may fall
back to numpy without saying so.
"""

import shutil
import warnings

import pytest

from repro.ec import PageCodec
from repro.ec import native

needs_compiler = pytest.mark.skipif(
    shutil.which("cc") is None and shutil.which("gcc") is None,
    reason="no C compiler on PATH",
)


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """An empty compile cache, native backend enabled."""
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    monkeypatch.delenv("REPRO_EC_NATIVE", raising=False)
    return tmp_path


def _roundtrip(kernel) -> bytes:
    """Encode + non-systematic decode of a fixed page through ``kernel``."""
    codec = PageCodec(4, 2, page_size=256)
    codec.code.kernel = kernel
    page = bytes(range(256))
    splits = codec.encode(page)
    assert codec.decode({i: splits[i] for i in (1, 2, 4, 5)}) == page
    return splits.tobytes()


@needs_compiler
def test_garbage_in_cache_slot_is_rebuilt(cache):
    # Learn the slot name(s) from one good build, then poison the same
    # names in a second directory (a path dlopen has not seen: it would
    # hand back its cached handle for one it has).
    assert native._probe_native() is not None
    slots = sorted(cache.glob("gf_*.so"))
    assert slots and not list(cache.glob("*.c")) and not list(cache.glob("*.tmp"))
    fresh = cache / "second"
    fresh.mkdir()
    for slot in slots:
        (fresh / slot.name).write_bytes(b"not an ELF object")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_NATIVE_CACHE", str(fresh))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kernel = native._probe_native()
    assert kernel is not None
    assert _roundtrip(kernel) == _roundtrip(native.NumpyGF())
    rebuilt = [slot for slot in fresh.glob("gf_*.so") if slot.read_bytes()[:4] == b"\x7fELF"]
    assert rebuilt, "the poisoned slot must hold a loadable object again"


@needs_compiler
def test_source_that_stops_compiling_says_why(cache):
    library, why = native._load_library("int broken = ;")
    assert library is None and "error" in why
    assert not list(cache.iterdir()), "a failed build must leave nothing behind"


def test_no_compiler_warns_once_and_falls_back(cache, monkeypatch):
    before = _roundtrip(native.load_kernel())  # whatever this process runs on
    monkeypatch.setenv("PATH", str(cache / "no-such-bin"))
    with pytest.warns(RuntimeWarning, match="native GF") as caught:
        assert native._probe_native() is None
    assert len(caught) == 1
    assert not list(cache.iterdir()), "a failed build must leave nothing behind"
    # A process that starts like this runs on the numpy backend: one
    # warning at selection, none after, and the same bytes out.
    monkeypatch.setattr(native, "_KERNEL", None)
    with pytest.warns(RuntimeWarning) as caught:
        fallback = native.load_kernel()
        assert native.load_kernel() is fallback and native.load_native() is None
        codec = PageCodec(4, 2, page_size=256)
    assert len(caught) == 1
    assert codec.code.kernel is fallback and fallback.isa == "numpy"
    assert _roundtrip(fallback) == before


def test_opt_out_is_silent(cache, monkeypatch):
    monkeypatch.setenv("REPRO_EC_NATIVE", "0")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert native._probe_native() is None
    assert not list(cache.iterdir())
