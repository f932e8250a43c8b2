"""The per-page codec path: bytes in, one staged kernel call, one copy out.

Mechanism pins (kernel calls per page operation, counted, not timed),
the ownership rule (nothing a public method returns aliases the kernel's
staging buffer), every input form against the ``gf_matmul`` oracle, and
the shared gather's validation. Every test runs on both backends.
"""

import platform
import resource

import numpy as np
import pytest

from repro.ec import CorruptionDetected, DecodeError, PageCodec, gf_matmul

from .conftest import make_page


def _count_kernel_calls(kernel, monkeypatch):
    """Swap the backend's product routine for a counting stand-in:
    ``gf_apply`` on the native kernel, ``_product`` on the numpy one."""
    name = "_gf_apply" if hasattr(kernel, "_gf_apply") else "_product"
    real = getattr(kernel, name)
    calls = []

    def counting(*args):
        calls.append(name)
        return real(*args)

    monkeypatch.setattr(kernel, name, counting)
    return calls


def _received(splits, indices):
    return {i: splits[i] for i in indices}


def test_one_kernel_call_per_page_operation(ec_backend, monkeypatch):
    codec = PageCodec(8, 2)
    code = codec.code
    page = make_page(11)
    splits = codec.encode(page)
    data = codec.split(page)
    everything = _received(splits, range(10))
    parity_in_base = _received(splits, (0, 1, 2, 4, 5, 6, 7, 8, 9))
    kset = _received(splits, (0, 1, 2, 4, 5, 6, 7, 9))
    operations = [
        ("encode", 1, lambda: codec.encode(page)),
        ("rs.encode", 1, lambda: code.encode(data)),
        ("non-systematic decode", 1, lambda: codec.decode(kset)),
        ("systematic decode", 0, lambda: codec.decode(_received(splits, range(8)))),
        ("verify, k + 1", 1, lambda: codec.verify(_received(splits, range(9)))),
        ("verify, parity in the base", 1, lambda: codec.verify(parity_in_base)),
        ("decode_verified", 1, lambda: codec.decode_verified(everything)),
        # Not verify-then-decode: the check and the decode are one product.
        ("decode_verified, parity in the base", 1,
         lambda: codec.decode_verified(parity_in_base)),
        ("clean correct, all k + r", 1,
         lambda: codec.correct(everything, max_errors=1, best_effort=True)),
        ("clean correct, parity in the base", 1,
         lambda: codec.correct(parity_in_base, max_errors=0)),
        ("reencode_split, parity", 1, lambda: code.reencode_split(data, 9)),
        ("reencode_split, data", 0, lambda: code.reencode_split(data, 3)),
    ]
    for _label, _expected, operation in operations:
        operation()  # compile the plans: compilation multiplies matrices too
    calls = _count_kernel_calls(code.kernel, monkeypatch)
    for label, expected, operation in operations:
        del calls[:]
        operation()
        assert len(calls) == expected, (ec_backend, label)


def test_results_do_not_alias_the_staging_buffer(ec_backend):
    """Two consecutive results are independent of each other and of a
    later call: whatever left the codec is its caller's."""
    codec = PageCodec(8, 3)
    code = codec.code
    pages = [make_page(seed) for seed in (1, 2, 3)]
    coded = [codec.encode(page) for page in pages]
    assert [codec.join(splits[:8]) for splits in coded] == pages  # each survived the next
    data = [codec.split(page) for page in pages]
    kset = (0, 2, 3, 4, 5, 7, 8, 10)

    def dirty(splits):
        received = _received(splits, range(11))
        received[4] = received[4] ^ np.uint8(0x21)
        return received

    producers = {
        "encode": lambda i: codec.encode(pages[i]),
        "rs.encode": lambda i: code.encode(data[i]),
        "rs.encode_page": lambda i: code.encode_page(data[i]),
        "rs.decode": lambda i: code.decode(_received(coded[i], kset)),
        "rs.decode, systematic": lambda i: code.decode(_received(coded[i], range(8))),
        "rs.decode_verified": lambda i: code.decode_verified(_received(coded[i], range(10))),
        "reencode_split": lambda i: code.reencode_split(data[i], 9),
        "rs.correct, clean": lambda i: code.correct(_received(coded[i], range(11)))[0],
        "rs.correct, corrupt pivot": lambda i: code.correct(dirty(coded[i]))[0],
    }
    stage = getattr(code.kernel, "_stage", None)
    for label, produce in producers.items():
        first, second = produce(0), produce(1)
        snapshot = first.tobytes(), second.tobytes()
        assert snapshot[0] != snapshot[1], label
        assert not np.shares_memory(first, second), (ec_backend, label)
        if stage is not None:
            assert not np.shares_memory(first, code.kernel._stage), (ec_backend, label)
        codec.decode(_received(coded[2], kset))  # a later call on the same kernel
        codec.encode(pages[2])
        assert (first.tobytes(), second.tobytes()) == snapshot, (ec_backend, label)
        first[...] = 0  # owned and writable
        assert second.tobytes() == snapshot[1], (ec_backend, label)


@pytest.mark.parametrize(
    "k, r, page_size",
    [(8, 2, 4096), (3, 2, 4096), (4, 0, 64), (4, 2, 4), (1, 1, 16)],
    ids=["rs8+2", "k does not divide the page", "r=0", "split_size=1", "k=1"],
)
def test_input_forms_match_the_matmul_oracle(k, r, page_size, ec_backend):
    codec = PageCodec(k, r, page_size=page_size)
    code = codec.code
    rng = np.random.default_rng([k, r, page_size])
    page = rng.integers(0, 256, page_size, dtype=np.uint8).tobytes()
    padded = np.zeros(codec.padded_size, dtype=np.uint8)
    padded[:page_size] = np.frombuffer(page, dtype=np.uint8)
    data = padded.reshape(k, codec.split_size)
    want = gf_matmul(code.generator, data)  # the oracle: one generic product

    # Pages: bytes where they lie, any other buffer through one bytes() copy.
    for form in (page, bytearray(page), memoryview(page), np.frombuffer(page, dtype=np.uint8)):
        assert np.array_equal(codec.encode(form), want), type(form)
        assert np.array_equal(codec.split(form), data), type(form)
    assert np.array_equal(code.encode_page(data), want)
    assert np.array_equal(code.encode(data), want[k:])
    assert code.encode(data).shape == (r, codec.split_size)
    assert np.array_equal(code.encode_page(data.tolist()), want)  # converted, as before
    for index in range(k + r):
        assert np.array_equal(code.reencode_split(data, index), want[index])

    # Rows: owned, read-only (frombuffer), strided (a column slice), and
    # non-uint8 / list rows, which are converted as they always were.
    wide = np.zeros((codec.split_size, 2 * (k + r)), dtype=np.uint8)
    wide[:, ::2] = want.T
    forms = {
        "owned": list(want),
        "read-only": [np.frombuffer(row.tobytes(), dtype=np.uint8) for row in want],
        "strided": [wide[:, 2 * i] for i in range(k + r)],
        "int64": [row.astype(np.int64) for row in want],
        "lists": [row.tolist() for row in want],
    }
    subsets = [tuple(range(k)), tuple(range(r, k + r))]  # systematic, parity-heavy
    for label, rows in forms.items():
        everything = dict(enumerate(rows))
        for subset in subsets:
            received = {i: rows[i] for i in subset}
            assert codec.decode(received) == page, (label, subset)
            assert np.array_equal(code.decode(received), data), (label, subset)
        assert codec.verify(everything), label
        assert codec.decode_verified(everything) == page, label
        if r:
            assert codec.correct(everything, best_effort=True) == (page, []), label
            assert code.consistent_with_decode(
                {i: np.asarray(row, dtype=np.uint8) for i, row in everything.items()},
                _received(rows, subsets[1]),
                code.decode(_received(rows, subsets[1])),
            ), label
    if r >= 2:
        # One flipped byte: detected, and located from every row form.
        for label, rows in forms.items():
            received = {i: np.array(row, dtype=np.uint8) for i, row in enumerate(rows)}
            received[0][0] ^= 0x40
            assert not codec.verify(received), label
            with pytest.raises(CorruptionDetected):
                codec.decode_verified(received)
            assert codec.correct(received, max_errors=1, best_effort=True) == (page, [0]), label


def _torn(splits):
    """k + r splits whose *total* length is right: one a byte short, its
    neighbour a byte long."""
    received = dict(enumerate(splits))
    received[1] = received[1][:-1]
    received[2] = np.append(received[2], np.uint8(0))
    return received


def test_splits_of_unequal_length_are_refused(ec_backend):
    """A torn split next to an over-long one used to pass the kernel's
    total-length check and decode to 4,096 wrong bytes."""
    codec = PageCodec(8, 2)
    splits = codec.encode(make_page(5))
    received = _torn(splits)
    first_k = {i: received[i] for i in range(8)}
    with pytest.raises(DecodeError, match="split 1 holds 511 bytes"):
        codec.decode(first_k)
    with pytest.raises(DecodeError, match="split 1 holds 511 bytes"):
        codec.code.decode(first_k)
    for operation in (codec.verify, codec.decode_verified):
        with pytest.raises(DecodeError, match="holds 511 bytes"):
            operation(received)
    for correct in (codec.correct, codec.code.correct_reference):
        with pytest.raises(DecodeError, match="holds 511 bytes"):
            correct(received, max_errors=1, best_effort=True)
    # decode looks at the first k only: a malformed extra is not its business.
    assert codec.decode({**{i: splits[i] for i in range(8)}, 9: splits[9][:7]}) == make_page(5)


def test_malformed_inputs_keep_their_errors(ec_backend):
    codec = PageCodec(4, 2, page_size=64)
    code = codec.code
    splits = codec.encode(bytes(range(64)))
    received = dict(enumerate(splits))
    with pytest.raises(DecodeError, match="need 4 splits"):
        codec.decode({0: splits[0], 5: splits[5]})
    for operation in (codec.decode, codec.verify, codec.decode_verified, codec.correct):
        with pytest.raises(DecodeError, match="1-D"):
            operation({**received, 1: splits[1:3]})
        with pytest.raises(DecodeError, match="1-D"):
            operation({**received, 1: np.uint8(7)})
    with pytest.raises(DecodeError, match="expected 4 splits"):
        code.encode(np.zeros((3, 16), dtype=np.uint8))
    with pytest.raises(DecodeError, match="2-D"):
        code.encode_page(np.zeros(16, dtype=np.uint8))
    with pytest.raises(DecodeError, match="out of range"):
        code.reencode_split(codec.split(bytes(64)), 6)
    for short in (b"short", bytearray(63), memoryview(bytes(65))):
        with pytest.raises(ValueError, match="exactly 64 bytes"):
            codec.encode(short)
        with pytest.raises(ValueError, match="exactly 64 bytes"):
            codec.split(short)
    with pytest.raises(ValueError, match="expected shape"):
        codec.join(np.zeros((4, 15), dtype=np.uint8))
    with pytest.raises(ValueError, match="expected shape"):  # right count, wrong split length
        codec.decode({i: splits[i][:8] for i in range(4)})
    kernel = code.kernel
    with pytest.raises(ValueError):  # the kernel's own checks, both backends
        kernel.apply(code.generator, bytes(63))
    with pytest.raises(ValueError):
        kernel.apply_rows(code.generator, list(splits[:3]))
    with pytest.raises(ValueError):
        kernel.apply(code.generator.astype(np.int16), bytes(64))


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
def test_freed_slab_stacks_are_reused_without_page_faults():
    """``load_kernel`` pins the malloc thresholds: eight 1.3 MB stacks held
    together and released (a regeneration pass; together they are past the
    default trim threshold) come back from the heap on the next pass, not
    from the OS at one page fault per 4 KB. Counted, not timed."""
    codec = PageCodec(8, 2)
    slab = [make_page(i) for i in range(256)]
    stack_pages = 256 * 10 * 512 // 4096

    def one_pass():
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        stacks = [codec.encode_batch(slab) for _ in range(8)]
        del stacks
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    one_pass()  # first touch
    assert max(one_pass() for _ in range(4)) < stack_pages
