"""Property-based tests for the coding path (seeded random draws).

Hypothesis-style testing on the sim's own :class:`RandomSource`: every
test draws a random ``(k, r, page_size, erasure set, Δ-error pattern)``
per seed and checks the codec's contracts — roundtrip from any ``k``
survivors, detection with ``k + Δ`` splits, guaranteed correction with
``k + 2Δ + 1``, best-effort localization — across the whole operating
region, not just the paper's RS(8, 2) point. Seeded draws keep each case
deterministic and individually replayable (the seed is the parametrize
id), which is why these use the sim RNG rather than time-salted fuzzing.

The cached-row-plan tests deliberately reuse one codec across many
random index tuples so the ``_decode_plans`` / ``_extras_plans`` /
``_rebuild_cache`` fast paths are hit both cold and warm and compared
against a fresh codec each time.
"""

import numpy as np
import pytest

from repro.ec import CorruptionDetected, DecodeError, PageCodec
from repro.sim import RandomSource

SEEDS = range(20)


def _draw_codec(rng, k_max=10, r_max=4):
    """A random codec: k, r, and a page size that often needs padding."""
    k = rng.randint(2, k_max)
    r = rng.randint(1, r_max)
    page_size = rng.randint(max(k, 64), 1024)
    return PageCodec(k, r, page_size=page_size)


def _random_page(rng, size):
    return rng.numpy.integers(0, 256, size=size, dtype=np.uint8).tobytes()


def _corrupt(rng, split):
    """Flip at least one byte of ``split`` (xor with a nonzero mask)."""
    corrupted = split.copy()
    pos = rng.randint(0, len(corrupted) - 1)
    corrupted[pos] ^= rng.randint(1, 255)
    return corrupted


@pytest.mark.parametrize("seed", SEEDS)
def test_roundtrip_from_any_k_survivors(seed):
    rng = RandomSource(seed, "ec-prop/roundtrip")
    codec = _draw_codec(rng)
    page = _random_page(rng, codec.page_size)
    splits = codec.encode(page)
    assert splits.shape == (codec.n, codec.split_size)

    # Any k of the k+r splits reconstruct the page — including sets that
    # replace data splits with parity (the late-binding read path).
    for _ in range(4):
        survivors = rng.sample(range(codec.n), codec.k)
        received = {i: splits[i] for i in survivors}
        assert codec.decode(received) == page

    # k-1 splits are information-theoretically insufficient.
    short = rng.sample(range(codec.n), codec.k - 1)
    with pytest.raises(DecodeError):
        codec.decode({i: splits[i] for i in short})


@pytest.mark.parametrize("seed", SEEDS)
def test_verify_detects_delta_corruptions_with_k_plus_delta(seed):
    rng = RandomSource(seed, "ec-prop/verify")
    codec = _draw_codec(rng)
    delta = rng.randint(1, codec.r)
    assert codec.splits_required(detect_errors=delta) == codec.k + delta

    page = _random_page(rng, codec.page_size)
    splits = codec.encode(page)
    chosen = rng.sample(range(codec.n), codec.k + delta)
    received = {i: splits[i].copy() for i in chosen}
    assert codec.verify(received)
    assert codec.decode_verified(received) == page

    # Corrupt up to delta of the received splits: detection is guaranteed.
    for index in rng.sample(chosen, delta):
        received[index] = _corrupt(rng, received[index])
    assert not codec.verify(received)
    with pytest.raises(CorruptionDetected):
        codec.decode_verified(received)


@pytest.mark.parametrize("seed", SEEDS)
def test_correct_guaranteed_with_k_plus_2delta_plus_1(seed):
    rng = RandomSource(seed, "ec-prop/correct")
    # Guaranteed correction of delta=1 needs k + 3 splits, so r >= 3;
    # keep k small so the C(m, k) majority decode stays cheap.
    k = rng.randint(2, 6)
    r = rng.randint(3, 4)
    codec = PageCodec(k, r, page_size=rng.randint(max(k, 64), 1024))
    assert codec.splits_required(correct_errors=1) == k + 3

    page = _random_page(rng, codec.page_size)
    splits = codec.encode(page)
    chosen = rng.sample(range(codec.n), k + 3)
    received = {i: splits[i].copy() for i in chosen}

    # No corruption: clean page, nothing located.
    data, corrupted = codec.correct(received, max_errors=1)
    assert data == page and corrupted == []

    # One corrupted split: located exactly, page still exact.
    victim = rng.choice(chosen)
    received[victim] = _corrupt(rng, received[victim])
    data, corrupted = codec.correct(received, max_errors=1)
    assert data == page
    assert corrupted == [victim]


@pytest.mark.parametrize("seed", SEEDS)
def test_correct_best_effort_localizes_from_k_plus_2(seed):
    rng = RandomSource(seed, "ec-prop/best-effort")
    k = rng.randint(2, 6)
    r = rng.randint(2, 4)
    codec = PageCodec(k, r, page_size=rng.randint(256, 1024))
    page = _random_page(rng, codec.page_size)
    splits = codec.encode(page)
    chosen = rng.sample(range(codec.n), k + 2)
    received = {i: splits[i].copy() for i in chosen}
    victim = rng.choice(chosen)
    received[victim] = _corrupt(rng, received[victim])
    data, corrupted = codec.correct(received, max_errors=1, best_effort=True)
    assert data == page
    assert corrupted == [victim]


@pytest.mark.parametrize("seed", SEEDS)
def test_cached_row_plans_match_fresh_codec(seed):
    """One codec serving many index tuples (warm caches) must agree with
    a cold codec per call — the cached fast paths cannot drift."""
    rng = RandomSource(seed, "ec-prop/plans")
    k = rng.randint(2, 8)
    r = rng.randint(1, 4)
    page_size = rng.randint(max(k, 64), 1024)
    warm = PageCodec(k, r, page_size=page_size)
    pages = [_random_page(rng, page_size) for _ in range(3)]
    encoded = [warm.encode(page) for page in pages]

    for _ in range(8):
        survivors = rng.sample(range(warm.n), warm.k)
        which = rng.randint(0, len(pages) - 1)
        received = {i: encoded[which][i] for i in survivors}
        cold = PageCodec(k, r, page_size=page_size)
        assert warm.decode(received) == cold.decode(received) == pages[which]
        # Repeat with the warm cache populated for this exact tuple.
        assert warm.decode(received) == pages[which]

    delta = rng.randint(1, warm.r)
    chosen = rng.sample(range(warm.n), warm.k + delta)
    received = {i: encoded[0][i] for i in chosen}
    cold = PageCodec(k, r, page_size=page_size)
    assert warm.verify(received) and cold.verify(received)
    assert warm.verify(received)  # warm _extras_plans path


@pytest.mark.parametrize("seed", SEEDS)
def test_batch_paths_match_per_page(seed):
    rng = RandomSource(seed, "ec-prop/batch")
    codec = _draw_codec(rng, k_max=8)
    pages = [_random_page(rng, codec.page_size) for _ in range(5)]

    batch = codec.encode_batch(pages)
    singles = [codec.encode(page) for page in pages]
    assert batch.shape == (len(pages), codec.n, codec.split_size)
    for got, want in zip(batch, singles):
        assert np.array_equal(got, want)

    indices = sorted(rng.sample(range(codec.n), codec.k))
    stack = np.stack([np.stack([s[i] for i in indices]) for s in singles])
    decoded = codec.decode_batch(indices, stack)
    assert decoded == pages


def _call_correct(fn, received, max_errors, best_effort):
    """Canonical outcome tuple: result bytes or classified error."""
    try:
        data, bad = fn(received, max_errors=max_errors, best_effort=best_effort)
    except DecodeError as exc:
        return ("err", str(exc), sorted(exc.suspect_indices))
    return ("ok", data.tobytes(), bad)


@pytest.mark.parametrize("seed", range(40))
def test_fast_correct_byte_identical_to_reference(seed):
    """The residual-guided ``correct`` must match the exhaustive-scan
    ``correct_reference`` byte for byte — data, localization lists, error
    messages, and suspect indices — across random codecs, split subsets,
    corruption counts (including none and too many), and both modes."""
    rng = RandomSource(seed, "ec-prop/fast-vs-ref")
    k = rng.randint(2, 6)
    r = rng.randint(1, 4)
    codec = PageCodec(k, r, page_size=rng.randint(max(k, 64), 512))
    code = codec.code
    page = _random_page(rng, codec.page_size)
    splits = codec.encode(page)

    for _ in range(6):
        m = rng.randint(k + 1, code.n)
        chosen = rng.sample(range(code.n), m)
        received = {i: splits[i].copy() for i in chosen}
        for victim in rng.sample(chosen, rng.randint(0, min(2, m))):
            received[victim] = _corrupt(rng, received[victim])
        max_errors = rng.randint(1, 2)
        best_effort = bool(rng.randint(0, 1))
        fast = _call_correct(code.correct, dict(received), max_errors, best_effort)
        ref = _call_correct(
            code.correct_reference, dict(received), max_errors, best_effort
        )
        assert fast == ref


@pytest.mark.parametrize("seed", SEEDS)
def test_fast_correct_matches_reference_at_mode_boundaries(seed):
    """m = k + 2d + 1 (guaranteed) vs m = k + 2d (best-effort only): the
    fast path must agree with the scan exactly at the threshold where the
    acceptance rule changes shape."""
    rng = RandomSource(seed, "ec-prop/boundary")
    k = rng.randint(2, 5)
    codec = PageCodec(k, 4, page_size=rng.randint(max(k, 64), 512))
    code = codec.code
    page = _random_page(rng, codec.page_size)
    splits = codec.encode(page)

    for m in (k + 2, k + 3):  # d=1: best-effort-only vs guaranteed
        chosen = rng.sample(range(code.n), m)
        received = {i: splits[i].copy() for i in chosen}
        victim = rng.choice(chosen)
        received[victim] = _corrupt(rng, received[victim])
        for best_effort in (False, True):
            fast = _call_correct(code.correct, dict(received), 1, best_effort)
            ref = _call_correct(
                code.correct_reference, dict(received), 1, best_effort
            )
            assert fast == ref
            if m == k + 3 or best_effort:
                assert fast[0] == "ok"
                assert fast[1] == code.decode(
                    {i: splits[i] for i in chosen if i != victim}
                ).tobytes()
                assert fast[2] == [victim]


@pytest.mark.parametrize("seed", SEEDS)
def test_correct_batch_matches_per_page(seed):
    rng = RandomSource(seed, "ec-prop/correct-batch")
    k = rng.randint(2, 6)
    r = rng.randint(2, 4)
    codec = PageCodec(k, r, page_size=rng.randint(256, 1024))
    pages = [_random_page(rng, codec.page_size) for _ in range(6)]
    encoded = [codec.encode(page) for page in pages]
    indices = sorted(rng.sample(range(codec.n), k + 2))
    stack = np.stack([
        np.stack([s[i] for i in indices]) for s in encoded
    ])
    dirty = rng.sample(range(len(pages)), 2)
    for page_index in dirty:
        row = rng.randint(0, len(indices) - 1)
        stack[page_index, row] = _corrupt(rng, stack[page_index, row])

    got_pages, got_bad = codec.correct_batch(
        indices, stack, max_errors=1, best_effort=True
    )
    for page_index in range(len(pages)):
        received = {
            index: stack[page_index, row]
            for row, index in enumerate(indices)
        }
        want_page, want_bad = codec.correct(
            received, max_errors=1, best_effort=True
        )
        assert got_pages[page_index] == want_page == pages[page_index]
        assert got_bad[page_index] == want_bad
        assert (page_index in dirty) == bool(want_bad)


def test_correct_batch_does_not_mutate_input_stack():
    codec = PageCodec(4, 3, page_size=256)
    pages = [bytes(range(256)) for _ in range(3)]
    encoded = [codec.encode(page) for page in pages]
    indices = list(range(codec.n))
    stack = np.stack([np.stack([s[i] for i in indices]) for s in encoded])
    stack[1, 2, :8] ^= 0x5A
    snapshot = stack.copy()
    got_pages, got_bad = codec.correct_batch(
        indices, stack, max_errors=1, best_effort=True
    )
    assert np.array_equal(stack, snapshot)
    assert got_pages[1] == pages[1]
    assert got_bad == [[], [2], []]


class TestCorrectErrorClassification:
    """``correct`` failures are differentiated and carry suspects."""

    def test_ambiguous_candidates(self):
        # k=2, r=1, all three splits, one corruption: every 2-subset
        # decodes to a distinct codeword agreeing with exactly 2 of 3
        # splits — a tie the decoder must refuse to break.
        codec = PageCodec(2, 1, page_size=64)
        page = bytes(range(64))
        splits = codec.encode(page)
        received = {i: splits[i].copy() for i in range(3)}
        received[1][0] ^= 0xFF
        with pytest.raises(DecodeError, match="ambiguous correction"):
            codec.correct(received, max_errors=1, best_effort=True)
        try:
            codec.correct(received, max_errors=1, best_effort=True)
        except DecodeError as exc:
            assert exc.suspect_indices == [0, 1, 2]

    def test_more_errors_than_correctable(self):
        # Guaranteed mode with two corruptions but max_errors=1: no
        # candidate reaches the majority threshold.
        codec = PageCodec(3, 3, page_size=96)
        page = bytes(range(96))
        splits = codec.encode(page)
        received = {i: splits[i].copy() for i in range(6)}  # m = k + 3
        received[0][0] ^= 0x01
        received[4][0] ^= 0x02
        with pytest.raises(DecodeError, match="more than 1 corrupted"):
            codec.correct(received, max_errors=1)
        try:
            codec.correct(received, max_errors=1)
        except DecodeError as exc:
            assert exc.suspect_indices == []

    def test_too_few_splits_precondition(self):
        codec = PageCodec(4, 2, page_size=64)
        splits = codec.encode(bytes(64))
        received = {i: splits[i] for i in range(5)}  # m=5 < k+2d+1=7
        with pytest.raises(DecodeError, match="needs 7 splits, got 5"):
            codec.correct(received, max_errors=1)
        received_k = {i: splits[i] for i in range(4)}  # m=4 < k+1
        with pytest.raises(DecodeError, match="localization needs at least"):
            codec.correct(received_k, max_errors=1, best_effort=True)


@pytest.mark.parametrize("seed", SEEDS)
def test_batch_byte_identity_random_shapes(seed):
    """Slab-wide kernels are byte-identical to per-page calls across
    random ``(k, r, page_size, n_pages, erasure pattern, corruption)``
    draws. Seeds 0 and 1 pin the empty-batch and single-page edges; the
    rest draw ``n_pages`` freely.
    """
    rng = RandomSource(seed, "ec-prop/batch-identity")
    codec = _draw_codec(rng, k_max=8)
    n_pages = 0 if seed == 0 else 1 if seed == 1 else rng.randint(2, 12)
    pages = [_random_page(rng, codec.page_size) for _ in range(n_pages)]

    batch = codec.encode_batch(pages)
    assert batch.shape == (n_pages, codec.n, codec.split_size)
    singles = [codec.encode(page) for page in pages]
    for got, want in zip(batch, singles):
        assert np.array_equal(got, want)

    # Random erasure pattern: any k of the n split positions survive.
    indices = sorted(rng.sample(range(codec.n), codec.k))
    if n_pages:
        stack = np.stack([np.stack([s[i] for i in indices]) for s in singles])
    else:
        stack = np.empty((0, codec.k, codec.split_size), dtype=np.uint8)
    decoded = codec.decode_batch(indices, stack)
    per_page = [codec.decode({i: s[i] for i in indices}) for s in singles]
    assert decoded == per_page == pages

    # Random corruption through correct_batch whenever the draw leaves
    # enough redundancy for best-effort localization (m = k + 2).
    if codec.r >= 2 and n_pages:
        wide = sorted(rng.sample(range(codec.n), codec.k + 2))
        wstack = np.stack([np.stack([s[i] for i in wide]) for s in singles])
        dirty = rng.sample(range(n_pages), rng.randint(0, min(2, n_pages)))
        for page_index in dirty:
            row = rng.randint(0, len(wide) - 1)
            wstack[page_index, row] = _corrupt(rng, wstack[page_index, row])
        got_pages, got_bad = codec.correct_batch(
            wide, wstack, max_errors=1, best_effort=True
        )
        for page_index in range(n_pages):
            received = {
                index: wstack[page_index, row]
                for row, index in enumerate(wide)
            }
            want_page, want_bad = codec.correct(
                received, max_errors=1, best_effort=True
            )
            assert got_pages[page_index] == want_page == pages[page_index]
            assert got_bad[page_index] == want_bad
