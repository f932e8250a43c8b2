"""Vectorized multi-page RS operations vs the scalar codec (oracle)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec import (
    DecodeError,
    ReedSolomonCode,
    encode_pages,
    rebuild_position,
)


def _random_pages(code, n_pages, split_size, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(
        0, 256, (n_pages, code.k, split_size), dtype=np.uint8
    )


class TestEncodePages:
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=25)
    def test_matches_per_page_encode(self, k, r, n_pages, seed):
        code = ReedSolomonCode(k, r)
        stack = _random_pages(code, n_pages, split_size=16, seed=seed)
        batched = encode_pages(code, stack)
        assert batched.shape == (n_pages, k + r, 16)
        for page_index in range(n_pages):
            expected = code.encode_page(stack[page_index])
            assert np.array_equal(batched[page_index], expected)

    def test_shape_validation(self):
        code = ReedSolomonCode(4, 2)
        with pytest.raises(DecodeError):
            encode_pages(code, np.zeros((3, 3, 8), dtype=np.uint8))


class TestRebuildTransform:
    def test_systematic_rows_give_selector(self):
        code = ReedSolomonCode(4, 2)
        transform = code.rebuild_row([0, 1, 2, 3], 2)
        expected = np.zeros((1, 4), dtype=np.uint8)
        expected[0, 2] = 1
        assert np.array_equal(transform, expected)

    def test_wrong_source_count_rejected(self):
        code = ReedSolomonCode(4, 2)
        with pytest.raises(DecodeError):
            code.rebuild_row([0, 1, 2], 5)

    def test_target_out_of_range(self):
        code = ReedSolomonCode(4, 2)
        with pytest.raises(DecodeError):
            code.rebuild_row([0, 1, 2, 3], 6)


class TestRebuildPosition:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20)
    def test_rebuilds_exactly_what_the_codec_would(self, seed):
        code = ReedSolomonCode(4, 2)
        split_size = 16
        stack = _random_pages(code, 6, split_size, seed=seed)
        full = encode_pages(code, stack)
        target = 1
        # Sources: every position except the target (like a live regen).
        sources = {
            position: {page: full[page, position] for page in range(6)}
            for position in range(code.n)
            if position != target
        }
        rebuilt = rebuild_position(code, sources, target, split_size)
        for page in range(6):
            assert np.array_equal(rebuilt[page], full[page, target])

    @pytest.mark.parametrize("seed", range(6))
    def test_gapped_snapshots_match_the_per_page_codec(self, ec_backend, seed):
        """Snapshots with holes: a page may be absent at a position, held
        mis-sized or as a non-array, or held well-formed but wrong (so
        *which* k holders are used shows in the bytes). Every page must
        come out exactly as decode + reencode over its lowest k
        well-formed positions would build it, or not at all."""
        rng = np.random.default_rng(seed)
        code = ReedSolomonCode(4, 2)
        assert type(code.kernel).__name__ == (
            "NumpyGF" if ec_backend == "numpy" else "NativeGF"
        )
        split_size = 16
        page_ids = [1000 + 7 * page for page in range(40)]
        full = encode_pages(code, _random_pages(code, len(page_ids), split_size, seed))
        target = int(rng.integers(code.n))
        # Snapshot order is arrival order, not position order.
        sources = {int(p): {} for p in rng.permutation(code.n) if p != target}
        for row, page_id in enumerate(page_ids):
            for position, snapshot in sources.items():
                roll = rng.random()
                if roll < 0.2:
                    continue
                if roll < 0.27:
                    snapshot[page_id] = full[row, position][: split_size - 3].copy()
                elif roll < 0.34:
                    snapshot[page_id] = bytes(split_size) if roll < 0.3 else None
                elif roll < 0.41:
                    snapshot[page_id] = rng.integers(0, 256, split_size, dtype=np.uint8)
                else:
                    snapshot[page_id] = full[row, position]

        def holders(page_id):
            return sorted(
                position
                for position, snapshot in sources.items()
                if isinstance(snapshot.get(page_id), np.ndarray)
                and len(snapshot[page_id]) == split_size
            )[: code.k]

        rebuilt = rebuild_position(code, sources, target, split_size)
        # Result order: the page ids as a set iterates them, grouped by
        # holder tuple (a rebuilt slab's page order feeds seeded injection).
        universe = set()
        for snapshot in sources.values():
            universe.update(snapshot)
        groups = {}
        for page_id in universe:
            if len(holders(page_id)) == code.k:
                groups.setdefault(tuple(holders(page_id)), []).append(page_id)
        assert list(rebuilt) == [page_id for group in groups.values() for page_id in group]
        assert len(groups) > 1 and 0 < len(rebuilt) < len(page_ids)
        for page_id in rebuilt:
            data = code.decode({p: sources[p][page_id] for p in holders(page_id)})
            expected = code.reencode_split(data, target)
            assert rebuilt[page_id].tobytes() == expected.tobytes()

    def test_pages_with_too_few_sources_skipped(self):
        code = ReedSolomonCode(4, 2)
        split_size = 8
        stack = _random_pages(code, 2, split_size, seed=3)
        full = encode_pages(code, stack)
        sources = {
            position: {0: full[0, position]} for position in range(4)
        }
        # Page 1 exists at only 3 positions: unrecoverable.
        for position in range(3):
            sources[position][1] = full[1, position]
        rebuilt = rebuild_position(code, sources, 5, split_size)
        assert 0 in rebuilt and 1 not in rebuilt

    def test_mixed_source_sets_grouped_correctly(self):
        """Pages available at different position subsets still rebuild."""
        code = ReedSolomonCode(3, 2)
        split_size = 8
        stack = _random_pages(code, 4, split_size, seed=4)
        full = encode_pages(code, stack)
        sources = {position: {} for position in range(code.n) if position != 0}
        # Page 0: positions 1,2,3; page 1: positions 2,3,4; page 2: all.
        for page, positions in ((0, (1, 2, 3)), (1, (2, 3, 4)), (2, (1, 2, 3, 4))):
            for position in positions:
                sources[position][page] = full[page, position]
        rebuilt = rebuild_position(code, sources, 0, split_size)
        for page in (0, 1, 2):
            assert np.array_equal(rebuilt[page], full[page, 0])
