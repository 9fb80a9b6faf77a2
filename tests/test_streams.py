"""Deterministic stream addressing: the reproducibility backbone.

The one property everything else leans on: the uniforms owned by path ``i``
are a pure function of ``(seed, stream, i)``, so any partition of paths
into blocks reproduces the same numbers bit for bit.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stablemix import streams
from stablemix.errors import InvalidInputError


class TestUniformBlock:
    def test_deterministic(self):
        a = streams.uniform_block(7, streams.STREAM_SERIES, 0, 100, 13)
        b = streams.uniform_block(7, streams.STREAM_SERIES, 0, 100, 13)
        assert np.array_equal(a, b)
        assert a.shape == (100, 13)
        assert (a >= 0).all() and (a < 1).all()

    def test_sharding_bitwise(self):
        # Any block partition reads the same numbers as one whole draw.
        whole = streams.uniform_block(42, streams.STREAM_PROCESS, 0, 1000, 7)
        for cuts in ([0, 1000], [0, 1, 1000], [0, 333, 334, 999, 1000]):
            parts = [
                streams.uniform_block(
                    42, streams.STREAM_PROCESS, a, b - a, 7
                )
                for a, b in zip(cuts, cuts[1:])
                if b > a
            ]
            assert np.array_equal(np.concatenate(parts), whole)

    def test_interior_block_matches_whole(self):
        whole = streams.uniform_block(3, streams.STREAM_LAW, 0, 500, 5)
        mid = streams.uniform_block(3, streams.STREAM_LAW, 123, 77, 5)
        assert np.array_equal(mid, whole[123 : 123 + 77])

    def test_streams_independent(self):
        a = streams.uniform_block(7, streams.STREAM_PROCESS, 0, 10, 8)
        b = streams.uniform_block(7, streams.STREAM_SERIES, 0, 10, 8)
        c = streams.uniform_block(8, streams.STREAM_PROCESS, 0, 10, 8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rejects_bad_args(self):
        with pytest.raises(InvalidInputError):
            streams.uniform_block(-1, 0, 0, 1, 1)
        with pytest.raises(InvalidInputError):
            streams.uniform_block(0, 0, -1, 1, 1)
        with pytest.raises(InvalidInputError):
            streams.uniform_block(0, 0, 0, 1, 0)


class TestJumpAhead:
    """Path ``i`` starts ``i * per_path`` words into its stream, so every
    row width, start and cut addresses the same numbers."""

    @settings(max_examples=40, deadline=None)
    @given(
        per_path=st.integers(1, 300),
        cuts=st.lists(st.integers(0, 60), max_size=6),
        seed=st.integers(0, 2**64 - 1),
        stream=st.sampled_from(
            [streams.STREAM_PROCESS, streams.STREAM_SERIES, streams.STREAM_LEMMA,
             streams.STREAM_LAW]
        ),
    )
    @example(per_path=201, cuts=[1, 2, 59], seed=0, stream=streams.STREAM_LEMMA)
    def test_any_cuts_concatenate_to_whole(self, per_path, cuts, seed, stream):
        whole = streams.uniform_block(seed, stream, 0, 60, per_path)
        assert whole.shape == (60, per_path)
        bounds = sorted({0, 60, *cuts})
        parts = [
            streams.uniform_block(seed, stream, a, b - a, per_path)
            for a, b in zip(bounds, bounds[1:])
        ]
        assert np.array_equal(np.concatenate(parts), whole)

    @pytest.mark.parametrize("chunk", [streams.CHUNK_PATHS, 7])
    def test_wide_block_in_chunks(self, chunk):
        whole = streams.uniform_block(11, streams.STREAM_LEMMA, 0, 10_001, 201)
        parts = [
            streams.uniform_block(11, streams.STREAM_LEMMA, a, c, 201)
            for a, c in streams.chunk_starts(10_001, chunk)
        ]
        assert np.array_equal(np.concatenate(parts), whole)

    def test_far_offset(self):
        start = 2**40
        block = streams.uniform_block(5, streams.STREAM_PROCESS, start, 3, 13)
        tail = streams.uniform_block(5, streams.STREAM_PROCESS, start + 1, 2, 13)
        assert np.array_equal(block[1:], tail)

    def test_largest_seed(self):
        top = streams.uniform_block(2**64 - 1, streams.STREAM_SERIES, 0, 4, 3)
        assert top.shape == (4, 3) and (top >= 0).all() and (top < 1).all()
        below = streams.uniform_block(2**64 - 2, streams.STREAM_SERIES, 0, 4, 3)
        assert not np.array_equal(top, below)
        with pytest.raises(InvalidInputError):
            streams.uniform_block(2**64, streams.STREAM_SERIES, 0, 4, 3)


class TestChunkGrid:
    def test_covers_and_is_disjoint(self):
        grid = streams.chunk_starts(10000)
        assert grid[0] == (0, streams.CHUNK_PATHS)
        assert sum(c for _, c in grid) == 10000
        ends = [a + c for a, c in grid]
        assert ends[:-1] == [a for a, _ in grid[1:]]

    def test_small_and_empty(self):
        assert streams.chunk_starts(5) == [(0, 5)]
        assert streams.chunk_starts(0) == []


class TestMapChunks:
    def test_worker_invariance_bitwise(self):
        def fn(start, count):
            u = streams.uniform_block(5, streams.STREAM_SERIES, start, count, 3)
            return u.sum(axis=0)

        one = streams.map_chunks(fn, 20000, workers=1)
        eight = streams.map_chunks(fn, 20000, workers=8)
        assert len(one) == len(eight)
        for a, b in zip(one, eight):
            assert np.array_equal(a, b)

    def test_rejects_zero_workers(self):
        with pytest.raises(InvalidInputError):
            streams.map_chunks(lambda a, c: None, 10, workers=0)


class TestKahanFold:
    def test_recovers_lost_low_bits(self):
        # A naive left fold rounds every tiny addend away (1 + 1e-16 == 1);
        # the compensated fold carries them in the correction term.
        parts = [np.array([1.0])] + [np.array([1e-16])] * 10000
        naive = parts[0].copy()
        for p in parts[1:]:
            naive = naive + p
        assert naive[0] == 1.0
        assert streams.kahan_fold(parts)[0] == pytest.approx(1.0 + 1e-12, rel=1e-14)

    def test_complex_parts(self):
        parts = [np.array([1 + 1j]), np.array([2 - 0.5j])]
        assert streams.kahan_fold(parts)[0] == 3 + 0.5j

    def test_single_part_identity(self):
        x = np.array([1.5, 2.5])
        assert np.array_equal(streams.kahan_fold([x]), x)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            streams.kahan_fold([])
