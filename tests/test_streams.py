"""Deterministic stream addressing: the reproducibility backbone.

The one property everything else leans on: the uniforms owned by path ``i``
are a pure function of ``(seed, stream, i)``, so any partition of paths
into blocks reproduces the same numbers bit for bit.
"""

import numpy as np
import pytest

from stablemix import streams
from stablemix.errors import InvalidInputError


class TestPaddedWidth:
    def test_rounds_to_draw_granularity(self):
        assert streams.padded_width(1) == 4
        assert streams.padded_width(4) == 4
        assert streams.padded_width(5) == 8
        assert streams.padded_width(8) == 8


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
