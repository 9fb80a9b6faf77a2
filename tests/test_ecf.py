"""Empirical characteristic function estimates and grids."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablemix import ecf, laws, streams
from stablemix.errors import GridMismatchError, InvalidInputError

# sqrt(2 ln(2 / 1e-3) / 1e5), frozen.
RADIUS_1E5 = 0.012329559975556372

# max_t |exp(-t^2/2) - exp(-t^2)| over {0, +-0.5, +-1, +-2}; attained at |t| = 1
# where it equals exp(-1/2) - exp(-1).
ANALYTIC_GAP_N1_N2 = 0.2386512185411911


class TestRadius:
    def test_frozen_value(self):
        assert ecf.hoeffding_radius(100_000, 1e-3) == pytest.approx(
            RADIUS_1E5, rel=1e-15
        )

    def test_formula(self):
        assert ecf.hoeffding_radius(400, 0.05) == pytest.approx(
            np.sqrt(2.0 * np.log(40.0) / 400.0), rel=1e-15
        )

    def test_shrinks_like_root_n(self):
        r1 = ecf.hoeffding_radius(1000)
        r4 = ecf.hoeffding_radius(4000)
        assert r1 / r4 == pytest.approx(2.0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            ecf.hoeffding_radius(0)
        with pytest.raises(InvalidInputError):
            ecf.hoeffding_radius(100, delta=0.0)
        with pytest.raises(InvalidInputError):
            ecf.hoeffding_radius(100, delta=1.0)


class TestThetaGrid:
    def test_requires_zero_row(self):
        with pytest.raises(InvalidInputError):
            ecf.ThetaGrid(np.array([[1.0, 0.0]]))
        grid = ecf.ThetaGrid(np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert len(grid) == 2 and grid.dim == 2

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            ecf.ThetaGrid(np.array([[0.0], [np.inf]]))


class TestDefaultGrid:
    def test_sizes(self):
        # One dimension collapses all directions to +-1: zero plus 6 values.
        assert len(ecf.default_grid(1)) == 7
        assert len(ecf.default_grid(2)) == 61
        assert len(ecf.default_grid(5)) == 61

    def test_one_dim_values(self):
        pts = sorted(ecf.default_grid(1).points[:, 0])
        assert pts == [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]

    def test_deterministic(self):
        assert np.array_equal(
            ecf.default_grid(4).points, ecf.default_grid(4).points
        )

    def test_zero_first_and_antipodal(self):
        grid = ecf.default_grid(3)
        pts = grid.points
        assert np.array_equal(pts[0], np.zeros(3))
        rows = {tuple(p) for p in pts}
        for p in pts:
            assert tuple(-p) in rows

    def test_unit_directions(self):
        # DEFAULT_DIRECTIONS unit directions at each of the DEFAULT_RADII.
        norms = np.linalg.norm(ecf.default_grid(2).points[1:], axis=1)
        want = np.repeat(ecf.DEFAULT_RADII, ecf.DEFAULT_DIRECTIONS)
        assert np.allclose(np.sort(norms), want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_rows_are_np_unique_of_the_directions(self, dim):
        # Oracle: the directions rebuilt from the documented rule and
        # deduplicated by np.unique(axis=0), zero row first.
        rng = np.random.Generator(np.random.Philox(key=[ecf._DIRECTION_KEY, dim]))
        half = rng.standard_normal((ecf.DEFAULT_DIRECTIONS // 2, dim))
        half /= np.linalg.norm(half, axis=1, keepdims=True)
        dirs = np.vstack([half, -half])
        radii = np.asarray(ecf.DEFAULT_RADII)[:, None, None]
        pts = np.unique((dirs[None] * radii).reshape(-1, dim), axis=0)
        want = np.vstack([np.zeros((1, dim)), pts])
        got = ecf.default_grid(dim).points
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            ecf.default_grid(0)


class TestEstimate:
    def test_value_at_zero_is_exactly_one(self):
        rng = np.random.default_rng(0)
        est = ecf.estimate_ecf(rng.standard_normal((4097, 2)), ecf.default_grid(2))
        assert est.values[0] == 1.0 + 0.0j

    def test_conjugate_symmetry_bitwise(self):
        grid = ecf.default_grid(2)
        rng = np.random.default_rng(1)
        est = ecf.estimate_ecf(rng.standard_normal((5000, 2)), grid)
        index = {tuple(p): i for i, p in enumerate(grid.points)}
        for i, p in enumerate(grid.points):
            j = index[tuple(-p)]
            assert est.values[j] == np.conj(est.values[i])

    def test_modulus_at_most_one(self):
        rng = np.random.default_rng(2)
        est = ecf.estimate_ecf(rng.standard_normal((3000, 3)), ecf.default_grid(3))
        assert np.abs(est.values).max() <= 1.0 + 1e-12

    def test_worker_invariance_bitwise(self):
        rng = np.random.default_rng(3)
        vals = rng.standard_normal((20_000, 2))
        grid = ecf.default_grid(2)
        a = ecf.estimate_ecf(vals, grid, workers=1)
        b = ecf.estimate_ecf(vals, grid, workers=8)
        assert np.array_equal(a.values, b.values)

    def test_chunk_trace(self):
        rng = np.random.default_rng(4)
        vals = rng.standard_normal((10_000, 1))
        grid = ecf.default_grid(1)
        total, parts = ecf.chunked_phase_sums(vals, grid)
        assert len(parts) == -(-10_000 // streams.CHUNK_PATHS)
        assert np.array_equal(total, streams.kahan_fold(parts))

    def test_validation(self):
        grid = ecf.default_grid(2)
        with pytest.raises(InvalidInputError):
            ecf.estimate_ecf(np.zeros((0, 2)), grid)
        with pytest.raises(InvalidInputError):
            ecf.estimate_ecf(np.array([[np.nan, 0.0]]), grid)
        with pytest.raises(InvalidInputError):
            ecf.estimate_ecf(np.zeros((10, 3)), grid)


class TestDistances:
    def test_analytic_gap_frozen(self):
        grid = ecf.default_grid(1)
        t = grid.points[:, 0]
        narrow = np.exp(-0.5 * t**2)
        wide = np.exp(-(t**2))
        assert np.abs(narrow - wide).max() == pytest.approx(
            ANALYTIC_GAP_N1_N2, rel=1e-12
        )

    def test_empirical_detects_gap(self):
        # Samples from N(0,1) must sit near their own cf and far from the
        # variance-2 cf, by the frozen analytic margin.
        grid = ecf.default_grid(1)
        t = grid.points[:, 0]
        rng = np.random.default_rng(6)
        est = ecf.estimate_ecf(rng.standard_normal((100_000, 1)), grid)
        d_own = ecf.sup_distance(est, np.exp(-0.5 * t**2) + 0j)
        d_other = ecf.sup_distance(est, np.exp(-(t**2)) + 0j)
        assert d_own <= 3.0 * RADIUS_1E5
        assert d_other >= ANALYTIC_GAP_N1_N2 - 3.0 * RADIUS_1E5

    def test_two_sample_same_law(self):
        law = laws.CauchyLaw(2)
        grid = ecf.default_grid(2)
        upd = law.uniforms_per_draw
        # Two independent samples: the same rows of two disjoint streams.
        a, b = (
            ecf.estimate_ecf(
                law.from_uniforms(streams.uniform_block(7, stream, 0, 100_000, upd)),
                grid,
            )
            for stream in (streams.STREAM_LAW, streams.STREAM_SERIES)
        )
        combined = a.radius + b.radius
        assert ecf.sup_distance(a, b.values) < combined
        assert combined == pytest.approx(2 * RADIUS_1E5, rel=1e-12)

    def test_grid_mismatch(self):
        rng = np.random.default_rng(8)
        a = ecf.estimate_ecf(rng.standard_normal((100, 2)), ecf.default_grid(2))
        with pytest.raises(GridMismatchError):
            ecf.sup_distance(a, np.ones(5))


class TestCsv:
    def test_layout(self, tmp_path):
        rng = np.random.default_rng(10)
        est = ecf.estimate_ecf(rng.standard_normal((200, 2)), ecf.default_grid(2))
        out = tmp_path / "ecf.csv"
        ecf.write_ecf_csv(out, est)
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["theta_0", "theta_1", "re", "im", "n_samples", "radius"]
        assert len(rows) == 62
        assert float(rows[1][2]) == 1.0 and float(rows[1][3]) == 0.0
        assert int(rows[1][4]) == 200


def _phase_blocks(grid):
    """The grid rows the phases are evaluated at, block by block: on the
    half route the evaluated and the mirrored half-grids, two blocks of
    equal width, then the zero rows; on the full route every row."""
    return [cols for cols in grid._phase_plan if len(cols)]


def _block_phases(rows, grid, cols):
    """``cos`` and ``sin`` of ``<theta, row>`` at the grid rows ``cols``
    through the phase map of the module docstring,
    ``laws._cos_sin(tan(<theta, x> / 2))``; ``test_laws.TestCosSin`` checks
    the map against ``exp(i x)``."""
    t = np.tan(rows @ (0.5 * grid.points[cols].T))
    cos, sin = np.empty(t.shape), np.empty(t.shape)
    laws._cos_sin(t, cos, sin)
    return cos, sin


def oracle_phase_sums(values, inds, grid, workers=1):
    """The event-wise sums by the documented route, every grid row evaluated
    directly: the mirrored half-grid and the zero rows too, where the kernel
    conjugates and counts.  Per chunk, an event holding every row of the
    chunk sums in row order and any other event through its indicator
    product; then the package's chunk grid and fold."""

    def chunk(start, count):
        rows = values[start : start + count]
        block = inds[:, start : start + count]
        full = block.all(axis=1)
        out = np.empty((len(block), len(grid)), dtype=complex)
        for cols in _phase_blocks(grid):
            phases = _block_phases(rows, grid, cols)
            for part, phase in zip((out.real, out.imag), phases):
                sums = np.empty((len(block), len(cols)))
                sums[full] = phase.sum(axis=0)
                sums[~full] = block[~full].astype(float) @ phase
                part[:, cols] = sums
        return out, block.sum(axis=1, dtype=np.int64)

    parts = streams.map_chunks(chunk, values.shape[0], workers)
    return streams.kahan_fold([p[0] for p in parts]), np.sum(
        [p[1] for p in parts], axis=0
    )


def fsum_phase_sums(values, inds, grid):
    """``(sums, abs_sums)``: each event's sum over its rows of the phases
    that :func:`oracle_phase_sums` adds, and of their moduli, both through
    ``math.fsum``, so correctly rounded."""
    phases = np.empty((2, values.shape[0], len(grid)))
    for start, count in streams.chunk_starts(values.shape[0]):
        rows = values[start : start + count]
        for cols in _phase_blocks(grid):
            for k, phase in enumerate(_block_phases(rows, grid, cols)):
                phases[k][start : start + count, cols] = phase
    sums = np.empty((len(inds), len(grid)), dtype=complex)
    abs_sums = np.empty((2, len(inds), len(grid)))
    for e, ind in enumerate(inds):
        for j in range(len(grid)):
            re, im = phases[0, ind, j], phases[1, ind, j]
            sums[e, j] = complex(math.fsum(re), math.fsum(im))
            abs_sums[:, e, j] = math.fsum(np.abs(re)), math.fsum(np.abs(im))
    return sums, abs_sums


def _bits(arr):
    return np.ascontiguousarray(arr).view(np.uint64)


_D2 = ecf.default_grid(2).points
GRIDS = {
    "default-1": ecf.default_grid(1),
    "default-2": ecf.default_grid(2),
    "default-3": ecf.default_grid(3),
    # Symmetric with two zero rows, the second one signed.
    "zeros-symmetric": ecf.ThetaGrid(np.vstack([_D2[:1], _D2[1:], [[-0.0, 0.0]]])),
    "asymmetric": ecf.ThetaGrid(
        np.array([[0.0, 0.0], [1.0, 0.5], [-1.0, -0.5], [0.3, -2.0]])
    ),
    "repeated-rows": ecf.ThetaGrid(
        np.vstack([np.zeros((2, 2)), _D2[1:], _D2[5:6]])
    ),
}
HALF_ROUTE = {"default-1", "default-2", "default-3", "zeros-symmetric"}


def _samples(seed, n, dim, kind):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((n, dim))
    if kind == "negative":
        vals = -np.abs(vals)
    elif kind == "wide":
        vals *= 1e3
    elif kind == "zero-rows":
        vals[::3] = 0.0
    return vals


def _events(seed, n):
    rng = np.random.default_rng(seed + 1)
    return np.stack([
        np.ones(n, dtype=bool),
        rng.random(n) < 0.5,
        np.zeros(n, dtype=bool),
        rng.random(n) < 0.01,
        np.arange(n) >= n - 1,
    ])


class TestPhaseSums:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([4095, 4096, 4097, 8193]),
        grid_name=st.sampled_from(sorted(GRIDS)),
        kind=st.sampled_from(["normal", "negative", "wide", "zero-rows"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_full_grid_oracle_bitwise(self, n, grid_name, kind, seed):
        grid = GRIDS[grid_name]
        vals = _samples(seed, n, grid.dim, kind)
        inds = _events(seed, n)
        want_sums, want_counts = oracle_phase_sums(vals, inds, grid)
        sums, counts = ecf.phase_sums(vals, inds, grid)
        assert np.array_equal(_bits(sums), _bits(want_sums))
        assert np.array_equal(counts, want_counts)
        total, parts = ecf.chunked_phase_sums(vals, grid)
        assert np.array_equal(_bits(total), _bits(want_sums[0]))
        assert len(parts) == len(streams.chunk_starts(n))

    @settings(max_examples=10, deadline=None)
    @given(
        n=st.sampled_from([4097, 8193]),
        grid_name=st.sampled_from(sorted(GRIDS)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_worker_invariance_bitwise(self, n, grid_name, seed):
        grid = GRIDS[grid_name]
        vals = _samples(seed, n, grid.dim, "normal")
        inds = _events(seed, n)
        one = ecf.phase_sums(vals, inds, grid, workers=1)
        two = ecf.phase_sums(vals, inds, grid, workers=2)
        assert np.array_equal(_bits(one[0]), _bits(two[0]))
        assert np.array_equal(one[1], two[1])

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n", [4097, 8193])
    @pytest.mark.parametrize("grid_name", sorted(GRIDS))
    def test_short_last_chunk_in_reused_scratch_bitwise(self, grid_name, n, workers):
        # Each worker reuses one full-chunk scratch block across the chunks
        # of a call, so the one-row last chunk sits in the front of a block
        # that still holds an earlier chunk's values; the sums must be the
        # oracle's bits all the same.
        grid = GRIDS[grid_name]
        vals = _samples(21, n, grid.dim, "wide")
        inds = _events(21, n)
        want_sums, want_counts = oracle_phase_sums(vals, inds, grid)
        sums, counts = ecf.phase_sums(vals, inds, grid, workers=workers)
        assert np.array_equal(_bits(sums), _bits(want_sums))
        assert np.array_equal(counts, want_counts)
        total, _ = ecf.chunked_phase_sums(vals, grid, workers=workers)
        assert np.array_equal(_bits(total), _bits(want_sums[0]))

    @pytest.mark.parametrize("kind", ["normal", "negative"])
    @pytest.mark.parametrize("grid_name", sorted(GRIDS))
    def test_zero_column_is_count(self, grid_name, kind):
        grid = GRIDS[grid_name]
        vals = _samples(5, 4097, grid.dim, kind)
        inds = _events(5, 4097)
        sums, counts = ecf.phase_sums(vals, inds, grid)
        zero_rows = np.flatnonzero(~grid.points.any(axis=1))
        for row in zero_rows:
            want = counts.astype(float) + 0j
            assert np.array_equal(_bits(sums[:, row]), _bits(want))

    @pytest.mark.parametrize("grid_name", sorted(GRIDS))
    def test_route_follows_grid_symmetry(self, grid_name):
        grid = GRIDS[grid_name]
        evaluated, mirrored, zeros = grid._phase_plan
        n_zero = int((~grid.points.any(axis=1)).sum())
        if grid_name in HALF_ROUTE:
            assert len(evaluated) == len(mirrored) == (len(grid) - n_zero) // 2
            assert np.array_equal(grid.points[mirrored], -grid.points[evaluated])
            assert len(zeros) == n_zero
        else:
            assert np.array_equal(evaluated, np.arange(len(grid)))
            assert len(mirrored) == len(zeros) == 0

    @pytest.mark.parametrize("grid_name", sorted(GRIDS))
    def test_within_derived_bound_of_fsum(self, grid_name):
        """Each part of each sum lies within ``(C + 2) u sum |x|`` of its
        correctly rounded value, with ``C = CHUNK_PATHS`` and ``u = 2^-53``.

        A chunk sums at most ``C`` addends, each exact (the indicator
        product multiplies by 0 or 1), in some order: its error is at most
        ``gamma_{C-1} sum |x|`` over the chunk, ``gamma_k = k u / (1 - k u)``
        (Higham, *Accuracy and Stability of Numerical Algorithms*, 2002,
        §4.2).  The compensated fold of the chunk sums adds at most
        ``(2u + O(K u^2)) sum |s_k|`` (ibid., §4.3).  Both together stay
        under ``(C + 2) u sum |x|`` at any chunk count this test reaches.
        The mirrored and zero columns are checked as well: the kernel
        conjugates and counts where this sums directly."""
        grid = GRIDS[grid_name]
        n = 2 * streams.CHUNK_PATHS + 1
        bound = (streams.CHUNK_PATHS + 2) * 2.0**-53
        for kind in ("normal", "wide", "zero-rows"):
            vals = _samples(13, n, grid.dim, kind)
            inds = _events(13, n)
            sums, _ = ecf.phase_sums(vals, inds, grid)
            want, scale = fsum_phase_sums(vals, inds, grid)
            assert (np.abs(sums.real - want.real) <= bound * scale[0]).all()
            assert (np.abs(sums.imag - want.imag) <= bound * scale[1]).all()

    def test_one_event_default(self):
        vals = _samples(9, 5000, 2, "normal")
        grid = GRIDS["default-2"]
        sums, counts = ecf.phase_sums(vals, None, grid)
        full = ecf.phase_sums(vals, np.ones((1, 5000), dtype=bool), grid)
        assert np.array_equal(_bits(sums), _bits(full[0]))
        assert counts.tolist() == [5000]

    def test_validation(self):
        grid = GRIDS["default-2"]
        with pytest.raises(InvalidInputError, match="does not match grid dim"):
            ecf.phase_sums(np.zeros((10, 3)), None, grid)
        with pytest.raises(InvalidInputError, match="non-finite"):
            ecf.phase_sums(np.array([[np.inf, 0.0]]), None, grid)
        with pytest.raises(InvalidInputError, match="event indicators"):
            ecf.phase_sums(np.zeros((10, 2)), np.ones((2, 9), dtype=bool), grid)
