"""Truncated limit series: cut selection, sampling, and term diagnostics.

The truncation indices are frozen from an exhaustive norm-tail oracle; the
heavy-tail lemma diagnostics are pinned against closed-form exceedance
probabilities for the log-Cauchy ray sampler.
"""

import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablemix import laws, matalg, series, streams
from stablemix.ecf import default_grid, estimate_ecf, sup_distance
from stablemix.errors import (
    HorizonExceededError,
    HypothesisViolationError,
    InvalidInputError,
)

JORDAN = np.array([[0.5, 10.0], [0.0, 0.5]])

# Frozen: E log+ |C| for standard Cauchy C, by scipy quadrature (equals
# (2/pi) * Catalan's constant).
CAUCHY_LOG_MOMENT = 0.5831218080616385

# Frozen: 3 * hoeffding radius at 1e5 samples, delta 1e-3.
THRESHOLD_1E5 = 0.03698867992666911


def rotation_half():
    c, s = np.cos(np.pi / 6), np.sin(np.pi / 6)
    return 0.5 * np.array([[c, -s], [s, c]])


def dense_contraction(d):
    """A dense ``d x d`` contraction: every row sums to at most 0.9 in
    absolute value."""
    return np.array([[(0.3 if i <= j else -0.3) * 0.5 ** abs(i - j)
                      for j in range(d)] for i in range(d)])


def stable_law(d):
    """The alpha = 1.5 stable law on the ``d`` coordinate axes, equally
    weighted."""
    return laws.StableLaw(1.5, laws.SpectralMeasure(np.eye(d), np.full(d, 1.0 / d)))


def lemma_oracle(P, law, J, n_paths, seed):
    """Oracle: the lemma's per-path values from one ``from_uniforms`` call on
    the whole uniform block, reduced over all paths at once."""
    powers = matalg.power_sequence(P, J)
    upd = law.uniforms_per_draw
    u = streams.uniform_block(seed, streams.STREAM_LEMMA, 0, n_paths, (J + 1) * upd)
    z = law.from_uniforms(u.reshape(n_paths, J + 1, upd))
    with np.errstate(invalid="ignore", over="ignore"):
        term_norms = matalg.row_norms(series._apply_powers(powers, z))
        z_norms = matalg.row_norms(z)
    term_norms = np.where(np.isnan(term_norms), np.inf, term_norms)
    exceed = term_norms > series.EXCEEDANCE_LEVEL
    counts = exceed.sum(axis=1).astype(np.int64)
    last = np.where(counts > 0, J - np.argmax(exceed[:, ::-1], axis=1), -1)
    return {
        "per_index_exceedance_freq": exceed.sum(axis=0, dtype=np.int64) / n_paths,
        "exceedance_count": counts,
        "last_exceedance_index": last.astype(np.int64),
        "final_partial_sum": term_norms.sum(axis=1),
        "last_term_norm": term_norms[:, J],
        "log_moment": np.mean(np.log(np.maximum(z_norms, 1.0)), axis=1),
    }


def oracle_norms(P, count):
    """Oracle: ``[|P^0|, ..., |P^count|]`` by repeated matmul and one SVD
    per power."""
    norms, M = [1.0], np.eye(len(P))
    for _ in range(count):
        M = M @ P
        norms.append(np.linalg.svd(M, compute_uv=False)[0])
    return np.array(norms)


def exhaustive_r(P, tol, H=4000):
    """Oracle: smallest r whose literal norm tail is at most tol."""
    tails = np.cumsum(oracle_norms(P, H)[::-1])[::-1]
    return int(next(r for r in range(H) if tails[r + 1] <= tol))


def recomputed_tail_bound(P, cert, r):
    """Oracle: the tail bound re-derived from a fresh norm table."""
    return matalg.tail_bound(matalg.norm_table(P, cert.horizon), cert, r)


class TestTruncationIndex:
    def test_scalar_frozen(self):
        plan = series.truncation_index(np.array([[0.5]]), 2.0**-10)
        assert plan.r == 10
        assert plan.tail_norm_bound == pytest.approx(2.0**-10, rel=1e-9)

    def test_jordan_frozen(self):
        plan = series.truncation_index(JORDAN, 1e-6)
        assert plan.r == 30

    def test_slow_diagonal_frozen(self):
        plan = series.truncation_index(np.diag([0.9, 0.1]), 1e-4)
        assert plan.r == 109

    def test_zero_matrix(self):
        plan = series.truncation_index(np.zeros((2, 2)), 1e-6)
        assert plan.r == 0

    @pytest.mark.parametrize(
        "P,tol",
        [
            (np.array([[0.5]]), 2.0**-10),
            (JORDAN, 1e-6),
            (np.diag([0.9, 0.1]), 1e-4),
        ],
    )
    def test_matches_exhaustive_oracle(self, P, tol):
        assert series.truncation_index(P, tol).r == exhaustive_r(P, tol)

    def test_tighter_tolerance_never_smaller_r(self):
        rs = [series.truncation_index(JORDAN, t).r for t in (1e-2, 1e-4, 1e-6, 1e-8)]
        assert rs == sorted(rs)

    def test_bound_actually_below_tol(self):
        plan = series.truncation_index(JORDAN, 1e-6)
        assert plan.tail_norm_bound <= 1e-6
        # And r is minimal: one step earlier the certified bound exceeds tol.
        assert recomputed_tail_bound(JORDAN, plan.certificate, plan.r - 1) > 1e-6

    def test_slow_jordan_block_grows_its_horizon(self):
        # The certificate of this block needs a horizon past 1024.
        P = np.array([[0.99, 1.0], [0.0, 0.99]])
        plan = series.truncation_index(P, 1e-3)
        assert plan.r == 1902
        assert plan.tail_norm_bound <= 1e-3
        assert recomputed_tail_bound(P, plan.certificate, plan.r - 1) > 1e-3

    def test_rejects_bad_tol(self):
        with pytest.raises(InvalidInputError):
            series.truncation_index(JORDAN, 0.0)

    def test_slow_block_builds_two_norm_tables(self, monkeypatch):
        # The search starts where rho^h alone reaches 1e-12 * tol,
        # ceil(log(1e-15) / log 0.99) = 3,437, and doubles once.
        horizons = []
        table = matalg.norm_table

        def counted(matrix, horizon):
            horizons.append(horizon)
            return table(matrix, horizon)

        monkeypatch.setattr(matalg, "norm_table", counted)
        plan = series.truncation_index(np.array([[0.99, 1.0], [0.0, 0.99]]), 1e-3)
        assert plan.r == 1902
        assert horizons == [3437, 6874] and plan.certificate.horizon == 6874

    @pytest.mark.parametrize("a,tol,r", [(0.999, 1e-3, 13808), (0.998, 1e-2, 5404)])
    def test_slow_contraction_meets_the_closed_form(self, a, tol, r):
        # diag(a, 1/2) has |P^j| = a^j, so the cut is the smallest r with
        # a^(r+1) / (1 - a) <= tol.  Both lie inside the largest horizon.
        closed = math.ceil(math.log(tol * (1 - a)) / math.log(a)) - 1
        plan = series.truncation_index(np.diag([a, 0.5]), tol)
        assert plan.r == closed == r
        assert plan.tail_norm_bound <= tol
        assert recomputed_tail_bound(np.diag([a, 0.5]), plan.certificate, r - 1) > tol

    def test_too_slow_decay_builds_no_table(self, monkeypatch):
        def refused(matrix, horizon):
            raise AssertionError("no norm table should be built")

        monkeypatch.setattr(matalg, "norm_table", refused)
        with pytest.raises(HorizonExceededError, match=str(matalg.MAX_HORIZON)):
            series.truncation_index(np.array([[0.99999, 1.0], [0.0, 0.99999]]), 1e-3)
        with pytest.raises(HypothesisViolationError):
            series.truncation_index(np.eye(2), 1e-3)

    def test_tiny_tol_does_not_underflow(self):
        # 1e-12 * tol underflows to zero here; the horizon is sized in logs.
        plan = series.truncation_index(np.diag([0.5, 0.1]), 5e-324)
        assert plan.tail_norm_bound <= 5e-324
        assert recomputed_tail_bound(
            np.diag([0.5, 0.1]), plan.certificate, plan.r - 1
        ) > 5e-324


class TestCertificateProperty:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 4),
        rho=st.floats(0.05, 0.9),
        log_tol=st.floats(-8.0, -2.0),
        exponent=st.sampled_from([0.5, 1.0, 2.0]),
        places=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=4),
    )
    def test_random_contractions(self, seed, d, rho, log_tol, exponent, places):
        # A random d x d matrix scaled to spectral radius rho.  At every r,
        # below and past the horizon, the bound is at least the exhaustive
        # tail, summed 2,000 powers past the last r.  The margin is rounding
        # only: for d = 1 the bound equals the tail in exact arithmetic,
        # every |P^(mH+i)| being q^m |P^i|.
        raw = np.random.default_rng(seed).standard_normal((d, d))
        raw_rho = matalg.spectral_radius(raw)
        if raw_rho == 0.0:
            raw = raw + np.eye(d)
            raw_rho = matalg.spectral_radius(raw)
        P = raw * (rho / raw_rho)
        cert, norms = matalg.decay_certificate(P)
        H = cert.horizon
        full = oracle_norms(P, 3 * H + 2000)
        for r in sorted({int(x * H) for x in places} | {H - 1, H}):
            bound = matalg.tail_bound(norms, cert, r, exponent)
            assert bound >= math.fsum(full[r + 1 :] ** exponent) * (1 - 1e-12)
        tol = 10.0**log_tol
        assert series.truncation_index(P, tol).r == exhaustive_r(P, tol)


class TestTruncationPlan:
    def test_recompute_consistency(self):
        plan = series.truncation_index(JORDAN, 1e-6)
        again = recomputed_tail_bound(JORDAN, plan.certificate, plan.r)
        assert again == pytest.approx(plan.tail_norm_bound, rel=1e-12)

    def test_rejects_negative_r(self):
        cert, _ = matalg.decay_certificate(JORDAN)
        with pytest.raises(InvalidInputError):
            series.TruncationPlan(-1, 0.5, cert)


class TestSeriesSampling:
    def test_normal_series_matches_cf(self):
        P = rotation_half()
        law = laws.NormalLaw(np.eye(2))
        plan = series.truncation_index(P, 1e-4)
        samples = series.series_ensemble(P, law, plan.r, 12, 100_000)
        grid = default_grid(2)
        est = estimate_ecf(samples, grid)
        ref = laws.series_cf_values(law, P, plan.r, grid.points)
        assert sup_distance(est, ref) <= THRESHOLD_1E5

    def test_cauchy_series_matches_cf(self):
        P = rotation_half()
        law = laws.CauchyLaw(2)
        plan = series.truncation_index(P, 1e-4)
        samples = series.series_ensemble(P, law, plan.r, 13, 100_000)
        est = estimate_ecf(samples, default_grid(2))
        ref = laws.series_cf_values(law, P, plan.r, default_grid(2).points)
        assert sup_distance(est, ref) <= THRESHOLD_1E5

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            series.series_ensemble(
                np.array([[0.5]]), laws.NormalLaw(np.eye(2)), 3, 0, 4
            )


class TestSeriesEnsemble:
    def test_sample_addressing_is_stable(self):
        # Sample i depends only on (seed, stream, i): growing the ensemble
        # must not move earlier samples.
        P = rotation_half()
        law = laws.NormalLaw(np.eye(2))
        small = series.series_ensemble(P, law, 6, seed=3, count=500)
        large = series.series_ensemble(P, law, 6, seed=3, count=9000)
        assert np.array_equal(small, large[:500])

    def test_worker_invariance_bitwise(self):
        P = rotation_half()
        law = laws.CauchyLaw(2)
        a = series.series_ensemble(P, law, 8, seed=5, count=10_000, workers=1)
        b = series.series_ensemble(P, law, 8, seed=5, count=10_000, workers=8)
        assert np.array_equal(a, b)

    def test_seed_and_stream_move_samples(self):
        P = rotation_half()
        law = laws.NormalLaw(np.eye(2))
        a = series.series_ensemble(P, law, 6, seed=3, count=100)
        b = series.series_ensemble(P, law, 6, seed=4, count=100)
        assert not np.array_equal(a, b)
        # At r = 0 a draw is one increment, read from the series stream and
        # not from the stream that sample-law draws from.
        c = series.series_ensemble(P, law, 0, seed=3, count=100)

        def draws(stream):
            return law.from_uniforms(streams.uniform_block(3, stream, 0, 100, 2))

        assert np.array_equal(c, draws(streams.STREAM_SERIES))
        assert not np.array_equal(c, draws(streams.STREAM_LAW))

    def test_peak_memory_is_a_slice_not_a_chunk(self):
        # Uniforms are drawn slice by slice, so one full chunk at r = 500
        # never holds its (4096, 501 * 4) uniform block, 66 MB for this law.
        P = np.array([[0.5, 0.1], [0.0, 0.5]])
        law = laws.StableLaw(1.5, laws.SpectralMeasure(np.eye(2), [0.5, 0.5]))
        count, r = streams.CHUNK_PATHS, 500
        block = count * (r + 1) * law.uniforms_per_draw * 8
        tracemalloc.start()
        try:
            series.series_ensemble(P, law, r, seed=6, count=count)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < block / 4

    def test_wide_row_peak_memory_is_a_uniform_budget(self):
        # diag(0.998, 0.5) at tol 1e-2 cuts at r = 5404, so a path's row
        # holds 10,810 uniforms: slices sized by SLICE_UNIFORMS hold six
        # paths, where 256-path slices held 22 MB of uniforms and peaked
        # near 96 MB.
        P = np.diag([0.998, 0.5])
        law = laws.NormalLaw(np.eye(2))
        r = series.truncation_index(P, 1e-2).r
        assert r == 5404
        tracemalloc.start()
        try:
            series.series_ensemble(P, law, r, seed=6, count=1024)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6


def lag_order_sum(powers, z):
    """Oracle for d = 1: ``sum_j P^j z[c, j]`` as each row's running sum in
    lag order from +0.0.  Not an einsum: a path-major einsum sums a d = 1
    row in an order that depends on the strides of ``z``."""
    out = np.zeros((len(z), 1))
    for j in range(len(powers)):
        out = out + powers[j, 0, 0] * z[:, j]
    return out


def contraction(dim):
    """A dense contraction of spectral radius 1/2, so every coordinate of
    a term mixes every coordinate of its increment."""
    P = np.random.default_rng(dim).standard_normal((dim, dim))
    return 0.5 * P / matalg.spectral_radius(P)


# One law per dimension of the chunking tests below.
CHUNK_LAWS = {
    1: laws.NormalLaw(np.eye(1)),
    2: laws.StableLaw(1.5, laws.SpectralMeasure(np.eye(2), np.array([0.5, 0.5]))),
    3: laws.StableLaw(
        1.5, laws.SpectralMeasure(np.eye(3), np.array([0.5, 0.25, 0.25]))
    ),
    8: laws.CauchyLaw(8),
}


class TestSeriesChunking:
    """A sample's bits depend on nothing but its row: not on the chunk it
    shares, the chunk width, the ensemble size or the worker count."""

    @pytest.mark.parametrize("dim", sorted(CHUNK_LAWS))
    @pytest.mark.parametrize("width", [1, 255, 256, 257, 4096])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_any_chunk_width_bitwise(self, monkeypatch, dim, width, workers):
        P, law = contraction(dim), CHUNK_LAWS[dim]
        count = 600 if width == 1 else 4100
        map_chunks = streams.map_chunks
        # The whole ensemble in one chunk is the reference.
        monkeypatch.setattr(streams, "map_chunks", partial(map_chunks, chunk=count))
        whole = series.series_ensemble(P, law, 9, seed=4, count=count)
        monkeypatch.setattr(streams, "map_chunks", partial(map_chunks, chunk=width))
        cut = series.series_ensemble(P, law, 9, seed=4, count=count, workers=workers)
        assert np.array_equal(cut, whole)

    @pytest.mark.parametrize("r", [16_000, 33_000])
    def test_lone_row_of_a_long_series_bitwise(self, r):
        # At d = 1 and more than 8192 lags, einsum sums a one-row operand in
        # another order than two or more rows.  At r = 16000 the slices of
        # law.draws hold two paths, so counts 1 and 3 end in a lone row; at
        # r = 33000 every path is a slice of its own.  Each row must keep
        # the plain running sum of its terms.
        P, law = np.array([[0.9999]]), CHUNK_LAWS[1]
        upd = law.uniforms_per_draw
        u = streams.uniform_block(4, streams.STREAM_SERIES, 0, 4, (r + 1) * upd)
        z = law.from_uniforms(u.reshape(4, r + 1, upd))
        want = lag_order_sum(matalg.power_sequence(P, r), z)
        for count in (1, 3, 4):
            got = series.series_ensemble(P, law, r, seed=4, count=count)
            assert got.tobytes() == want[:count].tobytes()

    @pytest.mark.parametrize("dim", sorted(CHUNK_LAWS))
    def test_prefix_counts_bitwise(self, dim):
        P, law = contraction(dim), CHUNK_LAWS[dim]
        whole = series.series_ensemble(P, law, 9, seed=4, count=4100)
        for count in (1, 255, 256, 257, 4096):
            head = series.series_ensemble(P, law, 9, seed=4, count=count)
            assert np.array_equal(head, whole[:count])

    @pytest.mark.parametrize("dim", sorted(CHUNK_LAWS))
    def test_is_the_power_series_of_the_draws(self, dim):
        P, law, r = contraction(dim), CHUNK_LAWS[dim], 9
        got = series.series_ensemble(P, law, r, seed=4, count=300)
        upd = law.uniforms_per_draw
        u = streams.uniform_block(4, streams.STREAM_SERIES, 0, 300, (r + 1) * upd)
        z = law.from_uniforms(u.reshape(300, r + 1, upd))
        powers = matalg.power_sequence(P, r)
        want = sum(z[:, j] @ powers[j].T for j in range(r + 1))
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
        if dim == 1:
            assert got.tobytes() == lag_order_sum(powers, z).tobytes()


class TestCouplingBound:
    def test_extension_bounded_by_tail_difference(self):
        # Same increments, two cuts: the extension is bounded by the largest
        # increment norm times the certified tail of the shorter cut.
        P = JORDAN
        law = laws.NormalLaw(np.eye(2))
        cert, norms = matalg.decay_certificate(P)
        r, k = 16, 30
        powers = matalg.power_sequence(P, r + k)
        u = streams.uniform_block(
            21, streams.STREAM_LAW, 0, r + k + 1, law.uniforms_per_draw
        )
        z = law.from_uniforms(u)
        terms = np.einsum("jde,je->jd", powers, z)
        s_short = terms[: r + 1].sum(axis=0)
        s_long = terms.sum(axis=0)
        gap = np.linalg.norm(s_long - s_short)
        biggest = np.linalg.norm(z[r + 1 :], axis=1).max()
        assert gap <= biggest * matalg.tail_bound(norms, cert, r) + 1e-12


class TestLogMoment:
    # The per-path log-moment column of lemma_diagnostics: the mean of
    # log+ |Z_j| over the path's J + 1 draws.
    def test_unit_ball_gives_zero(self):
        law = laws.EmpiricalLaw(np.full((3, 2), 0.1))
        diag = series.lemma_diagnostics(0.5 * np.eye(2), law, J=4, n_paths=10, seed=0)
        assert (diag.log_moment == 0.0).all()

    def test_known_value(self):
        law = laws.EmpiricalLaw(np.full((1, 1), np.e**2))
        diag = series.lemma_diagnostics(np.array([[0.5]]), law, J=4, n_paths=5, seed=0)
        assert diag.log_moment == pytest.approx(np.full(5, 2.0), rel=1e-12)

    def test_cauchy_constant(self):
        # E log+ |C| = (2/pi) * Catalan, frozen from quadrature; one million
        # draws put the sample mean within five standard errors.
        diag = series.lemma_diagnostics(
            np.array([[0.5]]), laws.CauchyLaw(1), J=999, n_paths=1000, seed=12
        )
        assert diag.log_moment.mean() == pytest.approx(CAUCHY_LOG_MOMENT, abs=0.005)

    def test_quadrature_cross_check(self):
        from scipy.integrate import quad

        val, err = quad(lambda x: 2.0 / np.pi * np.log(x) / (1.0 + x * x), 1.0, np.inf)
        assert err < 1e-8
        assert val == pytest.approx(CAUCHY_LOG_MOMENT, abs=1e-9)


class TestLemmaTerms:
    # Each law by dimension: the helper equals the einsum for d <= 2 only.
    @pytest.mark.parametrize(
        "law",
        [
            {2: laws.LogCauchyRay(2), 1: laws.LogCauchyRay(1)},
            {
                2: laws.StableLaw(1.5, laws.SpectralMeasure(np.eye(2), [0.5, 0.5])),
                1: laws.StableLaw(1.5, laws.SpectralMeasure([[1.0]], [0.5])),
            },
            {
                2: laws.NormalLaw(np.array([[2.0, 0.6], [0.6, 1.0]])),
                1: laws.NormalLaw([[2.0]]),
            },
        ],
    )
    @pytest.mark.parametrize("P", [0.9 * np.eye(2), rotation_half(), np.array([[0.9]])])
    def test_terms_match_einsum_oracle(self, law, P):
        # Uniforms next to 1 overflow the log-Cauchy ray to inf, and the
        # zeros of a diagonal P turn those into NaNs; both must match.
        law = law[len(P)]
        powers = matalg.power_sequence(P, 12)
        u = np.random.default_rng(4).random((300, 13, law.uniforms_per_draw))
        u[:5] = 1.0 - 2.0**-53
        z = law.from_uniforms(u)
        with np.errstate(invalid="ignore", over="ignore"):
            oracle = np.einsum("jde,cje->cjd", powers, z)
            terms = series._apply_powers(powers, z)
        if isinstance(law, laws.LogCauchyRay):
            assert np.isinf(z).any()
        assert np.array_equal(terms, oracle, equal_nan=True)


class TestLemmaDiagnostics:
    def test_bounded_law_never_exceeds(self):
        pool = 0.5 * np.array([[1.0, 0.0], [0.0, 1.0], [-0.6, 0.8]])
        law = laws.EmpiricalLaw(pool)
        diag = series.lemma_diagnostics(0.5 * np.eye(2), law, J=32, n_paths=400, seed=6)
        assert diag.late_exceedance_fraction == 0.0
        assert (diag.exceedance_count == 0).all()
        assert (diag.last_exceedance_index == -1).all()
        assert (diag.per_index_exceedance_freq == 0.0).all()

    def test_light_tail_late_fraction_decays(self):
        law = laws.NormalLaw(np.eye(1))
        P = np.array([[0.5]])
        late = [
            series.lemma_diagnostics(P, law, J=J, n_paths=4000, seed=7).late_exceedance_fraction
            for J in (8, 32)
        ]
        assert late[1] <= late[0]
        assert late[1] <= 0.01

    def test_heavy_tail_closed_form_frozen(self):
        # exp(Cauchy) * 2^-j exceeds 1 iff the Cauchy variate exceeds
        # j ln 2; at j = 64 that probability is 0.5 - arctan(64 ln 2)/pi.
        J, n_paths = 64, 20_000
        p_closed = 0.5 - np.arctan(J * np.log(2.0)) / np.pi
        diag = series.lemma_diagnostics(
            np.array([[0.5]]), laws.LogCauchyRay(1), J=J, n_paths=n_paths, seed=8
        )
        freq = diag.per_index_exceedance_freq[J]
        sd = np.sqrt(p_closed * (1 - p_closed) / n_paths)
        assert abs(freq - p_closed) <= 5 * sd
        # Late exceedances persist: the limiting fraction is 1 - e^{-1/pi}.
        assert abs(diag.late_exceedance_fraction - 0.27262265070478353) <= 0.02

    def test_huge_finite_draws_keep_finite_norms(self):
        # 1e200 squared overflows; every reported norm is still finite.
        diag = series.lemma_diagnostics(
            np.array([[0.5]]), laws.EmpiricalLaw([[1e200]]), J=4, n_paths=10, seed=1
        )
        np.testing.assert_allclose(diag.log_moment, np.log(1e200), rtol=1e-15)
        np.testing.assert_allclose(diag.final_partial_sum, 1.9375e200, rtol=1e-15)
        np.testing.assert_allclose(diag.last_term_norm, 6.25e198, rtol=1e-15)

    def test_infinite_log_moment_only_on_overflowed_draws(self):
        # The log moment is infinite exactly on the paths holding a draw
        # that overflowed to inf, not on those whose finite draws square
        # past the float range.
        law, J, n_paths, seed = laws.LogCauchyRay(1), 700, 2000, 14
        diag = series.lemma_diagnostics(np.array([[0.5]]), law, J, n_paths, seed)
        u = streams.uniform_block(seed, streams.STREAM_LEMMA, 0, n_paths, J + 1)
        z = law.from_uniforms(u.reshape(n_paths, J + 1, 1))
        overflowed = np.isinf(z).any(axis=(1, 2))
        assert np.array_equal(np.isinf(diag.log_moment), overflowed)
        assert (np.abs(z[np.isfinite(z)]) > 1e155).any()

    def test_reports_structure(self):
        diag = series.lemma_diagnostics(
            np.array([[0.5]]), laws.NormalLaw(np.eye(1)), J=16, n_paths=100,
            seed=9,
        )
        for arr in (
            diag.exceedance_count, diag.last_exceedance_index,
            diag.final_partial_sum, diag.last_term_norm, diag.log_moment,
        ):
            assert arr.shape == (100,)
        count, last = diag.exceedance_count, diag.last_exceedance_index
        assert ((0 <= count) & (count <= 17)).all()
        assert ((-1 <= last) & (last <= 16)).all()
        assert np.array_equal(count == 0, last == -1)
        assert (diag.final_partial_sum >= diag.last_term_norm).all()

    def test_worker_invariance_bitwise(self):
        kwargs = dict(
            P=np.array([[0.5]]), law=laws.LogCauchyRay(1), J=32, n_paths=10_000, seed=10
        )
        a = series.lemma_diagnostics(workers=1, **kwargs)
        b = series.lemma_diagnostics(workers=6, **kwargs)
        assert np.array_equal(a.per_index_exceedance_freq, b.per_index_exceedance_freq)
        assert np.array_equal(a.final_partial_sum, b.final_partial_sum)
        assert a.late_exceedance_fraction == b.late_exceedance_fraction

    @pytest.mark.parametrize(
        "P, law",
        [
            (rotation_half(), laws.NormalLaw(np.array([[2.0, 0.6], [0.6, 1.0]]))),
            (rotation_half(), stable_law(2)),
            (rotation_half(), laws.LogCauchyRay(2)),
            *[(dense_contraction(d), law)
              for d in (8, 16) for law in (laws.NormalLaw(np.eye(d)), stable_law(d))],
        ],
        ids=["normal", "stable", "ray", "normal-8d", "stable-8d", "normal-16d",
             "stable-16d"],
    )
    def test_slice_and_chunk_boundaries_bitwise(self, P, law):
        # Path counts on both sides of one slice (256) and of one chunk
        # (4096), at 1 and 2 workers: every per-path array and the
        # exceedance frequencies equal the whole-block oracle byte for
        # byte, and each smaller run is a prefix of the largest.  At d = 8
        # and 16 the contraction is dense, so every term mixes every
        # coordinate.
        J, seed = 16, 12
        fields = list(lemma_oracle(P, law, J, 1, seed))
        largest = lemma_oracle(P, law, J, 4097, seed)
        for n_paths in (1, 255, 256, 257, 4095, 4097):
            oracle = lemma_oracle(P, law, J, n_paths, seed)
            late = int((oracle["last_exceedance_index"] > J / 2).sum()) / n_paths
            for workers in (1, 2):
                diag = series.lemma_diagnostics(P, law, J, n_paths, seed, workers)
                assert diag.late_exceedance_fraction == late
                for name in fields:
                    got = getattr(diag, name)
                    assert got.dtype == oracle[name].dtype, name
                    assert got.tobytes() == oracle[name].tobytes(), name
                    if name != "per_index_exceedance_freq":
                        assert got.tobytes() == largest[name][:n_paths].tobytes(), name

    def test_peak_memory_grows_only_by_the_outputs(self):
        # Each chunk writes its slices straight into the per-path arrays, so
        # fifteen more chunks add only the five outputs' 40 bytes a path,
        # not a chunk-wide draw, term or norm array kept alive per chunk.
        P = np.array([[0.5, 0.1], [0.0, 0.5]])
        law = laws.StableLaw(1.5, laws.SpectralMeasure(np.eye(2), [0.5, 0.5]))
        peaks = []
        for chunks in (1, 16):
            tracemalloc.start()
            try:
                series.lemma_diagnostics(
                    P, law, J=64, n_paths=chunks * streams.CHUNK_PATHS, seed=13
                )
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        outputs = 40 * 15 * streams.CHUNK_PATHS
        assert peaks[1] - peaks[0] <= outputs + 2**20

    def test_npy_output(self, tmp_path):
        diag = series.lemma_diagnostics(
            np.array([[0.5]]), laws.NormalLaw(np.eye(1)), J=8, n_paths=37, seed=11
        )
        path = tmp_path / "lemma.npy"
        series.write_lemma_csv(path, diag)
        rows = np.load(path)
        assert rows.dtype.names == series.LEMMA_FIELDS
        assert len(rows) == 37
        assert int(rows[0][0]) == 0 and int(rows[0][1]) == 8
        assert np.array_equal(rows["final_partial_sum"], diag.final_partial_sum)
        assert np.array_equal(rows["exceedance_count"], diag.exceedance_count)

    def test_rejects_bad_args(self):
        law = laws.NormalLaw(np.eye(1))
        with pytest.raises(InvalidInputError):
            series.lemma_diagnostics(np.array([[0.5]]), law, J=-1, n_paths=10, seed=0)
        with pytest.raises(InvalidInputError):
            series.lemma_diagnostics(np.array([[0.5]]), law, J=4, n_paths=0, seed=0)
