"""Increment laws and limit characteristic functions.

Statistical checks pin empirical characteristic functions against the
analytic ones at a 3x concentration radius; algebraic checks freeze closed
forms computed by hand or by scipy quadrature oracles.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablemix import config, laws, matalg, streams, verify
from stablemix.ecf import default_grid, estimate_ecf, hoeffding_radius, sup_distance
from stablemix.errors import InvalidInputError
from stablemix.processes import ExplosiveVar

N_SAMPLES = 100_000
# 3 * sqrt(2 ln(2/1e-3) / 1e5), frozen.
THRESHOLD = 0.03698867992666911

EXP_M1 = 0.36787944117144233
EXP_M2 = 0.1353352832366127
EXP_M2_3 = 0.513417119032592


def stream_draws(law, seed, count):
    """``count`` draws of ``law`` from the first rows of the law stream."""
    u = streams.uniform_block(
        seed, streams.STREAM_LAW, 0, count, law.uniforms_per_draw
    )
    return law.from_uniforms(u)


def two_atom_measure():
    return laws.SpectralMeasure(
        atoms=np.array([[1.0, 0.0], [0.0, 1.0]]), weights=np.array([0.5, 0.5])
    )


def normal_limit_oracle(P, cov, thetas, r):
    """Closed form ``exp(-theta' S_r theta / 2)``, ``S_r = sum_{j<=r} P^j
    cov P^j'``: one covariance sum, independent of the product route."""
    sigma = np.zeros_like(P)
    pj = np.eye(P.shape[0])
    for _ in range(r + 1):
        sigma += pj @ cov @ pj.T
        pj = pj @ P
    return np.exp(-0.5 * np.einsum("md,de,me->m", thetas, sigma, thetas))


def cauchy_limit_oracle(P, thetas, r):
    """Closed form ``exp(-sum_{j<=r} |P^j' theta|)``."""
    exponent = np.zeros(len(thetas))
    proj = np.array(thetas, dtype=float)
    for _ in range(r + 1):
        exponent += np.linalg.norm(proj, axis=1)
        proj = proj @ P
    return np.exp(-exponent)


def stable_limit_oracle(P, alpha, measure, thetas, r):
    """Closed form ``exp(-sum_{j<=r} sum_k w_k |<P^j' theta, s_k>|^alpha)``."""
    exponent = np.zeros(len(thetas))
    proj = np.array(thetas, dtype=float)
    for _ in range(r + 1):
        inner = np.abs(proj @ measure.atoms.T) ** alpha
        exponent += (inner * measure.weights).sum(axis=1)
        proj = proj @ P
    return np.exp(-exponent)


def all_standard_laws():
    rng = np.random.default_rng(2024)
    pool = rng.normal(size=(50, 2))
    return [
        laws.NormalLaw(np.eye(2)),
        laws.NormalLaw(np.array([[2.0, 0.6], [0.6, 1.0]])),
        laws.CauchyLaw(1),
        laws.CauchyLaw(2),
        laws.StableLaw(0.8, two_atom_measure()),
        laws.StableLaw(1.5, two_atom_measure()),
        laws.EmpiricalLaw(pool),
        # Odd normal counts drop the last Box-Muller partner.
        laws.NormalLaw(np.array([[1.5]])),
        laws.NormalLaw(np.array([[1.0, 0.3, 0.0], [0.3, 1.0, -0.2], [0.0, -0.2, 0.5]])),
    ]


def law_id(law):
    return type(law).__name__ + str(getattr(law, "alpha", getattr(law, "dim", "")))


class TestNumericInput:
    def test_boolean_covariance_is_refused(self):
        with pytest.raises(InvalidInputError, match="cov is malformed"):
            laws.NormalLaw([[True, 0], [0, 1]])
        with pytest.raises(InvalidInputError):
            laws.EmpiricalLaw([["0.5"], ["1.0"]])


class TestSpectralMeasure:
    def test_rejects_non_unit_atoms(self):
        with pytest.raises(InvalidInputError):
            laws.SpectralMeasure(np.array([[2.0, 0.0]]), np.array([1.0]))

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(InvalidInputError):
            laws.SpectralMeasure(np.array([[1.0, 0.0]]), np.array([0.0]))
        with pytest.raises(InvalidInputError):
            laws.SpectralMeasure(np.array([[1.0, 0.0]]), np.array([-1.0]))


class TestCfAlgebra:
    def test_value_at_zero_is_one(self):
        for law in all_standard_laws():
            zero = np.zeros(law.dim)
            assert law.cf(zero) == 1.0 + 0.0j

    def test_modulus_and_symmetry(self):
        rng = np.random.default_rng(5)
        for law in all_standard_laws():
            thetas = rng.normal(size=(40, law.dim)) * 3.0
            vals = laws.cf_increment(law, thetas)
            assert (np.abs(vals) <= 1.0 + 1e-12).all()
            conj = laws.cf_increment(law, -thetas)
            assert np.allclose(conj, np.conj(vals), atol=1e-12)

    def test_normal_closed_form(self):
        cov = np.array([[2.0, 0.6], [0.6, 1.0]])
        law = laws.NormalLaw(cov)
        theta = np.array([0.3, -1.2])
        expected = np.exp(-0.5 * theta @ cov @ theta)
        assert law.cf(theta) == pytest.approx(expected, rel=1e-14)

    def test_cauchy_spot(self):
        law = laws.CauchyLaw(2)
        assert law.cf(np.array([1.0, 0.0])) == pytest.approx(EXP_M1, rel=1e-14)
        assert law.cf(np.array([3.0, 4.0])) == pytest.approx(np.exp(-5.0), rel=1e-14)

    def test_stable_closed_form(self):
        law = laws.StableLaw(1.5, two_atom_measure())
        theta = np.array([2.0, 1.0])
        expected = np.exp(-(0.5 * 2.0**1.5 + 0.5 * 1.0**1.5))
        assert law.cf(theta) == pytest.approx(expected, rel=1e-14)

    def test_diagnostic_law_has_no_cf(self):
        ray = laws.LogCauchyRay(1)
        with pytest.raises(InvalidInputError):
            laws.cf_increment(ray, np.array([1.0]))


class TestCms:
    def test_alpha_one_is_tan(self):
        u = np.linspace(0.05, 0.95, 19)
        w = np.full_like(u, 0.37)
        vals = laws.sas_from_uniforms(1.0, u, w)
        assert np.allclose(vals, np.tan(np.pi * (u - 0.5)), rtol=1e-12)

    def test_alpha_two_variance(self):
        # X = 2 sin(U) sqrt(W) is N(0, 2); mean of X^2 concentrates at 2.
        rng = np.random.default_rng(31)
        u = rng.random((N_SAMPLES, 2))
        x = laws.sas_from_uniforms(2.0, u[:, 0], u[:, 1])
        assert np.mean(x**2) == pytest.approx(2.0, abs=0.05)
        assert np.mean(x) == pytest.approx(0.0, abs=0.03)

    def test_rejects_alpha_out_of_range(self):
        with pytest.raises(InvalidInputError):
            laws.sas_from_uniforms(0.0, 0.5, 0.5)
        with pytest.raises(InvalidInputError):
            laws.sas_from_uniforms(2.5, 0.5, 0.5)

    def test_gaussian_endpoint_from_stream(self):
        u = streams.uniform_block(8, streams.STREAM_LAW, 0, N_SAMPLES, 2)
        x = laws.sas_from_uniforms(2.0, u[:, 0], u[:, 1])
        assert np.var(x) == pytest.approx(2.0, abs=0.06)


def old_cms(alpha, u_angle, u_exp):
    """The CMS map through libm ``cos`` and ``sin`` (report version 0.7.0),
    kept as the accuracy baseline."""
    angle = np.pi * (u_angle - 0.5)
    w = np.maximum(-np.log(np.maximum(1.0 - u_exp, 1e-300)), 2.0**-54)
    cos_angle = np.maximum(np.cos(angle), 1e-300)
    lead = np.sin(alpha * angle) / cos_angle ** (1.0 / alpha)
    return lead * (np.cos((1.0 - alpha) * angle) / w) ** ((1.0 - alpha) / alpha)


def long_cms(alpha, u_angle, u_exp):
    """The CMS map in long double, with ``cos V`` as ``sin(pi min(u, 1 - u))``
    so that rounding ``V`` near the pole does not swamp the oracle."""
    ld = np.longdouble
    a, pi = ld(alpha), np.arccos(ld(-1))
    u, e = u_angle.astype(ld), u_exp.astype(ld)
    v = pi * (u - ld(0.5))
    w = np.maximum(-np.log(np.maximum(ld(1) - e, ld(1e-300))), ld(2.0**-54))
    cos_v = np.sin(pi * np.minimum(u, ld(1) - u))
    lead = np.sin(a * v) / cos_v ** (ld(1) / a)
    return lead * (np.cos((ld(1) - a) * v) / w) ** ((ld(1) - a) / a)


class TestCosSin:
    def test_phases_match_exp(self):
        # cos and sin of x from tan(x / 2), |x| from 0 to 1e300.
        rng = np.random.default_rng(17)
        x = np.concatenate([
            [0.0, np.pi, 2 * np.pi, np.pi / 2, np.nextafter(np.pi, 0), 1e300],
            rng.uniform(0.0, 10.0, 50_000),
            np.exp(rng.uniform(-700.0, np.log(1e300), 50_000)),
        ])
        x = np.concatenate([x, -x])
        cos, sin = np.empty_like(x), np.empty_like(x)
        laws._cos_sin(np.tan(0.5 * x), cos, sin)
        exact = x.astype(np.longdouble)
        assert np.abs(cos - np.cos(exact)).max() <= 4.5e-16
        assert np.abs(sin - np.sin(exact)).max() <= 4.5e-16

    def test_outputs_may_alias_the_input(self):
        t = np.tan(np.linspace(-3.0, 3.0, 101))
        cos, sin = np.empty_like(t), np.empty_like(t)
        laws._cos_sin(t, cos, sin)
        for name, want in (("cos", cos), ("sin", sin)):
            inplace = t.copy()
            laws._cos_sin(inplace, **{name: inplace})
            assert np.array_equal(inplace, want)
        # sin may be t itself with cos written too, as ecf's kernel calls it.
        inplace, cos_too = t.copy(), np.empty_like(t)
        laws._cos_sin(inplace, cos_too, inplace)
        assert np.array_equal(cos_too, cos) and np.array_equal(inplace, sin)

    @pytest.mark.parametrize("outputs", ("cos", "sin", "both", "sin-is-t"))
    @pytest.mark.parametrize("scale", ("scalar", "array"))
    def test_factor_scratch_gives_the_same_bits(self, outputs, scale):
        # A scratch factor array, stale values and all, changes no bit of
        # either output, for a scalar and an array scale.
        x = np.concatenate([np.linspace(-3.0, 3.0, 101), [0.0, -0.0, 1e-310]])
        t = np.tan(0.5 * x)
        scale = 1.0 if scale == "scalar" else np.linspace(0.5, 2.0, len(t))

        def run(factor):
            arg = t.copy()
            out = {"cos": np.empty_like(t), "sin": np.empty_like(t)}
            if outputs == "cos":
                del out["sin"]
            elif outputs == "sin":
                del out["cos"]
            elif outputs == "sin-is-t":
                out["sin"] = arg
            laws._cos_sin(arg, **out, scale=scale, factor=factor)
            return out

        want = run(None)
        got = run(np.full_like(t, np.nan))
        assert want.keys() == got.keys()
        for name in want:
            assert same_bits(got[name], want[name])


class TestCmsAccuracy:
    @pytest.mark.parametrize("alpha", (0.2, 0.5, 0.8, 1.3, 1.5, 1.9))
    def test_within_four_times_the_libm_map(self, alpha):
        # 1e5 stream draws plus the edge rows off the pole u_angle = 0, where
        # the map is infinite and both versions return a finite stand-in.
        u = np.vstack([
            streams.uniform_block(12, streams.STREAM_LAW, 0, 100_000, 2),
            edge_rows(2)[edge_rows(2)[:, 0] > 0.0],
        ])
        exact = long_cms(alpha, u[:, 0], u[:, 1])
        got = laws.sas_from_uniforms(alpha, u[:, 0], u[:, 1])
        nonzero = exact != 0
        assert np.array_equal(got[~nonzero], np.zeros((~nonzero).sum()))

        def worst(x):
            return float(np.abs((x[nonzero] - exact[nonzero]) / exact[nonzero]).max())

        assert worst(got) <= 4.0 * worst(old_cms(alpha, u[:, 0], u[:, 1]))


def same_bits(a, b) -> bool:
    """Equal shapes and equal bit patterns, so -0.0 differs from +0.0."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def slice_width(law, steps, lead):
    """Paths per slice of ``law.draws``: the uniform budget over the row
    width, and at least one path."""
    return max(1, laws.SLICE_UNIFORMS // (lead + steps * law.uniforms_per_draw))


def wide_steps(law):
    """The fewest steps whose row, without a leading uniform, is wider
    than the uniform budget."""
    return laws.SLICE_UNIFORMS // law.uniforms_per_draw + 1


def counts_around(width):
    """Path counts on both sides of one slice width, and past a chunk; for
    one-path slices, three paths (4097 such rows would be 2 GB)."""
    past = 4097 if width > 1 else 3
    return sorted({1, width - 1, width, width + 1, past} - {0})


class TestChunkedDraws:
    @pytest.mark.parametrize("law", all_standard_laws(), ids=law_id)
    def test_rows_around_the_chunk_width_bitwise(self, law):
        # Rows 4095-4097 straddle one CHUNK_PATHS boundary; a path's draws
        # must not depend on the chunk of paths it is mapped in.  Blocks are
        # (paths, steps, uniforms), as every caller in the package passes them.
        upd = law.uniforms_per_draw
        for steps in (1, 2):
            u = streams.uniform_block(3, streams.STREAM_LAW, 0, 4100, steps * upd)
            u = u.reshape(4100, steps, upd)
            whole = law.from_uniforms(u)
            for start, stop in ((4095, 4098), (4095, 4100), (4094, 4096),
                                (4096, 4097), (4097, 4098)):
                assert np.array_equal(law.from_uniforms(u[start:stop]), whole[start:stop])

    @pytest.mark.parametrize(
        "law", all_standard_laws() + [laws.LogCauchyRay(2)], ids=law_id
    )
    def test_sliced_block_equals_one_call_bitwise(self, law):
        # draws maps a budget of SLICE_UNIFORMS uniforms per call, each
        # slice from its own stream rows, and its callers fill one
        # preallocated output from it: path counts on both sides of one
        # slice width and past a whole chunk, at 1, 3 and 65 steps and at
        # a row wider than the budget, from a chunk start and from one
        # path before a chunk boundary, with and without a leading uniform,
        # must give the bits of one uniform_block and one from_uniforms
        # call on the block.
        upd = law.uniforms_per_draw
        for steps, start, lead in itertools.product(
            (1, 3, 65, wide_steps(law)), (0, 4095), (0, 1)
        ):
            counts = counts_around(slice_width(law, steps, lead))
            u = streams.uniform_block(5, streams.STREAM_LAW, start, counts[-1],
                                      lead + steps * upd)
            whole = law.from_uniforms(u[:, lead:].reshape(counts[-1], steps, upd))
            for count in counts:
                v_out = np.empty((count, lead))
                z_out = np.empty((count, steps, law.dim))
                for at, v, z in law.draws(5, streams.STREAM_LAW, start, count,
                                          steps, lead):
                    v_out[at], z_out[at] = v, z
                assert same_bits(v_out, u[:count, :lead])
                assert same_bits(z_out, whole[:count])

    @pytest.mark.parametrize(
        "law", all_standard_laws() + [laws.LogCauchyRay(2)], ids=law_id
    )
    def test_slices_cover_the_block_in_order_bitwise(self, law):
        # draws is the one route from a stream to a sampler: it must cover
        # range(count) in order, in slices of the budget's width with a
        # shorter last slice (one path each for a row wider than the
        # budget), and its draws, concatenated, must be one from_uniforms
        # call on the paths' rows.
        upd = law.uniforms_per_draw
        for steps, start, lead in itertools.product(
            (1, 3, 65, wide_steps(law)), (0, 4095), (0, 1)
        ):
            width = slice_width(law, steps, lead)
            if steps == wide_steps(law):
                assert width == 1
            counts = counts_around(width)
            u = streams.uniform_block(6, streams.STREAM_LAW, start, counts[-1],
                                      lead + steps * upd)
            for count in counts:
                pieces = list(law.draws(6, streams.STREAM_LAW, start, count,
                                        steps, lead))
                bounds = [(at.start, at.stop) for at, _, _ in pieces]
                assert bounds == [
                    (a, min(a + width, count)) for a in range(0, count, width)
                ]
                for at, v, z in pieces:
                    assert v.shape == (at.stop - at.start, lead)
                    assert z.shape == (at.stop - at.start, steps, law.dim)
                whole = np.concatenate([z for _, _, z in pieces])
                rows = u[:count, lead:].reshape(count, steps, upd)
                assert same_bits(whole, law.from_uniforms(rows))


class TestEcfAgainstCf:
    @pytest.mark.parametrize("law", all_standard_laws(), ids=law_id)
    def test_samples_match_cf(self, law):
        samples = stream_draws(law, 404, N_SAMPLES)
        grid = default_grid(law.dim)
        est = estimate_ecf(samples, grid)
        ref = laws.cf_increment(law, grid.points)
        assert sup_distance(est, ref) <= THRESHOLD


@settings(max_examples=25, deadline=None)
@given(
    a1=st.floats(0.2, 3.0),
    a2=st.floats(0.2, 3.0),
    alpha=st.floats(0.5, 1.9),
    t=st.floats(-4.0, 4.0),
)
def test_sas_scaling_identity(a1, a2, alpha, t):
    # cf of a1 X1 + a2 X2 equals the cf of a single variate at combined
    # scale (a1^alpha + a2^alpha)^(1/alpha).
    lhs = np.exp(-abs(a1 * t) ** alpha) * np.exp(-abs(a2 * t) ** alpha)
    combined = (a1**alpha + a2**alpha) ** (1.0 / alpha)
    rhs = np.exp(-abs(combined * t) ** alpha)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-300)


def test_sas_scaling_empirical():
    # The distributional version of the scaling identity, at alpha = 1.5.
    alpha, a1, a2 = 1.5, 1.0, 0.5
    rng = np.random.default_rng(99)
    u = rng.random((N_SAMPLES, 4))
    x = a1 * laws.sas_from_uniforms(alpha, u[:, 0], u[:, 1]) + a2 * laws.sas_from_uniforms(
        alpha, u[:, 2], u[:, 3]
    )
    grid = default_grid(1)
    est = estimate_ecf(x[:, None], grid)
    scale = (a1**alpha + a2**alpha) ** (1.0 / alpha)
    ref = np.exp(-np.abs(scale * grid.points[:, 0]) ** alpha).astype(complex)
    assert sup_distance(est, ref) <= THRESHOLD


class TestEmpiricalLaw:
    def test_draws_come_from_pool(self):
        pool = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 3.0]])
        law = laws.EmpiricalLaw(pool)
        draws = stream_draws(law, 0, 500)
        for row in draws:
            assert any(np.array_equal(row, p) for p in pool)

    def test_cf_is_exact_average(self):
        pool = np.array([[1.0], [-1.0]])
        law = laws.EmpiricalLaw(pool)
        # Symmetric two-point pool: cf(t) = cos(t).
        t = np.array([[0.7]])
        assert law.cf(t)[0] == pytest.approx(np.cos(0.7), rel=1e-14)


class TestTruncatedLimitCfs:
    def test_normal_spot_frozen(self):
        # d=1, P=1/2, unit variance: exponent sum_j 4^-j / 2 -> 2/3.
        out = laws.cf_normal_limit(
            np.array([[0.5]]), np.array([[1.0]]), np.array([[1.0]]), r=60
        )
        assert out.values[0].real == pytest.approx(EXP_M2_3, rel=1e-12)
        assert out.values[0].imag == 0.0

    def test_cauchy_spot_frozen(self):
        out = laws.cf_cauchy_limit(np.array([[0.5]]), np.array([[1.0]]), r=60)
        assert out.values[0].real == pytest.approx(EXP_M2, rel=1e-12)

    def test_stable_spot_frozen(self):
        # Single atom, P = 0: only the j=0 term contributes, cf = exp(-1).
        measure = laws.SpectralMeasure(np.array([[1.0]]), np.array([1.0]))
        out = laws.cf_stable_limit(
            np.array([[0.0]]), 1.0, measure, np.array([[1.0]]), r=5
        )
        assert out.values[0].real == pytest.approx(EXP_M1, rel=1e-12)

    @pytest.mark.parametrize("r", [3, 8, 15])
    def test_matches_series_product_route(self, r):
        # Dual route: the product of per-term cfs, and the named limits built
        # on it, must agree with the closed-form accumulators at the same
        # truncation.
        P = 0.5 * np.array(
            [[np.cos(np.pi / 6), -np.sin(np.pi / 6)], [np.sin(np.pi / 6), np.cos(np.pi / 6)]]
        )
        grid = default_grid(2)
        cov = np.array([[1.5, 0.2], [0.2, 0.7]])
        oracle = normal_limit_oracle(P, cov, grid.points, r)
        b = laws.series_cf_values(laws.NormalLaw(cov), P, r, grid.points)
        assert np.allclose(oracle, b, atol=1e-13)
        assert np.array_equal(laws.cf_normal_limit(P, cov, grid.points, r).values, b)

        oracle = cauchy_limit_oracle(P, grid.points, r)
        b = laws.series_cf_values(laws.CauchyLaw(2), P, r, grid.points)
        assert np.allclose(oracle, b, atol=1e-13)
        assert np.array_equal(laws.cf_cauchy_limit(P, grid.points, r).values, b)

        m = two_atom_measure()
        oracle = stable_limit_oracle(P, 1.5, m, grid.points, r)
        b = laws.series_cf_values(laws.StableLaw(1.5, m), P, r, grid.points)
        assert np.allclose(oracle, b, atol=1e-13)
        assert np.array_equal(laws.cf_stable_limit(P, 1.5, m, grid.points, r).values, b)

    def test_factor_and_start_match_literal_product(self):
        # prod_{j=start}^{start+r} phi(F' (P^j)' theta), term by term with
        # matrix_power, for a non-normal P and a non-symmetric F.
        P = np.array([[0.4, 0.3], [-0.1, 0.5]])
        F = np.array([[1.0, 0.5], [0.0, 2.0]])
        law = laws.NormalLaw(np.array([[1.5, 0.2], [0.2, 0.7]]))
        grid = default_grid(2).points
        r = 4
        for start in (0, 1, 3):
            for factor in (None, F):
                lit = np.ones(len(grid), dtype=complex)
                for j in range(start, start + r + 1):
                    row = grid @ np.linalg.matrix_power(P, j)
                    lit *= law.cf(row if factor is None else row @ factor)
                got = laws.series_cf_values(law, P, r, grid, factor, start)
                assert np.allclose(got, lit, atol=1e-14), (start, factor)
        # The explosive limit sum_{k>=1} A^-k eps_k starts at lag one.
        A = np.array([[2.0, 1.0], [0.0, 2.0]])
        spec = ExplosiveVar(A, law)
        assert spec.from_start
        lit = np.ones(len(grid), dtype=complex)
        for k in range(1, r + 2):
            lit *= law.cf(grid @ np.linalg.matrix_power(np.linalg.inv(A), k))
        got = verify.mixing_reference(spec, r, default_grid(2))
        assert np.allclose(got, lit, atol=1e-14)
        assert np.array_equal(verify.conditional_reference(spec, r, default_grid(2))[0], got)

    def test_negative_truncation_or_start_rejected(self):
        law = laws.NormalLaw(np.eye(2))
        grid = default_grid(2).points
        with pytest.raises(InvalidInputError):
            laws.series_cf_values(law, 0.5 * np.eye(2), -1, grid)
        with pytest.raises(InvalidInputError):
            laws.series_cf_values(law, 0.5 * np.eye(2), 3, grid, start=-1)
        with pytest.raises(InvalidInputError):
            laws.series_cf_values(law, 0.5 * np.eye(2), 3, grid, factor=np.eye(3))

    def test_tail_bound_validity(self):
        # Extending the truncation moves log-modulus by at most the
        # reported tail, and always downward (factors have modulus <= 1).
        P = np.array([[0.4, 0.3], [0.0, 0.5]])
        theta = np.array([[1.0, -2.0]])
        for build in (
            lambda r: laws.cf_normal_limit(P, np.eye(2), theta, r),
            lambda r: laws.cf_cauchy_limit(P, theta, r),
            lambda r: laws.cf_stable_limit(P, 1.2, two_atom_measure(), theta, r),
        ):
            for r in (2, 6, 12):
                near = build(r)
                far = build(r + 50)
                drop = np.log(np.abs(near.values[0])) - np.log(np.abs(far.values[0]))
                assert -1e-12 <= drop <= near.exponent_tail + 1e-12

    def test_certificate_recorded(self):
        out = laws.cf_cauchy_limit(np.array([[0.5]]), np.array([1.0]), r=4)
        assert out.r == 4
        cert, norms = matalg.decay_certificate(np.array([[0.5]]))
        assert out.certificate == cert and cert.q < 1.0
        assert out.exponent_tail == matalg.tail_bound(norms, cert, 4)


def literal_laws():
    """Each law's literal JSON config beside the law built directly from
    the same numbers."""
    pool = [[0.5, -1.0], [2.0, 0.25], [-0.75, 1.5]]
    return [
        ({"law": "normal", "cov": [[2.0, 0.6], [0.6, 1.0]]},
         laws.NormalLaw(np.array([[2.0, 0.6], [0.6, 1.0]]))),
        ({"law": "cauchy", "dim": 2}, laws.CauchyLaw(2)),
        ({"law": "stable", "alpha": 0.8, "atoms": [[1.0, 0.0], [0.0, 1.0]],
          "weights": [0.5, 0.5]},
         laws.StableLaw(0.8, two_atom_measure())),
        ({"law": "empirical", "pool": pool}, laws.EmpiricalLaw(np.array(pool))),
    ]


class TestLawJson:
    def test_roundtrip_all_variants(self):
        # A literal config reads back into the law built directly, bit for
        # bit in every draw.
        for obj, law in literal_laws():
            back = config.law_from_json(obj)
            assert type(back) is type(law)
            assert np.array_equal(stream_draws(law, 3, 16), stream_draws(back, 3, 16))

    def test_diagnostic_gate(self):
        obj = {"law": "log-cauchy-ray", "dim": 1}
        with pytest.raises(InvalidInputError):
            config.law_from_json(obj)
        ray = config.law_from_json(obj, allow_diagnostic=True)
        assert isinstance(ray, laws.LogCauchyRay)

    def test_rejects_unknown_tag(self):
        with pytest.raises(InvalidInputError):
            config.law_from_json({"law": "mystery"})
        with pytest.raises(InvalidInputError):
            config.law_from_json({"dim": 2})

    def test_missing_key_is_input_error_not_keyerror(self):
        with pytest.raises(InvalidInputError, match="requires key 'cov'"):
            config.law_from_json({"law": "normal"})
        with pytest.raises(InvalidInputError, match="requires key 'alpha'"):
            config.law_from_json({"law": "stable", "atoms": [[1.0]], "weights": [1.0]})


class TestNormalLawValidation:
    def test_rejects_indefinite_cov(self):
        with pytest.raises(InvalidInputError):
            laws.NormalLaw(np.diag([1.0, -1.0]))

    def test_rejects_asymmetric_cov(self):
        with pytest.raises(InvalidInputError):
            laws.NormalLaw(np.array([[1.0, 0.9], [0.0, 1.0]]))

    def test_degenerate_cov_allowed(self):
        # Rank-deficient covariance is legitimate (mass on a subspace).
        law = laws.NormalLaw(np.diag([1.0, 0.0]))
        draws = stream_draws(law, 2, 100)
        assert np.all(draws[:, 1] == 0.0)


# Uniform edge values a stream draw can take: 0, the smallest positive
# double it yields, the centre, and the largest value below 1.
EDGE_UNIFORMS = np.array([0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53])
EDGE_ALPHAS = (0.2, 0.3, 0.5, 1.0, 1.5, 1.9)


def edge_rows(width: int) -> np.ndarray:
    """Every combination of edge uniforms over ``width`` coordinates."""
    grids = np.meshgrid(*[EDGE_UNIFORMS] * width, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


class TestUniformEdges:
    @pytest.mark.parametrize("alpha", EDGE_ALPHAS)
    def test_cms_finite_on_edges(self, alpha):
        u = edge_rows(2)
        assert np.isfinite(laws.sas_from_uniforms(alpha, u[:, 0], u[:, 1])).all()

    @pytest.mark.parametrize("alpha", EDGE_ALPHAS)
    def test_stable_law_finite_on_edges(self, alpha):
        law = laws.StableLaw(alpha, two_atom_measure())
        assert np.isfinite(law.from_uniforms(edge_rows(law.uniforms_per_draw))).all()

    @pytest.mark.parametrize("law", [laws.NormalLaw(np.eye(2)), laws.CauchyLaw(2)])
    def test_normal_and_cauchy_finite_on_edges(self, law):
        assert np.isfinite(law.from_uniforms(edge_rows(law.uniforms_per_draw))).all()


class TestIdentityCovariance:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_identity_skip_equals_matmul_bitwise(self, d):
        # u1 = 0 gives the radius sqrt(-0.0) = -0.0; the skipped matmul
        # would have turned the -0.0 draws into +0.0.
        u = edge_rows(laws.NormalLaw(np.eye(d)).uniforms_per_draw)
        raw = laws._normals(u, d)
        assert ((raw == 0.0) & np.signbit(raw)).any()
        got = laws.NormalLaw(np.eye(d)).from_uniforms(u)
        assert same_bits(got, raw @ np.eye(d))

    def test_diagonal_covariance_keeps_the_matmul(self):
        law = laws.NormalLaw(np.diag([4.0, 1.0]))
        u = edge_rows(2)
        assert same_bits(law.from_uniforms(u), laws._normals(u, 2) @ law.factor.T)


class TestStableLawLayout:
    def three_atom_law(self):
        atoms = np.array([[1.0, 0.0], [0.6, 0.8], [0.0, 1.0]])
        return laws.StableLaw(1.3, laws.SpectralMeasure(atoms, [0.5, 0.3, 0.2]))

    def test_two_uniforms_per_atom(self):
        assert self.three_atom_law().uniforms_per_draw == 6
        assert laws.StableLaw(0.8, two_atom_measure()).uniforms_per_draw == 4

    def test_one_cms_variate_per_atom(self):
        law = self.three_atom_law()
        u = np.random.default_rng(9).random((257, 5, law.uniforms_per_draw))
        w, a = law.measure.weights, law.alpha
        oracle = (
            w ** (1.0 / a) * laws.sas_from_uniforms(a, u[..., 0::2], u[..., 1::2])
        ) @ law.measure.atoms
        assert np.array_equal(law.from_uniforms(u), oracle)
