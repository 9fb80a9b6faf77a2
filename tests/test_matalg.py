"""Matrix-analysis layer: spectral radius, decay certificates, tail bounds.

Frozen expectations come from an independent brute-force oracle (repeated
matmul + per-power SVD, no shared code with the package); the oracle itself
is re-run here at small horizons as a cross-check.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablemix import config, matalg
from stablemix.errors import (
    HorizonExceededError,
    HypothesisViolationError,
    InvalidInputError,
    RangeOverflowError,
    SingularMatrixError,
)


def rotation_half(angle=np.pi / 6):
    c, s = np.cos(angle), np.sin(angle)
    return 0.5 * np.array([[c, -s], [s, c]])


JORDAN = np.array([[0.5, 10.0], [0.0, 0.5]])
COMPANION = np.array([[0.0, 1.0], [-0.25, 1.0]])


# Independent oracle: powers by repeated matmul, norms by per-power SVD,
# decay index by literal scan of every suffix.
def oracle_norms(P, horizon):
    out = [1.0]
    M = np.eye(len(P))
    for _ in range(horizon):
        M = M @ P
        out.append(np.linalg.svd(M, compute_uv=False)[0])
    return np.array(out)


def oracle_gelfand_k0(P, horizon):
    rho = np.abs(np.linalg.eigvals(P)).max()
    ratio = (1.0 + rho) / 2.0
    norms = oracle_norms(P, horizon)
    for k0 in range(1, horizon + 1):
        if all(norms[k] ** (1.0 / k) <= ratio for k in range(k0, horizon + 1)):
            return k0
    return None


class TestValidation:
    def test_rejects_non_square(self):
        with pytest.raises(InvalidInputError):
            matalg.as_square(np.zeros((2, 3)))
        with pytest.raises(InvalidInputError):
            matalg.as_square(np.zeros(3))
        with pytest.raises(InvalidInputError):
            matalg.as_square(np.zeros((0, 0)))

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            matalg.as_square([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(InvalidInputError):
            matalg.as_square([[np.inf]])

    def test_accepts_lists(self):
        arr = matalg.as_square([[1, 2], [3, 4]])
        assert arr.dtype == float and arr.shape == (2, 2)

    def test_floats_accept_numbers_and_numeric_arrays(self):
        for value in (3, np.int64(3), [np.float64(1.5), 2], (1, 2), np.arange(3),
                      np.eye(2, dtype=np.float32), [np.eye(2), 2 * np.eye(2)]):
            arr = matalg.as_floats(value)
            assert arr.dtype == float
            assert np.array_equal(arr, np.asarray(value, dtype=float))

    def test_floats_refuse_booleans_and_strings(self):
        for value in (True, [[True, 0], [0, 1]], [np.True_], np.array([True]),
                      "1.5", ["1", 2], np.array(["1.0"]), [[1.0, 2.0], [3.0]]):
            with pytest.raises(InvalidInputError, match="malformed"):
                matalg.as_floats(value, "entries")


class TestSpectralRadius:
    def test_companion_matrix_exact(self):
        # Double eigenvalue 1/2; numpy resolves it exactly for this matrix.
        assert matalg.spectral_radius(COMPANION) == pytest.approx(0.5, abs=1e-10)

    def test_scalar_and_diagonal(self):
        assert matalg.spectral_radius([[0.5]]) == 0.5
        assert matalg.spectral_radius(np.diag([0.9, 0.1])) == pytest.approx(0.9)

    def test_rotation_scaled(self):
        assert matalg.spectral_radius(rotation_half()) == pytest.approx(0.5, rel=1e-12)

    def test_power_property(self):
        # rho(P^k) = rho(P)^k for a handful of seeded random matrices.
        rng = np.random.default_rng(123)
        for _ in range(10):
            P = rng.normal(size=(3, 3)) * 0.4
            rho = matalg.spectral_radius(P)
            for k in (2, 3, 5):
                assert matalg.spectral_radius(
                    np.linalg.matrix_power(P, k)
                ) == pytest.approx(rho**k, rel=1e-8, abs=1e-12)


class TestInverse:
    def test_roundtrip(self):
        rng = np.random.default_rng(11)
        A = rng.normal(size=(3, 3)) + 3 * np.eye(3)
        assert np.allclose(matalg.inverse(A) @ A, np.eye(3), atol=1e-12)

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            matalg.inverse([[1.0, 2.0], [2.0, 4.0]])

    def test_ill_conditioned_rejected(self):
        with pytest.raises(SingularMatrixError):
            matalg.inverse(np.diag([1.0, 1e-14]))


class TestPowerSequence:
    def test_values(self):
        P = rotation_half()
        powers = matalg.power_sequence(P, 5)
        assert powers.shape == (6, 2, 2)
        assert np.array_equal(powers[0], np.eye(2))
        assert np.allclose(powers[3], P @ P @ P, atol=1e-15)

    def test_overflow_names_max_exponent(self):
        with pytest.raises(RangeOverflowError, match="max supported exponent") as exc:
            matalg.power_sequence([[10.0]], 400)
        # The named exponent must itself be reachable.
        import re

        stated = int(re.search(r"is (\d+)", str(exc.value)).group(1))
        powers = matalg.power_sequence([[10.0]], stated)
        assert powers.shape[0] == stated + 1
        with pytest.raises(RangeOverflowError):
            matalg.power_sequence([[10.0]], stated + 1)

    def test_negative_count_rejected(self):
        with pytest.raises(InvalidInputError):
            matalg.power_sequence([[0.5]], -1)


def reference_row_norms(values):
    """Oracle: ``np.linalg.norm`` over the last axis, with the rows it
    overflows on rescaled by their largest magnitude."""
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(values, axis=-1)
        big = np.isinf(norms)
        if big.any():
            rows = values[big]
            top = np.abs(rows).max(axis=-1)
            scaled = top * np.linalg.norm(rows / top[:, None], axis=-1)
            norms[big] = np.where(np.isfinite(top), scaled, np.inf)
    return norms


# Signed zeros, subnormals, values whose squares overflow or underflow, and
# the non-finite values, beside arbitrary floats.
ROW_ENTRIES = st.one_of(
    st.sampled_from([
        0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-170, 3.0,
        1e154, -2e154, 1e200, 1.7976931348623157e308, np.inf, -np.inf, np.nan,
    ]),
    st.floats(allow_nan=True, allow_infinity=True),
)


class TestRowNorms:
    @settings(max_examples=200, deadline=None)
    @given(
        dim=st.integers(1, 9),
        rows=st.integers(1, 6),
        strided=st.booleans(),
        data=st.data(),
    )
    def test_bits_of_np_linalg_norm(self, dim, rows, strided, data):
        # d <= 7 sums coordinate by coordinate and d >= 8 calls numpy: both
        # must give numpy's bits, on contiguous and strided rows alike.  The
        # sign of a nan norm is unspecified (numpy's own changes with the
        # memory layout), so signs are compared where the norm is a number.
        flat = data.draw(st.lists(ROW_ENTRIES, min_size=2 * rows * dim,
                                  max_size=2 * rows * dim))
        values = np.array(flat).reshape(2, rows, dim)
        if strided:
            values = values.transpose(1, 0, 2)[:, ::-1]
        got, want = matalg.row_norms(values), reference_row_norms(values)
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)
        number = ~np.isnan(want)
        assert np.array_equal(np.signbit(got[number]), np.signbit(want[number]))

    @pytest.mark.parametrize("dim", range(1, 10))
    def test_random_rows_keep_plain_bits_at_every_dim(self, dim):
        # Full-mantissa values, where any change of summation order shows.
        rng = np.random.default_rng(dim)
        values = rng.standard_normal((300, 5, dim)) * 10.0 ** rng.integers(
            -8, 8, (300, 5, dim)
        )
        for layout in (values, values.transpose(1, 0, 2), np.asfortranarray(values)):
            assert np.array_equal(
                matalg.row_norms(layout), np.linalg.norm(layout, axis=-1)
            )

    def test_ordinary_rows_keep_plain_bits(self):
        values = np.random.default_rng(4).standard_cauchy((50, 7, 3)) * 1e100
        assert np.array_equal(
            matalg.row_norms(values), np.linalg.norm(values, axis=-1)
        )

    def test_huge_finite_rows_do_not_overflow(self):
        values = np.array([[1e200, 0.0], [3e200, -4e200], [-1e200, 1.0], [3.0, 4.0]])
        np.testing.assert_allclose(
            matalg.row_norms(values), [1e200, 5e200, 1e200, 5.0], rtol=1e-15
        )

    def test_true_overflow_and_nonfinite_rows_stay_plain(self):
        values = np.array([[1.5e308, 1.5e308], [np.inf, 1.0], [np.nan, 1e200]])
        norms = matalg.row_norms(values)
        assert norms[0] == np.inf and norms[1] == np.inf and np.isnan(norms[2])


class TestNormTable:
    def test_matches_oracle(self):
        table = matalg.norm_table(JORDAN, 40)
        assert table.shape == (41,)
        assert table[0] == 1.0
        assert np.allclose(table, oracle_norms(JORDAN, 40), rtol=1e-12)

    def test_scalar_exact(self):
        table = matalg.norm_table([[0.5]], 20)
        assert np.array_equal(table, 0.5 ** np.arange(21))


def holds(P, cert):
    """Replay of a certificate: the oracle's bound holds on [k0, horizon]."""
    return oracle_gelfand_k0(P, cert.horizon) <= cert.k0


class TestGelfandIndex:
    # Frozen from the brute-force oracle at horizon 512.
    FROZEN_K0 = [
        ([[0.5]], 1),
        (rotation_half(), 1),
        (JORDAN, 14),
        (COMPANION, 8),
        (np.diag([0.9, 0.1]), 1),
    ]

    @pytest.mark.parametrize("P,k0", FROZEN_K0)
    def test_frozen_values(self, P, k0):
        cert, _ = matalg.decay_certificate(P, 512)
        assert cert.k0 == k0
        assert cert.horizon == 512
        assert cert.ratio == pytest.approx((1 + matalg.spectral_radius(P)) / 2)

    def test_against_oracle_small_horizon(self):
        for P in (JORDAN, COMPANION):
            cert, _ = matalg.decay_certificate(P, 64)
            assert (cert.k0, cert.horizon) == (oracle_gelfand_k0(P, 64), 64)

    def test_expanding_matrix_rejected(self):
        for P in ([[1.0]], [[1.2, 0.0], [0.0, 0.3]]):
            with pytest.raises(HypothesisViolationError):
                matalg.decay_certificate(P)

    def test_horizon_exceeded(self):
        # The slow Jordan block's ratio bound has not set in anywhere
        # inside the largest horizon the search may grow to.
        miss = f"not reached within horizon {matalg.MAX_HORIZON}"
        with pytest.raises(HorizonExceededError, match=miss):
            matalg.decay_certificate([[0.9999, 1.0], [0.0, 0.9999]])

    def test_certificate_replay(self):
        cert, _ = matalg.decay_certificate(JORDAN, 512)
        assert holds(JORDAN, cert)
        # A claim stronger than reality must fail replay.
        too_strong = matalg.GelfandCertificate(
            rho=cert.rho, k0=max(1, cert.k0 - 4), horizon=cert.horizon
        )
        assert not holds(JORDAN, too_strong)


class TestDecayCertificate:
    def test_horizon_at_least_twice_k0(self):
        for P in ([[0.5]], JORDAN, COMPANION, np.diag([0.9, 0.1])):
            cert, norms = matalg.decay_certificate(P)
            assert cert.horizon >= 2 * cert.k0
            assert len(norms) == cert.horizon + 1
            assert holds(P, cert)

    @pytest.mark.parametrize(
        "lam,k0,horizon", [(0.95, 208, 416), (0.99, 1447, 2894)]
    )
    def test_grows_horizon_past_a_miss(self, lam, k0, horizon):
        # Slow Jordan blocks: the ratio bound has not set in anywhere inside
        # the default start horizon, so the horizon doubles until it does.
        P = np.array([[lam, 1.0], [0.0, lam]])
        assert oracle_gelfand_k0(P, 64) is None
        cert, norms = matalg.decay_certificate(P)
        assert (cert.k0, cert.horizon) == (k0, horizon)
        assert len(norms) == horizon + 1
        assert holds(P, cert)

    @pytest.mark.parametrize(
        "P,horizons",
        [([[0.5]], [64]), ([[0.95, 1.0], [0.0, 0.95]], [64, 128, 256, 416])],
    )
    def test_one_norm_table_per_scan(self, monkeypatch, P, horizons):
        # The returned table is the last scan's own: one power sequence per
        # horizon tried, none rebuilt for the return, values unchanged.
        calls = []
        original = matalg.power_sequence

        def counted(matrix, count):
            calls.append(count)
            return original(matrix, count)

        monkeypatch.setattr(matalg, "power_sequence", counted)
        cert, norms = matalg.decay_certificate(P)
        assert calls == horizons
        assert np.array_equal(norms, matalg.norm_table(P, cert.horizon))

    def test_horizon_growth_is_capped(self):
        with pytest.raises(HorizonExceededError, match=str(matalg.MAX_HORIZON)):
            matalg.decay_certificate([[0.99999, 1.0], [0.0, 0.99999]])


class TestTailBound:
    def test_dominates_true_tail(self):
        # True tail computed exhaustively far past the certified horizon.
        for P in (np.array([[0.5]]), JORDAN, np.diag([0.9, 0.1])):
            cert, norms = matalg.decay_certificate(P)
            full = oracle_norms(P, 2000)
            for r in (0, 1, 5, 20, 50):
                bound = matalg.tail_bound(norms, cert, r)
                truth = full[r + 1 :].sum()
                assert bound >= truth
                # The bound is exact through the horizon, so it cannot be
                # wildly loose either once past the transient.
                if r >= cert.k0:
                    assert bound <= truth + cert.ratio ** (cert.horizon + 1) / (
                        1 - cert.ratio
                    ) * 1.0001

    def test_scalar_exact_tail(self):
        # With a long horizon the geometric remainder is far below float
        # resolution and the head sum telescopes to 2^-r exactly.
        cert, norms = matalg.decay_certificate(np.array([[0.5]]), min_horizon=256)
        assert matalg.tail_bound(norms, cert, 10) == pytest.approx(2.0**-10, rel=1e-9)

    def test_squared_exponent(self):
        cert, norms = matalg.decay_certificate(np.array([[0.5]]))
        assert matalg.tail_bound(norms, cert, 4, exponent=2.0) == pytest.approx(
            sum(4.0**-j for j in range(5, 200)), rel=1e-10
        )

    def test_requires_margin(self):
        cert, norms = matalg.decay_certificate(JORDAN)
        thin = matalg.GelfandCertificate(
            rho=cert.rho, k0=cert.k0, horizon=2 * cert.k0 - 1
        )
        with pytest.raises(InvalidInputError):
            matalg.tail_bound(norms[: thin.horizon + 1], thin, 2)

    def test_rejects_bad_args(self):
        cert, norms = matalg.decay_certificate(JORDAN)
        with pytest.raises(InvalidInputError):
            matalg.tail_bound(norms, cert, -1)
        with pytest.raises(InvalidInputError):
            matalg.tail_bound(norms, cert, 2, exponent=0.0)
        with pytest.raises(InvalidInputError):
            matalg.tail_bound(norms[:-1], cert, 2)


class TestPsdSqrt:
    def test_reconstruction(self):
        rng = np.random.default_rng(17)
        for d in (1, 2, 4, 8):
            A = rng.normal(size=(d, d))
            V = A @ A.T
            root = matalg.psd_sqrt(V)
            assert np.allclose(root, root.T, atol=1e-14)
            err = np.linalg.norm(root @ root - V, ord=2)
            assert err <= 1e-9 * (1.0 + np.linalg.norm(V, ord=2))

    def test_identity(self):
        assert np.allclose(matalg.psd_sqrt(np.eye(3)), np.eye(3), atol=1e-14)

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidInputError):
            matalg.psd_sqrt([[1.0, 0.5], [0.0, 1.0]])

    def test_rejects_indefinite(self):
        with pytest.raises(InvalidInputError):
            matalg.psd_sqrt(np.diag([1.0, -0.5]))

    def test_clips_tiny_negatives(self):
        V = np.diag([1.0, -1e-15])
        root = matalg.psd_sqrt(V)
        assert root[1, 1] == 0.0


class TestMatrixJson:
    def test_roundtrip_lossless(self):
        # The literal config reads back into the same matrix, bit for bit.
        rows = [[0.4, -0.25], [0.25, 0.4]]
        back = config.matrix_from_json({"dim": 2, "rows": rows})
        assert np.array_equal(back, np.array(rows))

    def test_rejects_malformed(self):
        with pytest.raises(InvalidInputError):
            config.matrix_from_json({"rows": [[1.0]]})
        with pytest.raises(InvalidInputError):
            config.matrix_from_json({"dim": 2, "rows": [[1.0]]})
