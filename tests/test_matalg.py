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


# Independent oracle: powers by repeated matmul, norms by per-power SVD.
def oracle_norms(P, horizon):
    out = [1.0]
    M = np.eye(len(P))
    for _ in range(horizon):
        M = M @ P
        out.append(np.linalg.svd(M, compute_uv=False)[0])
    return np.array(out)


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

    @pytest.mark.parametrize("first_bad", [1, 255, 256, 257, 513])
    def test_first_overflow_across_block_edges(self, first_bad):
        # Powers are checked POWER_BLOCK at a time; the error still names
        # the first power past 1e300, wherever it falls in its block.
        a = 10.0 ** (300.5 / first_bad)
        match = f"exponent {first_bad}; max supported exponent for this matrix is"
        with pytest.raises(RangeOverflowError, match=match):
            matalg.power_sequence([[a]], 1000)
        assert matalg.power_sequence([[a]], first_bad - 1).shape == (first_bad, 1, 1)

    def test_jordan_block_overflow_exponent(self):
        with pytest.raises(RangeOverflowError, match="exponent 988; .* is 987$"):
            matalg.power_sequence([[2.0, 1.0], [0.0, 2.0]], 5000)

    def test_negative_count_rejected(self):
        with pytest.raises(InvalidInputError):
            matalg.power_sequence([[0.5]], -1)


# (lags, lanes) of the lag_contract tests: one lag, a certify-scaled
# segment, and more lags than einsum's 8192-element buffer, each from a lone
# lane to a full slice; 9000 lags of 326 lanes would take 375 MB at d = 16.
CONTRACT_SHAPES = [
    (lags, lanes) for lags in (1, 26, 9000) for lanes in (1, 2, 5, 326)
    if (lags, lanes) != (9000, 326)
]


def contract_operands(d, lags, lanes):
    """Coefficients ``(lags, d, d)``, a lane-major ``(lags, d, lanes)`` block
    and the same block as the first lanes of a wider buffer, whose other
    lanes are ``nan``."""
    rng = np.random.default_rng([d, lags, lanes])
    lag_major = rng.standard_normal((lags, d, d))
    block = rng.standard_normal((lags, d, lanes))
    wide = np.full((lags, d, lanes + 3), np.nan)
    wide[..., :lanes] = block
    return lag_major, block, wide[..., :lanes]


class TestLagContract:
    @pytest.mark.parametrize("lags, lanes", CONTRACT_SHAPES)
    @pytest.mark.parametrize("d", [2, 3, 8, 16])
    def test_bits_of_the_path_major_einsum(self, d, lags, lanes):
        # The report bits of every d >= 2 process and series value, before
        # the lanes moved innermost, came from this path-major einsum.
        lag_major, block, sliced = contract_operands(d, lags, lanes)
        rows = np.ascontiguousarray(block.transpose(2, 0, 1))
        want = np.einsum("jed,cje->cd", lag_major, rows)
        for lanes_in in (block, sliced):
            got = matalg.lag_contract(lag_major, lanes_in)
            assert got.shape == (d, lanes)
            assert got.T.tobytes() == want.tobytes()

    @pytest.mark.parametrize("lags, lanes", CONTRACT_SHAPES)
    def test_one_coordinate_sums_each_lane_in_lag_order(self, lags, lanes):
        # At d = 1 the path-major einsum sums a row in an order that depends
        # on its strides, so the oracle is the plain running sum from +0.0.
        lag_major, block, sliced = contract_operands(1, lags, lanes)
        want = np.zeros(lanes)
        for j in range(lags):
            want = want + lag_major[j, 0, 0] * block[j, 0]
        for lanes_in in (block, sliced):
            assert matalg.lag_contract(lag_major, lanes_in)[0].tobytes() == (
                want.tobytes()
            )


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


def replays(P, cert, upto):
    """Replay of a certificate against the oracle's norms through ``upto``:
    ``q`` is the norm at the horizon, and every ``|P^(mH+i)|`` is at most
    ``q^m |P^i|``, up to rounding."""
    norms, H = oracle_norms(P, upto), cert.horizon
    if norms[H] != pytest.approx(cert.q, rel=1e-9, abs=1e-300):
        return False
    j = np.arange(H, upto + 1)
    bound = cert.q ** (j // H) * norms[j % H]
    return bool(np.all(norms[j] <= bound * (1 + 1e-9) + 1e-300))


class TestGelfandIndex:
    # Gelfand's formula |P^k|^(1/k) -> rho < 1 promises a power with norm
    # below 1, but for a slow Jordan block it comes only past the cap.
    def test_horizon_exceeded(self):
        P = [[0.9999, 1.0], [0.0, 0.9999]]
        assert matalg.norm_table(P, matalg.MAX_HORIZON)[-1] >= 1.0
        with pytest.raises(HorizonExceededError, match=str(matalg.MAX_HORIZON)):
            matalg.decay_certificate(P)


class TestDecayCertificate:
    # Frozen: each matrix's horizon at the default tol.  There the oracle's
    # norms must give a remainder q / (1 - q) * sum_{i<H} |P^i| <= 1e-12.
    FROZEN_HORIZON = [
        ([[0.5]], 64),
        (rotation_half(), 64),
        (JORDAN, 64),
        (COMPANION, 64),
        (np.diag([0.9, 0.1]), 526),
    ]

    @pytest.mark.parametrize("P,horizon", FROZEN_HORIZON)
    def test_frozen_horizons(self, P, horizon):
        cert, norms = matalg.decay_certificate(P)
        assert cert.horizon == horizon and cert.q == norms[horizon]
        oracle = oracle_norms(P, horizon)
        assert oracle[horizon] / (1 - oracle[horizon]) * oracle[:horizon].sum() <= 1e-12
        assert replays(P, cert, 3 * horizon)

    def test_stronger_claim_fails_replay(self):
        cert, _ = matalg.decay_certificate(JORDAN)
        assert replays(JORDAN, cert, 200)
        too_strong = matalg.DecayCertificate(horizon=cert.horizon, q=cert.q / 2)
        assert not replays(JORDAN, too_strong, 200)

    def test_expanding_matrix_rejected(self):
        for P in ([[1.0]], [[1.2, 0.0], [0.0, 0.3]]):
            with pytest.raises(HypothesisViolationError):
                matalg.decay_certificate(P)

    def test_horizon_growth_is_capped(self):
        # rho < 1, but the slow Jordan block's transient still holds
        # |P^H| >= 1 at the largest horizon the search may grow to.
        P = [[0.99999, 1.0], [0.0, 0.99999]]
        assert matalg.norm_table(P, matalg.MAX_HORIZON)[-1] >= 1.0
        with pytest.raises(HorizonExceededError, match=str(matalg.MAX_HORIZON)):
            matalg.decay_certificate(P)

    def test_any_q_below_one_certifies_at_the_cap(self):
        # At the cap the remainder stays above 1e-12 * tol, but q < 1 holds.
        cert, norms = matalg.decay_certificate(np.diag([0.999, 0.5]), 1e-3)
        assert cert.horizon == matalg.MAX_HORIZON
        assert cert.q / (1 - cert.q) * norms[:-1].sum() > 1e-15

    @pytest.mark.parametrize(
        "P,horizons",
        [
            ([[0.5]], [64]),
            ([[0.95, 1.0], [0.0, 0.95]], [539, 1078]),
            (np.diag([0.9, 0.1]), [263, 526]),
        ],
    )
    def test_one_norm_table_per_scan(self, monkeypatch, P, horizons):
        # The search starts at max(64, ceil(log(1e-12) / log rho)), where
        # rho^h alone already reaches 1e-12, and doubles; the returned
        # table is the last horizon's own, none rebuilt for the return.
        calls = []
        original = matalg.power_sequence

        def counted(matrix, count):
            calls.append(count)
            return original(matrix, count)

        monkeypatch.setattr(matalg, "power_sequence", counted)
        cert, norms = matalg.decay_certificate(P)
        start = int(np.ceil(np.log(1e-12) / np.log(matalg.spectral_radius(P))))
        assert calls[0] == max(64, start)
        assert calls == horizons
        assert np.array_equal(norms, matalg.norm_table(P, cert.horizon))

    def test_tiny_tol_does_not_underflow(self):
        # 1e-12 * 5e-324 underflows to zero; the remainder is compared in logs.
        cert, norms = matalg.decay_certificate(np.diag([0.5, 0.1]), 5e-324)
        assert cert.horizon == 1114 and cert.q == 0.0

    def test_rejects_bad_tol_and_certificates(self):
        for tol in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(InvalidInputError):
                matalg.decay_certificate(JORDAN, tol)
        for horizon, q in ((0, 0.5), (4, 1.0), (4, -0.1), (4, np.nan)):
            with pytest.raises(InvalidInputError):
                matalg.DecayCertificate(horizon=horizon, q=q)

    def test_json_names_horizon_and_q(self):
        cert, _ = matalg.decay_certificate(JORDAN)
        assert cert.to_json() == {"horizon": cert.horizon, "q": cert.q}


class TestTailBound:
    def test_dominates_true_tail(self):
        # True tail computed exhaustively far past the certified horizon.
        for P in (np.array([[0.5]]), JORDAN, np.diag([0.9, 0.1])):
            cert, norms = matalg.decay_certificate(P)
            full = oracle_norms(P, 2000)
            rest = cert.q / (1 - cert.q) * norms[: cert.horizon].sum()
            for r in (0, 1, 5, 20, 50):
                bound = matalg.tail_bound(norms, cert, r)
                truth = full[r + 1 :].sum()
                assert bound >= truth
                # The bound is exact through the horizon, so it cannot be
                # loose by more than the certified remainder.
                assert bound <= truth + rest * 1.0001 + 1e-15 * truth

    def test_past_the_horizon_keeps_shrinking(self):
        # For r past the horizon the bound is q^m / (1 - q) * sum_{i<H}|P^i|,
        # m = (r + 1) // H: it still dominates the true tail and falls with m.
        P = np.array([[0.97, 1.0], [0.0, 0.97]])
        cert, norms = matalg.decay_certificate(P)
        H = cert.horizon
        full = oracle_norms(P, 5 * H)
        S = norms[:H].sum()
        last = np.inf
        for r in (H - 1, H, 2 * H - 2, 2 * H - 1, 3 * H + 5):
            bound = matalg.tail_bound(norms, cert, r)
            m = max(1, (r + 1) // H)
            assert bound == pytest.approx(cert.q**m / (1 - cert.q) * S, rel=1e-12)
            assert bound >= full[r + 1 :].sum()
            assert bound <= last
            last = bound
        assert matalg.tail_bound(norms, cert, 2 * H - 1) < matalg.tail_bound(
            norms, cert, 2 * H - 2
        )

    def test_scalar_exact_tail(self):
        # The remainder is far below float resolution and the head sum
        # telescopes to 2^-r exactly.
        cert, norms = matalg.decay_certificate(np.array([[0.5]]))
        assert matalg.tail_bound(norms, cert, 10) == pytest.approx(2.0**-10, rel=1e-9)

    def test_squared_exponent(self):
        cert, norms = matalg.decay_certificate(np.array([[0.5]]))
        assert matalg.tail_bound(norms, cert, 4, exponent=2.0) == pytest.approx(
            sum(4.0**-j for j in range(5, 200)), rel=1e-10
        )

    def test_q_a_few_ulps_below_one_stays_finite(self):
        # q^0.5 rounds to 1 here; 1 - q^e is taken as -expm1(e log q).
        q = np.nextafter(1.0, 0.0)
        cert = matalg.DecayCertificate(horizon=1, q=q)
        bound = matalg.tail_bound(np.array([1.0, q]), cert, 0, exponent=0.5)
        assert np.isfinite(bound) and bound > 1e16

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
