"""Process variants: path construction, scaling identities, ensembles.

The load-bearing checks are algebraic identities (the scaled increment is
the drawn noise; ensemble rows are pure functions of their stream address)
plus a couple of frozen distributional facts for the explosive case.
"""

import csv
import tracemalloc

import numpy as np
import pytest

from stablemix import cli, config, laws, processes, series, streams
from stablemix.config import process_from_json
from stablemix.errors import (
    HypothesisViolationError,
    InvalidInputError,
    RangeOverflowError,
)
from stablemix.processes import (
    DiscreteFactor,
    ExplosiveVar,
    RandomScaled,
    SyntheticCanonical,
    simulate_ensemble,
    simulate_path,
    write_paths_csv,
)


def checkpoint_scaled(spec, path, checkpoints):
    """Literal ``(n, B_n U_n, Q_n U_n)`` of one path of ``spec`` at each
    checkpoint."""
    out = []
    length = len(path.U) - 1
    for n in checkpoints:
        n = int(n)
        if not (1 <= n <= length):
            raise InvalidInputError(
                f"checkpoint {n} outside the simulated range 1..{length}"
            )
        qu = np.linalg.matrix_power(spec.P, n) @ path.U[n]
        bu = (1.0 / spec.b_divisor(n)[path.atom]) * qu
        out.append((n, bu, qu))
    return out


def rotation_half():
    c, s = np.cos(np.pi / 6), np.sin(np.pi / 6)
    return 0.5 * np.array([[c, -s], [s, c]])


def row_width(spec, n):
    """Uniforms in one path's stream row of length ``n``: the latent
    uniform, when the spec draws an atom, then ``n`` noise draws."""
    return spec.latent_uniforms + n * spec.noise_law.uniforms_per_draw


class _RowRng:
    """Stub generator handing out one fixed uniform row; lets a stream row
    be replayed through simulate_path."""

    def __init__(self, row):
        self.row = np.asarray(row)

    def random(self, size=None):
        assert size == self.row.size
        return self.row.copy()


def all_specs():
    law2 = laws.NormalLaw(np.eye(2))
    return [
        SyntheticCanonical(rotation_half(), law2),
        RandomScaled(rotation_half(), law2, [1.0, 2.0], [0.5, 0.5]),
        DiscreteFactor(rotation_half(), law2, [np.eye(2), 2.0 * np.eye(2)], [0.5, 0.5]),
        ExplosiveVar(2.0 * np.eye(2), law2),
    ]


class TestConstruction:
    def test_rejects_expanding_contraction(self):
        with pytest.raises(HypothesisViolationError):
            SyntheticCanonical(np.eye(2), laws.NormalLaw(np.eye(2)))

    def test_rejects_law_dim_mismatch(self):
        with pytest.raises(InvalidInputError):
            SyntheticCanonical(rotation_half(), laws.NormalLaw(np.eye(3)))

    def test_random_scaled_validation(self):
        law = laws.NormalLaw(np.eye(1))
        P = np.array([[0.5]])
        with pytest.raises(InvalidInputError):
            RandomScaled(P, law, [0.0, 1.0], [0.5, 0.5])
        with pytest.raises(InvalidInputError):
            RandomScaled(P, law, [1.0, 2.0], [0.7, 0.7])
        with pytest.raises(InvalidInputError):
            RandomScaled(P, law, [1.0, 2.0], [0.5, 0.5], event_values=[3.0])
        with pytest.raises(InvalidInputError):
            RandomScaled(P, law, [1.0], [1.0], perturbation=-1.0)
        # lam + perturbation/n must not vanish at any step: -0.5 + 1/2 = 0
        # and -0.25 + 0.75/3 = 0.
        for lam, perturbation in ((-0.5, 1.0), (-0.25, 0.75)):
            with pytest.raises(HypothesisViolationError, match="vanishes for atom 1"):
                RandomScaled(P, law, [1.0, lam], [0.5, 0.5], perturbation=perturbation)
        # Steps next to p/-lam where it does not vanish in floats, and a
        # p/-lam past the float range.
        for lam, perturbation in ((-0.3, 1.0), (-0.1, 0.3), (-1e-300, 1e300)):
            spec = RandomScaled(P, law, [lam], [1.0], perturbation=perturbation)
            assert (spec.b_divisor(np.arange(1.0, 10.0)) != 0.0).all()

    def test_discrete_factor_validation(self):
        law = laws.NormalLaw(np.eye(2))
        with pytest.raises(InvalidInputError):
            DiscreteFactor(rotation_half(), law, [np.eye(2)], [0.9])

    def test_explosive_requires_all_eigenvalues_outside(self):
        law = laws.NormalLaw(np.eye(2))
        with pytest.raises(HypothesisViolationError):
            ExplosiveVar(np.diag([2.0, 1.0]), law)
        with pytest.raises(HypothesisViolationError):
            ExplosiveVar(np.diag([2.0, 0.5]), law)

    def test_explosive_contraction_is_inverse(self):
        A = np.array([[2.0, 1.0], [0.0, 3.0]])
        spec = ExplosiveVar(A, laws.NormalLaw(np.eye(2)))
        assert np.allclose(spec.P @ A, np.eye(2), atol=1e-12)


# Each variant at d = 1, built on a given noise law.
VARIANTS = {
    "canonical": lambda law: SyntheticCanonical([[0.5]], law),
    "random-scaled": lambda law: RandomScaled([[0.5]], law, [1.0, 2.0], [0.5, 0.5]),
    "discrete-factor": lambda law: DiscreteFactor(
        [[0.5]], law, [[[1.0]], [[2.0]]], [0.5, 0.5]
    ),
    "explosive": lambda law: ExplosiveVar([[2.0]], law),
}
# A 1-D config object for every law tag.
LAW_OBJECTS = {
    "normal": {"law": "normal", "cov": [[1.0]]},
    "cauchy": {"law": "cauchy", "dim": 1},
    "stable": {"law": "stable", "alpha": 1.5, "atoms": [[1.0]], "weights": [1.0]},
    "empirical": {"law": "empirical", "pool": [[1.0], [-2.0]]},
    "log-cauchy-ray": {"law": "log-cauchy-ray"},
}


class TestLogMoment:
    """Condition (ii) holds in closed form because every spec's noise law
    has a finite log-moment: each law declares it, and a spec refuses a
    law without one."""

    @pytest.mark.parametrize("variant", list(VARIANTS))
    def test_variants_refuse_infinite_log_moment(self, variant):
        with pytest.raises(HypothesisViolationError, match="infinite log-moment"):
            VARIANTS[variant](laws.LogCauchyRay(1))
        assert VARIANTS[variant](laws.NormalLaw(np.eye(1))).dim == 1

    @pytest.mark.parametrize("tag", list(config.LAWS))
    def test_every_law_declares_its_log_moment(self, tag):
        law = config.law_from_json(LAW_OBJECTS[tag], allow_diagnostic=True)
        assert law.log_moment_finite is (tag != "log-cauchy-ray")

    def test_lemma_still_takes_the_ray(self):
        cfg = {
            "schema_version": 1, "seed": 0, "P": {"dim": 1, "rows": [[0.5]]},
            "law": LAW_OBJECTS["log-cauchy-ray"], "J": 8, "n_paths": 16,
        }
        with pytest.raises(InvalidInputError, match="allow_diagnostic"):
            cli.validate_config("lemma", cfg)
        values = cli.validate_config("lemma", {**cfg, "allow_diagnostic": True})
        assert not values["law"].log_moment_finite
        diag = series.lemma_diagnostics(
            values["P"], values["law"], values["J"], values["n_paths"], seed=0
        )
        assert diag.n_paths == 16


class TestUniformBudget:
    def test_per_path_counts(self):
        # The draw route reads each path's row of the stream at its address:
        # the latent uniform, when the spec draws an atom, then n draws.
        law2 = laws.NormalLaw(np.eye(2))
        stable = laws.StableLaw(
            1.5,
            laws.SpectralMeasure(np.eye(2), np.array([0.5, 0.5])),
        )
        cases = (
            (SyntheticCanonical(rotation_half(), law2), 10, 20),
            (RandomScaled(rotation_half(), law2, [1.0], [1.0]), 10, 21),
            (SyntheticCanonical(rotation_half(), stable), 3, 12),
        )
        for spec, n, width in cases:
            assert row_width(spec, n) == width
            law, lead = spec.noise_law, spec.latent_uniforms
            u = streams.uniform_block(9, streams.STREAM_PROCESS, 5, 1, width)
            ((rows, v, z),) = law.draws(9, streams.STREAM_PROCESS, 5, 1, n, lead)
            assert rows == slice(0, 1)
            assert np.array_equal(v, u[:, :lead])
            assert np.array_equal(z, law.from_uniforms(u[:, lead:].reshape(1, n, -1)))


class TestSimulatePath:
    def test_starts_at_zero(self):
        for spec in all_specs():
            path = simulate_path(spec, 8, np.random.default_rng(1))
            assert np.array_equal(path.U[0], np.zeros(2))
            assert path.U.shape == (9, 2)

    def test_scaled_increment_is_transformed_noise(self):
        # B_n (U_n - U_{n-1}) recovers the transformed increment exactly:
        # the path is built so the n-th scaled step is the drawn noise.
        spec = SyntheticCanonical(rotation_half(), laws.NormalLaw(np.eye(2)))
        seed_rng = np.random.default_rng(5)
        u = seed_rng.random(row_width(spec, 12))
        path = simulate_path(spec, 12, _RowRng(u))
        W = spec.noise_law.from_uniforms(u.reshape(12, 2))
        for n in range(1, 13):
            Pn = np.linalg.matrix_power(spec.P, n)
            scaled_step = Pn @ (path.U[n] - path.U[n - 1])
            assert np.allclose(scaled_step, W[n - 1], atol=1e-10)

    def test_explosive_recursion_holds(self):
        # U_k - A U_{k-1} is the k-th noise draw of the path's stream row.
        A = np.array([[2.0, 0.5], [0.0, 2.5]])
        spec = ExplosiveVar(A, laws.NormalLaw(np.eye(2)))
        u = streams.uniform_block(3, streams.STREAM_PROCESS, 5, 1, 20)[0]
        path = simulate_path(spec, 10, _RowRng(u))
        eps = spec.noise_law.from_uniforms(u.reshape(10, 2))
        for k in range(1, 11):
            np.testing.assert_allclose(
                path.U[k] - A @ path.U[k - 1], eps[k - 1], rtol=1e-9, atol=1e-9
            )

    def test_canonical_overflow_names_limit(self):
        spec = SyntheticCanonical(np.array([[0.5]]), laws.NormalLaw(np.eye(1)))
        with pytest.raises(RangeOverflowError):
            simulate_path(spec, 1100, np.random.default_rng(0))

    def test_canonical_state_overflow_raises(self):
        # P^-n stays in range while U_n = P^-n Q_n U_n does not.
        spec = SyntheticCanonical(np.array([[0.5]]), laws.EmpiricalLaw([[1e10]]))
        with pytest.raises(RangeOverflowError):
            simulate_path(spec, 996, np.random.default_rng(0))

    def test_explosive_overflow_raises(self):
        spec = ExplosiveVar(np.array([[2.0]]), laws.NormalLaw(np.eye(1)))
        with pytest.raises(RangeOverflowError):
            simulate_path(spec, 1100, np.random.default_rng(0))

    def test_rejects_zero_length(self):
        spec = SyntheticCanonical(rotation_half(), laws.NormalLaw(np.eye(2)))
        with pytest.raises(InvalidInputError):
            simulate_path(spec, 0, np.random.default_rng(0))


class TestCheckpointScaled:
    def test_canonical_identity(self):
        spec = SyntheticCanonical(rotation_half(), laws.NormalLaw(np.eye(2)))
        path = simulate_path(spec, 10, np.random.default_rng(7))
        for n, bu, qu in checkpoint_scaled(spec, path, [3, 10]):
            expected = np.linalg.matrix_power(spec.P, n) @ path.U[n]
            assert np.allclose(bu, expected, atol=1e-12)
            assert np.allclose(qu, expected, atol=1e-12)

    def test_random_scaled_undoes_latent(self):
        spec = RandomScaled(
            rotation_half(), laws.NormalLaw(np.eye(2)), [2.0], [1.0]
        )
        path = simulate_path(spec, 6, np.random.default_rng(11))
        assert spec.atom_scale[path.atom] == 2.0
        (n, bu, qu), = checkpoint_scaled(spec, path, [6])
        # Q keeps the latent scale, B removes it.
        assert np.allclose(qu, 2.0 * bu, atol=1e-12)

    def test_out_of_range_checkpoint(self):
        spec = SyntheticCanonical(rotation_half(), laws.NormalLaw(np.eye(2)))
        path = simulate_path(spec, 5, np.random.default_rng(0))
        with pytest.raises(InvalidInputError):
            checkpoint_scaled(spec, path, [6])
        with pytest.raises(InvalidInputError):
            checkpoint_scaled(spec, path, [0])


class TestEnsemble:
    def test_row_addressing_matches_path_replay(self):
        # Ensemble row i replayed through simulate_path from its stream row
        # gives the same checkpoint values over a long horizon.
        for spec in all_specs():
            ens = simulate_ensemble(spec, [25, 100], 32, seed=23)
            per = row_width(spec, 100)
            for i in (0, 7, 31):
                u = streams.uniform_block(23, streams.STREAM_PROCESS, i, 1, per)[0]
                path = simulate_path(spec, 100, _RowRng(u))
                tol = {"rtol": 1e-12, "atol": 1e-12, "err_msg": type(spec).__name__}
                for n, bu, qu in checkpoint_scaled(spec, path, [25, 100]):
                    np.testing.assert_allclose(bu, ens.bu[n][i], **tol)
                    np.testing.assert_allclose(qu, ens.qu[n][i], **tol)

    def test_values_past_float_range_raise(self):
        pool = [[1.5e308, 0.0], [1.5e308, 1.0]]
        spec = SyntheticCanonical(0.5 * np.eye(2), laws.EmpiricalLaw(pool))
        with pytest.raises(RangeOverflowError, match="left the float range"):
            simulate_ensemble(spec, [5, 10], 100, seed=1, workers=2)

    def test_b_scaling_past_float_range_raises(self):
        # Q_2 U_2 is finite; dividing it by b_divisor(2) = -0.5 + (1 + eps)/2
        # = eps/2 is not.
        spec = RandomScaled(
            0.5 * np.eye(1), laws.EmpiricalLaw([[1e300]]), [-0.5], [1.0],
            perturbation=1.0 + 2.0**-52,
        )
        with pytest.raises(RangeOverflowError, match="left the float range"):
            simulate_ensemble(spec, [2], 10, seed=1)

    def test_worker_invariance_bitwise(self):
        spec = RandomScaled(
            rotation_half(), laws.CauchyLaw(2), [1.0, 2.0], [0.5, 0.5]
        )
        a = simulate_ensemble(spec, [3, 7], 20_000, seed=31, workers=1)
        b = simulate_ensemble(spec, [3, 7], 20_000, seed=31, workers=8)
        for n in (3, 7):
            assert np.array_equal(a.bu[n], b.bu[n])
            assert np.array_equal(a.qu[n], b.qu[n])
        assert np.array_equal(a.atom, b.atom)
        assert np.array_equal(a.noise_prefix, b.noise_prefix)

    def test_kernel_peak_memory_on_one_chunk(self):
        # The random-scaled spec on one full chunk: each slice of uniforms
        # is mapped to noise, cut to its prefix, transformed and contracted
        # in place, so the kernel holds a few slices and no (count, n, d)
        # array; its peak does not grow with n.  tracemalloc sees numpy's
        # data buffers; the caller owns the output arrays the kernel fills.
        spec = RandomScaled(rotation_half(), laws.NormalLaw(np.eye(2)),
                            [1.0, 2.0], [0.5, 0.5])
        count = streams.CHUNK_PATHS
        for n in (100, 400):
            checkpoints = (n // 4, n // 2, 3 * n // 4, n)
            draws = spec.noise_law.draws(
                3, streams.STREAM_PROCESS, 0, count, n, spec.latent_uniforms
            )
            qu = np.empty((len(checkpoints), count, spec.dim))
            atom = np.empty(count, dtype=np.intp)
            prefix = np.empty((count, processes.PREFIX_KEEP, spec.dim))
            tracemalloc.start()
            try:
                processes._scaled_rows(spec, draws, checkpoints, qu, atom, prefix)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 4 * 2**20, n

    def test_lone_row_of_a_long_segment_bitwise(self):
        # At d = 1 and more than 8192 lags, einsum sums a lone lane in
        # another order than two or more.  A 9000-step row is three paths to
        # a slice, so path 4096 is a lone lane at 4097 paths and shares its
        # slice at 4100; matalg.lag_contract keeps one order.
        spec = SyntheticCanonical(np.array([[0.9999]]), laws.NormalLaw(np.eye(1)))
        a = simulate_ensemble(spec, [9000], 4097, seed=5)
        b = simulate_ensemble(spec, [9000], 4100, seed=5)
        assert a.qu[9000][4096].tobytes() == b.qu[9000][4096].tobytes()

    def test_growth_keeps_prefix(self):
        spec = SyntheticCanonical(rotation_half(), laws.NormalLaw(np.eye(2)))
        small = simulate_ensemble(spec, [5], 300, seed=2)
        large = simulate_ensemble(spec, [5], 9000, seed=2)
        assert np.array_equal(small.bu[5], large.bu[5][:300])

    def test_random_scaled_latent_structure(self):
        spec = RandomScaled(
            np.array([[0.5]]), laws.NormalLaw(np.eye(1)), [1.0, 2.0], [0.5, 0.5],
            event_values=[2.0],
        )
        ens = simulate_ensemble(spec, [6], 5000, seed=3)
        lam = spec.atom_scale[ens.atom]
        assert set(np.unique(lam)) == {1.0, 2.0}
        assert np.array_equal(ens.in_g, lam == 2.0)
        assert np.allclose(ens.qu[6], ens.bu[6] * lam[:, None], atol=1e-12)
        # Atom frequencies near one half.
        assert abs((lam == 1.0).mean() - 0.5) < 0.03

    def test_discrete_factor_latent_structure(self):
        spec = DiscreteFactor(
            np.array([[0.5]]), laws.NormalLaw(np.eye(1)),
            [np.eye(1), 2.0 * np.eye(1)], [0.25, 0.75],
        )
        ens = simulate_ensemble(spec, [6], 8000, seed=5)
        assert set(np.unique(ens.atom)) <= {0, 1}
        assert abs((ens.atom == 1).mean() - 0.75) < 0.03
        assert spec.atom_scale is None

    def test_noise_prefix_matches_stream(self):
        spec = SyntheticCanonical(rotation_half(), laws.NormalLaw(np.eye(2)))
        ens = simulate_ensemble(spec, [4], 10, seed=13)
        per = row_width(spec, 4)
        u = streams.uniform_block(13, streams.STREAM_PROCESS, 0, 10, per)
        W = spec.noise_law.from_uniforms(u.reshape(10, 4, 2))
        assert np.array_equal(ens.noise_prefix, W[:, :2])

    def test_explosive_variance_frozen(self):
        # d=1, A=2: Var(B_n U_n) = (1 - 4^-n)/3; at n=30 that is 1/3 to
        # machine precision.
        spec = ExplosiveVar(np.array([[2.0]]), laws.NormalLaw(np.eye(1)))
        ens = simulate_ensemble(spec, [30], 30_000, seed=41)
        assert ens.bu[30][:, 0].var() == pytest.approx(0.3333333333333333, abs=0.02)

    def test_qu_norm_stays_bounded(self):
        # Stochastic boundedness across checkpoints: the upper-percentile
        # norm neither grows nor collapses.
        spec = SyntheticCanonical(rotation_half(), laws.NormalLaw(np.eye(2)))
        ens = simulate_ensemble(spec, [5, 10, 20, 40], 10_000, seed=43)
        q95 = [
            np.percentile(np.linalg.norm(ens.qu[n], axis=1), 95)
            for n in ens.checkpoints
        ]
        assert max(q95) / min(q95) < 1.2

    def test_arrays_are_read_only(self):
        # One ensemble serves several CLI commands, so none may write to it.
        spec = RandomScaled(
            rotation_half(), laws.NormalLaw(np.eye(2)), [1.0, 2.0], [0.5, 0.5],
            event_values=[2.0],
        )
        ens = simulate_ensemble(spec, [3, 6], 5000, seed=7, workers=2)
        arrays = [ens.bu[3], ens.bu[6], ens.qu[3], ens.qu[6], ens.atom,
                  ens.noise_prefix]
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[1]
        # in_g is derived from the atoms, so a write to it cannot reach them.
        mask = ens.in_g
        mask[:] = ~mask
        assert np.array_equal(ens.in_g, spec.atom_in_g[ens.atom])

    def test_values_stored_once(self):
        # Membership is a function of the atom for every variant.  Without
        # atom scales B_n U_n and Q_n U_n are one array; with them B_n U_n
        # is Q_n U_n divided by the path's B divisor, bit for bit, formed
        # each time it is read, so the ensemble holds no second copy.
        for spec in all_specs() + [
            RandomScaled(
                rotation_half(), laws.NormalLaw(np.eye(2)), [1.0, 2.0],
                [0.5, 0.5], event_values=[2.0], perturbation=0.3,
            )
        ]:
            ens = simulate_ensemble(spec, [3, 6], 500, seed=17)
            assert np.array_equal(ens.in_g, spec.atom_in_g[ens.atom])
            for n in (3, 6):
                shared = ens.bu[n] is ens.qu[n]
                assert shared == (spec.atom_scale is None), type(spec).__name__
                assert shared or ens.bu[n] is not ens.bu[n]
                divisor = spec.b_divisor(n)[ens.atom][:, None]
                assert ens.bu[n].tobytes() == (ens.qu[n] / divisor).tobytes()

    def test_validates_checkpoints(self):
        spec = SyntheticCanonical(rotation_half(), laws.NormalLaw(np.eye(2)))
        with pytest.raises(InvalidInputError):
            simulate_ensemble(spec, [0, 5], 10, seed=0)
        with pytest.raises(InvalidInputError):
            simulate_ensemble(spec, [], 10, seed=0)
        with pytest.raises(InvalidInputError):
            simulate_ensemble(spec, [5], 0, seed=0)


P_ROWS = [[0.4, -0.25], [0.25, 0.4]]
NORMAL2 = {"law": "normal", "cov": [[1.0, 0.0], [0.0, 1.0]]}


def literal_configs():
    """Each variant's literal JSON config beside the spec built directly
    from the same numbers."""
    P, law2 = np.array(P_ROWS), laws.NormalLaw(np.eye(2))
    matrix = {"dim": 2, "rows": P_ROWS}
    return [
        (
            {"variant": "synthetic-canonical", "P": matrix, "noise": NORMAL2},
            SyntheticCanonical(P, law2),
        ),
        (
            {
                "variant": "random-scaled", "P": matrix, "noise": NORMAL2,
                "lam_values": [2.0, 0.5, 1.0], "lam_probs": [0.3, 0.3, 0.4],
                "event_values": [2.0, 1.0], "perturbation": 0.3,
            },
            RandomScaled(
                P, law2, [2.0, 0.5, 1.0], [0.3, 0.3, 0.4],
                event_values=[2.0, 1.0], perturbation=0.3,
            ),
        ),
        (
            {
                "variant": "discrete-factor", "P": matrix, "noise": NORMAL2,
                "factors": [
                    {"dim": 2, "rows": [[1.0, 0.0], [0.0, 1.0]]},
                    {"dim": 2, "rows": [[2.0, 0.5], [0.0, 1.0]]},
                ],
                "factor_probs": [0.25, 0.75],
            },
            DiscreteFactor(
                P, law2, [np.eye(2), np.array([[2.0, 0.5], [0.0, 1.0]])], [0.25, 0.75]
            ),
        ),
        (
            {
                "variant": "explosive-var",
                "A": {"dim": 2, "rows": [[2.0, 1.0], [0.0, 2.0]]}, "noise": NORMAL2,
            },
            ExplosiveVar(np.array([[2.0, 1.0], [0.0, 2.0]]), law2),
        ),
    ]


class TestJsonRoundtrip:
    @pytest.mark.parametrize(
        "obj, spec",
        [pytest.param(o, s, id=type(s).__name__) for o, s in literal_configs()],
    )
    def test_roundtrip_preserves_simulation(self, obj, spec):
        # A literal config reads back into the spec built directly, bit for
        # bit in every simulated value.
        back = process_from_json(obj)
        assert type(back) is type(spec)
        a = simulate_ensemble(spec, [4], 64, seed=9)
        b = simulate_ensemble(back, [4], 64, seed=9)
        assert np.array_equal(a.bu[4], b.bu[4])
        assert np.array_equal(a.qu[4], b.qu[4])
        assert np.array_equal(a.atom, b.atom)
        assert np.array_equal(a.in_g, b.in_g)

    def test_rejects_unknown_variant(self):
        with pytest.raises(InvalidInputError):
            process_from_json({"variant": "mystery"})

    def test_missing_key_is_input_error_not_keyerror(self):
        matrix = {"dim": 2, "rows": P_ROWS}
        with pytest.raises(InvalidInputError, match="requires key 'noise'"):
            process_from_json({"variant": "synthetic-canonical", "P": matrix})
        with pytest.raises(InvalidInputError, match="requires key 'lam_values'"):
            process_from_json(
                {"variant": "random-scaled", "P": matrix, "noise": NORMAL2}
            )


class TestPathsCsv:
    def test_layout(self, tmp_path):
        spec = RandomScaled(
            rotation_half(), laws.NormalLaw(np.eye(2)), [1.0, 2.0], [0.5, 0.5]
        )
        ens = simulate_ensemble(spec, range(1, 5), 2, seed=0)
        out = tmp_path / "paths.csv"
        write_paths_csv(out, ens)
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:5] == ["path_id", "step", "in_g", "lam", "s_index"]
        assert len(rows) == 1 + 2 * 5
        assert rows[1][1] == "0"
        assert float(rows[1][5]) == 0.0
        lam = spec.atom_scale[ens.atom]
        assert [float(r[3]) for r in rows[1::5]] == lam.tolist()

    def test_trajectory_is_ensemble_row(self, tmp_path):
        # U_k = P^-k Q_k U_k of ensemble row i, and the same state as
        # simulate_path replaying that row.
        for spec in all_specs():
            ens = simulate_ensemble(spec, range(1, 9), 3, seed=4)
            out = tmp_path / "paths.csv"
            write_paths_csv(out, ens)
            table = np.loadtxt(out, delimiter=",", skiprows=1, usecols=(5, 6))
            per = row_width(spec, 8)
            for i in range(3):
                u = streams.uniform_block(4, streams.STREAM_PROCESS, i, 1, per)[0]
                path = simulate_path(spec, 8, _RowRng(u))
                assert np.array_equal(table[9 * i : 9 * (i + 1)], path.U)
                for k in (3, 8):
                    np.testing.assert_allclose(
                        np.linalg.matrix_power(spec.P, k) @ path.U[k],
                        ens.qu[k][i], rtol=1e-12, atol=1e-12,
                    )

    def test_needs_every_step(self, tmp_path):
        spec = SyntheticCanonical(rotation_half(), laws.NormalLaw(np.eye(2)))
        ens = simulate_ensemble(spec, [2, 4], 2, seed=0)
        with pytest.raises(InvalidInputError, match="every step"):
            write_paths_csv(tmp_path / "paths.csv", ens)
