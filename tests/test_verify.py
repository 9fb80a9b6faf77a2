"""Convergence checkers: event families, condition checks, the two
statistics, and end-to-end verdicts.

Key dual-route checks: with the trivial family the mixing statistic must
reproduce the plain ecf sup-distance bit for bit, and the scaled variant's
closed-form factorization gap must pin down where the unscaled statistic
lands.
"""

import dataclasses
import json

import numpy as np
import pytest

from stablemix import ecf, laws, verify
from stablemix.errors import GridMismatchError, InsufficientDataError, InvalidInputError
from stablemix.processes import (
    DiscreteFactor,
    ExplosiveVar,
    RandomScaled,
    SyntheticCanonical,
    simulate_ensemble,
)

# Closed-form factorization gap for lam ~ uniform{1, 2} over the default
# 2-d grid; stable near its r -> inf value already at small r.
GAP_HALF_HALF = 0.22196683390489547


def rotation_half(angle=np.pi / 6):
    c, s = np.cos(angle), np.sin(angle)
    return 0.5 * np.array([[c, -s], [s, c]])


def canonical_spec():
    return SyntheticCanonical(rotation_half(), laws.NormalLaw(np.eye(2)))


def scaled_spec(perturbation=0.0):
    return RandomScaled(
        rotation_half(), laws.NormalLaw(np.eye(2)), [1.0, 2.0], [0.5, 0.5],
        perturbation=perturbation,
    )


def cell_loop(features, ensemble):
    """Labels and rows of the sign-pattern cells, one feature test per
    cell and bit: the oracle for the family's derived cells."""
    labels, rows = [], []
    for pattern in range(1 << len(features)):
        mask = np.ones(ensemble.n_paths, dtype=bool)
        for bit, feat in enumerate(features):
            mask &= feat.evaluate(ensemble) == bool((pattern >> bit) & 1)
        rows.append(mask)
        labels.append("&".join(
            ("" if (pattern >> b) & 1 else "not-") + f.label
            for b, f in enumerate(features)
        ))
    return labels, rows


class TestFamilies:
    def test_omega(self):
        fam = verify.EventFamily()
        assert fam.labels == ("all",)
        ens = simulate_ensemble(canonical_spec(), [3], 16, seed=0)
        assert fam.indicator_matrix(ens).shape == (1, 16)
        assert fam.indicator_matrix(ens).all()

    def test_single_feature_adds_no_atoms(self):
        feat = verify.PathEvent("f", lambda e: e.noise_prefix[:, 0, 0] >= 0)
        fam = verify.EventFamily((feat,))
        assert fam.labels == ("all", "f")
        ens = simulate_ensemble(canonical_spec(), [3], 64, seed=1)
        inds = fam.indicator_matrix(ens)
        assert inds.shape == (2, 64)
        assert np.array_equal(inds[1], feat.evaluate(ens))

    def test_two_features_full_partition(self):
        a = verify.PathEvent("a", lambda e: e.noise_prefix[:, 0, 0] >= 0)
        b = verify.PathEvent("b", lambda e: e.noise_prefix[:, 0, 1] >= 0)
        c = verify.PathEvent("c", lambda e: e.noise_prefix[:, 1, 0] >= 0)
        ens = simulate_ensemble(canonical_spec(), [3], 512, seed=1)
        for features in ((a, b), (a, b, c)):
            fam = verify.EventFamily(features)
            k = len(features)
            labels, rows = cell_loop(features, ens)
            want = np.stack(
                [np.ones(512, dtype=bool)] + [f.evaluate(ens) for f in features] + rows
            )
            assert fam.labels == ("all", *(f.label for f in features), *labels)
            assert len(fam.labels) == 1 + k + (1 << k)
            inds = fam.indicator_matrix(ens)
            assert inds.dtype == bool and inds.tobytes() == want.tobytes()
            # The cells tile the path set exactly once.
            assert np.array_equal(
                inds[1 + k:].sum(axis=0), np.ones(512, dtype=np.int64)
            )
        assert fam.labels[4:6] == ("not-a&not-b&not-c", "a&not-b&not-c")

    def test_features_evaluated_once(self):
        calls = []

        def counted(e):
            calls.append(1)
            return e.noise_prefix[:, 0, 0] >= 0

        b = verify.PathEvent("b", lambda e: e.noise_prefix[:, 0, 1] >= 0)
        ens = simulate_ensemble(canonical_spec(), [3], 64, seed=1)
        verify.EventFamily((verify.PathEvent("a", counted), b)).indicator_matrix(ens)
        assert len(calls) == 1

    def test_default_family_shapes(self):
        can = simulate_ensemble(canonical_spec(), [3], 64, seed=2)
        assert verify.default_family(can).labels == ("all", "noise0-nonneg")
        rs = simulate_ensemble(scaled_spec(), [3], 64, seed=2)
        fam = verify.default_family(rs)
        assert len(fam.labels) == 7 and "lam-is-1" in fam.labels
        df = simulate_ensemble(
            DiscreteFactor(
                rotation_half(), laws.NormalLaw(np.eye(2)),
                [np.eye(2), 2 * np.eye(2)], [0.5, 0.5],
            ),
            [3], 64, seed=2,
        )
        assert "factor-is-0" in verify.default_family(df).labels

    def test_family_must_start_with_sure_event(self):
        # The sure event is derived, so every family starts with it.
        ev = verify.PathEvent("f", lambda e: np.ones(e.n_paths, bool))
        assert verify.EventFamily((ev,)).labels[0] == "all"
        assert verify.EventFamily(()).labels == ("all",)

    def test_first_event_must_hold_everywhere(self):
        # A feature labelled like the sure event is still only a feature.
        fake = verify.PathEvent("all", lambda e: e.noise_prefix[:, 0, 0] >= 0)
        ens = simulate_ensemble(canonical_spec(), [3], 16, seed=0)
        inds = verify.EventFamily((fake,)).indicator_matrix(ens)
        assert inds[0].all() and not inds[1].all()

    def test_event_shape_validated(self):
        ev = verify.PathEvent("bad", lambda e: np.ones(3, bool))
        ens = simulate_ensemble(canonical_spec(), [3], 16, seed=0)
        with pytest.raises(InvalidInputError):
            ev.evaluate(ens)


class TestConditions:
    def test_exact_variants_report_zero(self):
        law = laws.NormalLaw(np.eye(2))
        factor = DiscreteFactor(
            rotation_half(), law, [np.eye(2), np.array([[1.0, 0.5], [0.0, 2.0]])],
            [0.5, 0.5],
        )
        explosive = ExplosiveVar(np.array([[2.0, 0.5], [0.0, 1.5]]), law)
        for spec in (canonical_spec(), scaled_spec(), factor, explosive):
            ens = simulate_ensemble(spec, [5, 10, 20], 2000, seed=3)
            v1 = verify.check_condition_i(ens)
            v3 = verify.check_condition_iii(ens)
            assert max(v1.statistics) <= 1e-10 and v1.passed
            assert max(v3.statistics) <= 1e-10 and v3.passed

    def test_ill_conditioned_contraction_is_not_singular(self):
        # P^60 has condition number ~2e15, but the checks never invert it.
        spec = SyntheticCanonical(np.diag([0.5, 0.9]), laws.NormalLaw(np.eye(2)))
        ens = simulate_ensemble(spec, [10, 60], 2000, seed=3)
        v1 = verify.check_condition_i(ens)
        v3 = verify.check_condition_iii(ens)
        assert v1.passed and v1.statistics == (0.0, 0.0)
        assert v3.passed and v3.statistics == (0.0, 0.0)

    def test_perturbed_scale_decays_like_inverse_n(self):
        ens = simulate_ensemble(scaled_spec(0.5), [5, 10, 20], 2000, seed=9)
        v = verify.check_condition_i(ens)
        assert v.statistics == pytest.approx((0.1, 0.05, 0.025), rel=1e-9)
        # The limit holds exactly; the finite-n deviation is the 1/n rate.
        assert v.passed
        assert v.detail["rate"] == pytest.approx(0.5, rel=1e-9)
        assert verify.check_condition_i(ens, tol=0.0).passed

    def test_boundedness_passes_and_reports_levels(self):
        ens = simulate_ensemble(canonical_spec(), [5, 10, 20], 5000, seed=4)
        v = verify.check_condition_ii(ens)
        assert v.passed
        assert v.detail["levels"] == [2.0, 4.0, 8.0, 16.0]
        assert len(v.detail["exceedance"]) == 3

    def test_boundedness_passes_at_any_scale(self):
        # Tightness does not depend on scale: noise 1000 times wider puts
        # most paths past every level, and the spec is still tight.
        spec = SyntheticCanonical(rotation_half(), laws.NormalLaw(1e6 * np.eye(2)))
        ens = simulate_ensemble(spec, [5, 10], 5000, seed=4)
        v = verify.check_condition_ii(ens)
        assert v.passed and min(v.statistics) > 0.5
        assert v.thresholds == (1.0, 1.0)
        assert "slack" not in v.detail

    @pytest.mark.parametrize(
        "P, cov, checkpoints, n_paths, seed, counts",
        [
            (0.5 * np.eye(2), 100.0 * np.eye(2), [50, 200], 20000, 3, (7685, 7718)),
            ([[0.5, 40.0], [0.0, 0.5]], np.eye(2), [50, 200], 20000, 3,
             (16199, 16329)),
            (rotation_half(np.pi / 4), None,
             [5, 10, 20], 4097, 7, (499, 523, 527)),
        ],
        ids=["wide-noise", "large-coupling", "cauchy-rotation"],
    )
    def test_boundedness_passes_valid_specs_far_past_level_16(
        self, P, cov, checkpoints, n_paths, seed, counts
    ):
        # Each spec is tight, and passes verify_stable, yet most of its
        # paths, or one in eight for the Cauchy one, exceed the largest
        # level: the exceedances are reported exactly as counted, and the
        # verdict is the closed form.
        law = laws.CauchyLaw(2) if cov is None else laws.NormalLaw(cov)
        ens = simulate_ensemble(SyntheticCanonical(P, law), checkpoints, n_paths, seed)
        v = verify.check_condition_ii(ens)
        assert v.passed
        assert v.statistics == tuple(c / n_paths for c in counts)
        assert [row[-1] for row in v.detail["exceedance"]] == list(v.statistics)

    def test_ratio_lag_guard(self):
        ens = simulate_ensemble(canonical_spec(), [4, 8], 200, seed=5)
        with pytest.raises(InvalidInputError):
            verify.check_condition_iii(ens, r_list=(4,))
        with pytest.raises(InvalidInputError):
            verify.check_condition_iii(ens, r_list=(0,))

    def test_empty_conditioning_event(self):
        # Every path on atom 0, lam = 1, outside the event {lam = 2}.
        spec = RandomScaled(
            rotation_half(), laws.NormalLaw(np.eye(2)), [1.0, 2.0], [0.5, 0.5],
            event_values=[2.0],
        )
        ens = simulate_ensemble(spec, [5], 100, seed=0)
        starved = dataclasses.replace(ens, atom=np.zeros(100, dtype=np.intp))
        assert not starved.in_g.any()
        for checker in (
            verify.check_condition_i,
            verify.check_condition_ii,
            verify.check_condition_iii,
        ):
            with pytest.raises(InsufficientDataError):
                checker(starved)


class TestReferences:
    def test_factor_mixing_reference_is_atom_mixture(self):
        spec = DiscreteFactor(
            rotation_half(), laws.NormalLaw(np.eye(2)),
            [np.eye(2), 2 * np.eye(2)], [0.25, 0.75],
        )
        grid = ecf.default_grid(2)
        table = verify.conditional_reference(spec, 5, grid)
        got = verify.mixing_reference(spec, 5, grid)
        assert got.tobytes() == (spec.atom_probs @ table).tobytes()
        assert np.allclose(got, 0.25 * table[0] + 0.75 * table[1], atol=1e-15)

    def test_explosive_reference_starts_at_lag_one(self):
        # d=1, A=2: the limit sums 2^-k eps_k from k=1, so the cf is the
        # product of normal factors at t/2, t/4, ...
        spec = ExplosiveVar(np.array([[2.0]]), laws.NormalLaw(np.eye(1)))
        grid = ecf.default_grid(1)
        t = grid.points[:, 0]
        r = 5
        expected = np.ones_like(t, dtype=complex)
        for k in range(1, r + 2):
            expected *= np.exp(-0.5 * (0.5**k * t) ** 2)
        got = verify.mixing_reference(spec, r, grid)
        assert np.allclose(got, expected, atol=1e-14)

    def test_conditional_scaled_dilates_grid(self):
        spec = RandomScaled(
            np.array([[0.5]]), laws.NormalLaw(np.eye(1)), [1.0, 2.0], [0.5, 0.5]
        )
        grid = ecf.default_grid(1)
        t = grid.points[:, 0]
        table = verify.conditional_reference(spec, 4, grid)
        assert table.shape == (2, len(grid))
        expected = np.exp(
            -0.5 * sum((2.0 * 0.5**j * t) ** 2 for j in range(5))
        )
        assert np.allclose(table[1], expected, atol=1e-14)

    def test_conditional_factor_applies_factor_each_term(self):
        spec = DiscreteFactor(
            np.array([[0.5]]), laws.NormalLaw(np.eye(1)),
            [np.eye(1), 2 * np.eye(1)], [0.5, 0.5],
        )
        grid = ecf.default_grid(1)
        t = grid.points[:, 0]
        table = verify.conditional_reference(spec, 4, grid)
        expected = np.exp(
            -0.5 * sum((2.0 * 0.5**j * t) ** 2 for j in range(5))
        )
        assert np.allclose(table[1], expected, atol=1e-14)
        assert np.allclose(
            table[0],
            np.exp(-0.5 * sum((0.5**j * t) ** 2 for j in range(5))),
            atol=1e-14,
        )

    def test_conditional_canonical_ignores_latent(self):
        spec = canonical_spec()
        grid = ecf.default_grid(2)
        table = verify.conditional_reference(spec, 6, grid)
        assert np.array_equal(
            table, verify.mixing_reference(spec, 6, grid)[None]
        )


class TestGridDimension:
    # A 3-d grid against 2-d specs whose first step is a matmul (A or a
    # factor table) must be a named mismatch, not a bare numpy error.
    SPECS = {
        "explosive": ExplosiveVar(
            np.array([[2.0, 1.0], [0.0, 2.0]]), laws.NormalLaw(np.eye(2))
        ),
        "factor": DiscreteFactor(
            rotation_half(), laws.NormalLaw(np.eye(2)),
            [np.eye(2), 2 * np.eye(2)], [0.5, 0.5],
        ),
    }

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_references_and_statistics_reject_grid(self, name):
        spec = self.SPECS[name]
        grid = ecf.default_grid(3)
        with pytest.raises(GridMismatchError):
            verify.mixing_reference(spec, 5, grid)
        with pytest.raises(GridMismatchError):
            verify.conditional_reference(spec, 5, grid)
        ens = simulate_ensemble(spec, [6], 1500, seed=0)
        fam = verify.EventFamily()
        with pytest.raises(GridMismatchError):
            verify.mixing_statistic(ens, 6, fam, grid, np.ones(len(grid)))
        table = np.ones((len(spec.atom_in_g), len(grid)))
        with pytest.raises(GridMismatchError):
            verify.stable_statistic(ens, 6, fam, grid, table)


class TestStatistics:
    def test_omega_reduces_to_ecf_distance_bitwise(self):
        ens = simulate_ensemble(canonical_spec(), [6, 12], 20_000, seed=77)
        grid = ecf.default_grid(2)
        ref = verify.mixing_reference(ens.spec, 11, grid)
        stat = verify.mixing_statistic(
            ens, 12, verify.EventFamily(), grid, ref
        )
        est = ecf.estimate_ecf(ens.bu[12], grid)
        assert stat == ecf.sup_distance(est, ref)

    def test_stable_equals_mixing_without_latent(self):
        # No latent atom means the conditional reference is constant; the
        # two statistics collapse to the same number.
        ens = simulate_ensemble(canonical_spec(), [6, 12], 20_000, seed=77)
        grid = ecf.default_grid(2)
        fam = verify.default_family(ens)
        ref = verify.mixing_reference(ens.spec, 11, grid)
        table = verify.conditional_reference(ens.spec, 11, grid)
        st = verify.stable_statistic(ens, 12, fam, grid, table)
        mx = verify.mixing_statistic(ens, 12, fam, grid, ref, which="qu")
        assert st == mx

    def test_stable_statistic_atom_grouping_oracle(self):
        # Recompute the statistic with a direct per-path loop (single chunk,
        # so the phase sums share the reduction order).
        ens = simulate_ensemble(scaled_spec(), [8], 2000, seed=13)
        grid = ecf.default_grid(2)
        fam = verify.default_family(ens)
        table = verify.conditional_reference(ens.spec, 7, grid)
        got = verify.stable_statistic(ens, 8, fam, grid, table)

        mask = ens.in_g
        values = ens.qu[8][mask]
        inds = fam.indicator_matrix(ens)[:, mask]
        phases = np.exp(1j * (values @ grid.points.T))
        per_path = table[ens.atom[mask]]
        total = values.shape[0]
        worst = 0.0
        for e in range(len(inds)):
            term1 = phases[inds[e]].sum(axis=0) / total
            term2 = per_path[inds[e]].sum(axis=0) / total
            worst = max(worst, float(np.abs(term1 - term2).max()))
        assert got == pytest.approx(worst, abs=1e-12)

    def test_checkpoint_membership(self):
        ens = simulate_ensemble(canonical_spec(), [6, 12], 2000, seed=0)
        grid = ecf.default_grid(2)
        ref = verify.mixing_reference(ens.spec, 5, grid)
        with pytest.raises(InvalidInputError):
            verify.mixing_statistic(ens, 7, verify.EventFamily(), grid, ref)

    def test_reference_shape_checked(self):
        ens = simulate_ensemble(canonical_spec(), [6], 2000, seed=0)
        grid = ecf.default_grid(2)
        with pytest.raises(InvalidInputError):
            verify.mixing_statistic(
                ens, 6, verify.EventFamily(), grid, np.ones(5)
            )

    def test_which_names_bu_or_qu(self):
        ens = simulate_ensemble(scaled_spec(), [6], 3000, seed=1)
        grid = ecf.default_grid(2)
        ref = verify.mixing_reference(ens.spec, 5, grid)
        family = verify.EventFamily()
        for which in ("BU", "QU", "u"):
            with pytest.raises(InvalidInputError, match="'bu' or 'qu'"):
                verify.mixing_statistic(ens, 6, family, grid, ref, which=which)
        with pytest.raises(InvalidInputError):
            verify.verify_mixing(ens, which="BU")

    def test_min_paths_enforced(self):
        ens = simulate_ensemble(canonical_spec(), [6], 500, seed=0)
        grid = ecf.default_grid(2)
        ref = verify.mixing_reference(ens.spec, 5, grid)
        with pytest.raises(InsufficientDataError):
            verify.mixing_statistic(ens, 6, verify.EventFamily(), grid, ref)


class TestScaleMixtureGap:
    def test_frozen_value(self):
        spec = scaled_spec()
        best, gaps = verify.scale_mixture_gap(spec, ecf.default_grid(2), 23)
        assert best == pytest.approx(GAP_HALF_HALF, rel=1e-12)
        assert set(gaps) == {"all", "lam-is-1", "lam-is-2"}
        # Conditioning on the unit atom reproduces the reference exactly, so
        # that event carries no gap.
        assert gaps["lam-is-1"] == 0.0

    def test_repeated_scale_is_one_event(self):
        # The event "lam = 2" holds both atoms of scale 2, so its gap is
        # that of a single atom carrying their summed probability.
        law = laws.NormalLaw(np.eye(2))
        grid = ecf.default_grid(2)
        repeated = RandomScaled(
            rotation_half(), law, [2.0, 1.0, 2.0], [0.25, 0.5, 0.25]
        )
        merged = RandomScaled(rotation_half(), law, [2.0, 1.0], [0.5, 0.5])
        best, gaps = verify.scale_mixture_gap(repeated, grid, 23)
        want_best, want = verify.scale_mixture_gap(merged, grid, 23)
        assert list(gaps) == ["all", "lam-is-2", "lam-is-1"]
        assert gaps["lam-is-2"] == pytest.approx(want["lam-is-2"], rel=1e-12)
        assert gaps["lam-is-2"] == pytest.approx(0.222, abs=1e-3)
        assert best == pytest.approx(want_best, rel=1e-12)

    def test_distinct_scales_never_share_a_label(self):
        # Both scales print as 1 under "%g"; each keeps its own event.
        spec = RandomScaled(
            rotation_half(), laws.NormalLaw(np.eye(2)), [1.0000001, 1.0000002],
            [0.5, 0.5],
        )
        _, gaps = verify.scale_mixture_gap(spec, ecf.default_grid(2), 5)
        assert list(gaps) == ["all", "lam-is-1.0000001", "lam-is-1.0000002"]
        ens = simulate_ensemble(spec, [4], 10, seed=0)
        assert "lam-is-1.0000001" in verify.default_family(ens).labels

    def test_degenerate_atom_has_no_gap(self):
        spec = RandomScaled(
            rotation_half(), laws.NormalLaw(np.eye(2)), [1.0], [1.0]
        )
        best, gaps = verify.scale_mixture_gap(spec, ecf.default_grid(2), 23)
        assert best == 0.0 and all(v == 0.0 for v in gaps.values())

    def test_requires_scaled_variant(self):
        with pytest.raises(InvalidInputError):
            verify.scale_mixture_gap(canonical_spec(), ecf.default_grid(2), 5)


class TestVerdicts:
    def test_checkpoint_free_work_once_per_verdict(self):
        # A verdict evaluates its family's features once for all its
        # checkpoints, and its statistics keep the bits of direct calls.
        calls = []

        def counted(e):
            calls.append(1)
            return e.noise_prefix[:, 0, 0] >= 0

        ens = simulate_ensemble(scaled_spec(), [4, 8, 12], 3000, seed=17)
        lam = verify.PathEvent("lam", lambda e: e.spec.atom_scale[e.atom] == 1.0)
        fam = verify.EventFamily((verify.PathEvent("a", counted), lam))
        grid = ecf.default_grid(2)
        table = verify.conditional_reference(ens.spec, 11, grid)
        ref = verify.mixing_reference(ens.spec, 11, grid)
        for verdict, direct in (
            (verify.verify_stable, lambda n: verify.stable_statistic(
                ens, n, fam, grid, table)),
            (verify.verify_mixing, lambda n: verify.mixing_statistic(
                ens, n, fam, grid, ref)),
        ):
            calls.clear()
            v = verdict(ens, family=fam)
            assert len(calls) == 1
            assert v.statistics == tuple(direct(n) for n in ens.checkpoints)

    def test_canonical_mixing_passes(self):
        ens = simulate_ensemble(canonical_spec(), [6, 12], 20_000, seed=21)
        v = verify.verify_mixing(ens)
        assert v.passed and v.condition == "mixing"
        assert v.checkpoints == (6, 12)
        assert v.thresholds[0] == pytest.approx(
            3.0 * ecf.hoeffding_radius(20_000, 1e-3), rel=1e-12
        )
        assert v.detail["r"] == 11 and v.detail["statistic_of"] == "bu"
        obj = json.loads(json.dumps(v.to_json()))
        assert obj["pass"] is True and obj["n_paths"] == 20_000

    def test_scaled_variant_stable_but_not_mixing(self):
        # The heart of the package: the unscaled value converges stably with
        # a latent-dependent limit, so the conditional check passes while
        # the factorized check fails by the closed-form gap.
        ens = simulate_ensemble(scaled_spec(), [6, 12], 20_000, seed=29)
        assert verify.verify_stable(ens).passed
        v = verify.verify_mixing(ens, which="qu")
        assert not v.passed
        assert v.statistics[-1] == pytest.approx(GAP_HALF_HALF, abs=0.05)
        assert v.statistics[-1] > v.thresholds[-1]

    def test_explosive_stable_but_not_mixing_for_prefix_events(self):
        # The scaled explosive sum converges almost surely: prefix events
        # stay correlated with the limit forever, so mixing fails on the
        # default family yet the sure-event distributional check passes.
        spec = ExplosiveVar(np.array([[2.0]]), laws.NormalLaw(np.eye(1)))
        ens = simulate_ensemble(spec, [6, 12], 20_000, seed=55)
        v_prefix = verify.verify_mixing(ens)
        v_omega = verify.verify_mixing(ens, family=verify.EventFamily())
        assert not v_prefix.passed
        assert v_prefix.statistics[-1] > 2.0 * v_prefix.thresholds[-1]
        assert v_omega.passed

    def test_factor_variant_stable_verdict(self):
        spec = DiscreteFactor(
            rotation_half(), laws.NormalLaw(np.eye(2)),
            [np.eye(2), 2 * np.eye(2)], [0.5, 0.5],
        )
        ens = simulate_ensemble(spec, [6, 12], 20_000, seed=31)
        assert verify.verify_stable(ens).passed

    def test_factor_variant_mixes_only_over_the_sure_event(self):
        # The limit of B_n U_n is the factor mixture: the distribution
        # matches it, but the event "factor is 0" sees which atom it is.
        spec = DiscreteFactor(
            rotation_half(), laws.NormalLaw(np.eye(2)),
            [np.eye(2), 2 * np.eye(2)], [0.5, 0.5],
        )
        ens = simulate_ensemble(spec, [6, 12], 20_000, seed=31)
        v_prefix = verify.verify_mixing(ens)
        v_omega = verify.verify_mixing(ens, family=verify.EventFamily())
        assert "factor-is-0" in v_prefix.detail["events"]
        assert not v_prefix.passed
        assert v_prefix.statistics[-1] > v_prefix.thresholds[-1]
        assert v_omega.passed

    def test_insufficient_paths_propagates(self):
        ens = simulate_ensemble(canonical_spec(), [6, 12], 200, seed=0)
        with pytest.raises(InsufficientDataError):
            verify.verify_mixing(ens)
        # MIN_FILTERED_PATHS itself is enough.
        ens = simulate_ensemble(canonical_spec(), [6, 12], 1000, seed=0)
        assert verify.verify_mixing(ens).n_paths == 1000

    def test_verdict_keeps_final_sure_event_ecf(self):
        spec = RandomScaled(
            rotation_half(), laws.NormalLaw(np.eye(2)), [2.0, 0.5, 1.0],
            [0.3, 0.3, 0.4], event_values=[2.0, 1.0],
        )
        ens = simulate_ensemble(spec, [6, 12], 4097, seed=34)
        mask = ens.in_g
        grid = ecf.default_grid(2)
        for v, values in (
            (verify.verify_stable(ens, delta=1e-2), ens.qu[12][mask]),
            (verify.verify_mixing(ens, delta=1e-2), ens.bu[12][mask]),
        ):
            want = ecf.estimate_ecf(values, grid, delta=1e-2)
            assert v.ecf.values.view(np.uint64).tolist() == (
                want.values.view(np.uint64).tolist()
            )
            assert (v.ecf.n_samples, v.ecf.delta) == (int(mask.sum()), 1e-2)
            assert "ecf" not in v.to_json()
            assert dataclasses.replace(v, ecf=None) == v

    def test_worker_invariance(self):
        ens = simulate_ensemble(scaled_spec(), [6, 12], 20_000, seed=33)
        a = verify.verify_stable(ens, workers=1)
        b = verify.verify_stable(ens, workers=8)
        assert a.statistics == b.statistics
