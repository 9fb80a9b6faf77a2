"""Package-level guarantees, one check per test.

Each test prints a single ``[PASS]``/``[FAIL]`` line with the measured
numbers, so ``pytest -v -s tests/test_acceptance.py`` reads as a checklist.
Thresholds follow the package's standard: distribution comparisons live on
the default theta grid and must land within three Hoeffding radii.
"""

import math
import time

import numpy as np
import scipy.integrate

from stablemix import laws, matalg, series, verify
from stablemix.cli import replay_report, run_command
from stablemix.ecf import (
    default_grid,
    estimate_ecf,
    hoeffding_radius,
    sup_distance,
)
from stablemix.processes import (
    DiscreteFactor,
    RandomScaled,
    SyntheticCanonical,
    simulate_ensemble,
)

N_LARGE = 100_000
# 3 * hoeffding radius at 1e5 samples, delta 1e-3.
THRESHOLD = 0.03698867992666911


def rotation_half():
    c, s = np.cos(np.pi / 6), np.sin(np.pi / 6)
    return 0.5 * np.array([[c, -s], [s, c]])


def two_atom_measure():
    return laws.SpectralMeasure(np.eye(2), np.array([0.5, 0.5]))


def check(tag: str, ok: bool, detail: str):
    line = f"[{'PASS' if ok else 'FAIL'}] {tag}: {detail}"
    print(line)
    assert ok, line


def test_01_scaled_process_matches_series_law():
    # The normalized process at n = 24 and the r = 23 truncated series are
    # the same distribution by construction; two independent sample sets
    # (the process and series streams) must agree within the two-sample
    # tolerance for all three noise families.
    P = rotation_half()
    noise_laws = [
        ("normal", laws.NormalLaw(np.eye(2))),
        ("cauchy", laws.CauchyLaw(2)),
        ("stable-1.5", laws.StableLaw(1.5, two_atom_measure())),
    ]
    grid = default_grid(2)
    started = time.perf_counter()
    worst = 0.0
    for _name, law in noise_laws:
        ens = simulate_ensemble(SyntheticCanonical(P, law), [24], N_LARGE, seed=101)
        est_process = estimate_ecf(ens.bu[24], grid, workers=4)
        second = series.series_ensemble(P, law, 23, 101, N_LARGE, workers=4)
        est_series = estimate_ecf(second, grid, workers=4)
        worst = max(worst, sup_distance(est_process, est_series.values))
    elapsed = time.perf_counter() - started
    ok = worst <= THRESHOLD and elapsed < 60.0
    check(
        "process-vs-series",
        ok,
        f"worst two-sample distance {worst:.4f} <= {THRESHOLD:.4f} "
        f"over 3 noise laws, {elapsed:.1f}s",
    )


def test_02_normal_series_covariance():
    # For isotropic normal noise and P = I/2 the series covariance is the
    # geometric sum (sum_j 4^-j) I, tending to (4/3) I.
    r = 23
    samples = series.series_ensemble(
        0.5 * np.eye(2), laws.NormalLaw(np.eye(2)), r, 202, N_LARGE, workers=4
    )
    emp = samples.T @ samples / samples.shape[0]
    scale_r = (1.0 - 0.25 ** (r + 1)) / 0.75
    target = scale_r * np.eye(2)
    rel = np.linalg.norm(emp - target) / np.linalg.norm(target)
    closed_ok = (
        abs(1.0 / (1.0 - 0.25) - 4.0 / 3.0) == 0.0
        and abs(scale_r - 4.0 / 3.0) <= 0.25 ** (r + 1) / 0.75 + 1e-15
    )
    ok = rel < 0.05 and closed_ok
    check(
        "normal-covariance",
        ok,
        f"covariance rel error {rel:.4f} < 0.05 against {scale_r:.6f} I "
        f"(limit 4/3)",
    )


def test_03_cauchy_limit_cf():
    P = rotation_half()
    r = 23
    grid = default_grid(2)
    # Literal formula, written out independently of the library routine.
    exponent = np.zeros(len(grid))
    proj = grid.points.copy()
    for _ in range(r + 1):
        exponent += np.linalg.norm(proj, axis=1)
        proj = proj @ P
    ref = np.exp(-exponent)
    routine = laws.cf_cauchy_limit(P, grid.points, r).values
    routes_agree = bool(np.allclose(routine, ref, atol=1e-12))
    samples = series.series_ensemble(P, laws.CauchyLaw(2), r, 303, N_LARGE, workers=4)
    dist = sup_distance(estimate_ecf(samples, grid, workers=4), ref + 0j)
    spot = complex(laws.cf_cauchy_limit(np.array([[0.5]]), [[1.0]], 60).values[0])
    spot_ok = abs(spot - math.exp(-2.0)) < 1e-12
    ok = dist <= THRESHOLD and routes_agree and spot_ok
    check(
        "cauchy-limit",
        ok,
        f"ecf distance {dist:.4f} <= {THRESHOLD:.4f}, scalar spot "
        f"{spot.real:.10f} ~ e^-2",
    )


def test_04_stable_limit_cf():
    P = rotation_half()
    r = 23
    grid = default_grid(2)
    measure = two_atom_measure()
    worst = 0.0
    routes_agree = True
    for alpha in (0.8, 1.5):
        law = laws.StableLaw(alpha, measure)
        # Literal formula, written out independently of the library routine.
        exponent = np.zeros(len(grid))
        proj = grid.points.copy()
        for _ in range(r + 1):
            inner = np.abs(proj @ measure.atoms.T) ** alpha
            exponent += (inner * measure.weights).sum(axis=1)
            proj = proj @ P
        ref = np.exp(-exponent) + 0j
        routine = laws.cf_stable_limit(P, alpha, measure, grid.points, r).values
        routes_agree &= bool(np.allclose(routine, ref, atol=1e-12))
        samples = series.series_ensemble(P, law, r, 404, N_LARGE, workers=4)
        worst = max(
            worst, sup_distance(estimate_ecf(samples, grid, workers=4), ref)
        )
    # alpha = 1 with symmetric unit atoms in one dimension collapses to the
    # scalar Cauchy value e^-2 at theta = 1.
    measure_1d = laws.SpectralMeasure(
        np.array([[1.0], [-1.0]]), np.array([0.5, 0.5])
    )
    spot = complex(
        laws.cf_stable_limit(np.array([[0.5]]), 1.0, measure_1d, [[1.0]], 60).values[0]
    )
    spot_ok = abs(spot - math.exp(-2.0)) < 1e-12
    ok = worst <= THRESHOLD and routes_agree and spot_ok
    check(
        "stable-limit",
        ok,
        f"worst ecf distance {worst:.4f} <= {THRESHOLD:.4f} for alpha in "
        f"{{0.8, 1.5}}, two-atom spot {spot.real:.10f} ~ e^-2",
    )


def test_05_scaled_variant_separates_stable_from_mixing():
    # The latent-scale variant converges stably; the factorized (mixing)
    # prediction must fail by at least the closed-form mixture gap.
    spec = RandomScaled(
        rotation_half(), laws.NormalLaw(np.eye(2)), [1.0, 2.0], [0.5, 0.5]
    )
    ens = simulate_ensemble(spec, [24], N_LARGE, seed=505)
    grid = default_grid(2)
    stable_verdict = verify.verify_stable(ens, workers=4)
    gap, _ = verify.scale_mixture_gap(spec, grid, 23)
    ref = verify.mixing_reference(spec, 23, grid)
    mix_stat = verify.mixing_statistic(
        ens, 24, verify.default_family(ens), grid, ref, which="qu", workers=4
    )
    floor = max(0.05, gap - THRESHOLD)
    ok = stable_verdict.passed and mix_stat >= floor
    check(
        "stable-not-mixing",
        ok,
        f"stable statistic {stable_verdict.statistics[-1]:.4f} passes, "
        f"factorization error {mix_stat:.4f} >= {floor:.4f} "
        f"(closed-form gap {gap:.4f})",
    )


def test_06_discrete_factor_stable():
    spec = DiscreteFactor(
        rotation_half(), laws.NormalLaw(np.eye(2)),
        [np.eye(2), 2.0 * np.eye(2)], [0.5, 0.5],
    )
    ens = simulate_ensemble(spec, [24], N_LARGE, seed=606)
    verdict = verify.verify_stable(ens, workers=4)
    check(
        "discrete-factor-stable",
        verdict.passed,
        f"conditional statistic {verdict.statistics[-1]:.4f} <= "
        f"{verdict.thresholds[-1]:.4f}",
    )


def test_07_series_term_dichotomy():
    # Light tails: the 512th term is geometrically dead.  Heavy tails with
    # infinite log-moment: unit-level exceedances persist at every index,
    # with per-index frequency pinned by the closed form, which is itself
    # cross-checked against direct quadrature here.
    diag_light = series.lemma_diagnostics(
        0.5 * np.eye(2), laws.NormalLaw(np.eye(2)), 512, 1000, seed=707, workers=4
    )
    max_last = float(diag_light.last_term_norm.max())

    level = 512 * math.log(2.0)
    p_closed = 0.5 - math.atan(level) / math.pi
    p_quad, quad_err = scipy.integrate.quad(
        lambda x: 1.0 / (math.pi * (1.0 + x * x)), level, math.inf
    )
    oracle_ok = abs(p_closed - p_quad) <= max(1e-12, 10 * quad_err)

    n_heavy = 20_000
    diag_heavy = series.lemma_diagnostics(
        np.array([[0.5]]), laws.LogCauchyRay(1), 512, n_heavy, seed=707, workers=4
    )
    freq = float(diag_heavy.per_index_exceedance_freq[-1])
    radius3 = 3.0 * math.sqrt(p_closed * (1.0 - p_closed) / n_heavy)
    heavy_ok = freq > 0.0 and abs(freq - p_closed) <= radius3
    ok = max_last < 1e-3 and oracle_ok and heavy_ok
    check(
        "term-dichotomy",
        ok,
        f"light max last-term {max_last:.2e} < 1e-3; heavy freq at 512 "
        f"{freq:.6f} within {radius3:.6f} of {p_closed:.6f} and nonzero",
    )


def test_08_truncation_arithmetic():
    plan = series.truncation_index(np.array([[0.5]]), 2.0**-10)
    exact_ok = plan.r == 10
    rng = np.random.default_rng(2027)
    replayed = 0
    for _ in range(100):
        d = int(rng.integers(1, 5))
        raw = rng.standard_normal((d, d))
        rho_raw = matalg.spectral_radius(raw)
        if rho_raw == 0.0:
            raw = raw + np.eye(d)
            rho_raw = matalg.spectral_radius(raw)
        target = float(rng.uniform(0.05, 0.9))
        A = raw * (target / rho_raw)
        cert, norms = matalg.decay_certificate(A)
        # Replay against a fresh norm table through twice the horizon:
        # q = |A^H| < 1, its remainder q/(1-q) sum_{i<H} |A^i| is at most
        # 1e-12, and |A^(H+i)| <= q |A^i| (up to rounding).
        H = cert.horizon
        fresh = matalg.norm_table(A, 2 * H)
        if (
            fresh[H] == cert.q < 1.0
            and cert.q / (1.0 - cert.q) * fresh[:H].sum() <= 1e-12
            and np.all(fresh[H:] <= cert.q * fresh[:H + 1] * (1 + 1e-9) + 1e-300)
            and matalg.tail_bound(norms, cert, 0) > 0.0
        ):
            replayed += 1
    ok = exact_ok and replayed == 100
    check(
        "truncation-arithmetic",
        ok,
        f"scalar cut index {plan.r} == 10, certificate replay {replayed}/100",
    )


def test_09_replay_determinism(tmp_path):
    cfg = {
        "schema_version": 1,
        "seed": 909,
        "P": {"dim": 2, "rows": rotation_half().tolist()},
        "law": {"law": "normal", "cov": [[1.0, 0.0], [0.0, 1.0]]},
        "count": 20_000,
        "r": 12,
    }
    out = tmp_path / "run"
    run_command("series", dict(cfg), str(out))
    for w in (1, 8):
        replay_report(
            str(out / "report.json"), outdir=str(tmp_path / f"re{w}"), workers=w
        )
    spec = RandomScaled(
        rotation_half(), laws.NormalLaw(np.eye(2)), [1.0, 2.0], [0.5, 0.5]
    )
    a = simulate_ensemble(spec, [8, 16], 20_000, seed=909, workers=1)
    b = simulate_ensemble(spec, [8, 16], 20_000, seed=909, workers=8)
    ensembles_equal = all(
        np.array_equal(a.bu[n], b.bu[n]) and np.array_equal(a.qu[n], b.qu[n])
        for n in (8, 16)
    )
    check(
        "replay-determinism",
        ensembles_equal,
        "replay bitwise for workers in {1, 8}; ensembles bit-identical",
    )
