"""Truncating the limit series with certified error control.

The limit object everything converges to is a series sum_j P^j Z_j.  To
work with it numerically the series is cut at an index r, and the cut is
certified: a decay certificate q = |P^H| < 1 turns finitely many power
norms into a bound on everything past the horizon H, since every
|P^(mH+i)| <= q^m |P^i|, giving a hard bound on the discarded operator
mass.
"""

import numpy as np

from stablemix import (
    NormalLaw,
    decay_certificate,
    default_grid,
    estimate_ecf,
    series_cf_values,
    series_ensemble,
    spectral_radius,
    sup_distance,
    tail_bound,
    truncation_index,
)


def show_plan(name, P, tol):
    plan = truncation_index(P, tol)
    cert = plan.certificate
    print(
        f"  {name:28s} horizon={cert.horizon:4d}  q={cert.q:.2e}  "
        f"r={plan.r:4d}  tail bound {plan.tail_norm_bound:.3e} <= {tol:.1e}"
    )
    return plan


print("cut index for tail tolerance, three contractions:\n")
c, s = np.cos(np.pi / 6), np.sin(np.pi / 6)
rotation = 0.5 * np.array([[c, -s], [s, c]])
jordan = np.array([[0.5, 10.0], [0.0, 0.5]])  # large transient before decay
for tol in (1e-2, 1e-4, 1e-8):
    show_plan("scalar 1/2", np.array([[0.5]]), tol)
    show_plan("rotation * 1/2", rotation, tol)
    show_plan("defective, heavy transient", jordan, tol)
    print()

# The certified bound must dominate the true tail; check against a long
# explicit sum for the transient-heavy case.
cert, norms = decay_certificate(jordan)
powers = [np.eye(2)]
for _ in range(400):
    powers.append(powers[-1] @ jordan)
true_norms = [np.linalg.norm(p, ord=2) for p in powers]
for r in (5, 20, 60):
    certified = tail_bound(norms, cert, r)
    truth = sum(true_norms[r + 1 :])
    print(
        f"  r={r:3d}: certified tail {certified:.6e} >= explicit sum "
        f"{truth:.6e}  (ratio {certified / truth:.3f})"
    )

# Sampling the truncated series: its ecf must match the analytic product
# of per-term characteristic functions.
print("\nsampling the truncated series (normal noise, rotation contraction):")
law = NormalLaw(np.eye(2))
plan = truncation_index(rotation, 1e-6)
samples = series_ensemble(rotation, law, plan.r, 2024, 100_000, workers=4)
grid = default_grid(2)
est = estimate_ecf(samples, grid, workers=4)
ref = series_cf_values(law, rotation, plan.r, grid.points)
print(
    f"  r={plan.r}, ecf distance {sup_distance(est, ref):.4f} "
    f"(3r = {3 * est.radius:.4f}), spectral radius {spectral_radius(rotation):.3f}"
)
