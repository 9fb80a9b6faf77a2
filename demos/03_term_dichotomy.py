"""When does the limit series exist at all?

The series sum_j P^j Z_j converges absolutely exactly when the noise has a
finite log-moment; otherwise the terms |P^j Z_j| exceed any fixed level
infinitely often and the series diverges.  There is no middle ground, and
the divergent side is visible at plain desk scale: this script puts the
two regimes side by side.

The divergent driver used here is a ray with log-Cauchy length.  Its
exceedance behavior has closed forms to compare against:

  P(|P^j Z_j| > 1) = 1/2 - arctan(j log 2)/pi         (per index, P = 1/2)
  P(last exceedance lands in the late half) -> 1 - exp(-1/pi)
"""

import math

import numpy as np

from stablemix import CauchyLaw, LogCauchyRay, NormalLaw, lemma_diagnostics

J = 512
N = 20_000

print("convergent side: normal noise, P = I/2, d = 2")
light = lemma_diagnostics(0.5 * np.eye(2), NormalLaw(np.eye(2)), J, 1000, seed=7, workers=4)
print(f"  max |last term| over 1000 paths: {light.last_term_norm.max():.3e}")
print(f"  paths with any late exceedance:  {light.late_exceedance_fraction:.4f}")
print(f"  median log-moment estimate:      {np.median(light.log_moment):.4f}")

print("\ndivergent side: log-Cauchy ray, P = 1/2, d = 1")
heavy = lemma_diagnostics(np.array([[0.5]]), LogCauchyRay(1), J, N, seed=7, workers=4)
p_closed = 0.5 - math.atan(J * math.log(2.0)) / math.pi
late_closed = 1.0 - math.exp(-1.0 / math.pi)
print(
    f"  exceedance freq at j={J}:  {heavy.per_index_exceedance_freq[-1]:.6f}"
    f"  (closed form {p_closed:.6f})"
)
print(
    f"  late-exceedance fraction: {heavy.late_exceedance_fraction:.4f}"
    f"  (limit {late_closed:.4f})"
)
print(
    f"  mean exceedances per path: {heavy.exceedance_count.mean():.2f}"
    f"  -- they never stop, the series cannot settle"
)
frac_inf = np.isinf(heavy.log_moment).mean()
print(f"  paths whose log-moment sample overflowed: {frac_inf:.4f}")

# The per-path log-moment column itself, on clean draws: for a standard
# Cauchy length the exact value is (2/pi) * Catalan = 0.583122.
cauchy = lemma_diagnostics(
    np.array([[0.5]]), CauchyLaw(1), 999, 1000, seed=11, workers=4
)
est = cauchy.log_moment.mean()
print(f"\nlog-moment of |standard Cauchy|: {est:.4f} (exact 0.5831)")

print("\nper-index exceedance frequency, late window (should hover, not die):")
tail = heavy.per_index_exceedance_freq[-8:]
print("  " + "  ".join(f"{v:.5f}" for v in tail))
