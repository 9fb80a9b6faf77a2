"""Increment laws and their characteristic functions.

Every distribution the package simulates is available in two forms: a
sampler driven by uniforms, and a closed-form characteristic function.
This script draws from each law through the stream-addressed route,
``law.draws`` (each path's row of the law stream mapped by
``from_uniforms``, a slice of paths at a time), and measures how far the
empirical characteristic function sits from the analytic one on the
default grid.
The distances should all land well inside three Hoeffding radii.
"""

import numpy as np

from stablemix import (
    STREAM_LAW,
    CauchyLaw,
    EmpiricalLaw,
    NormalLaw,
    SpectralMeasure,
    StableLaw,
    cf_increment,
    default_grid,
    estimate_ecf,
    sup_distance,
)

N = 100_000
SEED = 7


def draws(law, count, seed=SEED):
    """The first ``count`` draws of ``law`` from the law stream of ``seed``:
    one step per path, gathered from the slices of ``law.draws``."""
    slices = law.draws(seed, STREAM_LAW, 0, count, 1)
    return np.concatenate([z[:, 0] for _, _, z in slices])


catalog = [
    ("normal, identity cov", NormalLaw(np.eye(2))),
    ("normal, correlated", NormalLaw(np.array([[2.0, 0.6], [0.6, 1.0]]))),
    ("cauchy, d=2", CauchyLaw(2)),
    (
        "stable alpha=0.8, axis atoms",
        StableLaw(0.8, SpectralMeasure(np.eye(2), np.array([0.5, 0.5]))),
    ),
    (
        "stable alpha=1.5, axis atoms",
        StableLaw(1.5, SpectralMeasure(np.eye(2), np.array([0.5, 0.5]))),
    ),
]

print(f"{N} draws per law, default 61-point grid\n")
for name, law in catalog:
    samples = draws(law, N)
    grid = default_grid(law.dim)
    est = estimate_ecf(samples, grid, workers=4)
    dist = sup_distance(est, cf_increment(law, grid.points))
    verdict = "ok" if dist <= 3 * est.radius else "OFF"
    print(f"  {name:34s} ecf distance {dist:.4f}  (3r = {3*est.radius:.4f})  {verdict}")

# A finite sample pool is itself a law: its cf is an average of cosines,
# and resampling from the pool reproduces it.  The pool comes from another
# seed, so its draws are independent of the resampling uniforms.
pool = draws(NormalLaw(np.eye(1)), 40, seed=SEED + 1)
emp = EmpiricalLaw(pool)
samples = draws(emp, N)
grid = default_grid(1)
est = estimate_ecf(samples, grid, workers=4)
dist = sup_distance(est, cf_increment(emp, grid.points))
print(f"\n  empirical 40-point pool            ecf distance {dist:.4f}")

# The theoretical cf of the pool at theta is the exact cosine average.
theta = 0.7
exact = np.cos(theta * pool[:, 0]).mean()
value = complex(emp.cf(np.array([theta])))
print(f"  pool cf at theta={theta}: {value.real:.6f} (cosine average {exact:.6f})")
