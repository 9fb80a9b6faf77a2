"""The four process variants and the structural conditions.

Each variant produces paths U_n together with two matrix normalizations:
B_n U_n (the fully scaled value, converging to the series law) and
Q_n U_n (the outer-scaled value, which keeps any latent randomness).
Three structural checks validate the scaling arithmetic:

  scale-limit:             Q_n B_n^-1 settles on the limiting scale
  stochastic-boundedness:  |Q_n U_n| does not drift off to infinity
  scaling-ratio:           B_n B_{n-r}^-1 matches the contraction power P^r

All three are judged at their limit by closed forms of the spec.  For
stochastic boundedness that is the noise law's finite log-moment, which
makes Q_n U_n a partial sum of an almost surely convergent series; its
exceedance frequencies on the simulated paths are printed for inspection.
"""

import numpy as np

from stablemix import (
    DiscreteFactor,
    ExplosiveVar,
    NormalLaw,
    RandomScaled,
    SyntheticCanonical,
    check_condition_i,
    check_condition_ii,
    check_condition_iii,
    simulate_ensemble,
    simulate_path,
)

c, s = np.cos(np.pi / 6), np.sin(np.pi / 6)
P = 0.5 * np.array([[c, -s], [s, c]])
law = NormalLaw(np.eye(2))

variants = [
    ("canonical (exact normalization)", SyntheticCanonical(P, law)),
    ("random scale lam in {1,2}", RandomScaled(P, law, [1.0, 2.0], [0.5, 0.5])),
    (
        "discrete factor S in {I, 2I}",
        DiscreteFactor(P, law, [np.eye(2), 2.0 * np.eye(2)], [0.5, 0.5]),
    ),
    ("explosive VAR, A = 2 R", ExplosiveVar(np.linalg.inv(P), law)),
]

print("single-path glimpse (n = 6):")
for name, spec in variants:
    path = simulate_path(spec, 6, np.random.default_rng(1))
    print(f"  {name:34s} |U_6| = {np.linalg.norm(path.U[6]):9.2f}")
print("  (every raw path grows geometrically; the scalings tame them)\n")

checkpoints = [5, 10, 20]
print(f"structural checks, {checkpoints=}, 5000 paths:")
for name, spec in variants:
    ens = simulate_ensemble(spec, checkpoints, 5000, seed=3)
    v1 = check_condition_i(ens)
    v2 = check_condition_ii(ens)
    v3 = check_condition_iii(ens)
    tags = " ".join(
        f"{v.condition}={'ok' if v.passed else 'FAIL'}" for v in (v1, v2, v3)
    )
    print(f"  {name:34s} {tags}")
    print(f"    scale-limit deviations:   {[f'{x:.2e}' for x in v1.statistics]}")
    print(f"    exceedance freq (K=16):   {[f'{x:.3f}' for x in v2.statistics]}")

# A deliberately imperfect normalization: the scale carries a 1/n
# perturbation, so the scale-limit deviation decays like 1/n instead of
# sitting at zero.  The limit still holds, so the check passes and reports
# the rate n * deviation, which is the perturbation.
print("\nperturbed scale (1/n decay, limit holds):")
perturbed = RandomScaled(P, law, [1.0, 2.0], [0.5, 0.5], perturbation=0.5)
ens = simulate_ensemble(perturbed, checkpoints, 5000, seed=3)
v = check_condition_i(ens)
print(f"  deviations {[f'{x:.4f}' for x in v.statistics]}  -> passed={v.passed}")
print(f"  rate n * deviation at n = {checkpoints[-1]}: {v.detail['rate']:.4f}")
