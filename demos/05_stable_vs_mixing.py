"""Stable convergence versus mixing convergence, made visible.

Distributional convergence says histograms settle.  Mixing convergence
says more: the limit forgets every fixed prefix event F, so the joint
average of 1_F with any bounded test of the value factorizes as
P(F) * (limit mean).  Stable convergence sits in between: joint averages
settle for every F, but the limit may still depend on information drawn
along the way, so the factorized prediction can stay wrong forever.

Three experiments:

1. canonical variant         -- mixing holds, factorization error ~ 0
2. random-scale variant      -- B_n U_n mixes, but Q_n U_n only converges
                                stably: conditioning on the latent scale
                                shifts the limit, and the factorization
                                error matches a closed-form gap
3. explosive VAR             -- the scaled value converges almost surely;
                                that limit is glued to the first increment,
                                so prefix events never decorrelate and
                                mixing fails even though the distribution
                                is right
"""

import numpy as np

from stablemix import (
    EventFamily,
    ExplosiveVar,
    NormalLaw,
    RandomScaled,
    SyntheticCanonical,
    default_family,
    default_grid,
    mixing_reference,
    mixing_statistic,
    scale_mixture_gap,
    simulate_ensemble,
    verify_mixing,
    verify_stable,
)

c, s = np.cos(np.pi / 6), np.sin(np.pi / 6)
P = 0.5 * np.array([[c, -s], [s, c]])
law = NormalLaw(np.eye(2))
N = 100_000


def banner(text):
    print(f"\n--- {text} ---")


banner("1. canonical variant: genuinely mixing")
ens = simulate_ensemble(SyntheticCanonical(P, law), [12, 24], N, seed=1)
v = verify_mixing(ens, workers=4)
print(f"  factorization error across checkpoints: "
      f"{[f'{x:.4f}' for x in v.statistics]}")
print(f"  threshold {v.thresholds[-1]:.4f}, events {v.detail['events']}")
print(f"  verdict: {'mixing confirmed' if v.passed else 'FAILED'}")

banner("2. random scale: stable yes, mixing no")
spec = RandomScaled(P, law, [1.0, 2.0], [0.5, 0.5])
ens = simulate_ensemble(spec, [12, 24], N, seed=2)
vs = verify_stable(ens, workers=4)
print(f"  conditional (stable) statistic: {vs.statistics[-1]:.4f} "
      f"<= {vs.thresholds[-1]:.4f}  -> passes")
grid = default_grid(2)
gap, per_event = scale_mixture_gap(spec, grid, 23)
ref = mixing_reference(spec, 23, grid)
stat = mixing_statistic(ens, 24, default_family(ens), grid, ref, which="qu", workers=4)
print(f"  factorized prediction for Q_n U_n is off by {stat:.4f}")
print(f"  closed-form gap says it must be ~{gap:.4f}; per event: "
      + ", ".join(f"{k}={v:.3f}" for k, v in per_event.items()))
print("  conditioning on the unit scale atom carries no gap: that slice")
print("  of the mixture IS the reference law")

banner("3. explosive VAR: almost-sure convergence is not mixing")
spec = ExplosiveVar(np.array([[2.0]]), NormalLaw(np.eye(1)))
ens = simulate_ensemble(spec, [12, 24], N, seed=3)
v_all = verify_mixing(ens, family=EventFamily(), workers=4)
v_prefix = verify_mixing(ens, workers=4)
print(f"  sure-event check (distribution only): {v_all.statistics[-1]:.4f} "
      f"-> {'ok' if v_all.passed else 'FAIL'}")
print(f"  prefix-event check: {v_prefix.statistics[-1]:.4f} "
      f"-> {'ok' if v_prefix.passed else 'fails, as it must'}")
print("  the scaled sum converges path by path; its limit keeps weight")
print("  1/2 on the very first increment, so the sign of that increment")
print("  predicts the limit forever -- stable, never mixing")
