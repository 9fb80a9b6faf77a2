"""Distributional convergence checks for normalized process ensembles.

Two statistics do the heavy lifting.  The *mixing* statistic compares, over
a family of prefix-measurable events F and a theta grid,

    | avg 1_F exp(i<theta, B_n U_n>)  -  freq(F) * phi(theta) |

against a fixed limit characteristic function ``phi``: smallness for every F
simultaneously is what separates genuine mixing-type convergence from mere
convergence in distribution.  The *stable* statistic replaces the factorized
reference with the path-conditional limit

    | avg 1_F exp(i<theta, Q_n U_n>)  -  avg 1_F phi_cond(atom, theta) |

where ``phi_cond`` is read off the spec's latent atom table (each atom's
scale and factor) at the atom each path drew at time zero.  Both are
evaluated under the sub-population where the conditioning event holds.

The three structural condition checkers (scale-limit match, stochastic
boundedness, scaling-ratio stability) validate the hypotheses the limit
statements rest on, directly from simulated ensembles.

Both statistics take their event-wise sums from
:func:`stablemix.ecf.phase_sums`, the kernel behind the plain empirical
characteristic function; with the trivial event family the mixing
statistic is ``sup_distance`` of that ecf, bit for bit.  A verdict keeps
the sure event's sums at its final checkpoint as an :class:`EcfEstimate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .ecf import (
    EcfEstimate,
    ThetaGrid,
    default_grid,
    hoeffding_radius,
    phase_sums,
)
from .errors import GridMismatchError, InsufficientDataError, InvalidInputError
from .laws import series_cf_values
from .processes import Ensemble

MIN_FILTERED_PATHS = 1000

DEFAULT_TOLERANCE = 1e-8

# Percentile of the per-path deviations that conditions (i) and (iii) report.
CONDITION_PERCENTILE = 95.0


@dataclass(frozen=True)
class PathEvent:
    """Named event depending on a bounded path prefix (latent draw plus the
    first couple of noise increments)."""

    label: str
    fn: Callable[[Ensemble], np.ndarray]

    def evaluate(self, ensemble: Ensemble) -> np.ndarray:
        mask = np.asarray(self.fn(ensemble), dtype=bool)
        if mask.shape != (ensemble.n_paths,):
            raise InvalidInputError(
                f"event {self.label!r} produced shape {mask.shape}, "
                f"expected ({ensemble.n_paths},)"
            )
        return mask


@dataclass(frozen=True)
class EventFamily:
    """Finite family of prefix events; the sure event always sits first.

    Built from binary features: the family lists the sure event, each
    feature, and every atom of the partition the features generate, so it is
    closed under the intersections that matter for the statistics.
    """

    events: tuple[PathEvent, ...]

    def __post_init__(self):
        if not self.events or self.events[0].label != "all":
            raise InvalidInputError("event family must start with the sure event")

    def __len__(self) -> int:
        return len(self.events)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(e.label for e in self.events)

    def indicator_matrix(self, ensemble: Ensemble) -> np.ndarray:
        inds = np.stack([e.evaluate(ensemble) for e in self.events])
        if not inds[0].all():
            raise InvalidInputError("the family's first event must hold on every path")
        return inds


def _sure_event() -> PathEvent:
    return PathEvent("all", lambda e: np.ones(e.n_paths, dtype=bool))


def omega_family() -> EventFamily:
    """Just the sure event; reduces the mixing statistic to a plain
    empirical-characteristic-function distance."""
    return EventFamily((_sure_event(),))


def family_from_features(features: list[PathEvent]) -> EventFamily:
    """Sure event + each feature + all sign-pattern atoms of the features."""
    events = [_sure_event()]
    events.extend(features)
    if len(features) > 1:
        for pattern in range(1 << len(features)):

            def atom(e, pat=pattern, feats=tuple(features)):
                mask = np.ones(e.n_paths, dtype=bool)
                for bit, feat in enumerate(feats):
                    want = bool((pat >> bit) & 1)
                    mask &= feat.evaluate(e) == want
                return mask

            bits = [
                ("" if (pattern >> b) & 1 else "not-") + f.label
                for b, f in enumerate(features)
            ]
            events.append(PathEvent("&".join(bits), atom))
    return EventFamily(tuple(events))


def _scale_label(lam: float) -> str:
    """Event label of the latent scale ``lam``: its shortest round-trip
    ``repr`` with a trailing ``.0`` dropped, so distinct scales never share
    a label and 1, 2 and 0.5 read ``lam-is-1``, ``lam-is-2``, ``lam-is-0.5``."""
    return "lam-is-" + repr(float(lam)).removesuffix(".0")


def default_family(ensemble: Ensemble) -> EventFamily:
    """Two binary prefix features: sign of the first noise coordinate, and
    whether the latent draw matches the first atom's scale, or else is the
    first factor, when the atom table has either."""
    features = [
        PathEvent("noise0-nonneg", lambda e: e.noise_prefix[:, 0, 0] >= 0.0)
    ]
    spec = ensemble.spec
    if spec.atom_scale is not None:
        first = spec.atom_scale[0]
        features.append(
            PathEvent(
                _scale_label(first),
                lambda e: e.spec.atom_scale[e.latent.atom] == first,
            )
        )
    elif spec.atom_factor is not None:
        features.append(PathEvent("factor-is-0", lambda e: e.latent.atom == 0))
    return family_from_features(features)


@dataclass(frozen=True)
class ConvergenceVerdict:
    """Outcome of one check: per-checkpoint statistics against thresholds.

    ``ecf`` is, for the stable and mixing verdicts, the plain empirical
    characteristic function of the final checkpoint's filtered values,
    taken from the statistic's own sure-event sums; it is not part of the
    JSON form or of equality.
    """

    condition: str
    checkpoints: tuple[int, ...]
    statistics: tuple[float, ...]
    thresholds: tuple[float, ...]
    passed: bool
    n_paths: int
    detail: dict = field(default_factory=dict)
    ecf: EcfEstimate | None = field(default=None, compare=False, repr=False)

    def to_json(self) -> dict:
        return {
            "condition": self.condition,
            "checkpoints": list(self.checkpoints),
            "statistics": list(self.statistics),
            "thresholds": list(self.thresholds),
            "pass": self.passed,
            "n_paths": self.n_paths,
            "detail": self.detail,
        }


def _opnorms(mats: np.ndarray, atom: np.ndarray) -> np.ndarray:
    """Operator norm of each atom's matrix, given to every path of the atom.
    One SVD per atom equals per-path SVDs bit for bit at a fraction of the
    cost."""
    return np.linalg.svd(mats, compute_uv=False)[:, 0][atom]


def check_condition_i(
    ensemble: Ensemble, tol: float = DEFAULT_TOLERANCE
) -> ConvergenceVerdict:
    """Does ``Q_n B_n^-1`` settle on the limiting scale matrix?

    ``B_n`` is ``P^n`` times the scalar ``b = 1 / b_divisor(n)`` of the
    path's atom, so ``Q_n B_n^-1`` is the identity over ``b`` and nothing
    is inverted.  Statistic per checkpoint: the ``CONDITION_PERCENTILE``
    percentile, over qualifying paths, of the operator-norm deviation from
    the atom's scale times the identity.  Exactly normalized variants
    report 0; the perturbed variant decays like 1/n.  Pass requires the
    deviation sequence to be non-increasing (up to ``tol``) and to end at
    or below ``tol``.
    """
    mask = ensemble.latent.in_g
    if not mask.any():
        raise InsufficientDataError("no paths satisfy the conditioning event")
    spec = ensemble.spec
    atom = ensemble.latent.atom[mask]
    eye = np.eye(ensemble.dim)[None]
    scale = spec.b_divisor(np.inf)[:, None, None]
    stats = []
    for n in ensemble.checkpoints:
        b = 1.0 / spec.b_divisor(n)[:, None, None]
        norms = _opnorms(eye / b - scale * eye, atom)
        stats.append(float(np.percentile(norms, CONDITION_PERCENTILE)))
    monotone = all(b <= a + tol for a, b in zip(stats, stats[1:]))
    passed = monotone and stats[-1] <= tol
    return ConvergenceVerdict(
        condition="scale-limit",
        checkpoints=ensemble.checkpoints,
        statistics=tuple(stats),
        thresholds=tuple([tol] * len(stats)),
        passed=passed,
        n_paths=int(mask.sum()),
        detail={"percentile": CONDITION_PERCENTILE},
    )


def check_condition_ii(
    ensemble: Ensemble, levels=(2.0, 4.0, 8.0, 16.0), bound: float = 0.05
) -> ConvergenceVerdict:
    """Is ``Q_n U_n`` stochastically bounded along the checkpoints?

    Reports exceedance frequencies ``P(|Q_n U_n| > K)`` for each level K.
    Pass requires the largest level to stay under ``bound`` at every
    checkpoint with no upward trend beyond the sampling slack
    ``3 / (2 sqrt(count))`` at the filtered path count (``detail["slack"]``).
    """
    levels = tuple(float(k) for k in levels)
    if not levels or min(levels) <= 0:
        raise InvalidInputError("levels must be positive")
    mask = ensemble.latent.in_g
    if not mask.any():
        raise InsufficientDataError("no paths satisfy the conditioning event")
    count = int(mask.sum())
    # Plain floats throughout: the verdict lands in strict-JSON reports.
    slack = 3.0 / (2.0 * count**0.5)
    table = []
    for n in ensemble.checkpoints:
        norms = np.linalg.norm(ensemble.qu[n][mask], axis=1)
        table.append([float(np.mean(norms > k)) for k in levels])
    top = [row[-1] for row in table]
    passed = bool(max(top) <= bound and top[-1] <= top[0] + slack)
    return ConvergenceVerdict(
        condition="stochastic-boundedness",
        checkpoints=ensemble.checkpoints,
        statistics=tuple(top),
        thresholds=tuple([bound] * len(top)),
        passed=passed,
        n_paths=count,
        detail={"levels": list(levels), "exceedance": table, "slack": slack},
    )


def check_condition_iii(
    ensemble: Ensemble, r_list=(1, 2, 4), tol: float = DEFAULT_TOLERANCE
) -> ConvergenceVerdict:
    """Do scaling ratios ``B_n B_{n-r}^-1`` match the contraction powers?

    The ratio is ``P^r`` times ``b(n) / b(n-r)``, with ``b = 1 / b_divisor``
    the scalar of ``B``.  Statistic per checkpoint: max over lags r of the
    ``CONDITION_PERCENTILE`` percentile operator-norm deviation from
    ``P^r``.  A lag reaching below index 0 is invalid input.
    """
    r_list = tuple(int(r) for r in r_list)
    if not r_list or min(r_list) < 1:
        raise InvalidInputError("lags must be positive integers")
    mask = ensemble.latent.in_g
    if not mask.any():
        raise InsufficientDataError("no paths satisfy the conditioning event")
    spec = ensemble.spec
    atom = ensemble.latent.atom[mask]
    stats = []
    for n in ensemble.checkpoints:
        worst = 0.0
        for r in r_list:
            # n - r = 0 is out too: U_0 = 0 makes B_0 a degenerate scale.
            if n - r < 1:
                raise InvalidInputError(
                    f"lag {r} reaches before time one at checkpoint {n}"
                )
            target = np.linalg.matrix_power(spec.P, r)[None]
            ratio = (1.0 / spec.b_divisor(n)) / (1.0 / spec.b_divisor(n - r))
            norms = _opnorms(target * ratio[:, None, None] - target, atom)
            worst = max(worst, float(np.percentile(norms, CONDITION_PERCENTILE)))
        stats.append(worst)
    passed = all(s <= tol for s in stats)
    return ConvergenceVerdict(
        condition="scaling-ratio",
        checkpoints=ensemble.checkpoints,
        statistics=tuple(stats),
        thresholds=tuple([tol] * len(stats)),
        passed=passed,
        n_paths=int(mask.sum()),
        detail={"lags": list(r_list), "percentile": CONDITION_PERCENTILE},
    )


def _check_grid(grid: ThetaGrid, dim: int) -> None:
    if grid.dim != dim:
        raise GridMismatchError(f"grid dim {grid.dim} does not match process dim {dim}")


def mixing_reference(spec, r: int, grid: ThetaGrid) -> np.ndarray:
    """Characteristic function of the truncated limit series of ``B_n U_n``.

    The latent scale never enters: it cancels inside ``B_n``, which is
    exactly what makes a scaled limit mixing rather than merely stable.  A
    latent factor does not cancel, so a spec with a factor table has no
    factorized mixing reference; ask for the conditional one.
    """
    _check_grid(grid, spec.dim)
    if spec.atom_factor is not None:
        raise InvalidInputError(
            "a latent factor makes the limit latent-dependent; use "
            "conditional_reference with the stable statistic"
        )
    return series_cf_values(
        spec.noise_law, spec.P, r, grid.points, start=spec.first_lag
    )


def conditional_reference(spec, r: int, grid: ThetaGrid) -> np.ndarray:
    """Limit characteristic function of ``Q_n U_n`` given the latent draw,
    as an ``(n_atoms, len(grid))`` table: row ``k`` is the truncated series
    cf at atom ``k``'s limit scale ``b_divisor(inf)`` and factor."""
    _check_grid(grid, spec.dim)
    scale = spec.b_divisor(np.inf)
    factors = [None] * len(scale) if spec.atom_factor is None else spec.atom_factor
    return np.stack([
        series_cf_values(spec.noise_law, spec.P, r, s * grid.points, f, spec.first_lag)
        for s, f in zip(scale, factors)
    ])


def _event_sums(ensemble, n, family, grid, which, workers, sure_sums):
    """Event-wise phase sums of the filtered ``which`` values at checkpoint
    ``n``, as ``(sums, counts, inds, mask)`` with ``inds`` the filtered
    indicator matrix.  When ``sure_sums`` is a list, the sure event's sums
    and the filtered path count are appended to it."""
    n = int(n)
    if n not in ensemble.checkpoints:
        raise InvalidInputError(f"checkpoint {n} was not simulated")
    mask = ensemble.latent.in_g
    if int(mask.sum()) < MIN_FILTERED_PATHS:
        raise InsufficientDataError(
            f"only {int(mask.sum())} paths satisfy the conditioning event; "
            f"need at least {MIN_FILTERED_PATHS}"
        )
    values = getattr(ensemble, which)[n][mask]
    inds = family.indicator_matrix(ensemble)[:, mask]
    sums, counts = phase_sums(values, inds, grid, workers)
    if sure_sums is not None:
        sure_sums.append((sums[0], values.shape[0]))
    return sums, counts, inds, mask


def mixing_statistic(
    ensemble: Ensemble,
    n: int,
    family: EventFamily,
    grid: ThetaGrid,
    reference_values,
    which: str = "bu",
    workers: int = 1,
    sure_sums: list | None = None,
) -> float:
    """Max over (event, theta) of the factorization error against a fixed
    limit characteristic function.

    When ``sure_sums`` is a list, the sure event's phase sums and the
    filtered path count are appended to it, so a caller can form the plain
    ecf without a second pass over the values.
    """
    _check_grid(grid, ensemble.dim)
    if which not in ("bu", "qu"):
        raise InvalidInputError(f"which must be 'bu' or 'qu', got {which!r}")
    ref = np.asarray(reference_values)
    if ref.shape != (len(grid),):
        raise InvalidInputError("reference values do not match the grid")
    sums, counts, inds, _ = _event_sums(
        ensemble, n, family, grid, which, workers, sure_sums
    )
    total = inds.shape[1]
    means = sums / total
    freqs = counts / total
    return float(np.abs(means - freqs[:, None] * ref[None, :]).max())


def stable_statistic(
    ensemble: Ensemble,
    n: int,
    family: EventFamily,
    grid: ThetaGrid,
    conditional_values,
    workers: int = 1,
    sure_sums: list | None = None,
) -> float:
    """Max over (event, theta) of the error against the latent-conditional
    limit characteristic function, event-averaged; ``conditional_values``
    is the per-atom table of :func:`conditional_reference`.  ``sure_sums``
    is as for :func:`mixing_statistic`."""
    _check_grid(grid, ensemble.dim)
    table = np.asarray(conditional_values)
    if table.shape != (len(ensemble.spec.atom_in_g), len(grid)):
        raise InvalidInputError(
            "conditional values do not match the atom table and the grid"
        )
    sums, _, inds, mask = _event_sums(
        ensemble, n, family, grid, "qu", workers, sure_sums
    )
    total = inds.shape[1]
    atom = ensemble.latent.atom[mask]
    per_atom = np.stack([np.bincount(atom[ind], minlength=len(table)) for ind in inds])
    term1 = sums / total
    term2 = (per_atom @ table) / total
    return float(np.abs(term1 - term2).max())


def scale_mixture_gap(spec, grid: ThetaGrid, r: int) -> tuple[float, dict]:
    """Closed-form lower bound on the mixing statistic of ``Q_n U_n``
    against the latent-free reference.

    In the limit, ``avg 1_F exp(i<theta, Q_n U_n>)`` tends to
    ``sum_atoms P(atom and F) phi(lam_atom theta)`` while the factorized
    reference predicts ``P(F) phi(theta)``; the maximal discrepancy over
    atom-measurable events and grid points is computable exactly from the
    characteristic functions.  A strictly positive gap certifies that the
    unscaled limit cannot be of mixing type.  ``gaps`` has one event per
    distinct scale; atoms sharing a scale share their conditional row.
    """
    if spec.atom_scale is None:
        raise InvalidInputError("the closed-form gap needs a table of latent scales")
    ref = mixing_reference(spec, r, grid)
    per_atom = conditional_reference(spec, r, grid)
    probs = spec.atom_probs
    gaps = {"all": float(np.abs(probs @ per_atom - ref).max())}
    for lam in dict.fromkeys(spec.atom_scale.tolist()):
        hit = spec.atom_scale == lam
        p, row = probs[hit].sum(), per_atom[hit][0]
        gaps[_scale_label(lam)] = float(np.abs(p * row - p * ref).max())
    best = max(gaps.values())
    return best, gaps


def _verdict(
    condition, ensemble, family, r, delta, factor, reference, statistic, **detail,
) -> ConvergenceVerdict:
    """Shared tail of the verdicts: resolve the default family and ``r``,
    build ``reference(spec, r, grid)`` once on the default grid, take
    ``statistic(ensemble, n, family, grid, reference)`` per checkpoint and
    judge the last one against ``factor * hoeffding_radius`` at the
    filtered path count.  The final checkpoint's sure-event sums become the
    verdict's ``ecf``."""
    family = default_family(ensemble) if family is None else family
    grid = default_grid(ensemble.dim)
    r = ensemble.checkpoints[-1] - 1 if r is None else int(r)
    ref = reference(ensemble.spec, r, grid)
    sure_sums = []
    stats = tuple(
        statistic(ensemble, n, family, grid, ref, sure_sums=sure_sums)
        for n in ensemble.checkpoints
    )
    sums, count = sure_sums[-1]
    threshold = factor * hoeffding_radius(count, delta)
    return ConvergenceVerdict(
        condition=condition,
        checkpoints=ensemble.checkpoints,
        statistics=stats,
        thresholds=tuple([threshold] * len(stats)),
        passed=stats[-1] <= threshold,
        n_paths=count,
        detail={
            "events": list(family.labels),
            "grid_points": len(grid),
            "r": r,
            "delta": delta,
            "factor": factor,
            **detail,
        },
        ecf=EcfEstimate(grid, sums / count, count, delta),
    )


def verify_mixing(
    ensemble: Ensemble,
    family: EventFamily | None = None,
    r: int | None = None,
    delta: float = 1e-3,
    factor: float = 3.0,
    which: str = "bu",
    workers: int = 1,
) -> ConvergenceVerdict:
    """Mixing statistic across checkpoints, judged at the last one.

    The reference truncation defaults to ``final checkpoint - 1``, where the
    truncated series law coincides exactly with the simulated scaled sum.

    A caution on the explosive variant: its scaled value converges almost
    surely, to a limit that keeps non-vanishing weight on the earliest
    increments.  That convergence is stable but not mixing with respect to
    prefix events, so the default family rightly reports a large statistic
    there; use :func:`omega_family` for the plain distributional check.
    """
    return _verdict(
        "mixing", ensemble, family, r, delta, factor, mixing_reference,
        partial(mixing_statistic, which=which, workers=workers),
        statistic_of=which,
    )


def verify_stable(
    ensemble: Ensemble,
    family: EventFamily | None = None,
    r: int | None = None,
    delta: float = 1e-3,
    factor: float = 3.0,
    workers: int = 1,
) -> ConvergenceVerdict:
    """Stable statistic across checkpoints, judged at the last one."""
    return _verdict(
        "stable", ensemble, family, r, delta, factor, conditional_reference,
        partial(stable_statistic, workers=workers),
    )
