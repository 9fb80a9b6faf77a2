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
scale and factor) at the atom each path drew at time zero.

An :class:`EventFamily` is its binary prefix features; the sure event and
the partition cells are derived from them.  Every check, the three
structural conditions (scale-limit match, stochastic boundedness,
scaling-ratio stability) included, needs paths in the conditioning event
and reports one statistic per checkpoint against one threshold.  Every
spec meets the three conditions by construction, so each reports its
finite-n statistics against their limit 0 and passes by the fact its
docstring names; stochastic boundedness reports its sampled exceedances.
The mixing and stable statistics sum through
:func:`stablemix.ecf.phase_sums`: with ``EventFamily()`` the mixing
statistic is ``sup_distance`` of the plain ecf, bit for bit, and a verdict
keeps its final sure-event sums as an :class:`EcfEstimate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np

from . import matalg
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

# Lags of condition (iii); a checkpoint must lie above the largest.
CONDITION_LAGS = (1, 2, 4)

# Levels of condition (ii)'s exceedance table, ascending.
BOUNDEDNESS_LEVELS = (2.0, 4.0, 8.0, 16.0)


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
    """Finite family of prefix events, generated by binary features.

    The family is its ``features``; its events derive from them: the sure
    event ``all``, each feature, and, with two or more features, every cell
    of the partition they generate, so it is closed under the intersections
    that matter for the statistics.  Without features it is the sure event
    alone, which reduces the mixing statistic to a plain
    empirical-characteristic-function distance.
    """

    features: tuple[PathEvent, ...] = ()

    @property
    def labels(self) -> tuple[str, ...]:
        names = [f.label for f in self.features]
        cells = [
            "&".join(("" if p >> b & 1 else "not-") + f for b, f in enumerate(names))
            for p in range(1 << len(names))
        ] if len(names) > 1 else []
        return ("all", *names, *cells)

    def indicator_matrix(self, ensemble: Ensemble) -> np.ndarray:
        """One boolean row per label.  Each feature is evaluated once; cell
        ``p`` holds the paths on which feature ``b`` holds exactly when bit
        ``b`` of ``p`` is set."""
        n = ensemble.n_paths
        feats = np.array([f.evaluate(ensemble) for f in self.features], bool)
        rows = [np.ones((1, n), dtype=bool), feats.reshape(-1, n)]
        if len(feats) > 1:
            code = (1 << np.arange(len(feats))) @ feats
            rows.append(code == np.arange(1 << len(feats))[:, None])
        return np.concatenate(rows)


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
                lambda e: e.spec.atom_scale[e.atom] == first,
            )
        )
    elif spec.atom_factor is not None:
        features.append(PathEvent("factor-is-0", lambda e: e.atom == 0))
    return EventFamily(tuple(features))


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


def _judged(condition, ensemble, stats, detail, threshold=0.0, passed=True, ecf=None):
    """The verdict over ``ensemble``'s filtered paths: one statistic per
    checkpoint, each against the same ``threshold``.  The default is a
    structural condition's: its statistics against 0, their limit, passed
    because every spec meets the condition by construction."""
    return ConvergenceVerdict(
        condition, ensemble.checkpoints, tuple(stats), (threshold,) * len(stats),
        bool(passed), int(ensemble.in_g.sum()), detail, ecf,
    )


def _filtered(ensemble: Ensemble, minimum: int = 1) -> np.ndarray:
    """Mask of the paths in the conditioning event; fewer than ``minimum``
    of them is an :class:`InsufficientDataError`."""
    mask = ensemble.in_g
    count = int(mask.sum())
    if count < minimum:
        raise InsufficientDataError(
            f"only {count} paths satisfy the conditioning event; "
            f"need at least {minimum}"
        )
    return mask


def check_condition_i(ensemble: Ensemble) -> ConvergenceVerdict:
    """Does ``Q_n B_n^-1`` settle on the limiting scale matrix?

    ``B_n = P^n / b_divisor(n)`` makes ``Q_n B_n^-1`` the identity times
    ``b_divisor(n) = scale + p/n``.  Statistic per checkpoint, a closed
    form of the spec: the largest ``|b_divisor(n) - scale|`` over the
    conditioning event's atoms, 0 for exact normalizations and ``p/n``
    under a perturbation ``p``, the final checkpoint's ``n * statistic``
    being ``detail["rate"]``.  It tends to 0 because every atom scale is
    finite and nonzero, which :class:`~stablemix.processes.RandomScaled`
    checks.
    """
    _filtered(ensemble)
    spec = ensemble.spec
    scale = spec.b_divisor(np.inf)
    stats = [
        float(np.abs(spec.b_divisor(n) - scale)[spec.atom_in_g].max())
        for n in ensemble.checkpoints
    ]
    return _judged(
        "scale-limit", ensemble, stats, {"rate": ensemble.checkpoints[-1] * stats[-1]}
    )


def check_condition_ii(ensemble: Ensemble) -> ConvergenceVerdict:
    """Is ``Q_n U_n`` stochastically bounded along the checkpoints?

    It is a partial sum of an a.s. convergent series, so tight at any
    scale, when the noise has ``E log+ |W| < inf`` (Vervaat 1979), which
    :class:`~stablemix.processes.ProcessSpec` checks.  Statistic per
    checkpoint, for the report: the exceedance ``P(|Q_n U_n| > K)`` at the
    largest of ``BOUNDEDNESS_LEVELS`` (all in ``detail``).
    """
    mask = _filtered(ensemble)
    # Plain floats throughout: the verdict lands in strict-JSON reports.
    norms = (matalg.row_norms(ensemble.qu[n][mask]) for n in ensemble.checkpoints)
    table = [[float(np.mean(x > k)) for k in BOUNDEDNESS_LEVELS] for x in norms]
    return _judged(
        "stochastic-boundedness", ensemble, [row[-1] for row in table],
        {"levels": list(BOUNDEDNESS_LEVELS), "exceedance": table},
    )


def check_condition_iii(ensemble: Ensemble) -> ConvergenceVerdict:
    """Do scaling ratios ``B_n B_{n-r}^-1`` match the contraction powers?

    The ratio is ``P^r`` times ``b_divisor(n-r) / b_divisor(n)``, so its
    deviation from ``P^r`` is ``|b_divisor(n-r) / b_divisor(n) - 1|``
    times ``|P^r|``.  Statistic per checkpoint, a closed form of the spec:
    the largest deviation over ``CONDITION_LAGS`` and the conditioning
    event's atoms.  It tends to 0 because every atom scale is finite and
    nonzero, which :class:`~stablemix.processes.RandomScaled` checks.  A
    checkpoint at or below the largest lag is invalid input: ``U_0 = 0``
    makes ``B_0`` a degenerate scale.
    """
    _filtered(ensemble)
    spec = ensemble.spec
    lag, first = max(CONDITION_LAGS), ensemble.checkpoints[0]
    if first <= lag:
        raise InvalidInputError(
            f"lag {lag} reaches before time one at checkpoint {first}"
        )
    norms = matalg.norm_table(spec.P, lag)

    def deviation(n, r):
        gap = np.abs(spec.b_divisor(n - r) / spec.b_divisor(n) - 1.0)
        return float(gap[spec.atom_in_g].max() * norms[r])

    stats = [max(deviation(n, r) for r in CONDITION_LAGS) for n in ensemble.checkpoints]
    return _judged(
        "scaling-ratio", ensemble, stats, {"lags": list(CONDITION_LAGS)}
    )


def _check_grid(grid: ThetaGrid, dim: int) -> None:
    if grid.dim != dim:
        raise GridMismatchError(f"grid dim {grid.dim} does not match process dim {dim}")


def mixing_reference(spec, r: int, grid: ThetaGrid) -> np.ndarray:
    """Characteristic function of the truncated limit series of ``B_n U_n``.

    The latent scale never enters: it cancels inside ``B_n``, which is
    exactly what makes a scaled limit mixing rather than merely stable.  A
    latent factor does not cancel: the limit law is then the atom mixture
    of the :func:`conditional_reference` rows, which events that see the
    factor do not factorize against.
    """
    _check_grid(grid, spec.dim)
    if spec.atom_factor is not None:
        return spec.atom_probs @ conditional_reference(spec, r, grid)
    # Counted from the start, the explosive VAR's limit sum_{k>=1} A^-k eps_k
    # begins at lag one; every other limit sum_k P^k W_k begins at lag zero.
    return series_cf_values(
        spec.noise_law, spec.P, r, grid.points, start=int(spec.from_start)
    )


def conditional_reference(spec, r: int, grid: ThetaGrid) -> np.ndarray:
    """Limit characteristic function of ``Q_n U_n`` given the latent draw,
    as an ``(n_atoms, len(grid))`` table: row ``k`` is the truncated series
    cf at atom ``k``'s limit scale ``b_divisor(inf)`` and factor."""
    _check_grid(grid, spec.dim)
    scale = spec.b_divisor(np.inf)
    factors = [None] * len(scale) if spec.atom_factor is None else spec.atom_factor
    return np.stack([
        series_cf_values(
            spec.noise_law, spec.P, r, s * grid.points, f, int(spec.from_start)
        )
        for s, f in zip(scale, factors)
    ])


class FilteredEvents:
    """The part of an event statistic that no checkpoint changes: the mask
    of the paths in the conditioning event, the family's indicator matrix
    on them, and, built on first use, each event's count of paths per
    latent atom.  A verdict builds it once for all its checkpoints.
    ``sure`` keeps the sure event's phase sums and the filtered path count
    from the latest :meth:`sums` call, for the verdict's plain ecf."""

    def __init__(self, ensemble: Ensemble, family: EventFamily):
        self.ensemble = ensemble
        self.mask = _filtered(ensemble, MIN_FILTERED_PATHS)
        self.inds = family.indicator_matrix(ensemble)[:, self.mask]
        self.sure = None

    @cached_property
    def per_atom(self) -> np.ndarray:
        """``(n_events, n_atoms)`` filtered path counts."""
        atom = self.ensemble.atom[self.mask]
        n_atoms = len(self.ensemble.spec.atom_in_g)
        return np.stack(
            [np.bincount(atom[ind], minlength=n_atoms) for ind in self.inds]
        )

    def sums(self, which: str, n: int, grid: ThetaGrid, workers: int = 1):
        """Event-wise phase sums of the filtered ``which`` values at
        checkpoint ``n``, as ``(sums, counts)``."""
        _check_grid(grid, self.ensemble.dim)
        n = int(n)
        if n not in self.ensemble.checkpoints:
            raise InvalidInputError(f"checkpoint {n} was not simulated")
        values = getattr(self.ensemble, which)[n][self.mask]
        sums, counts = phase_sums(values, self.inds, grid, workers)
        self.sure = (sums[0], values.shape[0])
        return sums, counts


def mixing_statistic(
    ensemble: Ensemble,
    n: int,
    family: EventFamily,
    grid: ThetaGrid,
    reference_values,
    which: str = "bu",
    workers: int = 1,
    events: FilteredEvents | None = None,
) -> float:
    """Max over (event, theta) of the factorization error against a fixed
    limit characteristic function.

    ``events`` is the :class:`FilteredEvents` of ``ensemble`` and
    ``family``, built here when None; passing it changes no value.
    """
    if which not in ("bu", "qu"):
        raise InvalidInputError(f"which must be 'bu' or 'qu', got {which!r}")
    ref = np.asarray(reference_values)
    if ref.shape != (len(grid),):
        raise InvalidInputError("reference values do not match the grid")
    events = FilteredEvents(ensemble, family) if events is None else events
    sums, counts = events.sums(which, n, grid, workers)
    total = events.inds.shape[1]
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
    events: FilteredEvents | None = None,
) -> float:
    """Max over (event, theta) of the error against the latent-conditional
    limit characteristic function, event-averaged; ``conditional_values``
    is the per-atom table of :func:`conditional_reference`.  ``events`` is
    as for :func:`mixing_statistic`."""
    table = np.asarray(conditional_values)
    if table.shape != (len(ensemble.spec.atom_in_g), len(grid)):
        raise InvalidInputError(
            "conditional values do not match the atom table and the grid"
        )
    events = FilteredEvents(ensemble, family) if events is None else events
    sums, _ = events.sums("qu", n, grid, workers)
    total = events.inds.shape[1]
    term1 = sums / total
    term2 = (events.per_atom @ table) / total
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
    ``statistic(ensemble, n, family, grid, reference)`` per checkpoint,
    on one :class:`FilteredEvents`, and judge the last one against
    ``factor * hoeffding_radius`` at the filtered path count.  The final
    checkpoint's sure-event sums become the verdict's ``ecf``."""
    family = default_family(ensemble) if family is None else family
    grid = default_grid(ensemble.dim)
    r = ensemble.checkpoints[-1] - 1 if r is None else int(r)
    ref = reference(ensemble.spec, r, grid)
    events = FilteredEvents(ensemble, family)
    stats = tuple(
        statistic(ensemble, n, family, grid, ref, events=events)
        for n in ensemble.checkpoints
    )
    sums, count = events.sure
    threshold = factor * hoeffding_radius(count, delta)
    return _judged(
        condition, ensemble, stats,
        {"events": list(family.labels), "grid_points": len(grid), "r": r,
         "delta": delta, "factor": factor, **detail},
        threshold, stats[-1] <= threshold,
        EcfEstimate(grid, sums / count, count, delta),
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
    there; use ``EventFamily()`` for the plain distributional check.
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
