"""Synthetic adapted processes with two normalizing matrix sequences.

Each variant builds a cumulative process ``U_n`` from iid noise together
with two rescalings: a possibly path-dependent one (``B``) that strips all
randomness shared along the path, and a deterministic one (``Q_n = P^n``)
that does not.  The interesting object is the pair ``(B_n U_n, Q_n U_n)`` at
chosen checkpoints: the first converges to a fixed matrix-geometric series
law for every path, the second drags the path-level latent scale along.

Variants are data.  A spec may draw one latent atom per path at time zero
from ``atom_probs``.  Each atom carries a scalar ``atom_scale`` (1 when the
table has none), an optional matrix ``atom_factor`` and its membership
``atom_in_g`` in the conditioning event.  With the spec's ``perturbation``
``p``, the increments are ``dU_k = P^-k V_k`` with the transform

    V_k = (scale + p/k) factor G^k W_k,

``G`` the spec's ``increment_power`` (none unless a variant sets it).  With
the spec's ``recursion`` ``R`` (``P`` unless a variant sets it),
``Q_n U_n = w_n = sum_k R^{n-k} V_k``, formed one segment between
consecutive checkpoints ``a < b`` at a time as
``w_b = R^{b-a} w_a + sum_{a<k<=b} R^{b-k} V_k``, and
``B_n = P^n / (scale + p/n)`` divides the scale back out of it.

``SyntheticCanonical``
    No latent draw: ``B_n U_n = Q_n U_n = sum_k P^{n-k} W_k`` exactly; the
    cleanest test bench.
``RandomScaled``
    The atoms are scalar scales ``lam``.  ``B`` undoes them, exactly for
    ``p = 0`` and only in the limit otherwise, where the scale-limit and
    scaling-ratio checks report their ``1/n`` and ``1/n^2`` rates and
    still pass; ``Q_n U_n`` keeps the factor ``lam``.
``DiscreteFactor``
    The atoms are matrix factors inside the normalization:
    ``dU_n = P^-n S W_n``, ``B_n = Q_n = P^n``.
``ExplosiveVar``
    ``U_n = A U_{n-1} + eps_n`` with every eigenvalue of ``A`` outside the
    unit circle, normalized by ``B_n = A^-n``.  Provided for the series
    diagnostics; ``R = I`` and ``G = A^-1`` make its ``B_n U_n`` the partial
    sum ``sum_k A^-k eps_k``.

Determinism: path ``i`` of an ensemble is a pure function of
``(seed, stream, i)`` and the checkpoint list; see :mod:`stablemix.streams`.
A checkpoint's last bits depend on where the checkpoint before it falls,
where its segment starts.  Each path is a lane of the kernel's contraction
and sums its lags in step order whatever its slice holds, so worker count,
chunking and the number of paths never move a bit.  A trajectory is an
ensemble row checkpointed at every step, with raw states ``U_k = P^-k Q_k U_k``.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from . import matalg, streams
from .csvio import write_csv
from .errors import (
    HypothesisViolationError,
    InvalidInputError,
    RangeOverflowError,
    converted,
    integral,
)
from .laws import IncrementLaw

# How many leading raw noise increments ensembles retain for event features.
PREFIX_KEEP = 2


def _check_discrete(values: np.ndarray, probs) -> np.ndarray:
    probs = matalg.as_floats(probs, "atom probabilities")
    if probs.shape != (len(values),):
        raise InvalidInputError("probabilities do not match the number of atoms")
    if not np.isfinite(probs).all() or probs.min() <= 0.0:
        raise InvalidInputError("atom probabilities must be positive and finite")
    if abs(probs.sum() - 1.0) > 1e-9:
        raise InvalidInputError(f"atom probabilities sum to {probs.sum()}, not 1")
    return probs / probs.sum()


class ProcessSpec:
    """Contraction, noise law and latent atom table shared by all variants.

    The table defaults to one implicit atom that is never drawn
    (``atom_probs`` None, no latent uniform), lies in the conditioning
    event, and has neither a scale (``atom_scale`` None) nor a factor
    (``atom_factor`` None).  ``first_lag`` is the lowest power of ``P``
    in the limit series of ``B_n U_n``.
    """

    noise_law: IncrementLaw
    dim: int
    first_lag = 0

    def __init__(self, P, noise_law: IncrementLaw):
        self.P = matalg.as_square(P, "P")
        rho = matalg.spectral_radius(self.P)
        if rho >= 1.0:
            raise HypothesisViolationError(
                f"P must be a strict contraction in spectral radius, got rho={rho:.6g}"
            )
        if not noise_law.log_moment_finite:
            raise HypothesisViolationError(
                f"{type(noise_law).__name__} noise has an infinite log-moment"
            )
        self.P_inv = matalg.inverse(self.P)
        self.noise_law = noise_law
        self.dim = self.P.shape[0]
        if noise_law.dim != self.dim:
            raise InvalidInputError("noise law dimension does not match P")
        self.atom_probs = None
        self.atom_scale = None
        self.atom_factor = None
        self.atom_in_g = np.ones(1, dtype=bool)
        self.perturbation = 0.0
        self.recursion = self.P
        self.increment_power = None

    @property
    def latent_uniforms(self) -> int:
        return 0 if self.atom_probs is None else 1

    def b_divisor(self, n) -> np.ndarray:
        """Per-atom ``scale + perturbation/n``: ``B_n = P^n / b_divisor(n)``.
        At ``n = inf`` it is the atom's scale, the limit."""
        scale = self.atom_scale
        if scale is None:
            scale = np.ones(len(self.atom_in_g))
        return scale + self.perturbation / n


class SyntheticCanonical(ProcessSpec):
    """Exact-normalization bench: ``B_n U_n = sum_k P^{n-k} W_k`` identically."""


class RandomScaled(ProcessSpec):
    """One scalar latent ``lam`` from a finite law on nonzero reals scales
    the whole path; ``B`` undoes it, ``Q`` does not.

    ``event_values`` restricts attention to a sub-population of latent
    atoms (the conditioning event); it must have positive probability.
    ``perturbation`` shifts ``B_n`` to ``(lam + perturbation/n)^-1 P^n`` so
    the scale match is only asymptotic; leave at zero for exact
    normalization.
    """

    def __init__(
        self,
        P,
        noise_law: IncrementLaw,
        lam_values,
        lam_probs,
        event_values=None,
        perturbation: float = 0.0,
    ):
        super().__init__(P, noise_law)
        lam = np.atleast_1d(matalg.as_floats(lam_values, "lam_values"))
        if lam.ndim != 1 or len(lam) == 0:
            raise InvalidInputError("lam_values must be a nonempty vector")
        if not np.isfinite(lam).all() or (lam == 0.0).any():
            raise InvalidInputError("latent scale atoms must be finite and nonzero")
        self.atom_scale = lam
        self.atom_probs = _check_discrete(lam, lam_probs)
        if event_values is None:
            event_values = lam
        event_values = np.atleast_1d(matalg.as_floats(event_values, "event_values"))
        self.atom_in_g = np.isin(lam, event_values)
        if not self.atom_in_g.any():
            raise InvalidInputError("conditioning event must contain at least one atom")
        missing = set(event_values.tolist()) - set(lam.tolist())
        if missing:
            raise InvalidInputError(f"event values {sorted(missing)} are not atoms")
        self.perturbation = float(perturbation)
        if not np.isfinite(self.perturbation) or self.perturbation < 0.0:
            raise InvalidInputError("perturbation must be a nonnegative float")
        # A step n < 2^51 with lam + p/n == 0 is the integer nearest p/-lam.
        with np.errstate(over="ignore"):
            steps = np.maximum(np.round(self.perturbation / -lam), 1.0)
        vanishes = self.b_divisor(steps) == 0.0
        if vanishes.any():
            a = int(np.argmax(vanishes))
            raise HypothesisViolationError(
                f"B_n is undefined: lam + perturbation/n vanishes for atom {a} "
                f"(lam={lam[a]:g}) at step n={steps[a]:g}"
            )


class DiscreteFactor(ProcessSpec):
    """One matrix factor drawn at time zero multiplies every increment."""

    def __init__(self, P, noise_law: IncrementLaw, factors, factor_probs):
        super().__init__(P, noise_law)
        factors = [matalg.as_square(f, "factor") for f in factors]
        if not factors or any(f.shape != self.P.shape for f in factors):
            raise InvalidInputError("factor matrices must match the process dimension")
        self.atom_factor = np.stack(factors)
        self.atom_probs = _check_discrete(self.atom_factor, factor_probs)
        self.atom_in_g = np.ones(len(self.atom_factor), dtype=bool)


class ExplosiveVar(ProcessSpec):
    """First-order autoregression with an explosive coefficient matrix,
    normalized by inverse powers.  Diagnostics bench only.  Its limit
    ``sum_{k>=1} A^-k eps_k`` starts at lag one."""

    first_lag = 1

    def __init__(self, A, noise_law: IncrementLaw):
        arr = matalg.as_square(A, "A")
        moduli = np.abs(np.linalg.eigvals(arr))
        if moduli.min() <= 1.0:
            raise HypothesisViolationError(
                "every eigenvalue of A must lie outside the unit circle, "
                f"got moduli {np.sort(moduli)}"
            )
        # The contraction driving the series view is A^-1.
        super().__init__(matalg.inverse(arr), noise_law)
        self.recursion = np.eye(self.dim)
        self.increment_power = self.P


def _draw_latent(spec: ProcessSpec, u: np.ndarray) -> np.ndarray:
    """Each path's atom from its ``(count, latent_uniforms)`` leading
    uniforms, 0 when the spec draws none."""
    if spec.atom_probs is None:
        return np.zeros(len(u), dtype=np.intp)
    cum = np.cumsum(spec.atom_probs)
    return np.minimum(np.searchsorted(cum, u[:, 0], side="right"), len(cum) - 1)


def _transformed(spec: ProcessSpec, W, atom, powers) -> None:
    """Overwrite the ``(count, n, d)`` noise ``W`` with ``factor G^k W_k``
    for each path's atom; ``powers`` holds ``G^1..G^n`` or is None when the
    spec has no ``G``."""
    if powers is not None:
        W[...] = np.einsum("kde,cke->ckd", powers, W)
    if spec.atom_factor is not None:
        for k, factor in enumerate(spec.atom_factor):
            mask = atom == k
            if mask.any():
                W[mask] = W[mask] @ factor.T


@np.errstate(over="ignore", invalid="ignore")
def _scaled_rows(spec: ProcessSpec, draws, checkpoints, qu, atom, prefix) -> None:
    """The one accumulation kernel, for the ``len(atom)`` paths of the
    slices of ``IncrementLaw.draws`` with ``lead`` the spec's
    ``latent_uniforms``; its callers judge float overflow.

    Writes each row's atom into ``atom``, ``Q_n U_n`` at the ``i``-th
    checkpoint ``n`` of the sorted tuple ``checkpoints`` into ``qu[i]``,
    and the first raw noise increments into ``prefix``.  Each slice is cut
    to its prefix, transformed in place, then copied lane-major (paths
    innermost) into ``V``, one ``(n, d, lanes)`` buffer reused by every
    slice like the scale coefficients, and scaled there.  The values come
    from ``w_n = sum_{k<=n} R^{n-k} V_k``, the form free of huge inverse
    powers, one segment between consecutive checkpoints ``a < b`` at a time:

        w_b = R^{b-a} w_a + sum_{a<k<=b} R^{b-k} V_k,

    one :func:`matalg.lag_contract` whose lag 0 is the carry ``w_a``,
    written into the spent lag ``V_a``, and whose coefficients
    ``R^{b-a} .. R^0`` are built once per segment length.  Each lane sums
    its lags in order, whatever the slice's row count, so worker count and
    chunking cannot move a bit; a checkpoint's last bits do depend on
    where the checkpoint before it falls.  For ``R = I`` each segment is
    the running sum in step order.
    """
    n, G = checkpoints[-1], spec.increment_power
    powers = None if G is None else matalg.power_sequence(G, n)[1:]
    # Segment i sums the lags starts[i] .. checkpoints[i] - 1 of the slice:
    # V_1 .. V_b for the first, the carry and V_{a+1} .. V_b after it.
    starts = (0, *(a - 1 for a in checkpoints[:-1]))
    lengths = {b - s - 1 for s, b in zip(starts, checkpoints)}
    R_powers = matalg.power_sequence(spec.recursion, max(lengths))
    coeffs = {
        L: np.ascontiguousarray(R_powers[L::-1].transpose(0, 2, 1)) for L in lengths
    }
    shift = spec.perturbation / np.arange(1, n + 1)[:, None]
    for rows, v, W in draws:
        k = len(W)
        if not rows.start:
            V, scale = np.empty((n, spec.dim, k)), np.empty((n, k))
        atom[rows] = _draw_latent(spec, v)
        prefix[rows] = W[:, :PREFIX_KEEP]
        _transformed(spec, W, atom[rows], powers)
        lanes = V[..., :k]
        lanes[...] = W.transpose(1, 2, 0)
        if spec.atom_scale is not None:
            np.add(spec.atom_scale[atom[rows]], shift, out=scale[:, :k])
            lanes *= scale[:, None, :k]
        for i, (s, b) in enumerate(zip(starts, checkpoints)):
            if i:
                lanes[s] = qu[i - 1, rows].T
            qu[i, rows] = matalg.lag_contract(coeffs[b - s - 1], lanes[s:b]).T


def _raw_states(spec: ProcessSpec, qu: dict, n: int) -> np.ndarray:
    """Raw states ``U_k = P^-k Q_k U_k`` for ``k = 0..n`` (``U_0 = 0``) from
    ``qu[k]``, the ``(paths, d)`` values of ``Q_k U_k`` at every step.

    Raw paths grow geometrically, so a state past the float range raises
    :class:`RangeOverflowError` for every variant alike.
    """
    scaled = np.stack([qu[k] for k in range(1, n + 1)], axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        U = np.einsum(
            "kde,cke->ckd", matalg.power_sequence(spec.P_inv, n)[1:], scaled
        )
    if not np.isfinite(U).all():
        raise RangeOverflowError(
            f"raw state overflowed within {n} steps; shorten the horizon"
        )
    return np.concatenate([np.zeros((len(U), 1, spec.dim)), U], axis=1)


@dataclass(frozen=True)
class ProcessPath:
    """One fully materialized trajectory.

    ``U[k]`` is the state after ``k`` steps (``U[0] = 0``), recovered as
    ``U_k = P^-k Q_k U_k`` from the accumulation kernel's values at every
    step; ``atom`` is the path's row of the spec's atom table.
    """

    U: np.ndarray
    atom: int


def simulate_path(spec: ProcessSpec, n: int, rng: np.random.Generator) -> ProcessPath:
    """Draw one trajectory of length ``n``.

    Takes one stream row from ``rng`` (latent uniforms first, then
    per-step noise) and hands it to the ensemble's accumulation kernel as
    one slice of ``IncrementLaw.draws``, with every step a checkpoint.  A
    generator handing out a path's stream row reproduces that ensemble
    path bit for bit when the ensemble is also checkpointed at every step;
    at other checkpoints the two agree up to rounding, because a
    checkpoint's last bits depend on where the one before it falls.
    """
    if n < 1:
        raise InvalidInputError("n must be at least 1")
    law, lead = spec.noise_law, spec.latent_uniforms
    u = np.atleast_1d(rng.random(lead + n * law.uniforms_per_draw))[None]
    row = (slice(0, 1), u[:, :lead], law.from_uniforms(u[:, lead:].reshape(1, n, -1)))
    qu, atom = np.empty((n, 1, spec.dim)), np.empty(1, dtype=np.intp)
    prefix = np.empty((1, min(PREFIX_KEEP, n), spec.dim))
    _scaled_rows(spec, [row], tuple(range(1, n + 1)), qu, atom, prefix)
    return ProcessPath(_raw_states(spec, dict(enumerate(qu, 1)), n)[0], int(atom[0]))


def as_checkpoints(values) -> tuple[int, ...]:
    """Sorted distinct checkpoints, each integral and at least 1; an object
    array keeps a JSON ``true`` from reading as 1."""
    checkpoints = tuple(
        sorted({integral(x) for x in np.atleast_1d(np.array(values, dtype=object))})
    )
    if not checkpoints or checkpoints[0] < 1:
        raise ValueError("must be positive integers")
    return checkpoints


@dataclass(frozen=True, eq=False)
class _BScaled(Mapping):
    """:attr:`Ensemble.bu` of a spec with atom scales."""

    ens: Ensemble

    def __getitem__(self, n) -> np.ndarray:
        with np.errstate(over="ignore"):
            out = self.ens.qu[n] / self.ens.spec.b_divisor(n)[self.ens.atom][:, None]
        out.flags.writeable = False
        return out

    def __iter__(self):
        return iter(self.ens.qu)

    def __len__(self) -> int:
        return len(self.ens.qu)


@dataclass(frozen=True)
class Ensemble:
    """Checkpointed scaled statistics for many independent paths.

    ``qu[n]`` holds ``Q_n U_n`` as an ``(n_paths, d)`` array, and ``bu[n]``
    gives ``B_n U_n`` (see :attr:`bu`).  ``atom`` holds each path's row of
    the spec's atom table.
    ``noise_prefix`` keeps the first raw noise increments of every path so
    event families can evaluate prefix features without re-simulation.
    :func:`simulate_ensemble` makes every array read-only, so one ensemble
    can serve several commands.
    """

    spec: ProcessSpec
    n_paths: int
    checkpoints: tuple[int, ...]
    qu: dict
    atom: np.ndarray
    noise_prefix: np.ndarray

    @property
    def dim(self) -> int:
        return self.spec.dim

    @property
    def bu(self):
        """``B_n U_n`` by checkpoint: ``qu`` without atom scales, else each
        ``Q_n U_n`` divided by its path's ``b_divisor(n)`` when read."""
        return self.qu if self.spec.atom_scale is None else _BScaled(self)

    @property
    def in_g(self) -> np.ndarray:
        """Each path's membership in the conditioning event: that of its atom."""
        return self.spec.atom_in_g[self.atom]

    @property
    def eta_invertible(self) -> np.ndarray:
        """All true: every latent scale is invertible.  Its only reader is
        the benchmark tracer's filtered-path counter (``bench/tracer.py``)."""
        return np.ones(self.n_paths, dtype=bool)


def simulate_ensemble(
    spec: ProcessSpec, checkpoints, n_paths: int, seed: int, workers: int = 1
) -> Ensemble:
    """Simulate ``n_paths`` independent paths, keeping only checkpoint
    statistics and prefix features.

    Each chunk of stream rows goes through the accumulation kernel, which
    contracts each slice of draws segment by segment between consecutive
    checkpoints and writes every checkpoint's ``Q_n U_n`` into the chunk's
    rows: the cost is O(n) per path plus one contraction call per slice
    and checkpoint.  The kernel is row-local and sums each row in one
    order: values are bit-identical for any worker count and chunking, and
    a smaller ensemble is a prefix of a larger one with the same
    checkpoints.  A value of ``Q_n U_n`` or ``B_n U_n`` past the float range
    raises :class:`RangeOverflowError`.
    """
    checkpoints = converted(as_checkpoints, checkpoints, "checkpoints")
    if n_paths < 1:
        raise InvalidInputError("n_paths must be positive")
    n = checkpoints[-1]
    qu = np.empty((len(checkpoints), n_paths, spec.dim))
    atom = np.empty(n_paths, dtype=np.intp)
    prefix = np.empty((n_paths, min(PREFIX_KEEP, n), spec.dim))

    def chunk(start, count):
        rows = slice(start, start + count)
        noise = spec.noise_law.draws(
            seed, streams.STREAM_PROCESS, start, count, n, spec.latent_uniforms
        )
        _scaled_rows(spec, noise, checkpoints, qu[:, rows], atom[rows], prefix[rows])

    streams.map_chunks(chunk, n_paths, workers)
    for arr in (qu, atom, prefix):
        arr.flags.writeable = False
    qu_at = dict(zip(checkpoints, qu))
    ens = Ensemble(spec, n_paths, checkpoints, qu_at, atom, prefix)
    if not all(np.isfinite(x[cp]).all() for x in (qu_at, ens.bu) for cp in qu_at):
        raise RangeOverflowError(
            f"Q_n U_n or B_n U_n left the float range within {n} steps"
        )
    return ens


def write_paths_csv(path, ensemble: Ensemble) -> None:
    """One row per (path, step) of every ensemble path, with the raw state
    ``U_k = P^-k Q_k U_k`` spread over columns.  The ensemble must be
    checkpointed at every step ``1..n``, so trajectory ``i`` is its row
    ``i``."""
    n = ensemble.checkpoints[-1]
    if ensemble.checkpoints != tuple(range(1, n + 1)):
        raise InvalidInputError("paths.csv needs an ensemble checkpointed at every step")
    spec, atom = ensemble.spec, ensemble.atom
    # lam and s_index cells only where the spec draws them.
    blank = np.full(ensemble.n_paths, "", dtype=object)
    lam = blank if spec.atom_scale is None else spec.atom_scale[atom]
    s_index = blank if spec.atom_factor is None else atom

    def per_path(values):
        return np.repeat(values, n + 1)

    write_csv(
        path,
        ["path_id", "step", "in_g", "lam", "s_index"]
        + [f"u_{i}" for i in range(spec.dim)],
        [
            per_path(np.arange(ensemble.n_paths)),
            np.tile(np.arange(n + 1), ensemble.n_paths),
            per_path(ensemble.in_g.astype(np.int64)),
            per_path(lam),
            per_path(s_index),
            _raw_states(spec, ensemble.qu, n).reshape(-1, spec.dim),
        ],
    )
