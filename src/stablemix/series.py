"""Truncated matrix-geometric series and convergence diagnostics.

The central object is the random series ``sum_j P^j Z_j`` for a contraction
``P`` and iid increments ``Z_j``.  This module decides where to cut the
series (:func:`truncation_index`), draws from the truncated law
(:func:`series_ensemble`), and probes the convergence/divergence
dichotomy on simulated paths (:func:`lemma_diagnostics`): with a finite
log-moment the terms ``|P^j Z_j|`` die out geometrically and exceedances of
any fixed threshold stop early; with an infinite log-moment exceedances keep
recurring at arbitrarily late indices.

Singular ``P`` is fine everywhere here; only powers of ``P`` are formed,
never inverses.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from . import matalg, streams
from .csvio import write_table
from .errors import HorizonExceededError, InvalidInputError
from .laws import IncrementLaw
from .matalg import DecayCertificate

# Exceedance threshold used by the diagnostics; the dichotomy being probed
# concerns the events |P^j Z_j| > 1.
EXCEEDANCE_LEVEL = 1.0


@dataclass(frozen=True)
class TruncationPlan:
    """A cut index ``r`` together with the certified bound on what the cut
    discards: ``tail_norm_bound >= sum_{j>r} |P^j|``."""

    r: int
    tail_norm_bound: float
    certificate: DecayCertificate

    def __post_init__(self):
        if self.r < 0:
            raise InvalidInputError("truncation index must be nonnegative")
        if not (np.isfinite(self.tail_norm_bound) and self.tail_norm_bound >= 0.0):
            raise InvalidInputError("tail_norm_bound must be finite and nonnegative")

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "tail_norm_bound": self.tail_norm_bound,
            "certificate": self.certificate.to_json(),
        }


def truncation_index(P, tol: float) -> TruncationPlan:
    """Smallest ``r`` whose certified tail bound is at most ``tol``.

    The decay certificate for ``tol`` leaves at most ``1e-12 * tol`` past
    its table, so ``r`` is governed by actual power norms.  Every
    certificate has ``q >= rho^H`` with ``H <= matalg.MAX_HORIZON``, so when
    ``rho^MAX_HORIZON / (1 - rho^MAX_HORIZON)`` exceeds ``tol`` no cut can
    qualify, and this raises before any table is built.
    """
    if not (np.isfinite(tol) and tol > 0.0):
        raise InvalidInputError(f"tol must be a positive finite number, got {tol}")
    too_slow = (
        f"cannot certify a tail below tol={tol:.3e} within horizon "
        f"{matalg.MAX_HORIZON}; norm decay is too slow"
    )
    rho = matalg.spectral_radius(P)
    floor = rho**matalg.MAX_HORIZON if rho < 1.0 else 0.0
    if floor / (1.0 - floor) > tol:
        raise HorizonExceededError(too_slow)
    cert, norms = matalg.decay_certificate(P, tol)
    if matalg.tail_bound(norms, cert, cert.horizon - 1) > tol:
        raise HorizonExceededError(too_slow)
    # Below the horizon the bound, a closed form falling with r or a shrinking
    # suffix plus a constant, falls with r, and r = horizon - 1 qualifies.
    r = bisect_left(
        range(cert.horizon), True,
        key=lambda j: matalg.tail_bound(norms, cert, j) <= tol,
    )
    return TruncationPlan(
        r=r, tail_norm_bound=matalg.tail_bound(norms, cert, r), certificate=cert
    )


def series_ensemble(
    P,
    law: IncrementLaw,
    r: int,
    seed: int,
    count: int,
    workers: int = 1,
) -> np.ndarray:
    """Stream-addressed batch of truncated-series draws.

    Sample ``i`` is a pure function of ``(seed, STREAM_SERIES, i)``;
    chunking and worker count cannot change any value.

    Sample ``c`` is ``sum_j P^j z[c, j]``, one :func:`matalg.lag_contract`
    per slice of ``law.draws``: the slice is copied lane-major, ``(j, e,
    c)`` with the samples innermost, and contracted against the powers
    laid out ``(j, e, d)``.  Each sample sums its terms in lag order
    whatever the slice's row count (a one-row slice included), so each
    slice writes its rows of one preallocated output.
    """
    arr = matalg.as_square(P)
    if arr.shape[0] != law.dim:
        raise InvalidInputError("P dimension does not match law dimension")
    if count < 1:
        raise InvalidInputError("count must be positive")
    powers = matalg.power_sequence(arr, r)
    lag_major = np.ascontiguousarray(powers.transpose(0, 2, 1))
    out = np.empty((count, law.dim))

    def chunk(start, n):
        rows = out[start : start + n]
        for at, _, z in law.draws(seed, streams.STREAM_SERIES, start, n, r + 1):
            rows[at] = matalg.lag_contract(lag_major, z.transpose(1, 2, 0).copy()).T

    streams.map_chunks(chunk, count, workers)
    return out


@dataclass(frozen=True)
class LemmaDiagnostics:
    """Ensemble view of the convergence/divergence dichotomy.

    ``late_exceedance_fraction`` is the share of paths whose last exceedance
    of the unit level lands beyond ``J/2``: near zero when the log-moment is
    finite, bounded away from zero when it is not.  The per-path arrays
    cover the whole ensemble.
    """

    J: int
    n_paths: int
    per_index_exceedance_freq: np.ndarray  # shape (J+1,)
    late_exceedance_fraction: float
    exceedance_count: np.ndarray  # int, shape (n_paths,)
    last_exceedance_index: np.ndarray  # int, shape (n_paths,)
    final_partial_sum: np.ndarray  # shape (n_paths,)
    last_term_norm: np.ndarray  # shape (n_paths,)
    log_moment: np.ndarray  # shape (n_paths,)


def _apply_powers(powers: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Terms ``P^j z_j``: ``out[..., j, i] = sum_e powers[j, i, e] * z[..., j, e]``.

    Elementwise products summed over ``e`` in order from zero, so a term's
    bits do not depend on the row count of the chunk; matmul and optimized
    einsum go through BLAS, whose rounding can.  For ``d <= 2`` this is the
    arithmetic of the unoptimized einsum, at a fraction of its cost; for
    ``d >= 3`` the two differ in the last bits.
    """
    out = np.empty(z.shape)
    for i in range(z.shape[-1]):
        out[..., i] = sum(powers[:, i, e] * z[..., e] for e in range(z.shape[-1]))
    return out


def lemma_diagnostics(
    P,
    law: IncrementLaw,
    J: int,
    n_paths: int,
    seed: int,
    workers: int = 1,
) -> LemmaDiagnostics:
    """Simulate iid term sequences and summarize their exceedance behavior.

    Accepts any sampler with the :class:`IncrementLaw` interface, including
    diagnostic laws without characteristic functions.  Heavy-tailed samplers
    may produce ``inf`` draws; exceedance counting stays exact because such
    draws genuinely exceed the unit level at every index simulated here.

    Each chunk writes the values of every slice from ``law.draws`` into
    the per-path arrays, so no chunk-wide array of uniforms, draws, terms
    or norms is formed; a chunk returns only its integer exceedance totals.
    """
    arr = matalg.as_square(P)
    if arr.shape[0] != law.dim:
        raise InvalidInputError("P dimension does not match law dimension")
    if J < 0:
        raise InvalidInputError("J must be nonnegative")
    if n_paths < 1:
        raise InvalidInputError("n_paths must be positive")
    powers = matalg.power_sequence(arr, J)
    counts = np.empty(n_paths, dtype=np.int64)
    last_idx = np.empty(n_paths, dtype=np.int64)
    final_sum, last_norm, log_mom = (np.empty(n_paths) for _ in range(3))

    def chunk(start, count):
        totals = np.zeros(J + 1, dtype=np.int64)
        for at, _, z in law.draws(seed, streams.STREAM_LEMMA, start, count, J + 1):
            rows = slice(start + at.start, start + at.stop)
            with np.errstate(invalid="ignore", over="ignore"):
                term_norms = matalg.row_norms(_apply_powers(powers, z))
            # 0 * inf inside the products leaves NaNs exactly when a draw
            # overflowed; the true magnitude there is astronomically large,
            # so record it as infinite rather than dropping the exceedance.
            term_norms[np.isnan(term_norms)] = np.inf
            exceed = term_norms > EXCEEDANCE_LEVEL
            totals += exceed.sum(axis=0)
            counts[rows] = exceed.sum(axis=1)
            # Last exceedance index, -1 for paths that never exceed.
            rev_arg = np.argmax(exceed[:, ::-1], axis=1)
            last_idx[rows] = np.where(counts[rows] > 0, J - rev_arg, -1)
            with np.errstate(over="ignore"):
                final_sum[rows] = term_norms.sum(axis=1)
            last_norm[rows] = term_norms[:, J]
            z_norms = matalg.row_norms(z)
            log_mom[rows] = np.mean(np.log(np.maximum(z_norms, 1.0)), axis=1)
        return totals

    exceed_totals = np.sum(streams.map_chunks(chunk, n_paths, workers), axis=0)
    return LemmaDiagnostics(
        J=J,
        n_paths=n_paths,
        per_index_exceedance_freq=exceed_totals / n_paths,
        late_exceedance_fraction=int((last_idx > J / 2).sum()) / n_paths,
        exceedance_count=counts,
        last_exceedance_index=last_idx,
        final_partial_sum=final_sum,
        last_term_norm=last_norm,
        log_moment=log_mom,
    )


LEMMA_FIELDS = (
    "path_id",
    "J",
    "exceedance_count",
    "last_exceedance_index",
    "final_partial_sum",
    "last_term_norm",
)


def write_lemma_csv(path, diag: LemmaDiagnostics) -> None:
    """Dump one row per simulated path to ``lemma.npy`` at ``path``, one
    structured field per name of ``LEMMA_FIELDS`` (see
    :func:`stablemix.csvio.write_table`).  The name is older than the
    format; the benchmark tracer wraps the function by this name, and it is
    kept until the tracer's layer names are revised (ROADMAP item 15)."""
    write_table(
        path,
        LEMMA_FIELDS,
        [
            np.arange(diag.n_paths),
            np.full(diag.n_paths, diag.J),
            diag.exceedance_count,
            diag.last_exceedance_index,
            diag.final_partial_sum,
            diag.last_term_norm,
        ],
    )
