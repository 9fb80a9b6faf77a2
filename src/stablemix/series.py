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

from dataclasses import dataclass

import numpy as np

from . import matalg, streams
from .csvio import write_table
from .errors import HorizonExceededError, HypothesisViolationError, InvalidInputError
from .laws import IncrementLaw
from .matalg import GelfandCertificate

# Exceedance threshold used by the diagnostics; the dichotomy being probed
# concerns the events |P^j Z_j| > 1.
EXCEEDANCE_LEVEL = 1.0


@dataclass(frozen=True)
class TruncationPlan:
    """A cut index ``r`` together with the certified bound on what the cut
    discards: ``tail_norm_bound >= sum_{j>r} |P^j|``."""

    r: int
    tail_norm_bound: float
    certificate: GelfandCertificate

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

    One norm table, of at least 256 powers, reaches the smallest ``h`` with
    ``ratio^(h+1) / (1 - ratio) <= 1e-12 * tol``, ``ratio = (1 + rho)/2``,
    so ``r`` is governed by actual power norms, not the geometric envelope.
    An ``h`` past ``matalg.MAX_HORIZON`` raises before any table is built.
    """
    if not (np.isfinite(tol) and tol > 0.0):
        raise InvalidInputError(f"tol must be a positive finite number, got {tol}")
    rho = matalg.spectral_radius(P)
    if rho >= 1.0:
        raise HypothesisViolationError(
            f"spectral radius {rho:.6g} >= 1; power norms cannot decay"
        )
    ratio = 0.5 * (1.0 + rho)
    # Logs throughout, so a tiny tol cannot underflow.  A ratio that rounds
    # to 1 has no finite horizon.
    with np.errstate(divide="ignore"):
        steps = (np.log(1e-12) + np.log(tol) + np.log(1.0 - ratio)) / np.log(ratio)
    horizon = np.ceil(steps) - 1.0
    if ratio == 1.0 or horizon > matalg.MAX_HORIZON:
        raise HorizonExceededError(
            f"cannot certify a tail below tol={tol:.3e} within horizon "
            f"{matalg.MAX_HORIZON}; norm decay is too slow"
        )
    cert, norms = matalg.decay_certificate(P, max(int(horizon), 256))
    past = cert.ratio ** (cert.horizon + 1) / (1.0 - cert.ratio)

    # Suffix sums give the bound for every candidate r in one pass; r equal
    # to the horizon always qualifies, since past <= 1e-12 * tol.
    suffix = np.concatenate([np.cumsum(norms[::-1])[::-1][1:], [0.0]])
    r = int(np.flatnonzero(suffix + past <= tol)[0])
    # Settle boundary cases with the canonical bound evaluation itself.
    while r > 0 and matalg.tail_bound(norms, cert, r - 1) <= tol:
        r -= 1
    while matalg.tail_bound(norms, cert, r) > tol:
        r += 1
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

    Sample ``c`` is ``sum_j P^j z[c, j]``, one unoptimized einsum over the
    powers laid out lag-major, ``(j, e, d)`` with the output coordinate
    ``d`` innermost and contiguous.  numpy's einsum takes a fast path on
    that layout: a 4096-row chunk at ``d = 2`` costs about a tenth of the
    ``(j, d, e)`` layout's time.  The sum runs in one fixed order for each
    row, whatever the row count of the chunk.
    """
    arr = matalg.as_square(P)
    if arr.shape[0] != law.dim:
        raise InvalidInputError("P dimension does not match law dimension")
    if count < 1:
        raise InvalidInputError("count must be positive")
    powers = matalg.power_sequence(arr, r)
    lag_major = np.ascontiguousarray(powers.transpose(0, 2, 1))
    per_path = (r + 1) * law.uniforms_per_draw

    def chunk(start, n):
        u = streams.uniform_block(seed, streams.STREAM_SERIES, start, n, per_path)
        z = law.draw_block(u.reshape(n, r + 1, law.uniforms_per_draw))
        return np.einsum("jed,cje->cd", lag_major, z)

    parts = streams.map_chunks(chunk, count, workers)
    return np.concatenate(parts, axis=0)


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

    Each chunk writes the values of every slice from ``law.slices`` into
    the per-path arrays, so no chunk-wide array of draws, terms or norms is
    formed; a chunk returns only its integer exceedance totals.
    """
    arr = matalg.as_square(P)
    if arr.shape[0] != law.dim:
        raise InvalidInputError("P dimension does not match law dimension")
    if J < 0:
        raise InvalidInputError("J must be nonnegative")
    if n_paths < 1:
        raise InvalidInputError("n_paths must be positive")
    powers = matalg.power_sequence(arr, J)
    per_path = (J + 1) * law.uniforms_per_draw
    counts = np.empty(n_paths, dtype=np.int64)
    last_idx = np.empty(n_paths, dtype=np.int64)
    final_sum, last_norm, log_mom = (np.empty(n_paths) for _ in range(3))

    def chunk(start, count):
        u = streams.uniform_block(seed, streams.STREAM_LEMMA, start, count, per_path)
        totals = np.zeros(J + 1, dtype=np.int64)
        for at, z in law.slices(u.reshape(count, J + 1, law.uniforms_per_draw)):
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
