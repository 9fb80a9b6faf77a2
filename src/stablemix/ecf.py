"""Empirical characteristic functions on fixed theta grids.

The empirical characteristic function is the workhorse comparison device of
this package: distribution-level agreement between a simulation and an
analytic limit is always judged as a sup-distance between characteristic
function values over a finite grid, with a distribution-free
(Hoeffding-style) sampling radius attached.

Accumulation discipline: sample sums are computed per fixed-size row chunk
and folded in chunk order with compensated summation (see
:mod:`stablemix.streams`), so estimates are bit-for-bit reproducible for
any worker count, and an estimate at ``theta = 0`` equals 1 exactly.

One kernel, :func:`phase_sums`, forms every such sum, for the plain ecf
and for the event-wise sums of :mod:`stablemix.verify`.  On an antipodally
symmetric grid (every default grid) it evaluates ``exp(i <theta, x>)`` at
one point of each pair ``+-theta`` only: the partner's sum is the
conjugate, and a zero row's sum is the event's count, both exact.  A grid
without that symmetry, or with a repeated nonzero row, takes the full
route and evaluates every row.

The phase map is ``laws._cos_sin(tan(<theta, x> / 2))``: cosine and sine
through numpy's SIMD ``tan``, within 4.5e-16 of ``exp(i <theta, x>)``, and
odd in ``x`` bit for bit, as the conjugate partners need.  Per chunk it
writes cos and sin into one contiguous ``(2, rows, points)`` block.  That
block, the tangents and the phase map's one temporary live in a scratch
block of ``3 * CHUNK_PATHS * points`` floats that each worker reuses for
every chunk of one call, so a call allocates and faults in its scratch
once per worker, not once per chunk.  An
event holding every row of the chunk (the sure event, and ``inds=None``)
sums the block down its rows, in row order whenever two or more points
are evaluated, as the plain ecf always has.  Every other event's sums come
from one product of the chunk's non-full indicator rows with the block, in
the order the BLAS kernel picks for the product's shape.  Those last bits
are fixed by the chunk grid, so they never depend on the worker count,
but they may differ between BLAS builds or CPU kernels.
"""

from __future__ import annotations

import math
import queue
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import streams
from .csvio import write_csv
from .errors import GridMismatchError, InvalidInputError
from .laws import _cos_sin

DEFAULT_DELTA = 1e-3

# Key for the fixed direction rule; changing it would silently change every
# default grid, so it is frozen here as part of the file-format contract.
_DIRECTION_KEY = 0x5EED0D1E

DEFAULT_DIRECTIONS = 20
DEFAULT_RADII = (0.5, 1.0, 2.0)


def hoeffding_radius(n_samples: int, delta: float = DEFAULT_DELTA) -> float:
    """Distribution-free per-point deviation radius ``sqrt(2 ln(2/delta) / n)``.

    Each of the real and imaginary parts of an empirical characteristic
    function mean lands within this radius of its expectation with
    probability at least ``1 - delta``.
    """
    if n_samples < 1:
        raise InvalidInputError("n_samples must be positive")
    if not (0.0 < delta < 1.0):
        raise InvalidInputError("delta must lie in (0, 1)")
    return math.sqrt(2.0 * math.log(2.0 / delta) / n_samples)


@dataclass(frozen=True)
class ThetaGrid:
    """Finite evaluation grid in frequency space; always contains zero.

    The zero row pins the normalization (every characteristic function is 1
    there), which doubles as a cheap self-test of the accumulation path.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise InvalidInputError("grid must be a nonempty (m, d) array")
        if not np.isfinite(pts).all():
            raise InvalidInputError("grid has non-finite entries")
        if not (np.abs(pts).sum(axis=1) == 0.0).any():
            raise InvalidInputError("grid must include the zero vector")
        object.__setattr__(self, "points", pts)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]

    @cached_property
    def _phase_plan(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(evaluated, mirrored, zeros)`` row indices for :func:`phase_sums`.

        On an antipodally symmetric grid, ``evaluated`` holds one row of each
        pair ``+-theta``, ``mirrored[k]`` the partner of ``evaluated[k]``,
        and ``zeros`` the zero rows.  Any other grid evaluates every row and
        fills none.
        """
        pts = self.points
        zero = ~pts.any(axis=1)
        nonzero = np.flatnonzero(~zero)
        # Float tuples compare and hash -0.0 equal to 0.0, as == does.
        index = {tuple(p): i for i, p in zip(nonzero, pts[nonzero].tolist())}
        partner = [index.get(tuple(p)) for p in (-pts[nonzero]).tolist()]
        if len(index) < len(nonzero) or None in partner:
            return np.arange(len(pts)), np.arange(0), np.arange(0)
        pairs = [(i, j) for i, j in zip(nonzero, partner) if i < j]
        evaluated, mirrored = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
        return evaluated, mirrored, np.flatnonzero(zero)


def default_grid(dim: int) -> ThetaGrid:
    """Zero plus ``DEFAULT_DIRECTIONS`` sphere directions at each of the
    ``DEFAULT_RADII``.

    Directions come from a fixed-key counter generator (antipodally
    symmetrized, so ``-theta`` is on the grid whenever ``theta`` is) and are
    identical across runs and machines.  Rows are sorted lexicographically
    and exact duplicates merged, as ``np.unique(axis=0)`` would, which
    matters only in dimension one; a lexsort and an adjacent-row mask do
    it without importing ``numpy.ma``.  The symmetry is what lets
    :func:`phase_sums` evaluate only half of the nonzero rows; a custom
    :class:`ThetaGrid` without it is summed row by row.
    """
    if dim < 1:
        raise InvalidInputError("dim must be positive")
    rng = np.random.Generator(np.random.Philox(key=[_DIRECTION_KEY, dim]))
    half = rng.standard_normal((DEFAULT_DIRECTIONS // 2, dim))
    half /= np.linalg.norm(half, axis=1, keepdims=True)
    dirs = np.vstack([half, -half])
    pts = (dirs[None, :, :] * np.asarray(DEFAULT_RADII)[:, None, None]).reshape(-1, dim)
    pts = pts[np.lexsort(pts.T[::-1])]
    pts = pts[np.concatenate([[True], (pts[1:] != pts[:-1]).any(axis=1)])]
    return ThetaGrid(np.vstack([np.zeros((1, dim)), pts]))


def _phase_parts(values, inds, grid: ThetaGrid, workers: int) -> list:
    """Per-chunk ``(sums, counts)`` of :func:`phase_sums`, in chunk order."""
    vals = np.atleast_2d(np.asarray(values, dtype=float))
    if vals.shape[1] != grid.dim:
        raise InvalidInputError(
            f"sample dimension {vals.shape[1]} does not match grid dim {grid.dim}"
        )
    if not np.isfinite(vals).all():
        raise InvalidInputError("samples contain non-finite entries")
    if inds is not None:
        inds = np.asarray(inds, dtype=bool)
        if inds.ndim != 2 or inds.shape[1] != vals.shape[0]:
            raise InvalidInputError(
                f"event indicators have shape {inds.shape}, expected "
                f"(n_events, {vals.shape[0]})"
            )
    evaluated, mirrored, zeros = grid._phase_plan
    halves = 0.5 * grid.points[evaluated].T
    # Spare scratch blocks: a chunk takes one, or makes one the size of a
    # full chunk, and hands it back when done, so there is one per worker.
    points = len(evaluated)
    spares = queue.SimpleQueue()

    def chunk(start, count):
        try:
            scratch = spares.get_nowait()
        except queue.Empty:
            scratch = np.empty(3 * min(vals.shape[0], streams.CHUNK_PATHS) * points)
        # Planes (factor, cos, sin) of one contiguous (3, count, points)
        # block, so cs = (cos, sin) is laid out as a fresh array would be.
        # t = tan(<theta, row> / 2) is formed in the sin plane, which the
        # phase map then writes in place.
        planes = scratch[: 3 * count * points].reshape(3, count, points)
        factor, cos, t = planes
        np.matmul(vals[start : start + count], halves, out=t)
        np.tan(t, out=t)
        _cos_sin(t, cos, t, factor=factor)
        cs = planes[1:]
        if inds is None:
            block = np.ones((1, count), dtype=bool)
        else:
            block = inds[:, start : start + count]
        full = block.all(axis=1)
        sums = np.empty((2, len(block), points))
        if full.any():
            sums[:, full] = cs.sum(axis=1)[:, None]
        if not full.all():
            sums[:, ~full] = block[~full].astype(float) @ cs
        counts = block.sum(axis=1, dtype=np.int64)
        out = np.empty((len(block), len(grid)), dtype=complex)
        out.real[:, evaluated], out.imag[:, evaluated] = sums
        # The phase at -theta is the conjugate bit for bit; 0.0 - im
        # (not -im) keeps an exactly cancelled or empty sum at +0.
        out.real[:, mirrored] = sums[0, :, : len(mirrored)]
        out.imag[:, mirrored] = 0.0 - sums[1, :, : len(mirrored)]
        out[:, zeros] = counts[:, None]
        spares.put(scratch)
        return out, counts

    return streams.map_chunks(chunk, vals.shape[0], workers)


def phase_sums(values, inds, grid: ThetaGrid, workers: int = 1):
    """Event-wise sums of ``exp(i <theta, x>)`` over sample rows.

    ``inds`` is an ``(n_events, n)`` boolean matrix, or None for the one
    event holding every row.  Returns ``(sums, counts)`` with shapes
    ``(n_events, len(grid))`` and ``(n_events,)``.  Sums are taken per
    fixed chunk and folded in chunk order, so they are bit-identical for any
    worker count, and the row of an event holding every sample equals the
    one-event sums of :func:`chunked_phase_sums`.
    """
    parts = _phase_parts(values, inds, grid, workers)
    sums = streams.kahan_fold([p[0] for p in parts])
    return sums, np.sum([p[1] for p in parts], axis=0)


def chunked_phase_sums(values: np.ndarray, grid: ThetaGrid, workers: int = 1):
    """Per-chunk complex sums of ``exp(i <theta, x>)`` plus the fold.

    Returns ``(total_sum, per_chunk_sums)``; the one-event case of
    :func:`phase_sums`, which shares its chunk trace and fold.
    """
    parts = [p[0][0] for p in _phase_parts(values, None, grid, workers)]
    return streams.kahan_fold(parts), parts


@dataclass(frozen=True)
class EcfEstimate:
    """Empirical characteristic function values on a grid.

    ``radius`` is the per-point Hoeffding radius at confidence ``delta``;
    the value at the grid's zero row is exactly 1.
    """

    grid: ThetaGrid
    values: np.ndarray
    n_samples: int
    delta: float

    @property
    def radius(self) -> float:
        return hoeffding_radius(self.n_samples, self.delta)


def estimate_ecf(
    samples, grid: ThetaGrid, delta: float = DEFAULT_DELTA, workers: int = 1
) -> EcfEstimate:
    """Average ``exp(i <theta, x>)`` over sample rows, deterministically."""
    arr = np.atleast_2d(np.asarray(samples, dtype=float))
    if arr.shape[0] < 1:
        raise InvalidInputError("need at least one sample")
    hoeffding_radius(arr.shape[0], delta)  # validates both arguments
    total, _ = chunked_phase_sums(arr, grid, workers)
    return EcfEstimate(
        grid=grid, values=total / arr.shape[0], n_samples=arr.shape[0], delta=delta
    )


def sup_distance(estimate: EcfEstimate, reference) -> float:
    """Max modulus difference against ``reference``, one value per grid point."""
    ref = np.asarray(reference)
    if ref.shape != (len(estimate.grid),):
        raise GridMismatchError(
            f"reference has shape {ref.shape}, grid has {len(estimate.grid)} points"
        )
    return float(np.abs(estimate.values - ref).max())


ECF_CSV_COLUMNS = ("re", "im", "n_samples", "radius")


def write_ecf_csv(path, estimate: EcfEstimate) -> None:
    """One row per grid point: theta coordinates, then value and radius."""
    m = len(estimate.grid)
    write_csv(
        path,
        [f"theta_{i}" for i in range(estimate.grid.dim)] + list(ECF_CSV_COLUMNS),
        [
            estimate.grid.points,
            estimate.values.real,
            estimate.values.imag,
            np.full(m, estimate.n_samples),
            np.full(m, estimate.radius),
        ],
    )
