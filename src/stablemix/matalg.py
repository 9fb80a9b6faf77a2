"""Dense matrix analysis helpers: spectral radius, certified norm decay,
matrix powers, PSD square roots, and Euclidean norms of rows.

Everything here works on small dense square matrices (dimension up to a few
dozen; the accuracy contract is stated for d <= 16).  Matrices are plain
``numpy.ndarray`` objects; :func:`as_square` is the single validation
gate used by every public entry point.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    HorizonExceededError,
    HypothesisViolationError,
    InvalidInputError,
    RangeOverflowError,
    SingularMatrixError,
    converted,
)

# Condition-number threshold beyond which a matrix is treated as singular.
COND_LIMIT = 1e12

# Norms beyond this are treated as overflow when building power sequences.
POWER_OVERFLOW = 1e300

# Powers that power_sequence builds between two overflow checks.
POWER_BLOCK = 256

# Largest norm-table horizon a decay certificate may grow to.
MAX_HORIZON = 1 << 15

# Relative asymmetry and negative-eigenvalue tolerances of psd_sqrt.
PSD_TOL = 1e-12


def _numbers(value) -> np.ndarray:
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, (list, tuple)):
            stack.extend(item)
        elif isinstance(item, np.ndarray) and item.dtype.kind in "iuf":
            continue
        elif isinstance(item, bool) or not isinstance(item, numbers.Real):
            raise TypeError("must hold numbers only")
    try:
        return np.asarray(value, dtype=float)
    except ValueError:
        raise ValueError("must be a rectangular array of numbers") from None


def as_floats(value, name: str = "value") -> np.ndarray:
    """``value`` as a float array: a number, a numeric array, or a nested
    list of them.  A boolean, a string or ragged input is an input error."""
    return converted(_numbers, value, name)


def as_square(matrix, name: str = "matrix") -> np.ndarray:
    """Validate and return a finite square float matrix as a C-contiguous array."""
    arr = as_floats(matrix, name)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise InvalidInputError(
            f"{name} must be a nonempty square matrix, got shape {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise InvalidInputError(f"{name} has non-finite entries")
    return np.ascontiguousarray(arr)


def spectral_radius(matrix) -> float:
    """Largest eigenvalue modulus of a square matrix."""
    arr = as_square(matrix)
    return float(np.abs(np.linalg.eigvals(arr)).max())


def inverse(matrix) -> np.ndarray:
    """Matrix inverse, refusing inputs with 2-norm condition number above
    ``COND_LIMIT`` so downstream code never sees non-finite entries."""
    arr = as_square(matrix)
    cond = np.linalg.cond(arr, p=2)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularMatrixError(
            f"matrix is singular or too ill conditioned (cond={cond:.3e})"
        )
    return np.linalg.inv(arr)


def _plain_norms(values: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(values, axis=-1)``, bit for bit.

    numpy reduces a last axis shorter than 8 in order, ``(x0*x0 + x1*x1) +
    ...``, but slowly: on a ``(256, 65, 2)`` array it takes several times
    as long as the same sums written out below.  For real rows of length 1
    to 7 the squares are summed here coordinate by coordinate in that same
    order, across all rows at once; longer rows, where numpy's pairwise sum
    is both the reference and faster, go to ``np.linalg.norm``.

    The one bit that may differ is the sign of a ``nan`` norm: IEEE 754
    leaves it unspecified, and numpy's own can differ for the same row
    between C and Fortran order.
    """
    d = values.shape[-1]
    if values.dtype.kind != "f" or not 1 <= d < 8:
        return np.linalg.norm(values, axis=-1)
    squares = values[..., 0] * values[..., 0]
    for k in range(1, d):
        squares += values[..., k] * values[..., k]
    return np.sqrt(squares)


def row_norms(values: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis of ``values``, with the bits of
    ``np.linalg.norm`` (see :func:`_plain_norms`).

    The plain norm squares each entry, so a finite row above about 1e154
    reads ``inf``.  Such a row is divided by its largest magnitude first
    and the norm scaled back; every other row keeps the plain norm's bits.
    A row holding ``inf`` or ``nan`` keeps its plain norm.
    """
    values = np.asarray(values)
    with np.errstate(over="ignore", invalid="ignore"):
        norms = _plain_norms(values)
        big = np.isinf(norms)
        if big.any():
            rows = values[big]
            top = np.abs(rows).max(axis=-1)
            scaled = top * np.linalg.norm(rows / top[:, None], axis=-1)
            norms[big] = np.where(np.isfinite(top), scaled, np.inf)
    return norms


def power_sequence(matrix, count: int) -> np.ndarray:
    """Stacked powers ``[I, P, P^2, ..., P^count]`` with shape (count+1, d, d).

    Raises :class:`RangeOverflowError` at the first power past the
    representable range, naming the largest supported exponent; powers are
    checked ``POWER_BLOCK`` at a time, so that is within one block of it.
    """
    arr = as_square(matrix)
    if count < 0:
        raise InvalidInputError("power count must be nonnegative")
    d = arr.shape[0]
    out = np.empty((count + 1, d, d))
    out[0] = np.eye(d)
    for lo in range(1, count + 1, POWER_BLOCK):
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(lo, min(lo + POWER_BLOCK, count + 1)):
                out[k] = out[k - 1] @ arr
        bad = ~(np.abs(out[lo : k + 1]) <= POWER_OVERFLOW).all(axis=(1, 2))
        if bad.any():
            k = lo + int(np.argmax(bad))
            raise RangeOverflowError(
                f"matrix power overflow at exponent {k}; max supported exponent "
                f"for this matrix is {k - 1}"
            )
    return out


def lag_contract(lag_major: np.ndarray, lanes: np.ndarray) -> np.ndarray:
    """``sum_j C_j x_j`` for each lane ``c`` of the lane-major ``(lags, d,
    lanes)`` block, ``x_j = lanes[j, :, c]`` and ``lag_major[j, e, d] =
    C_j[d, e]``: the ``(d, lanes)`` result of one ``einsum("jed,jec->dc")``.

    With the lanes contiguous, its inner loop runs over them, and each lane
    sums in lag-then-coordinate order whatever the lane count or the
    block's outer strides; at ``d >= 2`` that is the path-major
    ``einsum("jed,cje->cd")``'s order.  A lone lane would be summed in
    another order, so it is read as two.
    """
    if lanes.shape[-1] == 1:
        return lag_contract(lag_major, np.concatenate([lanes, lanes], axis=-1))[:, :1]
    return np.einsum("jed,jec->dc", lag_major, lanes)


def norm_table(matrix, horizon: int) -> np.ndarray:
    """Operator norms ``[1, |P|, |P^2|, ..., |P^horizon|]`` (length horizon+1).

    Powers that underflow to zero are recorded as zero; overflow raises.
    """
    powers = power_sequence(matrix, horizon)
    # One batched SVD; norms[0] == 1 exactly for the identity block.
    norms = np.linalg.svd(powers, compute_uv=False)[:, 0]
    norms[0] = 1.0
    return norms


@dataclass(frozen=True)
class DecayCertificate:
    """Certified decay of matrix power norms by submultiplicativity.

    ``q = |P^horizon| < 1``.  Every ``j >= horizon`` splits as
    ``m * horizon + i`` with ``0 <= i < horizon``, so ``|P^j| <= q^m |P^i|``:
    the norm table through ``horizon`` and the one number ``q`` bound every
    tail (see :func:`tail_bound`).
    """

    horizon: int
    q: float

    def __post_init__(self):
        if self.horizon < 1 or not (0.0 <= self.q < 1.0):
            raise InvalidInputError(f"need horizon >= 1 and 0 <= q < 1, got {self}")

    def to_json(self) -> dict:
        return {"horizon": self.horizon, "q": self.q}


def decay_certificate(matrix, tol: float = 1.0) -> tuple[DecayCertificate, np.ndarray]:
    """Certificate plus its norm table, with a remainder ``q / (1 - q) *
    sum_{i<horizon} |P^i|`` past the table of at most ``1e-12 * tol``.

    The horizon starts at ``max(64, ceil(log(1e-12 * tol) / log rho))``;
    since ``|P^h| >= rho^h``, no shorter one reaches that remainder.  It
    doubles, up to ``MAX_HORIZON``, until the remainder is small enough;
    at ``MAX_HORIZON`` any ``q < 1`` certifies.  The remainder is compared
    in logs, so a tiny ``tol`` cannot underflow.  Raises
    :class:`HypothesisViolationError` when ``rho(P) >= 1`` and
    :class:`HorizonExceededError` when ``q >= 1`` at ``MAX_HORIZON``.
    """
    arr = as_square(matrix)
    if not (np.isfinite(tol) and tol > 0.0):
        raise InvalidInputError(f"tol must be a positive finite number, got {tol}")
    rho = spectral_radius(arr)
    if rho >= 1.0:
        raise HypothesisViolationError(
            f"spectral radius {rho:.6g} >= 1; power norms cannot decay"
        )
    target = np.log(1e-12) + np.log(tol)
    with np.errstate(divide="ignore"):
        start = np.ceil(target / np.log(rho))
    horizon = int(min(max(64.0, start), MAX_HORIZON))
    while True:
        norms = norm_table(arr, horizon)
        q = float(norms[horizon])
        if q < 1.0:
            with np.errstate(divide="ignore"):
                log_rest = np.log(q) - np.log1p(-q) + np.log(norms[:horizon].sum())
            if log_rest <= target or horizon == MAX_HORIZON:
                return DecayCertificate(horizon, q), norms
        elif horizon == MAX_HORIZON:
            raise HorizonExceededError(
                f"|P^{horizon}| = {q:.6g} >= 1 at the largest horizon; decay too slow"
            )
        horizon = min(2 * horizon, MAX_HORIZON)


def tail_bound(
    norms: np.ndarray, cert: DecayCertificate, r: int, exponent: float = 1.0
) -> float:
    """Upper bound on ``sum_{j>r} |P^j|^e``, ``e = exponent``:

        sum_{j=r+1}^{H-1} |P^j|^e + q^(m e) / (1 - q^e) * sum_{i<H} |P^i|^e,

    with ``H`` the certified horizon and ``m = max(1, (r + 1) // H)``.  The
    tabulated norms below ``H`` enter exactly; every later ``j`` is
    ``m' H + i`` with ``m' >= m``, bounded through the certificate.  The
    ``m`` keeps the bound shrinking for an ``r`` past the horizon.  The
    head is summed by ``math.fsum``, correctly rounded: the remainder is
    far below one rounding step of a pairwise sum, which could otherwise
    leave the bound under the tail it bounds.
    """
    if r < 0:
        raise InvalidInputError("truncation index r must be nonnegative")
    if exponent <= 0.0:
        raise InvalidInputError("exponent must be positive")
    horizon = cert.horizon
    if len(norms) != horizon + 1:
        raise InvalidInputError("norm table length does not match certificate horizon")
    powered = norms[:horizon] ** exponent
    m = max(1, (r + 1) // horizon)
    with np.errstate(divide="ignore"):
        log_q = exponent * np.log(cert.q)
    # 1 - q^e as -expm1(e log q): q^e itself can round to 1 when q is near 1.
    rest = np.exp(m * log_q) / -np.expm1(log_q) * powered.sum()
    return math.fsum(powered[r + 1 :]) + float(rest)


def psd_sqrt(matrix) -> np.ndarray:
    """Symmetric PSD square root via an eigendecomposition.

    The input must be symmetric within ``PSD_TOL * |V|`` and have eigenvalues
    no smaller than ``-PSD_TOL * max(1, |V|)``; tiny negative eigenvalues are
    clipped to zero before the root is formed.
    """
    arr = as_square(matrix, "V")
    norm = float(np.linalg.norm(arr, ord=2))
    asym = float(np.linalg.norm(arr - arr.T, ord=2))
    if asym > PSD_TOL * max(norm, 1e-300):
        raise InvalidInputError(
            f"matrix is not symmetric: |V - V^T| = {asym:.3e} exceeds tolerance"
        )
    sym = 0.5 * (arr + arr.T)
    eigvals, eigvecs = np.linalg.eigh(sym)
    if eigvals.min() < -PSD_TOL * max(1.0, norm):
        raise InvalidInputError(
            f"matrix is not positive semidefinite: min eigenvalue {eigvals.min():.3e}"
        )
    root = (eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))) @ eigvecs.T
    return 0.5 * (root + root.T)
