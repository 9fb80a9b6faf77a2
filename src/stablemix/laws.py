"""Increment laws and limit characteristic functions.

A law here plays two roles at once: it is a sampler (consuming uniforms from
an explicit stream, so draws are reproducible and shardable) and it is a
characteristic function (the analytic reference that the empirical side is
checked against).  Four families are supported as limit increment laws:

* ``NormalLaw``    -- Gaussian with a fixed PSD covariance,
* ``CauchyLaw``    -- the standard isotropic multivariate Cauchy,
* ``StableLaw``    -- symmetric alpha-stable with a discrete spectral measure,
* ``EmpiricalLaw`` -- uniform draws from a finite sample pool.

``LogCauchyRay`` is a deliberately pathological extra sampler with an
infinite log-moment.  It exists only to exercise the divergence diagnostics
and is not a member of the limit-law family (it has no usable
characteristic-function closed form and violates the moment requirement the
four families share).

Sampling transforms are built from fixed numbers of uniforms per draw
(Box-Muller pairs for normals, the Chambers-Mallows-Stuck map for stable
variates, one CMS variate and so two uniforms per spectral atom), which is
what lets path-indexed streams replay exactly.

Every sine and cosine, here and in :mod:`stablemix.ecf`, is taken from a
half-angle tangent by :func:`_cos_sin`.  numpy's float64 ``tan`` is a SIMD
loop, while its ``sin`` and ``cos`` run scalar libm: on an AVX-512 host
under numpy 2.4 they cost about five times as much an element, and complex
``exp`` about fourteen times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matalg, streams
from .errors import InvalidInputError
from .matalg import DecayCertificate, as_floats

# Uniforms that ``IncrementLaw.draws`` draws and maps per ``from_uniforms``
# call: each slice holds ``max(1, SLICE_UNIFORMS // row width)`` paths, so
# a slice's 0.5 MB of uniforms and every elementwise pass of a sampler run
# in cache whatever the row width, and narrow rows do not pay a generator
# set-up per few paths.  A row wider than the budget is a slice on its own.
# Every row is mapped alone, so the width is not part of the bits.
SLICE_UNIFORMS = 1 << 16

# Floor applied to ``1 - u`` before the CMS exponential draw's log; keeps it
# finite at ``u = 1``, which no stream uniform takes.
_U_FLOOR = 1e-300

# Smallest magnitude allowed for the Cauchy denominator draw.
_W_FLOOR = 1e-16

# Floor for the CMS ``cos V``.  It lies below ``sin(pi * 2^-53)``, the
# smallest nonzero value, so it only moves draws with ``u_angle == 0``,
# where ``cos V`` is exactly 0 and ``1 / cos V`` the pole of the map.
_COS_FLOOR = np.pi * 2.0**-54

# Floor for the CMS exponential draw.  It lies below -log(1 - 2^-53), the
# smallest nonzero value, so it only moves draws with ``u_exp == 0``; a
# floor near 1e-300 would overflow ``(cos/w)^((1-alpha)/alpha)`` there.
_EXP_FLOOR = 2.0**-54


def _cos_sin(t, cos=None, sin=None, scale=1.0, factor=None):
    """Write ``scale`` times ``cos(2 atan t)`` and ``sin(2 atan t)``, which
    are ``(1 - t^2) / (1 + t^2)`` and ``2t / (1 + t^2)``, into ``cos`` and
    ``sin``.

    Fed ``t = tan(x / 2)``, they are ``cos x`` and ``sin x`` within 4.5e-16
    absolute for every finite ``x``.  Either output may be None.  ``sin``
    may be ``t`` itself, and so may ``cos`` when ``sin`` is None.  One
    temporary of ``t``'s shape is allocated, or none with ``factor``, a
    scratch array of that shape apart from ``t`` and both outputs.  Every
    element is mapped alone, so its bits do not depend on its array's size
    or layout.
    """
    factor = np.multiply(t, t, out=factor)
    if cos is not None:
        np.subtract(1.0, factor, out=cos)
    factor += 1.0
    np.divide(scale, factor, out=factor)
    if sin is not None:
        np.multiply(t, 2.0, out=sin)
        sin *= factor
    if cos is not None:
        cos *= factor


def _normals(u, k: int) -> np.ndarray:
    """``k`` standard normals per row by Box-Muller, from ``2 ceil(k / 2)``
    uniforms: each pair ``(u1, u2)`` gives ``r cos a`` and ``r sin a`` with
    ``r = sqrt(-2 log(1 - u1))`` and ``a = 2 pi (u2 - 1/2)``.  For odd ``k``
    the last pair's sine is dropped."""
    u = np.asarray(u, dtype=float)
    radius = np.subtract(1.0, u[..., 0::2])
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    half = np.subtract(u[..., 1::2], 0.5)
    half *= np.pi
    np.tan(half, out=half)
    z = np.empty(u.shape)
    _cos_sin(half, z[..., 0::2], z[..., 1::2], scale=radius)
    return z[..., :k]


def _clean_thetas(thetas, dim: int):
    """Return (array of shape (m, dim), was_single_vector)."""
    arr = np.asarray(thetas, dtype=float)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise InvalidInputError(
            f"theta must have dimension {dim}, got shape {np.shape(thetas)}"
        )
    if not np.isfinite(arr).all():
        raise InvalidInputError("theta has non-finite entries")
    return arr, single


@dataclass(frozen=True)
class SpectralMeasure:
    """Finite discrete measure on the unit sphere, stored one atom per
    antipodal pair.

    ``atoms`` has shape (m, dim) with unit rows, ``weights`` is positive.
    The measure it represents is the symmetrized ``sum_k w_k/2 *
    (delta_{s_k} + delta_{-s_k})``, so total mass equals ``weights.sum()``
    and only one representative per pair is stored.
    """

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms = np.atleast_2d(as_floats(self.atoms, "spectral atoms"))
        weights = np.atleast_1d(as_floats(self.weights, "spectral weights"))
        if atoms.ndim != 2 or atoms.shape[0] == 0:
            raise InvalidInputError("spectral measure needs at least one atom")
        if weights.shape != (atoms.shape[0],):
            raise InvalidInputError(
                f"weights shape {weights.shape} does not match {atoms.shape[0]} atoms"
            )
        if not (np.isfinite(atoms).all() and np.isfinite(weights).all()):
            raise InvalidInputError("spectral measure has non-finite entries")
        lengths = np.linalg.norm(atoms, axis=1)
        if np.abs(lengths - 1.0).max() > 1e-12:
            raise InvalidInputError("spectral measure atoms must be unit vectors")
        if weights.min() <= 0.0:
            raise InvalidInputError("spectral measure weights must be positive")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())


class IncrementLaw:
    """Common sampler/characteristic-function interface.

    Subclasses fix ``dim`` and ``uniforms_per_draw`` and implement
    ``from_uniforms``, a pure map from uniforms of shape ``(...,
    uniforms_per_draw)`` to increments of shape ``(..., dim)``, and ``_cf``,
    the characteristic function at the rows of a finite ``(m, dim)`` array.
    ``cf`` is the one gate in front of ``_cf``: it checks the thetas and
    unwraps a single vector.  Stream draws go through ``draws``.
    ``log_moment_finite`` states whether ``E log+ |W| < inf``.
    """

    dim: int
    uniforms_per_draw: int
    log_moment_finite = True

    def from_uniforms(self, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def draws(self, seed, stream, start, count, steps, lead=0):
        """Yield ``(rows, v, z)`` for paths ``start .. start+count-1`` of
        ``stream`` in order: ``rows`` is a ``slice`` of ``range(count)``,
        ``v`` the first ``lead`` uniforms of each path's row and ``z`` the
        ``(k, steps, dim)`` draws from the rest.  A slice holds
        ``max(1, SLICE_UNIFORMS // (lead + steps * uniforms_per_draw))``
        paths, the last one fewer.

        This is the one route from a stream to a sampler.  Each slice draws
        only its own rows, bit for bit those of one larger block, so no
        block wider than a slice is formed; a caller reduces or stores each
        slice while it is in cache.
        """
        upd = self.uniforms_per_draw
        width = lead + steps * upd
        per_slice = max(1, SLICE_UNIFORMS // width)
        for at in range(0, count, per_slice):
            k = min(per_slice, count - at)
            u = streams.uniform_block(seed, stream, start + at, k, width)
            v = u[:, :lead].copy()
            z = self.from_uniforms(u[:, lead:].reshape(k, steps, upd))
            # The caller works on z, and draws the next slice, without u.
            del u
            yield slice(at, at + k), v, z

    def cf(self, thetas) -> np.ndarray:
        arr, single = _clean_thetas(thetas, self.dim)
        out = self._cf(arr)
        return out[0] if single else out

    def _cf(self, arr: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class NormalLaw(IncrementLaw):
    """Centered Gaussian with covariance ``cov`` (symmetric PSD)."""

    def __init__(self, cov):
        self.cov = matalg.as_square(cov, "cov")
        # Raises on asymmetric or indefinite input.
        self.factor = matalg.psd_sqrt(self.cov)
        self.dim = self.cov.shape[0]
        self.uniforms_per_draw = 2 * (-(-self.dim // 2))
        self._identity = np.array_equal(self.factor, np.eye(self.dim))

    def from_uniforms(self, u):
        z = _normals(u, self.dim)
        if self._identity:
            # The matmul's sums start at +0.0, so it maps the -0.0 that
            # Box-Muller gives at u1 = 0 to +0.0; so does adding +0.0.
            return np.add(z, 0.0, out=z)
        return z @ self.factor.T

    def _cf(self, arr):
        quad = np.einsum("md,de,me->m", arr, self.cov, arr)
        return np.exp(-0.5 * quad).astype(complex)


class CauchyLaw(IncrementLaw):
    """Standard isotropic multivariate Cauchy (characteristic function
    ``exp(-|theta|)``), realized as a Gaussian vector divided by the modulus
    of an independent scalar Gaussian."""

    def __init__(self, dim: int):
        if dim < 1:
            raise InvalidInputError("dim must be positive")
        self.dim = int(dim)
        self.uniforms_per_draw = 2 * (-(-(self.dim + 1) // 2))

    def from_uniforms(self, u):
        z = _normals(u, self.dim + 1)
        denom = np.maximum(np.abs(z[..., self.dim]), _W_FLOOR)
        return z[..., : self.dim] / denom[..., None]

    def _cf(self, arr):
        return np.exp(-np.linalg.norm(arr, axis=1)).astype(complex)


def sas_from_uniforms(alpha: float, u_angle, u_exp):
    """Chambers-Mallows-Stuck map for symmetric alpha-stable variates.

    Sends independent uniforms to a variate with characteristic function
    ``exp(-|t|^alpha)``.  Valid for ``alpha`` in (0, 2]; at ``alpha=1`` it
    degenerates to ``tan`` (standard Cauchy), at ``alpha=2`` to a centered
    normal with variance 2.
    """
    if not (0.0 < alpha <= 2.0):
        raise InvalidInputError(f"alpha must lie in (0, 2], got {alpha}")
    u_angle, u_exp = np.broadcast_arrays(
        np.asarray(u_angle, dtype=float), np.asarray(u_exp, dtype=float)
    )
    # V / pi, exact for uniforms on the 2^-53 grid.  Every step below writes
    # into one of three arrays of the draw's shape, and _cos_sin adds one
    # temporary: that bounds the memory of a chunk.
    half = np.subtract(u_angle, 0.5, out=np.empty(u_angle.shape))
    if alpha == 1.0:
        half *= np.pi
        return np.tan(half, out=half)[()]  # [()] unwraps a 0-d result
    # cos V = sin(pi min(u, 1 - u)): accurate to the last bits near the pole.
    tmp = np.abs(half, out=np.empty_like(half))
    np.subtract(0.5, tmp, out=tmp)
    tmp *= 0.5 * np.pi
    np.tan(tmp, out=tmp)
    _cos_sin(tmp, sin=tmp)
    np.maximum(tmp, _COS_FLOOR, out=tmp)
    np.power(tmp, -1.0 / alpha, out=tmp)
    out = np.multiply(half, 0.5 * alpha * np.pi, out=np.empty_like(half))
    np.tan(out, out=out)
    _cos_sin(out, sin=out, scale=tmp)  # sin(alpha V) / cos(V)^(1 / alpha)
    half *= 0.5 * (1.0 - alpha) * np.pi
    np.tan(half, out=half)
    _cos_sin(half, cos=half)  # cos((1 - alpha) V)
    np.subtract(1.0, u_exp, out=tmp)
    np.maximum(tmp, _U_FLOOR, out=tmp)
    np.log(tmp, out=tmp)
    np.negative(tmp, out=tmp)
    np.maximum(tmp, _EXP_FLOOR, out=tmp)  # the exponential draw w
    half /= tmp
    np.power(half, (1.0 - alpha) / alpha, out=half)
    out *= half
    return out[()]


class StableLaw(IncrementLaw):
    """Symmetric alpha-stable law with discrete spectral measure.

    ``alpha`` must lie strictly inside (0, 2): the Gaussian endpoint has its
    own law class and :func:`sas_from_uniforms`, not this one.  A draw
    superposes one symmetric ray per atom,

        sum_k w_k^(1/alpha) * zeta_k * s_k,

    with iid scalar variates ``zeta_k`` from :func:`sas_from_uniforms`, fed
    by uniforms ``(2k, 2k+1)`` of the draw's ``2m``.  Since ``zeta - zeta'``
    has the law of ``2^(1/alpha) zeta``, this is the antipodal pair
    ``(w_k/2)^(1/alpha) (zeta_k - zeta_k') s_k`` with half the draws, and it
    matches the characteristic function ``exp(-sum_k w_k |<theta,
    s_k>|^alpha)``.
    """

    def __init__(self, alpha: float, measure: SpectralMeasure):
        if not (0.0 < alpha < 2.0):
            raise InvalidInputError(
                f"alpha must lie in the open interval (0, 2), got {alpha}"
            )
        self.alpha = float(alpha)
        self.measure = measure
        self.dim = measure.dim
        self.uniforms_per_draw = 2 * measure.atoms.shape[0]

    def from_uniforms(self, u):
        u = np.asarray(u, dtype=float)
        coeff = sas_from_uniforms(self.alpha, u[..., 0::2], u[..., 1::2])
        # One pass per atom over its strided column: broadcasting the
        # weights over a last axis of m atoms runs numpy's loop m at a time.
        for k, scale in enumerate(self.measure.weights ** (1.0 / self.alpha)):
            np.multiply(scale, coeff[..., k], out=coeff[..., k])
        return coeff @ self.measure.atoms

    def _cf(self, arr):
        proj = np.abs(arr @ self.measure.atoms.T) ** self.alpha
        return np.exp(-(proj * self.measure.weights).sum(axis=1)).astype(complex)


class EmpiricalLaw(IncrementLaw):
    """Uniform draws from a finite pool of d-vectors."""

    def __init__(self, pool):
        arr = np.atleast_2d(as_floats(pool, "empirical pool"))
        if arr.ndim != 2 or arr.shape[0] == 0:
            raise InvalidInputError("empirical pool must be a nonempty (n, d) array")
        if not np.isfinite(arr).all():
            raise InvalidInputError("empirical pool has non-finite entries")
        self.pool = arr
        self.dim = arr.shape[1]
        self.uniforms_per_draw = 1

    def from_uniforms(self, u):
        idx = (np.asarray(u, dtype=float)[..., 0] * len(self.pool)).astype(int)
        return self.pool[np.minimum(idx, len(self.pool) - 1)]

    def _cf(self, arr):
        half = np.tan(arr @ (0.5 * self.pool.T))
        phases = np.empty(half.shape, dtype=complex)
        _cos_sin(half, phases.real, phases.imag)
        return phases.mean(axis=1)


class LogCauchyRay(IncrementLaw):
    """Diagnostic sampler ``exp(C) * e_1`` with C standard Cauchy.

    Its log-magnitude is Cauchy-tailed, so the log-moment is infinite; use it
    to demonstrate non-convergent series diagnostics.  Draws can overflow to
    ``inf``; that is honest here, since an overflowed draw genuinely exceeds
    every finite threshold the diagnostics compare against.  Not a limit law:
    no cf closed form is provided, and ``ProcessSpec`` refuses it as noise.
    """

    log_moment_finite = False

    def __init__(self, dim: int = 1):
        if dim < 1:
            raise InvalidInputError("dim must be positive")
        self.dim = int(dim)
        self.uniforms_per_draw = 1

    def from_uniforms(self, u):
        u = np.asarray(u, dtype=float)[..., 0]
        # Overflow to inf is a legitimate sample here: the tail is so heavy
        # that float64 cannot hold every draw.
        with np.errstate(over="ignore"):
            ray = np.exp(np.tan(np.pi * (u - 0.5)))
        out = np.zeros(ray.shape + (self.dim,))
        out[..., 0] = ray
        return out

    def cf(self, thetas):
        raise InvalidInputError(
            "LogCauchyRay is a diagnostic sampler without a closed-form "
            "characteristic function"
        )


def cf_increment(law: IncrementLaw, thetas):
    """Characteristic function of one increment, scalar or grid evaluated.

    Thin named wrapper over ``law.cf`` that also enforces the modulus bound
    every characteristic function must satisfy.
    """
    values = law.cf(thetas)
    if np.abs(np.atleast_1d(values)).max() > 1.0 + 1e-12:
        raise InvalidInputError("characteristic function modulus exceeded 1")
    return values


@dataclass(frozen=True)
class TruncatedCf:
    """Grid values of a truncated limit characteristic function.

    ``exponent_tail`` bounds, per grid point, how much the negative exponent
    can still grow if the series were continued past ``r``; the certificate
    records the norm-decay evidence the bound rests on.
    """

    values: np.ndarray
    exponent_tail: np.ndarray
    r: int
    certificate: DecayCertificate


def series_cf_values(
    law: IncrementLaw, P, r: int, thetas, factor=None, start: int = 0
) -> np.ndarray:
    """Truncated series characteristic function on a theta grid, as the
    product of per-term increment characteristic functions:

        prod_{j=start}^{start+r} phi(factor' (P^j)' theta),

    the cf of ``sum_j P^j factor Z_j`` over those lags.  ``factor`` (a
    ``dim x dim`` matrix, identity when None) multiplies each projected row
    last, and ``start`` skips the first lags: ``start=1`` is the explosive
    sum ``sum_{k>=1} A^-k eps_k`` with ``P = A^-1``.  This is the one
    truncated-series loop of the package; the named limits
    (:func:`cf_normal_limit` and its siblings) and every ``verify``
    reference take their values from it.
    """
    if r < 0 or start < 0:
        raise InvalidInputError(
            f"truncation index r and start lag must be nonnegative, got r={r}, "
            f"start={start}"
        )
    arr = matalg.as_square(P)
    grid, single = _clean_thetas(thetas, law.dim)
    if arr.shape[0] != law.dim:
        raise InvalidInputError("P dimension does not match law dimension")
    if factor is not None:
        factor = matalg.as_square(factor, "factor")
        if factor.shape != arr.shape:
            raise InvalidInputError("factor dimension does not match law dimension")
    values = np.ones(grid.shape[0], dtype=complex)
    proj = grid.copy()
    for _ in range(start):
        proj = proj @ arr
    for _ in range(r + 1):
        values *= law.cf(proj if factor is None else proj @ factor)
        proj = proj @ arr  # theta P^(j+1) rows are (P^(j+1))' theta
    return values[0] if single else values


def _truncated_limit(law, P, thetas, r, exponent, scale) -> TruncatedCf:
    """Series cf values plus the certified tail ``scale * |theta|^exponent
    * sum_{j>r} |P^j|^exponent``, for a law whose exponent obeys
    ``-log|phi(u)| <= scale * |u|^exponent``."""
    values = series_cf_values(law, P, r, thetas)
    cert, norms = matalg.decay_certificate(P)
    tail = matalg.tail_bound(norms, cert, r, exponent=exponent)
    theta_norms = np.linalg.norm(np.asarray(thetas, dtype=float), axis=-1)
    return TruncatedCf(values, scale * theta_norms**exponent * tail, r, cert)


def cf_normal_limit(P, cov, thetas, r: int) -> TruncatedCf:
    """Gaussian limit cf truncated at ``r``, tail bound from ``P``'s decay
    certificate: ``exp(-theta' S_r theta / 2)``, ``S_r = sum_{j<=r} P^j cov P^j'``."""
    law = NormalLaw(cov)
    scale = 0.5 * np.linalg.norm(law.cov, ord=2)
    return _truncated_limit(law, P, thetas, r, 2.0, scale)


def cf_cauchy_limit(P, thetas, r: int) -> TruncatedCf:
    """Cauchy limit cf truncated at ``r``, tail bound from ``P``'s decay
    certificate: ``exp(-sum_{j<=r} |P^j' theta|)``."""
    law = CauchyLaw(matalg.as_square(P).shape[0])
    return _truncated_limit(law, P, thetas, r, 1.0, 1.0)


def cf_stable_limit(
    P, alpha: float, measure: SpectralMeasure, thetas, r: int
) -> TruncatedCf:
    """Symmetric alpha-stable limit cf truncated at ``r``, tail bound from ``P``'s
    decay certificate: ``exp(-sum_{j<=r} sum_k w_k |<P^j' theta, s_k>|^alpha)``."""
    law = StableLaw(alpha, measure)
    return _truncated_limit(law, P, thetas, r, alpha, measure.total_mass)
