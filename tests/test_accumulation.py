"""Property tests for the ensemble accumulation and the condition checks.

``simulate_ensemble`` contracts each segment between consecutive
checkpoints, ``w_b = C w_a + sum_{a<k<=b} C_k V_k``.  These tests pin the
Horner variants (``C_k = P^{b-k}``) against the explicit sum
``sum_k P^{n-k} V_k`` (an einsum over the whole horizon, kept here as an
oracle) and the explosive VAR (``C_k = P^k = A^-k``, ``C = I``) bit for bit
against a running sum in the kernel's order, across chunk boundaries,
worker counts, dimensions up to 16 and awkward checkpoint lists.
Conditions (i) and (iii) are closed forms of the atom table; they must
agree with the same forms in exact rational arithmetic to a few ulps,
whatever the path or worker count.  The oracles rebuild the
atom draw, the increment transform and the B-scale from the spec's atom
table with their own arithmetic, so a fault in the package's transform
shows.
"""

from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stablemix import laws, matalg, streams, verify
from stablemix.processes import (
    DiscreteFactor,
    ExplosiveVar,
    RandomScaled,
    SyntheticCanonical,
    simulate_ensemble,
)

CHUNK = streams.CHUNK_PATHS
PATH_COUNTS = (CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1)
# Path counts for the d = 8 and d = 16 specs: a lone row, counts around
# 256, and one chunk plus one, whose last chunk is a lone row.
WIDE_PATH_COUNTS = (1, 255, 256, 257, CHUNK + 1)


def rotation_half():
    c, s = np.cos(np.pi / 6), np.sin(np.pi / 6)
    return 0.5 * np.array([[c, -s], [s, c]])


def dense_contraction(d):
    """A fixed dense ``d x d`` matrix of spectral radius 0.6."""
    M = np.random.default_rng(d).standard_normal((d, d))
    return 0.6 / matalg.spectral_radius(M) * M


def dense_explosive(d):
    """A fixed dense ``d x d`` matrix whose eigenvalues all have modulus
    1.5: an orthogonal matrix scaled by 1.5."""
    Q, _ = np.linalg.qr(np.random.default_rng(d).standard_normal((d, d)))
    return 1.5 * Q


LAW2 = laws.NormalLaw(np.eye(2))
SPECS = {
    "canonical": SyntheticCanonical(rotation_half(), LAW2),
    "scaled-perturbed": RandomScaled(
        rotation_half(), LAW2, [1.0, 2.0], [0.5, 0.5], perturbation=0.3
    ),
    # Atoms out of scale order, and an event that leaves one out.
    "scaled-unsorted": RandomScaled(
        rotation_half(), LAW2, [2.0, 0.5, 1.0], [0.3, 0.3, 0.4],
        event_values=[2.0, 1.0], perturbation=0.3,
    ),
    "factor": DiscreteFactor(
        rotation_half(), LAW2, [np.eye(2), np.array([[1.0, 0.5], [0.0, 2.0]])],
        [0.5, 0.5],
    ),
    "explosive": ExplosiveVar(np.array([[2.0, 0.5], [0.0, 1.5]]), LAW2),
    "explosive-3d": ExplosiveVar(
        np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 2.0]]),
        laws.NormalLaw(np.eye(3)),
    ),
    # d = 1: a coefficient block slice of shape (k, 1, 1) is contiguous
    # when transposed, so only an explicit copy keeps the carry's identity
    # out of the power table.
    "explosive-1d": ExplosiveVar(np.array([[1.5]]), laws.NormalLaw(np.eye(1))),
    "explosive-8d": ExplosiveVar(dense_explosive(8), laws.NormalLaw(np.eye(8))),
    # d = 8 and d = 16: every segment contracts dense coefficient blocks.
    "scaled-8d": RandomScaled(
        dense_contraction(8), laws.NormalLaw(np.eye(8)), [1.0, 2.0], [0.5, 0.5],
        perturbation=0.3,
    ),
    "canonical-16d": SyntheticCanonical(
        dense_contraction(16), laws.NormalLaw(np.eye(16))
    ),
}
CONTRACTING = (
    "canonical", "scaled-perturbed", "scaled-unsorted", "factor", "scaled-8d",
    "canonical-16d",
)

# Unsorted, with a duplicate, and always containing checkpoint 1.
checkpoint_lists = st.lists(st.integers(1, 12), min_size=1, max_size=4).map(
    lambda c: c + [1, c[0]]
)


def oracle_atoms(spec, u):
    """Atom row of each path: how many cumulative atom probabilities its
    latent uniform (the first of its row) reaches, capped at the last atom.
    Returns the atoms and the noise uniforms."""
    if spec.atom_probs is None:
        return np.zeros(len(u), dtype=int), u
    cum = np.cumsum(spec.atom_probs)
    reached = (u[:, :1] >= cum[None, :]).sum(axis=1)
    return np.minimum(reached, len(cum) - 1), u[:, 1:]


def oracle_scale(spec, atom):
    """Scalar scale of each path's atom (1 without a scale table)."""
    if spec.atom_scale is None:
        return np.ones(len(atom))
    return np.array([spec.atom_scale[a] for a in atom])


def oracle_transform(spec, W, atom):
    """``V_k = (scale + p/k) S W_k`` path by path, S the atom's factor."""
    n, d = W.shape[1], W.shape[2]
    V = np.empty_like(W)
    scale = oracle_scale(spec, atom)
    for i, a in enumerate(atom):
        S = np.eye(d) if spec.atom_factor is None else spec.atom_factor[a]
        coeff = np.array([scale[i] + spec.perturbation / k for k in range(1, n + 1)])
        V[i] = coeff[:, None] * np.einsum("de,ke->kd", S, W[i])
    return V


def lag_order_sum(coefficients, terms):
    """``sum_j C_j x_j`` for each row of the ``(count, d)`` terms ``x_j``, as
    a running sum from +0.0 in lag-then-coordinate order, the order of
    :func:`matalg.lag_contract`.  Not an einsum: a path-major einsum sums a
    d = 1 row in an order that depends on its strides."""
    out = np.zeros_like(terms[0])
    for C, x in zip(coefficients, terms):
        for e in range(x.shape[1]):
            out = out + C[:, e] * x[:, e : e + 1]
    return out


def explicit_sum(spec, checkpoints, n_paths, seed):
    """Checkpoint values from the explicit sums, chunk by chunk."""
    cps = sorted(set(checkpoints))
    n = cps[-1]
    per_path = spec.latent_uniforms + n * spec.noise_law.uniforms_per_draw
    kernel = matalg.power_sequence(spec.P, n)
    bu = {cp: [] for cp in cps}
    qu = {cp: [] for cp in cps}
    for start, count in streams.chunk_starts(n_paths):
        u = streams.uniform_block(seed, streams.STREAM_PROCESS, start, count, per_path)
        atom, noise_u = oracle_atoms(spec, u)
        W = spec.noise_law.from_uniforms(noise_u.reshape(count, n, -1))
        if isinstance(spec, ExplosiveVar):
            # eps_k weighs A^-k = P^k, segment by segment; each segment
            # after the first carries the checkpoint before it in with the
            # identity.
            a, carry = 0, []
            for cp in cps:
                lags = range(a + 1, cp + 1)
                w = lag_order_sum(
                    [np.eye(spec.dim)] * len(carry) + [kernel[k] for k in lags],
                    carry + [W[:, k - 1] for k in lags],
                )
                bu[cp].append(w)
                qu[cp].append(w)
                a, carry = cp, [w]
            continue
        V = oracle_transform(spec, W, atom)
        scale = oracle_scale(spec, atom)
        for cp in cps:
            # Q_n U_n = P^n U_n = wsum; B_n = P^n / (scale + p/n).
            wsum = np.einsum("kde,cke->cd", kernel[cp - 1 :: -1], V[:, :cp])
            bu[cp].append(wsum / (scale + spec.perturbation / cp)[:, None])
            qu[cp].append(wsum)
    return (
        {cp: np.concatenate(bu[cp]) for cp in cps},
        {cp: np.concatenate(qu[cp]) for cp in cps},
    )


def wide_examples(test):
    """Run ``test`` on the d = 8 and d = 16 specs and the d = 1 and d = 8
    explosive ones at every count of ``WIDE_PATH_COUNTS``, with checkpoint
    1 and a long last segment, and with a 100-step horizon, whose slices of
    81 and 40 paths at d = 8 and d = 16 leave every count but 1 a ragged
    last slice in the kernel's reused lane buffer."""
    for name in ("scaled-8d", "canonical-16d", "explosive-1d", "explosive-8d"):
        for n_paths in WIDE_PATH_COUNTS:
            for checkpoints in ([1, 4, 12], [1, 37, 100]):
                test = example(
                    name=name, n_paths=n_paths, checkpoints=checkpoints,
                    seed=n_paths,
                )(test)
    return test


def assert_same_bits(a, b):
    assert a.checkpoints == b.checkpoints
    for n in a.checkpoints:
        assert np.array_equal(a.bu[n], b.bu[n])
        assert np.array_equal(a.qu[n], b.qu[n])


@settings(max_examples=12, deadline=None)
@given(
    name=st.sampled_from(sorted(SPECS)),
    n_paths=st.sampled_from(PATH_COUNTS),
    checkpoints=checkpoint_lists,
    seed=st.integers(0, 2**32),
)
@example(name="scaled-perturbed", n_paths=CHUNK + 1, checkpoints=[7, 1, 7, 3], seed=5)
@wide_examples
def test_worker_count_never_changes_bits(name, n_paths, checkpoints, seed):
    spec = SPECS[name]
    one = simulate_ensemble(spec, checkpoints, n_paths, seed, workers=1)
    two = simulate_ensemble(spec, checkpoints, n_paths, seed, workers=2)
    assert one.checkpoints == tuple(sorted(set(checkpoints)))
    assert_same_bits(one, two)


@settings(max_examples=12, deadline=None)
@given(
    name=st.sampled_from(sorted(SPECS)),
    n_paths=st.sampled_from(PATH_COUNTS[:-1]),
    checkpoints=checkpoint_lists,
    seed=st.integers(0, 2**32),
)
@wide_examples
def test_smaller_ensemble_is_prefix(name, n_paths, checkpoints, seed):
    spec = SPECS[name]
    small = simulate_ensemble(spec, checkpoints, n_paths, seed)
    large = simulate_ensemble(spec, checkpoints, PATH_COUNTS[-1], seed, workers=2)
    for n in small.checkpoints:
        assert np.array_equal(small.bu[n], large.bu[n][:n_paths])
        assert np.array_equal(small.qu[n], large.qu[n][:n_paths])


@settings(max_examples=12, deadline=None)
@given(
    name=st.sampled_from(CONTRACTING),
    n_paths=st.sampled_from(PATH_COUNTS),
    checkpoints=checkpoint_lists,
    seed=st.integers(0, 2**32),
)
@example(name="canonical", n_paths=CHUNK - 1, checkpoints=[1, 12, 1], seed=0)
def test_recursion_matches_explicit_sum(name, n_paths, checkpoints, seed):
    spec = SPECS[name]
    ens = simulate_ensemble(spec, checkpoints, n_paths, seed, workers=2)
    bu, qu = explicit_sum(spec, checkpoints, n_paths, seed)
    for n in ens.checkpoints:
        np.testing.assert_allclose(ens.bu[n], bu[n], rtol=0, atol=1e-12)
        np.testing.assert_allclose(ens.qu[n], qu[n], rtol=0, atol=1e-12)


@settings(max_examples=8, deadline=None)
@given(
    n_paths=st.sampled_from(PATH_COUNTS),
    checkpoints=checkpoint_lists,
    seed=st.integers(0, 2**32),
)
@example(n_paths=CHUNK + 1, checkpoints=[1, 5, 12], seed=3)
@example(n_paths=CHUNK - 1, checkpoints=[4, 9], seed=8)
def test_explosive_values_unchanged(n_paths, checkpoints, seed):
    # The coefficients P^k and the identity carry give the oracle's lag
    # order sum, bit for bit.
    for name in ("explosive", "explosive-3d", "explosive-1d", "explosive-8d"):
        spec = SPECS[name]
        ens = simulate_ensemble(spec, checkpoints, n_paths, seed, workers=2)
        bu, qu = explicit_sum(spec, checkpoints, n_paths, seed)
        for n in ens.checkpoints:
            assert ens.bu[n].tobytes() == bu[n].tobytes(), name
            assert ens.qu[n].tobytes() == qu[n].tobytes(), name


def exact_condition_stats(spec, checkpoints):
    """Conditions (i) and (iii) in exact rational arithmetic from the atom
    table: with ``d(n) = lam + p/n``, (i) is ``p/n`` and (iii) is the
    largest ``|d(n-r)/d(n) - 1| |P^r|`` over the event's atoms and the
    lags, where ``|P^r| = 2^-r`` for half a rotation."""
    p = Fraction(spec.perturbation)
    lams = [Fraction(lam) for lam in spec.atom_scale[spec.atom_in_g]]

    def d(lam, n):
        return lam + p / n

    first = [p / n for n in checkpoints]
    third = [
        max(
            abs(d(lam, n - r) / d(lam, n) - 1) / 2**r
            for lam in lams for r in verify.CONDITION_LAGS
        )
        for n in checkpoints
    ]
    return first, third


# (lam_values, event_values): atoms in scale order, and out of it.
ATOM_TABLES = (([1.0, 2.0, 3.5], [1.0, 3.5]), ([2.0, 0.5, 1.0], [2.0, 1.0]))


@settings(max_examples=10, deadline=None)
@given(
    table=st.sampled_from(ATOM_TABLES),
    perturbation=st.sampled_from([0.0, 0.3, 1.7]),
    n_paths=st.sampled_from(PATH_COUNTS[:2]),
    checkpoints=st.lists(
        st.integers(max(verify.CONDITION_LAGS) + 1, 20), min_size=1, max_size=4
    ),
    seed=st.integers(0, 2**32),
)
@example(
    table=ATOM_TABLES[1], perturbation=0.3, n_paths=CHUNK, checkpoints=[20, 5], seed=1
)
def test_condition_stats_equal_exact_closed_forms(
    table, perturbation, n_paths, checkpoints, seed
):
    lam_values, event_values = table
    spec = RandomScaled(
        rotation_half(), LAW2, lam_values, [0.3, 0.3, 0.4],
        event_values=event_values, perturbation=perturbation,
    )
    ens = simulate_ensemble(spec, checkpoints, n_paths, seed)
    v1 = verify.check_condition_i(ens)
    v3 = verify.check_condition_iii(ens)
    first, third = exact_condition_stats(spec, ens.checkpoints)
    # (i) rounds at the largest divisor's ulp; (iii) at the ratio's ulp
    # times |P^r| <= 1/2.
    ulp = np.spacing(np.abs(spec.b_divisor(min(ens.checkpoints))).max())
    for got, want in zip(v1.statistics, first):
        assert abs(Fraction(got) - want) <= 2 * ulp
    for got, want in zip(v3.statistics, third):
        assert abs(Fraction(got) - want) <= 4 * np.spacing(0.5)
    assert v1.passed and v3.passed
    # The statistics read the spec, not the paths.
    other = simulate_ensemble(spec, checkpoints, 1000, seed + 1, workers=2)
    assert verify.check_condition_i(other).statistics == v1.statistics
    assert verify.check_condition_iii(other).statistics == v3.statistics
    if perturbation == 0.0:
        assert set(v1.statistics) == {0.0} and set(v3.statistics) == {0.0}
