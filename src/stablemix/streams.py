"""Deterministic, shardable random streams.

Every stochastic routine in this package consumes uniform variates from a
PCG64DXSM generator keyed by ``(seed, stream id)``.  Each path owns a
fixed-width row of uniforms inside that stream, so the value of path ``i``
depends only on ``(seed, stream, i)`` and never on which worker produced it,
how paths were chunked, or how many other paths were drawn.  Workers can
therefore shard path ranges freely while staying bit-identical to a
sequential run.

Layout: a logical matrix of shape ``(n_paths, per_path)`` uniforms, read
row by row from one stream.  Each double takes exactly one 64-bit word of
the generator, so path ``i`` starts at word ``i * per_path``, and a jump
ahead by that many words gives random access by path index.

Aggregation: reductions over paths are computed per fixed-size chunk and the
per-chunk partial results are then folded in chunk order with compensated
(Kahan) summation.  The chunk grid is a function of ``n_paths`` alone, so the
float result is identical for any worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import InvalidInputError

# Stream ids keep distinct draw purposes inside one experiment disjoint.
STREAM_PROCESS = 0
STREAM_SERIES = 1
STREAM_LEMMA = 2
STREAM_LAW = 3

# Fixed chunk width for reductions; part of the reproducibility contract.
CHUNK_PATHS = 4096


def _check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)):
        raise InvalidInputError(f"seed must be an integer, got {type(seed).__name__}")
    if not (0 <= int(seed) < 2**64):
        raise InvalidInputError("seed must fit in an unsigned 64-bit integer")
    return int(seed)


def uniform_block(
    seed: int, stream: int, start_path: int, count: int, per_path: int
) -> np.ndarray:
    """Uniform[0,1) rows for paths ``start_path .. start_path+count-1``.

    Returns shape ``(count, per_path)``.  Bit-identical to slicing the same
    rows out of any larger block of the same stream.
    """
    seed = _check_seed(seed)
    if start_path < 0 or count < 0:
        raise InvalidInputError("start_path and count must be nonnegative")
    if per_path < 1:
        raise InvalidInputError("per_path must be at least 1")
    bitgen = np.random.PCG64DXSM(np.random.SeedSequence(seed, spawn_key=(int(stream),)))
    bitgen.advance(start_path * per_path)
    return np.random.Generator(bitgen).random((count, per_path))


def chunk_starts(n_paths: int, chunk: int = CHUNK_PATHS) -> list[tuple[int, int]]:
    """Fixed (start, count) grid covering ``range(n_paths)``."""
    if n_paths < 0:
        raise InvalidInputError("n_paths must be nonnegative")
    return [(a, min(chunk, n_paths - a)) for a in range(0, n_paths, chunk)]


def map_chunks(fn, n_paths: int, workers: int = 1, chunk: int = CHUNK_PATHS) -> list:
    """Apply ``fn(start, count)`` over the fixed chunk grid.

    Results come back ordered by chunk index regardless of ``workers``; the
    worker pool only affects wall-clock time, never values.
    """
    if workers < 1:
        raise InvalidInputError("workers must be a positive integer")
    parts = chunk_starts(n_paths, chunk)
    if workers == 1 or len(parts) <= 1:
        return [fn(a, c) for a, c in parts]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda ac: fn(*ac), parts))


def kahan_fold(parts) -> np.ndarray:
    """Compensated left fold of a list of equally-shaped addend arrays.

    Used to merge per-chunk partial sums in chunk order; the compensation
    keeps the fold well conditioned, and the fixed order keeps it exact
    across worker counts.
    """
    parts = list(parts)
    if not parts:
        raise InvalidInputError("kahan_fold needs at least one addend")
    total = np.array(parts[0], copy=True)
    comp = np.zeros_like(total)
    for part in parts[1:]:
        y = part - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total
