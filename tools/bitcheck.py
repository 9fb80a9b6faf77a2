"""Bit-identity check of two source trees over a matrix of CLI runs.

Usage:

    python3 tools/bitcheck.py OLD_SRC NEW_SRC [--work DIR] [--max-lines N]

``OLD_SRC`` and ``NEW_SRC`` are directories holding the ``stablemix``
package (the ``src`` directory of two checkouts).  Every case of the matrix
runs through ``stablemix.cli.main`` on both trees, each tree in one fresh
child process.  Since the CLI holds the last ensemble, consecutive process
cases on one request share it, so a tree without that memo checks every
shared ensemble against a fresh simulation.  The matrix covers every
process variant, the canonical one on Cauchy and on correlated normal
noise (the one process case whose noise map runs the covariance matmul),
and the explosive one at d = 1, 2 and 3 (on the 3-D stable law), through
``simulate``, ``verify-stable``, ``verify-mixing`` (``bu`` and ``qu``),
both verdicts again at an explicit ``r`` below the default,
``verify-stable`` at a non-default ``delta`` and ``factor``, and
``conditions``; ``conditions``
on two tight canonical processes whose ``Q_n U_n`` often lies past level
16 of condition (ii)'s table, one on noise of covariance 100 I and one on
a contraction with a coupling of 40; the random-scaled one on a dense
d = 8 contraction through ``simulate``, ``verify-stable`` and
``verify-mixing``, and on a dense d = 16 one through ``simulate`` and ``verify-stable``; ``simulate`` on a
1-D canonical process checkpointed once at step 9000, whose count of 4097
ends in a one-path slice; ``sample-law`` on the normal, correlated normal,
Cauchy, stable and empirical laws, and on the stable law at a non-default
``delta`` and ``factor``; ``series`` (``tol`` and ``r``) on the normal,
Cauchy and stable laws, and on a 1-D normal law and a 3-D stable law, each
with its own contraction; ``series`` at ``tol`` on three slow contractions
(``diag(0.9, 0.1)``, a slow Jordan block, and ``diag(0.998, 0.5)``, whose
cut r = 5404 needs a norm table of 32204 powers); ``series`` on the 1-D
normal law at r = 33000, whose stream row is wider than the slice budget
``laws.SLICE_UNIFORMS``, so every path is a slice of its own; ``lemma`` on
the stable law, on the log-Cauchy ray with ``allow_diagnostic``, and on
the 1-D normal and 3-D stable laws with their contractions; and
``simulate`` and ``lemma`` on an empirical pool of huge but finite values
(1e200, whose squares overflow), so the overflow-safe route of every
reported norm is covered.  Each
runs at path or draw counts 4095, 4096 and 4097 (one chunk less one, one
chunk, one chunk plus one) and at 1 and 2 workers.

The two trees must agree on every exit code, on the set of files each run
writes, on every byte of every CSV, on the field names, dtypes and bits of
every ``.npy`` table and on every ``report.json`` value except
``wall_clock_s``.  Each difference is printed.  A differing CSV is sized
by its largest absolute and relative numeric change; a differing ``.npy``
table by the count of differing values and the same two sizes.  A table
written as ``X.csv`` by one tree and ``X.npy`` by the other is a format
change: the two are compared by value (``nan`` equal to any ``nan``, zeros
by sign), and the line says whether every value is unchanged.  A change
of the report ``version`` is printed once, on the summary line.  The exit
status is 1 if there is any difference or version change, else 0.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

_C, _S = math.cos(math.pi / 6), math.sin(math.pi / 6)
ROTATION_HALF = {"dim": 2, "rows": [[0.5 * _C, -0.5 * _S], [0.5 * _S, 0.5 * _C]]}
NORMAL_1D = {"law": "normal", "cov": [[1.0]]}
NORMAL_2D = {"law": "normal", "cov": [[1.0, 0.0], [0.0, 1.0]]}
CORRELATED_2D = {"law": "normal", "cov": [[2.0, 0.6], [0.6, 1.0]]}
CAUCHY_2D = {"law": "cauchy", "dim": 2}
STABLE_2D = {
    "law": "stable", "alpha": 1.5,
    "atoms": [[1.0, 0.0], [0.0, 1.0]], "weights": [0.5, 0.5],
}
EMPIRICAL_2D = {"law": "empirical", "pool": [[0.5, -1.0], [2.0, 0.25], [-0.75, 1.5]]}
STABLE_3D = {
    "law": "stable", "alpha": 1.5,
    "atoms": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    "weights": [0.5, 0.25, 0.25],
}
RAY_2D = {"law": "log-cauchy-ray", "dim": 2}
HUGE_2D = {"law": "empirical", "pool": [[1e200, 0.0], [-1e200, 1.0]]}
# The ``series`` and ``lemma`` cases off d = 2: each one's P and law.
LEMMA_OFF_2D = {
    "normal-1d": ({"dim": 1, "rows": [[0.5]]}, NORMAL_1D),
    "stable-3d": (
        {"dim": 3, "rows": [[0.5, 0.3, 0.0], [0.0, 0.5, 0.3], [0.0, 0.0, 0.5]]},
        STABLE_3D,
    ),
}
# Non-default values of the keys that tune a check.
TUNED = {"delta": 0.01, "factor": 2.5}

# Contractions that decay slowly enough for ``truncation_index`` to build
# more than one norm table or a long one, with the tol of each case.
SLOW_SERIES = {
    "diag": ({"dim": 2, "rows": [[0.9, 0.0], [0.0, 0.1]]}, 1e-4),
    "jordan": ({"dim": 2, "rows": [[0.95, 1.0], [0.0, 0.95]]}, 1e-3),
    "slower": ({"dim": 2, "rows": [[0.998, 0.0], [0.0, 0.5]]}, 1e-2),
}

# A ``series`` case at an explicit ``r`` whose stream row, 2 (r + 1) =
# 66,002 uniforms of the 1-D normal law, is wider than
# ``laws.SLICE_UNIFORMS``, so ``draws`` maps it one path per slice; the slow
# contraction keeps every term in the sums.
WIDE_ROW = ({"dim": 1, "rows": [[0.9999]]}, 33_000)

PROCESSES = {
    "canonical-cauchy": {
        "variant": "synthetic-canonical", "P": ROTATION_HALF, "noise": CAUCHY_2D,
    },
    "canonical-correlated": {
        "variant": "synthetic-canonical", "P": ROTATION_HALF, "noise": CORRELATED_2D,
    },
    "scaled": {
        "variant": "random-scaled", "P": ROTATION_HALF, "noise": NORMAL_2D,
        "lam_values": [1.0, 2.0], "lam_probs": [0.5, 0.5],
    },
    "scaled-perturbed": {
        "variant": "random-scaled", "P": ROTATION_HALF, "noise": NORMAL_2D,
        "lam_values": [2.0, 0.5, 1.0], "lam_probs": [0.3, 0.3, 0.4],
        "event_values": [2.0, 1.0], "perturbation": 0.3,
    },
    "scaled-repeated": {
        "variant": "random-scaled", "P": ROTATION_HALF, "noise": STABLE_2D,
        "lam_values": [1.0, 2.0, 1.0], "lam_probs": [0.25, 0.5, 0.25],
    },
    "factor": {
        "variant": "discrete-factor", "P": ROTATION_HALF, "noise": NORMAL_2D,
        "factors": [
            {"dim": 2, "rows": [[1.0, 0.0], [0.0, 1.0]]},
            {"dim": 2, "rows": [[2.0, 0.5], [0.0, 1.0]]},
        ],
        "factor_probs": [0.5, 0.5],
    },
    "explosive": {
        "variant": "explosive-var", "A": {"dim": 2, "rows": [[2.0, 1.0], [0.0, 2.0]]},
        "noise": NORMAL_2D,
    },
    "explosive-1d": {
        "variant": "explosive-var", "A": {"dim": 1, "rows": [[1.5]]},
        "noise": NORMAL_1D,
    },
    "explosive-3d": {
        "variant": "explosive-var",
        "A": {"dim": 3, "rows": [[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 2.0]]},
        "noise": STABLE_3D,
    },
}


def scaled_dense(d: int) -> dict:
    """A random-scaled process on a dense ``d x d`` contraction (every row
    sums to at most 0.9 in absolute value), so each segment of the process
    kernel contracts full ``d x d`` coefficient blocks."""
    rows = [[(0.3 if i <= j else -0.3) * 0.5 ** abs(i - j) for j in range(d)]
            for i in range(d)]
    return {
        "variant": "random-scaled", "P": {"dim": d, "rows": rows},
        "noise": {"law": "normal", "cov": np.eye(d).tolist()},
        "lam_values": [1.0, 2.0], "lam_probs": [0.5, 0.5],
    }


# Tight canonical processes often past level 16 of condition (ii)'s table.
PAST_LEVEL_16 = {
    "wide-noise": {
        "variant": "synthetic-canonical",
        "P": {"dim": 2, "rows": [[0.5, 0.0], [0.0, 0.5]]},
        "noise": {"law": "normal", "cov": [[100.0, 0.0], [0.0, 100.0]]},
    },
    "large-coupling": {
        "variant": "synthetic-canonical",
        "P": {"dim": 2, "rows": [[0.5, 40.0], [0.0, 0.5]]}, "noise": NORMAL_2D,
    },
}
# d = 8, and d = 16, the largest dimension of matalg's accuracy contract.
SCALED_8D, SCALED_16D = scaled_dense(8), scaled_dense(16)
# A d = 1 process checkpointed once, at step 9000: three 9000-step rows make
# a slice, so a count of 4097 ends in a lone row, whose 9000-lag segment
# einsum sums in its own order unless the row is read as two lanes.
LONG_1D = {
    "variant": "synthetic-canonical", "P": {"dim": 1, "rows": [[0.9999]]},
    "noise": NORMAL_1D,
}

SIZES = (4095, 4096, 4097)
WORKERS = (1, 2)
CHECKPOINTS = [5, 10, 20]
# An explicit verify truncation below the default ``CHECKPOINTS[-1] - 1``.
SHORT_R = 7


def cases() -> list[tuple[str, str, dict]]:
    """``(case id, subcommand, config)`` for the whole matrix."""
    out = []

    def add(name, command, size, workers, cfg):
        full = {"schema_version": 1, "seed": 7, "workers": workers, **cfg}
        out.append((f"{name}.n{size}.w{workers}", command, full))

    for size in SIZES:
        for workers in WORKERS:
            for pname, proc in PROCESSES.items():
                base = {"process": proc, "checkpoints": CHECKPOINTS, "n_paths": size}
                add(f"simulate.{pname}", "simulate", size, workers,
                    {**base, "trajectories": 3})
                add(f"stable.{pname}", "verify-stable", size, workers, base)
                add(f"stable-r.{pname}", "verify-stable", size, workers,
                    {**base, "r": SHORT_R})
                for which in ("bu", "qu"):
                    add(f"mixing-{which}.{pname}", "verify-mixing", size, workers,
                        {**base, "statistic_of": which})
                add(f"mixing-r.{pname}", "verify-mixing", size, workers,
                    {**base, "r": SHORT_R})
                add(f"mixing-omega.{pname}", "verify-mixing", size, workers,
                    {**base, "family": "omega"})
                add(f"conditions.{pname}", "conditions", size, workers, base)
                add(f"stable-tuned.{pname}", "verify-stable", size, workers,
                    {**base, **TUNED})
            for pname, proc in PAST_LEVEL_16.items():
                add(f"conditions.{pname}", "conditions", size, workers,
                    {"process": proc, "checkpoints": CHECKPOINTS, "n_paths": size})
            wide = {"process": SCALED_8D, "checkpoints": CHECKPOINTS, "n_paths": size}
            add("simulate.scaled-8d", "simulate", size, workers,
                {**wide, "trajectories": 3})
            add("stable.scaled-8d", "verify-stable", size, workers, wide)
            add("mixing.scaled-8d", "verify-mixing", size, workers, wide)
            widest = {**wide, "process": SCALED_16D}
            add("simulate.scaled-16d", "simulate", size, workers,
                {**widest, "trajectories": 3})
            add("stable.scaled-16d", "verify-stable", size, workers, widest)
            add("simulate.canonical-1d-long", "simulate", size, workers,
                {"process": LONG_1D, "checkpoints": [9000], "n_paths": size,
                 "trajectories": 3})
            for lname, law in (("normal", NORMAL_2D), ("correlated", CORRELATED_2D),
                               ("cauchy", CAUCHY_2D), ("stable", STABLE_2D),
                               ("empirical", EMPIRICAL_2D)):
                add(f"sample-law.{lname}", "sample-law", size, workers,
                    {"law": law, "count": size})
            add("sample-law-tuned.stable", "sample-law", size, workers,
                {"law": STABLE_2D, "count": size, **TUNED})
            on_2d = [(ROTATION_HALF, law) for law in (NORMAL_2D, CAUCHY_2D, STABLE_2D)]
            for lname, (P, law) in [*zip(("normal", "cauchy", "stable"), on_2d),
                                    *LEMMA_OFF_2D.items()]:
                series = {"P": P, "law": law, "count": size}
                add(f"series-{lname}.tol", "series", size, workers,
                    {**series, "tol": 1e-6})
                add(f"series-{lname}.r", "series", size, workers,
                    {**series, "r": 12})
            for pname, (P, tol) in SLOW_SERIES.items():
                add(f"series-{pname}.tol", "series", size, workers,
                    {"P": P, "law": NORMAL_2D, "count": size, "tol": tol})
            add("series-wide.r", "series", size, workers,
                {"P": WIDE_ROW[0], "law": NORMAL_1D, "count": size, "r": WIDE_ROW[1]})
            add("lemma", "lemma", size, workers,
                {"P": ROTATION_HALF, "law": STABLE_2D, "J": 16, "n_paths": size})
            add("lemma.ray", "lemma", size, workers,
                {"P": ROTATION_HALF, "law": RAY_2D, "J": 16, "n_paths": size,
                 "allow_diagnostic": True})
            for lname, (P, law) in LEMMA_OFF_2D.items():
                add(f"lemma.{lname}", "lemma", size, workers,
                    {"P": P, "law": law, "J": 16, "n_paths": size})
            add("simulate.canonical-huge", "simulate", size, workers,
                {"process": {"variant": "synthetic-canonical", "P": ROTATION_HALF,
                             "noise": HUGE_2D},
                 "checkpoints": CHECKPOINTS, "n_paths": size, "trajectories": 3})
            add("lemma.huge", "lemma", size, workers,
                {"P": ROTATION_HALF, "law": HUGE_2D, "J": 16, "n_paths": size})
    return out


def run_child(src: str, work: str) -> None:
    """Run every case on the package under ``src``; exit codes go to
    ``work/codes.json`` and each case's output to ``work/<case id>``.  An
    uncaught exception counts as exit code 1, as in the console script, and
    its type and message go to ``exception.txt`` in the case's output."""
    sys.path.insert(0, os.path.abspath(src))
    import contextlib
    import io

    from stablemix import cli

    codes = {}
    for case, command, cfg in cases():
        outdir = os.path.join(work, case)
        os.makedirs(outdir)
        path = os.path.join(outdir, "config.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                codes[case] = cli.main([command, "--config", path, "--out", outdir])
            except Exception as exc:  # a traceback exits the console script with 1
                codes[case] = 1
                with open(os.path.join(outdir, "exception.txt"), "w") as fh:
                    fh.write(f"{type(exc).__name__}: {exc}\n")
        os.remove(path)
    with open(os.path.join(work, "codes.json"), "w") as fh:
        json.dump(codes, fh)


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _flatten(value, f"{prefix}.{key}" if prefix else key)
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _flatten(value, f"{prefix}[{i}]")
    else:
        yield prefix, obj


def _same(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    return a == b


def compare_reports(old_path: str, new_path: str) -> tuple[list[str], tuple]:
    """Differing report values, and the ``(old, new)`` report versions,
    which are left out of the differences."""
    with open(old_path) as fh:
        old = dict(_flatten(json.load(fh)))
    with open(new_path) as fh:
        new = dict(_flatten(json.load(fh)))
    diffs = []
    for key in sorted(set(old) | set(new)):
        if key in ("wall_clock_s", "version"):
            continue
        if key not in old or key not in new:
            diffs.append(f"{key}: only in {'old' if key in old else 'new'}")
            continue
        a, b = old[key], new[key]
        if _same(a, b):
            continue
        line = f"{key}: {a!r} -> {b!r}"
        if isinstance(a, float) and isinstance(b, float) and a != b:
            rel = abs(b - a) / abs(a) if a else math.inf
            line += f" (delta {b - a:.3g}, relative {rel:.3g})"
        diffs.append(line)
    return diffs, (old.get("version"), new.get("version"))


def _largest_change(a: list[bytes], b: list[bytes], lines) -> tuple[float, float]:
    """Largest absolute and relative change between the numeric fields of
    the given lines that both files hold; a changed non-numeric field, a
    change to or from ``nan``, or a change from zero, counts as relatively
    infinite."""
    worst_abs = worst_rel = 0.0
    for i in lines:
        if i >= len(a) or i >= len(b):
            continue
        for x, y in zip(a[i].split(b","), b[i].split(b",")):
            if x == y:
                continue
            try:
                fx, fy = float(x), float(y)
            except ValueError:
                worst_rel = math.inf
                continue
            delta = abs(fy - fx)
            if math.isnan(delta):
                worst_rel = math.inf
                continue
            worst_abs = max(worst_abs, delta)
            worst_rel = max(worst_rel, delta / abs(fx) if fx else math.inf)
    return worst_abs, worst_rel


def compare_bytes(old_path: str, new_path: str, max_lines: int) -> list[str]:
    with open(old_path, "rb") as fh:
        old = fh.read()
    with open(new_path, "rb") as fh:
        new = fh.read()
    if old == new:
        return []
    a, b = old.splitlines(), new.splitlines()
    bad = [i for i in range(max(len(a), len(b)))
           if i >= len(a) or i >= len(b) or a[i] != b[i]]
    worst_abs, worst_rel = _largest_change(a, b, bad)
    diffs = [f"{len(bad)} of {max(len(a), len(b))} lines differ "
             f"({len(old)} -> {len(new)} bytes); largest numeric change "
             f"{worst_abs:.3g} absolute, {worst_rel:.3g} relative"]
    for i in bad[:max_lines]:
        left = a[i].decode() if i < len(a) else "<missing>"
        right = b[i].decode() if i < len(b) else "<missing>"
        diffs.append(f"line {i + 1}: {left} -> {right}")
    return diffs


def read_table(path: str) -> tuple[tuple, list]:
    """Field names and one 1-D array per field of a CSV with a header row or
    of a structured ``.npy``.  A CSV field whose every value reads as an
    integer is ``int64``, any other ``float64``."""
    if path.endswith(".npy"):
        table = np.load(path, allow_pickle=False)
        return table.dtype.names, [table[name] for name in table.dtype.names]
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    columns = []
    for cells in zip(*rows):
        try:
            columns.append(np.array([int(x) for x in cells], dtype=np.int64))
        except ValueError:
            columns.append(np.array([float(x) for x in cells], dtype=np.float64))
    return tuple(header), columns


def _differing(a, b, exact: bool):
    """Mask of the rows where two numeric columns differ: in their bits if
    ``exact`` and both are float, else in value, with any ``nan`` equal to
    any other and zeros told apart by sign."""
    if exact and a.dtype == b.dtype == np.float64:
        return a.view(np.uint64) != b.view(np.uint64)
    if a.dtype.kind == b.dtype.kind == "i":
        return a != b
    a, b = a.astype(np.float64), b.astype(np.float64)
    same = (a == b) & (np.signbit(a) == np.signbit(b))
    return ~(same | (np.isnan(a) & np.isnan(b)))


def compare_tables(old_path: str, new_path: str, max_lines: int) -> list[str]:
    """Field-by-field differences between two tables, each a CSV or a
    structured ``.npy`` (see :func:`read_table`).  Two ``.npy`` files are
    compared by field names, dtypes and bits, any pair with a CSV by value.
    A change of format is reported even when every value is unchanged."""
    old_names, old_cols = read_table(old_path)
    new_names, new_cols = read_table(new_path)
    if old_names != new_names:
        return [f"fields {list(old_names)} -> {list(new_names)}"]
    rows = len(old_cols[0]) if old_cols else 0
    if old_cols and len(new_cols[0]) != rows:
        return [f"{rows} -> {len(new_cols[0])} rows"]
    exact = old_path.endswith(".npy") and new_path.endswith(".npy")
    old_types = [c.dtype.str for c in old_cols]
    new_types = [c.dtype.str for c in new_cols]
    if exact and old_types != new_types:
        return [f"dtypes {old_types} -> {new_types}"]
    n_bad, worst_abs, worst_rel, shown = 0, 0.0, 0.0, []
    for name, a, b in zip(old_names, old_cols, new_cols):
        bad = np.flatnonzero(_differing(a, b, exact))
        n_bad += len(bad)
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            x, y = a[bad].astype(np.float64), b[bad].astype(np.float64)
            delta = np.abs(y - x)
            rel = np.where(x != 0, delta / np.abs(x), np.inf)
        # As for CSV lines: a change to or from nan is relatively infinite.
        number = ~np.isnan(delta)
        worst_abs = max(worst_abs, float(delta[number].max(initial=0.0)))
        rel = np.where(number, rel, np.inf)
        worst_rel = max(worst_rel, float(rel.max(initial=0.0)))
        shown += [f"row {i}, {name}: {a[i].item()!r} -> {b[i].item()!r}"
                  for i in bad[:max_lines]]
    formats = f"{os.path.splitext(old_path)[1]} -> {os.path.splitext(new_path)[1]}"
    size = f"{rows} rows x {len(old_names)} fields"
    if not n_bad:
        return [] if exact else [f"format {formats}, {size}: every value unchanged"]
    head = f"{n_bad} of {rows * len(old_names)} values differ ({size}"
    head += f", format {formats})" if not exact else ")"
    return [f"{head}; largest change {worst_abs:.3g} absolute, "
            f"{worst_rel:.3g} relative", *shown[:max_lines]]


def _format_pairs(only_old, only_new) -> list[tuple[str, str]]:
    """``(old name, new name)`` for each table that one tree writes as
    ``X.csv`` and the other as ``X.npy``."""
    swap = {".csv": ".npy", ".npy": ".csv"}
    pairs = []
    for name in sorted(only_old):
        stem, ext = os.path.splitext(name)
        if ext in swap and stem + swap[ext] in only_new:
            pairs.append((name, stem + swap[ext]))
    return pairs


def compare(old_work: str, new_work: str, max_lines: int) -> int:
    with open(os.path.join(old_work, "codes.json")) as fh:
        old_codes = json.load(fh)
    with open(os.path.join(new_work, "codes.json")) as fh:
        new_codes = json.load(fh)
    n_files = n_bad = 0
    versions = set()
    for case, _, _ in cases():
        problems = []
        if old_codes[case] != new_codes[case]:
            problems.append(f"exit code {old_codes[case]} -> {new_codes[case]}")
        old_dir, new_dir = os.path.join(old_work, case), os.path.join(new_work, case)
        old_files, new_files = set(os.listdir(old_dir)), set(os.listdir(new_dir))
        pairs = _format_pairs(old_files - new_files, new_files - old_files)
        paired = {name for pair in pairs for name in pair}
        for name in sorted((old_files ^ new_files) - paired):
            side = "old" if name in old_files else "new"
            problems.append(f"{name}: written only by the {side} tree")
        for old_name, new_name in [*((n, n) for n in sorted(old_files & new_files)),
                                   *pairs]:
            n_files += 1
            a, b = os.path.join(old_dir, old_name), os.path.join(new_dir, new_name)
            label = old_name if old_name == new_name else f"{old_name} -> {new_name}"
            if old_name == "report.json":
                found, version = compare_reports(a, b)
                versions.add(version)
            elif old_name != new_name or old_name.endswith(".npy"):
                found = compare_tables(a, b, max_lines)
            else:
                found = compare_bytes(a, b, max_lines)
            problems.extend(f"{label}: {line}" for line in found)
        if problems:
            n_bad += 1
            print(f"DIFF {case}")
            for line in problems:
                print(f"    {line}")
    changed = sorted(f"{a} -> {b}" for a, b in versions if a != b)
    summary = f"{len(old_codes)} runs, {n_files} files compared, {n_bad} runs differ"
    if changed:
        summary += f"; report version {', '.join(changed)}"
    print(summary)
    return 1 if n_bad or changed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", help="src directory of the reference tree")
    parser.add_argument("new", help="src directory of the tree under test")
    parser.add_argument(
        "--work", help="keep outputs here (default: a temporary directory)"
    )
    parser.add_argument("--max-lines", type=int, default=10,
                        help="differing lines shown per file (default 10)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        run_child(args.old, args.new)
        return 0
    work = args.work or tempfile.mkdtemp(prefix="bitcheck-")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    sides = []
    for label, src in (("old", args.old), ("new", args.new)):
        if not os.path.isdir(os.path.join(src, "stablemix")):
            parser.error(f"{src} holds no stablemix package")
        side = os.path.join(work, label)
        shutil.rmtree(side, ignore_errors=True)
        os.makedirs(side)
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--child", src, side],
            env=env, check=True,
        )
        sides.append(side)
    code = compare(*sides, args.max_lines)
    if args.work is None:
        shutil.rmtree(work)
    return code


if __name__ == "__main__":
    sys.exit(main())
