"""Command-line front end.

Every run is described by a JSON config, read through the key table of
:mod:`stablemix.config`, plus a handful of flags that override config
entries.  A run writes its output files (the draws of ``sample-law`` and
``series`` and the ``lemma`` table as ``.npy``, the ecf and ``simulate``
tables as ``.csv``) and a ``report.json`` that embeds the
resolved config and a flat dictionary of named statistics; ``replay``
re-executes the embedded config and demands bit-identical statistics,
which is the reproducibility contract the whole package is built around.

Exit codes: 0 when every check passed, 1 when a check or a replay
comparison failed, 2 for configuration or hypothesis errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from functools import partial

import numpy as np

from . import __version__, config, laws, matalg, series, streams, verify
from .csvio import write_csv, write_table
from .ecf import default_grid, estimate_ecf, sup_distance, write_ecf_csv
from .errors import (
    ConfigError,
    RangeOverflowError,
    ReproducibilityError,
    StablemixError,
    converted,
)
from .processes import simulate_ensemble, write_paths_csv


def _finite(text: str) -> float:
    """JSON number hook: no report could hold ``NaN``, ``Infinity`` or ``1e999``."""
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"{text} is a non-finite number")
    return value


def _json_object(path: str, what: str) -> dict:
    """The JSON object in ``path``, a config or a report, with finite numbers only."""
    try:
        with open(path) as fh:
            obj = json.load(fh, parse_float=_finite, parse_constant=_finite)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} root must be a JSON object")
    return obj


def load_config(path: str) -> dict:
    return _json_object(path, "config")


def validate_config(command: str, cfg: dict) -> dict:
    """``cfg`` read through ``command``'s schema: its converted values.  The
    rules that span two keys are checked here, before any work is done."""
    values = config.read(cfg, config.COMMANDS[command], f"{command} config")
    if command == "series" and (values["tol"] is None) == (values["r"] is None):
        raise ConfigError("series needs exactly one of 'tol' or 'r'")
    if (
        command == "lemma" and isinstance(values["law"], laws.LogCauchyRay)
        and not values["allow_diagnostic"]
    ):
        raise ConfigError(
            "log-cauchy-ray is a diagnostic sampler: lemma takes it only with "
            "allow_diagnostic true"
        )
    return values


def _law_samples(law, seed: int, count: int, workers: int) -> np.ndarray:
    """Stream-addressed iid draws from an increment law.  Chunks go in as
    one-step 3-D blocks, so a row's bits never depend on its chunk's size."""

    def chunk(start, n):
        u = streams.uniform_block(
            seed, streams.STREAM_LAW, start, n, law.uniforms_per_draw
        )
        return law.draw_block(u[:, None, :])[:, 0]

    return np.concatenate(streams.map_chunks(chunk, count, workers), axis=0)


# Handlers take the config's converted values (``validate_config``), with
# a process command's ``ensemble`` added, and return (statistics, verdicts,
# derived, outputs, passed).


def _ecf_check(cfg, outdir, workers, samples, name, reference, stats, derived):
    """Shared tail of ``sample-law`` and ``series``: the ecf of ``samples``
    against ``reference(grid)``, judged at ``factor`` radii, appended to
    ``stats``; writes ``name`` and ``ecf.csv``."""
    grid = default_grid(samples.shape[1])
    est = estimate_ecf(samples, grid, cfg["delta"], workers)
    dist = sup_distance(est, reference(grid))
    threshold = cfg["factor"] * est.radius
    write_table(
        os.path.join(outdir, name),
        [f"x_{i}" for i in range(samples.shape[1])],
        [samples],
    )
    write_ecf_csv(os.path.join(outdir, "ecf.csv"), est)
    stats.update(ecf_distance=dist, radius=est.radius, threshold=threshold)
    return stats, [], derived, [name, "ecf.csv"], dist <= threshold


def _run_sample_law(cfg, outdir, workers):
    law = cfg["law"]
    samples = _law_samples(law, cfg["seed"], cfg["count"], workers)
    return _ecf_check(
        cfg, outdir, workers, samples, "samples.npy",
        lambda grid: laws.cf_increment(law, grid.points), {}, {},
    )


def _run_series(cfg, outdir, workers):
    P, law, r = cfg["P"], cfg["law"], cfg["r"]
    if r is None:
        plan = series.truncation_index(P, cfg["tol"])
    else:
        cert, norms = matalg.decay_certificate(P)
        plan = series.TruncationPlan(r, matalg.tail_bound(norms, cert, r), cert)
    samples = series.series_ensemble(P, law, plan.r, cfg["seed"], cfg["count"], workers)
    return _ecf_check(
        cfg, outdir, workers, samples, "series_samples.npy",
        lambda grid: laws.series_cf_values(law, P, plan.r, grid.points),
        {"r": float(plan.r), "tail_norm_bound": plan.tail_norm_bound},
        {"truncation_plan": plan.to_json()},
    )


def _median(values: np.ndarray) -> float:
    """``np.median`` of a non-empty 1-D float array, bit for bit: the mean
    of the middle value, or of the middle two at even length, and ``nan``
    when any value is ``nan``.  ``np.median`` imports ``numpy.ma`` (about
    9 ms) to check for masked input; this takes one partition."""
    n = len(values)
    low, high = (n - 1) // 2, n // 2
    # Partitioning sorts nan last, so the last place holds nan if any value is.
    part = np.partition(values, [low, high, n - 1])
    if np.isnan(part[-1]):
        return float(part[-1])
    # np.median's own reduction: a mean, which sums from +0.0, so that the
    # median of [-0.0] reads 0.0.
    return float(part[low : high + 1].mean())


def _run_lemma(cfg, outdir, workers):
    diag = series.lemma_diagnostics(
        cfg["P"], cfg["law"], cfg["J"], cfg["n_paths"], cfg["seed"], workers=workers
    )
    # Median rather than mean: heavy-tailed samplers overflow some draws
    # to inf, and report.json must stay strict JSON (finite numbers only).
    # Once half the paths hold such a draw the median is infinite too.
    median = _median(diag.log_moment)
    infinite = float(np.isinf(diag.log_moment).mean())
    if not math.isfinite(median):
        raise RangeOverflowError(
            f"median_log_moment is {median}: {infinite:.1%} of the {diag.n_paths} "
            "paths hold a draw that overflowed to inf"
        )
    series.write_lemma_csv(os.path.join(outdir, "lemma.npy"), diag)
    stats = {
        "late_exceedance_fraction": diag.late_exceedance_fraction,
        "exceedance_freq_at_J": float(diag.per_index_exceedance_freq[-1]),
        "mean_exceedance_count": float(diag.exceedance_count.mean()),
        "median_log_moment": median,
        "infinite_log_moment_fraction": infinite,
    }
    derived = {"J": diag.J, "n_paths": diag.n_paths}
    return stats, [], derived, ["lemma.npy"], True


# The last ensemble a process command ran on, as one ``(key, ensemble)``
# pair, so that process commands run in one interpreter on the same request
# (``tools/bitcheck.py``, the benchmark job, tests, library callers) simulate
# it once.  The console script runs one command per process and never hits
# it.  A command without a process, and ``replay``, empty it.
_HELD: list = []


def _ensemble(raw: dict, cfg: dict):
    """The ensemble of a process command's config, ``raw`` as given and
    ``cfg`` as read.  Its key is every input the values depend on: the
    reader rejects unknown keys, so the canonical JSON of ``process`` fixes
    the spec.  ``workers`` never moves a value, so it is not in the key."""
    key = (
        json.dumps(raw["process"], sort_keys=True),
        cfg["checkpoints"], cfg["n_paths"], cfg["seed"],
    )
    held = _HELD[:]
    if held and held[0][0] == key:
        return held[0][1]
    _HELD.clear()  # free the held ensemble before the next is drawn
    ens = simulate_ensemble(
        cfg["process"], cfg["checkpoints"], cfg["n_paths"], cfg["seed"],
        cfg["workers"],
    )
    _HELD[:] = [(key, ens)]
    return ens


def _run_simulate(cfg, outdir, workers):
    trajectories = cfg["trajectories"]
    ens = cfg["ensemble"]
    outputs = ["scaled.csv"]
    d, n_cp = ens.dim, len(ens.checkpoints)
    write_csv(
        os.path.join(outdir, "scaled.csv"),
        ["path_id", "checkpoint", "in_g"]
        + [f"bu_{i}" for i in range(d)]
        + [f"qu_{i}" for i in range(d)],
        [
            np.tile(np.arange(ens.n_paths), n_cp),
            np.repeat(ens.checkpoints, ens.n_paths),
            np.tile(ens.in_g.astype(np.int64), n_cp),
            np.concatenate([ens.bu[n] for n in ens.checkpoints]),
            np.concatenate([ens.qu[n] for n in ens.checkpoints]),
        ],
    )
    stats = {}
    for n in ens.checkpoints:
        stats[f"bu_norm_mean.n{n}"] = float(matalg.row_norms(ens.bu[n]).mean())
        stats[f"qu_norm_mean.n{n}"] = float(matalg.row_norms(ens.qu[n]).mean())
    if trajectories > 0:
        # Trajectory i is ensemble path i: the same stream rows, with every
        # step a checkpoint.
        steps = range(1, ens.checkpoints[-1] + 1)
        rows = simulate_ensemble(ens.spec, steps, trajectories, cfg["seed"], workers)
        write_paths_csv(os.path.join(outdir, "paths.csv"), rows)
        outputs.append("paths.csv")
    return stats, [], {}, outputs, True


_ECF_ARGS = {key: key for key in ("family", "r", "delta", "factor", "workers")}

# The verdicts each process check issues, in report order: a ``verify``
# function and its keyword arguments by config key.  The function is looked
# up by name at call time, so a wrapper rebound into ``verify`` sees the call.
_CHECKS = {
    "verify-mixing": [("verify_mixing", {**_ECF_ARGS, "which": "statistic_of"})],
    "verify-stable": [("verify_stable", _ECF_ARGS)],
    "conditions": [
        ("check_condition_i", {"tol": "tol"}),
        ("check_condition_ii", {"levels": "levels", "bound": "bound"}),
        ("check_condition_iii", {"tol": "tol"}),
    ],
}


def _run_checks(checks, cfg, outdir, workers):
    """Each verdict's statistic per checkpoint and its final threshold; a
    verdict that carries an ecf writes it to ``ecf.csv``."""
    stats, verdicts, outputs = {}, [], []
    for name, args in checks:
        kwargs = {param: cfg[key] for param, key in args.items()}
        v = getattr(verify, name)(cfg["ensemble"], **kwargs)
        for n, value in zip(v.checkpoints, v.statistics):
            stats[f"{v.condition}.n{n}"] = float(value)
        stats[f"{v.condition}.threshold"] = float(v.thresholds[-1])
        if v.ecf is not None:
            write_ecf_csv(os.path.join(outdir, "ecf.csv"), v.ecf)
            outputs.append("ecf.csv")
        verdicts.append(v)
    return stats, verdicts, {}, outputs, all(v.passed for v in verdicts)


_RUNNERS = {
    "sample-law": _run_sample_law,
    "series": _run_series,
    "lemma": _run_lemma,
    "simulate": _run_simulate,
    **{name: partial(_run_checks, checks) for name, checks in _CHECKS.items()},
}


def run_command(command: str, cfg: dict, outdir: str) -> dict:
    """Read the config, execute, and write ``report.json``; returns the report."""
    values = validate_config(command, cfg)
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use output directory {outdir!r}: {exc}") from exc
    started = time.perf_counter()
    if "process" in values:
        values["ensemble"] = _ensemble(cfg, values)
    else:
        _HELD.clear()
    stats, verdicts, derived, outputs, passed = _RUNNERS[command](
        values, outdir, values["workers"]
    )
    report = {
        "version": __version__,
        "command": command,
        "config": cfg,
        "statistics": stats,
        "verdicts": [v.to_json() for v in verdicts],
        "derived": derived,
        "outputs": outputs,
        "pass": bool(passed),
        "wall_clock_s": time.perf_counter() - started,
        "streams": {
            "chunk_paths": streams.CHUNK_PATHS,
            "process": streams.STREAM_PROCESS,
            "series": streams.STREAM_SERIES,
            "lemma": streams.STREAM_LEMMA,
            "law": streams.STREAM_LAW,
        },
    }
    # allow_nan=False keeps the report strict JSON: a non-finite statistic
    # is a bug that fails loudly here, before the file is opened.
    text = json.dumps(report, indent=2, allow_nan=False) + "\n"
    with open(os.path.join(outdir, "report.json"), "w") as fh:
        fh.write(text)
    return report


def replay_report(report_path: str, outdir: str | None = None,
                  seed: int | None = None, workers: int | None = None) -> dict:
    """Re-execute a report's embedded config and compare statistics bitwise.

    Raises :class:`ReproducibilityError` naming every statistic that
    diverged, with its stored and replayed values and their relative delta.
    Overriding the seed is the intended negative test: any honest statistic
    must move.
    """
    stored = _json_object(report_path, "report")
    for key, kind in (("command", str), ("config", dict), ("statistics", dict)):
        if key not in stored:
            raise ConfigError(f"report is missing {key!r}; not a run report")
        if not isinstance(stored[key], kind):
            raise ConfigError(f"report field {key!r} is malformed: {stored[key]!r:.60}")
    command = stored["command"]
    if command not in _RUNNERS:
        raise ConfigError(f"report names unknown command {command!r}")
    old = {
        key: converted(float, value, f"report statistic {key!r}", ConfigError)
        for key, value in stored["statistics"].items()
    }
    cfg = dict(stored["config"])
    if seed is not None:
        cfg["seed"] = seed
    if workers is not None:
        cfg["workers"] = workers
    if outdir is None:
        outdir = os.path.join(os.path.dirname(report_path) or ".", "replay")
    _HELD.clear()
    fresh = run_command(command, cfg, outdir)
    new = fresh["statistics"]
    if sorted(old) != sorted(new):
        raise ReproducibilityError(
            "replay produced a different set of statistics: "
            f"{sorted(set(old) ^ set(new))}"
        )
    diverged = []
    for key in old:
        a, b = old[key], float(new[key])
        if a == b:
            continue
        delta = abs(b - a) / abs(a) if a else math.inf
        diverged.append(
            f"{key!r}: stored {a!r}, replayed {b!r}, relative delta {delta:.3g}"
        )
    if diverged:
        raise ReproducibilityError(
            f"{len(diverged)} of {len(old)} statistics diverged:\n  "
            + "\n  ".join(diverged)
        )
    return fresh


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stablemix",
        description="Simulate normalized explosive processes and verify "
        "their stable and mixing limits.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="path to the JSON run config")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument(
            "--workers", type=int, help="worker threads (never affects values)"
        )
        p.add_argument("--out", help="output directory (default: stablemix-out)")
        return p

    add("sample-law", "draw iid increments and check their ecf against the cf")
    add("series", "sample the truncated limit series and check its ecf")
    add("lemma", "term-wise exceedance diagnostics for the limit series")
    add("simulate", "simulate process paths and dump scaled checkpoints")
    add("verify-mixing", "event-based mixing-convergence check")
    add("verify-stable", "event-based stable-convergence check")
    add("conditions", "check the structural hypotheses on an ensemble")

    rp = sub.add_parser("replay", help="re-run a report and compare bitwise")
    rp.add_argument("report", help="path to a report.json from a previous run")
    rp.add_argument("--seed", type=int, help="override the embedded seed")
    rp.add_argument("--workers", type=int, help="override the worker count")
    rp.add_argument("--out", help="output directory (default: <report dir>/replay)")
    return parser


def _print_outcome(report: dict) -> None:
    for v in report["verdicts"]:
        tag = "PASS" if v["pass"] else "FAIL"
        print(
            f"[{tag}] {v['condition']}: final={v['statistics'][-1]:.6g} "
            f"threshold={v['thresholds'][-1]:.6g}"
        )
    if not report["verdicts"]:
        stats = report["statistics"]
        if "ecf_distance" in stats:
            tag = "PASS" if report["pass"] else "FAIL"
            print(
                f"[{tag}] ecf distance {stats['ecf_distance']:.6g} "
                f"(threshold {stats['threshold']:.6g})"
            )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "replay":
            report = replay_report(
                args.report, outdir=args.out, seed=args.seed, workers=args.workers
            )
            n = len(report["statistics"])
            print(f"replay ok: {n} statistics identical")
            return 0
        if args.config is None:
            raise ConfigError("--config is required")
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.workers is not None:
            cfg["workers"] = args.workers
        outdir = args.out or "stablemix-out"
        report = run_command(args.command, cfg, outdir)
        _print_outcome(report)
        print(f"report: {os.path.join(outdir, 'report.json')}")
        return 0 if report["pass"] else 1
    except ReproducibilityError as exc:
        print(f"reproducibility failure: {exc}", file=sys.stderr)
        return 1
    except StablemixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
