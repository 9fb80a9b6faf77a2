"""In-memory span tracer for one benchmark job, and the per-layer metrics
derived from its spans.

The tracer wraps attributes of the already-imported ``stablemix`` modules in
the job's own process; nothing under ``src/`` changes and nothing outside
the process is traced.  A span is ``(id, name, start, end, parent, job,
extra)``, where ``extra`` is the number of workers a ``map_chunks`` call
could keep busy; parents follow a per-thread stack, and the chunk callables that
``streams.map_chunks`` hands to its worker threads take the ``map_chunks``
span as their parent.  Counts (uniforms drawn, phase evaluations, ...) are
kept beside the spans under a lock, because chunk work runs in threads.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time

# Spans whose time is reported as one group: a reference cf nested in
# another (``series_cf_values`` calling ``law.cf``) is counted once.
CF_GROUP = "laws.cf"
FROM_UNIFORMS = "laws.from_uniforms"
MAP_CHUNKS = "streams.map_chunks"
CHUNK = "streams.map_chunks.chunk"

# (module, function) pairs wrapped as plain spans named "<module>.<function>".
FUNCTIONS = (
    ("streams", "uniform_block"),
    ("matalg", "power_sequence"),
    ("matalg", "decay_certificate"),
    ("laws", "series_cf_values"),
    ("laws", "cf_increment"),
    ("laws", "cf_normal_limit"),
    ("laws", "cf_cauchy_limit"),
    ("laws", "cf_stable_limit"),
    ("series", "series_ensemble"),
    ("series", "lemma_diagnostics"),
    ("series", "truncation_index"),
    ("series", "write_lemma_csv"),
    ("processes", "simulate_ensemble"),
    ("processes", "simulate_path"),
    ("processes", "write_paths_csv"),
    ("ecf", "estimate_ecf"),
    ("ecf", "chunked_phase_sums"),
    ("ecf", "write_ecf_csv"),
    ("verify", "verify_stable"),
    ("verify", "verify_mixing"),
    ("verify", "stable_statistic"),
    ("verify", "mixing_statistic"),
    ("verify", "check_condition_i"),
    ("verify", "check_condition_ii"),
    ("verify", "check_condition_iii"),
    ("cli", "run_command"),
)

_CF_FUNCTIONS = {
    "laws.series_cf_values", "laws.cf_increment", "laws.cf_normal_limit",
    "laws.cf_cauchy_limit", "laws.cf_stable_limit",
}


class Tracer:
    """Collects spans and counts for one job; install once per process."""

    def __init__(self, job: int):
        self.job = job
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- recording -----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, amount: float) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + amount

    def span(self, name: str, fn, args, kwargs, parent=None, extra=None, sid=None):
        stack = self._stack()
        if sid is None:
            sid = next(self._ids)
        if parent is None:
            parent = stack[-1] if stack else 0
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, self.job, extra))

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                counter(self, *args, **kwargs)
            return self.span(name, fn, args, kwargs)

        return traced

    # -- installation --------------------------------------------------

    def install(self, package) -> None:
        """Wrap the traced attributes of ``package``'s modules in place.

        Modules that imported a function by name (``cli`` takes
        ``simulate_ensemble`` from ``processes``) hold their own reference,
        so every module namespace is rebound, not only the defining one.
        """
        import importlib

        modules = {
            name: importlib.import_module(f"{package.__name__}.{name}")
            for name in ("streams", "laws", "matalg", "series", "processes",
                         "ecf", "verify", "cli")
        }
        counters = {
            "streams.uniform_block": _count_uniforms,
            "processes.simulate_ensemble": _count_ensemble_steps,
            "processes.simulate_path": _count_path_steps,
            "ecf.chunked_phase_sums": _count_phase_evals,
            "verify.stable_statistic": _count_filtered,
            "verify.mixing_statistic": _count_filtered,
        }
        replace = {}
        for mod_name, attr in FUNCTIONS:
            name = f"{mod_name}.{attr}"
            original = getattr(modules[mod_name], attr)
            group = CF_GROUP if name in _CF_FUNCTIONS else name
            replace[id(original)] = self.wrap(group, original, counters.get(name))
        streams = modules["streams"]
        replace[id(streams.map_chunks)] = self._wrap_map_chunks(streams)
        for mod in list(modules.values()) + [package]:
            for key, value in list(vars(mod).items()):
                if id(value) in replace:
                    setattr(mod, key, replace[id(value)])

        laws = modules["laws"]
        for cls in vars(laws).values():
            if isinstance(cls, type) and issubclass(cls, laws.IncrementLaw):
                if "from_uniforms" in vars(cls):
                    cls.from_uniforms = self.wrap(
                        FROM_UNIFORMS, cls.from_uniforms, _count_draws
                    )
                if "cf" in vars(cls):
                    cls.cf = self.wrap(CF_GROUP, cls.cf)
        family = modules["verify"].EventFamily
        family.indicator_matrix = self.wrap(
            "verify.indicator_matrix", family.indicator_matrix
        )
        self._install_run_command_bytes(modules["cli"])

    def _wrap_map_chunks(self, streams):
        tracer = self
        original = streams.map_chunks

        @functools.wraps(original)
        def map_chunks(fn, n_paths, workers=1, chunk=streams.CHUNK_PATHS):
            n_chunks = len(streams.chunk_starts(n_paths, chunk))
            tracer.count("streams.map_chunks.chunks", n_chunks)
            sid = next(tracer._ids)

            def traced_chunk(start, count):
                return tracer.span(CHUNK, fn, (start, count), {}, parent=sid)

            return tracer.span(
                MAP_CHUNKS, original, (traced_chunk, n_paths, workers, chunk), {},
                sid=sid, extra=max(1, min(int(workers), n_chunks)),
            )

        return map_chunks

    def _install_run_command_bytes(self, cli) -> None:
        run_command = cli.run_command
        tracer = self

        @functools.wraps(run_command)
        def counted(command, cfg, outdir):
            report = run_command(command, cfg, outdir)
            tracer.count("cli.bytes_written", _dir_bytes(outdir))
            return report

        cli.run_command = counted


def _dir_bytes(path: str) -> int:
    total = 0
    for entry in os.scandir(path):
        if entry.is_file():
            total += entry.stat().st_size
    return total


def _count_uniforms(tracer, seed, stream, start_path, count, per_path):
    tracer.count("streams.uniforms", count * per_path)


def _count_draws(tracer, law, u):
    tracer.count("laws.draws", u.size // law.uniforms_per_draw)


def _count_ensemble_steps(tracer, spec, checkpoints, n_paths, *args, **kwargs):
    horizon = max(int(c) for c in checkpoints)
    tracer.count("processes.path_steps", n_paths * horizon)


def _count_path_steps(tracer, spec, n, rng):
    tracer.count("processes.path_steps", n)


def _count_phase_evals(tracer, values, grid, workers=1):
    tracer.count("ecf.phase_evals", len(values) * len(grid))


def _count_filtered(tracer, ensemble, *args, **kwargs):
    kept = int((ensemble.in_g & ensemble.eta_invertible).sum())
    tracer.count("verify.paths_kept", kept)
    tracer.count("verify.paths_seen", ensemble.n_paths)


# -- derivation ---------------------------------------------------------

# Per-layer metrics: name -> unit.  "<fn>.s" is the summed wall time of a
# function's outermost spans; "<fn>.self_s" subtracts the time covered by
# traced callees, and adds the chunk work the function ran through
# ``map_chunks`` (minus the callees inside those chunks).  With workers > 1
# chunk times add up across threads, so self times are busy seconds.
LAYER_METRICS = {
    "streams.uniform_block.s": "s",
    "streams.uniforms": "count",
    "streams.map_chunks.chunks": "count",
    "streams.map_chunks.efficiency": "ratio",
    "laws.from_uniforms.s": "s",
    "laws.draws": "count",
    "laws.cf.s": "s",
    "matalg.power_sequence.s": "s",
    "matalg.decay_certificate.s": "s",
    "series.series_ensemble.self_s": "s",
    "series.lemma_diagnostics.self_s": "s",
    "series.truncation_index.s": "s",
    "series.write_lemma_csv.s": "s",
    "processes.simulate_ensemble.self_s": "s",
    "processes.path_steps": "count",
    "processes.simulate_path.s": "s",
    "processes.write_paths_csv.s": "s",
    "ecf.chunked_phase_sums.s": "s",
    "ecf.phase_evals": "count",
    "ecf.write_ecf_csv.s": "s",
    "verify.stable_statistic.s": "s",
    "verify.mixing_statistic.s": "s",
    "verify.indicator_matrix.s": "s",
    "verify.check_condition_i.s": "s",
    "verify.check_condition_ii.s": "s",
    "verify.check_condition_iii.s": "s",
    "verify.filtered_frac": "ratio",
    "cli.run_command.self_s": "s",
    "cli.bytes_written": "bytes",
    "cli.write_mb_per_s": "MB/s",
}

# Writers whose time counts toward ``cli.write_mb_per_s`` beside the inline
# writers in ``cli.run_command``'s own time.
_WRITERS = ("ecf.write_ecf_csv", "processes.write_paths_csv",
            "series.write_lemma_csv")


def _covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def job_layer_metrics(spans, counts) -> dict:
    """Per-layer metrics of one traced job from its spans and counts."""
    by_id = {s[0]: s for s in spans}
    children: dict[int, list] = {}
    for s in spans:
        children.setdefault(s[4], []).append(s)

    def own(s) -> float:
        return (s[3] - s[2]) - _covered((c[2], c[3]) for c in children.get(s[0], ()))

    outer: dict[str, float] = {}
    self_s: dict[str, float] = {}
    busy = wall = 0.0
    for s in spans:
        sid, name, start, end, parent, _job, extra = s
        ancestor = by_id.get(parent)
        # Outermost spans only, so a name nested in itself counts once.
        nested = False
        while ancestor is not None:
            if ancestor[1] == name:
                nested = True
                break
            ancestor = by_id.get(ancestor[4])
        if not nested:
            outer[name] = outer.get(name, 0.0) + (end - start)
        if name == MAP_CHUNKS:
            wall += extra * (end - start)
            continue
        if name == CHUNK:
            busy += end - start
            caller = by_id.get(by_id[parent][4]) if parent in by_id else None
            if caller is not None:
                self_s[caller[1]] = self_s.get(caller[1], 0.0) + own(s)
            continue
        self_s[name] = self_s.get(name, 0.0) + own(s)

    out = {}
    for metric in LAYER_METRICS:
        base, _, kind = metric.rpartition(".")
        if kind == "s":
            out[metric] = outer.get(base, 0.0)
        elif kind == "self_s":
            out[metric] = self_s.get(base, 0.0)
        elif metric in counts:
            out[metric] = float(counts[metric])
        else:
            out[metric] = 0.0
    out["streams.map_chunks.efficiency"] = busy / wall if wall else 0.0
    seen = counts.get("verify.paths_seen", 0)
    out["verify.filtered_frac"] = counts.get("verify.paths_kept", 0) / seen if seen else 0.0
    write_s = out["cli.run_command.self_s"] + sum(outer.get(w, 0.0) for w in _WRITERS)
    out["cli.write_mb_per_s"] = (
        out["cli.bytes_written"] / 1e6 / write_s if write_s else 0.0
    )
    return out
