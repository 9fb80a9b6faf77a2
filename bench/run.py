"""stablemix benchmark: CLI workloads timed end to end, and a traced run
that splits the time by package module.

Run from the root of a source checkout (the package is imported from
``src``; nothing needs installing):

    python3 bench/run.py --workload certify-scaled --seed 1 --seconds 20 --trace 0

Each job is one fresh child process (``bench/job.py``) that imports
``stablemix.cli``, loads and validates the workload's configs, and then runs
the workload's commands through the CLI entry point.  Jobs run one at a
time in a closed loop: a warm-up job, a few set-up-only children, then jobs
for ``--seconds`` (a job starts only while a typical one still fits).  Every job's outputs are checked.  Once
per invocation, outside the timing, one of the warm-up job's reports is
replayed with the other worker count, and any divergence is a failure.
A one-worker job child is moved round-robin over the allowed CPUs every
0.2 s (see ``Runner``), so its time averages their speeds.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:

- ``setup_s``: child start until the first command is ready (median);
- ``job_s``: wall time of the command sequence after set-up (median);
- ``path_steps_per_s``: paths or draws x horizon or terms, summed over the
  commands, divided by ``job_s``;
- ``cpu_s``: user + system CPU of the child during the job (median);
- ``peak_rss_mb``: ``ru_maxrss`` of the child (median).

Failures are carried by ``attempted`` and ``failed`` (their ratio is
``failed_frac``, printed on the info line, as are the sample counts and the
highest job-time percentile with at least ten samples beyond it).

``--trace 1`` alternates untraced and traced jobs and reports the per-layer
metrics of ``bench/tracer.py`` (medians over traced jobs) plus
``trace.overhead_frac``.

``--record FILE`` appends the result to a JSON-lines file that
``bench/compare.py`` reads; ``--size smoke`` shrinks every workload for the
smoke test.  The last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
import time
from statistics import median

from tracer import LAYER_METRICS, job_layer_metrics
from workloads import SIZES, WORKLOADS, read_report

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
JOB_TIMEOUT_S = 120
ROTATE_S = 0.2  # how long a one-worker job child stays on one CPU


def tail_percentile(samples):
    """Highest of p90/p99/p99.9 (nearest rank) with at least ten samples
    beyond it, as ``(percentile, value)``; None for fewer than 100 samples."""
    ordered, best = sorted(samples), None
    for per_mille in (900, 990, 999):
        index = -(-per_mille * len(ordered) // 1000) - 1
        if len(ordered) - 1 - index >= 10:
            best = (per_mille / 10, ordered[index])
    return best


class Runner:
    def __init__(self, workload, root: str, work: str):
        self.workload = workload
        self.root = root
        self.work = work
        self.cpus = sorted(os.sched_getaffinity(0))
        nproc = len(self.cpus)
        # On a shared host each CPU slows down on its own, for seconds at a
        # time, so a one-thread job's time depended on which CPU it sat on.
        # Its child is moved round-robin over the CPUs instead and so
        # averages them, as a two-worker job does.  Worker threads would
        # inherit a one-CPU mask, so only one-worker jobs are moved, and
        # they get one BLAS thread to match.
        self.rotate = workload.workers == 1 and nproc > 1
        blas = "1" if self.rotate else str(max(1, nproc // workload.workers))
        path = [os.path.join(root, "src"), os.environ.get("PYTHONPATH", "")]
        self.env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(p for p in path if p),
            OPENBLAS_NUM_THREADS=blas,
            OMP_NUM_THREADS=blas,
        )
        self.nproc, self.blas_threads = nproc, int(blas)
        self.jobs = 0
        self.failures: list[str] = []
        self.versions = None

    def _child(self, args, log_path, rotate=False):
        """Run one child to completion; its exit code, or None on timeout."""
        with open(log_path, "w") as log:
            proc = subprocess.Popen(
                args, cwd=self.root, env=self.env,
                stdout=subprocess.DEVNULL, stderr=log,
            )
            deadline = time.monotonic() + JOB_TIMEOUT_S
            step = ROTATE_S if rotate else JOB_TIMEOUT_S
            try:
                for tick in itertools.count():
                    if rotate:
                        try:
                            os.sched_setaffinity(
                                proc.pid, {self.cpus[tick % len(self.cpus)]}
                            )
                        except ProcessLookupError:
                            pass  # exited between two ticks
                    try:
                        return proc.wait(timeout=step)
                    except subprocess.TimeoutExpired:
                        if time.monotonic() >= deadline:
                            return None
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()

    def run_job(self, seed: int, trace: bool = False, setup_only: bool = False):
        """Run one job child; returns its result dict, or None on failure."""
        self.jobs += 1
        jdir = os.path.join(self.work, f"job-{self.jobs}")
        os.makedirs(jdir)
        commands, outdirs = [], []
        for i, (command, cfg) in enumerate(self.workload.configs(seed)):
            path = os.path.join(jdir, f"{i}-{command}.json")
            with open(path, "w") as fh:
                json.dump(cfg, fh)
            outdirs.append(os.path.join(jdir, f"{i}-{command}"))
            commands.append([command, path, outdirs[-1]])
        spec = {
            "job": self.jobs, "commands": commands, "trace": trace,
            "setup_only": setup_only, "versions": self.versions is None,
            "result": os.path.join(jdir, "result.json"),
        }
        spec_path = os.path.join(jdir, "job.json")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        log_path = os.path.join(jdir, "stderr.log")
        started = time.monotonic()
        code = self._child(
            [sys.executable, os.path.join(BENCH_DIR, "job.py"), spec_path], log_path,
            rotate=self.rotate,
        )
        if code != 0:
            with open(log_path) as fh:
                tail = fh.read()[-2000:]
            self.failures.append(f"job {self.jobs} child exited {code}: {tail}")
            return None
        with open(spec["result"]) as fh:
            result = json.load(fh)
        expected = os.path.join(self.root, "src", "stablemix")
        if os.path.dirname(os.path.abspath(result["package"])) != expected:
            raise SystemExit(f"error: imported stablemix from {result['package']}")
        if result["versions"]:
            self.versions = result["versions"]
        result["setup_s"] = result["ready"] - started
        result["outdirs"] = outdirs
        result["dir"] = jdir
        if not setup_only:
            problems = self.workload.check(result["exit_codes"], outdirs)
            if problems:
                self.failures.append(f"job {self.jobs}: " + "; ".join(problems))
                return None
            reports = [read_report(d) for d in outdirs]
            result["path_steps"] = self.workload.path_steps(reports)
        return result

    def replay(self, job) -> None:
        """Replay one report of ``job`` with the other worker count."""
        report = os.path.join(job["outdirs"][self.workload.replay_index], "report.json")
        other = 1 if self.workload.workers > 1 else 2
        out = os.path.join(job["dir"], "replay")
        code = self._child(
            [sys.executable, "-m", "stablemix.cli", "replay", report,
             "--workers", str(other), "--out", out],
            os.path.join(job["dir"], "replay.log"),
        )
        if code != 0:
            self.failures.append(f"replay with --workers {other} exited {code}")


def _discard(job):
    if job is not None:
        shutil.rmtree(job["dir"], ignore_errors=True)


def measure(runner, seeds, seconds: float, trace: bool) -> dict:
    """Warm-up, set-up probes, the timed closed loop and the replay check."""
    warm = runner.run_job(next(seeds))
    probes = runner.workload.size["setup_probes"]
    setup = [runner.run_job(next(seeds), setup_only=True) for _ in range(probes)]
    setup_s = [j["setup_s"] for j in setup if j is not None]
    for j in setup:
        _discard(j)
    plain, traced, walls = [], [], []
    t0 = time.monotonic()
    # Start a job only while a typical one still fits in ``seconds``, so a
    # run ends close to its budget instead of overrunning by a whole job.
    while (not plain or (trace and not traced)
           or time.monotonic() - t0 + median(walls) <= seconds):
        if len(runner.failures) > 3 and not plain:
            break
        use_trace = trace and len(traced) < len(plain)
        started = time.monotonic()
        job = runner.run_job(next(seeds), trace=use_trace)
        walls.append(time.monotonic() - started)
        _discard(job)
        if job is None:
            continue
        if use_trace:
            job["layers"] = job_layer_metrics(job.pop("spans"), job.pop("counts"))
            traced.append(job)
        else:
            plain.append(job)
            setup_s.append(job["setup_s"])
    if warm is None:
        runner.failures.append("no warm-up report to replay")
    else:
        runner.replay(warm)
        _discard(warm)
    return {"attempted": runner.jobs + 1, "plain": plain, "traced": traced,
            "setup_s": setup_s}


def end_to_end(data) -> dict:
    plain = data["plain"]
    job_s = [j["job_s"] for j in plain]
    med = median(job_s)
    return {
        "setup_s": {"value": median(data["setup_s"]), "unit": "s"},
        "job_s": {"value": med, "unit": "s"},
        "path_steps_per_s": {"value": plain[0]["path_steps"] / med, "unit": "1/s"},
        "cpu_s": {"value": median([j["cpu_s"] for j in plain]), "unit": "s"},
        "peak_rss_mb": {"value": median([j["peak_rss_mb"] for j in plain]), "unit": "MB"},
    }


def per_layer(data) -> dict:
    traced = data["traced"]
    out = {
        name: {"value": median([j["layers"][name] for j in traced]), "unit": unit}
        for name, unit in LAYER_METRICS.items()
    }
    ratio = median([j["job_s"] for j in traced]) / median(
        [j["job_s"] for j in data["plain"]]
    )
    out["trace.overhead_frac"] = {"value": ratio - 1.0, "unit": "ratio"}
    return out


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--record", help="append the result to this JSON-lines file")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "stablemix", "cli.py")):
        print("error: run from the root of a stablemix checkout "
              "(src/stablemix is missing)", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.size)
    load_avg = os.getloadavg()
    work = os.path.join(root, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    rng = random.Random(f"{args.workload}:{args.seed}")
    seeds = iter(lambda: rng.randrange(2**32), None)
    runner = Runner(workload, root, work)
    try:
        data = measure(runner, seeds, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    for failure in runner.failures:
        print(f"failure: {failure}", file=sys.stderr)
    if not data["plain"] or (args.trace and not data["traced"]):
        print("error: no job completed; nothing to report", file=sys.stderr)
        return 1
    metrics = per_layer(data) if args.trace else end_to_end(data)
    failed = len(runner.failures)
    job_s = [j["job_s"] for j in data["plain"]]
    tail = tail_percentile(job_s)
    info = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "jobs_timed": len(job_s), "job_s_samples": job_s,
        "traced_jobs": len(data["traced"]), "setup_samples": len(data["setup_s"]),
        "failed_frac": failed / data["attempted"],
        "job_s_tail": None if tail is None else {"percentile": tail[0], "value": tail[1]},
        "nproc": runner.nproc, "blas_threads": runner.blas_threads,
        "workers": workload.workers, "load_avg_at_start": load_avg[0],
        "versions": runner.versions,
    }
    print(json.dumps({"info": info}))
    result = {
        "correct": failed == 0, "attempted": data["attempted"],
        "failed": failed, "metrics": metrics,
    }
    if args.record:
        with open(args.record, "a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
