"""One benchmark job, run in a fresh child process.

Usage: ``python3 bench/job.py <job.json>``, with ``src`` on ``PYTHONPATH``.
The job file names the CLI commands to run (``[command, config, outdir]``
triples), whether to trace, and where to write the result.  Set-up is the
interpreter start, ``import stablemix.cli``, and loading and validating
every config; the job then runs each command through ``stablemix.cli.main``
exactly as the ``stablemix`` console script would, one after another.  The
result file records the set-up end and job times on the system-wide
monotonic clock, so the parent can measure set-up from before it spawned
this process.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _versions() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
    }


def main(path: str) -> int:
    with open(path) as fh:
        spec = json.load(fh)
    import stablemix
    import stablemix.cli as cli

    for command, config, _outdir in spec["commands"]:
        cli.validate_config(command, cli.load_config(config))
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer

        tracer = Tracer(spec["job"])
        tracer.install(stablemix)
    ready = time.monotonic()
    cpu0 = _cpu_s()
    codes, command_s = [], []
    if not spec.get("setup_only"):
        for command, config, outdir in spec["commands"]:
            started = time.perf_counter()
            codes.append(cli.main([command, "--config", config, "--out", outdir]))
            command_s.append(time.perf_counter() - started)
    done = time.monotonic()
    result = {
        "ready": ready,
        "job_s": done - ready,
        "command_s": command_s,
        "cpu_s": _cpu_s() - cpu0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "exit_codes": codes,
        "package": stablemix.__file__,
        "versions": _versions() if spec.get("versions") else None,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counts"] = tracer.counts
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
