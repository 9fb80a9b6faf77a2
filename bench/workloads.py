"""The benchmark's workloads: configs made from a seed, output checks, and
the work each job does.

Every workload is a fixed sequence of real CLI commands on generated
configs.  P is the 2-d rotation by pi/6 scaled to spectral radius 1/2, the
contraction of the README and the acceptance tests.  Each workload puts
most of its time in a different layer, so a change to one layer can be
shown to move one workload and leave another alone:

- ``certify-scaled``: the paper's headline experiment.  Most time is the
  per-checkpoint accumulation in ``processes``, then the ``verify``/``ecf``
  statistics and the ``conditions`` SVDs; the only workload on two worker
  threads.  Cost grows with horizon x checkpoints.
- ``simulate-dump``: many paths on a short horizon, dominated by the
  row-by-row ``scaled.csv`` writer in ``cli``.  Not listed in
  ``BENCHMARK.json``: three gated workloads left runs too short to be
  steady on a 2-CPU host, and its layers are measured on the other two.
  Run it by name to measure a change to the CSV writers.
- ``series-stable``: the alpha-stable CMS sampler in ``laws`` and the
  uniform stream; never touches ``processes`` or ``verify``.  The plain
  single-thread baseline.

Checks compare outputs with values the run itself or a closed form
provides, never with stored digests, so a change that alters bits on
purpose still passes them.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from dataclasses import dataclass

_C, _S = math.cos(math.pi / 6), math.sin(math.pi / 6)
ROTATION_HALF = {"dim": 2, "rows": [[0.5 * _C, -0.5 * _S], [0.5 * _S, 0.5 * _C]]}
NORMAL_2D = {"law": "normal", "cov": [[1.0, 0.0], [0.0, 1.0]]}
STABLE_2D = {
    "law": "stable", "alpha": 1.5,
    "atoms": [[1.0, 0.0], [0.0, 1.0]], "weights": [0.5, 0.5],
}

# Reduced sizes for the smoke test: every command, check and traced layer
# still runs, in well under a second per job.  ``setup_probes`` is the
# number of set-up-only children per run, beside the set-up of every
# timed job.
SIZES = {
    "full": {
        "certify_paths": 50_000, "certify_checkpoints": [25, 50, 75, 100],
        "dump_paths": 100_000, "dump_checkpoints": [12, 24], "trajectories": 200,
        "series_count": 100_000, "lemma_J": 64, "setup_probes": 4,
    },
    "smoke": {
        "certify_paths": 5_000, "certify_checkpoints": [5, 10],
        "dump_paths": 5_000, "dump_checkpoints": [6, 12], "trajectories": 10,
        "series_count": 5_000, "lemma_J": 16, "setup_probes": 1,
    },
}


@dataclass(frozen=True)
class Command:
    name: str  # stablemix subcommand
    config: dict  # without the seed
    expect_exit: int


class Workload:
    name: str
    workers: int
    replay_index: int  # which command's report the invariance check replays

    def __init__(self, size: str):
        self.size = SIZES[size]

    def commands(self) -> list[Command]:
        raise NotImplementedError

    def configs(self, seed: int) -> list[tuple[str, dict]]:
        out = []
        for cmd in self.commands():
            cfg = {"schema_version": 1, "seed": seed, "workers": self.workers}
            cfg.update(cmd.config)
            out.append((cmd.name, cfg))
        return out

    def path_steps(self, reports: list[dict]) -> float:
        """Paths or draws x horizon or terms, summed over the commands."""
        raise NotImplementedError

    def check(self, codes: list[int], outdirs: list[str]) -> list[str]:
        """Failure messages for one job; empty when every output checks."""
        failures = []
        for cmd, code in zip(self.commands(), codes):
            if code != cmd.expect_exit:
                failures.append(f"{cmd.name} exited {code}, expected {cmd.expect_exit}")
        if failures:
            return failures
        reports = [read_report(d) for d in outdirs]
        return self.check_outputs(reports, outdirs)

    def check_outputs(self, reports, outdirs) -> list[str]:
        raise NotImplementedError


def read_report(outdir: str) -> dict:
    with open(os.path.join(outdir, "report.json")) as fh:
        return json.load(fh)


def _stablemix():
    """The package under test, imported from the checkout for closed forms."""
    src = os.path.join(os.getcwd(), "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import stablemix

    return stablemix


class CertifyScaled(Workload):
    name = "certify-scaled"
    workers = 2
    replay_index = 0

    def process(self) -> dict:
        return {
            "variant": "random-scaled", "P": ROTATION_HALF, "noise": NORMAL_2D,
            "lam_values": [1.0, 2.0], "lam_probs": [0.5, 0.5],
        }

    def commands(self):
        base = {
            "process": self.process(),
            "checkpoints": self.size["certify_checkpoints"],
            "n_paths": self.size["certify_paths"],
        }
        return [
            Command("verify-stable", base, 0),
            Command("verify-mixing", dict(base, statistic_of="qu"), 1),
            Command("conditions", base, 0),
        ]

    def path_steps(self, reports):
        horizon = max(self.size["certify_checkpoints"])
        return 3.0 * self.size["certify_paths"] * horizon

    @functools.cached_property
    def closed_form_gap(self) -> float:
        """``scale_mixture_gap`` at r = horizon - 1, which the final mixing
        statistic must match within the run's own threshold."""
        sm = _stablemix()
        spec = sm.process_from_json(self.process())
        horizon = max(self.size["certify_checkpoints"])
        gap, _ = sm.scale_mixture_gap(spec, sm.default_grid(2), r=horizon - 1)
        return gap

    def check_outputs(self, reports, outdirs):
        stable, mixing, conditions = reports
        failures = []
        if not stable["pass"]:
            failures.append("verify-stable did not pass")
        if not conditions["pass"]:
            failures.append("conditions did not pass")
        horizon = max(self.size["certify_checkpoints"])
        stats = mixing["statistics"]
        value, threshold = stats[f"mixing.n{horizon}"], stats["mixing.threshold"]
        if abs(value - self.closed_form_gap) > threshold:
            failures.append(
                f"mixing.n{horizon}={value!r} is farther than the threshold "
                f"{threshold!r} from the closed-form gap {self.closed_form_gap!r}"
            )
        return failures


class SimulateDump(Workload):
    name = "simulate-dump"
    workers = 1
    replay_index = 0

    def commands(self):
        return [Command("simulate", {
            "process": {"variant": "synthetic-canonical", "P": ROTATION_HALF,
                        "noise": NORMAL_2D},
            "checkpoints": self.size["dump_checkpoints"],
            "n_paths": self.size["dump_paths"],
            "trajectories": self.size["trajectories"],
        }, 0)]

    def path_steps(self, reports):
        horizon = max(self.size["dump_checkpoints"])
        return float((self.size["dump_paths"] + self.size["trajectories"]) * horizon)

    def check_outputs(self, reports, outdirs):
        import numpy as np

        (report,), (outdir,) = reports, outdirs
        failures = []
        n_paths = self.size["dump_paths"]
        checkpoints = self.size["dump_checkpoints"]
        table = np.loadtxt(os.path.join(outdir, "scaled.csv"), delimiter=",",
                           skiprows=1, ndmin=2)
        if table.shape != (n_paths * len(checkpoints), 7):
            failures.append(f"scaled.csv has shape {table.shape}")
            return failures
        for i, n in enumerate(checkpoints):
            rows = table[i * n_paths:(i + 1) * n_paths]
            if not (rows[:, 1] == n).all() or not (rows[:, 0] == np.arange(n_paths)).all():
                failures.append(f"scaled.csv rows for checkpoint {n} are out of order")
            for key, cols in (("bu", slice(3, 5)), ("qu", slice(5, 7))):
                mean = float(np.linalg.norm(rows[:, cols], axis=1).mean())
                stored = report["statistics"][f"{key}_norm_mean.n{n}"]
                if mean != stored:
                    failures.append(
                        f"{key}_norm_mean.n{n}: scaled.csv gives {mean!r}, "
                        f"report has {stored!r}"
                    )
        with open(os.path.join(outdir, "paths.csv")) as fh:
            rows = sum(1 for _ in fh) - 1
        want = self.size["trajectories"] * (max(checkpoints) + 1)
        if rows != want:
            failures.append(f"paths.csv has {rows} rows, expected {want}")
        return failures


class SeriesStable(Workload):
    name = "series-stable"
    workers = 1
    replay_index = 1

    def commands(self):
        count = self.size["series_count"]
        return [
            Command("sample-law", {"law": STABLE_2D, "count": count}, 0),
            Command("series", {"P": ROTATION_HALF, "law": STABLE_2D,
                               "count": count, "tol": 2.0**-10}, 0),
            Command("lemma", {"P": ROTATION_HALF, "law": STABLE_2D,
                              "J": self.size["lemma_J"], "n_paths": count}, 0),
        ]

    def path_steps(self, reports):
        count = self.size["series_count"]
        terms = int(reports[1]["derived"]["truncation_plan"]["r"]) + 1
        return float(count * (1 + terms + self.size["lemma_J"] + 1))

    def check_outputs(self, reports, outdirs):
        freq = reports[2]["statistics"]["exceedance_freq_at_J"]
        if freq != 0:
            return [f"lemma exceedance_freq_at_J is {freq!r}, expected 0"]
        return []


WORKLOADS = {w.name: w for w in (CertifyScaled, SimulateDump, SeriesStable)}
