"""Command-line interface: configs, reports, exit codes, replay."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stablemix import cli, ecf, laws, matalg
from stablemix.cli import main
from stablemix.config import process_from_json
from stablemix.processes import simulate_ensemble

_C, _S = math.cos(math.pi / 6), math.sin(math.pi / 6)
ROTATION_HALF = {"dim": 2, "rows": [[0.5 * _C, -0.5 * _S], [0.5 * _S, 0.5 * _C]]}
NORMAL2 = {"law": "normal", "cov": [[1.0, 0.0], [0.0, 1.0]]}
NORMAL1 = {"law": "normal", "cov": [[1.0]]}
SCALAR_P = {"dim": 1, "rows": [[0.5]]}
HALF_IDENTITY_2D = {"dim": 2, "rows": [[0.5, 0.0], [0.0, 0.5]]}

CANONICAL = {"variant": "synthetic-canonical", "P": ROTATION_HALF, "noise": NORMAL2}
SCALED_ONE = {
    "variant": "random-scaled", "P": ROTATION_HALF, "noise": NORMAL2,
    "lam_values": [2.0], "lam_probs": [1.0],
}
SCALED = {
    "variant": "random-scaled", "P": ROTATION_HALF, "noise": NORMAL2,
    "lam_values": [1.0, 2.0], "lam_probs": [0.5, 0.5],
}
# B_2 is undefined: lam + perturbation/n = -0.5 + 1/2 = 0 at n = 2.
VANISHING = {
    "variant": "random-scaled", "P": {"dim": 2, "rows": [[0.4, 0.0], [0.0, 0.4]]},
    "noise": NORMAL2, "lam_values": [-0.5, 1.0], "lam_probs": [0.5, 0.5],
    "perturbation": 1.0,
}


def write_cfg(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def calls(monkeypatch):
    """Every simulation the CLI runs, from an empty ensemble memo."""
    calls = []

    def counted(*args):
        calls.append(args)
        return simulate_ensemble(*args)

    monkeypatch.setattr(cli, "simulate_ensemble", counted)
    monkeypatch.setattr(cli, "_HELD", [])
    return calls


def read_report(outdir):
    text = (outdir / "report.json").read_text()

    def no_constants(_s):
        raise AssertionError(f"non-finite token {_s!r} in report.json")

    return json.loads(text, parse_constant=no_constants)


class TestSampleLaw:
    def test_end_to_end(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {"schema_version": 1, "seed": 42, "law": NORMAL2, "count": 20000},
        )
        out = tmp_path / "out"
        assert main(["sample-law", "--config", cfg, "--out", str(out)]) == 0
        report = read_report(out)
        assert report["command"] == "sample-law" and report["pass"] is True
        stats = report["statistics"]
        assert stats["ecf_distance"] <= stats["threshold"]
        assert report["streams"]["chunk_paths"] == 4096
        samples = np.load(out / "samples.npy")
        assert samples.dtype.names == ("x_0", "x_1") and len(samples) == 20000
        assert len((out / "ecf.csv").read_text().splitlines()) == 62

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {"schema_version": 1, "seed": 42, "law": NORMAL1, "count": 2000},
        )
        out = tmp_path / "out"
        assert main(
            ["sample-law", "--config", cfg, "--seed", "7", "--out", str(out)]
        ) == 0
        assert read_report(out)["config"]["seed"] == 7

    def test_workers_never_change_statistics(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {"schema_version": 1, "seed": 3, "law": NORMAL2, "count": 20000},
        )
        out1, out8 = tmp_path / "w1", tmp_path / "w8"
        assert main(["sample-law", "--config", cfg, "--workers", "1",
                     "--out", str(out1)]) == 0
        assert main(["sample-law", "--config", cfg, "--workers", "8",
                     "--out", str(out8)]) == 0
        assert read_report(out1)["statistics"] == read_report(out8)["statistics"]

    def test_draws_are_prefix_stable(self):
        # count = 4097 leaves a one-row last chunk; its row must carry the
        # bits it has inside a full chunk of a larger draw.
        law = laws.NormalLaw([[1.0, 0.3], [0.3, 2.0]])
        for seed in range(20):
            short = cli._law_samples(law, seed, 4097, 1)
            long = cli._law_samples(law, seed, 8192, 1)
            assert np.array_equal(short, long[:4097])


class TestSeries:
    def test_tol_route_reports_truncation(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {
                "schema_version": 1, "seed": 11, "P": SCALAR_P, "law": NORMAL1,
                "count": 20000, "tol": 2.0**-10,
            },
        )
        out = tmp_path / "out"
        assert main(["series", "--config", cfg, "--out", str(out)]) == 0
        report = read_report(out)
        assert report["statistics"]["r"] == 10.0
        assert report["derived"]["truncation_plan"]["r"] == 10
        assert (out / "series_samples.npy").exists()

    def test_r_route(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {
                "schema_version": 1, "seed": 11, "P": SCALAR_P, "law": NORMAL1,
                "count": 10000, "r": 8,
            },
        )
        out = tmp_path / "out"
        assert main(["series", "--config", cfg, "--out", str(out)]) == 0
        stats = read_report(out)["statistics"]
        assert stats["r"] == 8.0 and stats["tail_norm_bound"] > 0

    def test_r_route_on_slow_jordan_block(self, tmp_path):
        # Its decay certificate needs a horizon past the default start of 64:
        # the search starts at 539 and doubles once.
        P = [[0.95, 1.0], [0.0, 0.95]]
        cfg = write_cfg(
            tmp_path,
            {
                "schema_version": 1, "seed": 1, "law": NORMAL2, "count": 2000,
                "P": {"dim": 2, "rows": P}, "r": 10,
            },
        )
        out = tmp_path / "out"
        assert main(["series", "--config", cfg, "--out", str(out)]) == 0
        plan = read_report(out)["derived"]["truncation_plan"]
        assert plan["certificate"] == {"horizon": 1078, "q": plan["certificate"]["q"]}
        norms = matalg.norm_table(P, 1078)
        cert = matalg.DecayCertificate(1078, plan["certificate"]["q"])
        assert cert.q == norms[-1] < 1.0
        assert plan["tail_norm_bound"] == matalg.tail_bound(norms, cert, 10)

    def test_slow_contraction_exits_0(self, tmp_path):
        # rho = 0.999: the cut r = 13,808 lies inside the largest horizon,
        # and the certificate there holds with q < 1.
        cfg = write_cfg(
            tmp_path,
            {
                "schema_version": 1, "seed": 1, "law": NORMAL2, "count": 200,
                "P": {"dim": 2, "rows": [[0.999, 0.0], [0.0, 0.5]]}, "tol": 1e-3,
            },
        )
        out = tmp_path / "out"
        assert main(["series", "--config", cfg, "--out", str(out)]) == 0
        plan = read_report(out)["derived"]["truncation_plan"]
        assert plan["r"] == 13808 and plan["tail_norm_bound"] <= 1e-3

    def test_tol_and_r_are_exclusive(self, tmp_path, capsys):
        base = {
            "schema_version": 1, "seed": 1, "P": SCALAR_P, "law": NORMAL1,
            "count": 100,
        }
        both = write_cfg(tmp_path, {**base, "tol": 0.01, "r": 5}, "both.json")
        neither = write_cfg(tmp_path, base, "neither.json")
        assert main(["series", "--config", both, "--out", str(tmp_path / "a")]) == 2
        assert main(
            ["series", "--config", neither, "--out", str(tmp_path / "b")]
        ) == 2
        assert "exactly one" in capsys.readouterr().err


class TestLemma:
    def test_runs_and_stays_strict_json(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {
                "schema_version": 1, "seed": 5, "P": SCALAR_P, "law": NORMAL1,
                "J": 16, "n_paths": 2000,
            },
        )
        out = tmp_path / "out"
        assert main(["lemma", "--config", cfg, "--out", str(out)]) == 0
        stats = read_report(out)["statistics"]
        assert set(stats) == {
            "late_exceedance_fraction", "exceedance_freq_at_J",
            "mean_exceedance_count", "median_log_moment",
            "infinite_log_moment_fraction",
        }
        assert (out / "lemma.npy").exists()

    def test_huge_finite_pool_exits_0(self, tmp_path):
        # 1e200 squared overflows, but every norm of the run is finite.
        cfg = write_cfg(
            tmp_path,
            {
                "schema_version": 1, "seed": 5, "P": SCALAR_P,
                "law": {"law": "empirical", "pool": [[1e200]]}, "J": 4, "n_paths": 10,
            },
        )
        out = tmp_path / "out"
        assert main(["lemma", "--config", cfg, "--out", str(out)]) == 0
        stats = read_report(out)["statistics"]
        assert stats["median_log_moment"] == pytest.approx(math.log(1e200), rel=1e-15)
        assert stats["infinite_log_moment_fraction"] == 0.0
        rows = np.load(out / "lemma.npy")
        assert len(rows) == 10
        for r in rows:
            assert float(r["final_partial_sum"]) == pytest.approx(1.9375e200, rel=1e-15)
            assert float(r["last_term_norm"]) == pytest.approx(6.25e198, rel=1e-15)

    def test_diagnostic_sampler_is_gated(self, tmp_path):
        ray = {"law": "log-cauchy-ray", "dim": 1}
        base = {
            "schema_version": 1, "seed": 5, "P": SCALAR_P, "law": ray,
            "J": 16, "n_paths": 1000,
        }
        blocked = write_cfg(tmp_path, base, "blocked.json")
        assert main(
            ["lemma", "--config", blocked, "--out", str(tmp_path / "a")]
        ) == 2
        allowed = write_cfg(
            tmp_path, {**base, "allow_diagnostic": True}, "allowed.json"
        )
        out = tmp_path / "b"
        assert main(["lemma", "--config", allowed, "--out", str(out)]) == 0
        # Overflowed log moments must surface as a fraction, never as a
        # bare Infinity inside the report.
        stats = read_report(out)["statistics"]
        assert 0.0 <= stats["infinite_log_moment_fraction"] <= 1.0

    @pytest.mark.parametrize("value", ["false", 1])
    def test_allow_diagnostic_must_be_boolean(self, tmp_path, capsys, value):
        cfg = write_cfg(
            tmp_path,
            {
                "schema_version": 1, "seed": 5, "P": SCALAR_P,
                "law": {"law": "log-cauchy-ray", "dim": 1}, "J": 16,
                "n_paths": 1000, "allow_diagnostic": value,
            },
        )
        out = tmp_path / "out"
        assert main(["lemma", "--config", cfg, "--out", str(out)]) == 2
        assert "allow_diagnostic must be true or false" in capsys.readouterr().err
        assert not (out / "lemma.npy").exists()

    def test_infinite_median_log_moment_exits_2(self, tmp_path, capsys):
        # A ray draw exp(C) overflows when the Cauchy C exceeds ln(DBL_MAX),
        # with probability p = 1/2 - atan(ln DBL_MAX)/pi = 4.48e-4, so a path
        # of J + 1 = 4001 draws holds one with probability
        # 1 - (1 - p)^4001 = 0.83.  Over 200 paths that fraction sits more
        # than 12 standard deviations above 1/2 for any seed, so the median
        # log moment has no finite value.
        cfg = write_cfg(
            tmp_path,
            {
                "schema_version": 1, "P": SCALAR_P,
                "law": {"law": "log-cauchy-ray", "dim": 1}, "J": 4000,
                "n_paths": 200, "seed": 3, "allow_diagnostic": True,
            },
        )
        out = tmp_path / "out"
        assert main(["lemma", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "median_log_moment is inf" in err and "82.5% of the 200 paths" in err
        assert not (out / "lemma.npy").exists()


class TestMedian:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 10, 4096, 4097])
    def test_bits_of_np_median(self, n):
        rng = np.random.default_rng(n)
        specials = [np.inf, -np.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308]
        cases = [rng.standard_normal(n), rng.standard_cauchy(n) * 1e300]
        for k in range(1, min(n, 4) + 1):
            for value in specials:
                a = rng.standard_normal(n)
                a[rng.choice(n, k, replace=False)] = value
                cases.append(a)
            a = rng.standard_normal(n)
            a[rng.choice(n, k, replace=False)] = rng.choice(specials, k)
            cases.append(a)
        for nan in (np.nan, -np.nan):
            a = rng.standard_normal(n)
            a[rng.integers(n)] = nan
            cases.append(a)
        cases.append(np.full(n, 1.7976931348623157e308))  # (a + b) overflows
        for a in cases:
            with np.errstate(over="ignore", invalid="ignore"):
                want = np.float64(np.median(a))
                got = cli._median(a.copy())
            assert type(got) is float
            if np.isnan(want):
                assert math.isnan(got)
            else:
                assert np.float64(got).view(np.uint64) == want.view(np.uint64), a

    def test_even_length_takes_the_mean_of_the_middle_two(self):
        assert cli._median(np.array([4.0, 1.0, 3.0, 2.0])) == 2.5
        assert math.copysign(1.0, cli._median(np.array([-0.0, -0.0]))) == 1.0
        with np.errstate(invalid="ignore"):
            assert math.isnan(cli._median(np.array([-np.inf, np.inf])))
        assert math.isnan(cli._median(np.array([1.0, np.nan, 3.0])))


class TestSimulate:
    def test_outputs(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {
                "schema_version": 1, "seed": 2, "process": CANONICAL,
                "checkpoints": [4, 8], "n_paths": 500, "trajectories": 3,
            },
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        report = read_report(out)
        assert "bu_norm_mean.n4" in report["statistics"]
        assert report["outputs"] == ["scaled.csv", "paths.csv"]
        scaled = (out / "scaled.csv").read_text().splitlines()
        assert len(scaled) == 1 + 2 * 500
        assert scaled[0].startswith("path_id,checkpoint,in_g,bu_0")
        # Trajectory i is ensemble path i: P^8 U_8 from paths.csv is its
        # B_8 U_8 row in scaled.csv.
        with open(out / "scaled.csv") as fh:
            bu = {
                int(r["path_id"]): [float(r["bu_0"]), float(r["bu_1"])]
                for r in csv.DictReader(fh) if r["checkpoint"] == "8"
            }
        with open(out / "paths.csv") as fh:
            ends = [r for r in csv.DictReader(fh) if r["step"] == "8"]
        P8 = np.linalg.matrix_power(np.array(ROTATION_HALF["rows"]), 8)
        assert [r["path_id"] for r in ends] == ["0", "1", "2"]
        for r in ends:
            u8 = [float(r["u_0"]), float(r["u_1"])]
            np.testing.assert_allclose(
                P8 @ u8, bu[int(r["path_id"])], rtol=1e-12, atol=1e-12
            )

    def test_huge_finite_pool_has_finite_norm_means(self, tmp_path):
        process = {
            "variant": "synthetic-canonical", "P": HALF_IDENTITY_2D,
            "noise": {"law": "empirical", "pool": [[1e200, 0.0], [-1e200, 1.0]]},
        }
        cfg = write_cfg(
            tmp_path,
            {"schema_version": 1, "seed": 1, "process": process,
             "checkpoints": [5, 10], "n_paths": 100},
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        stats = read_report(out)["statistics"]
        assert len(stats) == 4
        assert all(1e199 < v < 1e201 for v in stats.values())

    @pytest.mark.parametrize("command", ["simulate", "verify-stable", "conditions"])
    def test_values_past_float_range_exit_2(self, tmp_path, capsys, command):
        # Two draws of 1.5e308 sum past DBL_MAX inside Q_n U_n.
        process = {
            "variant": "synthetic-canonical", "P": HALF_IDENTITY_2D,
            "noise": {"law": "empirical", "pool": [[1.5e308, 0.0], [1.5e308, 1.0]]},
        }
        cfg = write_cfg(
            tmp_path,
            {"schema_version": 1, "seed": 1, "process": process,
             "checkpoints": [5, 10], "n_paths": 100},
        )
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert "left the float range" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize(
        "process,checkpoints,trajectories",
        [
            (CANONICAL, [4], -3),
            # P^-996 stays in range while the raw state U_996 overflows.
            ({"variant": "synthetic-canonical", "P": SCALAR_P,
              "noise": {"law": "empirical", "pool": [[1e10]]}}, [996], 2),
        ],
        ids=["negative-count", "state-overflow"],
    )
    def test_bad_trajectories_exit_2(
        self, tmp_path, capsys, process, checkpoints, trajectories
    ):
        cfg = write_cfg(
            tmp_path,
            {
                "schema_version": 1, "seed": 2, "process": process,
                "checkpoints": checkpoints, "n_paths": 10,
                "trajectories": trajectories,
            },
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert not (out / "paths.csv").exists()


class TestVerifyCommands:
    def test_mixing_passes_on_canonical(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            {
                "schema_version": 1, "seed": 21, "process": CANONICAL,
                "checkpoints": [6, 12], "n_paths": 20000,
            },
        )
        out = tmp_path / "out"
        assert main(["verify-mixing", "--config", cfg, "--out", str(out)]) == 0
        assert "[PASS] mixing" in capsys.readouterr().out
        assert (out / "ecf.csv").exists()

    def test_mixing_fails_on_unscaled_value(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            {
                "schema_version": 1, "seed": 29, "process": SCALED,
                "checkpoints": [6, 12], "n_paths": 20000, "statistic_of": "qu",
            },
        )
        out = tmp_path / "out"
        assert main(["verify-mixing", "--config", cfg, "--out", str(out)]) == 1
        assert "[FAIL] mixing" in capsys.readouterr().out
        assert read_report(out)["pass"] is False

    def test_stable_passes_on_scaled(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {
                "schema_version": 1, "seed": 29, "process": SCALED,
                "checkpoints": [6, 12], "n_paths": 20000,
            },
        )
        out = tmp_path / "out"
        assert main(["verify-stable", "--config", cfg, "--out", str(out)]) == 0
        verdicts = read_report(out)["verdicts"]
        assert len(verdicts) == 1 and verdicts[0]["condition"] == "stable"

    def test_negative_r_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            {
                "schema_version": 1, "seed": 3, "process": CANONICAL,
                "checkpoints": [6, 12], "n_paths": 2000, "r": -1,
            },
        )
        for command in ("verify-mixing", "verify-stable"):
            out = tmp_path / command
            assert main([command, "--config", cfg, "--out", str(out)]) == 2
            assert "must be nonnegative" in capsys.readouterr().err

    def test_explosive_family_choice_decides(self, tmp_path):
        spec = {"variant": "explosive-var", "A": {"dim": 1, "rows": [[2.0]]},
                "noise": NORMAL1}
        base = {
            "schema_version": 1, "seed": 55, "process": spec,
            "checkpoints": [6, 12], "n_paths": 20000,
        }
        omega = write_cfg(tmp_path, {**base, "family": "omega"}, "omega.json")
        prefix = write_cfg(tmp_path, {**base, "family": "default"}, "default.json")
        bogus = write_cfg(tmp_path, {**base, "family": "husserl"}, "bogus.json")
        assert main(
            ["verify-mixing", "--config", omega, "--out", str(tmp_path / "a")]
        ) == 0
        assert main(
            ["verify-mixing", "--config", prefix, "--out", str(tmp_path / "b")]
        ) == 1
        assert main(
            ["verify-mixing", "--config", bogus, "--out", str(tmp_path / "c")]
        ) == 2

    def test_statistic_of_validated(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {
                "schema_version": 1, "seed": 1, "process": CANONICAL,
                "checkpoints": [4], "n_paths": 2000, "statistic_of": "uq",
            },
        )
        assert main(
            ["verify-mixing", "--config", cfg, "--out", str(tmp_path / "out")]
        ) == 2


class TestVerifyEcfCsv:
    # ecf.csv comes from the verdict's own final-checkpoint sums; it must be
    # the bytes of the plain ecf of the final filtered values.  The
    # conditioning event keeps two of three atoms, so the filter matters.
    SPEC = {
        "variant": "random-scaled", "P": ROTATION_HALF, "noise": NORMAL2,
        "lam_values": [2.0, 0.5, 1.0], "lam_probs": [0.3, 0.3, 0.4],
        "event_values": [2.0, 1.0], "perturbation": 0.3,
    }

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "command, which",
        [("verify-stable", "qu"), ("verify-mixing", "bu"), ("verify-mixing", "qu")],
    )
    def test_bytes_match_plain_ecf(self, tmp_path, command, which, workers):
        cfg = {
            "schema_version": 1, "seed": 41, "workers": workers,
            "process": self.SPEC, "checkpoints": [5, 10],
            "n_paths": 4097, "delta": 0.01,
        }
        if command == "verify-mixing":
            cfg["statistic_of"] = which
        out = tmp_path / "out"
        argv = [command, "--config", write_cfg(tmp_path, cfg), "--out", str(out)]
        assert main(argv) in (0, 1)

        ens = simulate_ensemble(process_from_json(self.SPEC), [5, 10], 4097, seed=41)
        values = (ens.bu if which == "bu" else ens.qu)[10][ens.in_g]
        assert len(values) < 4097
        want = tmp_path / "want.csv"
        ecf.write_ecf_csv(want, ecf.estimate_ecf(values, ecf.default_grid(2), 0.01))
        assert (out / "ecf.csv").read_bytes() == want.read_bytes()


class TestConditions:
    def test_all_three_reported(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {
                "schema_version": 1, "seed": 3, "process": CANONICAL,
                "checkpoints": [5, 10, 20], "n_paths": 2000,
            },
        )
        out = tmp_path / "out"
        assert main(["conditions", "--config", cfg, "--out", str(out)]) == 0
        report = read_report(out)
        assert [v["condition"] for v in report["verdicts"]] == [
            "scale-limit", "stochastic-boundedness", "scaling-ratio",
        ]
        assert "scale-limit.n5" in report["statistics"]

    def test_ill_conditioned_contraction_passes(self, tmp_path):
        P = {"dim": 2, "rows": [[0.5, 0.0], [0.0, 0.9]]}
        spec = {"variant": "synthetic-canonical", "P": P, "noise": NORMAL2}
        cfg = write_cfg(
            tmp_path,
            {
                "schema_version": 1, "seed": 3, "process": spec,
                "checkpoints": [10, 60], "n_paths": 2000,
            },
        )
        out = tmp_path / "out"
        assert main(["conditions", "--config", cfg, "--out", str(out)]) == 0

    def test_wide_noise_passes_boundedness(self, tmp_path):
        # A tight spec with 38% of its paths past level 16: (ii) passes by
        # the noise law's finite log-moment and reports the exceedances.
        noise = {"law": "normal", "cov": [[100.0, 0.0], [0.0, 100.0]]}
        spec = {"variant": "synthetic-canonical", "P": HALF_IDENTITY_2D, "noise": noise}
        cfg = write_cfg(
            tmp_path,
            {
                "schema_version": 1, "seed": 3, "process": spec,
                "checkpoints": [50, 200], "n_paths": 20000,
            },
        )
        out = tmp_path / "out"
        assert main(["conditions", "--config", cfg, "--out", str(out)]) == 0
        report = read_report(out)
        assert report["verdicts"][1]["pass"]
        stats = report["statistics"]
        assert stats["stochastic-boundedness.n50"] == 7685 / 20000
        assert stats["stochastic-boundedness.n200"] == 7718 / 20000
        assert stats["stochastic-boundedness.threshold"] == 1.0

    @pytest.mark.parametrize(
        "lams, probs",
        [([1.0, 2.0], [0.5, 0.5]), ([1.0, 0.25], [0.97, 0.03])],
        ids=["even-atoms", "rare-atom"],
    )
    def test_perturbed_scale_passes_at_the_limit(self, tmp_path, lams, probs):
        process = {
            **SCALED, "lam_values": lams, "lam_probs": probs, "perturbation": 1.0,
        }
        checkpoints = [25, 50, 100, 400]
        cfg = write_cfg(
            tmp_path,
            {
                "schema_version": 1, "seed": 3, "process": process,
                "checkpoints": checkpoints, "n_paths": 2000,
            },
        )
        out = tmp_path / "out"
        assert main(["conditions", "--config", cfg, "--out", str(out)]) == 0
        verdicts = {v["condition"]: v for v in read_report(out)["verdicts"]}
        first, third = verdicts["scale-limit"], verdicts["scaling-ratio"]
        assert first["pass"] and third["pass"]
        # With d(n) = lam + 1/n, (i) is 1/n; (iii) peaks at lag 2 on the
        # smallest lam: |d(n-2)/d(n) - 1| |P^2| = 1 / (2 (n-2) (lam n + 1)).
        lam = min(lams)
        assert first["statistics"] == pytest.approx(
            [1 / n for n in checkpoints], rel=1e-12
        )
        assert first["detail"]["rate"] == pytest.approx(1.0, rel=1e-12)
        assert third["statistics"] == pytest.approx(
            [1 / (2 * (n - 2) * (lam * n + 1)) for n in checkpoints], rel=1e-9
        )
        # The smallest lam sets (iii) however few paths draw it; a 95th
        # percentile over paths would read the lam = 1 value on rare-atom.
        ens = simulate_ensemble(process_from_json(process), checkpoints, 2000, 3)
        share = np.mean(ens.spec.atom_scale[ens.atom] == lam)
        assert (share < 0.05) == (lam < 1.0)


class TestEnsembleReuse:
    # Shaped like the certify-scaled benchmark job: three process commands
    # on one request.  Condition (iii) lags up to 4, so checkpoints start at 5.
    CFG = {
        "schema_version": 1, "seed": 9, "process": SCALED,
        "checkpoints": [5, 10], "n_paths": 2000,
    }
    COMMANDS = [
        ("verify-stable", {}),
        ("verify-mixing", {"statistic_of": "qu"}),
        ("conditions", {}),
    ]

    def run(self, tmp_path, command, cfg, name):
        out = tmp_path / name
        argv = [command, "--config", write_cfg(tmp_path, cfg, f"{name}.json"),
                "--out", str(out)]
        assert main(argv) in (0, 1)
        return out

    def test_commands_share_one_simulation(self, tmp_path, calls):
        shared = [
            self.run(tmp_path, command, {**self.CFG, **extra}, f"shared{i}")
            for i, (command, extra) in enumerate(self.COMMANDS)
        ]
        assert len(calls) == 1
        for i, (command, extra) in enumerate(self.COMMANDS):
            cli._HELD.clear()
            fresh = self.run(tmp_path, command, {**self.CFG, **extra}, f"fresh{i}")
            assert read_report(shared[i])["statistics"] == (
                read_report(fresh)["statistics"]
            )
            if command != "conditions":
                ecf_csv = (shared[i] / "ecf.csv").read_bytes()
                assert ecf_csv == (fresh / "ecf.csv").read_bytes()
        assert len(calls) == 4

    @pytest.mark.parametrize(
        "change, simulations",
        [
            ({"seed": 10}, 2),
            ({"n_paths": 2001}, 2),
            ({"checkpoints": [5, 11]}, 2),
            ({"process": {**SCALED, "lam_probs": [0.25, 0.75]}}, 2),
            ({"workers": 2}, 1),  # workers never move a value
        ],
    )
    def test_only_a_changed_value_input_simulates_again(
        self, tmp_path, calls, change, simulations
    ):
        self.run(tmp_path, "conditions", self.CFG, "first")
        self.run(tmp_path, "conditions", {**self.CFG, **change}, "changed")
        assert len(calls) == simulations

    def test_command_without_process_frees_the_ensemble(self, tmp_path, calls):
        self.run(tmp_path, "conditions", self.CFG, "first")
        assert len(cli._HELD) == 1
        law = {"schema_version": 1, "seed": 1, "law": NORMAL1, "count": 100}
        self.run(tmp_path, "sample-law", law, "law")
        assert cli._HELD == []
        self.run(tmp_path, "conditions", self.CFG, "again")
        assert len(calls) == 2


class TestConfigValidation:
    def base(self):
        return {"schema_version": 1, "seed": 1, "law": NORMAL1, "count": 100}

    def test_unknown_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {**self.base(), "bogus": 1})
        assert main(
            ["sample-law", "--config", cfg, "--out", str(tmp_path / "out")]
        ) == 2
        assert "bogus" in capsys.readouterr().err

    def test_malformed_process_object(self, tmp_path, capsys):
        # A process entry missing a required field is a usage error (2),
        # reported cleanly rather than escaping as a KeyError.
        cfg = write_cfg(
            tmp_path,
            {
                "schema_version": 1,
                "seed": 1,
                "process": {"variant": "synthetic-canonical", "P": SCALAR_P},
                "checkpoints": [4],
                "n_paths": 50,
            },
        )
        assert main(
            ["simulate", "--config", cfg, "--out", str(tmp_path / "out")]
        ) == 2
        assert "requires key 'noise'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, entries",
        [
            ("sample-law", {"law": {"law": "normal", "cov": SCALAR_P}}),
            ("sample-law", {"law": {"law": "stable", "alpha": {"a": 1},
                                    "atoms": [[1.0]], "weights": [1.0]}}),
            ("sample-law", {"law": {"law": "cauchy", "dim": "two"}}),
            ("series", {"P": {"dim": 1, "rows": "abc"}, "r": 3}),
            ("simulate", {"process": {
                "variant": "random-scaled", "P": SCALAR_P, "noise": NORMAL1,
                "lam_values": [1.0, 2.0], "lam_probs": [0.5, 0.5],
                "perturbation": "x",
            }, "checkpoints": [4], "n_paths": 50}),
            ("sample-law", {"count": "ten"}),
            ("sample-law", {"law": {"law": ["normal"], "cov": [[1.0]]}}),
        ],
        ids=["cov-as-matrix", "alpha-object", "cauchy-dim", "P-rows",
             "perturbation", "count", "law-tag-list"],
    )
    def test_malformed_values_exit_2(self, tmp_path, capsys, command, entries):
        obj = {**self.base(), **entries}
        if command == "simulate":
            del obj["law"], obj["count"]
        cfg = write_cfg(tmp_path, obj)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "error:" in capsys.readouterr().err

    def config(self, command, entries):
        """A small valid config for ``command``, updated with ``entries``."""
        body = {
            "sample-law": {"law": NORMAL1, "count": 100},
            "series": {"P": SCALAR_P, "law": NORMAL1, "count": 100, "r": 3},
            "lemma": {"P": SCALAR_P, "law": NORMAL1, "J": 16, "n_paths": 100},
            "conditions": {
                "process": CANONICAL, "checkpoints": [5, 10], "n_paths": 2000,
            },
        }.get(command, {"process": CANONICAL, "checkpoints": [4, 8], "n_paths": 2000})
        return {"schema_version": 1, "seed": 1, **body, **entries}

    @pytest.mark.parametrize(
        "command, entries",
        [
            ("sample-law", {"count": 2000.7}),
            ("sample-law", {"count": True}),
            ("sample-law", {"workers": 1.5}),
            ("sample-law", {"law": {"law": "cauchy", "dim": 1.5}}),
            ("series", {"r": 3.9}),
            ("series", {"P": {"dim": 1.5, "rows": [[0.5]]}}),
            ("lemma", {"J": 16.5}),
            ("lemma", {"n_paths": 100.5}),
            ("lemma", {"law": {"law": "log-cauchy-ray", "dim": 1.5},
                       "allow_diagnostic": True}),
            ("simulate", {"checkpoints": [2.5, 4]}),
            ("simulate", {"checkpoints": [True, 4]}),
            ("simulate", {"n_paths": 10.5}),
            ("simulate", {"trajectories": 2.5}),
            ("verify-stable", {"r": 4.5}),
        ],
        ids=["count-fraction", "count-bool", "workers", "cauchy-dim", "series-r",
             "matrix-dim", "J", "lemma-n_paths", "ray-dim", "checkpoints",
             "checkpoints-bool", "simulate-n_paths", "trajectories", "verify-r"],
    )
    def test_integer_keys_must_be_integral(self, tmp_path, capsys, command, entries):
        cfg = write_cfg(tmp_path, self.config(command, entries))
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert "malformed" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize(
        "command, entries",
        [
            ("sample-law", {"factor": True}),
            ("series", {"tol": True, "r": None}),
            ("sample-law", {"delta": True}),
            ("sample-law", {"law": {"law": "stable", "alpha": True,
                                    "atoms": [[1.0]], "weights": [1.0]}}),
            ("simulate", {"process": {**SCALED_ONE, "perturbation": True}}),
            ("simulate", {"process": {**SCALED_ONE, "lam_values": [True]}}),
            ("simulate", {"process": {**SCALED_ONE, "lam_probs": [True]}}),
            ("sample-law", {"law": {"law": "normal", "cov": [[True]]}}),
            ("series", {"P": {"dim": 2, "rows": [[0.5, False], [False, 0.5]]},
                        "law": NORMAL2}),
            ("sample-law", {"law": {"law": "stable", "alpha": 1.5,
                                    "atoms": [[True]], "weights": [1.0]}}),
            ("sample-law", {"law": {"law": "stable", "alpha": 1.5,
                                    "atoms": [[1.0]], "weights": [True]}}),
            ("sample-law", {"law": {"law": "empirical", "pool": [[True]]}}),
        ],
        ids=["factor", "tol", "delta", "alpha", "perturbation", "lam_values",
             "lam_probs", "cov", "rows", "atoms", "weights", "pool"],
    )
    def test_booleans_are_not_numbers(self, tmp_path, capsys, command, entries):
        # JSON true is not 1.0: each of these ran at the value 1 before.  An
        # entry of None drops that key of the base config.
        obj = self.config(command, entries)
        obj = {key: value for key, value in obj.items() if value is not None}
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, obj)
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert "malformed" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_boolean_matrix_entry_names_its_key_path(self, tmp_path, capsys):
        law = {"law": "normal", "cov": [[True, 0], [0, 1]]}
        cfg = write_cfg(tmp_path, self.config("sample-law", {"law": law}))
        out = tmp_path / "out"
        assert main(["sample-law", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "key 'law': law 'normal' key 'cov'" in err and "malformed" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, key, value, as_float",
        [("sample-law", "count", 100, 1e2),
         ("simulate", "checkpoints", [4, 8], [4.0, 8.0])],
    )
    def test_integral_floats_are_integers(
        self, tmp_path, command, key, value, as_float
    ):
        # JSON may write an integer as 1e2 or 4.0; it reads as that integer.
        stats = []
        for name, v in (("int", value), ("float", as_float)):
            cfg = write_cfg(tmp_path, self.config(command, {key: v}), f"{name}.json")
            out = tmp_path / name
            assert main([command, "--config", cfg, "--out", str(out)]) in (0, 1)
            stats.append(read_report(out)["statistics"])
        assert stats[0] == stats[1]

    @pytest.mark.parametrize(
        "command, entries, key",
        [
            ("sample-law", {"grid_directions": 10}, "grid_directions"),
            ("series", {"grid_radii": [1.0]}, "grid_radii"),
            ("verify-mixing", {"min_paths": 100}, "min_paths"),
            ("verify-stable", {"grid_directions": 10}, "grid_directions"),
            ("conditions", {"lags": [1, 2]}, "lags"),
            ("conditions", {"levels": [2, 4, 8, 16]}, "levels"),
            ("conditions", {"bound": 0.05}, "bound"),
            ("sample-law", {"law": {"law": "empirical", "pool": [[1.0]],
                                    "csv": "pool.csv"}}, "csv"),
            ("simulate", {"process": {**CANONICAL, "lam_values": [1.0, 2.0]}},
             "lam_values"),
            ("simulate", {"process": {**CANONICAL, "P": {**ROTATION_HALF, "cols": 7}}},
             "cols"),
            ("simulate", {"process": {
                "variant": "discrete-factor", "P": ROTATION_HALF, "noise": NORMAL2,
                "factors": [{"dim": 2, "rows": [[1.0, 0.0], [0.0, 1.0]], "junk": 1}],
                "factor_probs": [1.0],
            }}, "junk"),
            ("verify-stable", {"process": {
                "variant": "explosive-var", "noise": NORMAL2, "perturbation": 0.0,
                "A": {"dim": 2, "rows": [[2.0, 1.0], [0.0, 2.0]]},
            }}, "perturbation"),
        ],
        ids=["sample-law-grid", "series-grid", "min-paths", "stable-grid", "lags",
             "conditions-levels", "conditions-bound",
             "law-csv", "canonical-lam_values", "matrix-cols", "factor-junk",
             "explosive-perturbation"],
    )
    def test_removed_keys_exit_2(self, tmp_path, capsys, command, entries, key):
        cfg = write_cfg(tmp_path, self.config(command, entries))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "unknown" in err and key in err

    @pytest.mark.parametrize(
        "command, entries",
        [
            ("sample-law", {"factor": math.nan}),
            ("sample-law", {"factor": math.inf}),
            ("series", {"P": SCALAR_P, "r": 3, "factor": math.nan}),
            ("verify-stable", {"factor": math.nan}),
            ("conditions", {"tol": math.inf}),
        ],
        ids=["sample-law-nan", "sample-law-inf", "series-nan", "stable-nan",
             "conditions-tol"],
    )
    def test_non_finite_numbers_exit_2(self, tmp_path, capsys, command, entries):
        # json.dumps writes NaN and Infinity tokens, which json.load accepts.
        obj = {**self.base(), **entries}
        if command in ("verify-stable", "conditions"):
            del obj["law"], obj["count"]
            obj.update(process=CANONICAL, checkpoints=[4, 8], n_paths=2000)
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, obj)
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert "non-finite" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_overflowing_literal_exits_2(self, tmp_path, capsys):
        # 1e999 parses to inf, so it is as non-finite as Infinity.
        text = json.dumps(self.base())[:-1] + ', "factor": 1e999}'
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["sample-law", "--config", str(cfg), "--out", str(out)]) == 2
        assert "1e999" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sample-law", "verify-stable"])
    @pytest.mark.parametrize("factor", [-2.0, 0.0])
    def test_non_positive_factor_exits_2(self, tmp_path, capsys, command, factor):
        obj = {**self.base(), "factor": factor}
        if command == "verify-stable":
            del obj["law"], obj["count"]
            obj.update(process=CANONICAL, checkpoints=[4, 8], n_paths=2000)
        cfg = write_cfg(tmp_path, obj)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "factor must be positive" in capsys.readouterr().err

    def test_failed_dump_leaves_no_report(self, tmp_path, monkeypatch):
        # A non-finite statistic is a bug that must fail loudly, and must
        # not leave a truncated report behind.
        monkeypatch.setitem(
            cli._RUNNERS, "sample-law",
            lambda cfg, outdir, workers: ({"x": math.nan}, [], {}, [], True),
        )
        out = tmp_path / "out"
        with pytest.raises(ValueError):
            cli.run_command("sample-law", self.base(), str(out))
        assert not (out / "report.json").exists()

    def test_missing_seed(self, tmp_path):
        obj = self.base()
        del obj["seed"]
        cfg = write_cfg(tmp_path, obj)
        assert main(
            ["sample-law", "--config", cfg, "--out", str(tmp_path / "out")]
        ) == 2

    def test_bool_seed_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, {**self.base(), "seed": True})
        assert main(
            ["sample-law", "--config", cfg, "--out", str(tmp_path / "out")]
        ) == 2

    def test_schema_version_required(self, tmp_path):
        obj = self.base()
        del obj["schema_version"]
        missing = write_cfg(tmp_path, obj, "missing.json")
        wrong = write_cfg(
            tmp_path, {**self.base(), "schema_version": 2}, "wrong.json"
        )
        assert main(
            ["sample-law", "--config", missing, "--out", str(tmp_path / "a")]
        ) == 2
        assert main(
            ["sample-law", "--config", wrong, "--out", str(tmp_path / "b")]
        ) == 2

    def test_config_file_problems(self, tmp_path):
        assert main(
            ["sample-law", "--config", str(tmp_path / "absent.json"),
             "--out", str(tmp_path / "a")]
        ) == 2
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        assert main(
            ["sample-law", "--config", str(broken), "--out", str(tmp_path / "b")]
        ) == 2
        listroot = tmp_path / "list.json"
        listroot.write_text("[1, 2]")
        assert main(
            ["sample-law", "--config", str(listroot), "--out", str(tmp_path / "c")]
        ) == 2

    def test_config_flag_required(self, tmp_path, capsys):
        assert main(["sample-law", "--out", str(tmp_path / "out")]) == 2
        assert "--config" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sample-law", "replay"])
    @pytest.mark.parametrize("under_file", ["", "sub"])
    def test_unusable_out_exits_2(self, tmp_path, capsys, command, under_file):
        # An --out that is a file, or lies under one, is a config error.
        cfg = write_cfg(tmp_path, self.base())
        taken = tmp_path / "taken"
        taken.write_text("")
        out = str(taken / under_file) if under_file else str(taken)
        if command == "replay":
            run = ["sample-law", "--config", cfg, "--out", str(tmp_path / "run")]
            assert main(run) == 0
            argv = ["replay", str(tmp_path / "run" / "report.json"), "--out", out]
        else:
            argv = ["sample-law", "--config", cfg, "--out", out]
        capsys.readouterr()
        assert main(argv) == 2
        assert f"cannot use output directory {out!r}" in capsys.readouterr().err

    def test_conditions_checkpoint_at_largest_lag_exits_2_before_simulating(
        self, tmp_path, capsys, calls
    ):
        # Condition (iii) looks back 4 steps, so checkpoint 4 is refused by
        # the reader: no simulation runs and no output directory is made.
        cfg = write_cfg(tmp_path, self.config("conditions", {"checkpoints": [4, 100]}))
        out = tmp_path / "out"
        assert main(["conditions", "--config", cfg, "--out", str(out)]) == 2
        assert "'checkpoints' is malformed" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, entries, named",
        [
            ("verify-stable", {"delta": 2}, "'delta'"),
            ("verify-mixing", {"delta": 0}, "'delta'"),
            ("sample-law", {"delta": 1.0}, "'delta'"),
            ("series", {"delta": -0.5}, "'delta'"),
            ("series", {"tol": 0.01}, "exactly one"),
            ("series", {"r": None}, "exactly one"),
            ("series", {"tol": 0.0, "r": None}, "'tol'"),
            ("series", {"tol": -1.0, "r": None}, "'tol'"),
            ("lemma", {"law": {"law": "log-cauchy-ray"}}, "allow_diagnostic"),
            ("conditions", {"tol": -1}, "'tol'"),
            ("simulate", {"process": VANISHING}, "vanishes for atom 0"),
            ("verify-stable", {"process": VANISHING}, "vanishes for atom 0"),
            ("verify-mixing", {"process": VANISHING}, "vanishes for atom 0"),
            ("conditions", {"process": VANISHING}, "vanishes for atom 0"),
            ("sample-law", {"seed": 2**64}, "'seed'"),
            ("simulate", {"seed": 2**64}, "'seed'"),
        ],
        ids=["stable-delta", "mixing-delta", "sample-law-delta", "series-delta",
             "tol-and-r", "neither", "tol-zero", "tol-negative", "ray-not-allowed",
             "conditions-tol-negative",
             "simulate-vanishing-divisor", "stable-vanishing-divisor",
             "mixing-vanishing-divisor", "conditions-vanishing-divisor",
             "sample-law-seed-2-64", "simulate-seed-2-64"],
    )
    def test_config_errors_exit_2_before_any_work(
        self, tmp_path, capsys, calls, command, entries, named
    ):
        # Every rule on the config is read before the output directory is
        # made, an ensemble simulated or a law drawn.  An entry of None
        # drops that key of the base config.
        obj = {k: v for k, v in self.config(command, entries).items() if v is not None}
        cfg = write_cfg(tmp_path, obj)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert calls == []
        assert not out.exists()


class TestReplay:
    def run_once(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {
                "schema_version": 1, "seed": 11, "P": SCALAR_P, "law": NORMAL1,
                "count": 20000, "tol": 2.0**-10,
            },
        )
        out = tmp_path / "run"
        assert main(["series", "--config", cfg, "--out", str(out)]) == 0
        return out / "report.json"

    def test_replay_is_bitwise(self, tmp_path, capsys):
        report = self.run_once(tmp_path)
        assert main(["replay", str(report)]) == 0
        assert "replay ok" in capsys.readouterr().out
        # Default output location sits next to the original report.
        assert (tmp_path / "run" / "replay" / "report.json").exists()

    def test_replay_with_more_workers_is_bitwise(self, tmp_path):
        report = self.run_once(tmp_path)
        assert main(
            ["replay", str(report), "--workers", "8",
             "--out", str(tmp_path / "r8")]
        ) == 0

    def test_changed_seed_is_detected(self, tmp_path, capsys):
        report = self.run_once(tmp_path)
        code = main(
            ["replay", str(report), "--seed", "12", "--out", str(tmp_path / "r")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "diverged" in err and "ecf_distance" in err

    def test_changed_seed_names_every_diverging_statistic(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            {
                "schema_version": 1, "seed": 5, "process": SCALED,
                "checkpoints": [4, 8, 12], "n_paths": 2000,
            },
        )
        out = tmp_path / "run"
        main(["verify-stable", "--config", cfg, "--out", str(out)])
        stored = read_report(out)["statistics"]
        capsys.readouterr()
        code = main(
            ["replay", str(out / "report.json"), "--seed", "6",
             "--out", str(tmp_path / "r")]
        )
        assert code == 1
        err = capsys.readouterr().err
        fresh = read_report(tmp_path / "r")["statistics"]
        for n in (4, 8, 12):
            key = f"stable.n{n}"
            a, b = stored[key], fresh[key]
            assert a != b
            assert (
                f"{key!r}: stored {a!r}, replayed {b!r}, "
                f"relative delta {abs(b - a) / abs(a):.3g}"
            ) in err
        assert "3 of 4 statistics diverged" in err

    def test_in_process_replay_simulates_again(self, tmp_path, capsys, calls):
        cfg = write_cfg(
            tmp_path,
            {
                "schema_version": 1, "seed": 5, "process": SCALED,
                "checkpoints": [4, 8], "n_paths": 2000,
            },
        )
        out = tmp_path / "run"
        assert main(["verify-stable", "--config", cfg, "--out", str(out)]) == 0
        assert main(["replay", str(out / "report.json")]) == 0
        assert len(calls) == 2
        assert "replay ok" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "field, value, named",
        [
            ("config", 5, "'config'"),
            ("command", ["x"], "'command'"),
            ("statistics", {"ecf_distance": "abc"}, "'ecf_distance'"),
            ("statistics", {"ecf_distance": math.nan}, "NaN is a non-finite"),
        ],
    )
    def test_malformed_report_exits_2(self, tmp_path, capsys, field, value, named):
        report = {
            "command": "sample-law",
            "config": {"schema_version": 1, "seed": 1, "law": NORMAL1, "count": 100},
            "statistics": {"ecf_distance": 0.1},
            field: value,
        }
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        assert main(["replay", str(path), "--out", str(tmp_path / "r")]) == 2
        assert named in capsys.readouterr().err

    def test_rejects_non_reports(self, tmp_path):
        assert main(["replay", str(tmp_path / "absent.json")]) == 2
        stub = tmp_path / "stub.json"
        stub.write_text(json.dumps({"foo": 1}))
        assert main(["replay", str(stub)]) == 2


# Run in a fresh interpreter, since pytest has loaded scipy already.
_IMPORT_PROBE = """
import sys
from stablemix import cli
module, out, *runs = sys.argv[1:]
for command, path in zip(runs[::2], runs[1::2]):
    assert cli.main([command, "--config", path, "--out", out]) in (0, 1), command
    assert module not in sys.modules, command
"""

_PROBE_CONFIGS = {
    "sample-law": {"schema_version": 1, "seed": 1, "law": {"law": "cauchy", "dim": 2},
                   "count": 2000},
    "lemma": {"schema_version": 1, "seed": 1, "P": ROTATION_HALF,
              "law": {"law": "stable", "alpha": 1.5,
                      "atoms": [[1.0, 0.0], [0.0, 1.0]], "weights": [0.5, 0.5]},
              "J": 8, "n_paths": 200},
    "verify-stable": {"schema_version": 1, "seed": 1, "process": CANONICAL,
                      "checkpoints": [4, 8], "n_paths": 2000},
}


_OUTPUT_CONFIGS = {
    **_PROBE_CONFIGS,
    "series": {"schema_version": 1, "seed": 1, "P": ROTATION_HALF, "law": NORMAL2,
               "count": 2000, "r": 8},
    "simulate": {"schema_version": 1, "seed": 1, "process": CANONICAL,
                 "checkpoints": [4, 8], "n_paths": 500, "trajectories": 2},
    "verify-mixing": _PROBE_CONFIGS["verify-stable"],
    "conditions": {**_PROBE_CONFIGS["verify-stable"], "checkpoints": [5, 10]},
}


@pytest.mark.parametrize("command", sorted(_OUTPUT_CONFIGS))
def test_outputs_name_the_files_written(tmp_path, command):
    cfg = write_cfg(tmp_path, _OUTPUT_CONFIGS[command])
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    outputs = read_report(out)["outputs"]
    assert len(set(outputs)) == len(outputs)
    assert sorted(p.name for p in out.iterdir()) == sorted(outputs + ["report.json"])


def _probe_imports(tmp_path, module, commands):
    """Run ``commands`` in order in one fresh interpreter and assert after
    each that ``module`` was never imported."""
    runs = []
    for command in commands:
        cfg = _PROBE_CONFIGS[command]
        runs += [command, write_cfg(tmp_path, cfg, f"{command}.json")]
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, module, str(tmp_path / "out"), *runs],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]


def test_no_command_loads_scipy(tmp_path):
    _probe_imports(tmp_path, "scipy", ["sample-law", "lemma", "verify-stable"])


def test_grid_commands_do_not_load_numpy_ma(tmp_path):
    # np.unique(axis=0) in the grid, or np.median in the lemma, would import
    # numpy.ma, about 9 ms.
    _probe_imports(tmp_path, "numpy.ma", ["sample-law", "verify-stable", "lemma"])


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            main([])
