import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import modalstab
from modalstab.cli import (EXIT_BAD_INPUT, EXIT_GAINS_NOT_VALIDATED, EXIT_OK,
                           EXIT_VERIFY_FAILED, ConfigError, RunConfig,
                           cmd_simulate, cmd_spectrum, cmd_synthesize,
                           cmd_verify, main, parse_config,
                           serialize_config)

DISK_CFG = """
# benchmark disk configuration
domain.shape = disk
domain.radius = 2
lambda = 6.61
gammas = auto
n_sim = 300
dt = 0.05
horizon = 4
grid = 50
seed = 1
mode = closed_loop
"""


def make_cfg(tmp_path, text=DISK_CFG, **overrides):
    cfg = parse_config(text)
    cfg.output_dir = str(tmp_path / "out")
    for key, value in overrides.items():
        setattr(cfg, key, value)
    cfg.validate()
    return cfg


class TestConfig:
    def test_round_trip_identity(self):
        cfg = parse_config(DISK_CFG)
        again = parse_config(serialize_config(cfg))
        assert again == cfg

    def test_round_trip_with_explicit_gammas(self):
        cfg = parse_config(DISK_CFG.replace("auto", "6.17,7.17,8.17,9.17,10.17"))
        again = parse_config(serialize_config(cfg))
        assert again == cfg

    def test_defaults_match_benchmark(self):
        cfg = RunConfig()
        assert cfg.radius == 2.0 and cfg.lam == 6.61
        assert cfg.n_sim == 300 and cfg.dt == 0.05 and cfg.horizon == 4.0
        assert cfg.grid == 50
        assert cfg.resolved_gammas() == (6.17, 7.17, 8.17, 9.17, 10.17)
        ball = RunConfig(shape="ball")
        assert ball.resolved_gammas() == (5.147, 6.147, 7.147, 8.147)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("unknown.key = 1\n")

    def test_invalid_field_named_in_error(self):
        with pytest.raises(ConfigError) as err:
            parse_config("dt = -0.5\n")
        assert "dt" in str(err.value)

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("\n# comment\nseed = 9  # trailing\n")
        assert cfg.seed == 9


class TestSpectrumCommand:
    def test_disk_default(self, tmp_path):
        cfg = make_cfg(tmp_path, n_sim=50)
        assert cmd_spectrum(cfg) == EXIT_OK
        summary = json.loads(
            (tmp_path / "out" / "spectrum_summary.json").read_text())
        assert summary["N"] == 5
        assert "benchmark_reference" in summary
        table = (tmp_path / "out" / "mode_table.csv").read_text().splitlines()
        assert len(table) == 51

    def test_ball_default(self, tmp_path):
        cfg = make_cfg(tmp_path, shape="ball", gammas="auto", n_sim=50)
        assert cmd_spectrum(cfg) == EXIT_OK
        summary = json.loads(
            (tmp_path / "out" / "spectrum_summary.json").read_text())
        assert summary["N"] == 4

    def test_lambda_zero(self, tmp_path):
        cfg = make_cfg(tmp_path, lam=0.0, n_sim=20)
        assert cmd_spectrum(cfg) == EXIT_OK
        summary = json.loads(
            (tmp_path / "out" / "spectrum_summary.json").read_text())
        assert summary["N"] == 0


class TestSynthesizeCommand:
    def test_benchmark_gains_not_validated(self, tmp_path):
        cfg = make_cfg(tmp_path, gammas=(6.17, 7.17, 8.17, 9.17, 10.17))
        assert cmd_synthesize(cfg) == EXIT_GAINS_NOT_VALIDATED
        payload = json.loads((tmp_path / "out" / "gains.json").read_text())
        assert float(payload["margin_direct"]) > 0.0
        assert float(payload["margin_reduced_s"]) < 0.0
        assert payload["suggested_gammas"] == [12.34, 14.34, 16.34, 18.34,
                                               20.34]

    def test_auto_gains_validated(self, tmp_path):
        cfg = make_cfg(tmp_path)     # gammas = auto
        assert cmd_synthesize(cfg) == EXIT_OK
        payload = json.loads((tmp_path / "out" / "gains.json").read_text())
        assert [float(g) for g in payload["gammas"]] == [12.34, 14.34, 16.34,
                                                         18.34, 20.34]
        assert payload["hurwitz_direct"] is True

    def test_gamma_collision_nudged_and_logged(self, tmp_path, capsys):
        # a shift equal to mu_1 is nudged by +1e-6 and logged; the tiny gap
        # then inflates cond(sum B_i) past the synthesis cap, so the
        # conditioning advisory (exit 4) is the expected composite outcome
        from modalstab.cli import EXIT_SYNTHESIS_FAILURE
        mu1 = 5.1642035092633039
        cfg = make_cfg(tmp_path, gammas=(mu1, 7.17, 8.17, 9.17, 10.17))
        code = cmd_synthesize(cfg)
        err = capsys.readouterr().err
        assert "nudged" in err
        assert code in (EXIT_OK, EXIT_GAINS_NOT_VALIDATED,
                        EXIT_SYNTHESIS_FAILURE)
        if code == EXIT_SYNTHESIS_FAILURE:
            assert "gammas" in err


class TestSimulateCommand:
    def test_closed_loop_decays(self, tmp_path):
        cfg = make_cfg(tmp_path)
        assert cmd_simulate(cfg) == EXIT_OK
        out = tmp_path / "out"
        summary = json.loads((out / "run_summary.json").read_text())
        assert summary["diverged"] is False
        assert summary["gains"]["gains_source"] == "auto_scaled"
        norms = np.genfromtxt(out / "norm_series.csv", delimiter=",",
                              names=True)
        assert norms["h2_surrogate"][-1] < 0.05 * norms["h2_surrogate"][0]
        assert norms["linf"][-1] < 0.05 * norms["linf"][0]
        traj = (out / "trajectory.csv").read_text().splitlines()
        assert len(traj) == 82
        assert (out / "snapshots.bin").stat().st_size == 16 + 81 * 300 * 8

    def test_open_loop_diverges(self, tmp_path):
        cfg = make_cfg(tmp_path, mode="open_loop")
        assert cmd_simulate(cfg) == EXIT_OK
        summary = json.loads(
            (tmp_path / "out" / "run_summary.json").read_text())
        assert summary["diverged"] is True

    def test_deterministic_outputs(self, tmp_path):
        cfg_a = make_cfg(tmp_path / "a")
        cfg_b = make_cfg(tmp_path / "b")
        assert cmd_simulate(cfg_a) == EXIT_OK
        assert cmd_simulate(cfg_b) == EXIT_OK
        for name in ("trajectory.csv", "norm_series.csv", "snapshots.bin"):
            a = (tmp_path / "a" / "out" / name).read_bytes()
            b = (tmp_path / "b" / "out" / name).read_bytes()
            assert a == b, name

    def test_matches_direct_library_calls(self, tmp_path, disk, disk_modes,
                                          disk_gains, disk_system):
        # the CLI is a thin shell over the library
        from modalstab.simulator import (PolynomialSpec, integrate,
                                         project_initial_condition)
        cfg = make_cfg(tmp_path, seed=3)
        assert cmd_simulate(cfg) == EXIT_OK
        modes, _ = disk_modes
        u0 = project_initial_condition(disk, modes, PolynomialSpec(), seed=3)
        traj = integrate(disk_system, u0, 0.05, 4.0)
        rows = np.genfromtxt(tmp_path / "out" / "trajectory.csv",
                             delimiter=",", names=True)
        assert np.array_equal(rows["u_1"], traj.states[:, 0])
        assert np.array_equal(rows["v_coeff_1"], traj.boundary_data[:, 0])


class TestVerifyCommand:
    def test_open_loop_fails_with_enumerated_metrics(self, tmp_path, capsys):
        cfg = make_cfg(tmp_path, mode="open_loop")
        assert cmd_verify(cfg) == EXIT_VERIFY_FAILED
        captured = capsys.readouterr()
        assert "failing metrics" in captured.err
        payload = json.loads(
            (tmp_path / "out" / "claims_report.json").read_text())
        assert payload["all_pass"] is False

    def test_zero_state_degenerate_pass(self):
        from modalstab.basis import Domain, enumerate_modes
        from modalstab.diagnostics import (GridEvaluator, compute_norm_series,
                                           verify_claims)
        from modalstab.simulator import open_loop
        domain = Domain("disk", 2.0)
        modes, _ = enumerate_modes(domain, 6.61, 50)
        traj = open_loop(modes, np.zeros(50), 0.05, 4.0)
        report = verify_claims(compute_norm_series(
            traj, None, modes, GridEvaluator(modes, domain, 20)))
        assert report["all_pass"]

    def test_closed_loop_report_sections(self, tmp_path):
        cfg = make_cfg(tmp_path)
        code = cmd_verify(cfg)
        payload = json.loads(
            (tmp_path / "out" / "claims_report.json").read_text())
        assert payload["commutation_max_deviation"] < 1e-10
        assert payload["reduced_fit"]["preferred_generator"] == "direct"
        assert payload["reduced_fit"]["dist_direct"] < \
            payload["reduced_fit"]["dist_minus_s"]
        # the envelope flags fail for curvature-carrying series, so the
        # exit code reports verification failure while rates stay positive
        metrics = {m["metric"]: m for m in payload["metrics"]}
        assert all(m["sigma_hat"] > 0 for m in payload["metrics"])
        assert code == (EXIT_OK if payload["all_pass"]
                        else EXIT_VERIFY_FAILED)


class TestMain:
    def test_bad_config_path(self, capsys):
        assert main(["spectrum", "--config", "/nonexistent.cfg"]) == \
            EXIT_BAD_INPUT

    def test_bad_field_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("dt = 0\n")
        assert main(["spectrum", "--config", str(path)]) == EXIT_BAD_INPUT
        assert "dt" in capsys.readouterr().err

    def test_flag_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(DISK_CFG + "n_sim = 40\n")
        out = tmp_path / "cli_out"
        assert main(["spectrum", "--config", str(path),
                     "--output", str(out)]) == EXIT_OK
        assert (out / "spectrum_summary.json").exists()

    def test_verify_runs_without_scipy(self, tmp_path):
        # the runtime is numpy-only: a fresh import plus a small verify
        # leaves no scipy module loaded
        src = str(Path(modalstab.__file__).resolve().parents[1])
        cfg = tmp_path / "run.cfg"
        cfg.write_text(DISK_CFG.replace("n_sim = 300", "n_sim = 40")
                       .replace("grid = 50", "grid = 12"))
        probe = ("import sys; sys.path.insert(0, sys.argv[1]); "
                 "import modalstab, modalstab.cli; "
                 "code = modalstab.cli.main(['verify', '--config', sys.argv[2],"
                 " '--output', sys.argv[3]]); "
                 "print(code, sorted(m for m in sys.modules "
                 "if m.split('.')[0] == 'scipy'))")
        out = subprocess.run(
            [sys.executable, "-c", probe, src, str(cfg), str(tmp_path / "o")],
            capture_output=True, text=True, check=True).stdout.splitlines()
        code, loaded = out[-1].split(" ", 1)
        assert code in (str(EXIT_OK), str(EXIT_VERIFY_FAILED))
        assert (tmp_path / "o" / "claims_report.json").exists()
        assert loaded == "[]"

    def test_thread_cap_applied_on_import(self):
        # BLAS reads its thread variables when numpy loads, so the cap must
        # be set by the package import itself; an explicit setting wins
        src = str(Path(modalstab.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items()
               if not k.endswith("_NUM_THREADS")}
        env["MODALSTAB_THREADS"] = "1"
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        probe = ("import os, modalstab; "
                 "print(os.environ['OPENBLAS_NUM_THREADS'], "
                 "os.environ['OMP_NUM_THREADS'])")
        run = lambda extra: subprocess.run(
            [sys.executable, "-c", probe], env={**env, **extra},
            capture_output=True, text=True, check=True).stdout.split()
        assert run({}) == ["1", "1"]
        assert run({"OPENBLAS_NUM_THREADS": "2"}) == ["2", "1"]
