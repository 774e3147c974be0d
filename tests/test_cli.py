import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import modalstab
from modalstab.cli import (EXIT_BAD_INPUT, EXIT_GAINS_NOT_VALIDATED, EXIT_OK,
                           EXIT_SYNTHESIS_FAILURE, EXIT_VERIFY_FAILED,
                           ConfigError, RunConfig,
                           cmd_simulate, cmd_spectrum, cmd_synthesize,
                           cmd_verify, main, parse_config)

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
        path = tmp_path / "run.cfg"
        path.write_text(
            DISK_CFG.replace("auto", f"{mu1!r},7.17,8.17,9.17,10.17")
            + f"output_dir = {tmp_path / 'out'}\n")
        code = main(["synthesize", "--config", str(path)])
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

    @pytest.mark.parametrize("shape, grid", [("disk", 50), ("ball", 12)])
    def test_deterministic_outputs(self, tmp_path, shape, grid):
        text = DISK_CFG.replace("domain.shape = disk",
                                f"domain.shape = {shape}")
        cfg_a = make_cfg(tmp_path / "a", text, grid=grid)
        cfg_b = make_cfg(tmp_path / "b", text, grid=grid)
        for cfg in (cfg_a, cfg_b):
            assert cmd_simulate(cfg) == EXIT_OK
            assert cmd_verify(cfg) in (EXIT_OK, EXIT_VERIFY_FAILED)
        for name in ("trajectory.csv", "norm_series.csv", "snapshots.bin",
                     "claims_report.json"):
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

    @pytest.mark.parametrize("key, value", [
        ("domain.radius", "inf"), ("domain.radius", "nan"),
        ("lambda", "nan"), ("lambda", "inf"), ("dt", "nan"), ("dt", "inf"),
        ("horizon", "nan"), ("horizon", "inf"), ("target_margin", "nan"),
        ("target_margin", "-inf"), ("gammas", "6.17,7.17,nan,9.17,10.17"),
        ("gammas", "6.17,7.17,8.17,9.17,inf")])
    def test_non_finite_value_is_bad_input(self, tmp_path, capsys, key,
                                           value):
        # rejected by name before any run starts, not read as a failed
        # claim check or a synthesis failure
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = {value}\nn_sim = 40\n")
        out = tmp_path / "o"
        assert main(["verify", "--config", str(path),
                     "--output", str(out)]) == EXIT_BAD_INPUT
        assert capsys.readouterr().err.startswith(f"bad input: {key} must ")
        assert not out.exists()

    def test_capacity_error_is_bad_input(self, tmp_path, capsys):
        # the disk needs Bessel orders above the supported cap past 946
        path = tmp_path / "run.cfg"
        path.write_text(DISK_CFG + "n_sim = 947\n")
        assert main(["spectrum", "--config", str(path),
                     "--output", str(tmp_path / "o")]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.startswith("bad input: ") and "n_sim=947" in err

    @pytest.mark.parametrize(
        "command, gammas",
        [pytest.param(command, gammas,
                      id=command + ("-auto" if gammas == "auto" else ""))
         for gammas in ("default", "auto")
         for command in ("synthesize", "simulate", "verify")])
    def test_no_unstable_modes_is_synthesis_failure(self, tmp_path, capsys,
                                                    command, gammas):
        # lambda below the first Dirichlet eigenvalue leaves N = 0, which
        # the default five disk gammas cannot match at any scaling; the
        # doubling search reports that cause, not its table of NaN margins
        path = tmp_path / "run.cfg"
        path.write_text(f"lambda = 0.5\nn_sim = 40\ngammas = {gammas}\n")
        assert main([command, "--config", str(path),
                     "--output", str(tmp_path / "o")]) == \
            EXIT_SYNTHESIS_FAILURE
        assert capsys.readouterr().err == (
            "synthesis failed: 5 gammas supplied but the mode table has 0 "
            "nonnegative eigenvalues\n")

    @staticmethod
    def run_resonant(command, tmp_path, disk_modes):
        """Run command in a fresh interpreter on the disk config whose
        first shift is -mu of tail mode 13, where the lift of the boundary
        data is singular; every command must fail synthesis with one
        line."""
        modes, _ = disk_modes
        gamma = format(-modes.mu[12], ".17g")
        path = tmp_path / "run.cfg"
        path.write_text(DISK_CFG.replace(
            "gammas = auto", f"gammas = {gamma},14.34,16.34,18.34,20.34"))
        src = str(Path(modalstab.__file__).resolve().parents[1])
        run = subprocess.run(
            [sys.executable, "-m", "modalstab.cli", command, "--config",
             str(path), "--output", str(tmp_path / command), "--grid", "12"],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src))
        assert run.returncode == EXIT_SYNTHESIS_FAILURE
        assert "Traceback" not in run.stderr
        assert run.stderr == (f"synthesis failed: gamma={gamma} resonates "
                              f"with mode n=13 (mu={-float(gamma)})\n")

    def test_resonant_shift_is_synthesis_failure(self, tmp_path, disk_modes):
        for command in ("simulate", "verify"):
            self.run_resonant(command, tmp_path, disk_modes)

    def test_resonant_shift_fails_synthesize(self, tmp_path, disk_modes):
        # the set that simulate and verify refuse is never written
        self.run_resonant("synthesize", tmp_path, disk_modes)
        assert not (tmp_path / "synthesize" / "gains.json").exists()

    @pytest.mark.parametrize("config, rows", [
        ("lambda = 8\n", "n=1 and n=6 share the angular key (0, cos)"),
        ("lambda = 8\ngammas = 6,7,8,9,10,11\n",
         "n=1 and n=6 share the angular key (0, cos)"),
        ("domain.shape = ball\nlambda = 10\n",
         "n=1 and n=10 share the angular key (0, 0)"),
    ], ids=["disk", "disk-six-gammas", "ball"])
    def test_repeated_leading_key_is_synthesis_failure(self, tmp_path, capsys,
                                                       config, rows):
        # two leading modes on one angular key have collinear normal
        # traces, so B is singular: every command says so in one line,
        # ahead of the shift count check and the doubling search
        path = tmp_path / "run.cfg"
        path.write_text(config)
        for command in ("synthesize", "simulate", "verify"):
            out = tmp_path / command
            assert main([command, "--config", str(path), "--output",
                         str(out)]) == EXIT_SYNTHESIS_FAILURE
            captured = capsys.readouterr()
            assert captured.err == (
                f"synthesis failed: leading modes {rows}, so their normal "
                "traces are collinear and B is singular\n")
            assert captured.out == "" and "Traceback" not in captured.err
            assert not (out / "gains.json").exists()

    def test_grid_without_interior_point_is_bad_input(self, tmp_path,
                                                      capsys):
        path = tmp_path / "run.cfg"
        path.write_text("grid = 2\nn_sim = 40\n")
        assert main(["simulate", "--config", str(path),
                     "--output", str(tmp_path / "o")]) == EXIT_BAD_INPUT
        assert capsys.readouterr().err == \
            "bad input: grid must be at least 3\n"

    def test_short_horizon_verify_records_fit_error(self, tmp_path, capsys):
        # nine samples are too few to identify the reduced generator, and
        # two too few for the commutation check's central differences; the
        # report says so and the exit code comes from the claim checks
        for horizon, grid, commutation_ok in (("0.4", 12, True),
                                              ("0.05", 8, False)):
            path = tmp_path / "run.cfg"
            path.write_text(f"horizon = {horizon}\nn_sim = 40\n"
                            f"grid = {grid}\n")
            out = tmp_path / f"o{horizon}"
            assert main(["verify", "--config", str(path),
                         "--output", str(out)]) == EXIT_VERIFY_FAILED
            assert "failing metrics" in capsys.readouterr().err
            payload = json.loads((out / "claims_report.json").read_text())
            assert payload["reduced_fit"] == {
                "error": "need at least 10 samples"}
            deviation = payload["commutation_max_deviation"]
            if commutation_ok:
                assert deviation < 1e-10
            else:
                assert deviation == {"error": "need at least 3 samples"}

    def test_one_gain_policy_for_every_command(self, tmp_path):
        # at this radius the documented shifts are Hurwitz on the direct
        # generator but miss target_margin, so `auto` doubles them in
        # synthesize and simulate alike
        path = tmp_path / "run.cfg"
        path.write_text("domain.radius = 2.5\nlambda = 4.5\nn_sim = 100\n"
                        "gammas = auto\ngrid = 20\n")
        out = tmp_path / "o"
        for command in ("synthesize", "simulate"):
            assert main([command, "--config", str(path),
                         "--output", str(out)]) == EXIT_OK
        gains = json.loads((out / "gains.json").read_text())
        summary = json.loads((out / "run_summary.json").read_text())
        doubled = [12.34, 14.34, 16.34, 18.34, 20.34]
        assert [float(g) for g in gains["gammas"]] == doubled
        assert summary["gains"]["gammas_used"] == doubled
        assert summary["gains"]["gains_source"] == "auto_scaled"
        assert summary["diverged"] is False

    @pytest.mark.parametrize("shape", ["disk", "ball"])
    def test_each_command_validates_one_gain_set(self, tmp_path, monkeypatch,
                                                 shape):
        # the configured shifts are not Hurwitz at the defaults: verify
        # validates only the scaled set it runs, synthesize only the
        # configured set it writes
        validated = []
        validate_gains = modalstab.controller.validate_gains

        def counted(gain_set):
            validated.append(list(gain_set.gammas))
            return validate_gains(gain_set)

        monkeypatch.setattr(modalstab.controller, "validate_gains", counted)
        path = tmp_path / "run.cfg"
        path.write_text(f"domain.shape = {shape}\n")
        out = tmp_path / "out"
        assert main(["verify", "--config", str(path),
                     "--output", str(out)]) in (EXIT_OK, EXIT_VERIFY_FAILED)
        gains = json.loads((out / "claims_report.json").read_text())["gains"]
        assert validated == [gains["gammas_used"]]
        assert gains["gains_source"] == "auto_scaled"
        validated.clear()
        assert main(["synthesize", "--config", str(path), "--output",
                     str(out)]) == EXIT_GAINS_NOT_VALIDATED
        assert validated == [gains["gammas_config"]]

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
