"""Acceptance suite: one test group per numbered criterion, each printing a
one-line verdict (run with `pytest tests/test_acceptance.py -v -s`).

Criteria a faithful implementation cannot meet are kept at their stated
tolerances and marked strict-xfail, with the measured numbers printed; the
repository notes carry the analysis.
"""

import json
import time

import numpy as np
import pytest
import scipy.linalg

from _oracles import (dense_generator, oracle_zero_bisection,
                      quadrature_boundary_gram)
from modalstab.basis import boundary_gram, enumerate_modes
from modalstab.cli import RunConfig, cmd_simulate
from modalstab.diagnostics import (compute_norm_series, decay_rate_fit,
                                   gn_exponents, gn_ratio)
from modalstab.lifting import commutation_check
from modalstab.simulator import (PolynomialSpec, integrate, open_loop,
                                 project_initial_condition,
                                 reduced_dynamics_fit)

LAMBDA = 6.61
SEEDS = (1, 2, 3, 4, 5)
WINDOW = (0.5, 3.5)
DISK_MU_1 = 5.1642035092633039
# analytic ground truth for the repeated disk eigenvalues; the reported
# benchmark values (3.07, 0.45) differ and are recorded, not matched
DISK_MU_2_ANALYTIC = 2.9395073394690267
DISK_MU_4_ANALYTIC = 0.0163458932091523


def verdict(num, ok, detail=""):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())


@pytest.fixture(scope="module")
def closed_loop_runs(disk, ball, disk_modes, ball_modes, disk_gains,
                     ball_gains, disk_system, ball_system, disk_evaluator,
                     ball_evaluator):
    """Five-seed closed-loop runs on both domains with all norm series and
    window fits, shared by criteria 5 and 8."""
    setups = {
        "disk": (disk, disk_modes[0], disk_gains, disk_system,
                 disk_evaluator),
        "ball": (ball, ball_modes[0], ball_gains, ball_system,
                 ball_evaluator),
    }
    runs = {}
    for shape, (dom, modes, gains, system, evaluator) in setups.items():
        for seed in SEEDS:
            t0 = time.time()
            u0 = project_initial_condition(dom, modes, PolynomialSpec(), seed)
            traj = integrate(system, u0, 0.05, 4.0)
            series = compute_norm_series(traj, gains, modes, evaluator)
            fits = {}
            for name, vals in [("h2_surrogate", series.h2_surrogate),
                               ("linf", series.linf),
                               ("laplacian_l2", series.laplacian_l2),
                               ("dudt_l2", series.dudt_l2),
                               ("u_norm", series.u_norm)]:
                amp, rate, res = decay_rate_fit(series.times, vals, WINDOW)
                fits[name] = (rate, res)
            xi_fits = []
            for i in range(series.xi.shape[1]):
                _, rate, res = decay_rate_fit(series.times, series.xi[:, i],
                                              WINDOW)
                xi_fits.append((rate, res))
            runs[(shape, seed)] = {
                "trajectory": traj,
                "series": series,
                "fits": fits,
                "xi_fits": xi_fits,
                "gn": gn_ratio(series, *gn_exponents(dom)),
                "runtime": time.time() - t0,
            }
    return runs


class TestCriterion1SpectrumCounts:
    def test_counts_and_runtime(self, disk, ball):
        t0 = time.time()
        _, disk_summary = enumerate_modes(disk, LAMBDA, 300)
        t_disk = time.time() - t0
        t0 = time.time()
        _, ball_summary = enumerate_modes(ball, LAMBDA, 300)
        t_ball = time.time() - t0
        ok = (disk_summary.n_unstable == 5 and ball_summary.n_unstable == 4
              and t_disk < 1.0 and t_ball < 1.0)
        verdict(1, ok, f"(disk N={disk_summary.n_unstable} in {t_disk:.2f}s, "
                       f"ball N={ball_summary.n_unstable} in {t_ball:.2f}s)")
        assert disk_summary.n_unstable == 5
        assert ball_summary.n_unstable == 4
        assert t_disk < 1.0 and t_ball < 1.0


class TestCriterion2EigenvalueAccuracy:
    def test_against_bisection_oracle(self, disk, ball, disk_modes,
                                      ball_modes):
        worst = 0.0
        for domain, (modes, _) in [(disk, disk_modes), (ball, ball_modes)]:
            for order, k, mu in zip(modes.order[:12], modes.k[:12],
                                    modes.mu[:12]):
                z = oracle_zero_bisection(order, k,
                                          spherical=(domain.shape == "ball"))
                worst = max(worst, abs(mu - (LAMBDA - (z / 2.0) ** 2)))
        bmodes, _ = ball_modes
        ball_mu1_rel = abs(bmodes.mu[0] - 4.147) / 4.147
        ball_mu2_rel = abs(bmodes.mu[1] - 1.566) / 1.566
        dmodes, _ = disk_modes
        disk_ok = (abs(dmodes.mu[1] - DISK_MU_2_ANALYTIC) < 1e-10
                   and abs(dmodes.mu[3] - DISK_MU_4_ANALYTIC) < 1e-10)
        ok = (worst < 1e-10 and ball_mu1_rel < 3e-3 and ball_mu2_rel < 3e-3
              and disk_ok)
        verdict(2, ok, f"(oracle dev {worst:.1e}; ball mu1 off "
                       f"{ball_mu1_rel:.2%}, mu2 off {ball_mu2_rel:.2%}; "
                       f"disk mu2/mu4 analytic, reported 3.07/0.45 recorded "
                       f"as discrepancy)")
        assert worst < 1e-10
        assert ball_mu1_rel < 3e-3 and ball_mu2_rel < 3e-3
        assert disk_ok


class TestCriterion3GramClosedForms:
    def test_quadrature_agreement(self, disk, ball, disk_modes, ball_modes):
        t0 = time.time()
        worst = 0.0
        diag_worst = 0.0
        for domain, (modes, _) in [(disk, disk_modes), (ball, ball_modes)]:
            head = modes[:30]
            closed = boundary_gram(head, head)
            quad = quadrature_boundary_gram(domain, head)
            worst = max(worst, float(np.max(np.abs(closed - quad))))
            diag = np.diag(closed)
            expected = 2.0 * head.alpha**2 / 8.0
            diag_worst = max(diag_worst,
                             float(np.max(np.abs(diag - expected))))
        elapsed = time.time() - t0
        ok = worst < 1e-9 and diag_worst < 1e-10 and elapsed < 10.0
        verdict(3, ok, f"(quad dev {worst:.1e}, diag dev {diag_worst:.1e}, "
                       f"{elapsed:.1f}s)")
        assert worst < 1e-9
        assert diag_worst < 1e-10
        assert elapsed < 10.0


class TestCriterion4MatrixIdentities:
    def test_identities(self, disk_gains, ball_gains, disk_system,
                        ball_system):
        t0 = time.time()
        worst_inv = worst_diff = worst_block = 0.0
        for gains, system in [(disk_gains, disk_system),
                              (ball_gains, ball_system)]:
            n = gains.n_unstable
            # B_i = M_i B M_i, rebuilt from the rows of m_list
            sum_b = sum(np.outer(m, m) * gains.gram for m in gains.m_list)
            inv = sum_b @ gains.a_gain - np.eye(n)
            worst_inv = max(worst_inv, float(np.max(np.abs(inv))))
            diff = gains.a_direct - (2.0 * gains.a_o - gains.s_total)
            worst_diff = max(worst_diff, float(np.max(np.abs(diff))))
            block = dense_generator(system, gains)[:n, :n] - gains.a_direct
            worst_block = max(worst_block, float(np.max(np.abs(block))))
        elapsed = time.time() - t0
        ok = (worst_inv < 1e-10 and worst_diff < 1e-10
              and worst_block < 1e-12 and elapsed < 1.0)
        verdict(4, ok, f"(sum(B_i)A-I {worst_inv:.1e}, generator identity "
                       f"{worst_diff:.1e}, leading block {worst_block:.1e})")
        assert worst_inv < 1e-10
        assert worst_diff < 1e-10
        assert worst_block < 1e-12
        assert elapsed < 1.0


class TestCriterion5ClosedLoopDecay:
    METRICS = ("h2_surrogate", "linf", "laplacian_l2", "dudt_l2")

    def test_decay_rates_positive(self, closed_loop_runs):
        slowest = np.inf
        max_runtime = 0.0
        for (shape, seed), run in closed_loop_runs.items():
            for name in self.METRICS:
                rate, _ = run["fits"][name]
                slowest = min(slowest, rate)
                assert rate > 0.0, (shape, seed, name)
            max_runtime = max(max_runtime, run["runtime"])
        verdict(5, True, f"(rates: all four metrics decay on both domains "
                         f"for 5 seeds, slowest {slowest:.3f}; max runtime "
                         f"{max_runtime:.1f}s)")
        assert max_runtime < 300.0

    def test_residual_budget_disk_pointwise_metrics(self, closed_loop_runs):
        worst = 0.0
        for seed in SEEDS:
            fits = closed_loop_runs[("disk", seed)]["fits"]
            for name in ("linf", "laplacian_l2", "dudt_l2"):
                worst = max(worst, fits[name][1])
        verdict(5, worst < 0.1,
                f"(disk linf/laplacian/dudt residuals <= {worst:.3f})")
        assert worst < 0.1

    @pytest.mark.xfail(reason="the (1 + mu^2)-weighted surrogate carries the "
                       "control boundary layer, which decays at the fast "
                       "closed-loop rate and crosses the slow free tail "
                       "inside the window; the two-rate series exceeds a "
                       "0.1 RMS single-line budget on every seed",
                       strict=True)
    def test_residual_budget_h2(self, closed_loop_runs):
        residuals = {key: run["fits"]["h2_surrogate"][1]
                     for key, run in closed_loop_runs.items()}
        worst = max(residuals.values())
        verdict(5, worst < 0.1, f"(h2 surrogate residuals up to {worst:.3f})")
        assert worst < 0.1

    @pytest.mark.xfail(reason="random initial data can concentrate on ball "
                       "modes whose decay rates differ by >1.5 inside the "
                       "window (seed-dependent two-rate mixtures), exceeding "
                       "the 0.1 RMS budget for some seeds",
                       strict=True)
    def test_residual_budget_ball_pointwise_metrics(self, closed_loop_runs):
        worst = 0.0
        for seed in SEEDS:
            fits = closed_loop_runs[("ball", seed)]["fits"]
            for name in ("linf", "laplacian_l2", "dudt_l2"):
                worst = max(worst, fits[name][1])
        verdict(5, worst < 0.1,
                f"(ball linf/laplacian/dudt residuals <= {worst:.3f})")
        assert worst < 0.1


class TestCriterion6OpenLoopDivergence:
    def test_growth_rate_and_flag(self, disk, disk_modes, disk_u0_seed1,
                                  tmp_path):
        t0 = time.time()
        modes, _ = disk_modes
        traj = open_loop(modes, disk_u0_seed1, 0.05, 4.0)
        assert abs(disk_u0_seed1[0]) > 1e-6
        _, rate, _ = decay_rate_fit(traj.times, np.abs(traj.states[:, 0]),
                                    (0.0, 4.0))
        growth = -rate
        cfg = RunConfig(mode="open_loop", seed=1,
                        output_dir=str(tmp_path / "out"))
        assert cmd_simulate(cfg) == 0
        summary = json.loads(
            (tmp_path / "out" / "run_summary.json").read_text())
        elapsed = time.time() - t0
        ok = (abs(growth - DISK_MU_1) / DISK_MU_1 < 0.01
              and summary["diverged"] is True and elapsed < 10.0)
        verdict(6, ok, f"(growth {growth:.5f} vs mu1 {DISK_MU_1:.5f}, "
                       f"diverged flag {summary['diverged']}, "
                       f"{elapsed:.1f}s)")
        assert abs(growth - DISK_MU_1) / DISK_MU_1 < 0.01
        assert summary["diverged"] is True
        assert elapsed < 10.0


class TestCriterion7ReducedModelConsistency:
    def test_restart_and_identification(self, disk_system, disk_gains,
                                        disk_traj_seed1, disk_u0_seed1):
        n = disk_gains.n_unstable
        prop = scipy.linalg.expm(disk_gains.a_direct * 0.05)
        U = disk_traj_seed1.states[:, :n]
        restart_worst = max(
            float(np.linalg.norm(prop @ U[k] - U[k + 1]))
            for k in range(U.shape[0] - 1))
        fine = integrate(disk_system, disk_u0_seed1, 0.01, 4.0)
        fit = reduced_dynamics_fit(fine, disk_gains)
        ok = restart_worst < 1e-8 and fit.residual < 1e-4
        verdict(7, ok, f"(restart dev {restart_worst:.1e}, fit residual "
                       f"{fit.residual:.1e}; distance to direct generator "
                       f"{fit.dist_direct:.2e} vs to -S {fit.dist_minus_s:.2e}"
                       f" -> direct identified)")
        assert restart_worst < 1e-8
        assert fit.residual < 1e-4
        assert fit.dist_direct < fit.dist_minus_s


class TestCriterion8LiftedTermAndRatioChecks:
    def test_xi_decay_and_commutation(self, closed_loop_runs, disk_gains,
                                      ball_gains):
        margin_worst = np.inf
        for (shape, seed), run in closed_loop_runs.items():
            sigma_u = run["fits"]["u_norm"][0]
            for rate, _ in run["xi_fits"]:
                margin_worst = min(margin_worst, rate - (sigma_u - 0.05))
                assert rate >= sigma_u - 0.05, (shape, seed)
        devs = []
        for gains, key in [(disk_gains, ("disk", 1)), (ball_gains,
                                                       ("ball", 1))]:
            traj = closed_loop_runs[key]["trajectory"]
            devs.append(float(np.max(commutation_check(gains, traj))))
        gn_vals = {key: run["gn"] for key, run in closed_loop_runs.items()}
        ok = max(devs) < 1e-10 and all(np.isfinite(v)
                                       for v in gn_vals.values())
        verdict(8, ok, f"(xi rates clear sigma_U - 0.05 by "
                       f"{margin_worst:+.4f}; commutation dev "
                       f"{max(devs):.1e}; G-N sup finite on all runs)")
        assert max(devs) < 1e-10
        assert all(np.isfinite(v) for v in gn_vals.values())

    @pytest.mark.xfail(reason="the time of the supremum moves with the "
                       "random initial data (early transient vs late "
                       "single-mode regime), so the sup-ratio varies more "
                       "than 10 percent around the seed mean on both domains",
                       strict=True)
    def test_gn_ratio_stability_across_seeds(self, closed_loop_runs):
        worst_dev = 0.0
        for shape in ("disk", "ball"):
            vals = np.array([closed_loop_runs[(shape, seed)]["gn"]
                             for seed in SEEDS])
            dev = float(np.max(np.abs(vals - vals.mean())) / vals.mean())
            print(f"  G-N sup ratios {shape}: {np.round(vals, 4)} "
                  f"(max dev {dev:.1%})")
            worst_dev = max(worst_dev, dev)
        verdict(8, worst_dev <= 0.10,
                f"(G-N stability: max deviation {worst_dev:.1%})")
        assert worst_dev <= 0.10


class TestCriterion9CrossIntegrator:
    def test_expm_vs_rk4_and_dt_halving(self, disk_system, ball_system,
                                        disk_u0_seed1, ball, ball_modes):
        bmodes, _ = ball_modes
        ball_u0 = project_initial_condition(ball, bmodes, PolynomialSpec(), 1)
        worst_rk4 = worst_half = 0.0
        for system, u0 in [(disk_system, disk_u0_seed1),
                           (ball_system, ball_u0)]:
            a = integrate(system, u0, 0.05, 4.0, method="expm_step")
            b = integrate(system, u0, 0.05, 4.0, method="rk4")
            scale = np.linalg.norm(a.states[-1])
            worst_rk4 = max(worst_rk4, float(
                np.linalg.norm(a.states[-1] - b.states[-1]) / scale))
            c = integrate(system, u0, 0.025, 4.0, method="expm_step")
            worst_half = max(worst_half, float(
                np.linalg.norm(a.states[-1] - c.states[-1]) / scale))
        ok = worst_rk4 < 1e-6 and worst_half < 1e-8
        verdict(9, ok, f"(expm vs rk4 {worst_rk4:.1e}, dt-halving "
                       f"{worst_half:.1e})")
        assert worst_rk4 < 1e-6
        assert worst_half < 1e-8


class TestCriterion10Determinism:
    def test_byte_identical_outputs(self, tmp_path):
        cfg_a = RunConfig(gammas="auto", seed=4,
                          output_dir=str(tmp_path / "a"))
        cfg_b = RunConfig(gammas="auto", seed=4,
                          output_dir=str(tmp_path / "b"))
        assert cmd_simulate(cfg_a) == 0
        assert cmd_simulate(cfg_b) == 0
        identical = all(
            (tmp_path / "a" / name).read_bytes() ==
            (tmp_path / "b" / name).read_bytes()
            for name in ("trajectory.csv", "norm_series.csv",
                         "snapshots.bin"))
        verdict(10, identical, "(two seeded runs byte-identical)")
        assert identical
