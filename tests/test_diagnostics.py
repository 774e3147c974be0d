import math

import numpy as np
import pytest

from modalstab.diagnostics import (GridEvaluator, UndefinedRatioError,
                                   claims_report_json, compute_norm_series,
                                   decay_rate_fit, gn_exponents, gn_ratio,
                                   h2_full, h2_surrogate, laplacian_l2,
                                   linf_on_grid, verify_claims,
                                   write_norm_series_csv)
from modalstab.simulator import open_loop

DISK_MU_1 = 5.1642035092633039
# sqrt(1 + mu_1^2) for the disk benchmark spectrum
H2_UNIT_MODE_1 = 5.2601328771322329
# center value of the leading disk mode
DISK_CENTER_VALUE = 0.54338081806563625
# center / (1 + sqrt(kappa_1)) with kappa_1 = (j_{0,1}/2)^2
GN_SINGLE_MODE = 0.24672069799281065


class TestH2Surrogate:
    def test_zero(self, disk_modes):
        modes, _ = disk_modes
        assert h2_surrogate(np.zeros(300), modes) == 0.0

    def test_unit_leading_mode(self, disk_modes):
        modes, _ = disk_modes
        c = np.zeros(300)
        c[0] = 1.0
        assert h2_surrogate(c, modes) == pytest.approx(H2_UNIT_MODE_1,
                                                       abs=1e-12)

    def test_homogeneity(self, disk_modes):
        modes, _ = disk_modes
        rng = np.random.default_rng(1)
        c = rng.standard_normal(300)
        assert h2_surrogate(2.0 * c, modes) == \
            pytest.approx(2.0 * h2_surrogate(c, modes), rel=1e-14)

    def test_full_variant_uses_kappa_weights(self, disk_modes):
        modes, _ = disk_modes
        c = np.zeros(300)
        c[0] = 1.0
        k1 = modes[0].kappa
        assert h2_full(c, modes) == \
            pytest.approx(math.sqrt(1.0 + k1 + k1 * k1), rel=1e-14)


class TestLaplacian:
    def test_single_mode_no_control(self, disk_modes):
        modes, _ = disk_modes
        c = np.zeros(300)
        c[7] = -1.3
        got = laplacian_l2(c, np.zeros(0), None, modes)
        assert got == pytest.approx(modes[7].kappa * 1.3, rel=1e-14)

    def test_zero_state_zero_control(self, disk_modes):
        modes, _ = disk_modes
        assert laplacian_l2(np.zeros(300), np.zeros(5), None, modes) == 0.0

    def test_matches_generator_path_exactly(self, disk, disk_modes,
                                            disk_gains, disk_system,
                                            disk_traj_seed1):
        # du/dt - lambda u computed through the generator reproduces the
        # modal Laplacian identically, boundary flux included
        lam = 6.61
        modes, _ = disk_modes
        for k in (0, 10, 40, 80):
            state = disk_traj_seed1.states[k]
            rhs = np.linalg.norm(disk_system.generator @ state - lam * state)
            lap = laplacian_l2(state, disk_traj_seed1.boundary_data[k],
                               disk_gains, modes)
            assert abs(lap - rhs) < 1e-12 * max(1.0, rhs)

    def test_central_difference_converges(self, disk, disk_modes,
                                          disk_u0_seed1):
        # with only resolved rates excited (leading 30 modes, no control),
        # central differences of du/dt - lambda u converge O(dt^2)
        lam = 6.61
        modes, _ = disk_modes
        u0 = disk_u0_seed1.copy()
        u0[30:] = 0.0
        errors = []
        for dt in (0.01, 0.005):
            traj = open_loop(modes, u0, dt, 1.0)
            dudt = (traj.states[2:] - traj.states[:-2]) / (2.0 * dt)
            worst = 0.0
            for k in range(1, traj.times.size - 1, 4):
                rhs = np.linalg.norm(dudt[k - 1] - lam * traj.states[k])
                lap = laplacian_l2(traj.states[k], np.zeros(0), None, modes)
                worst = max(worst, abs(lap - rhs))
            errors.append(worst)
        assert errors[1] < errors[0] / 3.0   # O(dt^2) shrink


class TestLinfOnGrid:
    def test_unit_leading_mode_peaks_at_center(self, disk, disk_modes,
                                               disk_evaluator):
        modes, _ = disk_modes
        c = np.zeros(300)
        c[0] = 1.0
        # grid resolution 50 has no node exactly at the origin; refine to 51
        got = linf_on_grid(c, modes, disk, resolution=51)
        assert got == pytest.approx(DISK_CENTER_VALUE, rel=1e-9)

    def test_zero_coefficients(self, disk, disk_modes, disk_evaluator):
        modes, _ = disk_modes
        assert linf_on_grid(np.zeros(300), modes, disk,
                            evaluator=disk_evaluator) == 0.0

    def test_grid_refinement_stable(self, disk, disk_modes, disk_u0_seed1):
        modes, _ = disk_modes
        coarse = linf_on_grid(disk_u0_seed1, modes, disk, resolution=50)
        fine = linf_on_grid(disk_u0_seed1, modes, disk, resolution=100)
        assert abs(coarse - fine) < 0.01 * fine

    def test_resolution_floor(self, disk, disk_modes):
        modes, _ = disk_modes
        with pytest.raises(ValueError):
            GridEvaluator(modes, disk, 1)


class TestDecayFit:
    def test_exact_exponential(self):
        t = np.linspace(0.0, 4.0, 81)
        amp, rate, res = decay_rate_fit(t, 3.0 * np.exp(-2.0 * t), (0.5, 3.5))
        assert amp == pytest.approx(3.0, rel=1e-12)
        assert rate == pytest.approx(2.0, rel=1e-12)
        assert res < 1e-12

    def test_growth_reported_as_negative_rate(self):
        t = np.linspace(0.0, 4.0, 81)
        _, rate, _ = decay_rate_fit(t, np.exp(DISK_MU_1 * t), (0.5, 3.5))
        assert rate == pytest.approx(-DISK_MU_1, rel=1e-12)

    def test_constant_series(self):
        t = np.linspace(0.0, 4.0, 81)
        _, rate, _ = decay_rate_fit(t, np.full(81, 2.5), (0.5, 3.5))
        assert abs(rate) < 1e-12

    def test_nonpositive_values_rejected(self):
        t = np.linspace(0.0, 4.0, 81)
        v = np.exp(-t)
        v[40] = 0.0
        with pytest.raises(ValueError):
            decay_rate_fit(t, v, (0.5, 3.5))

    def test_needs_five_samples(self):
        t = np.array([0.0, 1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            decay_rate_fit(t, np.exp(-t), (0.0, 3.0))


class TestNormSeries:
    def test_norm_ordering(self, disk, disk_modes, disk_gains,
                           disk_traj_seed1, disk_evaluator):
        modes, _ = disk_modes
        s = compute_norm_series(disk_traj_seed1, disk_gains, modes, disk,
                                evaluator=disk_evaluator)
        assert np.all(s.l2 <= s.h2_surrogate + 1e-12)
        assert np.all(s.h2_surrogate >= 0.0)
        assert s.times.size == s.linf.size == s.dudt_l2.size

    def test_parseval_grid_consistency(self, disk, disk_modes, disk_gains,
                                       disk_traj_seed1):
        # quadrature L2 of the grid reconstruction matches the coefficient
        # norm for smooth states
        from modalstab.basis import interior_quadrature, mode_values
        modes, _ = disk_modes
        radial, azim = interior_quadrature(disk, modes)
        rr, tt = np.meshgrid(radial.nodes, azim.nodes, indexing="ij")
        pts = np.column_stack([(rr * np.cos(tt)).ravel(),
                               (rr * np.sin(tt)).ravel()])
        w = np.outer(radial.weights * radial.nodes, azim.weights).ravel()
        vals = mode_values(modes, disk, pts)
        state = disk_traj_seed1.states[20]
        field = state @ vals
        quad_norm = math.sqrt(float(np.dot(w, field * field)))
        coeff_norm = float(np.linalg.norm(state))
        assert abs(quad_norm - coeff_norm) < 1e-6 * coeff_norm

    def test_xi_series_matches_lifting_operations(self, disk, disk_modes,
                                                  disk_gains, disk_traj_seed1,
                                                  disk_evaluator):
        # the vectorized xi series agrees with the per-state lifting path
        from modalstab.lifting import lifting_h2_surrogate, xi_coefficients
        modes, _ = disk_modes
        s = compute_norm_series(disk_traj_seed1, disk_gains, modes, disk,
                                evaluator=disk_evaluator)
        for k in (0, 15, 40):
            U = disk_traj_seed1.states[k, :5]
            for i in range(5):
                direct = lifting_h2_surrogate(
                    xi_coefficients(disk_gains, U, i), modes)
                assert s.xi[k, i] == pytest.approx(direct, rel=1e-12,
                                                   abs=1e-300)

    def test_csv_header_and_length(self, disk, disk_modes, disk_gains,
                                   disk_traj_seed1, disk_evaluator, tmp_path):
        modes, _ = disk_modes
        s = compute_norm_series(disk_traj_seed1, disk_gains, modes, disk,
                                evaluator=disk_evaluator)
        path = tmp_path / "norms.csv"
        write_norm_series_csv(s, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ("t,h2_surrogate,h2_full,linf,laplacian_l2,"
                            "u_norm,dudt_l2,xi_1,xi_2,xi_3,xi_4,xi_5")
        assert len(lines) == 1 + s.times.size


class TestGnRatio:
    def test_single_mode_closed_form(self, disk, disk_modes, disk_gains):
        from modalstab.simulator import Trajectory
        modes, _ = disk_modes
        c = np.zeros(300)
        c[0] = 1.0
        traj = Trajectory(times=np.arange(5) * 0.05,
                          states=np.tile(c, (5, 1)),
                          boundary_data=np.zeros((5, 5)))
        s = compute_norm_series(traj, None, modes, disk, resolution=51)
        p, q = gn_exponents(disk)
        assert gn_ratio(s, p, q) == pytest.approx(GN_SINGLE_MODE, rel=1e-6)

    def test_exponent_selection(self, disk, ball):
        assert gn_exponents(disk) == (0.5, 0.5)
        assert gn_exponents(ball) == (0.25, 0.75)

    def test_zero_trajectory_rejected(self, disk, disk_modes):
        from modalstab.simulator import Trajectory
        modes, _ = disk_modes
        traj = Trajectory(times=np.arange(5) * 0.05,
                          states=np.zeros((5, 300)),
                          boundary_data=np.zeros((5, 5)))
        s = compute_norm_series(traj, None, modes, disk, resolution=12)
        with pytest.raises(UndefinedRatioError):
            gn_ratio(s, 0.5, 0.5)


class TestVerifyClaims:
    def test_open_loop_fails_with_growth_near_mu1(self, disk, disk_modes,
                                                  disk_u0_seed1,
                                                  disk_evaluator):
        modes, _ = disk_modes
        traj = open_loop(modes, disk_u0_seed1, 0.05, 4.0)
        report = verify_claims(traj, None, modes, disk,
                               evaluator=disk_evaluator)
        assert not report["all_pass"]
        h2 = report["metrics"]["h2_surrogate"]
        assert not h2.passed
        # the growth rate is mu_1 up to the slower-growing mode mixture
        assert h2.sigma_hat == pytest.approx(-DISK_MU_1, rel=1e-2)
        assert not report["metrics"]["linf"].passed

    def test_zero_initial_condition_degenerate_pass(self, disk, disk_modes,
                                                    disk_evaluator):
        modes, _ = disk_modes
        traj = open_loop(modes, np.zeros(300), 0.05, 4.0)
        report = verify_claims(traj, None, modes, disk,
                               evaluator=disk_evaluator)
        assert report["all_pass"]
        assert all(m.degenerate for m in report["metrics"].values())

    def test_closed_loop_rates_positive(self, disk, disk_modes, disk_gains,
                                        disk_traj_seed1, disk_evaluator):
        modes, _ = disk_modes
        report = verify_claims(disk_traj_seed1, disk_gains, modes, disk,
                               evaluator=disk_evaluator)
        for name, fit in report["metrics"].items():
            assert fit.sigma_hat > 0.0, name

    def test_decay_coherence_of_max_norm(self, disk, disk_modes, disk_gains,
                                         disk_traj_seed1, disk_evaluator):
        # the max norm cannot decay slower than the L2 and Laplacian norms
        # that bound it (interpolation mechanism), up to fit slack
        modes, _ = disk_modes
        s = compute_norm_series(disk_traj_seed1, disk_gains, modes, disk,
                                evaluator=disk_evaluator)
        _, rate_linf, _ = decay_rate_fit(s.times, s.linf, (0.5, 3.5))
        _, rate_l2, _ = decay_rate_fit(s.times, s.l2, (0.5, 3.5))
        _, rate_lap, _ = decay_rate_fit(s.times, s.laplacian_l2, (0.5, 3.5))
        assert rate_linf >= min(rate_l2, rate_lap) - 0.1

    def test_json_report_shape(self, disk, disk_modes, disk_gains,
                               disk_traj_seed1, disk_evaluator):
        import json
        modes, _ = disk_modes
        report = verify_claims(disk_traj_seed1, disk_gains, modes, disk,
                               evaluator=disk_evaluator)
        payload = json.loads(claims_report_json(report, {"extra_field": 1}))
        assert payload["window"] == [0.5, 3.5]
        names = {m["metric"] for m in payload["metrics"]}
        assert {"u_norm", "h2_surrogate", "linf", "laplacian_l2",
                "dudt_l2", "xi_1"} <= names
        for entry in payload["metrics"]:
            assert set(entry) == {"metric", "gamma_hat", "sigma_hat",
                                  "residual", "pass", "degenerate"}
        assert payload["extra_field"] == 1

    def test_precomputed_series_gives_same_report(self, disk, disk_modes,
                                                  disk_gains, disk_traj_seed1,
                                                  disk_evaluator):
        modes, _ = disk_modes
        series = compute_norm_series(disk_traj_seed1, disk_gains, modes, disk,
                                     evaluator=disk_evaluator)
        given = verify_claims(disk_traj_seed1, disk_gains, modes, disk,
                              series=series)
        rebuilt = verify_claims(disk_traj_seed1, disk_gains, modes, disk,
                                evaluator=disk_evaluator)
        assert given["series"] is series
        assert claims_report_json(given) == claims_report_json(rebuilt)
