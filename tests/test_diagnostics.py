import dataclasses
import math

import numpy as np
import pytest

from _oracles import dense_generator, dense_linf, fit_metric_per_column
from modalstab import controller, diagnostics, lifting, simulator
from modalstab.basis import boundary_gram
from modalstab.controller import synthesize
from modalstab.diagnostics import (GridEvaluator, UndefinedRatioError,
                                   claims_report_json, compute_norm_series,
                                   decay_rate_fit, gn_exponents, gn_ratio,
                                   verify_claims, write_norm_series_csv)
from modalstab.lifting import commutation_check, lifting_coefficients
from modalstab.simulator import (PolynomialSpec, Trajectory,
                                 assemble_closed_loop, integrate, open_loop,
                                 project_initial_condition)

DISK_MU_1 = 5.1642035092633039
# sqrt(1 + mu_1^2) for the disk benchmark spectrum
H2_UNIT_MODE_1 = 5.2601328771322329
# center value of the leading disk mode
DISK_CENTER_VALUE = 0.54338081806563625
# center / (1 + sqrt(kappa_1)) with kappa_1 = (j_{0,1}/2)^2
GN_SINGLE_MODE = 0.24672069799281065


def series_of(states, modes, evaluator, boundary=None):
    """Norm series of a stack of coefficient vectors, one per sample, with
    no control (boundary data zero, of width 0 unless given)."""
    states = np.atleast_2d(np.asarray(states, dtype=float))
    k = states.shape[0]
    boundary = np.zeros((k, 0)) if boundary is None else boundary
    traj = Trajectory(times=np.arange(k) * 0.05, states=states,
                      boundary_data=boundary)
    return compute_norm_series(traj, None, modes, evaluator)


def unit(index, size=300, value=1.0):
    c = np.zeros(size)
    c[index] = value
    return c


class TestH2Surrogate:
    def test_zero(self, disk_modes, disk_evaluator):
        modes, _ = disk_modes
        s = series_of(np.zeros(300), modes, disk_evaluator)
        assert s.h2_surrogate[0] == 0.0 and s.h2_full[0] == 0.0

    def test_unit_leading_mode(self, disk_modes, disk_evaluator):
        modes, _ = disk_modes
        s = series_of(unit(0), modes, disk_evaluator)
        assert s.h2_surrogate[0] == pytest.approx(H2_UNIT_MODE_1, abs=1e-12)

    def test_homogeneity(self, disk_modes, disk_evaluator):
        modes, _ = disk_modes
        rng = np.random.default_rng(1)
        c = rng.standard_normal(300)
        s = series_of([c, 2.0 * c], modes, disk_evaluator)
        assert s.h2_surrogate[1] == \
            pytest.approx(2.0 * s.h2_surrogate[0], rel=1e-14)

    def test_full_variant_uses_kappa_weights(self, disk_modes,
                                             disk_evaluator):
        modes, _ = disk_modes
        k1 = modes.kappa[0]
        s = series_of(unit(0), modes, disk_evaluator)
        assert s.h2_full[0] == \
            pytest.approx(math.sqrt(1.0 + k1 + k1 * k1), rel=1e-14)


class TestLaplacian:
    def test_single_mode_no_control(self, disk_modes, disk_evaluator):
        modes, _ = disk_modes
        s = series_of(unit(7, value=-1.3), modes, disk_evaluator)
        assert s.laplacian_l2[0] == pytest.approx(modes.kappa[7] * 1.3,
                                                  rel=1e-14)

    def test_zero_state_zero_control(self, disk_modes, disk_evaluator):
        modes, _ = disk_modes
        s = series_of(np.zeros(300), modes, disk_evaluator,
                      boundary=np.zeros((1, 5)))
        assert s.laplacian_l2[0] == 0.0

    def test_boundary_data_without_gain_set_rejected(self, disk_modes,
                                                     disk_evaluator):
        # the flux term -beta v needs the gain set's Gram; without it a
        # nonzero v would silently drop out of the Laplacian
        modes, _ = disk_modes
        with pytest.raises(ValueError, match="requires a gain set"):
            series_of(unit(0), modes, disk_evaluator,
                      boundary=unit(0, size=5)[None, :])

    def test_matches_generator_path_exactly(self, disk_modes, disk_gains,
                                            disk_system, disk_traj_seed1,
                                            disk_evaluator):
        # du/dt - lambda u computed through the generator's split reproduces
        # the modal Laplacian identically, boundary flux included
        lam = 6.61
        modes, _ = disk_modes
        s = compute_norm_series(disk_traj_seed1, disk_gains, modes,
                                disk_evaluator)
        for k in (0, 10, 40, 80):
            state = disk_traj_seed1.states[k]
            rhs = np.linalg.norm(dense_generator(disk_system, disk_gains)
                                 @ state - lam * state)
            assert abs(s.laplacian_l2[k] - rhs) < 1e-12 * max(1.0, rhs)

    def test_central_difference_converges(self, disk_modes, disk_u0_seed1,
                                          disk_evaluator):
        # with only resolved rates excited (leading 30 modes, no control),
        # central differences of du/dt - lambda u converge O(dt^2)
        lam = 6.61
        modes, _ = disk_modes
        u0 = disk_u0_seed1.copy()
        u0[30:] = 0.0
        errors = []
        for dt in (0.01, 0.005):
            traj = open_loop(modes, u0, dt, 1.0)
            lap = compute_norm_series(traj, None, modes,
                                      disk_evaluator).laplacian_l2
            dudt = (traj.states[2:] - traj.states[:-2]) / (2.0 * dt)
            worst = 0.0
            for k in range(1, traj.times.size - 1, 4):
                rhs = np.linalg.norm(dudt[k - 1] - lam * traj.states[k])
                worst = max(worst, abs(lap[k] - rhs))
            errors.append(worst)
        assert errors[1] < errors[0] / 3.0   # O(dt^2) shrink


class TestLinfOnGrid:
    def test_unit_leading_mode_peaks_at_center(self, disk, disk_modes):
        modes, _ = disk_modes
        # grid resolution 50 has no node exactly at the origin; refine to 51
        s = series_of(unit(0), modes, GridEvaluator(modes, disk, 51))
        assert s.linf[0] == pytest.approx(DISK_CENTER_VALUE, rel=1e-9)

    def test_zero_coefficients(self, disk_modes, disk_evaluator):
        modes, _ = disk_modes
        assert series_of(np.zeros(300), modes, disk_evaluator).linf[0] == 0.0

    def test_grid_refinement_stable(self, disk, disk_modes, disk_u0_seed1,
                                    disk_evaluator):
        modes, _ = disk_modes
        coarse = series_of(disk_u0_seed1, modes, disk_evaluator).linf[0]
        fine = series_of(disk_u0_seed1, modes,
                         GridEvaluator(modes, disk, 100)).linf[0]
        assert abs(coarse - fine) < 0.01 * fine

    def test_resolution_floor(self, disk, disk_modes):
        modes, _ = disk_modes
        with pytest.raises(ValueError):
            GridEvaluator(modes, disk, 1)

    def test_two_points_per_axis_rejected(self, disk, ball, disk_modes,
                                          ball_modes):
        # the 2^dim corners of a two-point grid lie at R sqrt(dim), outside
        # the domain; three points per axis reach the center and the
        # 2 dim ends of the axes, which the orthant holds as the center and
        # the dim positive ends
        for domain, (modes, _) in ((disk, disk_modes), (ball, ball_modes)):
            with pytest.raises(ValueError, match=">= 3"):
                GridEvaluator(modes, domain, 2)
            points = GridEvaluator(modes, domain, 3).points
            assert len(points) == 1 + domain.dim


class TestOrthantLinf:
    @pytest.mark.parametrize("shape, resolution",
                             [("disk", 3), ("disk", 12), ("disk", 50),
                              ("disk", 51), ("ball", 3), ("ball", 12),
                              ("ball", 40)])
    def test_matches_dense_full_grid(self, request, shape, resolution):
        # the orthant's parity classes, reflected, give the max over the
        # whole mirrored grid; the linspace grid differs from it only in
        # the last bit of its coordinates
        domain = request.getfixturevalue(shape)
        modes, _ = request.getfixturevalue(f"{shape}_modes")
        states = request.getfixturevalue(f"{shape}_traj_seed1").states
        linf = GridEvaluator(modes, domain, resolution).linf(states)
        mirrored = dense_linf(states, modes, domain, resolution)
        assert np.all(np.abs(linf - mirrored) <= 1e-13 * mirrored)
        spaced = dense_linf(states, modes, domain, resolution, mirrored=False)
        assert np.all(np.abs(linf - spaced) <= 1e-12 * spaced)


class TestMovedModesLinf:
    @pytest.mark.parametrize("shape", ["disk", "ball"])
    def test_matches_all_modes_evaluator(self, request, shape):
        # modes whose column is 0.0 at every sample add nothing to the
        # field, so an evaluator on the moved modes alone gives the same max
        domain = request.getfixturevalue(shape)
        modes, _ = request.getfixturevalue(f"{shape}_modes")
        states = request.getfixturevalue(f"{shape}_traj_seed1").states
        full = request.getfixturevalue(f"{shape}_evaluator")
        moved = np.flatnonzero(np.any(states, axis=0))
        assert 0 < moved.size < len(modes)
        resolution = 50 if shape == "disk" else 40
        evaluator = GridEvaluator(modes[moved], domain, resolution)
        assert evaluator.values.shape == (moved.size, full.points.shape[0])
        linf, reference = evaluator.linf(states), full.linf(states)
        assert np.all(np.abs(linf - reference) <= 1e-14 * reference)

    @pytest.mark.parametrize("shape", ["disk", "ball"])
    def test_no_moved_modes_gives_zero(self, request, shape):
        # an all-zero trajectory moves no mode: the table is empty
        modes, _ = request.getfixturevalue(f"{shape}_modes")
        evaluator = GridEvaluator(modes[:0], request.getfixturevalue(shape),
                                  12)
        assert evaluator.values.shape[0] == 0
        assert np.array_equal(evaluator.linf(np.zeros((3, 300))),
                              np.zeros(3))


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

    def test_column_stack_matches_polyfit(self):
        # each column of a stack is the least-squares line np.polyfit
        # fits to it alone; a 1-D series still gives three floats
        t = np.linspace(0.0, 4.0, 81)
        rng = np.random.default_rng(21)
        values = np.exp(np.outer(t, [-2.0, 0.3, -0.01])
                        + 0.05 * rng.standard_normal((81, 3)))
        amp, rate, res = decay_rate_fit(t, values, (0.5, 3.5))
        assert amp.shape == rate.shape == res.shape == (3,)
        inside = (t >= 0.5) & (t <= 3.5)
        for j in range(3):
            logv = np.log(values[inside, j])
            slope, intercept = np.polyfit(t[inside], logv, 1)
            rms = np.sqrt(np.mean((logv - (slope * t[inside] + intercept))
                                  ** 2))
            assert rate[j] == pytest.approx(-slope, rel=1e-13)
            assert amp[j] == pytest.approx(np.exp(intercept), rel=1e-13)
            assert res[j] == pytest.approx(rms, rel=1e-13)
            single = decay_rate_fit(t, values[:, j], (0.5, 3.5))
            assert all(type(v) is float for v in single)
            assert single == pytest.approx((amp[j], rate[j], res[j]),
                                           rel=1e-13)


class TestNormSeries:
    def test_norm_ordering(self, disk_modes, disk_gains, disk_traj_seed1,
                           disk_evaluator):
        modes, _ = disk_modes
        s = compute_norm_series(disk_traj_seed1, disk_gains, modes,
                                disk_evaluator)
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

    def test_xi_series_matches_lifting_operations(self, disk_modes,
                                                  disk_gains, disk_traj_seed1,
                                                  disk_evaluator):
        # the vectorized xi series agrees with the surrogate norm of the
        # per-state lifting coefficients
        from modalstab.lifting import xi_coefficients
        modes, _ = disk_modes
        s = compute_norm_series(disk_traj_seed1, disk_gains, modes,
                                disk_evaluator)
        picks = [(k, i) for k in (0, 15, 40) for i in range(5)]
        lifted = np.zeros((len(picks), len(modes)))
        for row, (k, i) in zip(lifted, picks):
            row[disk_gains.coupled_rows] = xi_coefficients(
                disk_gains, disk_traj_seed1.states[k, :5])[i]
        direct = series_of(lifted, modes, disk_evaluator).h2_surrogate
        for (k, i), want in zip(picks, direct):
            assert s.xi[k, i] == pytest.approx(want, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("shape", ["disk", "ball"])
    def test_one_extended_gram_per_gain_set(self, shape, request,
                                            monkeypatch):
        # assembly, the norm series' flux term and lift, and the commutation
        # check all read the gain set's one extended Gram, and the columns
        # it feeds are bitwise those of the standalone lifting path: its
        # full lift is exactly 0 off the coupled rows, and xi is the
        # weighted norm of its coupled columns
        domain = request.getfixturevalue(shape)
        modes, _ = request.getfixturevalue(f"{shape}_modes")
        evaluator = request.getfixturevalue(f"{shape}_evaluator")
        gains = synthesize(modes,
                           request.getfixturevalue(f"{shape}_gains").gammas)
        u0 = project_initial_condition(domain, modes, PolynomialSpec(), 1)
        built = []

        def counted(rows, cols):
            built.append((len(rows), len(cols)))
            return boundary_gram(rows, cols)

        for module in (controller, diagnostics, lifting, simulator):
            monkeypatch.setattr(module, "boundary_gram", counted)
        system = assemble_closed_loop(modes, gains, domain)
        traj = integrate(system, u0, 0.05, 4.0)
        series = compute_norm_series(traj, gains, modes, evaluator)
        commutation_check(gains, traj)
        n = gains.n_unstable
        assert built == [(len(modes), n)]

        c = gains.m_list[:, None, :] * (traj.states[:, :n] * gains.a_gain)
        lifted = lifting_coefficients(np.reshape(gains.gammas, (n, 1)), c,
                                      modes)
        mu = modes.mu
        kappa = modes.kappa
        rows = gains.coupled_rows
        assert np.all(np.delete(lifted, rows, axis=-1) == 0.0)
        coupled = np.ascontiguousarray(lifted[..., rows])
        xi = np.sqrt(np.square(coupled) @ (1.0 + mu * mu)[rows]).T
        lap = np.linalg.norm(-kappa * traj.states - traj.boundary_data
                             @ boundary_gram(modes, modes[:n]).T, axis=1)
        assert np.array_equal(series.xi, xi)
        assert np.array_equal(series.laplacian_l2, lap)

    def test_csv_header_and_length(self, disk_modes, disk_gains,
                                   disk_traj_seed1, disk_evaluator, tmp_path):
        modes, _ = disk_modes
        s = compute_norm_series(disk_traj_seed1, disk_gains, modes,
                                disk_evaluator)
        path = tmp_path / "norms.csv"
        write_norm_series_csv(s, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ("t,h2_surrogate,h2_full,linf,laplacian_l2,"
                            "u_norm,dudt_l2,xi_1,xi_2,xi_3,xi_4,xi_5")
        assert len(lines) == 1 + s.times.size


class TestGnRatio:
    def test_single_mode_closed_form(self, disk, disk_modes):
        modes, _ = disk_modes
        s = series_of(np.tile(unit(0), (5, 1)), modes,
                      GridEvaluator(modes, disk, 51),
                      boundary=np.zeros((5, 5)))
        p, q = gn_exponents(disk)
        assert gn_ratio(s, p, q) == pytest.approx(GN_SINGLE_MODE, rel=1e-6)

    def test_exponent_selection(self, disk, ball):
        assert gn_exponents(disk) == (0.5, 0.5)
        assert gn_exponents(ball) == (0.25, 0.75)

    def test_zero_trajectory_rejected(self, disk, disk_modes):
        modes, _ = disk_modes
        s = series_of(np.zeros((5, 300)), modes,
                      GridEvaluator(modes, disk, 12),
                      boundary=np.zeros((5, 5)))
        with pytest.raises(UndefinedRatioError):
            gn_ratio(s, 0.5, 0.5)


class TestVerifyClaims:
    def test_open_loop_fails_with_growth_near_mu1(self, disk_modes,
                                                  disk_u0_seed1,
                                                  disk_evaluator):
        modes, _ = disk_modes
        traj = open_loop(modes, disk_u0_seed1, 0.05, 4.0)
        report = verify_claims(compute_norm_series(traj, None, modes,
                                                   disk_evaluator))
        assert not report["all_pass"]
        h2 = report["metrics"]["h2_surrogate"]
        assert not h2.passed
        # the growth rate is mu_1 up to the slower-growing mode mixture
        assert h2.sigma_hat == pytest.approx(-DISK_MU_1, rel=1e-2)
        assert not report["metrics"]["linf"].passed

    def test_zero_initial_condition_degenerate_pass(self, disk_modes,
                                                    disk_evaluator):
        modes, _ = disk_modes
        traj = open_loop(modes, np.zeros(300), 0.05, 4.0)
        report = verify_claims(compute_norm_series(traj, None, modes,
                                                   disk_evaluator))
        assert report["all_pass"]
        assert all(m.degenerate for m in report["metrics"].values())

    def test_closed_loop_rates_positive(self, disk_modes, disk_gains,
                                        disk_traj_seed1, disk_evaluator):
        modes, _ = disk_modes
        report = verify_claims(compute_norm_series(
            disk_traj_seed1, disk_gains, modes, disk_evaluator))
        for name, fit in report["metrics"].items():
            assert fit.sigma_hat > 0.0, name

    def test_decay_coherence_of_max_norm(self, disk_modes, disk_gains,
                                         disk_traj_seed1, disk_evaluator):
        # the max norm cannot decay slower than the L2 and Laplacian norms
        # that bound it (interpolation mechanism), up to fit slack
        modes, _ = disk_modes
        s = compute_norm_series(disk_traj_seed1, disk_gains, modes,
                                disk_evaluator)
        _, rate_linf, _ = decay_rate_fit(s.times, s.linf, (0.5, 3.5))
        _, rate_l2, _ = decay_rate_fit(s.times, s.l2, (0.5, 3.5))
        _, rate_lap, _ = decay_rate_fit(s.times, s.laplacian_l2, (0.5, 3.5))
        assert rate_linf >= min(rate_l2, rate_lap) - 0.1

    def test_one_solve_matches_per_column_fits(self, disk_modes, disk_gains,
                                               disk_traj_seed1,
                                               disk_evaluator, monkeypatch):
        # every metric of the stack, a degenerate (all-zero) and an invalid
        # (a zero in the window) column among them, is fitted as its own
        # decay_rate_fit call fits it, from one least-squares solve
        modes, _ = disk_modes
        series = compute_norm_series(disk_traj_seed1, disk_gains, modes,
                                     disk_evaluator)
        invalid = series.xi[:, 1].copy()
        invalid[30] = 0.0
        series = dataclasses.replace(series, xi=np.column_stack(
            [series.xi[:, 0], np.zeros(series.times.size), invalid,
             series.xi[:, 2:]]))
        solves = []
        lstsq = np.linalg.lstsq

        def counted(*args, **kwargs):
            solves.append(1)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counted)
        report = verify_claims(series)
        assert len(solves) == 1
        monkeypatch.undo()
        metrics = report["metrics"]
        assert metrics["xi_2"].degenerate and metrics["xi_2"].passed
        assert not metrics["xi_3"].passed
        columns = {name: getattr(series, name) for name in (
            "u_norm", "h2_surrogate", "linf", "laplacian_l2", "dudt_l2")}
        columns.update((f"xi_{i + 1}", series.xi[:, i])
                       for i in range(series.xi.shape[1]))
        assert list(metrics) == list(columns)
        for name, values in columns.items():
            want = fit_metric_per_column(series.times, values, (0.5, 3.5))
            got = metrics[name]
            assert (got.passed, got.degenerate) == (want.passed,
                                                    want.degenerate), name
            for field in ("sigma_hat", "gamma_hat"):
                a, b = getattr(got, field), getattr(want, field)
                assert (math.isnan(a) and math.isnan(b)) or abs(
                    a - b) <= 1e-13 * abs(b), (name, field)
            assert got.residual == want.residual or abs(
                got.residual - want.residual) <= 1e-14, name

    def test_json_report_shape(self, disk_modes, disk_gains,
                               disk_traj_seed1, disk_evaluator):
        import json
        modes, _ = disk_modes
        report = verify_claims(compute_norm_series(
            disk_traj_seed1, disk_gains, modes, disk_evaluator))
        payload = json.loads(claims_report_json(report, {"extra_field": 1}))
        assert payload["window"] == [0.5, 3.5]
        names = {m["metric"] for m in payload["metrics"]}
        assert {"u_norm", "h2_surrogate", "linf", "laplacian_l2",
                "dudt_l2", "xi_1"} <= names
        for entry in payload["metrics"]:
            assert set(entry) == {"metric", "gamma_hat", "sigma_hat",
                                  "residual", "pass", "degenerate"}
        assert payload["extra_field"] == 1

    def test_precomputed_series_gives_same_report(self, disk_modes,
                                                  disk_gains, disk_traj_seed1,
                                                  disk_evaluator):
        # the report carries the series it was given, and the same series
        # gives the same report
        modes, _ = disk_modes
        series = compute_norm_series(disk_traj_seed1, disk_gains, modes,
                                     disk_evaluator)
        given = verify_claims(series)
        assert given["series"] is series
        assert given["window"] == (0.5, 3.5)
        assert claims_report_json(given) == \
            claims_report_json(verify_claims(series))
