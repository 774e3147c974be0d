import json
import math

import numpy as np
import pytest
import scipy.linalg

from _oracles import dense_synthesis
from modalstab.basis import (Domain, ModeTable, boundary_gram,
                             boundary_traces, count_unstable, enumerate_modes,
                             point_angles)
from modalstab.controller import (GainScalingError, ResonanceError,
                                  SynthesisError, auto_scale_gains,
                                  control_map, gain_set_to_json,
                                  nudge_gammas, scaled_gain_set, synthesize,
                                  validate_gains)
from modalstab.diagnostics import GridEvaluator, compute_norm_series
from modalstab.simulator import assemble_closed_loop, integrate
from modalstab.special import quadrature_rule

GAMMAS_DISK = (6.17, 7.17, 8.17, 9.17, 10.17)
GAMMAS_BALL = (5.147, 6.147, 7.147, 8.147)
# 2 j_{0,1}^2 / 8
DISK_GRAM_11 = 1.4457964907366961


def make_synthetic_mode(mu, amp):
    """A one-row disk table: key (0, "cos"), k = 1, the given mu and
    trace amplitude."""
    kappa = max(1.0 - mu, 0.5)
    return ModeTable("disk", *(np.array([v]) for v in (
        1, 0, 0, 1, math.sqrt(kappa), kappa, mu, 1.0, amp)))


class TestBuildGram:
    """The synthesis Gram B = boundary_gram(head, head) of the leading
    traces."""

    def test_disk_leading_entry(self, disk_modes):
        modes, _ = disk_modes
        gram = boundary_gram(modes[:5], modes[:5])
        assert gram[0, 0] == pytest.approx(DISK_GRAM_11, abs=1e-12)

    def test_cross_family_entries_zero(self, disk_modes):
        modes, _ = disk_modes
        gram = boundary_gram(modes[:5], modes[:5])
        off = gram - np.diag(np.diag(gram))
        assert np.all(off == 0.0)

    def test_exactly_symmetric(self, ball_modes):
        modes, _ = ball_modes
        # the first 30 ball modes repeat angular keys at k = 1, 2, so the
        # second Gram has nonzero off-diagonal entries
        for head in (modes[:4], modes[:30]):
            gram = boundary_gram(head, head)
            assert np.array_equal(gram, gram.T)

    def test_positive_semidefinite(self, disk_modes, ball_modes):
        for modes, _ in (disk_modes, ball_modes):
            gram = boundary_gram(modes[:30], modes[:30])
            assert np.min(np.linalg.eigvalsh(gram)) >= -1e-10


class TestSynthesize:
    def test_disk_benchmark_gains(self, disk_modes):
        modes, _ = disk_modes
        gs = synthesize(modes, GAMMAS_DISK)
        report = validate_gains(gs)
        assert report.margin_s < 0.0          # the simplified candidate
        assert report.margin_direct > 0.0     # the physical projection
        assert report.hurwitz_s and not report.hurwitz_direct

    def test_ball_benchmark_gains(self, ball_modes):
        modes, _ = ball_modes
        gs = synthesize(modes, GAMMAS_BALL)
        report = validate_gains(gs)
        assert report.hurwitz_s and not report.hurwitz_direct

    def test_gain_identity(self, disk_gains, ball_gains):
        for gs in (disk_gains, ball_gains):
            # the diagonal of B_i = M_i B M_i, rebuilt from the rows of m_list
            sum_b = sum(m * m * gs.gram for m in gs.m_list)
            identity = sum_b * gs.a_gain
            assert np.max(np.abs(identity - 1.0)) < 1e-10

    def test_generator_difference_identity(self, disk_gains, ball_gains):
        # the two reduced candidates differ by exactly twice diag(mu)
        for gs in (disk_gains, ball_gains):
            assert np.max(np.abs(gs.a_direct - (2.0 * gs.a_o - gs.s_total))) \
                < 1e-10

    def test_simplification_identity(self, disk_gains):
        # A_o - sum (A_o + gamma_i I) M_i B M_i A collapses to -s_total,
        # on the diagonals
        gs = disk_gains
        acc = np.zeros(gs.n_unstable)
        for g, m in zip(gs.gammas, gs.m_list):
            acc += (gs.a_o + g) * (m * m * gs.gram) * gs.a_gain
        assert np.max(np.abs((gs.a_o - acc) - (-gs.s_total))) < 1e-10

    def test_single_mode_closed_forms(self):
        mode = make_synthetic_mode(mu=1.0, amp=1.0)
        gs = synthesize(mode, (3.0,))
        g, mu1, b = 3.0, 1.0, 1.0
        assert gs.a_gain[0] == pytest.approx((g - mu1) ** 2 / b, rel=1e-14)
        assert gs.s_total[0] == pytest.approx(g, rel=1e-14)
        assert gs.a_direct[0] == pytest.approx(mu1 - (g - mu1), rel=1e-13)

    def test_nonincreasing_gammas_rejected(self, disk_modes):
        modes, _ = disk_modes
        with pytest.raises(SynthesisError):
            synthesize(modes, (7.0, 6.0, 8.0, 9.0, 10.0))

    def test_gamma_colliding_with_mu_rejected(self, disk_modes):
        modes, _ = disk_modes
        bad = (modes.mu[0], 7.17, 8.17, 9.17, 10.17)
        with pytest.raises(SynthesisError):
            synthesize(modes, bad)

    def test_gamma_resonant_with_tail_rejected(self, disk_modes):
        # -mu of tail mode 13 makes the lift of the table singular
        modes, _ = disk_modes
        gamma = float(-modes.mu[12])
        with pytest.raises(ResonanceError, match=f"gamma={gamma} resonates "
                           "with mode n=13 "):
            synthesize(modes, (gamma, 14.34, 16.34, 18.34, 20.34))

    def test_wrong_gain_count_rejected(self, disk_modes):
        modes, _ = disk_modes
        with pytest.raises(SynthesisError):
            synthesize(modes, (6.17, 7.17))


def assert_matches_dense_oracle(modes, gammas):
    """Every diagonal of the gain set equals the dense synthesis's diagonal
    bit for bit, the dense matrices have exact zeros off the diagonal, and
    cond(sum B_i) and both margins equal the SVD and eigenvalue results
    bit for bit; each table mode meets at most one leading trace."""
    gs, dense = synthesize(modes, gammas), dense_synthesis(modes, gammas)
    report = validate_gains(gs)
    for vector, matrix in ((gs.gram, dense.gram), (gs.a_gain, dense.a_gain),
                           (gs.s_total, dense.s_total),
                           (gs.a_direct, dense.a_direct)):
        assert np.array_equal(matrix, np.diag(np.diag(matrix)))
        assert np.array_equal(vector, np.diag(matrix))
    assert gs.cond_sum_b == dense.cond_sum_b
    assert report.margin_direct == dense.margin_direct
    assert report.margin_s == dense.margin_s
    assert np.count_nonzero(gs.beta, axis=1).max() <= 1


class TestDiagonalStructure:
    """With distinct leading angular keys, B, A, S and A_direct are
    diagonal, and each table mode meets at most one leading trace; the
    gain set's vectors are the dense synthesis's diagonals, at shift
    scales 1 and 2."""

    @pytest.mark.parametrize("radius", [1.0, 2.0])
    @pytest.mark.parametrize("shape, lam_r2, n_unstable", [
        ("disk", 10.0, 1), ("disk", 20.0, 3), ("disk", 28.0, 5),
        ("ball", 15.0, 1), ("ball", 26.44, 4), ("ball", 36.0, 9)])
    def test_gain_matrices_exactly_diagonal(self, shape, lam_r2, n_unstable,
                                            radius):
        modes, _ = enumerate_modes(Domain(shape, radius), lam_r2 / radius**2,
                                   60)
        assert count_unstable(modes) == n_unstable
        top = float(np.max(modes.mu[:n_unstable]))
        for scale in (1, 2):
            assert_matches_dense_oracle(
                modes, [scale * (top + i) for i in range(1, n_unstable + 1)])

    @pytest.mark.parametrize("case, gammas", [("disk_modes", GAMMAS_DISK),
                                              ("ball_modes", GAMMAS_BALL)])
    def test_default_configs_match_dense_oracle(self, case, gammas, request):
        modes, _ = request.getfixturevalue(case)
        for scale in (1, 2):
            assert_matches_dense_oracle(modes, [scale * g for g in gammas])


class TestScaleInvariance:
    """The gain set at (R, lambda, gamma) is that at (1, lambda R^2,
    gamma R^2) with every rate divided by R^2; cond(sum B_i) is scale-free.
    (c1_hat is not compared: its time window [0, 4] is not scaled.)"""

    @pytest.mark.parametrize("radius", [0.5, 2.0, 3.0])
    @pytest.mark.parametrize("shape, lam_r2", [
        ("disk", 26.44), ("disk", 10.0), ("ball", 26.44), ("ball", 36.0)])
    def test_rates_scale_as_inverse_radius_squared(self, shape, lam_r2,
                                                   radius):
        unit, _ = enumerate_modes(Domain(shape, 1.0), lam_r2, 60)
        modes, _ = enumerate_modes(Domain(shape, radius), lam_r2 / radius**2,
                                   60)
        n = count_unstable(unit)
        top = float(np.max(unit.mu[:n]))
        gammas = [top + i for i in range(1, n + 1)]
        ref = synthesize(unit, gammas)
        gs = synthesize(modes, [g / radius**2 for g in gammas])
        ref_report, report = validate_gains(ref), validate_gains(gs)
        r2 = radius**2
        for got, want in (
                (r2 * gs.a_o, ref.a_o), (r2 * gs.a_direct, ref.a_direct),
                (r2 * gs.s_total, ref.s_total),
                (r2 * report.margin_direct, ref_report.margin_direct),
                (r2 * report.margin_s, ref_report.margin_s),
                (gs.cond_sum_b, ref.cond_sum_b)):
            assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))

    @pytest.mark.parametrize("radius", [0.5, 2.0, 3.0])
    @pytest.mark.parametrize("shape", ["disk", "ball"])
    def test_generator_and_trajectory_scale(self, shape, radius):
        # (R, lambda, gamma, dt, T) against (1, lambda R^2, gamma R^2,
        # dt / R^2, T / R^2): G scales as 1 / R^2, and the states from one
        # modal u0 agree sample for sample, each coordinate to 1e-13 of its
        # largest magnitude, as some pass through 0
        r2 = radius**2
        unit_domain, domain = Domain(shape, 1.0), Domain(shape, radius)
        unit, _ = enumerate_modes(unit_domain, 26.44, 60)
        modes, _ = enumerate_modes(domain, 26.44 / r2, 60)
        n = count_unstable(unit)
        gammas = [float(np.max(unit.mu[:n])) + i for i in range(1, n + 1)]
        u0 = np.cos(np.arange(60)) / np.arange(1, 61)
        # the same unit-radius times for every R
        dt, horizon = 0.01 * r2, 0.5 * r2
        ref = assemble_closed_loop(unit, synthesize(unit, gammas),
                                   unit_domain)
        system = assemble_closed_loop(
            modes, synthesize(modes, [g / r2 for g in gammas]), domain)
        ref_run = integrate(ref, u0, dt / r2, horizon / r2)
        run = integrate(system, u0, dt, horizon)
        for got, want in ((r2 * system.split.d, ref.split.d),
                          (r2 * system.split.k, ref.split.k),
                          (run.times, r2 * ref_run.times)):
            assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))
        assert run.states.shape == ref_run.states.shape == (51, 60)
        assert np.all(np.abs(run.states - ref_run.states)
                      <= 1e-13 * np.max(np.abs(ref_run.states), axis=0))


    @pytest.mark.parametrize("radius", [0.5, 2.0, 3.0])
    @pytest.mark.parametrize("shape", ["disk", "ball"])
    def test_norm_series_scale(self, shape, radius):
        # with phi_n(x; R) = R^(-dim/2) phi_n(x / R; 1), one modal u0 gives
        # homogeneous norm columns: l2 and u_norm as R^0, laplacian_l2 and
        # dudt_l2 as R^-2, and linf (on the scaled grid) as R^(-dim/2)
        u0 = np.cos(np.arange(60)) / np.arange(1, 61)
        runs = []
        for r2 in (1.0, radius**2):
            domain = Domain(shape, math.sqrt(r2))
            modes, _ = enumerate_modes(domain, 26.44 / r2, 60)
            n = count_unstable(modes)
            top = float(np.max(modes.mu[:n])) * r2
            gains = synthesize(modes, [(top + i) / r2
                                       for i in range(1, n + 1)])
            traj = integrate(assemble_closed_loop(modes, gains, domain), u0,
                             0.01 * r2, 0.5 * r2)
            runs.append(compute_norm_series(
                traj, gains, modes, GridEvaluator(modes, domain, 15)))
        ref, got = runs
        dim = 2 if shape == "disk" else 3
        for name, power in (("l2", 0), ("u_norm", 0), ("laplacian_l2", -2),
                            ("dudt_l2", -2), ("linf", -dim / 2)):
            want = getattr(ref, name) * radius**power
            assert np.all(np.abs(getattr(got, name) - want)
                          <= 1e-12 * want), name


class TestHurwitzMargin:
    """The margins validate_gains reports, as largest diagonal entries."""

    def test_disk_simplified_candidate_negative(self, disk_modes):
        modes, _ = disk_modes
        gs = synthesize(modes, GAMMAS_DISK)
        assert validate_gains(gs).margin_s < 0.0


class TestValidateGains:
    def test_stable_synthetic_pair(self):
        mode = make_synthetic_mode(mu=1.0, amp=1.0)
        gs = synthesize(mode, (3.0,))
        report = validate_gains(gs)
        assert report.hurwitz_s and report.hurwitz_direct
        assert report.margin_direct == pytest.approx(-1.0, rel=1e-12)
        assert report.c1_hat >= 1.0

    def test_invalid_gains_reported_not_raised(self, disk_modes):
        modes, _ = disk_modes
        report = validate_gains(synthesize(modes, GAMMAS_DISK))
        assert report.hurwitz_direct is False

    @pytest.mark.parametrize("case", ["disk_gains", "ball_gains",
                                      "disk_unscaled"])
    def test_propagator_norms_match_expm_oracle(self, case, request,
                                                disk_modes):
        # ||exp(A_direct t)||_2 = exp(margin_direct t), and c1_hat is its
        # sup over the 81 sample times weighted by e^{sigma_hat t}
        if case == "disk_unscaled":
            # the documented disk shifts: A_direct is not Hurwitz
            gs = synthesize(disk_modes[0], GAMMAS_DISK)
            assert gs.margin_direct > 0.0
        else:
            gs = request.getfixturevalue(case)
        report = validate_gains(gs)
        times = np.linspace(0.0, 4.0, 81)
        norms = np.linalg.norm(
            scipy.linalg.expm(np.diag(gs.a_direct) * times[:, None, None]), 2,
            axis=(1, 2))
        closed = np.exp(report.margin_direct * times)
        assert np.max(np.abs(norms - closed) / norms) <= 1e-13
        oracle = np.max(norms * np.exp(report.sigma_hat * times))
        assert abs(report.c1_hat - oracle) <= 1e-13 * oracle

    def test_transient_constant_for_scaled_disk(self, disk_gains):
        report = validate_gains(disk_gains)
        assert report.hurwitz_direct
        assert report.sigma_hat == pytest.approx(-0.95 * report.margin_direct)
        assert 1.0 <= report.c1_hat < 100.0


class TestAutoScale:
    def test_already_valid_is_unchanged(self):
        mode = make_synthetic_mode(mu=1.0, amp=1.0)
        assert auto_scale_gains(mode, (3.0,), -0.5) == (3.0,)

    def test_single_mode_doubling(self):
        # a_direct = 2 mu - gamma, so gamma0=1.5 needs one doubling to reach
        # margin -1
        mode = make_synthetic_mode(mu=1.0, amp=1.0)
        gammas = auto_scale_gains(mode, (1.5,), -0.5)
        assert gammas == (3.0,)
        gs = synthesize(mode, gammas)
        assert gs.margin_direct == pytest.approx(-1.0, rel=1e-12)

    def test_disk_benchmark_scales_once(self, disk_modes):
        modes, _ = disk_modes
        gammas = auto_scale_gains(modes, GAMMAS_DISK, -0.5)
        assert gammas == tuple(2.0 * g for g in GAMMAS_DISK)

    def test_unreachable_target(self, disk_modes):
        modes, _ = disk_modes
        with pytest.raises(GainScalingError):
            auto_scale_gains(modes, GAMMAS_DISK, -1e6)

    def test_resonant_scale_skipped(self, disk_modes):
        # scale 1 would meet the target, but its first shift resonates
        # with tail mode 13; the search goes on to scale 2
        modes, _ = disk_modes
        gammas0 = (float(-modes.mu[12]), 14.34, 16.34, 18.34, 20.34)
        gs = scaled_gain_set(modes, gammas0, -0.5)
        assert gs.gammas == tuple(2.0 * g for g in gammas0)

    def test_margin_eventually_decreasing_in_scale(self, disk_modes):
        modes, _ = disk_modes
        mu = modes.mu[:5]
        margins = []
        for scale in (2, 4, 8):
            gammas = nudge_gammas([scale * g for g in GAMMAS_DISK], mu)
            margins.append(synthesize(modes, gammas).margin_direct)
        assert margins[1] < margins[0] and margins[2] < margins[1]

    def test_nudge_restores_separation(self, disk_modes):
        modes, _ = disk_modes
        mu = modes.mu[:5]
        nudged = nudge_gammas([modes.mu[0], 9.0], mu)
        assert min(abs(nudged[0] - m) for m in mu) > 1e-8


class TestBoundaryControlEval:
    """The boundary input v = sum_j c_j T_n(phi_j) with c = (sum_i M_i A) U,
    formed as (control_map(gs) * U) @ boundary_traces(head, ...)."""

    def test_single_mode_hand_expansion(self, disk):
        mode = make_synthetic_mode(mu=1.0, amp=1.0)
        gs = synthesize(mode, (3.0,))
        U = np.array([1.3])
        traces = boundary_traces(gs.modes, disk,
                                 point_angles(disk, [(2.0, 0.0)]))
        got = (control_map(gs) * U) @ traces
        c = (1.0 / (3.0 - 1.0)) * gs.a_gain[0] * 1.3
        trace = mode.trace_amp[0] / math.sqrt(2.0 * math.pi * 2.0)
        assert got[0] == pytest.approx(c * trace, rel=1e-14)

    def test_trace_projection_matches_matrix_product(self, disk, disk_gains,
                                                     disk_modes):
        # <v, T_n(phi_n)> by boundary quadrature equals (B sum(M_i A) U)_n,
        # each factor diagonal
        modes, _ = disk_modes
        gs = disk_gains
        rng = np.random.default_rng(2)
        U = rng.standard_normal(5)
        rule = quadrature_rule("periodic_trapezoid", 128, (0.0, 2.0 * math.pi))
        pts = 2.0 * np.column_stack([np.cos(rule.nodes), np.sin(rule.nodes)])
        traces = boundary_traces(modes[:5], disk, point_angles(disk, pts))
        c = control_map(gs) * U
        v_vals = c @ traces
        quad = (traces * v_vals) @ rule.weights * 2.0
        expected = gs.gram * c
        assert np.max(np.abs(quad - expected)) < 1e-9


class TestExport:
    def test_json_round_trip(self, disk_gains):
        report = validate_gains(disk_gains)
        payload = json.loads(gain_set_to_json(disk_gains, report))
        assert [float(g) for g in payload["gammas"]] == \
            list(disk_gains.gammas)
        gram = np.array([[float(v) for v in row] for row in payload["B"]])
        assert np.array_equal(gram, np.diag(disk_gains.gram))
        assert float(payload["margin_direct"]) == report.margin_direct
        assert payload["hurwitz_direct"] is True
