import json
import math

import numpy as np
import pytest
import scipy.linalg

from modalstab.basis import (ModeTable, boundary_gram, boundary_traces,
                             point_angles)
from modalstab.controller import (GainScalingError, ResonanceError,
                                  SynthesisError, auto_scale_gains,
                                  control_map, gain_set_to_json,
                                  hurwitz_margin, nudge_gammas,
                                  propagator_norms, scaled_gain_set,
                                  synthesize, validate_gains)
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
            # B_i = M_i B M_i, rebuilt from the rows of m_list
            sum_b = sum(np.outer(m, m) * gs.gram for m in gs.m_list)
            identity = sum_b @ gs.a_gain
            assert np.max(np.abs(identity - np.eye(gs.n_unstable))) < 1e-10

    def test_generator_difference_identity(self, disk_gains, ball_gains):
        # the two reduced candidates differ by exactly twice diag(mu)
        for gs in (disk_gains, ball_gains):
            assert np.max(np.abs(gs.a_direct - (2.0 * gs.a_o - gs.s_total))) \
                < 1e-10

    def test_simplification_identity(self, disk_gains):
        # A_o - sum (A_o + gamma_i I) M_i B M_i A collapses to -s_total
        gs = disk_gains
        n = gs.n_unstable
        acc = np.zeros((n, n))
        for g, m in zip(gs.gammas, gs.m_list):
            factor = gs.a_o + g * np.eye(n)
            acc += factor @ (np.outer(m, m) * gs.gram) @ gs.a_gain
        assert np.max(np.abs((gs.a_o - acc) - (-gs.s_total))) < 1e-10

    def test_single_mode_closed_forms(self):
        mode = make_synthetic_mode(mu=1.0, amp=1.0)
        gs = synthesize(mode, (3.0,))
        g, mu1, b = 3.0, 1.0, 1.0
        assert gs.a_gain[0, 0] == pytest.approx((g - mu1) ** 2 / b, rel=1e-14)
        assert gs.s_total[0, 0] == pytest.approx(g, rel=1e-14)
        assert gs.a_direct[0, 0] == pytest.approx(mu1 - (g - mu1), rel=1e-13)

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


class TestHurwitzMargin:
    def test_diagonal(self):
        assert hurwitz_margin(np.diag([-1.0, -2.0])) == pytest.approx(-1.0)

    def test_rotation_is_marginal(self):
        assert hurwitz_margin(np.array([[0.0, 1.0], [-1.0, 0.0]])) == \
            pytest.approx(0.0, abs=1e-14)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            hurwitz_margin(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_disk_simplified_candidate_negative(self, disk_modes):
        modes, _ = disk_modes
        gs = synthesize(modes, GAMMAS_DISK)
        assert hurwitz_margin(-gs.s_total) < 0.0


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
        if case == "disk_unscaled":
            # the documented disk shifts: A_direct is not Hurwitz
            gs = synthesize(disk_modes[0], GAMMAS_DISK)
            assert hurwitz_margin(gs.a_direct) > 0.0
        else:
            gs = request.getfixturevalue(case)
        times = np.linspace(0.0, 4.0, 81)
        oracle = np.linalg.norm(
            scipy.linalg.expm(gs.a_direct * times[:, None, None]), 2,
            axis=(1, 2))
        got = propagator_norms(gs.a_direct, 0.05, 81)
        assert np.max(np.abs(got - oracle) / oracle) <= 1e-13

    def test_propagator_norms_of_decoupled_generator(self):
        # no off-diagonal entry: the lead block of the step map is diagonal
        rates = np.array([-1.0, 0.5])
        got = propagator_norms(np.diag(rates), 0.25, 5)
        expected = np.exp(0.25 * np.arange(5) * rates.max())
        assert np.max(np.abs(got - expected) / expected) <= 1e-15

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
        assert hurwitz_margin(gs.a_direct) == pytest.approx(-1.0, rel=1e-12)

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
            margins.append(hurwitz_margin(synthesize(modes, gammas).a_direct))
        assert margins[1] < margins[0] and margins[2] < margins[1]

    def test_nudge_restores_separation(self, disk_modes):
        modes, _ = disk_modes
        mu = modes.mu[:5]
        nudged = nudge_gammas([modes.mu[0], 9.0], mu)
        assert min(abs(nudged[0] - m) for m in mu) > 1e-8


class TestBoundaryControlEval:
    """The boundary input v = sum_j c_j T_n(phi_j) with c = (sum_i M_i A) U,
    formed as (control_map(gs) @ U) @ boundary_traces(head, ...)."""

    def test_single_mode_hand_expansion(self, disk):
        mode = make_synthetic_mode(mu=1.0, amp=1.0)
        gs = synthesize(mode, (3.0,))
        U = np.array([1.3])
        traces = boundary_traces(gs.modes, disk,
                                 point_angles(disk, [(2.0, 0.0)]))
        got = (control_map(gs) @ U) @ traces
        c = (1.0 / (3.0 - 1.0)) * gs.a_gain[0, 0] * 1.3
        trace = mode.trace_amp[0] / math.sqrt(2.0 * math.pi * 2.0)
        assert got[0] == pytest.approx(c * trace, rel=1e-14)

    def test_trace_projection_matches_matrix_product(self, disk, disk_gains,
                                                     disk_modes):
        # <v, T_n(phi_n)> by boundary quadrature equals (B sum(M_i A) U)_n
        modes, _ = disk_modes
        gs = disk_gains
        rng = np.random.default_rng(2)
        U = rng.standard_normal(5)
        rule = quadrature_rule("periodic_trapezoid", 128, (0.0, 2.0 * math.pi))
        pts = 2.0 * np.column_stack([np.cos(rule.nodes), np.sin(rule.nodes)])
        traces = boundary_traces(modes[:5], disk, point_angles(disk, pts))
        c = control_map(gs) @ U
        v_vals = c @ traces
        quad = (traces * v_vals) @ rule.weights * 2.0
        expected = gs.gram @ c
        assert np.max(np.abs(quad - expected)) < 1e-9


class TestExport:
    def test_json_round_trip(self, disk_gains):
        report = validate_gains(disk_gains)
        payload = json.loads(gain_set_to_json(disk_gains, report))
        assert [float(g) for g in payload["gammas"]] == \
            list(disk_gains.gammas)
        gram = np.array([[float(v) for v in row] for row in payload["B"]])
        assert np.array_equal(gram, disk_gains.gram)
        assert float(payload["margin_direct"]) == report.margin_direct
        assert payload["hurwitz_direct"] is True
