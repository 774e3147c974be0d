import numpy as np
import pytest

from modalstab import controller, lifting
from modalstab.basis import ModeTable, boundary_gram, enumerate_modes
from modalstab.controller import ResonanceError, synthesize
from modalstab.lifting import (InsufficientDataError, commutation_check,
                               lifting_coefficients, xi_coefficients)
from modalstab.simulator import (PolynomialSpec, Trajectory, integrate,
                                 project_initial_condition)

from _oracles import full_width_commutation


def dense_solve_oracle(gamma, c, modes):
    """Assemble the projected lifting operator as an explicit dense matrix
    and solve the linear system; independent of the closed-form path."""
    n_sim = len(modes)
    mu = modes.mu
    n = int(np.sum(mu >= 0.0))
    # row n: (gamma -/+ mu_n) d_n = (beta c)_n, assembled densely
    a = np.zeros((n_sim, n_sim))
    for i in range(n_sim):
        a[i, i] = gamma - mu[i] if i < n else gamma + mu[i]
    rhs = boundary_gram(modes, modes[: len(c)]) @ np.asarray(c, dtype=float)
    return np.linalg.solve(a, rhs)


class TestLiftingCoefficients:
    def test_matches_dense_solve(self, disk_modes):
        modes, _ = disk_modes
        c = np.array([1.0, -0.3, 0.7, 0.0, 2.0])
        got = lifting_coefficients(9.0, c, modes)
        oracle = dense_solve_oracle(9.0, c, modes)
        assert np.max(np.abs(got - oracle)) < 1e-12

    def test_single_trace_matches_resolvent_structure(self, disk_modes):
        modes, _ = disk_modes
        gamma = 8.5
        c = np.zeros(5)
        c[0] = 1.0
        got = lifting_coefficients(gamma, c, modes)
        b11 = boundary_gram(modes[:1], modes[:1])[0, 0]
        assert got[0] == pytest.approx(b11 / (gamma - modes.mu[0]),
                                         rel=1e-14)

    def test_zero_boundary_data(self, disk_modes):
        modes, _ = disk_modes
        got = lifting_coefficients(7.0, np.zeros(5), modes)
        assert np.all(got == 0.0)

    def test_linearity(self, disk_modes):
        modes, _ = disk_modes
        rng = np.random.default_rng(3)
        f = rng.standard_normal(5)
        g = rng.standard_normal(5)
        a, b = 1.7, -0.4
        lhs = lifting_coefficients(9.3, a * f + b * g, modes)
        rhs = (a * lifting_coefficients(9.3, f, modes)
               + b * lifting_coefficients(9.3, g, modes))
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(lhs)))

    @pytest.mark.parametrize("gains", ["disk_gains", "ball_gains"])
    def test_zero_off_the_coupled_rows(self, gains, request):
        # a zero row of beta lifts to an exact zero for any shift and any
        # trace coefficients; the coupled rows are those of a head angular
        # key, the N leading rows first
        gs = request.getfixturevalue(gains)
        modes, n = gs.modes, gs.n_unstable
        rows = gs.coupled_rows
        assert np.array_equal(rows, np.flatnonzero(
            np.isin(modes.code, modes.code[:n])))
        assert np.array_equal(rows[:n], np.arange(n))
        rng = np.random.default_rng(17)
        c = rng.standard_normal((n, 9, n))
        lifted = lifting_coefficients(np.reshape(gs.gammas, (n, 1)), c,
                                      modes)
        off = np.delete(lifted, rows, axis=-1)
        assert off.shape[-1] == len(modes) - rows.size > 0
        assert np.all(off == 0.0)
        assert np.all(lifted[..., rows] != 0.0)

    def test_resonance_with_leading_eigenvalue(self, disk_modes):
        modes, _ = disk_modes
        with pytest.raises(ResonanceError):
            lifting_coefficients(modes.mu[0] + 1e-9, np.ones(5), modes)

    def test_resonance_with_tail_eigenvalue(self, disk_modes):
        modes, _ = disk_modes
        gamma = -modes.mu[5] + 1e-9    # mu_6 < 0, so -mu_6 > 0 resonates
        with pytest.raises(ResonanceError) as err:
            lifting_coefficients(gamma, np.ones(5), modes)
        assert "n=6" in str(err.value)

    def test_resonance_names_the_stacked_shift(self, disk_modes):
        # a (G, 1) shift stack is checked as a whole: the error names the
        # resonating shift and mode, not the first shift of the stack
        modes, _ = disk_modes
        gamma = -modes.mu[5] + 1e-9
        with pytest.raises(ResonanceError) as err:
            lifting_coefficients(np.array([[9.0], [gamma]]),
                                 np.ones((2, 3, 5)), modes)
        assert f"gamma={gamma} " in str(err.value)
        assert "n=6" in str(err.value)

    def test_resonance_blowup_slope(self, disk_modes):
        # |d_1| grows like 1/(gamma - mu_1): slope -1 on a log-log plot
        modes, _ = disk_modes
        c = np.zeros(5)
        c[0] = 1.0
        eps = np.array([1e-2, 1e-3, 1e-4, 1e-5])
        d1 = [abs(lifting_coefficients(modes.mu[0] + e, c, modes)[0])
              for e in eps]
        slope = np.polyfit(np.log(eps), np.log(d1), 1)[0]
        assert abs(slope + 1.0) < 0.02


class TestXiCoefficients:
    def test_zero_state(self, disk_gains):
        got = xi_coefficients(disk_gains, np.zeros(5))
        assert got.shape == (5, disk_gains.coupled_rows.size) == (5, 53)
        assert np.all(got == 0.0)

    def test_leading_consistency_identity(self, disk_gains):
        # (gamma_i - mu_n) <xi_i, phi_n> equals (B M_i A U)_n for n <= N
        gs = disk_gains
        rng = np.random.default_rng(5)
        U = rng.standard_normal(5)
        got = xi_coefficients(gs, U)
        for i in range(5):
            expected = gs.gram * (gs.m_list[i] * (gs.a_gain * U))
            lead = (gs.gammas[i] - gs.a_o) * got[i, :5]
            assert np.max(np.abs(lead - expected)) < 1e-12 * max(
                1.0, np.max(np.abs(expected)))

    @pytest.mark.parametrize("gains", ["disk_gains", "ball_gains"])
    def test_stack_matches_rows(self, gains, request):
        gs = request.getfixturevalue(gains)
        rng = np.random.default_rng(11)
        U = rng.standard_normal((7, gs.n_unstable))
        stack = xi_coefficients(gs, U)
        by_row = np.array([xi_coefficients(gs, u) for u in U])
        for i in range(gs.n_unstable):
            stacked, rows = stack[i], by_row[:, i]
            assert stacked.shape == rows.shape
            assert np.max(np.abs(stacked - rows)) <= 1e-15 * np.max(
                np.abs(rows))

    @pytest.mark.parametrize("gains", ["disk_gains", "ball_gains"])
    def test_gain_stack_matches_single_shift_lifts(self, gains, request):
        # the gain axis is a plain broadcast: each slice is bit for bit the
        # coupled columns of the single-shift lift of that gain's trace
        # coefficients
        gs = request.getfixturevalue(gains)
        rng = np.random.default_rng(13)
        U = rng.standard_normal((7, gs.n_unstable))
        stacked = xi_coefficients(gs, U)
        assert stacked.shape == (gs.n_unstable, 7, gs.coupled_rows.size)
        for i, gamma in enumerate(gs.gammas):
            c = gs.m_list[i] * (U * gs.a_gain)
            single = lifting_coefficients(gamma, c, gs.modes)
            assert np.array_equal(stacked[i], single[:, gs.coupled_rows])

    def test_single_mode_synthetic(self, synthetic_gain_set):
        gs = synthetic_gain_set
        U = np.array([2.0])
        got = xi_coefficients(gs, U)
        g, mu1, b = gs.gammas[0], gs.a_o[0], gs.gram[0]
        expected = b * (1.0 / (g - mu1)) * (gs.a_gain[0] * 2.0) / (g - mu1)
        assert got[0, 0] == pytest.approx(expected, rel=1e-14)


@pytest.fixture(scope="module")
def synthetic_gain_set():
    mode = ModeTable("disk", *(np.array([v]) for v in (
        1, 0, 0, 1, 1.0, 1.0, 1.0, 1.0, 1.0)))
    return synthesize(mode, (3.0,))


class TestSurrogates:
    def test_l2_part_stable_under_refinement(self, disk):
        # the plain coefficient norm of the lifting converges as the mode
        # table grows; only the boundary-trace-blind quadratic weights do not
        rng = np.random.default_rng(9)
        draws = [rng.standard_normal(5) for _ in range(5)]
        draws = [c / np.linalg.norm(c) for c in draws]
        norms = []
        for n_sim in (150, 300, 600):
            modes, _ = enumerate_modes(disk, 6.61, n_sim)
            sup = max(float(np.linalg.norm(
                lifting_coefficients(9.0, c, modes)))
                for c in draws)
            norms.append(sup)
        assert abs(norms[2] - norms[1]) < 0.05 * norms[1]

    @pytest.mark.xfail(reason="the (1 + mu^2)-weighted surrogate of a lifted "
                       "function with nonzero boundary trace gains mass under "
                       "mode-table refinement (the truncated sum grows like "
                       "sum kappa_n); only the L2 part stabilizes",
                       strict=True)
    def test_h2_surrogate_stable_under_refinement(self, disk):
        rng = np.random.default_rng(9)
        draws = [rng.standard_normal(5) for _ in range(5)]
        draws = [c / np.linalg.norm(c) for c in draws]
        sups = []
        for n_sim in (300, 600):
            modes, _ = enumerate_modes(disk, 6.61, n_sim)
            weight = 1.0 + modes.mu ** 2
            # the surrogate sqrt(sum (1 + mu_n^2) d_n^2) of each lifting
            sup = max(float(np.sqrt(np.sum(weight * lifting_coefficients(
                9.0, c, modes) ** 2))) for c in draws)
            sups.append(sup)
        assert abs(sups[1] - sups[0]) < 0.1 * sups[0]


def per_sample_commutation(gain_set, trajectory, i):
    """Reference: lift U[k+1], U[k-1] and their central difference one
    sample at a time and keep the worst deviation."""
    dt = float(trajectory.times[1] - trajectory.times[0])
    U = np.asarray(trajectory.states)[:, :gain_set.n_unstable]
    worst, scale = 0.0, 0.0
    for k in range(1, len(trajectory.times) - 1):
        lhs = (xi_coefficients(gain_set, U[k + 1])[i]
               - xi_coefficients(gain_set, U[k - 1])[i]) / (2.0 * dt)
        rhs = xi_coefficients(gain_set,
                              (U[k + 1] - U[k - 1]) / (2.0 * dt))[i]
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        scale = max(scale, float(np.max(np.abs(rhs))))
    return worst, scale


@pytest.fixture(scope="module")
def ball_traj_seed1(ball, ball_modes, ball_system):
    modes, _ = ball_modes
    u0 = project_initial_condition(ball, modes, PolynomialSpec(), seed=1)
    return integrate(ball_system, u0, 0.05, 4.0)


class TestCommutation:
    @pytest.mark.parametrize("gains, traj", [
        ("disk_gains", "disk_traj_seed1"), ("ball_gains", "ball_traj_seed1")])
    def test_matches_per_sample_loop(self, gains, traj, request):
        gs = request.getfixturevalue(gains)
        trajectory = request.getfixturevalue(traj)
        got = commutation_check(gs, trajectory)
        assert got.shape == (gs.n_unstable,)
        for i in range(gs.n_unstable):
            ref, scale = per_sample_commutation(gs, trajectory, i)
            assert abs(got[i] - ref) <= 1e-15 * scale

    @pytest.mark.parametrize("gains, traj", [
        ("disk_gains", "disk_traj_seed1"), ("ball_gains", "ball_traj_seed1")])
    def test_bitwise_equal_to_full_width(self, gains, traj, request):
        # the coupled-row lift gives the deviations of a lift of every row
        gs = request.getfixturevalue(gains)
        trajectory = request.getfixturevalue(traj)
        got = commutation_check(gs, trajectory)
        assert got.tobytes() == full_width_commutation(gs,
                                                       trajectory).tobytes()
        assert np.all(got > 0.0)

    def test_gram_built_once_per_gain_set(self, disk_gains, disk_traj_seed1,
                                          monkeypatch):
        # one extended Gram for the states, their differences and all
        # gains, built by the gain set itself; once built, none is rebuilt
        gains = synthesize(disk_gains.modes, disk_gains.gammas)
        calls = []
        original = lifting.boundary_gram

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for module in (controller, lifting):
            monkeypatch.setattr(module, "boundary_gram", counting)
        commutation_check(gains, disk_traj_seed1)
        assert len(calls) == 1
        commutation_check(gains, disk_traj_seed1)
        assert len(calls) == 1

    def test_closed_loop_trajectory(self, disk_gains, disk_traj_seed1):
        dev = commutation_check(disk_gains, disk_traj_seed1)
        assert dev.shape == (5,)
        assert np.all(dev < 1e-10)

    def test_constant_state(self, disk_gains):
        times = np.arange(5) * 0.05
        states = np.ones((5, 300))
        traj = Trajectory(times=times, states=states,
                          boundary_data=np.ones((5, 5)))
        assert np.all(commutation_check(disk_gains, traj) == 0.0)

    def test_zero_trajectory(self, disk_gains):
        times = np.arange(4) * 0.05
        traj = Trajectory(times=times, states=np.zeros((4, 300)),
                          boundary_data=np.zeros((4, 5)))
        assert np.all(commutation_check(disk_gains, traj) == 0.0)

    def test_too_few_samples(self, disk_gains):
        traj = Trajectory(times=np.array([0.0, 0.05]),
                          states=np.zeros((2, 300)),
                          boundary_data=np.zeros((2, 5)))
        with pytest.raises(InsufficientDataError):
            commutation_check(disk_gains, traj)
