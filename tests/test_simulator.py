import math
import re
import struct
import sys
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from modalstab import simulator
from modalstab.basis import project_function
from modalstab.simulator import (ClosedLoopSystem, ConsistencyError,
                                 CoupledSplit, InsufficientExcitationError,
                                 PolynomialSpec,
                                 Trajectory, assemble_closed_loop,
                                 coupled_split, initial_condition_field,
                                 integrate, lcg_uniform, open_loop,
                                 project_initial_condition,
                                 read_snapshots, reduced_dynamics_fit,
                                 tail_energy, write_snapshots,
                                 write_trajectory_csv)
from modalstab.diagnostics import decay_rate_fit

from _oracles import dense_coupled_split, dense_generator, rk4_substep_loop

DISK_MU_1 = 5.1642035092633039


def system_of(gen, n_unstable=1):
    """An uncontrolled ClosedLoopSystem on the split of a given dense
    generator, for the synthetic cases."""
    gen = np.asarray(gen, dtype=float)
    return ClosedLoopSystem(split=coupled_split(gen),
                            beta=np.zeros((gen.shape[0], n_unstable)),
                            coupling=np.zeros((n_unstable, n_unstable)),
                            mu=np.diag(gen).copy(), n_unstable=n_unstable)


class TestAssemble:
    def test_leading_block_matches_direct_generator(self, disk_system,
                                                    disk_gains):
        lead = dense_generator(disk_system)[:5, :5]
        assert np.max(np.abs(lead - disk_gains.a_direct)) < 1e-12

    def test_coupling_restricted_to_leading_columns(self, disk_system):
        assert disk_system.split.S.tolist() == list(range(5))
        assert disk_system.split.T.tolist() == list(range(5, 300))

    def test_tail_rows_follow_angular_sparsity(self, disk_system, disk_modes):
        modes, _ = disk_modes
        heads = {m.angular for m in modes[:5]}
        K = disk_system.split.K
        for n in range(5, 300):
            row_active = np.any(K[n] != 0.0)
            assert row_active == (modes[n].angular in heads)

    @pytest.mark.parametrize("shape", ["disk", "ball"])
    def test_assembled_split_bit_identical_to_dense_formula(self, shape,
                                                            request):
        # the split assembled straight from (mu, beta, C) is the one read
        # off the dense generator diag(mu) - beta C, bit for bit
        system = request.getfixturevalue(f"{shape}_system")
        dense = coupled_split(dense_generator(system))
        for name in ("d", "S", "T", "K"):
            got, want = getattr(system.split, name), getattr(dense, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name

    def test_beta_equals_closed_form_rows(self, disk_system, disk_modes):
        from modalstab.basis import boundary_inner
        modes, _ = disk_modes
        for n in (0, 5, 17, 120):
            for j in range(5):
                assert disk_system.beta[n, j] == \
                    boundary_inner(modes[n], modes[j])

    def test_mode_table_mismatch_rejected(self, disk, disk_modes, disk_gains):
        modes, _ = disk_modes
        with pytest.raises(ConsistencyError):
            assemble_closed_loop(modes[:200], disk_gains, disk)

    @pytest.mark.parametrize("shape, entry", [("disk", "(8,1)"),
                                              ("ball", "(9,0)")])
    def test_perturbed_gram_fails_quadrature_cross_check(
            self, shape, entry, request, monkeypatch):
        # negative control: a 1e-6 relative error in the closed-form Gram
        # must trip the per-run surface-quadrature sample, at the first
        # sampled entry large enough to exceed the 1e-9 tolerance
        domain = request.getfixturevalue(shape)
        modes, _ = request.getfixturevalue(f"{shape}_modes")
        gains = request.getfixturevalue(f"{shape}_gains")
        exact = simulator.boundary_gram
        monkeypatch.setattr(simulator, "boundary_gram",
                            lambda rows, cols: exact(rows, cols) * (1 + 1e-6))
        with pytest.raises(ConsistencyError,
                           match=re.escape(f"Gram entry {entry}=")):
            assemble_closed_loop(modes, gains, domain)


class TestIntegrate:
    def test_scalar_exponential(self):
        system = system_of([[-1.0]])
        traj = integrate(system, [1.0], 0.05, 1.0)
        assert traj.states[-1, 0] == pytest.approx(math.exp(-1.0), abs=1e-9)

    def test_nilpotent_generator(self):
        system = system_of([[0.0, 1.0], [0.0, 0.0]])
        traj = integrate(system, [0.0, 1.0], 0.25, 1.0)
        assert np.allclose(traj.states[-1], [1.0, 1.0], atol=1e-14)

    def test_expm_vs_rk4_cross_check(self, disk_system, disk_u0_seed1):
        a = integrate(disk_system, disk_u0_seed1, 0.05, 4.0,
                      method="expm_step")
        b = integrate(disk_system, disk_u0_seed1, 0.05, 4.0, method="rk4")
        rel = np.linalg.norm(a.states[-1] - b.states[-1]) \
            / np.linalg.norm(a.states[-1])
        assert rel < 1e-6

    def test_dt_refinement_expm(self, disk_system, disk_u0_seed1):
        a = integrate(disk_system, disk_u0_seed1, 0.05, 4.0)
        b = integrate(disk_system, disk_u0_seed1, 0.025, 4.0)
        rel = np.linalg.norm(a.states[-1] - b.states[-1]) \
            / np.linalg.norm(a.states[-1])
        assert rel < 1e-8

    def test_semigroup_property(self, disk_system, disk_u0_seed1):
        full = integrate(disk_system, disk_u0_seed1, 0.05, 4.0)
        half = integrate(disk_system, disk_u0_seed1, 0.05, 2.0)
        rest = integrate(disk_system, half.states[-1], 0.05, 2.0)
        rel = np.linalg.norm(rest.states[-1] - full.states[-1]) \
            / np.linalg.norm(full.states[-1])
        assert rel < 1e-9

    def test_leading_block_restart_consistency(self, disk_system, disk_gains,
                                               disk_traj_seed1):
        prop = scipy.linalg.expm(disk_gains.a_direct * 0.05)
        U = disk_traj_seed1.states[:, :5]
        for k in range(U.shape[0] - 1):
            assert np.linalg.norm(prop @ U[k] - U[k + 1]) < 1e-8

    @pytest.mark.parametrize("method", ("expm_step", "rk4"))
    def test_overflow_truncation(self, method):
        system = system_of([[10.0]])
        traj = integrate(system, [1.0], 0.5, 10.0, method=method)
        assert traj.truncated
        assert traj.times.size < 21
        assert np.max(np.abs(traj.states)) <= 1e12

    def test_bad_step_rejected(self, disk_system):
        with pytest.raises(ValueError):
            integrate(disk_system, np.zeros(300), 0.0, 1.0)
        with pytest.raises(ValueError):
            integrate(disk_system, np.zeros(300), 0.5, 0.1)

    def test_initial_state_shape_checked(self, disk_system):
        for size in (299, 301):
            for method in ("expm_step", "rk4"):
                with pytest.raises(ValueError):
                    integrate(disk_system, np.ones(size), 0.05, 1.0,
                              method=method)

    def test_tail_energy_bounded_and_decaying(self, disk_traj_seed1):
        energy = tail_energy(disk_traj_seed1)
        assert np.all(np.isfinite(energy))
        assert energy[-1] < energy[0]


# (dense generator builder, expected coupled columns S)
SPLIT_CASES = {
    "disk": (lambda req: dense_generator(req.getfixturevalue("disk_system")),
             [0, 1, 2, 3, 4]),
    "ball": (lambda req: dense_generator(req.getfixturevalue("ball_system")),
             [0, 1, 2, 3]),
    "open_loop_diagonal": (
        lambda req: np.diag(req.getfixturevalue("disk_system").mu), []),
    "nilpotent": (lambda req: np.array([[0.0, 1.0], [0.0, 0.0]]), [1]),
    "dense_2x2": (lambda req: np.array([[-1.0, 0.3], [0.2, -0.5]]), [0, 1]),
    # tail rates -1 and -2 equal the eigenvalues of the leading 2x2 block
    "resonant": (lambda req: np.array([[-1.0, 0.0, 0.0, 0.0],
                                       [0.5, -2.0, 0.0, 0.0],
                                       [0.7, 0.4, -1.0, 0.0],
                                       [0.2, -0.3, 0.0, -2.0]]), [0, 1]),
    # tail rates as stiff as disk n_sim 800's (d dt <= -40 at dt 0.05) next
    # to a coupled lead block
    "stiff_tail": (lambda req: np.array([[-1.0, 0.3, 0.0, 0.0],
                                         [0.2, 0.5, 0.0, 0.0],
                                         [0.7, -0.4, -800.0, 0.0],
                                         [0.3, 0.9, 0.0, -1500.0]]),
                   [0, 1]),
}


class TestCoupledSplit:
    @pytest.mark.parametrize("case", sorted(SPLIT_CASES))
    def test_matches_dense_generator(self, case, request):
        build, coupled = SPLIT_CASES[case]
        gen = build(request)
        n = gen.shape[0]
        split = coupled_split(gen)
        assert split.S.tolist() == coupled
        assert sorted(split.S.tolist() + split.T.tolist()) == list(range(n))
        dt = 0.05
        step = split.step_map(dt)
        prop = np.stack([step(e) for e in np.eye(n)], axis=1)
        dense = scipy.linalg.expm(gen * dt)
        assert np.max(np.abs(prop - dense)) <= 1e-13 * np.max(np.abs(dense))
        u = lcg_uniform(3, n)
        exact = gen @ u
        assert np.linalg.norm(split.derivative(u) - exact) \
            <= 1e-14 * np.linalg.norm(exact)

    # at dt 1.0 the stiff tail's block 1-norm passes 1500, so the exact map
    # scales by 2^11 and squares 11 times
    @pytest.mark.parametrize("case", sorted(SPLIT_CASES))
    def test_large_step_matches_dense_generator(self, case, request):
        gen = SPLIT_CASES[case][0](request)
        step = coupled_split(gen).step_map(1.0)
        prop = np.stack([step(e) for e in np.eye(gen.shape[0])], axis=1)
        dense = scipy.linalg.expm(gen)
        assert np.max(np.abs(prop - dense)) <= 1e-13 * np.max(np.abs(dense))

    @pytest.mark.parametrize("case", sorted(SPLIT_CASES))
    def test_split_bit_identical_to_dense_formula(self, case, request):
        gen = SPLIT_CASES[case][0](request)
        split = coupled_split(gen)
        got = (split.d, split.S, split.T, split.K)
        for new, old in zip(got, dense_coupled_split(gen)):
            assert new.dtype == old.dtype and new.shape == old.shape
            assert new.tobytes() == old.tobytes()

    @pytest.mark.parametrize("method", ("expm_step", "rk4"))
    def test_integrate_makes_no_pade_expm_call(self, method, disk_system,
                                               disk_u0_seed1):
        # counted on expm's own code object, so a reference bound before
        # the test (a default argument, say) is counted too
        calls = []
        expm_code = scipy.linalg.expm.__code__

        def counter(frame, event, arg):
            if event == "call" and frame.f_code is expm_code:
                calls.append(1)
        previous = sys.getprofile()
        sys.setprofile(counter)
        try:
            traj = integrate(disk_system, disk_u0_seed1, 0.05, 1.0,
                             method=method)
        finally:
            sys.setprofile(previous)
        assert traj.times.size == 21
        assert calls == []


class TestRK4Map:
    @pytest.mark.parametrize("case", sorted(SPLIT_CASES))
    def test_rk4_map_matches_substep_loop(self, case, request):
        gen = SPLIT_CASES[case][0](request)
        if case in ("disk", "ball"):
            system = request.getfixturevalue(f"{case}_system")
        else:
            system = system_of(gen)
        u0 = lcg_uniform(5, gen.shape[0])
        traj = integrate(system, u0, 0.05, 4.0, method="rk4")
        loop = rk4_substep_loop(gen, system.mu, u0, 0.05, 80)
        assert not traj.truncated and traj.states.shape == loop.shape
        gap = np.linalg.norm(traj.states - loop, axis=1)
        assert np.all(gap <= 1e-12 * np.linalg.norm(loop, axis=1))

    def test_rk4_makes_no_substep_derivative_calls(self, disk_system,
                                                   disk_u0_seed1,
                                                   monkeypatch):
        calls = []
        original = CoupledSplit.derivative

        def counting(self, u):
            calls.append(u.shape)
            return original(self, u)
        monkeypatch.setattr(CoupledSplit, "derivative", counting)
        traj = integrate(disk_system, disk_u0_seed1, 0.05, 4.0, method="rk4")
        assert traj.times.size == 81
        assert calls == []


class TestOpenLoop:
    def test_unstable_mode_growth_rate(self, disk_modes):
        modes, _ = disk_modes
        u0 = np.zeros(300)
        u0[0] = 1.0
        traj = open_loop(modes, u0, 0.05, 4.0)
        amp, rate, res = decay_rate_fit(traj.times,
                                        np.abs(traj.states[:, 0]),
                                        (0.0, 4.0))
        assert abs(-rate - DISK_MU_1) < 1e-10
        assert res < 1e-10

    def test_stable_mode_monotone_decay(self, disk_modes):
        modes, _ = disk_modes
        u0 = np.zeros(300)
        u0[10] = 1.0
        traj = open_loop(modes, u0, 0.05, 2.0)
        vals = np.abs(traj.states[:, 10])
        assert np.all(np.diff(vals) < 0)

    def test_zero_initial_data(self, disk_modes):
        modes, _ = disk_modes
        traj = open_loop(modes, np.zeros(300), 0.05, 1.0)
        assert np.all(traj.states == 0.0)
        assert not traj.truncated

    def test_overflow_truncates_with_flag(self, disk_modes):
        modes, _ = disk_modes
        u0 = np.full(300, 1e6)
        traj = open_loop(modes, u0, 0.5, 50.0)
        assert traj.truncated

    # (mu, u0, samples kept): e^{5k} first passes 1e12 at k = 6; e^{1000}
    # overflows and 0 * inf is NaN at the first step
    @pytest.mark.parametrize("mu, u0, kept", [
        ((10.0, -1.0), (1.0, 1.0), 6),
        ((2000.0, -1.0), (0.0, 1.0), 1),
    ])
    def test_truncates_at_first_bad_row(self, mu, u0, kept):
        modes = [SimpleNamespace(mu=m) for m in mu]
        with np.errstate(all="raise"):
            traj = open_loop(modes, u0, 0.5, 10.0)
        assert traj.truncated
        assert traj.times.size == kept and traj.states.shape == (kept, 2)
        expected = np.array(u0) * np.exp(np.outer(traj.times, mu))
        assert np.array_equal(traj.states, expected)
        assert np.max(np.abs(traj.states)) <= 1e12


class TestReducedFit:
    def test_recovers_synthetic_generator(self):
        gen = np.array([[-1.0, 0.3], [0.2, -0.5]])
        system = system_of(gen, n_unstable=2)
        traj = integrate(system, [1.0, -0.7], 0.01, 4.0)
        fit = reduced_dynamics_fit(traj)
        assert np.max(np.abs(fit.matrix - gen)) < 1e-4
        assert fit.residual < 1e-10

    def test_disk_run_identifies_direct_generator(self, disk_system,
                                                  disk_gains, disk_u0_seed1):
        traj = integrate(disk_system, disk_u0_seed1, 0.01, 4.0)
        fit = reduced_dynamics_fit(traj, disk_gains)
        assert fit.residual < 1e-4
        assert fit.dist_direct < 0.1
        assert fit.dist_direct < 1e-2 * fit.dist_minus_s

    def test_zero_trajectory_rejected(self, disk_gains):
        traj = Trajectory(times=np.arange(20) * 0.05,
                          states=np.zeros((20, 300)),
                          boundary_data=np.zeros((20, 5)))
        with pytest.raises(InsufficientExcitationError):
            reduced_dynamics_fit(traj, disk_gains)


class TestInitialCondition:
    def test_zero_polynomial(self, disk, disk_modes):
        modes, _ = disk_modes
        spec = PolynomialSpec(degree=3, coefficients=(0.0,) * 10)
        coeffs = project_initial_condition(disk, modes, spec, seed=1)
        assert np.all(coeffs == 0.0)

    def test_constant_polynomial_is_radial(self, disk, disk_modes):
        modes, _ = disk_modes
        spec = PolynomialSpec(degree=0, coefficients=(1.0,))
        coeffs = project_initial_condition(disk, modes, spec, seed=1)
        for mode, c in zip(modes, coeffs):
            if mode.angular[0] >= 1:
                assert abs(c) < 1e-12

    def test_constant_polynomial_self_convergence(self, disk, disk_modes):
        modes, _ = disk_modes
        spec = PolynomialSpec(degree=0, coefficients=(1.0,))
        coarse = project_initial_condition(disk, modes[:30], spec, seed=1)
        fine = project_initial_condition(disk, modes[:30], spec, seed=1,
                                         refine=2)
        idx = 0  # mode (0, 1)
        assert abs(coarse[idx] - fine[idx]) < 1e-8 * abs(fine[idx])

    def test_seed_determinism(self, disk, disk_modes):
        modes, _ = disk_modes
        a = project_initial_condition(disk, modes[:20], PolynomialSpec(), 7)
        b = project_initial_condition(disk, modes[:20], PolynomialSpec(), 7)
        assert np.array_equal(a, b)
        c = project_initial_condition(disk, modes[:20], PolynomialSpec(), 8)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    @pytest.mark.parametrize("shape", ["disk", "ball"])
    def test_projects_only_excited_angular_orders(self, shape, degree,
                                                  request):
        # (R^2 - |x|^2) p with deg p = d has no angular content above
        # order d, so the full projection is rounding there and the cut
        # one exactly 0; the kept coefficients agree to rounding
        domain = request.getfixturevalue(shape)
        modes, _ = request.getfixturevalue(f"{shape}_modes")
        dropped = np.array([mode.angular[0] > degree for mode in modes])
        spec = PolynomialSpec(degree=degree)
        for seed in (1, 5):
            full = project_function(initial_condition_field(domain, spec,
                                                            seed),
                                    modes, domain)
            cut = project_initial_condition(domain, modes, spec, seed)
            assert np.max(np.abs(full[dropped])) <= 1e-12
            assert np.all(cut[dropped] == 0.0)
            assert np.max(np.abs(cut - full)[~dropped]) \
                <= 1e-13 * np.max(np.abs(full))

    def test_degree_cap(self, disk, disk_modes):
        modes, _ = disk_modes
        with pytest.raises(ValueError):
            project_initial_condition(disk, modes[:5],
                                      PolynomialSpec(degree=4), seed=1)

    def test_lcg_is_reproducible_and_in_range(self):
        a = lcg_uniform(42, 64)
        b = lcg_uniform(42, 64)
        assert np.array_equal(a, b)
        assert np.all((a >= -1.0) & (a < 1.0))

    def test_lcg_matches_documented_recurrence(self):
        # independent re-derivation of the documented generator
        mult, inc, mask = 6364136223846793005, 1442695040888963407, 2**64 - 1
        state = (42 * mult + inc) & mask
        expected = []
        for _ in range(8):
            state = (state * mult + inc) & mask
            expected.append(2.0 * ((state >> 11) / float(2**53)) - 1.0)
        assert np.array_equal(lcg_uniform(42, 8), np.array(expected))


class TestArtifacts:
    def test_trajectory_csv_format(self, disk_traj_seed1, tmp_path):
        path = tmp_path / "traj.csv"
        write_trajectory_csv(disk_traj_seed1, path)
        lines = path.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:3] == ["t", "u_1", "u_2"]
        assert header[6] == "tail_energy"
        assert header[7:] == [f"v_coeff_{i}" for i in range(1, 6)]
        assert len(lines) == 1 + disk_traj_seed1.times.size
        row = lines[1].split(",")
        assert float(row[0]) == 0.0
        assert float(row[1]) == disk_traj_seed1.states[0, 0]

    def test_snapshot_round_trip(self, disk_traj_seed1, tmp_path):
        path = tmp_path / "snap.bin"
        write_snapshots(disk_traj_seed1, path)
        raw = path.read_bytes()
        magic, version, n_sim, count = struct.unpack("<4sIII", raw[:16])
        assert magic == b"MSTB" and version == 1
        assert n_sim == 300 and count == disk_traj_seed1.times.size
        assert len(raw) == 16 + 8 * n_sim * count
        _, states = read_snapshots(path)
        assert np.array_equal(states, disk_traj_seed1.states)
