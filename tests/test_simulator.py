import dataclasses
import functools
import itertools
import math
import re
import struct
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from modalstab import controller, simulator
from modalstab.basis import (Domain, ModeTable, angular_nodes, angular_rule,
                             boundary_gram, enumerate_modes,
                             project_function)
from modalstab.controller import synthesize
from modalstab.special import quadrature_rule
from modalstab.simulator import (ClosedLoopSystem, ConsistencyError,
                                 CoupledSplit, InsufficientExcitationError,
                                 PolynomialSpec,
                                 Trajectory, assemble_closed_loop,
                                 initial_condition_field,
                                 integrate, lcg_uniform, open_loop,
                                 project_initial_condition,
                                 read_snapshots, reduced_dynamics_fit,
                                 tail_energy, write_snapshots,
                                 write_trajectory_csv)
from modalstab.diagnostics import decay_rate_fit

from _oracles import (dense_generator, dense_split, rk4_substep_loop,
                      step_loop)

DISK_MU_1 = 5.1642035092633039
LAMBDA = 6.61
GAMMAS = {"disk": (6.17, 7.17, 8.17, 9.17, 10.17),
          "ball": (5.147, 6.147, 7.147, 8.147)}


def system_of(gen):
    """An uncontrolled ClosedLoopSystem on the leading-column split of a
    given dense generator, for the synthetic cases."""
    d, K = dense_split(gen)
    s = K.shape[1]
    return ClosedLoopSystem(split=CoupledSplit(d=d, K=K),
                            coupling=np.zeros((s, s)), mu=d.copy())


def with_beta(gains, beta):
    """A copy of the gain set whose extended Gram is the given one."""
    copy = dataclasses.replace(gains)
    copy.__dict__["beta"] = beta
    return copy


def record_step_maps(monkeypatch):
    """The blocks of every step map built from now on, in order."""
    built = []
    step_map = CoupledSplit.step_map

    def recording(self, *args):
        built.append(step_map(self, *args))
        return built[-1]
    monkeypatch.setattr(CoupledSplit, "step_map", recording)
    return built


class TestAssemble:
    def test_leading_block_matches_direct_generator(self, disk_system,
                                                    disk_gains):
        lead = dense_generator(disk_system, disk_gains)[:5, :5]
        assert np.max(np.abs(lead - np.diag(disk_gains.a_direct))) < 1e-12

    def test_coupling_restricted_to_leading_columns(self, disk_system):
        assert disk_system.split.K.shape == (300, 5)
        assert disk_system.split.d.shape == (300,)

    def test_tail_rows_follow_angular_sparsity(self, disk_system, disk_modes):
        modes, _ = disk_modes
        heads = set(modes.code[:5].tolist())
        K = disk_system.split.K
        for n in range(5, 300):
            row_active = np.any(K[n] != 0.0)
            assert row_active == (modes.code[n] in heads)

    @pytest.mark.parametrize("shape", ["disk", "ball"])
    def test_assembled_split_bit_identical_to_dense_formula(self, shape,
                                                            request):
        # the split assembled straight from (mu, beta, C) is the one read
        # off the dense generator diag(mu) - beta C, bit for bit
        system = request.getfixturevalue(f"{shape}_system")
        gains = request.getfixturevalue(f"{shape}_gains")
        dense = dense_split(dense_generator(system, gains))
        for name, want in zip(("d", "K"), dense):
            got = getattr(system.split, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name

    def test_beta_equals_closed_form_rows(self, disk_gains, disk_modes):
        modes, _ = disk_modes
        rows = [0, 5, 17, 120]
        closed = boundary_gram(modes[rows], modes[:5])
        assert np.array_equal(disk_gains.beta[rows], closed)

    def test_mode_table_mismatch_rejected(self, disk, disk_modes, disk_gains):
        modes, _ = disk_modes
        with pytest.raises(ConsistencyError):
            assemble_closed_loop(modes[:200], disk_gains, disk)

    @pytest.mark.parametrize("field", ["mu", "trace_amp"])
    def test_tail_mismatch_rejected(self, disk, field):
        # a gain set synthesized over a table that differs from the run's
        # only past the leading modes, here in mode 21, is rejected as well
        modes, _ = enumerate_modes(disk, LAMBDA, 40)
        values = getattr(modes, field).copy()
        values[20] -= 1.0
        other = dataclasses.replace(modes, **{field: values})
        gains = synthesize(other, (6.17, 7.17, 8.17, 9.17, 10.17))
        with pytest.raises(ConsistencyError, match="different mode table"):
            assemble_closed_loop(modes, gains, disk)
        assert assemble_closed_loop(other, gains, disk).mu[20] == other.mu[20]

    @pytest.mark.parametrize("shape, entry", [("disk", "(0,0)"),
                                              ("ball", "(0,0)")])
    def test_perturbed_gram_fails_quadrature_cross_check(
            self, shape, entry, request, monkeypatch):
        # negative control: a 1e-6 relative error in the closed-form Gram
        # must trip the per-run surface-quadrature check, at the first
        # entry of the coupled rows large enough to exceed the 1e-9
        # tolerance.  The error enters through the extended Gram that a
        # fresh gain set builds on first use, inside assembly
        domain = request.getfixturevalue(shape)
        modes, _ = request.getfixturevalue(f"{shape}_modes")
        gains = synthesize(modes,
                           request.getfixturevalue(f"{shape}_gains").gammas)
        exact = controller.boundary_gram
        monkeypatch.setattr(controller, "boundary_gram",
                            lambda rows, cols: exact(rows, cols) * (1 + 1e-6))
        with pytest.raises(ConsistencyError,
                           match=re.escape(f"Gram entry {entry}=")):
            assemble_closed_loop(modes, gains, domain)

    def test_error_in_unsampled_entry_named(self, disk, disk800_modes,
                                            disk800_gains):
        # the last nonzero entry that the 5 percent sample the check once
        # drew never read
        modes, _ = disk800_modes
        n = disk800_gains.n_unstable
        picks = (lcg_uniform(12345, 2 * (800 * n // 20)) + 1.0) / 2.0
        sampled = set(zip(((picks[0::2] * 800).astype(int) % 800).tolist(),
                          ((picks[1::2] * n).astype(int) % n).tolist()))
        row, col = max(entry for entry in
                       zip(*np.nonzero(disk800_gains.beta))
                       if entry not in sampled)
        beta = disk800_gains.beta.copy()
        beta[row, col] *= 1.0 + 1e-6
        with pytest.raises(ConsistencyError,
                           match=re.escape(f"Gram entry ({row},{col})=")):
            assemble_closed_loop(modes, with_beta(disk800_gains, beta), disk)

    @pytest.mark.parametrize("shape", ["disk", "ball"])
    def test_zeroed_head_key_row_fails(self, shape, request):
        # the coupled rows are chosen from the keys, not read off beta
        domain = request.getfixturevalue(shape)
        modes, _ = request.getfixturevalue(f"{shape}_modes")
        gains = request.getfixturevalue(f"{shape}_gains")
        in_heads = np.isin(modes.code, modes.code[:gains.n_unstable])
        row = int(np.flatnonzero(in_heads)[-1])
        col = int(np.flatnonzero(gains.beta[row])[0])
        beta = gains.beta.copy()
        beta[row] = 0.0
        with pytest.raises(ConsistencyError,
                           match=re.escape(f"Gram entry ({row},{col})=")):
            assemble_closed_loop(modes, with_beta(gains, beta), domain)

    @pytest.mark.parametrize("shape", ["disk", "ball"])
    def test_nonzero_outside_head_keys_fails(self, shape, request):
        # a row holding a nonzero entry is checked whatever its key
        domain = request.getfixturevalue(shape)
        modes, _ = request.getfixturevalue(f"{shape}_modes")
        gains = request.getfixturevalue(f"{shape}_gains")
        in_heads = np.isin(modes.code, modes.code[:gains.n_unstable])
        row = int(np.flatnonzero(~in_heads)[-1])
        beta = gains.beta.copy()
        beta[row, 1] = 1e-3
        with pytest.raises(ConsistencyError,
                           match=re.escape(f"Gram entry ({row},1)=")):
            assemble_closed_loop(modes, with_beta(gains, beta), domain)

    @pytest.mark.parametrize("shape", ["disk", "ball"])
    def test_gram_deviation_reported(self, shape, request):
        system = request.getfixturevalue(f"{shape}_system")
        assert 0.0 <= system.gram_deviation < 1e-12


class TestIntegrate:
    def test_scalar_exponential(self):
        system = system_of([[-1.0]])
        traj = integrate(system, [1.0], 0.05, 1.0)
        assert traj.states[-1, 0] == pytest.approx(math.exp(-1.0), abs=1e-9)

    def test_nilpotent_generator(self):
        # exp(G t) = I + G t; the tail rate equals the lead's, the divided
        # difference's x == y limit, here at 0
        system = system_of([[0.0, 0.0], [1.0, 0.0]])
        traj = integrate(system, [1.0, 0.0], 0.25, 1.0)
        assert np.allclose(traj.states[-1], [1.0, 1.0], atol=1e-14)

    @pytest.mark.parametrize("shape, n_sim", [
        ("disk", 300), ("disk", 800), ("ball", 300), ("ball", 800)])
    def test_matches_dense_expm(self, shape, n_sim):
        # every coordinate against the dense exp(G t_k) u0, relative to its
        # largest value; the dense expm's own error reaches 2.5e-14 on a
        # stiff disk n_sim 800 tail row, which a 40-digit evaluation of
        # the row's cascade shows the step map to be exact on
        domain, modes = mode_table(shape, n_sim)
        gains = controller.scaled_gain_set(modes, GAMMAS[shape], -0.5)
        system = assemble_closed_loop(modes, gains, domain)
        u0 = project_initial_condition(domain, modes, PolynomialSpec(), 1)
        traj = integrate(system, u0, 0.05, 4.0)
        gen = dense_generator(system, gains)
        scale = np.max(np.abs(traj.states), axis=0)
        for k in (1, 20, 80):
            want = scipy.linalg.expm(gen * traj.times[k]) @ u0
            assert np.all(np.abs(traj.states[k] - want) <= 5e-14 * scale), k

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
        prop = scipy.linalg.expm(np.diag(disk_gains.a_direct) * 0.05)
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

    @pytest.mark.parametrize("method", ("expm_step", "rk4"))
    @pytest.mark.parametrize("case", ("disk", "ball", "nilpotent"))
    def test_equals_step_loop_bitwise(self, case, method, request,
                                      monkeypatch):
        if case == "nilpotent":
            system = system_of(SPLIT_CASES[case][0](request))
        else:
            system = request.getfixturevalue(f"{case}_system")
        blocks = record_step_maps(monkeypatch)
        u0 = lcg_uniform(5, system.mu.size)
        traj = integrate(system, u0, 0.05, 4.0, method=method)
        states, truncated = step_loop(system.split, blocks[0], u0, 80)
        assert not traj.truncated and not truncated
        assert traj.states.shape == states.shape
        assert traj.states.tobytes() == states.tobytes()
        boundary = states[:, :system.coupling.shape[0]] @ system.coupling.T
        assert traj.boundary_data.tobytes() == boundary.tobytes()

    @pytest.mark.parametrize("method", ("expm_step", "rk4"))
    def test_mid_run_overflow_matches_step_loop(self, method, monkeypatch):
        # the lead grows by e^1.5 a step and passes 1e12 at step 19; past
        # it the samples run on to inf, and to NaN in the tail, whose
        # coupling (1, -1) meets inf - inf once both lead entries overflow
        system = system_of([[3.0, 0.0, 0.0], [0.0, 3.0, 0.0],
                            [1.0, -1.0, -1.0]])
        blocks = record_step_maps(monkeypatch)
        u0 = np.array([1.0, 0.5, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = integrate(system, u0, 0.5, 300.0, method=method)
        states, truncated = step_loop(system.split, blocks[0], u0, 600)
        assert traj.truncated and truncated
        assert 10 < traj.times.size == states.shape[0] < 30
        # the tail's one-row F product may round differently from the
        # loop's, relative to the sample's size, as the tail cancels
        scale = np.max(np.abs(states), axis=1, keepdims=True)
        assert np.all(np.abs(traj.states - states) <= 1e-14 * scale)

    def test_trajectory_is_the_only_large_allocation(self, disk,
                                                     disk800_modes,
                                                     disk800_gains):
        # the samples fill one buffer in place; a list of per-step states
        # stacked at the end peaked at 2.1 times the trajectory
        modes, _ = disk800_modes
        system = assemble_closed_loop(modes, disk800_gains, disk)
        u0 = project_initial_condition(disk, modes, PolynomialSpec(), seed=1)
        for method in ("expm_step", "rk4"):
            tracemalloc.start()
            try:
                traj = integrate(system, u0, 0.05, 4.0, method=method)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.25 * traj.states.nbytes, method

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

    @pytest.mark.parametrize("shape", ["disk", "ball"])
    def test_only_coupled_and_initial_modes_move(self, request, shape):
        # the boundary input reaches only the modes that share an angular
        # key with a leading mode (L); every other mode outside supp(u0)
        # stays exactly 0.0, which lets the max-norm grid skip it
        domain = request.getfixturevalue(shape)
        modes, summary = request.getfixturevalue(f"{shape}_modes")
        system = request.getfixturevalue(f"{shape}_system")
        coupled = np.isin(modes.code, modes.code[:summary.n_unstable])
        for seed, degree in itertools.product((0, 1, 5), range(4)):
            u0 = project_initial_condition(
                domain, modes, PolynomialSpec(degree=degree), seed)
            states = integrate(system, u0, 0.05, 4.0).states
            moved = np.any(states, axis=0)
            assert not np.any(moved & ~coupled & (u0 == 0.0)), (seed, degree)

    @pytest.mark.parametrize("shape, count", [("disk", 73), ("ball", 68)])
    def test_moved_mode_count_of_default_config(self, request, shape, count):
        states = request.getfixturevalue(f"{shape}_traj_seed1").states
        assert np.count_nonzero(np.any(states, axis=0)) == count

    @pytest.mark.parametrize("method", ("expm_step", "rk4"))
    @pytest.mark.parametrize("shape, n_sim", [
        ("disk", 300), ("disk", 800), ("ball", 300), ("ball", 800)])
    def test_live_rows_equal_every_row_loop(self, shape, n_sim, method,
                                            monkeypatch):
        # only the tail rows with a nonzero F row or u0 entry are
        # propagated; every other row is the +0.0 that a loop over every
        # tail row gives, signed zeros included
        domain, modes = mode_table(shape, n_sim)
        gains = controller.scaled_gain_set(modes, GAMMAS[shape], -0.5)
        system = assemble_closed_loop(modes, gains, domain)
        u0 = project_initial_condition(domain, modes, PolynomialSpec(), 1)
        blocks = record_step_maps(monkeypatch)
        traj = integrate(system, u0, 0.05, 4.0, method=method)
        states, truncated = step_loop(system.split, blocks[0], u0, 80)
        assert not traj.truncated and not truncated
        assert traj.states.tobytes() == states.tobytes()
        n = gains.n_unstable
        live = blocks[0][1].any(axis=1) | (u0[n:] != 0.0)
        assert 0 < np.count_nonzero(live) < live.size / 4
        rest = traj.states[1:, n:][:, ~live]
        assert rest.tobytes() == np.zeros_like(rest).tobytes()


def closed_loop_generator(shape):
    return lambda req: dense_generator(req.getfixturevalue(f"{shape}_system"),
                                       req.getfixturevalue(f"{shape}_gains"))


# (dense generator builder, expected count of lead columns)
SPLIT_CASES = {
    "disk": (closed_loop_generator("disk"), 5),
    "ball": (closed_loop_generator("ball"), 4),
    "open_loop_diagonal": (
        lambda req: np.diag(req.getfixturevalue("disk_system").mu), 0),
    # G^2 = 0: the tail rate equals the lead's, both 0
    "nilpotent": (lambda req: np.array([[0.0, 0.0], [1.0, 0.0]]), 1),
    # tail rates -1 and -2 equal the lead rates bit for bit: the divided
    # difference's x == y limit
    "resonant": (lambda req: np.array([[-1.0, 0.0, 0.0, 0.0],
                                       [0.0, -2.0, 0.0, 0.0],
                                       [0.7, 0.4, -1.0, 0.0],
                                       [0.2, -0.3, 0.0, -2.0]]), 2),
    # tail rates as stiff as disk n_sim 800's (d dt <= -40 at dt 0.05) next
    # to a growing and a decaying lead rate
    "stiff_tail": (lambda req: np.array([[-1.0, 0.0, 0.0, 0.0],
                                         [0.0, 0.5, 0.0, 0.0],
                                         [0.7, -0.4, -800.0, 0.0],
                                         [0.3, 0.9, 0.0, -1500.0]]), 2),
}


def one_step_matrix(split, blocks):
    """The one-step map with the given blocks as a dense matrix: its
    columns are one step of step_loop from the identity's."""
    eye = np.eye(split.d.size)
    return np.stack([step_loop(split, blocks, e, 1)[0][1] for e in eye],
                    axis=1)


class TestCoupledSplit:
    @pytest.mark.parametrize("case", sorted(SPLIT_CASES))
    def test_matches_dense_generator(self, case, request):
        build, lead = SPLIT_CASES[case]
        gen = build(request)
        n = gen.shape[0]
        split = CoupledSplit(*dense_split(gen))
        assert split.K.shape == (n, lead)
        dt = 0.05
        prop = one_step_matrix(split, split.step_map(dt))
        dense = scipy.linalg.expm(gen * dt)
        assert np.max(np.abs(prop - dense)) <= 1e-13 * np.max(np.abs(dense))
        u = lcg_uniform(3, n)
        exact = gen @ u
        assert np.linalg.norm(split.d * u + split.K @ u[:lead] - exact) \
            <= 1e-14 * np.linalg.norm(exact)

    # at dt 1.0 the stiff tail decays by e^-800 and e^-1500, past the
    # smallest double, and its divided differences span a gap of 1500
    @pytest.mark.parametrize("case", sorted(SPLIT_CASES))
    def test_large_step_matches_dense_generator(self, case, request):
        gen = SPLIT_CASES[case][0](request)
        split = CoupledSplit(*dense_split(gen))
        prop = one_step_matrix(split, split.step_map(1.0))
        dense = scipy.linalg.expm(gen)
        assert np.max(np.abs(prop - dense)) <= 1e-13 * np.max(np.abs(dense))

    def test_dense_lead_block_rejected(self):
        # the step map takes the lead block for diagonal; a coupled one is
        # refused at construction, naming its first nonzero entry
        with pytest.raises(ValueError, match=re.escape("K[0, 1] = 0.3 ")):
            CoupledSplit(*dense_split([[-1.0, 0.3], [0.2, -0.5]]))

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


def two_mode_table(mu):
    """A two-row disk table with the given mu and every other field 0."""
    zeros, ints = np.zeros(2), np.zeros(2, dtype=int)
    return ModeTable("disk", np.arange(1, 3), ints, ints, np.arange(1, 3),
                     zeros, zeros, np.array(mu), zeros, zeros)


# (mu, u0, samples kept): e^{5k} first passes 1e12 at k = 6; e^{1000}
# overflows and 0 * inf is NaN at the first step
BAD_ROW_CASES = [((10.0, -1.0), (1.0, 1.0), 6),
                 ((2000.0, -1.0), (0.0, 1.0), 1)]


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

    @pytest.mark.parametrize("mu, u0, kept", BAD_ROW_CASES)
    def test_truncates_at_first_bad_row(self, mu, u0, kept):
        with np.errstate(all="raise"):
            traj = open_loop(two_mode_table(mu), u0, 0.5, 10.0)
        assert traj.truncated
        assert traj.times.size == kept and traj.states.shape == (kept, 2)
        expected = np.array(u0) * np.exp(np.outer(traj.times, mu))
        assert np.array_equal(traj.states, expected)
        assert np.max(np.abs(traj.states)) <= 1e12

    @pytest.mark.parametrize("method", ("expm_step", "rk4"))
    @pytest.mark.parametrize("mu, u0, kept", BAD_ROW_CASES)
    def test_integrate_truncates_by_the_same_rule(self, mu, u0, kept,
                                                  method):
        # an uncoupled system (no lead column) cut where the closed form
        # is; at mu 2000 the step map itself overflows
        system = system_of(np.diag(mu))
        assert system.split.K.shape == (2, 0)
        with np.errstate(all="raise"):
            traj = integrate(system, u0, 0.5, 10.0, method=method)
            exact = open_loop(two_mode_table(mu), u0, 0.5, 10.0)
        assert traj.truncated and exact.truncated
        assert traj.times.size == exact.times.size == kept
        assert traj.states.shape == exact.states.shape


class TestReducedFit:
    def test_recovers_synthetic_generator(self):
        # samples of a dense generator's exact flow, from scipy's expm
        gen = np.array([[-1.0, 0.3], [0.2, -0.5]])
        times = np.arange(401) * 0.01
        states = np.stack([scipy.linalg.expm(gen * t) @ [1.0, -0.7]
                           for t in times])
        traj = Trajectory(times=times, states=states,
                          boundary_data=np.zeros((times.size, 2)))
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


@functools.cache
def mode_table(shape, n_sim):
    domain = Domain(shape, 2.0)
    return domain, enumerate_modes(domain, LAMBDA, n_sim)[0]


def refine_boundary_rule(monkeypatch):
    """Make the projection's boundary angular rule twice as fine."""
    monkeypatch.setattr(simulator, "angular_rule",
                        lambda domain, order, refine: angular_rule(
                            domain, order, 2 * refine))


def field_norm_squared(domain, spec, seed, refine):
    """||u0||^2 by tensor quadrature: Gauss-Legendre in r, exact for the
    radial degree <= 12 of u0^2 r^(dim-1), times angular_rule at u0's
    angular order deg p + 2."""
    R = domain.radius
    radial = quadrature_rule("gauss_legendre", 16 * refine, (0.0, R))
    angles, weights = angular_nodes(
        angular_rule(domain, spec.degree + 2, refine))
    if domain.dim == 2:
        r = radial.nodes[:, None]
        xs = (r * np.cos(angles), r * np.sin(angles))
    else:
        ct, st, ph = angles
        r = radial.nodes[:, None, None]
        xs = (r * st * np.cos(ph), r * st * np.sin(ph),
              r * ct * np.ones_like(ph))
    values = initial_condition_field(domain, spec, seed)(*xs) ** 2
    radial_weights = radial.weights * radial.nodes ** (domain.dim - 1)
    return float(radial_weights
                 @ (values * weights).reshape(radial.nodes.size, -1).sum(1))


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
        for order, c in zip(modes.order, coeffs):
            if order >= 1:
                assert abs(c) < 1e-12

    def test_constant_polynomial_self_convergence(self, disk, disk_modes,
                                                  monkeypatch):
        modes, _ = disk_modes
        spec = PolynomialSpec(degree=0, coefficients=(1.0,))
        coarse = project_initial_condition(disk, modes[:30], spec, seed=1)
        refine_boundary_rule(monkeypatch)
        fine = project_initial_condition(disk, modes[:30], spec, seed=1)
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
    def test_projects_only_excited_angular_orders(self, shape, degree):
        # (R^2 - |x|^2) p with deg p = d has no angular content above
        # order d, so the quadrature oracle is rounding there and the exact
        # projection exactly 0; the kept coefficients agree to rounding,
        # for seeded and explicit coefficients
        for n_sim in (300, 800):
            domain, modes = mode_table(shape, n_sim)
            dropped = modes.order > degree
            explicit = PolynomialSpec(degree, tuple(np.linspace(
                -1.0, 1.5, math.comb(degree + domain.dim, degree))))
            for spec, seed in [(PolynomialSpec(degree=degree), seed)
                               for seed in (0, 1, 5)] + [(explicit, 0)]:
                full = project_function(
                    initial_condition_field(domain, spec, seed), modes,
                    domain)
                cut = project_initial_condition(domain, modes, spec, seed)
                assert np.max(np.abs(full[dropped])) <= 1e-12
                assert np.all(cut[dropped] == 0.0)
                assert np.max(np.abs(cut - full)[~dropped]) \
                    <= 1e-13 * np.max(np.abs(full))

    @pytest.mark.parametrize("shape", ["disk", "ball"])
    def test_field_follows_documented_monomial_order(self, shape, request):
        # coefficients apply to monomials by total degree, then
        # lexicographically by exponent tuple; a wrong coordinate count
        # is rejected, not truncated
        domain = request.getfixturevalue(shape)
        exps = sorted((e for e in itertools.product(range(3),
                                                    repeat=domain.dim)
                       if sum(e) <= 2), key=lambda e: (sum(e), e))
        coeffs = np.arange(1.0, len(exps) + 1.0)
        field = initial_condition_field(
            domain, PolynomialSpec(degree=2, coefficients=tuple(coeffs)), 1)
        xs = [np.linspace(-1.0, 1.0, 7) * (a + 1) / 3
              for a in range(domain.dim)]
        poly = sum(c * np.prod([x**p for x, p in zip(xs, e)], axis=0)
                   for c, e in zip(coeffs, exps))
        expected = (domain.radius**2 - sum(x * x for x in xs)) * poly
        np.testing.assert_allclose(field(*xs), expected, rtol=1e-14,
                                   atol=1e-14)
        for wrong in (xs[:-1], xs + xs[:1]):
            with pytest.raises(TypeError):
                field(*wrong)

    def test_degree_cap(self, disk, disk_modes):
        modes, _ = disk_modes
        with pytest.raises(ValueError):
            project_initial_condition(disk, modes[:5],
                                      PolynomialSpec(degree=4), seed=1)

    @pytest.mark.parametrize("shape", ["disk", "ball"])
    def test_refined_boundary_rule_agrees(self, shape, monkeypatch):
        # the rule at refine 1 is already exact for the boundary integrands
        domain, modes = mode_table(shape, 300)
        coarse = project_initial_condition(domain, modes, PolynomialSpec(), 1)
        refine_boundary_rule(monkeypatch)
        fine = project_initial_condition(domain, modes, PolynomialSpec(), 1)
        assert np.max(np.abs(coarse - fine)) <= 1e-13

    def test_coefficient_count_checked(self, disk, disk_modes):
        modes, _ = disk_modes
        with pytest.raises(ValueError, match="expected 10 coefficients"):
            project_initial_condition(disk, modes[:5], PolynomialSpec(
                degree=3, coefficients=(1.0,) * 9), seed=1)

    @pytest.mark.parametrize("shape,bound", [("disk", 1e-4), ("ball", 3e-3)])
    def test_truncation_tail_obeys_bessel_inequality(self, shape, bound):
        # 1 - sum c^2 / ||u0||^2 is the share of u0 outside the table:
        # nonnegative, small, and shrinking as the table grows
        spec = PolynomialSpec()
        tails = []
        for n_sim in (100, 300, 800):
            domain, modes = mode_table(shape, n_sim)
            coeffs = project_initial_condition(domain, modes, spec, 1)
            tails.append(1.0 - np.sum(coeffs**2)
                         / field_norm_squared(domain, spec, 1, refine=3))
        assert 0.0 <= tails[1] <= bound
        assert tails[0] > tails[1] > tails[2] >= 0.0

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
