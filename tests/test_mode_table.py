"""The mode table is one array per field, which every function takes: a
sub-table keeps its rows' n, its arrays are read-only, and `modes[i]` is
row i's EigenMode view; the step maps, which power F on the coupled tail
rows only, give the blocks of the all-rows power; and no pipeline path
builds an EigenMode."""

import dataclasses

import numpy as np
import pytest

import modalstab.cli
from _oracles import step_map_all_rows
from modalstab.basis import Domain, EigenMode, enumerate_modes
from modalstab.controller import auto_scale_gains, scaled_gain_set, synthesize
from modalstab.simulator import (PolynomialSpec, assemble_closed_loop,
                                 integrate, project_initial_condition)

LAMBDA = 6.61
GAMMAS = {"disk": (6.17, 7.17, 8.17, 9.17, 10.17),
          "ball": (5.147, 6.147, 7.147, 8.147)}
# rows of the n_sim 300 tables in no particular order, past the head too
SUB_ROWS = np.array([0, 3, 17, 40, 121, 299, 5, 200])


@pytest.fixture(scope="module", params=["disk", "ball"])
def table(request):
    domain = Domain(request.param, 2.0)
    modes, _ = enumerate_modes(domain, LAMBDA, 300)
    return domain, modes


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestTable:
    def test_views_round_trip(self, table):
        _, modes = table
        sub = modes[SUB_ROWS]
        assert [mode.n for mode in sub] == (SUB_ROWS + 1).tolist()
        assert list(sub) == [modes[i] for i in SUB_ROWS]
        assert modes[:][SUB_ROWS].same_as(sub)
        assert not sub.same_as(modes[SUB_ROWS[:-1]])

    def test_arrays_read_only(self, table):
        _, modes = table
        for sub in (modes, modes[SUB_ROWS], modes[::7]):
            with pytest.raises(ValueError):
                sub.mu[0] = 0.0

    def test_replace_builds_a_table(self, table):
        _, modes = table
        mu = modes.mu.copy()
        mu[-1] -= 1.0
        other = dataclasses.replace(modes, mu=mu)
        assert not other.same_as(modes) and not other.mu.flags.writeable
        assert mu.flags.writeable and other.mu[-1] == mu[-1]


@pytest.mark.parametrize("shape", ["disk", "ball"])
@pytest.mark.parametrize("n_sim", [40, 300, 800])
def test_coupled_row_step_map_matches_all_rows(shape, n_sim):
    # F is powered on the tail rows with a nonzero K entry only; the
    # others are exact zeros, as the all-rows power leaves them
    domain = Domain(shape, 2.0)
    modes, _ = enumerate_modes(domain, LAMBDA, n_sim)
    gains = scaled_gain_set(modes, GAMMAS[shape], -0.5)
    split = assemble_closed_loop(modes, gains, domain).split
    tail = split.K[split.K.shape[1]:]
    assert 0 < np.count_nonzero(tail.any(axis=1)) < tail.shape[0]
    for args in ((0.05,), (0.05, 4, 37)):
        got, want = split.step_map(*args), step_map_all_rows(split, *args)
        for block, oracle in zip(got, want):
            assert_same_bits(block, oracle)


def count_eigenmodes(monkeypatch):
    """A list that grows by one for every EigenMode built from now on."""
    built = []
    init = EigenMode.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)
    monkeypatch.setattr(EigenMode, "__init__", counting)
    return built


@pytest.mark.parametrize("shape", ["disk", "ball"])
def test_verify_builds_no_eigenmode(shape, tmp_path, monkeypatch):
    config = tmp_path / "run.cfg"
    config.write_text(f"domain.shape = {shape}\nn_sim = 40\ngrid = 12\n"
                      f"horizon = 1\noutput_dir = {tmp_path / 'out'}\n")
    built = count_eigenmodes(monkeypatch)
    assert modalstab.cli.main(["verify", "--config", str(config)]) in (0, 1)
    assert len(built) == 0


def test_crosscheck_sequence_builds_no_eigenmode(monkeypatch):
    # the library calls of the benchmark's crosscheck operation
    built = count_eigenmodes(monkeypatch)
    domain = Domain("disk", 2.0)
    modes, _ = enumerate_modes(domain, LAMBDA, 800)
    gammas = auto_scale_gains(modes, GAMMAS["disk"], -0.5)
    system = assemble_closed_loop(modes, synthesize(modes, gammas), domain)
    u0 = project_initial_condition(domain, modes, PolynomialSpec(), 1)
    integrate(system, u0, 0.05, 4.0)
    integrate(system, u0, 0.05, 4.0, method="rk4")
    assert len(built) == 0
    assert modes[0].n == 1 and len(built) == 1     # the count is live
