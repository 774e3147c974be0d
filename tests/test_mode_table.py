"""The mode table is one array per field, which every function takes: a
sub-table keeps its rows' n, its arrays are read-only, and an int index
raises TypeError; the step maps, which write F on the nonzero entries of
K only, give every entry of every tail row's scalar cascade; and no
pipeline path indexes the table by an int."""

import dataclasses

import numpy as np
import pytest

import modalstab.cli
from _oracles import cascade_step
from modalstab.basis import Domain, ModeTable, enumerate_modes
from modalstab.controller import scaled_gain_set
from modalstab.simulator import assemble_closed_loop

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
        assert sub.n.tolist() == (SUB_ROWS + 1).tolist()
        for field in dataclasses.fields(ModeTable)[1:]:
            assert np.array_equal(getattr(sub, field.name),
                                  getattr(modes, field.name)[SUB_ROWS])
        assert modes[:][SUB_ROWS].same_as(sub)
        assert not sub.same_as(modes[SUB_ROWS[:-1]])

    def test_int_index_raises(self, table):
        _, modes = table
        for index in (0, -1, np.int64(3), np.array(3)):
            with pytest.raises(TypeError):
                modes[index]
        mask = np.zeros(len(modes), dtype=bool)
        mask[SUB_ROWS] = True
        for index, rows in ((slice(2, 9, 3), [2, 5, 8]),
                            (mask, np.sort(SUB_ROWS)), (SUB_ROWS, SUB_ROWS)):
            sub = modes[index]
            assert isinstance(sub, ModeTable) and sub.shape == modes.shape
            assert sub.n.tolist() == (np.asarray(rows) + 1).tolist()

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
    # every entry of the step maps, over all tail rows, against the scalar
    # cascade at 30 digits: E and decay are exp(d dt), each F entry of a
    # nonzero K entry (t, j) is the lower-left entry of exp([[d_j dt, 0],
    # [K_tj dt, d_t dt]]), and every other F entry is an exact +0.0, as
    # the cascade of a zero K entry gives; the RK4 power likewise, to the
    # count ulps its squaring carries
    domain = Domain(shape, 2.0)
    modes, _ = enumerate_modes(domain, LAMBDA, n_sim)
    gains = scaled_gain_set(modes, GAMMAS[shape], -0.5)
    split = assemble_closed_loop(modes, gains, domain).split
    s, dt = split.K.shape[1], 0.05
    z, tail = split.d * dt, split.K[s:]
    rows, cols = np.nonzero(tail)
    assert 0 < np.unique(rows).size < tail.shape[0]
    for count, rtol in ((None, 1e-15), (100, 1e-13)):
        E, F, decay = split.step_map(dt, count=count)
        diag = np.exp(z) if count is None else np.array(
            [cascade_step(v, v, 0.0, count)[0] for v in z])
        np.testing.assert_allclose(decay, diag[s:], rtol=rtol, atol=0.0)
        np.testing.assert_allclose(E, diag[:s], rtol=rtol, atol=0.0)
        want = np.zeros_like(F)
        want[rows, cols] = [cascade_step(z[j], z[s + t], tail[t, j] * dt,
                                         count)[1]
                            for t, j in zip(rows, cols)]
        np.testing.assert_allclose(F, want, rtol=rtol, atol=0.0)
        off = np.ones(F.shape, dtype=bool)
        off[rows, cols] = False
        assert_same_bits(F[off], np.zeros(np.count_nonzero(off)))


def count_row_reads(monkeypatch):
    """A list that grows by one for every int index into a ModeTable from
    now on: the row reads that built an EigenMode view before the view was
    retired, and that raise TypeError now."""
    reads = []
    getitem = ModeTable.__getitem__

    def counting(self, index):
        if isinstance(index, (int, np.integer)):
            reads.append(index)
        return getitem(self, index)
    monkeypatch.setattr(ModeTable, "__getitem__", counting)
    return reads


@pytest.mark.parametrize("shape", ["disk", "ball"])
def test_verify_builds_no_eigenmode(shape, tmp_path, monkeypatch):
    config = tmp_path / "run.cfg"
    config.write_text(f"domain.shape = {shape}\nn_sim = 40\ngrid = 12\n"
                      f"horizon = 1\noutput_dir = {tmp_path / 'out'}\n")
    reads = count_row_reads(monkeypatch)
    assert modalstab.cli.main(["verify", "--config", str(config)]) in (0, 1)
    assert len(reads) == 0
    modes, _ = enumerate_modes(Domain(shape, 2.0), LAMBDA, 1)
    with pytest.raises(TypeError):
        modes[0]
    assert len(reads) == 1     # the count is live
