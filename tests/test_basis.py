import math

import numpy as np
import pytest

from _oracles import (ball_candidates, disk_candidates, mode_table_loop,
                      oracle_bessel, oracle_zero_bisection)
from modalstab.basis import (_LANE_BLOCK, CapacityError, Domain, ModeTable,
                             _radial_values, angular_keys, angular_nodes,
                             angular_parities, angular_rule, boundary_gram,
                             boundary_traces, count_unstable, enumerate_modes,
                             export_mode_table, interior_quadrature,
                             mode_values, point_angles, project_function)
from modalstab import special
from modalstab.special import (MAX_ORDER, bessel_j, quadrature_rule,
                               real_spherical_harmonic, spherical_bessel_j)

LAMBDA = 6.61

# leading eigenvalues from the bisection oracle, mu = lambda - (zero/R)^2
DISK_MU = [5.1642035092633039, 2.9395073394690267, 2.9395073394690267,
           0.0163458932091523, 0.0163458932091523]
BALL_MU = [4.1425988997276603, 1.5623178608933425, 1.5623178608933425,
           1.5623178608933425]
# 1 / (sqrt(pi) R J_1(j_{0,1})) with R = 2
DISK_CENTER_VALUE = 0.54338081806563625
# -j_{0,1} / (sqrt(pi) R^2)
DISK_TRACE_VALUE = -0.33919438247534470
# -(pi / 2) sqrt(2 / R^3) Y_00, the l=0 first-mode trace on the R=2 sphere
BALL_TRACE_VALUE = -0.22155673136318950
# 2 j_{0,1}^2 / R^3
DISK_GRAM_11 = 1.4457964907366961
# -(2 pi)(pi) 2 / R^3 = -pi^2/2, modes (l=0,k=1) x (l=0,k=2)
BALL_GRAM_0102 = -4.9348022005446793
# (angular, k) at fixed table positions n of the n_sim 300 tables: the
# highest order, the highest k and the last mode
TABLE_PINS = {
    "disk": {288: ((29, "cos"), 1), 296: ((1, "cos"), 11),
             300: ((10, "cos"), 7)},
    "ball": {282: ((12, -12), 1), 279: ((1, -1), 5), 300: ((12, 6), 1)},
}


def _keys(modes):
    """Each row's angular key as the oracles write it: (m, "cos" / "sin")
    on the disk, (l, m) on the ball."""
    second = modes.second.tolist() if modes.shape == "ball" \
        else np.where(modes.second, "sin", "cos").tolist()
    return list(zip(modes.order.tolist(), second))


def _bits(modes):
    """Every field of every row, floats by their bits, from a table's
    arrays or from the per-mode loop's rows."""
    names = ("alpha", "kappa", "mu", "norm_const", "trace_amp")
    if isinstance(modes, ModeTable):
        return list(zip(modes.n.tolist(), modes.k.tolist(), _keys(modes),
                        *([float.hex(v) for v in getattr(modes, name).tolist()]
                          for name in names)))
    return [(mode.n, mode.k, mode.angular)
            + tuple(float.hex(getattr(mode, name)) for name in names)
            for mode in modes]


def _table_extremes(modes):
    """Rows of the highest-order mode, the highest-k mode and the last
    mode."""
    rows = range(len(modes))
    return [max(rows, key=lambda i: (modes.order[i], modes.k[i])),
            max(rows, key=lambda i: (modes.k[i], modes.order[i])),
            len(modes) - 1]


class TestEnumeration:
    def test_disk_count_and_values(self, disk_modes):
        modes, summary = disk_modes
        assert summary.n_unstable == 5
        assert summary.n_sim == 300 and len(modes) == 300
        for mu, ref in zip(modes.mu, DISK_MU):
            assert abs(mu - ref) < 1e-10

    def test_ball_count_and_values(self, ball_modes):
        modes, summary = ball_modes
        assert summary.n_unstable == 4
        for mu, ref in zip(modes.mu, BALL_MU):
            assert abs(mu - ref) < 1e-10

    def test_eigenvalues_match_bisection_oracle(self, disk, ball, disk_modes,
                                                ball_modes):
        for domain, (modes, _) in [(disk, disk_modes), (ball, ball_modes)]:
            for order, k, mu in zip(modes.order[:12], modes.k[:12],
                                    modes.mu[:12]):
                z = oracle_zero_bisection(order, k,
                                          spherical=(domain.shape == "ball"))
                assert abs(mu - (LAMBDA - (z / domain.radius) ** 2)) < 1e-10

    def test_ball_values_near_reported_benchmark(self, ball_modes):
        modes, _ = ball_modes
        assert abs(modes.mu[0] - 4.147) / 4.147 < 3e-3
        assert abs(modes.mu[1] - 1.566) / 1.566 < 3e-3

    def test_lambda_zero_all_stable(self, disk):
        _, summary = enumerate_modes(disk, 0.0, 10)
        assert summary.n_unstable == 0

    def test_mu_nonincreasing_and_sign_split(self, disk_modes, ball_modes):
        for modes, summary in (disk_modes, ball_modes):
            mus = modes.mu
            assert np.all(np.diff(mus) <= 1e-12)
            n = summary.n_unstable
            assert mus[n - 1] >= 0.0 > mus[n]

    def test_degenerate_multiplets_included(self, disk_modes, ball_modes):
        modes, _ = disk_modes
        assert _keys(modes[1:3]) == [(1, "cos"), (1, "sin")]
        bmodes, _ = ball_modes
        assert _keys(bmodes[1:4]) == [(1, -1), (1, 0), (1, 1)]

    def test_capacity_error(self, disk):
        with pytest.raises(CapacityError):
            enumerate_modes(disk, LAMBDA, 4000)

    def test_capacity_edge(self, disk):
        # the first n_sim whose candidate cut needs J_60's first zero
        modes, _ = enumerate_modes(disk, LAMBDA, 946)
        assert len(modes) == 946
        with pytest.raises(CapacityError,
                           match="^n_sim=947 requires Bessel orders beyond 60$"):
            enumerate_modes(disk, LAMBDA, 947)

    @pytest.mark.parametrize("shape", ["disk", "ball"])
    @pytest.mark.parametrize("n_sim", [300, 800])
    def test_recurrence_passes(self, monkeypatch, shape, n_sim):
        # one zero scan, three Halley steps and the normalization pass
        calls = []
        miller = special._miller
        monkeypatch.setattr(special, "_miller",
                            lambda *args: calls.append(1) or miller(*args))
        enumerate_modes(Domain(shape, 2.0), LAMBDA, n_sim)
        assert len(calls) <= 5

    @pytest.mark.parametrize("radius, lam", [(1.3, 3.0), (2.0, LAMBDA),
                                             (0.5, 0.0)])
    def test_order_matches_per_shape_oracle(self, radius, lam):
        # n_sim 2 and 3 cut the disk's first m = 1 pair and the ball's
        # first l = 1 triplet; the larger tables end mid-multiplet too.
        # Every field is bit for bit the per-mode loop's
        oracles = {"disk": disk_candidates, "ball": ball_candidates}
        for shape, oracle in oracles.items():
            domain = Domain(shape, radius)
            for n_sim in (1, 2, 3, 4, 5, 7, 10, 37, 301, 800):
                modes, summary = enumerate_modes(domain, lam, n_sim)
                got = list(zip(modes.alpha.tolist(), _keys(modes),
                               modes.k.tolist()))
                assert got == oracle(n_sim), (shape, n_sim)
                assert _bits(modes) == \
                    _bits(mode_table_loop(domain, lam, n_sim)), (shape, n_sim)
                assert summary.eigenvalues == tuple(modes.mu.tolist())

    @pytest.mark.parametrize("shape, n_sim", [("disk", 946), ("ball", 2000)])
    def test_largest_tables_match_per_mode_loop(self, shape, n_sim):
        # the disk's largest table under the order cap, and a ball table
        # reaching degree 25
        domain = Domain(shape, 2.0)
        modes, summary = enumerate_modes(domain, LAMBDA, n_sim)
        assert _bits(modes) == _bits(mode_table_loop(domain, LAMBDA, n_sim))
        assert summary.n_unstable == count_unstable(modes)

    @pytest.mark.parametrize("shape, n_sim, oracle", [
        ("disk", 947, disk_candidates), ("ball", 20000, ball_candidates)])
    def test_capacity_message_matches_oracle(self, shape, n_sim, oracle):
        with pytest.raises(CapacityError) as merged:
            enumerate_modes(Domain(shape, 2.0), LAMBDA, n_sim)
        with pytest.raises(CapacityError) as expected:
            oracle(n_sim)
        assert str(merged.value) == str(expected.value)

    def test_alpha_sample_matches_bisection_oracle(self, disk, ball,
                                                   disk_modes, ball_modes):
        for domain, (modes, _) in [(disk, disk_modes), (ball, ball_modes)]:
            keys = _keys(modes)
            for n, key in TABLE_PINS[domain.shape].items():
                assert (keys[n - 1], modes.k[n - 1]) == key
            sample = modes[np.r_[0:len(modes):37, _table_extremes(modes)]]
            for order, k, alpha in zip(sample.order, sample.k, sample.alpha):
                z = oracle_zero_bisection(order, k,
                                          spherical=(domain.shape == "ball"))
                assert abs(alpha - z) <= 1e-13 * z

    def test_radius_independent_ordering(self):
        small = Domain("disk", 0.5)
        modes, summary = enumerate_modes(small, LAMBDA, 10)
        # kappa scales with 1/R^2, so a small disk has no unstable modes here
        assert summary.n_unstable == 0
        assert modes.kappa[0] == pytest.approx((modes.alpha[0] / 0.5) ** 2)


class TestEvalMode:
    """Eigenfunction values, all through mode_values."""

    def test_disk_center_value(self, disk, disk_modes):
        modes, _ = disk_modes
        assert mode_values(modes[:1], disk, [(0.0, 0.0)])[0, 0] == \
            pytest.approx(DISK_CENTER_VALUE, abs=1e-12)

    def test_dirichlet_boundary(self, disk, ball, disk_modes, ball_modes):
        modes, _ = disk_modes
        theta = 0.8
        pt = (2.0 * math.cos(theta), 2.0 * math.sin(theta))
        assert np.max(np.abs(mode_values(modes[:8], disk, [pt]))) < 1e-12
        bmodes, _ = ball_modes
        assert abs(mode_values(bmodes[:1], ball, [(0.0, 0.0, 2.0)])[0, 0]) \
            < 1e-12

    def test_orthonormality_first_30(self, disk, ball, disk_modes, ball_modes):
        for domain, (modes, _) in [(disk, disk_modes), (ball, ball_modes)]:
            head = modes[:30]
            rules = interior_quadrature(domain, head)
            if domain.shape == "disk":
                radial, azim = rules
                rr, tt = np.meshgrid(radial.nodes, azim.nodes, indexing="ij")
                pts = np.column_stack([(rr * np.cos(tt)).ravel(),
                                       (rr * np.sin(tt)).ravel()])
                w = np.outer(radial.weights * radial.nodes,
                             azim.weights).ravel()
            else:
                radial, polar, azim = rules
                ct = polar.nodes
                st = np.sqrt(1.0 - ct * ct)
                r = radial.nodes[:, None, None]
                x = r * (st[None, :, None] * np.cos(azim.nodes)[None, None, :])
                y = r * (st[None, :, None] * np.sin(azim.nodes)[None, None, :])
                z = r * (ct[None, :, None] * np.ones_like(azim.nodes))
                pts = np.column_stack([x.ravel(), y.ravel(), z.ravel()])
                w = (radial.weights[:, None, None] * radial.nodes[:, None, None] ** 2
                     * polar.weights[None, :, None]
                     * azim.weights[None, None, :]).ravel()
            vals = mode_values(head, domain, pts)
            gram = (vals * w) @ vals.T
            assert np.max(np.abs(gram - np.eye(30))) < 1e-9

    def test_rayleigh_quotient_reproduces_mu(self, disk, disk_modes):
        # quadrature norm of each mode is 1, so (lambda - kappa) <phi,phi>
        # must reproduce mu to high relative accuracy
        modes, _ = disk_modes
        head = modes[np.r_[0:30, 150, 299]]
        radial, azim = interior_quadrature(disk, modes)
        rr, tt = np.meshgrid(radial.nodes, azim.nodes, indexing="ij")
        pts = np.column_stack([(rr * np.cos(tt)).ravel(),
                               (rr * np.sin(tt)).ravel()])
        w = np.outer(radial.weights * radial.nodes, azim.weights).ravel()
        vals = mode_values(head, disk, pts)
        for kappa, mu, row in zip(head.kappa, head.mu, vals):
            norm_sq = float(np.dot(w, row * row))
            rayleigh = (LAMBDA - kappa) * norm_sq
            assert abs(rayleigh - mu) <= 1e-9 * max(1.0, abs(mu))


def _probe_points(domain):
    """Centre, boundary points, and several points on each of a few shared
    radii, so one radius serves many points."""
    R = domain.radius
    rng = np.random.default_rng(5)
    dirs = rng.normal(size=(4, domain.dim))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    radii = np.array([0.0, R, 0.37 * R, 0.81 * R])
    pts = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, domain.dim)
    return np.vstack([pts, rng.uniform(-0.55 * R, 0.55 * R,
                                       size=(6, domain.dim))])


def _mode_sample(modes):
    """Modes sharing (order, k) pairs (cos/sin pairs, ball multiplets) and
    the table's extremes."""
    return modes[np.r_[0:12, _table_extremes(modes)]]


def _per_mode_field(modes, i, domain, r, angles):
    """Row i's eigenfunction on a tensor grid of radii x angle samples, from
    the single-order public evaluators (the per-mode reference)."""
    R = domain.radius
    order, second = int(modes.order[i]), int(modes.second[i])
    if domain.shape == "disk":
        radial = bessel_j(order, modes.alpha[i] * r / R)
        ang = np.ones_like(angles) if order == 0 else \
            (np.sin(order * angles) if second else np.cos(order * angles))
    else:
        radial = spherical_bessel_j(order, modes.alpha[i] * r / R)
        ang = real_spherical_harmonic(order, second, angles[0], angles[1])
    return modes.norm_const[i] * np.outer(radial, ang)


class TestBatchedRadialFactors:
    def test_mode_values_match_per_mode_reference(self, disk, ball,
                                                  disk_modes, ball_modes):
        for domain, (modes, _) in [(disk, disk_modes), (ball, ball_modes)]:
            sample = _mode_sample(modes)
            pts = _probe_points(domain)
            r = np.linalg.norm(pts, axis=1)
            phi = np.arctan2(pts[:, 1], pts[:, 0])
            if domain.shape == "disk":
                angles = phi
            else:
                cos_theta = pts[:, 2] / np.where(r > 0, r, 1.0)
                angles = (np.arccos(np.clip(cos_theta, -1.0, 1.0)), phi)
            vals = mode_values(sample, domain, pts)
            # the reference evaluates point k at radius r[k] and angle k:
            # the diagonal of its radii x angles table
            ref = np.array([np.diag(_per_mode_field(sample, i, domain, r,
                                                    angles))
                            for i in range(len(sample))])
            assert np.max(np.abs(vals - ref)) <= 1e-13

    def test_project_function_matches_per_mode_quadrature(
            self, disk, ball, disk_modes, ball_modes):
        for domain, (modes, _) in [(disk, disk_modes), (ball, ball_modes)]:
            sample = _mode_sample(modes)
            rules = interior_quadrature(domain, sample)
            r = rules[0].nodes
            w_r = rules[0].weights * r ** (domain.dim - 1)
            if domain.shape == "disk":
                th = rules[1].nodes
                angles, w_ang = th, rules[1].weights
                f = lambda x, y: (4.0 - x * x - y * y) \
                    * (1.0 + x + 0.5 * y * y)
                fv = f(np.outer(r, np.cos(th)), np.outer(r, np.sin(th)))
            else:
                theta = np.arccos(rules[1].nodes)
                tt, pp = np.meshgrid(theta, rules[2].nodes, indexing="ij")
                angles = (tt.ravel(), pp.ravel())
                w_ang = np.outer(rules[1].weights, rules[2].weights).ravel()
                f = lambda x, y, z: (4.0 - x * x - y * y - z * z) \
                    * (1.0 + x + 0.5 * y * y - 0.3 * z)
                st, ct = np.sin(angles[0]), np.cos(angles[0])
                fv = f(np.outer(r, st * np.cos(angles[1])),
                       np.outer(r, st * np.sin(angles[1])), np.outer(r, ct))
            coeffs = project_function(f, sample, domain)
            ref = np.array([np.sum(np.outer(w_r, w_ang) * fv
                                   * _per_mode_field(sample, i, domain, r,
                                                     angles))
                            for i in range(len(sample))])
            assert np.max(np.abs(coeffs - ref)) <= 1e-13 * np.max(np.abs(ref))


# interior points off every symmetry plane, at radii where no angular
# order of the n_sim 300 tables is negligible
_PARITY_POINTS = {
    "disk": np.array([[0.9, 0.4], [0.35, 1.3], [1.2, 1.1]]),
    "ball": np.array([[0.9, 0.4, 0.6], [0.35, 1.1, -0.5], [1.0, 0.7, 1.1]]),
}


class TestAngularParities:
    def test_key_parities_match_reflected_mode_values(self, disk, ball,
                                                      disk_modes, ball_modes):
        for domain, (modes, _) in [(disk, disk_modes), (ball, ball_modes)]:
            keys, _ = angular_keys(modes)
            first = {}
            for row, code in enumerate(modes.code.tolist()):
                first.setdefault(code, row)
            sample = modes[[first[code] for code in keys.code.tolist()]]
            pts = _PARITY_POINTS[domain.shape]
            phi = mode_values(sample, domain, pts)
            scale = np.max(np.abs(phi), axis=1, keepdims=True)
            signs = angular_parities(sample, domain)
            for axis in range(domain.dim):
                mirrored = pts.copy()
                mirrored[:, axis] *= -1.0
                reflected = mode_values(sample, domain, mirrored)
                err = np.abs(reflected - signs[:, axis, None] * phi)
                assert np.all(err <= 1e-13 * scale), (domain.shape, axis)


def _per_order_radial(modes, domain, r):
    """norm_const * radial factor of each mode at radii r from one
    single-order public evaluator call per distinct order."""
    R = domain.radius
    single = bessel_j if domain.shape == "disk" else spherical_bessel_j
    out = np.empty((len(modes), r.size))
    for order in set(modes.order.tolist()):
        rows = np.flatnonzero(modes.order == order)
        out[rows] = single(order, np.outer(modes.alpha[rows], r) / R)
    return out * modes.norm_const[:, None]


class TestRadialLanes:
    def test_odd_grid_with_centre_matches_single_order_evaluators(
            self, disk, ball, disk_modes, ball_modes):
        for domain, (modes, _) in [(disk, disk_modes), (ball, ball_modes)]:
            R = domain.radius
            axis = np.linspace(-R, R, 11)
            mesh = np.meshgrid(*[axis] * domain.dim, indexing="ij")
            r = np.linalg.norm(np.column_stack([c.ravel() for c in mesh]),
                               axis=1)
            r = r[r <= R]
            assert np.count_nonzero(r == 0.0) == 1
            vals = _radial_values(modes, domain, r)
            ref = _per_order_radial(modes, domain, r)
            scale = np.max(np.abs(ref), axis=1, keepdims=True)
            assert np.all(np.abs(vals - ref) <= 1e-13 * scale)

    def test_lanes_straddling_a_block_boundary(self, disk, ball, disk_modes,
                                               ball_modes):
        for domain, (modes, _) in [(disk, disk_modes), (ball, ball_modes)]:
            R = domain.radius
            row_pairs = list(zip(modes.order.tolist(), modes.k.tolist()))
            pairs = sorted(set(row_pairs))
            n_r = _LANE_BLOCK // len(pairs) + 3
            # lanes run pair by pair over the radii: this pair's lanes sit
            # on both sides of the first block boundary
            straddling = pairs[_LANE_BLOCK // n_r]
            assert len(pairs) * n_r > _LANE_BLOCK and _LANE_BLOCK % n_r
            r = np.linspace(0.0, R, n_r)
            vals = _radial_values(modes, domain, r)
            ref = _per_order_radial(modes, domain, r)
            scale = np.max(np.abs(ref), axis=1, keepdims=True)
            assert np.all(np.abs(vals - ref) <= 1e-13 * scale)
            n = row_pairs.index(straddling)
            exact = modes.norm_const[n] * np.array(
                [oracle_bessel(modes.order[n], modes.alpha[n] * rk / R,
                               domain.shape == "ball") for rk in r])
            assert np.all(np.abs(vals[n] - exact)
                          <= 1e-13 * np.max(np.abs(exact)))


class TestNormalTrace:
    """Normal traces at Cartesian boundary points, all through
    boundary_traces at their point_angles."""

    def test_disk_constant_trace(self, disk, disk_modes):
        modes, _ = disk_modes
        theta = np.array([0.0, 1.1, 4.0])
        pts = 2.0 * np.column_stack([np.cos(theta), np.sin(theta)])
        traces = boundary_traces(modes[:1], disk, point_angles(disk, pts))
        assert np.max(np.abs(traces - DISK_TRACE_VALUE)) < 1e-12

    def test_disk_cos_mode_vanishes_at_quarter_turn(self, disk, disk_modes):
        modes, _ = disk_modes
        assert _keys(modes[1:2]) == [(1, "cos")]
        angles = point_angles(disk, [(0.0, 2.0)])
        assert abs(boundary_traces(modes[1:2], disk, angles)[0, 0]) < 1e-12

    def test_ball_first_mode_trace(self, ball, ball_modes):
        modes, _ = ball_modes
        pts = [(0.0, 0.0, 2.0), (2.0, 0.0, 0.0),
               (1.2, -0.8, math.sqrt(4.0 - 1.44 - 0.64))]
        traces = boundary_traces(modes[:1], ball, point_angles(ball, pts))
        assert np.max(np.abs(traces - BALL_TRACE_VALUE)) < 1e-12

    def test_matches_finite_difference(self, disk, ball, disk_modes,
                                       ball_modes):
        # second-order one-sided radial derivative at the boundary
        h = 1e-5
        for domain, (modes, _) in [(disk, disk_modes), (ball, ball_modes)]:
            R = domain.radius
            direction = np.array([0.6, 0.8]) if domain.dim == 2 \
                else np.array([0.48, 0.6, 0.64])
            direction = direction / np.linalg.norm(direction)
            inner = mode_values(modes[:6], domain,
                                np.outer([R - h, R - 2 * h], direction))
            fd = (-4.0 * inner[:, 0] + inner[:, 1]) / (2.0 * h)
            traces = boundary_traces(
                modes[:6], domain, point_angles(domain, [R * direction]))
            assert np.max(np.abs(fd - traces[:, 0])) < 1e-6

    def test_trace_amp_closed_form(self, disk_modes, ball_modes):
        for modes, _ in (disk_modes, ball_modes):
            for alpha, amp, k in zip(modes.alpha[:20], modes.trace_amp[:20],
                                     modes.k[:20]):
                expected = alpha * math.sqrt(2.0 / 8.0)
                assert abs(abs(amp) - expected) < 1e-12
                assert math.copysign(1.0, amp) == (-1.0) ** k


class TestBoundaryInner:
    """Entries of the closed-form boundary_gram."""

    def test_disk_diagonal(self, disk_modes):
        modes, _ = disk_modes
        assert boundary_gram(modes[:1], modes[:1])[0, 0] == \
            pytest.approx(DISK_GRAM_11, abs=1e-12)

    def test_cross_family_zero(self, disk_modes):
        # modes 1-3 hold the distinct keys (0, cos), (1, cos), (1, sin)
        modes, _ = disk_modes
        gram = boundary_gram(modes[:3], modes[:3])
        assert np.all(gram[~np.eye(3, dtype=bool)] == 0.0)

    def test_ball_same_family_off_diagonal(self, ball_modes):
        modes, _ = ball_modes
        k2 = np.flatnonzero((modes.order == 0) & (modes.second == 0)
                            & (modes.k == 2))[0]
        assert boundary_gram(modes[:1], modes[[k2]])[0, 0] == \
            pytest.approx(BALL_GRAM_0102, abs=1e-12)

    def test_diagonal_closed_form(self, disk_modes, ball_modes):
        for modes, _ in (disk_modes, ball_modes):
            diagonal = np.diag(boundary_gram(modes[:30], modes[:30]))
            alpha = modes.alpha[:30]
            assert np.max(np.abs(diagonal - 2.0 * alpha**2 / 8.0)) < 1e-10

    def _quadrature_gram(self, domain, modes):
        if domain.shape == "disk":
            azim = quadrature_rule("periodic_trapezoid", 160,
                                   (0.0, 2.0 * math.pi))
            pts = np.column_stack([2.0 * np.cos(azim.nodes),
                                   2.0 * np.sin(azim.nodes)])
            w = azim.weights * 2.0
        else:
            polar = quadrature_rule("gauss_legendre", 60, (-1.0, 1.0))
            azim = quadrature_rule("periodic_trapezoid", 120,
                                   (0.0, 2.0 * math.pi))
            ct = polar.nodes
            st = np.sqrt(1.0 - ct * ct)
            x = 2.0 * st[:, None] * np.cos(azim.nodes)[None, :]
            y = 2.0 * st[:, None] * np.sin(azim.nodes)[None, :]
            z = 2.0 * ct[:, None] * np.ones_like(azim.nodes)[None, :]
            pts = np.column_stack([x.ravel(), y.ravel(), z.ravel()])
            w = np.outer(polar.weights, azim.weights).ravel() * 4.0
        traces = boundary_traces(modes, domain, point_angles(domain, pts))
        return (traces * w) @ traces.T

    @pytest.mark.parametrize("shape", ["disk", "ball"])
    def test_angular_factors_orthonormal_up_to_table_orders(self, shape):
        # The per-run Gram check reads only the rows of the head keys and
        # the nonzero rows; every other entry of beta is a zero between
        # distinct keys, which rests on this: the boundary-orthonormal
        # factors of every key a table can hold (disk orders up to the cap,
        # ball degrees up to those of n_sim 2000) are orthonormal on
        # angular_rule at each pair's order
        domain = Domain(shape, 2.0)
        if shape == "disk":
            top = MAX_ORDER
            keys = [(0, "cos")] + [(m, parity) for m in range(1, top + 1)
                                   for parity in ("cos", "sin")]
        else:
            modes, _ = enumerate_modes(domain, LAMBDA, 2000)
            top = int(modes.order.max())
            assert top == 25
            keys = [(l, m) for l in range(top + 1) for m in range(-l, l + 1)]
        orders = np.array([key[0] for key in keys])
        seconds = np.array([key[1] == "sin" if shape == "disk" else key[1]
                            for key in keys], dtype=int)
        zeros = np.zeros(len(keys))
        units = ModeTable(shape, np.arange(1, len(keys) + 1), orders,
                          seconds, np.ones(len(keys), dtype=int), zeros,
                          zeros, zeros, zeros, np.ones(len(keys)))
        surface = domain.radius ** (domain.dim - 1)
        for order in range(top + 1):
            angles, weights = angular_nodes(angular_rule(domain, order, 1))
            count = np.count_nonzero(orders <= order)    # keys run by order
            traces = boundary_traces(units[:count], domain,
                                     angles).reshape(count, -1)
            own = orders[:count] == order
            gram = (traces[own] * weights.ravel()) @ traces.T * surface
            assert np.max(np.abs(gram - np.eye(count)[own])) <= 1e-12, order

    def test_gram_matches_surface_quadrature(self, disk, ball, disk_modes,
                                             ball_modes):
        for domain, (modes, _) in [(disk, disk_modes), (ball, ball_modes)]:
            head = modes[:30]
            closed = boundary_gram(head, head)
            quad = self._quadrature_gram(domain, head)
            assert np.max(np.abs(closed - quad)) < 1e-9


class TestProjectFunction:
    def test_projects_own_mode_to_unit_vector(self, disk, disk_modes):
        modes, _ = disk_modes
        head = modes[:40]
        target = head[3:4]
        f = lambda x, y: mode_values(
            target, disk, np.column_stack([x.ravel(), y.ravel()]))[0] \
            .reshape(x.shape)
        coeffs = project_function(f, head, disk)
        expected = np.zeros(40)
        expected[3] = 1.0
        assert np.max(np.abs(coeffs - expected)) < 1e-9

    def test_zero_function(self, disk, disk_modes):
        modes, _ = disk_modes
        coeffs = project_function(lambda x, y: np.zeros_like(x), modes[:10],
                                  disk)
        assert np.all(coeffs == 0.0)

    def test_radial_function_has_no_angular_content(self, disk, disk_modes):
        modes, _ = disk_modes
        coeffs = project_function(lambda x, y: 4.0 - x * x - y * y,
                                  modes[:30], disk)
        for order, c in zip(modes.order[:30], coeffs):
            if order >= 1:
                assert abs(c) < 1e-12

    def test_self_convergence_under_refinement(self, disk, disk_modes):
        modes, _ = disk_modes
        f = lambda x, y: (4.0 - x * x - y * y) * (1.0 + x + 0.5 * y * y)
        coarse = project_function(f, modes[:30], disk)
        fine = project_function(f, modes[:30], disk, refine=2)
        scale = np.max(np.abs(fine))
        assert np.max(np.abs(coarse - fine)) < 1e-8 * scale

    def test_bessel_inequality_gap_monotone(self, disk, disk_modes):
        modes, _ = disk_modes
        radial, azim = interior_quadrature(disk, modes)
        f = lambda x, y: np.exp(-(x - 0.3) ** 2 - 0.5 * (y + 0.4) ** 2)
        rr, tt = np.meshgrid(radial.nodes, azim.nodes, indexing="ij")
        fv = f(rr * np.cos(tt), rr * np.sin(tt))
        norm_sq = float(np.einsum("i,j,ij->", radial.weights * radial.nodes,
                                  azim.weights, fv**2))
        coeffs = project_function(f, modes, disk)
        partial = np.cumsum(coeffs**2)
        gaps = norm_sq - partial
        assert np.all(np.diff(gaps) <= 1e-12)
        assert gaps[-1] >= -1e-9


class TestExport:
    def test_mode_table_csv(self, disk_modes, tmp_path):
        modes, _ = disk_modes
        path = tmp_path / "modes.csv"
        export_mode_table(modes[:10], path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ("n,ang1,ang2,k,alpha,kappa,mu,norm_const,"
                            "trace_amp")
        assert len(lines) == 11
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "0" and first[2] == "cos"
        assert float(first[6]) == pytest.approx(DISK_MU[0], abs=1e-12)
