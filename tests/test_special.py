import math

import mpmath as mp
import numpy as np
import pytest

from _oracles import oracle_bessel
from modalstab.special import (MAX_ORDER, UnsupportedOrderError,
                               bessel_j, bessel_j_all, bessel_j_zero,
                               bessel_j_zeros, quadrature_rule,
                               real_spherical_harmonic,
                               real_spherical_harmonics, spherical_bessel_j,
                               spherical_bessel_zero, spherical_bessel_zeros,
                               spherical_j_all)

mp.mp.dps = 30

# zeros refined by bracketed bisection + Newton on the high-precision series
J0_ZERO_1 = 2.404825557695773
J1_ZERO_1 = 3.831705970207512
J2_ZERO_1 = 5.135622301840683
SPH_J1_ZERO_1 = 4.493409457909064
SPH_J2_ZERO_1 = 5.763459196894550
# int_0^2 J0(j01 r / 2)^2 r dr = 2 J1(j01)^2, via the series oracle
BESSEL_NORM_INTEGRAL = 0.53902824788383385


def bisection_zero(f, lo, hi, iters=80):
    """Plain bisection on a sign-change bracket; the independent oracle."""
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if flo * fm > 0:
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestBesselJ:
    def test_order0_at_origin(self):
        assert bessel_j(0, 0.0) == 1.0

    def test_higher_order_at_origin(self):
        assert bessel_j(1, 0.0) == 0.0
        assert bessel_j(7, 0.0) == 0.0

    def test_vanishes_at_first_zero(self):
        assert abs(bessel_j(0, J0_ZERO_1)) < 1e-12

    def test_against_series_oracle(self):
        rng = np.random.default_rng(7)
        for order in [0, 1, 2, 5, 13, 37, 60]:
            xs = np.concatenate([rng.uniform(0.0, 70.0, 12),
                                 [1e-9, 1e-4, 0.5, order + 0.5]])
            vals = bessel_j(order, xs)
            for x, v in zip(xs, vals):
                ref = float(mp.besselj(order, mp.mpf(float(x))))
                if abs(ref) > 1e-12:
                    assert abs(v - ref) <= 1e-12 * abs(ref)
                else:
                    assert abs(v - ref) <= 1e-12

    @pytest.mark.parametrize("spherical", [False, True])
    def test_mixed_small_and_large_arguments(self, spherical):
        # one call at 1e-5 and 90: the recurrence grows by more than one
        # rescale's 140 decades between overflow checks at the small x
        fn = spherical_j_all if spherical else bessel_j_all
        xs = np.array([1e-5, 90.0])
        lane_orders = np.array([0, 0, MAX_ORDER, MAX_ORDER])
        lane_xs = np.tile(xs, 2)
        with np.errstate(over="raise", invalid="raise"):
            table = fn(MAX_ORDER, xs)
            lanes = fn(lane_orders, lane_xs)
        ref = np.array([[oracle_bessel(m, x, spherical) for x in xs]
                        for m in range(MAX_ORDER + 1)])
        lane_ref = np.array([oracle_bessel(m, x, spherical)
                             for m, x in zip(lane_orders, lane_xs)])
        for got, want in ((table, ref), (lanes, lane_ref)):
            bound = 1e-12 * np.where(np.abs(want) > 1e-12, np.abs(want), 1.0)
            assert np.all(np.abs(got - want) <= bound)

    def test_order_cap(self):
        with pytest.raises(UnsupportedOrderError):
            bessel_j(61, 1.0)

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            bessel_j(0, -1.0)


class TestBesselZeros:
    def test_first_zeros_frozen(self):
        assert abs(bessel_j_zero(0, 1) - J0_ZERO_1) < 1e-12
        assert abs(bessel_j_zero(1, 1) - J1_ZERO_1) < 1e-12
        assert abs(bessel_j_zero(2, 1) - J2_ZERO_1) < 1e-12

    def test_against_bisection_oracle(self):
        for order in [0, 3, 9]:
            for k in [1, 2, 5]:
                z = bessel_j_zero(order, k)
                f = lambda x: float(mp.besselj(order, mp.mpf(x)))
                oracle = bisection_zero(f, z - 0.4, z + 0.4)
                assert abs(z - oracle) < 1e-12

    def test_increasing_in_k(self):
        zs = bessel_j_zeros(4, 8)
        assert np.all(np.diff(zs) > 0)

    def test_interlacing(self):
        # j_{m,k} < j_{m+1,k} < j_{m,k+1}
        table = {m: bessel_j_zeros(m, 11) for m in range(12)}
        for m in range(11):
            for k in range(10):
                assert table[m][k] < table[m + 1][k] < table[m][k + 1]

    def test_residual_at_zeros(self):
        for m in range(11):
            for k, z in enumerate(bessel_j_zeros(m, 10), start=1):
                assert abs(bessel_j(m, z)) < 1e-11

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            bessel_j_zero(0, 0)


class TestSphericalBessel:
    def test_sinc_values(self):
        assert spherical_bessel_j(0, 0.0) == 1.0
        assert abs(spherical_bessel_j(0, math.pi)) < 1e-14

    def test_j1_zero(self):
        assert abs(spherical_bessel_j(1, SPH_J1_ZERO_1)) < 1e-12

    def test_zeros_of_j0_are_multiples_of_pi(self):
        for k in (1, 2, 3):
            assert abs(spherical_bessel_zero(0, k) - k * math.pi) < 1e-12

    def test_first_zeros_frozen(self):
        assert abs(spherical_bessel_zero(1, 1) - SPH_J1_ZERO_1) < 1e-12
        assert abs(spherical_bessel_zero(2, 1) - SPH_J2_ZERO_1) < 1e-12

    def test_against_series_oracle(self):
        rng = np.random.default_rng(11)
        for degree in [0, 1, 2, 6, 20, 60]:
            xs = np.concatenate([rng.uniform(0.0, 40.0, 10),
                                 [1e-8, 1e-3, degree + 0.5]])
            vals = spherical_bessel_j(degree, xs)
            for x, v in zip(xs, vals):
                xm = mp.mpf(float(x))
                ref = float(mp.sqrt(mp.pi / (2 * xm))
                            * mp.besselj(degree + mp.mpf(1) / 2, xm)) \
                    if x > 0 else (1.0 if degree == 0 else 0.0)
                if abs(ref) > 1e-12:
                    assert abs(v - ref) <= 1e-12 * abs(ref)
                else:
                    assert abs(v - ref) <= 1e-12

    def test_zero_residuals(self):
        for l in range(8):
            for z in spherical_bessel_zeros(l, 6):
                assert abs(spherical_bessel_j(l, z)) < 1e-11

    def test_signs_match_mpmath(self):
        # the quadratic normalization fixes only |scale|; the sign comes
        # from starting the recurrence above x, where every j_n(x) > 0
        xs = np.linspace(0.75, 80.0, 30)
        ref = np.array([[oracle_bessel(l, x, spherical=True) for x in xs]
                        for l in range(MAX_ORDER + 1)])
        rng = np.random.default_rng(3)
        orders = rng.integers(0, MAX_ORDER + 1, 600)
        lane_xs = rng.uniform(1e-3, 80.0, 600)
        lane_ref = np.array([oracle_bessel(l, x, spherical=True)
                             for l, x in zip(orders, lane_xs)])
        assert np.sum(ref < 0) + np.sum(lane_ref < 0) > 600
        assert np.array_equal(np.sign(spherical_j_all(MAX_ORDER, xs)),
                              np.sign(ref))
        assert np.array_equal(np.sign(spherical_j_all(orders, lane_xs)),
                              np.sign(lane_ref))


class TestLaneMode:
    """An order array gives each lane its own order from one recurrence."""

    @staticmethod
    def _lanes():
        """Every order up to the cap at points on the series path (below
        1e-6), near the turning point x = order, spread up to 90 and at 90;
        shuffled so that one call mixes all orders."""
        rng = np.random.default_rng(5)
        orders, xs = [], []
        for m in range(MAX_ORDER + 1):
            x = np.concatenate([[0.0, 3e-7, 9.9e-7],
                                np.abs(m + rng.uniform(-1.0, 1.0, 2)),
                                rng.uniform(1e-6, 90.0, 3), [90.0]])
            orders += [m] * x.size
            xs.append(x)
        perm = rng.permutation(len(orders))
        return np.array(orders)[perm], np.concatenate(xs)[perm]

    @pytest.mark.parametrize("spherical", [False, True])
    def test_against_mpmath_to_table_scale(self, spherical):
        orders, xs = self._lanes()
        lane_fn = spherical_j_all if spherical else bessel_j_all
        got = lane_fn(orders, xs)
        ref = np.array([oracle_bessel(m, x, spherical)
                        for m, x in zip(orders, xs)])
        # the scale of each order's table: its largest value over the lanes
        scale = {m: np.max(np.abs(ref[orders == m])) for m in set(orders)}
        bound = 1e-13 * np.array([scale[m] for m in orders])
        assert got.shape == xs.shape
        assert np.all(np.abs(got - ref) <= bound)

    def test_matches_table_mode_and_keeps_shape(self):
        orders, xs = self._lanes()
        for lane_fn in (bessel_j_all, spherical_j_all):
            table = lane_fn(MAX_ORDER, xs)[orders, np.arange(xs.size)]
            got = lane_fn(orders.reshape(-1, 9), xs.reshape(-1, 9))
            assert got.shape == (xs.size // 9, 9)
            assert np.max(np.abs(got.ravel() - table)) <= 1e-14

    def test_invalid_lanes_rejected(self):
        with pytest.raises(ValueError):
            bessel_j_all(np.array([0, 1]), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            spherical_j_all(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            bessel_j_all(np.array([2, -1]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            spherical_j_all(np.array([2, 1]), np.array([1.0, -2.0]))


class TestRealSphericalHarmonic:
    def test_constant_harmonic(self):
        expected = 1.0 / math.sqrt(4.0 * math.pi)
        assert abs(real_spherical_harmonic(0, 0, 0.3, 1.2) - expected) < 1e-15
        assert abs(real_spherical_harmonic(0, 0, 2.0, -0.4) - expected) < 1e-15

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            real_spherical_harmonic(1, 2, 0.5, 0.5)

    def test_matches_mpmath_through_degree_17(self):
        # every (l, m) up to the ball's l_max at n_sim 800, at both poles
        # and at general points; mpmath's spherharm carries the
        # Condon-Shortley phase, which (-1)^m removes
        theta = [mp.mpf(0), mp.pi] + [mp.mpf(t) for t in (0.3, 1.1, 2.4)]
        phi = np.array([0.0, 0.7, 1.2, -2.9, 4.0])
        general = np.array([0.3, 1.1, 2.4])
        ct = np.concatenate([[1.0, -1.0], np.cos(general)])
        st = np.concatenate([[0.0, 0.0], np.sin(general)])
        keys = [(l, m) for l in range(18) for m in range(-l, l + 1)]
        got = real_spherical_harmonics(keys, ct, st, phi)
        assert got.shape == (len(keys), phi.size)
        for row, (l, m) in zip(got, keys):
            for value, t, p in zip(row, theta, phi):
                y = mp.spherharm(l, abs(m), t, p)
                if m == 0:
                    ref = mp.re(y)
                else:
                    part = mp.re(y) if m > 0 else mp.im(y)
                    ref = mp.sqrt(2) * (-1) ** m * part
                assert abs(value - float(ref)) <= 1e-13
            # the one-key view returns the same row bit for bit
            assert np.array_equal(
                real_spherical_harmonic(l, m, general, phi[2:]), row[2:])

    def _sphere_rules(self, n_polar=40, n_azimuth=80):
        polar = quadrature_rule("gauss_legendre", n_polar, (-1.0, 1.0))
        azim = quadrature_rule("periodic_trapezoid", n_azimuth,
                               (0.0, 2.0 * math.pi))
        theta = np.arccos(polar.nodes)
        return theta, polar.weights, azim.nodes, azim.weights

    def test_y10_normalized(self):
        theta, wt, phi, wp = self._sphere_rules()
        tt, pp = np.meshgrid(theta, phi, indexing="ij")
        vals = real_spherical_harmonic(1, 0, tt, pp)
        integral = np.einsum("i,j,ij->", wt, wp, vals**2)
        assert abs(integral - 1.0) < 1e-10

    def test_y10_y11_orthogonal(self):
        theta, wt, phi, wp = self._sphere_rules()
        tt, pp = np.meshgrid(theta, phi, indexing="ij")
        a = real_spherical_harmonic(1, 0, tt, pp)
        b = real_spherical_harmonic(1, 1, tt, pp)
        integral = np.einsum("i,j,ij->", wt, wp, a * b)
        assert abs(integral) < 1e-10

    def test_orthonormality_matrix(self):
        l_max = 6
        theta, wt, phi, wp = self._sphere_rules()
        tt, pp = np.meshgrid(theta, phi, indexing="ij")
        pairs = [(l, m) for l in range(l_max + 1) for m in range(-l, l + 1)]
        vals = np.array([real_spherical_harmonic(l, m, tt, pp).ravel()
                         for l, m in pairs])
        w = np.outer(wt, wp).ravel()
        gram = (vals * w) @ vals.T
        assert np.max(np.abs(gram - np.eye(len(pairs)))) < 1e-9


class TestQuadratureRule:
    def test_gauss_legendre_odd_polynomial(self):
        rule = quadrature_rule("gauss_legendre", 5, (-1.0, 1.0))
        assert abs(rule.integrate(rule.nodes**9)) < 1e-15

    def test_trapezoid_trig_exactness(self):
        rule = quadrature_rule("periodic_trapezoid", 16, (0.0, 2.0 * math.pi))
        integral = rule.integrate(np.cos(3.0 * rule.nodes) ** 2)
        assert abs(integral - math.pi) < 1e-13

    def test_bessel_norm_identity(self):
        rule = quadrature_rule("gauss_legendre", 64, (0.0, 2.0))
        vals = bessel_j(0, J0_ZERO_1 * rule.nodes / 2.0)
        integral = rule.integrate(vals**2 * rule.nodes)
        assert abs(integral - BESSEL_NORM_INTEGRAL) < 1e-10

    def test_weight_sums(self):
        gl = quadrature_rule("gauss_legendre", 9, (0.0, 3.0))
        assert abs(gl.weights.sum() - 3.0) < 1e-13
        tr = quadrature_rule("periodic_trapezoid", 11, (0.0, 2.0 * math.pi))
        assert abs(tr.weights.sum() - 2.0 * math.pi) < 1e-13
        assert np.all(gl.weights > 0) and np.all(tr.weights > 0)
        assert np.all(np.diff(gl.nodes) > 0) and np.all(np.diff(tr.nodes) > 0)

    def test_convergence_until_roundoff(self):
        # smooth non-polynomial integrand: errors drop monotonically
        exact = float(mp.quad(lambda r: mp.exp(mp.cos(3 * r)), [0, 2]))
        errors = []
        for n in (4, 8, 16, 32):
            rule = quadrature_rule("gauss_legendre", n, (0.0, 2.0))
            errors.append(abs(rule.integrate(np.exp(np.cos(3.0 * rule.nodes)))
                              - exact))
        for a, b in zip(errors, errors[1:]):
            assert b < a or a < 1e-14

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            quadrature_rule("simpson", 4, (0.0, 1.0))
