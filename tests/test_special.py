import functools
import hashlib
import math

import mpmath as mp
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from _oracles import harmonics_loop, oracle_bessel
from modalstab.special import (MAX_ORDER, UnsupportedOrderError,
                               _lane_series, _miller, _refine_zeros,
                               _series_points, bessel_j, bessel_j_all,
                               bessel_j_zero, bessel_j_zeros,
                               quadrature_rule, real_spherical_harmonic,
                               real_spherical_harmonics, series_lanes,
                               spherical_bessel_j, spherical_bessel_zero,
                               spherical_bessel_zeros, spherical_j_all)

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

    @pytest.mark.parametrize("fn", [bessel_j_all, spherical_j_all])
    def test_non_finite_argument_rejected(self, fn):
        for bad in (math.inf, math.nan, -math.inf):
            with pytest.raises(ValueError, match="argument x"):
                fn(3, bad)
            with pytest.raises(ValueError, match="argument x"):
                fn(np.array([0, 3]), np.array([1.0, bad]))


def of_order(flat, m):
    """The zeros of order m in a zero finder's flat (order, zero, slope)."""
    order, zeros, _ = flat
    return zeros[order == m]


def by_rank(order, zeros, slope):
    """{(order, k): (zero, slope)} of a flat zero-finder result."""
    out, rank = {}, {}
    for m, z, d in zip(order.tolist(), zeros.tolist(), slope.tolist()):
        rank[m] = rank.get(m, 0) + 1
        out[m, rank[m]] = (z, d)
    return out


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
        zs = of_order(bessel_j_zeros(np.array([4]), 35.0), 4)
        assert zs.size >= 8 and np.all(np.diff(zs) > 0)

    def test_interlacing(self):
        # j_{m,k} < j_{m+1,k} < j_{m,k+1}
        flat = bessel_j_zeros(np.arange(12), 60.0)
        table = {m: of_order(flat, m) for m in range(12)}
        for m in range(11):
            for k in range(10):
                assert table[m][k] < table[m + 1][k] < table[m][k + 1]

    def test_residual_at_zeros(self):
        order, zeros, _ = bessel_j_zeros(np.arange(11), 50.0)
        assert np.all(np.bincount(order) >= 10)
        for m, z in zip(order, zeros):
            assert abs(bessel_j(m, z)) < 1e-11

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            bessel_j_zero(0, 0)


# every special entry point, with `bad` in the place of one order, degree
# or zero rank k, and the name its ValueError gives that argument
ENTRY_POINTS = {
    "bessel_j": ("order", lambda bad: bessel_j(bad, 1.0)),
    "bessel_j_all": ("order", lambda bad: bessel_j_all(bad, 1.0)),
    "bessel_j_all-lanes": ("order", lambda bad: bessel_j_all(
        np.array([0, bad]), np.array([1.0, 2.0]))),
    "spherical_bessel_j": ("degree", lambda bad: spherical_bessel_j(bad, 1.0)),
    "spherical_j_all": ("degree", lambda bad: spherical_j_all(bad, 1.0)),
    "spherical_j_all-lanes": ("degree", lambda bad: spherical_j_all(
        np.array([0, bad]), np.array([1.0, 2.0]))),
    "bessel_j_zeros": ("order", lambda bad: bessel_j_zeros(
        np.array([0.9, bad]), 10.0)),
    "spherical_bessel_zeros": ("degree", lambda bad: spherical_bessel_zeros(
        np.array([bad]), 10.0)),
    "bessel_j_zero-order": ("order", lambda bad: bessel_j_zero(bad, 1)),
    "bessel_j_zero-k": ("k", lambda bad: bessel_j_zero(1, bad)),
    "spherical_bessel_zero-degree": (
        "degree", lambda bad: spherical_bessel_zero(bad, 1)),
    "spherical_bessel_zero-k": (
        "k", lambda bad: spherical_bessel_zero(1, bad)),
    "real_spherical_harmonic-degree": (
        "degree", lambda bad: real_spherical_harmonic(bad, 0, 0.1, 0.2)),
    "real_spherical_harmonic-order": (
        "order", lambda bad: real_spherical_harmonic(3, bad, 0.1, 0.2)),
    "real_spherical_harmonics-degree": (
        "degree", lambda bad: real_spherical_harmonics(
            np.array([1, bad]), np.array([0, 0]), 0.5, 0.8, 0.2)),
    "real_spherical_harmonics-order": (
        "order", lambda bad: real_spherical_harmonics(
            np.array([3, 3]), np.array([0, bad]), 0.5, 0.8, 0.2)),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("bad", [1.7, 2.5, 2.0, math.nan])
def test_non_integer_order_rejected(entry, bad):
    # a float is rejected even when it holds an integer, as numpy would
    # otherwise truncate it to one, or fail without naming it
    name, call = ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        call(bad)


@functools.lru_cache(maxsize=None)
def _reference_zeros(zeros_fn):
    """Every zero and slope of every order below a cut deeper than any the
    property test draws, by (order, k)."""
    return by_rank(*zeros_fn(np.arange(MAX_ORDER + 1), 90.0))


@pytest.mark.parametrize("zeros_fn, zero_fn", [
    (bessel_j_zeros, bessel_j_zero),
    (spherical_bessel_zeros, spherical_bessel_zero)])
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_flat_zeros_match_a_deeper_call(zeros_fn, zero_fn, data):
    # any order subset and cut gives each (order, k) zero and slope the
    # bits of one call at a deeper cut, and nothing else; the k-th zero
    # view gives that entry too
    ref = _reference_zeros(zeros_fn)
    orders = np.array(data.draw(st.lists(
        st.integers(0, MAX_ORDER), min_size=1, max_size=12, unique=True)))
    cut = data.draw(st.floats(2.5, 80.0))
    got = by_rank(*zeros_fn(orders, cut))
    assert got == {(m, k): v for (m, k), v in ref.items()
                   if m in orders and v[0] <= cut}
    if got:
        m, k = data.draw(st.sampled_from(sorted(got)))
        assert zero_fn(m, k) == got[m, k][0]


class TestZerosBelow:
    """The flat form: every zero <= the cut, from a scan that ends at it."""

    FINDERS = [bessel_j_zeros, spherical_bessel_zeros]

    @pytest.mark.parametrize("zeros_fn", FINDERS)
    def test_matches_kth_zero_view(self, zeros_fn):
        zero_fn = bessel_j_zero if zeros_fn is bessel_j_zeros \
            else spherical_bessel_zero
        orders = np.arange(21)
        for cut in (2.0, 9.0, 25.3, 47.0):
            got = zeros_fn(orders, cut)
            for m in orders.tolist():
                z = of_order(got, m)
                want = [zero_fn(m, k) for k in range(1, z.size + 2)]
                assert z.tolist() == want[:-1] and want[-1] > cut

    @pytest.mark.parametrize("zeros_fn", FINDERS)
    def test_cut_at_a_zero_keeps_it(self, zeros_fn):
        orders = np.arange(12)
        for m, k in ((0, 3), (4, 2), (11, 1)):
            cut = of_order(zeros_fn(np.array([m]), 40.0), m)[k - 1]
            got = of_order(zeros_fn(orders, cut), m)
            assert got.size == k and got[-1] == cut

    @pytest.mark.parametrize("zeros_fn", FINDERS)
    def test_zero_in_last_scan_cell_is_dropped(self, zeros_fn):
        # the cut lies below the zero in the scan cell that brackets both,
        # so that cell is refined and its zero filtered out
        orders = np.arange(12)
        for m, k in ((0, 3), (4, 2), (11, 1)):
            z = of_order(zeros_fn(np.array([m]), 40.0), m)[:k]
            cut = 0.5 * (z[-1] + 0.5 * math.floor(z[-1] / 0.5))
            got = of_order(zeros_fn(orders, cut), m)
            assert got.size == k - 1
            assert np.all(np.abs(got - z[:-1]) <= 1e-15 * z[:-1])

    @pytest.mark.parametrize("zeros_fn", FINDERS)
    def test_zeros_depend_only_on_order_and_rank(self, zeros_fn):
        # every cut and order subset gives each zero and its slope the
        # same bits, and only the zeros below its cut
        orders = np.arange(40)
        full = by_rank(*zeros_fn(orders, 75.0))
        calls = [(orders, cut) for cut in (30.0, 45.0, 60.0)]
        calls += [(sub, 60.0) for sub in (
            orders[::3], orders[5:17], orders[39:], orders[::-7])]
        for sub, cut in calls:
            order, zeros, _ = flat = zeros_fn(sub, cut)
            # by order as given, ascending within one
            assert [m for m in dict.fromkeys(order.tolist())] \
                == [m for m in sub.tolist() if m in order]
            assert by_rank(*flat) == {
                (m, k): v for (m, k), v in full.items()
                if m in sub and v[0] <= cut}, (sub, cut)

    @pytest.mark.parametrize("zeros_fn, digest", [
        (bessel_j_zeros, "6ce106600acc7e5d3a207925d6790fc9"
                         "523c10ed5f1ad92fb7783d71d6ed0d25"),
        (spherical_bessel_zeros, "c7051ea6f14c2f7518b92c8640bcbd74"
                                 "a5ad2be9531c94082d71f7aaf342910b")])
    def test_zeros_and_slopes_frozen(self, zeros_fn, digest):
        # every zero and slope below 90 of every order, bit for bit as
        # recorded before the Taylor coefficients were shared with the
        # grid's radial factors (elementwise IEEE arithmetic and sqrt
        # only, so the bits do not depend on the platform's libm or BLAS)
        h = hashlib.sha256()
        for a in zeros_fn(np.arange(MAX_ORDER + 1), 90.0):
            h.update(a.tobytes())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("zeros_fn, spherical", [
        (bessel_j_zeros, False), (spherical_bessel_zeros, True)])
    def test_slopes_are_minus_the_next_order(self, zeros_fn, spherical):
        # f_n'(z) = -f_{n+1}(z) at a zero z of f_n
        order, zeros, slope = zeros_fn(np.array([0, 1, 7, 30]), 48.0)
        assert set(order.tolist()) == {0, 1, 7, 30}
        for m, z, d in zip(order, zeros, slope):
            ref = -oracle_bessel(m + 1, z, spherical)
            assert abs(d - ref) <= 1e-14 * abs(ref)

    def test_bad_cut_rejected(self):
        for below in (math.inf, math.nan):
            with pytest.raises(ValueError, match="below"):
                bessel_j_zeros(np.array([2]), below)
            with pytest.raises(ValueError, match="below"):
                spherical_bessel_zeros(np.arange(3), below=below)

    def test_orders_without_zeros_give_empty_arrays(self):
        # the first zeros of j_27, j_28 and j_30 are about 33.44, 34.506
        # (in the last scan cell above the cut 34.5) and 36.63; those of
        # J_5 and J_6 about 8.77 and 9.94
        for got in (spherical_bessel_zeros(np.array([30]), 34.5),
                    bessel_j_zeros(np.array([5]), 0.25),
                    bessel_j_zeros(np.array([5, 6]), 8.0)):
            assert [a.shape for a in got] == [(0,)] * 3
        order, _, _ = spherical_bessel_zeros(np.array([0, 27, 28, 30]), 34.5)
        assert order.tolist() == [0] * 10 + [27]

    def test_one_form_of_call(self):
        # a 1-D order array and a cut, nothing else
        for orders in (3, np.array([]), np.arange(4).reshape(2, 2)):
            with pytest.raises(ValueError, match="nonempty 1-D"):
                bessel_j_zeros(orders, 10.0)
        with pytest.raises(TypeError):
            spherical_bessel_zeros(np.array([3]))

    @pytest.mark.parametrize("zeros_fn, spherical, orders, cut", [
        # the disk and ball candidate cuts at n_sim 946 and 2000
        (bessel_j_zeros, False, [0, 15, 30, 45, 60],
         2.0 * math.sqrt(946) + 6.0),
        (spherical_bessel_zeros, True, [0, 9, 18, 27],
         (4.5 * math.pi * 2000) ** (1.0 / 3.0) + 4.0)], ids=["disk", "ball"])
    def test_high_orders_against_mpmath(self, zeros_fn, spherical, orders,
                                        cut):
        got = zeros_fn(np.array(orders), cut)
        for m in orders:
            zeros = of_order(got, m)
            nu = m + mp.mpf(1) / 2 if spherical else m
            # the first, second and last zero below the cut
            for k in sorted({1, 2, zeros.size} - {0}):
                if k > zeros.size:
                    continue
                ref = float(mp.besseljzero(nu, k))
                assert abs(zeros[k - 1] - ref) <= 1e-13 * ref
            # no zero below the cut is missing
            assert mp.besseljzero(nu, zeros.size + 1) > cut


class TestRefineGuard:
    """The bracketed bisection behind the Halley steps."""

    def test_lane_sent_out_of_its_bracket_is_bisected(self):
        # J_0's 3rd, J_5's 2nd and J_12's 1st zero; the second lane gets a
        # derivative of the wrong sign and a hundredth of the size, so its
        # steps run away from the root and out of the bracket, and the
        # third a zero derivative, so its step is not finite
        orders = np.array([0, 5, 12])
        zeros = [bessel_j_zero(m, k)
                 for m, k in zip(orders.tolist(), (3, 2, 1))]
        lo = 0.5 * np.floor(np.array(zeros) / 0.5)
        hi = lo + 0.5
        # the finder's scan values and series, about the bracket end with
        # the smaller |f|
        ends = np.concatenate([lo, hi])
        table = _miller(0, 13, ends, scan=True)
        lane = np.arange(3)
        f_lo, f_hi = table[orders, lane], table[orders, lane + 3]
        near = lane + 3 * (np.abs(f_hi) < np.abs(f_lo))
        series = _lane_series(0, orders, ends[near], table[orders, near],
                              table[np.abs(orders - 1), near])
        points = []

        def wrong_derivatives(x):
            points.append(x.copy())
            f, df, ddf = series(x)
            df[1], ddf[1] = -0.01 * df[1], 0.0
            df[2] = 0.0
            return f, df, ddf

        with np.errstate(invalid="ignore"):
            got = _refine_zeros(wrong_derivatives, lo, hi, f_lo, f_hi)
        points = np.array(points)
        # every Halley step ran, then the 60 bisection rounds
        assert len(points) == 70
        # the runaway lane was held at an end of its bracket
        assert np.any((points[:, 1] == lo[1]) | (points[:, 1] == hi[1]))
        assert np.all((lo[:2] <= points[:, :2]) & (points[:, :2] <= hi[:2]))
        assert np.all((lo <= got) & (got <= hi))
        for i, m in enumerate(orders):
            f = lambda x: float(mp.besselj(int(m), mp.mpf(x)))
            oracle = bisection_zero(f, lo[i], hi[i])
            assert abs(got[i] - oracle) <= 1e-13 * oracle
        assert got[0] == zeros[0]


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
        order, zeros, _ = spherical_bessel_zeros(np.arange(8), 30.0)
        assert np.all(np.bincount(order) >= 6)
        for l, z in zip(order, zeros):
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


# each order's largest |J_n| and |j_n| on [0, 90], the scale of its values
_PEAK_GRID = np.linspace(0.0, 90.0, 901)
_PEAKS = [np.max(np.abs(fn(np.arange(MAX_ORDER + 1)[:, None], _PEAK_GRID)),
                 axis=1)
          for fn in (scipy.special.jv, scipy.special.spherical_jn)]


class TestLaneMode:
    """An order array gives each lane its own order's row of one table."""

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
            assert got.ravel().tobytes() == table.tobytes()

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(st.data())
    def test_random_lanes_are_table_rows_and_match_scipy(self, data):
        shape = data.draw(hnp.array_shapes(min_dims=1, max_dims=3,
                                           min_side=0, max_side=5))
        orders = data.draw(hnp.arrays(np.int64, shape,
                                      elements=st.integers(0, MAX_ORDER)))
        # no subnormal x: scipy's spherical_jn returns NaN there
        xs = data.draw(hnp.arrays(np.float64, shape, elements=st.one_of(
            st.just(0.0), st.floats(0.0, 1e-6, exclude_max=True,
                                    allow_subnormal=False),
            st.floats(1e-6, 90.0))))
        lanes = np.arange(xs.size)
        for lane_fn, ref_fn, peak in (
                (bessel_j_all, scipy.special.jv, _PEAKS[0]),
                (spherical_j_all, scipy.special.spherical_jn, _PEAKS[1])):
            got = lane_fn(orders, xs)
            assert got.shape == shape
            if not xs.size:
                continue
            table = lane_fn(int(orders.max()), xs.ravel())
            assert got.ravel().tobytes() == table[orders.ravel(),
                                                  lanes].tobytes()
            assert np.all(np.abs(got - ref_fn(orders, xs))
                          <= 1e-13 * peak[orders])

    def test_invalid_lanes_rejected(self):
        with pytest.raises(ValueError):
            bessel_j_all(np.array([0, 1]), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            spherical_j_all(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            bessel_j_all(np.array([2, -1]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            spherical_j_all(np.array([2, 1]), np.array([1.0, -2.0]))


class TestSeriesLanes:
    """Lanes as Taylor series about one table at the points 0.5, 1.0, ..."""

    @settings(max_examples=25, deadline=None, derandomize=True,
              database=None)
    @given(st.data())
    def test_random_lanes_match_lane_form_and_scipy(self, data):
        size = data.draw(st.integers(1, 40))
        orders = data.draw(hnp.arrays(np.int64, size,
                                      elements=st.integers(0, MAX_ORDER)))
        # no subnormal x: scipy's spherical_jn returns NaN there
        xs = data.draw(hnp.arrays(np.float64, size, elements=st.one_of(
            st.just(0.0), st.floats(0.0, 1e-6, exclude_max=True,
                                    allow_subnormal=False),
            st.floats(1e-6, 90.0))))
        for shift, table_fn, ref_fn in (
                (0, bessel_j_all, scipy.special.jv),
                (1, spherical_j_all, scipy.special.spherical_jn)):
            got = series_lanes(table_fn, shift, orders, xs)
            assert got.shape == xs.shape
            assert np.all(np.abs(got - table_fn(orders, xs)) <= 1e-14)
            assert np.all(np.abs(got - ref_fn(orders, xs)) <= 1e-14)

    def test_points_reach_the_largest_argument(self):
        assert _series_points(0.0).tolist() == [0.5]
        assert _series_points(0.7).tolist() == [0.5]
        assert _series_points(0.76).tolist() == [0.5, 1.0]
        assert _series_points(36.1).tolist() == (
            0.5 * np.arange(1, 73)).tolist()


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
        got = real_spherical_harmonics(*np.array(keys).T, ct, st, phi)
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
        # so does the per-key loop, here, and on a tensor grid for keys in
        # any order and with repeats
        assert np.array_equal(got, harmonics_loop(keys, ct, st, phi))
        picks = np.random.default_rng(2).integers(0, len(keys), 200)
        mixed = [keys[i] for i in picks]
        grid = (ct[:, None], st[:, None], np.linspace(-3.0, 7.0, 11))
        assert np.array_equal(
            real_spherical_harmonics(*np.array(mixed).T, *grid),
            harmonics_loop(mixed, *grid))

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
