"""Cylindrical and spherical Bessel functions, their zeros, real spherical
harmonics, and quadrature rules.

Evaluators accept scalars or 1-D numpy arrays, with integer orders,
degrees and ranks (ValueError otherwise), and are pure functions with no
global mutable state, so they are safe for concurrent use.

Bessel functions are computed by a short power series for very small
arguments and otherwise by backward (Miller) recurrence with on-the-fly
normalization: the Neumann sum J_0 + 2*sum J_{2k} = 1 for the cylindrical
family and sum (2l+1) j_l^2 = 1 for the spherical family.  One loop
(`_miller`) serves both families and yields one table, every order up to
the top one.  An order array (one order per point, a lane) is answered
from the table at the lanes' top order: each lane is its own order's row,
so its last bits depend on the call's top order and largest argument.
Many lanes of a few orders, as the grid's radial factors are, are cheaper
as Taylor series of the Bessel equation about one table at the points
0.5, 1.0, ... (`series_lanes`, which makes that table call itself): its
coefficients are built once per (order, point) by the recurrence that also
refines the zeros (`_taylor_coefficients`).

Zeros have one call form: every zero below a cut of each order in a 1-D
integer array, as flat (order, zero, slope) arrays, from one sign-change
scan of all the orders on a shared grid that ends at the cut.  Its table
gives f and f' at an end of each bracket, which start a Taylor series of
the Bessel equation about that end (DLMF 10.2, 10.6, 10.51); Halley steps
on the series, every bracket at once from its secant, with a bracketed
bisection as the guard, find the zero, and the same series gives the slope
f_n'(alpha) = -f_{n+1}(alpha) there, from which the eigenfunction norms
follow.  A zero and its slope depend only on (family, order, k).

Real spherical harmonics of the key arrays (degree, order) come from one
normalized Legendre table and one trig factor per distinct order, with no
loop over keys (`real_spherical_harmonics`); it is the ball's only angular
evaluator, and `real_spherical_harmonic` is its one-key view.
"""

import math
from dataclasses import dataclass

import numpy as np

# Orders above this cap are outside the validated range of the recurrences.
MAX_ORDER = 60

# a power of two, so that a rescale is exact (about 1e-140)
_RESCALE = 2.0 ** -465
_SCAN_STEP = 0.5
# terms of the Taylor series that refines the zeros (see _lane_series)
_TAYLOR_TERMS = 15


class UnsupportedOrderError(ValueError):
    """Requested Bessel order / harmonic degree above the supported cap."""


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes (strictly increasing) and positive weights on a fixed interval."""

    nodes: np.ndarray
    weights: np.ndarray

    def integrate(self, values) -> float:
        return float(np.dot(self.weights, np.asarray(values, dtype=float)))


def _check_order(order, name: str = "order") -> None:
    """Reject an order (an int or an array of them) that is not an integer
    in 0..MAX_ORDER; one above the cap raises UnsupportedOrderError."""
    order = np.asarray(order)
    if order.dtype.kind not in "iu":
        raise ValueError(f"{name} must be an integer, got {order}")
    if order.size and order.min() < 0:
        raise ValueError(f"{name} must be nonnegative, got {order.min()}")
    if order.size and order.max() > MAX_ORDER:
        raise UnsupportedOrderError(
            f"{name} {order.max()} exceeds the supported cap {MAX_ORDER}")


def _overflow_check_interval(n_start: int, x_min: float, decades: float) -> int:
    """Recurrence steps that can safely elapse between overflow checks.

    The unnormalized recurrence grows by at most ~2*n_start/x per step;
    `decades` is the headroom (in powers of ten) above the rescale threshold.
    """
    growth = 2.0 * n_start / max(x_min, 1e-6)
    return max(1, int(decades / math.log10(max(growth, 2.0))))


def _series(shift: int, order, x):
    """Two-term power series at small x, for J_m (shift 0) or j_l (shift 1):
    (x/2)^m / m! (1 - x^2/(4(m+1))) and x^l / (2l+1)!! (1 - x^2/(2(2l+3))).
    `order` broadcasts against x."""
    order = np.asarray(order)
    steps = np.arange(1, int(order.max()) + 1)
    fact = np.cumprod(np.concatenate([[1.0], (1 + shift) * steps + shift]))
    base = x * (0.5 + 0.5 * shift)
    return base**order / fact[order] \
        * (1.0 - x * x / (4.0 * order + 4 + 2 * shift))


def _miller(shift: int, m_top: int, x: np.ndarray, scan: bool = False
            ) -> np.ndarray:
    """Backward (Miller) recurrence f_{n-1} = ((2n + shift)/x) f_n - f_{n+1}
    for J (shift 0) or j (shift 1) at x >= 1e-6, normalized on the fly by
    the Neumann sum J_0 + 2 sum J_{2k} = 1 or the quadratic sum
    sum (2l+1) j_l^2 = 1; every order 0..m_top, shape (m_top+1, x.size).

    The loop starts at depth ceil(t) + 20 + floor(0.6 t), with t the
    larger of m_top and the largest x.  A `scan` table instead starts each
    point at the depth of its own x, t = x, so that a value depends only
    on its order and point, not on m_top or the other points; orders above
    that depth read 0 there, where they have no zero.  Rescales are by a
    power of two, so they are exact and leave no trace of when they
    happened.
    """
    # the points that start at each depth
    if scan:
        depth = np.ceil(x).astype(int) + 20 + (0.6 * x).astype(int)
        by_depth = np.argsort(depth, kind="stable")
        depths, first = np.unique(depth[by_depth], return_index=True)
        ends = np.append(first[1:], by_depth.size).tolist()
        starts = {d: by_depth[a:b] for d, a, b
                  in zip(depths.tolist(), first.tolist(), ends)}
    else:
        top = max(m_top, float(x.max()))
        starts = {int(math.ceil(top)) + 20 + int(0.6 * top): slice(None)}
    n_start = max(starts)
    # the quadratic normalization sum leaves less headroom
    check_every = _overflow_check_interval(n_start, float(x.min()),
                                           12.0 if shift else 160.0)
    vals = np.zeros((m_top + 1, x.size))
    jp = np.zeros_like(x)
    jc = np.zeros_like(x)
    jm = np.empty_like(x)
    term = np.empty_like(x)
    norm = np.zeros_like(x)
    for n in range(n_start, 0, -1):
        if n in starts:
            jc[starts[n]] = 1e-30
        np.divide(2.0 * n + shift, x, out=jm)
        jm *= jc
        jm -= jp
        if n % check_every == 0:
            # the growth between checks can pass the 140 decades of one
            # rescale (a small and a large x in one call), so rescale until
            # every finite point is back under the threshold
            while (overflow := np.isfinite(jm)
                   & (np.abs(jm) > 1.0 / _RESCALE)).any():
                jm[overflow] *= _RESCALE
                jc[overflow] *= _RESCALE
                norm[overflow] *= _RESCALE ** (1 + shift)
                vals[:, overflow] *= _RESCALE
        jp, jc, jm = jc, jm, jp
        if n - 1 <= m_top:
            vals[n - 1] = jc
        if shift:
            np.multiply(jc, 2 * n - 1, out=term)
            term *= jc
            norm += term
        elif n == 1:
            norm += jc
        elif n % 2 == 1:
            np.multiply(jc, 2.0, out=term)
            norm += term
    # the quadratic sum fixes only the scale's magnitude; its sign is +,
    # since each point starts above its x, where every j_n(x) > 0, and
    # every rescale is positive
    vals /= np.sqrt(norm) if shift else norm
    return vals


def _bessel_family(shift: int, order, x) -> np.ndarray:
    """Engine of bessel_j_all (shift 0) and spherical_j_all (shift 1)."""
    x = np.asarray(x, dtype=float)
    _check_order(order, "degree" if shift else "order")
    lanes = np.ndim(order) > 0
    flat = x.ravel()
    if lanes:
        if np.shape(order) != x.shape:
            raise ValueError("an order array must match x")
        lane_order = np.ravel(order)
        order = int(lane_order.max(initial=0))
    if not np.isfinite(flat).all():
        raise ValueError("argument x must be finite")
    if (flat < 0).any():
        raise ValueError("argument must be nonnegative")
    big = flat >= 1e-6
    if flat.size and big.all():
        out = _miller(shift, order, flat)
    else:
        out = np.zeros((order + 1, flat.size))
        tiny = ~big
        if tiny.any():
            out[:, tiny] = _series(shift, np.arange(order + 1)[:, None],
                                   flat[tiny])
        if big.any():
            out[:, big] = _miller(shift, order, flat[big])
    if lanes:
        return out[lane_order, np.arange(flat.size)].reshape(x.shape)
    return out.reshape((order + 1,) + x.shape)


def bessel_j_all(order, x) -> np.ndarray:
    """Cylindrical Bessel functions J of the first kind at x >= 0.

    An int `order` gives every order J_0(x) .. J_order(x), shape
    (order+1,) + shape of x.  An integer array of x's shape gives each
    lane's own order, J_order[i](x[i]), shape of x: its row of the table
    at the array's top order, bit for bit.
    """
    return _bessel_family(0, order, x)


def bessel_j(order: int, x):
    """Cylindrical Bessel function of the first kind J_order(x), x >= 0."""
    return bessel_j_all(order, x)[order]


def spherical_j_all(order, x) -> np.ndarray:
    """Spherical Bessel functions j of the first kind at x >= 0; `order`
    as in bessel_j_all (an int for every degree 0..order, or one degree
    per lane)."""
    return _bessel_family(1, order, x)


def spherical_bessel_j(degree: int, x):
    """Spherical Bessel function j_degree(x); j_0(0) = 1 (removable limit)."""
    return spherical_j_all(degree, x)[degree]


def _taylor_coefficients(shift: int, orders, x0, f0, below) -> np.ndarray:
    """Taylor coefficients c_k = f^(k)(x0)/k!, k < _TAYLOR_TERMS, of each
    order n about its point x0 (arrays that broadcast), shape
    (_TAYLOR_TERMS,) + their broadcast shape.

    f0 = f_n(x0) and below = f_{|n-1|}(x0) give f_n'(x0) = f_{n-1} -
    ((n + shift)/x0) f_n, or -f_1 at n = 0 (DLMF 10.6.2, 10.51.2).  The
    Bessel equation x^2 f'' + (1 + shift) x f' + (x^2 - n(n + shift)) f = 0
    fixes the other coefficients by its recurrence in c_k:

        x0^2 (k+2)(k+1) c_{k+2} = -[x0 (k+1)(2k+1+shift) c_{k+1}
            + (k(k+shift) + x0^2 - n(n+shift)) c_k + 2 x0 c_{k-1} + c_{k-2}].

    Since |f^(k)| <= 1, _TAYLOR_TERMS terms reach rounding level within
    half a unit of x0 (0.5^15/15! ~ 2e-17).  Every operation is
    elementwise, so each coefficient depends on its (n, x0) alone.
    """
    shape = np.broadcast_shapes(np.shape(orders), np.shape(x0), np.shape(f0))
    c = np.zeros((_TAYLOR_TERMS + 2,) + shape)   # c_{-2}, c_{-1} = 0
    c[2] = f0
    c[3] = np.where(orders == 0, -below, below - ((orders + shift) / x0) * f0)
    q = x0 * x0 - orders * (orders + shift)
    scale = -1.0 / (x0 * x0)
    for k in range(_TAYLOR_TERMS - 2):
        c[k + 4] = ((k + 1) * (2 * k + 1 + shift) * x0 * c[k + 3]
                    + (k * (k + shift) + q) * c[k + 2]
                    + 2.0 * x0 * c[k + 1] + c[k]) \
            * (scale / ((k + 2) * (k + 1)))
    return c[2:]


def _lane_series(shift: int, orders: np.ndarray, x0: np.ndarray,
                 f0: np.ndarray, below: np.ndarray):
    """Evaluator x -> (f, f', f'') of each lane's own order n near its
    point x0, from its Taylor series about x0 (`_taylor_coefficients`).
    The series of f, f' and f'' are summed by one Horner loop over
    elementwise operations, so each lane's values depend on that lane
    alone.
    """
    c = _taylor_coefficients(shift, orders, x0, f0, below)
    k = np.arange(_TAYLOR_TERMS)[:, None]
    # row k holds the k-th coefficients of f, f' and f''
    poly = np.zeros((_TAYLOR_TERMS, 3, x0.size))
    poly[:, 0] = c
    poly[:-1, 1] = k[1:] * c[1:]
    poly[:-2, 2] = (k[2:] * (k[2:] - 1)) * c[2:]

    def evaluate(x):
        h = x - x0
        acc = poly[-1].copy()
        for row in poly[-2::-1]:
            acc *= h
            acc += row
        return acc[0], acc[1], acc[2]

    return evaluate


def _series_points(x_max: float) -> np.ndarray:
    """The table points 0.5, 1.0, ... that `series_lanes` expands about:
    every one up to the point nearest x_max, and at least 0.5."""
    count = max(1, math.floor(x_max / _SCAN_STEP + 0.5))
    return _SCAN_STEP * np.arange(1, count + 1)


def series_lanes(table_fn, shift: int, orders, x: np.ndarray) -> np.ndarray:
    """f_n(x) of each lane of J (shift 0) or j (shift 1), its order n from
    `orders` (an integer array that broadcasts against x), from one call
    table_fn(max(top, 1), points): bessel_j_all or spherical_j_all (or a
    binding of one) in its int form, at the points 0.5, 1.0, ... up to the
    one nearest x.max().  An order-0 lane reads f_1 for its slope.

    Each lane is the Taylor series of its order about its nearest table
    point (`_taylor_coefficients`), within a quarter of a unit, or half of
    one below x = 0.25, whose nearest point is 0.5: rounding level, as
    every derivative is bounded by 1.  The coefficients are built once per
    (order, point), and Horner's rule gathers one coefficient row at a
    time, so no terms x lanes array is built.  A lane depends only on its
    order, its x and the table.
    """
    used, row = np.unique(orders, return_inverse=True)
    points = _series_points(float(np.max(x, initial=0.0)))
    table = table_fn(max(int(used.max(initial=0)), 1), points)
    coeffs = _taylor_coefficients(
        shift, used[:, None], points, table[used],
        table[np.abs(used - 1)]).reshape(_TAYLOR_TERMS, -1)
    size = points.size
    near = np.clip(np.floor(x / _SCAN_STEP + 0.5).astype(np.intp), 1, size)
    h = x - _SCAN_STEP * near
    index = row.reshape(np.shape(orders)) * size + (near - 1)
    acc = coeffs[-1][index]
    for c in coeffs[-2::-1]:
        acc *= h
        acc += c[index]
    return acc


def _refine_zeros(derivatives, lo: np.ndarray, hi: np.ndarray,
                  f_lo: np.ndarray, f_hi: np.ndarray) -> np.ndarray:
    """Vector root refinement on sign-change brackets [lo, hi], given the
    function values f_lo, f_hi at their ends.

    Each lane starts at the secant of its bracket, well inside the basin
    of these simple oscillatory zeros, and Halley steps (`derivatives`
    gives f, f', f'' of every lane) converge cubically: three passes reach
    rounding level.  Iterates are held in their brackets, and a lane whose
    step has converged stays where it is, so its zero does not depend on
    the other lanes.  A bracketed bisection guards the rare lane that has
    not converged when the steps end.  It bisects every lane, since
    `derivatives` evaluates each lane's own function.
    """
    x = lo - f_lo * (hi - lo) / (f_hi - f_lo)
    live = np.ones(x.shape, dtype=bool)
    for _ in range(10):
        f, df, ddf = derivatives(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = f / df
            step = newton / (1.0 - 0.5 * newton * ddf / df)
        step[~live] = 0.0
        x = np.clip(x - step, lo, hi)
        live &= ~(np.abs(step) <= 1e-15 * np.maximum(1.0, x))
        if not live.any():
            return x
    a, b = lo.copy(), hi.copy()
    for _ in range(60):
        mid = 0.5 * (a + b)
        same_side = derivatives(mid)[0] * f_lo > 0
        a = np.where(same_side, mid, a)
        b = np.where(same_side, b, mid)
    x[live] = 0.5 * (a[live] + b[live])
    return x


def _zeros(shift: int, orders, below):
    """Every positive zero <= `below` of each order in `orders` (a nonempty
    1-D integer array) of one Bessel family (J for shift 0, j for shift 1),
    as three flat arrays: each zero's order, the zeros (by order as given,
    ascending within one), and the derivative of its function there.

    Every order is scanned at once: one all-orders evaluation on a uniform
    grid from _SCAN_STEP to the first point at or above the cut (no zero
    of either family lies below 2.4, and zeros are more than 3 apart, so
    each grid cell holds at most one).  That one table seeds the rest:
    at the end of each sign-change bracket nearer its secant (the end with
    the smaller |f|), f and f' (from the order below) start the lane's
    Taylor series (`_lane_series`), on which Halley steps refine every
    bracket at once; f' at the zero is f_n'(alpha) = -f_{n+1}(alpha).
    Each table value depends only on its order and point, and each lane
    only on its own bracket, so a zero and its slope depend only on
    (family, order, k), whatever the cut or the other orders.
    """
    orders = np.asarray(orders)
    if orders.ndim != 1 or orders.size == 0:
        raise ValueError("orders must be a nonempty 1-D array")
    _check_order(orders, "degree" if shift else "order")
    if not math.isfinite(below):
        raise ValueError(f"below must be finite, got {below}")
    grid = _SCAN_STEP * np.arange(1, max(2, math.ceil(below / _SCAN_STEP) + 1))
    table = _miller(shift, max(int(orders.max()), 1), grid, scan=True)
    f = table[orders]
    row, col = np.nonzero(f[:, :-1] * f[:, 1:] < 0)
    lane_order = orders[row]
    f_lo, f_hi = f[row, col], f[row, col + 1]
    near = col + (np.abs(f_hi) < np.abs(f_lo))
    series = _lane_series(shift, lane_order, grid[near],
                          table[lane_order, near],
                          table[np.abs(lane_order - 1), near])
    zeros = _refine_zeros(series, grid[col], grid[col + 1], f_lo, f_hi)
    keep = zeros <= below
    return lane_order[keep], zeros[keep], series(zeros)[1][keep]


def _zero(shift: int, order: int, k: int) -> float:
    """k-th positive zero of order m, from one flat call cut above it at
    (k + m/2 + 1/4) pi: j_{nu,k} < (k + nu/2 - 1/4) pi for nu >= 1/2, and
    J_0's zeros lie below J_{1/2}'s, k pi."""
    if np.asarray(k).dtype.kind not in "iu" or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k}")
    cut = math.pi * (k + order / 2 + 0.25)
    return float(_zeros(shift, np.array([order]), cut)[1][k - 1])


def bessel_j_zeros(orders, below):
    """Every positive zero <= `below` of J_m, m in `orders`, flat as from
    `_zeros`; a slope is J_m'(zero) = -J_{m+1}(zero)."""
    return _zeros(0, orders, below)


def bessel_j_zero(order: int, k: int) -> float:
    """k-th positive zero of J_order (k >= 1)."""
    return _zero(0, order, k)


def spherical_bessel_zeros(degrees, below):
    """Every positive zero <= `below` of j_l, l in `degrees`, flat as from
    `_zeros`; a slope is j_l'(zero) = -j_{l+1}(zero)."""
    return _zeros(1, degrees, below)


def spherical_bessel_zero(degree: int, k: int) -> float:
    """k-th positive zero of j_degree (k >= 1)."""
    return _zero(1, degree, k)


def normalized_legendre_table(l_max: int, cos_theta, sin_theta) -> np.ndarray:
    """Fully normalized associated Legendre values, no Condon-Shortley sign.

    Returns an array of shape (l_max+1, l_max+1) + shape of cos_theta with
    entry [l, m] = sqrt((2l+1)/(4 pi) (l-m)!/(l+m)!) P_l^m(cos_theta) for
    m <= l, zero above the diagonal.
    """
    ct = np.atleast_1d(np.asarray(cos_theta, dtype=float))
    st = np.atleast_1d(np.asarray(sin_theta, dtype=float))
    p = np.zeros((l_max + 1, l_max + 1, ct.size))
    p[0, 0] = 1.0 / math.sqrt(4.0 * math.pi)
    for m in range(1, l_max + 1):
        p[m, m] = math.sqrt((2 * m + 1) / (2.0 * m)) * st * p[m - 1, m - 1]
    for m in range(l_max):
        p[m + 1, m] = math.sqrt(2 * m + 3.0) * ct * p[m, m]
    for m in range(l_max + 1):
        for l in range(m + 2, l_max + 1):
            a = math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = math.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
            p[l, m] = a * (ct * p[l - 1, m] - b * p[l - 2, m])
    return p


def real_spherical_harmonics(degree, order, cos_theta, sin_theta,
                             phi) -> np.ndarray:
    """Real spherical harmonics Y_{l,m} of the keys (degree[i], order[i]),
    1-D integer arrays with |m| <= l, orthonormal on the unit sphere,
    Condon-Shortley-free; shape (keys,) + the broadcast shape of the polar
    and azimuthal arguments.

    m > 0 pairs with sqrt(2) cos(m phi), m < 0 with sqrt(2) sin(|m| phi),
    m = 0 is zonal.  One Legendre table serves every key, so a tensor grid
    passes a column of polar values against a row of azimuths.
    """
    degree, m = np.asarray(degree), np.abs(order)
    _check_order(degree, "degree")
    _check_order(m, "order")
    if (m > degree).any():
        i = np.argmax(m > degree)
        raise ValueError(f"|order| = {m[i]} exceeds degree {degree[i]}")
    ct, phi = (np.asarray(a, dtype=float) for a in (cos_theta, phi))
    # both arguments at their broadcast rank, behind one axis of keys
    rank = len(np.broadcast_shapes(ct.shape, phi.shape))
    ct, phi = (a.reshape((1,) * (rank - a.ndim) + a.shape) for a in (ct, phi))
    l_max = int(degree.max(initial=0))
    table = normalized_legendre_table(
        l_max, ct.ravel(), np.ravel(sin_theta)).reshape(
            (l_max + 1, l_max + 1) + ct.shape)
    key_axis = (-1,) + (1,) * rank
    scale = np.where(m == 0, 1.0, math.sqrt(2.0)).reshape(key_axis)
    # one trig factor per distinct order: sin(|m| phi) for the negative
    # orders, which np.unique sorts first, then cos(m phi)
    signed, row = np.unique(order, return_inverse=True)
    m_phi = np.abs(signed).reshape(key_axis) * phi
    trig = np.concatenate([np.sin(m_phi[signed < 0]),
                           np.cos(m_phi[signed >= 0])])
    return (scale * table[degree, m]) * trig[row]


def real_spherical_harmonic(degree: int, order: int, theta, phi):
    """Real spherical harmonic Y_{l,m}(theta, phi): the one-key view of
    real_spherical_harmonics, a float for scalar arguments."""
    theta = np.asarray(theta, dtype=float)
    val = real_spherical_harmonics(np.array([degree]), np.array([order]),
                                   np.cos(theta), np.sin(theta), phi)[0]
    return float(val) if val.ndim == 0 else val


def quadrature_rule(kind: str, n: int, interval) -> QuadratureRule:
    """Quadrature rule on `interval`.

    gauss_legendre is exact for polynomials of degree <= 2n-1;
    periodic_trapezoid (n uniform nodes, right endpoint omitted) is exact
    for trigonometric polynomials of degree < n on a full period.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    a, b = float(interval[0]), float(interval[1])
    if kind == "gauss_legendre":
        x, w = np.polynomial.legendre.leggauss(n)
        nodes = 0.5 * (b - a) * x + 0.5 * (b + a)
        weights = 0.5 * (b - a) * w
    elif kind == "periodic_trapezoid":
        nodes = a + (b - a) * np.arange(n) / n
        weights = np.full(n, (b - a) / n)
    else:
        raise ValueError(f"unknown quadrature kind {kind!r}")
    return QuadratureRule(nodes=nodes, weights=weights)
