"""Cylindrical and spherical Bessel functions, their zeros, real spherical
harmonics, and quadrature rules.

Evaluators accept scalars or 1-D numpy arrays and are pure functions with no
global mutable state, so they are safe for concurrent use.

Bessel functions are computed by a short power series for very small
arguments and otherwise by backward (Miller) recurrence with on-the-fly
normalization: the Neumann sum J_0 + 2*sum J_{2k} = 1 for the cylindrical
family and sum (2l+1) j_l^2 = 1 for the spherical family.  One loop
(`_miller`) serves both families and two modes: an int order yields every
order up to it (a table), and an order array gives each lane (one order at
one point) only its own order, kept from the contiguous slice of lanes of
that order as the loop passes it, so callers stack many (order, argument)
lanes into one call with no table of lower orders.  Zeros of any set of
orders come from one path: a single sign-change scan of all the orders on
a shared grid, then one safeguarded Newton refinement of every bracket at
once.

Real spherical harmonics of any set of (l, m) keys come from one
normalized Legendre table and one trig factor per order m
(`real_spherical_harmonics`); it is the ball's only angular evaluator, and
`real_spherical_harmonic` is its one-key view.
"""

import math
from dataclasses import dataclass

import numpy as np

# Orders above this cap are outside the validated range of the recurrences.
MAX_ORDER = 60

_RESCALE = 1e-140
_SCAN_STEP = 0.5


class UnsupportedOrderError(ValueError):
    """Requested Bessel order / harmonic degree above the supported cap."""


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes (strictly increasing) and positive weights on a fixed interval."""

    nodes: np.ndarray
    weights: np.ndarray

    def integrate(self, values) -> float:
        return float(np.dot(self.weights, np.asarray(values, dtype=float)))


def _check_order(order: int) -> None:
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    if order > MAX_ORDER:
        raise UnsupportedOrderError(
            f"order {order} exceeds the supported cap {MAX_ORDER}")


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


def _miller(shift: int, order, x: np.ndarray) -> np.ndarray:
    """Backward (Miller) recurrence f_{n-1} = ((2n + shift)/x) f_n - f_{n+1}
    for J (shift 0) or j (shift 1) at x >= 1e-6, normalized on the fly by
    the Neumann sum J_0 + 2 sum J_{2k} = 1 or the quadratic sum
    sum (2l+1) j_l^2 = 1.

    An int `order` keeps every order 0..order, shape (order+1, x.size).  An
    ascending int array, one order per lane, keeps only each lane's own
    order, copied from the contiguous slice of lanes of that order as the
    loop passes it; shape (x.size,).  The loop runs in place on a few
    lane-sized work arrays.
    """
    lanes = np.ndim(order) > 0
    m_top = int(order[-1]) if lanes else order
    top = max(m_top, float(x.max()))
    n_start = int(math.ceil(top)) + 20 + int(0.6 * top)
    # the quadratic normalization sum leaves less headroom
    check_every = _overflow_check_interval(n_start, float(x.min()),
                                           12.0 if shift else 160.0)
    if lanes:
        vals = np.zeros(x.size)
        edges = np.searchsorted(order, np.arange(m_top + 2))
        keep = [(vals[a:b], slice(a, b))
                for a, b in zip(edges[:-1], edges[1:])]
    else:
        vals = np.zeros((m_top + 1, x.size))
        keep = [(row, slice(None)) for row in vals]
    jp = np.zeros_like(x)
    jc = np.full_like(x, 1e-30)
    jm = np.empty_like(x)
    term = np.empty_like(x)
    norm = np.zeros_like(x)
    for n in range(n_start, 0, -1):
        np.divide(2.0 * n + shift, x, out=jm)
        jm *= jc
        jm -= jp
        if n % check_every == 0:
            # the growth between checks can pass the 140 decades of one
            # rescale (a small and a large x in one call), so rescale until
            # every finite lane is back under the threshold
            while (overflow := np.isfinite(jm)
                   & (np.abs(jm) > 1.0 / _RESCALE)).any():
                jm[overflow] *= _RESCALE
                jc[overflow] *= _RESCALE
                norm[overflow] *= _RESCALE ** (1 + shift)
                vals[..., overflow] *= _RESCALE
        jp, jc, jm = jc, jm, jp
        if n - 1 <= m_top:
            dest, own = keep[n - 1]
            dest[...] = jc[own]
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
    # since the loop starts above x, where every j_n(x) > 0, and every
    # rescale is positive
    vals /= np.sqrt(norm) if shift else norm
    return vals


def _bessel_family(shift: int, order, x) -> np.ndarray:
    """Engine of bessel_j_all (shift 0) and spherical_j_all (shift 1)."""
    x = np.asarray(x, dtype=float)
    lanes = np.ndim(order) > 0
    flat = x.ravel()
    if lanes:
        order = np.asarray(order)
        if order.shape != x.shape or order.dtype.kind not in "iu":
            raise ValueError("an order array must be integer and match x")
        # lanes sorted by order: each order's lanes form one slice
        perm = np.argsort(order.ravel(), kind="stable")
        order, flat = order.ravel()[perm], flat[perm]
        if order.size and order[0] < 0:
            raise ValueError("order must be nonnegative")
    if (flat < 0).any():
        raise ValueError("argument must be nonnegative")
    big = flat >= 1e-6
    if flat.size and big.all():
        out = _miller(shift, order, flat)
    else:
        out = np.zeros((flat.size,) if lanes else (order + 1, flat.size))
        tiny = ~big
        if tiny.any():
            m = order[tiny] if lanes else np.arange(order + 1)[:, None]
            out[..., tiny] = _series(shift, m, flat[tiny])
        if big.any():
            out[..., big] = _miller(shift, order[big] if lanes else order,
                                    flat[big])
    if lanes:
        lane_out = np.empty_like(out)
        lane_out[perm] = out
        return lane_out.reshape(x.shape)
    return out.reshape((order + 1,) + x.shape)


def bessel_j_all(order, x) -> np.ndarray:
    """Cylindrical Bessel functions J of the first kind at x >= 0.

    An int `order` gives every order J_0(x) .. J_order(x), shape
    (order+1,) + shape of x.  An integer array of x's shape gives each
    lane's own order, J_order[i](x[i]), shape of x, from the same one
    recurrence without the table of lower orders.
    """
    return _bessel_family(0, order, x)


def bessel_j(order: int, x):
    """Cylindrical Bessel function of the first kind J_order(x), x >= 0."""
    _check_order(order)
    return bessel_j_all(order, x)[order]


def spherical_j_all(order, x) -> np.ndarray:
    """Spherical Bessel functions j of the first kind at x >= 0; `order`
    as in bessel_j_all (an int for every degree 0..order, or one degree
    per lane)."""
    return _bessel_family(1, order, x)


def spherical_bessel_j(degree: int, x):
    """Spherical Bessel function j_degree(x); j_0(0) = 1 (removable limit)."""
    _check_order(degree)
    return spherical_j_all(degree, x)[degree]


def _lane_f_df(all_fn, shift: int, orders: np.ndarray, x: np.ndarray):
    """Value and derivative of each lane's own order at its point.

    One all-orders recurrence covers every lane; the derivative follows
    from the recurrence f_n' = f_{n-1} - ((n + shift)/x) f_n (shift 0 for
    J_n, 1 for j_n), with f_0' = -f_1.
    """
    vals = all_fn(max(int(orders.max()), 1), x)
    lane = np.arange(x.size)
    f = vals[orders, lane]
    below = vals[np.abs(orders - 1), lane]
    df = np.where(orders == 0, -below, below - ((orders + shift) / x) * f)
    return f, df


def _refine_zeros(f_df, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Vector root refinement on sign-change brackets [lo, hi].

    Three bisection rounds shrink the brackets well inside the Newton basin
    of these simple oscillatory zeros; plain Newton then converges
    quadratically.  A bracketed bisection fallback guards the rare lane
    where Newton leaves its bracket; it bisects every lane, since f_df
    evaluates each lane's own function.
    """
    a = lo.copy()
    b = hi.copy()
    fa, _ = f_df(a)
    for _ in range(3):
        x = 0.5 * (a + b)
        f, _ = f_df(x)
        neg_side = f * fa > 0
        a = np.where(neg_side, x, a)
        b = np.where(neg_side, b, x)
    x = 0.5 * (a + b)
    for _ in range(10):
        f, df = f_df(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = f / df
        x_new = x - step
        if np.all(np.abs(x_new - x) <= 1e-15 * np.maximum(1.0, x)):
            x = x_new
            break
        x = x_new
    stray = ~np.isfinite(x) | (x < lo) | (x > hi)
    if stray.any():
        aa, bb = lo.copy(), hi.copy()
        ffa, _ = f_df(aa)
        for _ in range(60):
            mid = 0.5 * (aa + bb)
            fm, _ = f_df(mid)
            neg_side = fm * ffa > 0
            aa = np.where(neg_side, mid, aa)
            bb = np.where(neg_side, bb, mid)
        x[stray] = 0.5 * (aa[stray] + bb[stray])
    return x


def _first_zeros(all_fn, shift: int, order, count):
    """First `count` positive zeros of each order of one Bessel family.

    Every order is scanned at once: one all-orders evaluation on a uniform
    grid from _SCAN_STEP upward (no zero of either family lies below 2.4,
    and zeros are more than 3 apart, so each grid cell holds at most one),
    extended until every order shows `count` sign changes; then one
    refinement over all brackets.  An int `order` gives one array; a 1-D
    array of orders (with an int or a matching array of counts) gives a
    list of arrays, one per order.
    """
    orders = np.atleast_1d(np.asarray(order)).astype(int)
    if orders.ndim > 1 or orders.size == 0:
        raise ValueError("order must be an int or a nonempty 1-D array")
    _check_order(int(orders.min()))
    _check_order(int(orders.max()))
    counts = np.broadcast_to(np.asarray(count), orders.shape).astype(int)
    if counts.min() < 1:
        raise ValueError("count must be >= 1")
    # the k-th zero of order m lies near m + 1.86 m^(1/3) + (k - 1) pi
    # (first zeros) or (k + m/2 - 1/4) pi (later ones); start just above
    top = float(np.max(orders + 2.0 * np.cbrt(orders) + np.pi * (counts + 1)))
    m_top = int(orders.max())
    while True:
        grid = _SCAN_STEP * np.arange(1, int(top / _SCAN_STEP) + 2)
        f = all_fn(m_top, grid)[orders]
        change = f[:, :-1] * f[:, 1:] < 0
        if np.all(change.sum(axis=1) >= counts):
            break
        top *= 1.25
    row, col = np.nonzero(change & (np.cumsum(change, axis=1)
                                    <= counts[:, None]))
    lane_orders = orders[row]
    zeros = _refine_zeros(lambda x: _lane_f_df(all_fn, shift, lane_orders, x),
                          grid[col], grid[col + 1])
    if np.ndim(order) == 0:
        return zeros
    return np.split(zeros, np.cumsum(counts)[:-1])


def bessel_j_zeros(order, count) -> np.ndarray:
    """First `count` positive zeros of J_order, strictly increasing.

    `order` may be a 1-D array of orders (and `count` an int or a matching
    array); the result is then a list with one array per order.
    """
    return _first_zeros(bessel_j_all, 0, order, count)


def bessel_j_zero(order: int, k: int) -> float:
    """k-th positive zero of J_order (k >= 1)."""
    return float(bessel_j_zeros(order, k)[k - 1])


def spherical_bessel_zeros(degree, count) -> np.ndarray:
    """First `count` positive zeros of j_degree, strictly increasing.

    Accepts arrays of degrees (and counts) like `bessel_j_zeros`.
    """
    return _first_zeros(spherical_j_all, 1, degree, count)


def spherical_bessel_zero(degree: int, k: int) -> float:
    """k-th positive zero of j_degree (k >= 1)."""
    return float(spherical_bessel_zeros(degree, k)[k - 1])


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


def real_spherical_harmonics(keys, cos_theta, sin_theta, phi) -> np.ndarray:
    """Real spherical harmonics Y_{l,m} for each (l, m) in keys, orthonormal
    on the unit sphere, Condon-Shortley-free; shape (len(keys),) + the
    broadcast shape of the polar and azimuthal arguments.

    m > 0 pairs with sqrt(2) cos(m phi), m < 0 with sqrt(2) sin(|m| phi),
    m = 0 is zonal.  One Legendre table serves every key and each trig
    factor is computed once, so a tensor grid passes a column of polar
    values against a row of azimuths.
    """
    keys = list(keys)
    ct = np.asarray(cos_theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    l_max = max((l for l, _ in keys), default=0)
    _check_order(l_max)
    for l, m in keys:
        if abs(m) > l:
            raise ValueError(f"|order| = {abs(m)} exceeds degree {l}")
    table = normalized_legendre_table(
        l_max, ct.ravel(), np.ravel(sin_theta)).reshape(
            (l_max + 1, l_max + 1) + ct.shape)
    out = np.empty((len(keys),) + np.broadcast_shapes(ct.shape, phi.shape))
    sqrt2 = math.sqrt(2.0)
    trig = {}
    for i, (l, m) in enumerate(keys):
        if m == 0:
            out[i] = table[l, 0]
            continue
        if m not in trig:
            trig[m] = np.cos(m * phi) if m > 0 else np.sin(-m * phi)
        out[i] = sqrt2 * table[l, abs(m)] * trig[m]
    return out


def real_spherical_harmonic(degree: int, order: int, theta, phi):
    """Real spherical harmonic Y_{l,m}(theta, phi): the one-key view of
    real_spherical_harmonics, a float for scalar arguments."""
    theta = np.asarray(theta, dtype=float)
    val = real_spherical_harmonics([(degree, order)], np.cos(theta),
                                   np.sin(theta), phi)[0]
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
