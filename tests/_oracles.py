"""Independent numeric oracles shared by the test modules.

Everything here deliberately avoids the package's own evaluation paths:
zeros come from plain bisection on high-precision series values, surface
integrals from explicit quadrature over boundary samples, the closed-loop
generator from its dense formula, RK4 trajectories from textbook stages
on a dense generator, and the max norm from one dense product over the
whole reconstruction grid (it shares the package's mode_values, since it
pins the orthant reflection, not the eigenfunction values).  The candidate orderings (disk_candidates,
ball_candidates) are the per-shape enumerators that basis._candidates
replaced, with their explicit sort keys; they share the package's zero
finder, since they pin the order, not the zeros.  mode_table_loop is the
per-mode constant loop that enumerate_modes replaced, and step_loop the
per-step loop over a step map's blocks that integrate replaced; both pin
the arithmetic bit for bit, so they share the package's zero slopes (from
a call of their own, cut where the k-th zero view cuts) and step maps.
cascade_step is a step map's entry at 30 digits: f of the scalar cascade
[[x, 0], [k, y]] by mpmath's matrix exponential, or by the RK4 Taylor
polynomial power on mpmath matrices.
dense_synthesis is the gain synthesis on full N x N matrices (an (N, N, N)
stack of B_i, an SVD condition number, an LU solve for A and dense
eigenvalue margins); it shares the package's Gram and denominators, since
it pins the algebra on them, and controller.synthesize's diagonals must
equal its diagonals bit for bit.  full_width_commutation is the
commutation check on the standalone lift of every table row, which
lifting.commutation_check restricts to the coupled rows; the two must
agree bit for bit.  fit_metric_per_column is one claim fit per series, a
decay_rate_fit call of its own each, which verify_claims batches into one
solve.  harmonics_loop is the per-key loop that real_spherical_harmonics'
array expression replaced; it shares the package's Legendre table, since
it pins the keys' arithmetic, and must agree bit for bit.
"""

import math
from collections import namedtuple

import mpmath as mp
import numpy as np

from modalstab.basis import _zeros_below, boundary_gram, mode_values
from modalstab.controller import shift_denominators
from modalstab.diagnostics import MetricFit, decay_rate_fit
from modalstab.lifting import lifting_coefficients
from modalstab.special import (bessel_j_zeros, normalized_legendre_table,
                               quadrature_rule, real_spherical_harmonic,
                               spherical_bessel_zeros)

mp.mp.dps = 30

DenseGains = namedtuple(
    "DenseGains", "gram a_gain s_total a_direct cond_sum_b margin_direct "
    "margin_s")

# one mode of mode_table_loop; angular is (m, "cos" / "sin") on the disk and
# (l, m) on the ball, as the candidate orderings write it
Row = namedtuple("Row", "n angular k alpha kappa mu norm_const trace_amp")


def oracle_bessel(order, x, spherical=False):
    """J_order(x), or j_order(x) = sqrt(pi/(2x)) J_{order+1/2}(x) with
    j_l(0) = [l == 0], from mpmath's series at 30 digits."""
    order, x = int(order), float(x)
    if not spherical:
        return float(mp.besselj(order, mp.mpf(x)))
    if x == 0.0:
        return 1.0 if order == 0 else 0.0
    return float(mp.sqrt(mp.pi / (2 * mp.mpf(x)))
                 * mp.besselj(order + mp.mpf(1) / 2, mp.mpf(x)))


def oracle_zero_bisection(order, k, spherical=False):
    """k-th positive zero by scan + bisection on mpmath series values."""
    f = lambda x: oracle_bessel(order, x, spherical)
    x = max(order, 1e-3)
    found = 0
    f_prev = f(x)
    while True:
        x_next = x + 0.25
        f_next = f(x_next)
        if f_prev * f_next < 0:
            found += 1
            if found == k:
                lo, hi = x, x_next
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    if f(lo) * f(mid) <= 0:
                        hi = mid
                    else:
                        lo = mid
                return 0.5 * (lo + hi)
        x, f_prev = x_next, f_next


def _ranked_zeros(zeros_fn, cut, need):
    """(order, k, zero) for every zero below the cut, k its rank within
    its order."""
    order, zeros, _ = _zeros_below(zeros_fn, cut, need)
    rank = {}
    for m, z in zip(order.tolist(), zeros.tolist()):
        rank[m] = rank.get(m, 0) + 1
        yield m, rank[m], z


def harmonics_loop(keys, cos_theta, sin_theta, phi):
    """Real spherical harmonics of a list of (l, m) keys, one key at a
    time: the normalized Legendre value, times sqrt(2) cos(m phi) for
    m > 0 and sqrt(2) sin(|m| phi) for m < 0; shape (len(keys),) + the
    broadcast shape of the polar and azimuthal arguments."""
    ct, phi = np.asarray(cos_theta, dtype=float), np.asarray(phi, dtype=float)
    l_max = max(l for l, _ in keys)
    table = normalized_legendre_table(
        l_max, ct.ravel(), np.ravel(sin_theta)).reshape(
            (l_max + 1, l_max + 1) + ct.shape)
    out = np.empty((len(keys),) + np.broadcast_shapes(ct.shape, phi.shape))
    for i, (l, m) in enumerate(keys):
        if m == 0:
            out[i] = table[l, 0]
        else:
            trig = np.cos(m * phi) if m > 0 else np.sin(-m * phi)
            out[i] = math.sqrt(2.0) * table[l, abs(m)] * trig
    return out


def disk_candidates(n_sim):
    """All (alpha, angular, k) with the n_sim smallest alpha, order (alpha,
    m, cos before sin, k)."""
    cut = 2.0 * math.sqrt(n_sim) + 6.0
    need = f"n_sim={n_sim} requires Bessel orders"
    while True:
        entries = []
        for m, k, z in _ranked_zeros(bessel_j_zeros, cut, need):
            if m == 0:
                entries.append((z, (0, "cos"), k))
            else:
                entries.append((z, (m, "cos"), k))
                entries.append((z, (m, "sin"), k))
        if len(entries) >= n_sim:
            entries.sort(key=lambda e: (e[0], e[1][0],
                                        0 if e[1][1] == "cos" else 1, e[2]))
            return entries[:n_sim]
        cut *= 1.25


def ball_candidates(n_sim):
    """Ball analog; multiplicity 2l+1, order (alpha, l, m ascending, k)."""
    cut = (4.5 * math.pi * n_sim) ** (1.0 / 3.0) + 4.0
    need = f"n_sim={n_sim} requires spherical degrees"
    while True:
        entries = []
        for l, k, z in _ranked_zeros(spherical_bessel_zeros, cut, need):
            for m in range(-l, l + 1):
                entries.append((z, (l, m), k))
        if len(entries) >= n_sim:
            entries.sort(key=lambda e: (e[0], e[1][0], e[1][1], e[2]))
            return entries[:n_sim]
        cut *= 1.25


def mode_table_loop(domain, lam, n_sim):
    """The mode table built one mode at a time over the oracle candidates:
    kappa, mu, norm_const and trace_amp as Python floats, per mode."""
    R = domain.radius
    disk = domain.shape == "disk"
    cands = (disk_candidates if disk else ball_candidates)(n_sim)
    trace_scale = math.sqrt(2.0 / R**3)
    # |f_{m+1}(alpha)| = |f_m'(alpha)|, the slope of the k-th zero, from
    # one call cut above each order's deepest k, where the k-th zero view
    # cuts (not the candidates' growing cut)
    k_max = {}
    for _, (m, _), k in cands:
        k_max[m] = max(k_max.get(m, 0), k)
    orders = sorted(k_max)
    zeros_fn = bessel_j_zeros if disk else spherical_bessel_zeros
    cut = max(math.pi * (k_max[m] + m / 2 + 0.25) for m in orders)
    order, _, slope = zeros_fn(np.array(orders), cut)
    rank = np.arange(order.size) + 1 - np.searchsorted(order, order)
    j_next = dict(zip(zip(order.tolist(), rank.tolist()),
                      np.abs(slope).tolist()))
    modes = []
    for n, (alpha, angular, k) in enumerate(cands, start=1):
        j = j_next[angular[0], k]
        kappa = (alpha / R) ** 2
        if disk:
            scale = 1.0 if angular[0] == 0 else math.sqrt(2.0)
            norm_const = scale / (math.sqrt(math.pi) * R * j)
        else:
            norm_const = trace_scale / j
        modes.append(Row(n=n, angular=angular, k=k, alpha=alpha, kappa=kappa,
                         mu=lam - kappa, norm_const=norm_const,
                         trace_amp=(-1.0) ** k * alpha * trace_scale))
    return modes


def step_loop(split, blocks, u0, n_steps, limit=1e12):
    """Samples of the one-step map with blocks (E, F, decay) applied one
    step at a time, u[:s] <- E * u[:s] and u[s:] <- decay u[s:] + F u[:s],
    stopping before the first sample that is not finite or exceeds limit
    in magnitude; returns (states, truncated)."""
    E, F, decay = blocks
    s = split.K.shape[1]
    states = [np.asarray(u0, dtype=float)]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_steps):
            u = states[-1]
            nxt = np.empty_like(u)
            nxt[:s] = E * u[:s]
            nxt[s:] = decay * u[s:] + F @ u[:s]
            if not np.max(np.abs(nxt)) <= limit:
                return np.array(states), True
            states.append(nxt)
    return np.array(states), False


def cascade_step(x, y, coupling, count=None):
    """(f(x), the lower-left entry of f([[x, 0], [coupling, y]])) at 30
    digits, f = exp, or with a count f(z) = P(z / count)^count, P the
    degree-4 Taylor polynomial of exp."""
    m = mp.matrix([[mp.mpf(x), 0], [mp.mpf(coupling), mp.mpf(y)]])
    if count is None:
        out = mp.expm(m)
    else:
        a = m / count
        out = (mp.eye(2) + a + a**2 / 2 + a**3 / 6 + a**4 / 24) ** count
    return float(out[0, 0]), float(out[1, 0])


def quadrature_boundary_gram(domain, modes):
    """Surface-quadrature Gram of the normal traces (oracle path).

    Trace values are rebuilt from the definition, trace_amp times the
    boundary-orthonormal angular factor, with the harmonic evaluated through
    the public special-function surface rather than the mode machinery.
    """
    R = domain.radius
    if domain.shape == "disk":
        azim = quadrature_rule("periodic_trapezoid", 160,
                               (0.0, 2.0 * math.pi))
        th = azim.nodes
        w = azim.weights * R
        traces = np.empty((len(modes), th.size))
        for i, (m, sin, amp) in enumerate(zip(
                modes.order.tolist(), modes.second.tolist(),
                modes.trace_amp.tolist())):
            if m == 0:
                ang = np.full_like(th, 1.0 / math.sqrt(2.0 * math.pi * R))
            else:
                base = np.sin(m * th) if sin else np.cos(m * th)
                ang = base / math.sqrt(math.pi * R)
            traces[i] = amp * ang
    else:
        polar = quadrature_rule("gauss_legendre", 60, (-1.0, 1.0))
        azim = quadrature_rule("periodic_trapezoid", 120,
                               (0.0, 2.0 * math.pi))
        theta = np.arccos(polar.nodes)
        tt, pp = np.meshgrid(theta, azim.nodes, indexing="ij")
        w = np.outer(polar.weights, azim.weights).ravel() * R * R
        traces = np.empty((len(modes), w.size))
        for i, (l, m, amp) in enumerate(zip(
                modes.order.tolist(), modes.second.tolist(),
                modes.trace_amp.tolist())):
            harm = real_spherical_harmonic(l, m, tt, pp)
            traces[i] = amp * harm.ravel() / R
    return (traces * w) @ traces.T


def dense_split(generator):
    """(d, K) of the leading-column split through the dense off-diagonal
    part G - diag(d): K = (G - diag(d))[:, :s], s one past the last column
    with a nonzero off-diagonal entry."""
    gen = np.asarray(generator, dtype=float)
    d = np.diag(gen).copy()
    off = gen - np.diag(d)
    s = int(np.max(np.flatnonzero(np.any(off != 0.0, axis=0)) + 1,
                   initial=0))
    return d, off[:, :s]


def dense_generator(system, gain_set):
    """The closed-loop generator as a dense n_sim x n_sim matrix, from its
    defining formula diag(mu) - beta C on the leading N columns."""
    gen = np.diag(system.mu)
    gen[:, :gain_set.n_unstable] -= gain_set.beta @ system.coupling
    return gen


def rk4_substep_loop(generator, mu, u0, dt, n_steps):
    """Classical RK4 samples every dt with n_sub textbook substeps each.

    n_sub follows integrate's documented rule, h (max|mu| +
    ||G - diag(mu)||_F) <= 0.5, and every stage is a dense G @ u.
    """
    gen = np.asarray(generator, dtype=float)
    radius = np.max(np.abs(mu)) + np.linalg.norm(gen - np.diag(mu))
    n_sub = max(1, int(np.ceil(dt * radius / 0.5)))
    h = dt / n_sub
    u = np.asarray(u0, dtype=float)
    states = [u]
    for _ in range(n_steps):
        for _ in range(n_sub):
            k1 = gen @ u
            k2 = gen @ (u + 0.5 * h * k1)
            k3 = gen @ (u + 0.5 * h * k2)
            k4 = gen @ (u + h * k3)
            u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(u)
    return np.array(states)


def dense_linf(states, modes, domain, resolution, mirrored=True):
    """max |states @ phi| per row of states over every grid point inside
    the closed domain, from one dense product.  The axis is
    linspace(-R, R, resolution), made exactly mirror-symmetric as
    (a - a[::-1]) / 2 unless mirrored is False."""
    R = domain.radius
    axis = np.linspace(-R, R, resolution)
    if mirrored:
        axis = (axis - axis[::-1]) / 2.0
    grids = np.meshgrid(*[axis] * domain.dim, indexing="ij")
    pts = np.column_stack([g.ravel() for g in grids])
    pts = pts[np.linalg.norm(pts, axis=1) <= R]
    return np.max(np.abs(states @ mode_values(modes, domain, pts)), axis=1)


def dense_synthesis(modes, gammas):
    """The gain set over the table's leading len(gammas) modes as dense
    matrices: B_i = M_i B M_i stacked, cond(sum B_i) from its singular
    values, A = (sum B_i)^{-1} by an LU solve, S = sum gamma_i B_i A,
    A_direct = A_o - B sum(M_i A), and each margin the largest real part
    of an eigenvalue solve (of A_direct and of -S)."""
    gammas = np.array(gammas, dtype=float)
    n = gammas.size
    head = modes[:n]
    m_list = 1.0 / shift_denominators(gammas, modes)[:, :n]
    gram = boundary_gram(head, head)
    b_stack = m_list[:, :, None] * m_list[:, None, :] * gram
    sum_b = np.sum(b_stack, axis=0)
    a_gain = np.linalg.solve(sum_b, np.eye(n))
    s_total = np.sum(gammas[:, None, None] * (b_stack @ a_gain), axis=0)
    control = np.sum(m_list[:, :, None] * a_gain, axis=0)
    a_direct = np.diag(head.mu) - gram @ control
    return DenseGains(
        gram=gram, a_gain=a_gain, s_total=s_total, a_direct=a_direct,
        cond_sum_b=float(np.linalg.cond(sum_b)),
        margin_direct=float(np.max(np.linalg.eigvals(a_direct).real)),
        margin_s=float(np.max(np.linalg.eigvals(-s_total).real)))


def full_width_commutation(gain_set, trajectory):
    """Per gain, the max deviation between the central difference of the
    lifted coefficients and the lift of the central difference of the
    boundary data, every table row lifted by lifting_coefficients."""
    times = np.asarray(trajectory.times)
    dt = float(times[1] - times[0])
    n = gain_set.n_unstable
    U = np.asarray(trajectory.states)[:, :n]
    stack = np.vstack([U, (U[2:] - U[:-2]) / (2.0 * dt)])
    c = gain_set.m_list[:, None, :] * (stack * gain_set.a_gain)
    lifted = lifting_coefficients(np.reshape(gain_set.gammas, (n, 1)), c,
                                  gain_set.modes)
    d, rhs = lifted[:, :times.size], lifted[:, times.size:]
    dev = d[:, 2:] - d[:, :-2]
    dev /= 2.0 * dt
    dev -= rhs
    return np.max(np.abs(dev), axis=(1, 2))


def fit_metric_per_column(times, values, window):
    """The claim fit of one series by its own decay_rate_fit call: a
    degenerate pass below 1e-300, a failure where the fit rejects the
    window, else a pass when the rate is positive and the series stays
    under 1.05 times the fitted envelope in the window."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if np.max(values) < 1e-300:
        return MetricFit(gamma_hat=math.nan, sigma_hat=math.nan,
                         residual=0.0, passed=True, degenerate=True)
    try:
        amp, rate, residual = decay_rate_fit(times, values, window)
    except ValueError:
        return MetricFit(gamma_hat=math.nan, sigma_hat=math.nan,
                         residual=math.inf, passed=False)
    mask = (times >= window[0]) & (times <= window[1])
    bounded = bool(np.all(values[mask]
                          <= amp * np.exp(-rate * times[mask]) * 1.05))
    initial = float(values[0]) if values[0] > 0 else 1.0
    return MetricFit(gamma_hat=amp / initial, sigma_hat=rate,
                     residual=residual, passed=(rate > 0.0) and bounded)
