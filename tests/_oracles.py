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
the arithmetic bit for bit, so they share the package's Bessel lanes and
step maps.  step_map_all_rows powers F on every tail row, zero rows of
G[s:, :s] included, which CoupledSplit.step_map skips; the two must agree
bit for bit.
"""

import math
from collections import namedtuple

import mpmath as mp
import numpy as np

from modalstab.basis import _zeros_below, mode_values
from modalstab.special import (bessel_j_all, bessel_j_zeros, quadrature_rule,
                               real_spherical_harmonic,
                               spherical_bessel_zeros, spherical_j_all)

mp.mp.dps = 30

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


def disk_candidates(n_sim):
    """All (alpha, angular, k) with the n_sim smallest alpha, order (alpha,
    m, cos before sin, k)."""
    cut = 2.0 * math.sqrt(n_sim) + 6.0
    need = f"n_sim={n_sim} requires Bessel orders"
    while True:
        entries = []
        for m, zeros in enumerate(_zeros_below(bessel_j_zeros, cut, need)):
            for k, z in enumerate(zeros, start=1):
                if m == 0:
                    entries.append((float(z), (0, "cos"), k))
                else:
                    entries.append((float(z), (m, "cos"), k))
                    entries.append((float(z), (m, "sin"), k))
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
        for l, zeros in enumerate(_zeros_below(spherical_bessel_zeros, cut,
                                               need)):
            for k, z in enumerate(zeros, start=1):
                for m in range(-l, l + 1):
                    entries.append((float(z), (l, m), k))
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
    alphas = np.array([alpha for alpha, _, _ in cands])
    orders = np.array([angular[0] for _, angular, _ in cands])
    lane_fn = bessel_j_all if disk else spherical_j_all
    j_next = np.abs(lane_fn(orders + 1, alphas))
    modes = []
    for n, ((alpha, angular, k), j) in enumerate(zip(cands, j_next.tolist()),
                                                 start=1):
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
    step at a time, u[:s] <- E u[:s] and u[s:] <- decay u[s:] + F u[:s],
    stopping before the first sample that is not finite or exceeds limit
    in magnitude; returns (states, truncated)."""
    E, F, decay = blocks
    s = split.K.shape[1]
    states = [np.asarray(u0, dtype=float)]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_steps):
            u = states[-1]
            nxt = np.empty_like(u)
            nxt[:s] = E @ u[:s]
            nxt[s:] = decay * u[s:] + F @ u[:s]
            if not np.max(np.abs(nxt)) <= limit:
                return np.array(states), True
            states.append(nxt)
    return np.array(states), False


def step_map_all_rows(split, dt, degree=18, count=None):
    """The blocks (E, F, decay) of split's one-step map P(G dt /
    count)^count, the lower-left block F powered on every tail row,
    whether or not its row of G[s:, :s] is zero."""
    def bordered(x, y):
        (E1, f1, e1), (E2, f2, e2) = x, y
        return E1 @ E2, f1 @ E2 + e1[:, None] * f2, e1 * e2

    def offset(x, y):
        return tuple(a + b + c for a, b, c in zip(x, y, bordered(x, y)))

    s = split.K.shape[1]
    x = ((split.K[:s] + np.diag(split.d[:s])) * dt, split.K[s:] * dt,
         split.d[s:] * dt)
    if count is None:
        lead, rows, corner = (np.abs(b) for b in x)
        norm = max(np.max(lead.sum(axis=0) + rows.max(axis=0, initial=0.0),
                          initial=0.0), np.max(corner, initial=0.0))
        count = 2 ** max(0, int(np.ceil(np.log2(norm)))) if norm else 1
    x = tuple(b / count for b in x)
    w = tuple(b / degree for b in x)
    for j in range(degree - 1, 0, -1):
        xj = tuple(b / j for b in x)
        w = tuple(a + b for a, b in zip(xj, bordered(xj, w)))
    power = None
    while True:
        count, bit = divmod(count, 2)
        if bit:
            power = w if power is None else offset(power, w)
        if not count:
            break
        w = offset(w, w)
    return np.eye(s) + power[0], power[1], 1.0 + power[2]


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
