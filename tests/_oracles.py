"""Independent numeric oracles shared by the test modules.

Everything here deliberately avoids the package's own evaluation paths:
zeros come from plain bisection on high-precision series values, surface
integrals from explicit quadrature over boundary samples, the closed-loop
generator from its dense formula, and RK4 trajectories from textbook stages
on a dense generator.
"""

import math

import mpmath as mp
import numpy as np

from modalstab.special import quadrature_rule, real_spherical_harmonic

mp.mp.dps = 30


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
        for i, mode in enumerate(modes):
            m, parity = mode.angular
            if m == 0:
                ang = np.full_like(th, 1.0 / math.sqrt(2.0 * math.pi * R))
            else:
                base = np.cos(m * th) if parity == "cos" else np.sin(m * th)
                ang = base / math.sqrt(math.pi * R)
            traces[i] = mode.trace_amp * ang
    else:
        polar = quadrature_rule("gauss_legendre", 60, (-1.0, 1.0))
        azim = quadrature_rule("periodic_trapezoid", 120,
                               (0.0, 2.0 * math.pi))
        theta = np.arccos(polar.nodes)
        tt, pp = np.meshgrid(theta, azim.nodes, indexing="ij")
        w = np.outer(polar.weights, azim.weights).ravel() * R * R
        traces = np.empty((len(modes), w.size))
        for i, mode in enumerate(modes):
            l, m = mode.angular
            harm = real_spherical_harmonic(l, m, tt, pp)
            traces[i] = mode.trace_amp * harm.ravel() / R
    return (traces * w) @ traces.T


def dense_coupled_split(generator):
    """(d, S, T, K) of the coupled-column split through the dense
    off-diagonal part G - diag(d): S holds the columns with a nonzero
    off-diagonal entry, T the rest, and K = (G - diag(d))[:, S]."""
    gen = np.asarray(generator, dtype=float)
    d = np.diag(gen).copy()
    off = gen - np.diag(d)
    coupled = np.any(off != 0.0, axis=0)
    return d, np.flatnonzero(coupled), np.flatnonzero(~coupled), \
        off[:, coupled]


def dense_generator(system):
    """The closed-loop generator as a dense n_sim x n_sim matrix, from its
    defining formula diag(mu) - beta C on the leading N columns."""
    gen = np.diag(system.mu)
    gen[:, :system.n_unstable] -= system.beta @ system.coupling
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
