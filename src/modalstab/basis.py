"""Dirichlet eigenpairs of Delta + lambda on the disk and ball.

Modes are enumerated in descending eigenvalue order with deterministic
tie-breaking, L2-normalized with the radial factor positive near the origin,
and carry closed-form normal-trace amplitudes so that boundary Gram entries
reduce to products of per-mode constants.

The Bessel work is batched: enumeration takes every order's zeros below a
cut, and their slopes f_m'(alpha) = -f_{m+1}(alpha), which give the
normalization constants, from one zero-finder call, `zeros_fn(orders, cut)`,
and the radial factor, which depends only on (order, k), is evaluated once
per distinct pair at the distinct radii, then gathered per mode
(`_radial_values`, shared by the grid values and the quadrature
projection).  Each (order, k) x radius is a lane of one Bessel call: its
order's row of one recurrence table at the pairs' top order.

The table is one `ModeTable` of per-mode arrays; every evaluator reads the
arrays, and compares angular keys by one integer code per mode.

The angular factor exists once, in `angular_values`: 1, cos(m theta) or
sin(m theta) on the disk and `special.real_spherical_harmonics` of the
keys' (l, m) arrays on the ball, evaluated once per distinct angular key
(`angular_keys`).  Grid values, the quadrature projection and the normal
traces (`boundary_traces`) all go through it.  Each mode's sign under
each axis reflection is read off its key (`angular_parities`).
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from .special import (
    MAX_ORDER,
    bessel_j_all,
    bessel_j_zeros,
    quadrature_rule,
    real_spherical_harmonics,
    spherical_bessel_zeros,
    spherical_j_all,
)


class CapacityError(ValueError):
    """Mode enumeration would need Bessel orders above the supported cap."""


@dataclass(frozen=True)
class Domain:
    shape: str          # "disk" (2-D) or "ball" (3-D)
    radius: float

    def __post_init__(self):
        if self.shape not in ("disk", "ball"):
            raise ValueError(f"unknown domain shape {self.shape!r}")
        if not self.radius > 0:
            raise ValueError("radius must be positive")

    @property
    def dim(self) -> int:
        return 2 if self.shape == "disk" else 3


_FLOAT_FIELDS = ("alpha", "kappa", "mu", "norm_const", "trace_amp")
_ARRAY_FIELDS = ("n", "order", "second", "k") + _FLOAT_FIELDS


@dataclass(frozen=True, eq=False)
class ModeTable:
    """Dirichlet eigenpairs of Delta + lambda, one read-only array per field.

    n is the 1-based position in the table (state column n - 1); the
    angular key (order, second) is (m, parity) on the disk, with second 0
    for cos and 1 for sin, and (l, m) with |m| <= l on the ball; k is the
    radial zero rank; alpha the k-th positive zero of the radial Bessel
    factor; kappa = (alpha/R)^2 the Dirichlet Laplacian eigenvalue; mu =
    lambda - kappa; norm_const the L2(Omega) normalization; trace_amp the
    signed amplitude of the outward normal derivative against the
    boundary-orthonormal angular factor.  A slice, index array or mask
    gives the sub-table of those rows, each keeping its n; a row is read
    off the arrays (modes.mu[i]), and an int index raises TypeError.
    """

    shape: str
    n: np.ndarray
    order: np.ndarray
    second: np.ndarray
    k: np.ndarray
    alpha: np.ndarray
    kappa: np.ndarray
    mu: np.ndarray
    norm_const: np.ndarray
    trace_amp: np.ndarray

    def __post_init__(self):
        # read-only views: the arrays the caller passed stay writable
        for name in _ARRAY_FIELDS:
            view = getattr(self, name).view()
            view.setflags(write=False)
            object.__setattr__(self, name, view)

    @property
    def code(self) -> np.ndarray:
        """One integer per angular key, equal exactly when the keys are."""
        return self.second + self.order * (
            2 if self.shape == "disk" else self.order + 1)

    def __len__(self) -> int:
        return self.n.size

    def __getitem__(self, index):
        rows = [getattr(self, name)[index] for name in _ARRAY_FIELDS]
        if np.ndim(rows[0]) != 1:
            raise TypeError("a ModeTable takes a slice, index array or "
                            "mask; read a row off its arrays")
        return ModeTable(self.shape, *rows)

    def same_as(self, other) -> bool:
        """Whether the two tables are equal in every field."""
        return self.shape == other.shape and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in _ARRAY_FIELDS)


@dataclass(frozen=True)
class SpectrumSummary:
    n_unstable: int          # count of nonnegative mu
    n_sim: int
    eigenvalues: tuple


def _zeros_below(zeros_fn, cut: float, need: str):
    """Every order's zeros up to `cut` as flat arrays (order, zero,
    slope), ascending in order and then in zero, from one zero-finder
    call whose scan ends at the cut.

    Zeros of order m lie above m, so only orders below the cut have any.
    Zeros grow with the order, so a zero of the top supported order below
    the cut means higher orders would be needed as well.
    """
    orders = np.arange(min(math.ceil(cut), MAX_ORDER + 1))
    order, zeros, slope = zeros_fn(orders, cut)
    if order.size and order[-1] == MAX_ORDER:
        raise CapacityError(f"{need} beyond {MAX_ORDER}")
    return order, zeros, slope


def _candidates(domain: Domain, n_sim: int):
    """Arrays (alpha, order, slot, k, slope) of the n_sim smallest alpha,
    slope the radial factor's derivative at alpha, from one
    lexsort by alpha, order, slot, then k: as equal alphas occur only
    within one order, the order of the (alpha, key, k) tuples themselves.

    The shapes differ only in data: the starting cut, the zero finder, and
    the keys of radial order m by slot: (0, "cos") at m = 0, then
    (m, "cos"), (m, "sin") on the disk, and (l, slot - l) on the ball.
    """
    if domain.shape == "disk":
        cut = 2.0 * math.sqrt(n_sim) + 6.0
        zeros_fn, needed = bessel_j_zeros, "Bessel orders"
        key_count = lambda m: np.minimum(m, 1) + 1
    else:
        cut = (4.5 * math.pi * n_sim) ** (1.0 / 3.0) + 4.0
        zeros_fn, needed = spherical_bessel_zeros, "spherical degrees"
        key_count = lambda l: 2 * l + 1
    need = f"n_sim={n_sim} requires {needed}"
    while True:
        order, zeros, slope = _zeros_below(zeros_fn, cut, need)
        counts = key_count(order)
        if counts.sum() >= n_sim:
            break
        cut *= 1.25
    # each zero's rank within its order
    k = np.arange(order.size) + 1 - np.searchsorted(order, order)
    # every zero once per key of its order
    alpha, order, k, slope = (np.repeat(a, counts)
                              for a in (zeros, order, k, slope))
    slot = np.arange(alpha.size) - np.repeat(np.cumsum(counts) - counts,
                                             counts)
    pick = np.lexsort((k, slot, order, alpha))[:n_sim]
    return alpha[pick], order[pick], slot[pick], k[pick], slope[pick]


def enumerate_modes(domain: Domain, lam: float, n_sim: int):
    """Leading n_sim eigenpairs sorted by descending mu = lambda - kappa.

    Returns (ModeTable, SpectrumSummary).  The candidate pool always holds
    complete degenerate multiplets; the final cut keeps exactly n_sim modes
    in the deterministic tie-break order, so the trailing multiplet may be
    kept only partially.
    """
    if n_sim < 1:
        raise ValueError("n_sim must be >= 1")
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    R = domain.radius
    alpha, order, slot, k, slope = _candidates(domain, n_sim)

    trace_scale = math.sqrt(2.0 / R**3)
    # |f_{m+1}(alpha)| = |f_m'(alpha)| at a zero of f_m
    j_next = np.abs(slope)
    # C pow, as Python's ** is; numpy's ** 2 squares, off in the last bit
    kappa = np.float_power(alpha / R, 2)
    mu = lam - kappa
    if domain.shape == "disk":
        norm_const = np.where(order == 0, 1.0, math.sqrt(2.0)) \
            / (math.sqrt(math.pi) * R * j_next)
    else:
        norm_const = trace_scale / j_next
    trace_amp = np.where(k % 2, -alpha, alpha) * trace_scale
    modes = ModeTable(domain.shape, np.arange(1, n_sim + 1), order,
                      slot if domain.shape == "disk" else slot - order, k,
                      alpha, kappa, mu, norm_const, trace_amp)
    return modes, SpectrumSummary(n_unstable=count_unstable(modes),
                                  n_sim=n_sim, eigenvalues=tuple(mu.tolist()))


def count_unstable(modes) -> int:
    return int(np.count_nonzero(modes.mu >= 0.0))


def angular_keys(modes):
    """Distinct angular keys in first-appearance order, as the sub-table of
    the first mode of each, and each mode's row among them."""
    _, first, rows = np.unique(modes.code, return_index=True,
                               return_inverse=True)
    # np.unique sorts the codes: rank each by its first appearance
    return modes[np.sort(first)], np.argsort(np.argsort(first))[rows]


def point_angles(domain: Domain, points):
    """Angles of Cartesian points (n, dim) as angular_values takes them:
    theta on the disk, (cos theta, sin theta, phi) on the ball, with the
    polar angle 0 at the origin."""
    pts = np.asarray(points, dtype=float)
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    if domain.shape == "disk":
        return phi
    r = np.linalg.norm(pts, axis=1)
    ct = np.clip(np.where(r > 0, pts[:, 2] / np.where(r > 0, r, 1.0), 1.0),
                 -1.0, 1.0)
    return ct, np.sqrt(1.0 - ct * ct), phi


def angular_values(keys, domain: Domain, angles) -> np.ndarray:
    """Angular factors of the angular keys of a table's rows at the angles;
    shape (len(keys),) + the angles' shape.

    Disk keys (m, parity) give 1 (m = 0), cos(m theta) or sin(m theta) at
    angles theta; ball keys (l, m) give the real spherical harmonic at
    angles (cos theta, sin theta, phi), which broadcast.
    """
    if domain.shape == "ball":
        return real_spherical_harmonics(keys.order, keys.second, *angles)
    theta = np.asarray(angles, dtype=float)
    m, sin = (a.reshape((-1,) + (1,) * theta.ndim)
              for a in (keys.order, keys.second))
    return np.where(sin == 1, np.sin(m * theta), np.cos(m * theta))


def angular_parities(modes, domain: Domain) -> np.ndarray:
    """Sign each mode's angular factor takes under the reflection of each
    Cartesian axis, x first; shape (len(modes), dim), entries +1 or -1.

    Disk (m, "cos") is even in y and (-1)^m in x, (m, "sin") odd in y and
    -(-1)^m in x.  Ball (l, m) is (-1)^(l+|m|) in z, odd in y iff m < 0,
    and (-1)^|m| in x for m >= 0, -(-1)^|m| for m < 0.  On both shapes
    the x sign is (-1)^|m| times the y sign.
    """
    disk = domain.shape == "disk"
    m = modes.order if disk else np.abs(modes.second)
    y = np.where(modes.second == 1 if disk else modes.second < 0, -1, 1)
    z = [] if disk else [(-1) ** (modes.order + m)]
    return np.stack([(-1) ** m * y, y, *z], axis=1)


def boundary_traces(modes, domain: Domain, angles) -> np.ndarray:
    """Outward normal derivatives of the eigenfunctions at boundary angles;
    shape (n_modes,) + the angles' shape.

    Each is trace_amp times the L2(boundary)-orthonormal angular factor:
    the disk factor over sqrt(2 pi R) (m = 0) or sqrt(pi R), the ball
    harmonic over R.
    """
    keys, rows = angular_keys(modes)
    R = domain.radius
    factors = angular_values(keys, domain, angles)
    if domain.shape == "disk":
        factors = (factors.T * np.where(keys.order == 0, 1.0 / math.sqrt(
            2.0 * math.pi * R), 1.0 / math.sqrt(math.pi * R))).T
    else:
        factors /= R
    return (factors[rows].T * modes.trace_amp).T


def boundary_gram(row_modes, col_modes) -> np.ndarray:
    """L2(boundary) inner products of the normal traces of row_modes x
    col_modes, in closed form: trace_amp_i * trace_amp_j where the two
    angular keys are equal, 0 otherwise."""
    return np.outer(row_modes.trace_amp, col_modes.trace_amp) \
        * (row_modes.code[:, None] == col_modes.code[None, :])


def angular_rule(domain: Domain, order: int, refine: int):
    """Angular tensor rule exact for products of angular order up to
    `order`: an azimuthal trapezoid with (4*order + 16)*refine nodes, times
    a polar Gauss-Legendre rule in cos(theta) with (2*order + 16)*refine
    nodes on the ball.  Returns (azimuth,) or (polar, azimuth)."""
    azimuth = quadrature_rule("periodic_trapezoid", (4 * order + 16) * refine,
                              (0.0, 2.0 * math.pi))
    if domain.shape == "disk":
        return (azimuth,)
    polar = quadrature_rule("gauss_legendre", (2 * order + 16) * refine,
                            (-1.0, 1.0))
    return polar, azimuth


def angular_nodes(rules):
    """Nodes of an angular_rule as angular_values takes them, and their
    weights: phi on the disk; (cos theta, sin theta, phi) on the ball, polar
    nodes along the first axis, with the polar x azimuth weight table."""
    if len(rules) == 1:
        return rules[0].nodes, rules[0].weights
    polar, azimuth = rules
    ct = polar.nodes[:, None]
    return ((ct, np.sqrt(1.0 - ct * ct), azimuth.nodes),
            np.outer(polar.weights, azimuth.weights))


def interior_quadrature(domain: Domain, modes, refine: int = 1):
    """Tensor quadrature rules sized for the given mode table: radial
    Gauss-Legendre with 8*k_max + 32 nodes, then angular_rule at the
    table's highest angular order; `refine` scales all sizes."""
    radial = quadrature_rule("gauss_legendre", (8 * int(modes.k.max()) + 32)
                             * refine, (0.0, domain.radius))
    return (radial, *angular_rule(domain, int(modes.order.max()), refine))


def _radial_values(modes, domain: Domain, r: np.ndarray) -> np.ndarray:
    """norm_const * (radial Bessel factor) for each mode at radii r.

    The factor depends only on (order, k): each distinct pair is evaluated
    once, at the distinct radii only, by one lane call over every pair x
    radius, and the table is gathered per mode.
    """
    R = domain.radius
    lane_fn = bessel_j_all if domain.shape == "disk" else spherical_j_all
    r_unique, r_index = np.unique(r, return_inverse=True)
    # the distinct (order, k) pairs, sorted, by one integer per pair
    _, first, rows = np.unique(modes.order * (modes.k.max(initial=0) + 1)
                               + modes.k, return_index=True,
                               return_inverse=True)
    x = np.outer(modes.alpha[first], r_unique) / R
    table = lane_fn(np.broadcast_to(modes.order[first][:, None], x.shape), x)
    # gathered in place, so that no second modes x radii array is needed
    out = table[rows[:, None], r_index]
    out *= modes.norm_const[:, None]
    return out


def mode_values(modes, domain: Domain, points: np.ndarray) -> np.ndarray:
    """Eigenfunction values at Cartesian points, each distinct angular key
    evaluated once; shape (n_modes, n_points)."""
    pts = np.asarray(points, dtype=float)
    keys, rows = angular_keys(modes)
    angular = angular_values(keys, domain, point_angles(domain, pts))
    values = _radial_values(modes, domain, np.linalg.norm(pts, axis=1))
    values *= angular[rows]
    return values


def project_function(f, modes, domain: Domain, refine: int = 1) -> np.ndarray:
    """Coefficients <f, phi_n> over the mode table by tensor quadrature.

    f must be callable on Cartesian coordinate arrays: f(x, y) on the disk,
    f(x, y, z) on the ball.  The field is reduced against each distinct
    angular key at every radial node, then against each mode's radial
    factor.
    """
    radial, *rules = interior_quadrature(domain, modes, refine)
    angles, w_ang = angular_nodes(rules)
    r = radial.nodes
    if domain.shape == "disk":
        rr = r[:, None]
        fvals = f(rr * np.cos(angles), rr * np.sin(angles))
    else:
        ct, st, ph = angles
        rr = r[:, None, None]
        fvals = f(rr * st * np.cos(ph), rr * st * np.sin(ph),
                  rr * ct * np.ones_like(ph))
    keys, rows = angular_keys(modes)
    weighted = angular_values(keys, domain, angles).reshape(len(keys), -1) \
        * w_ang.ravel()
    f_ang = np.asarray(fvals, dtype=float).reshape(r.size, -1) @ weighted.T
    rad_vals = _radial_values(modes, domain, r) \
        * (radial.weights * r ** (domain.dim - 1))
    return np.array([np.dot(rad, f_ang[:, row])
                     for rad, row in zip(rad_vals, rows)])


def export_mode_table(modes, path) -> None:
    """Write the mode table as CSV: n, ang1, ang2, k, alpha, kappa, mu,
    norm_const, trace_amp (ang1/ang2 are m/parity on the disk, l/m on the
    ball)."""
    second = modes.second.tolist() if modes.shape == "ball" \
        else np.where(modes.second, "sin", "cos").tolist()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "ang1", "ang2", "k", "alpha", "kappa", "mu",
                         "norm_const", "trace_amp"])
        writer.writerows(zip(
            modes.n.tolist(), modes.order.tolist(), second, modes.k.tolist(),
            *([format(v, ".17g") for v in getattr(modes, name).tolist()]
              for name in _FLOAT_FIELDS)))
