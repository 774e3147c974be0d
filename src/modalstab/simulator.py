"""Spectral Galerkin simulation of the boundary-controlled heat equation.

Projecting the PDE on the retained eigenfunctions through Green's identity
gives the exact modal ODE

    du_n/dt = mu_n u_n - <v, T_n(phi_n)>_boundary,

so G is diag(mu) minus a rank-N coupling through the extended boundary
Gram on the leading N coordinates; only the Gram rows of a head angular
key are nonzero, which assembly cross-checks in full on every run, and the
N head keys are distinct, so G's N x N lead block is diagonal.  The loop
is held only as that split, G = diag(d) + K on the N leading columns
(CoupledSplit), and its flow is N scalar cascades: each lead coordinate
evolves on its own, and each tail coordinate sees only itself and the
lead.  Both one-step maps f(G dt) are therefore closed forms (f = exp for
the exact map, the RK4 substep polynomial power for the cross-check):
f(d dt) on the diagonal and, on each nonzero K entry, K dt times the
divided difference of f between the lead's and the row's rate (the
lower-left entry of f of a 2 x 2 triangular block).  A trajectory fills
one array in place from the map's blocks, propagating only the tail rows
that F or u0 reach; no n_sim x n_sim array or product is formed.
Green's second identity projects the initial state exactly
(project_initial_condition).  Every per-mode number is read off the arrays
of the run's ModeTable, and assembly rejects a gain set built over a table
that differs in any field.
"""

import itertools
import math
import struct
from dataclasses import dataclass

import numpy as np

# boundary_gram and project_function are bound here for bench/tracing
from .basis import (angular_nodes, angular_rule, boundary_gram,
                    boundary_traces, count_unstable, project_function)
from .controller import GainSet, control_map

OVERFLOW_LIMIT = 1e12
SNAPSHOT_MAGIC = b"MSTB"
SNAPSHOT_VERSION = 1


class ConsistencyError(ValueError):
    """Mode table and gain set were not built together."""


class InsufficientExcitationError(ValueError):
    """Trajectory too short, or carrying no usable signal, for system
    identification."""


@dataclass(frozen=True)
class ClosedLoopSystem:
    split: "CoupledSplit"     # the generator diag(d) + K on its N lead columns
    coupling: np.ndarray      # N x N map from U to trace coefficients of v
    mu: np.ndarray
    gram_deviation: float = None  # max relative deviation of the Gram check


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray        # (n_times, n_sim)
    boundary_data: np.ndarray  # (n_times, N) trace coefficients of v
    truncated: bool = False


@dataclass(frozen=True)
class PolynomialSpec:
    """Low-degree polynomial factor of the initial condition.

    With explicit coefficients, they apply to monomials x^i y^j (z^k)
    ordered by total degree then lexicographically by exponent tuple.
    Otherwise coefficients are drawn uniformly from [-1, 1] by the seeded
    generator below.
    """

    degree: int = 3
    coefficients: tuple = None


@dataclass(frozen=True)
class ReducedFit:
    matrix: np.ndarray
    residual: float
    dist_direct: float = None
    dist_minus_s: float = None


_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


def lcg_uniform(seed: int, count: int) -> np.ndarray:
    """Deterministic uniforms in [-1, 1].

    64-bit linear congruential generator x <- (6364136223846793005 x +
    1442695040888963407) mod 2^64, state seeded with one warm-up step from
    the given integer; each draw maps the top 53 bits to [0, 1) and then
    affinely to [-1, 1].  Bit-reproducible across platforms.
    """
    state = (int(seed) * _LCG_MULT + _LCG_INC) & _LCG_MASK
    out = np.empty(count)
    for i in range(count):
        state = (state * _LCG_MULT + _LCG_INC) & _LCG_MASK
        out[i] = 2.0 * ((state >> 11) / float(1 << 53)) - 1.0
    return out


def _polynomial_factor(dim: int, spec: PolynomialSpec, seed: int) -> dict:
    """p as {exponent tuple: coefficient}, by total degree, then lexically."""
    if spec.degree > 3:
        raise ValueError("polynomial degree must be <= 3")
    exps = [e for total in range(spec.degree + 1)
            for e in itertools.product(range(total + 1), repeat=dim)
            if sum(e) == total]
    coeffs = lcg_uniform(seed, len(exps)) if spec.coefficients is None \
        else np.asarray(spec.coefficients, dtype=float)
    if coeffs.size != len(exps):
        raise ValueError(
            f"expected {len(exps)} coefficients, got {coeffs.size}")
    return dict(zip(exps, coeffs))


def _polynomial_values(poly: dict, xs) -> np.ndarray:
    """A {exponent tuple: coefficient} polynomial at coordinate arrays xs,
    each term c * x**i * y**j [* z**k] multiplied left to right."""
    zero = np.zeros(np.broadcast_shapes(*(np.shape(x) for x in xs)))
    return sum((math.prod((x**p for x, p in zip(xs, e)), start=c)
                for e, c in poly.items()), zero)


def _laplacian(poly: dict) -> dict:
    """Exact Laplacian of a {exponent tuple: coefficient} polynomial."""
    out = {}
    for e, c in poly.items():
        for axis, k in enumerate(e):
            if k >= 2:
                lower = e[:axis] + (k - 2,) + e[axis + 1:]
                out[lower] = out.get(lower, 0.0) + k * (k - 1) * c
    return out


def initial_condition_field(domain, spec: PolynomialSpec, seed: int):
    """(R^2 - |x|^2) * p(x) with p the (possibly seeded random) polynomial.

    Returns a callable on the domain's dim Cartesian coordinate arrays,
    field(x, y) on the disk and field(x, y, z) on the ball.
    """
    dim = domain.dim
    poly = _polynomial_factor(dim, spec, seed)
    r2 = domain.radius**2

    def field(*xs):
        if len(xs) != dim:
            raise TypeError(f"field takes {dim} coordinates, got {len(xs)}")
        return (r2 - sum((x * x for x in xs[1:]), xs[0] * xs[0])) \
            * _polynomial_values(poly, xs)
    return field


def project_initial_condition(domain, modes, polynomial_spec: PolynomialSpec,
                              seed: int) -> np.ndarray:
    """Exact projection of the bump-times-polynomial initial state.

    u0 = (R^2 - |x|^2) p and phi_n vanish on the boundary and Delta phi_n =
    -kappa_n phi_n, so Green's second identity gives <u0, phi_n> = b_1 /
    kappa_n^2 - b_2 / kappa_n^3, b_k the boundary integral of (Delta^k u0)
    d_n phi_n; the sum stops there, as deg p <= 3 makes Delta^3 u0 = 0.
    On the boundary Delta^k u0 has angular order <= deg p, so
    angular_rule(domain, deg p, 1) is exact against the closed-form
    normal traces, and every mode of higher angular order (disk m, ball l)
    has coefficient 0.
    """
    dim, R, degree = domain.dim, domain.radius, polynomial_spec.degree
    poly = _polynomial_factor(dim, polynomial_spec, seed)
    angles, weights = angular_nodes(angular_rule(domain, degree, 1))
    ct, st, ph = angles if dim == 3 else (0.0, 1.0, angles)   # disk: equator
    xs = (R * st * np.cos(ph), R * st * np.sin(ph), R * ct)[:dim]
    # on |x| = R, with q_d the degree-d part of q (x . grad q_d = d q_d),
    # Delta u0 = -sum (4d + 2 dim) p_d, Delta^2 u0 = -sum (8d + 4 dim + 8)
    # (Delta p)_d; the surface measure is R^(dim-1) times the angular one
    values = np.stack([_polynomial_values(
        {e: -(slope * sum(e) + offset) * c for e, c in q.items()}, xs)
        for q, slope, offset in ((poly, 4, 2 * dim),
                                 (_laplacian(poly), 8, 4 * dim + 8))])
    rows = (values * weights).reshape(2, -1) * R ** (dim - 1)
    kept = np.flatnonzero(modes.order <= degree)
    traces = boundary_traces(modes[kept], domain, angles)
    b1, b2 = rows @ traces.reshape(kept.size, -1).T
    kappa = modes.kappa[kept]
    coeffs = np.zeros(len(modes))
    coeffs[kept] = (b1 - b2 / kappa) / kappa**2
    return coeffs


def _check_gram_block(modes, domain, gain_set) -> float:
    """Cross-check every entry of the coupled rows of the gain set's beta
    (those of a head key, chosen from the keys, and its coupled_rows, any
    with a nonzero entry) against surface quadrature of the normal traces,
    by one rule at their highest angular order; returns the max relative
    deviation.  Every other entry is a zero between distinct keys."""
    beta, n = gain_set.beta, gain_set.n_unstable
    checked = np.isin(modes.code, modes.code[:n])
    checked[gain_set.coupled_rows] = True
    rows = np.flatnonzero(checked)
    order = int(modes.order[rows].max())
    angles, weights = angular_nodes(angular_rule(domain, order, 1))
    traces = boundary_traces(modes[rows], domain,
                             angles).reshape(rows.size, -1)
    # head rows lead; the surface measure is R^(dim-1) times the angular one
    quads = (traces * weights.ravel()) @ traces[:n].T \
        * domain.radius ** (domain.dim - 1)
    deviation = np.abs(quads - beta[rows]) / np.maximum(1.0, np.abs(quads))
    failed = np.argwhere(~(deviation <= 1e-9))    # NaN fails as well
    if failed.size:
        i, col = failed[0]
        raise ConsistencyError(
            f"closed-form Gram entry ({rows[i]},{col})={beta[rows[i], col]} "
            f"disagrees with quadrature {quads[i, col]}")
    return float(np.max(deviation))


def assemble_closed_loop(modes, gain_set: GainSet,
                         domain) -> ClosedLoopSystem:
    """The closed loop diag(mu) - beta C on the leading N columns, as its
    coupled split: K = -(beta C) with its diagonal moved into d.

    Every entry of the closed-form gain_set.beta in the rows of a head
    angular key or with a nonzero entry is cross-checked against surface
    quadrature; a disagreement beyond 1e-9 relative raises
    ConsistencyError, naming the first failing entry, and the max
    deviation is kept; so does a gain set built over a table that differs
    from modes in any field.  The open loop (v = 0) needs no assembly.
    """
    mu, n = modes.mu, gain_set.n_unstable
    if not modes.same_as(gain_set.modes):
        raise ConsistencyError("gain set was synthesized over a different "
                               "mode table")
    beta = gain_set.beta
    gram_deviation = _check_gram_block(modes, domain, gain_set)
    coupling = np.diag(control_map(gain_set))
    product = beta * coupling.diagonal()     # beta C, C diagonal
    d = mu.copy()
    d[:n] -= product.diagonal()
    # 0 - product, not -product: an exact zero stays +0.0, so K holds the
    # off-diagonal entries of the dense diag(mu) - product bit for bit
    K = 0.0 - product
    np.fill_diagonal(K, 0.0)
    return ClosedLoopSystem(split=CoupledSplit(d=d, K=K), coupling=coupling,
                            mu=mu, gram_deviation=gram_deviation)


def _time_grid(dt: float, horizon: float) -> np.ndarray:
    if dt <= 0 or horizon < dt:
        raise ValueError("need dt > 0 and horizon >= dt")
    return np.arange(int(round(horizon / dt)) + 1) * dt


def _finalize(times, states, coupling) -> Trajectory:
    """The samples before the first one past u0 that is not finite or
    exceeds 1e12 in magnitude, which truncates the trajectory (u0 is taken
    as given), with the boundary data coupling U."""
    # NaN and inf fail the comparison as well
    with np.errstate(invalid="ignore"):
        valid = np.maximum(states[1:].max(axis=1),
                           -states[1:].min(axis=1)) <= OVERFLOW_LIMIT
    keep = 1 + int(np.argmin(np.append(valid, False)))
    states = states[:keep]
    return Trajectory(times=times[:keep], states=states,
                      boundary_data=states[:, :coupling.shape[0]] @ coupling.T,
                      truncated=keep < times.size)


@dataclass(frozen=True)
class CoupledSplit:
    """G = diag(d) + K on its s = K.shape[1] leading, coupled columns.

    K = (G - diag(d))[:, :s], every later column carries only its
    diagonal, and K's s x s lead block is zero, which construction checks:
    each lead coordinate evolves on its own and each tail coordinate sees
    only itself and the lead, so the flow is s scalar cascades.
    """

    d: np.ndarray
    K: np.ndarray

    def __post_init__(self):
        s = self.K.shape[1]
        coupled = np.argwhere(self.K[:s] != 0.0)
        if coupled.size:
            i, j = coupled[0]
            raise ValueError(f"lead block entry K[{i}, {j}] = {self.K[i, j]}"
                             " is nonzero; the lead block must be diagonal")

    def step_map(self, dt: float, count: int = None):
        """The blocks (E, F, decay) of the one-step map u -> f(G dt) u: a
        step takes the lead u[:s] to E * u[:s] and the tail u[s:] to decay
        * u[s:] + F u[:s].

        By default f = exp, the exact map; with a count, f(z) = P(z /
        count)^count, P the degree-4 Taylor polynomial of exp: count
        classical RK4 substeps of a linear system.  G dt is block lower
        triangular with the diagonal lead diag(x), x = d[:s] dt, and tail
        diagonal y = d[s:] dt, so E = f(x), decay = f(y), and F is K dt
        times the divided difference f[x_j, y_t] on each nonzero entry (t,
        j) of K[s:], the lower-left entry of f([[x_j, 0], [1, y_t]])
        (Higham 2008, ch. 4); every other entry of F is an exact +0.0.
        """
        s = self.K.shape[1]
        rows, cols = np.nonzero(self.K[s:])
        z = self.d * dt
        x, y = z[cols], z[s + rows]
        if count is None:
            # e^max(x, y) (1 - e^-|x - y|) / |x - y|, the fraction 1 at x = y
            gap = np.abs(x - y)
            fraction = np.divide(-np.expm1(-gap), gap,
                                 out=np.ones_like(gap), where=gap > 0.0)
            f, slope = np.exp(z), np.exp(np.maximum(x, y)) * fraction
        else:
            # the count-th power of the triangular [[P(u), 0], [P[u, v] /
            # count, P(v)]], u, v = x, y / count, by squaring; with |u|,
            # |v| <= 0.5 (integrate's substep rule) P(u) and P[u, v] are
            # positive, so no sum in the powering cancels
            w, u, v = z / count, x / count, y / count
            diag = 1.0 + w * (1.0 + w / 2.0 * (1.0 + w / 3.0
                                                * (1.0 + w / 4.0)))
            lower = (1.0 + (u + v) / 2.0 + (u * u + u * v + v * v) / 6.0
                     + (u + v) * (u * u + v * v) / 24.0) / count
            f, slope = np.ones_like(z), np.zeros_like(x)
            while count:
                count, bit = divmod(count, 2)
                if bit:
                    f, slope = (f * diag,
                                slope * diag[cols] + f[s + rows] * lower)
                diag, lower = (diag * diag,
                               lower * (diag[cols] + diag[s + rows]))
        F = np.zeros((self.d.size - s, s))
        F[rows, cols] = self.K[s:][rows, cols] * dt * slope
        return f[:s], F, f[s:]


def integrate(system: ClosedLoopSystem, u0_coeffs, dt: float, horizon: float,
              method: str = "expm_step") -> Trajectory:
    """Propagate the linear system from the projected initial state.

    Both methods work on the system's coupled split of the generator
    (CoupledSplit): the N leading columns, whose lead block is diagonal,
    and the diagonal rest, so the flow is N scalar cascades.  Each builds
    the blocks of its one-step map once, in closed form, in O(n_sim N)
    (CoupledSplit.step_map): f(d dt) on the diagonal and K dt times the
    divided difference of f on the nonzero entries of K.  expm_step takes f
    = exp, the exact flow exp(G dt).  rk4, an independent check, takes
    f(z) = P(z / n_sub)^n_sub, the classical fourth-order step of a linear
    system (the degree-4 Taylor polynomial of h G) over the n_sub
    substeps sized to the spectral radius.  The samples fill one array:
    the lead columns by E * lead[k] per step, the tail by one F product
    over all steps and t_(k+1) += decay t_k on the live rows (a nonzero F
    row or u0 entry, or a non-finite decay); every other tail row stays
    exactly +0.0 past u0.
    The first sample past u0 that is not finite or exceeds 1e12 in
    magnitude truncates the trajectory (_finalize, shared with open_loop).
    """
    times = _time_grid(dt, horizon)
    u0 = np.asarray(u0_coeffs, dtype=float)
    split = system.split
    if u0.shape != split.d.shape:
        raise ValueError(f"initial state has shape {u0.shape}, "
                         f"expected {split.d.shape}")
    if method == "expm_step":
        args = (dt,)
    elif method == "rk4":
        # ||G - diag(mu)||_F, whose off-diagonal part is all in K
        radius_bound = float(np.max(np.abs(system.mu))
                             + np.hypot(np.linalg.norm(split.K),
                                        np.linalg.norm(split.d - system.mu)))
        args = (dt, max(1, int(np.ceil(dt * radius_bound / 0.5))))
    else:
        raise ValueError(f"unknown method {method!r}")
    states = np.zeros((times.size, u0.size))
    states[0] = u0
    lead, tail = states[:, :split.K.shape[1]], states[:, split.K.shape[1]:]
    # the map and the samples past an overflow may turn inf or NaN; they
    # are cut in _finalize
    with np.errstate(over="ignore", invalid="ignore"):
        E, F, decay = split.step_map(*args)
        for k in range(times.size - 1):
            np.multiply(E, lead[k], out=lead[k + 1])
        live = np.flatnonzero(F.any(axis=1) | (tail[0] != 0.0)
                              | ~np.isfinite(decay))
        F, decay = F[live], decay[live]
        rows = np.empty((times.size, live.size))
        rows[0] = tail[0, live]
        np.matmul(lead[:-1], F.T, out=rows[1:])
        for k in range(times.size - 1):
            rows[k + 1] += decay * rows[k]
        tail[:, live] = rows
    return _finalize(times, states, system.coupling)


def open_loop(modes, u0_coeffs, dt: float, horizon: float) -> Trajectory:
    """Exact uncontrolled evolution u_n(t) = u_n(0) exp(mu_n t), truncated
    by integrate's rule (_finalize)."""
    times = _time_grid(dt, horizon)
    u0 = np.asarray(u0_coeffs, dtype=float)
    states = np.empty((times.size, u0.size))
    states[0] = u0
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(u0, np.exp(np.outer(times[1:], modes.mu)), out=states[1:])
    n = count_unstable(modes)
    return _finalize(times, states, np.zeros((n, n)))


def reduced_dynamics_fit(trajectory: Trajectory,
                         gain_set: GainSet = None) -> ReducedFit:
    """Least-squares identification of the reduced generator from central
    differences of the leading coordinates; with a gain set, also reports
    spectral distances to both generator candidates.

    Degenerate eigenvalue pairs make some directions of a single trajectory
    proportional, so the fit is minimum-norm and the candidate distances are
    measured on the excited subspace (the row space of the samples), where
    the generator is identifiable.
    """
    times = np.asarray(trajectory.times)
    if times.size < 10:
        raise InsufficientExcitationError("need at least 10 samples")
    n = trajectory.boundary_data.shape[1]
    U = np.asarray(trajectory.states)[:, :n]
    if np.max(np.abs(U)) < 1e-12:
        raise InsufficientExcitationError(
            "leading coordinates below 1e-12 throughout")
    dt = float(times[1] - times[0])
    diffs = (U[2:] - U[:-2]) / (2.0 * dt)
    mids = U[1:-1]
    sol, _, _, _ = np.linalg.lstsq(mids, diffs, rcond=None)
    g = sol.T
    residual = float(np.linalg.norm(mids @ sol - diffs)
                     / max(np.linalg.norm(diffs), 1e-300))
    dist_direct = dist_minus_s = None
    if gain_set is not None:
        _, svals, vt = np.linalg.svd(mids, full_matrices=False)
        rank = int(np.sum(svals > svals[0] * 1e-10))
        basis = vt[:rank].T                      # excited subspace
        dist_direct, dist_minus_s = (
            float(np.linalg.norm((g - np.diag(target)) @ basis, 2))
            for target in (gain_set.a_direct, -gain_set.s_total))
    return ReducedFit(matrix=g, residual=residual, dist_direct=dist_direct,
                      dist_minus_s=dist_minus_s)


def tail_energy(trajectory: Trajectory) -> np.ndarray:
    n = trajectory.boundary_data.shape[1]
    return np.sum(trajectory.states[:, n:] ** 2, axis=1)


def write_trajectory_csv(trajectory: Trajectory, path) -> None:
    """CSV with header t, u_1..u_N, tail_energy, v_coeff_1..v_coeff_N."""
    n = trajectory.boundary_data.shape[1]
    tail = tail_energy(trajectory)
    with open(path, "w", newline="") as fh:
        header = (["t"] + [f"u_{i + 1}" for i in range(n)] + ["tail_energy"]
                  + [f"v_coeff_{i + 1}" for i in range(n)])
        fh.write(",".join(header) + "\n")
        for k, t in enumerate(trajectory.times):
            row = ([format(t, ".17g")]
                   + [format(v, ".17g") for v in trajectory.states[k, :n]]
                   + [format(tail[k], ".17g")]
                   + [format(v, ".17g") for v in trajectory.boundary_data[k]])
            fh.write(",".join(row) + "\n")


def write_snapshots(trajectory: Trajectory, path) -> None:
    """Binary snapshots: 16-byte header (magic MSTB, version, n_sim, count,
    little-endian uint32) followed by the per-time coefficient vectors as
    little-endian float64."""
    states = np.asarray(trajectory.states, dtype="<f8")
    header = struct.pack("<4sIII", SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
                         states.shape[1], states.shape[0])
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(states.tobytes())


def read_snapshots(path):
    """Inverse of write_snapshots; returns (version, states)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    magic, version, n_sim, count = struct.unpack("<4sIII", raw[:16])
    if magic != SNAPSHOT_MAGIC:
        raise ValueError(f"bad snapshot magic {magic!r}")
    states = np.frombuffer(raw[16:], dtype="<f8").reshape(count, n_sim)
    return version, states
