"""Exact modal propagation of the boundary-controlled heat equation.

Projecting the PDE on the retained eigenfunctions through Green's identity
gives the exact modal ODE

    du_n/dt = mu_n u_n - <v, T_n(phi_n)>_boundary,

so G is diag(mu) minus a rank-N coupling through the extended boundary
Gram on the leading N coordinates.  Only the Gram rows of a head angular
key are nonzero, which assembly cross-checks in full on every run, and the
N head keys are distinct, so G's N x N lead block is diagonal and every
other row has at most one off-diagonal entry, in the lead column of its
key.  The loop is held only as that split (CoupledSplit: d, and per tail
row its lead and coefficient), and its flow is N scalar cascades [[a, 0],
[k, d]], each solved in closed form at every time by the divided
difference of exp (Higham 2008, ch. 4).  integrate evaluates that formula
at all samples at once; the RK4 cross-check is the same formula on a
modified split and the open loop its uncoupled case, so no time-stepping
loop and no n_sim x n_sim array or product is formed.
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
    split: "CoupledSplit"     # the generator: d, and each tail row's lead
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
    cascade split: the diagonal of beta C moves into d, and each tail row
    keeps the one entry of -(beta C) it can hold, in the lead column of
    its angular key (CoupledSplit).

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
    # beta pairs only equal angular keys and the N head keys are distinct,
    # so a tail row has at most one nonzero entry; 0 - product, not
    # -product: an exact zero stays +0.0, so k holds the entries of the
    # dense diag(mu) - product bit for bit
    tail = product[n:]
    lead = np.argmax(tail != 0.0, axis=1)
    k = 0.0 - tail[np.arange(lead.size), lead]
    return ClosedLoopSystem(split=CoupledSplit(d=d, lead=lead, k=k),
                            coupling=coupling, mu=mu,
                            gram_deviation=gram_deviation)


def _time_grid(dt: float, horizon: float) -> np.ndarray:
    # NaN fails every comparison, so it is rejected with inf
    if not 0.0 < dt <= horizon < math.inf:
        raise ValueError("need finite dt > 0 and horizon >= dt")
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
    """G = diag(d) plus one entry per tail row: row s + t, s = d.size -
    lead.size, holds k[t] in its lead column lead[t] < s (k[t] = +0.0, lead
    0, where the row sees no lead).  The s lead coordinates evolve on their
    own and each tail coordinate sees only itself and one lead, so the
    flow is s scalar cascades [[a, 0], [k, d]]; with no tail (lead and k
    empty) it is the uncoupled diag(d).
    """

    d: np.ndarray
    lead: np.ndarray
    k: np.ndarray

    def rk4(self, h: float) -> "CoupledSplit":
        """The split whose exact flow at t = m h is m classical RK4
        substeps of size h, P(h G)^m, P the degree-4 Taylor polynomial of
        exp.  P(h G) is block lower triangular with P(z) on the diagonal,
        z = h d, and h k P[u, v] below, u, v the lead's and the row's z, so
        its generator log P(h G) / h has the rates log P(z) / h and the
        couplings k P[u, v] (log P(u) - log P(v)) / (P(u) - P(v)) = k
        log1p(w) / (u - v), w = (u - v) P[u, v] / P(v).  P > 0 on the real
        line, so every logarithm is real; integrate's substep rule keeps
        |z| <= 0.5, where P(z) and P[u, v] lie in [0.6, 1.7].
        """
        z = h * self.d
        s = z.size - self.k.size
        u, v = z[self.lead], z[s:]
        # P[u, v] / P(v), P[u, v] the divided difference of P
        ratio = (1.0 + (u + v) / 2.0 + (u * u + u * v + v * v) / 6.0
                 + (u + v) * (u * u + v * v) / 24.0) \
            / (1.0 + v * (1.0 + v / 2.0 * (1.0 + v / 3.0 * (1.0 + v / 4.0))))
        w = (u - v) * ratio
        # log1p(w) / w, 1 at w = 0
        factor = np.divide(np.log1p(w), w, out=np.ones_like(w),
                           where=w != 0.0)
        rates = np.log1p(z * (1.0 + z / 2.0 * (1.0 + z / 3.0
                                                * (1.0 + z / 4.0)))) / h
        return CoupledSplit(d=rates, lead=self.lead,
                            k=self.k * ratio * factor)


def integrate(system: ClosedLoopSystem, u0_coeffs, dt: float, horizon: float,
              method: str = "expm_step") -> Trajectory:
    """The closed loop's flow from the projected initial state, in closed
    form at every sample.

    The system's split (CoupledSplit) makes the flow N scalar cascades:
    with i the lead of tail row j, a = d_i and g = |a - d_j|,

        u_i(t) = e^(a t) u_i(0),
        u_j(t) = e^(max(a, d_j) t) (u_j(0) + c_j phi_j(t)),

    phi_j(t) = -expm1(-g t) / g (t at g = 0, the resonant limit) and c_j =
    k_j u_i(0) - [a > d_j] g u_j(0); every other coordinate is e^(d t)
    u(0).  expm_step evaluates this on the system's split.  rk4, an
    independent check, evaluates it on split.rk4(dt / n_sub), whose exact
    flow is n_sub classical RK4 substeps per sample, n_sub sized to the
    spectral radius bound max|mu| + ||G - diag(mu)||_F.  Only the columns
    the flow can move are computed (a nonzero u0 entry, a coupled row or
    d > 0, whose exponential may overflow); every other column stays
    exactly +0.0 past u0.  The first sample past u0 that is not finite or
    exceeds 1e12 in magnitude truncates the trajectory (_finalize).
    """
    times = _time_grid(dt, horizon)
    u0 = np.asarray(u0_coeffs, dtype=float)
    split = system.split
    if u0.shape != split.d.shape:
        raise ValueError(f"initial state has shape {u0.shape}, "
                         f"expected {split.d.shape}")
    if method == "rk4":
        # ||G - diag(mu)||_F, whose off-diagonal part is all in k
        radius_bound = float(np.max(np.abs(system.mu))
                             + np.hypot(np.linalg.norm(split.k),
                                        np.linalg.norm(split.d - system.mu)))
        split = split.rk4(dt / max(1, int(np.ceil(dt * radius_bound / 0.5))))
    elif method != "expm_step":
        raise ValueError(f"unknown method {method!r}")
    s = split.d.size - split.k.size
    tail = np.flatnonzero(split.k)
    rows, lead = s + tail, split.lead[tail]
    alone = (u0 != 0.0) | (split.d > 0.0)
    alone[rows] = False
    alone = np.flatnonzero(alone)
    t = times[1:]
    # outer products by einsum, and at most two blocks of samples alive at
    # a time, the coupled rows' before the trajectory is allocated; past an
    # overflow the samples may turn inf or NaN, and are cut in _finalize
    with np.errstate(over="ignore", invalid="ignore"):
        a, d = split.d[lead], split.d[rows]
        gap = np.abs(a - d)
        c = split.k[tail] * u0[lead] - np.where(a > d, gap * u0[rows], 0.0)
        # u0 + c phi(t), phi(t) = -expm1(-gap t) / gap, t at gap = 0
        block = np.einsum("i,j->ij", t, -gap)
        np.expm1(block, out=block)
        block *= np.divide(c, -gap, out=np.zeros_like(c), where=gap > 0.0)
        resonant = gap == 0.0
        block[:, resonant] = np.einsum("i,j->ij", t, c[resonant])
        block += u0[rows]
        rise = np.einsum("i,j->ij", t, np.maximum(a, d))
        block *= np.exp(rise, out=rise)
        del rise
        states = np.zeros((times.size, u0.size))
        states[0] = u0
        states[1:, rows] = block
        del block
        block = np.einsum("i,j->ij", t, split.d[alone])
        np.exp(block, out=block)
        block *= u0[alone]
        states[1:, alone] = block
    return _finalize(times, states, system.coupling)


def open_loop(modes, u0_coeffs, dt: float, horizon: float) -> Trajectory:
    """The uncontrolled evolution u_n(t) = u_n(0) exp(mu_n t): integrate
    on the uncoupled split diag(mu), with no boundary data."""
    n = count_unstable(modes)
    uncoupled = CoupledSplit(d=modes.mu, lead=np.zeros(0, dtype=int),
                             k=np.zeros(0))
    return integrate(ClosedLoopSystem(split=uncoupled,
                                      coupling=np.zeros((n, n)),
                                      mu=modes.mu), u0_coeffs, dt, horizon)


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
