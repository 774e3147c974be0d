"""Spectral Galerkin simulation of the boundary-controlled heat equation.

Projecting the PDE on the retained eigenfunctions through Green's identity
gives the exact modal ODE

    du_n/dt = mu_n u_n - <v, T_n(phi_n)>_boundary,

so the closed-loop generator G is diag(mu) minus a rank-N coupling through
the extended boundary Gram matrix, acting on the leading N coordinates only.
G is therefore block lower-triangular: its coupled columns S (the N leading
ones) evolve on their own, and every other coordinate sees only itself and
S.  The closed loop is held only as that split, G = diag(d) + K on S
(CoupledSplit), assembled straight from mu, the Gram and the control map;
no n_sim x n_sim array is formed.  The loop is LTI, and both one-step maps
are a Taylor polynomial power P(G dt / count)^count on that split: the
exact map by scaling and squaring (degree 18, count a power of two), the
classical Runge-Kutta cross-check with P of degree 4 and count the number
of substeps.  Each tail row t is a bordered block [[A, 0], [G[t, S], d_t]]
(Van Loan 1978) sharing the lead block A = G[S, S], so every product in
that power is one N x N product plus one |T| x N row update, and no
n_sim x n_sim product is formed.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .basis import (boundary_gram, boundary_traces, count_unstable,
                    project_function)
from .controller import GainSet, control_map
from .special import quadrature_rule

OVERFLOW_LIMIT = 1e12
SNAPSHOT_MAGIC = b"MSTB"
SNAPSHOT_VERSION = 1


class ConsistencyError(ValueError):
    """Mode table and gain set were not built together."""


class InsufficientExcitationError(ValueError):
    """Trajectory carries no usable signal for system identification."""


@dataclass(frozen=True)
class ClosedLoopSystem:
    split: "CoupledSplit"     # the generator diag(d) + K on its columns S
    beta: np.ndarray          # n_sim x N extended boundary Gram
    coupling: np.ndarray      # N x N map from U to trace coefficients of v
    mu: np.ndarray
    n_unstable: int


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


def _monomial_exponents(dim: int, degree: int):
    exps = []
    for total in range(degree + 1):
        combos = []
        if dim == 2:
            for i in range(total + 1):
                combos.append((i, total - i))
        else:
            for i in range(total + 1):
                for j in range(total - i + 1):
                    combos.append((i, j, total - i - j))
        exps.extend(sorted(combos))
    return exps


def initial_condition_field(domain, spec: PolynomialSpec, seed: int):
    """(R^2 - |x|^2) * p(x) with p the (possibly seeded random) polynomial.

    Returns a callable on Cartesian coordinate arrays.
    """
    if spec.degree > 3:
        raise ValueError("polynomial degree must be <= 3")
    exps = _monomial_exponents(domain.dim, spec.degree)
    if spec.coefficients is not None:
        coeffs = np.asarray(spec.coefficients, dtype=float)
        if coeffs.size != len(exps):
            raise ValueError(
                f"expected {len(exps)} coefficients, got {coeffs.size}")
    else:
        coeffs = lcg_uniform(seed, len(exps))
    r2 = domain.radius**2

    if domain.dim == 2:
        def field(x, y):
            poly = np.zeros_like(np.asarray(x, dtype=float))
            for c, (i, j) in zip(coeffs, exps):
                poly += c * x**i * y**j
            return (r2 - (x * x + y * y)) * poly
    else:
        def field(x, y, z):
            poly = np.zeros_like(np.asarray(x, dtype=float))
            for c, (i, j, k) in zip(coeffs, exps):
                poly += c * x**i * y**j * z**k
            return (r2 - (x * x + y * y + z * z)) * poly
    return field


def project_initial_condition(domain, modes, polynomial_spec: PolynomialSpec,
                              seed: int, refine: int = 1) -> np.ndarray:
    """Quadrature projection of the bump-times-polynomial initial state.

    On each sphere |x| = r the state (R^2 - |x|^2) p(x) is a polynomial of
    degree deg p in the angles, so by orthogonality every mode of higher
    angular order (disk m, ball l) has coefficient exactly 0.  Only the
    modes of angular order <= deg p are projected, on the angular rule sized
    for them; the radial rule is unchanged, since the largest k is at
    order 0.
    """
    field = initial_condition_field(domain, polynomial_spec, seed)
    kept = [i for i, mode in enumerate(modes)
            if mode.angular[0] <= polynomial_spec.degree]
    coeffs = np.zeros(len(modes))
    coeffs[kept] = project_function(field, [modes[i] for i in kept], domain,
                                    refine=refine)
    return coeffs


def _check_gram_sample(modes, domain, beta) -> None:
    """Cross-check a deterministic 5 percent sample of beta entries against
    surface quadrature of the normal traces.

    One rule serves every sampled entry: azimuthal trapezoid (times polar
    Gauss-Legendre in cos theta on the ball) exact for products of the
    highest angular order among the sampled modes.
    """
    n_sim, n = beta.shape
    sample = max(1, n_sim * n // 20)
    picks = (lcg_uniform(12345, 2 * sample) + 1.0) / 2.0
    rows = (picks[0::2] * n_sim).astype(int) % n_sim
    cols = (picks[1::2] * n).astype(int) % n
    order = max(modes[i].angular[0] for i in (*rows, *cols))
    R = domain.radius
    azimuth = quadrature_rule("periodic_trapezoid", 4 * order + 16,
                              (0.0, 2.0 * np.pi))
    if domain.shape == "disk":
        angles, weights = azimuth.nodes, azimuth.weights * R
    else:
        polar = quadrature_rule("gauss_legendre", 2 * order + 16, (-1.0, 1.0))
        ct = polar.nodes[:, None]
        angles = (ct, np.sqrt(1.0 - ct * ct), azimuth.nodes)
        weights = np.outer(polar.weights, azimuth.weights) * R * R
    traces_r = boundary_traces([modes[i] for i in rows], domain, angles)
    traces_c = boundary_traces([modes[j] for j in cols], domain, angles)
    quads = np.sum((traces_r * traces_c * weights).reshape(sample, -1),
                   axis=1)
    for row, col, quad in zip(rows, cols, quads):
        if abs(quad - beta[row, col]) > 1e-9 * max(1.0, abs(quad)):
            raise ConsistencyError(
                f"closed-form Gram entry ({row},{col})={beta[row, col]} "
                f"disagrees with quadrature {quad}")


def assemble_closed_loop(modes, gain_set: GainSet,
                         domain) -> ClosedLoopSystem:
    """The closed loop diag(mu) - beta C on the leading N columns, as its
    coupled split: S the N leading columns, K = -(beta C) with its diagonal
    moved into d.

    A deterministic 5 percent sample of the closed-form beta entries is
    always cross-checked against surface quadrature, one rule for the whole
    sample; a disagreement beyond 1e-9 relative raises ConsistencyError.
    The open loop (v = 0) needs no assembly: see open_loop.
    """
    mu = np.array([m.mu for m in modes])
    n_sim = len(modes)
    n = gain_set.n_unstable
    if len(gain_set.modes) != n_sim or any(
            gm != tm for gm, tm in zip(gain_set.modes[:n], modes[:n])):
        raise ConsistencyError("gain set was synthesized over a different "
                               "mode table")
    beta = boundary_gram(modes, modes[:n])
    _check_gram_sample(modes, domain, beta)
    coupling = control_map(gain_set)
    product = beta @ coupling
    d = mu.copy()
    d[:n] -= product.diagonal()
    # 0 - product, not -product: an exact zero stays +0.0 as in diag(mu) -
    # product, so the split is the one coupled_split reads off that matrix
    K = 0.0 - product
    np.fill_diagonal(K, 0.0)
    split = CoupledSplit(d=d, S=np.arange(n), T=np.arange(n, n_sim), K=K)
    return ClosedLoopSystem(split=split, beta=beta, coupling=coupling, mu=mu,
                            n_unstable=n)


def _finalize(times, states, coupling, n, truncated) -> Trajectory:
    states = np.asarray(states)
    boundary = states[:, :n] @ coupling.T if coupling.size else \
        np.zeros((states.shape[0], n))
    return Trajectory(times=np.asarray(times), states=states,
                      boundary_data=boundary, truncated=truncated)


@dataclass(frozen=True)
class CoupledSplit:
    """G = diag(d) + K on its coupled columns.

    S indexes the columns of G - diag(d) that may hold nonzero entries, T
    the rest, and K = (G - diag(d))[:, S].  Columns in T carry only their
    diagonal, so the S block evolves on its own and each T coordinate sees
    only itself and S.  A dense generator has T empty, a diagonal one S
    empty.
    """

    d: np.ndarray
    S: np.ndarray
    T: np.ndarray
    K: np.ndarray

    def derivative(self, u):
        """G u in O(n_sim |S|)."""
        return self.d * u + self.K @ u[self.S]

    def step_map(self, dt: float, degree: int = 18, count: int = None):
        """u -> P(G dt / count)^count u, P the degree-`degree` Taylor
        polynomial of exp.

        By default count is the smallest power of two that brings the
        largest block 1-norm to at most 1, where degree 18 is exp to double
        precision: the exact map u -> exp(G dt) u by scaling and squaring
        (Moler & Van Loan 2003).  With A = G[S, S], u[S] takes the lead
        block E of the power; row t of T takes the lower-left row F_t and
        corner e_t of the same power of [[A, 0], [G[t, S], d_t]] dt (Van
        Loan 1978), u_t <- e_t u_t + F_t u[S].  All blocks are powered at
        once (_bordered_product), and a tail rate resonant with eig(A)
        needs no special handling.
        """
        S, T, s = self.S, self.T, self.S.size
        x = ((self.K[S] + np.diag(self.d[S])) * dt, self.K[T] * dt,
             self.d[T] * dt)
        if count is None:
            lead, rows, corner = (np.abs(b) for b in x)
            norm = max(np.max(lead.sum(axis=0) + rows.max(axis=0, initial=0.0),
                              initial=0.0), np.max(corner, initial=0.0))
            count = 2 ** max(0, int(np.ceil(np.log2(norm)))) if norm else 1
        x = tuple(b / count for b in x)
        # every block is held as its offset w from the identity, so that
        # the powering does not round I + w (about count ulps otherwise);
        # Horner: I + w <- I + (x / j)(I + w)
        w = tuple(b / degree for b in x)
        for j in range(degree - 1, 0, -1):
            xj = tuple(b / j for b in x)
            w = tuple(a + b for a, b in zip(xj, _bordered_product(xj, w)))
        power = None
        while True:
            count, bit = divmod(count, 2)
            if bit:
                power = w if power is None else _offset_product(power, w)
            if not count:
                break
            w = _offset_product(w, w)
        E, F, decay = np.eye(s) + power[0], power[1], 1.0 + power[2]

        def step(u):
            lead_u = u[S]
            nxt = np.empty_like(u)
            nxt[S] = E @ lead_u
            nxt[T] = decay * u[T] + F @ lead_u
            return nxt
        return step


def _bordered_product(x, y):
    """Product of two stacks of bordered blocks [[E, 0], [f_t, e_t]] that
    share E across the rows t: [[E1 E2, 0], [f1 E2 + e1 f2, e1 e2]]."""
    (E1, f1, e1), (E2, f2, e2) = x, y
    return E1 @ E2, f1 @ E2 + e1[:, None] * f2, e1 * e2


def _offset_product(x, y):
    """(I + x)(I + y) - I = x + y + xy for bordered blocks held as their
    offsets from the identity."""
    return tuple(a + b + c for a, b, c in zip(x, y, _bordered_product(x, y)))


def coupled_split(generator) -> CoupledSplit:
    """Read the coupled-column split off a square generator: S holds
    exactly the columns with a nonzero off-diagonal entry."""
    gen = np.asarray(generator, dtype=float)
    d = np.diag(gen).copy()
    # a column is coupled when it holds a nonzero entry off the diagonal
    coupled = np.count_nonzero(gen, axis=0) > (d != 0.0)
    S = np.flatnonzero(coupled)
    K = gen[:, S]
    K[S, np.arange(S.size)] = 0.0
    return CoupledSplit(d=d, S=S, T=np.flatnonzero(~coupled), K=K)


def integrate(system: ClosedLoopSystem, u0_coeffs, dt: float, horizon: float,
              method: str = "expm_step") -> Trajectory:
    """Propagate the linear system from the projected initial state.

    Both methods work on the system's coupled-column split of the
    generator (CoupledSplit): the coupled columns S, the N leading ones of
    an assembled closed loop, and the diagonal rest T.  Each builds its
    one-step map once, as a Taylor polynomial power on the split's bordered
    blocks in O(n_sim N^2), and applies it in O(n_sim N) per step.
    expm_step samples the exact flow exp(G dt) by scaling and squaring.
    rk4, an independent check, takes P(hG)^n_sub, the classical
    fourth-order step of a linear system (the degree-4 Taylor polynomial of
    h G) raised to the n_sub substeps sized to the spectral radius.
    Neither forms an n_sim x n_sim product.  A sample that is not finite or
    exceeds 1e12 in magnitude truncates the trajectory at the last valid
    sample and flags it.
    """
    if dt <= 0 or horizon < dt:
        raise ValueError("need dt > 0 and horizon >= dt")
    n_steps = int(round(horizon / dt))
    times = np.arange(n_steps + 1) * dt
    u0 = np.asarray(u0_coeffs, dtype=float)
    split = system.split
    if u0.shape != split.d.shape:
        raise ValueError(f"initial state has shape {u0.shape}, "
                         f"expected {split.d.shape}")
    states = [u0]
    truncated = False
    if method == "expm_step":
        step = split.step_map(dt)
    elif method == "rk4":
        # ||G - diag(mu)||_F, whose off-diagonal part is all in K
        radius_bound = float(np.max(np.abs(system.mu))
                             + np.hypot(np.linalg.norm(split.K),
                                        np.linalg.norm(split.d - system.mu)))
        n_sub = max(1, int(np.ceil(dt * radius_bound / 0.5)))
        step = split.step_map(dt, 4, n_sub)
    else:
        raise ValueError(f"unknown method {method!r}")
    for _ in range(n_steps):
        nxt = step(states[-1])
        # NaN and inf fail the comparison as well
        if not np.max(np.abs(nxt)) <= OVERFLOW_LIMIT:
            truncated = True
            break
        states.append(nxt)
    times = times[: len(states)]
    return _finalize(times, states, system.coupling, system.n_unstable,
                     truncated)


def open_loop(modes, u0_coeffs, dt: float, horizon: float) -> Trajectory:
    """Exact uncontrolled evolution u_n(t) = u_n(0) exp(mu_n t)."""
    if dt <= 0 or horizon < dt:
        raise ValueError("need dt > 0 and horizon >= dt")
    mu = np.array([m.mu for m in modes])
    n = count_unstable(modes)
    n_steps = int(round(horizon / dt))
    times = np.arange(n_steps + 1) * dt
    u0 = np.asarray(u0_coeffs, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        later = u0 * np.exp(np.outer(times[1:], mu))
        # a row is bad when its max is over the limit, inf or NaN
        bad = ~(np.max(np.abs(later), axis=1) <= OVERFLOW_LIMIT)
    keep = int(np.argmax(bad)) if bad.any() else bad.size
    states = np.vstack([u0, later[:keep]])
    return _finalize(times[: keep + 1], states, np.zeros((n, n)), n,
                     keep < bad.size)


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
        raise ValueError("need at least 10 samples")
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
        dist_direct = float(np.linalg.norm((g - gain_set.a_direct) @ basis, 2))
        dist_minus_s = float(np.linalg.norm((g + gain_set.s_total) @ basis, 2))
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
