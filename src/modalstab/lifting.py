"""Boundary-data lifting in modal coordinates.

For boundary data f and shift gamma, the lifted interior function is
represented by its eigenfunction coefficients d_n, which satisfy the exact
modal relations

    (gamma - mu_n) d_n = <f, T_n(phi_n)>   for the leading (mu_n >= 0) modes,
    (gamma + mu_n) d_n = <f, T_n(phi_n)>   for the remaining modes,

truncated to the retained mode table.  Boundary data is always given by its
coefficients against the normal-trace family of the leading modes, so the
right-hand sides reduce to rows of the extended boundary Gram matrix.

The lift is linear and acts on stacks: boundary coefficients and states
carry their mode index on the last axis, so a whole trajectory of K samples
is lifted as one (K, N) array with one Gram build.
"""

from dataclasses import dataclass

import numpy as np

from .basis import boundary_gram, count_unstable

RESONANCE_TOL = 1e-8


class ResonanceError(ValueError):
    """gamma too close to a shifted eigenvalue; the modal solve is singular."""


class InsufficientDataError(ValueError):
    """Too few trajectory samples for a finite-difference check."""


@dataclass(frozen=True)
class BoundaryFunction:
    """f = sum_j coefficients[..., j] * T_n(phi_j) over the leading modes;
    leading axes, if any, index a stack of boundary functions."""

    coefficients: np.ndarray


@dataclass(frozen=True)
class LiftingCoefficients:
    gamma: float
    d: np.ndarray


def lifting_denominators(gamma: float, modes) -> np.ndarray:
    """Per-mode solve denominators, with resonance guarding."""
    mu = np.array([m.mu for m in modes])
    n_unstable = count_unstable(modes)
    denom = np.empty(mu.size)
    denom[:n_unstable] = gamma - mu[:n_unstable]
    denom[n_unstable:] = gamma + mu[n_unstable:]
    offenders = np.nonzero(np.abs(denom) <= RESONANCE_TOL)[0]
    if offenders.size:
        n = int(offenders[0]) + 1
        raise ResonanceError(
            f"gamma={gamma} resonates with mode n={n} (mu={mu[n - 1]})")
    return denom


def lifting_coefficients(gamma: float, f: BoundaryFunction,
                         modes) -> LiftingCoefficients:
    """Modal coefficients of the lifting of f, truncated to the mode table.

    Coefficients of shape (N,) give d of shape (n_sim,); a stack (K, N)
    gives (K, n_sim), row k lifting row k."""
    c = np.asarray(f.coefficients, dtype=float)
    n_trace = c.shape[-1]
    n_unstable = count_unstable(modes)
    if n_trace > n_unstable:
        raise ValueError(
            f"boundary data has {n_trace} trace coefficients but only "
            f"{n_unstable} leading modes are available")
    denom = lifting_denominators(gamma, modes)
    beta = boundary_gram(modes, modes[:n_trace])
    return LiftingCoefficients(gamma=gamma, d=(c @ beta.T) / denom)


def xi_coefficients(gain_set, U, i: int) -> LiftingCoefficients:
    """Lifting coefficients of the i-th homogenization term for state U,
    whose boundary data has trace coefficients M_{gamma_i} A U.

    U is one leading-mode state (N,) or a stack of them (K, N); d is then
    (n_sim,) or (K, n_sim)."""
    U = np.asarray(U, dtype=float)
    c = gain_set.m_list[i] * (U @ gain_set.a_gain.T)
    return lifting_coefficients(gain_set.gammas[i], BoundaryFunction(c),
                                gain_set.modes)


def commutation_check(gain_set, trajectory, i: int, h: float) -> float:
    """Max deviation between the central difference of the lifted
    coefficients and the lifting of the central difference of the boundary
    data, over the interior samples.

    The lift is linear, so the two agree exactly in exact arithmetic: this
    is a rounding-level consistency test of the lift, not a convergence
    measure.  Both sides are lifted as whole stacks, one xi_coefficients
    call each."""
    times = np.asarray(trajectory.times)
    if times.size < 3:
        raise InsufficientDataError("need at least 3 samples")
    dt = float(times[1] - times[0])
    if dt > h + 1e-12:
        raise ValueError(f"trajectory step {dt} exceeds requested h={h}")
    n = gain_set.n_unstable
    U = np.asarray(trajectory.states)[:, :n]
    d = xi_coefficients(gain_set, U, i).d
    rhs = xi_coefficients(gain_set, (U[2:] - U[:-2]) / (2.0 * dt), i).d
    return float(np.max(np.abs((d[2:] - d[:-2]) / (2.0 * dt) - rhs)))
