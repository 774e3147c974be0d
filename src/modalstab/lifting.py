"""Boundary-data lifting in modal coordinates.

For boundary data f and shift gamma, the lifted interior function is
represented by its eigenfunction coefficients d_n, which satisfy the exact
modal relations

    (gamma - mu_n) d_n = <f, T_n(phi_n)>   for the leading (mu_n >= 0) modes,
    (gamma + mu_n) d_n = <f, T_n(phi_n)>   for the remaining modes,

truncated to the retained mode table.  Boundary data is always given by its
coefficients against the normal-trace family of the leading modes, so the
right-hand sides reduce to rows of the extended boundary Gram matrix.

The lift is linear and acts on stacks: trace coefficients and states carry
their mode index on the last axis and the shifts broadcast against the
leading axes.  A zero row of beta lifts to an exact 0, so every gain of a
gain set and a whole trajectory of K samples are lifted as one (N, K, |L|)
array on its |L| coupled rows (GainSet.coupled_rows), through those rows
of its own extended Gram (GainSet.beta) and of one table of denominators.
"""

import numpy as np

from .basis import boundary_gram, count_unstable
from .controller import shift_denominators


class InsufficientDataError(ValueError):
    """Too few trajectory samples for a finite-difference check."""


def lifting_coefficients(gammas, c, modes) -> np.ndarray:
    """Modal coefficients of the lifting of the boundary data with trace
    coefficients c, truncated to the mode table.

    c carries the trace index on its last axis; the shifts broadcast against
    its leading axes.  One shift with c of shape (N,) gives (n_sim,); shifts
    of shape (G, 1) with c of shape (G, K, N) give (G, K, n_sim), entry
    [g, k] lifting c[g, k] with shift gammas[g]."""
    c = np.asarray(c, dtype=float)
    return _lift(np.asarray(gammas, dtype=float), c, modes,
                 boundary_gram(modes, modes[:c.shape[-1]]))


def _lift(gammas, c, modes, beta, rows=slice(None)) -> np.ndarray:
    """c @ beta[rows].T over the rows' resonance-checked denominators
    (shift_denominators), beta the extended Gram of the table against the
    traces of c."""
    n_trace, n_unstable = c.shape[-1], count_unstable(modes)
    if n_trace > n_unstable:
        raise ValueError(
            f"boundary data has {n_trace} trace coefficients but only "
            f"{n_unstable} leading modes are available")
    denom = shift_denominators(gammas, modes)[..., rows]
    d = c @ beta[rows].T
    d /= denom
    return d


def xi_coefficients(gain_set, U) -> np.ndarray:
    """Lifting coefficients of every homogenization term xi_i for state U,
    whose boundary data has trace coefficients M_{gamma_i} A U.

    U is one leading-mode state (N,) or a stack of them (K, N); the result
    is (N, |L|) or (N, K, |L|), the gain index first and column j the
    coefficient of row gain_set.coupled_rows[j] (every other one is 0)."""
    U = np.asarray(U, dtype=float)
    stack_axes = tuple(range(1, U.ndim))
    c = np.expand_dims(gain_set.m_list, stack_axes) * (U * gain_set.a_gain)
    return _lift(np.expand_dims(gain_set.gammas, stack_axes), c,
                 gain_set.modes, gain_set.beta, gain_set.coupled_rows)


def commutation_check(gain_set, trajectory) -> np.ndarray:
    """Per gain, the max deviation between the central difference of the
    lifted coefficients and the lifting of the central difference of the
    boundary data, over the interior samples; shape (N,).

    The lift is linear, so the two agree exactly in exact arithmetic: this
    is a rounding-level consistency test of the lift, not a convergence
    measure.  The states and their central differences are lifted as one
    stack for every gain, on the coupled rows, in one xi_coefficients call."""
    times = np.asarray(trajectory.times)
    if times.size < 3:
        raise InsufficientDataError("need at least 3 samples")
    dt = float(times[1] - times[0])
    U = np.asarray(trajectory.states)[:, :gain_set.n_unstable]
    stack = np.vstack([U, (U[2:] - U[:-2]) / (2.0 * dt)])
    d, rhs = np.split(xi_coefficients(gain_set, stack), [times.size], axis=1)
    dev = d[:, 2:] - d[:, :-2]
    dev /= 2.0 * dt
    dev -= rhs
    return np.max(np.abs(dev, out=dev), axis=(1, 2))
