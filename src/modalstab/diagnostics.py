"""Norm series, decay fits, and claim checks.

Every norm of a trajectory is one column of compute_norm_series, computed
for all samples at once.  The quadratic-weight surrogate
sqrt(sum (1 + mu_n^2) u_n^2) is the headline metric; the full modal variant
with (1 + kappa_n + kappa_n^2) weights is co-reported since the surrogate
omits the gradient cross-term.  Max norms come from reconstructing the
state on a uniform Cartesian grid inside the closed domain (GridEvaluator).
The grid is exactly mirror-symmetric in every coordinate, so it is
evaluated on the nonnegative orthant only; the eigenfunctions split into
exact parity classes under the reflections, and one product per class,
recombined with a sign matrix, gives the field on every reflected orthant.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

# boundary_gram is bound here for bench/tracing
from .basis import angular_parities, boundary_gram, mode_values
from .lifting import xi_coefficients
from .simulator import Trajectory


class UndefinedRatioError(ValueError):
    """All samples have vanishing denominator; the ratio is undefined."""


@dataclass(frozen=True)
class NormSeries:
    times: np.ndarray
    h2_surrogate: np.ndarray
    h2_full: np.ndarray
    linf: np.ndarray
    laplacian_l2: np.ndarray
    l2: np.ndarray
    u_norm: np.ndarray        # |U(t)| over the leading coordinates
    dudt_l2: np.ndarray
    xi: np.ndarray            # (n_times, N) lifted-term surrogate norms


@dataclass(frozen=True)
class MetricFit:
    gamma_hat: float          # fitted amplitude normalized by the initial value
    sigma_hat: float
    residual: float
    passed: bool
    degenerate: bool = False


# the most bytes that GridEvaluator.linf's class fields take at once
_CLASS_FIELDS_BYTES = 8_000_000


class GridEvaluator:
    """Eigenfunction values on a uniform Cartesian grid inside the closed
    domain (resolution points per axis, endpoints included), held on the
    nonnegative orthant only: a quadrant of the disk, an octant of the ball.

    The grid axis is the half axis and its exact negation, so the grid is
    exactly symmetric under each coordinate reflection, and with an odd
    resolution it passes through 0.0.  Every eigenfunction is even or odd
    under each reflection (`basis.angular_parities`), so the field at a
    reflected point is a signed sum of the fields of the parity classes at
    the orthant point.  `points` holds the orthant's points and `values`
    their mode_values table, rows grouped by parity class.  Only the modes
    given are tabulated; each reads state column `mode.n - 1`, so `linf`
    takes full-table states (the CLI passes only the modes that move).
    """

    def __init__(self, modes, domain, resolution: int):
        if resolution < 3:
            raise ValueError("resolution must be >= 3")
        R = domain.radius
        # the axis entries >= 0: from 0.0 (odd resolution) or half a step
        half = np.linspace(0.0 if resolution % 2 else R / (resolution - 1),
                           R, (resolution + 1) // 2)
        grids = np.meshgrid(*[half] * domain.dim, indexing="ij")
        pts = np.column_stack([g.ravel() for g in grids])
        self.points = pts[np.linalg.norm(pts, axis=1) <= R]
        # class code: bit d is set when the mode is odd in axis d
        axes = np.arange(domain.dim)
        codes = (angular_parities(modes, domain) < 0) @ (1 << axes)
        order = np.argsort(codes, kind="stable")
        self._bounds = np.searchsorted(codes[order],
                                       np.arange(2 ** domain.dim + 1))
        modes = modes[order]
        self._columns = modes.n - 1
        self.values = mode_values(modes, domain, self.points)
        # reflection s (bit d set: axis d negated) flips the sign of class
        # c once per odd axis that it negates
        bits = (np.arange(2 ** domain.dim)[:, None] >> axes) & 1
        self._signs = (-1.0) ** (bits @ bits.T)

    def linf(self, states) -> np.ndarray:
        """max |sum_n u_n phi_n| over the whole grid for each row u of
        states: one product per parity class on the orthant, then a
        running max over the reflections.

        The samples are taken in blocks sized so that the class fields of
        one block fit in _CLASS_FIELDS_BYTES; one buffer serves every
        block, and a small grid's samples are one block.
        """
        states = np.asarray(states, dtype=float)[:, self._columns]
        n_samples, n_points = states.shape[0], self.points.shape[0]
        n_classes = len(self._signs)
        block = min(max(1, n_samples), max(
            1, _CLASS_FIELDS_BYTES // (8 * n_classes * n_points)))
        # flat, so that a short last block's fields are contiguous too
        buffer = np.empty(n_classes * block * n_points)
        out = np.zeros(n_samples)
        for start in range(0, n_samples, block):
            rows = states[start:start + block]
            fields = buffer[:n_classes * len(rows) * n_points].reshape(
                n_classes, len(rows), n_points)
            for field, lo, hi in zip(fields, self._bounds[:-1],
                                     self._bounds[1:]):
                np.matmul(rows[:, lo:hi], self.values[lo:hi], out=field)
            peak = out[start:start + block]
            for signs in self._signs:
                field = np.tensordot(signs, fields, axes=1)
                np.maximum(peak, np.abs(field, out=field).max(axis=1),
                           out=peak)
        return out


def decay_rate_fit(times, values, window):
    """Least-squares line on (t, log v) inside the window.

    Returns (amplitude, rate, residual): v ~ amplitude * exp(-rate t), with
    residual the RMS of the log deviations.  A (K, M) stack of M series
    is fitted column by column in one least-squares solve, and gives three
    (M,) arrays.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    t_a, t_b = window
    mask = (times >= t_a) & (times <= t_b)
    if int(mask.sum()) < 5:
        raise ValueError("need at least 5 samples inside the fit window")
    window = values[mask]
    if not np.all((window > 0.0) & (window < math.inf)):
        raise ValueError(
            "values must be positive and finite on the fit window")
    t = times[mask]
    logv = np.log(window)
    design = np.stack([t, np.ones_like(t)], axis=1)
    (slope, intercept), *_ = np.linalg.lstsq(design, logv)
    deviation = logv - (np.multiply.outer(t, slope) + intercept)
    residual = np.sqrt(np.mean(deviation * deviation, axis=0))
    if values.ndim == 1:
        return float(np.exp(intercept)), float(-slope), float(residual)
    return np.exp(intercept), -slope, residual


def _central_diff_norms(states, dt: float) -> np.ndarray:
    """L2 norms of the time derivative by second-order differences
    (central inside, one-sided at the ends)."""
    k = states.shape[0]
    out = np.empty(k)
    if k == 1:
        return np.zeros(1)
    if k == 2:
        d = (states[1] - states[0]) / dt
        return np.array([np.linalg.norm(d)] * 2)
    out[1:-1] = np.linalg.norm((states[2:] - states[:-2]) / (2.0 * dt), axis=1)
    first = (-3.0 * states[0] + 4.0 * states[1] - states[2]) / (2.0 * dt)
    last = (3.0 * states[-1] - 4.0 * states[-2] + states[-3]) / (2.0 * dt)
    out[0] = np.linalg.norm(first)
    out[-1] = np.linalg.norm(last)
    return out


def compute_norm_series(trajectory: Trajectory, gain_set, modes,
                        evaluator: GridEvaluator) -> NormSeries:
    """All norm series along a trajectory in one pass; linf is the max of
    |sum u_n phi_n| over the evaluator's grid."""
    if gain_set is None and np.any(trajectory.boundary_data):
        raise ValueError("nonzero boundary data requires a gain set")
    states = np.asarray(trajectory.states)
    times = np.asarray(trajectory.times)
    mu, kappa = modes.mu, modes.kappa
    w_h2 = 1.0 + mu * mu
    w_full = 1.0 + kappa + kappa * kappa
    h2 = np.sqrt(states**2 @ w_h2)
    full = np.sqrt(states**2 @ w_full)
    l2 = np.linalg.norm(states, axis=1)
    n = trajectory.boundary_data.shape[1]
    u_norm = np.linalg.norm(states[:, :n], axis=1)
    linf = evaluator.linf(states)
    lap_modal = -kappa[None, :] * states
    xi = np.empty((times.size, 0))
    if gain_set is not None and n:
        lap_modal -= trajectory.boundary_data @ gain_set.beta.T
        lifted = xi_coefficients(gain_set, states[:, :n])
        xi = np.sqrt(np.square(lifted, out=lifted)
                     @ w_h2[gain_set.coupled_rows]).T
    lap = np.linalg.norm(lap_modal, axis=1)
    dt = float(times[1] - times[0]) if times.size > 1 else 1.0
    dudt = _central_diff_norms(states, dt)
    return NormSeries(times=times, h2_surrogate=h2, h2_full=full, linf=linf,
                      laplacian_l2=lap, l2=l2, u_norm=u_norm, dudt_l2=dudt,
                      xi=xi)


def gn_exponents(domain):
    """Interpolation exponents (p, q) of the max-norm bound per dimension."""
    return (0.5, 0.5) if domain.dim == 2 else (0.25, 0.75)


def gn_ratio(series: NormSeries, p: float, q: float) -> float:
    """sup over time of linf / (l2 + l2^p * laplacian^q), skipping samples
    with denominator at the round-off floor."""
    denom = series.l2 + series.l2**p * series.laplacian_l2**q
    usable = denom > 1e-14
    if not usable.any():
        raise UndefinedRatioError("denominator vanishes at every sample")
    return float(np.max(series.linf[usable] / denom[usable]))


# Fit window of every claim check; the report records it.
_FIT_WINDOW = (0.5, 3.5)


def verify_claims(series: NormSeries) -> dict:
    """Fit decay constants for every norm series and flag each metric.

    A metric passes when its fitted rate is positive and the series stays
    below the fitted envelope (5 percent slack) on the window
    0.5 <= t <= 3.5; identically zero series count as degenerate passes,
    and one with under 5 samples or a value not positive and finite in the
    window fails unfitted.  The rest are fitted by one decay_rate_fit call
    on their column stack.  `series` comes from compute_norm_series and is
    returned in the report.
    """
    names = ["u_norm", "h2_surrogate", "linf", "laplacian_l2", "dudt_l2"]
    columns = np.column_stack([getattr(series, name) for name in names]
                              + [series.xi])
    names += [f"xi_{i + 1}" for i in range(series.xi.shape[1])]
    times = np.asarray(series.times)
    inside = (times >= _FIT_WINDOW[0]) & (times <= _FIT_WINDOW[1])
    window = columns[inside]
    degenerate = np.max(columns, axis=0) < 1e-300
    fitted = (~degenerate & (window.shape[0] >= 5)
              & np.all((window > 0.0) & (window < math.inf), axis=0))
    fit = np.full((3, len(names)), math.nan)
    fit[2] = np.where(degenerate, 0.0, math.inf)
    if fitted.any():
        fit[:, fitted] = decay_rate_fit(times, columns[:, fitted], _FIT_WINDOW)
    amp, rate, residual = fit
    bounded = np.all(window <= amp * np.exp(-np.multiply.outer(
        times[inside], rate)) * 1.05, axis=0)
    initial = np.where(columns[0] > 0, columns[0], 1.0)
    passed = degenerate | (fitted & (rate > 0.0) & bounded)
    metrics = {name: MetricFit(
        gamma_hat=float(amp[j] / initial[j]), sigma_hat=float(rate[j]),
        residual=float(residual[j]), passed=bool(passed[j]),
        degenerate=bool(degenerate[j])) for j, name in enumerate(names)}
    all_pass = all(m.passed for m in metrics.values())
    return {"metrics": metrics, "series": series, "all_pass": all_pass,
            "window": _FIT_WINDOW}


def write_norm_series_csv(series: NormSeries, path) -> None:
    """CSV with header t, h2_surrogate, h2_full, linf, laplacian_l2, u_norm,
    dudt_l2, xi_1..xi_N."""
    n = series.xi.shape[1]
    with open(path, "w", newline="") as fh:
        header = ["t", "h2_surrogate", "h2_full", "linf", "laplacian_l2",
                  "u_norm", "dudt_l2"] + [f"xi_{i + 1}" for i in range(n)]
        fh.write(",".join(header) + "\n")
        for k in range(series.times.size):
            row = [series.times[k], series.h2_surrogate[k], series.h2_full[k],
                   series.linf[k], series.laplacian_l2[k], series.u_norm[k],
                   series.dudt_l2[k]] + list(series.xi[k])
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")


def claims_report_json(report: dict, extra: dict = None) -> str:
    """Claims report as JSON: per metric (metric, gamma_hat, sigma_hat,
    residual, pass) plus any extra sections."""
    payload = {"window": list(report["window"]), "all_pass": report["all_pass"],
               "metrics": []}
    for name, fit in report["metrics"].items():
        payload["metrics"].append({
            "metric": name,
            "gamma_hat": None if math.isnan(fit.gamma_hat) else fit.gamma_hat,
            "sigma_hat": None if math.isnan(fit.sigma_hat) else fit.sigma_hat,
            "residual": fit.residual if math.isfinite(fit.residual) else None,
            "pass": fit.passed,
            "degenerate": fit.degenerate,
        })
    if extra:
        payload.update(extra)
    return json.dumps(payload, indent=2)
