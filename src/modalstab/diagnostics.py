"""Norm series, decay fits, and claim checks.

Every norm of a trajectory is one column of compute_norm_series, computed
for all samples at once.  The quadratic-weight surrogate
sqrt(sum (1 + mu_n^2) u_n^2) is the headline metric; the full modal variant
with (1 + kappa_n + kappa_n^2) weights is co-reported since the surrogate
omits the gradient cross-term.  Max norms come from reconstructing the
state on a uniform Cartesian grid inside the closed domain (GridEvaluator).
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .basis import boundary_gram, mode_values
from .lifting import lifting_denominators
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


class GridEvaluator:
    """Cached eigenfunction values on a uniform Cartesian grid inside the
    closed domain (resolution points per axis, endpoints included)."""

    def __init__(self, modes, domain, resolution: int):
        if resolution < 2:
            raise ValueError("resolution must be >= 2")
        R = domain.radius
        axis = np.linspace(-R, R, resolution)
        if domain.dim == 2:
            xx, yy = np.meshgrid(axis, axis, indexing="ij")
            pts = np.column_stack([xx.ravel(), yy.ravel()])
        else:
            xx, yy, zz = np.meshgrid(axis, axis, axis, indexing="ij")
            pts = np.column_stack([xx.ravel(), yy.ravel(), zz.ravel()])
        inside = np.linalg.norm(pts, axis=1) <= R
        self.points = pts[inside]
        self.values = mode_values(modes, domain, self.points)


def decay_rate_fit(times, values, window):
    """Least-squares line on (t, log v) inside the window.

    Returns (amplitude, rate, residual): v ~ amplitude * exp(-rate t), with
    residual the RMS of the log deviations.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    t_a, t_b = window
    mask = (times >= t_a) & (times <= t_b)
    if int(mask.sum()) < 5:
        raise ValueError("need at least 5 samples inside the fit window")
    if np.any(values[mask] <= 0.0):
        raise ValueError("values must be positive on the fit window")
    t = times[mask]
    logv = np.log(values[mask])
    slope, intercept = np.polyfit(t, logv, 1)
    residual = float(np.sqrt(np.mean((logv - (slope * t + intercept)) ** 2)))
    return float(np.exp(intercept)), float(-slope), residual


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
    mu = np.array([m.mu for m in modes])
    kappa = np.array([m.kappa for m in modes])
    w_h2 = 1.0 + mu * mu
    w_full = 1.0 + kappa + kappa * kappa
    h2 = np.sqrt(states**2 @ w_h2)
    full = np.sqrt(states**2 @ w_full)
    l2 = np.linalg.norm(states, axis=1)
    n = trajectory.boundary_data.shape[1]
    u_norm = np.linalg.norm(states[:, :n], axis=1)
    field = states @ evaluator.values
    linf = np.max(np.abs(field), axis=1)
    beta = boundary_gram(modes, modes[:n]) if (gain_set is not None and n) \
        else None
    lap_modal = -kappa[None, :] * states
    if beta is not None:
        lap_modal = lap_modal - trajectory.boundary_data @ beta.T
    lap = np.linalg.norm(lap_modal, axis=1)
    dt = float(times[1] - times[0]) if times.size > 1 else 1.0
    dudt = _central_diff_norms(states, dt)
    if beta is not None:
        xi = np.empty((times.size, n))
        for i in range(n):
            denom = lifting_denominators(gain_set.gammas[i], modes)
            lift_map = (beta @ (gain_set.m_list[i][:, None] * gain_set.a_gain)
                        ) / denom[:, None]
            d_series = states[:, :n] @ lift_map.T
            xi[:, i] = np.sqrt(d_series**2 @ w_h2)
    else:
        xi = np.zeros((times.size, 0))
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


def _fit_metric(times, values, window, tolerance: float = 0.05) -> MetricFit:
    values = np.asarray(values, dtype=float)
    if np.max(values) < 1e-300:
        return MetricFit(gamma_hat=math.nan, sigma_hat=math.nan,
                         residual=0.0, passed=True, degenerate=True)
    try:
        amp, rate, residual = decay_rate_fit(times, values, window)
    except ValueError:
        return MetricFit(gamma_hat=math.nan, sigma_hat=math.nan,
                         residual=math.inf, passed=False)
    mask = (np.asarray(times) >= window[0]) & (np.asarray(times) <= window[1])
    bound = amp * np.exp(-rate * np.asarray(times)[mask]) * (1.0 + tolerance)
    bounded = bool(np.all(values[mask] <= bound))
    initial = float(values[0]) if values[0] > 0 else 1.0
    return MetricFit(gamma_hat=amp / initial, sigma_hat=rate,
                     residual=residual, passed=(rate > 0.0) and bounded)


def verify_claims(series: NormSeries, window=(0.5, 3.5)) -> dict:
    """Fit decay constants for every norm series and flag each metric.

    A metric passes when its fitted rate is positive and the series stays
    below the fitted envelope (5 percent slack) on the window; identically
    zero series count as degenerate passes.  `series` comes from
    compute_norm_series and is returned in the report.
    """
    metrics = {
        "u_norm": _fit_metric(series.times, series.u_norm, window),
        "h2_surrogate": _fit_metric(series.times, series.h2_surrogate, window),
        "linf": _fit_metric(series.times, series.linf, window),
        "laplacian_l2": _fit_metric(series.times, series.laplacian_l2, window),
        "dudt_l2": _fit_metric(series.times, series.dudt_l2, window),
    }
    for i in range(series.xi.shape[1]):
        metrics[f"xi_{i + 1}"] = _fit_metric(series.times, series.xi[:, i],
                                             window)
    all_pass = all(m.passed for m in metrics.values())
    return {"metrics": metrics, "series": series, "all_pass": all_pass,
            "window": tuple(window)}


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
