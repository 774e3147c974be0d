"""Command-line driver for end-to-end runs.

Commands: spectrum | synthesize | simulate | verify, each reading a flat
key-value config file (dotted keys, one `key = value` per line, `#`
comments).  All artifacts are CSV / JSON / binary snapshots; runs are
deterministic for a fixed seed.  Exit codes: 0 ok, 1 verification failed,
2 bad input, 3 gains not validated, 4 synthesis failure, also a shift
resonant with a tail mode's -mu (the lift is singular) or two leading modes
on one angular key (B is singular), from synthesize, simulate and verify
alike.

The environment variable MODALSTAB_THREADS caps BLAS parallelism; the
package applies it on import, before the numeric modules load.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

DEFAULT_GAMMAS = {
    "disk": (6.17, 7.17, 8.17, 9.17, 10.17),
    "ball": (5.147, 6.147, 7.147, 8.147),
}

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_GAINS_NOT_VALIDATED = 3
EXIT_SYNTHESIS_FAILURE = 4


class ConfigError(ValueError):
    """Invalid or unparsable run configuration; names the offending field."""


@dataclass
class RunConfig:
    shape: str = "disk"
    radius: float = 2.0
    lam: float = 6.61
    gammas: object = "default"     # "default", "auto", or explicit tuple
    n_sim: int = 300
    dt: float = 0.05
    horizon: float = 4.0
    grid: int = 50
    seed: int = 1
    mode: str = "closed_loop"
    output_dir: str = "out"
    target_margin: float = -0.5
    poly_degree: int = 3

    def resolved_gammas(self):
        if self.gammas in ("default", "auto"):
            return DEFAULT_GAMMAS[self.shape]
        return tuple(self.gammas)

    def validate(self):
        if self.shape not in ("disk", "ball"):
            raise ConfigError("domain.shape must be disk or ball")
        if not 0 < self.radius < math.inf:
            raise ConfigError("domain.radius must be positive and finite")
        if not 0 <= self.lam < math.inf:
            raise ConfigError("lambda must be nonnegative and finite")
        if self.n_sim < 1:
            raise ConfigError("n_sim must be a positive integer")
        if not 0 < self.dt < math.inf:
            raise ConfigError("dt must be positive and finite")
        if not self.dt <= self.horizon < math.inf:
            raise ConfigError("horizon must be finite and at least dt")
        if self.grid < 3:
            raise ConfigError("grid must be at least 3")
        if self.mode not in ("closed_loop", "open_loop"):
            raise ConfigError("mode must be closed_loop or open_loop")
        if not -math.inf < self.target_margin < 0:
            raise ConfigError("target_margin must be negative and finite")
        if not all(map(math.isfinite, self.resolved_gammas())):
            raise ConfigError("gammas must be finite")
        if not 0 <= self.poly_degree <= 3:
            raise ConfigError("poly_degree must be between 0 and 3")


_KEY_MAP = {
    "domain.shape": ("shape", str),
    "domain.radius": ("radius", float),
    "lambda": ("lam", float),
    "gammas": ("gammas", "gammas"),
    "n_sim": ("n_sim", int),
    "dt": ("dt", float),
    "horizon": ("horizon", float),
    "grid": ("grid", int),
    "seed": ("seed", int),
    "mode": ("mode", str),
    "output_dir": ("output_dir", str),
    "target_margin": ("target_margin", float),
    "poly_degree": ("poly_degree", int),
}


def parse_config(text: str) -> RunConfig:
    """Parse the flat `key = value` grammar into a RunConfig."""
    cfg = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEY_MAP:
            raise ConfigError(f"unknown config key {key!r}")
        attr, kind = _KEY_MAP[key]
        try:
            if kind == "gammas":
                if value in ("auto", "default"):
                    parsed = value
                else:
                    parsed = tuple(float(v) for v in value.split(","))
            else:
                parsed = kind(value)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {value!r}") from exc
        setattr(cfg, attr, parsed)
    cfg.validate()
    return cfg


def load_config(path) -> RunConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def _ensure_outdir(cfg: RunConfig) -> str:
    os.makedirs(cfg.output_dir, exist_ok=True)
    return cfg.output_dir


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


_REFERENCE_SPECTRA = {
    # Reported values for the lambda = 6.61, R = 2 benchmark configuration;
    # they differ from the analytic Bessel spectrum and are recorded in run
    # reports rather than reconciled.
    "disk": [5.17, 3.07, 3.07, 0.45, 0.45],
    "ball": [4.147, 1.566, 1.566, 1.566],
}


def _spectrum(cfg: RunConfig):
    from .basis import Domain, enumerate_modes
    domain = Domain(cfg.shape, cfg.radius)
    modes, summary = enumerate_modes(domain, cfg.lam, cfg.n_sim)
    return domain, modes, summary


def cmd_spectrum(cfg: RunConfig) -> int:
    """Write the mode table CSV and a spectrum summary JSON."""
    from .basis import export_mode_table
    outdir = _ensure_outdir(cfg)
    _, modes, summary = _spectrum(cfg)
    export_mode_table(modes, os.path.join(outdir, "mode_table.csv"))
    n = summary.n_unstable
    payload = {
        "N": n,
        "n_sim": summary.n_sim,
        "leading_eigenvalues": [format(v, ".17g")
                                for v in summary.eigenvalues[: max(n, 6)]],
    }
    if cfg.radius == 2.0 and cfg.lam == 6.61:
        payload["benchmark_reference"] = {
            "reported_mu": _REFERENCE_SPECTRA[cfg.shape],
            "computed_mu": [float(v) for v in summary.eigenvalues[:n]],
            "note": "computed values use the analytic Bessel spectrum; the "
                    "reported benchmark values differ and are recorded, not "
                    "reconciled",
        }
    _write(os.path.join(outdir, "spectrum_summary.json"),
           json.dumps(payload, indent=2))
    print(f"N = {n}; leading eigenvalues "
          f"{[float(v) for v in summary.eigenvalues[: max(n, 1)]]}")
    return EXIT_OK


def _resolve_gains(cfg: RunConfig, modes):
    """The one gain policy of every command.

    The configured shifts are nudged off the leading eigenvalues (the
    adjustment is logged); `gammas = auto` takes the doubling search's set
    instead.  When that set is not Hurwitz on the direct generator, the
    search starts from it, and `scaled` is the set it accepts (synthesize
    suggests it, simulate and verify run with it) or its GainScalingError.
    Returns (gain_set, scaled, info), with `info` describing the gains a
    run uses; each command validates only the set it writes or runs."""
    from .basis import count_unstable
    from .controller import (GainScalingError, _doubling_search, nudge_gammas,
                             scaled_gain_set, synthesize)
    gammas0 = cfg.resolved_gammas()
    nudged = nudge_gammas(gammas0, modes.mu[:count_unstable(modes)])
    info = {"gammas_config": list(gammas0), "gains_source": "config",
            "auto_requested": cfg.gammas == "auto"}
    if nudged != tuple(float(g) for g in gammas0):
        print(f"note: gammas nudged off eigenvalues: {list(nudged)}",
              file=sys.stderr)
        info["nudged"] = list(nudged)
    if cfg.gammas == "auto":
        gain_set = scaled_gain_set(modes, nudged, cfg.target_margin)
    else:
        gain_set = synthesize(modes, nudged)
    scaled = None
    if not gain_set.margin_direct < 0.0:
        try:
            scaled = _doubling_search(modes, nudged, cfg.target_margin,
                                      gain_set)
        except GainScalingError as exc:
            scaled = exc
    used = getattr(scaled, "gammas", gain_set.gammas)
    info["gammas_used"] = list(used)
    if used != nudged:
        info.update(gains_source="auto_scaled", scale=used[0] / nudged[0])
    return gain_set, scaled, info


def cmd_synthesize(cfg: RunConfig) -> int:
    """Write the gain-set JSON; exit 3 when the gains are not Hurwitz on the
    direct generator (with the search's set as `suggested_gammas`, or its
    failure printed as a note)."""
    from .controller import GainScalingError, gain_set_to_json, validate_gains
    outdir = _ensure_outdir(cfg)
    _, modes, _ = _spectrum(cfg)
    gain_set, scaled, info = _resolve_gains(cfg, modes)
    report = validate_gains(gain_set)
    payload = json.loads(gain_set_to_json(gain_set, report))
    payload["gammas_config"] = info["gammas_config"]
    if "nudged" in info:
        payload["nudged_gammas"] = info["nudged"]
    if isinstance(scaled, GainScalingError):
        print(f"note: {scaled}", file=sys.stderr)
    elif scaled is not None:
        payload["suggested_gammas"] = list(scaled.gammas)
    _write(os.path.join(outdir, "gains.json"), json.dumps(payload, indent=2))
    print(f"margin_direct = {report.margin_direct:.6f}, "
          f"margin_reduced_s = {report.margin_s:.6f}")
    return EXIT_OK if report.hurwitz_direct else EXIT_GAINS_NOT_VALIDATED


def _run_simulation(cfg: RunConfig):
    """Shared pipeline: spectrum, gains (closed loop), projection,
    integration, norm series (grid on the modes the trajectory moves);
    returns (gain_set, report, info, trajectory, series, diverged)."""
    import numpy as np
    from .controller import GainScalingError, validate_gains
    from .diagnostics import GridEvaluator, compute_norm_series
    from .simulator import (PolynomialSpec, assemble_closed_loop, integrate,
                            open_loop, project_initial_condition)
    domain, modes, _ = _spectrum(cfg)
    gain_set = report = None
    info = {"gains_source": "none (open loop)"}
    u0 = project_initial_condition(domain, modes,
                                   PolynomialSpec(degree=cfg.poly_degree),
                                   cfg.seed)
    if cfg.mode == "closed_loop":
        gain_set, scaled, info = _resolve_gains(cfg, modes)
        if isinstance(scaled, GainScalingError):
            raise scaled
        gain_set = scaled or gain_set
        report = validate_gains(gain_set)
        system = assemble_closed_loop(modes, gain_set, domain)
        trajectory = integrate(system, u0, cfg.dt, cfg.horizon)
    else:
        trajectory = open_loop(modes, u0, cfg.dt, cfg.horizon)
    moved = np.flatnonzero(np.any(trajectory.states, axis=0))
    evaluator = GridEvaluator(modes[moved], domain, cfg.grid)
    series = compute_norm_series(trajectory, gain_set, modes, evaluator)
    diverged = bool(trajectory.truncated
                    or series.linf[-1] > max(series.linf[0], 1e-300))
    return gain_set, report, info, trajectory, series, diverged


def cmd_simulate(cfg: RunConfig) -> int:
    """Write trajectory CSV, norm-series CSV, binary snapshots, and a run
    summary JSON."""
    from .diagnostics import write_norm_series_csv
    from .simulator import write_snapshots, write_trajectory_csv
    outdir = _ensure_outdir(cfg)
    _, report, info, trajectory, series, diverged = _run_simulation(cfg)
    write_trajectory_csv(trajectory, os.path.join(outdir, "trajectory.csv"))
    write_norm_series_csv(series, os.path.join(outdir, "norm_series.csv"))
    write_snapshots(trajectory, os.path.join(outdir, "snapshots.bin"))
    payload = {
        "mode": cfg.mode,
        "N": trajectory.boundary_data.shape[1],
        "n_sim": cfg.n_sim,
        "dt": cfg.dt,
        "horizon": cfg.horizon,
        "seed": cfg.seed,
        "diverged": diverged,
        "truncated": bool(trajectory.truncated),
        "gains": info,
    }
    if report is not None:
        payload["margin_direct"] = report.margin_direct
        payload["margin_reduced_s"] = report.margin_s
    _write(os.path.join(outdir, "run_summary.json"),
           json.dumps(payload, indent=2))
    if diverged:
        print("warning: trajectory diverged", file=sys.stderr)
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    """Run the pipeline in-process and write the claims report JSON; exit 0
    only when every metric flag passes."""
    from .diagnostics import claims_report_json, verify_claims
    from .lifting import InsufficientDataError, commutation_check
    from .simulator import InsufficientExcitationError, reduced_dynamics_fit
    outdir = _ensure_outdir(cfg)
    gain_set, _, info, trajectory, series, diverged = _run_simulation(cfg)
    claims = verify_claims(series)
    extra = {"gains": info, "diverged": diverged}
    if gain_set is not None and not diverged:
        try:
            fit = reduced_dynamics_fit(trajectory, gain_set)
        except InsufficientExcitationError as exc:
            extra["reduced_fit"] = {"error": str(exc)}
        else:
            preferred = ("direct" if fit.dist_direct <= fit.dist_minus_s
                         else "minus_s")
            extra["reduced_fit"] = {
                "residual": fit.residual,
                "dist_direct": fit.dist_direct,
                "dist_minus_s": fit.dist_minus_s,
                "preferred_generator": preferred,
            }
        try:
            deviation = float(max(commutation_check(gain_set, trajectory)))
        except InsufficientDataError as exc:
            deviation = {"error": str(exc)}
        extra["commutation_max_deviation"] = deviation
    _write(os.path.join(outdir, "claims_report.json"),
           claims_report_json(claims, extra))
    failing = [name for name, fit in claims["metrics"].items()
               if not fit.passed]
    if failing:
        print("failing metrics: " + ", ".join(failing), file=sys.stderr)
        return EXIT_VERIFY_FAILED
    print("all claim checks passed")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="modalstab",
        description="Boundary stabilization of the heat equation on disk "
                    "and ball: spectrum, gain synthesis, spectral Galerkin "
                    "simulation, decay verification.")
    parser.add_argument("command",
                        choices=["spectrum", "synthesize", "simulate",
                                 "verify"])
    parser.add_argument("--config", help="path to flat key-value config file")
    parser.add_argument("--output", help="override output_dir")
    parser.add_argument("--mode", choices=["closed_loop", "open_loop"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--grid", type=int)
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        if args.output:
            cfg.output_dir = args.output
        if args.mode:
            cfg.mode = args.mode
        if args.seed is not None:
            cfg.seed = args.seed
        if args.grid is not None:
            cfg.grid = args.grid
        cfg.validate()
    except (ConfigError, OSError) as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    from .basis import CapacityError
    from .controller import GainScalingError, SynthesisError
    command = {"spectrum": cmd_spectrum, "synthesize": cmd_synthesize,
               "simulate": cmd_simulate, "verify": cmd_verify}[args.command]
    try:
        return command(cfg)
    except (ConfigError, CapacityError) as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (SynthesisError, GainScalingError) as exc:
        print(f"synthesis failed: {exc}", file=sys.stderr)
        return EXIT_SYNTHESIS_FAILURE


if __name__ == "__main__":
    sys.exit(main())
