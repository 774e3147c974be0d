"""The benchmark's tracer patches modalstab functions by name; a refactor
that drops or renames one of them, or that brings back per-mode Bessel
evaluations or per-order zero scans, must fail here, not only in a traced
benchmark run."""

import importlib.util
from pathlib import Path

import modalstab
import modalstab.cli  # noqa: F401  (tracing.targets wraps cli.main)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    targets = load_tracing().targets(modalstab)
    assert targets
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in targets
               if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_traced_verify_batches_bessel_work(tmp_path):
    tracing = load_tracing()
    config = tmp_path / "run.cfg"
    config.write_text("n_sim = 40\ngrid = 12\nhorizon = 1\n"
                      f"output_dir = {tmp_path / 'out'}\n")
    tracer = tracing.Tracer()
    tracer.install(tracing.targets(modalstab))
    try:
        code = modalstab.cli.main(["verify", "--config", str(config)])
    finally:
        tracer.uninstall()
    assert code in (0, 1)
    calls = tracing.layer_values(tracer, 0)
    # one lane call for the grid and one scan for all zeros, whose slopes
    # give the normalization constants; the projection of u0 evaluates no
    # Bessel function
    assert calls["special.radial_calls"] == 1
    # the grid table holds only the modes the closed loop moves
    rows = calls["diagnostics.grid_values_mb"] * 1e6 / (
        8 * calls["basis.grid_points"])
    assert round(rows) < calls["basis.n_sim"] == 40
    assert calls["special.zero_calls"] == 1
    # verify_claims reuses the series the simulation already computed
    assert calls["diagnostics.norm_series_calls"] == 1
    # the configured shifts, then the doubling search's scale 2: its scale
    # 1 is the configured set, not synthesized again
    assert calls["controller.synthesize_calls"] == 2
    # one stacked lift for all gains in the commutation check; one head Gram
    # per synthesis, and one extended Gram for the accepted gain set, which
    # assembly, the norm series and the commutation check share
    assert calls["lifting.xi_calls"] == 1
    assert calls["basis.boundary_gram_calls"] == 3


def test_auto_verify_synthesizes_only_in_the_search(tmp_path, monkeypatch):
    # `gammas = auto` runs the doubling search's own gain set: scales 1 and
    # 2 are synthesized, and the accepted set is never built again
    calls = []
    synthesize = modalstab.controller.synthesize

    def counted(*args, **kwargs):
        calls.append(args)
        return synthesize(*args, **kwargs)

    monkeypatch.setattr(modalstab.controller, "synthesize", counted)
    config = tmp_path / "run.cfg"
    config.write_text("n_sim = 40\ngrid = 12\nhorizon = 1\ngammas = auto\n"
                      f"output_dir = {tmp_path / 'out'}\n")
    assert modalstab.cli.main(["verify", "--config", str(config)]) in (0, 1)
    assert len(calls) == 2
