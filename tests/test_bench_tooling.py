"""The benchmark's tracer patches modalstab functions by name; a refactor
that drops or renames one of them must fail here, not only in a traced
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
