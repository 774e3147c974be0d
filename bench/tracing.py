"""Spans and call counts recorded around modalstab's public functions.

The benchmark measures each layer from outside: while a traced operation
runs, the functions listed by `targets()` are replaced by wrappers at the
place their callers look them up, and every call records a span
(name, start, end, parent span, operation id) plus a call count.
Untraced operations run with the original functions in place.
"""

import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int      # index of the enclosing span in Tracer.spans, or -1
    op: int          # operation id shared by every span of one operation


class Tracer:
    """In-memory span store; wrappers append to it while installed."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()     # (op, span name) -> calls
        self.gauges = {}            # (op, gauge name) -> value
        self.op = 0
        self._stack = []
        self._patches = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span named `name` under the current operation."""
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                               self.op))
        self.counts[self.op, name] += 1
        self._stack.append(sid)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[sid].end = time.perf_counter()

    def gauge(self, name, value):
        self.gauges[self.op, name] = value

    def _wrapper(self, fn, name, observe):
        def traced(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            result = self.call(span, fn, *args, **kwargs)
            if observe is not None:
                observe(self, args, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def install(self, targets):
        """Patch every (owner, attribute, span name, observe) target."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, observe in targets:
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(original, name, observe))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def to_json(self):
        return {
            "spans": [{"name": s.name, "start": s.start, "end": s.end,
                       "parent": s.parent, "op": s.op} for s in self.spans],
            "counts": [{"op": op, "name": name, "calls": n}
                       for (op, name), n in sorted(self.counts.items())],
            "gauges": [{"op": op, "name": name, "value": v}
                       for (op, name), v in sorted(self.gauges.items())],
        }


def self_times(spans):
    """Per-span self time: duration minus the time its child spans cover.

    Children of one span run one after another on a single thread, so the
    time they cover is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def _integrate_span(args, kwargs):
    method = kwargs.get("method", args[4] if len(args) > 4 else "expm_step")
    return f"simulator.integrate.{method}"


def _observe_modes(tracer, args, result):
    modes, _ = result
    tracer.gauge("basis.n_sim", len(modes))


def _observe_grid(tracer, args, result):
    evaluator = args[0]
    tracer.gauge("basis.grid_points", int(evaluator.points.shape[0]))
    tracer.gauge("diagnostics.grid_values_mb", evaluator.values.nbytes / 1e6)


def targets(ms):
    """Wrap points for the modalstab package `ms` (its submodules loaded).

    Module attributes serve the CLI's lazy `from .x import y` inside
    functions and calls within the defining module; an importing module's
    own binding serves its top-level `from .x import y`.  Calls inside
    `special` (the zero finders' own Bessel evaluations) stay unwrapped, so
    their time is the zero finders' self time.
    """
    basis, controller, diagnostics, lifting, simulator = (
        ms.basis, ms.controller, ms.diagnostics, ms.lifting, ms.simulator)
    out = [
        (basis, "bessel_j_all", "special.bessel_j_all", None),
        (basis, "spherical_j_all", "special.spherical_j_all", None),
        (basis, "bessel_j_zeros", "special.bessel_j_zeros", None),
        (basis, "spherical_bessel_zeros", "special.spherical_bessel_zeros",
         None),
        (basis, "enumerate_modes", "basis.enumerate_modes", _observe_modes),
        (simulator, "project_function", "basis.project_function", None),
        (diagnostics, "mode_values", "basis.mode_values", None),
    ]
    out += [(m, "boundary_gram", "basis.boundary_gram", None)
            for m in (controller, diagnostics, lifting, simulator)]
    out += [(controller, f, f"controller.{f}", None)
            for f in ("synthesize", "validate_gains", "auto_scale_gains",
                      "nudge_gammas", "control_map")]
    out += [
        (simulator, "control_map", "controller.control_map", None),
        (lifting, "xi_coefficients", "lifting.xi_coefficients", None),
        (lifting, "commutation_check", "lifting.commutation_check", None),
        (simulator, "assemble_closed_loop", "simulator.assemble_closed_loop",
         None),
        (simulator, "integrate", _integrate_span, None),
        (simulator, "reduced_dynamics_fit", "simulator.reduced_dynamics_fit",
         None),
        (diagnostics.GridEvaluator, "__init__", "diagnostics.GridEvaluator",
         _observe_grid),
        (diagnostics, "compute_norm_series", "diagnostics.compute_norm_series",
         None),
        (diagnostics, "verify_claims", "diagnostics.verify_claims", None),
        (ms.cli, "main", "cli.main", None),
    ]
    return out


RADIAL = ("special.bessel_j_all", "special.spherical_j_all")
ZEROS = ("special.bessel_j_zeros", "special.spherical_bessel_zeros")

# Per-layer metrics: (name, unit, kind, source, prediction).  "self" sums
# self time over the source spans, "calls" sums their call counts, "gauge"
# reads a size recorded by an observer.  The prediction names the
# end-to-end metric and workload a change in this layer should move.
LAYER_METRICS = [
    ("special.radial_calls", "count", "calls", RADIAL,
     "run_s.p50, first_run_s on ball-verify; a little on disk-verify"),
    ("special.radial_s", "s", "self", RADIAL,
     "run_s.p50, first_run_s on ball-verify; a little on disk-verify"),
    ("special.zero_calls", "count", "calls", ZEROS,
     "run_s.p50 on disk-verify and disk-crosscheck"),
    ("special.zero_s", "s", "self", ZEROS,
     "run_s.p50 on disk-verify and disk-crosscheck"),
    ("basis.enumerate_s", "s", "self", ("basis.enumerate_modes",),
     "run_s.p50 on disk-verify and disk-crosscheck"),
    ("basis.project_s", "s", "self", ("basis.project_function",),
     "run_s.p50 on every workload"),
    ("basis.mode_values_s", "s", "self", ("basis.mode_values",),
     "run_s.p50 on ball-verify and disk-verify"),
    ("basis.n_sim", "count", "gauge", "basis.n_sim", "size counter"),
    ("basis.grid_points", "count", "gauge", "basis.grid_points",
     "size counter"),
    ("basis.boundary_gram_calls", "count", "calls", ("basis.boundary_gram",),
     "run_s.p50 on disk-verify, less on ball-verify, none on crosscheck"),
    ("basis.boundary_gram_s", "s", "self", ("basis.boundary_gram",),
     "run_s.p50 on disk-verify, less on ball-verify, none on crosscheck"),
    ("lifting.xi_calls", "count", "calls", ("lifting.xi_coefficients",),
     "run_s.p50 on disk-verify, less on ball-verify, none on crosscheck"),
    ("lifting.commutation_s", "s", "self",
     ("lifting.commutation_check", "lifting.xi_coefficients"),
     "run_s.p50 on disk-verify, less on ball-verify, none on crosscheck"),
    ("controller.synthesize_calls", "count", "calls",
     ("controller.synthesize",), "no change expected (under 1%)"),
    ("controller.s", "s", "self",
     ("controller.synthesize", "controller.validate_gains",
      "controller.auto_scale_gains", "controller.nudge_gammas",
      "controller.control_map"), "no change expected (under 1%)"),
    ("simulator.assemble_s", "s", "self",
     ("simulator.assemble_closed_loop",), "run_s.p50 on every workload"),
    ("simulator.expm_s", "s", "self", ("simulator.integrate.expm_step",),
     "run_s.p50 on disk-crosscheck"),
    ("simulator.rk4_s", "s", "self", ("simulator.integrate.rk4",),
     "run_s.p50 on disk-crosscheck only"),
    ("simulator.fit_s", "s", "self", ("simulator.reduced_dynamics_fit",),
     "run_s.p50 on the verify workloads"),
    ("diagnostics.grid_build_s", "s", "self", ("diagnostics.GridEvaluator",),
     "run_s.p50 on ball-verify and disk-verify"),
    ("diagnostics.grid_values_mb", "MB", "gauge",
     "diagnostics.grid_values_mb", "peak_rss_mb on ball-verify"),
    ("diagnostics.norm_series_calls", "count", "calls",
     ("diagnostics.compute_norm_series",), "run_s.p50 on the verify workloads"),
    ("diagnostics.norm_series_s", "s", "self",
     ("diagnostics.compute_norm_series",), "run_s.p50 on the verify workloads"),
    ("diagnostics.verify_claims_s", "s", "self",
     ("diagnostics.verify_claims",), "run_s.p50 on the verify workloads"),
    ("cli.self_s", "s", "self", ("cli.main",),
     "run_s.p50 on the verify workloads"),
]

# Columns of the ROADMAP baseline table: inclusive span time per stage.
BASELINE_COLUMNS = [
    ("enumerate", "basis.enumerate_modes"),
    ("project u0", "basis.project_function"),
    ("integrate (expm)", "simulator.integrate.expm_step"),
    ("rk4", "simulator.integrate.rk4"),
    ("GridEvaluator", "diagnostics.GridEvaluator"),
]


def layer_values(tracer, op):
    """Every per-layer metric of one traced operation, as {name: value}."""
    own = [i for i, s in enumerate(tracer.spans) if s.op == op]
    selfs = self_times(tracer.spans)
    out = {}
    for name, _, kind, source, _ in LAYER_METRICS:
        if kind == "gauge":
            out[name] = tracer.gauges.get((op, source), 0)
        elif kind == "calls":
            out[name] = sum(tracer.counts[op, s] for s in source)
        else:
            out[name] = sum(selfs[i] for i in own
                            if tracer.spans[i].name in source)
    return out


def stage_totals(tracer, op):
    """Inclusive seconds per baseline-table column for one operation."""
    out = {}
    for column, span in BASELINE_COLUMNS:
        hits = [s.end - s.start for s in tracer.spans
                if s.op == op and s.name == span]
        out[column] = sum(hits) if hits else None
    return out
