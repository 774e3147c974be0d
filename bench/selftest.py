"""The benchmark's own self-test (`python3 bench/run.py --self-test`).

Runs every workload path, untraced and traced, at tiny sizes (n_sim 30,
grid 8); checks the self-time and percentile arithmetic on known inputs;
and feeds deliberately corrupted outputs to the output checks, which must
flag every one of them.
"""

import copy
import json
import os
import statistics

import run
import tracing
import workloads

FAILURES = []


def expect(condition, what):
    print(("ok    " if condition else "FAIL  ") + what)
    if not condition:
        FAILURES.append(what)


def test_arithmetic():
    S = tracing.Span
    spans = [S("root", 0.0, 10.0, -1, 0), S("a", 1.0, 4.0, 0, 0),
             S("g", 2.0, 3.0, 1, 0), S("b", 5.0, 6.0, 0, 0)]
    expect(tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0],
           "self time = span minus its children's cover")
    samples = [float(v) for v in range(1, 101)]
    expect(run.tail_percentile(samples) == (90, 90.0),
           "tail of 1..100 is p90 = 90 with ten samples above")
    expect(run.tail_percentile(samples[:20]) == (50, 10.0),
           "tail of 1..20 is p50 = 10")
    expect(run.tail_percentile(samples[:11]) == (9, 1.0),
           "tail of 1..11 is p9 = 1")
    expect(run.tail_percentile(samples[:10]) is None,
           "ten samples have no tail percentile")
    highest = True
    for n in range(11, 300):
        ranks = list(range(1, n + 1))
        p, value = run.tail_percentile(ranks)
        above = sum(1 for v in ranks if v > value)
        next_rank = -(-(p + 1) * n // 100)
        highest &= above >= 10 and n - next_rank < 10
    expect(highest, "the tail percentile is the highest with ten samples "
           "above it, for 11 to 299 samples")


def test_install(ms):
    tracer = tracing.Tracer()
    targets = tracing.targets(ms)
    before = [getattr(owner, attr) for owner, attr, _, _ in targets]
    tracer.install(targets)
    wrapped = all(getattr(o, a) is not b
                  for (o, a, _, _), b in zip(targets, before))
    tracer.uninstall()
    after = [getattr(owner, attr) for owner, attr, _, _ in targets]
    expect(wrapped and all(a is b for a, b in zip(after, before)),
           "install wraps every target and uninstall restores it")


def smoke_workload(ms, workload, workdir):
    small = workloads.smoke(workload)
    runner = workloads.Runner(ms, small, 7, os.path.join(workdir, small.name),
                              references={})
    ops = [run.run_op(runner) for _ in range(2)]
    tracer = tracing.Tracer()
    targets = tracing.targets(ms)
    for k in range(2):
        tracer.op = k
        ops.append(run.run_op(runner, tracer, targets))
    expect(all(not op.failures for op in ops),
           f"{small.name}: four smoke operations pass their checks")
    first, second = (tracing.layer_values(tracer, k) for k in range(2))
    counts = [n for n, _, kind, _, _ in tracing.LAYER_METRICS
              if kind != "self"]
    expect(all(first[n] == second[n] for n in counts),
           f"{small.name}: call counts repeat between traced operations")
    expect(first["basis.n_sim"] == 30 and first["special.radial_calls"] > 0
           and first["special.zero_calls"] > 0
           and first["basis.boundary_gram_calls"] > 0,
           f"{small.name}: special and basis layers traced")
    if small.kind == "verify":
        expect(first["diagnostics.norm_series_calls"] == 2
               and first["lifting.xi_calls"] > 0
               and first["basis.grid_points"] > 0
               and first["cli.self_s"] > 0,
               f"{small.name}: grid, lifting, diagnostics and cli traced")
    else:
        expect(first["simulator.rk4_s"] > 0 and first["simulator.expm_s"] > 0
               and first["lifting.xi_calls"] == 0
               and first["basis.grid_points"] == 0,
               f"{small.name}: both integrators traced, grid and lifting "
               "skipped")
    return runner, ops[0].output


def test_corruption(verify_out, cross_out):
    report = json.loads(verify_out["report"])
    reference = {"N": sum(1 for m in report["metrics"]
                          if m["metric"].startswith("xi_")),
                 "gains_source": report["gains"]["gains_source"],
                 "sigma_hat": {m["metric"]: m["sigma_hat"]
                               for m in report["metrics"]}}
    good = verify_out["report"]
    expect(workloads.check_verify(verify_out, good, reference) == [],
           "verify checks pass the untouched output")

    def with_report(edit):
        bad = copy.deepcopy(report)
        edit(bad)
        return {"exit_code": 1, "report": json.dumps(bad).encode()}

    def set_sigma(value):
        return lambda r: r["metrics"][0].__setitem__("sigma_hat", value)

    corrupt = {
        "exit code 3": ({"exit_code": 3, "report": good}, good, reference),
        "no report": ({"exit_code": 1, "report": None}, good, reference),
        "diverged": (with_report(lambda r: r.__setitem__("diverged", True)),
                     None, reference),
        "negative sigma": (with_report(set_sigma(-0.1)), None, None),
        "missing sigma": (with_report(set_sigma(None)), None, None),
        "infinite sigma": (with_report(set_sigma(float("inf"))), None, None),
        "minus_s preferred": (with_report(lambda r: r["reduced_fit"]
                                          .__setitem__("preferred_generator",
                                                       "minus_s")),
                              None, None),
        "report bytes differ": (verify_out, good + b" ", None),
        "N differs": (verify_out, None, dict(reference, N=reference["N"] + 1)),
        "gains_source differs": (verify_out, None,
                                 dict(reference, gains_source="config")),
        "sigma off reference": (
            verify_out, None,
            dict(reference, sigma_hat={
                k: v * (1 + 1e-4) for k, v in
                reference["sigma_hat"].items()})),
    }
    for what, (out, first, ref) in corrupt.items():
        expect(workloads.check_verify(out, first, ref) != [],
               f"verify checks flag: {what}")

    atol = workloads.SMOKE_TRAJECTORY_ATOL
    expect(workloads.check_crosscheck(cross_out, atol) == [],
           "crosscheck checks pass the untouched output")
    samples = cross_out["samples"]
    for what, edit in {
            "expm and rk4 disagree": {"max_deviation": 10 * atol},
            "identity broken": {"identity_deviation": 1e-8},
            "truncated": {"truncated": (False, True)},
            "short trajectory": {"samples": (samples[0], samples[1] - 1)},
            "non-finite": {"finite": False}}.items():
        expect(workloads.check_crosscheck(dict(cross_out, **edit), atol) != [],
               f"crosscheck checks flag: {what}")


def test_failed_operation(runner):
    def boom():
        raise FloatingPointError("injected")
    original = runner.operation
    runner.operation = boom
    try:
        op = run.run_op(runner)
    finally:
        runner.operation = original
    expect(op.failures and op.failures[0].startswith("raised"),
           "an operation that raises is counted as failed")


def main() -> int:
    FAILURES.clear()
    ms = run.load_modalstab()
    workdir = os.path.join(run.WORK_ROOT, "selftest")
    test_arithmetic()
    test_install(ms)
    outputs = {}
    for workload in workloads.WORKLOADS.values():
        runner, outputs[workload.kind] = smoke_workload(ms, workload, workdir)
    test_corruption(outputs["verify"], outputs["crosscheck"])
    test_failed_operation(runner)
    setups = [run.setup_seconds(runner.config_path) for _ in range(2)]
    expect(all(s > 0 for s in setups) and statistics.median(setups) < 60,
           "setup is timed in a fresh interpreter")
    print(f"self-test: {len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0
