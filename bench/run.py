"""Benchmark of modalstab's verify pipeline, end to end and layer by layer.

    python3 bench/run.py --workload disk-verify --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35
    python3 bench/run.py --self-test

`--trace 0` measures the end-to-end metrics with no wrapper installed;
`--trace 1` alternates untraced and traced operations and reports the
per-layer metrics (self time, call counts, sizes) plus the tracing
overhead.  `--workload all` runs every workload, untraced then traced,
each in a fresh process so that `first_run_s` stays a fresh-process
figure.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the metric names and units are the
ones listed in BENCHMARK.json.  Spans of a traced run are written to
.bench_out/<workload>-seed<n>/trace.json when it ends.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_out")

SETUP_SAMPLES = 7       # fresh interpreters timed per run for setup_s
FIRST_RUN_SECONDS = 8   # fresh processes time their first operation while
                        # another one fits in this many seconds
MIN_WARM_OPS = 3        # warm operations per run, even past --seconds
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

# Runs in a fresh interpreter: import the package and parse the config.
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import modalstab, modalstab.cli; "
              "modalstab.cli.load_config(sys.argv[2]); "
              "print('ready', flush=True)")


def cap_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; call before
    numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def load_modalstab():
    """Import modalstab from this checkout's src/, never from elsewhere."""
    if not os.path.isdir(SRC):
        raise SystemExit(f"bench: no source tree at {SRC}")
    sys.path.insert(0, SRC)
    import modalstab
    import modalstab.cli
    if os.path.dirname(os.path.abspath(modalstab.__file__)) != os.path.join(
            SRC, "modalstab"):
        raise SystemExit(f"bench: modalstab imported from "
                         f"{modalstab.__file__}, not from {SRC}")
    return modalstab


def environment(nproc: int) -> dict:
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": nproc, "blas_threads": nproc,
            "machine": platform.machine()}


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------- statistics

def tail_percentile(samples):
    """Highest whole percentile with at least ten samples above it, by the
    nearest-rank rule: (percentile, value), or None for ten samples or
    fewer."""
    n = len(samples)
    if n <= 10:
        return None
    p = 100 * (n - 10) // n
    rank = -(-p * n // 100)          # ceil(p n / 100); n - rank >= 10
    return p, sorted(samples)[rank - 1]


# --------------------------------------------------------------- operations

def setup_seconds(config_path: str) -> float:
    """Seconds from interpreter start until modalstab and its submodules
    are imported and the config is parsed, in a fresh process."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_CODE, SRC,
                           config_path], cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=120)
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup process failed: {err.strip()}")
    return elapsed


@dataclass
class Op:
    """One finished operation: wall seconds, output, check failures."""

    seconds: float
    output: object
    failures: list


def fresh_first_run(runner) -> Op:
    """The first operation of a fresh process (this script in --child
    mode), which includes the program's lazy set-up."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", "--workload",
         runner.workload.name, "--seed", str(runner.seed)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0:
        return Op(0.0, None, [f"fresh process exited {proc.returncode}"])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return Op(result["seconds"], None, result["failures"])


def run_op(runner, tracer=None, targets=None) -> Op:
    """Time one operation, then check its output outside the timed span.

    With a tracer, its wrappers are installed around this operation only.
    """
    runner.prepare()
    if tracer is not None:
        tracer.install(targets)
    output, failures = None, []
    start = time.perf_counter()
    try:
        if tracer is not None:
            output = tracer.call("op", runner.operation)
        else:
            output = runner.operation()
    except Exception:       # a failed operation is counted, not fatal
        failures = ["raised: " + traceback.format_exc().strip()
                    .splitlines()[-1]]
        traceback.print_exc(file=sys.stderr)
    finally:
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    if output is not None:
        failures = runner.check(runner.collect(output))
    for failure in failures:
        print(f"  check failed: {failure}", file=sys.stderr)
    return Op(seconds, output, failures)


def closed_loop(seconds: float, minimum: int, step):
    """Call step() back to back until `seconds` passed and at least
    `minimum` calls finished; returns (results, elapsed seconds)."""
    results = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(results) < minimum:
        results.append(step(len(results)))
    return results, time.perf_counter() - start


# ------------------------------------------------------------------ reports

def end_to_end(runner, seconds: float):
    """Untraced run: setup in fresh interpreters; this process's first
    operation, then as many first operations of fresh processes as fit in
    FIRST_RUN_SECONDS; then the warm closed loop."""
    setups = [setup_seconds(runner.config_path)
              for _ in range(SETUP_SAMPLES)]
    firsts = [run_op(runner)]
    start = time.perf_counter()
    while time.perf_counter() - start + firsts[0].seconds <= FIRST_RUN_SECONDS:
        firsts.append(fresh_first_run(runner))
    warm, elapsed = closed_loop(seconds, MIN_WARM_OPS,
                                lambda _: run_op(runner))
    ops = firsts + warm
    durations = [op.seconds for op in warm]
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    values = {
        "run_s.p50": (statistics.median(durations), "s"),
        "runs_per_min": (60.0 * len(warm) / elapsed, "1/min"),
        "first_run_s": (statistics.median(op.seconds for op in firsts), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak, "MB"),
    }
    tail = tail_percentile(durations)
    print(f"end-to-end ({runner.workload.name}, untraced, closed loop, "
          f"1 caller):")
    print(f"  run_s.p50      {values['run_s.p50'][0]:.4f} s "
          f"(n={len(durations)} warm operations)")
    if tail is None:
        print(f"  run_s.tail     n/a s (n={len(durations)}: no percentile "
              "has ten samples above it)")
    else:
        print(f"  run_s.tail     {tail[1]:.4f} s (p{tail[0]}, "
              f"n={len(durations)})")
    print(f"  runs_per_min   {values['runs_per_min'][0]:.3f} 1/min")
    print(f"  first_run_s    {values['first_run_s'][0]:.4f} s "
          f"(median of {len(firsts)} fresh processes)")
    print(f"  setup_s        {values['setup_s'][0]:.4f} s "
          f"(median of {SETUP_SAMPLES} fresh interpreters)")
    print(f"  peak_rss_mb    {peak:.1f} MB")
    claims = runner.claims_failed(ops)
    if claims is not None:
        print(f"  claims_failed  {claims} count")
    failed = sum(1 for op in ops if op.failures)
    print(f"  failed_ops     {failed / len(ops):.4f} share "
          f"({failed} of {len(ops)})")
    return ops, values


def per_layer(runner, seconds: float, tracing, trace_path, env):
    """Traced run: untraced and traced operations alternate after one
    warm-up; layer figures come from the traced ones."""
    tracer = tracing.Tracer()
    targets = tracing.targets(runner.ms)
    warmup = run_op(runner)

    def step(i):
        if i % 2 == 0:
            return ("untraced", run_op(runner))
        tracer.op = i // 2
        return ("traced", run_op(runner, tracer, targets))

    mixed, _ = closed_loop(seconds, 2, step)
    untraced = [op for kind, op in mixed if kind == "untraced"]
    traced = [op for kind, op in mixed if kind == "traced"]
    per_op = [tracing.layer_values(tracer, k) for k in range(len(traced))]
    values = {}
    for name, unit, kind, _, _ in tracing.LAYER_METRICS:
        if kind == "self":
            values[name] = (statistics.median(v[name] for v in per_op), unit)
        else:
            values[name] = (per_op[0][name], unit)
    overhead = (statistics.median(op.seconds for op in traced)
                - statistics.median(op.seconds for op in untraced))
    values["trace.overhead_s"] = (overhead, "s")
    counts = [{n: v[n] for n, u, kind, _, _ in tracing.LAYER_METRICS
               if kind != "self"} for v in per_op]
    ops = [warmup] + untraced + traced
    claims = runner.claims_failed(ops)
    values["diagnostics.claims_failed"] = (claims or 0, "count")

    print(f"per-layer ({runner.workload.name}, self time = span minus child "
          f"spans; median of {len(traced)} traced operations):")
    for name, unit, _, _, moves in tracing.LAYER_METRICS:
        value = values[name][0]
        text = f"{value:.4f}" if unit in ("s", "MB") else f"{value}"
        print(f"  {name:32s} {text:>12s} {unit:5s}  moves: {moves}")
    print(f"  {'diagnostics.claims_failed':32s} "
          f"{'n/a' if claims is None else claims:>12} count")
    print(f"  {'spans per traced operation':32s} "
          f"{len(tracer.spans) // len(traced):>12} count")
    print(f"  {'trace.overhead_s':32s} {overhead:12.4f} s      traced "
          f"p50 - untraced p50 ({len(traced)} vs {len(untraced)} operations)")
    if any(c != counts[0] for c in counts):
        print("  note: call counts differ between traced operations")
    stages = tracing.stage_totals(tracer, 0)
    print("first traced operation, baseline-table columns (inclusive s):")
    print("  | run | " + " | ".join(stages) + " |")
    cells = ["-" if v is None else f"{v:.3f} s" for v in stages.values()]
    print(f"  | {runner.workload.name} | " + " | ".join(cells) + " |")

    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    with open(trace_path, "w") as fh:
        json.dump({"env": env, "workload": runner.workload.name,
                   "seed": runner.seed,
                   "operations": [{"op": i, "seconds": op.seconds}
                                  for i, op in enumerate(traced)],
                   **tracer.to_json()}, fh)
    print(f"spans written to {os.path.relpath(trace_path, ROOT)}")
    return ops, values


def result_line(ops, values, names) -> str:
    failed = sum(1 for op in ops if op.failures)
    metrics = {n: {"value": values[n][0], "unit": values[n][1]}
               for n in names}
    return json.dumps({"correct": failed == 0, "attempted": len(ops),
                       "failed": failed, "metrics": metrics})


def run_child(args) -> int:
    """--child: time this fresh process's first operation; print it as
    JSON."""
    ms = load_modalstab()
    import workloads
    workdir = os.path.join(WORK_ROOT, f"{args.workload}-seed{args.seed}",
                           "fresh")
    runner = workloads.Runner(ms, workloads.WORKLOADS[args.workload],
                              args.seed, workdir)
    op = run_op(runner)
    print(json.dumps({"seconds": op.seconds, "failures": op.failures}))
    return 0


def run_workload(args, nproc: int) -> int:
    ms = load_modalstab()
    import tracing
    import workloads
    workload = workloads.WORKLOADS[args.workload]
    env = environment(nproc)
    workdir = os.path.join(WORK_ROOT, f"{workload.name}-seed{args.seed}")
    runner = workloads.Runner(ms, workload, args.seed, workdir)
    spec = benchmark_spec()
    why = {w["name"]: w["why"] for w in spec["workloads"]}.get(
        workload.name, "not listed in BENCHMARK.json; run by hand")
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}: {why}")
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        ops, values = per_layer(runner, args.seconds, tracing,
                                os.path.join(workdir, "trace.json"), env)
        names = [m["name"] for m in spec["per_layer"]]
    else:
        ops, values = end_to_end(runner, args.seconds)
        names = [m["name"] for m in spec["end_to_end"]]
    print(result_line(ops, values, names))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    import workloads
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    table = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 name, "--seed", str(args.seed), "--seconds",
                 str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
            lines = proc.stdout.rstrip("\n").splitlines()
            print("\n".join(lines[:-1]), flush=True)
            table += [line for line in lines if line.startswith("  | ")]
            if proc.returncode != 0 or not lines:
                print(f"bench: {name} trace {trace} exited "
                      f"{proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                summary["metrics"][f"{name}/{metric}"] = value
    print("baseline-table columns, first traced operation of each workload:")
    print("\n".join(table[:1] + [row for row in table if
                                  not row.startswith("  | run |")]))
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--self-test", action="store_true",
                        help="run every workload path at tiny sizes and "
                             "check the benchmark's own arithmetic and "
                             "checks")
    args = parser.parse_args(argv)
    nproc = cap_threads()
    if args.self_test:
        import selftest
        return selftest.main()
    if args.workload == "all":
        return run_all(args)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of "
                     f"{', '.join(workloads.WORKLOADS)} or all")
    if args.child:
        return run_child(args)
    return run_workload(args, nproc)


if __name__ == "__main__":
    sys.exit(main())
