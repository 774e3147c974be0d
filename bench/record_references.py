"""Record the verify references the benchmark checks against.

    python3 bench/record_references.py

For every verify workload and every config seed 0..REFERENCE_SEEDS-1, runs
`modalstab verify` once and stores N, gains_source and each metric's
sigma_hat in bench/references.json.  Rerun only when a change to modalstab
is meant to move these outputs, and say so in the change.
"""

import json
import os
import sys

import run


def main() -> int:
    run.cap_threads()
    ms = run.load_modalstab()
    import workloads
    out = {}
    for workload in workloads.WORKLOADS.values():
        if workload.kind != "verify":
            continue
        entry = {"n_sim": workload.n_sim, "grid": workload.grid,
                 "sigma_hat": {}}
        for seed in range(workloads.REFERENCE_SEEDS):
            workdir = os.path.join(run.WORK_ROOT, "references", workload.name)
            runner = workloads.Runner(ms, workload, seed, workdir,
                                      references={})
            runner.prepare()
            report = workloads.parse_report(
                runner.collect(runner.operation())["report"])
            xi = [m for m in report["metrics"]
                  if m["metric"].startswith("xi_")]
            entry.update(N=len(xi),
                         gains_source=report["gains"]["gains_source"])
            entry["sigma_hat"][str(seed)] = {
                m["metric"]: m["sigma_hat"] for m in report["metrics"]}
            print(workload.name, seed, flush=True)
        out[workload.name] = entry
    path = os.path.join(run.BENCH_DIR, "references.json")
    with open(path, "w") as fh:
        fh.write(dump(out))
    return 0


def dump(references) -> str:
    """JSON with one line per seed, so a re-recording diffs seed by seed."""
    lines = []
    for name, entry in sorted(references.items()):
        head = {k: v for k, v in sorted(entry.items()) if k != "sigma_hat"}
        seeds = [f'    "{seed}": {json.dumps(sigma, sort_keys=True)}'
                 for seed, sigma in sorted(entry["sigma_hat"].items(),
                                           key=lambda kv: int(kv[0]))]
        lines.append(f'  "{name}": {json.dumps(head)[:-1]}, "sigma_hat": {{\n'
                     + ",\n".join(seeds) + "\n  }}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
